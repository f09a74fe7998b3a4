//! XRL atoms: the typed argument values carried by XRLs.
//!
//! "XRL arguments ... are restricted to a set of core types used throughout
//! XORP, including network addresses, numbers, strings, booleans, binary
//! arrays, and lists of these primitives." (§6.1)
//!
//! An atom renders textually as `name:type=value` (e.g. `as:u32=1777`) with
//! percent-escaping for reserved characters, and has a compact binary
//! encoding used by the TCP/UDP transports ([`crate::marshal`]).

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

use xorp_net::{Ipv4Net, Ipv6Net, Mac};

use crate::error::XrlError;
use crate::wire::WireList;

/// The type tag of an atom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AtomType {
    I32,
    U32,
    I64,
    U64,
    Bool,
    /// Text string (`txt`).
    Text,
    Ipv4,
    Ipv6,
    Ipv4Net,
    Ipv6Net,
    Mac,
    /// Opaque byte array, base64-free hex in textual form.
    Binary,
    /// Homogeneous-or-not list of atoms (values only, no names).
    List,
}

impl AtomType {
    /// The textual tag (`u32`, `txt`, `ipv4net`, ...).
    pub fn tag(&self) -> &'static str {
        match self {
            AtomType::I32 => "i32",
            AtomType::U32 => "u32",
            AtomType::I64 => "i64",
            AtomType::U64 => "u64",
            AtomType::Bool => "bool",
            AtomType::Text => "txt",
            AtomType::Ipv4 => "ipv4",
            AtomType::Ipv6 => "ipv6",
            AtomType::Ipv4Net => "ipv4net",
            AtomType::Ipv6Net => "ipv6net",
            AtomType::Mac => "mac",
            AtomType::Binary => "binary",
            AtomType::List => "list",
        }
    }

    /// Parse a textual tag.
    pub fn from_tag(s: &str) -> Option<AtomType> {
        Some(match s {
            "i32" => AtomType::I32,
            "u32" => AtomType::U32,
            "i64" => AtomType::I64,
            "u64" => AtomType::U64,
            "bool" => AtomType::Bool,
            "txt" => AtomType::Text,
            "ipv4" => AtomType::Ipv4,
            "ipv6" => AtomType::Ipv6,
            "ipv4net" => AtomType::Ipv4Net,
            "ipv6net" => AtomType::Ipv6Net,
            "mac" => AtomType::Mac,
            "binary" => AtomType::Binary,
            "list" => AtomType::List,
            _ => return None,
        })
    }
}

/// A typed value.
#[derive(Debug, Clone, Eq)]
pub enum AtomValue {
    I32(i32),
    U32(u32),
    I64(i64),
    U64(u64),
    Bool(bool),
    Text(String),
    Ipv4(Ipv4Addr),
    Ipv6(Ipv6Addr),
    Ipv4Net(Ipv4Net),
    Ipv6Net(Ipv6Net),
    Mac(Mac),
    Binary(Vec<u8>),
    List(Vec<AtomValue>),
    /// A list left in wire form, as decoded frames carry every list: the
    /// same atom as the tree its bytes encode.
    Wire(WireList),
}

impl PartialEq for AtomValue {
    fn eq(&self, other: &Self) -> bool {
        use AtomValue::*;
        match (self, other) {
            (I32(a), I32(b)) => a == b,
            (U32(a), U32(b)) => a == b,
            (I64(a), I64(b)) => a == b,
            (U64(a), U64(b)) => a == b,
            (Bool(a), Bool(b)) => a == b,
            (Text(a), Text(b)) => a == b,
            (Ipv4(a), Ipv4(b)) => a == b,
            (Ipv6(a), Ipv6(b)) => a == b,
            (Ipv4Net(a), Ipv4Net(b)) => a == b,
            (Ipv6Net(a), Ipv6Net(b)) => a == b,
            (Mac(a), Mac(b)) => a == b,
            (Binary(a), Binary(b)) => a == b,
            (List(a), List(b)) => a == b,
            (Wire(a), Wire(b)) => a == b || a.to_atoms().ok() == b.to_atoms().ok(),
            (Wire(w), List(items)) | (List(items), Wire(w)) => {
                w.to_atoms().is_ok_and(|t| t == *items)
            }
            _ => false,
        }
    }
}

impl AtomValue {
    /// The value's type tag.
    pub fn atom_type(&self) -> AtomType {
        match self {
            AtomValue::I32(_) => AtomType::I32,
            AtomValue::U32(_) => AtomType::U32,
            AtomValue::I64(_) => AtomType::I64,
            AtomValue::U64(_) => AtomType::U64,
            AtomValue::Bool(_) => AtomType::Bool,
            AtomValue::Text(_) => AtomType::Text,
            AtomValue::Ipv4(_) => AtomType::Ipv4,
            AtomValue::Ipv6(_) => AtomType::Ipv6,
            AtomValue::Ipv4Net(_) => AtomType::Ipv4Net,
            AtomValue::Ipv6Net(_) => AtomType::Ipv6Net,
            AtomValue::Mac(_) => AtomType::Mac,
            AtomValue::Binary(_) => AtomType::Binary,
            AtomValue::List(_) | AtomValue::Wire(_) => AtomType::List,
        }
    }

    /// Approximate wire size of this value in the binary frame format
    /// (type byte + payload), without encoding.  Used by overload
    /// instrumentation to estimate queue memory cheaply.
    pub fn approx_wire_len(&self) -> usize {
        1 + match self {
            AtomValue::I32(_) | AtomValue::U32(_) | AtomValue::Ipv4(_) => 4,
            AtomValue::I64(_) | AtomValue::U64(_) => 8,
            AtomValue::Bool(_) => 1,
            AtomValue::Text(s) => 4 + s.len(),
            AtomValue::Ipv6(_) => 16,
            AtomValue::Ipv4Net(_) => 5,
            AtomValue::Ipv6Net(_) => 17,
            AtomValue::Mac(_) => 6,
            AtomValue::Binary(b) => 4 + b.len(),
            AtomValue::List(items) => 2 + items.iter().map(|v| v.approx_wire_len()).sum::<usize>(),
            AtomValue::Wire(list) => list.wire_len() - 1,
        }
    }

    /// Render the value (without name/type) in textual XRL form, escaped.
    pub fn render(&self) -> String {
        match self {
            AtomValue::I32(v) => v.to_string(),
            AtomValue::U32(v) => v.to_string(),
            AtomValue::I64(v) => v.to_string(),
            AtomValue::U64(v) => v.to_string(),
            AtomValue::Bool(v) => v.to_string(),
            AtomValue::Text(v) => escape(v),
            AtomValue::Ipv4(v) => v.to_string(),
            AtomValue::Ipv6(v) => escape(&v.to_string()),
            AtomValue::Ipv4Net(v) => escape(&v.to_string()),
            AtomValue::Ipv6Net(v) => escape(&v.to_string()),
            AtomValue::Mac(v) => escape(&v.to_string()),
            AtomValue::Binary(v) => v.iter().map(|b| format!("{b:02x}")).collect(),
            AtomValue::List(v) => render_list(v),
            AtomValue::Wire(list) => render_list(&list.to_atoms().unwrap_or_default()),
        }
    }

    /// Parse a (previously unescaped) textual value of the given type.
    pub fn parse(ty: AtomType, s: &str) -> Result<AtomValue, XrlError> {
        macro_rules! bad {
            () => {
                |_| XrlError::Parse(format!("bad {} value: {s}", ty.tag()))
            };
        }
        Ok(match ty {
            AtomType::I32 => AtomValue::I32(s.parse().map_err(bad!())?),
            AtomType::U32 => AtomValue::U32(s.parse().map_err(bad!())?),
            AtomType::I64 => AtomValue::I64(s.parse().map_err(bad!())?),
            AtomType::U64 => AtomValue::U64(s.parse().map_err(bad!())?),
            AtomType::Bool => AtomValue::Bool(s.parse().map_err(bad!())?),
            AtomType::Text => AtomValue::Text(s.to_string()),
            AtomType::Ipv4 => AtomValue::Ipv4(s.parse().map_err(bad!())?),
            AtomType::Ipv6 => AtomValue::Ipv6(s.parse().map_err(bad!())?),
            AtomType::Ipv4Net => AtomValue::Ipv4Net(s.parse().map_err(bad!())?),
            AtomType::Ipv6Net => AtomValue::Ipv6Net(s.parse().map_err(bad!())?),
            AtomType::Mac => AtomValue::Mac(s.parse().map_err(bad!())?),
            AtomType::Binary => {
                if s.len() % 2 != 0 {
                    return Err(XrlError::Parse(format!("odd-length binary: {s}")));
                }
                let mut v = Vec::with_capacity(s.len() / 2);
                for i in (0..s.len()).step_by(2) {
                    v.push(
                        u8::from_str_radix(&s[i..i + 2], 16)
                            .map_err(|_| XrlError::Parse(format!("bad binary: {s}")))?,
                    );
                }
                AtomValue::Binary(v)
            }
            AtomType::List => {
                if s.is_empty() {
                    return Ok(AtomValue::List(Vec::new()));
                }
                let mut items = Vec::new();
                for part in s.split(',') {
                    let (t, v) = part
                        .split_once('=')
                        .ok_or_else(|| XrlError::Parse(format!("bad list item: {part}")))?;
                    let ty = AtomType::from_tag(t)
                        .ok_or_else(|| XrlError::Parse(format!("bad list type: {t}")))?;
                    // Item values carry one extra level of escaping so that
                    // ',' and '=' inside them don't break list framing.
                    items.push(AtomValue::parse(ty, &unescape(v)?)?);
                }
                AtomValue::List(items)
            }
        })
    }
}

/// A list's textual form: comma-separated `type=value` pairs, escaped.
fn render_list(items: &[AtomValue]) -> String {
    let parts: Vec<String> = items
        .iter()
        .map(|e| format!("{}={}", e.atom_type().tag(), e.render()))
        .collect();
    escape(&parts.join(","))
}

/// A named, typed argument: `name:type=value`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XrlAtom {
    /// Argument name (e.g. `as`).
    pub name: String,
    /// Typed value.
    pub value: AtomValue,
}

impl XrlAtom {
    /// Construct an atom.
    pub fn new(name: impl Into<String>, value: AtomValue) -> XrlAtom {
        XrlAtom {
            name: name.into(),
            value,
        }
    }
}

impl fmt::Display for XrlAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}={}",
            escape(&self.name),
            self.value.atom_type().tag(),
            self.value.render()
        )
    }
}

/// An ordered list of named atoms, with typed accessors.
///
/// Arguments decoded from a wire-v2 (positional) frame have empty names;
/// [`XrlArgs::get_arg`] reads them by index.  `context` carries the method
/// path being decoded so accessor errors can name the call they belong to —
/// it is metadata, not an argument, and is excluded from equality.
#[derive(Debug, Clone, Default)]
pub struct XrlArgs {
    atoms: Vec<XrlAtom>,
    /// Method path this argument block belongs to, for error attribution.
    context: Option<Arc<str>>,
}

impl PartialEq for XrlArgs {
    fn eq(&self, other: &Self) -> bool {
        self.atoms == other.atoms
    }
}

impl Eq for XrlArgs {}

macro_rules! typed_accessors {
    ($get:ident, $add:ident, $variant:ident, $ty:ty) => {
        /// Fetch a required argument of this type by name.
        pub fn $get(&self, name: &str) -> Result<$ty, XrlError> {
            let value = self.find(name).ok_or_else(|| self.missing(name))?;
            <$ty as AtomCodec>::from_atom(value)
                .ok_or_else(|| self.mismatch::<$ty>(name, value.atom_type()))
        }

        /// Append an argument of this type (builder style).
        pub fn $add(mut self, name: &str, v: $ty) -> Self {
            self.push(XrlAtom::new(name, AtomValue::$variant(v)));
            self
        }
    };
}

impl XrlArgs {
    /// No arguments.
    pub fn new() -> XrlArgs {
        XrlArgs::default()
    }

    /// The atoms in order.
    pub fn atoms(&self) -> &[XrlAtom] {
        &self.atoms
    }

    /// Attach the method path being decoded; accessor errors will carry it.
    pub fn set_context(&mut self, path: Arc<str>) {
        self.context = Some(path);
    }

    /// The attached method path, if any.
    pub fn context(&self) -> Option<&str> {
        self.context.as_deref()
    }

    /// `"path: "` prefix for error messages, empty when no context is set.
    fn ctx_prefix(&self) -> String {
        match &self.context {
            Some(p) => format!("{p}: "),
            None => String::new(),
        }
    }

    /// Number of arguments.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// Approximate wire size of the argument block (count + named values),
    /// without encoding.
    pub fn approx_wire_len(&self) -> usize {
        2 + self
            .atoms
            .iter()
            .map(|a| 2 + a.name.len() + a.value.approx_wire_len())
            .sum::<usize>()
    }

    /// Append an atom.
    pub fn push(&mut self, atom: XrlAtom) {
        self.atoms.push(atom);
    }

    /// Append an unnamed (positional) value.  Wire-v2 frames carry their
    /// arguments this way; [`XrlArgs::get_arg`] reads them back by index.
    pub fn push_value(&mut self, value: AtomValue) {
        self.atoms.push(XrlAtom {
            name: String::new(),
            value,
        });
    }

    /// Label unnamed atoms with `names`, by position.  Used when a
    /// positionally-built argument block must fall back to the v1 named
    /// encoding for a peer without signature negotiation.  Atoms that
    /// already carry a name, and positions past `names`, are left alone.
    pub fn label_names(&mut self, names: &[&'static str]) {
        for (a, n) in self.atoms.iter_mut().zip(names) {
            if a.name.is_empty() {
                a.name = (*n).to_string();
            }
        }
    }

    /// Find a value by name.
    pub fn find(&self, name: &str) -> Option<&AtomValue> {
        self.atoms.iter().find(|a| a.name == name).map(|a| &a.value)
    }

    /// Where argument `idx`/`name` sits.  Positional fast path first: if
    /// the atom at `idx` is unnamed (a wire-v2 frame) it is the one;
    /// otherwise the lookup falls back to by-name search so the same
    /// generated decoder accepts named v1 frames from old peers.
    fn position(&self, idx: usize, name: &str) -> Option<usize> {
        match self.atoms.get(idx) {
            Some(a) if a.name.is_empty() => Some(idx),
            _ => self.atoms.iter().position(|a| a.name == name),
        }
    }

    fn missing(&self, name: &str) -> XrlError {
        XrlError::BadArgs(format!("{}missing argument {name}", self.ctx_prefix()))
    }

    fn mismatch<T: AtomCodec>(&self, name: &str, got: AtomType) -> XrlError {
        XrlError::BadArgs(format!(
            "{}{name}: expected {}, got {}",
            self.ctx_prefix(),
            T::TYPE.tag(),
            got.tag()
        ))
    }

    /// Fetch argument `idx`/`name` as a native type: the unnamed atom at
    /// `idx`, or else the atom named `name`.
    pub fn get_arg<T: AtomCodec>(&self, idx: usize, name: &str) -> Result<T, XrlError> {
        let at = self.position(idx, name).ok_or_else(|| self.missing(name))?;
        let value = &self.atoms[at].value;
        T::from_atom(value).ok_or_else(|| self.mismatch::<T>(name, value.atom_type()))
    }

    /// Like [`XrlArgs::get_arg`] but `None` (not an error) when the
    /// argument is absent.  Generated stubs use it for trailing optional
    /// arguments.
    pub fn get_arg_opt<T: AtomCodec>(&self, idx: usize, name: &str) -> Result<Option<T>, XrlError> {
        match self.position(idx, name) {
            Some(_) => self.get_arg(idx, name).map(Some),
            None => Ok(None),
        }
    }

    /// Like [`XrlArgs::get_arg`], but moves the value out of the block
    /// instead of copying it: generated dispatch reads each argument once.
    /// On a type mismatch the value stays where it was.
    pub fn take_arg<T: AtomCodec>(&mut self, idx: usize, name: &str) -> Result<T, XrlError> {
        let at = self.position(idx, name).ok_or_else(|| self.missing(name))?;
        let value = std::mem::replace(&mut self.atoms[at].value, AtomValue::Bool(false));
        T::take_atom(value).map_err(|value| {
            let err = self.mismatch::<T>(name, value.atom_type());
            self.atoms[at].value = value;
            err
        })
    }

    typed_accessors!(get_i32, add_i32, I32, i32);
    typed_accessors!(get_u32, add_u32, U32, u32);
    typed_accessors!(get_i64, add_i64, I64, i64);
    typed_accessors!(get_u64, add_u64, U64, u64);
    typed_accessors!(get_bool, add_bool, Bool, bool);
    typed_accessors!(get_text, add_text, Text, String);
    typed_accessors!(get_ipv4, add_ipv4, Ipv4, Ipv4Addr);
    typed_accessors!(get_ipv6, add_ipv6, Ipv6, Ipv6Addr);
    typed_accessors!(get_ipv4net, add_ipv4net, Ipv4Net, Ipv4Net);
    typed_accessors!(get_ipv6net, add_ipv6net, Ipv6Net, Ipv6Net);
    typed_accessors!(get_mac, add_mac, Mac, Mac);
    typed_accessors!(get_binary, add_binary, Binary, Vec<u8>);
    typed_accessors!(get_list, add_list, List, Vec<AtomValue>);

    /// Convenience: text accessor taking &str.
    pub fn add_str(self, name: &str, v: &str) -> Self {
        self.add_text(name, v.to_string())
    }

    /// Render in textual XRL form: `a:u32=1&b:txt=hi`.
    pub fn render(&self) -> String {
        let parts: Vec<String> = self.atoms.iter().map(|a| a.to_string()).collect();
        parts.join("&")
    }

    /// Parse the textual form produced by [`XrlArgs::render`].
    pub fn parse(s: &str) -> Result<XrlArgs, XrlError> {
        let mut args = XrlArgs::new();
        if s.is_empty() {
            return Ok(args);
        }
        for part in s.split('&') {
            let (name_ty, value) = part
                .split_once('=')
                .ok_or_else(|| XrlError::Parse(format!("bad argument: {part}")))?;
            let (name, ty) = name_ty
                .rsplit_once(':')
                .ok_or_else(|| XrlError::Parse(format!("bad argument name: {name_ty}")))?;
            let ty = AtomType::from_tag(ty)
                .ok_or_else(|| XrlError::Parse(format!("unknown type: {ty}")))?;
            let value = AtomValue::parse(ty, &unescape(value)?)?;
            args.push(XrlAtom::new(unescape(name)?, value));
        }
        Ok(args)
    }
}

impl FromIterator<XrlAtom> for XrlArgs {
    fn from_iter<I: IntoIterator<Item = XrlAtom>>(iter: I) -> Self {
        XrlArgs {
            atoms: iter.into_iter().collect(),
            context: None,
        }
    }
}

/// Conversion between native Rust types and [`AtomValue`]s.  The typed
/// stubs generated by [`crate::xrl_interface!`] use this to encode
/// arguments and decode replies without naming atom variants by hand.
pub trait AtomCodec: Sized {
    /// The wire type this native type maps to.
    const TYPE: AtomType;
    /// Encode into an atom value.
    fn into_atom(self) -> AtomValue;
    /// Decode from an atom value; `None` on a type mismatch.
    fn from_atom(value: &AtomValue) -> Option<Self>;
    /// Decode by value, moving a string, buffer or list out instead of
    /// copying it; the value comes back on a type mismatch.
    fn take_atom(value: AtomValue) -> Result<Self, AtomValue>;
}

macro_rules! atom_codec {
    ($ty:ty, $variant:ident) => {
        impl AtomCodec for $ty {
            const TYPE: AtomType = AtomType::$variant;
            fn into_atom(self) -> AtomValue {
                AtomValue::$variant(self)
            }
            fn from_atom(value: &AtomValue) -> Option<Self> {
                match value {
                    AtomValue::$variant(v) => Some(v.clone()),
                    _ => None,
                }
            }
            fn take_atom(value: AtomValue) -> Result<Self, AtomValue> {
                match value {
                    AtomValue::$variant(v) => Ok(v),
                    other => Err(other),
                }
            }
        }
    };
}

atom_codec!(i32, I32);
atom_codec!(u32, U32);
atom_codec!(i64, I64);
atom_codec!(u64, U64);
atom_codec!(bool, Bool);
atom_codec!(String, Text);
atom_codec!(Ipv4Addr, Ipv4);
atom_codec!(Ipv6Addr, Ipv6);
atom_codec!(Ipv4Net, Ipv4Net);
atom_codec!(Ipv6Net, Ipv6Net);
atom_codec!(Mac, Mac);
atom_codec!(Vec<u8>, Binary);

/// A list as a tree: a list that arrived in wire form is materialized.
impl AtomCodec for Vec<AtomValue> {
    const TYPE: AtomType = AtomType::List;
    fn into_atom(self) -> AtomValue {
        AtomValue::List(self)
    }
    fn from_atom(value: &AtomValue) -> Option<Self> {
        match value {
            AtomValue::List(v) => Some(v.clone()),
            AtomValue::Wire(w) => w.to_atoms().ok(),
            _ => None,
        }
    }
    fn take_atom(value: AtomValue) -> Result<Self, AtomValue> {
        match value {
            AtomValue::List(v) => Ok(v),
            AtomValue::Wire(w) => w.to_atoms().map_err(|_| AtomValue::Wire(w)),
            other => Err(other),
        }
    }
}

/// A list in wire form: a tree-form list (a textual XRL, hand-built
/// arguments) is encoded once.
impl AtomCodec for WireList {
    const TYPE: AtomType = AtomType::List;
    fn into_atom(self) -> AtomValue {
        AtomValue::Wire(self)
    }
    fn from_atom(value: &AtomValue) -> Option<Self> {
        match value {
            AtomValue::Wire(w) => Some(w.clone()),
            AtomValue::List(items) => WireList::from_atoms(items).ok(),
            _ => None,
        }
    }
    fn take_atom(value: AtomValue) -> Result<Self, AtomValue> {
        match value {
            AtomValue::Wire(w) => Ok(w),
            AtomValue::List(items) => {
                WireList::from_atoms(&items).map_err(|_| AtomValue::List(items))
            }
            other => Err(other),
        }
    }
}

/// Percent-escape characters reserved by the XRL grammar.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'%' | b'&' | b'=' | b'?' | b'/' | b':' | b',' | b' ' | b'#' => {
                out.push_str(&format!("%{b:02X}"));
            }
            0x00..=0x1F | 0x7F.. => out.push_str(&format!("%{b:02X}")),
            _ => out.push(b as char),
        }
    }
    out
}

/// Reverse of [`escape`].
pub(crate) fn unescape(s: &str) -> Result<String, XrlError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if i + 3 > bytes.len() {
                return Err(XrlError::Parse(format!("truncated escape in {s}")));
            }
            let hex = std::str::from_utf8(&bytes[i + 1..i + 3])
                .map_err(|_| XrlError::Parse(format!("bad escape in {s}")))?;
            out.push(
                u8::from_str_radix(hex, 16)
                    .map_err(|_| XrlError::Parse(format!("bad escape in {s}")))?,
            );
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| XrlError::Parse(format!("non-UTF8 after unescape: {s}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atom_display() {
        let a = XrlAtom::new("as", AtomValue::U32(1777));
        assert_eq!(a.to_string(), "as:u32=1777");
    }

    #[test]
    fn args_render_parse_roundtrip() {
        let args = XrlArgs::new()
            .add_u32("as", 1777)
            .add_str("name", "hello world & more")
            .add_bool("flag", true)
            .add_ipv4("peer", "192.0.2.1".parse().unwrap())
            .add_ipv4net("net", "10.0.0.0/8".parse().unwrap())
            .add_binary("blob", vec![0xde, 0xad, 0xbe, 0xef]);
        let text = args.render();
        let parsed = XrlArgs::parse(&text).unwrap();
        assert_eq!(parsed, args);
    }

    #[test]
    fn typed_accessors_enforce_types() {
        let args = XrlArgs::new().add_u32("x", 7);
        assert_eq!(args.get_u32("x").unwrap(), 7);
        assert!(matches!(args.get_text("x"), Err(XrlError::BadArgs(_))));
        assert!(matches!(args.get_u32("y"), Err(XrlError::BadArgs(_))));
    }

    #[test]
    fn list_values_roundtrip() {
        let args = XrlArgs::new().add_list(
            "nets",
            vec![
                AtomValue::Ipv4Net("10.0.0.0/8".parse().unwrap()),
                AtomValue::Ipv4Net("172.16.0.0/12".parse().unwrap()),
                AtomValue::U32(5),
            ],
        );
        let text = args.render();
        let parsed = XrlArgs::parse(&text).unwrap();
        assert_eq!(parsed, args);
    }

    #[test]
    fn empty_list_roundtrip() {
        let args = XrlArgs::new().add_list("empty", vec![]);
        assert_eq!(XrlArgs::parse(&args.render()).unwrap(), args);
    }

    #[test]
    fn escape_roundtrip() {
        for s in [
            "plain",
            "with space",
            "a&b=c?d/e:f,g",
            "100%",
            "unicode: ü",
            "",
        ] {
            assert_eq!(unescape(&escape(s)).unwrap(), s);
        }
    }

    #[test]
    fn unescape_rejects_truncated() {
        assert!(unescape("%4").is_err());
        assert!(unescape("%zz").is_err());
    }

    #[test]
    fn binary_hex_rendering() {
        let v = AtomValue::Binary(vec![0x00, 0xff, 0x10]);
        assert_eq!(v.render(), "00ff10");
        assert_eq!(AtomValue::parse(AtomType::Binary, "00ff10").unwrap(), v);
        assert!(AtomValue::parse(AtomType::Binary, "0f0").is_err());
    }

    #[test]
    fn ipv6_values() {
        let args = XrlArgs::new().add_ipv6("a", "2001:db8::1".parse().unwrap());
        // Colons must be escaped in the rendered text.
        assert!(!args.render().contains("::1"));
        assert_eq!(XrlArgs::parse(&args.render()).unwrap(), args);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(XrlArgs::parse("no_equals").is_err());
        assert!(XrlArgs::parse("name=value").is_err()); // missing type
        assert!(XrlArgs::parse("x:nosuch=1").is_err());
        assert!(XrlArgs::parse("x:u32=notanumber").is_err());
    }

    #[test]
    fn empty_args() {
        assert_eq!(XrlArgs::parse("").unwrap(), XrlArgs::new());
        assert_eq!(XrlArgs::new().render(), "");
    }

    #[test]
    fn accessor_errors_carry_context() {
        let mut args = XrlArgs::new().add_u32("x", 7);
        args.set_context(Arc::from("rib/1.0/add_route"));
        let err = args.get_text("x").unwrap_err().to_string();
        assert!(err.contains("rib/1.0/add_route"), "{err}");
        assert!(err.contains("x"), "{err}");
        let err = args.get_u32("missing").unwrap_err().to_string();
        assert!(err.contains("rib/1.0/add_route"), "{err}");
        assert!(err.contains("missing"), "{err}");
        let err = args.get_arg::<bool>(0, "x").unwrap_err().to_string();
        assert!(err.contains("rib/1.0/add_route"), "{err}");
    }

    #[test]
    fn context_does_not_affect_equality() {
        let plain = XrlArgs::new().add_u32("x", 7);
        let mut tagged = plain.clone();
        tagged.set_context(Arc::from("rib/1.0/add_route"));
        assert_eq!(plain, tagged);
    }

    #[test]
    fn get_arg_positional_and_named() {
        // v2 shape: unnamed atoms, read by position.
        let mut pos = XrlArgs::new();
        pos.push_value(AtomValue::U32(9));
        pos.push_value(AtomValue::Text("eth0".into()));
        assert_eq!(pos.get_arg::<u32>(0, "metric").unwrap(), 9);
        assert_eq!(pos.get_arg::<String>(1, "ifname").unwrap(), "eth0");
        // v1 shape: named atoms, possibly reordered — index is ignored.
        let named = XrlArgs::new()
            .add_str("ifname", "eth0")
            .add_u32("metric", 9);
        assert_eq!(named.get_arg::<u32>(0, "metric").unwrap(), 9);
        assert_eq!(named.get_arg::<String>(1, "ifname").unwrap(), "eth0");
        // Missing entirely.
        assert!(named.get_arg::<u32>(5, "absent").is_err());
        assert_eq!(named.get_arg_opt::<u32>(5, "absent").unwrap(), None);
        assert_eq!(named.get_arg_opt::<u32>(0, "metric").unwrap(), Some(9));
    }

    #[test]
    fn atom_codec_roundtrip() {
        fn rt<T: AtomCodec + Clone + PartialEq + std::fmt::Debug>(v: T) {
            let atom = v.clone().into_atom();
            assert_eq!(atom.atom_type(), T::TYPE);
            assert_eq!(T::from_atom(&atom).unwrap(), v);
        }
        rt(-5i32);
        rt(7u32);
        rt(-9i64);
        rt(11u64);
        rt(true);
        rt(String::from("hi"));
        rt(Ipv4Addr::new(192, 0, 2, 1));
        rt("2001:db8::1".parse::<Ipv6Addr>().unwrap());
        rt("10.0.0.0/8".parse::<Ipv4Net>().unwrap());
        rt(vec![0xde, 0xad]);
        rt(vec![AtomValue::U32(1), AtomValue::Bool(false)]);
        assert!(u32::from_atom(&AtomValue::Bool(true)).is_none());
    }
}
