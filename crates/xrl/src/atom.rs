//! XRL atoms: the typed argument values carried by XRLs.
//!
//! "XRL arguments ... are restricted to a set of core types used throughout
//! XORP, including network addresses, numbers, strings, booleans, binary
//! arrays, and lists of these primitives." (§6.1)
//!
//! An argument block, [`XrlArgs`], holds its atoms in their compact binary
//! encoding ([`crate::wire`]) from the stub that writes them to the
//! handler that reads them: the bytes a frame carries are the block's
//! own.  An atom also renders textually as `name:type=value` (e.g.
//! `as:u32=1777`) with percent-escaping for reserved characters;
//! [`AtomValue`] and [`XrlAtom`] are that value form — what a textual XRL
//! parses to and what a caller building arguments by hand pushes.

use std::borrow::Cow;
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

use bytes::BufMut;
use xorp_net::{Ipv4Net, Ipv6Net, Mac};

use crate::error::XrlError;
use crate::wire::{AtomCodec, AtomReader, AtomRef, ListWriter, MAX_ITEMS};

/// The type tag of an atom; its discriminant is the atom's type code on
/// the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AtomType {
    I32 = 1,
    U32 = 2,
    I64 = 3,
    U64 = 4,
    Bool = 5,
    /// Text string (`txt`).
    Text = 6,
    Ipv4 = 7,
    Ipv6 = 8,
    Ipv4Net = 9,
    Ipv6Net = 10,
    Mac = 11,
    /// Opaque byte array, base64-free hex in textual form.
    Binary = 12,
    /// Homogeneous-or-not list of atoms (values only, no names).
    List = 13,
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
}

// `atom_type` and the binary form are spelled out per variant beside the
// grammar, in `crate::wire`.
impl AtomValue {
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

/// An argument block: its atoms in the binary grammar of [`crate::wire`],
/// back to back, and their count — the bytes a frame carries, written by
/// the stub and read in place by the handler's dispatch.
///
/// A block is laid out one of the two ways a frame carries arguments:
/// positionally (`(u8 type | value)*`, a v2 request) or named
/// (`(str name | u8 type | value)*`, a v1 request and every response).
/// An unnamed atom in a named block has an empty name, and the first
/// named atom pushed onto a positional block relabels it.  A frame that
/// needs the other layout gets it by one copy walk.  `context` carries the
/// method path being decoded so accessor errors can name the call they
/// belong to — it is metadata, not an argument, and is excluded from
/// equality.
#[derive(Clone, Default)]
pub struct XrlArgs {
    atoms: ListWriter,
    /// Each atom is preceded by its name.
    named: bool,
    /// Method path this argument block belongs to, for error attribution.
    context: Option<Arc<str>>,
}

impl PartialEq for XrlArgs {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for XrlArgs {}

impl fmt::Debug for XrlArgs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XrlArgs({})", self.render())
    }
}

macro_rules! typed_accessors {
    ($get:ident, $add:ident, $ty:ty) => {
        /// Fetch a required argument of this type by name.
        pub fn $get(&self, name: &str) -> Result<$ty, XrlError> {
            self.pick(None, name)
        }

        /// Append an argument of this type (builder style).
        pub fn $add(mut self, name: &str, v: $ty) -> Self {
            self.put(name, |w| v.write(w));
            self
        }
    };
}

impl XrlArgs {
    /// No arguments.
    pub fn new() -> XrlArgs {
        XrlArgs::default()
    }

    /// No arguments yet, in the named or positional layout, and room for
    /// `bytes` bytes of them.
    pub(crate) fn with_capacity(named: bool, bytes: usize) -> XrlArgs {
        XrlArgs {
            atoms: ListWriter::with_capacity(bytes),
            named,
            context: None,
        }
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

    /// Append an atom.
    pub fn push(&mut self, atom: XrlAtom) {
        self.put(&atom.name, |w| {
            w.value(&atom.value);
        });
    }

    /// Append an unnamed (positional) value.  Wire-v2 frames carry their
    /// arguments this way; [`XrlArgs::get_arg`] reads them back by index.
    pub fn push_value(&mut self, value: AtomValue) {
        self.put("", |w| {
            w.value(&value);
        });
    }

    /// Append an unnamed (positional) argument of a native type.
    pub fn push_arg<T: AtomCodec>(&mut self, v: &T) {
        self.put("", |w| v.write(w));
    }

    /// Append the one atom `write` writes, named `name` (`""`: unnamed).
    pub(crate) fn put(&mut self, name: &str, write: impl FnOnce(&mut ListWriter)) {
        if !self.named && !name.is_empty() {
            *self = std::mem::take(self).into_layout(true, &[]);
        }
        if self.named {
            self.atoms.name(name);
        }
        write(&mut self.atoms);
    }

    /// The block in the named or positional layout: one read and rewrite
    /// that labels unnamed atoms by position from `names` (empty past its
    /// end), or drops every name.  A positional block goes out on a v1
    /// frame this way.
    pub(crate) fn into_layout(self, named: bool, names: &[&str]) -> XrlArgs {
        if self.named == named {
            return self;
        }
        let labels: usize = names.iter().map(|n| 2 + n.len()).sum();
        let mut atoms = ListWriter::with_capacity(self.atoms.buf.len() + labels);
        for (i, (_, _, bytes)) in self.entries().enumerate() {
            if named {
                atoms.name(names.get(i).copied().unwrap_or(""));
            }
            atoms.buf.put_slice(bytes);
        }
        atoms.count = self.atoms.count;
        XrlArgs {
            atoms,
            named,
            context: self.context,
        }
    }

    /// The block in the layout a frame needs.  Only a block built for
    /// another frame — a positional reply, named arguments on a v2
    /// request — is copied to get it.
    fn laid_out(&self, named: bool) -> Cow<'_, XrlArgs> {
        match self.named == named || self.is_empty() {
            true => Cow::Borrowed(self),
            false => Cow::Owned(self.clone().into_layout(named, &[])),
        }
    }

    /// Refuse a block the wire cannot count: more than [`MAX_ITEMS`]
    /// atoms, or a list or name that outgrew its 16-bit count (the block
    /// counts them as they are written).  Sent anyway, it would decode as a
    /// shorter one.  The send core checks every request and reply before it
    /// is charged or encoded.
    pub(crate) fn counted(&self) -> Result<(), XrlError> {
        match self.len() {
            0..=MAX_ITEMS => Ok(()),
            _ => Err(XrlError::BadArgs(format!(
                "argument block exceeds the wire's {MAX_ITEMS}-item count"
            ))),
        }
    }

    /// Append the block, count first, in the named or positional layout.
    pub(crate) fn put_into(&self, buf: &mut impl BufMut, named: bool) {
        let args = self.laid_out(named);
        buf.put_u16(args.len() as u16);
        buf.put_slice(&args.atoms.buf);
    }

    /// Bytes [`XrlArgs::put_into`] appends.
    pub(crate) fn wire_len(&self, named: bool) -> usize {
        2 + self.laid_out(named).atoms.buf.len()
    }

    /// Check the block at the front of `buf` — count first, in the named or
    /// positional layout — and copy it out.  Every read a handler makes of
    /// it later is of checked bytes.
    pub(crate) fn decode(buf: &mut &[u8], named: bool) -> Result<XrlArgs, XrlError> {
        let mut r = AtomReader::new(buf);
        let count = r.count()?;
        let start = r.rest();
        for _ in 0..count {
            if named {
                r.name()?;
            }
            r.read()?;
        }
        let atoms = &start[..start.len() - r.rest().len()];
        *buf = r.rest();
        Ok(XrlArgs {
            atoms: ListWriter {
                buf: atoms.to_vec(),
                count: count.into(),
            },
            named,
            context: None,
        })
    }

    fn entries(&self) -> Entries<'_> {
        Entries {
            r: AtomReader::new(&self.atoms.buf),
            named: self.named,
        }
    }

    /// The atoms in order, each with its name (`""` when unnamed).
    pub fn iter(&self) -> impl Iterator<Item = (&str, AtomRef<'_>)> {
        self.entries().map(|(name, atom, _)| (name, atom))
    }

    /// A cursor reading the arguments in declaration order.
    pub(crate) fn reader(&self) -> ArgReader<'_> {
        ArgReader {
            args: self,
            entries: self.entries(),
        }
    }

    /// Argument `name` as a `T`: `here`, the atom in its position, when
    /// that is unnamed or named `name`, and otherwise the atom named
    /// `name` — so the same generated decoder accepts named v1 blocks from
    /// old peers, in any order.
    fn pick<T: AtomCodec>(
        &self,
        here: Option<(&str, AtomRef<'_>)>,
        name: &str,
    ) -> Result<T, XrlError> {
        let atom = match here {
            Some((n, atom)) if n.is_empty() || n == name => Some(atom),
            _ => self.iter().find(|(n, _)| *n == name).map(|(_, atom)| atom),
        };
        let Some(atom) = atom else {
            let ctx = self.ctx_prefix();
            return Err(XrlError::BadArgs(format!("{ctx}missing argument {name}")));
        };
        T::read(atom).ok_or_else(|| {
            let (ctx, want, got) = (self.ctx_prefix(), T::TYPE.tag(), atom.atom_type().tag());
            XrlError::BadArgs(format!("{ctx}{name}: expected {want}, got {got}"))
        })
    }

    /// Fetch argument `idx`/`name` as a native type: the unnamed atom at
    /// `idx`, or else the atom named `name`.
    pub fn get_arg<T: AtomCodec>(&self, idx: usize, name: &str) -> Result<T, XrlError> {
        self.pick(self.iter().nth(idx), name)
    }

    typed_accessors!(get_i32, add_i32, i32);
    typed_accessors!(get_u32, add_u32, u32);
    typed_accessors!(get_i64, add_i64, i64);
    typed_accessors!(get_u64, add_u64, u64);
    typed_accessors!(get_bool, add_bool, bool);
    typed_accessors!(get_text, add_text, String);
    typed_accessors!(get_ipv4, add_ipv4, Ipv4Addr);
    typed_accessors!(get_ipv6, add_ipv6, Ipv6Addr);
    typed_accessors!(get_ipv4net, add_ipv4net, Ipv4Net);
    typed_accessors!(get_ipv6net, add_ipv6net, Ipv6Net);
    typed_accessors!(get_mac, add_mac, Mac);
    typed_accessors!(get_binary, add_binary, Vec<u8>);
    typed_accessors!(get_list, add_list, Vec<AtomValue>);

    /// Convenience: text accessor taking &str.
    pub fn add_str(self, name: &str, v: &str) -> Self {
        self.add_text(name, v.to_string())
    }

    /// Render in textual XRL form: `a:u32=1&b:txt=hi`.
    pub fn render(&self) -> String {
        let parts: Vec<String> = self
            .iter()
            .filter_map(|(name, atom)| Some(XrlAtom::new(name, atom.to_value().ok()?).to_string()))
            .collect();
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
        let mut args = XrlArgs::new();
        for atom in iter {
            args.push(atom);
        }
        args
    }
}

/// A block's atoms in order, each with its name (`""` when unnamed) and
/// its bytes.  Iteration ends with the bytes, or at bytes that do not
/// read — which no block holds: the grammar's writer wrote it, or
/// [`XrlArgs::decode`] checked it.
struct Entries<'a> {
    r: AtomReader<'a>,
    named: bool,
}

impl<'a> Iterator for Entries<'a> {
    type Item = (&'a str, AtomRef<'a>, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        let r = &mut self.r;
        if r.rest().is_empty() {
            return None;
        }
        let name = if self.named { r.name().ok()? } else { "" };
        let at = r.rest();
        let atom = r.read().ok()?;
        Some((name, atom, &at[..at.len() - r.rest().len()]))
    }
}

/// Reads a block's arguments in declaration order with one cursor, as
/// generated dispatch does: the atom under the cursor is the argument when
/// it is unnamed or carries the argument's name, and otherwise a named
/// block is searched by name.
pub(crate) struct ArgReader<'a> {
    args: &'a XrlArgs,
    entries: Entries<'a>,
}

impl ArgReader<'_> {
    /// The next argument, declared as `name`, as a `T`.
    pub(crate) fn arg<T: AtomCodec>(&mut self, name: &str) -> Result<T, XrlError> {
        let here = self.entries.next().map(|(n, atom, _)| (n, atom));
        self.args.pick(here, name)
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
    }

    #[test]
    fn atom_codec_roundtrip() {
        fn rt<T: AtomCodec + Clone + PartialEq + std::fmt::Debug>(v: T) {
            let mut w = ListWriter::default();
            v.write(&mut w);
            assert_eq!(w.buf.len(), v.wire_len());
            let atom = AtomReader::new(&w.buf).read().unwrap();
            assert_eq!(atom.atom_type(), T::TYPE);
            assert_eq!(T::read(atom).unwrap(), v);
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
        assert!(u32::read(AtomRef::Bool(true)).is_none());
    }
}
