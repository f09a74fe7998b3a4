//! The binary atom grammar: the one writer and the one reader of every
//! atom an XRL frame carries.
//!
//! Every atom is `u8 type | value` (the table in [`crate::marshal`]).
//! [`ListWriter`] appends atoms to bytes one typed item at a time — a
//! nested list in place, its count patched once its items are in — and
//! counts them as it goes.  [`AtomReader`] is a cursor that yields each
//! atom as an [`AtomRef`] borrowed from the bytes.  Each read makes every
//! check the grammar requires — a known type code, lengths that fit,
//! UTF-8 text, a prefix length the family allows, bounded list nesting —
//! and allocates nothing.  A list read this way is checked and stays
//! bytes.
//!
//! The pair serves every block of atoms there is: an XRL's argument block
//! ([`crate::XrlArgs`]), written by the client stub and read by the
//! server's dispatch, and the lists inside it — a batched route frame's
//! rows ([`WireList`]) among them.  [`AtomCodec`] maps a native type onto
//! the grammar: it writes one atom and reads one back from an
//! [`AtomRef`], so no argument passes through an [`AtomValue`] on its way
//! from stub to handler.
//!
//! Rows — a list of lists, as batched route frames and `profile/1.0`
//! replies carry them — have one writer and one reader too: a row is
//! written with [`ListWriter::list`], its scalars with [`ListWriter::put`],
//! and read in place by [`WireList::read_rows`], which rejects the whole
//! list at its first bad row, item by item with [`AtomReader::next_as`].

use std::fmt::{self, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr};
use std::sync::Arc;

use bytes::BufMut;
use xorp_net::{Addr, Ipv4Net, Ipv6Net, Mac, Prefix};

use crate::atom::{AtomType, AtomValue};
use crate::error::XrlError;

/// Maximum list nesting a decoded frame may carry.  Batched route frames
/// use two levels (rows inside a batch); anything deeper than this is an
/// adversarial frame trying to exhaust the decoder's stack.
const MAX_LIST_DEPTH: u32 = 16;

/// The most items a list (or atoms an argument block) can hold: the wire
/// counts them in 16 bits.
pub const MAX_ITEMS: usize = u16::MAX as usize;

const TEXT: u8 = AtomType::Text as u8;
const LIST: u8 = AtomType::List as u8;

/// One atom read in place: scalars by value, text and binary borrowed
/// from the bytes, a list as its checked items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomRef<'a> {
    I32(i32),
    U32(u32),
    I64(i64),
    U64(u64),
    Bool(bool),
    Text(&'a str),
    Ipv4(Ipv4Addr),
    Ipv6(Ipv6Addr),
    Ipv4Net(Ipv4Net),
    Ipv6Net(Ipv6Net),
    Mac(Mac),
    Binary(&'a [u8]),
    /// A list: its item count and its items' bytes.
    List(u16, &'a [u8]),
}

/// The values `count` atoms laid back to back in `items` encode, nested
/// lists as trees too.
fn tree(count: u16, items: &[u8]) -> Result<Vec<AtomValue>, XrlError> {
    let mut r = AtomReader::new(items);
    (0..count).map(|_| r.read()?.to_value()).collect()
}

fn truncated() -> XrlError {
    XrlError::BadFrame("truncated value".into())
}

fn prefix<A: Addr>(addr: A, len: u8) -> Result<Prefix<A>, XrlError> {
    Prefix::new(addr, len).map_err(|e| XrlError::BadFrame(e.to_string()))
}

/// A cursor over atoms laid back to back: the one reader of the binary
/// atom grammar.
#[derive(Debug, Clone)]
pub struct AtomReader<'a> {
    buf: &'a [u8],
    /// Lists the cursor's atoms sit inside.
    depth: u32,
}

impl<'a> AtomReader<'a> {
    /// A reader over top-level atoms (a frame's argument block).
    pub(crate) fn new(buf: &'a [u8]) -> AtomReader<'a> {
        AtomReader { buf, depth: 0 }
    }

    /// The bytes not read yet.
    pub(crate) fn rest(&self) -> &'a [u8] {
        self.buf
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], XrlError> {
        if self.buf.len() < n {
            return Err(truncated());
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], XrlError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// A `u32`-length-prefixed byte string.
    fn sized(&mut self) -> Result<&'a [u8], XrlError> {
        let len = u32::from_be_bytes(self.array()?) as usize;
        self.take(len)
    }

    /// A `u16` count: the atoms of an argument block.
    pub(crate) fn count(&mut self) -> Result<u16, XrlError> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    /// A `str` field (`u16 len | UTF-8`): a frame's target or path, or an
    /// atom's name in a named argument block.
    pub(crate) fn name(&mut self) -> Result<&'a str, XrlError> {
        let len = self.count()?.into();
        std::str::from_utf8(self.take(len)?)
            .map_err(|_| XrlError::BadFrame("non-UTF8 string".into()))
    }

    /// Read the next atom.  A list is checked item by item, at any depth,
    /// and handed back as bytes.
    pub fn read(&mut self) -> Result<AtomRef<'a>, XrlError> {
        let [code] = self.array()?;
        Ok(match code {
            1 => AtomRef::I32(i32::from_be_bytes(self.array()?)),
            2 => AtomRef::U32(u32::from_be_bytes(self.array()?)),
            3 => AtomRef::I64(i64::from_be_bytes(self.array()?)),
            4 => AtomRef::U64(u64::from_be_bytes(self.array()?)),
            5 => AtomRef::Bool(self.array::<1>()?[0] != 0),
            TEXT => AtomRef::Text(
                std::str::from_utf8(self.sized()?)
                    .map_err(|_| XrlError::BadFrame("non-UTF8 text".into()))?,
            ),
            7 => AtomRef::Ipv4(self.array::<4>()?.into()),
            8 => AtomRef::Ipv6(self.array::<16>()?.into()),
            9 => {
                let addr = self.array::<4>()?;
                let [len] = self.array()?;
                AtomRef::Ipv4Net(prefix(addr.into(), len)?)
            }
            10 => {
                let addr = self.array::<16>()?;
                let [len] = self.array()?;
                AtomRef::Ipv6Net(prefix(addr.into(), len)?)
            }
            11 => AtomRef::Mac(Mac(self.array()?)),
            12 => AtomRef::Binary(self.sized()?),
            LIST => {
                if self.depth >= MAX_LIST_DEPTH {
                    return Err(XrlError::BadFrame(format!(
                        "list nesting exceeds {MAX_LIST_DEPTH}"
                    )));
                }
                let count = self.count()?;
                let start = self.buf;
                let mut items = AtomReader {
                    buf: start,
                    depth: self.depth + 1,
                };
                for _ in 0..count {
                    items.read()?;
                }
                self.buf = items.buf;
                AtomRef::List(count, &start[..start.len() - items.buf.len()])
            }
            other => return Err(XrlError::BadFrame(format!("unknown type code {other}"))),
        })
    }

    /// Read the next atom as a `T`; an atom of another type is an error
    /// naming both types.
    pub fn next_as<T: AtomCodec>(&mut self) -> Result<T, XrlError> {
        let atom = self.read()?;
        T::read(atom).ok_or_else(|| {
            XrlError::BadArgs(format!(
                "expected {}, read {}",
                T::TYPE.tag(),
                atom.atom_type().tag()
            ))
        })
    }

    /// Step into a list in place: read its type byte and count and leave
    /// the cursor on its first item, so a caller reads exactly `count`
    /// items next without walking them twice.
    pub fn enter_list(&mut self) -> Result<u16, XrlError> {
        match self.array()? {
            [LIST] => self.count(),
            [other] => Err(XrlError::BadFrame(format!(
                "expected a list, read type code {other}"
            ))),
        }
    }
}

/// A list atom kept in wire form: its items' bytes, checked when they
/// were read or written, and their count.  Cloning shares the bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct WireList {
    count: u16,
    items: Arc<[u8]>,
}

impl WireList {
    /// Encode a tree of atoms — the form a textual XRL or hand-built
    /// arguments bring a list in.
    pub fn from_atoms(items: &[AtomValue]) -> Result<WireList, XrlError> {
        let mut w = ListWriter::default();
        for item in items {
            w.value(item);
        }
        if w.len() > MAX_ITEMS {
            return Err(XrlError::BadArgs(format!(
                "list exceeds the wire's {MAX_ITEMS}-item count"
            )));
        }
        Ok(w.take())
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True when the list has no items.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// A cursor over the items.
    pub fn reader(&self) -> AtomReader<'_> {
        AtomReader {
            buf: &self.items,
            depth: 1,
        }
    }

    /// Read every item as a row, transactionally: the first bad row
    /// rejects the whole list, `BadArgs` naming it `what[i]`, so a caller
    /// applies nothing from a list it refuses.  `row` is handed the cursor
    /// on the row's first item and the row's arity; it must read exactly
    /// `arity` items or fail, so one row's items are never read as the
    /// next row's.
    pub fn read_rows<'a, T>(
        &'a self,
        what: &str,
        mut row: impl FnMut(&mut AtomReader<'a>, u16) -> Result<T, XrlError>,
    ) -> Result<Vec<T>, XrlError> {
        let mut r = self.reader();
        let mut out = Vec::with_capacity(self.len());
        for i in 0..self.len() {
            let fail = |e: &str| XrlError::BadArgs(format!("{what}[{i}]: {e}"));
            let arity = r.enter_list().map_err(|_| fail("row is not a list"))?;
            out.push(row(&mut r, arity).map_err(|e| fail(e.payload()))?);
        }
        Ok(out)
    }

    /// The tree of atoms these bytes encode (nested lists as trees too).
    pub fn to_atoms(&self) -> Result<Vec<AtomValue>, XrlError> {
        tree(self.count, &self.items)
    }
}

impl fmt::Debug for WireList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.to_atoms() {
            Ok(items) => f.debug_tuple("WireList").field(&items).finish(),
            Err(e) => write!(f, "WireList({e})"),
        }
    }
}

/// Appends atoms straight into wire bytes, one typed item at a time; a
/// nested list is written in place and its count patched once its items
/// are in.  An argument block is written with one, and so is a list:
/// [`ListWriter::take`] copies the list out and keeps the buffer, so a
/// writer reused frame after frame allocates only the lists it hands out.
#[derive(Debug, Default, Clone)]
pub struct ListWriter {
    pub(crate) buf: Vec<u8>,
    /// Items written.  `usize::MAX` once a nested list or a name outgrew
    /// its 16-bit count: such bytes must never be sent.
    pub(crate) count: usize,
}

/// Text sink writing UTF-8 straight into a list's bytes.
struct Utf8Sink<'a>(&'a mut Vec<u8>);

impl fmt::Write for Utf8Sink<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// A `u32`-length-prefixed byte string: a text or binary atom's value.
fn put_sized(buf: &mut Vec<u8>, bytes: &[u8]) {
    buf.put_u32(bytes.len() as u32);
    buf.put_slice(bytes);
}

impl ListWriter {
    /// An empty writer with room for `bytes` bytes.
    pub(crate) fn with_capacity(bytes: usize) -> ListWriter {
        ListWriter {
            buf: Vec::with_capacity(bytes),
            count: 0,
        }
    }

    /// Items written since the last [`ListWriter::take`].
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when no item was written since the last take.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Start an item: count it and write its type byte.
    fn item(&mut self, code: u8) -> &mut Vec<u8> {
        self.count = self.count.saturating_add(1);
        self.buf.put_u8(code);
        &mut self.buf
    }

    /// Write a `str` field, uncounted: an atom's name in a named argument
    /// block.  A name longer than the field holds is written empty and
    /// leaves the bytes uncountable.
    pub(crate) fn name(&mut self, name: &str) {
        let name = match u16::try_from(name.len()) {
            Ok(_) => name,
            Err(_) => {
                self.count = usize::MAX;
                ""
            }
        };
        self.buf.put_u16(name.len() as u16);
        self.buf.put_slice(name.as_bytes());
    }

    /// Append a scalar, or any other value [`AtomCodec`] maps.
    pub fn put<T: AtomCodec>(&mut self, v: &T) -> &mut Self {
        v.write(self);
        self
    }

    /// Append text.
    pub fn text(&mut self, v: &str) -> &mut Self {
        put_sized(self.item(TEXT), v.as_bytes());
        self
    }

    /// Append a value's `Display` form as text, formatted in place.
    pub fn text_display(&mut self, v: impl fmt::Display) -> &mut Self {
        let buf = self.item(TEXT);
        let at = buf.len();
        buf.put_u32(0);
        // Writing into a Vec cannot fail; a Display impl that errors
        // leaves the whole str chunks it wrote, still valid UTF-8.
        let _ = write!(Utf8Sink(buf), "{v}");
        let len = (buf.len() - at - 4) as u32;
        buf[at..at + 4].copy_from_slice(&len.to_be_bytes());
        self
    }

    /// Append a nested list whose items `items` writes.  More than
    /// [`MAX_ITEMS`] of them leave the bytes uncountable.
    pub fn list(&mut self, items: impl FnOnce(&mut ListWriter)) -> &mut Self {
        let at = self.item(LIST).len();
        self.buf.put_u16(0);
        let mut inner = ListWriter {
            buf: std::mem::take(&mut self.buf),
            count: 0,
        };
        items(&mut inner);
        self.buf = inner.buf;
        match u16::try_from(inner.count) {
            Ok(count) => self.buf[at..at + 2].copy_from_slice(&count.to_be_bytes()),
            Err(_) => self.count = usize::MAX,
        }
        self
    }

    /// The list written so far.  The writer is left empty and keeps its
    /// buffer's capacity.
    ///
    /// # Panics
    /// If more than [`MAX_ITEMS`] items were written, at any depth: a
    /// sender splits its lists at that size.
    pub fn take(&mut self) -> WireList {
        let count = u16::try_from(self.count).expect("a list holds at most MAX_ITEMS");
        let list = WireList {
            count,
            items: self.buf.as_slice().into(),
        };
        self.buf.clear();
        self.count = 0;
        list
    }
}

/// A native type's mapping onto the atom grammar.  Generated stubs write
/// their arguments with it and generated dispatch reads them back, both
/// in place in the argument block.
pub trait AtomCodec: Sized {
    /// The atom type this native type maps to.
    const TYPE: AtomType;
    /// Bytes the atom takes, type byte included.
    fn wire_len(&self) -> usize;
    /// Append the value to `w` as one item.
    fn write(&self, w: &mut ListWriter);
    /// The value `atom` holds; `None` when it holds another type.
    fn read(atom: AtomRef<'_>) -> Option<Self>;
}

macro_rules! atom_codec {
    ($ty:ty, $variant:ident, |$v:ident, $b:ident| $len:expr, $put:expr) => {
        impl AtomCodec for $ty {
            const TYPE: AtomType = AtomType::$variant;
            fn wire_len(&self) -> usize {
                #[allow(unused_variables)]
                let $v = self;
                1 + $len
            }
            fn write(&self, w: &mut ListWriter) {
                let ($v, $b) = (self, w.item(Self::TYPE as u8));
                $put;
            }
            fn read(atom: AtomRef<'_>) -> Option<Self> {
                match atom {
                    AtomRef::$variant(a) => Some(a.into()),
                    _ => None,
                }
            }
        }
    };
}

/// An address and its prefix length: a prefix atom's value.
fn put_prefix(buf: &mut Vec<u8>, addr: &[u8], len: u8) {
    buf.put_slice(addr);
    buf.put_u8(len);
}

atom_codec!(i32, I32, |v, b| 4, b.put_i32(*v));
atom_codec!(u32, U32, |v, b| 4, b.put_u32(*v));
atom_codec!(i64, I64, |v, b| 8, b.put_i64(*v));
atom_codec!(u64, U64, |v, b| 8, b.put_u64(*v));
atom_codec!(bool, Bool, |v, b| 1, b.put_u8(u8::from(*v)));
atom_codec!(String, Text, |v, b| 4 + v.len(), put_sized(b, v.as_bytes()));
atom_codec!(Ipv4Addr, Ipv4, |v, b| 4, b.put_slice(&v.octets()));
atom_codec!(Ipv6Addr, Ipv6, |v, b| 16, b.put_slice(&v.octets()));
atom_codec!(
    Ipv4Net,
    Ipv4Net,
    |v, b| 5,
    put_prefix(b, &v.addr().octets(), v.len())
);
atom_codec!(
    Ipv6Net,
    Ipv6Net,
    |v, b| 17,
    put_prefix(b, &v.addr().octets(), v.len())
);
atom_codec!(Mac, Mac, |v, b| 6, b.put_slice(&v.0));
atom_codec!(Vec<u8>, Binary, |v, b| 4 + v.len(), put_sized(b, v));

/// A list in wire form: reading one copies its checked bytes out once.
impl AtomCodec for WireList {
    const TYPE: AtomType = AtomType::List;
    fn wire_len(&self) -> usize {
        3 + self.items.len()
    }
    fn write(&self, w: &mut ListWriter) {
        let buf = w.item(LIST);
        buf.put_u16(self.count);
        buf.put_slice(&self.items);
    }
    fn read(atom: AtomRef<'_>) -> Option<Self> {
        match atom {
            AtomRef::List(count, items) => Some(WireList {
                count,
                items: items.into(),
            }),
            _ => None,
        }
    }
}

/// A list as a tree of values, for callers that build lists by hand.
impl AtomCodec for Vec<AtomValue> {
    const TYPE: AtomType = AtomType::List;
    fn wire_len(&self) -> usize {
        3 + self.iter().map(AtomValue::wire_len).sum::<usize>()
    }
    fn write(&self, w: &mut ListWriter) {
        w.list(|w| {
            for item in self {
                w.value(item);
            }
        });
    }
    fn read(atom: AtomRef<'_>) -> Option<Self> {
        match atom {
            AtomRef::List(count, items) => tree(count, items).ok(),
            _ => None,
        }
    }
}

/// The glue between the value form and the grammar, spelled out once
/// per scalar variant; a list is each arm's exception.
macro_rules! scalar_variants {
    ($($v:ident),*) => {
        impl AtomValue {
            /// The value's type tag.
            pub fn atom_type(&self) -> AtomType {
                match self {
                    $(AtomValue::$v(_) => AtomType::$v,)*
                    AtomValue::List(_) => AtomType::List,
                }
            }

            /// Bytes the atom takes, type byte included.
            fn wire_len(&self) -> usize {
                match self {
                    $(AtomValue::$v(v) => v.wire_len(),)*
                    AtomValue::List(items) => items.wire_len(),
                }
            }
        }

        impl ListWriter {
            /// Append any atom.
            pub(crate) fn value(&mut self, value: &AtomValue) -> &mut Self {
                match value {
                    $(AtomValue::$v(v) => v.write(self),)*
                    AtomValue::List(items) => items.write(self),
                }
                self
            }
        }

        impl AtomRef<'_> {
            /// The atom's type.
            pub(crate) fn atom_type(&self) -> AtomType {
                match self {
                    $(AtomRef::$v(_) => AtomType::$v,)*
                    AtomRef::List(..) => AtomType::List,
                }
            }

            /// The owned value; a list becomes a tree of values.
            pub(crate) fn to_value(self) -> Result<AtomValue, XrlError> {
                Ok(match self {
                    $(AtomRef::$v(v) => AtomValue::$v(v.into()),)*
                    AtomRef::List(count, items) => AtomValue::List(tree(count, items)?),
                })
            }
        }
    };
}

scalar_variants!(I32, U32, I64, U64, Bool, Text, Ipv4, Ipv6, Ipv4Net, Ipv6Net, Mac, Binary);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_bytes_equal_the_tree_encoding() {
        let net: Ipv4Net = "10.1.0.0/16".parse().unwrap();
        let mut w = ListWriter::default();
        w.list(|row| {
            row.put(&net)
                .put(&Ipv4Addr::new(192, 0, 2, 1))
                .text("éth0")
                .put(&7u32)
                .text_display(format_args!("proto{}", 9));
        })
        .value(&AtomValue::Bool(true));
        let list = w.take();
        let tree = vec![
            AtomValue::List(vec![
                AtomValue::Ipv4Net(net),
                AtomValue::Ipv4(Ipv4Addr::new(192, 0, 2, 1)),
                AtomValue::Text("éth0".into()),
                AtomValue::U32(7),
                AtomValue::Text("proto9".into()),
            ]),
            AtomValue::Bool(true),
        ];
        assert_eq!(list.to_atoms().unwrap(), tree);
        assert_eq!(WireList::from_atoms(&tree).unwrap(), list);
        assert!(w.is_empty(), "take leaves the writer empty");
    }

    #[test]
    fn reader_rejects_what_the_grammar_forbids() {
        fn read(bytes: &[u8]) -> Result<AtomRef<'_>, XrlError> {
            AtomReader::new(bytes).read()
        }
        assert!(read(&[TEXT, 0, 0, 0, 1, 0xff]).is_err(), "non-UTF-8 text");
        assert!(read(&[9, 10, 0, 0, 0, 33]).is_err(), "IPv4 prefix past /32");
        assert!(read(&[99]).is_err(), "unknown type code");
        assert!(read(&[LIST, 0, 2, 2, 0, 0, 0, 1]).is_err(), "short list");
        assert_eq!(
            read(&[LIST, 0, 1, 2, 0, 0, 0, 1]).unwrap(),
            AtomRef::List(1, &[2, 0, 0, 0, 1])
        );
    }

    #[test]
    fn enter_list_leaves_the_cursor_on_the_first_item() {
        let mut w = ListWriter::default();
        w.list(|row| {
            row.put(&1u32).put(&2u32);
        });
        let list = w.take();
        let mut r = list.reader();
        assert_eq!(r.enter_list().unwrap(), 2);
        assert_eq!(r.read().unwrap(), AtomRef::U32(1));
        assert_eq!(r.read().unwrap(), AtomRef::U32(2));
        assert!(r.rest().is_empty());
        assert!(AtomReader::new(&[2, 0, 0, 0, 1]).enter_list().is_err());
    }
}
