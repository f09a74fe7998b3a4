//! Atoms in wire form: the binary atom grammar of [`crate::marshal`]'s
//! frames, read in place and written without a tree.
//!
//! Every atom is `u8 type | value` (the table in [`crate::marshal`]).
//! [`AtomReader`] is the grammar's one reader: a cursor that yields each
//! atom as an [`AtomRef`] borrowed from the bytes.  Each read makes every
//! check the grammar requires — a known type code, lengths that fit,
//! UTF-8 text, a prefix length the family allows, bounded list nesting —
//! and allocates nothing.  A list read this way is checked and stays
//! bytes.
//!
//! Decoding a frame keeps every list argument as a [`WireList`]: one
//! reference-counted byte slice and its item count.  It becomes a tree of
//! [`AtomValue`]s only when something asks for one (textual rendering, a
//! typed `Vec<AtomValue>` argument).  [`ListWriter`] is the other
//! direction: it appends typed items straight into a list's bytes, so the
//! sender of a large list — a batched route frame — builds no tree either.

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

const TEXT: u8 = 6;
const LIST: u8 = 13;

fn type_code(t: AtomType) -> u8 {
    match t {
        AtomType::I32 => 1,
        AtomType::U32 => 2,
        AtomType::I64 => 3,
        AtomType::U64 => 4,
        AtomType::Bool => 5,
        AtomType::Text => TEXT,
        AtomType::Ipv4 => 7,
        AtomType::Ipv6 => 8,
        AtomType::Ipv4Net => 9,
        AtomType::Ipv6Net => 10,
        AtomType::Mac => 11,
        AtomType::Binary => 12,
        AtomType::List => LIST,
    }
}

/// Append one atom, type byte first.
pub(crate) fn put_value(buf: &mut impl BufMut, v: &AtomValue) {
    buf.put_u8(type_code(v.atom_type()));
    match v {
        AtomValue::I32(x) => buf.put_i32(*x),
        AtomValue::U32(x) => buf.put_u32(*x),
        AtomValue::I64(x) => buf.put_i64(*x),
        AtomValue::U64(x) => buf.put_u64(*x),
        AtomValue::Bool(x) => buf.put_u8(*x as u8),
        AtomValue::Text(x) => {
            buf.put_u32(x.len() as u32);
            buf.put_slice(x.as_bytes());
        }
        AtomValue::Ipv4(x) => buf.put_slice(&x.octets()),
        AtomValue::Ipv6(x) => buf.put_slice(&x.octets()),
        AtomValue::Ipv4Net(x) => {
            buf.put_slice(&x.addr().octets());
            buf.put_u8(x.len());
        }
        AtomValue::Ipv6Net(x) => {
            buf.put_slice(&x.addr().octets());
            buf.put_u8(x.len());
        }
        AtomValue::Mac(x) => buf.put_slice(&x.0),
        AtomValue::Binary(x) => {
            buf.put_u32(x.len() as u32);
            buf.put_slice(x);
        }
        AtomValue::List(items) => {
            buf.put_u16(items.len() as u16);
            for item in items {
                put_value(buf, item);
            }
        }
        AtomValue::Wire(list) => {
            buf.put_u16(list.count);
            buf.put_slice(&list.items);
        }
    }
}

/// Whether every list in `v` fits the wire's 16-bit item count.  A longer
/// one would not fail to encode — it would decode as a shorter one.
pub(crate) fn fits(v: &AtomValue) -> bool {
    match v {
        AtomValue::List(items) => items.len() <= MAX_ITEMS && items.iter().all(fits),
        // Counted in 16 bits when it was read or written.
        _ => true,
    }
}

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

impl AtomRef<'_> {
    /// The owned atom.  A list stays in wire form: one copy of its bytes.
    pub(crate) fn to_value(self) -> AtomValue {
        match self {
            AtomRef::I32(v) => AtomValue::I32(v),
            AtomRef::U32(v) => AtomValue::U32(v),
            AtomRef::I64(v) => AtomValue::I64(v),
            AtomRef::U64(v) => AtomValue::U64(v),
            AtomRef::Bool(v) => AtomValue::Bool(v),
            AtomRef::Text(v) => AtomValue::Text(v.to_owned()),
            AtomRef::Ipv4(v) => AtomValue::Ipv4(v),
            AtomRef::Ipv6(v) => AtomValue::Ipv6(v),
            AtomRef::Ipv4Net(v) => AtomValue::Ipv4Net(v),
            AtomRef::Ipv6Net(v) => AtomValue::Ipv6Net(v),
            AtomRef::Mac(v) => AtomValue::Mac(v),
            AtomRef::Binary(v) => AtomValue::Binary(v.to_vec()),
            AtomRef::List(count, items) => AtomValue::Wire(WireList {
                count,
                items: items.into(),
            }),
        }
    }
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
                let count = u16::from_be_bytes(self.array()?);
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

    /// Step into a list in place: read its type byte and count and leave
    /// the cursor on its first item, so a caller reads exactly `count`
    /// items next without walking them twice.
    pub fn enter_list(&mut self) -> Result<u16, XrlError> {
        match self.array()? {
            [LIST] => Ok(u16::from_be_bytes(self.array()?)),
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
        if items.len() > MAX_ITEMS || !items.iter().all(fits) {
            return Err(XrlError::BadArgs(format!(
                "list exceeds the wire's {MAX_ITEMS}-item count"
            )));
        }
        let mut w = ListWriter::default();
        for item in items {
            w.value(item);
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

    /// Bytes the list occupies inside a frame (type byte and count too).
    pub(crate) fn wire_len(&self) -> usize {
        3 + self.items.len()
    }

    /// A cursor over the items.
    pub fn reader(&self) -> AtomReader<'_> {
        AtomReader {
            buf: &self.items,
            depth: 1,
        }
    }

    /// The tree of atoms these bytes encode (nested lists as trees too).
    pub fn to_atoms(&self) -> Result<Vec<AtomValue>, XrlError> {
        fn tree(mut r: AtomReader<'_>, count: u16) -> Result<Vec<AtomValue>, XrlError> {
            let depth = r.depth + 1;
            (0..count)
                .map(|_| {
                    Ok(match r.read()? {
                        AtomRef::List(n, buf) => {
                            AtomValue::List(tree(AtomReader { buf, depth }, n)?)
                        }
                        atom => atom.to_value(),
                    })
                })
                .collect()
        }
        tree(self.reader(), self.count)
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

/// Appends a list's items straight into wire bytes, one typed item at a
/// time; a nested list is written in place and its count patched once its
/// items are in.  [`ListWriter::take`] copies the list out and keeps the
/// buffer, so a writer reused frame after frame allocates only the lists
/// it hands out.
#[derive(Debug, Default)]
pub struct ListWriter {
    buf: Vec<u8>,
    count: usize,
}

/// Text sink writing UTF-8 straight into a list's bytes.
struct Utf8Sink<'a>(&'a mut Vec<u8>);

impl fmt::Write for Utf8Sink<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

impl ListWriter {
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
        self.count += 1;
        self.buf.put_u8(code);
        &mut self.buf
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.item(2).put_u32(v);
        self
    }

    /// Append an IPv4 address.
    pub fn ipv4(&mut self, v: Ipv4Addr) -> &mut Self {
        self.item(7).put_slice(&v.octets());
        self
    }

    /// Append an IPv4 prefix.
    pub fn ipv4net(&mut self, v: Ipv4Net) -> &mut Self {
        let buf = self.item(9);
        buf.put_slice(&v.addr().octets());
        buf.put_u8(v.len());
        self
    }

    /// Append text.
    pub fn text(&mut self, v: &str) -> &mut Self {
        let buf = self.item(TEXT);
        buf.put_u32(v.len() as u32);
        buf.put_slice(v.as_bytes());
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

    /// Append any atom.
    pub(crate) fn value(&mut self, v: &AtomValue) -> &mut Self {
        self.count += 1;
        put_value(&mut self.buf, v);
        self
    }

    /// Append a nested list whose items `items` writes.
    ///
    /// # Panics
    /// If `items` writes more than [`MAX_ITEMS`] items.
    pub fn list(&mut self, items: impl FnOnce(&mut ListWriter)) -> &mut Self {
        let at = self.item(LIST).len();
        self.buf.put_u16(0);
        let mut inner = ListWriter {
            buf: std::mem::take(&mut self.buf),
            count: 0,
        };
        items(&mut inner);
        self.buf = inner.buf;
        let count = u16::try_from(inner.count).expect("a nested list holds at most MAX_ITEMS");
        self.buf[at..at + 2].copy_from_slice(&count.to_be_bytes());
        self
    }

    /// The list written so far.  The writer is left empty and keeps its
    /// buffer's capacity.
    ///
    /// # Panics
    /// If more than [`MAX_ITEMS`] items were written: a sender splits its
    /// lists at that size.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(v: &AtomValue) -> Vec<u8> {
        let mut buf = Vec::new();
        put_value(&mut buf, v);
        buf
    }

    #[test]
    fn writer_bytes_equal_the_tree_encoding() {
        let net: Ipv4Net = "10.1.0.0/16".parse().unwrap();
        let mut w = ListWriter::default();
        w.list(|row| {
            row.ipv4net(net)
                .ipv4(Ipv4Addr::new(192, 0, 2, 1))
                .text("éth0")
                .u32(7)
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
        assert_eq!(
            encode(&AtomValue::Wire(list.clone())),
            encode(&AtomValue::List(tree.clone()))
        );
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
            row.u32(1).u32(2);
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
