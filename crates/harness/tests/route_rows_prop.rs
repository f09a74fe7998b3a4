//! Differential test of the route-row codec against the atom decoder.
//!
//! Batched route frames carry their rows as bytes: a sender writes each
//! row straight into the frame's list, and a receiver reads the rows in
//! place from the list the frame decoded to, with no atom tree between.
//! Arbitrary rows — empty, long and multi-byte `ifname`s, every protocol,
//! prefixes /0 to /32 — in each hop's layout (`add_routes`, the RIB's
//! `delete_routes`, the FEA's) must:
//!
//! - encode to exactly the bytes the tree of atoms encodes to;
//! - read back as the routes that went in;
//! - after a byte flip or a truncation, be accepted by the in-place
//!   reader exactly when the atom decoder (the decoded frame's list as a
//!   tree, matched row by row) accepts them, with the same routes, and
//!   never panic;
//! - be rejected once a text atom holds bytes that are not UTF-8, or a
//!   prefix is longer than /32: the test damages those bytes at offsets
//!   it computes from the grammar itself, so it does not lean on the
//!   reader it checks.

use std::net::{IpAddr, Ipv4Addr};

use proptest::prelude::*;
use xorp_harness::xrl_ifaces::{self, RouteWire};
use xorp_net::{Ipv4Net, PathAttributes, ProtocolId, RouteEntry};
use xorp_xrl::marshal::Frame;
use xorp_xrl::{AtomCodec, AtomValue, ListWriter, WireList, XrlArgs, XrlError};

/// One row's route.
#[derive(Debug, Clone)]
struct Row {
    net: Ipv4Net,
    nexthop: Ipv4Addr,
    ifname: String,
    metric: u32,
    proto: ProtocolId,
}

/// Which hop's row layout a frame carries.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Layout {
    /// `[net, nexthop, ifname, metric, proto]`, both hops.
    Add,
    /// `[net, proto]`: the RIB keys deletions by protocol.
    DeleteKeyed,
    /// `[net]`: the FEA does not.
    DeleteBare,
}

#[derive(Debug, Clone)]
enum Damage {
    None,
    /// XOR a byte of the frame body (`at` wraps around its length).
    Flip {
        at: usize,
        xor: u8,
    },
    /// Keep this many bytes of the body (wraps around its length).
    Truncate(usize),
    /// Make a text atom of row `row` (wrapping) not UTF-8.
    BadUtf8(usize),
    /// Give row `row`'s prefix this length, past /32.
    LongPrefix(usize, u8),
}

fn proto() -> impl Strategy<Value = ProtocolId> {
    prop_oneof![
        Just(ProtocolId::Connected),
        Just(ProtocolId::Static),
        Just(ProtocolId::Rip),
        Just(ProtocolId::Ebgp),
        Just(ProtocolId::Ibgp),
        Just(ProtocolId::Ospf),
        any::<u16>().prop_map(ProtocolId::Other),
    ]
}

fn ifname() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("eth0".to_string()),
        Just("éth1".to_string()),
        Just("接口七".to_string()),
        (1usize..400).prop_map(|n| "x".repeat(n)),
        (1usize..100).prop_map(|n| "ü🚀".repeat(n)),
    ]
}

fn row() -> impl Strategy<Value = Row> {
    (
        any::<u32>(),
        0u8..=32,
        any::<u32>(),
        ifname(),
        any::<u32>(),
        proto(),
    )
        .prop_map(|(addr, len, nexthop, ifname, metric, proto)| Row {
            net: Ipv4Net::new(Ipv4Addr::from(addr), len).unwrap(),
            nexthop: Ipv4Addr::from(nexthop),
            ifname,
            metric,
            proto,
        })
}

fn layout() -> impl Strategy<Value = Layout> {
    prop_oneof![
        Just(Layout::Add),
        Just(Layout::DeleteKeyed),
        Just(Layout::DeleteBare)
    ]
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        1 => Just(Damage::None),
        4 => (any::<usize>(), 1u8..=255).prop_map(|(at, xor)| Damage::Flip { at, xor }),
        2 => any::<usize>().prop_map(Damage::Truncate),
        1 => any::<usize>().prop_map(Damage::BadUtf8),
        1 => (any::<usize>(), 33u8..=255).prop_map(|(row, len)| Damage::LongPrefix(row, len)),
    ]
}

/// The RIB route a row's sender holds.
fn entry(r: &Row) -> RouteEntry<Ipv4Addr> {
    let attrs = PathAttributes::new(IpAddr::V4(r.nexthop)).shared();
    let mut route = RouteEntry::new(r.net, attrs, r.metric, r.proto);
    if !r.ifname.is_empty() {
        route.ifname = Some(r.ifname.as_str().into());
    }
    route
}

/// The rows written the way the router's batcher writes them.
fn write(rows: &[Row], layout: Layout) -> WireList {
    let mut w = ListWriter::default();
    for r in rows {
        match layout {
            Layout::Add => xrl_ifaces::write_add_row(&mut w, r.net, &entry(r)),
            Layout::DeleteKeyed => xrl_ifaces::write_delete_row(&mut w, r.net, Some(r.proto)),
            Layout::DeleteBare => xrl_ifaces::write_delete_row(&mut w, r.net, None),
        }
    }
    w.take()
}

/// The rows as a tree of atoms, built here by hand.
fn tree(rows: &[Row], layout: Layout) -> Vec<AtomValue> {
    rows.iter()
        .map(|r| {
            let net = AtomValue::Ipv4Net(r.net);
            let proto = AtomValue::Text(r.proto.name());
            AtomValue::List(match layout {
                Layout::Add => vec![
                    net,
                    AtomValue::Ipv4(r.nexthop),
                    AtomValue::Text(r.ifname.clone()),
                    AtomValue::U32(r.metric),
                    proto,
                ],
                Layout::DeleteKeyed => vec![net, proto],
                Layout::DeleteBare => vec![net],
            })
        })
        .collect()
}

/// A v2 request carrying `rows` as its one argument; `frame(..).encode()`
/// puts the list's items at [`ITEMS_AT`].
fn frame(rows: &impl AtomCodec) -> Frame {
    let mut args = XrlArgs::new();
    args.push_arg(rows);
    Frame::Request {
        seq: 1,
        sender: 2,
        target: "rib-0".into(),
        key: [7; 16],
        path: String::new(),
        method_id: Some(2),
        args,
        priority: false,
        trace: None,
    }
}

/// Offset of the first row in an encoded [`frame`]: length header, kind,
/// seq, sender, target (`u16` + 5 bytes), key, method id, argument count,
/// then the list's type byte and count.
const ITEMS_AT: usize = 4 + 1 + 8 + 8 + 2 + 5 + 16 + 4 + 2 + 3;

/// Per row, from the grammar: the offset of its prefix-length byte and
/// of the first byte of a non-empty text atom, if it has one.
fn offsets(rows: &[Row], layout: Layout) -> Vec<(usize, Option<usize>)> {
    let text = |s: &str| 1 + 4 + s.len();
    let mut at = ITEMS_AT;
    rows.iter()
        .map(|r| {
            let row = at + 3; // list type byte and count
            let prefix_len = row + 5;
            let proto = r.proto.name();
            let (first_text, len) = match layout {
                Layout::Add => {
                    let ifname = row + 6 + 5;
                    let proto_at = ifname + text(&r.ifname) + 5;
                    let first = if r.ifname.is_empty() {
                        proto_at
                    } else {
                        ifname
                    };
                    (Some(first + 5), 6 + 5 + text(&r.ifname) + 5 + text(&proto))
                }
                Layout::DeleteKeyed => (Some(row + 6 + 5), 6 + text(&proto)),
                Layout::DeleteBare => (None, 6),
            };
            at = row + len;
            (prefix_len, first_text)
        })
        .collect()
}

/// A read's outcome, comparable across readers: the routes, or that the
/// frame was refused.
type Outcome = Option<Vec<(Ipv4Net, Ipv4Addr, String, u32, ProtocolId)>>;

fn add_outcome(rows: Result<Vec<RouteWire>, XrlError>) -> Outcome {
    rows.ok().map(|rows| {
        rows.into_iter()
            .map(|w| (w.net, w.nexthop, w.ifname, w.metric, w.proto))
            .collect()
    })
}

fn delete_outcome(rows: Result<Vec<(Ipv4Net, ProtocolId)>, XrlError>) -> Outcome {
    rows.ok().map(|rows| {
        rows.into_iter()
            .map(|(net, p)| (net, Ipv4Addr::UNSPECIFIED, String::new(), 0, p))
            .collect()
    })
}

/// The in-place reader on a frame body: decode, take the list, read rows.
fn in_place(body: &[u8], layout: Layout) -> Outcome {
    let Ok(Frame::Request { args, .. }) = Frame::decode_slice(body) else {
        return None;
    };
    let rows: WireList = args.get_arg(0, "routes").ok()?;
    match layout {
        Layout::Add => add_outcome(
            xrl_ifaces::read_add_rows(&rows).map(|r| r.iter().map(|r| r.to_wire()).collect()),
        ),
        _ => delete_outcome(xrl_ifaces::read_delete_rows(&rows)),
    }
}

/// The atom decoder on a frame body: decode, materialize the list as a
/// tree, match each row's atoms.
fn atom_decoder(body: &[u8], layout: Layout) -> Outcome {
    let Ok(Frame::Request { args, .. }) = Frame::decode_slice(body) else {
        return None;
    };
    let rows: Vec<AtomValue> = args.get_arg(0, "routes").ok()?;
    let proto = |s: &str| ProtocolId::from_name(s);
    rows.iter()
        .map(|row| match (layout, row) {
            (Layout::Add, AtomValue::List(items)) => match items.as_slice() {
                [AtomValue::Ipv4Net(n), AtomValue::Ipv4(h), AtomValue::Text(i), AtomValue::U32(m), AtomValue::Text(p)] => {
                    Some((*n, *h, i.clone(), *m, proto(p)?))
                }
                _ => None,
            },
            (_, AtomValue::List(items)) => match items.as_slice() {
                [AtomValue::Ipv4Net(n)] => Some((*n, Ipv4Addr::UNSPECIFIED, String::new(), 0, ProtocolId::Ebgp)),
                [AtomValue::Ipv4Net(n), AtomValue::Text(p)] => {
                    Some((*n, Ipv4Addr::UNSPECIFIED, String::new(), 0, proto(p)?))
                }
                _ => None,
            },
            _ => None,
        })
        .collect()
}

/// The frozen tree helpers on the same body.
fn tree_helpers(body: &[u8], layout: Layout) -> Outcome {
    let Ok(Frame::Request { args, .. }) = Frame::decode_slice(body) else {
        return None;
    };
    let rows: Vec<AtomValue> = args.get_arg(0, "routes").ok()?;
    match layout {
        Layout::Add => add_outcome(xrl_ifaces::decode_add_rows(&rows)),
        _ => delete_outcome(xrl_ifaces::decode_delete_rows(&rows)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn route_rows_match_the_atom_decoder(
        rows in prop::collection::vec(row(), 0..6),
        layout in layout(),
        damage in damage(),
    ) {
        let written = frame(&write(&rows, layout)).encode().to_vec();
        let by_tree = frame(&tree(&rows, layout)).encode().to_vec();
        prop_assert_eq!(&written, &by_tree, "writer and tree encodings differ");

        let mut bytes = written;
        let must_refuse = match damage {
            Damage::None => false,
            Damage::Flip { at, xor } => {
                let at = 4 + at % (bytes.len() - 4);
                bytes[at] ^= xor;
                false
            }
            Damage::Truncate(keep) => {
                bytes.truncate(4 + keep % (bytes.len() - 4));
                false
            }
            Damage::BadUtf8(row) if !rows.is_empty() => {
                match offsets(&rows, layout)[row % rows.len()].1 {
                    Some(at) => {
                        bytes[at] = 0xff;
                        true
                    }
                    None => false,
                }
            }
            Damage::LongPrefix(row, len) if !rows.is_empty() => {
                bytes[offsets(&rows, layout)[row % rows.len()].0] = len;
                true
            }
            Damage::BadUtf8(_) | Damage::LongPrefix(..) => false,
        };
        let body = &bytes[4..];
        let got = in_place(body, layout);
        prop_assert_eq!(&got, &atom_decoder(body, layout));
        prop_assert_eq!(&got, &tree_helpers(body, layout));
        if must_refuse {
            prop_assert!(got.is_none(), "damaged rows accepted: {:?}", damage);
        }
        if matches!(damage, Damage::None) {
            let expected: Outcome = Some(
                rows.iter()
                    .map(|r| match layout {
                        Layout::Add => (r.net, r.nexthop, r.ifname.clone(), r.metric, r.proto),
                        Layout::DeleteKeyed => (r.net, Ipv4Addr::UNSPECIFIED, String::new(), 0, r.proto),
                        Layout::DeleteBare => {
                            (r.net, Ipv4Addr::UNSPECIFIED, String::new(), 0, ProtocolId::Ebgp)
                        }
                    })
                    .collect(),
            );
            prop_assert_eq!(&got, &expected);
        }
    }
}
