//! Round trip through the RIB's compact origin tables.
//!
//! An origin table stores a route as its attribute block, metric and
//! interface; the prefix is the trie's and the protocol and its admin
//! distance are the table's.  Every route the table hands out must be the
//! route that was added.
//!
//! Generated runs, on a table of a random protocol (connected, static,
//! RIP, EBGP or IBGP), mix adds and replaces over twelve prefixes with
//! four attribute blocks, three metrics and an interface name or none,
//! deletes, a protocol flush, graceful-restart marks and sweeps, and a
//! dump cursor walking the table a few prefixes at a time while the
//! churn goes on.  Checked after every step: each op the table sent (an
//! add's route, a replace's old and new, a delete's old) against the
//! added routes and what the table sent before, what `delete_route`
//! returned, every prefix's lookup, and the lookup of every prefix the
//! dump visits.

use std::collections::{BTreeMap, BTreeSet};
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

use proptest::prelude::*;
use xorp_event::EventLoop;
use xorp_net::{PathAttributes, Prefix, ProtocolId, RouteEntry};
use xorp_rib::OriginTable;
use xorp_stages::{stage_ref, DumpSource, OriginId, SinkStage, Stage, TableSource};

type Net = Prefix<Ipv4Addr>;
type R = RouteEntry<Ipv4Addr>;

const PROTOS: [ProtocolId; 5] = [
    ProtocolId::Connected,
    ProtocolId::Static,
    ProtocolId::Rip,
    ProtocolId::Ebgp,
    ProtocolId::Ibgp,
];

#[derive(Debug, Clone)]
enum Op {
    /// Add prefix `.0` with block `.1`, metric `.2` and interface `.3`.
    Add(u8, u8, u32, u8),
    Delete(u8),
    /// Withdraw everything (protocol shutdown).
    Clear,
    /// Graceful restart: mark every route stale.
    MarkStale,
    /// The grace timer fires.
    Sweep,
    /// The dump visits up to this many prefixes.
    Dump(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0u8..12, 0u8..4, 0u32..3, 0u8..3).prop_map(|(n, b, m, i)| Op::Add(n, b, m, i)),
        3 => (0u8..12).prop_map(Op::Delete),
        1 => Just(Op::Clear),
        1 => Just(Op::MarkStale),
        1 => Just(Op::Sweep),
        3 => (1u8..5).prop_map(Op::Dump),
    ]
}

fn net(ix: u8) -> Net {
    Prefix::new(Ipv4Addr::new(10, ix, 0, 0), 16).unwrap()
}

fn route(proto: ProtocolId, blocks: &[Arc<PathAttributes>], op: (u8, u8, u32, u8)) -> R {
    let (n, b, metric, iface) = op;
    let mut r = RouteEntry::new(net(n), blocks[b as usize].clone(), metric, proto);
    r.ifname = match iface {
        0 => None,
        i => Some(format!("eth{i}").into()),
    };
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn origin_table_routes_round_trip(
        proto in 0usize..PROTOS.len(),
        ops in prop::collection::vec(arb_op(), 1..120),
    ) {
        let proto = PROTOS[proto];
        let blocks: Vec<Arc<PathAttributes>> = (1..=4u8)
            .map(|b| PathAttributes::new(IpAddr::V4(Ipv4Addr::new(192, 168, 0, b))).shared())
            .collect();
        let mut el = EventLoop::new_virtual();
        let table = stage_ref(OriginTable::new(proto, OriginId(3)));
        let sink = stage_ref(SinkStage::new());
        table.borrow_mut().set_downstream(sink.clone());
        let mut dump: Option<TableSource<OriginTable<Ipv4Addr>>> = None;
        // What was added, and what the table has sent downstream.
        let mut added: BTreeMap<Net, R> = BTreeMap::new();
        let mut sent: BTreeMap<Net, R> = BTreeMap::new();
        let mut stale: BTreeSet<Net> = BTreeSet::new();
        let mut seen = 0;
        for op in ops {
            let mut visited = Vec::new();
            match op {
                Op::Add(n, b, m, i) => {
                    let r = route(proto, &blocks, (n, b, m, i));
                    stale.remove(&r.net);
                    added.insert(r.net, r.clone());
                    table.borrow_mut().add_route(&mut el, r);
                }
                Op::Delete(n) => {
                    let old = table.borrow_mut().delete_route(&mut el, net(n));
                    stale.remove(&net(n));
                    prop_assert_eq!(old, added.remove(&net(n)));
                }
                Op::Clear => {
                    table.borrow_mut().clear(&mut el);
                    added.clear();
                    stale.clear();
                }
                Op::MarkStale => {
                    table.borrow_mut().mark_all_stale();
                    stale = added.keys().copied().collect();
                }
                Op::Sweep => {
                    let swept = table.borrow_mut().sweep_stale(&mut el);
                    prop_assert_eq!(swept, stale.len());
                    added.retain(|net, _| !stale.contains(net));
                    stale.clear();
                }
                Op::Dump(k) => {
                    let cursor = dump.get_or_insert_with(|| TableSource::new(table.clone()));
                    for _ in 0..k {
                        match cursor.next_prefix() {
                            Some(net) => visited.push(net),
                            None => {
                                dump = None;
                                break;
                            }
                        }
                    }
                }
            }
            let log = &sink.borrow().log;
            for (origin, op) in &log[seen..] {
                prop_assert_eq!(*origin, OriginId(3));
                let net = op.net();
                prop_assert_eq!(op.old_route(), sent.get(&net), "{}", net);
                match op.new_route() {
                    Some(new) => {
                        prop_assert_eq!(Some(new), added.get(&net), "{}", net);
                        sent.insert(net, new.clone());
                    }
                    None => {
                        sent.remove(&net);
                    }
                }
            }
            seen = log.len();
            prop_assert_eq!(&sent, &added);
            prop_assert_eq!(table.borrow().len(), added.len());
            for n in 0..12 {
                prop_assert_eq!(table.borrow().lookup_route(&net(n)), added.get(&net(n)).cloned());
            }
            for net in visited {
                let route = table.borrow().lookup_route(&net);
                prop_assert!(route.is_some(), "the dump visited {} after it left", net);
                prop_assert_eq!(route.as_ref(), added.get(&net));
            }
        }
    }
}
