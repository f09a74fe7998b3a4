//! Model test for redistribution watchers, which keep no per-route state.
//!
//! A watcher filters the old route an op carries as well as the new one,
//! and sends the difference.  Generated churn runs through a consistency-
//! checking RIB: adds and deletes over a hundred preloaded RIP prefixes and
//! sixteen more, from three internal protocols and EBGP, with EBGP routes
//! losing and regaining their nexthop as the connected route covering it
//! comes and goes.  Two
//! watchers see it: one registered before any route, whose policy drops
//! high metrics and tags the rest, and one registered part-way through
//! (so a background dump brings it up to date) that takes only RIP and
//! EBGP.  Either may be paused and resumed at any step, and the dump —
//! two slices of the preloaded block — is stepped one event at a time
//! between changes, so live ops overtake it before and between slices.
//!
//! Each watcher's stream feeds a cache stage, which must record no
//! violation after any step: every delete and replace names the route an
//! earlier op delivered, filtered, and no prefix is added twice.  Once
//! both are resumed and the loop is idle, each watcher's table equals the
//! RIB's final table put through that watcher's filter.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;
use xorp_event::EventLoop;
use xorp_net::{PathAttributes, Prefix, ProtocolId, RouteEntry};
use xorp_policy::FilterBank;
use xorp_rib::{RedistWatcher, Rib};
use xorp_stages::{stage_ref, CacheStage, OriginId, SinkStage, Stage};

type Net = Prefix<Ipv4Addr>;
type Route = RouteEntry<Ipv4Addr>;
type Cache = Rc<RefCell<CacheStage<Ipv4Addr, Route>>>;
type Sink = Rc<RefCell<SinkStage<Ipv4Addr, Route>>>;

const PROTOS: [ProtocolId; 4] = [
    ProtocolId::Static,
    ProtocolId::Rip,
    ProtocolId::Connected,
    ProtocolId::Ebgp,
];
const NAMES: [&str; 2] = ["early", "late"];

#[derive(Debug, Clone)]
enum Op {
    Add {
        proto: usize,
        net: u8,
        metric: u32,
    },
    Del {
        proto: usize,
        net: u8,
    },
    /// The connected route EBGP nexthops resolve through goes or returns.
    ToggleConnected,
    Flow {
        watcher: usize,
        ready: bool,
    },
    /// Register the late watcher (once).
    Late,
    /// One event: a dump slice, when one is due.
    Step,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0usize..4, 0u8..24, 0u32..10).prop_map(|(proto, net, metric)| Op::Add { proto, net, metric }),
        3 => (0usize..4, 0u8..24).prop_map(|(proto, net)| Op::Del { proto, net }),
        1 => Just(Op::ToggleConnected),
        2 => (0usize..2, any::<bool>()).prop_map(|(watcher, ready)| Op::Flow { watcher, ready }),
        1 => Just(Op::Late),
        3 => Just(Op::Step),
    ]
}

/// Sixteen prefixes of their own, then the last eight of the preloaded
/// block (which a dump reaches in its second slice).
fn net(ix: u8) -> Net {
    if ix >= 16 {
        return bulk(76 + ix);
    }
    match ix % 3 {
        0 => Prefix::new(Ipv4Addr::new(10, ix, 0, 0), 16).unwrap(),
        1 => Prefix::new(Ipv4Addr::new(10, ix, ix, 0), 24).unwrap(),
        _ => Prefix::new(Ipv4Addr::new(20, ix, 0, 0), 16).unwrap(),
    }
}

fn route(n: Net, proto: ProtocolId, metric: u32) -> Route {
    let nexthop = Ipv4Addr::new(192, 168, 1, metric as u8);
    let mut attrs = PathAttributes::new(IpAddr::V4(nexthop));
    attrs.ebgp = proto == ProtocolId::Ebgp;
    let mut r = RouteEntry::new(n, Arc::new(attrs), metric, proto);
    if proto != ProtocolId::Ebgp {
        r.ifname = Some("eth0".into());
    }
    r
}

/// The preloaded block: a hundred RIP routes.
fn bulk(ix: u8) -> Net {
    Prefix::new(Ipv4Addr::new(30, 0, ix, 0), 24).unwrap()
}

fn connected() -> Route {
    route("192.168.0.0/16".parse().unwrap(), ProtocolId::Connected, 0)
}

fn watcher_spec(ix: usize) -> (Option<HashSet<ProtocolId>>, FilterBank) {
    let mut policy = FilterBank::accept_by_default();
    if ix == 0 {
        policy
            .push_source("low", "if metric > 5 then reject; endif add-tag 7; accept;")
            .unwrap();
        (None, policy)
    } else {
        (Some([ProtocolId::Rip, ProtocolId::Ebgp].into()), policy)
    }
}

/// A watcher whose stream feeds a consistency-checking cache.
fn watcher(ix: usize) -> (RedistWatcher<Ipv4Addr>, Cache, Sink) {
    let cache = stage_ref(CacheStage::new(NAMES[ix]));
    let sink = stage_ref(SinkStage::new());
    cache.borrow_mut().set_downstream(sink.clone());
    let c = cache.clone();
    let (from, policy) = watcher_spec(ix);
    let w = RedistWatcher::new(
        NAMES[ix],
        from,
        policy,
        Rc::new(move |el, op| c.borrow_mut().route_op(el, OriginId(0), op)),
    );
    (w, cache, sink)
}

fn violations(cache: &Cache) -> Vec<String> {
    let c = cache.borrow();
    c.violations().iter().map(|v| v.message.clone()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn watchers_match_the_filtered_table(ops in prop::collection::vec(arb_op(), 1..120)) {
        let mut el = EventLoop::new_virtual();
        let mut rib: Rib<Ipv4Addr> = Rib::new(true);
        let (early, early_cache, early_sink) = watcher(0);
        rib.add_redist_watcher(&mut el, early);
        let mut watched = vec![(early_cache, early_sink)];
        rib.add_route(&mut el, connected());
        let mut connected_up = true;
        for ix in 0..100u8 {
            rib.add_route(&mut el, route(bulk(ix), ProtocolId::Rip, u32::from(ix % 10)));
        }

        for op in ops {
            match op {
                Op::Add { proto, net: n, metric } => {
                    rib.add_route(&mut el, route(net(n), PROTOS[proto], metric));
                }
                Op::Del { proto, net: n } => {
                    rib.delete_route(&mut el, PROTOS[proto], net(n));
                }
                Op::ToggleConnected => {
                    if connected_up {
                        rib.delete_route(&mut el, ProtocolId::Connected, connected().net);
                    } else {
                        rib.add_route(&mut el, connected());
                    }
                    connected_up = !connected_up;
                }
                Op::Flow { watcher, ready } => {
                    rib.set_redist_watcher_flow(&mut el, NAMES[watcher], ready);
                }
                Op::Late => {
                    if watched.len() == 1 {
                        let (late, cache, sink) = watcher(1);
                        rib.add_redist_watcher(&mut el, late);
                        watched.push((cache, sink));
                    }
                }
                Op::Step => {
                    el.run_one();
                }
            }
            prop_assert!(rib.consistency_violations().is_empty(), "{:?}", rib.consistency_violations());
            for (cache, _) in &watched {
                let v = violations(cache);
                prop_assert!(v.is_empty(), "{:?}", v);
            }
        }

        for name in NAMES {
            rib.set_redist_watcher_flow(&mut el, name, true);
        }
        el.run_until_idle();
        let nets: Vec<Net> = (0..16)
            .map(net)
            .chain((0..100).map(bulk))
            .chain([connected().net])
            .collect();
        for (ix, (cache, sink)) in watched.iter().enumerate() {
            let v = violations(cache);
            prop_assert!(v.is_empty(), "{:?}", v);
            let (from, policy) = watcher_spec(ix);
            let model: BTreeMap<Net, Route> = nets
                .iter()
                .filter_map(|n| rib.lookup_exact(n))
                .filter_map(|mut r| {
                    let wanted = from.as_ref().map_or(true, |f| f.contains(&r.proto));
                    (wanted && policy.filter(&mut r)).then_some((r.net, r))
                })
                .collect();
            prop_assert_eq!(&sink.borrow().table, &model, "{}", NAMES[ix]);
        }
    }
}
