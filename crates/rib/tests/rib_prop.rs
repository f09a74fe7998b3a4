//! Property tests over the staged RIB:
//!
//! * arbitrary add/delete churn across protocols produces a final table
//!   identical to a brute-force oracle (best admin distance per prefix),
//!   with zero consistency violations from the cache stage;
//! * the §5.2.1 covering-answer invariants hold for arbitrary tables:
//!   answers never overlap, every address in the range longest-matches the
//!   reported route, and ranges are maximal;
//! * seeded churn over two internal and two external protocols whose
//!   nexthops gain and lose resolution, fed per-route and through
//!   `apply_batch`, ends in the table a flat model predicts;
//! * the Figure 8 queries, which keep no table of their own, answer as a
//!   trie rebuilt from the RIB's output stream does.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;
use xorp_event::EventLoop;
use xorp_net::{PathAttributes, PatriciaTrie, Prefix, ProtocolId, RouteEntry};
use xorp_rib::{covering_answer, Rib};

type Net = Prefix<Ipv4Addr>;

const PROTOS: [ProtocolId; 4] = [
    ProtocolId::Connected,
    ProtocolId::Static,
    ProtocolId::Rip,
    ProtocolId::Ebgp,
];

#[derive(Debug, Clone)]
enum Op {
    Add { proto: usize, net_ix: u8, nh: u8 },
    Del { proto: usize, net_ix: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0usize..4, 0u8..16, any::<u8>()).prop_map(|(proto, net_ix, nh)| Op::Add {
            proto,
            net_ix,
            nh,
        }),
        2 => (0usize..4, 0u8..16).prop_map(|(proto, net_ix)| Op::Del { proto, net_ix }),
    ]
}

fn net(ix: u8) -> Net {
    // Mix of nesting prefixes so merge paths with conflicts are exercised.
    match ix % 4 {
        0 => Prefix::new(Ipv4Addr::new(10, ix, 0, 0), 16).unwrap(),
        1 => Prefix::new(Ipv4Addr::new(10, ix / 4, 0, 0), 12).unwrap(),
        2 => Prefix::new(Ipv4Addr::new(10, ix, ix, 0), 24).unwrap(),
        _ => Prefix::new(Ipv4Addr::new(20, ix, 0, 0), 16).unwrap(),
    }
}

fn route(n: Net, proto: ProtocolId, nh: u8) -> RouteEntry<Ipv4Addr> {
    let mut attrs = PathAttributes::new(IpAddr::V4(Ipv4Addr::new(192, 168, 0, nh)));
    attrs.ebgp = proto == ProtocolId::Ebgp;
    let mut r = RouteEntry::new(n, Arc::new(attrs), 1, proto);
    r.ifname = Some("eth0".into());
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rib_matches_admin_distance_oracle(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let mut el = EventLoop::new_virtual();
        let mut rib: Rib<Ipv4Addr> = Rib::new(true);
        // A connected route that resolves the EBGP nexthops.
        rib.add_route(&mut el, route("192.168.0.0/16".parse().unwrap(), ProtocolId::Connected, 1));

        // Oracle: per-(proto, net) presence.
        let mut model: BTreeMap<(usize, Net), RouteEntry<Ipv4Addr>> = BTreeMap::new();

        for op in ops {
            match op {
                Op::Add { proto, net_ix, nh } => {
                    let r = route(net(net_ix), PROTOS[proto], nh);
                    model.insert((proto, r.net), r.clone());
                    rib.add_route(&mut el, r);
                }
                Op::Del { proto, net_ix } => {
                    model.remove(&(proto, net(net_ix)));
                    rib.delete_route(&mut el, PROTOS[proto], net(net_ix));
                }
            }
        }
        el.run_until_idle();

        prop_assert!(rib.consistency_violations().is_empty(),
                     "{:?}", rib.consistency_violations());

        // Expected winner per prefix: lowest admin distance (every EBGP
        // nexthop resolves via the connected /16, so none are held back).
        let mut expected: BTreeMap<Net, ProtocolId> = BTreeMap::new();
        for ((_, n), r) in &model {
            match expected.get(n) {
                Some(best) if xorp_net::AdminDistance::default_for(*best)
                    <= r.admin_distance => {}
                _ => {
                    expected.insert(*n, r.proto);
                }
            }
        }
        expected.insert("192.168.0.0/16".parse().unwrap(), ProtocolId::Connected);

        prop_assert_eq!(rib.route_count(), expected.len());
        for (n, proto) in &expected {
            let got = rib.lookup_exact(n);
            prop_assert!(got.is_some(), "missing {}", n);
            prop_assert_eq!(got.unwrap().proto, *proto, "winner for {}", n);
        }
    }

    #[test]
    fn covering_answer_invariants(
        entries in proptest::collection::btree_set(
            (any::<u32>(), 0u8..=28).prop_map(|(b, l)| {
                Prefix::<Ipv4Addr>::new(Ipv4Addr::from(b), l).unwrap()
            }),
            0..24,
        ),
        queries in proptest::collection::vec(any::<u32>(), 1..16),
    ) {
        let mut trie: PatriciaTrie<Ipv4Addr, u32> = PatriciaTrie::new();
        for (i, p) in entries.iter().enumerate() {
            trie.insert(*p, i as u32);
        }

        let mut answers: Vec<(Ipv4Addr, Option<Net>, Net)> = Vec::new();
        for q in queries {
            let addr = Ipv4Addr::from(q);
            let (matched, valid) = covering_answer(&trie, addr);
            // 1. The valid range contains the queried address.
            prop_assert!(valid.contains_addr(addr));
            // 2. The match is the longest match.
            let oracle = entries
                .iter()
                .filter(|p| p.contains_addr(addr))
                .max_by_key(|p| p.len())
                .copied();
            prop_assert_eq!(matched.as_ref().map(|(p, _)| *p), oracle);
            // 3. Every stored route inside `valid` IS the matched route
            //    (no overlay), i.e. all addresses in `valid` share the
            //    answer.
            for p in &entries {
                if valid.contains(p) {
                    prop_assert_eq!(Some(*p), oracle, "route {} overlays {}", p, valid);
                }
            }
            // 4. Maximality: the parent range (if any) violates one of the
            //    above.
            if let Some(parent) = valid.parent() {
                let parent_ok = entries.iter().filter(|p| parent.contains(p)).all(|p| Some(*p) == oracle)
                    && oracle.map_or(true, |o| o.contains(&parent));
                prop_assert!(!parent_ok, "range {} not maximal (parent {} also valid)", valid, parent);
            }
            answers.push((addr, oracle, valid));
        }

        // 5. "No largest enclosing subnet ever overlaps any other": ranges
        //    from distinct queries either coincide or are disjoint.
        for (i, (_, _, a)) in answers.iter().enumerate() {
            for (_, _, b) in answers.iter().skip(i + 1) {
                prop_assert!(a == b || !a.overlaps(b), "{} overlaps {}", a, b);
            }
        }
    }
}

// ----- seeded model test: arbitration + resolvability -----------------------

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xorp_rib::BatchOp;

/// Two protocols per side, so both chains carry a merge.
const MODEL_PROTOS: [ProtocolId; 4] = [
    ProtocolId::Static,
    ProtocolId::Rip,
    ProtocolId::Ebgp,
    ProtocolId::Ibgp,
];

/// External nexthops; each sits inside some of [`int_nets`].
const NEXTHOPS: [Ipv4Addr; 3] = [
    Ipv4Addr::new(192, 168, 1, 1),
    Ipv4Addr::new(192, 168, 200, 1),
    Ipv4Addr::new(172, 16, 0, 1),
];

/// Internal prefixes: covering routes for the nexthops at two depths, plus
/// two that collide with external prefixes.
fn int_nets() -> Vec<Net> {
    [
        "192.168.0.0/16",
        "192.168.1.0/24",
        "172.16.0.0/12",
        "10.0.0.0/16",
        "10.1.0.0/16",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect()
}

fn ext_nets() -> Vec<Net> {
    (0..6u8)
        .map(|i| Prefix::new(Ipv4Addr::new(10, i, 0, 0), 16).unwrap())
        .collect()
}

fn model_route(rng: &mut StdRng) -> RouteEntry<Ipv4Addr> {
    let proto = MODEL_PROTOS[rng.gen_range(0..4usize)];
    let external = xorp_rib::is_external(proto);
    let nets = if external { ext_nets() } else { int_nets() };
    let net = nets[rng.gen_range(0..nets.len())];
    let nexthop = if external {
        NEXTHOPS[rng.gen_range(0..3usize)]
    } else {
        Ipv4Addr::UNSPECIFIED
    };
    // A varying metric makes a re-add a replace rather than a no-op.
    let metric = rng.gen_range(0..3u32);
    let mut r = RouteEntry::new(
        net,
        Arc::new(PathAttributes::new(IpAddr::V4(nexthop))),
        metric,
        proto,
    );
    if !external {
        r.ifname = Some(format!("{proto}:{net}").into());
    }
    r
}

/// What the staged network should hold: per side the lowest admin distance
/// wins a prefix; the external winner counts only while the internal
/// winners' table longest-matches its nexthop, and carries that match's
/// interface; internal wins ties between the sides.  Returns the table and
/// how many external winners are held back as unresolvable.
fn model_table(
    held: &BTreeMap<(ProtocolId, Net), RouteEntry<Ipv4Addr>>,
) -> (BTreeMap<Net, RouteEntry<Ipv4Addr>>, usize) {
    let side = |external: bool| {
        let mut best: BTreeMap<Net, RouteEntry<Ipv4Addr>> = BTreeMap::new();
        for r in held
            .values()
            .filter(|r| xorp_rib::is_external(r.proto) == external)
        {
            match best.get(&r.net) {
                Some(b) if b.admin_distance <= r.admin_distance => {}
                _ => {
                    best.insert(r.net, r.clone());
                }
            }
        }
        best
    };
    let (int, ext) = (side(false), side(true));
    let mut table = int.clone();
    let mut unresolved = 0;
    for (net, mut r) in ext {
        let IpAddr::V4(nh) = r.nexthop() else {
            unreachable!()
        };
        let Some(via) = int
            .values()
            .filter(|i| i.net.contains_addr(nh))
            .max_by_key(|i| i.net.len())
        else {
            unresolved += 1;
            continue;
        };
        r.ifname = via.ifname.clone();
        match table.get(&net) {
            Some(i) if i.admin_distance <= r.admin_distance => {}
            _ => {
                table.insert(net, r);
            }
        }
    }
    (table, unresolved)
}

fn assert_matches_model(
    rib: &Rib<Ipv4Addr>,
    held: &BTreeMap<(ProtocolId, Net), RouteEntry<Ipv4Addr>>,
    what: &str,
) {
    let (want, unresolved) = model_table(held);
    assert!(
        rib.consistency_violations().is_empty(),
        "{what}: {:?}",
        rib.consistency_violations()
    );
    assert_eq!(rib.route_count(), want.len(), "{what}: route count");
    for net in int_nets().into_iter().chain(ext_nets()) {
        assert_eq!(
            rib.lookup_exact(&net).as_ref(),
            want.get(&net),
            "{what}: {net}"
        );
    }
    assert_eq!(rib.unresolved_count(), unresolved, "{what}: held back");
}

#[test]
fn seeded_churn_matches_model_per_route_and_batched() {
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut el = EventLoop::new_virtual();
        let mut per_route: Rib<Ipv4Addr> = Rib::new(true);
        let mut batched: Rib<Ipv4Addr> = Rib::new(true);
        let mut held: BTreeMap<(ProtocolId, Net), RouteEntry<Ipv4Addr>> = BTreeMap::new();

        let mut pending: Vec<BatchOp<Ipv4Addr>> = Vec::new();
        for step in 0..150 {
            let r = model_route(&mut rng);
            let op = if rng.gen_bool(0.6) {
                held.insert((r.proto, r.net), r.clone());
                BatchOp::Add(r)
            } else {
                held.remove(&(r.proto, r.net));
                BatchOp::Delete {
                    proto: r.proto,
                    net: r.net,
                }
            };
            match op.clone() {
                BatchOp::Add(r) => per_route.add_route(&mut el, r),
                BatchOp::Delete { proto, net } => {
                    per_route.delete_route(&mut el, proto, net);
                }
            }
            pending.push(op);
            // Frames of uneven size, so internal and external ops share
            // batches in every mix; the model is checked at each boundary.
            if rng.gen_range(0..8u32) == 0 || step == 149 {
                batched.apply_batch(&mut el, std::mem::take(&mut pending));
                assert_matches_model(&per_route, &held, &format!("seed {seed} per-route"));
                assert_matches_model(&batched, &held, &format!("seed {seed} batched"));
            }
        }
        el.run_until_idle();
    }
}

// ----- Figure 8 against a model of the output stream -------------------------

/// Prefixes several protocols share: 10.0.0.0/16 is offered by static,
/// EBGP and IBGP alike, and nested prefixes make the answers narrow.
const FIG8_NETS: [&str; 9] = [
    "10.0.0.0/16",
    "10.0.0.0/8",
    "10.0.128.0/17",
    "10.0.1.0/24",
    "10.1.0.0/16",
    "192.168.0.0/16",
    "192.168.1.0/24",
    "172.16.0.0/12",
    "198.51.100.0/24",
];

/// External nexthops; no internal prefix above covers 203.0.113.1, so
/// routes naming it never resolve, and routes naming an IPv6 nexthop
/// never resolve in an IPv4 RIB.
const FIG8_NEXTHOPS: [IpAddr; 5] = [
    IpAddr::V4(Ipv4Addr::new(192, 168, 1, 1)),
    IpAddr::V4(Ipv4Addr::new(192, 168, 200, 1)),
    IpAddr::V4(Ipv4Addr::new(172, 16, 0, 1)),
    IpAddr::V4(Ipv4Addr::new(203, 0, 113, 1)),
    IpAddr::V6(std::net::Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1)),
];

const FIG8_PROTOS: [ProtocolId; 4] = [
    ProtocolId::Static,
    ProtocolId::Rip,
    ProtocolId::Ebgp,
    ProtocolId::Ibgp,
];

fn fig8_op(rng: &mut StdRng) -> BatchOp<Ipv4Addr> {
    let proto = FIG8_PROTOS[rng.gen_range(0..4usize)];
    let net: Net = FIG8_NETS[rng.gen_range(0..FIG8_NETS.len())]
        .parse()
        .unwrap();
    if rng.gen_bool(0.3) {
        return BatchOp::Delete { proto, net };
    }
    let external = xorp_rib::is_external(proto);
    let nexthop = if external {
        FIG8_NEXTHOPS[rng.gen_range(0..FIG8_NEXTHOPS.len())]
    } else {
        IpAddr::V4(Ipv4Addr::UNSPECIFIED)
    };
    let attrs = Arc::new(PathAttributes::new(nexthop));
    let mut r = RouteEntry::new(net, attrs, rng.gen_range(0..3u32), proto);
    if !external {
        r.ifname = Some(format!("{proto}:{net}").into());
    }
    BatchOp::Add(r)
}

/// `register_interest`, `longest_match` and `route_count` answer from the
/// origin tables and the arbitrated view; they must equal what a trie
/// rebuilt from the RIB's own output stream gives, at every batch
/// boundary.  Batches mix internal and external operations, so IGP changes
/// land inside an open batch and move nexthops mid-batch.
#[test]
fn register_answers_match_a_model_of_the_output() {
    for seed in 0..100u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut el = EventLoop::new_virtual();
        let mut rib: Rib<Ipv4Addr> = Rib::new(true);
        let model = Rc::new(RefCell::new(
            PatriciaTrie::<Ipv4Addr, RouteEntry<Ipv4Addr>>::new(),
        ));
        let m = model.clone();
        rib.set_output(move |_el, _origin, op| {
            let net = op.net();
            match op.into_routes() {
                (_, Some(route)) => m.borrow_mut().insert(net, route),
                (_, None) => m.borrow_mut().remove(&net),
            };
        });
        let probes: Vec<Ipv4Addr> = FIG8_NEXTHOPS
            .iter()
            .filter_map(|nh| match nh {
                IpAddr::V4(nh) => Some(*nh),
                IpAddr::V6(_) => None,
            })
            .chain(
                FIG8_NETS
                    .iter()
                    .map(|n| n.parse::<Net>().unwrap().first_addr()),
            )
            .chain(["10.0.0.1", "10.0.200.1", "10.200.0.1", "8.8.8.8"].map(|a| a.parse().unwrap()))
            .collect();
        for batch in 0..40 {
            let ops = (0..rng.gen_range(1..10))
                .map(|_| fig8_op(&mut rng))
                .collect();
            rib.apply_batch(&mut el, ops);
            let what = format!("seed {seed} batch {batch}");
            assert!(rib.consistency_violations().is_empty(), "{what}");
            let model = model.borrow();
            assert_eq!(rib.route_count(), model.len(), "{what}: route count");
            let random = (0..4).map(|_| Ipv4Addr::from(rng.gen::<u32>()));
            for addr in probes.iter().copied().chain(random) {
                let want = model.longest_match(addr).map(|(net, r)| (net, r.clone()));
                assert_eq!(
                    rib.longest_match(addr),
                    want,
                    "{what}: longest match {addr}"
                );
                let (matched, valid) = covering_answer(&*model, addr);
                let got = rib.register_interest(7, addr);
                assert_eq!(got.valid, valid, "{what}: range for {addr}");
                assert_eq!(
                    got.route,
                    matched.map(|(_, r)| r),
                    "{what}: route for {addr}"
                );
                assert!(rib.deregister_interest(7, &got.valid));
            }
        }
    }
}
