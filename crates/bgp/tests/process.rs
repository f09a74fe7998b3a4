//! End-to-end tests of the assembled BGP process: multiple peers, the full
//! Figure 5 pipeline, peering flaps with background deletion (Figure 6),
//! policy, and the RIB output.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;
use std::sync::Arc;

use xorp_bgp::bgp::UpdateIn;
use xorp_bgp::nexthop::{AnswerCb, NexthopService, RibNexthopAnswer};
use xorp_bgp::peer_out::UpdateOut;
use xorp_bgp::{BgpConfig, BgpProcess, PeerConfig, PeerId, ReaderId};
use xorp_event::EventLoop;
use xorp_net::{AsNum, AsPath, PathAttributes, Prefix, RouteEntry};
use xorp_policy::FilterBank;
use xorp_stages::RouteOp;

type Net = Prefix<Ipv4Addr>;

/// A service where everything resolves with metric 1 inside 192.168/16.
struct FlatService;

impl NexthopService<Ipv4Addr> for FlatService {
    fn resolve_nexthop(&self, el: &mut EventLoop, addr: Ipv4Addr, cb: AnswerCb<Ipv4Addr>) {
        let valid: Net = "192.168.0.0/16".parse().unwrap();
        let metric = valid.contains_addr(addr).then_some(1);
        cb(
            el,
            RibNexthopAnswer {
                valid: if valid.contains_addr(addr) {
                    valid
                } else {
                    Prefix::host(addr)
                },
                metric,
            },
        );
    }
}

struct Router {
    el: EventLoop,
    bgp: BgpProcess<Ipv4Addr>,
    rib: Rc<RefCell<BTreeMap<Net, RouteEntry<Ipv4Addr>>>>,
    sent: Rc<RefCell<BTreeMap<u32, Vec<UpdateOut<Ipv4Addr>>>>>,
}

fn router(peers: &[(u32, u32)]) -> Router {
    let mut el = EventLoop::new_virtual();
    let config = BgpConfig {
        local_as: AsNum(65000),
        router_id: "10.0.0.1".parse().unwrap(),
        local_addr: IpAddr::V4("10.0.0.1".parse().unwrap()),
        hold_time: 90,
    };
    let mut bgp = BgpProcess::new(config, Rc::new(FlatService));
    let rib: Rc<RefCell<BTreeMap<Net, RouteEntry<Ipv4Addr>>>> =
        Rc::new(RefCell::new(BTreeMap::new()));
    let r = rib.clone();
    bgp.set_rib_output(&mut el, move |_el, _o, op| match op {
        RouteOp::Add { net, route }
        | RouteOp::Replace {
            net, new: route, ..
        } => {
            r.borrow_mut().insert(net, route);
        }
        RouteOp::Delete { net, .. } => {
            r.borrow_mut().remove(&net);
        }
    });
    let sent: Rc<RefCell<BTreeMap<u32, Vec<UpdateOut<Ipv4Addr>>>>> =
        Rc::new(RefCell::new(BTreeMap::new()));
    for &(id, asn) in peers {
        let mut cfg = PeerConfig::simple(PeerId(id), AsNum(asn));
        cfg.consistency_check = true;
        let s = sent.clone();
        bgp.add_peer(
            &mut el,
            cfg,
            Some(Rc::new(move |_el, u| {
                s.borrow_mut().entry(id).or_default().push(u);
            })),
        );
        bgp.peering_up(&mut el, PeerId(id));
    }
    Router { el, bgp, rib, sent }
}

fn update(nexthop: &str, path: &[u32], nets: &[&str]) -> UpdateIn<Ipv4Addr> {
    let mut attrs = PathAttributes::new(IpAddr::V4(nexthop.parse().unwrap()));
    attrs.as_path = AsPath::from_sequence(path.iter().copied());
    UpdateIn {
        withdrawn: vec![],
        announce: Some((
            Arc::new(attrs),
            nets.iter().map(|n| n.parse().unwrap()).collect(),
        )),
    }
}

fn withdraw(nets: &[&str]) -> UpdateIn<Ipv4Addr> {
    UpdateIn {
        withdrawn: nets.iter().map(|n| n.parse().unwrap()).collect(),
        announce: None,
    }
}

impl Router {
    fn recv(&mut self, peer: u32, u: UpdateIn<Ipv4Addr>) {
        self.bgp.apply_update(&mut self.el, PeerId(peer), u);
        self.el.run_until_idle();
    }

    fn rib_has(&self, net: &str) -> bool {
        self.rib.borrow().contains_key(&net.parse().unwrap())
    }

    fn sent_to(&self, peer: u32) -> usize {
        self.sent.borrow().get(&peer).map_or(0, |v| v.len())
    }

    fn assert_consistent(&self) {
        let v = self.bgp.consistency_violations();
        assert!(v.is_empty(), "{v:?}");
    }
}

#[test]
fn route_propagates_to_rib_and_other_peers() {
    let mut r = router(&[(1, 65001), (2, 65002)]);
    r.recv(1, update("192.168.1.1", &[65001], &["10.0.0.0/8"]));

    assert!(r.rib_has("10.0.0.0/8"));
    // Advertised to peer 2, not echoed to peer 1.
    assert_eq!(r.sent_to(2), 1);
    assert_eq!(r.sent_to(1), 0);
    match &r.sent.borrow()[&2][0] {
        UpdateOut::Announce(net, attrs) => {
            assert_eq!(*net, "10.0.0.0/8".parse().unwrap());
            // EBGP export: our AS prepended, nexthop-self.
            assert_eq!(attrs.as_path, AsPath::from_sequence([65000, 65001]));
            assert_eq!(attrs.nexthop.to_string(), "10.0.0.1");
        }
        other => panic!("{other:?}"),
    }
    r.assert_consistent();
}

#[test]
fn unresolvable_nexthop_blocks_use() {
    let mut r = router(&[(1, 65001), (2, 65002)]);
    // Nexthop outside 192.168/16: unreachable per FlatService.
    r.recv(1, update("172.16.1.1", &[65001], &["10.0.0.0/8"]));
    assert!(!r.rib_has("10.0.0.0/8"));
    assert_eq!(r.sent_to(2), 0);
}

#[test]
fn decision_prefers_shorter_path_across_peers() {
    let mut r = router(&[(1, 65001), (2, 65002), (3, 65003)]);
    r.recv(
        1,
        update("192.168.1.1", &[65001, 64512, 64513], &["10.0.0.0/8"]),
    );
    assert_eq!(
        r.rib.borrow()[&"10.0.0.0/8".parse().unwrap()]
            .attrs
            .as_path
            .path_len(),
        3
    );
    // A shorter path from peer 2 takes over.
    r.recv(2, update("192.168.2.2", &[65002], &["10.0.0.0/8"]));
    assert_eq!(
        r.rib.borrow()[&"10.0.0.0/8".parse().unwrap()]
            .attrs
            .as_path
            .path_len(),
        1
    );
    // Withdraw the winner: falls back to peer 1's path.
    r.recv(2, withdraw(&["10.0.0.0/8"]));
    assert_eq!(
        r.rib.borrow()[&"10.0.0.0/8".parse().unwrap()]
            .attrs
            .as_path
            .path_len(),
        3
    );
    r.assert_consistent();
}

#[test]
fn peering_flap_background_deletion() {
    let mut r = router(&[(1, 65001), (2, 65002)]);
    // Peer 1 announces 300 routes.
    for i in 0..3u8 {
        let nets: Vec<String> = (0..100u8).map(|j| format!("10.{}.{}.0/24", i, j)).collect();
        let net_refs: Vec<&str> = nets.iter().map(|s| s.as_str()).collect();
        r.recv(1, update("192.168.1.1", &[65001], &net_refs));
    }
    assert_eq!(r.rib.borrow().len(), 300);
    assert_eq!(r.bgp.peer_route_count(PeerId(1)), 300);

    // Peering drops: deletion stage spliced in; PeerIn immediately empty.
    r.bgp.peering_down(&mut r.el, PeerId(1));
    assert_eq!(r.bgp.peer_route_count(PeerId(1)), 0);
    assert_eq!(r.bgp.deletion_stage_count(PeerId(1)), 1);

    // The peering returns immediately and re-announces 50 routes while
    // the background drain is still running.
    r.bgp.peering_up(&mut r.el, PeerId(1));
    let nets: Vec<String> = (0..50u8).map(|j| format!("10.0.{}.0/24", j)).collect();
    let net_refs: Vec<&str> = nets.iter().map(|s| s.as_str()).collect();
    r.bgp.apply_update(
        &mut r.el,
        PeerId(1),
        update("192.168.1.1", &[65001], &net_refs),
    );

    // Drain everything.
    r.el.run_until_idle();
    assert_eq!(r.bgp.deletion_stage_count(PeerId(1)), 0);
    assert_eq!(r.rib.borrow().len(), 50);
    assert_eq!(r.bgp.peer_route_count(PeerId(1)), 50);
    r.assert_consistent();
}

#[test]
fn double_flap_chains_deletion_stages() {
    let mut r = router(&[(1, 65001)]);
    let nets: Vec<String> = (0..200u8).map(|j| format!("10.1.{}.0/24", j)).collect();
    let net_refs: Vec<&str> = nets.iter().map(|s| s.as_str()).collect();
    r.recv(1, update("192.168.1.1", &[65001], &net_refs));

    r.bgp.peering_down(&mut r.el, PeerId(1));
    r.bgp.peering_up(&mut r.el, PeerId(1));
    // Re-announce a subset, then flap again before the drain completes.
    let nets2: Vec<String> = (0..80u8).map(|j| format!("10.1.{}.0/24", j)).collect();
    let refs2: Vec<&str> = nets2.iter().map(|s| s.as_str()).collect();
    r.bgp.apply_update(
        &mut r.el,
        PeerId(1),
        update("192.168.1.1", &[65001], &refs2),
    );
    r.bgp.peering_down(&mut r.el, PeerId(1));
    assert_eq!(r.bgp.deletion_stage_count(PeerId(1)), 2);

    r.el.run_until_idle();
    assert_eq!(r.bgp.deletion_stage_count(PeerId(1)), 0);
    assert!(r.rib.borrow().is_empty());
    r.assert_consistent();
}

#[test]
fn import_policy_filters_and_modifies() {
    let mut r = router(&[(1, 65001), (2, 65002)]);
    // Swap in a policy rejecting 172/12-overlapping routes, tagging others.
    let mut bank = FilterBank::accept_by_default();
    bank.push_source(
        "import",
        "if network within 172.16.0.0/12 then reject; endif add-tag 9; accept;",
    )
    .unwrap();
    r.bgp.refilter_peer(&mut r.el, PeerId(1), bank);
    r.el.run_until_idle();

    r.recv(
        1,
        update("192.168.1.1", &[65001], &["172.16.0.0/16", "10.0.0.0/8"]),
    );
    assert!(!r.rib_has("172.16.0.0/16"));
    assert!(r.rib_has("10.0.0.0/8"));
    assert_eq!(
        r.rib.borrow()[&"10.0.0.0/8".parse().unwrap()].attrs.tags,
        vec![9]
    );
    r.assert_consistent();
}

#[test]
fn refilter_reconciles_existing_routes_in_background() {
    let mut r = router(&[(1, 65001), (2, 65002)]);
    let nets: Vec<String> = (0..150u8).map(|j| format!("10.2.{}.0/24", j)).collect();
    let refs: Vec<&str> = nets.iter().map(|s| s.as_str()).collect();
    r.recv(1, update("192.168.1.1", &[65001], &refs));
    r.recv(1, update("192.168.1.1", &[65001], &["172.16.0.0/16"]));
    assert_eq!(r.rib.borrow().len(), 151);

    // New policy drops everything in 10/8.
    let mut bank = FilterBank::accept_by_default();
    bank.push_source(
        "strict",
        "if network within 10.0.0.0/8 then reject; endif accept;",
    )
    .unwrap();
    r.bgp.refilter_peer(&mut r.el, PeerId(1), bank);
    r.el.run_until_idle();
    assert_eq!(r.rib.borrow().len(), 1);
    assert!(r.rib_has("172.16.0.0/16"));
    r.assert_consistent();
}

#[test]
fn flap_damping_through_facade() {
    let mut r = router(&[(2, 65002)]);
    let mut cfg = PeerConfig::simple(PeerId(1), AsNum(65001));
    cfg.damping = Some(xorp_bgp::DampingConfig {
        flap_penalty: 1000.0,
        suppress_threshold: 2000.0,
        reuse_threshold: 750.0,
        half_life: std::time::Duration::from_secs(60),
        max_penalty: 16000.0,
    });
    r.bgp.add_peer(&mut r.el, cfg, None);
    r.bgp.peering_up(&mut r.el, PeerId(1));

    for _ in 0..2 {
        r.recv(1, update("192.168.1.1", &[65001], &["10.0.0.0/8"]));
        r.recv(1, withdraw(&["10.0.0.0/8"]));
    }
    // Third announcement is suppressed.
    r.recv(1, update("192.168.1.1", &[65001], &["10.0.0.0/8"]));
    assert!(!r.rib_has("10.0.0.0/8"));

    // After decay (~2 half-lives) the sweep releases it.
    r.el.run_until(xorp_event::Time::from_secs(180));
    assert!(r.rib_has("10.0.0.0/8"));
    r.assert_consistent();
}

#[test]
fn late_peer_receives_replay() {
    let mut r = router(&[(1, 65001)]);
    r.recv(
        1,
        update("192.168.1.1", &[65001], &["10.0.0.0/8", "20.0.0.0/8"]),
    );

    // A new peer comes up afterwards: it must learn the existing table.
    let s = r.sent.clone();
    let mut cfg = PeerConfig::simple(PeerId(5), AsNum(65005));
    cfg.consistency_check = true;
    r.bgp.add_peer(
        &mut r.el,
        cfg,
        Some(Rc::new(move |_el, u| {
            s.borrow_mut().entry(5).or_default().push(u);
        })),
    );
    r.bgp.peering_up(&mut r.el, PeerId(5));
    r.el.run_until_idle();
    assert_eq!(r.sent_to(5), 2);
    r.assert_consistent();
}

#[test]
fn ibgp_vs_ebgp_semantics() {
    // Peer 3 is IBGP (same AS as us).
    let mut r = router(&[(1, 65001), (3, 65000)]);
    // EBGP route: goes to the IBGP peer without prepending.
    r.recv(1, update("192.168.1.1", &[65001], &["10.0.0.0/8"]));
    assert_eq!(r.sent_to(3), 1);
    match &r.sent.borrow()[&3][0] {
        UpdateOut::Announce(_, attrs) => {
            assert_eq!(attrs.as_path, AsPath::from_sequence([65001]));
            assert!(attrs.local_pref.is_some());
        }
        other => panic!("{other:?}"),
    }
    // IBGP-learned route: not reflected to IBGP peers... peer 3 is our
    // only IBGP peer, so a route from peer 3 must not go back out to it,
    // and (full-mesh rule) wouldn't go to another IBGP peer either.
    r.recv(3, update("192.168.3.3", &[], &["30.0.0.0/8"]));
    assert!(r.rib_has("30.0.0.0/8"));
    assert_eq!(r.sent_to(3), 1); // unchanged
    r.assert_consistent();
}

#[test]
fn slow_peer_flow_control() {
    let mut r = router(&[(1, 65001), (2, 65002)]);
    r.bgp
        .set_reader_flow(&mut r.el, ReaderId::Peer(PeerId(2)), false);
    let nets: Vec<String> = (0..30u8).map(|j| format!("10.3.{}.0/24", j)).collect();
    let refs: Vec<&str> = nets.iter().map(|s| s.as_str()).collect();
    r.recv(1, update("192.168.1.1", &[65001], &refs));
    // RIB saw everything; slow peer saw nothing yet.
    assert_eq!(r.rib.borrow().len(), 30);
    assert_eq!(r.sent_to(2), 0);
    r.bgp
        .set_reader_flow(&mut r.el, ReaderId::Peer(PeerId(2)), true);
    r.el.run_until_idle();
    assert_eq!(r.sent_to(2), 30);
    r.assert_consistent();
}

#[test]
fn aggregation_stage_in_the_full_pipeline() {
    let mut r = router(&[(1, 65001), (2, 65002)]);
    // Splice the aggregation stage (summary-only for 11.0.0.0/8).
    r.bgp
        .set_aggregates([("11.0.0.0/8".parse().unwrap(), true)]);
    r.recv(
        1,
        update(
            "192.168.1.1",
            &[65001],
            &["11.1.0.0/16", "11.2.0.0/16", "20.0.0.0/8"],
        ),
    );
    // The RIB sees the aggregate + the untouched outside route; the
    // suppressed specifics do not appear.
    assert!(r.rib_has("11.0.0.0/8"));
    assert!(r.rib_has("20.0.0.0/8"));
    assert!(!r.rib_has("11.1.0.0/16"));
    assert_eq!(r.rib.borrow().len(), 2);
    // The aggregate carries our AS plus an AS_SET of contributors.
    let agg = r.rib.borrow()[&"11.0.0.0/8".parse().unwrap()].clone();
    let path = agg.attrs.as_path.to_string();
    assert!(path.starts_with("65000"), "{path}");
    assert!(path.contains("65001"), "{path}");
    // Peer 2 receives the aggregate, not the specifics.
    assert_eq!(r.sent_to(2), 2); // aggregate + 20/8
                                 // Withdrawing all contributors withdraws the aggregate everywhere.
    r.recv(1, withdraw(&["11.1.0.0/16", "11.2.0.0/16"]));
    assert!(!r.rib_has("11.0.0.0/8"));
    r.assert_consistent();
}

/// Satellite regression: a slow peer is paused (its reader pins fanout
/// queue entries) and then dies without ever resuming.  Removing the
/// reader must recompute the GC floor so the queue drains to empty —
/// before the fix a dead paused peer pinned every later entry forever.
#[test]
fn killing_paused_peer_lets_queue_drain() {
    let mut r = router(&[(1, 65001), (2, 65002)]);
    r.bgp
        .set_reader_flow(&mut r.el, ReaderId::Peer(PeerId(2)), false);
    let nets: Vec<String> = (0..40u8).map(|j| format!("10.4.{}.0/24", j)).collect();
    let refs: Vec<&str> = nets.iter().map(|s| s.as_str()).collect();
    r.recv(1, update("192.168.1.1", &[65001], &refs));
    assert_eq!(r.sent_to(2), 0);
    assert!(
        r.bgp.fanout_queue_len() > 0,
        "paused reader should pin queue entries"
    );

    // The paused peering dies.  Its cursor must leave the GC minimum.
    r.bgp.peering_down(&mut r.el, PeerId(2));
    r.el.run_until_idle();
    assert_eq!(
        r.bgp.fanout_queue_len(),
        0,
        "dead paused reader must not pin the queue"
    );

    // Later churn keeps draining normally.
    r.recv(1, update("192.168.1.1", &[65001], &["10.5.0.0/24"]));
    assert_eq!(r.bgp.fanout_queue_len(), 0);
    r.assert_consistent();
}

/// Per-net stream sanity at a neighbor: a flap (down, immediately up,
/// re-announce of identical routes) while the deletion drain is still in
/// flight must not double-announce.  For every prefix the stream peer 2
/// sees must alternate announce/withdraw — two identical consecutive
/// announcements would mean a route arrived both from the drain
/// interleaving and the re-learn path.
#[test]
fn flap_during_drain_does_not_double_announce() {
    let mut r = router(&[(1, 65001), (2, 65002)]);
    let nets: Vec<String> = (0..120u8).map(|j| format!("10.6.{}.0/24", j)).collect();
    let refs: Vec<&str> = nets.iter().map(|s| s.as_str()).collect();
    r.recv(1, update("192.168.1.1", &[65001], &refs));
    assert_eq!(r.sent_to(2), 120);

    // Down: drain starts.  Step it partially so some deletes are already
    // past the fanout when the peering returns.
    r.bgp.peering_down(&mut r.el, PeerId(1));
    for _ in 0..3 {
        r.el.run_one();
    }
    r.bgp.peering_up(&mut r.el, PeerId(1));
    // Re-learn the identical routes mid-drain.
    r.bgp
        .apply_update(&mut r.el, PeerId(1), update("192.168.1.1", &[65001], &refs));
    r.el.run_until_idle();

    assert_eq!(r.bgp.deletion_stage_count(PeerId(1)), 0);
    assert_eq!(r.rib.borrow().len(), 120);
    r.assert_consistent();

    // No prefix may see two identical consecutive announcements.
    let sent = r.sent.borrow();
    let mut streams: BTreeMap<Net, Vec<String>> = BTreeMap::new();
    for u in sent.get(&2).into_iter().flatten() {
        match u {
            UpdateOut::Announce(n, a) => {
                streams
                    .entry(*n)
                    .or_default()
                    .push(format!("A {:?}", a.as_path));
            }
            UpdateOut::Withdraw(n) => {
                streams.entry(*n).or_default().push("W".to_string());
            }
        }
    }
    for (n, stream) in &streams {
        for w in stream.windows(2) {
            assert_ne!(w[0], w[1], "duplicate consecutive {:?} for {}", w[0], n);
        }
        assert!(
            stream.last().map(|s| s.starts_with('A')).unwrap_or(false),
            "{n} must end announced: {stream:?}"
        );
    }
}

/// Dump/deletion interleaving at the process level: a brand-new peering
/// comes up while another peer's deletion drain is mid-flight.  Routes
/// parked in the deletion stage are still visible upstream, so the
/// background dump walks them too; the drain's deletes then reach the new
/// peer as consistent delete-after-add, and the final table it holds is
/// exactly the surviving peer's contribution.
#[test]
fn late_peer_attach_during_deletion_drain() {
    let mut r = router(&[(1, 65001), (2, 65002)]);
    let dying: Vec<String> = (0..150u8).map(|j| format!("10.7.{}.0/24", j)).collect();
    let dying_refs: Vec<&str> = dying.iter().map(|s| s.as_str()).collect();
    r.recv(1, update("192.168.1.1", &[65001], &dying_refs));
    r.recv(
        2,
        update("192.168.2.1", &[65002], &["20.1.0.0/16", "20.2.0.0/16"]),
    );

    // Peer 1 dies; step the drain only partially.
    r.bgp.peering_down(&mut r.el, PeerId(1));
    for _ in 0..2 {
        r.el.run_one();
    }
    assert!(r.bgp.deletion_stage_count(PeerId(1)) > 0);

    // New peering attaches mid-drain; its table arrives as a background
    // dump interleaved with the remaining deletes.
    let s = r.sent.clone();
    let mut cfg = PeerConfig::simple(PeerId(5), AsNum(65005));
    cfg.consistency_check = true;
    r.bgp.add_peer(
        &mut r.el,
        cfg,
        Some(Rc::new(move |_el, u| {
            s.borrow_mut().entry(5).or_default().push(u);
        })),
    );
    r.bgp.peering_up(&mut r.el, PeerId(5));
    r.el.run_until_idle();

    assert_eq!(r.bgp.deletion_stage_count(PeerId(1)), 0);
    assert!(!r.bgp.dump_in_flight(PeerId(5)));
    r.assert_consistent();

    // Replay peer 5's stream: the surviving routes and nothing else.
    let sent = r.sent.borrow();
    let mut table: BTreeMap<Net, ()> = BTreeMap::new();
    for u in sent.get(&5).into_iter().flatten() {
        match u {
            UpdateOut::Announce(n, _) => {
                table.insert(*n, ());
            }
            UpdateOut::Withdraw(n) => {
                table.remove(n);
            }
        }
    }
    let want: Vec<Net> = vec![
        "20.1.0.0/16".parse().unwrap(),
        "20.2.0.0/16".parse().unwrap(),
    ];
    assert_eq!(table.keys().copied().collect::<Vec<_>>(), want);
}

/// A route parked in a deletion stage is still downstream until the drain
/// deletes it, so it "will still be returned by lookup_route": lookups
/// through the branch relay into the deletion chain, not to the PeerIn
/// that handed its table over — here across two chained stages.
#[test]
fn lookup_at_the_branch_head_sees_routes_waiting_in_the_drain() {
    let mut r = router(&[(1, 65001)]);
    r.recv(
        1,
        update("192.168.1.1", &[65001], &["10.0.0.0/8", "20.0.0.0/8"]),
    );
    let nets: Vec<Net> = ["10.0.0.0/8", "20.0.0.0/8"]
        .iter()
        .map(|n| n.parse().unwrap())
        .collect();
    let visible = |r: &Router| {
        nets.iter()
            .filter(|n| r.bgp.best_route(n).is_some())
            .count()
    };

    r.bgp.peering_down(&mut r.el, PeerId(1));
    assert_eq!(visible(&r), 2);
    // The peering returns with one route and drops again before the drain
    // ran: one route now waits in each of two chained deletion stages.
    r.bgp.peering_up(&mut r.el, PeerId(1));
    r.bgp.apply_update(
        &mut r.el,
        PeerId(1),
        update("192.168.1.1", &[65001], &["20.0.0.0/8"]),
    );
    r.bgp.peering_down(&mut r.el, PeerId(1));
    assert_eq!(r.bgp.deletion_stage_count(PeerId(1)), 2);
    assert_eq!(visible(&r), 2);

    r.el.run_until_idle();
    assert_eq!(visible(&r), 0);
    assert!(r.rib.borrow().is_empty());
    r.assert_consistent();
}

/// Until the background reconciliation reaches a prefix, downstream holds
/// what the old import policy produced, so a lookup through the branch
/// answers with that view, not the new bank's.
#[test]
fn lookup_during_refilter_returns_the_old_view() {
    let mut r = router(&[(1, 65001)]);
    r.recv(1, update("192.168.1.1", &[65001], &["10.0.0.0/8"]));
    let net: Net = "10.0.0.0/8".parse().unwrap();
    let mut bank = FilterBank::accept_by_default();
    bank.push_source("tag", "add-tag 9; accept;").unwrap();
    r.bgp.refilter_peer(&mut r.el, PeerId(1), bank);

    // No background slice has run: the old view stands.
    let best = r.bgp.best_route(&net);
    assert_eq!(best.as_ref(), r.rib.borrow().get(&net));
    assert!(best.unwrap().attrs.tags.is_empty());

    r.el.run_until_idle();
    assert_eq!(r.rib.borrow()[&net].attrs.tags, vec![9]);
    assert_eq!(r.bgp.best_route(&net).as_ref(), r.rib.borrow().get(&net));
    r.assert_consistent();
}

/// BGP stores each route once, in its PeerIn, and nothing else per route.
/// Between 10k and 20k routes from one peer, the process beyond its peer
/// tables (each resolver's per-nexthop entries, the fanout) grows by at
/// most 4 B/route.  A charged per-route structure anywhere — a copy of the
/// route, a per-nexthop prefix set — costs at least a map entry per route
/// and breaks this.
#[test]
fn memory_budget_beyond_peer_tables() {
    const UPDATES: u32 = 200;
    const PER_UPDATE: u32 = 100;
    let mut r = router(&[(1, 65001)]);
    let beyond = |r: &Router| r.bgp.memory_bytes() - r.bgp.peer_table_bytes();
    let mut at_half = 0;
    for u in 0..UPDATES {
        if u == UPDATES / 2 {
            at_half = beyond(&r);
        }
        let nexthop = format!("192.168.{}.1", u % 4);
        let nets: Vec<String> = (0..PER_UPDATE)
            .map(|i| Ipv4Addr::from((10 << 24) | ((u * PER_UPDATE + i) << 8)))
            .map(|a| format!("{a}/24"))
            .collect();
        let refs: Vec<&str> = nets.iter().map(|s| s.as_str()).collect();
        r.recv(1, update(&nexthop, &[65001], &refs));
    }
    let routes = (UPDATES * PER_UPDATE) as usize;
    assert_eq!(r.bgp.route_count(), routes);
    let per_route = (beyond(&r) - at_half) / (routes / 2);
    println!(
        "bgp beyond peer tables: {at_half} B at {} routes, {} B at {routes}: \
         {per_route} B/route (peer tables {} B/route)",
        routes / 2,
        beyond(&r),
        r.bgp.peer_table_bytes() / routes
    );
    assert!(per_route <= 4, "{per_route} B/route beyond peer tables");
}

fn reject_10_8() -> FilterBank {
    let mut bank = FilterBank::accept_by_default();
    bank.push_source(
        "strict",
        "if network within 10.0.0.0/8 then reject; endif accept;",
    )
    .unwrap();
    bank
}

/// A refilter while the peering's old table drains: the routes waiting in
/// the deletion stage are still downstream, so the transition records
/// them too, and the drain's delete of a route the new policy rejects
/// still withdraws what the old policy let through.
#[test]
fn refilter_during_a_drain_withdraws_what_the_old_policy_let_through() {
    let mut r = router(&[(1, 65001), (2, 65002)]);
    r.recv(
        1,
        update("192.168.1.1", &[65001], &["10.0.0.0/8", "172.16.0.0/16"]),
    );
    r.bgp.peering_down(&mut r.el, PeerId(1));
    r.bgp.refilter_peer(&mut r.el, PeerId(1), reject_10_8());
    r.el.run_until_idle();
    assert!(r.rib.borrow().is_empty(), "{:?}", r.rib.borrow().keys());
    r.assert_consistent();
}

/// Two refilters before the first reconciles: downstream still holds the
/// first policy's old view, and the second must record that view, not
/// the first refilter's new bank's.
#[test]
fn a_second_refilter_keeps_the_view_downstream_holds() {
    let mut r = router(&[(1, 65001), (2, 65002)]);
    r.recv(
        1,
        update("192.168.1.1", &[65001], &["10.0.0.0/8", "172.16.0.0/16"]),
    );
    r.bgp.refilter_peer(&mut r.el, PeerId(1), reject_10_8());
    r.bgp.refilter_peer(&mut r.el, PeerId(1), reject_10_8());
    r.el.run_until_idle();
    assert!(!r.rib_has("10.0.0.0/8"));
    assert!(r.rib_has("172.16.0.0/16"));
    r.assert_consistent();
}

/// A suppressed prefix is absent downstream, so a refilter records it as
/// absent and leaves it suppressed; the sweep later releases it under
/// the new policy.
#[test]
fn refilter_leaves_a_suppressed_prefix_suppressed() {
    let mut r = router(&[(2, 65002)]);
    let mut cfg = PeerConfig::simple(PeerId(1), AsNum(65001));
    cfg.damping = Some(xorp_bgp::DampingConfig {
        flap_penalty: 1000.0,
        suppress_threshold: 2000.0,
        reuse_threshold: 750.0,
        half_life: std::time::Duration::from_secs(60),
        max_penalty: 16000.0,
    });
    r.bgp.add_peer(&mut r.el, cfg, None);
    r.bgp.peering_up(&mut r.el, PeerId(1));
    for _ in 0..2 {
        r.recv(1, update("192.168.1.1", &[65001], &["10.0.0.0/8"]));
        r.recv(1, withdraw(&["10.0.0.0/8"]));
    }
    r.recv(1, update("192.168.1.1", &[65001], &["10.0.0.0/8"]));
    let net: Net = "10.0.0.0/8".parse().unwrap();

    let mut bank = FilterBank::accept_by_default();
    bank.push_source("tag", "add-tag 9; accept;").unwrap();
    r.bgp.refilter_peer(&mut r.el, PeerId(1), bank);
    r.el.run_until_idle();
    assert!(!r.rib_has("10.0.0.0/8"));
    assert_eq!(r.bgp.best_route(&net), None);
    r.assert_consistent();

    r.el.run_until(xorp_event::Time::from_secs(180));
    assert_eq!(r.rib.borrow()[&net].attrs.tags, vec![9]);
    assert_eq!(r.bgp.best_route(&net).as_ref(), r.rib.borrow().get(&net));
    r.assert_consistent();
}
