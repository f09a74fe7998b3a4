//! Route-flap damping against an RFC 2439 model, through the façade.
//!
//! Peer 1 is damped and feeds nothing back; peer 2 checks consistency on
//! its output branch and holds a longer-path alternative for some
//! prefixes, so a suppressed peer-1 route falls back to peer 2's.  The
//! generated steps announce and withdraw peer 1's routes with one of two
//! attribute blocks, advance virtual time across the damping sweep's
//! ticks, and drop and restore peer 1's session, which hands its table
//! to a deletion stage that drains only when the loop next runs.
//!
//! After every step, peer 2's consistency checker is clean, a lookup
//! through the pipeline (`best_route`) agrees with what the RIB was sent,
//! and the RIB holds what the model says: a prefix's peer-1 route (the
//! PeerIn's, or one still waiting in a drain) unless the prefix is
//! suppressed, and otherwise peer 2's.  The model keeps penalties with
//! the stage's decay formula, re-stamped at the same instants: each flap
//! (a withdrawal, or a drained route), each announcement of a prefix that
//! has a penalty, and each sweep tick.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use xorp_bgp::bgp::UpdateIn;
use xorp_bgp::nexthop::{AnswerCb, NexthopService, RibNexthopAnswer};
use xorp_bgp::{BgpConfig, BgpProcess, DampingConfig, PeerConfig, PeerId};
use xorp_event::{EventLoop, Time};
use xorp_net::{AsNum, AsPath, PathAttributes, Prefix, RouteEntry};
use xorp_stages::RouteOp;

type Net = Prefix<Ipv4Addr>;

const PREFIXES: usize = 3;
/// The façade's damping sweep period.
const SWEEP: Duration = Duration::from_secs(10);
const DAMPING: DampingConfig = DampingConfig {
    flap_penalty: 1000.0,
    suppress_threshold: 2000.0,
    reuse_threshold: 750.0,
    half_life: Duration::from_secs(30),
    max_penalty: 6000.0,
};
/// Peer 1's two attribute blocks, then peer 2's, told apart by nexthop.
const NEXTHOPS: [&str; 3] = ["192.168.1.1", "192.168.1.2", "192.168.2.1"];
/// Prefixes peer 2 also announces.
const BACKED_UP: [usize; 2] = [0, 2];

struct Flat;

impl NexthopService<Ipv4Addr> for Flat {
    fn resolve_nexthop(&self, el: &mut EventLoop, _addr: Ipv4Addr, cb: AnswerCb<Ipv4Addr>) {
        let valid = "192.168.0.0/16".parse().unwrap();
        cb(
            el,
            RibNexthopAnswer {
                valid,
                metric: Some(1),
            },
        );
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Peer 1 announces prefix `.0` with attribute block `.1`.
    Announce(usize, usize),
    Withdraw(usize),
    /// Run the loop, advancing virtual time by this many seconds.
    Advance(u64),
    Down,
    Up,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0..PREFIXES, 0..2usize).prop_map(|(p, a)| Op::Announce(p, a)),
        4 => (0..PREFIXES).prop_map(Op::Withdraw),
        4 => (0..=15u64).prop_map(Op::Advance),
        1 => Just(Op::Down),
        1 => Just(Op::Up),
    ]
}

fn net(ix: usize) -> Net {
    format!("10.{ix}.0.0/16").parse().unwrap()
}

fn nexthop(ix: usize) -> IpAddr {
    IpAddr::V4(NEXTHOPS[ix].parse().unwrap())
}

fn update(block: usize, path: &[u32], nets: Vec<Net>) -> UpdateIn<Ipv4Addr> {
    let mut attrs = PathAttributes::new(nexthop(block));
    attrs.as_path = AsPath::from_sequence(path.iter().copied());
    UpdateIn {
        withdrawn: vec![],
        announce: Some((Arc::new(attrs), nets)),
    }
}

fn decay(penalty: f64, stamped: Time, now: Time) -> f64 {
    let dt = (now - stamped).as_secs_f64();
    if dt <= 0.0 {
        return penalty;
    }
    penalty * 0.5f64.powf(dt / DAMPING.half_life.as_secs_f64())
}

#[derive(Debug)]
struct Penalty {
    penalty: f64,
    stamped: Time,
    suppressed: bool,
}

impl Penalty {
    fn restamp(&mut self, now: Time) {
        self.penalty = decay(self.penalty, self.stamped, now);
        self.stamped = now;
    }
}

/// What peer 1's branch holds, and the damping penalties.
#[derive(Default)]
struct Model {
    now: Time,
    /// Peer 1's table: prefix → attribute block.
    peer_in: BTreeMap<usize, usize>,
    /// Routes handed to deletion stages and not yet drained.
    draining: BTreeMap<usize, usize>,
    damp: BTreeMap<usize, Penalty>,
    next_tick: Time,
}

impl Model {
    fn flap(&mut self, p: usize) {
        let now = self.now;
        let s = self.damp.entry(p).or_insert(Penalty {
            penalty: 0.0,
            stamped: now,
            suppressed: false,
        });
        s.restamp(now);
        s.penalty = (s.penalty + DAMPING.flap_penalty).min(DAMPING.max_penalty);
        if s.penalty >= DAMPING.suppress_threshold {
            s.suppressed = true;
        }
    }

    fn announce(&mut self, p: usize, block: usize) {
        if self.peer_in.get(&p) == Some(&block) {
            return; // the PeerIn drops an identical announcement
        }
        if self.draining.remove(&p).is_some() {
            // The deletion stage withdraws its old route first.
            self.flap(p);
        }
        self.peer_in.insert(p, block);
        if let Some(s) = self.damp.get_mut(&p) {
            s.restamp(self.now);
            if s.suppressed && s.penalty < DAMPING.reuse_threshold {
                s.suppressed = false;
            }
        }
    }

    fn withdraw(&mut self, p: usize) {
        if self.peer_in.remove(&p).is_some() {
            self.flap(p);
        }
    }

    fn down(&mut self) {
        let table = std::mem::take(&mut self.peer_in);
        self.draining.extend(table);
    }

    fn advance(&mut self, secs: u64) {
        // The drains run first, at the current instant.
        let drained = std::mem::take(&mut self.draining);
        for p in drained.into_keys() {
            self.flap(p);
        }
        let until = self.now + Duration::from_secs(secs);
        while self.next_tick <= until {
            let tick = self.next_tick;
            for s in self.damp.values_mut() {
                s.restamp(tick);
                if s.suppressed && s.penalty < DAMPING.reuse_threshold {
                    s.suppressed = false;
                }
            }
            self.damp.retain(|_, s| s.suppressed || s.penalty > 1.0);
            self.next_tick = tick + SWEEP;
        }
        self.now = until;
    }

    /// The nexthop of the route the RIB should hold for prefix `p`.
    fn expected(&self, p: usize) -> Option<IpAddr> {
        let suppressed = self.damp.get(&p).is_some_and(|s| s.suppressed);
        let peer1 = self.peer_in.get(&p).or(self.draining.get(&p));
        match peer1 {
            Some(&block) if !suppressed => Some(nexthop(block)),
            _ => BACKED_UP.contains(&p).then(|| nexthop(2)),
        }
    }
}

type Rib = Rc<RefCell<BTreeMap<Net, RouteEntry<Ipv4Addr>>>>;

struct Rig {
    el: EventLoop,
    bgp: BgpProcess<Ipv4Addr>,
    rib: Rib,
}

fn rig() -> Rig {
    let mut el = EventLoop::new_virtual();
    let config = BgpConfig {
        local_as: AsNum(65000),
        router_id: "10.255.0.1".parse().unwrap(),
        local_addr: IpAddr::V4("10.255.0.1".parse().unwrap()),
        hold_time: 90,
    };
    let mut bgp = BgpProcess::new(config, Rc::new(Flat));
    let rib: Rib = Rc::new(RefCell::new(BTreeMap::new()));
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
    let mut damped = PeerConfig::simple(PeerId(1), AsNum(65001));
    damped.damping = Some(DAMPING);
    bgp.add_peer(&mut el, damped, None);
    bgp.peering_up(&mut el, PeerId(1));
    let mut checked = PeerConfig::simple(PeerId(2), AsNum(65002));
    checked.consistency_check = true;
    bgp.add_peer(&mut el, checked, Some(Rc::new(|_el, _u| {})));
    bgp.peering_up(&mut el, PeerId(2));
    let backups = BACKED_UP.iter().map(|&p| net(p)).collect();
    bgp.apply_update(
        &mut el,
        PeerId(2),
        update(2, &[65002, 65020, 65030], backups),
    );
    el.run_until_idle();
    Rig { el, bgp, rib }
}

impl Rig {
    fn apply(&mut self, op: &Op) {
        let peer = PeerId(1);
        match *op {
            Op::Announce(p, block) => {
                let path: &[u32] = if block == 0 {
                    &[65001]
                } else {
                    &[65001, 65010]
                };
                self.bgp
                    .apply_update(&mut self.el, peer, update(block, path, vec![net(p)]));
            }
            Op::Withdraw(p) => {
                let u = UpdateIn {
                    withdrawn: vec![net(p)],
                    announce: None,
                };
                self.bgp.apply_update(&mut self.el, peer, u);
            }
            Op::Advance(secs) => {
                let until = self.el.now() + Duration::from_secs(secs);
                self.el.run_until(until);
            }
            Op::Down => self.bgp.peering_down(&mut self.el, peer),
            Op::Up => self.bgp.peering_up(&mut self.el, peer),
        }
    }

    fn check(&self, model: &Model, step: usize) {
        let violations = self.bgp.consistency_violations();
        assert!(violations.is_empty(), "step {step}: {violations:?}");
        let rib = self.rib.borrow();
        for p in 0..PREFIXES {
            let best = self.bgp.best_route(&net(p));
            assert_eq!(
                best.as_ref(),
                rib.get(&net(p)),
                "step {}: lookup of {} disagrees with the RIB",
                step,
                net(p)
            );
            let held = rib.get(&net(p)).map(|r| r.attrs.nexthop);
            assert_eq!(
                held,
                model.expected(p),
                "step {}: RIB holds the wrong route for {}",
                step,
                net(p)
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn damping_matches_the_model(ops in prop::collection::vec(arb_op(), 1..80)) {
        let mut rig = rig();
        let mut model = Model {
            next_tick: rig.el.now() + SWEEP,
            now: rig.el.now(),
            ..Model::default()
        };
        rig.check(&model, 0);
        for (step, op) in ops.iter().enumerate() {
            rig.apply(op);
            match *op {
                Op::Announce(p, block) => model.announce(p, block),
                Op::Withdraw(p) => model.withdraw(p),
                Op::Advance(secs) => model.advance(secs),
                Op::Down => model.down(),
                Op::Up => {}
            }
            rig.check(&model, step + 1);
        }
        // Long enough for every penalty to decay below reuse: the sweeps
        // release whatever is still suppressed.
        rig.apply(&Op::Advance(600));
        model.advance(600);
        prop_assert!(model.damp.values().all(|s| !s.suppressed));
        rig.check(&model, ops.len() + 1);
    }
}
