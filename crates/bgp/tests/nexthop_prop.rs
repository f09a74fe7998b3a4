//! Model test of one peering's nexthop resolver against a RIB whose
//! answers arrive late and in any order.
//!
//! Generated sequences add, replace and delete routes on 16 prefixes over
//! 4 nexthops in 2 RIB ranges, deliver parked answers in any order, and
//! change a range's metric (or make it unreachable) with an immediate
//! invalidation, so answers worked out before a change often arrive after
//! its invalidation.  The resolver keeps no routes: each op lands in an
//! upstream table first, as the import filter's view would.
//!
//! After every step the consistency-checking cache below the resolver
//! reports nothing and `lookup_route` agrees with what downstream holds,
//! for every prefix.  Once every answer is delivered, downstream holds
//! exactly the model: each route whose nexthop's range is reachable,
//! annotated with that range's metric.
//!
//! The resolver finds the routes of a nexthop whose answer moved by
//! walking the tables upstream holds, so further tests pin the walk: one
//! answer moving several nexthops costs one lookup per stored route; the
//! nexthop compared is the one the import policy produced; and, through
//! the assembled process, answers that move while a flapped peering's
//! deletion stage is still draining reach the routes parked there, with
//! every consistency check below clean.  Last, the answer cache's ordered
//! eviction matches a scan of every cached range.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;
use xorp_bgp::bgp::UpdateIn;
use xorp_bgp::nexthop::{AnswerCb, NexthopService, RangeCache, RibNexthopAnswer};
use xorp_bgp::{BgpConfig, BgpProcess, BgpRoute, NexthopResolver, PeerConfig, PeerId};
use xorp_event::EventLoop;
use xorp_net::{AsNum, AsPath, PathAttributes, Prefix, ProtocolId};
use xorp_stages::{
    stage_ref, CacheStage, DumpSource, OriginId, RouteOp, SinkStage, Stage, VecSource,
};

type R = BgpRoute<Ipv4Addr>;
type Net = Prefix<Ipv4Addr>;

const NETS: u8 = 16;
const RANGES: [&str; 2] = ["192.168.0.0/24", "192.168.1.0/24"];
const NEXTHOPS: [&str; 4] = ["192.168.0.1", "192.168.0.2", "192.168.1.1", "192.168.1.2"];

fn net(ix: u8) -> Net {
    Prefix::new(Ipv4Addr::new(10, 0, ix, 0), 24).unwrap()
}

fn range(ix: usize) -> Net {
    RANGES[ix].parse().unwrap()
}

/// The RIB side: one metric per range (`None` = unreachable), and the
/// answers it has worked out but not yet delivered.
struct LateRib {
    metrics: RefCell<[Option<u32>; 2]>,
    parked: RefCell<Vec<(AnswerCb<Ipv4Addr>, RibNexthopAnswer<Ipv4Addr>)>>,
}

impl LateRib {
    fn range_of(addr: Ipv4Addr) -> usize {
        (0..RANGES.len())
            .find(|&i| range(i).contains_addr(addr))
            .expect("every nexthop lies in a range")
    }
}

impl NexthopService<Ipv4Addr> for LateRib {
    fn resolve_nexthop(&self, _el: &mut EventLoop, addr: Ipv4Addr, cb: AnswerCb<Ipv4Addr>) {
        // Worked out now, delivered whenever the test says.
        let i = Self::range_of(addr);
        let answer = RibNexthopAnswer {
            valid: range(i),
            metric: self.metrics.borrow()[i],
        };
        self.parked.borrow_mut().push((cb, answer));
    }
}

#[derive(Debug, Clone)]
enum Step {
    /// Add, or replace what the prefix has.
    Announce { net: u8, nexthop: u8 },
    /// Delete, if the prefix has a route.
    Withdraw { net: u8 },
    /// Deliver one parked answer, chosen by index.
    Answer { pick: usize },
    /// The RIB changes a range and invalidates it at once.
    Change { range: u8, metric: Option<u32> },
}

fn arb_step() -> impl Strategy<Value = Step> {
    let metric = prop_oneof![Just(None), (1u32..4).prop_map(Some)];
    prop_oneof![
        5 => (0..NETS, 0..4u8).prop_map(|(net, nexthop)| Step::Announce { net, nexthop }),
        2 => (0..NETS).prop_map(|net| Step::Withdraw { net }),
        4 => any::<usize>().prop_map(|pick| Step::Answer { pick }),
        2 => (0..2u8, metric).prop_map(|(range, metric)| Step::Change { range, metric }),
    ]
}

struct Rig {
    el: EventLoop,
    rib: Rc<LateRib>,
    upstream: Rc<RefCell<SinkStage<Ipv4Addr, R>>>,
    resolver: Rc<RefCell<NexthopResolver<Ipv4Addr>>>,
    cache: Rc<RefCell<CacheStage<Ipv4Addr, R>>>,
    sink: Rc<RefCell<SinkStage<Ipv4Addr, R>>>,
    /// Distinguishes successive announcements of one prefix.
    announced: u32,
}

impl Rig {
    fn new() -> Rig {
        let rib = Rc::new(LateRib {
            metrics: RefCell::new([Some(1), Some(2)]),
            parked: RefCell::new(Vec::new()),
        });
        let resolver = stage_ref(NexthopResolver::new(
            PeerId(1),
            rib.clone(),
            Rc::new(RefCell::new(RangeCache::new())),
        ));
        NexthopResolver::attach(&resolver);
        let upstream = stage_ref(SinkStage::new());
        let cache = stage_ref(CacheStage::new("resolver-out"));
        let sink = stage_ref(SinkStage::new());
        resolver.borrow_mut().set_upstream(upstream.clone());
        let table = upstream.clone();
        resolver.borrow_mut().set_sources(move || {
            let nets: Vec<Net> = table.borrow().table.keys().copied().collect();
            vec![Box::new(VecSource::new(nets)) as Box<dyn DumpSource<Ipv4Addr>>]
        });
        resolver.borrow_mut().set_downstream(cache.clone());
        cache.borrow_mut().set_downstream(sink.clone());
        Rig {
            el: EventLoop::new_virtual(),
            rib,
            upstream,
            resolver,
            cache,
            sink,
            announced: 0,
        }
    }

    fn send(&mut self, op: RouteOp<Ipv4Addr, R>) {
        let origin = OriginId(1);
        self.upstream
            .borrow_mut()
            .route_op(&mut self.el, origin, op.clone());
        self.resolver
            .borrow_mut()
            .route_op(&mut self.el, origin, op);
        // Sends any query; the answer parks until a step delivers it.
        self.el.run_until_idle();
    }

    fn deliver(&mut self, pick: usize) {
        let (cb, answer) = {
            let mut parked = self.rib.parked.borrow_mut();
            let n = parked.len();
            parked.remove(pick % n)
        };
        cb(&mut self.el, answer);
    }

    fn step(&mut self, step: Step) {
        let have = |rig: &Rig, ix| rig.upstream.borrow().table.get(&net(ix)).cloned();
        match step {
            Step::Announce { net: ix, nexthop } => {
                self.announced += 1;
                let nh: Ipv4Addr = NEXTHOPS[nexthop as usize].parse().unwrap();
                let mut attrs = PathAttributes::new(IpAddr::V4(nh));
                attrs.as_path = AsPath::from_sequence([65001]);
                attrs.med = Some(self.announced);
                let route = R::new(net(ix), attrs.shared(), 0, ProtocolId::Ebgp);
                let op = match have(self, ix) {
                    Some(old) => RouteOp::Replace {
                        net: net(ix),
                        old,
                        new: route,
                    },
                    None => RouteOp::Add {
                        net: net(ix),
                        route,
                    },
                };
                self.send(op);
            }
            Step::Withdraw { net: ix } => {
                if let Some(old) = have(self, ix) {
                    self.send(RouteOp::Delete { net: net(ix), old });
                }
            }
            Step::Answer { pick } => {
                if !self.rib.parked.borrow().is_empty() {
                    self.deliver(pick);
                }
            }
            Step::Change { range: ix, metric } => {
                self.rib.metrics.borrow_mut()[ix as usize] = metric;
                NexthopResolver::invalidate(&mut self.el, &self.resolver, range(ix as usize));
            }
        }
    }

    /// The stream below the resolver is consistent, and a lookup through
    /// the resolver agrees with it for every prefix.
    fn check(&self, after: &Step) {
        let violations = self.cache.borrow().violations().to_vec();
        assert!(violations.is_empty(), "after {after:?}: {violations:?}");
        for ix in 0..NETS {
            let net = net(ix);
            assert_eq!(
                self.resolver.borrow().lookup_route(&net).as_ref(),
                self.sink.borrow().table.get(&net),
                "after {after:?}: lookup of {net}"
            );
        }
    }
}

fn run(steps: Vec<Step>) {
    let mut rig = Rig::new();
    for step in steps {
        rig.step(step.clone());
        rig.check(&step);
    }
    // Deliver every answer, and every re-query those answers cause.
    while !rig.rib.parked.borrow().is_empty() {
        rig.deliver(0);
    }
    rig.check(&Step::Answer { pick: 0 });
    let metrics = *rig.rib.metrics.borrow();
    let model: Vec<(Net, R)> = rig
        .upstream
        .borrow()
        .table
        .iter()
        .filter_map(|(net, route)| {
            let IpAddr::V4(nh) = route.nexthop() else {
                unreachable!("IPv4 nexthops only")
            };
            let mut route = route.clone();
            route.metric = metrics[LateRib::range_of(nh)]?;
            Some((*net, route))
        })
        .collect();
    let sink: Vec<(Net, R)> = rig.sink.borrow().table.clone().into_iter().collect();
    assert_eq!(sink, model);
    assert_eq!(rig.resolver.borrow().waiting_count(), 0);
}

/// An answer worked out before a change, delivered after the change's
/// invalidation, while a second nexthop of the same range is asked afresh.
#[test]
fn overtaken_answer_beside_a_fresh_query() {
    run(vec![
        Step::Announce { net: 0, nexthop: 0 },
        Step::Change {
            range: 0,
            metric: Some(3),
        },
        Step::Announce { net: 1, nexthop: 1 },
        Step::Answer { pick: 1 },
        Step::Answer { pick: 0 },
    ]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn resolver_matches_the_model(steps in proptest::collection::vec(arb_step(), 1..80)) {
        run(steps);
    }
}

// ----- walks over the origin tables -----------------------------------------

/// The import filter's view over a table of raw routes, as a policy that
/// rewrites nexthops would present it (the policy language has no nexthop
/// action, so the rewrite is a function here), counting the lookups made
/// through it.
struct PolicyView {
    raw: BTreeMap<Net, R>,
    rewrite: fn(R) -> R,
    lookups: Cell<usize>,
}

impl Stage<Ipv4Addr, R> for PolicyView {
    fn name(&self) -> String {
        "policy-view".into()
    }

    fn route_op(&mut self, _el: &mut EventLoop, _origin: OriginId, op: RouteOp<Ipv4Addr, R>) {
        match op.into_routes() {
            (_, Some(route)) => self.raw.insert(route.net, route),
            (Some(old), None) => self.raw.remove(&old.net),
            (None, None) => None,
        };
    }

    fn lookup_route(&self, net: &Net) -> Option<R> {
        self.lookups.set(self.lookups.get() + 1);
        self.raw.get(net).cloned().map(self.rewrite)
    }

    fn push(&mut self, _el: &mut EventLoop) {}

    fn set_downstream(&mut self, _s: xorp_stages::StageRef<Ipv4Addr, R>) {}
}

fn with_nexthop(route: R, nh: Ipv4Addr) -> R {
    let mut attrs = (*route.attrs).clone();
    attrs.nexthop = IpAddr::V4(nh);
    R::new(route.net, attrs.shared(), 0, ProtocolId::Ebgp)
}

/// Moves every nexthop from 192.168.0.x to 192.168.1.x.
fn to_range_one(route: R) -> R {
    let IpAddr::V4(nh) = route.nexthop() else {
        unreachable!("IPv4 nexthops only")
    };
    let [a, b, _, d] = nh.octets();
    with_nexthop(route, Ipv4Addr::new(a, b, 1, d))
}

/// A resolver below a [`PolicyView`], fed the way the pipeline feeds it:
/// the raw route lands in the table, the rewritten one reaches the
/// resolver.
struct WalkRig {
    el: EventLoop,
    rib: Rc<LateRib>,
    view: Rc<RefCell<PolicyView>>,
    resolver: Rc<RefCell<NexthopResolver<Ipv4Addr>>>,
    cache: Rc<RefCell<CacheStage<Ipv4Addr, R>>>,
    sink: Rc<RefCell<SinkStage<Ipv4Addr, R>>>,
}

impl WalkRig {
    fn new(rewrite: fn(R) -> R) -> WalkRig {
        let rib = Rc::new(LateRib {
            metrics: RefCell::new([Some(1), Some(2)]),
            parked: RefCell::new(Vec::new()),
        });
        let resolver = stage_ref(NexthopResolver::new(
            PeerId(1),
            rib.clone(),
            Rc::new(RefCell::new(RangeCache::new())),
        ));
        NexthopResolver::attach(&resolver);
        let view = stage_ref(PolicyView {
            raw: BTreeMap::new(),
            rewrite,
            lookups: Cell::new(0),
        });
        let (cache, sink) = (
            stage_ref(CacheStage::new("resolver-out")),
            stage_ref(SinkStage::new()),
        );
        resolver.borrow_mut().set_upstream(view.clone());
        let table = view.clone();
        resolver.borrow_mut().set_sources(move || {
            let nets: Vec<Net> = table.borrow().raw.keys().copied().collect();
            vec![Box::new(VecSource::new(nets)) as Box<dyn DumpSource<Ipv4Addr>>]
        });
        resolver.borrow_mut().set_downstream(cache.clone());
        cache.borrow_mut().set_downstream(sink.clone());
        WalkRig {
            el: EventLoop::new_virtual(),
            rib,
            view,
            resolver,
            cache,
            sink,
        }
    }

    fn announce(&mut self, ix: u8, nh: &str) {
        let mut attrs = PathAttributes::new(IpAddr::V4(nh.parse().unwrap()));
        attrs.as_path = AsPath::from_sequence([65001]);
        let route = R::new(net(ix), attrs.shared(), 0, ProtocolId::Ebgp);
        let origin = OriginId(1);
        let rewrite = self.view.borrow().rewrite;
        let op = RouteOp::Add {
            net: route.net,
            route: route.clone(),
        };
        self.view.borrow_mut().route_op(&mut self.el, origin, op);
        let op = RouteOp::Add {
            net: route.net,
            route: rewrite(route),
        };
        self.resolver
            .borrow_mut()
            .route_op(&mut self.el, origin, op);
        self.el.run_until_idle();
    }

    fn deliver_all(&mut self) {
        loop {
            let parked: Vec<_> = self.rib.parked.borrow_mut().drain(..).collect();
            if parked.is_empty() {
                break;
            }
            for (cb, answer) in parked {
                cb(&mut self.el, answer);
            }
            self.el.run_until_idle();
        }
    }

    fn metrics(&self) -> Vec<u32> {
        self.sink
            .borrow()
            .table
            .values()
            .map(|r| r.metric)
            .collect()
    }

    fn assert_clean(&self) {
        let violations = self.cache.borrow().violations().to_vec();
        assert!(violations.is_empty(), "{violations:?}");
    }
}

/// One answer whose range holds four waiting nexthops moves all four, and
/// the stage finds their routes in one walk: one upstream lookup per
/// stored route, not one per route per nexthop.  Later answers for the
/// same range move nothing and walk nothing.
#[test]
fn one_answer_moving_several_nexthops_walks_once() {
    let mut rig = WalkRig::new(|r| r);
    for ix in 0..NETS {
        rig.announce(ix, NEXTHOPS[(ix % 2) as usize]);
    }
    rig.announce(NETS, "192.168.0.3");
    rig.announce(NETS + 1, "192.168.0.4");
    let routes = NETS as usize + 2;
    assert_eq!(rig.resolver.borrow().waiting_count(), routes);
    assert_eq!(rig.rib.parked.borrow().len(), 4, "one query per nexthop");

    let before = rig.view.borrow().lookups.get();
    let (cb, answer) = rig.rib.parked.borrow_mut().remove(0);
    cb(&mut rig.el, answer);
    assert_eq!(rig.view.borrow().lookups.get() - before, routes);
    assert_eq!(rig.sink.borrow().table.len(), routes);
    assert_eq!(rig.resolver.borrow().waiting_count(), 0);

    let before = rig.view.borrow().lookups.get();
    rig.deliver_all();
    assert_eq!(rig.view.borrow().lookups.get(), before);
    rig.assert_clean();
}

/// The walk compares the nexthop the import policy produced, not the one
/// the peer sent: routes sent with 192.168.0.x nexthops and rewritten to
/// 192.168.1.x follow range 1's answers and ignore range 0's.
#[test]
fn import_policy_rewriting_the_nexthop_walks_the_post_policy_one() {
    let mut rig = WalkRig::new(to_range_one);
    for ix in 0..4 {
        rig.announce(ix, NEXTHOPS[(ix % 2) as usize]);
    }
    rig.deliver_all();
    assert_eq!(rig.metrics(), [2; 4]);

    rig.rib.metrics.borrow_mut()[0] = Some(3);
    NexthopResolver::invalidate(&mut rig.el, &rig.resolver, range(0));
    rig.deliver_all();
    assert_eq!(
        rig.metrics(),
        [2; 4],
        "range 0 holds no post-policy nexthop"
    );

    rig.rib.metrics.borrow_mut()[1] = Some(4);
    NexthopResolver::invalidate(&mut rig.el, &rig.resolver, range(1));
    rig.deliver_all();
    assert_eq!(rig.metrics(), [4; 4]);
    rig.rib.metrics.borrow_mut()[1] = None;
    NexthopResolver::invalidate(&mut rig.el, &rig.resolver, range(1));
    rig.deliver_all();
    assert!(rig.sink.borrow().table.is_empty());
    assert_eq!(rig.resolver.borrow().unreachable_count(), 4);
    rig.assert_clean();
}

// ----- the assembled process: answers moving while a flap drains ------------

/// Blocks of prefixes one UPDATE announces or withdraws together; a block
/// is larger than a deletion slice, so a flapped table drains over several
/// loop turns.
const BLOCKS: u8 = 6;
const BLOCK: u16 = 80;

fn block(ix: u8) -> Vec<Net> {
    (0..BLOCK)
        .map(|i| {
            let [hi, lo] = (u16::from(ix) * BLOCK + i).to_be_bytes();
            Prefix::new(Ipv4Addr::new(10, hi, lo, 0), 24).unwrap()
        })
        .collect()
}

#[derive(Debug, Clone)]
enum Flow {
    Announce {
        block: u8,
        nexthop: u8,
    },
    Withdraw {
        block: u8,
    },
    /// Peering down (its table goes to a deletion stage) and straight up.
    Flap,
    Answer {
        pick: usize,
    },
    Change {
        range: u8,
        metric: Option<u32>,
    },
    /// Run this many loop events: queries, drain slices.
    Run {
        events: u8,
    },
}

fn arb_flow() -> impl Strategy<Value = Flow> {
    let metric = prop_oneof![Just(None), (1u32..4).prop_map(Some)];
    prop_oneof![
        4 => (0..BLOCKS, 0..4u8).prop_map(|(block, nexthop)| Flow::Announce { block, nexthop }),
        1 => (0..BLOCKS).prop_map(|block| Flow::Withdraw { block }),
        2 => Just(Flow::Flap),
        3 => any::<usize>().prop_map(|pick| Flow::Answer { pick }),
        2 => (0..2u8, metric).prop_map(|(range, metric)| Flow::Change { range, metric }),
        3 => (1..4u8).prop_map(|events| Flow::Run { events }),
    ]
}

struct ProcessRig {
    el: EventLoop,
    rib: Rc<LateRib>,
    bgp: BgpProcess<Ipv4Addr>,
    /// Consistency check on the stream BGP sends the RIB.
    out: Rc<RefCell<CacheStage<Ipv4Addr, R>>>,
    sink: Rc<RefCell<SinkStage<Ipv4Addr, R>>>,
    /// What peer 1's live session has announced: prefix → nexthop.
    held: BTreeMap<Net, Ipv4Addr>,
}

impl ProcessRig {
    fn new() -> ProcessRig {
        let mut el = EventLoop::new_virtual();
        let rib = Rc::new(LateRib {
            metrics: RefCell::new([Some(1), Some(2)]),
            parked: RefCell::new(Vec::new()),
        });
        let config = BgpConfig {
            local_as: AsNum(65000),
            router_id: "10.0.0.1".parse().unwrap(),
            local_addr: IpAddr::V4("10.0.0.1".parse().unwrap()),
            hold_time: 90,
        };
        let mut bgp = BgpProcess::new(config, rib.clone());
        let (out, sink) = (
            stage_ref(CacheStage::new("bgp-to-rib")),
            stage_ref(SinkStage::new()),
        );
        out.borrow_mut().set_downstream(sink.clone());
        let o = out.clone();
        bgp.set_rib_output(&mut el, move |el, origin, op| {
            o.borrow_mut().route_op(el, origin, op);
        });
        // Peer 1 feeds the table; peer 2 is a reader whose export path has
        // its own consistency check.
        bgp.add_peer(&mut el, PeerConfig::simple(PeerId(1), AsNum(65001)), None);
        let mut observer = PeerConfig::simple(PeerId(2), AsNum(65002));
        observer.consistency_check = true;
        bgp.add_peer(&mut el, observer, Some(Rc::new(|_el, _u| {})));
        bgp.peering_up(&mut el, PeerId(1));
        bgp.peering_up(&mut el, PeerId(2));
        ProcessRig {
            el,
            rib,
            bgp,
            out,
            sink,
            held: BTreeMap::new(),
        }
    }

    fn step(&mut self, flow: Flow) {
        match flow {
            Flow::Announce { block: ix, nexthop } => {
                let nh: Ipv4Addr = NEXTHOPS[nexthop as usize].parse().unwrap();
                let mut attrs = PathAttributes::new(IpAddr::V4(nh));
                attrs.as_path = AsPath::from_sequence([65001]);
                let nets = block(ix);
                for net in &nets {
                    self.held.insert(*net, nh);
                }
                let update = UpdateIn {
                    withdrawn: vec![],
                    announce: Some((Arc::new(attrs), nets)),
                };
                self.bgp.apply_update(&mut self.el, PeerId(1), update);
            }
            Flow::Withdraw { block: ix } => {
                let withdrawn = block(ix);
                for net in &withdrawn {
                    self.held.remove(net);
                }
                let update = UpdateIn {
                    withdrawn,
                    announce: None,
                };
                self.bgp.apply_update(&mut self.el, PeerId(1), update);
            }
            Flow::Flap => {
                self.bgp.peering_down(&mut self.el, PeerId(1));
                self.bgp.peering_up(&mut self.el, PeerId(1));
                self.held.clear();
            }
            Flow::Answer { pick } => {
                let parked = self.rib.parked.borrow().len();
                if parked > 0 {
                    let (cb, answer) = self.rib.parked.borrow_mut().remove(pick % parked);
                    cb(&mut self.el, answer);
                }
            }
            Flow::Change { range: ix, metric } => {
                self.rib.metrics.borrow_mut()[ix as usize] = metric;
                self.bgp
                    .invalidate_nexthops(&mut self.el, range(ix as usize));
            }
            Flow::Run { events } => {
                for _ in 0..events {
                    self.el.run_one();
                }
            }
        }
    }

    fn check(&self, after: &Flow) {
        let violations = self.out.borrow().violations().to_vec();
        assert!(violations.is_empty(), "after {after:?}: {violations:?}");
        let violations = self.bgp.consistency_violations();
        assert!(violations.is_empty(), "after {after:?}: {violations:?}");
    }
}

fn run_process(flows: Vec<Flow>) {
    let mut rig = ProcessRig::new();
    for flow in flows {
        rig.step(flow.clone());
        rig.check(&flow);
    }
    // Drain every deletion stage and deliver every answer, and every
    // re-query those answers cause.
    loop {
        rig.el.run_until_idle();
        let parked: Vec<_> = rig.rib.parked.borrow_mut().drain(..).collect();
        if parked.is_empty() {
            break;
        }
        for (cb, answer) in parked {
            cb(&mut rig.el, answer);
        }
    }
    let end = Flow::Run { events: 0 };
    rig.check(&end);
    assert_eq!(rig.bgp.deletion_stage_count(PeerId(1)), 0);
    let metrics = *rig.rib.metrics.borrow();
    let model: BTreeMap<Net, (IpAddr, u32)> = rig
        .held
        .iter()
        .filter_map(|(net, nh)| Some((*net, (IpAddr::V4(*nh), metrics[LateRib::range_of(*nh)]?))))
        .collect();
    let sent: BTreeMap<Net, (IpAddr, u32)> = rig
        .sink
        .borrow()
        .table
        .iter()
        .map(|(net, r)| (*net, (r.nexthop(), r.metric)))
        .collect();
    assert_eq!(sent, model);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn answers_moving_while_a_flapped_peering_drains(
        flows in proptest::collection::vec(arb_flow(), 1..40),
    ) {
        run_process(flows);
    }
}

// ----- the answer cache against its retain form ------------------------------

#[derive(Debug, Clone)]
enum CacheOp {
    Insert {
        bits: u32,
        len: u8,
        metric: Option<u32>,
    },
    Invalidate {
        bits: u32,
        len: u8,
    },
}

fn arb_cache_op() -> impl Strategy<Value = CacheOp> {
    // Few distinct short prefixes inside 10/8, so ranges nest and collide.
    let net = || (0u32..64, 8u8..=14).prop_map(|(x, len)| ((10 << 24) | (x << 18), len));
    prop_oneof![
        3 => (net(), prop_oneof![Just(None), (1u32..4).prop_map(Some)])
            .prop_map(|((bits, len), metric)| CacheOp::Insert { bits, len, metric }),
        1 => net().prop_map(|(bits, len)| CacheOp::Invalidate { bits, len }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The ordered range scan evicts exactly what a scan of every cached
    /// range (`retain` on overlap) evicts.
    #[test]
    fn range_cache_matches_the_retain_model(
        ops in proptest::collection::vec(arb_cache_op(), 1..60),
        probes in proptest::collection::vec(0u32..(1 << 24), 16),
    ) {
        let mut cache: RangeCache<Ipv4Addr> = RangeCache::new();
        let mut model: Vec<(Net, Option<u32>)> = Vec::new();
        for op in ops {
            let (bits, len) = match op {
                CacheOp::Insert { bits, len, .. } | CacheOp::Invalidate { bits, len } => (bits, len),
            };
            let range = Prefix::new(Ipv4Addr::from(bits), len).unwrap();
            model.retain(|(cached, _)| !cached.overlaps(&range));
            match op {
                CacheOp::Insert { metric, .. } => {
                    model.push((range, metric));
                    cache.insert(range, metric);
                }
                CacheOp::Invalidate { .. } => cache.remove_overlapping(&range),
            }
            prop_assert_eq!(cache.len(), model.len());
            let edges = model.iter().flat_map(|(p, _)| [p.first_addr(), p.last_addr()]);
            let probes = probes.iter().map(|x| Ipv4Addr::from((10 << 24) | x));
            for addr in edges.chain(probes) {
                let want = model.iter().find(|(p, _)| p.contains_addr(addr)).map(|(_, m)| *m);
                prop_assert_eq!(cache.lookup(addr), want, "{}", addr);
            }
        }
    }
}
