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

use std::cell::RefCell;
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;

use proptest::prelude::*;
use xorp_bgp::nexthop::{AnswerCb, NexthopService, RangeCache, RibNexthopAnswer};
use xorp_bgp::{BgpRoute, NexthopResolver, PeerId};
use xorp_event::EventLoop;
use xorp_net::{AsPath, PathAttributes, Prefix, ProtocolId};
use xorp_stages::{stage_ref, CacheStage, OriginId, RouteOp, SinkStage, Stage};

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
