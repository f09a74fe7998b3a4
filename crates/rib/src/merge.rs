//! Pairwise merge stages (§5.2).
//!
//! "the decision process in the RIB is distributed as pairwise decisions
//! between Merge Stages, which combine route tables with conflicts based on
//! a preference order ... the RIB makes its decision purely on the basis of
//! a single administrative distance metric.  This single metric allows more
//! distributed decision-making, which we prefer, since it better supports
//! future extensions."
//!
//! A [`MergeStage`] is *stateless*: it stores no routes of its own,
//! computing winners by `lookup_route` calls back upstream — exactly the
//! "calls upstream through the pipeline" discipline of §5.1.  This is what
//! lets the paper claim routes live only in origin stages.

use xorp_event::EventLoop;
use xorp_net::{Addr, FxHashSet, Prefix};
use xorp_stages::{OriginId, RouteOp, Stage, StageRef};

use crate::{better, RibRoute};

/// Stateless two-input arbitration stage.
pub struct MergeStage<A: Addr> {
    label: String,
    /// Side A upstream and the origin ids that arrive through it.  Side A
    /// wins ties.
    a: StageRef<A, RibRoute<A>>,
    a_origins: FxHashSet<OriginId>,
    /// Side B upstream.
    b: StageRef<A, RibRoute<A>>,
    b_origins: FxHashSet<OriginId>,
    downstream: Option<StageRef<A, RibRoute<A>>>,
}

impl<A: Addr> MergeStage<A> {
    /// Merge `a` (tie-winner) with `b`.  `a_origins`/`b_origins` are the
    /// origin ids whose messages arrive through each side.
    pub fn new(
        label: impl Into<String>,
        a: StageRef<A, RibRoute<A>>,
        a_origins: impl IntoIterator<Item = OriginId>,
        b: StageRef<A, RibRoute<A>>,
        b_origins: impl IntoIterator<Item = OriginId>,
    ) -> Self {
        MergeStage {
            label: label.into(),
            a,
            a_origins: a_origins.into_iter().collect(),
            b,
            b_origins: b_origins.into_iter().collect(),
            downstream: None,
        }
    }

    /// Plumb the downstream neighbor.
    pub fn set_downstream(&mut self, s: StageRef<A, RibRoute<A>>) {
        self.downstream = Some(s);
    }

    /// All origin ids feeding this stage (for chaining merges).
    pub fn origins(&self) -> impl Iterator<Item = OriginId> + '_ {
        self.a_origins.iter().chain(self.b_origins.iter()).copied()
    }

    /// Register a new origin id on an existing side (used when an origin
    /// table is added upstream of side A after construction).
    pub fn add_origin(&mut self, side_a: bool, origin: OriginId) {
        if side_a {
            self.a_origins.insert(origin);
        } else {
            self.b_origins.insert(origin);
        }
    }

    fn emit(&self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, RibRoute<A>>) {
        if let Some(d) = &self.downstream {
            d.borrow_mut().route_op(el, origin, op);
        }
    }

    /// Does a route arriving on `from_a` beat `other` from the other side?
    fn wins(&self, route: &RibRoute<A>, other: &RibRoute<A>, from_a: bool) -> bool {
        if from_a {
            better(route, other)
        } else {
            !better(other, route)
        }
    }
}

impl<A: Addr> Stage<A, RibRoute<A>> for MergeStage<A> {
    fn name(&self) -> String {
        format!("merge[{}]", self.label)
    }

    fn route_op(&mut self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, RibRoute<A>>) {
        let from_a = if self.a_origins.contains(&origin) {
            true
        } else {
            debug_assert!(
                self.b_origins.contains(&origin),
                "merge[{}]: unknown origin {origin:?}",
                self.label
            );
            false
        };
        let net = op.net();
        // The other side is quiescent while this message is in flight, so
        // its lookup answer is the alternative route (if any).
        let other = if from_a {
            self.b.borrow().lookup_route(&net)
        } else {
            self.a.borrow().lookup_route(&net)
        };

        match (op, other) {
            // No conflict: relay.
            (op, None) => self.emit(el, origin, op),

            (RouteOp::Add { net, route }, Some(other)) => {
                if self.wins(&route, &other, from_a) {
                    // The alternative was previously the winner downstream.
                    self.emit(
                        el,
                        origin,
                        RouteOp::Replace {
                            net,
                            old: other,
                            new: route,
                        },
                    );
                }
                // else: other still wins; swallow.
            }

            (RouteOp::Replace { net, old, new }, Some(other)) => {
                let old_won = self.wins(&old, &other, from_a);
                let new_wins = self.wins(&new, &other, from_a);
                match (old_won, new_wins) {
                    (true, true) => self.emit(el, origin, RouteOp::Replace { net, old, new }),
                    (true, false) => self.emit(
                        el,
                        origin,
                        RouteOp::Replace {
                            net,
                            old,
                            new: other,
                        },
                    ),
                    (false, true) => self.emit(
                        el,
                        origin,
                        RouteOp::Replace {
                            net,
                            old: other,
                            new,
                        },
                    ),
                    (false, false) => {}
                }
            }

            (RouteOp::Delete { net, old }, Some(other)) => {
                if self.wins(&old, &other, from_a) {
                    // The winner went away; the alternative takes over.
                    self.emit(
                        el,
                        origin,
                        RouteOp::Replace {
                            net,
                            old,
                            new: other,
                        },
                    );
                }
                // else: loser withdrawn; downstream never saw it.
            }
        }
    }

    fn lookup_route(&self, net: &Prefix<A>) -> Option<RibRoute<A>> {
        let a = self.a.borrow().lookup_route(net);
        let b = self.b.borrow().lookup_route(net);
        match (a, b) {
            (Some(a), Some(b)) => Some(if better(&a, &b) { a } else { b }),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    fn push(&mut self, el: &mut EventLoop) {
        if let Some(d) = &self.downstream {
            d.borrow_mut().push(el);
        }
    }

    fn set_downstream(&mut self, s: StageRef<A, RibRoute<A>>) {
        MergeStage::set_downstream(self, s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::OriginTable;
    use std::net::{IpAddr, Ipv4Addr};
    use std::sync::Arc;
    use xorp_net::{PathAttributes, ProtocolId};
    use xorp_stages::{stage_ref, CacheStage, SinkStage};

    type Sink = SinkStage<Ipv4Addr, RibRoute<Ipv4Addr>>;

    fn route(net: &str, nh: &str, proto: ProtocolId) -> RibRoute<Ipv4Addr> {
        RibRoute::new(
            net.parse().unwrap(),
            Arc::new(PathAttributes::new(IpAddr::V4(nh.parse().unwrap()))),
            1,
            proto,
        )
    }

    /// static (AD 1, side A) merged with rip (AD 120, side B), with a
    /// consistency checker between merge and sink.
    struct Rig {
        el: EventLoop,
        stat: std::rc::Rc<std::cell::RefCell<OriginTable<Ipv4Addr>>>,
        rip: std::rc::Rc<std::cell::RefCell<OriginTable<Ipv4Addr>>>,
        merge: std::rc::Rc<std::cell::RefCell<MergeStage<Ipv4Addr>>>,
        cache: std::rc::Rc<std::cell::RefCell<CacheStage<Ipv4Addr, RibRoute<Ipv4Addr>>>>,
        sink: std::rc::Rc<std::cell::RefCell<Sink>>,
    }

    fn rig() -> Rig {
        let el = EventLoop::new_virtual();
        let stat = stage_ref(OriginTable::new(ProtocolId::Static, OriginId(1)));
        let rip = stage_ref(OriginTable::new(ProtocolId::Rip, OriginId(2)));
        let merge = stage_ref(MergeStage::new(
            "test",
            stat.clone(),
            [OriginId(1)],
            rip.clone(),
            [OriginId(2)],
        ));
        let cache = stage_ref(CacheStage::new("merge-out"));
        let sink = stage_ref(Sink::new());
        stat.borrow_mut().set_downstream(merge.clone());
        rip.borrow_mut().set_downstream(merge.clone());
        merge.borrow_mut().set_downstream(cache.clone());
        cache.borrow_mut().set_downstream(sink.clone());
        cache.borrow_mut().set_upstream(merge.clone());
        Rig {
            el,
            stat,
            rip,
            merge,
            cache,
            sink,
        }
    }

    #[test]
    fn lower_distance_wins() {
        let mut r = rig();
        r.rip
            .borrow_mut()
            .add_route(&mut r.el, route("10.0.0.0/8", "192.0.2.2", ProtocolId::Rip));
        assert_eq!(
            r.sink.borrow().table[&"10.0.0.0/8".parse().unwrap()].proto,
            ProtocolId::Rip
        );
        // Static (AD 1) takes over from RIP (AD 120).
        r.stat.borrow_mut().add_route(
            &mut r.el,
            route("10.0.0.0/8", "192.0.2.1", ProtocolId::Static),
        );
        assert_eq!(
            r.sink.borrow().table[&"10.0.0.0/8".parse().unwrap()].proto,
            ProtocolId::Static
        );
        // A later RIP update must be swallowed (static still wins).
        let ops_before = r.sink.borrow().log.len();
        r.rip
            .borrow_mut()
            .add_route(&mut r.el, route("10.0.0.0/8", "192.0.2.9", ProtocolId::Rip));
        assert_eq!(r.sink.borrow().log.len(), ops_before);
        assert!(r.cache.borrow().violations().is_empty());
    }

    #[test]
    fn winner_deletion_falls_back() {
        let mut r = rig();
        r.rip
            .borrow_mut()
            .add_route(&mut r.el, route("10.0.0.0/8", "192.0.2.2", ProtocolId::Rip));
        r.stat.borrow_mut().add_route(
            &mut r.el,
            route("10.0.0.0/8", "192.0.2.1", ProtocolId::Static),
        );
        // Withdraw the winner: RIP route re-emerges as a Replace.
        r.stat
            .borrow_mut()
            .delete_route(&mut r.el, "10.0.0.0/8".parse().unwrap());
        assert_eq!(
            r.sink.borrow().table[&"10.0.0.0/8".parse().unwrap()].proto,
            ProtocolId::Rip
        );
        // Withdraw the remaining route: prefix disappears.
        r.rip
            .borrow_mut()
            .delete_route(&mut r.el, "10.0.0.0/8".parse().unwrap());
        assert!(r.sink.borrow().table.is_empty());
        assert!(r.cache.borrow().violations().is_empty());
    }

    #[test]
    fn loser_deletion_is_silent() {
        let mut r = rig();
        r.stat.borrow_mut().add_route(
            &mut r.el,
            route("10.0.0.0/8", "192.0.2.1", ProtocolId::Static),
        );
        r.rip
            .borrow_mut()
            .add_route(&mut r.el, route("10.0.0.0/8", "192.0.2.2", ProtocolId::Rip));
        let ops_before = r.sink.borrow().log.len();
        r.rip
            .borrow_mut()
            .delete_route(&mut r.el, "10.0.0.0/8".parse().unwrap());
        assert_eq!(r.sink.borrow().log.len(), ops_before);
        assert_eq!(
            r.sink.borrow().table[&"10.0.0.0/8".parse().unwrap()].proto,
            ProtocolId::Static
        );
        assert!(r.cache.borrow().violations().is_empty());
    }

    #[test]
    fn replace_on_losing_side_stays_silent() {
        let mut r = rig();
        r.stat.borrow_mut().add_route(
            &mut r.el,
            route("10.0.0.0/8", "192.0.2.1", ProtocolId::Static),
        );
        r.rip
            .borrow_mut()
            .add_route(&mut r.el, route("10.0.0.0/8", "192.0.2.2", ProtocolId::Rip));
        let ops_before = r.sink.borrow().log.len();
        // RIP nexthop change while static wins: invisible downstream.
        r.rip
            .borrow_mut()
            .add_route(&mut r.el, route("10.0.0.0/8", "192.0.2.3", ProtocolId::Rip));
        assert_eq!(r.sink.borrow().log.len(), ops_before);
        assert!(r.cache.borrow().violations().is_empty());
    }

    #[test]
    fn replace_on_winning_side_propagates() {
        let mut r = rig();
        r.stat.borrow_mut().add_route(
            &mut r.el,
            route("10.0.0.0/8", "192.0.2.1", ProtocolId::Static),
        );
        r.rip
            .borrow_mut()
            .add_route(&mut r.el, route("10.0.0.0/8", "192.0.2.2", ProtocolId::Rip));
        r.stat.borrow_mut().add_route(
            &mut r.el,
            route("10.0.0.0/8", "192.0.2.9", ProtocolId::Static),
        );
        assert_eq!(
            r.sink.borrow().table[&"10.0.0.0/8".parse().unwrap()]
                .nexthop()
                .to_string(),
            "192.0.2.9"
        );
        assert!(r.cache.borrow().violations().is_empty());
    }

    #[test]
    fn disjoint_prefixes_pass_through() {
        let mut r = rig();
        r.stat.borrow_mut().add_route(
            &mut r.el,
            route("10.0.0.0/8", "192.0.2.1", ProtocolId::Static),
        );
        r.rip
            .borrow_mut()
            .add_route(&mut r.el, route("20.0.0.0/8", "192.0.2.2", ProtocolId::Rip));
        assert_eq!(r.sink.borrow().table.len(), 2);
        assert!(r.cache.borrow().violations().is_empty());
    }

    #[test]
    fn merge_lookup_returns_winner() {
        let mut r = rig();
        r.stat.borrow_mut().add_route(
            &mut r.el,
            route("10.0.0.0/8", "192.0.2.1", ProtocolId::Static),
        );
        r.rip
            .borrow_mut()
            .add_route(&mut r.el, route("10.0.0.0/8", "192.0.2.2", ProtocolId::Rip));
        let winner = r
            .merge
            .borrow()
            .lookup_route(&"10.0.0.0/8".parse().unwrap())
            .unwrap();
        assert_eq!(winner.proto, ProtocolId::Static);
    }
}
