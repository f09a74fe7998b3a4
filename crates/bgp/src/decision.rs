//! The Decision Process (§5.1.1, Figure 5).
//!
//! "When a new route to a destination arrives, BGP must compare it against
//! all alternative routes to that destination (not just the previous
//! winner) ... the Decision Process must be able to look up alternative
//! routes via calls upstream through the pipeline."
//!
//! The stage is therefore *stateless*: for each incoming change it asks
//! every other branch for its current candidate, ranks them with
//! [`crate::route_better`], and emits the winner delta downstream to the
//! fanout queue.  Decomposing nexthop resolution out of the decision
//! (Figure 5) is what makes this possible — by the time a route reaches
//! here its IGP metric annotation is already present.

use xorp_event::EventLoop;
use xorp_net::{Addr, FxHashMap, Prefix};
use xorp_stages::{OriginId, RouteOp, Stage, StageRef};

use crate::{route_better, BgpRoute, PeerId};

/// The stateless best-route arbiter across peer branches.
pub struct DecisionStage<A: Addr> {
    /// Upstream branch heads (the nexthop resolvers), by peer.
    branches: FxHashMap<PeerId, StageRef<A, BgpRoute<A>>>,
    downstream: Option<StageRef<A, BgpRoute<A>>>,
}

impl<A: Addr> Default for DecisionStage<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Addr> DecisionStage<A> {
    /// An empty decision stage.
    pub fn new() -> Self {
        DecisionStage {
            branches: FxHashMap::default(),
            downstream: None,
        }
    }

    /// Register a peer branch (its topmost stage, for alternative
    /// lookups).
    pub fn add_branch(&mut self, peer: PeerId, head: StageRef<A, BgpRoute<A>>) {
        self.branches.insert(peer, head);
    }

    /// Remove a peer branch.  The caller is responsible for having
    /// withdrawn its routes first (the deletion stage does that).
    pub fn remove_branch(&mut self, peer: PeerId) {
        self.branches.remove(&peer);
    }

    /// Number of registered branches.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// The best alternative for `net` among branches other than `exclude`.
    fn best_alternative(&self, net: &Prefix<A>, exclude: PeerId) -> Option<(PeerId, BgpRoute<A>)> {
        let mut best: Option<(PeerId, BgpRoute<A>)> = None;
        for (peer, branch) in &self.branches {
            if *peer == exclude {
                continue;
            }
            if let Some(candidate) = branch.borrow().lookup_route(net) {
                best = match best {
                    None => Some((*peer, candidate)),
                    Some((bp, b)) if route_better(&candidate, *peer, &b, bp) => {
                        Some((*peer, candidate))
                    }
                    keep => keep,
                };
            }
        }
        best
    }

    fn emit(&self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, BgpRoute<A>>) {
        if let Some(d) = &self.downstream {
            d.borrow_mut().route_op(el, origin, op);
        }
    }
}

impl<A: Addr> Stage<A, BgpRoute<A>> for DecisionStage<A> {
    fn name(&self) -> String {
        "decision".into()
    }

    fn route_op(&mut self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, BgpRoute<A>>) {
        let from = PeerId(origin.0);
        let net = op.net();
        let alt = self.best_alternative(&net, from);

        // This branch's contribution before and after the change.
        let (old_mine, new_mine) = match &op {
            RouteOp::Add { route, .. } => (None, Some(route.clone())),
            RouteOp::Replace { old, new, .. } => (Some(old.clone()), Some(new.clone())),
            RouteOp::Delete { old, .. } => (Some(old.clone()), None),
        };

        let best = |mine: &Option<BgpRoute<A>>| -> Option<(PeerId, BgpRoute<A>)> {
            match (mine, &alt) {
                (Some(m), Some((ap, a))) => {
                    if route_better(m, from, a, *ap) {
                        Some((from, m.clone()))
                    } else {
                        Some((*ap, a.clone()))
                    }
                }
                (Some(m), None) => Some((from, m.clone())),
                (None, Some((ap, a))) => Some((*ap, a.clone())),
                (None, None) => None,
            }
        };

        let before = best(&old_mine);
        let after = best(&new_mine);

        match (before, after) {
            (None, Some((wp, new))) => self.emit(el, wp.into(), RouteOp::Add { net, route: new }),
            (Some((lp, old)), None) => self.emit(el, lp.into(), RouteOp::Delete { net, old }),
            (Some((_, old)), Some((wp, new))) => {
                if old != new {
                    self.emit(el, wp.into(), RouteOp::Replace { net, old, new });
                }
            }
            (None, None) => {}
        }
    }

    /// The current best route for `net` across all branches.
    fn lookup_route(&self, net: &Prefix<A>) -> Option<BgpRoute<A>> {
        let mut best: Option<(PeerId, BgpRoute<A>)> = None;
        for (peer, branch) in &self.branches {
            if let Some(candidate) = branch.borrow().lookup_route(net) {
                best = match best {
                    None => Some((*peer, candidate)),
                    Some((bp, b)) if route_better(&candidate, *peer, &b, bp) => {
                        Some((*peer, candidate))
                    }
                    keep => keep,
                };
            }
        }
        best.map(|(_, r)| r)
    }

    fn push(&mut self, el: &mut EventLoop) {
        if let Some(d) = &self.downstream {
            d.borrow_mut().push(el);
        }
    }

    fn set_downstream(&mut self, s: StageRef<A, BgpRoute<A>>) {
        self.downstream = Some(s);
    }
}

// The unit tests key their rigs with std's map.
#[cfg(test)]
use std::collections::HashMap;

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};
    use xorp_net::{AsPath, PathAttributes, ProtocolId};
    use xorp_stages::{stage_ref, CacheStage, SinkStage};

    type R = BgpRoute<Ipv4Addr>;

    fn route(net: &str, path_len: usize, peer: u32) -> R {
        let mut attrs = PathAttributes::new(IpAddr::V4("192.0.2.1".parse().unwrap()));
        attrs.as_path = AsPath::from_sequence((0..path_len).map(|i| 65000 + i as u32));
        let mut r = R::new(net.parse().unwrap(), attrs.shared(), 0, ProtocolId::Ebgp);
        r.source = Some(peer);
        r
    }

    struct Rig {
        el: EventLoop,
        decision: std::rc::Rc<std::cell::RefCell<DecisionStage<Ipv4Addr>>>,
        branches: HashMap<PeerId, std::rc::Rc<std::cell::RefCell<SinkStage<Ipv4Addr, R>>>>,
        cache: std::rc::Rc<std::cell::RefCell<CacheStage<Ipv4Addr, R>>>,
        sink: std::rc::Rc<std::cell::RefCell<SinkStage<Ipv4Addr, R>>>,
    }

    impl Rig {
        /// Set branch state and notify the decision, as a resolver would.
        fn feed(&mut self, peer: u32, op: RouteOp<Ipv4Addr, R>) {
            self.branches[&PeerId(peer)].borrow_mut().route_op(
                &mut self.el,
                OriginId(peer),
                op.clone(),
            );
            self.decision
                .borrow_mut()
                .route_op(&mut self.el, OriginId(peer), op);
        }

        fn best(&self, net: &str) -> Option<R> {
            self.sink.borrow().table.get(&net.parse().unwrap()).cloned()
        }
    }

    fn rig(peers: &[u32]) -> Rig {
        let el = EventLoop::new_virtual();
        let decision = stage_ref(DecisionStage::new());
        let cache = stage_ref(CacheStage::new("decision-out"));
        let sink = stage_ref(SinkStage::new());
        cache.borrow_mut().set_downstream(sink.clone());
        decision.borrow_mut().set_downstream(cache.clone());
        let mut branches = HashMap::new();
        for &p in peers {
            // SinkStage stands in for a branch: lookup answers from its table.
            let b = stage_ref(SinkStage::new());
            decision.borrow_mut().add_branch(PeerId(p), b.clone());
            branches.insert(PeerId(p), b);
        }
        Rig {
            el,
            decision,
            branches,
            cache,
            sink,
        }
    }

    fn add(r: R) -> RouteOp<Ipv4Addr, R> {
        RouteOp::Add {
            net: r.net,
            route: r,
        }
    }

    fn del(r: R) -> RouteOp<Ipv4Addr, R> {
        RouteOp::Delete { net: r.net, old: r }
    }

    #[test]
    fn single_branch_passthrough() {
        let mut rig = rig(&[1]);
        let r = route("10.0.0.0/8", 2, 1);
        rig.feed(1, add(r.clone()));
        assert_eq!(rig.best("10.0.0.0/8"), Some(r.clone()));
        rig.feed(1, del(r));
        assert_eq!(rig.best("10.0.0.0/8"), None);
        assert!(rig.cache.borrow().violations().is_empty());
    }

    #[test]
    fn better_route_takes_over() {
        let mut rig = rig(&[1, 2]);
        let worse = route("10.0.0.0/8", 5, 1);
        let better = route("10.0.0.0/8", 2, 2);
        rig.feed(1, add(worse.clone()));
        assert_eq!(rig.best("10.0.0.0/8"), Some(worse.clone()));
        rig.feed(2, add(better.clone()));
        assert_eq!(rig.best("10.0.0.0/8"), Some(better.clone()));
        // Worse arriving later is swallowed.
        let log_len = rig.sink.borrow().log.len();
        rig.feed(
            1,
            RouteOp::Replace {
                net: worse.net,
                old: worse.clone(),
                new: route("10.0.0.0/8", 7, 1),
            },
        );
        assert_eq!(rig.sink.borrow().log.len(), log_len);
        assert!(rig.cache.borrow().violations().is_empty());
    }

    #[test]
    fn winner_withdrawal_falls_back_to_alternative() {
        let mut rig = rig(&[1, 2]);
        let worse = route("10.0.0.0/8", 5, 1);
        let better = route("10.0.0.0/8", 2, 2);
        rig.feed(1, add(worse.clone()));
        rig.feed(2, add(better.clone()));
        rig.feed(2, del(better));
        // Compared against ALL alternatives, not just the previous winner.
        assert_eq!(rig.best("10.0.0.0/8"), Some(worse));
        assert!(rig.cache.borrow().violations().is_empty());
    }

    #[test]
    fn loser_withdrawal_is_silent() {
        let mut rig = rig(&[1, 2]);
        let worse = route("10.0.0.0/8", 5, 1);
        let better = route("10.0.0.0/8", 2, 2);
        rig.feed(2, add(better.clone()));
        rig.feed(1, add(worse.clone()));
        let log_len = rig.sink.borrow().log.len();
        rig.feed(1, del(worse));
        assert_eq!(rig.sink.borrow().log.len(), log_len);
        assert_eq!(rig.best("10.0.0.0/8"), Some(better));
    }

    #[test]
    fn three_way_comparison() {
        let mut rig = rig(&[1, 2, 3]);
        rig.feed(1, add(route("10.0.0.0/8", 5, 1)));
        rig.feed(2, add(route("10.0.0.0/8", 3, 2)));
        rig.feed(3, add(route("10.0.0.0/8", 4, 3)));
        assert_eq!(rig.best("10.0.0.0/8").unwrap().source, Some(2));
        // Winner leaves: next-best of the REMAINING two.
        rig.feed(2, del(route("10.0.0.0/8", 3, 2)));
        assert_eq!(rig.best("10.0.0.0/8").unwrap().source, Some(3));
        assert!(rig.cache.borrow().violations().is_empty());
    }

    #[test]
    fn replace_improving_nonwinner_to_winner() {
        let mut rig = rig(&[1, 2]);
        let a = route("10.0.0.0/8", 2, 1);
        let b_old = route("10.0.0.0/8", 9, 2);
        rig.feed(1, add(a.clone()));
        rig.feed(2, add(b_old.clone()));
        assert_eq!(rig.best("10.0.0.0/8").unwrap().source, Some(1));
        let b_new = route("10.0.0.0/8", 1, 2);
        rig.feed(
            2,
            RouteOp::Replace {
                net: b_old.net,
                old: b_old,
                new: b_new.clone(),
            },
        );
        assert_eq!(rig.best("10.0.0.0/8").unwrap().source, Some(2));
        assert!(rig.cache.borrow().violations().is_empty());
    }

    #[test]
    fn decision_lookup_returns_overall_best() {
        let mut rig = rig(&[1, 2]);
        rig.feed(1, add(route("10.0.0.0/8", 5, 1)));
        rig.feed(2, add(route("10.0.0.0/8", 2, 2)));
        let best = rig
            .decision
            .borrow()
            .lookup_route(&"10.0.0.0/8".parse().unwrap());
        assert_eq!(best.unwrap().source, Some(2));
    }

    #[test]
    fn branches_add_remove() {
        let rig = rig(&[1, 2]);
        assert_eq!(rig.decision.borrow().branch_count(), 2);
        rig.decision.borrow_mut().remove_branch(PeerId(1));
        assert_eq!(rig.decision.borrow().branch_count(), 1);
    }
}
