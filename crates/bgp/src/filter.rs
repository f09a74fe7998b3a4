//! Filter-bank stages (§5.1, §8.3).
//!
//! Import and export filter banks are pipeline stages wrapping a policy
//! [`FilterBank`].  Filters must be *deterministic*: the stage reconstructs
//! what downstream previously saw by re-filtering the old route carried in
//! delete/replace messages, which is how it stays consistent without
//! storing a table of its own ("routes are stored only in the Peer In
//! stages").

use std::collections::BTreeMap;

use xorp_event::EventLoop;
use xorp_net::{Addr, Prefix};
use xorp_policy::{FilterBank, PolicyTarget};
use xorp_stages::{OriginId, RouteOp, Stage, StageRef};

use crate::BgpRoute;

/// A policy filter bank as a pipeline stage.
pub struct FilterStage<A: Addr> {
    label: String,
    bank: FilterBank,
    downstream: Option<StageRef<A, BgpRoute<A>>>,
    upstream: Option<StageRef<A, BgpRoute<A>>>,
    /// Routes dropped so far (diagnostics).
    pub dropped: u64,
    /// Policy-transition state (§5.1.2): for each prefix not yet
    /// reconciled after a bank swap, the view downstream holds from the
    /// *old* bank.  Reconciliation happens lazily (when an update for the
    /// prefix arrives) or via [`FilterStage::transition_slice`] from a
    /// background task.
    transition: BTreeMap<Prefix<A>, Option<BgpRoute<A>>>,
}

impl<A: Addr> FilterStage<A>
where
    BgpRoute<A>: PolicyTarget,
{
    /// A filter stage running `bank`.
    pub fn new(label: impl Into<String>, bank: FilterBank) -> Self {
        FilterStage {
            label: label.into(),
            bank,
            downstream: None,
            upstream: None,
            dropped: 0,
            transition: BTreeMap::new(),
        }
    }

    /// Swap in a new filter bank.  The caller is responsible for
    /// re-filtering existing routes (§5.1.2 does this with a background
    /// stage; [`crate::BgpProcess::refilter_peer`] provides it).
    pub fn set_bank(&mut self, bank: FilterBank) {
        self.bank = bank;
    }

    /// Begin a policy transition: `prev_views` records, per prefix, what
    /// downstream currently holds (the old bank's output).  Until each
    /// prefix is reconciled — lazily by traffic, or by
    /// [`FilterStage::transition_slice`] — deltas for it are computed
    /// against this recorded view rather than by re-running the (now
    /// replaced) old bank.
    pub fn begin_transition(
        &mut self,
        prev_views: impl IntoIterator<Item = (Prefix<A>, Option<BgpRoute<A>>)>,
    ) {
        for (net, view) in prev_views {
            self.transition.insert(net, view);
        }
    }

    /// Reconcile up to `max` prefixes against the current upstream state,
    /// emitting the deltas the bank swap implies.  Returns `true` when the
    /// transition is complete.  Run from a background task (§5.1.2).
    pub fn transition_slice(&mut self, el: &mut EventLoop, origin: OriginId, max: usize) -> bool {
        for _ in 0..max {
            let Some((net, prev)) = self.transition.pop_first() else {
                return true;
            };
            let current = self
                .upstream
                .as_ref()
                .and_then(|u| u.borrow().lookup_route(&net));
            let now = current.as_ref().and_then(|r| self.apply(r));
            self.emit_view_diff(el, origin, net, prev, now);
        }
        self.transition.is_empty()
    }

    fn emit_view_diff(
        &mut self,
        el: &mut EventLoop,
        origin: OriginId,
        net: Prefix<A>,
        prev: Option<BgpRoute<A>>,
        now: Option<BgpRoute<A>>,
    ) {
        match (prev, now) {
            (None, Some(n)) => self.emit(el, origin, RouteOp::Add { net, route: n }),
            (Some(p), None) => self.emit(el, origin, RouteOp::Delete { net, old: p }),
            (Some(p), Some(n)) if p != n => self.emit(
                el,
                origin,
                RouteOp::Replace {
                    net,
                    old: p,
                    new: n,
                },
            ),
            _ => {}
        }
    }

    /// Run the bank over a copy of `route`.
    pub fn apply(&self, route: &BgpRoute<A>) -> Option<BgpRoute<A>> {
        let mut copy = route.clone();
        if self.bank.filter(&mut copy) {
            Some(copy)
        } else {
            None
        }
    }

    fn emit(&self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, BgpRoute<A>>) {
        if let Some(d) = &self.downstream {
            d.borrow_mut().route_op(el, origin, op);
        }
    }
}

impl<A: Addr> Stage<A, BgpRoute<A>> for FilterStage<A>
where
    BgpRoute<A>: PolicyTarget,
{
    fn name(&self) -> String {
        format!("filter[{}]", self.label)
    }

    fn route_op(&mut self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, BgpRoute<A>>) {
        // Lazy transition reconciliation: if this prefix is awaiting it,
        // diff against the recorded old-bank view instead.
        let net = op.net();
        if let Some(prev) = self.transition.remove(&net) {
            let now = op.new_route().and_then(|r| self.apply(r));
            self.emit_view_diff(el, origin, net, prev, now);
            return;
        }
        match op {
            RouteOp::Add { net, route } => match self.apply(&route) {
                Some(filtered) => self.emit(
                    el,
                    origin,
                    RouteOp::Add {
                        net,
                        route: filtered,
                    },
                ),
                None => self.dropped += 1,
            },
            RouteOp::Replace { net, old, new } => {
                let fold = self.apply(&old);
                let fnew = self.apply(&new);
                match (fold, fnew) {
                    (Some(o), Some(n)) => self.emit(
                        el,
                        origin,
                        RouteOp::Replace {
                            net,
                            old: o,
                            new: n,
                        },
                    ),
                    (Some(o), None) => {
                        self.dropped += 1;
                        self.emit(el, origin, RouteOp::Delete { net, old: o });
                    }
                    (None, Some(n)) => self.emit(el, origin, RouteOp::Add { net, route: n }),
                    (None, None) => self.dropped += 1,
                }
            }
            RouteOp::Delete { net, old } => match self.apply(&old) {
                Some(o) => self.emit(el, origin, RouteOp::Delete { net, old: o }),
                None => { /* downstream never saw it */ }
            },
        }
    }

    fn lookup_route(&self, net: &Prefix<A>) -> Option<BgpRoute<A>> {
        // A prefix not yet reconciled after a bank swap: downstream holds
        // the old bank's view.
        if let Some(view) = self.transition.get(net) {
            return view.clone();
        }
        self.upstream
            .as_ref()
            .and_then(|u| u.borrow().lookup_route(net))
            .and_then(|r| self.apply(&r))
    }

    fn push(&mut self, el: &mut EventLoop) {
        if let Some(d) = &self.downstream {
            d.borrow_mut().push(el);
        }
    }

    fn set_downstream(&mut self, s: StageRef<A, BgpRoute<A>>) {
        self.downstream = Some(s);
    }

    /// Plumb the upstream neighbor (lookup relay).
    fn set_upstream(&mut self, s: StageRef<A, BgpRoute<A>>) {
        self.upstream = Some(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};
    use xorp_net::{AsPath, PathAttributes, ProtocolId};
    use xorp_stages::{stage_ref, CacheStage, SinkStage};

    fn route(net: &str, med: u32) -> BgpRoute<Ipv4Addr> {
        let mut attrs = PathAttributes::new(IpAddr::V4("192.0.2.1".parse().unwrap()));
        attrs.as_path = AsPath::from_sequence([65001]);
        attrs.med = Some(med);
        BgpRoute::new(net.parse().unwrap(), attrs.shared(), 0, ProtocolId::Ebgp)
    }

    fn bank(src: &str) -> FilterBank {
        let mut b = FilterBank::accept_by_default();
        b.push_source("test", src).unwrap();
        b
    }

    #[allow(clippy::type_complexity)]
    fn rig(
        src: &str,
    ) -> (
        EventLoop,
        FilterStage<Ipv4Addr>,
        std::rc::Rc<std::cell::RefCell<CacheStage<Ipv4Addr, BgpRoute<Ipv4Addr>>>>,
        std::rc::Rc<std::cell::RefCell<SinkStage<Ipv4Addr, BgpRoute<Ipv4Addr>>>>,
    ) {
        let el = EventLoop::new_virtual();
        let mut f = FilterStage::new("import", bank(src));
        let cache = stage_ref(CacheStage::new("filter-out"));
        let sink = stage_ref(SinkStage::new());
        cache.borrow_mut().set_downstream(sink.clone());
        f.set_downstream(cache.clone());
        (el, f, cache, sink)
    }

    fn add(r: BgpRoute<Ipv4Addr>) -> RouteOp<Ipv4Addr, BgpRoute<Ipv4Addr>> {
        RouteOp::Add {
            net: r.net,
            route: r,
        }
    }

    #[test]
    fn accepted_routes_pass_modified() {
        let (mut el, mut f, cache, sink) = rig("set localpref 250; accept;");
        f.route_op(&mut el, OriginId(1), add(route("10.0.0.0/8", 5)));
        assert_eq!(
            sink.borrow().table[&"10.0.0.0/8".parse().unwrap()]
                .attrs
                .local_pref,
            Some(250)
        );
        assert!(cache.borrow().violations().is_empty());
    }

    #[test]
    fn rejected_routes_are_dropped_consistently() {
        let (mut el, mut f, cache, sink) = rig("if med > 10 then reject; endif accept;");
        let bad = route("10.0.0.0/8", 99);
        f.route_op(&mut el, OriginId(1), add(bad.clone()));
        assert!(sink.borrow().table.is_empty());
        assert_eq!(f.dropped, 1);
        // Deleting the rejected route produces nothing downstream.
        f.route_op(
            &mut el,
            OriginId(1),
            RouteOp::Delete {
                net: bad.net,
                old: bad,
            },
        );
        assert!(sink.borrow().log.is_empty());
        assert!(cache.borrow().violations().is_empty());
    }

    #[test]
    fn replace_crossing_the_filter_boundary() {
        let (mut el, mut f, cache, sink) = rig("if med > 10 then reject; endif accept;");
        let good = route("10.0.0.0/8", 5);
        let bad = route("10.0.0.0/8", 99);
        // good → bad: surfaces as Delete.
        f.route_op(&mut el, OriginId(1), add(good.clone()));
        f.route_op(
            &mut el,
            OriginId(1),
            RouteOp::Replace {
                net: good.net,
                old: good.clone(),
                new: bad.clone(),
            },
        );
        assert!(sink.borrow().table.is_empty());
        // bad → good: surfaces as Add.
        f.route_op(
            &mut el,
            OriginId(1),
            RouteOp::Replace {
                net: good.net,
                old: bad,
                new: good.clone(),
            },
        );
        assert_eq!(sink.borrow().table.len(), 1);
        assert!(
            cache.borrow().violations().is_empty(),
            "{:?}",
            cache.borrow().violations()
        );
    }

    #[test]
    fn lookup_filters_upstream_answers() {
        let mut el = EventLoop::new_virtual();
        let upstream = stage_ref(SinkStage::<Ipv4Addr, BgpRoute<Ipv4Addr>>::new());
        let mut f = FilterStage::new("t", bank("if med > 10 then reject; endif accept;"));
        f.set_upstream(upstream.clone());
        let good = route("10.0.0.0/8", 5);
        let bad = route("20.0.0.0/8", 50);
        upstream
            .borrow_mut()
            .route_op(&mut el, OriginId(1), add(good.clone()));
        upstream
            .borrow_mut()
            .route_op(&mut el, OriginId(1), add(bad.clone()));
        assert!(f.lookup_route(&good.net).is_some());
        assert!(f.lookup_route(&bad.net).is_none());
    }

    #[test]
    fn set_bank_swaps_policy() {
        let (mut el, mut f, _cache, sink) = rig("reject;");
        f.route_op(&mut el, OriginId(1), add(route("10.0.0.0/8", 1)));
        assert!(sink.borrow().table.is_empty());
        f.set_bank(FilterBank::accept_by_default());
        f.route_op(&mut el, OriginId(1), add(route("20.0.0.0/8", 1)));
        assert_eq!(sink.borrow().table.len(), 1);
    }
}
