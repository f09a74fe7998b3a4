//! Route aggregation as one more pipeline stage — the same extension
//! pattern §8.3 demonstrates with policy and damping: "new stages can be
//! added to the pipeline without disturbing their neighbors".
//!
//! An [`AggregationStage`] is configured with aggregate prefixes.  When
//! any contributing route inside an aggregate is present, the stage
//! originates the aggregate route downstream, carrying an `AS_SET` of the
//! contributors' AS numbers (this is what [`xorp_net::AsPathSegment::Set`]
//! exists for in BGP).  With `summary_only`, the contributing
//! more-specifics are suppressed downstream, like the classic
//! `aggregate-address ... summary-only`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use xorp_event::EventLoop;
use xorp_net::{AsNum, AsPath, AsPathSegment, Origin, PathAttributes, Prefix, ProtocolId};
use xorp_stages::{OriginId, RouteOp, Stage, StageRef};

use crate::{BgpRoute, PeerId};

struct AggregateState<A: xorp_net::Addr> {
    summary_only: bool,
    /// Contributing routes currently inside the aggregate.
    contributors: BTreeMap<Prefix<A>, BgpRoute<A>>,
    /// The aggregate route as last emitted downstream.
    emitted: Option<BgpRoute<A>>,
}

/// The aggregation stage (IPv4-generic in structure; constructed from
/// IPv4 configs by [`AggregationStage::new`]).
pub struct AggregationStage<A: xorp_net::Addr> {
    /// Our AS (origin of the aggregate).
    local_as: AsNum,
    /// Synthetic origin id for aggregate-originated messages.
    self_origin: PeerId,
    aggregates: BTreeMap<Prefix<A>, AggregateState<A>>,
    downstream: Option<StageRef<A, BgpRoute<A>>>,
    /// Lookup relay for prefixes this stage is transparent to.
    upstream: Option<StageRef<A, BgpRoute<A>>>,
}

impl<A: xorp_net::Addr> AggregationStage<A> {
    /// Build with the given aggregate prefixes.
    pub fn new(
        local_as: AsNum,
        self_origin: PeerId,
        aggregates: impl IntoIterator<Item = (Prefix<A>, bool)>,
    ) -> Self {
        AggregationStage {
            local_as,
            self_origin,
            aggregates: aggregates
                .into_iter()
                .map(|(net, summary_only)| {
                    (
                        net,
                        AggregateState {
                            summary_only,
                            contributors: BTreeMap::new(),
                            emitted: None,
                        },
                    )
                })
                .collect(),
            downstream: None,
            upstream: None,
        }
    }

    /// Number of live contributors for an aggregate (diagnostics).
    pub fn contributor_count(&self, net: &Prefix<A>) -> usize {
        self.aggregates.get(net).map_or(0, |a| a.contributors.len())
    }

    fn emit(&self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, BgpRoute<A>>) {
        if let Some(d) = &self.downstream {
            d.borrow_mut().route_op(el, origin, op);
        }
    }

    /// The aggregate this net falls strictly inside, if any.
    fn aggregate_for(&self, net: &Prefix<A>) -> Option<Prefix<A>> {
        self.aggregates
            .keys()
            .find(|a| a.contains(net) && a.len() < net.len())
            .copied()
    }

    /// Build the aggregate route from the current contributors.
    fn build_aggregate(&self, net: Prefix<A>) -> Option<BgpRoute<A>> {
        let state = self.aggregates.get(&net)?;
        let first = state.contributors.values().next()?;
        // AS_SET of every AS seen in any contributor path — the
        // aggregation semantics that motivate path sets.
        let mut set: BTreeSet<u32> = BTreeSet::new();
        for r in state.contributors.values() {
            for seg in r.attrs.as_path.segments() {
                let (AsPathSegment::Sequence(v) | AsPathSegment::Set(v)) = seg;
                set.extend(v.iter().map(|a| a.0));
            }
        }
        let mut attrs = PathAttributes::new(first.attrs.nexthop);
        let mut segments = vec![AsPathSegment::Sequence(vec![self.local_as])];
        if !set.is_empty() {
            segments.push(AsPathSegment::Set(set.into_iter().map(AsNum).collect()));
        }
        attrs.as_path = AsPath::from_segments(segments);
        attrs.origin = Origin::Incomplete;
        attrs.ebgp = first.attrs.ebgp;
        let mut route = BgpRoute::new(net, Arc::new(attrs), 0, ProtocolId::Ebgp);
        route.source = Some(self.self_origin.0);
        Some(route)
    }

    /// Recompute and emit the aggregate's delta after contributors
    /// changed.
    fn refresh_aggregate(&mut self, el: &mut EventLoop, net: Prefix<A>) {
        let before = self.aggregates.get(&net).and_then(|a| a.emitted.clone());
        let after = self.build_aggregate(net);
        if let Some(state) = self.aggregates.get_mut(&net) {
            state.emitted = after.clone();
        }
        if let Some(op) = RouteOp::diff(net, before, after) {
            self.emit(el, self.self_origin.into(), op);
        }
    }
}

impl<A: xorp_net::Addr> Stage<A, BgpRoute<A>> for AggregationStage<A> {
    fn name(&self) -> String {
        "aggregation".into()
    }

    fn route_op(&mut self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, BgpRoute<A>>) {
        let net = op.net();
        let Some(agg_net) = self.aggregate_for(&net) else {
            // Not inside any aggregate: transparent.
            self.emit(el, origin, op);
            return;
        };

        let summary_only = self.aggregates[&agg_net].summary_only;
        // Track the contributor set.
        if let Some(state) = self.aggregates.get_mut(&agg_net) {
            match &op {
                RouteOp::Add { route, .. } | RouteOp::Replace { new: route, .. } => {
                    state.contributors.insert(net, route.clone());
                }
                RouteOp::Delete { .. } => {
                    state.contributors.remove(&net);
                }
            }
        }
        // Pass the specific through unless suppressed.
        if !summary_only {
            self.emit(el, origin, op);
        }
        self.refresh_aggregate(el, agg_net);
    }

    fn lookup_route(&self, net: &Prefix<A>) -> Option<BgpRoute<A>> {
        // The aggregate itself, or a non-suppressed contributor.
        if let Some(state) = self.aggregates.get(net) {
            return state.emitted.clone();
        }
        match self.aggregate_for(net) {
            Some(agg) => {
                let state = &self.aggregates[&agg];
                if state.summary_only {
                    None
                } else {
                    state.contributors.get(net).cloned()
                }
            }
            // Transparent for everything else: relay upstream, consistent
            // with having passed those ops through untouched.
            None => self
                .upstream
                .as_ref()
                .and_then(|u| u.borrow().lookup_route(net)),
        }
    }

    fn push(&mut self, el: &mut EventLoop) {
        if let Some(d) = &self.downstream {
            d.borrow_mut().push(el);
        }
    }

    fn set_downstream(&mut self, s: StageRef<A, BgpRoute<A>>) {
        self.downstream = Some(s);
    }

    /// Plumb the upstream neighbor: `lookup_route` relays to it for every
    /// prefix this stage passes through untouched, so downstream stages
    /// (background dumps in particular) see the whole table through us.
    fn set_upstream(&mut self, s: StageRef<A, BgpRoute<A>>) {
        self.upstream = Some(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};
    use xorp_stages::{stage_ref, CacheStage, SinkStage};

    type R = BgpRoute<Ipv4Addr>;

    fn route(net: &str, path: &[u32]) -> R {
        let mut attrs = PathAttributes::new(IpAddr::V4("192.0.2.1".parse().unwrap()));
        attrs.as_path = AsPath::from_sequence(path.iter().copied());
        let mut r = R::new(net.parse().unwrap(), attrs.shared(), 0, ProtocolId::Ebgp);
        r.source = Some(1);
        r
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

    struct Rig {
        el: EventLoop,
        stage: AggregationStage<Ipv4Addr>,
        cache: std::rc::Rc<std::cell::RefCell<CacheStage<Ipv4Addr, R>>>,
        sink: std::rc::Rc<std::cell::RefCell<SinkStage<Ipv4Addr, R>>>,
    }

    fn rig(summary_only: bool) -> Rig {
        let el = EventLoop::new_virtual();
        let mut stage = AggregationStage::new(
            AsNum(65000),
            PeerId(0),
            [("10.0.0.0/8".parse().unwrap(), summary_only)],
        );
        let cache = stage_ref(CacheStage::new("agg-out"));
        let sink = stage_ref(SinkStage::new());
        cache.borrow_mut().set_downstream(sink.clone());
        stage.set_downstream(cache.clone());
        Rig {
            el,
            stage,
            cache,
            sink,
        }
    }

    #[test]
    fn aggregate_originates_with_as_set() {
        let mut r = rig(false);
        r.stage.route_op(
            &mut r.el,
            OriginId(1),
            add(route("10.1.0.0/16", &[65001, 64512])),
        );
        r.stage
            .route_op(&mut r.el, OriginId(1), add(route("10.2.0.0/16", &[65002])));
        let sink = r.sink.borrow();
        // Both specifics plus the aggregate.
        assert_eq!(sink.table.len(), 3);
        let agg = &sink.table[&"10.0.0.0/8".parse().unwrap()];
        let rendered = agg.attrs.as_path.to_string();
        assert!(rendered.starts_with("65000 {"), "{rendered}");
        for asn in ["64512", "65001", "65002"] {
            assert!(rendered.contains(asn), "{rendered}");
        }
        assert_eq!(agg.attrs.origin, Origin::Incomplete);
        drop(sink);
        assert!(r.cache.borrow().violations().is_empty());
    }

    #[test]
    fn aggregate_withdrawn_with_last_contributor() {
        let mut r = rig(false);
        let a = route("10.1.0.0/16", &[65001]);
        let b = route("10.2.0.0/16", &[65002]);
        r.stage.route_op(&mut r.el, OriginId(1), add(a.clone()));
        r.stage.route_op(&mut r.el, OriginId(1), add(b.clone()));
        r.stage.route_op(&mut r.el, OriginId(1), del(a));
        // Aggregate survives (one contributor left) but its AS set shrank.
        {
            let sink = r.sink.borrow();
            let agg = &sink.table[&"10.0.0.0/8".parse().unwrap()];
            assert!(!agg.attrs.as_path.to_string().contains("65001"));
        }
        r.stage.route_op(&mut r.el, OriginId(1), del(b));
        assert!(r.sink.borrow().table.is_empty());
        assert!(r.cache.borrow().violations().is_empty());
    }

    #[test]
    fn summary_only_suppresses_specifics() {
        let mut r = rig(true);
        r.stage
            .route_op(&mut r.el, OriginId(1), add(route("10.1.0.0/16", &[65001])));
        let sink = r.sink.borrow();
        assert_eq!(sink.table.len(), 1);
        assert!(sink.table.contains_key(&"10.0.0.0/8".parse().unwrap()));
        drop(sink);
        // Withdraw: the suppressed specific produces no downstream delete,
        // only the aggregate goes.
        r.stage
            .route_op(&mut r.el, OriginId(1), del(route("10.1.0.0/16", &[65001])));
        assert!(r.sink.borrow().table.is_empty());
        assert!(r.cache.borrow().violations().is_empty());
    }

    #[test]
    fn routes_outside_aggregates_pass_through() {
        let mut r = rig(true);
        r.stage.route_op(
            &mut r.el,
            OriginId(1),
            add(route("192.168.0.0/16", &[65009])),
        );
        assert_eq!(r.sink.borrow().table.len(), 1);
        assert!(r
            .sink
            .borrow()
            .table
            .contains_key(&"192.168.0.0/16".parse().unwrap()));
        assert!(r.cache.borrow().violations().is_empty());
    }

    #[test]
    fn exact_aggregate_prefix_not_its_own_contributor() {
        // A route exactly equal to the aggregate prefix passes through
        // (len equality excludes it from the contributor set).
        let mut r = rig(false);
        r.stage
            .route_op(&mut r.el, OriginId(1), add(route("10.0.0.0/8", &[65009])));
        assert_eq!(r.sink.borrow().table.len(), 1);
        assert_eq!(r.stage.contributor_count(&"10.0.0.0/8".parse().unwrap()), 0);
    }

    #[test]
    fn lookup_semantics() {
        let mut r = rig(true);
        r.stage
            .route_op(&mut r.el, OriginId(1), add(route("10.1.0.0/16", &[65001])));
        // The aggregate is visible; the suppressed specific is not.
        assert!(r
            .stage
            .lookup_route(&"10.0.0.0/8".parse().unwrap())
            .is_some());
        assert!(r
            .stage
            .lookup_route(&"10.1.0.0/16".parse().unwrap())
            .is_none());
    }
}
