//! Route redistribution stages (§3, §5.2, §8.3).
//!
//! "A key instrument of routing policy is the process of route
//! redistribution, where routes from one routing protocol that match
//! certain policy filters are redistributed into another routing protocol
//! ... The RIB, as the one part of the system that sees everyone's routes,
//! is central to this process."
//!
//! A [`RedistStage`] is a transparent pass-through; watchers registered on
//! it receive a policy-filtered copy of the stream.  Watchers are added and
//! removed at runtime — one of the "dynamic stages inserted as different
//! watchers register themselves with the RIB".

use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::rc::Rc;

use xorp_event::{EventLoop, SliceResult};
use xorp_net::{release_drained, Addr, Prefix, ProtocolId};
use xorp_policy::{FilterBank, PolicyTarget};
use xorp_profiler::tracing::{self as xtrace, TraceContext};
use xorp_stages::{DumpSource, OriginId, RouteOp, Stage, StageRef, DUMP_SLICE_SIZE};

use crate::RibRoute;

/// Callback receiving the filtered stream for one watcher.
pub type RedistSink<A> = Rc<dyn Fn(&mut EventLoop, RouteOp<A, RibRoute<A>>)>;

/// A route operation as delivered to redistribution sinks.
pub type RedistOp<A> = RouteOp<A, RibRoute<A>>;

/// A redistribution subscription.
pub struct RedistWatcher<A: Addr> {
    /// Subscription name (for removal).
    pub name: String,
    /// Only routes from these protocols are considered (`None` = all).
    pub from: Option<HashSet<ProtocolId>>,
    /// Policy filters; may modify routes (set tags, rewrite metrics).
    pub policy: FilterBank,
    /// Where the filtered stream goes.
    pub sink: RedistSink<A>,
    /// Prefixes this watcher currently holds (maintains delete/add
    /// symmetry when the policy verdict changes across a replace).
    delivered: BTreeSet<Prefix<A>>,
    /// Flow control (XRL backpressure): while the cell reads `false`,
    /// deliveries are parked in the backlog instead of hitting the sink,
    /// and replayed in order on resume, each under the trace context it
    /// was parked with (a sampled route must not lose its trace to a
    /// congested lane).  The policy/delivered bookkeeping
    /// runs either way, so the watcher's view stays consistent across the
    /// pause.  The cell is shared ([`RedistStage::watcher_flow`]) so a
    /// congestion callback can flip it synchronously from inside the send
    /// path — overshoot past an Xoff is bounded at the watermark, exactly
    /// like a sender-side flow gate.
    flow: Rc<Cell<bool>>,
    backlog: VecDeque<(RedistOp<A>, Option<TraceContext>)>,
}

impl<A: Addr> RedistWatcher<A> {
    /// Build a subscription.
    pub fn new(
        name: impl Into<String>,
        from: Option<HashSet<ProtocolId>>,
        policy: FilterBank,
        sink: RedistSink<A>,
    ) -> Self {
        RedistWatcher {
            name: name.into(),
            from,
            policy,
            sink,
            delivered: BTreeSet::new(),
            flow: Rc::new(Cell::new(true)),
            backlog: VecDeque::new(),
        }
    }

    /// Deliver now, or park while paused.
    fn emit(&mut self, el: &mut EventLoop, op: RedistOp<A>) {
        if !self.flow.get() {
            self.park(op);
        } else {
            (self.sink)(el, op);
        }
    }

    fn park(&mut self, op: RedistOp<A>) {
        self.backlog.push_back((op, xtrace::current()));
    }

    fn wants_proto(&self, proto: ProtocolId) -> bool {
        self.from.as_ref().map_or(true, |set| set.contains(&proto))
    }

    /// Run the policy over a route copy; `Some(modified)` if accepted.
    fn filter(&self, route: &RibRoute<A>) -> Option<RibRoute<A>>
    where
        RibRoute<A>: PolicyTarget,
    {
        if !self.wants_proto(route.proto) {
            return None;
        }
        let mut copy = route.clone();
        if self.policy.filter(&mut copy) {
            Some(copy)
        } else {
            None
        }
    }
}

/// Transparent stage with policy-filtered taps.
pub struct RedistStage<A: Addr> {
    watchers: HashMap<String, RedistWatcher<A>>,
    downstream: Option<StageRef<A, RibRoute<A>>>,
    upstream: Option<StageRef<A, RibRoute<A>>>,
}

impl<A: Addr> Default for RedistStage<A>
where
    RibRoute<A>: PolicyTarget,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Addr> RedistStage<A>
where
    RibRoute<A>: PolicyTarget,
{
    /// An empty redistribution stage.
    pub fn new() -> Self {
        RedistStage {
            watchers: HashMap::new(),
            downstream: None,
            upstream: None,
        }
    }

    /// Plumb the downstream neighbor.
    pub fn set_downstream(&mut self, s: StageRef<A, RibRoute<A>>) {
        self.downstream = Some(s);
    }

    /// Plumb the upstream neighbor (lookup relay).
    pub fn set_upstream(&mut self, s: StageRef<A, RibRoute<A>>) {
        self.upstream = Some(s);
    }

    /// Add a watcher.  Existing routes are not replayed; callers wanting a
    /// full feed add the watcher before protocols start (XORP's behaviour)
    /// or use [`RedistStage::add_watcher_dumped`].
    pub fn add_watcher(&mut self, w: RedistWatcher<A>) {
        self.watchers.insert(w.name.clone(), w);
    }

    /// Add a watcher AND stream it the pre-existing table as a background
    /// dump (§5.3) — the late-subscriber path.  `sources` supply the
    /// prefixes to visit (safe-iterator walks of the origin tables); each
    /// prefix is looked up through the upstream stage so the dump carries
    /// the *current* post-arbitration route, never a stale copy.
    ///
    /// The watcher's own `delivered` set doubles as the dump's sync set:
    /// live ops tapped while the dump runs mark prefixes delivered (or
    /// remove them), and the walk skips anything already marked — so the
    /// watcher sees each prefix at most once during the dump, exactly the
    /// intercept rules of `DumpStage`.
    pub fn add_watcher_dumped(
        el: &mut EventLoop,
        me: &Rc<RefCell<Self>>,
        w: RedistWatcher<A>,
        mut sources: Vec<Box<dyn DumpSource<A>>>,
    ) {
        let name = w.name.clone();
        let upstream = me.borrow().upstream.clone();
        me.borrow_mut().add_watcher(w);
        let Some(upstream) = upstream else {
            return; // nothing to look routes up in: no dump possible
        };
        if sources.is_empty() {
            return; // empty table: the live stream is the whole feed
        }
        let me = Rc::downgrade(me);
        el.spawn_background(move |el| {
            let Some(stage) = me.upgrade() else {
                return SliceResult::Done;
            };
            // Collect this slice's deliveries under the stage borrow, emit
            // after releasing it (sinks may call back into the pipeline).
            let mut out: Vec<(RedistSink<A>, RedistOp<A>)> = Vec::new();
            {
                let mut s = stage.borrow_mut();
                let Some(w) = s.watchers.get_mut(&name) else {
                    return SliceResult::Done; // watcher removed: abort walk
                };
                let mut visited = 0;
                while visited < DUMP_SLICE_SIZE {
                    let Some(src) = sources.first_mut() else {
                        break;
                    };
                    let Some(net) = src.next_prefix() else {
                        sources.remove(0);
                        continue;
                    };
                    visited += 1;
                    if w.delivered.contains(&net) {
                        continue; // a live op beat the dump to it
                    }
                    let Some(route) = upstream.borrow().lookup_route(&net) else {
                        continue; // died (or lost arbitration) before we got here
                    };
                    if let Some(copy) = w.filter(&route) {
                        w.delivered.insert(net);
                        let op = RouteOp::Add { net, route: copy };
                        if !w.flow.get() {
                            w.park(op);
                        } else {
                            out.push((w.sink.clone(), op));
                        }
                    }
                }
            }
            for (sink, op) in out {
                sink(el, op);
            }
            if sources.is_empty() {
                SliceResult::Done
            } else {
                SliceResult::Continue
            }
        });
    }

    /// Remove a watcher by name.
    pub fn remove_watcher(&mut self, name: &str) -> bool {
        self.watchers.remove(name).is_some()
    }

    /// Flow control for one watcher (XRL backpressure): `ready = false`
    /// parks deliveries in the watcher's backlog; `ready = true` replays
    /// the backlog in order and goes back to direct delivery.  Unknown
    /// names are ignored.
    ///
    /// The replay re-checks the watcher's flow cell between sends: a
    /// delivery can re-congest the lane it feeds, and the congestion
    /// callback flips the shared cell synchronously — the remainder stays
    /// parked at the watermark instead of blowing through the hard cap.
    pub fn set_watcher_flow(&mut self, el: &mut EventLoop, name: &str, ready: bool) {
        {
            let Some(w) = self.watchers.get_mut(name) else {
                return;
            };
            w.flow.set(ready);
        }
        if !ready {
            return;
        }
        loop {
            let (sink, op, trace) = {
                let Some(w) = self.watchers.get_mut(name) else {
                    return;
                };
                if !w.flow.get() {
                    return; // re-congested mid-replay: keep the rest parked
                }
                let Some((op, trace)) = w.backlog.pop_front() else {
                    return;
                };
                release_drained(&mut w.backlog);
                (w.sink.clone(), op, trace)
            };
            let prev = xtrace::set_current(trace);
            sink(el, op);
            xtrace::set_current(prev);
        }
    }

    /// The shared flow cell for one watcher.  A congestion callback flips
    /// it to `false` synchronously on Xoff (parking takes effect before
    /// the next delivery) and pairs that with a deferred
    /// [`RedistStage::set_watcher_flow`] call for the replay on Xon.
    pub fn watcher_flow(&self, name: &str) -> Option<Rc<Cell<bool>>> {
        self.watchers.get(name).map(|w| w.flow.clone())
    }

    /// Parked deliveries for a paused watcher (diagnostic).
    pub fn watcher_backlog(&self, name: &str) -> usize {
        self.watchers.get(name).map_or(0, |w| w.backlog.len())
    }

    /// Number of registered watchers.
    pub fn watcher_count(&self) -> usize {
        self.watchers.len()
    }

    fn tap(&mut self, el: &mut EventLoop, op: &RouteOp<A, RibRoute<A>>) {
        let net = op.net();
        for w in self.watchers.values_mut() {
            let had = w.delivered.contains(&net);
            let now = op.new_route().and_then(|r| w.filter(r));
            let old_for_delete = |op: &RouteOp<A, RibRoute<A>>| match op {
                RouteOp::Replace { old, .. } | RouteOp::Delete { old, .. } => old.clone(),
                RouteOp::Add { route, .. } => route.clone(),
            };
            match (had, now) {
                (false, Some(new)) => {
                    w.delivered.insert(net);
                    w.emit(el, RouteOp::Add { net, route: new });
                }
                (true, Some(new)) => {
                    // The watcher saw a (filtered) old version; send a
                    // replace carrying the *unfiltered* old route as
                    // identity — watchers key on prefix.
                    w.emit(
                        el,
                        RouteOp::Replace {
                            net,
                            old: old_for_delete(op),
                            new,
                        },
                    );
                }
                (true, None) => {
                    w.delivered.remove(&net);
                    w.emit(
                        el,
                        RouteOp::Delete {
                            net,
                            old: old_for_delete(op),
                        },
                    );
                }
                (false, None) => {}
            }
        }
    }
}

impl<A: Addr> Stage<A, RibRoute<A>> for RedistStage<A>
where
    RibRoute<A>: PolicyTarget,
{
    fn name(&self) -> String {
        "redist".into()
    }

    fn route_op(&mut self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, RibRoute<A>>) {
        self.tap(el, &op);
        if let Some(d) = &self.downstream {
            d.borrow_mut().route_op(el, origin, op);
        }
    }

    fn lookup_route(&self, net: &Prefix<A>) -> Option<RibRoute<A>> {
        self.upstream
            .as_ref()
            .and_then(|u| u.borrow().lookup_route(net))
    }

    fn push(&mut self, el: &mut EventLoop) {
        if let Some(d) = &self.downstream {
            d.borrow_mut().push(el);
        }
    }

    fn set_downstream(&mut self, s: StageRef<A, RibRoute<A>>) {
        RedistStage::set_downstream(self, s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::net::{IpAddr, Ipv4Addr};
    use std::sync::Arc;
    use xorp_net::PathAttributes;
    use xorp_stages::{stage_ref, SinkStage};

    fn route(net: &str, proto: ProtocolId, metric: u32) -> RibRoute<Ipv4Addr> {
        RibRoute::new(
            net.parse().unwrap(),
            Arc::new(PathAttributes::new(IpAddr::V4(
                "192.0.2.1".parse().unwrap(),
            ))),
            metric,
            proto,
        )
    }

    fn add(r: RibRoute<Ipv4Addr>) -> RouteOp<Ipv4Addr, RibRoute<Ipv4Addr>> {
        RouteOp::Add {
            net: r.net,
            route: r,
        }
    }

    #[allow(clippy::type_complexity)]
    fn collect_watcher(
        stage: &mut RedistStage<Ipv4Addr>,
        name: &str,
        from: Option<HashSet<ProtocolId>>,
        policy: FilterBank,
    ) -> Rc<RefCell<Vec<RouteOp<Ipv4Addr, RibRoute<Ipv4Addr>>>>> {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let sink = seen.clone();
        stage.add_watcher(RedistWatcher::new(
            name,
            from,
            policy,
            Rc::new(move |_el, op| sink.borrow_mut().push(op)),
        ));
        seen
    }

    #[test]
    fn passes_stream_through_unmodified() {
        let mut el = EventLoop::new_virtual();
        let mut stage = RedistStage::new();
        let down = stage_ref(SinkStage::new());
        stage.set_downstream(down.clone());
        stage.route_op(
            &mut el,
            OriginId(0),
            add(route("10.0.0.0/8", ProtocolId::Rip, 1)),
        );
        assert_eq!(down.borrow().table.len(), 1);
    }

    #[test]
    fn protocol_filter() {
        let mut el = EventLoop::new_virtual();
        let mut stage = RedistStage::new();
        let seen = collect_watcher(
            &mut stage,
            "rip-to-bgp",
            Some([ProtocolId::Rip].into_iter().collect()),
            FilterBank::accept_by_default(),
        );
        stage.route_op(
            &mut el,
            OriginId(0),
            add(route("10.0.0.0/8", ProtocolId::Rip, 1)),
        );
        stage.route_op(
            &mut el,
            OriginId(0),
            add(route("20.0.0.0/8", ProtocolId::Static, 1)),
        );
        assert_eq!(seen.borrow().len(), 1);
        assert_eq!(seen.borrow()[0].net(), "10.0.0.0/8".parse().unwrap());
    }

    #[test]
    fn policy_filter_modifies_and_rejects() {
        let mut el = EventLoop::new_virtual();
        let mut stage = RedistStage::new();
        let mut policy = FilterBank::accept_by_default();
        policy
            .push_source(
                "tagger",
                "if metric > 5 then reject; endif add-tag 7; accept;",
            )
            .unwrap();
        let seen = collect_watcher(&mut stage, "w", None, policy);
        stage.route_op(
            &mut el,
            OriginId(0),
            add(route("10.0.0.0/8", ProtocolId::Rip, 1)),
        );
        stage.route_op(
            &mut el,
            OriginId(0),
            add(route("20.0.0.0/8", ProtocolId::Rip, 9)),
        );
        let seen = seen.borrow();
        assert_eq!(seen.len(), 1);
        match &seen[0] {
            RouteOp::Add { route, .. } => assert_eq!(route.attrs.tags, vec![7]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn replace_crossing_policy_boundary() {
        // A replace whose old version passed the filter but new fails must
        // surface as a Delete to the watcher (and vice versa).
        let mut el = EventLoop::new_virtual();
        let mut stage = RedistStage::new();
        let mut policy = FilterBank::accept_by_default();
        policy
            .push_source(
                "low-metric-only",
                "if metric > 5 then reject; endif accept;",
            )
            .unwrap();
        let seen = collect_watcher(&mut stage, "w", None, policy);

        let old = route("10.0.0.0/8", ProtocolId::Rip, 1);
        let new_bad = route("10.0.0.0/8", ProtocolId::Rip, 9);
        stage.route_op(&mut el, OriginId(0), add(old.clone()));
        stage.route_op(
            &mut el,
            OriginId(0),
            RouteOp::Replace {
                net: old.net,
                old: old.clone(),
                new: new_bad.clone(),
            },
        );
        // Back below the threshold: reappears as Add.
        stage.route_op(
            &mut el,
            OriginId(0),
            RouteOp::Replace {
                net: old.net,
                old: new_bad,
                new: route("10.0.0.0/8", ProtocolId::Rip, 2),
            },
        );
        let seen = seen.borrow();
        assert!(matches!(seen[0], RouteOp::Add { .. }));
        assert!(matches!(seen[1], RouteOp::Delete { .. }));
        assert!(matches!(seen[2], RouteOp::Add { .. }));
    }

    #[test]
    fn delete_only_for_delivered_routes() {
        let mut el = EventLoop::new_virtual();
        let mut stage = RedistStage::new();
        let mut policy = FilterBank::accept_by_default();
        policy.push_source("none", "reject;").unwrap();
        let seen = collect_watcher(&mut stage, "w", None, policy);
        let r = route("10.0.0.0/8", ProtocolId::Rip, 1);
        stage.route_op(&mut el, OriginId(0), add(r.clone()));
        stage.route_op(&mut el, OriginId(0), RouteOp::Delete { net: r.net, old: r });
        assert!(seen.borrow().is_empty());
    }

    #[test]
    fn paused_watcher_parks_and_resume_replays_in_order() {
        let mut el = EventLoop::new_virtual();
        let mut stage = RedistStage::new();
        let seen = collect_watcher(&mut stage, "w", None, FilterBank::accept_by_default());

        stage.set_watcher_flow(&mut el, "w", false);
        let r1 = route("10.0.0.0/8", ProtocolId::Rip, 1);
        let r2 = route("20.0.0.0/8", ProtocolId::Rip, 1);
        stage.route_op(&mut el, OriginId(0), add(r1.clone()));
        stage.route_op(&mut el, OriginId(0), add(r2));
        stage.route_op(
            &mut el,
            OriginId(0),
            RouteOp::Delete {
                net: r1.net,
                old: r1,
            },
        );
        assert!(seen.borrow().is_empty(), "paused watcher must not deliver");
        assert_eq!(stage.watcher_backlog("w"), 3);

        stage.set_watcher_flow(&mut el, "w", true);
        assert_eq!(stage.watcher_backlog("w"), 0);
        let seen = seen.borrow();
        assert_eq!(seen.len(), 3);
        assert!(matches!(seen[0], RouteOp::Add { .. }));
        assert_eq!(seen[0].net(), "10.0.0.0/8".parse().unwrap());
        assert!(matches!(seen[1], RouteOp::Add { .. }));
        assert_eq!(seen[1].net(), "20.0.0.0/8".parse().unwrap());
        assert!(matches!(seen[2], RouteOp::Delete { .. }));
    }

    /// A sampled route parked behind a congested lane keeps its trace:
    /// the replay re-establishes the context each op was parked under,
    /// and nothing leaks into the ops around it.
    #[test]
    fn parked_ops_replay_under_their_own_trace_context() {
        let mut el = EventLoop::new_virtual();
        let mut stage = RedistStage::new();
        let contexts = Rc::new(RefCell::new(Vec::new()));
        let c = contexts.clone();
        stage.add_watcher(RedistWatcher::new(
            "w",
            None,
            FilterBank::accept_by_default(),
            Rc::new(move |_el, _op| c.borrow_mut().push(xtrace::current())),
        ));
        stage.set_watcher_flow(&mut el, "w", false);
        let sampled = TraceContext {
            trace_id: 7,
            parent_span: 3,
        };
        for (net, ctx) in [
            ("10.0.0.0/8", None),
            ("20.0.0.0/8", Some(sampled)),
            ("30.0.0.0/8", None),
        ] {
            let prev = xtrace::set_current(ctx);
            stage.route_op(&mut el, OriginId(0), add(route(net, ProtocolId::Rip, 1)));
            xtrace::set_current(prev);
        }
        stage.set_watcher_flow(&mut el, "w", true);
        assert_eq!(*contexts.borrow(), [None, Some(sampled), None]);
        assert_eq!(xtrace::current(), None);
    }

    /// One table-sized backlog does not stay resident: park 50,000 ops
    /// behind a paused watcher, resume, and the buffer is given back — with
    /// every op replayed in arrival order.
    #[test]
    fn drained_backlog_releases_its_buffer() {
        let mut el = EventLoop::new_virtual();
        let mut stage = RedistStage::new();
        let seen = collect_watcher(&mut stage, "w", None, FilterBank::accept_by_default());
        stage.set_watcher_flow(&mut el, "w", false);
        let nets: Vec<String> = (0..50_000u32)
            .map(|i| format!("10.{}.{}.0/24", i >> 8, i & 255))
            .collect();
        for net in &nets {
            stage.route_op(&mut el, OriginId(0), add(route(net, ProtocolId::Rip, 1)));
        }
        assert!(stage.watchers["w"].backlog.capacity() >= 50_000);

        stage.set_watcher_flow(&mut el, "w", true);
        assert!(stage.watchers["w"].backlog.capacity() <= 2_048);
        let seen = seen.borrow();
        assert_eq!(seen.len(), nets.len());
        assert!(seen.iter().zip(&nets).all(|(op, net)| {
            matches!(op, RouteOp::Add { .. }) && op.net() == net.parse().unwrap()
        }));
    }

    #[test]
    fn bookkeeping_stays_consistent_across_pause() {
        // A replace arriving while paused must still update the delivered
        // set, so the post-resume stream carries the right op kinds.
        let mut el = EventLoop::new_virtual();
        let mut stage = RedistStage::new();
        let seen = collect_watcher(&mut stage, "w", None, FilterBank::accept_by_default());

        let old = route("10.0.0.0/8", ProtocolId::Rip, 1);
        stage.route_op(&mut el, OriginId(0), add(old.clone()));
        assert_eq!(seen.borrow().len(), 1);

        stage.set_watcher_flow(&mut el, "w", false);
        let new = route("10.0.0.0/8", ProtocolId::Rip, 2);
        stage.route_op(
            &mut el,
            OriginId(0),
            RouteOp::Replace {
                net: old.net,
                old,
                new: new.clone(),
            },
        );
        stage.set_watcher_flow(&mut el, "w", true);
        let seen = seen.borrow();
        assert_eq!(seen.len(), 2);
        match &seen[1] {
            RouteOp::Replace { new: got, .. } => assert_eq!(got.metric, new.metric),
            other => panic!("expected replace, got {other:?}"),
        }
    }

    #[test]
    fn watcher_add_remove() {
        let mut stage: RedistStage<Ipv4Addr> = RedistStage::new();
        let _ = collect_watcher(&mut stage, "w", None, FilterBank::accept_by_default());
        assert_eq!(stage.watcher_count(), 1);
        assert!(stage.remove_watcher("w"));
        assert!(!stage.remove_watcher("w"));
        assert_eq!(stage.watcher_count(), 0);
    }
}
