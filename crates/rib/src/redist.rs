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
//!
//! A watcher keeps no per-route state.  Its policy is deterministic, so
//! what it holds for a prefix is the filtered form of the route the stream
//! last carried there, and every replace or delete carries that route: the
//! watcher filters the old route as well as the new one and sends the
//! difference, as BGP's filter banks do.  Its stream is therefore
//! consistent on its own terms — a delete names the route an earlier add
//! delivered, filtered — given a consistent stream in, which the RIB's
//! optional cache stage just above checks.  A watcher that registers after
//! routes flowed is brought up to date by a [`DumpStage`] spliced in front
//! of it: the background dump that serves a BGP peer coming up (§5.3),
//! with its transient sync set, which becomes a pass-through when the walk
//! ends.
//!
//! Each watcher owns one *flow cell* ([`RedistStage::watcher_flow`]): while
//! it is closed the watcher parks its ops in a backlog, its dump parks
//! before the next slice, and the hop's `RouteBatcher`, handed the same
//! cell, stops between frames.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

use xorp_event::EventLoop;
use xorp_net::{release_drained, Addr, HeapSize, Prefix, ProtocolId};
use xorp_policy::{FilterBank, PolicyTarget};
use xorp_profiler::tracing::{self as xtrace, TraceContext};
use xorp_stages::{stage_ref, DumpSource, DumpStage, OriginId, RouteOp, Stage, StageRef};

use crate::RibRoute;

/// Callback receiving the filtered stream for one watcher.
pub type RedistSink<A> = Rc<dyn Fn(&mut EventLoop, RouteOp<A, RibRoute<A>>)>;

/// A route operation as delivered to redistribution sinks.
pub type RedistOp<A> = RouteOp<A, RibRoute<A>>;

/// A redistribution subscription: a terminal stage that filters the
/// stream and hands the difference to its sink.
pub struct RedistWatcher<A: Addr> {
    /// Subscription name (for removal).
    pub name: String,
    /// Only routes from these protocols are considered (`None` = all).
    pub from: Option<HashSet<ProtocolId>>,
    /// Policy filters; may modify routes (set tags, rewrite metrics).
    pub policy: FilterBank,
    /// Where the filtered stream goes.
    pub sink: RedistSink<A>,
    /// The flow cell (XRL backpressure): while it reads `false`, or ops
    /// are still parked, deliveries join the backlog instead of hitting
    /// the sink, and replay in order on resume, each under the trace
    /// context it was parked with (a sampled route must not lose its
    /// trace to a congested lane).  Filtering runs either way; a parked op
    /// is already the difference the watcher will see.
    flow: Rc<Cell<bool>>,
    backlog: VecDeque<(RedistOp<A>, Option<TraceContext>)>,
}

impl<A: Addr> RedistWatcher<A>
where
    RibRoute<A>: PolicyTarget,
{
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
            flow: Rc::new(Cell::new(true)),
            backlog: VecDeque::new(),
        }
    }

    /// The route as this watcher sees it, or `None` if it does not.
    fn filter(&self, mut route: RibRoute<A>) -> Option<RibRoute<A>> {
        let wanted = self
            .from
            .as_ref()
            .map_or(true, |set| set.contains(&route.proto));
        (wanted && self.policy.filter(&mut route)).then_some(route)
    }

    /// Resume delivery and replay the backlog in order, each op under the
    /// trace context it was parked with.  The flow cell is re-checked
    /// between sends: a delivery can re-congest the lane it feeds, and the
    /// congestion callback flips the cell synchronously — the remainder
    /// stays parked at the watermark instead of blowing through the hard
    /// cap.  No borrow of the watcher is held across a send.
    fn resume(me: &RefCell<Self>, el: &mut EventLoop) {
        me.borrow().flow.set(true);
        loop {
            let (sink, op, trace) = {
                let mut w = me.borrow_mut();
                if !w.flow.get() {
                    return;
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
}

impl<A: Addr> Stage<A, RibRoute<A>> for RedistWatcher<A>
where
    RibRoute<A>: PolicyTarget,
{
    fn name(&self) -> String {
        format!("redist-watcher[{}]", self.name)
    }

    fn route_op(&mut self, el: &mut EventLoop, _origin: OriginId, op: RedistOp<A>) {
        let net = op.net();
        let (old, new) = op.into_routes();
        // What the watcher holds is the old route, filtered.
        let old = old.and_then(|r| self.filter(r));
        let new = new.and_then(|r| self.filter(r));
        let op = match (old, new) {
            (None, Some(route)) => RouteOp::Add { net, route },
            (Some(old), Some(new)) => RouteOp::Replace { net, old, new },
            (Some(old), None) => RouteOp::Delete { net, old },
            (None, None) => return,
        };
        if self.flow.get() && self.backlog.is_empty() {
            (self.sink)(el, op);
        } else {
            self.backlog.push_back((op, xtrace::current()));
        }
    }

    fn lookup_route(&self, _net: &Prefix<A>) -> Option<RibRoute<A>> {
        None // terminal stage
    }
}

/// The background dump bringing a late watcher up to date.
type WatcherDump<A> = Rc<RefCell<DumpStage<A, RibRoute<A>>>>;

/// One registered watcher, behind the dump bringing it up to date, if
/// one is still walking.
struct Tap<A: Addr> {
    watcher: Rc<RefCell<RedistWatcher<A>>>,
    dump: Option<WatcherDump<A>>,
}

/// Transparent stage with policy-filtered taps.
pub struct RedistStage<A: Addr> {
    watchers: HashMap<String, Tap<A>>,
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

    /// Add a watcher.  Existing routes are not replayed, and the watcher
    /// must not be told of their later changes either: call this before
    /// routes flow (XORP's behaviour), or use
    /// [`RedistStage::add_watcher_dumped`].
    pub fn add_watcher(&mut self, w: RedistWatcher<A>) {
        self.insert(w, None);
    }

    /// Add a watcher AND stream it the pre-existing table as a background
    /// dump (§5.3) — the late-subscriber path.  `sources` supply the
    /// prefixes to visit (safe-iterator walks of the origin tables); a
    /// [`DumpStage`] spliced in front of the watcher looks each one up
    /// through the upstream stage, so the dump carries the *current*
    /// post-arbitration route, never a stale copy, and its intercept
    /// rules give the watcher each prefix at most once while live churn
    /// overtakes the walk.  The dump reads the watcher's flow cell, so
    /// while the watcher is paused the walk parks between slices.
    pub fn add_watcher_dumped(
        &mut self,
        el: &mut EventLoop,
        w: RedistWatcher<A>,
        sources: Vec<Box<dyn DumpSource<A>>>,
    ) {
        let Some(upstream) = self.upstream.clone().filter(|_| !sources.is_empty()) else {
            // Nothing to look routes up in, or an empty table: the live
            // stream is the whole feed.
            return self.add_watcher(w);
        };
        let mut dump = DumpStage::new(format!("redist[{}]", w.name), upstream);
        for src in sources {
            dump.add_source(src);
        }
        dump.passthrough(OriginId(0));
        dump.set_flow(w.flow.clone());
        let dump = stage_ref(dump);
        self.insert(w, Some(dump.clone()));
        DumpStage::start(el, dump);
    }

    fn insert(&mut self, w: RedistWatcher<A>, dump: Option<WatcherDump<A>>) {
        let name = w.name.clone();
        let watcher = stage_ref(w);
        if let Some(d) = &dump {
            d.borrow_mut().set_downstream(watcher.clone());
        }
        if let Some(old) = self.watchers.insert(name, Tap { watcher, dump }) {
            Self::abort(old);
        }
    }

    fn abort(tap: Tap<A>) {
        if let Some(d) = tap.dump {
            d.borrow_mut().abort(); // its walk ends at the next slice
        }
    }

    /// Remove a watcher by name.
    pub fn remove_watcher(&mut self, name: &str) -> bool {
        self.watchers.remove(name).map(Self::abort).is_some()
    }

    /// Flow control for one watcher (XRL backpressure), its one pause and
    /// resume call: `ready = false` closes the flow cell, parking
    /// deliveries in the backlog and the dump before its next slice;
    /// `ready = true` reopens it, replays the backlog in order and
    /// restarts the dump.  A replay that closes the cell again stops
    /// there, and the dump parks before its first slice.  Unknown names
    /// are ignored.
    pub fn set_watcher_flow(&mut self, el: &mut EventLoop, name: &str, ready: bool) {
        let Some(tap) = self.watchers.get(name) else {
            return;
        };
        if !ready {
            tap.watcher.borrow().flow.set(false);
            return;
        }
        RedistWatcher::resume(&tap.watcher, el);
        if let Some(d) = &tap.dump {
            DumpStage::start(el, d.clone());
        }
    }

    /// One watcher's flow cell.  A congestion callback closes it
    /// synchronously on Xoff, so parking takes effect before the next
    /// delivery.
    pub fn watcher_flow(&self, name: &str) -> Option<Rc<Cell<bool>>> {
        self.watchers
            .get(name)
            .map(|t| t.watcher.borrow().flow.clone())
    }

    /// Parked deliveries for a paused watcher (diagnostic).
    pub fn watcher_backlog(&self, name: &str) -> usize {
        self.watchers
            .get(name)
            .map_or(0, |t| t.watcher.borrow().backlog.len())
    }

    /// Number of registered watchers.
    pub fn watcher_count(&self) -> usize {
        self.watchers.len()
    }

    fn tap(&mut self, el: &mut EventLoop, origin: OriginId, op: &RedistOp<A>) {
        for tap in self.watchers.values_mut() {
            if tap.dump.as_ref().is_some_and(|d| d.borrow().is_done()) {
                tap.dump = None; // the walk ended: deliver straight in
            }
            match &tap.dump {
                Some(d) => d.borrow_mut().route_op(el, origin, op.clone()),
                None => tap.watcher.borrow_mut().route_op(el, origin, op.clone()),
            }
        }
    }
}

impl<A: Addr> HeapSize for RedistStage<A> {
    /// What the watchers hold: parked ops and an in-flight dump's sync
    /// set.  Neither grows with the table once a watcher is flowing.
    fn heap_size(&self) -> usize {
        let slot = std::mem::size_of::<(RedistOp<A>, Option<TraceContext>)>();
        self.watchers
            .values()
            .map(|t| {
                let dump = t.dump.as_ref().filter(|d| !d.borrow().is_done());
                t.watcher.borrow().backlog.capacity() * slot
                    + dump.map_or(0, |d| d.borrow().heap_size())
            })
            .sum()
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
        self.tap(el, origin, &op);
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
        self.downstream = Some(s);
    }

    /// Plumb the upstream neighbor (lookup relay).
    fn set_upstream(&mut self, s: StageRef<A, RibRoute<A>>) {
        self.upstream = Some(s);
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
        let capacity =
            |stage: &RedistStage<Ipv4Addr>| stage.watchers["w"].watcher.borrow().backlog.capacity();
        assert!(capacity(&stage) >= 50_000);

        stage.set_watcher_flow(&mut el, "w", true);
        assert!(capacity(&stage) <= 2_048);
        let seen = seen.borrow();
        assert_eq!(seen.len(), nets.len());
        assert!(seen.iter().zip(&nets).all(|(op, net)| {
            matches!(op, RouteOp::Add { .. }) && op.net() == net.parse().unwrap()
        }));
    }

    #[test]
    fn bookkeeping_stays_consistent_across_pause() {
        // A replace arriving while paused is filtered as it arrives, so
        // the post-resume stream carries the right op kinds.
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

    /// A paused watcher's dump waits between slices instead of parking
    /// the whole table in the backlog, and picks up again on resume.
    #[test]
    fn paused_watcher_suspends_its_dump() {
        let mut el = EventLoop::new_virtual();
        let upstream = stage_ref(SinkStage::new());
        let nets: Vec<Prefix<Ipv4Addr>> = (0..200u32)
            .map(|i| format!("10.0.{i}.0/24").parse().unwrap())
            .collect();
        for net in &nets {
            let r = route(&net.to_string(), ProtocolId::Rip, 1);
            upstream.borrow_mut().route_op(&mut el, OriginId(0), add(r));
        }
        let mut stage = RedistStage::new();
        stage.set_upstream(upstream);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let sink = seen.clone();
        let w = RedistWatcher::new(
            "w",
            None,
            FilterBank::accept_by_default(),
            Rc::new(move |_el, op| sink.borrow_mut().push(op)),
        );
        let source = Box::new(xorp_stages::VecSource::new(nets));
        stage.add_watcher_dumped(&mut el, w, vec![source]);
        stage.set_watcher_flow(&mut el, "w", false);
        el.run_until_idle();
        assert!(seen.borrow().is_empty());
        assert_eq!(stage.watcher_backlog("w"), 0, "the walk waited");
        stage.set_watcher_flow(&mut el, "w", true);
        el.run_until_idle();
        assert_eq!(seen.borrow().len(), 200);
        assert_eq!(stage.heap_size(), 0, "a finished dump holds nothing");
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
