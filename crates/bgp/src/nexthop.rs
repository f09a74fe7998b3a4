//! Nexthop resolver stages (§5.1.1).
//!
//! "The Nexthop Resolver stages talk asynchronously to the RIB to discover
//! metrics to the nexthops in BGP's routes.  As replies arrive, it
//! annotates routes in add_route and lookup_route messages with the
//! relevant IGP metrics.  Routes are held in a queue until the relevant
//! nexthop metrics are received; this avoids the need for the Decision
//! Process to wait on asynchronous operations."
//!
//! Answers follow the §5.2.1 protocol: each reply covers the **largest
//! enclosing subnet not overlaid by a more specific route**, so the
//! resolver caches them in a balanced tree ([`RangeCache`]) of
//! non-overlapping ranges, and the RIB sends invalidation messages when a
//! handed-out range changes.
//!
//! There is one resolver stage per peering but one answer cache per
//! process (as XORP's `NextHopResolver` has): an answer is about the RIB,
//! not about the peer that happened to ask, so a peering whose nexthop
//! falls in a range another peering already learned resolves at once
//! instead of parking its routes for a round trip.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::{Rc, Weak};

use xorp_event::EventLoop;
use xorp_net::{Addr, Prefix};
use xorp_profiler::tracing as xtrace;
use xorp_stages::{OriginId, RouteOp, Stage, StageRef};

use crate::{BgpRoute, PeerId};

/// A RIB answer to "how do I reach this address?" (§5.2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibNexthopAnswer<A: Addr> {
    /// The range this answer is valid for.
    pub valid: Prefix<A>,
    /// IGP metric to the nexthop; `None` means unreachable.
    pub metric: Option<u32>,
}

/// Callback type for asynchronous resolution answers.
pub type AnswerCb<A> = Box<dyn FnOnce(&mut EventLoop, RibNexthopAnswer<A>)>;

/// The RIB (or a stand-in) as seen by nexthop resolvers.  Implementations
/// may answer synchronously or later — the resolver doesn't care, which is
/// the point.
pub trait NexthopService<A: Addr> {
    /// Ask for resolution of `addr`; the callback fires on this loop.
    fn resolve_nexthop(&self, el: &mut EventLoop, addr: A, cb: AnswerCb<A>);
}

/// Balanced-tree cache over non-overlapping answer ranges.
///
/// "Since no largest enclosing subnet ever overlaps any other in the
/// cached data, RIB clients like BGP can use balanced trees for fast route
/// lookup, with attendant performance advantages."
#[derive(Debug, Default)]
pub struct RangeCache<A: Addr> {
    map: BTreeMap<u128, (Prefix<A>, Option<u32>)>,
}

impl<A: Addr> RangeCache<A> {
    /// Empty cache.
    pub fn new() -> Self {
        RangeCache {
            map: BTreeMap::new(),
        }
    }

    /// Look up the cached answer covering `addr`, if any.
    /// `Some(Some(m))` = reachable with metric m; `Some(None)` =
    /// unreachable; `None` = not cached.
    pub fn lookup(&self, addr: A) -> Option<Option<u32>> {
        let bits = addr.to_aligned_bits();
        let (_, (prefix, metric)) = self.map.range(..=bits).next_back()?;
        if prefix.contains_addr(addr) {
            Some(*metric)
        } else {
            None
        }
    }

    /// Insert an answer, evicting anything it overlaps (stale ranges).
    pub fn insert(&mut self, valid: Prefix<A>, metric: Option<u32>) {
        self.remove_overlapping(&valid);
        self.map.insert(valid.bits(), (valid, metric));
    }

    /// Remove every cached range overlapping `range` (invalidation).
    pub fn remove_overlapping(&mut self, range: &Prefix<A>) {
        self.map.retain(|_, (p, _)| !p.overlaps(range));
    }

    /// Number of cached ranges.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeldState {
    /// Metric known; annotated route is downstream.
    Resolved(u32),
    /// Nexthop unreachable; route withheld.
    Unreachable,
    /// Waiting for a RIB answer; route queued.
    Waiting,
}

struct Held<A: Addr> {
    route: BgpRoute<A>,
    state: HeldState,
    /// Ambient trace context the route arrived under, re-established
    /// when an asynchronous answer releases it downstream.
    trace: Option<xtrace::TraceContext>,
}

/// The per-peer nexthop resolver stage.
pub struct NexthopResolver<A: Addr> {
    peer: PeerId,
    service: Rc<dyn NexthopService<A>>,
    /// The process-wide answer cache, shared with every other resolver.
    cache: Rc<RefCell<RangeCache<A>>>,
    held: BTreeMap<Prefix<A>, Held<A>>,
    by_nexthop: BTreeMap<A, BTreeSet<Prefix<A>>>,
    /// Nexthops with a query out, each marked `true` once an invalidation
    /// of its range has run since the query was sent: the answer may have
    /// been worked out before that change, so it is asked again, not cached.
    pending_requests: BTreeMap<A, bool>,
    downstream: Option<StageRef<A, BgpRoute<A>>>,
    /// Weak self-handle for async callbacks; set by [`NexthopResolver::attach`].
    me: Option<Weak<RefCell<NexthopResolver<A>>>>,
}

impl<A: Addr> NexthopResolver<A> {
    /// Build a resolver for `peer` backed by `service`, caching answers in
    /// `cache` (one per process; see the module docs).
    pub fn new(
        peer: PeerId,
        service: Rc<dyn NexthopService<A>>,
        cache: Rc<RefCell<RangeCache<A>>>,
    ) -> Self {
        NexthopResolver {
            peer,
            service,
            cache,
            held: BTreeMap::new(),
            by_nexthop: BTreeMap::new(),
            pending_requests: BTreeMap::new(),
            downstream: None,
            me: None,
        }
    }

    /// Record the shared handle this resolver lives in, so asynchronous
    /// answers can find their way back.  Must be called after wrapping in
    /// `Rc<RefCell<_>>`.
    pub fn attach(me: &Rc<RefCell<NexthopResolver<A>>>) {
        me.borrow_mut().me = Some(Rc::downgrade(me));
    }

    /// Plumb the downstream neighbor.
    pub fn set_downstream(&mut self, s: StageRef<A, BgpRoute<A>>) {
        self.downstream = Some(s);
    }

    /// Routes currently queued waiting for answers.
    pub fn waiting_count(&self) -> usize {
        self.held
            .values()
            .filter(|h| h.state == HeldState::Waiting)
            .count()
    }

    /// Routes withheld because their nexthop is unreachable.
    pub fn unreachable_count(&self) -> usize {
        self.held
            .values()
            .filter(|h| h.state == HeldState::Unreachable)
            .count()
    }

    /// Cached answer ranges.
    pub fn cache_len(&self) -> usize {
        self.cache.borrow().len()
    }

    fn view(&self, net: &Prefix<A>) -> Option<BgpRoute<A>> {
        self.held.get(net).and_then(|h| match h.state {
            HeldState::Resolved(m) => Some(annotate(&h.route, m)),
            _ => None,
        })
    }

    fn index(&mut self, nh: A, net: Prefix<A>) {
        self.by_nexthop.entry(nh).or_default().insert(net);
    }

    fn unindex(&mut self, nh: A, net: &Prefix<A>) {
        if let Some(set) = self.by_nexthop.get_mut(&nh) {
            set.remove(net);
            if set.is_empty() {
                self.by_nexthop.remove(&nh);
            }
        }
    }

    /// Re-derive a held route's state from the cache; requests resolution
    /// when unknown.  Returns whether a request must be issued for `nh`.
    fn classify(&mut self, nh: A) -> (HeldState, bool) {
        let cached = self.cache.borrow().lookup(nh);
        match cached {
            Some(Some(m)) => (HeldState::Resolved(m), false),
            Some(None) => (HeldState::Unreachable, false),
            None => {
                let request = !self.pending_requests.contains_key(&nh);
                if request {
                    self.pending_requests.insert(nh, false);
                }
                (HeldState::Waiting, request)
            }
        }
    }

    fn issue_request(el: &mut EventLoop, me: &Rc<RefCell<NexthopResolver<A>>>, nh: A) {
        let weak = Rc::downgrade(me);
        let service = me.borrow().service.clone();
        service.resolve_nexthop(
            el,
            nh,
            Box::new(move |el, ans| {
                if let Some(rc) = weak.upgrade() {
                    NexthopResolver::on_answer(el, &rc, nh, ans);
                }
            }),
        );
    }

    /// The asynchronous answer to the query for `asked` arrived: cache it
    /// and re-evaluate every held route whose nexthop the answer covers.
    /// If an invalidation of `asked` ran while the query was out, the
    /// answer may predate the change it reported, and the RIB has dropped
    /// that registration, so a cached copy would never be invalidated: it
    /// is dropped instead, and asked again while a route still needs it.
    pub fn on_answer(
        el: &mut EventLoop,
        me: &Rc<RefCell<NexthopResolver<A>>>,
        asked: A,
        ans: RibNexthopAnswer<A>,
    ) {
        let stale = me.borrow_mut().pending_requests.remove(&asked) == Some(true);
        if stale {
            let requery = {
                let mut s = me.borrow_mut();
                let wanted =
                    s.by_nexthop.contains_key(&asked) && s.cache.borrow().lookup(asked).is_none();
                if wanted {
                    s.pending_requests.insert(asked, false);
                }
                wanted
            };
            if requery {
                Self::issue_request(el, me, asked);
            }
            return;
        }
        let (diffs, downstream, origin) = {
            let mut s = me.borrow_mut();
            s.cache.borrow_mut().insert(ans.valid, ans.metric);
            let affected: Vec<Prefix<A>> = s
                .by_nexthop
                .iter()
                .filter(|(nh, _)| ans.valid.contains_addr(**nh))
                .flat_map(|(_, nets)| nets.iter().copied())
                .collect();
            let mut diffs = Vec::new();
            for net in affected {
                let before = s.view(&net);
                let nh = s
                    .held
                    .get(&net)
                    .and_then(|h| A::from_ipaddr(h.route.nexthop()));
                if let Some(nh) = nh {
                    let (state, _) = s.classify(nh);
                    if let Some(h) = s.held.get_mut(&net) {
                        h.state = state;
                    }
                }
                let after = s.view(&net);
                if before != after {
                    let trace = s.held.get(&net).and_then(|h| h.trace);
                    diffs.push((net, before, after, trace));
                }
            }
            (diffs, s.downstream.clone(), OriginId(s.peer.0))
        };
        if let Some(d) = downstream {
            for (net, before, after, trace) in diffs {
                // The answer callback runs with no ambient context; the
                // held route remembered the one it arrived under.
                let prev = xtrace::set_current(trace);
                emit_diff(el, &d, origin, net, before, after);
                xtrace::set_current(prev);
            }
            // The answer is a batch boundary: the routes it released were
            // decoupled from their UPDATE's push when they were held, so
            // a coalescing downstream (the fanout) would otherwise hold a
            // partial batch forever waiting for traffic that may never come.
            d.borrow_mut().push(el);
        }
    }

    /// The RIB invalidated a handed-out range: evict it and re-query for
    /// every nexthop inside.  Routes keep their last annotation until the
    /// fresh answer arrives.  A query already out for a nexthop inside is
    /// marked stale rather than sent twice: the loop may run this before
    /// an answer the RIB worked out ahead of the change.
    pub fn invalidate(el: &mut EventLoop, me: &Rc<RefCell<NexthopResolver<A>>>, range: Prefix<A>) {
        let requests: Vec<A> = {
            let mut s = me.borrow_mut();
            s.cache.borrow_mut().remove_overlapping(&range);
            for (_, stale) in s
                .pending_requests
                .iter_mut()
                .filter(|(nh, _)| range.contains_addr(**nh))
            {
                *stale = true;
            }
            let requests: Vec<A> = s
                .by_nexthop
                .keys()
                .filter(|nh| range.contains_addr(**nh))
                .filter(|nh| !s.pending_requests.contains_key(nh))
                .copied()
                .collect();
            for nh in &requests {
                s.pending_requests.insert(*nh, false);
            }
            requests
        };
        for nh in requests {
            Self::issue_request(el, me, nh);
        }
    }

    /// Stage-entry point used by the pipeline plumbing: the shared-handle
    /// version of `route_op` that can issue async requests.
    pub fn route_op_rc(
        el: &mut EventLoop,
        me: &Rc<RefCell<NexthopResolver<A>>>,
        origin: OriginId,
        op: RouteOp<A, BgpRoute<A>>,
    ) {
        let net = op.net();
        let (diff, downstream, request) = {
            let mut s = me.borrow_mut();
            let before = s.view(&net);
            // Remove the old record.
            if let Some(old) = s.held.remove(&net) {
                if let Some(nh) = A::from_ipaddr(old.route.nexthop()) {
                    s.unindex(nh, &net);
                }
            }
            let mut request = None;
            if let Some(new) = op.new_route().cloned() {
                let state = match A::from_ipaddr(new.nexthop()) {
                    None => HeldState::Unreachable, // family mismatch
                    Some(nh) => {
                        s.index(nh, net);
                        let (state, need_request) = s.classify(nh);
                        if need_request {
                            request = Some(nh);
                        }
                        state
                    }
                };
                s.held.insert(
                    net,
                    Held {
                        route: new,
                        state,
                        trace: xtrace::current(),
                    },
                );
            }
            let after = s.view(&net);
            (
                (before != after).then_some((before, after)),
                s.downstream.clone(),
                request,
            )
        };
        if let Some((before, after)) = diff {
            if let Some(d) = &downstream {
                emit_diff(el, d, origin, net, before, after);
            }
        }
        if let Some(nh) = request {
            Self::issue_request(el, me, nh);
        }
    }
}

fn annotate<A: Addr>(route: &BgpRoute<A>, metric: u32) -> BgpRoute<A> {
    let mut r = route.clone();
    r.metric = metric;
    r
}

fn emit_diff<A: Addr>(
    el: &mut EventLoop,
    d: &StageRef<A, BgpRoute<A>>,
    origin: OriginId,
    net: Prefix<A>,
    before: Option<BgpRoute<A>>,
    after: Option<BgpRoute<A>>,
) {
    match (before, after) {
        (None, Some(new)) => d
            .borrow_mut()
            .route_op(el, origin, RouteOp::Add { net, route: new }),
        (Some(old), None) => d
            .borrow_mut()
            .route_op(el, origin, RouteOp::Delete { net, old }),
        (Some(old), Some(new)) if old != new => {
            d.borrow_mut()
                .route_op(el, origin, RouteOp::Replace { net, old, new })
        }
        _ => {}
    }
}

impl<A: Addr> Stage<A, BgpRoute<A>> for NexthopResolver<A> {
    fn name(&self) -> String {
        format!("nexthop-resolver[{}]", self.peer.0)
    }

    fn route_op(&mut self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, BgpRoute<A>>) {
        // Re-enter through the shared handle so async requests can be
        // issued; `attach` must have been called.
        let me = self
            .me
            .as_ref()
            .and_then(Weak::upgrade)
            .expect("NexthopResolver::attach not called");
        // We are inside a borrow_mut made by the caller; to avoid a double
        // borrow, defer to the event loop (still the same logical event —
        // a deferred closure runs before any queued external event only if
        // queued first; acceptable and keeps the one-borrow discipline).
        // The deferral would strip a sampled route of its ambient trace
        // context, so carry it across explicitly.
        let trace = xtrace::current();
        el.defer(move |el| {
            let op = op;
            let prev = xtrace::set_current(trace);
            NexthopResolver::route_op_rc(el, &me, origin, op);
            xtrace::set_current(prev);
        });
    }

    fn lookup_route(&self, net: &Prefix<A>) -> Option<BgpRoute<A>> {
        self.view(net)
    }

    fn push(&mut self, el: &mut EventLoop) {
        // Deferred like route_op, so a push never overtakes the ops that
        // preceded it in the same batch.
        let me = self
            .me
            .as_ref()
            .and_then(Weak::upgrade)
            .expect("NexthopResolver::attach not called");
        el.defer(move |el| {
            let d = me.borrow().downstream.clone();
            if let Some(d) = d {
                d.borrow_mut().push(el);
            }
        });
    }

    fn set_downstream(&mut self, s: StageRef<A, BgpRoute<A>>) {
        NexthopResolver::set_downstream(self, s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};
    use xorp_net::{AsPath, PathAttributes, ProtocolId};
    use xorp_stages::{stage_ref, CacheStage, SinkStage};

    type R = BgpRoute<Ipv4Addr>;

    fn route(net: &str, nh: &str) -> R {
        let mut attrs = PathAttributes::new(IpAddr::V4(nh.parse().unwrap()));
        attrs.as_path = AsPath::from_sequence([65001]);
        R::new(net.parse().unwrap(), attrs.shared(), 0, ProtocolId::Ebgp)
    }

    fn add(r: R) -> RouteOp<Ipv4Addr, R> {
        RouteOp::Add {
            net: r.net,
            route: r,
        }
    }

    /// A test service: a table of (range, metric) answers, optionally
    /// withholding answers until released.
    struct TestService {
        answers: RefCell<BTreeMap<Prefix<Ipv4Addr>, Option<u32>>>,
        parked: RefCell<Vec<(Ipv4Addr, AnswerCb<Ipv4Addr>)>>,
        defer: std::cell::Cell<bool>,
        requests: std::cell::Cell<u32>,
    }

    impl TestService {
        fn new(entries: &[(&str, Option<u32>)]) -> Rc<TestService> {
            Rc::new(TestService {
                answers: RefCell::new(
                    entries
                        .iter()
                        .map(|(p, m)| (p.parse().unwrap(), *m))
                        .collect(),
                ),
                parked: RefCell::new(Vec::new()),
                defer: std::cell::Cell::new(false),
                requests: std::cell::Cell::new(0),
            })
        }

        fn answer_for(&self, addr: Ipv4Addr) -> RibNexthopAnswer<Ipv4Addr> {
            for (p, m) in self.answers.borrow().iter() {
                if p.contains_addr(addr) {
                    return RibNexthopAnswer {
                        valid: *p,
                        metric: *m,
                    };
                }
            }
            RibNexthopAnswer {
                valid: Prefix::host(addr),
                metric: None,
            }
        }

        /// Work out every parked answer from the table as it stands now,
        /// for delivery later: an answer in flight while the RIB changes.
        fn take_answers(&self) -> Vec<(AnswerCb<Ipv4Addr>, RibNexthopAnswer<Ipv4Addr>)> {
            let parked: Vec<_> = self.parked.borrow_mut().drain(..).collect();
            parked
                .into_iter()
                .map(|(addr, cb)| (cb, self.answer_for(addr)))
                .collect()
        }

        fn release_all(&self, el: &mut EventLoop) {
            for (cb, ans) in self.take_answers() {
                cb(el, ans);
            }
        }
    }

    impl NexthopService<Ipv4Addr> for TestService {
        fn resolve_nexthop(&self, el: &mut EventLoop, addr: Ipv4Addr, cb: AnswerCb<Ipv4Addr>) {
            self.requests.set(self.requests.get() + 1);
            if self.defer.get() {
                self.parked.borrow_mut().push((addr, cb));
            } else {
                cb(el, self.answer_for(addr));
            }
        }
    }

    struct Rig {
        el: EventLoop,
        service: Rc<TestService>,
        resolver: Rc<RefCell<NexthopResolver<Ipv4Addr>>>,
        cache: Rc<RefCell<CacheStage<Ipv4Addr, R>>>,
        sink: Rc<RefCell<SinkStage<Ipv4Addr, R>>>,
    }

    impl Rig {
        fn send(&mut self, op: RouteOp<Ipv4Addr, R>) {
            NexthopResolver::route_op_rc(&mut self.el, &self.resolver, OriginId(1), op);
        }
    }

    fn rig(entries: &[(&str, Option<u32>)]) -> Rig {
        let el = EventLoop::new_virtual();
        let service = TestService::new(entries);
        let resolver = stage_ref(NexthopResolver::new(
            PeerId(1),
            service.clone(),
            Rc::new(RefCell::new(RangeCache::new())),
        ));
        NexthopResolver::attach(&resolver);
        let cache = stage_ref(CacheStage::new("nh-out"));
        let sink = stage_ref(SinkStage::new());
        cache.borrow_mut().set_downstream(sink.clone());
        resolver.borrow_mut().set_downstream(cache.clone());
        Rig {
            el,
            service,
            resolver,
            cache,
            sink,
        }
    }

    #[test]
    fn synchronous_resolution_annotates_metric() {
        let mut r = rig(&[("192.168.0.0/16", Some(5))]);
        r.send(add(route("10.0.0.0/8", "192.168.1.1")));
        let sink = r.sink.borrow();
        let fwd = &sink.table[&"10.0.0.0/8".parse().unwrap()];
        assert_eq!(fwd.metric, 5);
        drop(sink);
        assert!(r.cache.borrow().violations().is_empty());
    }

    #[test]
    fn unreachable_nexthop_withholds_route() {
        let mut r = rig(&[("192.168.0.0/16", None)]);
        r.send(add(route("10.0.0.0/8", "192.168.1.1")));
        assert!(r.sink.borrow().table.is_empty());
        assert_eq!(r.resolver.borrow().unreachable_count(), 1);
    }

    #[test]
    fn queued_until_answer_arrives() {
        let mut r = rig(&[("192.168.0.0/16", Some(7))]);
        r.service.defer.set(true);
        r.send(add(route("10.0.0.0/8", "192.168.1.1")));
        r.send(add(route("20.0.0.0/8", "192.168.1.2")));
        assert!(r.sink.borrow().table.is_empty());
        assert_eq!(r.resolver.borrow().waiting_count(), 2);
        // Two distinct nexthops, no answers yet: two requests in flight.
        assert_eq!(r.service.requests.get(), 2);
        let service = r.service.clone();
        service.release_all(&mut r.el);
        // One answer covers the whole /16: both routes release.
        assert_eq!(r.sink.borrow().table.len(), 2);
        assert!(r.cache.borrow().violations().is_empty());
        // A third nexthop inside the answered range is a cache hit — the
        // §5.2.1 point: no further RIB request.
        let requests = r.service.requests.get();
        r.send(add(route("30.0.0.0/8", "192.168.3.3")));
        assert_eq!(r.service.requests.get(), requests);
        assert_eq!(r.sink.borrow().table.len(), 3);
    }

    #[test]
    fn cache_hit_avoids_second_request() {
        let mut r = rig(&[("192.168.0.0/16", Some(7))]);
        r.send(add(route("10.0.0.0/8", "192.168.1.1")));
        assert_eq!(r.service.requests.get(), 1);
        // Second route, different nexthop inside the same answered range.
        r.send(add(route("20.0.0.0/8", "192.168.200.200")));
        assert_eq!(r.service.requests.get(), 1); // cache hit
        assert_eq!(r.sink.borrow().table.len(), 2);
    }

    /// The answer cache belongs to the process, not the peering: a second
    /// peering whose nexthop lies in a range the first already learned
    /// passes its routes straight through — no request, and nothing parked
    /// that a withdrawal could overtake before the RIB replies.
    #[test]
    fn second_peering_resolves_from_the_shared_cache() {
        let mut r = rig(&[("192.168.0.0/16", Some(7))]);
        r.send(add(route("10.0.0.0/8", "192.168.1.1")));
        assert_eq!(r.service.requests.get(), 1);

        let cache = r.resolver.borrow().cache.clone();
        let other = stage_ref(NexthopResolver::new(PeerId(2), r.service.clone(), cache));
        NexthopResolver::attach(&other);
        let sink = stage_ref(SinkStage::new());
        other.borrow_mut().set_downstream(sink.clone());
        // Were it to ask, the answer would not come.
        r.service.defer.set(true);
        let op = add(route("20.0.0.0/8", "192.168.200.200"));
        NexthopResolver::route_op_rc(&mut r.el, &other, OriginId(2), op);
        assert_eq!(r.service.requests.get(), 1);
        assert_eq!(other.borrow().waiting_count(), 0);
        assert_eq!(
            sink.borrow().table[&"20.0.0.0/8".parse().unwrap()].metric,
            7
        );

        // An invalidation through either peering evicts it for both.
        NexthopResolver::invalidate(&mut r.el, &other, "192.168.0.0/16".parse().unwrap());
        assert_eq!(r.resolver.borrow().cache_len(), 0);
    }

    #[test]
    fn delete_while_waiting_cancels() {
        let mut r = rig(&[("192.168.0.0/16", Some(7))]);
        r.service.defer.set(true);
        let rt = route("10.0.0.0/8", "192.168.1.1");
        r.send(add(rt.clone()));
        r.send(RouteOp::Delete {
            net: rt.net,
            old: rt,
        });
        let service = r.service.clone();
        service.release_all(&mut r.el);
        // Nothing downstream: the parked route was cancelled.
        assert!(r.sink.borrow().table.is_empty());
        assert!(r.sink.borrow().log.is_empty());
        assert!(r.cache.borrow().violations().is_empty());
    }

    #[test]
    fn invalidation_requeries_and_updates_metric() {
        let mut r = rig(&[("192.168.0.0/16", Some(5))]);
        r.send(add(route("10.0.0.0/8", "192.168.1.1")));
        assert_eq!(
            r.sink.borrow().table[&"10.0.0.0/8".parse().unwrap()].metric,
            5
        );
        // The IGP topology changes: metric becomes 50.
        r.service
            .answers
            .borrow_mut()
            .insert("192.168.0.0/16".parse().unwrap(), Some(50));
        NexthopResolver::invalidate(&mut r.el, &r.resolver, "192.168.0.0/16".parse().unwrap());
        assert_eq!(
            r.sink.borrow().table[&"10.0.0.0/8".parse().unwrap()].metric,
            50
        );
        assert!(r.cache.borrow().violations().is_empty());
    }

    /// A process's loop may run an XRL response and a request from the
    /// same peer in either order, so the RIB's invalidation of a range can
    /// reach the resolver before an answer the RIB worked out ahead of the
    /// change.  The RIB answers (metric 5), changes (metric 50) and
    /// invalidates the range; the answer is delivered after the
    /// invalidation (overtaken) or before it (in order).  Either way the
    /// cache ends on the RIB's current answer, and the overtaken order
    /// costs at most one extra query.
    #[test]
    fn answer_overtaking_an_invalidation_converges_to_the_rib() {
        let range: Prefix<Ipv4Addr> = "192.168.0.0/16".parse().unwrap();
        let nh: Ipv4Addr = "192.168.1.1".parse().unwrap();
        let mut queries = Vec::new();
        for overtaken in [false, true] {
            let mut r = rig(&[("192.168.0.0/16", Some(5))]);
            r.service.defer.set(true);
            r.send(add(route("10.0.0.0/8", "192.168.1.1")));
            let service = r.service.clone();
            let answers = service.take_answers();
            service.answers.borrow_mut().insert(range, Some(50));
            if overtaken {
                NexthopResolver::invalidate(&mut r.el, &r.resolver, range);
            }
            for (cb, ans) in answers {
                assert_eq!(ans.metric, Some(5));
                cb(&mut r.el, ans);
            }
            if !overtaken {
                NexthopResolver::invalidate(&mut r.el, &r.resolver, range);
            }
            service.release_all(&mut r.el); // the re-query
            assert_eq!(
                r.resolver.borrow().cache.borrow().lookup(nh),
                Some(Some(50))
            );
            assert_eq!(
                r.sink.borrow().table[&"10.0.0.0/8".parse().unwrap()].metric,
                50
            );
            assert!(r.service.parked.borrow().is_empty());
            assert!(r.cache.borrow().violations().is_empty());
            queries.push(r.service.requests.get());
        }
        assert!(
            queries[1] <= queries[0] + 1,
            "in order {} queries, overtaken {}",
            queries[0],
            queries[1]
        );
    }

    /// The same overtaken answer after its only route was withdrawn: the
    /// shared cache must not keep it for the next peering to find, and no
    /// route needs it asked again.
    #[test]
    fn overtaken_answer_for_a_withdrawn_route_is_dropped() {
        let range: Prefix<Ipv4Addr> = "192.168.0.0/16".parse().unwrap();
        let mut r = rig(&[("192.168.0.0/16", Some(5))]);
        r.service.defer.set(true);
        let rt = route("10.0.0.0/8", "192.168.1.1");
        r.send(add(rt.clone()));
        r.send(RouteOp::Delete {
            net: rt.net,
            old: rt,
        });
        let service = r.service.clone();
        let answers = service.take_answers();
        service.answers.borrow_mut().insert(range, Some(50));
        NexthopResolver::invalidate(&mut r.el, &r.resolver, range);
        for (cb, ans) in answers {
            cb(&mut r.el, ans);
        }
        assert_eq!(r.resolver.borrow().cache_len(), 0);
        assert_eq!(r.service.requests.get(), 1);
    }

    #[test]
    fn invalidation_to_unreachable_withdraws() {
        let mut r = rig(&[("192.168.0.0/16", Some(5))]);
        r.send(add(route("10.0.0.0/8", "192.168.1.1")));
        assert_eq!(r.sink.borrow().table.len(), 1);
        r.service
            .answers
            .borrow_mut()
            .insert("192.168.0.0/16".parse().unwrap(), None);
        NexthopResolver::invalidate(&mut r.el, &r.resolver, "192.168.0.0/16".parse().unwrap());
        assert!(r.sink.borrow().table.is_empty());
        assert_eq!(r.resolver.borrow().unreachable_count(), 1);
        assert!(r.cache.borrow().violations().is_empty());
    }

    #[test]
    fn lookup_returns_annotated_view() {
        let mut r = rig(&[("192.168.0.0/16", Some(9))]);
        let rt = route("10.0.0.0/8", "192.168.1.1");
        r.send(add(rt.clone()));
        let got = r.resolver.borrow().lookup_route(&rt.net).unwrap();
        assert_eq!(got.metric, 9);
        // Unresolved/unreachable routes are invisible.
        let mut r2 = rig(&[("192.168.0.0/16", None)]);
        let rt2 = route("10.0.0.0/8", "192.168.1.1");
        r2.send(add(rt2.clone()));
        assert!(r2.resolver.borrow().lookup_route(&rt2.net).is_none());
    }

    #[test]
    fn range_cache_semantics() {
        let mut c: RangeCache<Ipv4Addr> = RangeCache::new();
        c.insert("10.0.0.0/8".parse().unwrap(), Some(1));
        c.insert("10.128.0.0/9".parse().unwrap(), Some(2)); // overlap evicts
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup("10.200.0.0".parse().unwrap()), Some(Some(2)));
        assert_eq!(c.lookup("10.1.0.0".parse().unwrap()), None); // evicted
        c.insert("20.0.0.0/8".parse().unwrap(), None);
        assert_eq!(c.lookup("20.1.1.1".parse().unwrap()), Some(None));
        c.remove_overlapping(&"20.0.0.0/6".parse().unwrap());
        assert_eq!(c.lookup("20.1.1.1".parse().unwrap()), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn replace_changes_nexthop_family_of_request() {
        let mut r = rig(&[("192.168.0.0/16", Some(1)), ("172.16.0.0/12", Some(2))]);
        let old = route("10.0.0.0/8", "192.168.1.1");
        r.send(add(old.clone()));
        let new = route("10.0.0.0/8", "172.16.0.1");
        r.send(RouteOp::Replace {
            net: old.net,
            old,
            new,
        });
        assert_eq!(
            r.sink.borrow().table[&"10.0.0.0/8".parse().unwrap()].metric,
            2
        );
        assert!(r.cache.borrow().violations().is_empty());
    }
}
