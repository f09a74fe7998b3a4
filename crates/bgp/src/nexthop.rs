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
//!
//! The stage stores nothing per route ("routes are stored only in the Peer
//! In stages"), only state **per nexthop**, in a [`NexthopIndex`]: the
//! answer its routes were last sent downstream under, whether a query is
//! out, and how many routes name it.  A route's downstream form is the
//! route its op carries, annotated from its nexthop's entry.  When answers
//! move, the stage walks the peering's tables once — the PeerIn and any
//! draining deletion stage, through the cursors a background dump uses —
//! fetching each route with one `lookup_route` through the import filter,
//! as its own `lookup_route` does, so the nexthop it compares is the
//! post-policy one.  The walk visits the whole table however few routes
//! name the moved nexthops, so loading a peering whose K nexthops are
//! answered one event each walks it K times.  An invalidation keeps each
//! nexthop's last answer until the fresh one arrives, for the routes it
//! has and for any that arrive meanwhile.
//!
//! That relay trusts upstream to hold what this stage has been sent, so
//! the stage handles each op as it arrives: every stage above it forwards
//! a change in the same call that records it, and upstream is never ahead.
//! Only a query waits for a deferred event, because the caller holds this
//! stage's borrow and a service may answer at once.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::{Rc, Weak};

use xorp_event::EventLoop;
use xorp_net::{Addr, HeapSize, NexthopIndex, Prefix};
use xorp_profiler::tracing::{self as xtrace, TraceContext};
use xorp_stages::{DumpSource, OriginId, RouteOp, Stage, StageRef};

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

    /// Remove every cached range overlapping `range` (invalidation).  The
    /// cached ranges never overlap one another, so those overlapping
    /// `range` are the ones starting inside it plus at most one starting
    /// before it that contains it: one ordered range scan.
    pub fn remove_overlapping(&mut self, range: &Prefix<A>) {
        let (first, last) = (range.bits(), range.last_addr().to_aligned_bits());
        while let Some((&key, _)) = self.map.range(first..=last).next() {
            self.map.remove(&key);
        }
        if let Some((&key, (cached, _))) = self.map.range(..first).next_back() {
            if cached.contains(range) {
                self.map.remove(&key);
            }
        }
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

/// An answer in [`RangeCache::lookup`]'s form: `Some(Some(m))` resolved at
/// metric m (routes annotated downstream), `Some(None)` unreachable
/// (routes withheld), `None` waiting (routes queued).
type Answer = Option<Option<u32>>;

/// `route` as downstream sees it under `answer`.
fn annotate<A: Addr>(answer: Answer, mut route: BgpRoute<A>) -> Option<BgpRoute<A>> {
    route.metric = answer.flatten()?;
    Some(route)
}

/// The state shared by every route of one peering naming one nexthop.
#[derive(Clone, Copy)]
struct Nexthop {
    /// What this nexthop's routes were last sent downstream under.
    answer: Answer,
    /// `Some` while a query is out; `Some(true)` once an invalidation of
    /// its range has run since it was sent: the answer may have been worked
    /// out before that change, so it is asked again, not cached.
    query: Option<bool>,
}

/// The change a walk sends downstream for one route, and the trace context
/// the route was parked under.
type Diff<A> = (RouteOp<A, BgpRoute<A>>, Option<TraceContext>);

/// Fresh cursors over every table holding a peering's routes.
type TableSources<A> = Box<dyn Fn() -> Vec<Box<dyn DumpSource<A>>>>;

/// The per-peer nexthop resolver stage.
pub struct NexthopResolver<A: Addr> {
    peer: PeerId,
    service: Rc<dyn NexthopService<A>>,
    /// The process-wide answer cache, shared with every other resolver.
    cache: Rc<RefCell<RangeCache<A>>>,
    /// An entry lives while routes name it or a query is out.
    nexthops: NexthopIndex<A, Nexthop>,
    /// The ambient trace context of each sampled route still waiting.
    traces: BTreeMap<Prefix<A>, TraceContext>,
    /// The import filter: where routes are fetched from.
    upstream: Option<StageRef<A, BgpRoute<A>>>,
    /// Where the routes upstream holds are enumerated from when answers
    /// move.
    sources: Option<TableSources<A>>,
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
            nexthops: NexthopIndex::default(),
            traces: BTreeMap::new(),
            upstream: None,
            sources: None,
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

    /// Name the tables upstream's routes live in: `sources` opens a cursor
    /// over each (the PeerIn and every draining deletion stage), so a walk
    /// visits every prefix upstream can answer for.
    pub fn set_sources(&mut self, sources: impl Fn() -> Vec<Box<dyn DumpSource<A>>> + 'static) {
        self.sources = Some(Box::new(sources));
    }

    /// Routes currently queued waiting for answers.
    pub fn waiting_count(&self) -> usize {
        self.nexthops.routes_where(|n| n.answer.is_none())
    }

    /// Routes withheld because their nexthop is unreachable (not counting
    /// those whose nexthop is of the other address family).
    pub fn unreachable_count(&self) -> usize {
        self.nexthops.routes_where(|n| n.answer == Some(None))
    }

    /// Cached answer ranges.
    pub fn cache_len(&self) -> usize {
        self.cache.borrow().len()
    }

    /// Count a route naming `nh`, making the nexthop's entry from the
    /// shared cache if it is new.  Returns the answer the route takes, and
    /// whether a query must go out for `nh`.
    fn index(&mut self, nh: A) -> (Answer, bool) {
        let cache = &self.cache;
        let mut ask = false;
        let entry = self.nexthops.add_route(nh, || {
            let answer = cache.borrow().lookup(nh);
            ask = answer.is_none();
            Nexthop {
                answer,
                query: ask.then_some(false),
            }
        });
        (entry.answer, ask)
    }

    /// Uncount `route`.  Returns the form downstream was sent.
    fn unindex(&mut self, route: BgpRoute<A>) -> Option<BgpRoute<A>> {
        let nh = A::from_ipaddr(route.nexthop())?;
        let sent = annotate(self.nexthops.remove_route(&nh)?.answer, route);
        self.nexthops.prune(&nh, |n| n.query.is_none());
        sent
    }

    /// Walk the peering's tables once, collecting the change downstream
    /// sees for every route whose nexthop's answer moved from
    /// `moved[nexthop]`.
    fn walk(&mut self, moved: &BTreeMap<A, Answer>) -> Vec<Diff<A>> {
        let mut diffs = Vec::new();
        let (Some(upstream), Some(sources)) = (&self.upstream, &self.sources) else {
            return diffs;
        };
        for mut source in sources() {
            while let Some(net) = source.next_prefix() {
                let Some(route) = upstream.borrow().lookup_route(&net) else {
                    continue;
                };
                let Some(nh) = A::from_ipaddr(route.nexthop()) else {
                    continue;
                };
                let (Some(&was), Some(entry)) = (moved.get(&nh), self.nexthops.get(&nh)) else {
                    continue;
                };
                let (before, after) = (
                    annotate(was, route.clone()),
                    annotate(entry.state.answer, route),
                );
                let trace = self.traces.remove(&net);
                diffs.extend(RouteOp::diff(net, before, after).map(|op| (op, trace)));
            }
        }
        diffs
    }

    /// Send the query for `nh`; its answer comes back to `on_answer`.
    fn ask(el: &mut EventLoop, me: &Rc<RefCell<NexthopResolver<A>>>, nh: A) {
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

    /// The asynchronous answer to the query for `asked` arrived: cache it,
    /// record the answer of every nexthop it covers, and walk the routes of
    /// those whose answer moved.  If an invalidation of `asked` ran while
    /// the query was out, the answer may predate the change it reported,
    /// and the RIB has dropped that registration, so a cached copy would
    /// never be invalidated: it is dropped instead, and `asked` settles
    /// from a fresher answer another query has cached meanwhile, or is
    /// asked again while a route still needs it.
    pub fn on_answer(
        el: &mut EventLoop,
        me: &Rc<RefCell<NexthopResolver<A>>>,
        asked: A,
        ans: RibNexthopAnswer<A>,
    ) {
        let (diffs, requery, downstream, origin) = {
            let mut s = me.borrow_mut();
            let s = &mut *s;
            let stale = s
                .nexthops
                .get_mut(&asked)
                .and_then(|n| n.state.query.take())
                == Some(true);
            let covered = if stale {
                Prefix::host(asked)
            } else {
                s.cache.borrow_mut().insert(ans.valid, ans.metric);
                ans.valid
            };
            let (mut moved, mut requery) = (BTreeMap::new(), false);
            for (nh, n) in s.nexthops.range_mut(&covered) {
                let cached = s.cache.borrow().lookup(nh);
                if cached.is_some() {
                    let was = std::mem::replace(&mut n.state.answer, cached);
                    if was != cached && n.routes > 0 {
                        moved.insert(nh, was);
                    }
                } else if n.routes > 0 {
                    // Only a stale answer leaves its nexthop uncovered.
                    (n.state.query, requery) = (Some(false), true);
                }
            }
            s.nexthops.prune(&asked, |n| n.query.is_none());
            let diffs = if moved.is_empty() {
                Vec::new()
            } else {
                s.walk(&moved)
            };
            (diffs, requery, s.downstream.clone(), s.peer.into())
        };
        if requery {
            Self::ask(el, me, asked);
        }
        if let Some(d) = downstream {
            for (op, trace) in diffs {
                // The answer callback runs with no ambient context; a
                // parked sampled route remembered the one it arrived under.
                let prev = xtrace::set_current(trace);
                d.borrow_mut().route_op(el, origin, op);
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
    /// every nexthop inside.  Each keeps its last answer until the fresh
    /// one arrives.  A query already out for a nexthop inside is marked
    /// stale rather than sent twice: the loop may run this before an
    /// answer the RIB worked out ahead of the change.
    pub fn invalidate(el: &mut EventLoop, me: &Rc<RefCell<NexthopResolver<A>>>, range: Prefix<A>) {
        let asks: Vec<A> = {
            let mut s = me.borrow_mut();
            s.cache.borrow_mut().remove_overlapping(&range);
            let mut asks = Vec::new();
            for (nh, n) in s.nexthops.range_mut(&range) {
                match &mut n.state.query {
                    Some(stale) => *stale = true,
                    None => {
                        n.state.query = Some(false);
                        asks.push(nh);
                    }
                }
            }
            asks
        };
        for nh in asks {
            Self::ask(el, me, nh);
        }
    }
}

impl<A: Addr> HeapSize for NexthopResolver<A> {
    /// The per-nexthop entries and the parked routes' trace contexts.  The
    /// shared answer cache is not charged.
    fn heap_size(&self) -> usize {
        let trace = std::mem::size_of::<(Prefix<A>, TraceContext)>();
        self.nexthops.heap_size() + self.traces.len() * trace
    }
}

impl<A: Addr> Stage<A, BgpRoute<A>> for NexthopResolver<A> {
    fn name(&self) -> String {
        format!("nexthop-resolver[{}]", self.peer.0)
    }

    /// Recount `op`'s nexthops and send downstream the change in its form.
    fn route_op(&mut self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, BgpRoute<A>>) {
        let net = op.net();
        let (old, new) = op.into_routes();
        let before = old.and_then(|r| self.unindex(r));
        self.traces.remove(&net);
        let mut ask = None;
        // A nexthop of the other family never resolves: withheld.
        let after = new.and_then(|r| {
            let nh = A::from_ipaddr(r.nexthop())?;
            let (answer, new_query) = self.index(nh);
            ask = new_query.then_some(nh);
            if let (None, Some(trace)) = (answer, xtrace::current()) {
                self.traces.insert(net, trace);
            }
            annotate(answer, r)
        });
        if let (Some(d), Some(op)) = (&self.downstream, RouteOp::diff(net, before, after)) {
            d.borrow_mut().route_op(el, origin, op);
        }
        // The caller holds this stage's borrow and a service may answer at
        // once, so the query goes out from a deferred event.
        if let Some(nh) = ask {
            let me = self.me.as_ref().and_then(Weak::upgrade);
            let me = me.expect("NexthopResolver::attach not called");
            el.defer(move |el| NexthopResolver::ask(el, &me, nh));
        }
    }

    /// Upstream's route, annotated from its nexthop's entry.
    fn lookup_route(&self, net: &Prefix<A>) -> Option<BgpRoute<A>> {
        let route = self.upstream.as_ref()?.borrow().lookup_route(net)?;
        let nh = A::from_ipaddr(route.nexthop())?;
        annotate(self.nexthops.get(&nh)?.state.answer, route)
    }

    fn push(&mut self, el: &mut EventLoop) {
        if let Some(d) = &self.downstream {
            d.borrow_mut().push(el);
        }
    }

    fn set_downstream(&mut self, s: StageRef<A, BgpRoute<A>>) {
        self.downstream = Some(s);
    }

    /// Plumb the upstream neighbor, the import filter routes come from.
    fn set_upstream(&mut self, s: StageRef<A, BgpRoute<A>>) {
        self.upstream = Some(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};
    use xorp_net::{AsPath, PathAttributes, ProtocolId};
    use xorp_stages::{stage_ref, CacheStage, SinkStage, VecSource};

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

    /// The resolver stores no routes, so the rig feeds it the way the
    /// pipeline does: each op lands in an upstream table first, which the
    /// resolver fetches routes from.
    struct Rig {
        el: EventLoop,
        service: Rc<TestService>,
        upstream: Rc<RefCell<SinkStage<Ipv4Addr, R>>>,
        resolver: Rc<RefCell<NexthopResolver<Ipv4Addr>>>,
        cache: Rc<RefCell<CacheStage<Ipv4Addr, R>>>,
        sink: Rc<RefCell<SinkStage<Ipv4Addr, R>>>,
    }

    impl Rig {
        fn send(&mut self, op: RouteOp<Ipv4Addr, R>) {
            self.upstream
                .borrow_mut()
                .route_op(&mut self.el, OriginId(1), op.clone());
            self.resolver
                .borrow_mut()
                .route_op(&mut self.el, OriginId(1), op);
            self.el.run_until_idle();
        }
    }

    /// A cursor over the upstream table's prefixes, as the PeerIn's would
    /// be.
    fn table_sources(
        upstream: &Rc<RefCell<SinkStage<Ipv4Addr, R>>>,
    ) -> impl Fn() -> Vec<Box<dyn DumpSource<Ipv4Addr>>> {
        let upstream = upstream.clone();
        move || {
            let nets = upstream.borrow().table.keys().copied().collect::<Vec<_>>();
            vec![Box::new(VecSource::new(nets)) as Box<dyn DumpSource<Ipv4Addr>>]
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
        let upstream = stage_ref(SinkStage::new());
        resolver.borrow_mut().set_upstream(upstream.clone());
        resolver.borrow_mut().set_sources(table_sources(&upstream));
        let cache = stage_ref(CacheStage::new("nh-out"));
        let sink = stage_ref(SinkStage::new());
        cache.borrow_mut().set_downstream(sink.clone());
        resolver.borrow_mut().set_downstream(cache.clone());
        Rig {
            el,
            service,
            upstream,
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
        other.borrow_mut().route_op(&mut r.el, OriginId(2), op);
        r.el.run_until_idle();
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
