//! The ExtInt stage: composing external (EGP) routes with internal (IGP)
//! routes (§5.2).
//!
//! External routes — BGP's — name a nexthop router that may be many hops
//! away; they are only usable if the *internal* side of the RIB can route
//! to that nexthop.  This stage:
//!
//! * holds unresolvable external routes back, releasing them downstream
//!   when an internal route covering their nexthop appears;
//! * withdraws external routes downstream when they lose resolution;
//! * arbitrates prefix conflicts between the two sides by administrative
//!   distance (internal wins ties).
//!
//! Resolved external routes are annotated with the egress interface of the
//! internal route that resolves them.
//!
//! # What the stage stores
//!
//! Nothing per external route.  Whether and how an external route
//! resolves depends only on its nexthop address, and a full BGP table has
//! a handful of nexthops, so the resolution state is kept **per nexthop**
//! in a [`NexthopIndex`]: the egress interface currently recorded for it
//! (`via`) and how many external routes name it.  An external route's
//! downstream form is the route carried by the op itself, annotated with
//! its nexthop's recorded `via`.  When internal changes move some
//! nexthops' `via`, the stage walks the external origin tables once,
//! fetching each prefix's route with an exact `lookup_route` on the
//! external side upstream and re-sending those whose nexthop moved —
//! "routes are stored only in the origin stages".
//!
//! The one table it does keep is `int_mirror`, a copy of the internal
//! side.  It is O(IGP routes), not O(BGP routes), and it is the *merged*
//! longest-match view of the internal side that no single origin table
//! has: resolving a nexthop needs longest-match, and the stage contract's
//! `lookup_route` is exact-match only.
//!
//! What the stage sends downstream is the final table, and the stage is
//! the [`PrefixView`] the Register stage answers Figure 8 from.  Internal
//! prefixes are all final; external ones are all final while no route is
//! held back, and none is while none resolves.  Only in between are a
//! range's external prefixes checked one by one, up to the first final one.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;

use xorp_event::EventLoop;
use xorp_net::{Addr, HeapSize, NexthopIndex, PatriciaTrie, Prefix};
use xorp_stages::{OriginId, RouteOp, Stage, StageRef};

use crate::origin::OriginTable;
use crate::register::PrefixView;
use crate::{better, is_external, RibRoute};

/// How a resolvable nexthop is reached: the covering internal route's
/// `ifname` (which that route may itself lack).
type Via = Option<Arc<str>>;

/// `route` as downstream sees it under a nexthop's `via`, or `None` while
/// held back.
fn annotate<A: Addr>(via: &Option<Via>, mut route: RibRoute<A>) -> Option<RibRoute<A>> {
    route.ifname = via.clone()?;
    Some(route)
}

/// Longest-match `nh` on the internal side, counting the query.
fn resolve<A: Addr>(
    int_mirror: &PatriciaTrie<A, RibRoute<A>>,
    lookups: &mut u64,
    nh: A,
) -> Option<Via> {
    *lookups += 1;
    let (_, route) = int_mirror.longest_match(nh)?;
    Some(route.ifname.clone())
}

/// The external/internal composition stage.
pub struct ExtIntStage<A: Addr> {
    /// The merged internal side, for longest-match nexthop resolution and
    /// same-prefix arbitration.
    int_mirror: PatriciaTrie<A, RibRoute<A>>,
    /// Per-nexthop resolution: the annotation downstream currently holds
    /// for the nexthop's routes, `None` while no internal route covers the
    /// address and the routes are held back.  Changed only by
    /// [`ExtIntStage::reresolve`], so it stays what downstream was sent
    /// while internal changes sit deferred in a batch.
    nexthops: NexthopIndex<A, Option<Via>>,
    /// External routes whose nexthop is of the other address family, which
    /// never resolve and are not in `nexthops`.
    foreign: usize,
    /// Head of the external chain: where original external routes are
    /// fetched from on re-resolution and lookup.
    ext_upstream: Option<StageRef<A, RibRoute<A>>>,
    /// The external origin tables by id, walked when a nexthop's `via`
    /// moves and searched by the final-table queries.
    ext_tables: Vec<(OriginId, Rc<RefCell<OriginTable<A>>>)>,
    /// The internal origin tables' ids (a debug check on each op's origin).
    int_origins: Vec<OriginId>,
    downstream: Option<StageRef<A, RibRoute<A>>>,
    /// Origin id used for messages this stage originates itself
    /// (resolution-driven announcements/withdrawals).
    self_origin: OriginId,
    /// `Some` while a batch is open ([`ExtIntStage::begin_batch`]):
    /// internal prefixes whose changes have not yet been re-resolved
    /// against the nexthop index.  `None` is per-route mode — every
    /// internal change re-resolves immediately.
    deferred: Option<BTreeSet<Prefix<A>>>,
    /// Longest-matches performed against `int_mirror` (diagnostics: one
    /// per new nexthop and one per nexthop per re-resolution, never one
    /// per route).
    nexthop_lookups: u64,
    /// External prefixes final-table queries checked one by one.
    pub(crate) final_checks: Cell<u64>,
}

/// The route downstream should see for a prefix given each side's
/// candidate; internal wins ties.
fn arbitrate<A: Addr>(int: Option<&RibRoute<A>>, ext: Option<RibRoute<A>>) -> Option<RibRoute<A>> {
    match (int, ext) {
        (Some(i), Some(e)) if !better(i, &e) => Some(e),
        (Some(i), _) => Some(i.clone()),
        (None, e) => e,
    }
}

impl<A: Addr> ExtIntStage<A> {
    /// Build with no external table yet.  `self_origin` tags
    /// resolution-driven messages.
    pub fn new(self_origin: OriginId) -> Self {
        ExtIntStage {
            int_mirror: PatriciaTrie::new(),
            nexthops: NexthopIndex::default(),
            foreign: 0,
            ext_upstream: None,
            ext_tables: Vec::new(),
            int_origins: Vec::new(),
            downstream: None,
            self_origin,
            deferred: None,
            nexthop_lookups: 0,
            final_checks: Cell::new(0),
        }
    }

    /// Open a batch: internal changes accumulate instead of re-resolving
    /// external nexthops per-route.  The next [`Stage::push`] drains the
    /// accumulated set in one pass — each affected nexthop is re-resolved
    /// exactly once no matter how many internal changes touched it — and
    /// returns the stage to per-route mode.
    pub fn begin_batch(&mut self) {
        self.deferred.get_or_insert_with(BTreeSet::new);
    }

    /// Internal prefixes with a pending (deferred) re-resolution.
    pub fn deferred_count(&self) -> usize {
        self.deferred.as_ref().map(|d| d.len()).unwrap_or(0)
    }

    /// Plumb the head of the external chain (re-plumbed whenever a merge
    /// is spliced above this stage on that side).
    pub fn set_ext_upstream(&mut self, s: StageRef<A, RibRoute<A>>) {
        self.ext_upstream = Some(s);
    }

    /// Add an origin table, on the side its protocol belongs to.
    pub fn add_table(&mut self, table: Rc<RefCell<OriginTable<A>>>) {
        let origin = table.borrow().origin();
        if is_external(table.borrow().protocol()) {
            self.ext_tables.push((origin, table));
        } else {
            self.int_origins.push(origin);
        }
    }

    /// Number of external routes currently held back as unresolvable.
    /// (A route whose nexthop is of the other address family can never
    /// resolve; it is dropped here and not counted.)
    pub fn unresolved_count(&self) -> usize {
        self.nexthops.routes_where(Option::is_none)
    }

    /// Longest-matches performed against the internal side so far.
    pub fn nexthop_lookups(&self) -> u64 {
        self.nexthop_lookups
    }

    /// Count `route` against its nexthop, resolving the nexthop if it is
    /// new.  Returns the route's downstream form.
    fn index(&mut self, route: RibRoute<A>) -> Option<RibRoute<A>> {
        let Some(nh) = A::from_ipaddr(route.nexthop()) else {
            self.foreign += 1;
            return None;
        };
        let (int_mirror, lookups) = (&self.int_mirror, &mut self.nexthop_lookups);
        let via = self
            .nexthops
            .add_route(nh, || resolve(int_mirror, lookups, nh));
        annotate(via, route)
    }

    /// Uncount `route`.  Returns the form downstream was sent — annotated
    /// with the *recorded* `via`, not a fresh resolution.
    fn unindex(&mut self, route: RibRoute<A>) -> Option<RibRoute<A>> {
        let Some(nh) = A::from_ipaddr(route.nexthop()) else {
            self.foreign -= 1;
            return None;
        };
        let sent = annotate(self.nexthops.remove_route(&nh)?, route);
        self.nexthops.prune(&nh, |_| true);
        sent
    }

    /// The external side's current route for `net` as downstream sees it.
    fn ext_route(&self, net: &Prefix<A>) -> Option<RibRoute<A>> {
        let route = self.ext_upstream.as_ref()?.borrow().lookup_route(net)?;
        let nh = A::from_ipaddr(route.nexthop())?;
        annotate(&self.nexthops.get(&nh)?.state, route)
    }

    fn handle_ext(&mut self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, RibRoute<A>>) {
        let net = op.net();
        let (old, new) = op.into_routes();
        let old = old.and_then(|r| self.unindex(r));
        let new = new.and_then(|r| self.index(r));
        let int = self.int_mirror.get(&net);
        self.emit(
            el,
            origin,
            RouteOp::diff(net, arbitrate(int, old), arbitrate(int, new)),
        );
    }

    fn handle_int(&mut self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, RibRoute<A>>) {
        let net = op.net();
        let ext = self.ext_route(&net);
        let before = arbitrate(self.int_mirror.get(&net), ext.clone());
        match op {
            RouteOp::Add { route, .. } | RouteOp::Replace { new: route, .. } => {
                self.int_mirror.insert(net, route);
            }
            RouteOp::Delete { .. } => {
                self.int_mirror.remove(&net);
            }
        }
        let after = arbitrate(self.int_mirror.get(&net), ext);
        self.emit(el, origin, RouteOp::diff(net, before, after));

        // Nexthops inside the changed internal prefix may now resolve
        // differently.  In batch mode just record the prefix; the
        // push-time flush re-resolves everything affected in one pass.
        match &mut self.deferred {
            Some(pending) => {
                pending.insert(net);
            }
            None => self.reresolve(el, [net]),
        }
    }

    /// Re-resolve every nexthop inside any of the `changed` internal
    /// prefixes, once each.  Where answers moved, record them and walk the
    /// external origin tables once, emitting the state delta of every
    /// route whose nexthop moved.
    fn reresolve(&mut self, el: &mut EventLoop, changed: impl IntoIterator<Item = Prefix<A>>) {
        let mut affected = BTreeSet::new();
        for net in changed {
            affected.extend(self.nexthops.range_mut(&net).map(|(nh, _)| nh));
        }
        let mut moved = BTreeMap::new();
        for nh in affected {
            let now = resolve(&self.int_mirror, &mut self.nexthop_lookups, nh);
            let Some(entry) = self.nexthops.get_mut(&nh) else {
                continue;
            };
            if entry.state != now {
                moved.insert(nh, std::mem::replace(&mut entry.state, now));
            }
        }
        if moved.is_empty() {
            return;
        }
        for op in self.walk(&moved) {
            self.emit(el, self.self_origin, Some(op));
        }
    }

    /// One pass over the external origin tables, handling each prefix
    /// once: the change downstream sees for every route whose nexthop's
    /// `via` moved from `moved[nexthop]`.
    fn walk(&self, moved: &BTreeMap<A, Option<Via>>) -> Vec<RouteOp<A, RibRoute<A>>> {
        let mut diffs = Vec::new();
        let Some(upstream) = &self.ext_upstream else {
            return diffs;
        };
        for (i, (_, table)) in self.ext_tables.iter().enumerate() {
            let earlier = &self.ext_tables[..i];
            for (net, _) in table.borrow().routes().iter() {
                if earlier
                    .iter()
                    .any(|(_, t)| t.borrow().routes().contains_key(&net))
                {
                    continue;
                }
                let Some(route) = upstream.borrow().lookup_route(&net) else {
                    continue;
                };
                let Some(nh) = A::from_ipaddr(route.nexthop()) else {
                    continue;
                };
                let (Some(was), Some(entry)) = (moved.get(&nh), self.nexthops.get(&nh)) else {
                    continue;
                };
                let int = self.int_mirror.get(&net);
                let before = arbitrate(int, annotate(was, route.clone()));
                let after = arbitrate(int, annotate(&entry.state, route));
                diffs.extend(RouteOp::diff(net, before, after));
            }
        }
        diffs
    }

    /// Send `op`, if any, downstream.
    fn emit(&self, el: &mut EventLoop, origin: OriginId, op: Option<RouteOp<A, RibRoute<A>>>) {
        if let (Some(d), Some(op)) = (&self.downstream, op) {
            d.borrow_mut().route_op(el, origin, op);
        }
    }

    /// Drain the batch opened by [`ExtIntStage::begin_batch`]: one
    /// re-resolution pass over every affected nexthop, then back to
    /// per-route mode.  No-op outside a batch.
    pub fn flush_deferred(&mut self, el: &mut EventLoop) {
        if let Some(pending) = self.deferred.take() {
            self.reresolve(el, pending);
        }
    }
}

impl<A: Addr> PrefixView<A> for ExtIntStage<A> {
    type Route = RibRoute<A>;

    /// Each side's matches, longest first, until one is final.
    fn longest_match(&self, addr: A) -> Option<(Prefix<A>, RibRoute<A>)> {
        let int = self.int_mirror.longest_match(addr).map(|(net, _)| net);
        let tables: Vec<_> = self.ext_tables.iter().map(|(_, t)| t.borrow()).collect();
        let mut next: Vec<_> = tables
            .iter()
            .map(|t| t.routes().longest_match(addr).map(|(net, _)| net))
            .collect();
        while let Some(net) = next
            .iter()
            .chain([&int])
            .flatten()
            .max_by_key(|n| n.len())
            .copied()
        {
            if let Some(route) = self.lookup_route(&net) {
                return Some((net, route));
            }
            for (t, n) in tables.iter().zip(&mut next) {
                if *n == Some(net) {
                    *n = t.routes().best_covering(&net).map(|(net, _)| net);
                }
            }
        }
        None
    }

    fn holds_within(&self, range: &Prefix<A>, except: Option<Prefix<A>>) -> bool {
        let other = |net: &Prefix<A>| Some(*net) != except;
        // External prefixes are all final, none is, or those that resolve.
        let all_final = self.unresolved_count() + self.foreign == 0;
        let is_final = |net: &Prefix<A>| {
            all_final || {
                self.final_checks.set(self.final_checks.get() + 1);
                self.ext_route(net).is_some()
            }
        };
        self.int_mirror
            .iter_subtree(range)
            .any(|(net, _)| other(&net))
            || (self.nexthops.routes_where(Option::is_some) > 0
                && self.ext_tables.iter().any(|(_, t)| {
                    let t = t.borrow();
                    let mut inside = t.routes().iter_subtree(range);
                    inside.any(|(net, _)| other(&net) && is_final(&net))
                }))
    }
}

impl<A: Addr> HeapSize for ExtIntStage<A> {
    /// The internal mirror plus the nexthop index: everything this stage
    /// holds that grows with the table.
    fn heap_size(&self) -> usize {
        self.int_mirror.heap_size() + self.nexthops.heap_size()
    }
}

impl<A: Addr> Stage<A, RibRoute<A>> for ExtIntStage<A> {
    fn name(&self) -> String {
        "extint".into()
    }

    fn route_op(&mut self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, RibRoute<A>>) {
        if self.ext_tables.iter().any(|(o, _)| *o == origin) {
            self.handle_ext(el, origin, op);
        } else {
            debug_assert!(
                self.int_origins.contains(&origin),
                "op from {origin:?}, which is not an origin table of this stage"
            );
            self.handle_int(el, origin, op);
        }
    }

    fn lookup_route(&self, net: &Prefix<A>) -> Option<RibRoute<A>> {
        arbitrate(self.int_mirror.get(net), self.ext_route(net))
    }

    fn push(&mut self, el: &mut EventLoop) {
        self.flush_deferred(el);
        if let Some(d) = &self.downstream {
            d.borrow_mut().push(el);
        }
    }

    fn set_downstream(&mut self, s: StageRef<A, RibRoute<A>>) {
        self.downstream = Some(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::OriginTable;
    use std::net::{IpAddr, Ipv4Addr};
    use xorp_net::{PathAttributes, ProtocolId};
    use xorp_stages::{stage_ref, CacheStage, SinkStage};

    type Sink = SinkStage<Ipv4Addr, RibRoute<Ipv4Addr>>;

    const EXT: OriginId = OriginId(10);
    const INT: OriginId = OriginId(20);
    const SELF: OriginId = OriginId(99);

    fn ext_route(net: &str, nh: &str) -> RibRoute<Ipv4Addr> {
        RibRoute::new(
            net.parse().unwrap(),
            Arc::new(PathAttributes::new(IpAddr::V4(nh.parse().unwrap()))),
            0,
            ProtocolId::Ebgp,
        )
    }

    fn int_route(net: &str, nh: &str, ifname: &str) -> RibRoute<Ipv4Addr> {
        let mut r = RibRoute::new(
            net.parse().unwrap(),
            Arc::new(PathAttributes::new(IpAddr::V4(nh.parse().unwrap()))),
            1,
            ProtocolId::Static,
        );
        r.ifname = Some(ifname.into());
        r
    }

    /// The stage holds no external routes, so the rig feeds it the way
    /// the RIB does: through one origin table per side, the external one
    /// doubling as the stage's upstream.
    struct Rig {
        el: EventLoop,
        ext_table: std::rc::Rc<std::cell::RefCell<OriginTable<Ipv4Addr>>>,
        int_table: std::rc::Rc<std::cell::RefCell<OriginTable<Ipv4Addr>>>,
        stage: std::rc::Rc<std::cell::RefCell<ExtIntStage<Ipv4Addr>>>,
        cache: std::rc::Rc<std::cell::RefCell<CacheStage<Ipv4Addr, RibRoute<Ipv4Addr>>>>,
        sink: std::rc::Rc<std::cell::RefCell<Sink>>,
    }

    impl Rig {
        fn send(&mut self, origin: OriginId, op: RouteOp<Ipv4Addr, RibRoute<Ipv4Addr>>) {
            let table = if origin == EXT {
                &self.ext_table
            } else {
                &self.int_table
            };
            table.borrow_mut().route_op(&mut self.el, origin, op);
        }

        fn assert_consistent(&self) {
            assert!(
                self.cache.borrow().violations().is_empty(),
                "{:?}",
                self.cache.borrow().violations()
            );
        }
    }

    fn rig() -> Rig {
        let el = EventLoop::new_virtual();
        let stage = stage_ref(ExtIntStage::new(SELF));
        let ext_table = stage_ref(OriginTable::new(ProtocolId::Ebgp, EXT));
        let int_table = stage_ref(OriginTable::new(ProtocolId::Static, INT));
        ext_table.borrow_mut().set_downstream(stage.clone());
        int_table.borrow_mut().set_downstream(stage.clone());
        stage.borrow_mut().set_ext_upstream(ext_table.clone());
        stage.borrow_mut().add_table(ext_table.clone());
        stage.borrow_mut().add_table(int_table.clone());
        let cache = stage_ref(CacheStage::new("extint-out"));
        let sink = stage_ref(Sink::new());
        stage.borrow_mut().set_downstream(cache.clone());
        cache.borrow_mut().set_downstream(sink.clone());
        cache.borrow_mut().set_upstream(stage.clone());
        Rig {
            el,
            ext_table,
            int_table,
            stage,
            cache,
            sink,
        }
    }

    fn add<A: Into<RibRoute<Ipv4Addr>>>(r: A) -> RouteOp<Ipv4Addr, RibRoute<Ipv4Addr>> {
        let r = r.into();
        RouteOp::Add {
            net: r.net,
            route: r,
        }
    }

    fn del(r: RibRoute<Ipv4Addr>) -> RouteOp<Ipv4Addr, RibRoute<Ipv4Addr>> {
        RouteOp::Delete { net: r.net, old: r }
    }

    #[test]
    fn internal_routes_pass_through() {
        let mut r = rig();
        r.send(INT, add(int_route("192.168.0.0/16", "0.0.0.0", "eth0")));
        assert_eq!(r.sink.borrow().table.len(), 1);
        r.assert_consistent();
    }

    #[test]
    fn unresolvable_external_held_back() {
        let mut r = rig();
        r.send(EXT, add(ext_route("10.0.0.0/8", "192.168.1.1")));
        assert!(r.sink.borrow().table.is_empty());
        assert_eq!(r.stage.borrow().unresolved_count(), 1);
        r.assert_consistent();
    }

    #[test]
    fn resolution_releases_held_route_with_annotation() {
        let mut r = rig();
        r.send(EXT, add(ext_route("10.0.0.0/8", "192.168.1.1")));
        // IGP route covering the nexthop appears: the BGP route resolves.
        r.send(INT, add(int_route("192.168.0.0/16", "0.0.0.0", "eth3")));
        let sink = r.sink.borrow();
        let bgp = &sink.table[&"10.0.0.0/8".parse().unwrap()];
        assert_eq!(bgp.proto, ProtocolId::Ebgp);
        assert_eq!(bgp.ifname.as_deref(), Some("eth3"));
        drop(sink);
        assert_eq!(r.stage.borrow().unresolved_count(), 0);
        r.assert_consistent();
    }

    #[test]
    fn pre_resolved_external_flows_immediately() {
        let mut r = rig();
        r.send(INT, add(int_route("192.168.0.0/16", "0.0.0.0", "eth0")));
        r.send(EXT, add(ext_route("10.0.0.0/8", "192.168.1.1")));
        assert_eq!(r.sink.borrow().table.len(), 2);
        r.assert_consistent();
    }

    #[test]
    fn losing_resolution_withdraws_external() {
        let mut r = rig();
        let igp = int_route("192.168.0.0/16", "0.0.0.0", "eth0");
        r.send(INT, add(igp.clone()));
        r.send(EXT, add(ext_route("10.0.0.0/8", "192.168.1.1")));
        assert_eq!(r.sink.borrow().table.len(), 2);
        // IGP route vanishes: the BGP route must be withdrawn too.
        r.send(INT, del(igp));
        assert!(r.sink.borrow().table.is_empty());
        assert_eq!(r.stage.borrow().unresolved_count(), 1);
        r.assert_consistent();
    }

    #[test]
    fn fallback_to_less_specific_resolution() {
        let mut r = rig();
        r.send(INT, add(int_route("192.168.0.0/16", "0.0.0.0", "eth0")));
        let specific = int_route("192.168.1.0/24", "0.0.0.0", "eth1");
        r.send(INT, add(specific.clone()));
        r.send(EXT, add(ext_route("10.0.0.0/8", "192.168.1.1")));
        // Resolved via the /24 (eth1).
        assert_eq!(
            r.sink.borrow().table[&"10.0.0.0/8".parse().unwrap()]
                .ifname
                .as_deref(),
            Some("eth1")
        );
        // /24 withdrawn: falls back to the /16 (eth0), not withdrawal.
        r.send(INT, del(specific));
        assert_eq!(
            r.sink.borrow().table[&"10.0.0.0/8".parse().unwrap()]
                .ifname
                .as_deref(),
            Some("eth0")
        );
        r.assert_consistent();
    }

    #[test]
    fn prefix_conflict_resolved_by_distance() {
        let mut r = rig();
        r.send(INT, add(int_route("192.168.0.0/16", "0.0.0.0", "eth0")));
        // Same prefix from both sides: EBGP (AD 20) vs static (AD 1).
        r.send(EXT, add(ext_route("10.0.0.0/8", "192.168.1.1")));
        assert_eq!(
            r.sink.borrow().table[&"10.0.0.0/8".parse().unwrap()].proto,
            ProtocolId::Ebgp
        );
        let static_ten = int_route("10.0.0.0/8", "0.0.0.0", "eth9");
        r.send(INT, add(static_ten.clone()));
        assert_eq!(
            r.sink.borrow().table[&"10.0.0.0/8".parse().unwrap()].proto,
            ProtocolId::Static
        );
        // Static withdrawn: EBGP takes back over.
        r.send(INT, del(static_ten));
        assert_eq!(
            r.sink.borrow().table[&"10.0.0.0/8".parse().unwrap()].proto,
            ProtocolId::Ebgp
        );
        r.assert_consistent();
    }

    #[test]
    fn external_replace_rebinds_nexthop() {
        let mut r = rig();
        r.send(INT, add(int_route("192.168.0.0/16", "0.0.0.0", "eth0")));
        r.send(INT, add(int_route("172.16.0.0/12", "0.0.0.0", "eth1")));
        let old = ext_route("10.0.0.0/8", "192.168.1.1");
        r.send(EXT, add(old.clone()));
        let new = ext_route("10.0.0.0/8", "172.16.0.1");
        r.send(
            EXT,
            RouteOp::Replace {
                net: "10.0.0.0/8".parse().unwrap(),
                old,
                new,
            },
        );
        assert_eq!(
            r.sink.borrow().table[&"10.0.0.0/8".parse().unwrap()]
                .ifname
                .as_deref(),
            Some("eth1")
        );
        r.assert_consistent();
    }

    #[test]
    fn lookup_route_is_effective_view() {
        let mut r = rig();
        r.send(EXT, add(ext_route("10.0.0.0/8", "192.168.1.1")));
        // Unresolved: invisible.
        assert!(r
            .stage
            .borrow()
            .lookup_route(&"10.0.0.0/8".parse().unwrap())
            .is_none());
        r.send(INT, add(int_route("192.168.0.0/16", "0.0.0.0", "eth0")));
        assert!(r
            .stage
            .borrow()
            .lookup_route(&"10.0.0.0/8".parse().unwrap())
            .is_some());
    }

    /// An op from an origin the stage was never given is a wiring error,
    /// not an internal route.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not an origin table of this stage")]
    fn op_from_an_unknown_origin_is_refused() {
        let mut r = rig();
        let op = add(int_route("192.168.0.0/16", "0.0.0.0", "eth0"));
        r.stage.borrow_mut().route_op(&mut r.el, OriginId(77), op);
    }

    // ----- per-nexthop resolution ----------------------------------------

    fn replace(
        old: RibRoute<Ipv4Addr>,
        new: RibRoute<Ipv4Addr>,
    ) -> RouteOp<Ipv4Addr, RibRoute<Ipv4Addr>> {
        RouteOp::Replace {
            net: old.net,
            old,
            new,
        }
    }

    /// One step of the deferred-batch scenarios.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Step {
        Internal,
        External,
        Flush,
    }

    /// A batch is open; an internal change that moves a nexthop's
    /// resolution, an external delete/replace of a route using that
    /// nexthop, and the flush arrive in every order.  The external op must
    /// withdraw exactly what downstream was sent — the form under the
    /// *recorded* resolution — whichever side of the flush it lands on, and
    /// the final table must not depend on the order.
    #[test]
    fn deferred_internal_change_and_external_op_in_every_order() {
        use Step::*;
        let orders = [
            [Internal, External, Flush],
            [Internal, Flush, External],
            [External, Internal, Flush],
            [External, Flush, Internal],
            [Flush, Internal, External],
            [Flush, External, Internal],
        ];
        let covering = int_route("192.168.0.0/16", "0.0.0.0", "eth0");
        let specific = int_route("192.168.1.0/24", "0.0.0.0", "eth1");
        let other = int_route("172.16.0.0/12", "0.0.0.0", "eth2");
        let victim = ext_route("10.0.0.0/8", "192.168.1.1");
        let bystander = ext_route("11.0.0.0/8", "192.168.1.1");
        let mut reattributed = victim.clone();
        reattributed.metric = 7;
        let internal_changes = [
            del(covering.clone()), // resolution lost
            add(specific.clone()), // annotation moves eth0 -> eth1
        ];
        let external_ops = [
            del(victim.clone()),
            replace(victim.clone(), reattributed),
            replace(victim.clone(), ext_route("10.0.0.0/8", "172.16.0.1")),
        ];
        for internal in &internal_changes {
            for external in &external_ops {
                let mut finals = Vec::new();
                for order in orders {
                    let mut r = rig();
                    r.send(INT, add(covering.clone()));
                    r.send(INT, add(other.clone()));
                    r.send(EXT, add(victim.clone()));
                    r.send(EXT, add(bystander.clone()));
                    r.stage.borrow_mut().begin_batch();
                    for step in order {
                        match step {
                            Internal => r.send(INT, internal.clone()),
                            External => r.send(EXT, external.clone()),
                            Flush => r.stage.borrow_mut().flush_deferred(&mut r.el),
                        }
                    }
                    // An internal change after the flush re-resolved at
                    // once; one before it must not be left pending.
                    r.stage.borrow_mut().flush_deferred(&mut r.el);
                    assert_eq!(r.stage.borrow().deferred_count(), 0);
                    r.assert_consistent();
                    // lookup_route agrees with what downstream was sent.
                    for net in ["10.0.0.0/8", "11.0.0.0/8", "192.168.0.0/16"] {
                        let net = net.parse().unwrap();
                        assert_eq!(
                            r.stage.borrow().lookup_route(&net).as_ref(),
                            r.sink.borrow().table.get(&net),
                            "{internal:?} / {external:?} / {order:?}: {net}"
                        );
                    }
                    finals.push(r.sink.borrow().table.clone());
                }
                assert!(
                    finals.windows(2).all(|w| w[0] == w[1]),
                    "{internal:?} / {external:?}: final table depends on order"
                );
            }
        }
    }

    /// Resolution is per nexthop: however many routes share one, losing
    /// and regaining the covering internal route costs one longest-match
    /// per nexthop, and the held-back count follows.
    #[test]
    fn shared_nexthop_resolves_once_for_all_its_routes() {
        const ROUTES: usize = 300;
        let mut r = rig();
        let igp = int_route("192.168.0.0/16", "0.0.0.0", "eth0");
        r.send(INT, add(igp.clone()));
        for i in 0..ROUTES {
            let nh = if i % 3 == 0 {
                "192.168.1.1"
            } else {
                "192.168.2.2"
            };
            r.send(
                EXT,
                add(ext_route(&format!("10.{}.{}.0/24", i / 256, i % 256), nh)),
            );
        }
        // A nexthop outside the changing prefix is never re-resolved.
        r.send(INT, add(int_route("172.16.0.0/12", "0.0.0.0", "eth1")));
        r.send(EXT, add(ext_route("20.0.0.0/8", "172.16.0.1")));
        let lookups = |r: &Rig| r.stage.borrow().nexthop_lookups();
        // One per distinct nexthop, and one per nexthop inside each later
        // internal add: none for 172.16/12 (no nexthop used it yet).
        assert_eq!(lookups(&r), 3);
        assert_eq!(r.sink.borrow().table.len(), ROUTES + 3);

        r.send(INT, del(igp.clone()));
        assert_eq!(lookups(&r), 5);
        assert_eq!(r.stage.borrow().unresolved_count(), ROUTES);
        assert_eq!(r.sink.borrow().table.len(), 2);

        r.send(INT, add(igp));
        assert_eq!(lookups(&r), 7);
        assert_eq!(r.stage.borrow().unresolved_count(), 0);
        assert_eq!(r.sink.borrow().table.len(), ROUTES + 3);
        r.assert_consistent();
    }

    /// An internal change that leaves a nexthop's answer where it was
    /// costs the longest-match and nothing else: no walk, no messages.
    #[test]
    fn unchanged_resolution_emits_nothing() {
        let mut r = rig();
        r.send(INT, add(int_route("192.168.0.0/16", "0.0.0.0", "eth0")));
        r.send(INT, add(int_route("192.168.1.0/24", "0.0.0.0", "eth1")));
        r.send(EXT, add(ext_route("10.0.0.0/8", "192.168.1.1")));
        let sent = r.sink.borrow().log.len();
        // The /24 still wins: the /16 going away changes nothing for it.
        r.send(INT, del(int_route("192.168.0.0/16", "0.0.0.0", "eth0")));
        assert_eq!(r.sink.borrow().log.len(), sent + 1); // the /16's own delete
        r.assert_consistent();
    }
}
