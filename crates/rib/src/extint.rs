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
//! No external route.  Whether and how an external route resolves depends
//! only on its nexthop address, and a full BGP table has a handful of
//! nexthops, so the resolution state is kept **per nexthop**: the egress
//! interface currently recorded for it (`via`) and the set of external
//! prefixes using it.  An external route's downstream form is the route
//! carried by the op itself, annotated with its nexthop's recorded `via`;
//! when an internal change moves a nexthop's `via`, the stage walks that
//! nexthop's prefixes and fetches each original with an exact
//! `lookup_route` on the external side upstream — "routes are stored only
//! in the origin stages".
//!
//! The one table it does keep is `int_mirror`, a copy of the internal
//! side.  It is O(IGP routes), not O(BGP routes), and it is the *merged*
//! longest-match view of the internal side that no single origin table
//! has: resolving a nexthop needs longest-match, and the stage contract's
//! `lookup_route` is exact-match only.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use xorp_event::EventLoop;
use xorp_net::{Addr, FxHashSet, HeapSize, PatriciaTrie, Prefix};
use xorp_stages::{OriginId, RouteOp, Stage, StageRef};

use crate::{better, RibRoute};

/// How a resolvable nexthop is reached: the covering internal route's
/// `ifname` (which that route may itself lack).
type Via = Option<Arc<str>>;

/// Resolution state shared by every external route naming one nexthop.
struct Nexthop<A: Addr> {
    /// The annotation downstream currently holds for this nexthop's
    /// routes; `None` while no internal route covers the address and the
    /// routes are held back.  Changed only by [`ExtIntStage::reresolve`],
    /// so it stays what downstream was sent while internal changes sit
    /// deferred in a batch.
    via: Option<Via>,
    /// External prefixes using this nexthop.
    nets: BTreeSet<Prefix<A>>,
}

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
    ext_origins: FxHashSet<OriginId>,
    int_origins: FxHashSet<OriginId>,
    /// The merged internal side, for longest-match nexthop resolution and
    /// same-prefix arbitration.
    int_mirror: PatriciaTrie<A, RibRoute<A>>,
    /// Per-nexthop resolution state; ordered, so the nexthops inside a
    /// changed internal prefix are one range scan.  (An ordered map also
    /// needs no defence against peer-chosen addresses crafted to collide.)
    nexthops: BTreeMap<A, Nexthop<A>>,
    /// Head of the external chain: where original external routes are
    /// fetched from on re-resolution and lookup.
    ext_upstream: Option<StageRef<A, RibRoute<A>>>,
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

/// Send downstream whatever delta moves its state for `net` from `before`
/// to `after`.
fn emit_diff<A: Addr>(
    downstream: &Option<StageRef<A, RibRoute<A>>>,
    el: &mut EventLoop,
    origin: OriginId,
    net: Prefix<A>,
    before: Option<RibRoute<A>>,
    after: Option<RibRoute<A>>,
) {
    let op = match (before, after) {
        (None, Some(route)) => RouteOp::Add { net, route },
        (Some(old), None) => RouteOp::Delete { net, old },
        (Some(old), Some(new)) if old != new => RouteOp::Replace { net, old, new },
        _ => return,
    };
    if let Some(d) = downstream {
        d.borrow_mut().route_op(el, origin, op);
    }
}

impl<A: Addr> ExtIntStage<A> {
    /// Build with the origin-id sets of each side.  `self_origin` tags
    /// resolution-driven messages.
    pub fn new(
        ext_origins: impl IntoIterator<Item = OriginId>,
        int_origins: impl IntoIterator<Item = OriginId>,
        self_origin: OriginId,
    ) -> Self {
        ExtIntStage {
            ext_origins: ext_origins.into_iter().collect(),
            int_origins: int_origins.into_iter().collect(),
            int_mirror: PatriciaTrie::new(),
            nexthops: BTreeMap::new(),
            ext_upstream: None,
            downstream: None,
            self_origin,
            deferred: None,
            nexthop_lookups: 0,
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

    /// Plumb the downstream neighbor.
    pub fn set_downstream(&mut self, s: StageRef<A, RibRoute<A>>) {
        self.downstream = Some(s);
    }

    /// Plumb the head of the external chain (re-plumbed whenever a merge
    /// is spliced above this stage on that side).
    pub fn set_ext_upstream(&mut self, s: StageRef<A, RibRoute<A>>) {
        self.ext_upstream = Some(s);
    }

    /// Register a late-added origin id.
    pub fn add_origin(&mut self, external: bool, origin: OriginId) {
        if external {
            self.ext_origins.insert(origin);
        } else {
            self.int_origins.insert(origin);
        }
    }

    /// Number of external routes currently held back as unresolvable.
    /// (A route whose nexthop is of the other address family can never
    /// resolve; it is dropped here, not indexed and not counted.)
    pub fn unresolved_count(&self) -> usize {
        self.nexthops
            .values()
            .filter(|n| n.via.is_none())
            .map(|n| n.nets.len())
            .sum()
    }

    /// Longest-matches performed against the internal side so far.
    pub fn nexthop_lookups(&self) -> u64 {
        self.nexthop_lookups
    }

    /// Record that `route` (for `net`) uses its nexthop, resolving the
    /// nexthop if it is new.  Returns the route's downstream form.
    fn index(&mut self, net: Prefix<A>, route: RibRoute<A>) -> Option<RibRoute<A>> {
        let nh = A::from_ipaddr(route.nexthop())?;
        let entry = self.nexthops.entry(nh).or_insert_with(|| Nexthop {
            via: resolve(&self.int_mirror, &mut self.nexthop_lookups, nh),
            nets: BTreeSet::new(),
        });
        entry.nets.insert(net);
        annotate(&entry.via, route)
    }

    /// Forget that `route` (for `net`) uses its nexthop.  Returns the form
    /// downstream was sent — annotated with the *recorded* `via`, not a
    /// fresh resolution.
    fn unindex(&mut self, net: Prefix<A>, route: RibRoute<A>) -> Option<RibRoute<A>> {
        let nh = A::from_ipaddr(route.nexthop())?;
        let entry = self.nexthops.get_mut(&nh)?;
        entry.nets.remove(&net);
        let sent = annotate(&entry.via, route);
        if entry.nets.is_empty() {
            self.nexthops.remove(&nh);
        }
        sent
    }

    /// The external side's current route for `net` as downstream sees it.
    fn ext_route(&self, net: &Prefix<A>) -> Option<RibRoute<A>> {
        let route = self.ext_upstream.as_ref()?.borrow().lookup_route(net)?;
        let nh = A::from_ipaddr(route.nexthop())?;
        annotate(&self.nexthops.get(&nh)?.via, route)
    }

    fn handle_ext(&mut self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, RibRoute<A>>) {
        let net = op.net();
        let (old, new) = match op {
            RouteOp::Add { route, .. } => (None, Some(route)),
            RouteOp::Replace { old, new, .. } => (Some(old), Some(new)),
            RouteOp::Delete { old, .. } => (Some(old), None),
        };
        let old = old.and_then(|r| self.unindex(net, r));
        let new = new.and_then(|r| self.index(net, r));
        let int = self.int_mirror.get(&net);
        let (before, after) = (arbitrate(int, old), arbitrate(int, new));
        emit_diff(&self.downstream, el, origin, net, before, after);
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
        emit_diff(&self.downstream, el, origin, net, before, after);

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
    /// prefixes, once each, in address order.  Where the answer moved,
    /// record it and walk that nexthop's external routes (in prefix
    /// order), emitting the state delta downstream.
    fn reresolve(&mut self, el: &mut EventLoop, changed: impl IntoIterator<Item = Prefix<A>>) {
        let mut affected = BTreeSet::new();
        for net in changed {
            let inside = self.nexthops.range(net.first_addr()..=net.last_addr());
            affected.extend(inside.map(|(nh, _)| *nh));
        }
        for nh in affected {
            let now = resolve(&self.int_mirror, &mut self.nexthop_lookups, nh);
            let (Some(entry), Some(upstream)) = (self.nexthops.get_mut(&nh), &self.ext_upstream)
            else {
                continue;
            };
            if entry.via == now {
                continue;
            }
            let was = std::mem::replace(&mut entry.via, now);
            for net in &entry.nets {
                let Some(route) = upstream.borrow().lookup_route(net) else {
                    continue;
                };
                let int = self.int_mirror.get(net);
                let before = arbitrate(int, annotate(&was, route.clone()));
                let after = arbitrate(int, annotate(&entry.via, route));
                emit_diff(&self.downstream, el, self.self_origin, *net, before, after);
            }
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

impl<A: Addr> HeapSize for ExtIntStage<A> {
    /// The internal mirror plus the nexthop index: everything this stage
    /// holds that grows with the table.
    fn heap_size(&self) -> usize {
        let entry = std::mem::size_of::<(A, Nexthop<A>)>();
        self.int_mirror.heap_size()
            + self
                .nexthops
                .values()
                .map(|n| entry + n.nets.heap_size())
                .sum::<usize>()
    }
}

impl<A: Addr> Stage<A, RibRoute<A>> for ExtIntStage<A> {
    fn name(&self) -> String {
        "extint".into()
    }

    fn route_op(&mut self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, RibRoute<A>>) {
        if self.ext_origins.contains(&origin) {
            self.handle_ext(el, origin, op);
        } else {
            debug_assert!(
                self.int_origins.contains(&origin),
                "extint: unknown origin {origin:?}"
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
        ExtIntStage::set_downstream(self, s);
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
        let stage = stage_ref(ExtIntStage::new([EXT], [INT], SELF));
        let ext_table = stage_ref(OriginTable::new(ProtocolId::Ebgp, EXT));
        let int_table = stage_ref(OriginTable::new(ProtocolId::Static, INT));
        ext_table.borrow_mut().set_downstream(stage.clone());
        int_table.borrow_mut().set_downstream(stage.clone());
        stage.borrow_mut().set_ext_upstream(ext_table.clone());
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
