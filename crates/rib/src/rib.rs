//! The RIB façade: wires the Figure 7 stage network and exposes the
//! operations a RIB "process" serves over XRLs.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use xorp_event::EventLoop;
use xorp_net::{Addr, FxHashMap, HeapSize, Prefix, ProtocolId, RouteEntry};
use xorp_policy::PolicyTarget;
use xorp_profiler::{Counter, Histogram, Metrics};
use xorp_stages::{
    stage_ref, CacheStage, DumpSource, FnStage, OriginId, RouteOp, Stage, TableSource,
};

use crate::extint::ExtIntStage;
use crate::merge::MergeStage;
use crate::origin::OriginTable;
use crate::redist::{RedistStage, RedistWatcher};
use crate::register::{InvalidationCb, RegisterAnswer, RegisterStage};
use crate::{is_external, RibRoute, RibStageRef};

/// Origin id the ExtInt stage uses for resolution-driven messages.
const EXTINT_SELF_ORIGIN: OriginId = OriginId(0);

/// One element of a batched route update (the vectorized
/// `rib/1.0/add_routes` / `delete_routes` XRLs decode into these).
#[derive(Clone, Debug)]
pub enum BatchOp<A: Addr> {
    /// Install (or update) a route.
    Add(RibRoute<A>),
    /// Withdraw `proto`'s route for `net` (no-op if absent).
    Delete { proto: ProtocolId, net: Prefix<A> },
}

struct Chain<A: Addr> {
    head: Option<RibStageRef<A>>,
    origins: Vec<OriginId>,
}

impl<A: Addr> Default for Chain<A> {
    fn default() -> Self {
        Chain {
            head: None,
            origins: Vec::new(),
        }
    }
}

/// The assembled RIB (one per address family, as in XORP).
///
/// ```text
/// origins(igp…) ─ merges ─┐(internal)
///                         ExtInt ─ [Cache] ─ Redist ─ Register ─ output
/// origins(egp…) ─ merges ─┘(external)
/// ```
pub struct Rib<A: Addr>
where
    RouteEntry<A>: PolicyTarget,
{
    origins: FxHashMap<ProtocolId, Rc<RefCell<OriginTable<A>>>>,
    int_chain: Chain<A>,
    ext_chain: Chain<A>,
    extint: Rc<RefCell<ExtIntStage<A>>>,
    #[allow(clippy::type_complexity)]
    cache: Option<Rc<RefCell<CacheStage<A, RibRoute<A>>>>>,
    redist: Rc<RefCell<RedistStage<A>>>,
    register: Rc<RefCell<RegisterStage<A>>>,
    next_origin: u32,
    metrics: Option<RibMetrics>,
}

/// Registry handles for the RIB's pipeline work.
struct RibMetrics {
    /// `rib.batch_size` — operations per applied batch.
    batch_size: Histogram,
    /// `rib.stale_swept_total` — routes withdrawn by graceful-restart
    /// sweeps (never re-advertised in time; without supervision the
    /// sweep follows the death at once).
    stale_swept: Counter,
}

impl<A: Addr> Rib<A>
where
    RouteEntry<A>: PolicyTarget,
{
    /// Build an empty RIB.  With `consistency_checking`, a [`CacheStage`]
    /// is spliced after the ExtInt stage — the paper's debugging
    /// configuration ("not intended for normal production use").
    pub fn new(consistency_checking: bool) -> Self {
        let extint = stage_ref(ExtIntStage::new(EXTINT_SELF_ORIGIN));
        let redist = stage_ref(RedistStage::new());

        let cache = if consistency_checking {
            let c = stage_ref(CacheStage::new("rib-extint-out"));
            c.borrow_mut().set_upstream(extint.clone());
            c.borrow_mut().set_downstream(redist.clone());
            extint.borrow_mut().set_downstream(c.clone());
            Some(c)
        } else {
            extint.borrow_mut().set_downstream(redist.clone());
            None
        };
        redist.borrow_mut().set_upstream(extint.clone());
        let register = stage_ref(RegisterStage::new(extint.clone()));
        redist.borrow_mut().set_downstream(register.clone());

        Rib {
            origins: FxHashMap::default(),
            int_chain: Chain::default(),
            ext_chain: Chain::default(),
            extint,
            cache,
            redist,
            register,
            next_origin: 1,
            metrics: None,
        }
    }

    /// Attach a metrics registry: applied batch sizes become the
    /// `batch_size` histogram and graceful-restart sweep withdrawals the
    /// `stale_swept_total` counter (callers pass a process-scoped view,
    /// e.g. `rib.batch_size` from the harness).
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.metrics = Some(RibMetrics {
            batch_size: metrics.histogram("batch_size"),
            stale_swept: metrics.counter("stale_swept_total"),
        });
    }

    /// Direct the final route stream (what would go to the FEA) into a
    /// callback.
    pub fn set_output(
        &mut self,
        f: impl FnMut(&mut EventLoop, OriginId, RouteOp<A, RibRoute<A>>) + 'static,
    ) {
        let out = stage_ref(FnStage::new("rib-output", f));
        self.register.borrow_mut().set_downstream(out);
    }

    /// Ensure an origin table exists for `proto`, plumbing it into the
    /// appropriate side of the network.  Idempotent.
    pub fn add_protocol(&mut self, proto: ProtocolId) {
        if self.origins.contains_key(&proto) {
            return;
        }
        let oid = OriginId(self.next_origin);
        self.next_origin += 1;
        let origin = stage_ref(OriginTable::new(proto, oid));
        let external = is_external(proto);

        let chain = if external {
            &mut self.ext_chain
        } else {
            &mut self.int_chain
        };
        match chain.head.take() {
            None => {
                origin.borrow_mut().set_downstream(self.extint.clone());
                chain.head = Some(origin.clone());
            }
            Some(head) => {
                // Splice a fresh merge above the ExtInt stage.  Merges are
                // stateless, so this re-plumb is safe at any time; the new
                // origin table is empty, so no downstream state changes.
                let merge = stage_ref(MergeStage::new(
                    format!("{proto}"),
                    head.clone(),
                    chain.origins.iter().copied(),
                    origin.clone(),
                    [oid],
                ));
                head.borrow_mut().set_downstream(merge.clone());
                origin.borrow_mut().set_downstream(merge.clone());
                merge.borrow_mut().set_downstream(self.extint.clone());
                chain.head = Some(merge);
            }
        }
        chain.origins.push(oid);
        if external {
            // The stage fetches original external routes from whatever
            // now heads that side.
            let head = chain.head.clone().expect("head set just above");
            self.extint.borrow_mut().set_ext_upstream(head);
        }
        self.extint.borrow_mut().add_table(origin.clone());
        self.origins.insert(proto, origin);
    }

    /// Install (or update) a route; the origin table for its protocol is
    /// created on demand.
    pub fn add_route(&mut self, el: &mut EventLoop, route: RibRoute<A>) {
        self.add_protocol(route.proto);
        let origin = self
            .origins
            .get(&route.proto)
            // Unreachable panic: add_protocol just inserted (or found) the
            // entry for this protocol and nothing in between removes it.
            .expect("origin table exists: add_protocol ensured it")
            .clone();
        origin.borrow_mut().add_route(el, route);
    }

    /// Withdraw a route.
    pub fn delete_route(
        &mut self,
        el: &mut EventLoop,
        proto: ProtocolId,
        net: Prefix<A>,
    ) -> Option<RibRoute<A>> {
        self.origins
            .get(&proto)
            .and_then(|o| o.borrow_mut().delete_route(el, net))
    }

    /// Withdraw everything a protocol contributed (protocol shutdown).
    /// This is the *immediate flush* policy — the right answer for
    /// unsupervised or permanent death.  A supervised death should use
    /// [`Rib::mark_protocol_stale`] + [`Rib::sweep_stale`] instead.
    pub fn clear_protocol(&mut self, el: &mut EventLoop, proto: ProtocolId) {
        if let Some(o) = self.origins.get(&proto) {
            o.borrow_mut().clear(el);
        }
    }

    /// Graceful restart, phase 1: a supervised process died — keep its
    /// routes installed but mark them stale.  Returns how many were
    /// marked.
    pub fn mark_protocol_stale(&mut self, proto: ProtocolId) -> usize {
        self.origins
            .get(&proto)
            .map(|o| o.borrow_mut().mark_all_stale())
            .unwrap_or(0)
    }

    /// Graceful restart, phase 2: the grace timer fired — withdraw every
    /// route the restarted process did not re-advertise.  Returns how
    /// many were swept.
    pub fn sweep_stale(&mut self, el: &mut EventLoop, proto: ProtocolId) -> usize {
        let swept = self
            .origins
            .get(&proto)
            .map(|o| o.borrow_mut().sweep_stale(el))
            .unwrap_or(0);
        if let Some(m) = &self.metrics {
            m.stale_swept.add(swept as u64);
        }
        swept
    }

    /// Routes of `proto` still marked stale.
    pub fn stale_count(&self, proto: ProtocolId) -> usize {
        self.origins
            .get(&proto)
            .map(|o| o.borrow().stale_count())
            .unwrap_or(0)
    }

    /// Apply a batch of route operations with **one** resolve/redistribute
    /// recompute pass instead of one per route.
    ///
    /// Per-route, every internal change makes the ExtInt stage re-scan its
    /// nexthop index immediately.  Here the stage defers that scan for the
    /// duration of the batch and the final [`Rib::push`] resolves every
    /// affected external route exactly once.  A batch of size 1 is
    /// event-for-event identical to the per-route path (the deferred scan
    /// runs right after the single op, in the same order the immediate
    /// scan would have), so single routes keep the Fig-10 latency shape.
    ///
    /// Returns the number of operations applied.
    pub fn apply_batch(&mut self, el: &mut EventLoop, ops: Vec<BatchOp<A>>) -> usize {
        // Plumb origin tables for every protocol in the batch up front:
        // merge-splicing is idempotent and safe at any time, but doing it
        // before any route flows keeps the deferred-resolution window free
        // of topology changes.
        for op in &ops {
            if let BatchOp::Add(r) = op {
                self.add_protocol(r.proto);
            }
        }
        self.extint.borrow_mut().begin_batch();
        let n = ops.len();
        for op in ops {
            match op {
                BatchOp::Add(r) => self.add_route(el, r),
                BatchOp::Delete { proto, net } => {
                    self.delete_route(el, proto, net);
                }
            }
        }
        // One push: drains the ExtInt deferred re-resolution in a single
        // pass and signals the batch boundary downstream.
        self.push(el);
        if let Some(m) = &self.metrics {
            m.batch_size.observe(n as u64);
        }
        n
    }

    /// Signal a batch boundary through the network.
    pub fn push(&mut self, el: &mut EventLoop) {
        // Origin tables and merges only relay a push, and both sides meet
        // at the ExtInt stage: start there, with neither chain borrowed,
        // so its deferred re-resolution can look routes up on them.
        self.extint.borrow_mut().push(el);
    }

    /// Longest-prefix match against the final (post-arbitration) table.
    pub fn longest_match(&self, addr: A) -> Option<(Prefix<A>, RibRoute<A>)> {
        self.register.borrow().longest_match(addr)
    }

    /// Exact-match lookup against the final table.
    pub fn lookup_exact(&self, net: &Prefix<A>) -> Option<RibRoute<A>> {
        self.register.borrow().lookup_route(net)
    }

    /// Number of routes in the final table.
    pub fn route_count(&self) -> usize {
        self.register.borrow().route_count()
    }

    /// Register interest in the routing for `addr` (§5.2.1).
    pub fn register_interest(&mut self, client: u32, addr: A) -> RegisterAnswer<A> {
        self.register.borrow_mut().register_interest(client, addr)
    }

    /// Drop an interest registration.
    pub fn deregister_interest(&mut self, client: u32, valid: &Prefix<A>) -> bool {
        self.register
            .borrow_mut()
            .deregister_interest(client, valid)
    }

    /// Install the invalidation callback for an interest client.
    pub fn set_invalidation_cb(&mut self, client: u32, cb: InvalidationCb<A>) {
        self.register.borrow_mut().set_invalidation_cb(client, cb);
    }

    /// Add a redistribution watcher (§5.2).  A late subscriber — one
    /// registering after routes already flowed — is brought up to date by a
    /// background dump walking the origin tables with safe iterators
    /// (§5.3); at no point is the full table replayed in one callback.
    pub fn add_redist_watcher(&mut self, el: &mut EventLoop, w: RedistWatcher<A>) {
        let sources: Vec<Box<dyn DumpSource<A>>> = self
            .origins
            .values()
            .filter(|o| !o.borrow().is_empty())
            .map(|o| Box::new(TableSource::new(o.clone())) as Box<dyn DumpSource<A>>)
            .collect();
        self.redist.borrow_mut().add_watcher_dumped(el, w, sources);
    }

    /// Drop a redistribution watcher, with any dump still walking toward
    /// it.
    pub fn remove_redist_watcher(&mut self, name: &str) -> bool {
        self.redist.borrow_mut().remove_watcher(name)
    }

    /// Flow control for a redistribution watcher's dump (XRL
    /// backpressure): `ready = false` parks the dump before its next
    /// slice, `ready = true` restarts it.  Live ops go straight to the
    /// watcher's sink either way; holding them while the lane is
    /// congested is the sink's job (the FEA hop's `RouteOutput`).
    pub fn set_redist_watcher_flow(&mut self, el: &mut EventLoop, name: &str, ready: bool) {
        self.redist.borrow_mut().set_watcher_flow(el, name, ready);
    }

    /// The watcher's flow cell.  A congestion callback closes it
    /// synchronously, so the dump parks before its next slice.
    pub fn redist_watcher_flow(&self, name: &str) -> Option<Rc<Cell<bool>>> {
        self.redist.borrow().watcher_flow(name)
    }

    /// Consistency violations recorded by the optional cache stage.
    pub fn consistency_violations(&self) -> Vec<String> {
        self.cache
            .as_ref()
            .map(|c| {
                c.borrow()
                    .violations()
                    .iter()
                    .map(|v| v.message.clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Total heap bytes of every structure the RIB holds: the origin
    /// tables (the only place routes are stored, and the only structure
    /// that grows with the external table), the ExtInt stage's internal
    /// mirror (O(IGP routes)) and per-nexthop index, the Register stage's
    /// interest registrations, and what redistribution watchers hold (an
    /// in-flight dump's sync set).  This is the number
    /// compared against the paper's "60 MB for the RIB".
    pub fn memory_bytes(&self) -> usize {
        self.origin_bytes()
            + self.extint.borrow().heap_size()
            + self.register.borrow().heap_size()
            + self.redist.borrow().heap_size()
    }

    /// The origin tables' share of [`Rib::memory_bytes`]; the rest is what
    /// the stages downstream of them add.
    pub fn origin_bytes(&self) -> usize {
        self.origins
            .values()
            .map(|o| o.borrow().memory_bytes())
            .sum()
    }

    /// Routes currently held back by the ExtInt stage as unresolvable.
    pub fn unresolved_count(&self) -> usize {
        self.extint.borrow().unresolved_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};
    use std::sync::Arc;
    use xorp_net::PathAttributes;

    fn route(net: &str, nh: &str, proto: ProtocolId) -> RibRoute<Ipv4Addr> {
        let mut r = RibRoute::new(
            net.parse().unwrap(),
            Arc::new(PathAttributes::new(IpAddr::V4(nh.parse().unwrap()))),
            1,
            proto,
        );
        if !is_external(proto) {
            r.ifname = Some("eth0".into());
        }
        r
    }

    fn p(s: &str) -> Prefix<Ipv4Addr> {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn end_to_end_route_flow() {
        let mut el = EventLoop::new_virtual();
        let mut rib: Rib<Ipv4Addr> = Rib::new(true);
        let fib = Rc::new(RefCell::new(std::collections::BTreeMap::new()));
        let f = fib.clone();
        rib.set_output(move |_el, _o, op| {
            match &op {
                RouteOp::Add { net, route }
                | RouteOp::Replace {
                    net, new: route, ..
                } => {
                    f.borrow_mut().insert(*net, route.clone());
                }
                RouteOp::Delete { net, .. } => {
                    f.borrow_mut().remove(net);
                }
            };
        });

        rib.add_route(
            &mut el,
            route("192.168.0.0/16", "0.0.0.0", ProtocolId::Connected),
        );
        rib.add_route(
            &mut el,
            route("10.0.0.0/8", "192.168.1.1", ProtocolId::Static),
        );
        assert_eq!(fib.borrow().len(), 2);
        assert_eq!(rib.route_count(), 2);
        assert!(rib.consistency_violations().is_empty());
    }

    #[test]
    fn admin_distance_arbitration_across_protocols() {
        let mut el = EventLoop::new_virtual();
        let mut rib: Rib<Ipv4Addr> = Rib::new(true);
        rib.add_route(&mut el, route("10.0.0.0/8", "192.0.2.1", ProtocolId::Rip));
        assert_eq!(
            rib.lookup_exact(&p("10.0.0.0/8")).unwrap().proto,
            ProtocolId::Rip
        );
        rib.add_route(
            &mut el,
            route("10.0.0.0/8", "192.0.2.2", ProtocolId::Static),
        );
        assert_eq!(
            rib.lookup_exact(&p("10.0.0.0/8")).unwrap().proto,
            ProtocolId::Static
        );
        rib.delete_route(&mut el, ProtocolId::Static, p("10.0.0.0/8"));
        assert_eq!(
            rib.lookup_exact(&p("10.0.0.0/8")).unwrap().proto,
            ProtocolId::Rip
        );
        rib.delete_route(&mut el, ProtocolId::Rip, p("10.0.0.0/8"));
        assert!(rib.lookup_exact(&p("10.0.0.0/8")).is_none());
        assert!(rib.consistency_violations().is_empty());
    }

    #[test]
    fn three_igp_protocols_chain() {
        let mut el = EventLoop::new_virtual();
        let mut rib: Rib<Ipv4Addr> = Rib::new(true);
        // Same prefix from three protocols; best (lowest AD) must win at
        // each step of adding and deleting.
        rib.add_route(&mut el, route("10.0.0.0/8", "1.1.1.1", ProtocolId::Rip)); // 120
        rib.add_route(&mut el, route("10.0.0.0/8", "2.2.2.2", ProtocolId::Static)); // 1
        rib.add_route(
            &mut el,
            route("10.0.0.0/8", "3.3.3.3", ProtocolId::Connected),
        ); // 0
        assert_eq!(
            rib.lookup_exact(&p("10.0.0.0/8")).unwrap().proto,
            ProtocolId::Connected
        );
        rib.delete_route(&mut el, ProtocolId::Connected, p("10.0.0.0/8"));
        assert_eq!(
            rib.lookup_exact(&p("10.0.0.0/8")).unwrap().proto,
            ProtocolId::Static
        );
        rib.delete_route(&mut el, ProtocolId::Static, p("10.0.0.0/8"));
        assert_eq!(
            rib.lookup_exact(&p("10.0.0.0/8")).unwrap().proto,
            ProtocolId::Rip
        );
        assert!(rib.consistency_violations().is_empty());
    }

    #[test]
    fn bgp_routes_resolve_via_igp() {
        let mut el = EventLoop::new_virtual();
        let mut rib: Rib<Ipv4Addr> = Rib::new(true);
        // BGP route arrives before its nexthop is routable: held back.
        rib.add_route(
            &mut el,
            route("203.0.113.0/24", "192.168.5.1", ProtocolId::Ebgp),
        );
        assert_eq!(rib.route_count(), 0);
        assert_eq!(rib.unresolved_count(), 1);
        // IGP route to the nexthop appears: BGP route becomes usable.
        rib.add_route(
            &mut el,
            route("192.168.0.0/16", "0.0.0.0", ProtocolId::Connected),
        );
        assert_eq!(rib.route_count(), 2);
        assert_eq!(rib.unresolved_count(), 0);
        assert_eq!(
            rib.lookup_exact(&p("203.0.113.0/24"))
                .unwrap()
                .ifname
                .as_deref(),
            Some("eth0")
        );
        // IGP route vanishes: BGP route withddrawn from the final table.
        rib.delete_route(&mut el, ProtocolId::Connected, p("192.168.0.0/16"));
        assert_eq!(rib.route_count(), 0);
        assert!(rib.consistency_violations().is_empty());
    }

    #[test]
    fn interest_registration_through_facade() {
        let mut el = EventLoop::new_virtual();
        let mut rib: Rib<Ipv4Addr> = Rib::new(false);
        rib.add_route(
            &mut el,
            route("128.16.0.0/16", "0.0.0.0", ProtocolId::Static),
        );
        rib.add_route(
            &mut el,
            route("128.16.192.0/18", "0.0.0.0", ProtocolId::Static),
        );

        let invalidated = Rc::new(RefCell::new(Vec::new()));
        let inv = invalidated.clone();
        rib.set_invalidation_cb(
            5,
            Rc::new(move |_el, _c, valid| inv.borrow_mut().push(valid)),
        );
        let ans = rib.register_interest(5, a("128.16.128.1"));
        // /16 matched but overlaid by the /18: valid range narrows.
        assert_eq!(ans.valid, p("128.16.128.0/18"));
        // A change inside the valid range invalidates.
        rib.add_route(
            &mut el,
            route("128.16.128.0/24", "0.0.0.0", ProtocolId::Static),
        );
        assert_eq!(invalidated.borrow().len(), 1);
    }

    #[test]
    fn redistribution_rip_to_bgp_with_tags() {
        let mut el = EventLoop::new_virtual();
        let mut rib: Rib<Ipv4Addr> = Rib::new(true);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        let mut policy = xorp_policy::FilterBank::accept_by_default();
        policy
            .push_source("export-rip", "add-tag 7; accept;")
            .unwrap();
        rib.add_redist_watcher(
            &mut el,
            RedistWatcher::new(
                "rip-to-bgp",
                Some([ProtocolId::Rip].into_iter().collect()),
                policy,
                Rc::new(move |_el, op| s.borrow_mut().push(op)),
            ),
        );
        rib.add_route(&mut el, route("10.1.0.0/16", "192.0.2.1", ProtocolId::Rip));
        rib.add_route(
            &mut el,
            route("10.2.0.0/16", "192.0.2.1", ProtocolId::Static),
        );
        let seen = seen.borrow();
        assert_eq!(seen.len(), 1);
        match &seen[0] {
            RouteOp::Add { route, .. } => {
                assert_eq!(route.proto, ProtocolId::Rip);
                assert_eq!(route.attrs.tags, vec![7]); // the §8.3 tag list
            }
            other => panic!("{other:?}"),
        }
    }

    /// A watcher registering *after* routes exist learns the table from a
    /// background dump — sliced, filtered, and deduplicated against live
    /// churn arriving mid-dump.
    #[test]
    fn late_redist_watcher_gets_background_dump() {
        let mut el = EventLoop::new_virtual();
        let mut rib: Rib<Ipv4Addr> = Rib::new(true);
        for i in 0..150u32 {
            rib.add_route(
                &mut el,
                route(
                    &format!("10.{}.{}.0/24", i / 256, i % 256),
                    "192.0.2.1",
                    ProtocolId::Rip,
                ),
            );
        }
        rib.add_route(
            &mut el,
            route("172.16.0.0/16", "192.0.2.1", ProtocolId::Static),
        );

        let seen = Rc::new(RefCell::new(std::collections::BTreeMap::new()));
        let s = seen.clone();
        rib.add_redist_watcher(
            &mut el,
            RedistWatcher::new(
                "late-rip",
                Some([ProtocolId::Rip].into_iter().collect()),
                xorp_policy::FilterBank::accept_by_default(),
                Rc::new(move |_el, op| match op {
                    RouteOp::Add { net, .. } | RouteOp::Replace { net, .. } => {
                        let prev = s.borrow_mut().insert(net, ());
                        assert!(prev.is_none(), "{net} delivered twice");
                    }
                    RouteOp::Delete { net, .. } => {
                        s.borrow_mut().remove(&net);
                    }
                }),
            ),
        );
        // Nothing delivered synchronously: the walk is a background task.
        assert!(seen.borrow().is_empty());

        // Live churn lands while the dump is still walking: a fresh route
        // and a deletion of one not yet reached.
        el.run_one();
        rib.add_route(&mut el, route("10.3.0.0/24", "192.0.2.1", ProtocolId::Rip));
        rib.delete_route(&mut el, ProtocolId::Rip, p("10.0.149.0/24"));

        el.run_until_idle();
        // 150 - 1 deleted + 1 added; the Static route never qualifies.
        assert_eq!(seen.borrow().len(), 150);
        assert!(!seen.borrow().contains_key(&p("10.0.149.0/24")));
        assert!(seen.borrow().contains_key(&p("10.3.0.0/24")));
        assert!(rib.consistency_violations().is_empty());
    }

    #[test]
    fn memory_accounting() {
        let mut el = EventLoop::new_virtual();
        let mut rib: Rib<Ipv4Addr> = Rib::new(false);
        let empty = rib.memory_bytes();
        for i in 0..100u32 {
            rib.add_route(
                &mut el,
                route(
                    &format!("10.{}.{}.0/24", i / 256, i % 256),
                    "0.0.0.0",
                    ProtocolId::Static,
                ),
            );
        }
        assert!(rib.memory_bytes() > empty);
    }

    /// Supervised death (§4.1 relaxed): mark-stale keeps the final table
    /// intact, re-advertisement un-stales, the sweep withdraws only what
    /// was never re-learned.
    #[test]
    fn graceful_restart_stale_then_sweep() {
        let mut el = EventLoop::new_virtual();
        let mut rib: Rib<Ipv4Addr> = Rib::new(true);
        rib.add_route(
            &mut el,
            route("192.168.0.0/16", "0.0.0.0", ProtocolId::Connected),
        );
        for i in 0..4u8 {
            rib.add_route(
                &mut el,
                route(&format!("10.{i}.0.0/16"), "192.168.0.9", ProtocolId::Ebgp),
            );
        }
        assert_eq!(rib.route_count(), 5);

        // The BGP process dies under supervision: nothing is withdrawn.
        assert_eq!(rib.mark_protocol_stale(ProtocolId::Ebgp), 4);
        assert_eq!(rib.route_count(), 5);
        assert_eq!(rib.stale_count(ProtocolId::Ebgp), 4);

        // The restarted process re-advertises three of the four.
        for i in 0..3u8 {
            rib.add_route(
                &mut el,
                route(&format!("10.{i}.0.0/16"), "192.168.0.9", ProtocolId::Ebgp),
            );
        }
        assert_eq!(rib.stale_count(ProtocolId::Ebgp), 1);

        // Grace timer: only the unrefreshed route goes.
        assert_eq!(rib.sweep_stale(&mut el, ProtocolId::Ebgp), 1);
        assert_eq!(rib.route_count(), 4);
        assert_eq!(rib.stale_count(ProtocolId::Ebgp), 0);
        assert!(rib.consistency_violations().is_empty());

        // Unknown protocols are harmless no-ops.
        assert_eq!(rib.mark_protocol_stale(ProtocolId::Rip), 0);
        assert_eq!(rib.sweep_stale(&mut el, ProtocolId::Rip), 0);
    }

    #[test]
    fn clear_protocol_withdraws_everything() {
        let mut el = EventLoop::new_virtual();
        let mut rib: Rib<Ipv4Addr> = Rib::new(true);
        for i in 0..10u8 {
            rib.add_route(
                &mut el,
                route(&format!("10.{i}.0.0/16"), "0.0.0.0", ProtocolId::Rip),
            );
        }
        assert_eq!(rib.route_count(), 10);
        rib.clear_protocol(&mut el, ProtocolId::Rip);
        assert_eq!(rib.route_count(), 0);
        assert!(rib.consistency_violations().is_empty());
    }

    // ----- apply_batch ---------------------------------------------------

    /// Render an output op as a comparable line (origin ids may differ
    /// between topologies, so only the op itself is compared).
    fn fmt_op(op: &RouteOp<Ipv4Addr, RibRoute<Ipv4Addr>>) -> String {
        match op {
            RouteOp::Add { net, route } => {
                format!("add {net} {:?} {:?}", route.proto, route.ifname)
            }
            RouteOp::Replace { net, new, .. } => {
                format!("replace {net} {:?} {:?}", new.proto, new.ifname)
            }
            RouteOp::Delete { net, old } => format!("delete {net} {:?}", old.proto),
        }
    }

    fn recording_rib() -> (Rib<Ipv4Addr>, Rc<RefCell<Vec<String>>>) {
        let mut rib: Rib<Ipv4Addr> = Rib::new(true);
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        rib.set_output(move |_el, _o, op| l.borrow_mut().push(fmt_op(&op)));
        (rib, log)
    }

    fn mixed_ops() -> Vec<BatchOp<Ipv4Addr>> {
        vec![
            BatchOp::Add(route("192.168.0.0/16", "0.0.0.0", ProtocolId::Connected)),
            BatchOp::Add(route("203.0.113.0/24", "192.168.5.1", ProtocolId::Ebgp)),
            BatchOp::Add(route("10.1.0.0/16", "192.0.2.1", ProtocolId::Rip)),
            BatchOp::Delete {
                proto: ProtocolId::Rip,
                net: p("10.1.0.0/16"),
            },
            BatchOp::Add(route("10.2.0.0/16", "192.0.2.1", ProtocolId::Static)),
        ]
    }

    #[test]
    fn batch_matches_per_route_final_state() {
        let mut el = EventLoop::new_virtual();
        let (mut per_route, _) = recording_rib();
        for op in mixed_ops() {
            match op {
                BatchOp::Add(r) => per_route.add_route(&mut el, r),
                BatchOp::Delete { proto, net } => {
                    per_route.delete_route(&mut el, proto, net);
                }
            }
        }
        let (mut batched, _) = recording_rib();
        batched.apply_batch(&mut el, mixed_ops());

        assert_eq!(per_route.route_count(), batched.route_count());
        for net in ["192.168.0.0/16", "203.0.113.0/24", "10.2.0.0/16"] {
            assert_eq!(
                per_route.lookup_exact(&p(net)),
                batched.lookup_exact(&p(net)),
                "{net}"
            );
        }
        assert!(per_route.consistency_violations().is_empty());
        assert!(batched.consistency_violations().is_empty());
    }

    #[test]
    fn batch_of_one_is_event_identical_to_per_route() {
        let mut el = EventLoop::new_virtual();
        let (mut per_route, log_a) = recording_rib();
        let (mut batched, log_b) = recording_rib();
        for op in mixed_ops() {
            match op.clone() {
                BatchOp::Add(r) => per_route.add_route(&mut el, r),
                BatchOp::Delete { proto, net } => {
                    per_route.delete_route(&mut el, proto, net);
                }
            }
            per_route.push(&mut el);
            batched.apply_batch(&mut el, vec![op]);
        }
        assert_eq!(*log_a.borrow(), *log_b.borrow());
    }

    /// N internal changes covering one external nexthop inside a batch
    /// trigger exactly ONE downstream event for the external route — the
    /// tentpole's "one resolve pass instead of N".
    #[test]
    fn batch_reresolves_externals_once() {
        let mut el = EventLoop::new_virtual();
        let (mut rib, log) = recording_rib();
        rib.add_route(
            &mut el,
            route("203.0.113.0/24", "192.168.1.1", ProtocolId::Ebgp),
        );
        assert_eq!(rib.unresolved_count(), 1);
        log.borrow_mut().clear();

        // Four internal routes all cover the BGP nexthop; per-route each
        // would re-resolve (and re-announce) the external route.
        rib.apply_batch(
            &mut el,
            vec![
                BatchOp::Add(route("192.168.0.0/16", "0.0.0.0", ProtocolId::Connected)),
                BatchOp::Add(route("192.168.0.0/17", "0.0.0.0", ProtocolId::Static)),
                BatchOp::Add(route("192.168.1.0/24", "0.0.0.0", ProtocolId::Static)),
                BatchOp::Add(route("192.168.1.0/25", "0.0.0.0", ProtocolId::Static)),
            ],
        );
        let ext_events: Vec<_> = log
            .borrow()
            .iter()
            .filter(|l| l.contains("203.0.113.0/24"))
            .cloned()
            .collect();
        assert_eq!(ext_events.len(), 1, "{ext_events:?}");
        // And it resolved via the most specific internal route.
        assert!(ext_events[0].starts_with("add"), "{ext_events:?}");
        assert_eq!(rib.unresolved_count(), 0);
        assert!(rib.consistency_violations().is_empty());
    }

    /// Resolution lost inside a batch withdraws the external route at the
    /// batch boundary.
    #[test]
    fn batch_handles_resolution_loss() {
        let mut el = EventLoop::new_virtual();
        let (mut rib, _) = recording_rib();
        rib.apply_batch(
            &mut el,
            vec![
                BatchOp::Add(route("192.168.0.0/16", "0.0.0.0", ProtocolId::Connected)),
                BatchOp::Add(route("203.0.113.0/24", "192.168.5.1", ProtocolId::Ebgp)),
                BatchOp::Delete {
                    proto: ProtocolId::Connected,
                    net: p("192.168.0.0/16"),
                },
            ],
        );
        assert!(rib.lookup_exact(&p("203.0.113.0/24")).is_none());
        assert_eq!(rib.unresolved_count(), 1);
        assert!(rib.consistency_violations().is_empty());
    }

    // ----- one table: routes live only in the origin stages --------------

    /// The external route for a prefix exists only in its origin table;
    /// arbitration against an internal route for the same prefix must
    /// still flip — both ways — as the internal side changes.
    #[test]
    fn arbitration_flips_with_external_route_only_upstream() {
        let mut el = EventLoop::new_virtual();
        let (mut rib, log) = recording_rib();
        rib.add_route(
            &mut el,
            route("192.168.0.0/16", "0.0.0.0", ProtocolId::Connected),
        );
        rib.add_route(
            &mut el,
            route("10.0.0.0/8", "192.168.1.1", ProtocolId::Ebgp),
        );
        let winner = |rib: &Rib<Ipv4Addr>| rib.lookup_exact(&p("10.0.0.0/8")).unwrap().proto;
        assert_eq!(winner(&rib), ProtocolId::Ebgp);

        // A worse internal route (RIP, 120 > 20) changes nothing downstream.
        log.borrow_mut().clear();
        rib.add_route(&mut el, route("10.0.0.0/8", "192.0.2.1", ProtocolId::Rip));
        assert_eq!(winner(&rib), ProtocolId::Ebgp);
        assert!(log.borrow().is_empty(), "{:?}", log.borrow());

        // A better one (static, 1 < 20) takes over, and hands back.
        rib.add_route(
            &mut el,
            route("10.0.0.0/8", "192.0.2.2", ProtocolId::Static),
        );
        assert_eq!(winner(&rib), ProtocolId::Static);
        rib.delete_route(&mut el, ProtocolId::Static, p("10.0.0.0/8"));
        assert_eq!(winner(&rib), ProtocolId::Ebgp);
        assert_eq!(
            *log.borrow(),
            [
                "replace 10.0.0.0/8 Static Some(\"eth0\")",
                "replace 10.0.0.0/8 Ebgp Some(\"eth0\")"
            ]
        );

        // The external route goes: the remaining internal one surfaces.
        rib.delete_route(&mut el, ProtocolId::Ebgp, p("10.0.0.0/8"));
        assert_eq!(winner(&rib), ProtocolId::Rip);
        assert_eq!(rib.route_count(), 2);
        assert!(rib.consistency_violations().is_empty());
    }

    /// Adding a second external protocol splices a merge above the ExtInt
    /// stage; the stage's handle on the external side must follow, or
    /// eBGP routes announced before the splice stop answering lookups and
    /// stop re-resolving.
    #[test]
    fn merge_splice_keeps_external_upstream() {
        let mut el = EventLoop::new_virtual();
        let mut rib: Rib<Ipv4Addr> = Rib::new(true);
        let connected = route("192.168.0.0/16", "0.0.0.0", ProtocolId::Connected);
        rib.add_route(&mut el, connected.clone());
        for i in 0..4u8 {
            rib.add_route(
                &mut el,
                route(&format!("10.{i}.0.0/16"), "192.168.0.9", ProtocolId::Ebgp),
            );
        }
        rib.add_route(
            &mut el,
            route("10.0.0.0/16", "192.168.0.7", ProtocolId::Ibgp),
        );
        rib.add_route(
            &mut el,
            route("10.9.0.0/16", "192.168.0.7", ProtocolId::Ibgp),
        );
        // eBGP (20) beats iBGP (200) where both exist; both still answer.
        assert_eq!(
            rib.lookup_exact(&p("10.0.0.0/16")).unwrap().proto,
            ProtocolId::Ebgp
        );
        assert_eq!(
            rib.longest_match(a("10.3.1.1")).unwrap().1.proto,
            ProtocolId::Ebgp
        );
        assert_eq!(
            rib.lookup_exact(&p("10.9.0.0/16")).unwrap().proto,
            ProtocolId::Ibgp
        );
        assert_eq!(rib.route_count(), 6);

        // Re-resolution fetches originals through the merge.
        rib.delete_route(&mut el, ProtocolId::Connected, p("192.168.0.0/16"));
        assert_eq!(rib.route_count(), 0);
        assert_eq!(rib.unresolved_count(), 5);
        rib.add_route(&mut el, connected);
        assert_eq!(rib.route_count(), 6);
        assert_eq!(
            rib.lookup_exact(&p("10.2.0.0/16"))
                .unwrap()
                .ifname
                .as_deref(),
            Some("eth0")
        );
        assert!(rib.consistency_violations().is_empty());
    }

    /// Redistribution watchers keep no per-route state: a watcher that has
    /// seen 20,000 routes holds nothing, and a late one holds its dump's
    /// sync set only while the walk runs.
    #[test]
    fn redist_watchers_hold_no_per_route_state() {
        let mut el = EventLoop::new_virtual();
        let mut rib: Rib<Ipv4Addr> = Rib::new(false);
        let watcher = |name| {
            let accept = xorp_policy::FilterBank::accept_by_default();
            RedistWatcher::new(name, None, accept, Rc::new(|_el, _op| {}))
        };
        let held = |rib: &Rib<Ipv4Addr>| rib.redist.borrow().heap_size();
        rib.add_redist_watcher(&mut el, watcher("early"));
        for i in 0..20_000u32 {
            let net = Prefix::new(Ipv4Addr::from((10 << 24) | (i << 8)), 24).unwrap();
            rib.add_route(
                &mut el,
                route(&net.to_string(), "0.0.0.0", ProtocolId::Static),
            );
        }
        assert_eq!(held(&rib), 0);
        rib.add_redist_watcher(&mut el, watcher("late"));
        el.run_one(); // one dump slice
        assert!(held(&rib) > 0, "the walk's sync set is charged");
        el.run_until_idle();
        assert_eq!(held(&rib), 0);
    }

    /// A Figure 8 query on a large external table costs trie steps, not a
    /// scan of that table, both while every external route resolves and
    /// while none does, which is where an IGP withdrawal leaves a peering
    /// whose routes share one nexthop.  Only while some resolve and some do
    /// not are external prefixes checked one by one, at most once per
    /// narrowing step each.
    #[test]
    fn figure8_queries_scan_external_routes_only_while_resolution_is_mixed() {
        const ROUTES: u32 = 5_000;
        let mut el = EventLoop::new_virtual();
        let mut rib: Rib<Ipv4Addr> = Rib::new(true);
        let igp = route("192.168.0.0/16", "0.0.0.0", ProtocolId::Connected);
        rib.add_route(&mut el, igp.clone());
        for i in 0..ROUTES {
            let net = Prefix::new(Ipv4Addr::from((10 << 24) | (i << 8)), 24).unwrap();
            rib.add_route(
                &mut el,
                route(&net.to_string(), "192.168.1.1", ProtocolId::Ebgp),
            );
        }
        let checks = |rib: &Rib<Ipv4Addr>| rib.extint.borrow().final_checks.get();
        let ask = |rib: &mut Rib<Ipv4Addr>, addr: &str| {
            let ans = rib.register_interest(1, a(addr));
            (ans.route.map(|r| r.net), ans.valid)
        };

        // Every external route resolves.
        assert_eq!(
            ask(&mut rib, "192.168.1.1"),
            (Some(p("192.168.0.0/16")), p("192.168.0.0/16"))
        );
        assert_eq!(ask(&mut rib, "10.200.0.1"), (None, p("10.128.0.0/9")));
        assert_eq!(checks(&rib), 0);

        // The IGP route goes: every external route is held back.
        rib.delete_route(&mut el, ProtocolId::Connected, igp.net);
        assert_eq!(rib.unresolved_count(), ROUTES as usize);
        assert_eq!(ask(&mut rib, "192.168.1.1"), (None, p("0.0.0.0/0")));
        assert_eq!(ask(&mut rib, "10.0.0.1"), (None, p("0.0.0.0/0")));
        assert_eq!(checks(&rib), 0);

        // One external route resolves through another nexthop: the held
        // routes sharing its ranges are checked one by one.
        rib.add_route(
            &mut el,
            route("172.16.0.0/12", "0.0.0.0", ProtocolId::Static),
        );
        rib.add_route(&mut el, route("20.0.0.0/8", "172.16.0.1", ProtocolId::Ebgp));
        assert_eq!(ask(&mut rib, "10.200.0.1"), (None, p("0.0.0.0/4")));
        let mixed = checks(&rib);
        println!("mixed resolution: {mixed} checks for one query over {ROUTES} held routes");
        assert!(
            (1..=32 * (ROUTES as u64 + 1)).contains(&mixed),
            "{mixed} checks"
        );

        // Resolved again, plus a route whose nexthop is of the other
        // family and never resolves: a scan stops at the first final
        // prefix.
        rib.add_route(&mut el, igp);
        let mut foreign = route("30.0.0.0/8", "0.0.0.0", ProtocolId::Ebgp);
        foreign.attrs = Arc::new(PathAttributes::new("2001:db8::1".parse().unwrap()));
        rib.add_route(&mut el, foreign);
        assert_eq!(ask(&mut rib, "10.200.0.1"), (None, p("10.128.0.0/9")));
        assert!(
            checks(&rib) - mixed <= 32,
            "{} checks",
            checks(&rib) - mixed
        );
        assert!(rib.consistency_violations().is_empty());
    }

    /// The RIB keeps nothing per route beyond its origin tables: the
    /// stages below hold per-nexthop and per-client state only.  A
    /// reintroduced per-route structure — a per-nexthop prefix set, a
    /// prefix trie in the Register stage, a copy of the table — costs at
    /// least a map entry per route and cannot fit under this bound.  The
    /// bound is on the growth from 10,000 to 20,000 routes, so a fixed cost
    /// is not charged per route.
    #[test]
    fn memory_budget_beyond_origin_tables() {
        const ROUTES: u32 = 20_000;
        let mut el = EventLoop::new_virtual();
        let mut rib: Rib<Ipv4Addr> = Rib::new(false);
        rib.add_route(
            &mut el,
            route("192.168.0.0/16", "0.0.0.0", ProtocolId::Connected),
        );
        let attrs = Arc::new(PathAttributes::new(IpAddr::V4(a("192.168.1.1"))));
        let beyond = |rib: &Rib<Ipv4Addr>| rib.memory_bytes() - rib.origin_bytes();
        let mut at_half = 0;
        for i in 0..ROUTES {
            if i == ROUTES / 2 {
                at_half = beyond(&rib);
            }
            let net = Prefix::new(Ipv4Addr::from((10 << 24) | (i << 8)), 24).unwrap();
            rib.add_route(
                &mut el,
                RibRoute::new(net, attrs.clone(), 0, ProtocolId::Ebgp),
            );
        }
        assert_eq!(rib.route_count(), ROUTES as usize + 1);
        let per_route = (beyond(&rib) - at_half) / (ROUTES / 2) as usize;
        println!(
            "rib beyond origin tables: {at_half} B at {} routes, {} B at {ROUTES}: \
             {per_route} B/route (origin tables {} B/route)",
            ROUTES / 2,
            beyond(&rib),
            rib.origin_bytes() / ROUTES as usize
        );
        assert!(per_route <= 4, "{per_route} B/route beyond origin tables");
    }
}
