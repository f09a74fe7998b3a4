//! Origin tables: the stages where routes are actually stored (§5.2).

use std::collections::BTreeMap;
use std::sync::Arc;

use xorp_event::EventLoop;
use xorp_net::{
    Addr, AdminDistance, HeapSize, PathAttributes, PatriciaTrie, Prefix, ProtocolId, SharesAttrs,
    StaleSet,
};
use xorp_stages::{OriginId, RouteOp, Stage, StageRef, TrieTable};

use crate::RibRoute;

/// What an origin table stores per route: the part that varies from
/// route to route, in 16 bytes.  The trie holds the prefix and the table
/// the protocol, its admin distance and the interface names.
#[derive(Debug)]
pub struct OriginSlot {
    /// Shared attribute block (one per nexthop for routes read off the
    /// wire).
    attrs: Arc<PathAttributes>,
    /// Protocol metric.
    metric: u32,
    /// The interface the route points out of: an index into the table's
    /// [`IfNames`], 0 for none.
    iface: u32,
}

/// The name is the table's, charged there.
impl HeapSize for OriginSlot {
    fn heap_size(&self) -> usize {
        self.attrs.heap_size()
    }
}

impl SharesAttrs for OriginSlot {
    fn attrs(&self) -> &Arc<PathAttributes> {
        &self.attrs
    }
}

/// The interface names an origin table's routes point out of, each kept
/// once with the number of routes naming it.  A slot holds a name's
/// position plus one.  A name leaves with the last route naming it, and
/// its position is reused, so the table holds only names in use however
/// many a client has sent.  The index is ordered because the names are
/// client-chosen.
#[derive(Default)]
struct IfNames {
    names: Vec<Option<(Arc<str>, usize)>>,
    index: BTreeMap<Arc<str>, u32>,
    free: Vec<u32>,
}

impl IfNames {
    /// The slot index for `name`, counting one more route naming it.
    fn acquire(&mut self, name: Option<Arc<str>>) -> u32 {
        let Some(name) = name else {
            return 0;
        };
        if let Some(&i) = self.index.get(&name) {
            self.entry(i).1 += 1;
            return i;
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.names[i as usize - 1] = Some((name.clone(), 1));
                i
            }
            None => {
                self.names.push(Some((name.clone(), 1)));
                u32::try_from(self.names.len()).expect("fewer than 2^32 names in use")
            }
        };
        self.index.insert(name, i);
        i
    }

    /// One route fewer names slot index `i`.
    fn release(&mut self, i: u32) {
        if i == 0 {
            return;
        }
        let routes = &mut self.entry(i).1;
        *routes -= 1;
        if *routes == 0 {
            let (name, _) = self.names[i as usize - 1].take().expect("entry found it");
            self.index.remove(&name);
            self.free.push(i);
        }
    }

    /// The name slot index `i` stands for.
    fn get(&self, i: u32) -> Option<Arc<str>> {
        let i = i.checked_sub(1)? as usize;
        let (name, _) = self.names[i].as_ref().expect("a slot names a name in use");
        Some(name.clone())
    }

    fn entry(&mut self, i: u32) -> &mut (Arc<str>, usize) {
        self.names[i as usize - 1]
            .as_mut()
            .expect("a slot names a name in use")
    }
}

impl HeapSize for IfNames {
    fn heap_size(&self) -> usize {
        let names: usize = self.index.keys().map(|name| name.len()).sum();
        names
            + self.names.capacity() * std::mem::size_of::<Option<(Arc<str>, usize)>>()
            + self.index.len() * std::mem::size_of::<(Arc<str>, u32)>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }
}

/// A per-protocol route store at the head of the RIB's stage network.
///
/// Protocols feed routes in via [`OriginTable::add_route`] /
/// [`OriginTable::delete_route`]; deltas flow downstream as consistent
/// add/replace/delete messages.  A route is stored as an [`OriginSlot`]
/// and handed out rebuilt with the table's protocol, admin distance and
/// interface name; it names no source.
pub struct OriginTable<A: Addr> {
    proto: ProtocolId,
    origin: OriginId,
    routes: PatriciaTrie<A, OriginSlot>,
    names: IfNames,
    /// Graceful-restart marks: prefixes whose contributing process died
    /// under supervision ([`OriginTable::sweep_stale`] withdraws them).
    stale: StaleSet<A>,
    downstream: Option<StageRef<A, RibRoute<A>>>,
}

impl<A: Addr> OriginTable<A> {
    /// A table for `proto`, identified downstream by `origin`.
    pub fn new(proto: ProtocolId, origin: OriginId) -> Self {
        OriginTable {
            proto,
            origin,
            routes: PatriciaTrie::new(),
            names: IfNames::default(),
            stale: StaleSet::default(),
            downstream: None,
        }
    }

    /// The protocol this table belongs to.
    pub fn protocol(&self) -> ProtocolId {
        self.proto
    }

    /// This table's origin id.
    pub fn origin(&self) -> OriginId {
        self.origin
    }

    /// Number of stored routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// The route stored for `net` as `slot`, as the stages carry it.
    fn route(&self, net: Prefix<A>, slot: &OriginSlot) -> RibRoute<A> {
        RibRoute {
            net,
            attrs: slot.attrs.clone(),
            metric: slot.metric,
            proto: self.proto,
            admin_distance: AdminDistance::default_for(self.proto),
            ifname: self.names.get(slot.iface),
            source: None,
        }
    }

    /// The route a slot just taken out of the trie held; its interface
    /// name loses a route.
    fn take(&mut self, net: Prefix<A>, slot: OriginSlot) -> RibRoute<A> {
        let route = self.route(net, &slot);
        self.names.release(slot.iface);
        route
    }

    /// Install (or replace) a route.  Emits `Add` or `Replace` downstream.
    pub fn add_route(&mut self, el: &mut EventLoop, route: RibRoute<A>) {
        debug_assert_eq!(route.proto, self.proto, "route fed to wrong origin table");
        debug_assert_eq!(
            (route.admin_distance, route.source),
            (AdminDistance::default_for(self.proto), None),
            "a route the table cannot store"
        );
        let net = route.net;
        // A re-learned route refreshes its grace mark even when the route
        // itself is byte-identical (the common graceful-restart case).
        self.stale.clear(&net);
        let slot = OriginSlot {
            attrs: route.attrs,
            metric: route.metric,
            iface: self.names.acquire(route.ifname),
        };
        let new = self.route(net, &slot);
        let old = self.routes.insert(net, slot);
        let old = old.map(|old| self.take(net, old));
        let op = match old {
            Some(old) if old == new => return, // no-op update
            Some(old) => RouteOp::Replace { net, old, new },
            None => RouteOp::Add { net, route: new },
        };
        self.emit(el, op);
    }

    /// Withdraw a route.  Emits `Delete` downstream; returns the withdrawn
    /// route.
    pub fn delete_route(&mut self, el: &mut EventLoop, net: Prefix<A>) -> Option<RibRoute<A>> {
        self.stale.clear(&net);
        let old = self.routes.remove(&net)?;
        let old = self.take(net, old);
        self.emit(
            el,
            RouteOp::Delete {
                net,
                old: old.clone(),
            },
        );
        Some(old)
    }

    /// Withdraw everything (protocol shutdown).  Emits a delete per route.
    pub fn clear(&mut self, el: &mut EventLoop) {
        let nets: Vec<Prefix<A>> = self.routes.iter().map(|(n, _)| n).collect();
        for net in nets {
            self.delete_route(el, net);
        }
    }

    /// The stored routes, for the stages that walk or search their
    /// prefixes.
    pub fn routes(&self) -> &PatriciaTrie<A, OriginSlot> {
        &self.routes
    }

    /// Graceful restart, phase 1: mark every stored route stale.  Nothing
    /// is emitted downstream — forwarding continues on the dead process's
    /// last-known routes.  Returns how many routes were marked.
    pub fn mark_all_stale(&mut self) -> usize {
        self.stale.mark_all(&self.routes)
    }

    /// Routes still marked stale.
    pub fn stale_count(&self) -> usize {
        self.stale.len()
    }

    /// Graceful restart, phase 2 (the grace timer fired): withdraw every
    /// route that was not re-learned, emitting a `Delete` per route.
    /// Returns how many were swept.
    pub fn sweep_stale(&mut self, el: &mut EventLoop) -> usize {
        let nets = self.stale.take();
        for &net in &nets {
            self.delete_route(el, net);
        }
        nets.len()
    }

    /// Heap bytes attributable to this table (memory-accounting).  Each
    /// distinct attribute block is charged once, however many of the
    /// table's routes share it.
    pub fn memory_bytes(&self) -> usize {
        xorp_net::route_table_bytes(&self.routes) + self.names.heap_size()
    }

    fn emit(&mut self, el: &mut EventLoop, op: RouteOp<A, RibRoute<A>>) {
        if let Some(d) = &self.downstream {
            d.borrow_mut().route_op(el, self.origin, op);
        }
    }
}

/// Background dumps (§5.3) walk the stored prefixes.  Origin tables are
/// never swapped out wholesale, so a cursor stays valid across arbitrary
/// add/delete churn.
impl<A: Addr> TrieTable for OriginTable<A> {
    type Addr = A;
    type Route = OriginSlot;

    fn trie(&mut self) -> &mut PatriciaTrie<A, OriginSlot> {
        &mut self.routes
    }
}

impl<A: Addr> Stage<A, RibRoute<A>> for OriginTable<A> {
    fn name(&self) -> String {
        format!("origin[{}]", self.proto)
    }

    /// Routes arriving as stage messages are treated as protocol input —
    /// this is how an XRL front-end feeds the table.
    fn route_op(&mut self, el: &mut EventLoop, _origin: OriginId, op: RouteOp<A, RibRoute<A>>) {
        match op {
            RouteOp::Add { route, .. } | RouteOp::Replace { new: route, .. } => {
                self.add_route(el, route)
            }
            RouteOp::Delete { net, .. } => {
                self.delete_route(el, net);
            }
        }
    }

    fn lookup_route(&self, net: &Prefix<A>) -> Option<RibRoute<A>> {
        Some(self.route(*net, self.routes.get(net)?))
    }

    fn push(&mut self, el: &mut EventLoop) {
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
    use std::net::{IpAddr, Ipv4Addr};
    use std::sync::Arc;
    use xorp_net::PathAttributes;
    use xorp_stages::{stage_ref, SinkStage};

    fn route(net: &str, nh: &str) -> RibRoute<Ipv4Addr> {
        RibRoute::new(
            net.parse().unwrap(),
            Arc::new(PathAttributes::new(IpAddr::V4(nh.parse().unwrap()))),
            1,
            ProtocolId::Rip,
        )
    }

    #[allow(clippy::type_complexity)]
    fn table() -> (
        OriginTable<Ipv4Addr>,
        std::rc::Rc<std::cell::RefCell<SinkStage<Ipv4Addr, RibRoute<Ipv4Addr>>>>,
    ) {
        let mut t = OriginTable::new(ProtocolId::Rip, OriginId(1));
        let sink = stage_ref(SinkStage::new());
        t.set_downstream(sink.clone());
        (t, sink)
    }

    #[test]
    fn add_replace_delete_stream() {
        let mut el = EventLoop::new_virtual();
        let (mut t, sink) = table();
        t.add_route(&mut el, route("10.0.0.0/8", "192.0.2.1"));
        t.add_route(&mut el, route("10.0.0.0/8", "192.0.2.2")); // replace
        t.add_route(&mut el, route("10.0.0.0/8", "192.0.2.2")); // no-op
        t.delete_route(&mut el, "10.0.0.0/8".parse().unwrap());
        let log = &sink.borrow().log;
        assert_eq!(log.len(), 3);
        assert!(matches!(log[0].1, RouteOp::Add { .. }));
        assert!(matches!(log[1].1, RouteOp::Replace { .. }));
        assert!(matches!(log[2].1, RouteOp::Delete { .. }));
        assert!(t.is_empty());
    }

    #[test]
    fn delete_unknown_is_silent() {
        let mut el = EventLoop::new_virtual();
        let (mut t, sink) = table();
        assert!(t
            .delete_route(&mut el, "10.0.0.0/8".parse().unwrap())
            .is_none());
        assert!(sink.borrow().log.is_empty());
    }

    #[test]
    fn clear_emits_all_deletes() {
        let mut el = EventLoop::new_virtual();
        let (mut t, sink) = table();
        for i in 0..5u8 {
            t.add_route(&mut el, route(&format!("10.{i}.0.0/16"), "192.0.2.1"));
        }
        t.clear(&mut el);
        assert!(t.is_empty());
        let dels = sink
            .borrow()
            .log
            .iter()
            .filter(|(_, op)| matches!(op, RouteOp::Delete { .. }))
            .count();
        assert_eq!(dels, 5);
        assert!(sink.borrow().table.is_empty());
    }

    #[test]
    fn lookup_answers_from_store() {
        let mut el = EventLoop::new_virtual();
        let (mut t, _sink) = table();
        t.add_route(&mut el, route("10.0.0.0/8", "192.0.2.1"));
        assert!(t.lookup_route(&"10.0.0.0/8".parse().unwrap()).is_some());
        assert!(t.lookup_route(&"11.0.0.0/8".parse().unwrap()).is_none());
    }

    /// The graceful-restart cycle: mark everything stale (silently),
    /// re-learn a subset (even byte-identical replays clear the mark),
    /// sweep the rest.
    #[test]
    fn stale_mark_refresh_sweep() {
        let mut el = EventLoop::new_virtual();
        let (mut t, sink) = table();
        for i in 0..5u8 {
            t.add_route(&mut el, route(&format!("10.{i}.0.0/16"), "192.0.2.1"));
        }
        sink.borrow_mut().log.clear();

        assert_eq!(t.mark_all_stale(), 5);
        assert_eq!(t.stale_count(), 5);
        // Marking emits nothing: downstream keeps forwarding.
        assert!(sink.borrow().log.is_empty());

        // Re-learn two routes: one identical (the usual replay), one
        // changed.  Both clear their stale mark.
        t.add_route(&mut el, route("10.0.0.0/16", "192.0.2.1")); // identical
        t.add_route(&mut el, route("10.1.0.0/16", "192.0.2.9")); // changed
        assert_eq!(t.stale_count(), 3);
        // The identical replay is still a downstream no-op.
        assert_eq!(sink.borrow().log.len(), 1);
        assert!(matches!(sink.borrow().log[0].1, RouteOp::Replace { .. }));

        // Grace timer fires: only the three never-refreshed routes go.
        assert_eq!(t.sweep_stale(&mut el), 3);
        assert_eq!(t.stale_count(), 0);
        assert_eq!(t.len(), 2);
        let dels = sink
            .borrow()
            .log
            .iter()
            .filter(|(_, op)| matches!(op, RouteOp::Delete { .. }))
            .count();
        assert_eq!(dels, 3);
        // Sweeping again is a no-op.
        assert_eq!(t.sweep_stale(&mut el), 0);
    }

    #[test]
    fn explicit_delete_clears_stale_mark() {
        let mut el = EventLoop::new_virtual();
        let (mut t, _sink) = table();
        t.add_route(&mut el, route("10.0.0.0/16", "192.0.2.1"));
        t.mark_all_stale();
        t.delete_route(&mut el, "10.0.0.0/16".parse().unwrap());
        assert_eq!(t.stale_count(), 0);
        assert_eq!(t.sweep_stale(&mut el), 0);
    }

    /// The route array holds `Option<OriginSlot>`: 16 bytes.
    #[test]
    fn a_slot_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Option<OriginSlot>>(), 16);
    }

    /// A name is kept while a route names it, once however many do, and
    /// its position goes to the next new name once the last one leaves.
    #[test]
    fn interface_names_leave_with_their_last_route() {
        let mut el = EventLoop::new_virtual();
        let (mut t, _sink) = table();
        let via = |net: &str, ifname: &str| RibRoute {
            ifname: Some(ifname.into()),
            ..route(net, "192.0.2.1")
        };
        t.add_route(&mut el, via("10.0.0.0/16", "eth0"));
        t.add_route(&mut el, via("10.1.0.0/16", "eth0"));
        t.add_route(&mut el, via("10.2.0.0/16", "eth1"));
        assert_eq!(t.names.index.len(), 2);
        t.add_route(&mut el, via("10.2.0.0/16", "eth0")); // replace
        assert_eq!(t.names.index.len(), 1);
        t.add_route(&mut el, via("10.3.0.0/16", "eth2"));
        assert_eq!(t.names.names.len(), 2, "eth2 took eth1's position");
        t.delete_route(&mut el, "10.3.0.0/16".parse().unwrap());
        t.clear(&mut el);
        assert!(t.names.index.is_empty());
        assert!(t.names.names.iter().all(Option::is_none));
    }

    #[test]
    fn memory_accounting_nonzero() {
        let mut el = EventLoop::new_virtual();
        let (mut t, _sink) = table();
        t.add_route(&mut el, route("10.0.0.0/8", "192.0.2.1"));
        assert!(t.memory_bytes() > 0);
    }
}
