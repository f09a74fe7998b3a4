//! The PeerIn stage: where BGP routes are stored (§5.1).
//!
//! "we only store the original versions of routes, in the Peer In stages.
//! This in turn means that the Decision Process must be able to look up
//! alternative routes via calls upstream through the pipeline."

use std::sync::Arc;

use xorp_event::EventLoop;
use xorp_net::{Addr, AdminDistance, PathAttributes, PatriciaTrie, Prefix, ProtocolId};
use xorp_stages::{OriginId, RouteOp, Stage, StageRef, TrieTable};

use crate::{BgpRoute, PeerId};

/// One peering's routes as stored: the trie holds each prefix, the table
/// what every route of the peering shares, and a slot only what varies
/// per route, the attribute block.
///
/// A stored route is the peering's: its source is the peer, its protocol
/// EBGP or IBGP with that protocol's admin distance, its metric 0 (the
/// nexthop resolver annotates the IGP metric downstream) and it names no
/// interface.  [`PeerIn`] fills a table; at a peering flap the whole table
/// goes to a [`DeletionStage`](crate::DeletionStage), which rebuilds every
/// route it drains from the same constants.
pub struct PeerTable<A: Addr> {
    peer: PeerId,
    proto: ProtocolId,
    routes: PatriciaTrie<A, Arc<PathAttributes>>,
}

impl<A: Addr> PeerTable<A> {
    /// An empty table for `peer`'s routes of protocol `proto`.
    pub fn new(peer: PeerId, proto: ProtocolId) -> Self {
        PeerTable {
            peer,
            proto,
            routes: PatriciaTrie::new(),
        }
    }

    /// The peering these routes came from.
    pub fn peer(&self) -> PeerId {
        self.peer
    }

    /// The route for `net` carrying `attrs`, as the pipeline carries it.
    fn route(&self, net: Prefix<A>, attrs: Arc<PathAttributes>) -> BgpRoute<A> {
        BgpRoute {
            net,
            attrs,
            metric: 0,
            proto: self.proto,
            admin_distance: AdminDistance::default_for(self.proto),
            ifname: None,
            source: Some(self.peer.0),
        }
    }

    /// The stored route for `net`.
    pub fn get(&self, net: &Prefix<A>) -> Option<BgpRoute<A>> {
        let attrs = self.routes.get(net)?;
        Some(self.route(*net, attrs.clone()))
    }

    /// Store `attrs` as the route for `net`; returns the route it replaced.
    pub fn insert(&mut self, net: Prefix<A>, attrs: Arc<PathAttributes>) -> Option<BgpRoute<A>> {
        let old = self.routes.insert(net, attrs)?;
        Some(self.route(net, old))
    }

    /// Remove and return the route for `net`.
    pub fn remove(&mut self, net: &Prefix<A>) -> Option<BgpRoute<A>> {
        let old = self.routes.remove(net)?;
        Some(self.route(*net, old))
    }

    /// Number of stored routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// The stored routes, in prefix order.
    pub fn iter(&self) -> impl Iterator<Item = BgpRoute<A>> + '_ {
        self.routes
            .iter()
            .map(|(net, attrs)| self.route(net, attrs.clone()))
    }

    /// Heap bytes of the table.  The routes of one UPDATE share one
    /// attribute block, and the table charges each block once.
    pub fn memory_bytes(&self) -> usize {
        xorp_net::route_table_bytes(&self.routes)
    }

    /// The trie, for a safe-iterator cursor.
    pub(crate) fn trie(&mut self) -> &mut PatriciaTrie<A, Arc<PathAttributes>> {
        &mut self.routes
    }
}

/// Per-peer route store at the head of a BGP pipeline branch.
pub struct PeerIn<A: Addr> {
    /// Our AS, for loop detection.
    local_as: xorp_net::AsNum,
    routes: PeerTable<A>,
    downstream: Option<StageRef<A, BgpRoute<A>>>,
    /// Bumped whenever the table object is swapped out ([`take_table`]):
    /// safe-iterator handles are only valid against the table that issued
    /// them, so dump cursors ([`TrieTable::epoch`]) record the epoch and
    /// stop if it moves on.
    ///
    /// [`take_table`]: PeerIn::take_table
    epoch: u64,
    /// Routes dropped by AS-path loop detection (diagnostics).
    pub loops_detected: u64,
}

impl<A: Addr> PeerIn<A> {
    /// A PeerIn for `peer`'s routes of protocol `proto` (EBGP or IBGP),
    /// performing loop detection against `local_as`.
    pub fn new(peer: PeerId, proto: ProtocolId, local_as: xorp_net::AsNum) -> Self {
        PeerIn {
            local_as,
            routes: PeerTable::new(peer, proto),
            downstream: None,
            epoch: 0,
            loops_detected: 0,
        }
    }

    /// This branch's peer.
    pub fn peer(&self) -> PeerId {
        self.routes.peer
    }

    /// Number of stored routes.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Heap bytes of this peer's table.
    pub fn memory_bytes(&self) -> usize {
        self.routes.memory_bytes()
    }

    /// Ingest an announcement from the wire.  Returns false if the route
    /// was dropped (AS loop).  The route is stored, and sent downstream,
    /// as this peering's route for `route.net` with `route.attrs`: see
    /// [`PeerTable`] for the fields the peering fixes.
    pub fn announce(&mut self, el: &mut EventLoop, route: BgpRoute<A>) -> bool {
        // Loop detection: our AS already in the path means the route has
        // been through us.
        if route.attrs.as_path.contains(self.local_as) {
            self.loops_detected += 1;
            // If we previously accepted a route for this prefix, it is now
            // implicitly withdrawn (the peer replaced it with a looped one).
            self.withdraw(el, route.net);
            return false;
        }
        let net = route.net;
        let new = self.routes.route(net, route.attrs.clone());
        let op = match self.routes.insert(net, route.attrs) {
            Some(old) if old == new => return true,
            Some(old) => RouteOp::Replace { net, old, new },
            None => RouteOp::Add { net, route: new },
        };
        self.emit(el, op);
        true
    }

    /// Ingest a withdrawal from the wire.
    pub fn withdraw(&mut self, el: &mut EventLoop, net: Prefix<A>) -> Option<BgpRoute<A>> {
        let old = self.routes.remove(&net)?;
        self.emit(
            el,
            RouteOp::Delete {
                net,
                old: old.clone(),
            },
        );
        Some(old)
    }

    /// Signal a batch boundary (end of one UPDATE's worth of changes).
    pub fn push_batch(&mut self, el: &mut EventLoop) {
        if let Some(d) = &self.downstream {
            d.borrow_mut().push(el);
        }
    }

    /// Hand the entire table over (peering down, §5.1.2): the internal
    /// table is replaced with a fresh empty one — "the Peer In ... is
    /// immediately ready for the peering to come back up" — and the old
    /// table is returned for a deletion stage to drain.
    pub fn take_table(&mut self) -> PeerTable<A> {
        self.epoch += 1;
        let fresh = PeerTable::new(self.routes.peer, self.routes.proto);
        std::mem::replace(&mut self.routes, fresh)
    }

    /// Iterate stored routes (for refiltering / replay).
    pub fn iter(&self) -> impl Iterator<Item = BgpRoute<A>> + '_ {
        self.routes.iter()
    }

    fn emit(&mut self, el: &mut EventLoop, op: RouteOp<A, BgpRoute<A>>) {
        if let Some(d) = &self.downstream {
            d.borrow_mut().route_op(el, self.routes.peer.into(), op);
        }
    }
}

impl<A: Addr> TrieTable for PeerIn<A> {
    type Addr = A;
    type Route = Arc<PathAttributes>;

    fn trie(&mut self) -> &mut PatriciaTrie<A, Arc<PathAttributes>> {
        self.routes.trie()
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl<A: Addr> Stage<A, BgpRoute<A>> for PeerIn<A> {
    fn name(&self) -> String {
        format!("peer-in[{}]", self.routes.peer.0)
    }

    fn route_op(&mut self, el: &mut EventLoop, _origin: OriginId, op: RouteOp<A, BgpRoute<A>>) {
        // Stage-message input path (used by tests and synthetic feeds).
        match op {
            RouteOp::Add { route, .. } | RouteOp::Replace { new: route, .. } => {
                self.announce(el, route);
            }
            RouteOp::Delete { net, .. } => {
                self.withdraw(el, net);
            }
        }
    }

    fn lookup_route(&self, net: &Prefix<A>) -> Option<BgpRoute<A>> {
        self.routes.get(net)
    }

    fn push(&mut self, el: &mut EventLoop) {
        self.push_batch(el);
    }

    fn set_downstream(&mut self, s: StageRef<A, BgpRoute<A>>) {
        self.downstream = Some(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};
    use xorp_net::{AsNum, AsPath, PathAttributes, ProtocolId};
    use xorp_stages::{stage_ref, SinkStage};

    fn route(net: &str, path: &[u32]) -> BgpRoute<Ipv4Addr> {
        let mut attrs = PathAttributes::new(IpAddr::V4("192.0.2.1".parse().unwrap()));
        attrs.as_path = AsPath::from_sequence(path.iter().copied());
        BgpRoute::new(net.parse().unwrap(), attrs.shared(), 0, ProtocolId::Ebgp)
    }

    #[allow(clippy::type_complexity)]
    fn rig() -> (
        EventLoop,
        PeerIn<Ipv4Addr>,
        std::rc::Rc<std::cell::RefCell<SinkStage<Ipv4Addr, BgpRoute<Ipv4Addr>>>>,
    ) {
        let el = EventLoop::new_virtual();
        let mut pi = PeerIn::new(PeerId(1), ProtocolId::Ebgp, AsNum(65000));
        let sink = stage_ref(SinkStage::new());
        pi.set_downstream(sink.clone());
        (el, pi, sink)
    }

    #[test]
    fn announce_withdraw_stream() {
        let (mut el, mut pi, sink) = rig();
        assert!(pi.announce(&mut el, route("10.0.0.0/8", &[65001])));
        assert!(pi.announce(&mut el, route("10.0.0.0/8", &[65001, 65002]))); // replace
        pi.withdraw(&mut el, "10.0.0.0/8".parse().unwrap());
        let log = &sink.borrow().log;
        assert!(matches!(log[0].1, RouteOp::Add { .. }));
        assert!(matches!(log[1].1, RouteOp::Replace { .. }));
        assert!(matches!(log[2].1, RouteOp::Delete { .. }));
        assert!(pi.is_empty());
    }

    #[test]
    fn source_is_stamped() {
        let (mut el, mut pi, sink) = rig();
        pi.announce(&mut el, route("10.0.0.0/8", &[65001]));
        let sink = sink.borrow();
        match &sink.log[0].1 {
            RouteOp::Add { route, .. } => assert_eq!(route.source, Some(1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn as_loop_dropped() {
        let (mut el, mut pi, sink) = rig();
        assert!(!pi.announce(&mut el, route("10.0.0.0/8", &[65001, 65000])));
        assert_eq!(pi.loops_detected, 1);
        assert!(sink.borrow().log.is_empty());
        assert!(pi.is_empty());
    }

    #[test]
    fn loop_replacing_good_route_withdraws() {
        let (mut el, mut pi, sink) = rig();
        pi.announce(&mut el, route("10.0.0.0/8", &[65001]));
        // The peer now sends a looped path for the same prefix: previous
        // route is implicitly withdrawn.
        pi.announce(&mut el, route("10.0.0.0/8", &[65001, 65000]));
        let log = &sink.borrow().log;
        assert_eq!(log.len(), 2);
        assert!(matches!(log[1].1, RouteOp::Delete { .. }));
        assert!(pi.is_empty());
    }

    #[test]
    fn idempotent_reannounce_is_silent() {
        let (mut el, mut pi, sink) = rig();
        pi.announce(&mut el, route("10.0.0.0/8", &[65001]));
        pi.announce(&mut el, route("10.0.0.0/8", &[65001]));
        assert_eq!(sink.borrow().log.len(), 1);
    }

    #[test]
    fn take_table_leaves_empty_store() {
        let (mut el, mut pi, _sink) = rig();
        for i in 0..50u8 {
            pi.announce(&mut el, route(&format!("10.{i}.0.0/16"), &[65001]));
        }
        let table = pi.take_table();
        assert_eq!(table.len(), 50);
        assert!(pi.is_empty());
        // Immediately ready for the peering to come back up.
        assert!(pi.announce(&mut el, route("10.0.0.0/16", &[65001])));
        assert_eq!(pi.len(), 1);
    }

    #[test]
    fn withdraw_unknown_is_silent() {
        let (mut el, mut pi, sink) = rig();
        assert!(pi
            .withdraw(&mut el, "10.0.0.0/8".parse().unwrap())
            .is_none());
        assert!(sink.borrow().log.is_empty());
    }
}
