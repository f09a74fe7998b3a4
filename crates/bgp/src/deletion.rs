//! Dynamic deletion stages (§5.1.2, Figure 6).
//!
//! "when a peering goes down we create a new dynamic deletion stage, and
//! plumb it in directly after the Peer In stage.  The route table from the
//! Peer In is handed to the deletion stage, and a new, empty route table is
//! created in the Peer In.  The deletion stage ensures consistency while
//! gradually deleting all the old routes in the background ... if it
//! receives an add_route message from the Peer In that refers to a prefix
//! that it holds but has not yet got around to deleting, then first it
//! sends a delete_route downstream for the old route, and then it sends the
//! add_route for the new route ... if the peering flaps many times in rapid
//! succession, each route is held in at most one deletion stage."
//!
//! The drain runs as a cooperative background task; its cursor over the
//! handed-over table is a *safe iterator* (§5.3), since the stage itself
//! deletes nodes behind the cursor and the add-intercept path deletes nodes
//! in front of it between slices.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use xorp_event::{EventLoop, SliceResult};
use xorp_net::{Addr, PathAttributes, PatriciaTrie, Prefix};
use xorp_stages::{OriginId, RouteOp, Stage, StageRef, TrieTable, SLICE_SIZE};

use crate::peer_in::PeerTable;
use crate::BgpRoute;

/// A background deletion stage draining one defunct peer table.
pub struct DeletionStage<A: Addr> {
    pending: PeerTable<A>,
    downstream: Option<StageRef<A, BgpRoute<A>>>,
    upstream: Option<StageRef<A, BgpRoute<A>>>,
    /// Invoked once drained, so the owner can splice this stage out.
    #[allow(clippy::type_complexity)]
    on_drained: Option<Box<dyn FnOnce(&mut EventLoop)>>,
    drained: bool,
}

impl<A: Addr> DeletionStage<A> {
    /// Take ownership of a defunct peer table.
    pub fn new(table: PeerTable<A>) -> Self {
        DeletionStage {
            pending: table,
            downstream: None,
            upstream: None,
            on_drained: None,
            drained: false,
        }
    }

    /// Set the unplumb callback.
    pub fn on_drained(&mut self, f: impl FnOnce(&mut EventLoop) + 'static) {
        self.on_drained = Some(Box::new(f));
    }

    /// Routes still awaiting deletion.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// The prefixes of the routes still awaiting deletion.
    pub(crate) fn pending_nets(&self) -> impl Iterator<Item = Prefix<A>> + '_ {
        self.pending.iter().map(|r| r.net)
    }

    /// True once everything is withdrawn downstream.
    pub fn is_drained(&self) -> bool {
        self.drained
    }

    /// Start the background drain.  `me` must be the shared handle this
    /// stage lives in (the task re-enters through it).
    pub fn start(el: &mut EventLoop, me: Rc<RefCell<DeletionStage<A>>>) {
        el.spawn_background(move |el| {
            // Collect one slice of deletions without holding the borrow
            // across downstream calls.
            let (ops, downstream, done) = {
                let mut stage = me.borrow_mut();
                let mut nets = Vec::with_capacity(SLICE_SIZE);
                let trie = stage.pending.trie();
                let mut h = trie.iter_handle();
                while nets.len() < SLICE_SIZE {
                    match trie.iter_next(&mut h) {
                        Some((net, _)) => nets.push(net),
                        None => break,
                    }
                }
                trie.iter_release(h);
                let ops: Vec<_> = nets
                    .into_iter()
                    .filter_map(|net| Some((net, stage.pending.remove(&net)?)))
                    .collect();
                let done = stage.pending.is_empty();
                (ops, stage.downstream.clone(), done)
            };
            if let Some(d) = downstream {
                let origin: OriginId = me.borrow().pending.peer().into();
                for (net, old) in ops {
                    d.borrow_mut()
                        .route_op(el, origin, RouteOp::Delete { net, old });
                }
                if done {
                    d.borrow_mut().push(el);
                }
            }
            if done {
                let cb = {
                    let mut stage = me.borrow_mut();
                    stage.drained = true;
                    stage.on_drained.take()
                };
                if let Some(cb) = cb {
                    cb(el);
                }
                SliceResult::Done
            } else {
                SliceResult::Continue
            }
        });
    }
}

/// Routes parked here are still visible upstream until the drain gets to
/// them, so a dump toward a newly attached reader — or a resolver's walk —
/// must enumerate them too.  When a peering drops mid-dump, the dying
/// peer's routes leave its PeerIn (stranding any cursor walking it), and a
/// cursor over this table keeps them enumerable: the dump announces them,
/// and the drain's later delete forwards as a consistent delete-after-add.
/// The drain's own cursor and the add-intercept delete nodes around a
/// parked cursor via the zombie protocol.
impl<A: Addr> TrieTable for DeletionStage<A> {
    type Addr = A;
    type Route = Arc<PathAttributes>;

    fn trie(&mut self) -> &mut PatriciaTrie<A, Arc<PathAttributes>> {
        self.pending.trie()
    }
}

impl<A: Addr> Stage<A, BgpRoute<A>> for DeletionStage<A> {
    fn name(&self) -> String {
        format!("deletion[{}]", self.pending.peer().0)
    }

    fn route_op(&mut self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, BgpRoute<A>>) {
        // Consistency interception: an add for a prefix we still hold must
        // be preceded downstream by the deletion of the old route.  This
        // also guarantees each route lives in at most one deletion stage
        // across rapid flaps — the re-add pulls it out of this stage before
        // the next flap can capture it.
        let net = op.net();
        if let Some(old) = self.pending.remove(&net) {
            if let Some(d) = &self.downstream {
                d.borrow_mut().route_op(
                    el,
                    self.pending.peer().into(),
                    RouteOp::Delete { net, old },
                );
            }
        }
        if let Some(d) = &self.downstream {
            d.borrow_mut().route_op(el, origin, op);
        }
    }

    fn lookup_route(&self, net: &Prefix<A>) -> Option<BgpRoute<A>> {
        // "routes not yet deleted will still be returned by lookup_route
        // until after the deletion stage has sent a delete_route message
        // downstream."
        if let Some(r) = self.pending.get(net) {
            return Some(r);
        }
        self.upstream
            .as_ref()
            .and_then(|u| u.borrow().lookup_route(net))
    }

    fn push(&mut self, el: &mut EventLoop) {
        if let Some(d) = &self.downstream {
            d.borrow_mut().push(el);
        }
    }

    fn set_downstream(&mut self, s: StageRef<A, BgpRoute<A>>) {
        self.downstream = Some(s);
    }

    /// Plumb the upstream neighbor (lookup relay for prefixes we don't
    /// hold).
    fn set_upstream(&mut self, s: StageRef<A, BgpRoute<A>>) {
        self.upstream = Some(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer_in::PeerIn;
    use crate::PeerId;
    use std::net::{IpAddr, Ipv4Addr};
    use xorp_net::{AsNum, AsPath, ProtocolId};
    use xorp_stages::{stage_ref, CacheStage, SinkStage};

    fn route(net: &str) -> BgpRoute<Ipv4Addr> {
        let mut attrs = PathAttributes::new(IpAddr::V4("192.0.2.1".parse().unwrap()));
        attrs.as_path = AsPath::from_sequence([65001]);
        BgpRoute::new(net.parse().unwrap(), attrs.shared(), 0, ProtocolId::Ebgp)
    }

    /// Build: PeerIn → (announce N routes) → take table → DeletionStage →
    /// Cache → Sink, with the deletion stage spliced between.
    #[allow(clippy::type_complexity)]
    fn flap_rig(
        n: u8,
    ) -> (
        EventLoop,
        Rc<RefCell<PeerIn<Ipv4Addr>>>,
        Rc<RefCell<DeletionStage<Ipv4Addr>>>,
        Rc<RefCell<CacheStage<Ipv4Addr, BgpRoute<Ipv4Addr>>>>,
        Rc<RefCell<SinkStage<Ipv4Addr, BgpRoute<Ipv4Addr>>>>,
    ) {
        let mut el = EventLoop::new_virtual();
        let peer_in = stage_ref(PeerIn::new(PeerId(1), ProtocolId::Ebgp, AsNum(65000)));
        let cache = stage_ref(CacheStage::new("del-test"));
        let sink = stage_ref(SinkStage::new());
        cache.borrow_mut().set_downstream(sink.clone());
        peer_in.borrow_mut().set_downstream(cache.clone());
        for i in 0..n {
            peer_in
                .borrow_mut()
                .announce(&mut el, route(&format!("10.{i}.0.0/16")));
        }
        // Peering goes down: splice the deletion stage in.
        let table = peer_in.borrow_mut().take_table();
        let del = stage_ref(DeletionStage::new(table));
        del.borrow_mut().set_downstream(cache.clone());
        del.borrow_mut().set_upstream(peer_in.clone());
        peer_in.borrow_mut().set_downstream(del.clone());
        DeletionStage::start(&mut el, del.clone());
        (el, peer_in, del, cache, sink)
    }

    #[test]
    fn background_drain_withdraws_everything() {
        let (mut el, _pi, del, cache, sink) = flap_rig(200);
        assert_eq!(sink.borrow().table.len(), 200);
        el.run_until_idle();
        assert!(del.borrow().is_drained());
        assert!(sink.borrow().table.is_empty());
        assert!(cache.borrow().violations().is_empty());
    }

    #[test]
    fn drain_is_sliced_not_monolithic() {
        let (mut el, _pi, del, _cache, _sink) = flap_rig(200);
        // One background slice deletes at most SLICE_SIZE routes.
        el.run_one();
        let left = del.borrow().pending_count();
        assert_eq!(left, 200 - SLICE_SIZE);
        el.run_one();
        assert_eq!(del.borrow().pending_count(), 200 - 2 * SLICE_SIZE);
    }

    #[test]
    fn readd_during_drain_is_delete_then_add() {
        let (mut el, pi, del, cache, sink) = flap_rig(200);
        // Peering comes back before the drain finishes and re-announces a
        // prefix still held by the deletion stage.
        el.run_one(); // partial drain
        let held = del.borrow().pending_count();
        assert!(held > 0);
        let readd = route("10.199.0.0/16"); // iteration order: still pending
        assert!(del.borrow().pending.get(&readd.net).is_some());
        pi.borrow_mut().announce(&mut el, readd.clone());
        // Downstream saw: Delete(old) then Add(new) — the cache stage
        // verifies pairing; the sink must now hold the new route.
        assert!(cache.borrow().violations().is_empty());
        assert_eq!(
            sink.borrow().table[&readd.net].attrs.as_path,
            readd.attrs.as_path
        );
        // And the prefix left the deletion stage: held in at most one place.
        assert!(del.borrow().pending.get(&readd.net).is_none());
        el.run_until_idle();
        assert!(cache.borrow().violations().is_empty());
        // After the drain, only the re-added route survives.
        assert_eq!(sink.borrow().table.len(), 1);
    }

    #[test]
    fn lookup_sees_pending_until_deleted() {
        let (mut el, _pi, del, _cache, _sink) = flap_rig(SLICE_SIZE as u8);
        let net: Prefix<Ipv4Addr> = "10.3.0.0/16".parse().unwrap();
        assert!(del.borrow().lookup_route(&net).is_some());
        el.run_until_idle();
        assert!(del.borrow().lookup_route(&net).is_none());
    }

    #[test]
    fn double_flap_chains_stages() {
        // Flap twice quickly: two deletion stages, disjoint route sets,
        // consistent downstream stream.
        let mut el = EventLoop::new_virtual();
        let peer_in = stage_ref(PeerIn::new(PeerId(1), ProtocolId::Ebgp, AsNum(65000)));
        let cache = stage_ref(CacheStage::<Ipv4Addr, BgpRoute<Ipv4Addr>>::new("flap2"));
        let sink = stage_ref(SinkStage::new());
        cache.borrow_mut().set_downstream(sink.clone());
        peer_in.borrow_mut().set_downstream(cache.clone());

        for i in 0..100u8 {
            peer_in
                .borrow_mut()
                .announce(&mut el, route(&format!("10.{i}.0.0/16")));
        }
        // First flap.
        let t1 = peer_in.borrow_mut().take_table();
        let d1 = stage_ref(DeletionStage::new(t1));
        d1.borrow_mut().set_downstream(cache.clone());
        d1.borrow_mut().set_upstream(peer_in.clone());
        peer_in.borrow_mut().set_downstream(d1.clone());
        DeletionStage::start(&mut el, d1.clone());

        // Peering returns, re-announces 40 routes (pulled out of d1)...
        for i in 0..40u8 {
            peer_in
                .borrow_mut()
                .announce(&mut el, route(&format!("10.{i}.0.0/16")));
        }
        // ...then flaps again before d1 finished.
        let t2 = peer_in.borrow_mut().take_table();
        assert_eq!(t2.len(), 40);
        let d2 = stage_ref(DeletionStage::new(t2));
        // d2 goes directly after PeerIn, upstream of d1.
        d2.borrow_mut().set_downstream(d1.clone());
        d2.borrow_mut().set_upstream(peer_in.clone());
        peer_in.borrow_mut().set_downstream(d2.clone());
        DeletionStage::start(&mut el, d2.clone());

        // Each route is held in at most one deletion stage.
        let d1_count = d1.borrow().pending_count();
        let d2_count = d2.borrow().pending_count();
        assert_eq!(d1_count + d2_count, 100);
        assert_eq!(d2_count, 40);

        el.run_until_idle();
        assert!(sink.borrow().table.is_empty());
        assert!(
            cache.borrow().violations().is_empty(),
            "{:?}",
            cache.borrow().violations()
        );
        assert!(d1.borrow().is_drained() && d2.borrow().is_drained());
    }

    #[test]
    fn on_drained_fires() {
        let (mut el, _pi, del, _cache, _sink) = flap_rig(10);
        let fired = Rc::new(RefCell::new(false));
        let f = fired.clone();
        del.borrow_mut()
            .on_drained(move |_el| *f.borrow_mut() = true);
        el.run_until_idle();
        assert!(*fired.borrow());
    }
}
