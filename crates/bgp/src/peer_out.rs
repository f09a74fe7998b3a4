//! The Peer Out stage: specializing best routes for one peering and
//! turning them into UPDATE traffic (§5.1).
//!
//! Outbound transformations:
//!
//! * EBGP sessions: prepend the local AS, rewrite the nexthop to ourselves,
//!   strip LOCAL_PREF, honour `NO_EXPORT`.
//! * IBGP sessions: keep LOCAL_PREF and the path untouched, but never
//!   reflect a route learned from another IBGP peer (full-mesh rule).
//!
//! The transformed stream is handed to a writer callback as abstract
//! [`UpdateOut`]s; the session layer batches them into wire UPDATEs.
//!
//! The stage keeps no per-route state.  Whether a prefix is announced to
//! the peer is a function of the route the export filter last sent for it,
//! and every replace or delete carries that route, so the stage re-runs
//! the verdict on the old route instead of remembering it — the way the
//! filter banks stay consistent ("routes are stored only in the Peer In
//! stages").  That needs a consistent stream: it starts empty at
//! `peering_up` (a background dump supplies the table) and every delete
//! names what a prior add announced, which the optional cache stage in
//! front of it checks.  What it does keep is a count of announced
//! prefixes, the unflushed batch, and the export block built for the last
//! input block: the routes of one UPDATE share one block, so they share
//! one export block too.

use std::collections::BTreeMap;
use std::net::IpAddr;
use std::rc::Rc;
use std::sync::Arc;

use xorp_event::EventLoop;
use xorp_net::{Addr, AsNum, HeapSize, PathAttributes, Prefix};
use xorp_stages::{OriginId, RouteOp, Stage};

use crate::{BgpRoute, PeerId};

/// One outbound change: a withdrawal or an announcement.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOut<A: Addr> {
    /// Withdraw a prefix.
    Withdraw(Prefix<A>),
    /// Announce a prefix with the given (already specialized) attributes.
    Announce(Prefix<A>, Arc<PathAttributes>),
}

/// Writer callback receiving outbound changes.
pub type UpdateWriter<A> = Rc<dyn Fn(&mut EventLoop, UpdateOut<A>)>;

/// Writer callback receiving whole flushed batches: the withdrawals plus
/// the announcements grouped by shared attribute block — the shape a wire
/// UPDATE packs ([`batch_updates`]).
#[allow(clippy::type_complexity)]
pub type BatchUpdateWriter<A> =
    Rc<dyn Fn(&mut EventLoop, Vec<Prefix<A>>, Vec<(Arc<PathAttributes>, Vec<Prefix<A>>)>)>;

/// Per-peering output stage.
pub struct PeerOut<A: Addr> {
    peer: PeerId,
    local_as: AsNum,
    /// True for an EBGP session.
    ebgp_session: bool,
    /// Our address on this session (nexthop-self rewriting).
    local_addr: IpAddr,
    writer: UpdateWriter<A>,
    /// Prefixes currently announced to this peer: a count, moved by the
    /// same verdicts that decide each announce and withdraw.
    announced: usize,
    /// Count of UPDATE-visible changes (diagnostics).
    pub updates_sent: u64,
    /// When set, changes buffer here and flush as grouped batches at the
    /// size limit or the next `push` (batch boundary) instead of going to
    /// `writer` one at a time.
    batch_writer: Option<(BatchUpdateWriter<A>, usize)>,
    pending: Vec<UpdateOut<A>>,
    /// The last input block [`PeerOut::transform`] specialized, and the
    /// block it built.  Holding the input keeps its address from being
    /// reused, so pointer equality identifies it.
    last_export: Option<(Arc<PathAttributes>, Arc<PathAttributes>)>,
}

impl<A: Addr> PeerOut<A> {
    /// Build the output stage for one peering.
    pub fn new(
        peer: PeerId,
        local_as: AsNum,
        ebgp_session: bool,
        local_addr: IpAddr,
        writer: UpdateWriter<A>,
    ) -> Self {
        PeerOut {
            peer,
            local_as,
            ebgp_session,
            local_addr,
            writer,
            announced: 0,
            updates_sent: 0,
            batch_writer: None,
            pending: Vec::new(),
            last_export: None,
        }
    }

    /// Switch to batched output: changes accumulate and flush to `writer`
    /// as one grouped batch once `limit` changes queue up, or at the next
    /// `push` — so a lone route flushes at its own batch boundary and
    /// keeps per-route latency.
    pub fn set_batch_writer(&mut self, writer: BatchUpdateWriter<A>, limit: usize) {
        self.batch_writer = Some((writer, limit.max(1)));
    }

    /// Changes buffered and not yet flushed.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Flush buffered changes (no-op in per-route mode or when empty).
    pub fn flush(&mut self, el: &mut EventLoop) {
        let Some((writer, _)) = self.batch_writer.clone() else {
            return;
        };
        if self.pending.is_empty() {
            return;
        }
        let outs = std::mem::take(&mut self.pending);
        let (withdrawn, announced) = batch_updates(&outs);
        writer(el, withdrawn, announced);
    }

    fn emit(&mut self, el: &mut EventLoop, out: UpdateOut<A>) {
        self.updates_sent += 1;
        match &self.batch_writer {
            Some((_, limit)) => {
                let limit = *limit;
                self.pending.push(out);
                if self.pending.len() >= limit {
                    self.flush(el);
                }
            }
            None => (self.writer)(el, out),
        }
    }

    /// Prefixes currently announced.
    pub fn announced_count(&self) -> usize {
        self.announced
    }

    /// Forget announcement state without emitting withdrawals: the session
    /// dropped, so the remote peer's table is already gone.  Buffered
    /// batch output is dropped with it.
    pub fn reset(&mut self) {
        self.announced = 0;
        self.pending.clear();
        self.last_export = None;
    }

    /// Does `route` cross this session at all?  The verdict half of
    /// [`PeerOut::transform`], and a function of the route alone.
    fn advertises(&self, route: &BgpRoute<A>) -> bool {
        if self.ebgp_session {
            // NO_EXPORT: never crosses an EBGP boundary.
            !route.attrs.no_export()
        } else {
            // IBGP full-mesh rule: routes learned over IBGP are not
            // reflected to IBGP peers.
            route.attrs.ebgp
        }
    }

    /// Apply the outbound transform; `None` means "do not advertise".
    /// Routes carrying the input block of the previous call get the block
    /// that call built.
    pub fn transform(&mut self, route: &BgpRoute<A>) -> Option<Arc<PathAttributes>> {
        if !self.advertises(route) {
            return None;
        }
        if let Some((input, export)) = &self.last_export {
            if Arc::ptr_eq(input, &route.attrs) {
                return Some(export.clone());
            }
        }
        let export = self.export_attrs(&route.attrs);
        self.last_export = Some((route.attrs.clone(), export.clone()));
        Some(export)
    }

    /// The block this session sends for a route carrying `attrs`.
    fn export_attrs(&self, attrs: &PathAttributes) -> Arc<PathAttributes> {
        let mut attrs = attrs.clone();
        if self.ebgp_session {
            attrs.as_path = attrs.as_path.prepend(self.local_as);
            attrs.nexthop = self.local_addr;
            attrs.local_pref = None;
            attrs.med = None; // MED is not propagated to third parties
        } else {
            // IBGP: ensure LOCAL_PREF present.
            attrs.local_pref = Some(attrs.effective_local_pref());
        }
        Arc::new(attrs)
    }
}

impl<A: Addr> HeapSize for PeerOut<A> {
    fn heap_size(&self) -> usize {
        self.pending.capacity() * std::mem::size_of::<UpdateOut<A>>()
    }
}

impl<A: Addr> Stage<A, BgpRoute<A>> for PeerOut<A> {
    fn name(&self) -> String {
        format!("peer-out[{}]", self.peer.0)
    }

    fn route_op(&mut self, el: &mut EventLoop, _origin: OriginId, op: RouteOp<A, BgpRoute<A>>) {
        let net = op.net();
        // The peer holds the prefix iff the route this op takes away
        // crossed the session when it was sent.
        let had = op.old_route().is_some_and(|r| self.advertises(r));
        match op.new_route().and_then(|r| self.transform(r)) {
            Some(attrs) => {
                self.announced += usize::from(!had);
                self.emit(el, UpdateOut::Announce(net, attrs));
            }
            None if had => {
                self.announced = self.announced.saturating_sub(1);
                self.emit(el, UpdateOut::Withdraw(net));
            }
            None => {}
        }
    }

    fn lookup_route(&self, _net: &Prefix<A>) -> Option<BgpRoute<A>> {
        None // terminal stage
    }

    fn push(&mut self, el: &mut EventLoop) {
        // Batch boundary: flush whatever the coalescer is holding.
        self.flush(el);
    }
}

impl<A: Addr> UpdateOut<A> {
    /// The prefix this change concerns.
    pub fn net(&self) -> Prefix<A> {
        match self {
            UpdateOut::Withdraw(net) | UpdateOut::Announce(net, _) => *net,
        }
    }
}

/// Helper: collect a run of [`UpdateOut`]s into per-attribute batches, the
/// way a session layer packs one UPDATE per shared attribute block.
///
/// A prefix changed more than once in the run is sent once, as its last
/// change: a receiver applies a batch's withdrawals before its
/// announcements, so an announce followed by a withdraw of the same
/// prefix would otherwise leave it announced.
#[allow(clippy::type_complexity)]
pub fn batch_updates<A: Addr>(
    outs: &[UpdateOut<A>],
) -> (Vec<Prefix<A>>, Vec<(Arc<PathAttributes>, Vec<Prefix<A>>)>) {
    let last: BTreeMap<Prefix<A>, usize> =
        outs.iter().enumerate().map(|(i, o)| (o.net(), i)).collect();
    let mut withdrawn = Vec::new();
    let mut announced: Vec<(Arc<PathAttributes>, Vec<Prefix<A>>)> = Vec::new();
    for (i, out) in outs.iter().enumerate() {
        if last[&out.net()] != i {
            continue; // superseded later in the run
        }
        match out {
            UpdateOut::Withdraw(net) => withdrawn.push(*net),
            UpdateOut::Announce(net, attrs) => {
                if let Some((last_attrs, nets)) = announced.last_mut() {
                    if Arc::ptr_eq(last_attrs, attrs) || **last_attrs == **attrs {
                        nets.push(*net);
                        continue;
                    }
                }
                announced.push((attrs.clone(), vec![*net]));
            }
        }
    }
    (withdrawn, announced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::net::Ipv4Addr;
    use xorp_net::{AsPath, Community, ProtocolId};

    type R = BgpRoute<Ipv4Addr>;

    fn route(net: &str, f: impl FnOnce(&mut PathAttributes)) -> R {
        let mut attrs = PathAttributes::new(IpAddr::V4("192.0.2.9".parse().unwrap()));
        attrs.as_path = AsPath::from_sequence([65002]);
        attrs.local_pref = Some(150);
        f(&mut attrs);
        R::new(net.parse().unwrap(), attrs.shared(), 0, ProtocolId::Ebgp)
    }

    #[allow(clippy::type_complexity)]
    fn rig(
        ebgp: bool,
    ) -> (
        EventLoop,
        PeerOut<Ipv4Addr>,
        Rc<RefCell<Vec<UpdateOut<Ipv4Addr>>>>,
    ) {
        let el = EventLoop::new_virtual();
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        let po = PeerOut::new(
            PeerId(1),
            AsNum(65000),
            ebgp,
            IpAddr::V4("10.0.0.1".parse().unwrap()),
            Rc::new(move |_el, u| s.borrow_mut().push(u)),
        );
        (el, po, seen)
    }

    fn add(r: R) -> RouteOp<Ipv4Addr, R> {
        RouteOp::Add {
            net: r.net,
            route: r,
        }
    }

    #[test]
    fn ebgp_transform_prepends_and_rewrites() {
        let (mut el, mut po, seen) = rig(true);
        po.route_op(&mut el, OriginId(2), add(route("10.0.0.0/8", |_| {})));
        let seen = seen.borrow();
        match &seen[0] {
            UpdateOut::Announce(net, attrs) => {
                assert_eq!(*net, "10.0.0.0/8".parse().unwrap());
                assert_eq!(attrs.as_path, AsPath::from_sequence([65000, 65002]));
                assert_eq!(attrs.nexthop.to_string(), "10.0.0.1");
                assert_eq!(attrs.local_pref, None); // stripped on EBGP
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ibgp_keeps_localpref_no_prepend() {
        let (mut el, mut po, seen) = rig(false);
        let mut r = route("10.0.0.0/8", |_| {});
        // Learned over EBGP → may go to IBGP peers.
        Arc::make_mut(&mut r.attrs).ebgp = true;
        po.route_op(&mut el, OriginId(2), add(r));
        let seen = seen.borrow();
        match &seen[0] {
            UpdateOut::Announce(_, attrs) => {
                assert_eq!(attrs.as_path, AsPath::from_sequence([65002]));
                assert_eq!(attrs.local_pref, Some(150));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ibgp_does_not_reflect_ibgp_routes() {
        let (mut el, mut po, seen) = rig(false);
        let mut r = route("10.0.0.0/8", |_| {});
        Arc::make_mut(&mut r.attrs).ebgp = false; // learned over IBGP
        po.route_op(&mut el, OriginId(2), add(r));
        assert!(seen.borrow().is_empty());
        assert_eq!(po.announced_count(), 0);
    }

    #[test]
    fn no_export_honoured_on_ebgp_only() {
        let with_noexport = |net: &str| route(net, |a| a.communities.push(Community::NO_EXPORT));
        let (mut el, mut po, seen) = rig(true);
        po.route_op(&mut el, OriginId(2), add(with_noexport("10.0.0.0/8")));
        assert!(seen.borrow().is_empty());

        let (mut el2, mut po2, seen2) = rig(false);
        let mut r = with_noexport("10.0.0.0/8");
        Arc::make_mut(&mut r.attrs).ebgp = true;
        po2.route_op(&mut el2, OriginId(2), add(r));
        assert_eq!(seen2.borrow().len(), 1); // IBGP still gets it
    }

    #[test]
    fn withdraw_only_if_announced() {
        let (mut el, mut po, seen) = rig(true);
        let r = route("10.0.0.0/8", |a| a.communities.push(Community::NO_EXPORT));
        po.route_op(&mut el, OriginId(2), add(r.clone()));
        assert!(seen.borrow().is_empty()); // suppressed
                                           // The delete for a never-announced route produces nothing.
        po.route_op(&mut el, OriginId(2), RouteOp::Delete { net: r.net, old: r });
        assert!(seen.borrow().is_empty());
    }

    #[test]
    fn replace_to_suppressed_becomes_withdraw() {
        let (mut el, mut po, seen) = rig(true);
        let clean = route("10.0.0.0/8", |_| {});
        po.route_op(&mut el, OriginId(2), add(clean.clone()));
        assert_eq!(po.announced_count(), 1);
        let tagged = route("10.0.0.0/8", |a| a.communities.push(Community::NO_EXPORT));
        po.route_op(
            &mut el,
            OriginId(2),
            RouteOp::Replace {
                net: clean.net,
                old: clean,
                new: tagged,
            },
        );
        assert_eq!(po.announced_count(), 0);
        assert!(matches!(seen.borrow()[1], UpdateOut::Withdraw(_)));
    }

    /// The stage remembers no prefix: a delete withdraws exactly when the
    /// route it names crossed the session, and the count follows.
    #[test]
    fn delete_withdraws_what_the_old_route_announced() {
        let (mut el, mut po, seen) = rig(true);
        let clean = route("10.0.0.0/8", |_| {});
        let tagged = route("11.0.0.0/8", |a| a.communities.push(Community::NO_EXPORT));
        po.route_op(&mut el, OriginId(2), add(clean.clone()));
        po.route_op(&mut el, OriginId(2), add(tagged.clone()));
        assert_eq!(po.announced_count(), 1);
        // Re-announcing an announced prefix is an implicit replace.
        let again = route("10.0.0.0/8", |a| a.med = Some(5));
        po.route_op(
            &mut el,
            OriginId(2),
            RouteOp::Replace {
                net: clean.net,
                old: clean,
                new: again.clone(),
            },
        );
        assert_eq!(po.announced_count(), 1);
        for r in [tagged, again] {
            po.route_op(&mut el, OriginId(2), RouteOp::Delete { net: r.net, old: r });
        }
        assert_eq!(po.announced_count(), 0);
        let seen = seen.borrow();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[2], UpdateOut::Withdraw("10.0.0.0/8".parse().unwrap()));
    }

    #[test]
    fn batch_writer_flushes_on_limit_and_push() {
        let mut el = EventLoop::new_virtual();
        let batches: Rc<RefCell<Vec<(usize, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        let b = batches.clone();
        let mut po: PeerOut<Ipv4Addr> = PeerOut::new(
            PeerId(1),
            AsNum(65000),
            true,
            IpAddr::V4("10.0.0.1".parse().unwrap()),
            Rc::new(|_el, _u| panic!("per-route writer must not fire in batch mode")),
        );
        po.set_batch_writer(
            Rc::new(move |_el, withdrawn, announced| {
                let nets: usize = announced.iter().map(|(_, n)| n.len()).sum();
                b.borrow_mut().push((withdrawn.len(), nets));
            }),
            3,
        );
        for net in ["10.0.0.0/8", "11.0.0.0/8"] {
            po.route_op(&mut el, OriginId(2), add(route(net, |_| {})));
        }
        // Below the limit: buffered, nothing written.
        assert!(batches.borrow().is_empty());
        assert_eq!(po.pending_count(), 2);
        po.route_op(&mut el, OriginId(2), add(route("12.0.0.0/8", |_| {})));
        // Limit reached: one batch of three announcements.
        assert_eq!(*batches.borrow(), vec![(0, 3)]);
        assert_eq!(po.pending_count(), 0);
        // A lone change flushes at the batch boundary (push), not never.
        let r = route("10.0.0.0/8", |_| {});
        po.route_op(&mut el, OriginId(2), RouteOp::Delete { net: r.net, old: r });
        assert_eq!(batches.borrow().len(), 1);
        po.push(&mut el);
        assert_eq!(*batches.borrow(), vec![(0, 3), (1, 0)]);
    }

    #[test]
    fn batching_groups_shared_attributes() {
        let attrs1 = PathAttributes::new(IpAddr::V4("10.0.0.1".parse().unwrap())).shared();
        let attrs2 = PathAttributes::new(IpAddr::V4("10.0.0.2".parse().unwrap())).shared();
        let outs: Vec<UpdateOut<Ipv4Addr>> = vec![
            UpdateOut::Withdraw("9.0.0.0/8".parse().unwrap()),
            UpdateOut::Announce("10.0.0.0/8".parse().unwrap(), attrs1.clone()),
            UpdateOut::Announce("11.0.0.0/8".parse().unwrap(), attrs1.clone()),
            UpdateOut::Announce("12.0.0.0/8".parse().unwrap(), attrs2.clone()),
        ];
        let (withdrawn, announced) = batch_updates(&outs);
        assert_eq!(withdrawn.len(), 1);
        assert_eq!(announced.len(), 2);
        assert_eq!(announced[0].1.len(), 2);
        assert_eq!(announced[1].1.len(), 1);
    }

    /// Withdrawals go out ahead of announcements, so a prefix announced
    /// and then withdrawn inside one batch must be sent as the withdrawal
    /// alone — and one withdrawn, then announced, as the announcement.
    #[test]
    fn a_batch_sends_each_prefix_once_as_its_last_change() {
        let attrs = PathAttributes::new(IpAddr::V4("10.0.0.1".parse().unwrap())).shared();
        let (p, q): (Prefix<Ipv4Addr>, Prefix<Ipv4Addr>) =
            ("10.0.0.0/8".parse().unwrap(), "11.0.0.0/8".parse().unwrap());
        let outs = vec![
            UpdateOut::Announce(p, attrs.clone()),
            UpdateOut::Withdraw(q),
            UpdateOut::Withdraw(p),
            UpdateOut::Announce(q, attrs.clone()),
        ];
        let (withdrawn, announced) = batch_updates(&outs);
        assert_eq!(withdrawn, vec![p]);
        assert_eq!(announced, vec![(attrs, vec![q])]);
    }
}
