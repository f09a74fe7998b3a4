//! The BGP process façade: assembles the Figure 5 pipeline network and
//! exposes the operations a BGP "process" serves.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::net::IpAddr;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use xorp_event::{EventLoop, SliceResult};
use xorp_net::{Addr, AsNum, FxHashMap, HeapSize, PathAttributes, Prefix, ProtocolId};
use xorp_policy::{FilterBank, PolicyTarget};
use xorp_profiler::tracing::{self as xtrace, SpanRecorder};
use xorp_profiler::{points, Metrics, PointHandle, Profiler};
use xorp_stages::{
    stage_ref, CacheStage, DumpSource, DumpStage, FnStage, OriginId, RouteOp, Stage, StageRef,
    TableSource,
};

use crate::aggregation::AggregationStage;
use crate::damping::{DampingConfig, DampingStage};
use crate::decision::DecisionStage;
use crate::deletion::DeletionStage;
use crate::fanout::{dump_transform, FanoutQueue, ReaderId};
use crate::filter::FilterStage;
use crate::nexthop::{NexthopResolver, NexthopService, RangeCache};
use crate::peer_in::PeerIn;
use crate::peer_out::{PeerOut, UpdateWriter};
use crate::{BgpRoute, PeerId};

/// Process-wide configuration.
#[derive(Debug, Clone)]
pub struct BgpConfig {
    /// Our AS number.
    pub local_as: AsNum,
    /// Our router id.
    pub router_id: std::net::Ipv4Addr,
    /// Address we write as nexthop-self on EBGP announcements.
    pub local_addr: IpAddr,
    /// Proposed hold time, seconds.
    pub hold_time: u16,
}

/// Per-peering configuration.
pub struct PeerConfig {
    /// Pipeline identity.
    pub id: PeerId,
    /// The neighbor's AS (EBGP iff different from ours).
    pub peer_as: AsNum,
    /// Import policy.
    pub import: FilterBank,
    /// Export policy.
    pub export: FilterBank,
    /// Optional route-flap damping (§8.3).
    pub damping: Option<DampingConfig>,
    /// Splice a consistency-checking cache stage after the outgoing
    /// filter bank — the paper's debug placement (§5.1).
    pub consistency_check: bool,
}

impl PeerConfig {
    /// Plain peering with open policies and no damping.
    pub fn simple(id: PeerId, peer_as: AsNum) -> PeerConfig {
        PeerConfig {
            id,
            peer_as,
            import: FilterBank::accept_by_default(),
            export: FilterBank::accept_by_default(),
            damping: None,
            consistency_check: false,
        }
    }
}

/// One announcement/withdrawal batch from a peer, family-generic (wire
/// UPDATE parsing produces this).
#[derive(Clone)]
pub struct UpdateIn<A: Addr> {
    /// Withdrawn prefixes.
    pub withdrawn: Vec<Prefix<A>>,
    /// Announced prefixes sharing one attribute block.
    pub announce: Option<(Arc<PathAttributes>, Vec<Prefix<A>>)>,
}

type Deletions<A> = Rc<RefCell<VecDeque<Rc<RefCell<DeletionStage<A>>>>>>;

/// A branch's deletion stages with the stages they splice between.
struct DeletionChain<A: Addr>
where
    BgpRoute<A>: PolicyTarget,
{
    peer_in: Rc<RefCell<PeerIn<A>>>,
    deletions: Deletions<A>,
    fixed_head: StageRef<A, BgpRoute<A>>,
}

impl<A: Addr> DeletionChain<A>
where
    BgpRoute<A>: PolicyTarget,
{
    /// Plumb the chain both ways after a splice or an unsplice: route ops
    /// flow PeerIn → newest … oldest deletion stage → fixed head, and
    /// lookups relay back up the same path, so a route still waiting to be
    /// deleted "will still be returned by lookup_route".
    fn plumb(&self) {
        let mut upper: StageRef<A, BgpRoute<A>> = self.peer_in.clone();
        for del in self.deletions.borrow().iter() {
            upper.borrow_mut().set_downstream(del.clone());
            del.borrow_mut().set_upstream(upper.clone());
            upper = del.clone();
        }
        upper.borrow_mut().set_downstream(self.fixed_head.clone());
        self.fixed_head.borrow_mut().set_upstream(upper);
    }
}

struct PeerBranch<A: Addr> {
    ebgp: bool,
    peer_as: AsNum,
    peer_in: Rc<RefCell<PeerIn<A>>>,
    /// The damping stage, if any: the fixed head, whose penalties
    /// `memory_bytes` charges.
    damping: Option<Rc<RefCell<DampingStage<A>>>>,
    import: Rc<RefCell<FilterStage<A>>>,
    resolver: Rc<RefCell<NexthopResolver<A>>>,
    export: Rc<RefCell<FilterStage<A>>>,
    #[allow(clippy::type_complexity)]
    out_cache: Option<Rc<RefCell<CacheStage<A, BgpRoute<A>>>>>,
    peer_out: Option<Rc<RefCell<PeerOut<A>>>>,
    /// Active deletion stages, in order from the PeerIn outward.
    deletions: Deletions<A>,
    /// Head of the fixed chain the deletion stages splice in front of.
    fixed_head: StageRef<A, BgpRoute<A>>,
    established: bool,
}

impl<A: Addr> PeerBranch<A>
where
    BgpRoute<A>: PolicyTarget,
{
    /// The branch's deletion chain, for (re-)plumbing.
    fn chain(&self) -> DeletionChain<A> {
        DeletionChain {
            peer_in: self.peer_in.clone(),
            deletions: self.deletions.clone(),
            fixed_head: self.fixed_head.clone(),
        }
    }
}

/// The assembled BGP process (one per address family).
pub struct BgpProcess<A: Addr>
where
    BgpRoute<A>: PolicyTarget,
{
    config: BgpConfig,
    service: Rc<dyn NexthopService<A>>,
    /// RIB answers about nexthop ranges, shared by every peering's
    /// resolver stage.
    nexthop_cache: Rc<RefCell<RangeCache<A>>>,
    decision: Rc<RefCell<DecisionStage<A>>>,
    fanout: Rc<RefCell<FanoutQueue<A>>>,
    peers: FxHashMap<PeerId, PeerBranch<A>>,
    /// BGP_IN stamping handle: one relaxed load per route when the point
    /// is dormant; an armed stamp takes only this point's ring lock.
    bgp_in: Option<PointHandle>,
    /// Trace ingress: sampled UPDATEs root a `bgp_in` span whose context
    /// rides ambiently through decision and fanout.
    tracer: Option<SpanRecorder>,
    /// Timer period for damping sweeps.
    damping_sweep: Duration,
}

impl<A: Addr> BgpProcess<A>
where
    BgpRoute<A>: PolicyTarget,
{
    /// Build an empty process wired to a nexthop-resolution service.
    pub fn new(config: BgpConfig, service: Rc<dyn NexthopService<A>>) -> Self {
        let decision = stage_ref(DecisionStage::new());
        let fanout = stage_ref(FanoutQueue::new());
        decision.borrow_mut().set_downstream(fanout.clone());
        fanout.borrow_mut().set_upstream(decision.clone());
        BgpProcess {
            config,
            service,
            nexthop_cache: Rc::new(RefCell::new(RangeCache::new())),
            decision,
            fanout,
            peers: FxHashMap::default(),
            bgp_in: None,
            tracer: None,
            damping_sweep: Duration::from_secs(10),
        }
    }

    /// Attach a profiler (the §8.2 instrumentation).
    pub fn set_profiler(&mut self, p: Profiler) {
        self.bgp_in = Some(p.point(points::BGP_IN));
    }

    /// Attach a span recorder: UPDATE ingress becomes the tracing root.
    /// Dormant cost matches [`PointHandle`] — one relaxed load per
    /// UPDATE when sampling is off.
    pub fn set_tracer(&mut self, recorder: SpanRecorder) {
        self.tracer = Some(recorder);
    }

    /// Attach a metrics registry; the fanout queue reports its depth,
    /// coalesced batch sizes and dump progress under `fanout.*`.
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.fanout.borrow_mut().set_metrics(metrics);
    }

    /// Splice an [`AggregationStage`] between the decision process and the
    /// fanout queue (one more stage, §8.3-style).  Call before routes
    /// flow; the aggregate prefixes are `(net, summary_only)` pairs.
    pub fn set_aggregates(&mut self, aggregates: impl IntoIterator<Item = (Prefix<A>, bool)>) {
        let agg = stage_ref(AggregationStage::new(
            self.config.local_as,
            PeerId(0), // synthetic self-origin
            aggregates,
        ));
        agg.borrow_mut().set_downstream(self.fanout.clone());
        agg.borrow_mut().set_upstream(self.decision.clone());
        self.decision.borrow_mut().set_downstream(agg.clone());
        // Lookups (and background dumps) relay through the aggregation
        // stage so they see aggregates and suppressions.
        self.fanout.borrow_mut().set_upstream(agg.clone());
    }

    /// Our configuration.
    pub fn config(&self) -> &BgpConfig {
        &self.config
    }

    /// Direct the best-route stream (BGP's contribution to the RIB) into a
    /// callback.  Routes carry the §8.3 policy tag list in their
    /// attributes.
    pub fn set_rib_output(
        &mut self,
        el: &mut EventLoop,
        f: impl FnMut(&mut EventLoop, OriginId, RouteOp<A, BgpRoute<A>>) + 'static,
    ) {
        let sink = stage_ref(FnStage::new("bgp-to-rib", f));
        self.fanout.borrow_mut().add_reader(ReaderId::Rib, sink);
        // A late subscriber learns any existing table lazily, in the
        // background — never via a synchronous full-table walk.
        if self.route_count() > 0 {
            self.start_dump(el, ReaderId::Rib);
        }
    }

    /// Splice a background dump in front of reader `id`, walking every
    /// peer table with safe iterators and streaming the best routes in
    /// bounded slices.  Returns the number of stored routes the walk will
    /// visit.
    fn start_dump(&mut self, el: &mut EventLoop, id: ReaderId) -> usize {
        let label = match id {
            ReaderId::Peer(p) => format!("peer[{}]", p.0),
            ReaderId::Rib => "rib".to_string(),
        };
        let lookup = self
            .fanout
            .borrow()
            .upstream()
            .expect("fanout upstream plumbed at construction");
        let mut dump = DumpStage::new(label, lookup);
        let mut total = 0;
        for (pid, branch) in &self.peers {
            // The reader's own routes are withheld by split horizon, and a
            // freshly re-established peer's table only holds its own: skip
            // the whole source.
            if id == ReaderId::Peer(*pid) {
                continue;
            }
            if !branch.peer_in.borrow().is_empty() {
                total += branch.peer_in.borrow().len();
                dump.add_source(Box::new(TableSource::new(branch.peer_in.clone())));
            }
            // Routes parked in this branch's deletion stages are still
            // visible upstream until drained — walk them too, or the dump
            // completes without them and the drain's deletes later reach
            // the reader as deletes of never-announced prefixes.
            for del in branch.deletions.borrow().iter() {
                if del.borrow().pending_count() > 0 {
                    total += del.borrow().pending_count();
                    dump.add_source(Box::new(TableSource::new(del.clone())));
                }
            }
        }
        dump.set_transform(dump_transform(id));
        // Flush the reader's queued fanout entries before every slice so
        // the walk's lookups agree with what the reader has consumed
        // (otherwise a queued-but-undelivered change double-announces).
        let fanout = Rc::downgrade(&self.fanout);
        dump.set_before_slice(move |el| {
            if let Some(f) = fanout.upgrade() {
                f.borrow_mut().pump_reader(el, id);
            }
        });
        if self
            .fanout
            .borrow_mut()
            .attach_dump(el, id, stage_ref(dump))
        {
            total
        } else {
            0
        }
    }

    /// Create a peering's pipelines.  The session starts down; call
    /// [`BgpProcess::peering_up`] once the FSM reaches Established.
    pub fn add_peer(
        &mut self,
        el: &mut EventLoop,
        cfg: PeerConfig,
        writer: Option<UpdateWriter<A>>,
    ) {
        let ebgp = cfg.peer_as != self.config.local_as;
        let peer = cfg.id;
        let proto = if ebgp {
            ProtocolId::Ebgp
        } else {
            ProtocolId::Ibgp
        };

        // ---- input branch: PeerIn → [Damping] → ImportFilter → Resolver
        let peer_in = stage_ref(PeerIn::new(peer, proto, self.config.local_as));
        let import = stage_ref(FilterStage::new(format!("import[{}]", peer.0), cfg.import));
        let resolver = stage_ref(NexthopResolver::new(
            peer,
            self.service.clone(),
            self.nexthop_cache.clone(),
        ));
        NexthopResolver::attach(&resolver);
        import.borrow_mut().set_downstream(resolver.clone());
        resolver.borrow_mut().set_upstream(import.clone());
        let deletions: Deletions<A> = Rc::new(RefCell::new(VecDeque::new()));
        let (table, draining) = (peer_in.clone(), deletions.clone());
        resolver.borrow_mut().set_sources(move || {
            let del = draining.borrow();
            let dels = del
                .iter()
                .map(|d| Box::new(TableSource::new(d.clone())) as _);
            let mut sources: Vec<Box<dyn DumpSource<A>>> = dels.collect();
            sources.push(Box::new(TableSource::new(table.clone())));
            sources
        });
        resolver.borrow_mut().set_downstream(self.decision.clone());

        let damping = cfg.damping.map(|dc| {
            let d = stage_ref(DampingStage::new(peer, dc));
            d.borrow_mut().set_downstream(import.clone());
            import.borrow_mut().set_upstream(d.clone());
            d
        });
        let fixed_head: StageRef<A, BgpRoute<A>> = match &damping {
            Some(d) => d.clone(),
            None => import.clone(),
        };
        self.decision
            .borrow_mut()
            .add_branch(peer, resolver.clone());

        // Damping needs periodic sweeps.
        if let Some(d) = &damping {
            let d = d.clone();
            el.every(self.damping_sweep, move |el| {
                d.borrow_mut().sweep(el);
            });
        }

        // ---- output branch: ExportFilter → [Cache] → PeerOut
        let export = stage_ref(FilterStage::new(format!("export[{}]", peer.0), cfg.export));
        let mut out_cache = None;
        let peer_out = writer.map(|w| {
            let po = stage_ref(PeerOut::new(
                peer,
                self.config.local_as,
                ebgp,
                self.config.local_addr,
                w,
            ));
            if cfg.consistency_check {
                // "just after the outgoing filter bank in the output
                // pipeline to each peer" (§5.1).
                let cache = stage_ref(CacheStage::new(format!("peer-out[{}]", peer.0)));
                cache.borrow_mut().set_downstream(po.clone());
                export.borrow_mut().set_downstream(cache.clone());
                out_cache = Some(cache);
            } else {
                export.borrow_mut().set_downstream(po.clone());
            }
            po
        });

        let branch = PeerBranch {
            ebgp,
            peer_as: cfg.peer_as,
            peer_in,
            damping,
            import,
            resolver,
            export,
            out_cache,
            peer_out,
            deletions,
            fixed_head,
            established: false,
        };
        branch.chain().plumb();
        self.peers.insert(peer, branch);
    }

    /// The peering reached Established: plumb its reader into the fanout
    /// and stream the existing table to it with a background dump (§5.3)
    /// — attach itself delivers nothing synchronously, however large the
    /// table.
    pub fn peering_up(&mut self, el: &mut EventLoop, peer: PeerId) {
        let Some(branch) = self.peers.get_mut(&peer) else {
            return;
        };
        if branch.established {
            return;
        }
        branch.established = true;
        if branch.peer_out.is_some() {
            let export = branch.export.clone();
            self.fanout
                .borrow_mut()
                .add_reader(ReaderId::Peer(peer), export);
            self.start_dump(el, ReaderId::Peer(peer));
        }
    }

    /// The peering dropped: splice a dynamic deletion stage after the
    /// PeerIn (§5.1.2, Figure 6) and stop sending to the peer.
    pub fn peering_down(&mut self, el: &mut EventLoop, peer: PeerId) {
        let Some(branch) = self.peers.get_mut(&peer) else {
            return;
        };
        if branch.established {
            branch.established = false;
            self.fanout.borrow_mut().remove_reader(ReaderId::Peer(peer));
            // The remote router's table died with the session: reset our
            // export-side bookkeeping so the replay on re-establishment is
            // a clean stream of adds.
            if let Some(po) = &branch.peer_out {
                po.borrow_mut().reset();
            }
            if let Some(cache) = &branch.out_cache {
                cache.borrow_mut().reset();
            }
        }
        if branch.peer_in.borrow().is_empty() {
            return; // nothing to withdraw
        }
        let table = branch.peer_in.borrow_mut().take_table();
        let del = stage_ref(DeletionStage::new(table));

        // The handover just invalidated any in-flight dump's source over
        // this peer's table (its iterator epoch is stale).  Those routes
        // stay visible upstream until the drain gets to them, so every
        // dump still streaming walks them via the deletion stage instead.
        self.fanout
            .borrow_mut()
            .extend_dumps(|| Box::new(TableSource::new(del.clone())));

        // Splice it in directly after the PeerIn (Figure 6), and splice it
        // out again once drained.
        branch.deletions.borrow_mut().push_front(del.clone());
        let chain = branch.chain();
        chain.plumb();
        let del_weak = Rc::downgrade(&del);
        del.borrow_mut().on_drained(move |_el| {
            if let Some(del) = del_weak.upgrade() {
                chain
                    .deletions
                    .borrow_mut()
                    .retain(|d| !Rc::ptr_eq(d, &del));
                chain.plumb();
            }
        });
        DeletionStage::start(el, del);
    }

    /// Ingest one UPDATE's worth of changes from a peer.
    pub fn apply_update(&mut self, el: &mut EventLoop, peer: PeerId, update: UpdateIn<A>) {
        let Some(branch) = self.peers.get(&peer) else {
            return;
        };
        let proto = if branch.ebgp {
            ProtocolId::Ebgp
        } else {
            ProtocolId::Ibgp
        };
        if let Some(h) = &self.bgp_in {
            if h.is_enabled() {
                for net in &update.withdrawn {
                    h.record(|| format!("del {net}"));
                }
                for net in update.announce.iter().flat_map(|(_, nets)| nets.iter()) {
                    h.record(|| format!("add {net}"));
                }
            }
        }
        // A sampled UPDATE roots a trace: every route it carries flows
        // through decision and into the fanout under the `bgp_in` span's
        // ambient context.
        let traced = self.tracer.as_ref().and_then(|t| {
            let ctx = t.sample()?;
            let span = t.begin(ctx, "bgp_in");
            let prev = xtrace::set_current(Some(span.ctx));
            Some((span, prev))
        });
        for net in update.withdrawn {
            branch.peer_in.borrow_mut().withdraw(el, net);
        }
        if let Some((attrs, nets)) = update.announce {
            let mut attrs = (*attrs).clone();
            attrs.ebgp = branch.ebgp;
            if branch.ebgp {
                attrs.local_pref = None;
            }
            let attrs = Arc::new(attrs);
            for net in nets {
                let route = BgpRoute::new(net, attrs.clone(), 0, proto);
                branch.peer_in.borrow_mut().announce(el, route);
            }
        }
        branch.peer_in.borrow_mut().push_batch(el);
        if let Some((span, prev)) = traced {
            xtrace::set_current(prev);
            if let Some(t) = &self.tracer {
                t.finish(span);
            }
        }
    }

    /// Coalesce fanout deliveries: with `n > 1`, up to `n` best-path
    /// changes flow to every reader (peers + RIB) together; the per-UPDATE
    /// batch push flushes partial batches so a lone route is never held.
    pub fn set_coalesce(&mut self, n: usize) {
        self.fanout.borrow_mut().set_coalesce(n);
    }

    /// Inject a locally originated route (network statement /
    /// redistribution into BGP) into `peer`'s table, which stores it as
    /// that peering's route with `route.attrs`.
    pub fn originate(&mut self, el: &mut EventLoop, peer: PeerId, route: BgpRoute<A>) {
        if let Some(branch) = self.peers.get(&peer) {
            branch.peer_in.borrow_mut().announce(el, route);
            branch.peer_in.borrow_mut().push_batch(el);
        }
    }

    /// Swap a peering's import policy and reconcile existing routes in the
    /// background (§5.1.2: "routing policy filters are changed by the
    /// operator and many routes need to be refiltered and reevaluated").
    pub fn refilter_peer(&mut self, el: &mut EventLoop, peer: PeerId, new_bank: FilterBank) {
        let Some(branch) = self.peers.get(&peer) else {
            return;
        };
        // Record, per prefix upstream holds, the view downstream holds,
        // then swap banks and reconcile as a background task.  A lookup
        // through the import filter answers that view: it honours a
        // transition still pending, routes waiting in a drain, and
        // suppression by damping.
        let prev_views = {
            let import = branch.import.borrow();
            let view = |net: Prefix<A>| (net, import.lookup_route(&net));
            let mut views: Vec<_> = branch
                .peer_in
                .borrow()
                .iter()
                .map(|r| view(r.net))
                .collect();
            for del in branch.deletions.borrow().iter() {
                views.extend(del.borrow().pending_nets().map(view));
            }
            views
        };
        branch.import.borrow_mut().set_bank(new_bank);
        branch.import.borrow_mut().begin_transition(prev_views);
        let import = branch.import.clone();
        let origin: OriginId = peer.into();
        el.spawn_background(move |el| {
            if import
                .borrow_mut()
                .transition_slice(el, origin, xorp_stages::SLICE_SIZE)
            {
                SliceResult::Done
            } else {
                SliceResult::Continue
            }
        });
    }

    /// Fanout flow control over any reader, peers and the RIB output
    /// alike: the producer's one pause/resume call.  `ready = false`
    /// closes the reader's flow cell (its queue entries park, its dump
    /// parks before the next slice) while every other reader keeps
    /// flowing; `ready = true` reopens it, replays the parked entries and
    /// restarts the dump.
    pub fn set_reader_flow(&mut self, el: &mut EventLoop, id: ReaderId, ready: bool) {
        if ready {
            self.fanout.borrow_mut().resume(el, id);
        } else if let Some(flow) = self.reader_flow(id) {
            flow.set(false);
        }
    }

    /// A fanout reader's flow cell ([`FanoutQueue::reader_flow`]).  An
    /// XRL `Xoff` closes it from inside the send path, so a delivery that
    /// congests the lane halts the drain at the next entry.
    pub fn reader_flow(&self, id: ReaderId) -> Option<Rc<std::cell::Cell<bool>>> {
        self.fanout.borrow().reader_flow(id)
    }

    /// An invalidation from the RIB's register stage: forward to every
    /// resolver (§5.2.1).
    pub fn invalidate_nexthops(&mut self, el: &mut EventLoop, range: Prefix<A>) {
        for branch in self.peers.values() {
            NexthopResolver::invalidate(el, &branch.resolver, range);
        }
    }

    // ---- introspection ---------------------------------------------------

    /// Number of routes stored for a peer.
    pub fn peer_route_count(&self, peer: PeerId) -> usize {
        self.peers
            .get(&peer)
            .map_or(0, |b| b.peer_in.borrow().len())
    }

    /// Total routes stored across all PeerIn stages.
    pub fn route_count(&self) -> usize {
        self.peers.values().map(|b| b.peer_in.borrow().len()).sum()
    }

    /// Current best route for a prefix.
    pub fn best_route(&self, net: &Prefix<A>) -> Option<BgpRoute<A>> {
        self.fanout.borrow().lookup_route(net)
    }

    /// Graceful-restart refresh: re-stream the whole best table to the
    /// RIB reader (after a RIB restart, its BGP routes are stale until we
    /// re-advertise them) as a *background dump* — the event loop is
    /// never blocked on a full-table walk.  Returns the number of stored
    /// routes the dump will visit (0 when no RIB reader is attached).
    pub fn readvertise_rib(&mut self, el: &mut EventLoop) -> usize {
        self.start_dump(el, ReaderId::Rib)
    }

    /// Number of prefixes with a best route.
    pub fn best_count(&self) -> usize {
        self.fanout.borrow().best_count()
    }

    /// Routes a peering has announced to its neighbor.
    pub fn announced_count(&self, peer: PeerId) -> usize {
        self.peers
            .get(&peer)
            .and_then(|b| b.peer_out.as_ref())
            .map_or(0, |po| po.borrow().announced_count())
    }

    /// Active deletion stages for a peer (Figure 6 diagnostics).
    pub fn deletion_stage_count(&self, peer: PeerId) -> usize {
        self.peers
            .get(&peer)
            .map_or(0, |b| b.deletions.borrow().len())
    }

    /// Consistency violations across all per-peer output cache stages.
    pub fn consistency_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for b in self.peers.values() {
            if let Some(c) = &b.out_cache {
                out.extend(c.borrow().violations().iter().map(|v| v.message.clone()));
            }
        }
        out
    }

    /// Heap bytes attributable to BGP's structures: the PeerIn tables
    /// (where routes live), each resolver's per-nexthop entries, each
    /// damping stage's penalties (one per prefix that flapped, until it
    /// decays; no routes), each PeerOut's unflushed batch (it keeps no
    /// per-route state), and the fanout's queue and transient dump state.
    /// Compared against the paper's "120 MB for BGP".  Not charged: routes
    /// parked in deletion stages, and the shared nexthop answer cache (one
    /// entry per answered range).
    pub fn memory_bytes(&self) -> usize {
        let branches: usize = self
            .peers
            .values()
            .map(|b| {
                b.resolver.borrow().heap_size()
                    + b.damping.as_ref().map_or(0, |d| d.borrow().heap_size())
                    + b.peer_out.as_ref().map_or(0, |po| po.borrow().heap_size())
            })
            .sum();
        self.peer_table_bytes() + branches + self.fanout.borrow().heap_size()
    }

    /// Heap bytes of the PeerIn tables alone: the one copy of each route.
    pub fn peer_table_bytes(&self) -> usize {
        let tables = self.peers.values();
        tables.map(|b| b.peer_in.borrow().memory_bytes()).sum()
    }

    /// Heap bytes of the fanout stage alone (queue + reader bookkeeping +
    /// in-flight dump state; no route table).
    pub fn fanout_memory_bytes(&self) -> usize {
        self.fanout.borrow().heap_size()
    }

    /// Is a background dump still walking toward this peer's export branch?
    pub fn dump_in_flight(&self, peer: PeerId) -> bool {
        self.fanout.borrow().dump_in_flight(ReaderId::Peer(peer))
    }

    /// Entries currently parked in the fanout queue (unconsumed by some
    /// reader; a healthy idle router reports 0).
    pub fn fanout_queue_len(&self) -> usize {
        self.fanout.borrow().queue_len()
    }

    /// Is the peering currently marked established?
    pub fn is_established(&self, peer: PeerId) -> bool {
        self.peers.get(&peer).is_some_and(|b| b.established)
    }

    /// The configured AS of a peer.
    pub fn peer_as(&self, peer: PeerId) -> Option<AsNum> {
        self.peers.get(&peer).map(|b| b.peer_as)
    }
}
