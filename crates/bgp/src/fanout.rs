//! The Fanout Queue (§5.1.1).
//!
//! "The Fanout Queue, which duplicates routes for each peer and for the
//! RIB, is in practice complicated by the need to send routes to slow
//! peers ... Since the outgoing filter banks modify routes in different
//! ways for different peers, the best place to queue changes is in the
//! fanout stage, after the routes have been chosen but before they have
//! been specialized.  The Fanout Queue module then maintains a single route
//! change queue, with n readers (one for each peer) referencing it."
//!
//! Each reader owns one *flow cell* (`Rc<Cell<bool>>`, created with the
//! reader, [`FanoutQueue::reader_flow`]), the one record of whether its
//! consumer can take more.  Closing it (a slow peer, an XRL lane in Xoff)
//! stops deliveries between entries, even mid-drain, and parks the
//! reader's background dump before its next slice; the harness hands the
//! same cell to the hop's `RouteOutput`, which stops between runs.
//! [`FanoutQueue::resume`] reopens it, replays the backlog and restarts
//! the dump.  A closed reader's cursor falls behind, and entries are
//! garbage-collected only once every reader has consumed them — one copy
//! of each change, however many slow peers there are.  The ablation bench
//! compares this against naive per-peer queues.
//!
//! The fanout stores **no route table of its own** — "routes are stored
//! only in the origin stages" (§5.1), so `lookup_route` relays upstream and
//! newly attached readers learn the existing table from a background
//! [`DumpStage`] walking the origin tables (§5.3), never from a mirror.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use xorp_event::EventLoop;
use xorp_net::{release_drained, Addr, FxHashMap, HeapSize, Prefix};
use xorp_profiler::tracing::{self as xtrace, TraceContext};
use xorp_profiler::{Gauge, Histogram, Metrics};
use xorp_stages::{DumpStage, OriginId, RouteOp, Stage, StageRef};

use crate::{BgpRoute, PeerId};

/// A shared handle to an in-flight background dump feeding one reader.
pub type DumpRef<A> = Rc<RefCell<DumpStage<A, BgpRoute<A>>>>;

/// A reader identity: a peer branch or the RIB output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReaderId {
    /// A peer's output pipeline (skips routes learned from that peer).
    Peer(PeerId),
    /// The RIB branch (receives everything).
    Rib,
}

struct Reader<A: Addr> {
    /// The reader's real output pipeline.
    branch: StageRef<A, BgpRoute<A>>,
    /// In-flight background dump feeding this reader, if any.  While the
    /// dump runs, queue deliveries go *through* it (its intercept keeps
    /// exactly-once semantics); once done, deliveries go straight to the
    /// branch again.
    dump: Option<DumpRef<A>>,
    /// Queue sequence this reader will consume next.
    cursor: u64,
    /// The reader's flow cell: deliveries stop while it reads `false`.
    flow: Rc<Cell<bool>>,
}

impl<A: Addr> Reader<A> {
    fn target(&self) -> StageRef<A, BgpRoute<A>> {
        match &self.dump {
            Some(d) if !d.borrow().is_done() => d.clone() as StageRef<A, BgpRoute<A>>,
            _ => self.branch.clone(),
        }
    }
}

/// The single-queue, n-reader fanout stage.
pub struct FanoutQueue<A: Addr> {
    queue: VecDeque<(u64, RouteOp<A, BgpRoute<A>>)>,
    next_seq: u64,
    /// Walked in `ReaderId` order, the peers and then the RIB: at batch
    /// 1 a full table loads faster when the RIB's op leaves after the
    /// peers' exports than before them (EXPERIMENTS.md, "One lifecycle
    /// for every process").
    readers: BTreeMap<ReaderId, Reader<A>>,
    /// Upstream neighbor (decision or aggregation stage): the lookup
    /// relay target, per the stage contract.
    upstream: Option<StageRef<A, BgpRoute<A>>>,
    /// Net count of adds minus deletes seen — the size of the best table
    /// without storing it.
    best_routes: usize,
    /// High-water mark of queue length (ablation measurements).
    pub max_queue_len: usize,
    /// Coalesce threshold: when > 1, `route_op` defers delivery until
    /// this many entries accumulate or a `push` (batch boundary) arrives.
    /// At 0/1 every entry is pumped immediately (per-route mode).
    coalesce: usize,
    /// Entries enqueued since the last pump.
    unpumped: usize,
    /// Trace contexts of sampled entries, keyed by queue seq.  Sparse:
    /// only sampled routes appear, so the untraced hot path pays one
    /// `is_empty` check per delivery.  Entries die with their seqs at GC.
    trace_by_seq: FxHashMap<u64, TraceContext>,
    metrics: Option<FanoutMetrics>,
}

/// Registry handles for the fanout's queue and dump state.
struct FanoutMetrics {
    /// `fanout.queue_len` — entries queued (gauge max = true peak, with
    /// no sampling loop).
    queue_len: Gauge,
    /// `fanout.batch_size` — entries delivered per pump under coalescing.
    batch_size: Histogram,
    /// `fanout.dumps_in_flight` — readers currently fed by a background
    /// dump.
    dumps: Gauge,
}

impl<A: Addr> Default for FanoutQueue<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Addr> FanoutQueue<A> {
    /// An empty fanout.
    pub fn new() -> Self {
        FanoutQueue {
            queue: VecDeque::new(),
            next_seq: 0,
            readers: BTreeMap::new(),
            upstream: None,
            best_routes: 0,
            max_queue_len: 0,
            coalesce: 1,
            unpumped: 0,
            trace_by_seq: FxHashMap::default(),
            metrics: None,
        }
    }

    /// Attach a metrics registry (`fanout.queue_len`, `fanout.batch_size`,
    /// `fanout.dumps_in_flight`).
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.metrics = Some(FanoutMetrics {
            queue_len: metrics.gauge("fanout.queue_len"),
            batch_size: metrics.histogram("fanout.batch_size"),
            dumps: metrics.gauge("fanout.dumps_in_flight"),
        });
        self.note_metrics();
    }

    /// Refresh the queue-depth and dump gauges.  A dump mid-slice holds
    /// its own `RefCell` borrow while this runs (the before-slice hook
    /// pumps through us), so an unborrowable dump counts as in flight.
    fn note_metrics(&self) {
        if let Some(m) = &self.metrics {
            m.queue_len.set(self.queue.len() as i64);
            let dumps = self
                .readers
                .values()
                .filter_map(|r| r.dump.as_ref())
                .filter(|d| d.try_borrow().map_or(true, |d| !d.is_done()))
                .count();
            m.dumps.set(dumps as i64);
        }
    }

    /// The upstream neighbor (dump stages look routes up through it).
    pub fn upstream(&self) -> Option<StageRef<A, BgpRoute<A>>> {
        self.upstream.clone()
    }

    /// Set the coalesce threshold.  `n > 1` batches deliveries: readers
    /// see nothing until `n` changes accumulate or a batch boundary
    /// (`push`) flushes early — so a lone route is only delayed until the
    /// sender's own push, keeping single-route latency.
    pub fn set_coalesce(&mut self, n: usize) {
        self.coalesce = n.max(1);
    }

    /// Attach a reader at the current queue tail.  The reader starts
    /// *empty*: existing state reaches it via a background dump
    /// ([`FanoutQueue::attach_dump`]), never a synchronous replay.
    pub fn add_reader(&mut self, id: ReaderId, branch: StageRef<A, BgpRoute<A>>) {
        let cursor = self.next_seq;
        self.readers.insert(
            id,
            Reader {
                branch,
                dump: None,
                cursor,
                flow: Rc::new(Cell::new(true)),
            },
        );
    }

    /// A reader's flow cell.  Closing it stops deliveries to the reader
    /// at the next entry — a congestion signal raised by a delivery halts
    /// the drain mid-backlog — and parks its dump before the next slice.
    pub fn reader_flow(&self, id: ReaderId) -> Option<Rc<Cell<bool>>> {
        self.readers.get(&id).map(|r| r.flow.clone())
    }

    /// Splice a background dump in front of an existing reader and start
    /// its walk.  Any previous in-flight dump for the reader is aborted
    /// (a re-dump supersedes it).  Returns false for unknown readers.
    pub fn attach_dump(&mut self, el: &mut EventLoop, id: ReaderId, dump: DumpRef<A>) -> bool {
        let Some(reader) = self.readers.get_mut(&id) else {
            return false;
        };
        if let Some(old) = reader.dump.take() {
            old.borrow_mut().abort();
        }
        dump.borrow_mut().set_downstream(reader.branch.clone());
        dump.borrow_mut().set_flow(reader.flow.clone());
        reader.dump = Some(dump.clone());
        DumpStage::start(el, dump);
        self.note_metrics();
        true
    }

    /// True while `id` has a dump still streaming.
    pub fn dump_in_flight(&self, id: ReaderId) -> bool {
        self.readers
            .get(&id)
            .and_then(|r| r.dump.as_ref())
            .is_some_and(|d| !d.borrow().is_done())
    }

    /// Hand every in-flight dump an extra source (one each — a source
    /// owns its iterator cursor).  Called when a peer table moves into a
    /// deletion stage mid-dump: the dump's source over the old table goes
    /// stale, but the parked routes stay visible upstream until drained,
    /// so each dump walks them through a fresh source over the deletion
    /// stage instead of completing without them.
    pub fn extend_dumps(&mut self, mut make: impl FnMut() -> Box<dyn xorp_stages::DumpSource<A>>) {
        for reader in self.readers.values() {
            if let Some(dump) = &reader.dump {
                let mut dump = dump.borrow_mut();
                if !dump.is_done() {
                    dump.add_source(make());
                }
            }
        }
    }

    /// Detach a reader, aborting any in-flight dump (its iterator handles
    /// are released) and recomputing the GC floor so a dead slow reader
    /// stops pinning queue entries.  The caller withdraws the reader's
    /// routes separately.
    pub fn remove_reader(&mut self, id: ReaderId) {
        if let Some(reader) = self.readers.remove(&id) {
            if let Some(dump) = reader.dump {
                dump.borrow_mut().abort();
            }
        }
        self.gc();
        self.note_metrics();
    }

    /// Reopen a reader's flow cell, drain its backlog and restart any
    /// parked dump.  A delivery that closes the cell again stops the
    /// drain there, and the restarted dump parks before its first slice.
    pub fn resume(&mut self, el: &mut EventLoop, id: ReaderId) {
        let Some(r) = self.readers.get(&id) else {
            return;
        };
        r.flow.set(true);
        let dump = r.dump.clone();
        self.pump(el);
        if let Some(dump) = dump {
            DumpStage::start(el, dump);
        }
    }

    /// Entries currently queued (bounded by the slowest reader).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Size of the best table flowing through this stage (adds minus
    /// deletes — counted, not mirrored).
    pub fn best_count(&self) -> usize {
        self.best_routes
    }

    /// Deliver queued entries to every open reader, then collect entries
    /// all readers have consumed.
    pub fn pump(&mut self, el: &mut EventLoop) {
        if self.unpumped > 0 {
            if let Some(m) = &self.metrics {
                m.batch_size.observe(self.unpumped as u64);
            }
        }
        for (id, reader) in &mut self.readers {
            deliver(el, *id, reader, &self.queue, &self.trace_by_seq);
        }
        self.unpumped = 0;
        self.gc();
        self.note_metrics();
    }

    /// Deliver queued entries to ONE reader — the dump stage's
    /// before-slice hook, guaranteeing upstream lookups made by the dump
    /// walk agree with what the reader has already consumed.
    pub fn pump_reader(&mut self, el: &mut EventLoop, id: ReaderId) {
        let Some(reader) = self.readers.get_mut(&id) else {
            return;
        };
        deliver(el, id, reader, &self.queue, &self.trace_by_seq);
        self.gc();
        self.note_metrics();
    }

    fn gc(&mut self) {
        let min_cursor = self
            .readers
            .values()
            .map(|r| r.cursor)
            .min()
            .unwrap_or(self.next_seq);
        while let Some((seq, _)) = self.queue.front() {
            if *seq < min_cursor {
                if !self.trace_by_seq.is_empty() {
                    self.trace_by_seq.remove(seq);
                }
                self.queue.pop_front();
            } else {
                break;
            }
        }
        release_drained(&mut self.queue);
    }
}

fn origin_of<A: Addr>(route: &BgpRoute<A>) -> OriginId {
    OriginId(route.source.unwrap_or(0))
}

/// Deliver `queue`'s entries from `reader`'s cursor on, each under the
/// trace context it was pushed with, while the reader's flow cell is open.
fn deliver<A: Addr>(
    el: &mut EventLoop,
    id: ReaderId,
    reader: &mut Reader<A>,
    queue: &VecDeque<(u64, RouteOp<A, BgpRoute<A>>)>,
    trace_by_seq: &FxHashMap<u64, TraceContext>,
) {
    if !reader.flow.get() {
        return;
    }
    let target = reader.target();
    // Jump straight to this reader's position: seqs are contiguous
    // (ascending by one, trimmed only at the front), so the cursor maps to
    // an index.  Scanning from the front instead would cost O(backlog)
    // per delivery once a closed reader pins the queue.
    let start = queue.front().map_or(0, |(front, _)| {
        reader.cursor.saturating_sub(*front) as usize
    });
    for (seq, op) in queue.iter().skip(start) {
        debug_assert!(*seq >= reader.cursor);
        if let Some(translated) = translate(id, op) {
            let origin = op_origin(op);
            let trace = if trace_by_seq.is_empty() {
                None
            } else {
                trace_by_seq.get(seq).copied()
            };
            if let Some(ctx) = trace {
                let prev = xtrace::set_current(Some(ctx));
                target.borrow_mut().route_op(el, origin, translated);
                xtrace::set_current(prev);
            } else {
                target.borrow_mut().route_op(el, origin, translated);
            }
        }
        reader.cursor = *seq + 1;
        // A delivery may have congested this reader's lane; stop pulling
        // immediately, leaving the rest queued here.
        if !reader.flow.get() {
            break;
        }
    }
}

fn op_origin<A: Addr>(op: &RouteOp<A, BgpRoute<A>>) -> OriginId {
    match op {
        RouteOp::Add { route, .. } | RouteOp::Replace { new: route, .. } => origin_of(route),
        RouteOp::Delete { old, .. } => origin_of(old),
    }
}

/// The per-reader route translation a background dump applies to each
/// looked-up best route: split horizon exactly as [`translate`] would have
/// applied it had the route arrived as a live add.
pub(crate) fn dump_transform<A: Addr>(
    id: ReaderId,
) -> impl Fn(&BgpRoute<A>) -> Option<(OriginId, BgpRoute<A>)> {
    move |r| {
        translate(
            id,
            &RouteOp::Add {
                net: r.net,
                route: r.clone(),
            },
        )
        .and_then(|op| match op {
            RouteOp::Add { route, .. } => Some((origin_of(&route), route)),
            _ => None,
        })
    }
}

/// Specialize one queue entry for one reader: never send a route back to
/// the peer it came from.  A replace whose sides differ in source splits
/// into an add or delete for the affected peer.
fn translate<A: Addr>(
    id: ReaderId,
    op: &RouteOp<A, BgpRoute<A>>,
) -> Option<RouteOp<A, BgpRoute<A>>> {
    let mine = |r: &BgpRoute<A>| match id {
        ReaderId::Rib => false,
        ReaderId::Peer(p) => r.source == Some(p.0),
    };
    match op {
        RouteOp::Add { net, route } => {
            if mine(route) {
                None
            } else {
                Some(RouteOp::Add {
                    net: *net,
                    route: route.clone(),
                })
            }
        }
        RouteOp::Delete { net, old } => {
            if mine(old) {
                None
            } else {
                Some(RouteOp::Delete {
                    net: *net,
                    old: old.clone(),
                })
            }
        }
        RouteOp::Replace { net, old, new } => match (mine(old), mine(new)) {
            (false, false) => Some(RouteOp::Replace {
                net: *net,
                old: old.clone(),
                new: new.clone(),
            }),
            (false, true) => Some(RouteOp::Delete {
                net: *net,
                old: old.clone(),
            }),
            (true, false) => Some(RouteOp::Add {
                net: *net,
                route: new.clone(),
            }),
            (true, true) => None,
        },
    }
}

impl<A: Addr> Stage<A, BgpRoute<A>> for FanoutQueue<A> {
    fn name(&self) -> String {
        "fanout".into()
    }

    fn route_op(&mut self, el: &mut EventLoop, _origin: OriginId, op: RouteOp<A, BgpRoute<A>>) {
        match &op {
            RouteOp::Add { .. } => self.best_routes += 1,
            RouteOp::Replace { .. } => {}
            RouteOp::Delete { .. } => self.best_routes = self.best_routes.saturating_sub(1),
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        // A sampled route arrives under its UPDATE's ambient context;
        // remember it so deliveries (possibly deferred by coalescing or
        // a closed reader) re-establish the same context.
        if let Some(ctx) = xtrace::current() {
            self.trace_by_seq.insert(seq, ctx);
        }
        self.queue.push_back((seq, op));
        self.max_queue_len = self.max_queue_len.max(self.queue.len());
        if let Some(m) = &self.metrics {
            m.queue_len.set(self.queue.len() as i64);
        }
        self.unpumped += 1;
        // Size-based flush: under coalescing, hold deliveries until the
        // threshold fills; the batch boundary (`push`) flushes early.
        if self.coalesce > 1 && self.unpumped < self.coalesce {
            return;
        }
        self.pump(el);
    }

    fn lookup_route(&self, net: &Prefix<A>) -> Option<BgpRoute<A>> {
        // No table here: relay upstream, where the routes actually live.
        self.upstream
            .as_ref()
            .and_then(|u| u.borrow().lookup_route(net))
    }

    fn push(&mut self, el: &mut EventLoop) {
        // Batch boundary: flush anything the coalescer is holding so a
        // partial batch never waits on future traffic.
        if self.unpumped > 0 {
            self.pump(el);
        }
        for reader in self.readers.values() {
            if reader.flow.get() {
                reader.target().borrow_mut().push(el);
            }
        }
    }

    /// The relay target for `lookup_route`.
    fn set_upstream(&mut self, s: StageRef<A, BgpRoute<A>>) {
        self.upstream = Some(s);
    }
}

impl<A: Addr> HeapSize for FanoutQueue<A> {
    /// Queue capacity plus reader bookkeeping plus transient dump state.
    /// Attribute blocks inside queued routes are shared `Arc`s already
    /// charged to the peer tables, so only the entry slots are counted
    /// here — the structure holds no route table of its own.
    fn heap_size(&self) -> usize {
        self.queue.capacity() * std::mem::size_of::<(u64, RouteOp<A, BgpRoute<A>>)>()
            + self.readers.len()
                * (std::mem::size_of::<ReaderId>() + std::mem::size_of::<Reader<A>>())
            + self
                .readers
                .values()
                .filter_map(|r| r.dump.as_ref())
                .map(|d| d.borrow().heap_size())
                .sum::<usize>()
    }
}

// The unit tests key their rigs with std's map.
#[cfg(test)]
use std::collections::HashMap;

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};
    use xorp_net::{AsPath, PathAttributes, ProtocolId};
    use xorp_stages::{stage_ref, SinkStage, VecSource};

    type R = BgpRoute<Ipv4Addr>;
    type Sink = SinkStage<Ipv4Addr, R>;

    fn route(net: &str, peer: u32) -> R {
        let mut attrs = PathAttributes::new(IpAddr::V4("192.0.2.1".parse().unwrap()));
        attrs.as_path = AsPath::from_sequence([65000 + peer]);
        let mut r = R::new(net.parse().unwrap(), attrs.shared(), 0, ProtocolId::Ebgp);
        r.source = Some(peer);
        r
    }

    fn add(r: R) -> RouteOp<Ipv4Addr, R> {
        RouteOp::Add {
            net: r.net,
            route: r,
        }
    }

    struct Rig {
        el: EventLoop,
        fanout: std::rc::Rc<std::cell::RefCell<FanoutQueue<Ipv4Addr>>>,
        /// Stand-in for the decision stage: holds the best table the
        /// fanout's upstream lookups resolve against.
        upstream: std::rc::Rc<std::cell::RefCell<Sink>>,
        outs: HashMap<ReaderId, std::rc::Rc<std::cell::RefCell<Sink>>>,
    }

    /// Forwards to an inner sink, closing `gate` at the `trip`-th op
    /// (an XRL send crossing its high watermark).
    struct Tripwire {
        inner: Sink,
        gate: Rc<Cell<bool>>,
        trip: usize,
    }
    impl Stage<Ipv4Addr, R> for Tripwire {
        fn name(&self) -> String {
            "tripwire".into()
        }
        fn route_op(&mut self, el: &mut EventLoop, origin: OriginId, op: RouteOp<Ipv4Addr, R>) {
            self.inner.route_op(el, origin, op);
            if self.inner.log.len() == self.trip {
                self.gate.set(false);
            }
        }
        fn lookup_route(&self, net: &Prefix<Ipv4Addr>) -> Option<R> {
            self.inner.lookup_route(net)
        }
    }

    fn rig(peers: &[u32]) -> Rig {
        let mut rig = Rig {
            el: EventLoop::new_virtual(),
            fanout: stage_ref(FanoutQueue::new()),
            upstream: stage_ref(Sink::new()),
            outs: HashMap::new(),
        };
        rig.fanout.borrow_mut().set_upstream(rig.upstream.clone());
        let rib = stage_ref(Sink::new());
        rig.fanout
            .borrow_mut()
            .add_reader(ReaderId::Rib, rib.clone());
        rig.outs.insert(ReaderId::Rib, rib);
        for &p in peers {
            let sink = stage_ref(Sink::new());
            rig.fanout
                .borrow_mut()
                .add_reader(ReaderId::Peer(PeerId(p)), sink.clone());
            rig.outs.insert(ReaderId::Peer(PeerId(p)), sink);
        }
        rig
    }

    impl Rig {
        /// Apply `op` to the upstream table (where routes live) and then
        /// flow it through the fanout, as the decision stage would.
        fn send(&mut self, op: RouteOp<Ipv4Addr, R>) {
            let origin = op_origin(&op);
            self.upstream
                .borrow_mut()
                .route_op(&mut self.el, origin, op.clone());
            self.fanout.borrow_mut().route_op(&mut self.el, origin, op);
        }

        fn table_len(&self, id: ReaderId) -> usize {
            self.outs[&id].borrow().table.len()
        }

        fn flow(&self, id: ReaderId) -> Rc<Cell<bool>> {
            self.fanout.borrow().reader_flow(id).unwrap()
        }

        /// Attach `id` as a brand-new reader fed by a background dump of
        /// the current upstream table, as `BgpProcess::peering_up` does.
        fn attach_dumped(&mut self, id: ReaderId) -> std::rc::Rc<std::cell::RefCell<Sink>> {
            let sink = stage_ref(Sink::new());
            self.fanout.borrow_mut().add_reader(id, sink.clone());
            let mut dump = DumpStage::new("test", self.upstream.clone() as StageRef<Ipv4Addr, R>);
            dump.add_source(Box::new(VecSource::new(self.upstream.borrow().nets())));
            dump.set_transform(dump_transform(id));
            let f = std::rc::Rc::downgrade(&self.fanout);
            dump.set_before_slice(move |el| {
                if let Some(f) = f.upgrade() {
                    f.borrow_mut().pump_reader(el, id);
                }
            });
            let dump = stage_ref(dump);
            assert!(self.fanout.borrow_mut().attach_dump(&mut self.el, id, dump));
            self.outs.insert(id, sink.clone());
            sink
        }
    }

    #[test]
    fn duplicates_to_all_but_source() {
        let mut rig = rig(&[1, 2, 3]);
        rig.send(add(route("10.0.0.0/8", 1)));
        assert_eq!(rig.table_len(ReaderId::Rib), 1);
        assert_eq!(rig.table_len(ReaderId::Peer(PeerId(1))), 0); // split horizon
        assert_eq!(rig.table_len(ReaderId::Peer(PeerId(2))), 1);
        assert_eq!(rig.table_len(ReaderId::Peer(PeerId(3))), 1);
    }

    /// A delivery can congest its own lane: the flow gate flips mid-drain
    /// and the pump must stop at that entry, leaving the rest queued —
    /// the synchronous half of the Xoff path.  Other readers keep
    /// flowing, and re-opening the gate lets a pump finish the backlog.
    #[test]
    fn flow_gate_halts_drain_mid_backlog() {
        let mut rig = rig(&[1]);
        let tripwire = stage_ref(Tripwire {
            inner: Sink::new(),
            gate: Rc::new(Cell::new(true)),
            trip: 3,
        });
        rig.fanout
            .borrow_mut()
            .add_reader(ReaderId::Peer(PeerId(2)), tripwire.clone());
        let gate = rig.flow(ReaderId::Peer(PeerId(2)));
        tripwire.borrow_mut().gate = gate.clone();
        // Build a backlog while the gate is closed, then reopen it so the
        // next pump drains — and trips the gate again mid-drain.
        gate.set(false);
        for i in 0..10u8 {
            rig.send(add(route(&format!("10.{i}.0.0/16"), 1)));
        }
        assert_eq!(tripwire.borrow().inner.log.len(), 0);
        gate.set(true);
        let f = rig.fanout.clone();
        f.borrow_mut().pump(&mut rig.el);
        // The third delivery closed the gate; the drain stopped there.
        assert!(!gate.get());
        assert_eq!(tripwire.borrow().inner.log.len(), 3);
        assert_eq!(rig.fanout.borrow().queue_len(), 7);
        // The ungated RIB reader saw everything regardless.
        assert_eq!(rig.table_len(ReaderId::Rib), 10);
        // Reopening finishes the backlog (no second trip at 3+10 > 10).
        gate.set(true);
        f.borrow_mut().pump(&mut rig.el);
        assert_eq!(tripwire.borrow().inner.log.len(), 10);
        assert_eq!(rig.fanout.borrow().queue_len(), 0);
    }

    /// A dump's before-slice flush that closes the reader's flow cell
    /// parks the dump before its slice: the slice's lookups would run
    /// ahead of an op still queued for the reader, and the reader would
    /// hear of that prefix twice.
    #[test]
    fn flow_gate_closed_by_the_dump_flush_parks_the_slice() {
        let mut rig = rig(&[1, 2]);
        for i in 0..100u8 {
            rig.send(add(route(&format!("10.{i}.0.0/16"), 1)));
        }
        rig.fanout.borrow_mut().set_coalesce(64);
        let id = ReaderId::Peer(PeerId(9));
        let tripwire = stage_ref(Tripwire {
            inner: Sink::new(),
            gate: Rc::new(Cell::new(true)),
            trip: 1,
        });
        rig.fanout.borrow_mut().add_reader(id, tripwire.clone());
        tripwire.borrow_mut().gate = rig.flow(id);
        let mut dump = DumpStage::new("test", rig.upstream.clone() as StageRef<Ipv4Addr, R>);
        dump.add_source(Box::new(VecSource::new(rig.upstream.borrow().nets())));
        dump.set_transform(dump_transform(id));
        let f = Rc::downgrade(&rig.fanout);
        dump.set_before_slice(move |el| {
            if let Some(f) = f.upgrade() {
                f.borrow_mut().pump_reader(el, id);
            }
        });
        let f = rig.fanout.clone();
        assert!(f.borrow_mut().attach_dump(&mut rig.el, id, stage_ref(dump)));
        // Two live ops wait in the coalescer: the first one delivered
        // closes the cell, leaving a replace of a prefix the first slice
        // visits still queued.
        rig.send(add(route("172.16.0.0/12", 1)));
        let (old, new) = (route("10.0.0.0/16", 1), route("10.0.0.0/16", 2));
        rig.send(RouteOp::Replace {
            net: old.net,
            old,
            new,
        });
        rig.el.run_one();
        assert_eq!(tripwire.borrow().inner.log.len(), 1, "the slice ran");
        f.borrow_mut().resume(&mut rig.el, id);
        rig.el.run_until_idle();
        let t = tripwire.borrow();
        assert_eq!(t.inner.table.len(), 101);
        let net = "10.0.0.0/16".parse().unwrap();
        assert_eq!(t.inner.table[&net].source, Some(2));
        let touches = t.inner.log.iter().filter(|(_, op)| op.net() == net).count();
        assert_eq!(touches, 1, "prefix delivered twice");
    }

    #[test]
    fn paused_reader_queues_without_blocking_others() {
        let mut rig = rig(&[1, 2]);
        rig.flow(ReaderId::Peer(PeerId(2))).set(false);
        for i in 0..10u8 {
            rig.send(add(route(&format!("10.{i}.0.0/16"), 1)));
        }
        // Fast readers saw everything immediately.
        assert_eq!(rig.table_len(ReaderId::Rib), 10);
        assert_eq!(rig.table_len(ReaderId::Peer(PeerId(2))), 0);
        // One queue holds the backlog.
        assert_eq!(rig.fanout.borrow().queue_len(), 10);
        // Resume: backlog drains in order.
        let f = rig.fanout.clone();
        f.borrow_mut()
            .resume(&mut rig.el, ReaderId::Peer(PeerId(2)));
        assert_eq!(rig.table_len(ReaderId::Peer(PeerId(2))), 10);
        assert_eq!(rig.fanout.borrow().queue_len(), 0);
    }

    #[test]
    fn queue_is_shared_not_per_reader() {
        let mut rig = rig(&[1, 2, 3]);
        rig.flow(ReaderId::Peer(PeerId(2))).set(false);
        rig.flow(ReaderId::Peer(PeerId(3))).set(false);
        for i in 0..100u8 {
            rig.send(add(route(&format!("10.{i}.0.0/16"), 1)));
        }
        // Two slow peers, but only ONE queue of 100 entries.
        assert_eq!(rig.fanout.borrow().queue_len(), 100);
        assert_eq!(rig.fanout.borrow().max_queue_len, 100);
    }

    /// The registry's `fanout.queue_len` is a read path for the queue, so
    /// it must equal `queue_len()` after every kind of change: a coalesced
    /// push (no pump), a pump past a gated reader, a pump that drains, and
    /// the removal of the reader pinning a backlog.
    #[test]
    fn queue_len_gauge_equals_the_queue_after_every_change() {
        use xorp_profiler::MetricValue;

        let mut rig = rig(&[1]);
        let metrics = Metrics::new();
        let peer = ReaderId::Peer(PeerId(1));
        let gate = rig.flow(peer);
        gate.set(false);
        {
            let mut f = rig.fanout.borrow_mut();
            f.set_metrics(&metrics);
            f.set_coalesce(100);
        }
        let check = |rig: &Rig, expect: usize| {
            let gauge = match metrics.get("fanout.queue_len") {
                Some(MetricValue::Gauge { value, .. }) => value,
                other => panic!("fanout.queue_len: {other:?}"),
            };
            assert_eq!(rig.fanout.borrow().queue_len(), expect);
            assert_eq!(gauge, expect as i64);
        };
        let f = rig.fanout.clone();

        for i in 0..3u8 {
            rig.send(add(route(&format!("10.{i}.0.0/16"), 2)));
        }
        check(&rig, 3);
        f.borrow_mut().pump(&mut rig.el);
        check(&rig, 3);
        gate.set(true);
        f.borrow_mut().pump(&mut rig.el);
        check(&rig, 0);
        gate.set(false);
        for i in 3..5u8 {
            rig.send(add(route(&format!("10.{i}.0.0/16"), 2)));
        }
        f.borrow_mut().pump(&mut rig.el);
        check(&rig, 2);
        f.borrow_mut().remove_reader(peer);
        check(&rig, 0);
    }

    #[test]
    fn replace_across_sources_splits_per_reader() {
        let mut rig = rig(&[1, 2, 3]);
        let from1 = route("10.0.0.0/8", 1);
        rig.send(add(from1.clone()));
        let from2 = route("10.0.0.0/8", 2);
        rig.send(RouteOp::Replace {
            net: from1.net,
            old: from1,
            new: from2,
        });
        // Peer 1: previously skipped the add, now receives an Add.
        assert_eq!(rig.table_len(ReaderId::Peer(PeerId(1))), 1);
        // Peer 2: had the old route; new one is its own → Delete.
        assert_eq!(rig.table_len(ReaderId::Peer(PeerId(2))), 0);
        // Peer 3 and RIB: straight replace.
        assert_eq!(rig.table_len(ReaderId::Peer(PeerId(3))), 1);
        assert_eq!(rig.table_len(ReaderId::Rib), 1);
    }

    /// A new peering learns the existing table from a background dump —
    /// nothing is delivered synchronously at attach time.
    #[test]
    fn late_reader_learns_table_from_background_dump() {
        let mut rig = rig(&[1]);
        rig.send(add(route("10.0.0.0/8", 1)));
        rig.send(add(route("20.0.0.0/8", 1)));
        let late = rig.attach_dumped(ReaderId::Peer(PeerId(9)));
        // Attach itself delivered nothing: the walk is a background task.
        assert_eq!(late.borrow().table.len(), 0);
        assert!(rig
            .fanout
            .borrow()
            .dump_in_flight(ReaderId::Peer(PeerId(9))));
        rig.el.run_until_idle();
        assert_eq!(late.borrow().table.len(), 2);
        assert!(!rig
            .fanout
            .borrow()
            .dump_in_flight(ReaderId::Peer(PeerId(9))));
        // And subsequent changes flow normally.
        rig.send(add(route("30.0.0.0/8", 1)));
        assert_eq!(late.borrow().table.len(), 3);
    }

    #[test]
    fn dump_respects_split_horizon() {
        let mut rig = rig(&[1]);
        rig.send(add(route("10.0.0.0/8", 2))); // from peer 2 (not attached)
        rig.send(add(route("20.0.0.0/8", 1)));
        let peer2 = rig.attach_dumped(ReaderId::Peer(PeerId(2)));
        rig.el.run_until_idle();
        // The dump must skip peer 2's own route.
        assert_eq!(peer2.borrow().table.len(), 1);
        assert!(peer2
            .borrow()
            .table
            .contains_key(&"20.0.0.0/8".parse().unwrap()));
    }

    /// Live churn racing the dump: a prefix withdrawn before the walk
    /// reaches it never reaches the new reader; one announced twice
    /// (live overtaking the walk) arrives exactly once.
    #[test]
    fn dump_interleaves_with_live_churn_exactly_once() {
        let mut rig = rig(&[1]);
        for i in 0..200u16 {
            rig.send(add(route(&format!("10.{}.{}.0/24", i >> 8, i & 0xff), 1)));
        }
        let late = rig.attach_dumped(ReaderId::Peer(PeerId(9)));
        rig.el.run_one(); // one slice
        let after_one_slice = late.borrow().table.len();
        assert!(after_one_slice < 200, "walk must be sliced");
        // Live delete of a not-yet-dumped prefix...
        let dead = route("10.0.199.0/24", 1);
        rig.send(RouteOp::Delete {
            net: dead.net,
            old: dead.clone(),
        });
        // ...and a live replace of another.
        let repl_old = route("10.0.198.0/24", 1);
        let repl_new = route("10.0.198.0/24", 2);
        rig.send(RouteOp::Replace {
            net: repl_old.net,
            old: repl_old,
            new: repl_new.clone(),
        });
        rig.el.run_until_idle();
        // 200 routes minus the withdrawn one.
        assert_eq!(late.borrow().table.len(), 199);
        assert!(!late.borrow().table.contains_key(&dead.net));
        // The replaced prefix holds the new route, delivered exactly once.
        assert_eq!(
            late.borrow().table[&repl_new.net].source,
            Some(2),
            "reader must hold the replacement route"
        );
        let touches = late
            .borrow()
            .log
            .iter()
            .filter(|(_, op)| op.net() == repl_new.net)
            .count();
        assert_eq!(touches, 1, "prefix delivered more than once");
        // The dead prefix never reached the reader at all.
        assert!(late.borrow().log.iter().all(|(_, op)| op.net() != dead.net));
    }

    #[test]
    fn pausing_reader_parks_its_dump() {
        let mut rig = rig(&[1]);
        for i in 0..200u8 {
            rig.send(add(route(&format!("10.{i}.0.0/16"), 1)));
        }
        let late = rig.attach_dumped(ReaderId::Peer(PeerId(9)));
        rig.el.run_one();
        rig.flow(ReaderId::Peer(PeerId(9))).set(false);
        // The parked walk exits rather than spinning run_until_idle.
        rig.el.run_until_idle();
        let parked = late.borrow().table.len();
        assert!(parked < 200);
        assert!(rig
            .fanout
            .borrow()
            .dump_in_flight(ReaderId::Peer(PeerId(9))));
        let f = rig.fanout.clone();
        f.borrow_mut()
            .resume(&mut rig.el, ReaderId::Peer(PeerId(9)));
        rig.el.run_until_idle();
        assert_eq!(late.borrow().table.len(), 200);
    }

    /// Satellite regression: killing a paused peer must let the queue
    /// drain to empty — remove_reader drops its cursor from the GC floor
    /// and aborts its dump.
    #[test]
    fn removing_dead_paused_reader_drains_queue() {
        let mut rig = rig(&[1, 2]);
        rig.flow(ReaderId::Peer(PeerId(2))).set(false);
        for i in 0..50u8 {
            rig.send(add(route(&format!("10.{i}.0.0/16"), 1)));
        }
        assert_eq!(rig.fanout.borrow().queue_len(), 50);
        // The slow peer dies without ever resuming.
        rig.fanout
            .borrow_mut()
            .remove_reader(ReaderId::Peer(PeerId(2)));
        assert_eq!(rig.fanout.borrow().queue_len(), 0);
        // And traffic keeps flowing for the survivors.
        rig.send(add(route("172.16.0.0/12", 1)));
        assert_eq!(rig.fanout.borrow().queue_len(), 0);
        assert_eq!(rig.table_len(ReaderId::Peer(PeerId(1))), 0); // own routes
        assert_eq!(rig.table_len(ReaderId::Rib), 51);
    }

    #[test]
    fn remove_reader_aborts_dump() {
        let mut rig = rig(&[1]);
        for i in 0..200u8 {
            rig.send(add(route(&format!("10.{i}.0.0/16"), 1)));
        }
        let late = rig.attach_dumped(ReaderId::Peer(PeerId(9)));
        rig.el.run_one();
        rig.fanout
            .borrow_mut()
            .remove_reader(ReaderId::Peer(PeerId(9)));
        rig.el.run_until_idle();
        assert!(late.borrow().table.len() < 200, "dump must stop at removal");
    }

    #[test]
    fn gc_reclaims_consumed_entries() {
        let mut rig = rig(&[1, 2]);
        for i in 0..5u8 {
            rig.send(add(route(&format!("10.{i}.0.0/16"), 1)));
        }
        // Nobody paused: queue should be empty after delivery.
        assert_eq!(rig.fanout.borrow().queue_len(), 0);
    }

    #[test]
    fn remove_reader_unblocks_gc() {
        let mut rig = rig(&[1, 2]);
        rig.flow(ReaderId::Peer(PeerId(2))).set(false);
        for i in 0..5u8 {
            rig.send(add(route(&format!("10.{i}.0.0/16"), 1)));
        }
        assert_eq!(rig.fanout.borrow().queue_len(), 5);
        // The slow peer goes away entirely.
        rig.fanout
            .borrow_mut()
            .remove_reader(ReaderId::Peer(PeerId(2)));
        assert_eq!(rig.fanout.borrow().queue_len(), 0);
    }

    /// One preload's holdback does not stay resident: queue 50,000 entries
    /// behind a gated reader, open the gate, drain — the buffer is given
    /// back, the reader saw every entry in arrival order, and the
    /// coalescer batches the next arrivals as before.
    #[test]
    fn drained_backlog_releases_its_buffer() {
        let slot = std::mem::size_of::<(u64, RouteOp<Ipv4Addr, R>)>();
        let mut rig = rig(&[]);
        rig.fanout.borrow_mut().set_coalesce(64);
        let gate = rig.flow(ReaderId::Rib);
        gate.set(false);
        let nets: Vec<String> = (0..50_000u32)
            .map(|i| format!("10.{}.{}.0/24", i >> 8, i & 255))
            .collect();
        for net in &nets {
            rig.send(add(route(net, 1)));
        }
        assert_eq!(rig.fanout.borrow().queue_len(), 50_000);
        assert!(rig.fanout.borrow().heap_size() >= 50_000 * slot);

        gate.set(true);
        rig.fanout.borrow_mut().pump(&mut rig.el);
        assert_eq!(rig.fanout.borrow().queue_len(), 0);
        assert!(rig.fanout.borrow().heap_size() <= 2_048 * slot);
        {
            let rib = rig.outs[&ReaderId::Rib].borrow();
            assert_eq!(rib.log.len(), nets.len());
            assert!(rib
                .log
                .iter()
                .zip(&nets)
                .all(|((_, op), net)| op.net() == net.parse().unwrap()));
        }

        for i in 0..64u8 {
            assert_eq!(rig.table_len(ReaderId::Rib), 50_000, "held below threshold");
            rig.send(add(route(&format!("172.16.{i}.0/24"), 1)));
        }
        assert_eq!(rig.table_len(ReaderId::Rib), 50_064);
    }

    #[test]
    fn coalescing_defers_until_threshold() {
        let mut rig = rig(&[1]);
        rig.fanout.borrow_mut().set_coalesce(3);
        rig.send(add(route("10.0.0.0/8", 1)));
        rig.send(add(route("20.0.0.0/8", 1)));
        // Below threshold: nothing delivered yet.
        assert_eq!(rig.table_len(ReaderId::Rib), 0);
        rig.send(add(route("30.0.0.0/8", 1)));
        // Third entry fills the batch: all three flow at once.
        assert_eq!(rig.table_len(ReaderId::Rib), 3);
    }

    /// A queued-but-undelivered entry must not double-announce through a
    /// racing dump: the before-slice pump flushes the reader's backlog so
    /// the walk's lookups agree with what the reader consumed.
    #[test]
    fn coalesced_backlog_is_flushed_before_each_dump_slice() {
        let mut rig = rig(&[1]);
        for i in 0..100u8 {
            rig.send(add(route(&format!("10.{i}.0.0/16"), 1)));
        }
        rig.fanout.borrow_mut().set_coalesce(64);
        let late = rig.attach_dumped(ReaderId::Peer(PeerId(9)));
        // A live add sits in the queue below the coalesce threshold,
        // undelivered, while the dump walks — its lookup sees the route
        // as current state.
        rig.send(add(route("172.16.0.0/12", 1)));
        assert_eq!(rig.fanout.borrow().queue_len(), 1);
        rig.el.run_until_idle();
        assert_eq!(late.borrow().table.len(), 101);
        let touches = late
            .borrow()
            .log
            .iter()
            .filter(|(_, op)| op.net() == "172.16.0.0/12".parse().unwrap())
            .count();
        assert_eq!(touches, 1, "queued entry double-delivered through dump");
    }

    #[test]
    fn push_flushes_partial_coalesced_batch() {
        let mut rig = rig(&[1]);
        rig.fanout.borrow_mut().set_coalesce(100);
        rig.send(add(route("10.0.0.0/8", 1)));
        assert_eq!(rig.table_len(ReaderId::Rib), 0);
        // Batch boundary: the lone route must not wait for 99 more.
        let f = rig.fanout.clone();
        f.borrow_mut().push(&mut rig.el);
        assert_eq!(rig.table_len(ReaderId::Rib), 1);
        // Back below threshold again; coalescing still active.
        rig.send(add(route("20.0.0.0/8", 1)));
        assert_eq!(rig.table_len(ReaderId::Rib), 1);
        f.borrow_mut().push(&mut rig.el);
        assert_eq!(rig.table_len(ReaderId::Rib), 2);
    }

    #[test]
    fn coalesce_one_is_per_route() {
        let mut rig = rig(&[1]);
        rig.fanout.borrow_mut().set_coalesce(1);
        rig.send(add(route("10.0.0.0/8", 1)));
        assert_eq!(rig.table_len(ReaderId::Rib), 1);
    }

    #[test]
    fn lookup_relays_upstream_no_mirror() {
        let mut rig = rig(&[1]);
        let r = route("10.0.0.0/8", 1);
        rig.send(add(r.clone()));
        // The answer comes from upstream (where routes live) — the fanout
        // itself stores nothing.
        assert_eq!(
            rig.fanout.borrow().lookup_route(&r.net).unwrap().source,
            Some(1)
        );
        assert_eq!(rig.fanout.borrow().best_count(), 1);
        rig.send(RouteOp::Delete {
            net: r.net,
            old: r.clone(),
        });
        assert_eq!(rig.fanout.borrow().lookup_route(&r.net), None);
        assert_eq!(rig.fanout.borrow().best_count(), 0);
    }

    #[test]
    fn heap_size_has_no_per_route_term() {
        let mut rig = rig(&[1]);
        let empty = rig.fanout.borrow().heap_size();
        for i in 0..200u8 {
            rig.send(add(route(&format!("10.{i}.0.0/16"), 1)));
        }
        // All entries consumed, nothing mirrored: heap stays queue-sized,
        // not table-sized.
        let loaded = rig.fanout.borrow().heap_size();
        assert_eq!(rig.fanout.borrow().queue_len(), 0);
        // Queue capacity may have grown transiently, but there is no
        // 200-route table term.
        assert!(loaded < empty + 220 * std::mem::size_of::<(u64, RouteOp<Ipv4Addr, R>)>());
    }
}
