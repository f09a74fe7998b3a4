//! A hop's route output: one batcher at every batch size.
//!
//! A [`RouteOutput`] sits between a route-emitting stage (BGP's RIB
//! output, the RIB's FEA output) and the XRL router.  It queues ops in
//! arrival order and flushes when
//!
//! - the queue reaches `batch_size` ops (size-based flush), or
//! - the loop has drained its input: the flush waits on the loop's idle
//!   lane ([`EventLoop::defer_idle`]) until no local, priority,
//!   completion or bulk event is queued and no timer is due.
//!
//! A flush ships the queue run by run, a run being the longest prefix of
//! same-direction ops, capped at `batch_size`.  How a run leaves depends
//! on its length alone ([`BulkRouteSink::send_run`]): a run of one op on
//! the hop's per-route `add_route`/`delete_route`, a longer run as one
//! `add_routes`/`delete_routes` frame.  So `batch_size` only caps a run:
//! at 1 every op leaves in its push's turn, and above 1 input that
//! queued up while the loop was busy leaves in frames of up to
//! `batch_size` rows, while a *single* route still leaves before the loop
//! next blocks, with no timer, which keeps the Fig-10 latency shape.
//!
//! Ordering is preserved: runs leave in arrival order, so an
//! add/delete/add sequence can never be reordered into delete/add/add.
//! An XRL a later event sends on another method can overtake ops still
//! queued, as one sent later in the same event always could.
//!
//! Backpressure: the output shares the hop's flow cell with the producer
//! feeding it (the fanout reader or the redistribution watcher's dump)
//! and reads it before every run, at every batch size.  While the
//! destination lane is in Xoff nothing leaves, and a run whose send
//! re-congests the lane stops the flush there, the rest staying queued
//! until the next flush.  On the RIB→FEA hop this queue is the one place
//! a route waits out an Xoff, so it can hold a table's worth of ops: a
//! flush and a [`RouteOutput::clear`] give a drained buffer back
//! ([`release_drained`]).

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use xorp_event::EventLoop;
use xorp_net::{release_drained, HeapSize};
use xorp_profiler::tracing::{self as xtrace, SpanRecorder, TraceContext};
use xorp_profiler::PointHandle;
use xorp_stages::RouteOp;
use xorp_xrl::wire::MAX_ITEMS;
use xorp_xrl::ListWriter;

use crate::xrl_ifaces::{BulkRouteSink, WireOp};

fn is_add(op: &WireOp) -> bool {
    !matches!(op, RouteOp::Delete { .. })
}

/// The profiling payload of one route op (`add 10.0.1.0/24`).  Built only
/// inside a profiling point's `record(|| ..)`, so a dormant point never
/// pays for the `format!`.
fn op_payload(op: &WireOp) -> String {
    format!("{} {}", if is_add(op) { "add" } else { "del" }, op.net())
}

/// One hop's route output.
#[derive(Clone)]
pub struct RouteOutput(Rc<Shared>);

struct Shared {
    /// The hop's route methods (interned stubs of the destination
    /// interface).
    sink: BulkRouteSink,
    /// Cap on a run.  One frame counts at most [`MAX_ITEMS`] rows.
    batch_size: usize,
    /// Stamped per op on entry (points 2 and 5).
    queued: PointHandle,
    /// Stamped per op as its run is sent (points 3 and 6).
    sent: PointHandle,
    /// Span recorder for the `batch` hop: a run rides its first traced
    /// op's context (the *carrier*), and every other traced op in it
    /// records a fan-in link.
    tracer: SpanRecorder,
    state: RefCell<State>,
}

struct State {
    /// Ops waiting for a flush, in arrival order, each with the ambient
    /// trace context at push time (sampled routes only).
    ops: VecDeque<(WireOp, Option<TraceContext>)>,
    /// Writes a frame's rows; it keeps its buffer from frame to frame.
    rows: ListWriter,
    /// A flush already waits on the idle lane — don't stack another one
    /// per op.
    scheduled: bool,
    /// The hop's flow cell, read before every run: while it reads `false`
    /// ops accumulate.
    flow: Rc<Cell<bool>>,
}

impl RouteOutput {
    /// An output over `sink` whose runs hold at most `batch_size` ops and
    /// record `batch` spans with `tracer`.
    pub fn new(
        sink: BulkRouteSink,
        batch_size: usize,
        queued: PointHandle,
        sent: PointHandle,
        tracer: SpanRecorder,
    ) -> RouteOutput {
        RouteOutput(Rc::new(Shared {
            sink,
            batch_size: batch_size.clamp(1, MAX_ITEMS),
            queued,
            sent,
            tracer,
            state: RefCell::new(State {
                ops: VecDeque::new(),
                rows: ListWriter::default(),
                scheduled: false,
                flow: Rc::new(Cell::new(true)),
            }),
        }))
    }

    /// Queue one op; flush if a run's worth is queued, otherwise make
    /// sure a flush waits for the loop to drain its input.
    pub fn push(&self, el: &mut EventLoop, op: WireOp) {
        self.0.queued.record(|| op_payload(&op));
        let (full, arm) = {
            let mut s = self.0.state.borrow_mut();
            s.ops.push_back((op, xtrace::current()));
            let full = s.ops.len() >= self.0.batch_size;
            let arm = !full && !s.scheduled;
            s.scheduled |= arm;
            (full, arm)
        };
        if full {
            self.flush(el);
        } else if arm {
            let me = self.clone();
            el.defer_idle(move |el| me.flush(el));
        }
    }

    /// Share the hop's flow cell with the producer feeding this output.
    pub fn set_flow(&self, flow: Rc<Cell<bool>>) {
        self.0.state.borrow_mut().flow = flow;
    }

    /// Ship what is queued, run by run, while the flow cell stays open: a
    /// send that closes it (the lane re-congested) stops the flush before
    /// the next run.  A send never re-enters the output (intra dispatch
    /// is deferred, and congestion callbacks only flip the flow cell and
    /// defer), so the state stays borrowed across it.
    pub fn flush(&self, el: &mut EventLoop) {
        let me = &*self.0;
        let mut s = me.state.borrow_mut();
        s.scheduled = false;
        while s.flow.get() {
            let Some((first, _)) = s.ops.front() else {
                break;
            };
            let add = is_add(first);
            let n = s
                .ops
                .iter()
                .take(me.batch_size)
                .take_while(|(op, _)| is_add(op) == add)
                .count();
            let traces = || s.ops.range(..n).filter_map(|(_, t)| *t);
            // The first traced op carries the run's context; the other
            // traced ops coalesced into it record fan-in links so their
            // traces keep causality instead of dead-ending at the merge.
            let span = traces().next().map(|ctx| {
                for c in traces().filter(|c| c.trace_id != ctx.trace_id) {
                    me.tracer.fan_in(c, ctx.trace_id);
                }
                let span = me.tracer.begin(ctx, "batch");
                (xtrace::set_current(Some(span.ctx)), span)
            });
            let State { ops, rows, .. } = &mut *s;
            let run = ops.drain(..n).map(|(op, _)| {
                // Stamp before the send: once the frame is on the wire the
                // peer's reader thread may stamp its arrival point first,
                // breaking pipeline monotonicity.
                me.sent.record(|| op_payload(&op));
                op
            });
            me.sink.send_run(el, rows, run);
            if let Some((prev, span)) = span {
                xtrace::set_current(prev);
                me.tracer.finish(span);
            }
        }
        release_drained(&mut s.ops);
    }

    /// Drop every queued op: the process they were bound for died, and
    /// its successor re-learns the table by a dump.
    pub fn clear(&self) {
        let ops = &mut self.0.state.borrow_mut().ops;
        ops.clear();
        release_drained(ops);
    }

    /// Ops currently queued (backpressure observability).
    pub fn pending_count(&self) -> usize {
        self.0.state.borrow().ops.len()
    }
}

impl HeapSize for RouteOutput {
    /// The queue's buffer, by capacity: what a drained holdback must have
    /// given back.
    fn heap_size(&self) -> usize {
        let slot = std::mem::size_of::<(WireOp, Option<TraceContext>)>();
        self.0.state.borrow().ops.capacity() * slot
    }
}
