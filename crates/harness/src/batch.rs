//! A hop's route output, per-route or coalesced into vectorized frames.
//!
//! A [`RouteOutput`] sits between a route-emitting stage (BGP's RIB
//! output, the RIB's FEA output) and the XRL router.  At batch size 1 it
//! sends each op at once as one `add_route` / `delete_route` call.  Above
//! 1 it is a [`RouteBatcher`], which buffers rows and ships them as
//! `add_routes` / `delete_routes` frames, flushing when
//!
//! - the buffer reaches `batch_size` rows (size-based flush), or
//! - the loop has drained its input: the flush waits on the loop's idle
//!   lane ([`EventLoop::defer_idle`]) until no local, priority,
//!   completion or bulk event is queued and no timer is due.
//!
//! So `batch_size` is a cap: input that queued up while the loop was busy
//! leaves in frames that hold `batch_size` rows, and a *single* route
//! still leaves before the loop next blocks, with no timer, which keeps
//! the Fig-10 latency shape.
//!
//! Ordering is preserved: rows are buffered in arrival order and a flush
//! emits one frame per run of consecutive same-direction rows, so an
//! add/delete/add sequence can never be reordered into delete/add/add.
//! A run also closes at `batch_size` rows, so no frame carries more, even
//! when a closed gate has let the buffer grow past it.
//! An XRL a later event sends on another method can overtake rows still
//! held for the frame, as one sent later in the same event always could.
//!
//! Each op's row is encoded as it is buffered, straight into its run's
//! list bytes ([`BulkRouteSink::write_row`]): a frame's rows are never an
//! atom tree, and the writer keeps its buffer from frame to frame.

use std::cell::RefCell;
use std::rc::Rc;

use xorp_event::EventLoop;
use xorp_net::Ipv4Net;
use xorp_profiler::tracing::{self as xtrace, SpanRecorder, TraceContext};
use xorp_profiler::PointHandle;
use xorp_stages::RouteOp;
use xorp_xrl::wire::MAX_ITEMS;
use xorp_xrl::{ListWriter, WireList};

use crate::xrl_ifaces::{BulkRouteSink, WireOp};

/// One buffered op: direction, prefix, and the ambient trace context at
/// push time (sampled routes only).  Its row is already in its run's list.
struct Row {
    add: bool,
    net: Ipv4Net,
    trace: Option<TraceContext>,
}

/// The profiling payload of one route op (`add 10.0.1.0/24`).  Built only
/// inside a profiling point's `record(|| ..)`, so a dormant point never
/// pays for the `format!`.
fn op_payload(add: bool, net: Ipv4Net) -> String {
    format!("{} {net}", if add { "add" } else { "del" })
}

/// One hop's route output: the single place the per-route or batched
/// choice is made.
#[derive(Clone)]
pub struct RouteOutput {
    sink: BulkRouteSink,
    /// Stamped per op on entry (points 2 and 5).
    queued: PointHandle,
    /// Stamped per op as it is sent (points 3 and 6).
    sent: PointHandle,
    /// Present above batch size 1.
    batcher: Option<RouteBatcher>,
}

impl RouteOutput {
    /// An output over `sink`: per-route at `batch_size` 1, otherwise a
    /// [`RouteBatcher`] whose frames record `batch` spans with `tracer`.
    pub fn new(
        sink: BulkRouteSink,
        batch_size: usize,
        queued: PointHandle,
        sent: PointHandle,
        tracer: SpanRecorder,
    ) -> RouteOutput {
        let batcher = (batch_size > 1).then(|| {
            let b = RouteBatcher::new(sink.clone(), batch_size, sent.clone());
            b.set_tracer(tracer);
            b
        });
        RouteOutput {
            sink,
            queued,
            sent,
            batcher,
        }
    }

    /// Send or buffer one op.  Per-route, the op leaves in this turn.
    pub fn push(&self, el: &mut EventLoop, op: &WireOp) {
        let net = op.net();
        let add = !matches!(op, RouteOp::Delete { .. });
        self.queued.record(|| op_payload(add, net));
        match &self.batcher {
            Some(batcher) => batcher.push(el, op),
            None => {
                // Stamp before the send: once the frame is on the wire the
                // peer's reader thread may stamp its arrival point first,
                // breaking pipeline monotonicity.
                self.sent.record(|| op_payload(add, net));
                self.sink.send_one(el, op);
            }
        }
    }

    /// Close or open the batcher's backpressure gate.  Per-route output
    /// has nothing to hold: the fanout or watcher upstream stops instead.
    pub fn set_gate(&self, el: &mut EventLoop, closed: bool) {
        if let Some(batcher) = &self.batcher {
            batcher.set_gate(el, closed);
        }
    }
}

struct Inner {
    /// The typed `add_routes`/`delete_routes` pair frames are shipped
    /// through (an interned stub of the destination interface).
    sink: BulkRouteSink,
    batch_size: usize,
    /// Profiling point stamped per row when its frame is sent.  A
    /// pre-resolved handle: dormant stamping costs one relaxed load.
    sent_point: PointHandle,
    /// Ops waiting for a flush, in arrival order.
    pending: Vec<Row>,
    /// Their rows: the same-direction runs closed so far, then `open`,
    /// the run the next row of the same direction joins.
    closed: Vec<(bool, WireList)>,
    open: ListWriter,
    /// A flush already waits on the idle lane — don't stack another one
    /// per row.
    scheduled: bool,
    /// Backpressure gate: while closed (`true`), flushes hold and rows
    /// accumulate; reopening flushes immediately.
    gated: bool,
    /// Span recorder for the `batch` hop.  When set, a flushed frame
    /// rides the first traced row's context (the *carrier*) and every
    /// other traced row coalesced into it records a fan-in link.
    tracer: Option<SpanRecorder>,
}

/// Coalesces per-route ops into `add_routes`/`delete_routes` XRL frames.
#[derive(Clone)]
pub struct RouteBatcher {
    inner: Rc<RefCell<Inner>>,
}

impl RouteBatcher {
    pub fn new(sink: BulkRouteSink, batch_size: usize, sent_point: PointHandle) -> RouteBatcher {
        RouteBatcher {
            inner: Rc::new(RefCell::new(Inner {
                sink,
                // One frame counts at most MAX_ITEMS rows.
                batch_size: batch_size.clamp(1, MAX_ITEMS),
                sent_point,
                pending: Vec::new(),
                closed: Vec::new(),
                open: ListWriter::default(),
                scheduled: false,
                gated: false,
                tracer: None,
            })),
        }
    }

    /// Attach the `batch` hop's span recorder.
    pub fn set_tracer(&self, recorder: SpanRecorder) {
        self.inner.borrow_mut().tracer = Some(recorder);
    }

    /// Buffer one op's row; flush if the batch is full, otherwise make
    /// sure a flush waits for the loop to drain its input.
    pub fn push(&self, el: &mut EventLoop, op: &WireOp) {
        let add = !matches!(op, RouteOp::Delete { .. });
        let (full, arm) = {
            let mut b = self.inner.borrow_mut();
            let b = &mut *b;
            // A row turning the direction closes the open run, as does a
            // full run.
            if let Some(last) = b.pending.last() {
                if last.add != add || b.open.len() == b.batch_size {
                    b.closed.push((last.add, b.open.take()));
                }
            }
            b.sink.write_row(&mut b.open, op);
            b.pending.push(Row {
                add,
                net: op.net(),
                trace: xtrace::current(),
            });
            let full = b.pending.len() >= b.batch_size;
            let arm = !full && !b.scheduled;
            if arm {
                b.scheduled = true;
            }
            (full, arm)
        };
        if full {
            self.flush(el);
        } else if arm {
            let me = self.clone();
            el.defer_idle(move |el| me.flush(el));
        }
    }

    /// Close or open the backpressure gate.  While closed, `flush` holds
    /// rows in the buffer (the destination lane signalled Xoff); opening
    /// the gate ships whatever accumulated.
    pub fn set_gate(&self, el: &mut EventLoop, closed: bool) {
        self.inner.borrow_mut().gated = closed;
        if !closed {
            self.flush(el);
        }
    }

    /// Ship everything buffered, one frame per same-direction run.
    pub fn flush(&self, el: &mut EventLoop) {
        let (mut rows, runs, sink, sent_point, recorder) = {
            let mut b = self.inner.borrow_mut();
            let b = &mut *b;
            b.scheduled = false;
            let Some(last) = b.pending.last() else {
                return;
            };
            if b.gated {
                return;
            }
            b.closed.push((last.add, b.open.take()));
            (
                std::mem::take(&mut b.pending),
                std::mem::take(&mut b.closed),
                b.sink.clone(),
                b.sent_point.clone(),
                b.tracer.clone(),
            )
        };
        let mut at = 0;
        for (add, list) in runs {
            let run = &rows[at..at + list.len()];
            at += run.len();
            // The first traced row carries the frame's context; the other
            // traced rows coalesced into it record fan-in links so their
            // traces keep causality instead of dead-ending at the merge.
            let carrier = run.iter().find_map(|r| r.trace);
            let mut span = None;
            let prev = carrier.map(|ctx| {
                let child = match &recorder {
                    Some(t) => {
                        for r in run.iter() {
                            if let Some(c) = r.trace {
                                if c.trace_id != ctx.trace_id {
                                    t.fan_in(c, ctx.trace_id);
                                }
                            }
                        }
                        let s = t.begin(ctx, "batch");
                        let child = s.ctx;
                        span = Some(s);
                        child
                    }
                    None => ctx,
                };
                xtrace::set_current(Some(child))
            });
            for row in run {
                sent_point.record(|| op_payload(row.add, row.net));
            }
            sink.send(el, add, list);
            if let Some(p) = prev {
                xtrace::set_current(p);
            }
            if let (Some(s), Some(t)) = (span, &recorder) {
                t.finish(s);
            }
        }
        // Hand the buffer back for the next batch unless a send refilled
        // the batcher meanwhile.
        rows.clear();
        let mut b = self.inner.borrow_mut();
        if b.pending.is_empty() {
            b.pending = rows;
        }
    }

    /// Rows currently buffered (test observability).
    pub fn pending_count(&self) -> usize {
        self.inner.borrow().pending.len()
    }
}
