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
//! when a closed flow cell has let the buffer grow past it.
//! An XRL a later event sends on another method can overtake rows still
//! held for the frame, as one sent later in the same event always could.
//!
//! Backpressure: the batcher shares the hop's flow cell with the producer
//! feeding it (the fanout reader or the redistribution watcher) and reads
//! it before every frame.  While the destination lane is in Xoff no frame
//! leaves, and a frame whose send re-congests the lane stops the flush
//! there, the rest staying held until the next flush.
//!
//! Each op's row is encoded as it is buffered, straight into its run's
//! list bytes ([`BulkRouteSink::write_row`]): a frame's rows are never an
//! atom tree, and the writer keeps its buffer from frame to frame.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
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

    /// Share the hop's flow cell with the batcher.  Per-route output has
    /// nothing to hold: the fanout or watcher upstream stops instead.
    pub fn set_flow(&self, flow: Rc<Cell<bool>>) {
        if let Some(batcher) = &self.batcher {
            batcher.set_flow(flow);
        }
    }

    /// Ship what the batcher holds, while the flow cell stays open.
    pub fn flush(&self, el: &mut EventLoop) {
        if let Some(batcher) = &self.batcher {
            batcher.flush(el);
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
    pending: VecDeque<Row>,
    /// Their rows: the same-direction runs closed so far, then `open`,
    /// the run the next row of the same direction joins.
    closed: VecDeque<(bool, WireList)>,
    open: ListWriter,
    /// A flush already waits on the idle lane — don't stack another one
    /// per row.
    scheduled: bool,
    /// The hop's flow cell, read before every frame: while it reads
    /// `false` rows accumulate.
    flow: Rc<Cell<bool>>,
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
                pending: VecDeque::new(),
                closed: VecDeque::new(),
                open: ListWriter::default(),
                scheduled: false,
                flow: Rc::new(Cell::new(true)),
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
            if let Some(last) = b.pending.back() {
                if last.add != add || b.open.len() == b.batch_size {
                    b.closed.push_back((last.add, b.open.take()));
                }
            }
            b.sink.write_row(&mut b.open, op);
            b.pending.push_back(Row {
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

    /// Share the hop's flow cell (see [`RouteOutput::set_flow`]).
    pub fn set_flow(&self, flow: Rc<Cell<bool>>) {
        self.inner.borrow_mut().flow = flow;
    }

    /// Ship what is buffered, one frame per same-direction run, while the
    /// flow cell stays open: a send that closes it (the lane re-congested)
    /// stops the flush before the next frame.
    pub fn flush(&self, el: &mut EventLoop) {
        self.inner.borrow_mut().scheduled = false;
        loop {
            let (add, list, sink, span, prev) = {
                let mut b = self.inner.borrow_mut();
                let b = &mut *b;
                if !b.flow.get() {
                    return;
                }
                let (add, list) = match b.closed.pop_front() {
                    Some(run) => run,
                    None => match b.pending.back() {
                        Some(last) => (last.add, b.open.take()),
                        None => return,
                    },
                };
                let n = list.len();
                // The first traced row carries the frame's context; the
                // other traced rows coalesced into it record fan-in links
                // so their traces keep causality instead of dead-ending at
                // the merge.
                let carrier = b.pending.range(..n).find_map(|r| r.trace);
                let mut span = None;
                let prev = carrier.map(|ctx| {
                    let child = match &b.tracer {
                        Some(t) => {
                            for c in b.pending.range(..n).filter_map(|r| r.trace) {
                                if c.trace_id != ctx.trace_id {
                                    t.fan_in(c, ctx.trace_id);
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
                for row in b.pending.drain(..n) {
                    b.sent_point.record(|| op_payload(row.add, row.net));
                }
                (add, list, b.sink.clone(), span, prev)
            };
            sink.send(el, add, list);
            if let Some(p) = prev {
                xtrace::set_current(p);
            }
            if let Some(s) = span {
                if let Some(t) = &self.inner.borrow().tracer {
                    t.finish(s);
                }
            }
        }
    }

    /// Rows currently buffered (test observability).
    pub fn pending_count(&self) -> usize {
        self.inner.borrow().pending.len()
    }
}
