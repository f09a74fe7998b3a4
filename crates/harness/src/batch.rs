//! A hop's route output, per-route or coalesced into vectorized frames.
//!
//! A [`RouteOutput`] sits between a route-emitting stage (BGP's RIB
//! output, the RIB's FEA output) and the XRL router.  At batch size 1 it
//! sends each op at once as one `add_route` / `delete_route` call.  Above
//! 1 it is a [`RouteBatcher`], which buffers rows and ships them as
//! `add_routes` / `delete_routes` frames, flushing when
//!
//! - the buffer reaches `batch_size` rows (size-based flush), or
//! - the event loop goes idle (a deferred flush runs after all currently
//!   queued events), so a *single* route still leaves in the same loop
//!   iteration and keeps the Fig-10 latency shape.
//!
//! Ordering is preserved: rows are buffered in arrival order and a flush
//! emits one frame per run of consecutive same-direction rows, so an
//! add/delete/add sequence can never be reordered into delete/add/add.

use std::cell::RefCell;
use std::rc::Rc;

use xorp_event::EventLoop;
use xorp_net::Ipv4Net;
use xorp_profiler::tracing::{self as xtrace, SpanRecorder, TraceContext};
use xorp_profiler::PointHandle;
use xorp_stages::RouteOp;
use xorp_xrl::AtomValue;

use crate::xrl_ifaces::{BulkRouteSink, WireOp};

/// One buffered route row: direction, prefix, encoded atoms, and the
/// ambient trace context at push time (sampled routes only).
struct Row {
    add: bool,
    net: Ipv4Net,
    atoms: Vec<AtomValue>,
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
            Some(batcher) => batcher.push(el, add, net, self.sink.row(op)),
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
    pending: Vec<Row>,
    /// A flush is already deferred — don't stack another one per row.
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
                batch_size: batch_size.max(1),
                sent_point,
                pending: Vec::new(),
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

    /// Buffer one route row; flush if the batch is full, otherwise make
    /// sure a flush is deferred to loop idle.
    pub fn push(&self, el: &mut EventLoop, add: bool, net: Ipv4Net, atoms: Vec<AtomValue>) {
        let (full, arm) = {
            let mut b = self.inner.borrow_mut();
            b.pending.push(Row {
                add,
                net,
                atoms,
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
            el.defer(move |el| me.flush(el));
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
        let (rows, sink) = {
            let mut b = self.inner.borrow_mut();
            b.scheduled = false;
            if b.gated || b.pending.is_empty() {
                return;
            }
            (std::mem::take(&mut b.pending), b.sink.clone())
        };
        let (sent_point, recorder) = {
            let b = self.inner.borrow();
            (b.sent_point.clone(), b.tracer.clone())
        };
        let mut run: Vec<Row> = Vec::new();
        let ship = |el: &mut EventLoop, run: &mut Vec<Row>| {
            if run.is_empty() {
                return;
            }
            let add = run[0].add;
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
            let mut encoded = Vec::with_capacity(run.len());
            for row in run.drain(..) {
                sent_point.record(|| op_payload(row.add, row.net));
                encoded.push(AtomValue::List(row.atoms));
            }
            sink.send(el, add, encoded);
            if let Some(p) = prev {
                xtrace::set_current(p);
            }
            if let (Some(s), Some(t)) = (span, &recorder) {
                t.finish(s);
            }
        };
        for row in rows {
            if let Some(last) = run.last() {
                if last.add != row.add {
                    ship(el, &mut run);
                }
            }
            run.push(row);
        }
        ship(el, &mut run);
    }

    /// Rows currently buffered (test observability).
    pub fn pending_count(&self) -> usize {
        self.inner.borrow().pending.len()
    }
}
