//! Cross-process causal route tracing.
//!
//! The §8.2 profiling points answer "how long did this process hold the
//! route"; this module answers the question that spans processes — "why
//! did this prefix take 40 ms to reach the FEA?" — by tagging a sampled
//! ingress event with a [`TraceContext`] and recording a [`Span`] at
//! every hop the context visits.  Contexts ride the wire as a 12-byte
//! trailer on v2 request frames (see `xorp-xrl`), and ride *within* a
//! process as a thread-local ambient value ([`current`]/[`set_current`]):
//! each XORP process is a single-threaded event loop, so the ambient
//! context set around a dispatched handler (or a replayed fanout entry)
//! is exactly the causal parent of everything that handler does.
//!
//! Spans are the profiler's records under another name: each process's
//! spans go to one bounded [`crate::ring`] (the one a [`SpanRecorder`]
//! holds, so recording never looks up a name), drained in pages by
//! `profile/1.0/get_spans` exactly as `get_records` drains a point, and
//! stamped by the same process-wide clock ([`crate::now_ns`]), so spans
//! from different threads and profiling records compare directly.
//!
//! * **cheap when dormant** — [`Tracer::sample`] with sampling off costs
//!   exactly one relaxed atomic load, the same contract as
//!   [`crate::PointHandle::record`];
//! * **coalescing keeps causality** — when a batcher folds many traced
//!   routes into one frame, one context becomes the frame's *carrier*
//!   and every other contributor records a fan-in span whose
//!   [`Span::link`] names the carrier trace, so a stitcher can join the
//!   trees instead of losing the contributors.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::ring::{Drained, Ring, RING_CAPACITY};
use crate::{now_ns, wall_us};

/// The causal identity a sampled route carries across processes: which
/// end-to-end trace it belongs to and which span caused the current work.
/// Exactly the 12 bytes of the wire trailer (`u64` + `u32`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// End-to-end trace identity, allocated at ingress sampling.
    pub trace_id: u64,
    /// The span that caused this work; 0 at the trace root.
    pub parent_span: u32,
}

/// One recorded hop of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's identity (unique across the router: ids come from one
    /// shared allocator).
    pub span_id: u32,
    /// The causing span, 0 for a trace root.
    pub parent_span: u32,
    /// Process that recorded the span ("bgp", "rib", "fea", ...), shared
    /// with its recorder rather than copied per span.
    pub process: Arc<str>,
    /// Hop name ("bgp_in", "fanout", "batch", "rib", "fea", "fan_in").
    pub point: String,
    /// Wall-clock stamp (µs since the Unix epoch) of `end_ns`, for
    /// human-readable reports.
    pub wall_us: u64,
    /// Monotonic start ([`crate::now_ns`]).
    pub start_ns: u64,
    /// Monotonic end ([`crate::now_ns`]).
    pub end_ns: u64,
    /// For `fan_in` spans: the trace id of the carrier frame this
    /// contributor was coalesced into; 0 otherwise.
    pub link: u64,
}

/// An open span: created by [`SpanRecorder::begin`], closed by
/// [`SpanRecorder::finish`].  Carries the child [`TraceContext`]
/// downstream work should propagate.
#[derive(Debug)]
pub struct ActiveSpan {
    /// Context for work caused by this span (same trace, this span as
    /// parent).
    pub ctx: TraceContext,
    parent_span: u32,
    point: String,
    start_ns: u64,
}

/// One page of [`Tracer::drain`]: the ring's [`Drained`], with its items
/// named for what they are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainedSpans {
    /// Oldest-first spans removed by this page.
    pub spans: Vec<Span>,
    /// Spans still buffered after this page (paginate until 0).
    pub remaining: usize,
    /// Ring evictions since the previous drain (first page only).
    pub dropped: u64,
}

/// The shared trace recorder: one per router, cloned into every process
/// (like [`crate::Profiler`]), so spans survive the death of the process
/// that recorded them — the supervisor's flight recorder reads a dead
/// process's ring through its own clone.
#[derive(Clone, Default)]
pub struct Tracer {
    /// Sample 1-in-N ingress events; 0 disables sampling entirely.  The
    /// only thing a dormant [`Tracer::sample`] reads.
    every: Arc<AtomicU64>,
    arrivals: Arc<AtomicU64>,
    next_trace: Arc<AtomicU64>,
    next_span: Arc<AtomicU32>,
    rings: Arc<Mutex<HashMap<String, Arc<Ring<Span>>>>>,
}

impl Tracer {
    /// A fresh tracer with sampling off.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Sample 1 in `every` ingress events (1 = every event); 0 turns
    /// sampling off.
    pub fn set_sampling(&self, every: u64) {
        self.every.store(every, Ordering::Relaxed);
    }

    /// Sampling decision for one ingress event.  When sampling is off
    /// this is exactly one relaxed load — the same dormant contract as
    /// [`crate::PointHandle::record`] — with no counter traffic, no
    /// clock read and no lock.
    #[inline]
    pub fn sample(&self) -> Option<TraceContext> {
        let every = self.every.load(Ordering::Relaxed);
        if every == 0 {
            return None;
        }
        let n = self.arrivals.fetch_add(1, Ordering::Relaxed);
        if n % every != 0 {
            return None;
        }
        let id = self.next_trace.fetch_add(1, Ordering::Relaxed) + 1;
        // Spread sequential ids across the u64 space so trace ids are
        // recognisably distinct in reports; the map is injective.
        let trace_id = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Some(TraceContext {
            trace_id,
            parent_span: 0,
        })
    }

    /// The clock every span is stamped with ([`crate::now_ns`]).
    pub fn now_ns(&self) -> u64 {
        now_ns()
    }

    /// A recorder for `process`, holding that process's ring.
    pub fn recorder(&self, process: &str) -> SpanRecorder {
        let ring = self
            .rings
            .lock()
            .entry(process.to_string())
            .or_insert_with(|| Arc::new(Ring::new(RING_CAPACITY)))
            .clone();
        SpanRecorder {
            tracer: self.clone(),
            process: Arc::from(process),
            ring,
        }
    }

    fn ring(&self, process: &str) -> Option<Arc<Ring<Span>>> {
        self.rings.lock().get(process).cloned()
    }

    /// Remove and return up to `max` of the oldest spans recorded by
    /// `process` — the bounded page behind `profile/1.0/get_spans`.
    /// Unknown processes drain empty.
    pub fn drain(&self, process: &str, max: usize) -> DrainedSpans {
        let page = self
            .ring(process)
            .map_or_else(Drained::default, |r| r.drain(max));
        DrainedSpans {
            spans: page.items,
            remaining: page.remaining,
            dropped: page.dropped,
        }
    }

    /// `process`'s spans and the ring's eviction count, read together and
    /// without clearing — the flight recorder's read, which must not
    /// disturb a concurrent stitcher.
    pub fn snapshot(&self, process: &str) -> (Vec<Span>, u64) {
        self.ring(process)
            .map_or_else(Default::default, |r| r.snapshot())
    }
}

/// A [`Tracer`] bound to one process: it holds that process's ring and
/// name, so recording a span takes only the ring's lock.
#[derive(Clone)]
pub struct SpanRecorder {
    tracer: Tracer,
    process: Arc<str>,
    ring: Arc<Ring<Span>>,
}

impl SpanRecorder {
    /// See [`Tracer::sample`]; same one-relaxed-load dormant contract.
    #[inline]
    pub fn sample(&self) -> Option<TraceContext> {
        self.tracer.sample()
    }

    fn next_span_id(&self) -> u32 {
        self.tracer.next_span.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Open a span under `ctx`.  The returned [`ActiveSpan::ctx`] is the
    /// child context downstream work should carry.
    pub fn begin(&self, ctx: TraceContext, point: &str) -> ActiveSpan {
        ActiveSpan {
            ctx: TraceContext {
                trace_id: ctx.trace_id,
                parent_span: self.next_span_id(),
            },
            parent_span: ctx.parent_span,
            point: point.to_string(),
            start_ns: now_ns(),
        }
    }

    /// Close `span` into this process's ring.
    pub fn finish(&self, span: ActiveSpan) {
        self.ring.push_with(|| {
            let end_ns = now_ns();
            Span {
                trace_id: span.ctx.trace_id,
                span_id: span.ctx.parent_span,
                parent_span: span.parent_span,
                process: self.process.clone(),
                point: span.point,
                wall_us: wall_us(end_ns),
                start_ns: span.start_ns,
                end_ns,
                link: 0,
            }
        });
    }

    /// Record an instantaneous hop (begin and finish collapse into one
    /// call) and return the child context.
    pub fn instant(&self, ctx: TraceContext, point: &str) -> TraceContext {
        let span = self.begin(ctx, point);
        let child = span.ctx;
        self.finish(span);
        child
    }

    /// Record that the route carrying `contributor` was coalesced into a
    /// frame whose carrier trace is `carrier_trace`: a zero-length
    /// `fan_in` span in the contributor's trace whose [`Span::link`]
    /// names the carrier, so stitching can graft the contributor onto
    /// the carrier's downstream tree instead of losing it.
    pub fn fan_in(&self, contributor: TraceContext, carrier_trace: u64) {
        let span_id = self.next_span_id();
        self.ring.push_with(|| {
            let now = now_ns();
            Span {
                trace_id: contributor.trace_id,
                span_id,
                parent_span: contributor.parent_span,
                process: self.process.clone(),
                point: "fan_in".to_string(),
                wall_us: wall_us(now),
                start_ns: now,
                end_ns: now,
                link: carrier_trace,
            }
        });
    }
}

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// The ambient trace context of the current thread (each XORP process is
/// one single-threaded event loop, so "thread" and "process" coincide).
/// `None` between dispatches and for unsampled work.
pub fn current() -> Option<TraceContext> {
    CURRENT.with(|c| c.get())
}

/// Replace the ambient context, returning the previous value so callers
/// can scope-restore:
///
/// ```
/// # use xorp_profiler::tracing::{set_current, current, TraceContext};
/// let prev = set_current(Some(TraceContext { trace_id: 7, parent_span: 0 }));
/// assert_eq!(current().map(|c| c.trace_id), Some(7));
/// set_current(prev);
/// assert_eq!(current(), None);
/// ```
pub fn set_current(ctx: Option<TraceContext>) -> Option<TraceContext> {
    CURRENT.with(|c| c.replace(ctx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn sampling_off_yields_nothing_and_counts_nothing() {
        let t = Tracer::new();
        for _ in 0..100 {
            assert!(t.sample().is_none());
        }
        assert_eq!(t.arrivals.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn one_in_n_sampling_is_exact() {
        let t = Tracer::new();
        t.set_sampling(4);
        let sampled = (0..100).filter(|_| t.sample().is_some()).count();
        assert_eq!(sampled, 25);
        t.set_sampling(1);
        assert!(t.sample().is_some());
    }

    #[test]
    fn trace_ids_are_unique_and_roots() {
        let t = Tracer::new();
        t.set_sampling(1);
        let a = t.sample().unwrap();
        let b = t.sample().unwrap();
        assert_ne!(a.trace_id, b.trace_id);
        assert_eq!((a.parent_span, b.parent_span), (0, 0));
    }

    /// The dormant contract, proven the same way as the profiler's: hold
    /// the tracer's lock and a recorder's ring lock while sampling with
    /// sampling off — a lock acquisition on the dormant path would
    /// deadlock.
    #[test]
    fn dormant_sample_never_touches_the_lock() {
        let t = Tracer::new();
        let rec = t.recorder("bgp");
        let _rings = t.rings.lock();
        let _ring = rec.ring.hold();
        for _ in 0..1000 {
            assert!(t.sample().is_none());
            assert!(rec.sample().is_none());
        }
    }

    /// Dormant sampling must stay a single relaxed load — same loose
    /// 100 ns/op bound as the profiler's dormant benchmark, catching a
    /// reintroduced lock, clock read, or counter increment.
    #[test]
    fn dormant_sample_benchmark() {
        let t = Tracer::new();
        const N: u32 = 1_000_000;
        let start = Instant::now();
        for _ in 0..N {
            assert!(t.sample().is_none());
        }
        let per_op = start.elapsed().as_nanos() / N as u128;
        assert!(
            per_op < 100,
            "dormant sample took {per_op} ns/op — did the fast path grow?"
        );
    }

    #[test]
    fn spans_nest_with_monotone_stamps() {
        let t = Tracer::new();
        let (bgp_rec, rib_rec) = (t.recorder("bgp"), t.recorder("rib"));
        t.set_sampling(1);
        let root_ctx = t.sample().unwrap();
        let root = bgp_rec.begin(root_ctx, "bgp_in");
        let child = rib_rec.begin(root.ctx, "rib");
        rib_rec.finish(child);
        bgp_rec.finish(root);

        let (bgp, _) = t.snapshot("bgp");
        let (rib, _) = t.snapshot("rib");
        assert_eq!((bgp.len(), rib.len()), (1, 1));
        assert_eq!(bgp[0].point, "bgp_in");
        assert_eq!(&*rib[0].process, "rib");
        assert_eq!(bgp[0].parent_span, 0);
        assert_eq!(rib[0].parent_span, bgp[0].span_id);
        assert_eq!(rib[0].trace_id, bgp[0].trace_id);
        assert!(bgp[0].start_ns <= rib[0].start_ns);
        assert!(rib[0].start_ns <= rib[0].end_ns);
        assert!(rib[0].end_ns <= bgp[0].end_ns);
        assert_eq!(bgp[0].wall_us, wall_us(bgp[0].end_ns));
    }

    #[test]
    fn fan_in_links_contributor_to_carrier() {
        let t = Tracer::new();
        let rec = t.recorder("bgp");
        t.set_sampling(1);
        let carrier = t.sample().unwrap();
        let contributor = t.sample().unwrap();
        rec.fan_in(contributor, carrier.trace_id);
        let (spans, _) = t.snapshot("bgp");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].trace_id, contributor.trace_id);
        assert_eq!(spans[0].link, carrier.trace_id);
        assert_eq!(spans[0].point, "fan_in");
        assert_eq!(spans[0].start_ns, spans[0].end_ns);
    }

    /// A tracer whose "bgp" process has a ring of `capacity`.
    fn with_small_bgp_ring(capacity: usize) -> Tracer {
        let t = Tracer::new();
        t.rings
            .lock()
            .insert("bgp".to_string(), Arc::new(Ring::new(capacity)));
        t
    }

    #[test]
    fn rings_are_bounded_per_process_with_drop_counters() {
        let t = with_small_bgp_ring(8);
        let rec = t.recorder("bgp");
        t.set_sampling(1);
        for _ in 0..20 {
            let ctx = t.sample().unwrap();
            rec.instant(ctx, "bgp_in");
        }
        let (spans, dropped) = t.snapshot("bgp");
        assert_eq!((spans.len(), dropped), (8, 12));
        assert_eq!(t.snapshot("rib").0.len(), 0);
    }

    #[test]
    fn drain_paginates_and_reports_dropped_on_first_page_only() {
        let t = with_small_bgp_ring(8);
        let rec = t.recorder("bgp");
        t.set_sampling(1);
        for _ in 0..12 {
            let ctx = t.sample().unwrap();
            rec.instant(ctx, "bgp_in");
        }
        let a = t.drain("bgp", 5);
        assert_eq!((a.spans.len(), a.remaining, a.dropped), (5, 3, 4));
        let b = t.drain("bgp", 5);
        assert_eq!((b.spans.len(), b.remaining, b.dropped), (3, 0, 0));
        assert!(t.drain("bgp", 5).spans.is_empty());
        assert_eq!(t.drain("nope", 5).remaining, 0);
    }

    #[test]
    fn ambient_context_scopes_and_restores() {
        let outer = TraceContext {
            trace_id: 1,
            parent_span: 2,
        };
        let inner = TraceContext {
            trace_id: 3,
            parent_span: 4,
        };
        assert_eq!(current(), None);
        let prev = set_current(Some(outer));
        assert_eq!(prev, None);
        let prev2 = set_current(Some(inner));
        assert_eq!(prev2, Some(outer));
        set_current(prev2);
        assert_eq!(current(), Some(outer));
        set_current(prev);
        assert_eq!(current(), None);
    }

    #[test]
    fn clones_share_rings_and_span_ids_stay_unique() {
        let t = Tracer::new();
        let u = t.clone();
        t.set_sampling(1);
        let ctx = u.sample().unwrap();
        u.recorder("bgp").instant(ctx, "bgp_in");
        t.recorder("rib").instant(ctx, "rib");
        let ids: Vec<u32> = ["bgp", "rib"]
            .iter()
            .flat_map(|p| t.snapshot(p).0)
            .map(|s| s.span_id)
            .collect();
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
        // Unknown processes read empty rather than erroring.
        assert_eq!(u.drain("nope", 5).remaining, 0);
    }
}
