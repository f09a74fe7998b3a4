//! The profiling mechanism of §8.2.
//!
//! "XORP contains a simple profiling mechanism which permits the insertion
//! of profiling points anywhere in the code.  Each profiling point is
//! associated with a profiling variable ... Enabling a profiling point
//! causes a time stamped record to be stored, such as:
//! `route_ribin 1097173928 664085 add 10.0.1.0/24`."
//!
//! A [`Profiler`] is shared (cheaply clonable) across the router's
//! processes so the harness can correlate one route's timestamps across BGP,
//! the RIB, the FEA and the kernel boundary.  Every timestamp, here and in
//! [`tracing`]'s spans, comes from one process-wide clock ([`now_ns`]), so
//! cross-thread differences are meaningful.
//!
//! The cross-process [`tracing`] spans are the same mechanism: both
//! recorders store into the one bounded [`ring`], drained in pages by one
//! [`Drained`] contract.  Two properties matter in production, where the
//! paper's external `xorp_profiler` program may leave points enabled
//! indefinitely:
//!
//! * **bounded memory** — each point stores its records in a ring of
//!   [`RING_CAPACITY`]; once full, the oldest record is dropped and
//!   counted, and the drop count is surfaced next to the records so a
//!   reader knows the window is partial;
//! * **cheap when dormant** — a [`PointHandle`] obtained once via
//!   [`Profiler::point`] holds its point, so a disabled stamp costs one
//!   relaxed load, with no clock read and no lock; an enabled one takes
//!   only its own point's ring lock.
//!
//! The standard route-flow profiling points of §8.2 are provided as
//! constants; the figure-regeneration binaries enable exactly those.
//! Scalar runtime state (queue depths, shed counters, restart budgets)
//! lives in the companion [`metrics`] registry rather than as timestamped
//! records.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;

pub mod metrics;
pub mod ring;
pub mod tracing;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricSample, MetricValue, Metrics,
};
use ring::Ring;
pub use ring::{Drained, RING_CAPACITY};
pub use tracing::{Span, SpanRecorder, TraceContext, Tracer};

/// The eight §8.2 route-flow profiling points, in pipeline order.
pub mod points {
    /// 1. Entering BGP.
    pub const BGP_IN: &str = "route_bgpin";
    /// 2. Queued for transmission to the RIB.
    pub const QUEUED_FOR_RIB: &str = "route_queued_rib";
    /// 3. Sent to the RIB.
    pub const SENT_TO_RIB: &str = "route_sent_rib";
    /// 4. Arriving at the RIB.
    pub const RIB_IN: &str = "route_ribin";
    /// 5. Queued for transmission to the FEA.
    pub const QUEUED_FOR_FEA: &str = "route_queued_fea";
    /// 6. Sent to the FEA.
    pub const SENT_TO_FEA: &str = "route_sent_fea";
    /// 7. Arriving at the FEA.
    pub const FEA_IN: &str = "route_feain";
    /// 8. Entering the kernel (forwarding engine).
    pub const KERNEL: &str = "route_kernel";

    /// All eight, in order.
    pub const ROUTE_FLOW: [&str; 8] = [
        BGP_IN,
        QUEUED_FOR_RIB,
        SENT_TO_RIB,
        RIB_IN,
        QUEUED_FOR_FEA,
        SENT_TO_FEA,
        FEA_IN,
        KERNEL,
    ];
}

/// One timestamped record at a profiling point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Nanoseconds since the process-wide epoch ([`now_ns`]).
    pub nanos: u64,
    /// Free-form payload, conventionally `"<op> <prefix>"`.
    pub payload: String,
}

fn epoch() -> &'static (Instant, u64) {
    static EPOCH: OnceLock<(Instant, u64)> = OnceLock::new();
    EPOCH.get_or_init(|| {
        let wall_us = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_micros() as u64);
        (Instant::now(), wall_us)
    })
}

/// The one clock every record and span is stamped with: nanoseconds since
/// a process-wide epoch, so stamps from any thread, point or span compare
/// directly.
pub fn now_ns() -> u64 {
    epoch().0.elapsed().as_nanos() as u64
}

/// Wall-clock microseconds since the Unix epoch at the [`now_ns`] stamp
/// `ns` — for human-readable reports, without a second clock read.
pub fn wall_us(ns: u64) -> u64 {
    epoch().1 + ns / 1_000
}

/// A profiling variable: its enable flag and its ring of records.
struct Point {
    /// The only thing a dormant stamp reads.
    enabled: AtomicBool,
    records: Ring<Record>,
}

/// A set of profiling variables shared across router processes.
#[derive(Clone, Default)]
pub struct Profiler {
    points: Arc<Mutex<HashMap<String, Arc<Point>>>>,
}

/// Cheap per-point stamping handle (see [`Profiler::point`]): it holds the
/// point itself, so a stamp never takes the profiler's lock or looks up a
/// name.
///
/// The hot-path contract: when the point is disabled, [`PointHandle::record`]
/// performs exactly one relaxed atomic load — no clock read, no payload
/// formatting, no lock.
#[derive(Clone)]
pub struct PointHandle {
    point: Arc<Point>,
}

impl PointHandle {
    /// Store a record if the point is enabled; a no-op costing one relaxed
    /// load otherwise.  The stamp is read under the point's ring lock, so
    /// a point's records are monotone even with concurrent stampers.
    #[inline]
    pub fn record(&self, payload: impl FnOnce() -> String) {
        if !self.point.enabled.load(Ordering::Relaxed) {
            return;
        }
        let payload = payload();
        self.point.records.push_with(|| Record {
            nanos: now_ns(),
            payload,
        });
    }

    /// Whether the point is currently enabled.
    pub fn is_enabled(&self) -> bool {
        self.point.enabled.load(Ordering::Relaxed)
    }
}

/// One row of [`Profiler::list`]: a point's enablement and buffer state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointInfo {
    pub name: String,
    pub enabled: bool,
    /// Records currently buffered.
    pub len: usize,
    /// Records evicted at the ring cap since the last drain.
    pub dropped: u64,
}

impl Profiler {
    /// A fresh profiler with all points disabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// `point`, created disabled if it does not exist.
    fn entry(&self, point: &str) -> Arc<Point> {
        self.points
            .lock()
            .entry(point.to_string())
            .or_insert_with(|| {
                Arc::new(Point {
                    enabled: AtomicBool::new(false),
                    records: Ring::new(RING_CAPACITY),
                })
            })
            .clone()
    }

    fn find(&self, point: &str) -> Option<Arc<Point>> {
        self.points.lock().get(point).cloned()
    }

    /// A stamping handle for `point` (creating the point, disabled, if it
    /// does not exist).  Obtain once per site, then stamp through it.
    pub fn point(&self, point: &str) -> PointHandle {
        PointHandle {
            point: self.entry(point),
        }
    }

    /// Enable a profiling variable (records start being stored).
    /// This is what the external `xorp_profiler` program does via XRLs.
    pub fn enable(&self, point: &str) {
        self.entry(point).enabled.store(true, Ordering::Relaxed);
    }

    /// Disable a profiling variable; existing records are retained.
    pub fn disable(&self, point: &str) {
        if let Some(p) = self.find(point) {
            p.enabled.store(false, Ordering::Relaxed);
        }
    }

    /// Enable all eight §8.2 route-flow points.
    pub fn enable_route_flow(&self) {
        for p in points::ROUTE_FLOW {
            self.enable(p);
        }
    }

    /// True if the point is currently enabled.
    pub fn is_enabled(&self, point: &str) -> bool {
        self.find(point)
            .is_some_and(|p| p.enabled.load(Ordering::Relaxed))
    }

    /// Take (and clear) the records stored at `point`.
    pub fn take(&self, point: &str) -> Vec<Record> {
        self.drain(point, usize::MAX).items
    }

    /// Remove and return up to `max` of the oldest records at `point` —
    /// the bounded page behind `profile/1.0/get_records`.  Unknown points
    /// drain empty.
    pub fn drain(&self, point: &str, max: usize) -> Drained<Record> {
        self.find(point)
            .map_or_else(Drained::default, |p| p.records.drain(max))
    }

    /// Snapshot the records stored at `point` without clearing.
    pub fn snapshot(&self, point: &str) -> Vec<Record> {
        self.find(point)
            .map_or_else(Vec::new, |p| p.records.snapshot().0)
    }

    /// Every known point with its enablement and buffer state, sorted by
    /// name (the `profile/1.0/list` reply).
    pub fn list(&self) -> Vec<PointInfo> {
        let mut out: Vec<PointInfo> = self
            .points
            .lock()
            .iter()
            .map(|(name, p)| {
                let (len, dropped) = p.records.len_and_dropped();
                PointInfo {
                    name: name.clone(),
                    enabled: p.enabled.load(Ordering::Relaxed),
                    len,
                    dropped,
                }
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Clear all records everywhere (points stay enabled; drop counters
    /// reset).
    pub fn clear(&self) {
        for p in self.points.lock().values() {
            p.records.clear();
        }
    }
}

/// Latency statistics over a set of samples, as reported in the paper's
/// Figure 10–12 tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Sample count.
    pub n: usize,
    /// Mean, milliseconds.
    pub avg_ms: f64,
    /// Standard deviation, milliseconds.
    pub sd_ms: f64,
    /// Minimum, milliseconds.
    pub min_ms: f64,
    /// Maximum, milliseconds.
    pub max_ms: f64,
}

impl LatencyStats {
    /// Compute stats from nanosecond samples.
    pub fn from_nanos(samples: &[u64]) -> Option<LatencyStats> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len();
        let ms: Vec<f64> = samples.iter().map(|&x| x as f64 / 1e6).collect();
        let avg = ms.iter().sum::<f64>() / n as f64;
        let var = ms.iter().map(|x| (x - avg) * (x - avg)).sum::<f64>() / n as f64;
        let min = ms.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Some(LatencyStats {
            n,
            avg_ms: avg,
            sd_ms: var.sqrt(),
            min_ms: min,
            max_ms: max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_points_record_nothing() {
        let p = Profiler::new();
        p.point("x").record(|| "payload".into());
        assert!(p.take("x").is_empty());
    }

    #[test]
    fn enabled_points_record() {
        let p = Profiler::new();
        let h = p.point("x");
        p.enable("x");
        h.record(|| "add 10.0.1.0/24".into());
        h.record(|| "del 10.0.1.0/24".into());
        let recs = p.snapshot("x");
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].payload, "add 10.0.1.0/24");
        assert!(recs[0].nanos <= recs[1].nanos);
        // take() clears.
        assert_eq!(p.take("x").len(), 2);
        assert!(p.take("x").is_empty());
    }

    #[test]
    fn disable_stops_recording_keeps_records() {
        let p = Profiler::new();
        let h = p.point("x");
        p.enable("x");
        h.record(|| "a".into());
        p.disable("x");
        h.record(|| "b".into());
        assert_eq!(p.snapshot("x").len(), 1);
        assert!(!p.is_enabled("x"));
    }

    #[test]
    fn route_flow_points_enable() {
        let p = Profiler::new();
        p.enable_route_flow();
        for pt in points::ROUTE_FLOW {
            assert!(p.is_enabled(pt));
        }
    }

    #[test]
    fn clones_share_state() {
        let p = Profiler::new();
        let q = p.clone();
        p.enable("x");
        q.point("x").record(|| "via clone".into());
        assert_eq!(p.snapshot("x").len(), 1);
        // Unknown points read empty rather than erroring.
        assert_eq!(p.drain("nope", 4), Drained::default());
    }

    #[test]
    fn handles_record_and_follow_enablement() {
        let p = Profiler::new();
        let h = p.point("x");
        h.record(|| "dormant".into());
        assert!(p.snapshot("x").is_empty());
        p.enable("x");
        assert!(h.is_enabled());
        h.record(|| "live".into());
        assert_eq!(p.snapshot("x").len(), 1);
        p.disable("x");
        h.record(|| "dormant again".into());
        assert_eq!(p.snapshot("x").len(), 1);
    }

    /// The hot-path contract, proven structurally: a dormant handle stamp
    /// must take neither the profiler's lock nor its point's ring lock.
    /// The test *holds* both while stamping — if the dormant path tried to
    /// lock, this would deadlock (parking_lot mutexes are not reentrant).
    #[test]
    fn dormant_handle_never_touches_the_lock() {
        let p = Profiler::new();
        let h = p.point("hot");
        let _points = p.points.lock();
        let _ring = h.point.records.hold();
        for _ in 0..1000 {
            h.record(|| unreachable!("dormant point evaluated its payload"));
        }
        // Still alive: no lock acquisition happened.
    }

    /// Benchmark assertion for the dormant path: a stamp through a handle
    /// is a single relaxed load, so even a debug build does millions per
    /// second.  The bound is deliberately loose (100 ns/op) — it exists
    /// to catch a reintroduced lock or clock read (~20-100x slower), not
    /// to measure the load.
    #[test]
    fn dormant_handle_benchmark() {
        let p = Profiler::new();
        let h = p.point("hot");
        const N: u32 = 1_000_000;
        let start = Instant::now();
        for _ in 0..N {
            h.record(|| unreachable!("dormant point evaluated its payload"));
        }
        let elapsed = start.elapsed();
        let per_op = elapsed.as_nanos() / N as u128;
        assert!(
            per_op < 100,
            "dormant stamp took {per_op} ns/op ({elapsed:?} for {N}) — \
             did the fast path regain a lock or clock read?"
        );

        // For contrast (printed with --nocapture): the enabled path pays
        // the payload, the clock, and the point's lock.
        p.enable("hot");
        let start = Instant::now();
        for i in 0..N {
            h.record(|| format!("add 10.{}.{}.0/24", i >> 8 & 0xff, i & 0xff));
        }
        let enabled_per_op = start.elapsed().as_nanos() / N as u128;
        eprintln!("stamp cost: dormant {per_op} ns/op, enabled {enabled_per_op} ns/op");
    }

    /// A profiler whose enabled point "x" has a ring of `capacity`.
    fn with_small_point(capacity: usize) -> Profiler {
        let p = Profiler::new();
        p.points.lock().insert(
            "x".to_string(),
            Arc::new(Point {
                enabled: AtomicBool::new(true),
                records: Ring::new(capacity),
            }),
        );
        p
    }

    /// Regression for the unbounded-`Vec` bug: flooding a point far past
    /// its capacity must cap the buffer at exactly the capacity, keep the
    /// *newest* records, and count every eviction.
    #[test]
    fn flood_past_cap_is_bounded_with_accurate_drop_counter() {
        let p = with_small_point(100);
        let h = p.point("x");
        for i in 0..1000 {
            h.record(|| format!("r{i}"));
        }
        let recs = p.snapshot("x");
        assert_eq!(recs.len(), 100, "ring must cap at capacity");
        // The survivors are the newest 100, in order.
        assert_eq!(recs[0].payload, "r900");
        assert_eq!(recs[99].payload, "r999");
        let info = &p.list()[0];
        assert_eq!((info.len, info.dropped), (100, 900));
        // A full drain surfaces and then resets the counter.
        let d = p.drain("x", 1000);
        assert_eq!((d.items.len(), d.remaining, d.dropped), (100, 0, 900));
        assert_eq!(p.list()[0].dropped, 0);
    }

    #[test]
    fn drain_paginates_oldest_first() {
        let p = Profiler::new();
        let h = p.point("x");
        p.enable("x");
        for i in 0..10 {
            h.record(|| format!("r{i}"));
        }
        let a = p.drain("x", 4);
        assert_eq!(a.items[0].payload, "r0");
        assert_eq!((a.items.len(), a.remaining), (4, 6));
        let b = p.drain("x", 4);
        assert_eq!(b.items[0].payload, "r4");
        assert_eq!((b.items.len(), b.remaining), (4, 2));
        let c = p.drain("x", 4);
        assert_eq!((c.items.len(), c.remaining), (2, 0));
        assert!(p.drain("x", 4).items.is_empty());
        // Unknown points drain empty rather than erroring.
        assert_eq!(p.drain("nope", 4).remaining, 0);
    }

    /// Pagination edge: a slice that lands exactly on the ring boundary
    /// must report `remaining == 0` on that slice — a reader paginating
    /// "until remaining is 0" never fetches a spurious empty page.
    #[test]
    fn drain_slice_on_ring_boundary_reports_remaining_zero() {
        let p = Profiler::new();
        let h = p.point("x");
        p.enable("x");
        for i in 0..8 {
            h.record(|| format!("r{i}"));
        }
        let a = p.drain("x", 4);
        assert_eq!((a.items.len(), a.remaining), (4, 4));
        let b = p.drain("x", 4);
        assert_eq!(
            (b.items.len(), b.remaining),
            (4, 0),
            "exact-boundary slice must close the pagination"
        );
    }

    /// `dropped` is a delta, reported on the first page of a paginated
    /// read only: a reader summing `dropped` across pages must count each
    /// eviction exactly once, even when later slices leave records behind.
    #[test]
    fn drain_reports_dropped_on_first_page_only() {
        let p = with_small_point(10);
        let h = p.point("x");
        for i in 0..25 {
            h.record(|| format!("r{i}"));
        }
        let a = p.drain("x", 4);
        assert_eq!((a.items.len(), a.remaining, a.dropped), (4, 6, 15));
        let b = p.drain("x", 4);
        assert_eq!(
            (b.items.len(), b.remaining, b.dropped),
            (4, 2, 0),
            "later pages must not re-report the first page's drop count"
        );
        // New evictions after the read surface on the next first page.
        for i in 0..13 {
            h.record(|| format!("s{i}"));
        }
        let c = p.drain("x", 100);
        assert_eq!((c.remaining, c.dropped), (0, 5));
    }

    /// Four threads flood one point past its ring: it stays at capacity,
    /// counts every eviction, and its stamps stay monotone (each is read
    /// under the ring's lock).
    #[test]
    fn concurrent_handle_stamps_stay_monotone_and_bounded() {
        const PER_THREAD: usize = RING_CAPACITY / 2;
        let p = Profiler::new();
        p.enable("x");
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = p.point("x");
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        h.record(|| format!("t{t} r{i}"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let info = &p.list()[0];
        assert_eq!(
            (info.len, info.dropped),
            (RING_CAPACITY, (4 * PER_THREAD - RING_CAPACITY) as u64)
        );
        let recs = p.snapshot("x");
        assert!(
            recs.windows(2).all(|w| w[0].nanos <= w[1].nanos),
            "records within a point must be monotone"
        );
    }

    #[test]
    fn latency_stats() {
        // 1 ms, 2 ms, 3 ms.
        let s = LatencyStats::from_nanos(&[1_000_000, 2_000_000, 3_000_000]).unwrap();
        assert_eq!(s.n, 3);
        assert!((s.avg_ms - 2.0).abs() < 1e-9);
        assert!((s.min_ms - 1.0).abs() < 1e-9);
        assert!((s.max_ms - 3.0).abs() < 1e-9);
        assert!((s.sd_ms - (2.0f64 / 3.0).sqrt()).abs() < 1e-9);
        assert!(LatencyStats::from_nanos(&[]).is_none());
    }
}
