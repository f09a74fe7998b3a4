//! Report formatting: the paper-style latency tables of Figures 10–12,
//! plus the `xorp-stats` metrics and profiling-point tables, rate
//! derivation between metric snapshots, and cross-process trace
//! stitching (spans → causal trees → per-hop/total latency).  Also the
//! external observer's read path: one blocking `profile/1.0` call
//! ([`call`]) and one read of a paginated ring to its end
//! ([`drain_pages`]).

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use std::time::{Duration, Instant};

use xorp_event::EventLoop;
use xorp_profiler::tracing::Span;
use xorp_profiler::{points, Drained, LatencyStats, PointInfo, Profiler, Record};
use xorp_xrl::profile::{MetricRow, PageReply};
use xorp_xrl::{WireList, XrlError};

/// The reply callback a generated client stub takes, boxed.
pub type Reply<T> = Box<dyn FnOnce(&mut EventLoop, Result<T, XrlError>)>;

/// Make one XRL call with `send` and spin the observer's loop until its
/// reply lands.  Panics naming `what` if the call fails or takes over
/// 10 s.
pub fn call<T: 'static>(
    el: &mut EventLoop,
    what: &str,
    send: impl FnOnce(&mut EventLoop, Reply<T>),
) -> T {
    let slot: Rc<RefCell<Option<Result<T, XrlError>>>> = Rc::default();
    let s = slot.clone();
    send(
        el,
        Box::new(move |_el, reply| *s.borrow_mut() = Some(reply)),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(res) = slot.borrow_mut().take() {
            return res.unwrap_or_else(|e| panic!("{what} failed: {e}"));
        }
        if Instant::now() > deadline {
            panic!("{what} timed out");
        }
        if !el.run_one() {
            el.run_for(Duration::from_millis(1));
        }
    }
}

/// Read a clearing `get_records`/`get_spans` stream to its end: `fetch`
/// asks for a page of at most `max` rows, until a page reports
/// `remaining == 0`.  Returns every item, oldest first, with the
/// evictions the pages reported.
#[allow(clippy::type_complexity)]
pub fn drain_pages<T>(
    el: &mut EventLoop,
    what: &str,
    max: u32,
    mut fetch: impl FnMut(&mut EventLoop, u32, Reply<PageReply>),
    decode: fn(&WireList, u32, u64) -> Result<Drained<T>, XrlError>,
) -> Drained<T> {
    let mut all = Drained::default();
    loop {
        let (rows, remaining, dropped) = call(el, what, |el, done| fetch(el, max, done));
        let page =
            decode(&rows, remaining, dropped).unwrap_or_else(|e| panic!("{what}: bad reply: {e}"));
        assert!(
            page.items.len() <= max as usize,
            "{what}: page overflowed max"
        );
        all.items.extend(page.items);
        all.dropped += page.dropped;
        if page.remaining == 0 {
            return all;
        }
    }
}

/// One row of the Figure 10–12 tables.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Profiling-point label (paper wording).
    pub label: &'static str,
    /// Stats relative to "Entering BGP", or `None` for the reference row.
    pub stats: Option<LatencyStats>,
}

/// Paper labels for the eight points, in pipeline order.
pub const POINT_LABELS: [(&str, &str); 8] = [
    (points::BGP_IN, "Entering BGP"),
    (points::QUEUED_FOR_RIB, "Queued for transmission to the RIB"),
    (points::SENT_TO_RIB, "Sent to RIB"),
    (points::RIB_IN, "Arriving at the RIB"),
    (points::QUEUED_FOR_FEA, "Queued for transmission to the FEA"),
    (points::SENT_TO_FEA, "Sent to the FEA"),
    (points::FEA_IN, "Arriving at FEA"),
    (points::KERNEL, "Entering kernel"),
];

/// Extract, for each payload key (e.g. `"add 10.0.1.0/24"`), the first
/// record timestamp at each profiling point, keeping only keys observed at
/// the reference point.
fn per_key_timestamps(profiler: &Profiler) -> HashMap<String, [Option<u64>; 8]> {
    let mut map: HashMap<String, [Option<u64>; 8]> = HashMap::new();
    for (idx, (point, _)) in POINT_LABELS.iter().enumerate() {
        for Record { nanos, payload } in profiler.snapshot(point) {
            let entry = map.entry(payload).or_insert([None; 8]);
            if entry[idx].is_none() {
                entry[idx] = Some(nanos);
            }
        }
    }
    map.retain(|_, stamps| stamps[0].is_some());
    map
}

/// Compute the table rows: per point, latency since "Entering BGP" over
/// all keys matching `filter` (e.g. only `add` records).
pub fn latency_rows(profiler: &Profiler, filter: &str) -> Vec<LatencyRow> {
    let per_key = per_key_timestamps(profiler);
    let mut rows = Vec::new();
    for (idx, (_, label)) in POINT_LABELS.iter().enumerate() {
        if idx == 0 {
            rows.push(LatencyRow { label, stats: None });
            continue;
        }
        let samples: Vec<u64> = per_key
            .iter()
            .filter(|(key, _)| key.starts_with(filter))
            .filter_map(|(_, stamps)| match (stamps[0], stamps[idx]) {
                (Some(t0), Some(t)) if t >= t0 => Some(t - t0),
                _ => None,
            })
            .collect();
        rows.push(LatencyRow {
            label,
            stats: LatencyStats::from_nanos(&samples),
        });
    }
    rows
}

/// Render the rows the way the paper prints them.
pub fn format_latency_table(title: &str, rows: &[LatencyRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<42} {:>8} {:>8} {:>8} {:>8}\n",
        "Profile Point", "Avg", "SD", "Min", "Max"
    ));
    for row in rows {
        match &row.stats {
            None => out.push_str(&format!(
                "{:<42} {:>8} {:>8} {:>8} {:>8}\n",
                row.label, "-", "-", "-", "-"
            )),
            Some(s) => out.push_str(&format!(
                "{:<42} {:>8.3} {:>8.3} {:>8.3} {:>8.3}\n",
                row.label, s.avg_ms, s.sd_ms, s.min_ms, s.max_ms
            )),
        }
    }
    out
}

/// Render a `profile/1.0/get_metrics` reply as an aligned table.
pub fn format_metrics_table(title: &str, rows: &[MetricRow]) -> String {
    format_metrics_table_with_rates(title, rows, None)
}

/// Per-second rates between two successive `get_metrics` snapshots, by
/// metric name.  Counters rate their totals, histograms their sample
/// counts; gauges are levels, not flows, and are skipped.
pub fn metric_rates(prev: &[MetricRow], cur: &[MetricRow], dt: Duration) -> HashMap<String, f64> {
    let secs = dt.as_secs_f64();
    if secs <= 0.0 {
        return HashMap::new();
    }
    let before: HashMap<&str, i64> = prev.iter().map(|m| (m.name.as_str(), m.primary)).collect();
    cur.iter()
        .filter(|m| m.kind != "gauge")
        .filter_map(|m| {
            let delta = m.primary - before.get(m.name.as_str()).copied()?;
            Some((m.name.clone(), delta as f64 / secs))
        })
        .collect()
}

/// [`format_metrics_table`], with a rate-per-second column when a
/// previous snapshot provided one (dash otherwise).
pub fn format_metrics_table_with_rates(
    title: &str,
    rows: &[MetricRow],
    rates: Option<&HashMap<String, f64>>,
) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    match rates {
        None => {
            out.push_str(&format!(
                "{:<36} {:<10} {:>12}  {}\n",
                "Metric", "Kind", "Value", "Detail"
            ));
            for row in rows {
                out.push_str(&format!(
                    "{:<36} {:<10} {:>12}  {}\n",
                    row.name, row.kind, row.primary, row.detail
                ));
            }
        }
        Some(rates) => {
            out.push_str(&format!(
                "{:<36} {:<10} {:>12} {:>10}  {}\n",
                "Metric", "Kind", "Value", "Rate/s", "Detail"
            ));
            for row in rows {
                let rate = match rates.get(&row.name) {
                    Some(r) => format!("{r:.1}"),
                    None => "-".to_string(),
                };
                out.push_str(&format!(
                    "{:<36} {:<10} {:>12} {:>10}  {}\n",
                    row.name, row.kind, row.primary, rate, row.detail
                ));
            }
        }
    }
    out
}

/// Render a `profile/1.0/list` reply as an aligned table.
pub fn format_points_table(title: &str, points: &[PointInfo]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<20} {:>8} {:>10} {:>10}\n",
        "Point", "Enabled", "Buffered", "Dropped"
    ));
    for p in points {
        out.push_str(&format!(
            "{:<20} {:>8} {:>10} {:>10}\n",
            p.name,
            if p.enabled { "yes" } else { "no" },
            p.len,
            p.dropped
        ));
    }
    out
}

// ---- cross-process trace stitching ---------------------------------------

/// All spans of one trace, across processes, sorted by start stamp (every
/// process shares the tracer's epoch, so stamps compare cross-process).
#[derive(Debug, Clone)]
pub struct TraceView {
    pub trace_id: u64,
    pub spans: Vec<Span>,
}

impl TraceView {
    /// Whether this trace owns a root `bgp_in` (or `rip_in`) ingress span
    /// — contributor traces whose frames were coalesced away end in a
    /// `fan_in` stub instead of a full chain.
    pub fn is_root(&self) -> bool {
        self.spans
            .iter()
            .any(|s| s.parent_span == 0 && s.point.ends_with("_in"))
    }
}

/// Group drained spans by `trace_id` into per-trace views, oldest first.
pub fn stitch_spans(spans: Vec<Span>) -> Vec<TraceView> {
    let mut by_trace: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for s in spans {
        by_trace.entry(s.trace_id).or_default().push(s);
    }
    let mut views: Vec<TraceView> = by_trace
        .into_iter()
        .map(|(trace_id, mut spans)| {
            spans.sort_by_key(|s| (s.start_ns, s.span_id));
            TraceView { trace_id, spans }
        })
        .collect();
    views.sort_by_key(|v| v.spans.first().map_or(0, |s| s.start_ns));
    views
}

/// Every span causally downstream of `trace_id`: its own spans plus —
/// transitively, via `fan_in` links — the spans of the carrier traces
/// that transported its coalesced routes.  Sorted by start stamp.
pub fn causal_spans(views: &[TraceView], trace_id: u64) -> Vec<Span> {
    let by_id: HashMap<u64, &TraceView> = views.iter().map(|v| (v.trace_id, v)).collect();
    let mut seen = HashSet::new();
    let mut stack = vec![trace_id];
    let mut out = Vec::new();
    while let Some(id) = stack.pop() {
        if !seen.insert(id) {
            continue;
        }
        if let Some(v) = by_id.get(&id) {
            for s in &v.spans {
                if s.point == "fan_in" && s.link != 0 {
                    stack.push(s.link);
                }
                out.push(s.clone());
            }
        }
    }
    out.sort_by_key(|s| (s.start_ns, s.span_id));
    out
}

/// The hop names `trace_id` covers, fan-in links followed.
pub fn covered_hops(views: &[TraceView], trace_id: u64) -> BTreeSet<String> {
    causal_spans(views, trace_id)
        .into_iter()
        .filter(|s| s.point != "fan_in")
        .map(|s| s.point)
        .collect()
}

/// End-to-end latency of one root trace in nanoseconds: ingress
/// (`bgp_in`/`rip_in`) start to the last `fea` arrival reachable through
/// fan-in links.  `None` until the trace reaches the FEA.
pub fn end_to_end_ns(views: &[TraceView], trace_id: u64) -> Option<u64> {
    let spans = causal_spans(views, trace_id);
    let start = spans
        .iter()
        .filter(|s| s.trace_id == trace_id && s.parent_span == 0 && s.point.ends_with("_in"))
        .map(|s| s.start_ns)
        .min()?;
    let end = spans
        .iter()
        .filter(|s| s.point == "fea")
        .map(|s| s.end_ns)
        .max()?;
    (end >= start).then_some(end - start)
}

/// The q-th percentile (0..=1) of a sample set, by nearest-rank.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize).max(1);
    samples[rank - 1]
}

/// Per-hop duration statistics over a set of stitched spans.
#[derive(Debug, Clone)]
pub struct HopStats {
    pub process: String,
    pub point: String,
    pub n: usize,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
}

/// Aggregate span durations per (process, point) hop.  Point spans
/// (`fanout`, `fea`, `fan_in`) have zero duration and report 0s — their
/// value is their position on the timeline, not their width.
pub fn hop_stats(spans: &[Span]) -> Vec<HopStats> {
    let mut by_hop: BTreeMap<(String, String), Vec<u64>> = BTreeMap::new();
    for s in spans {
        by_hop
            .entry((s.process.to_string(), s.point.clone()))
            .or_default()
            .push(s.end_ns.saturating_sub(s.start_ns));
    }
    by_hop
        .into_iter()
        .map(|((process, point), mut durs)| HopStats {
            n: durs.len(),
            p50_us: percentile(&mut durs, 0.50) as f64 / 1_000.0,
            p90_us: percentile(&mut durs, 0.90) as f64 / 1_000.0,
            p99_us: percentile(&mut durs, 0.99) as f64 / 1_000.0,
            process,
            point,
        })
        .collect()
}

/// Render stitched traces: per-hop percentiles, then the end-to-end
/// distribution over all root traces that reached the FEA.
pub fn format_trace_report(title: &str, views: &[TraceView]) -> String {
    let all: Vec<Span> = views.iter().flat_map(|v| v.spans.iter().cloned()).collect();
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<8} {:<12} {:>6} {:>10} {:>10} {:>10}\n",
        "Process", "Hop", "N", "p50(us)", "p90(us)", "p99(us)"
    ));
    for h in hop_stats(&all) {
        out.push_str(&format!(
            "{:<8} {:<12} {:>6} {:>10.1} {:>10.1} {:>10.1}\n",
            h.process, h.point, h.n, h.p50_us, h.p90_us, h.p99_us
        ));
    }
    let mut e2e: Vec<u64> = views
        .iter()
        .filter(|v| v.is_root())
        .filter_map(|v| end_to_end_ns(views, v.trace_id))
        .collect();
    let complete = e2e.len();
    let roots = views.iter().filter(|v| v.is_root()).count();
    out.push_str(&format!(
        "traces: {} total, {} rooted, {} complete (ingress → FEA)\n",
        views.len(),
        roots,
        complete
    ));
    if !e2e.is_empty() {
        out.push_str(&format!(
            "end-to-end: p50={:.1}us p90={:.1}us p99={:.1}us\n",
            percentile(&mut e2e, 0.50) as f64 / 1_000.0,
            percentile(&mut e2e, 0.90) as f64 / 1_000.0,
            percentile(&mut e2e, 0.99) as f64 / 1_000.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_computed_relative_to_bgp_in() {
        let p = Profiler::new();
        p.enable_route_flow();
        // Synthesize two routes with known offsets by recording in order;
        // timestamps are real but deltas are what we check structurally.
        for net in ["10.0.1.0/24", "10.0.2.0/24"] {
            for (point, _) in POINT_LABELS {
                p.point(point).record(|| format!("add {net}"));
            }
        }
        let rows = latency_rows(&p, "add");
        assert_eq!(rows.len(), 8);
        assert!(rows[0].stats.is_none());
        for row in &rows[1..] {
            let s = row.stats.as_ref().expect(row.label);
            assert_eq!(s.n, 2);
            assert!(s.min_ms >= 0.0);
        }
        // Monotonic pipeline: later points have larger averages.
        let avgs: Vec<f64> = rows[1..]
            .iter()
            .map(|r| r.stats.as_ref().unwrap().avg_ms)
            .collect();
        for w in avgs.windows(2) {
            assert!(w[1] >= w[0], "{avgs:?}");
        }
    }

    #[test]
    fn filter_separates_adds_from_deletes() {
        let p = Profiler::new();
        p.enable_route_flow();
        for (point, _) in POINT_LABELS {
            p.point(point).record(|| "add 10.0.1.0/24".to_string());
        }
        for (point, _) in POINT_LABELS {
            p.point(point).record(|| "del 10.0.1.0/24".to_string());
        }
        let adds = latency_rows(&p, "add");
        let dels = latency_rows(&p, "del");
        assert_eq!(adds[1].stats.as_ref().unwrap().n, 1);
        assert_eq!(dels[1].stats.as_ref().unwrap().n, 1);
    }

    #[test]
    fn table_renders() {
        let p = Profiler::new();
        p.enable_route_flow();
        for (point, _) in POINT_LABELS {
            p.point(point).record(|| "add 10.0.1.0/24".to_string());
        }
        let table = format_latency_table("Figure 10", &latency_rows(&p, "add"));
        assert!(table.contains("Entering kernel"));
        assert!(table.contains("Avg"));
    }

    #[test]
    fn missing_points_yield_none() {
        let p = Profiler::new();
        p.enable(points::BGP_IN);
        p.point(points::BGP_IN)
            .record(|| "add 10.0.1.0/24".to_string());
        let rows = latency_rows(&p, "add");
        assert!(rows[7].stats.is_none());
    }

    fn span(trace: u64, id: u32, parent: u32, process: &str, point: &str, t: u64) -> Span {
        Span {
            trace_id: trace,
            span_id: id,
            parent_span: parent,
            process: process.into(),
            point: point.into(),
            wall_us: t / 1_000,
            start_ns: t,
            end_ns: t + 100,
            link: 0,
        }
    }

    #[test]
    fn stitch_groups_by_trace_and_sorts_by_start() {
        let views = stitch_spans(vec![
            span(2, 5, 0, "bgp", "bgp_in", 900),
            span(1, 2, 1, "rib", "rib", 500),
            span(1, 1, 0, "bgp", "bgp_in", 100),
        ]);
        assert_eq!(views.len(), 2);
        assert_eq!(views[0].trace_id, 1);
        assert_eq!(views[0].spans[0].point, "bgp_in");
        assert!(views[0].is_root());
    }

    #[test]
    fn fan_in_links_carry_contributors_to_the_carrier_chain() {
        // Trace 1 is the carrier: full bgp_in → batch → rib → fea chain.
        // Trace 2 contributed a route to trace 1's frame: its own bgp_in
        // plus a fan_in stub pointing at trace 1.
        let mut fan = span(2, 9, 0, "bgp", "fan_in", 260);
        fan.link = 1;
        let views = stitch_spans(vec![
            span(1, 1, 0, "bgp", "bgp_in", 100),
            span(1, 2, 1, "bgp", "batch", 300),
            span(1, 3, 2, "rib", "rib", 400),
            span(1, 4, 3, "fea", "fea", 600),
            span(2, 8, 0, "bgp", "bgp_in", 250),
            fan,
        ]);
        let hops = covered_hops(&views, 2);
        assert!(hops.contains("fea"), "{hops:?}");
        // e2e for the contributor runs from ITS ingress to the carrier's
        // FEA arrival: 700 (end of fea span) - 250.
        assert_eq!(end_to_end_ns(&views, 2), Some(450));
        // The carrier's own e2e ignores the contributor's ingress.
        assert_eq!(end_to_end_ns(&views, 1), Some(600));
        // An unfinished trace has no e2e yet.
        let partial = stitch_spans(vec![span(3, 1, 0, "bgp", "bgp_in", 0)]);
        assert_eq!(end_to_end_ns(&partial, 3), None);
    }

    #[test]
    fn trace_report_renders_hops_and_percentiles() {
        let views = stitch_spans(vec![
            span(1, 1, 0, "bgp", "bgp_in", 100),
            span(1, 2, 1, "fea", "fea", 700),
        ]);
        let report = format_trace_report("traces", &views);
        assert!(report.contains("bgp_in"));
        assert!(report.contains("1 complete"));
        assert!(report.contains("end-to-end: p50="));
    }

    #[test]
    fn rates_derive_from_successive_snapshots() {
        let row = |name: &str, kind: &str, primary: i64| MetricRow {
            name: name.into(),
            kind: kind.into(),
            primary,
            detail: String::new(),
        };
        let prev = vec![row("a.count", "counter", 100), row("a.depth", "gauge", 5)];
        let cur = vec![
            row("a.count", "counter", 300),
            row("a.depth", "gauge", 9),
            row("a.new", "counter", 7),
        ];
        let rates = metric_rates(&prev, &cur, Duration::from_secs(2));
        assert_eq!(rates.get("a.count"), Some(&100.0));
        assert!(!rates.contains_key("a.depth"), "gauges are levels");
        assert!(!rates.contains_key("a.new"), "no baseline, no rate");
        let table = format_metrics_table_with_rates("m", &cur, Some(&rates));
        assert!(table.contains("Rate/s"));
        assert!(table.contains("100.0"));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s = vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&mut s, 0.50), 50);
        assert_eq!(percentile(&mut s, 0.99), 100);
        assert_eq!(percentile(&mut [], 0.5), 0);
    }
}
