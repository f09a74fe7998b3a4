//! The crash flight recorder.
//!
//! When the supervisor classifies a crash (a restart is scheduled) or
//! escalates a component to `Degraded`, the component's event loop is
//! gone — but the shared [`Tracer`] and [`Metrics`] registries outlive
//! it.  A [`FlightReport`] snapshots what the dead process was doing at
//! the moment of classification: its last recorded spans and its scoped
//! metrics, i.e. a post-mortem without a core dump.
//!
//! The report is data-first (plain fields) so tests and operators'
//! tooling can inspect it; [`FlightReport::render`] is the human view.

use xorp_profiler::tracing::{Span, Tracer};
use xorp_profiler::{now_ns, wall_us, MetricSample, Metrics};

/// A post-mortem snapshot of one component at crash classification.
#[derive(Clone, Debug)]
pub struct FlightReport {
    /// The dead component ("bgp").
    pub process: String,
    /// Why the snapshot was taken ("crash classified, restart scheduled"
    /// / "restart budget spent, degraded").
    pub reason: String,
    /// Wall-clock microseconds since the Unix epoch at capture.
    pub at_wall_us: u64,
    /// The component's span ring at capture — the last sampled work it
    /// performed, newest last.
    pub spans: Vec<Span>,
    /// Spans the ring evicted before capture (how much history is lost).
    pub spans_dropped: u64,
    /// The component's scoped metrics (`<process>.`-prefixed), rendered.
    pub metrics: Vec<MetricSample>,
}

impl FlightReport {
    /// Snapshot `process` out of the shared registries.
    pub fn capture(
        process: &str,
        reason: &str,
        tracer: &Tracer,
        metrics: &Metrics,
    ) -> FlightReport {
        let prefix = format!("{process}.");
        let (spans, spans_dropped) = tracer.snapshot(process);
        FlightReport {
            process: process.to_string(),
            reason: reason.to_string(),
            at_wall_us: wall_us(now_ns()),
            spans,
            spans_dropped,
            metrics: metrics
                .snapshot()
                .into_iter()
                .filter(|s| s.name.starts_with(&prefix))
                .collect(),
        }
    }

    /// The human-readable post-mortem.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "==== flight report: {} ({}) at t={}us ====",
            self.process, self.reason, self.at_wall_us
        );
        let _ = writeln!(
            out,
            "last {} span(s) ({} older evicted):",
            self.spans.len(),
            self.spans_dropped
        );
        for s in &self.spans {
            let _ = writeln!(
                out,
                "  trace={:016x} span={} parent={} {:12} {}..{}ns link={:016x}",
                s.trace_id, s.span_id, s.parent_span, s.point, s.start_ns, s.end_ns, s.link
            );
        }
        let _ = writeln!(out, "metrics ({}):", self.metrics.len());
        for m in &self.metrics {
            let _ = writeln!(out, "  {:40} {}", m.name, m.value.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xorp_profiler::tracing::TraceContext;

    #[test]
    fn capture_snapshots_spans_and_scoped_metrics() {
        let tracer = Tracer::new();
        let metrics = Metrics::new();
        metrics.scoped("bgp").counter("updates_in").add(7);
        metrics.scoped("rib").counter("routes").add(3);

        let ctx = TraceContext {
            trace_id: 0xFEED,
            parent_span: 0,
        };
        let bgp = tracer.recorder("bgp");
        bgp.finish(bgp.begin(ctx, "bgp_in"));

        let report = FlightReport::capture("bgp", "crash classified", &tracer, &metrics);
        assert_eq!(report.process, "bgp");
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].point, "bgp_in");
        assert_eq!(report.spans[0].trace_id, 0xFEED);
        // Only the dead process's scoped metrics appear.
        assert_eq!(report.metrics.len(), 1);
        assert_eq!(report.metrics[0].name, "bgp.updates_in");

        let text = report.render();
        assert!(text.contains("flight report: bgp"));
        assert!(text.contains("bgp_in"));
        assert!(text.contains("bgp.updates_in"));
    }

    #[test]
    fn capture_of_unknown_process_is_empty_not_a_panic() {
        let tracer = Tracer::new();
        let metrics = Metrics::new();
        let report = FlightReport::capture("fea", "degraded", &tracer, &metrics);
        assert!(report.spans.is_empty());
        assert_eq!(report.spans_dropped, 0);
        assert!(report.metrics.is_empty());
        assert!(report.render().contains("flight report: fea"));
    }
}
