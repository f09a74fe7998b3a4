//! End-to-end cross-process tracing tests: sampled UPDATEs root causal
//! traces whose contexts ride the XRL wire BGP → RIB → FEA, and the
//! supervisor's flight recorder snapshots a crashed process's spans and
//! metrics out of the shared registries.

use std::collections::BTreeSet;
use std::time::Duration;

use xorp_harness::router::{MultiProcessRouter, RouterOptions};
use xorp_harness::stats::{covered_hops, end_to_end_ns, stitch_spans};
use xorp_harness::workload::{backbone_table, WorkloadConfig};
use xorp_profiler::tracing::Span;
use xorp_profiler::MetricValue;
use xorp_rtrmgr::SupervisorConfig;
use xorp_xrl::QueuePolicy;

/// The tentpole chain: a sampled UPDATE's trace must cover every hop
/// from BGP ingress to FEA install, with monotone parent/child stamps.
#[test]
fn sampled_update_traces_cover_the_full_chain() {
    let router = MultiProcessRouter::new(RouterOptions {
        batch_size: 8,
        ..Default::default()
    });
    router.tracer.set_sampling(1);

    let routes = 128;
    let table = backbone_table(&WorkloadConfig {
        routes,
        ..Default::default()
    });
    for chunk in table.chunks(16) {
        router.feed_backbone(1, chunk);
    }
    assert!(
        router.wait_for(Duration::from_secs(60), || {
            router.fea_route_count() >= routes
        }),
        "workload never converged: fea={}",
        router.fea_route_count()
    );

    // Read the shared rings directly (the XRL path is covered by
    // xorp-stats/fig-trace); snapshot is non-destructive.
    let mut all: Vec<Span> = Vec::new();
    for p in ["bgp", "rib", "fea"] {
        all.extend(router.tracer.snapshot(p).0);
    }
    let views = stitch_spans(all);
    let roots: Vec<u64> = views
        .iter()
        .filter(|v| v.is_root())
        .map(|v| v.trace_id)
        .collect();
    assert!(!roots.is_empty(), "sampling on but no rooted trace");

    let full_chain: BTreeSet<String> = ["bgp_in", "fanout", "batch", "rib", "fea"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let complete = roots
        .iter()
        .filter(|id| covered_hops(&views, **id).is_superset(&full_chain))
        .count();
    assert!(
        complete >= 1,
        "no trace covered the full chain; hops seen: {:?}",
        roots
            .iter()
            .map(|id| covered_hops(&views, *id))
            .collect::<Vec<_>>()
    );

    // End-to-end latency is measurable for at least one complete trace.
    assert!(
        roots.iter().any(|id| end_to_end_ns(&views, *id).is_some()),
        "no end-to-end latency measurable"
    );

    // Monotone nesting: a child span never starts before its parent
    // (all stamps share the tracer's epoch across threads).
    for v in &views {
        for s in &v.spans {
            if s.parent_span == 0 {
                continue;
            }
            if let Some(parent) = v.spans.iter().find(|p| p.span_id == s.parent_span) {
                assert!(
                    s.start_ns >= parent.start_ns,
                    "span {} ({}) starts before its parent {} ({})",
                    s.span_id,
                    s.point,
                    parent.span_id,
                    parent.point
                );
            }
        }
    }

    router.stop();
}

/// Backpressure must not cost a route its trace.  With watermarks this
/// tight both lanes are in Xoff most of the time, so nearly every route
/// waits in the fanout queue and again in the RIB's redistribution
/// backlog; each of those parks it with its context, and every sampled
/// UPDATE's trace still ends at the FEA.
#[test]
fn traces_survive_congested_lanes() {
    let router = MultiProcessRouter::new(RouterOptions {
        overload: QueuePolicy {
            high_watermark: 4,
            low_watermark: 1,
            hard_cap: 4096,
        },
        ..Default::default()
    });
    router.tracer.set_sampling(1);

    // One route per UPDATE: a trace has no sibling route to reach the
    // FEA in its place.
    let routes = 512;
    let table = backbone_table(&WorkloadConfig {
        routes,
        ..Default::default()
    });
    for chunk in table.chunks(1) {
        router.feed_backbone(1, chunk);
    }
    assert!(
        router.wait_for(Duration::from_secs(60), || {
            router.fea_route_count() == routes + 1
        }),
        "workload never converged: fea={}",
        router.fea_route_count()
    );
    for lane in ["bgp.xrl.xoff_total", "rib.xrl.xoff_total"] {
        match router.metrics.get(lane) {
            Some(MetricValue::Counter(n)) => assert!(n > 0, "{lane}: lane never congested"),
            other => panic!("{lane}: {other:?}"),
        }
    }

    let mut all: Vec<Span> = Vec::new();
    for p in ["bgp", "rib", "fea"] {
        all.extend(router.tracer.snapshot(p).0);
    }
    let views = stitch_spans(all);
    let roots: Vec<u64> = views
        .iter()
        .filter(|v| v.is_root())
        .map(|v| v.trace_id)
        .collect();
    assert_eq!(roots.len(), routes, "one trace per UPDATE");
    for id in roots {
        let hops = covered_hops(&views, id);
        assert!(hops.contains("fea"), "trace {id} stopped at {hops:?}");
    }
    router.stop();
}

/// Crash classification triggers the flight recorder: the dead BGP
/// process's last spans and scoped metrics are snapshotted out of the
/// shared registries, post-mortem.
#[test]
fn flight_recorder_snapshots_crashed_bgp() {
    let mut router = MultiProcessRouter::new(RouterOptions {
        supervision: Some(SupervisorConfig {
            keepalive_interval: Duration::from_millis(40),
            miss_threshold: 3,
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_millis(800),
            restart_budget: 5,
            grace_period: Duration::from_secs(3),
            overload_budget: Duration::from_secs(30),
        }),
        ..Default::default()
    });
    router.tracer.set_sampling(1);

    router.announce_one(
        1,
        "10.1.0.0/16".parse().unwrap(),
        "192.168.1.1".parse().unwrap(),
    );
    assert!(
        router.wait_for(Duration::from_secs(10), || router.fea_route_count() >= 2),
        "initial convergence failed: fea={}",
        router.fea_route_count()
    );
    assert!(router.flight_reports().is_empty(), "no crash yet");

    router.kill_bgp();
    assert!(
        router.wait_for(Duration::from_secs(10), || {
            !router.flight_reports().is_empty()
        }),
        "crash classification never produced a flight report"
    );

    let reports = router.flight_reports();
    let report = &reports[0];
    assert_eq!(report.process, "bgp");
    assert!(
        report.reason.contains("crash classified"),
        "unexpected reason: {}",
        report.reason
    );
    // The dead process's ring survived it: the sampled UPDATE's ingress
    // span is in the post-mortem.
    assert!(
        report.spans.iter().any(|s| s.point == "bgp_in"),
        "flight report lost the ingress span: {:?}",
        report.spans.iter().map(|s| &s.point).collect::<Vec<_>>()
    );
    // Scoped metrics only.
    assert!(!report.metrics.is_empty(), "no metrics captured");
    assert!(report.metrics.iter().all(|m| m.name.starts_with("bgp.")));
    // The human rendering carries the essentials.
    let text = report.render();
    assert!(text.contains("flight report: bgp"));
    assert!(text.contains("bgp_in"));

    router.stop();
}
