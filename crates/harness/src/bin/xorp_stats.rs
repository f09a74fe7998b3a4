//! `xorp-stats`: the §8.2 external observer as a tool.  Spawns the
//! three-process router, drives a small workload, and then — from its own
//! event loop, over the real XRL transport — polls any process's
//! `profile/1.0` target for its profiling points and the shared metrics
//! registry, printing the tables one-shot or periodically.
//!
//! The observer shares nothing with the observed processes but the
//! Finder: every number printed crossed a socket, exactly as an operator
//! console would see it.
//!
//! Usage: `xorp-stats [--routes N] [--target bgp|rib|fea]
//!                    [--interval-ms N] [--iterations N]
//!                    [--trace-every N] [--check]`
//!
//! With `--iterations > 1`, successive metric snapshots derive a
//! rate-per-second column.  With `--trace-every N`, 1-in-N UPDATEs are
//! trace-sampled; the observer then polls every process's
//! `profile/1.0/get_spans`, stitches the spans by trace id, and prints
//! per-hop and end-to-end latency percentiles.
//!
//! With `--check`, asserts the whole surface end to end: enable over
//! XRL, a stamped route flow with monotone timestamps, bounded
//! `get_records` slices, and the registry serving every process's
//! queue-depth gauges.

use std::time::{Duration, Instant};

use xorp_harness::figargs::flag_value;
use xorp_harness::router::{MultiProcessRouter, RouterOptions};
use xorp_harness::stats::{
    call, drain_pages, format_metrics_table_with_rates, format_points_table, format_trace_report,
    metric_rates, stitch_spans,
};
use xorp_harness::workload::{backbone_table, WorkloadConfig};
use xorp_xrl::profile::profile::Client as ProfileClient;
use xorp_xrl::profile::{
    decode_metrics, decode_points, decode_records, decode_spans, MAX_RECORDS_PER_SLICE,
    ROUTE_FLOW_ALIAS,
};
use xorp_xrl::XrlRouter;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let int = |flag: &str, default: usize| -> usize {
        flag_value(&args, flag)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let routes = int("--routes", 500);
    let interval_ms = int("--interval-ms", 0) as u64;
    let iterations = int("--iterations", if interval_ms > 0 { 3 } else { 1 });
    let trace_every = int("--trace-every", 0) as u64;
    let target = flag_value(&args, "--target").unwrap_or("bgp").to_string();

    // ---- the observed router --------------------------------------------
    let router = MultiProcessRouter::new(RouterOptions::default());
    if trace_every > 0 {
        router.tracer.set_sampling(trace_every);
    }

    // ---- the observer: its own loop, talking typed XRL stubs ------------
    let mut el = xorp_event::EventLoop::new();
    let observer = XrlRouter::new(&mut el, router.finder.clone());
    observer.enable_tcp().unwrap();
    observer.register_target("stats", "stats-0", true).unwrap();
    let client = ProfileClient::new(&observer, &target);

    // Arm the route-flow points over the wire, then drive the workload so
    // there is something to see.
    let (ok,) = call(&mut el, "profile enable", |el, done| {
        client.enable(el, ROUTE_FLOW_ALIAS.to_string(), done)
    });
    assert!(ok, "profile enable rejected the alias");

    let table = backbone_table(&WorkloadConfig {
        routes,
        ..Default::default()
    });
    for batch in table.chunks(64) {
        router.feed_backbone(1, batch);
    }
    assert!(
        router.wait_for(Duration::from_secs(120), || {
            router.fea_route_count() > routes
        }),
        "workload never converged: fea={}",
        router.fea_route_count()
    );

    let mut prev_metrics: Option<(Instant, Vec<xorp_xrl::profile::MetricRow>)> = None;
    for iter in 0..iterations {
        if iter > 0 {
            std::thread::sleep(Duration::from_millis(interval_ms));
        }
        let (rows,) = call(&mut el, "profile list", |el, done| client.list(el, done));
        let points = decode_points(&rows).expect("bad list reply");
        print!(
            "{}",
            format_points_table(
                &format!("[{target}] profiling points (iteration {iter})"),
                &points
            )
        );

        let (rows,) = call(&mut el, "profile get_metrics", |el, done| {
            client.get_metrics(el, done)
        });
        let metrics = decode_metrics(&rows).expect("bad metrics reply");
        let now = Instant::now();
        // A previous snapshot turns counters into per-second rates.
        let rates = prev_metrics
            .as_ref()
            .map(|(t0, prev)| metric_rates(prev, &metrics, now - *t0));
        println!();
        print!(
            "{}",
            format_metrics_table_with_rates(
                "shared metrics registry (all processes)",
                &metrics,
                rates.as_ref(),
            )
        );
        println!();
        prev_metrics = Some((now, metrics.clone()));

        if check {
            // The registry is shared: one target serves every process's
            // instrumentation, fully qualified.
            for name in [
                "bgp.xrl.pending",
                "bgp.fanout.queue_len",
                "rib.xrl.pending",
                "rib.batch_size",
                "fea.batch_size",
                "fea.event.bulk_depth",
                "bgp.event.completion_depth",
            ] {
                assert!(
                    metrics.iter().any(|m| m.name == name),
                    "metric {name} missing from registry"
                );
            }
            // All eight §8.2 points armed by the alias, and the BGP entry
            // point saw the workload.
            assert_eq!(points.len(), 8, "expected the 8 route-flow points");
            assert!(points.iter().all(|p| p.enabled), "alias left a point off");
            let bgpin = points.iter().find(|p| p.name == "route_bgpin").unwrap();
            assert!(bgpin.len > 0, "no records buffered at route_bgpin");

            // Drain it in bounded slices; stamps must be monotone.
            let drained = drain_pages(
                &mut el,
                "profile get_records",
                256,
                |el, max, done| client.get_records(el, "route_bgpin".to_string(), max, done),
                decode_records,
            );
            assert_eq!(drained.dropped, 0, "flood-dropped records in a small run");
            let collected = drained.items;
            assert_eq!(collected.len(), routes, "lost records across slices");
            assert!(
                collected.windows(2).all(|w| w[0].nanos <= w[1].nanos),
                "timestamps not monotone"
            );
            println!(
                "xorp-stats --check: ok ({} records, {} metrics)",
                collected.len(),
                metrics.len()
            );
        }
    }

    // ---- trace assembly ---------------------------------------------------
    // The tracer is shared router-wide, so any `profile/1.0` target can
    // serve any process's span ring; we still ask over the real wire, in
    // bounded slices, like an external console would.
    if trace_every > 0 {
        let mut all = Vec::new();
        for process in ["bgp", "rib", "fea"] {
            let drained = drain_pages(
                &mut el,
                "profile get_spans",
                MAX_RECORDS_PER_SLICE as u32,
                |el, max, done| client.get_spans(el, process.to_string(), max, done),
                decode_spans,
            );
            all.extend(drained.items);
        }
        let views = stitch_spans(all);
        print!(
            "{}",
            format_trace_report(
                &format!("stitched traces (1-in-{trace_every} sampling)"),
                &views
            )
        );
        if check {
            assert!(
                views.iter().any(|v| v.is_root()),
                "sampling on but no rooted trace assembled"
            );
        }
    }

    observer.shutdown(&mut el);
    router.stop();
}
