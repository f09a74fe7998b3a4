//! `fig-trace`: cross-process causal tracing under a route flood.
//!
//! Spawns the three-process router (BGP → RIB → FEA over real XRL
//! transports) at batch 64 by default, samples 1-in-N UPDATEs at the BGP
//! ingress, and floods a synthetic backbone table.  Sampled UPDATEs root
//! causal traces whose contexts ride the v2 wire as 12-byte trailers;
//! every hop — `bgp_in`, `fanout`, `batch`, `rib`, `fea` — records a
//! span into its process's bounded ring.  An external observer then
//! drains `profile/1.0/get_spans` in bounded slices, stitches the spans
//! by trace id, and reports per-hop and end-to-end (BGP-in → FEA)
//! latency percentiles.
//!
//! Usage: `fig-trace [--routes N] [--batch N] [--every N] [--check]`
//!
//! With `--check`, asserts the tentpole acceptance surface: at least one
//! stitched trace covers the full hop chain, every parent/child span
//! pair nests with monotone stamps, and p50/p99 end-to-end latencies are
//! reported.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use xorp_harness::figargs::flag_value;
use xorp_harness::router::{MultiProcessRouter, RouterOptions};
use xorp_harness::stats::{
    covered_hops, drain_pages, end_to_end_ns, format_trace_report, percentile, stitch_spans,
};
use xorp_harness::workload::{backbone_table, WorkloadConfig};
use xorp_xrl::profile::profile::Client as ProfileClient;
use xorp_xrl::profile::{decode_spans, MAX_RECORDS_PER_SLICE};
use xorp_xrl::XrlRouter;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let int = |flag: &str, default: usize| -> usize {
        flag_value(&args, flag)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let routes = int("--routes", 4096);
    let batch = int("--batch", 64).max(1);
    let every = int("--every", 4).max(1) as u64;

    println!("fig-trace: {routes} routes, batch={batch}, sampling 1-in-{every} UPDATEs");

    let router = MultiProcessRouter::new(RouterOptions {
        batch_size: batch,
        ..Default::default()
    });
    router.tracer.set_sampling(every);

    // ---- flood --------------------------------------------------------
    let table = backbone_table(&WorkloadConfig {
        routes,
        ..Default::default()
    });
    let t0 = Instant::now();
    for chunk in table.chunks(64) {
        router.feed_backbone(1, chunk);
    }
    assert!(
        router.wait_for(Duration::from_secs(120), || {
            router.fea_route_count() >= routes
        }),
        "flood never converged: fea={}",
        router.fea_route_count()
    );
    let elapsed = t0.elapsed();
    println!(
        "converged: {} routes at the FEA in {:.1} ms",
        router.fea_route_count(),
        elapsed.as_secs_f64() * 1e3
    );

    // ---- drain spans over the real wire, in bounded slices ------------
    let mut el = xorp_event::EventLoop::new();
    let observer = XrlRouter::new(&mut el, router.finder.clone());
    observer.enable_tcp().unwrap();
    observer
        .register_target("fig-trace", "fig-trace-0", true)
        .unwrap();
    let client = ProfileClient::new(&observer, "bgp");

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
        format_trace_report(&format!("stitched traces (1-in-{every} sampling)"), &views)
    );

    // ---- end-to-end percentiles over complete traces ------------------
    let full_chain: BTreeSet<String> = ["bgp_in", "fanout", "batch", "rib", "fea"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut e2e: Vec<u64> = Vec::new();
    let mut complete = 0usize;
    for v in views.iter().filter(|v| v.is_root()) {
        if let Some(ns) = end_to_end_ns(&views, v.trace_id) {
            e2e.push(ns);
            if covered_hops(&views, v.trace_id).is_superset(&full_chain) {
                complete += 1;
            }
        }
    }
    let p50 = percentile(&mut e2e, 0.50);
    let p99 = percentile(&mut e2e, 0.99);
    println!(
        "BGP-in -> FEA: {} traced, {} full-chain; p50={:.1}us p99={:.1}us",
        e2e.len(),
        complete,
        p50 as f64 / 1e3,
        p99 as f64 / 1e3,
    );

    if check {
        assert!(!e2e.is_empty(), "no end-to-end trace assembled");
        assert!(
            complete >= 1,
            "no trace covered the full chain {full_chain:?}"
        );
        assert!(p50 > 0 && p99 >= p50, "degenerate percentiles");
        // Monotone nesting: within a trace, a span never starts before
        // its parent (stamps come from one shared epoch, so spans from
        // different processes are directly comparable).
        for v in &views {
            for s in &v.spans {
                if s.parent_span == 0 {
                    continue;
                }
                if let Some(parent) = v.spans.iter().find(|p| p.span_id == s.parent_span) {
                    assert!(
                        s.start_ns >= parent.start_ns,
                        "span {} ({}) starts before its parent {} ({}) in trace {:016x}",
                        s.span_id,
                        s.point,
                        parent.span_id,
                        parent.point,
                        v.trace_id
                    );
                }
            }
        }
        println!("fig-trace --check: ok");
    }

    router.stop();
}
