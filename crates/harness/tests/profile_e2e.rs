//! End-to-end `profile/1.0` tests: an external observer with its own
//! event loop arms the §8.2 route-flow points over the real XRL
//! transport — through the typed `profile/1.0` client stub — drives a
//! workload through the three-process router, and reads the records and
//! the shared metrics registry back over the wire.
//!
//! The second test congests the BGP→RIB data lane (tight watermarks plus
//! a slow RIB) and shows the profiling target still answers while the
//! lane is Xoff'd — observability rides the control path, not the data
//! path — and that the stamps it returns stay monotone even under
//! backpressure.

use std::time::{Duration, Instant};

use xorp_harness::router::{MultiProcessRouter, RouterOptions};
use xorp_harness::stats::{call, drain_pages};
use xorp_harness::workload::{backbone_table, WorkloadConfig};
use xorp_profiler::{Drained, Record};
use xorp_xrl::profile::profile::Client as ProfileClient;
use xorp_xrl::profile::{
    decode_metrics, decode_points, decode_records, MetricRow, ROUTE_FLOW_ALIAS,
};
use xorp_xrl::{QueuePolicy, XrlRouter};

/// Build an observer loop + XRL router attached to the given router's
/// Finder, over TCP like any external console.
fn observer(router: &MultiProcessRouter) -> (xorp_event::EventLoop, XrlRouter) {
    let mut el = xorp_event::EventLoop::new();
    let obs = XrlRouter::new(&mut el, router.finder.clone());
    obs.enable_tcp().unwrap();
    obs.register_target("profile-observer", "profile-observer-0", true)
        .unwrap();
    (el, obs)
}

/// `enable`/`disable` one point (or alias) and return the `ok` flag.
fn arm(el: &mut xorp_event::EventLoop, client: &ProfileClient, point: &str, on: bool) -> bool {
    let point = point.to_string();
    call(el, "profile enable/disable", |el, done| {
        if on {
            client.enable(el, point, done)
        } else {
            client.disable(el, point, done)
        }
    })
    .0
}

/// Fetch and decode the point listing.
fn list_points(
    el: &mut xorp_event::EventLoop,
    client: &ProfileClient,
) -> Vec<xorp_profiler::PointInfo> {
    let (rows,) = call(el, "profile list", |el, done| client.list(el, done));
    decode_points(&rows).expect("bad list reply")
}

/// Fetch and decode the shared metrics registry.
fn fetch_metrics(el: &mut xorp_event::EventLoop, client: &ProfileClient) -> Vec<MetricRow> {
    let (rows,) = call(el, "profile get_metrics", |el, done| {
        client.get_metrics(el, done)
    });
    decode_metrics(&rows).expect("bad metrics reply")
}

/// Drain every buffered record for `point` over the wire in pages of at
/// most `max`.
fn drain_records(
    el: &mut xorp_event::EventLoop,
    client: &ProfileClient,
    point: &str,
    max: u32,
) -> Drained<Record> {
    drain_pages(
        el,
        "profile get_records",
        max,
        |el, max, done| client.get_records(el, point.to_string(), max, done),
        decode_records,
    )
}

/// Tentpole happy path: enable over the wire, run a workload, read the
/// stamps and the shared registry back through one process's target.
#[test]
fn profile_target_serves_records_and_metrics_over_xrl() {
    const ROUTES: usize = 400;
    let router = MultiProcessRouter::new(RouterOptions::default());
    let (mut el, obs) = observer(&router);
    let bgp = ProfileClient::new(&obs, "bgp");

    // Let the pre-installed connected route finish its RIB→FEA trip before
    // arming, so the workload's stamps are the only ones recorded.
    assert!(router.wait_for(Duration::from_secs(10), || router.fea_route_count() == 1));

    // Points start dormant; arm the whole route flow through BGP's target.
    assert!(arm(&mut el, &bgp, ROUTE_FLOW_ALIAS, true));

    let table = backbone_table(&WorkloadConfig {
        routes: ROUTES,
        ..Default::default()
    });
    for batch in table.chunks(64) {
        router.feed_backbone(1, batch);
    }
    assert!(
        router.wait_for(Duration::from_secs(120), || {
            router.fea_route_count() > ROUTES
        }),
        "workload never converged: fea={}",
        router.fea_route_count()
    );

    // `list` sees all 8 points armed, and the entry point buffered the run.
    let points = list_points(&mut el, &bgp);
    assert_eq!(points.len(), 8, "expected the 8 route-flow points");
    assert!(points.iter().all(|p| p.enabled), "alias left a point off");
    let bgpin = points.iter().find(|p| p.name == "route_bgpin").unwrap();
    assert_eq!(bgpin.len, ROUTES, "entry point missed records");

    // Records drain in bounded slices, clear as they go, and each point's
    // stamps are monotone (stamped under the profiler lock).
    for point in ["route_bgpin", "route_ribin", "route_feain"] {
        let Drained {
            items: records,
            dropped,
            ..
        } = drain_records(&mut el, &bgp, point, 128);
        assert_eq!(records.len(), ROUTES, "{point}: lost records");
        assert_eq!(dropped, 0, "{point}: dropped in a small run");
        assert!(
            records.windows(2).all(|w| w[0].nanos <= w[1].nanos),
            "{point}: timestamps not monotone"
        );
    }
    // get_records clears: a second drain of the same point is empty.
    let again = drain_records(&mut el, &bgp, "route_bgpin", 128);
    assert!(
        again.items.is_empty(),
        "get_records did not clear the buffer"
    );

    // The registry is process-shared: one target serves every process's
    // instrumentation, fully qualified, with sane values.
    let metrics = fetch_metrics(&mut el, &bgp);
    for name in [
        "bgp.xrl.pending",
        "bgp.fanout.queue_len",
        "bgp.event.bulk_depth",
        "bgp.event.completion_depth",
        "rib.xrl.pending",
        "rib.batch_size",
        "fea.event.bulk_depth",
    ] {
        assert!(
            metrics.iter().any(|m| m.name == name),
            "metric {name} missing from registry ({} rows)",
            metrics.len()
        );
    }
    // The same registry is visible through a different process's target.
    let rib = ProfileClient::new(&obs, "rib");
    let via_rib = fetch_metrics(&mut el, &rib);
    assert_eq!(via_rib.len(), metrics.len(), "registry views disagree");

    // disable stops recording: more routes arrive, no new records buffer.
    assert!(arm(&mut el, &bgp, ROUTE_FLOW_ALIAS, false));
    router.announce_one(
        1,
        "172.16.0.0/16".parse().unwrap(),
        "192.168.1.1".parse().unwrap(),
    );
    assert!(router.wait_for(Duration::from_secs(10), || {
        router.fea_route_count() >= ROUTES + 2
    }));
    let points = list_points(&mut el, &bgp);
    let bgpin = points.iter().find(|p| p.name == "route_bgpin").unwrap();
    assert!(!bgpin.enabled, "disable left the point armed");
    assert_eq!(bgpin.len, 0, "dormant point still buffered a record");

    obs.shutdown(&mut el);
    router.stop();
}

/// Satellite: the profiling target stays responsive while the BGP→RIB
/// data lane is Xoff'd, and the stamps it hands back are still monotone.
/// Observability must not sit behind the congested queue it is observing.
#[test]
fn profile_target_answers_while_data_lane_xoffed() {
    const ROUTES: usize = 3000;
    let router = MultiProcessRouter::new(RouterOptions {
        overload: QueuePolicy {
            high_watermark: 16,
            low_watermark: 4,
            hard_cap: 8192,
        },
        // Each route ack held 2 ms: a few thousand routes keep the lane
        // congested for seconds — plenty to query through the storm.
        rib_delay_ms: 2,
        ..Default::default()
    });
    let (mut el, obs) = observer(&router);
    let bgp = ProfileClient::new(&obs, "bgp");

    assert!(arm(&mut el, &bgp, ROUTE_FLOW_ALIAS, true));

    let table = backbone_table(&WorkloadConfig {
        routes: ROUTES,
        ..Default::default()
    });
    for batch in table.chunks(64) {
        router.feed_backbone(1, batch);
    }
    assert!(
        router.wait_for(Duration::from_secs(10), || router.bgp_congested()),
        "storm never congested the BGP→RIB lane"
    );

    // Query through the storm: every call must answer promptly even
    // though the data lane is paused, because profile/1.0 replies ride
    // the same priority path as supervision keepalives.
    let mut congested_queries = 0;
    while router.bgp_congested() && congested_queries < 5 {
        let t0 = Instant::now();
        let points = list_points(&mut el, &bgp);
        assert_eq!(points.len(), 8);
        let metrics = fetch_metrics(&mut el, &bgp);
        assert!(!metrics.is_empty());
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "profile queries starved behind the congested data lane"
        );
        congested_queries += 1;
    }
    assert!(
        congested_queries > 0,
        "lane drained before any query landed — loosen the watermarks"
    );

    // Backpressure, not loss: the storm still converges fully.
    assert!(
        router.wait_for(Duration::from_secs(120), || {
            router.fea_route_count() > ROUTES
        }),
        "storm did not converge: fea={}",
        router.fea_route_count()
    );

    // Stamps taken while the lane cycled Xoff/Xon are still monotone per
    // point, and the Xoff counter actually moved.
    for point in ["route_bgpin", "route_sent_rib", "route_ribin"] {
        let records = drain_records(&mut el, &bgp, point, 512).items;
        assert!(!records.is_empty(), "{point}: no records under load");
        assert!(
            records.windows(2).all(|w| w[0].nanos <= w[1].nanos),
            "{point}: timestamps not monotone under backpressure"
        );
    }
    let metrics = fetch_metrics(&mut el, &bgp);
    // The sender charges its own lane, so BGP's router is where the
    // BGP→RIB watermark crossing is counted.
    let xoff = metrics
        .iter()
        .find(|m| m.name == "bgp.xrl.xoff_total")
        .expect("bgp.xrl.xoff_total missing");
    assert!(
        xoff.primary > 0,
        "lane congested but Xoff counter never moved"
    );

    obs.shutdown(&mut el);
    router.stop();
}
