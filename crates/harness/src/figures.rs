//! The experiment drivers behind the figure-regeneration binaries.

use std::time::{Duration, Instant};

use xorp_profiler::{points, MetricValue};

use crate::router::{MultiProcessRouter, RouterOptions};
use crate::stats::{format_latency_table, latency_rows};
use crate::workload::{backbone_table, test_route, WorkloadConfig};

/// High-water mark of a gauge in the router's shared registry.  Panics
/// when `name` is not a registered gauge: a misspelt name must not read 0.
pub fn gauge_max(router: &MultiProcessRouter, name: &str) -> usize {
    match router.metrics.get(name) {
        Some(MetricValue::Gauge { max, .. }) => max.max(0) as usize,
        other => panic!("{name} is not a gauge: {other:?}"),
    }
}

/// Live value of a gauge in the shared registry (panics like
/// [`gauge_max`]).
pub fn gauge_value(router: &MultiProcessRouter, name: &str) -> i64 {
    match router.metrics.get(name) {
        Some(MetricValue::Gauge { value, .. }) => value,
        other => panic!("{name} is not a gauge: {other:?}"),
    }
}

/// Current value of a counter in the shared registry (panics like
/// [`gauge_max`]).
pub fn counter_value(router: &MultiProcessRouter, name: &str) -> u64 {
    match router.metrics.get(name) {
        Some(MetricValue::Counter(v)) => v,
        other => panic!("{name} is not a counter: {other:?}"),
    }
}

/// Everything a latency figure produces.
pub struct LatencyOutcome {
    /// The formatted per-point latency tables.
    pub report: String,
    /// Per-probe kernel latencies in ms (the scatter in the figures).
    pub series: Vec<f64>,
    /// Preload throughput in routes/s end-to-end to the FEA (0.0 when the
    /// experiment has no preload phase).
    pub preload_rps: f64,
}

/// Figures 10–12: route-propagation latency through the three-process
/// router, with `initial` backbone routes preloaded on peer 1 and
/// `test_routes` probes introduced on peer 1 (`!different_peering`) or
/// peer 2.
///
/// Returns (report text, per-route kernel latencies in ms).
pub fn latency_experiment(
    title: &str,
    initial: usize,
    different_peering: bool,
    test_routes: u32,
) -> (String, Vec<f64>) {
    let out = latency_experiment_opts(title, initial, different_peering, test_routes, 1);
    (out.report, out.series)
}

/// [`latency_experiment`] with the batched-pipeline knob exposed:
/// `batch_size` routes per `add_routes`/`delete_routes` XRL frame
/// (1 = per-route `add_route` calls).
pub fn latency_experiment_opts(
    title: &str,
    initial: usize,
    different_peering: bool,
    test_routes: u32,
    batch_size: usize,
) -> LatencyOutcome {
    let router = MultiProcessRouter::new(RouterOptions {
        batch_size,
        ..RouterOptions::default()
    });

    // Sampling-overhead runs: XORP_TRACE_EVERY=N samples 1-in-N UPDATEs
    // into causal trace spans during the experiment.  Unset or 0 keeps
    // the tracer dormant (one relaxed load per UPDATE).
    if let Some(every) = std::env::var("XORP_TRACE_EVERY")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|n| *n > 0)
    {
        router.tracer.set_sampling(every);
    }

    // ---- preload ---------------------------------------------------------
    let mut preload_rps = 0.0;
    if initial > 0 {
        let table = backbone_table(&WorkloadConfig {
            routes: initial,
            ..Default::default()
        });
        let start = Instant::now();
        for batch in table.chunks(64) {
            router.feed_backbone(1, batch);
        }
        let target = initial + 1; // + connected route
        let ok = router.wait_for(Duration::from_secs(600), || {
            router.fea_route_count() >= target
        });
        preload_rps = initial as f64 / start.elapsed().as_secs_f64();
        assert!(
            ok,
            "preload stalled: fea={} rib={} bgp={}",
            router.fea_route_count(),
            router.rib_route_count(),
            router.bgp_route_count()
        );
    }

    // ---- probes ----------------------------------------------------------
    router.profiler.enable_route_flow();
    router.profiler.clear();
    let probe_peer = if different_peering { 2 } else { 1 };
    let nexthop = if different_peering {
        "192.168.1.200".parse().unwrap()
    } else {
        "192.168.1.1".parse().unwrap()
    };

    // "wait a second, and then remove the route" — we wait for each
    // install instead; the spacing in the paper only isolates samples.
    run_probes(&router, probe_peer, nexthop, 0, test_routes);

    let rows = latency_rows(&router.profiler, "add");
    let mut report = format_latency_table(title, &rows);
    // The paper's workload also withdraws each probe; report the
    // withdrawal path too (not shown in the paper's tables, but the same
    // claim — bounded latency — must hold for deletes).
    let del_rows = latency_rows(&router.profiler, "del");
    report.push('\n');
    report.push_str(&format_latency_table(
        "(withdrawals through the same pipeline)",
        &del_rows,
    ));
    // Per-route kernel latency series (the scatter in the figures).
    let per_key = kernel_latencies(&router.profiler);
    router.stop();
    LatencyOutcome {
        report,
        series: per_key,
        preload_rps,
    }
}

/// Outcome of the peer-up dump experiment (§5.3).
pub struct PeerUpOutcome {
    /// Human-readable report.
    pub report: String,
    /// Max probe kernel latency (ms) with no dump running.
    pub steady_max_ms: f64,
    /// Max probe kernel latency (ms) while the background dump walked.
    pub during_max_ms: f64,
    /// Routes the new peer had been sent when the dump completed.
    pub dumped: usize,
    /// Probes that completed while the dump was still in flight.
    pub overlapped: u32,
}

/// The §5.3 claim measured: bringing a new peering up on a full table
/// must not blind the router — the table walk runs as a background task,
/// so live route propagation stays fast *during* the dump.
///
/// `initial` backbone routes are preloaded on peer 1.  A steady-state
/// probe phase on peer 2 establishes the baseline kernel latency; then
/// peer 9 (configured down) comes up, triggering a background dump of
/// the whole table toward it, and a second probe phase runs while that
/// dump is in flight.
pub fn peerup_experiment(initial: usize, probes: u32) -> PeerUpOutcome {
    let router = MultiProcessRouter::new(RouterOptions {
        peers: vec![(1, 65001), (2, 65002), (9, 65009)],
        down_peers: vec![9],
        ..RouterOptions::default()
    });

    // ---- preload ---------------------------------------------------------
    let table = backbone_table(&WorkloadConfig {
        routes: initial,
        ..Default::default()
    });
    for batch in table.chunks(64) {
        router.feed_backbone(1, batch);
    }
    let ok = router.wait_for(Duration::from_secs(600), || {
        router.fea_route_count() > initial
    });
    assert!(
        ok,
        "preload stalled: fea={} rib={} bgp={}",
        router.fea_route_count(),
        router.rib_route_count(),
        router.bgp_route_count()
    );

    // ---- steady-state baseline ------------------------------------------
    router.profiler.enable_route_flow();
    router.profiler.clear();
    let nexthop: std::net::Ipv4Addr = "192.168.1.200".parse().unwrap();
    run_probes(&router, 2, nexthop, 0, probes);
    let steady = kernel_latencies(&router.profiler);

    // ---- peer-up: probe while the dump walks -----------------------------
    // No wait between peering_up and the first probe: the dump runs only
    // when the BGP loop is idle, so with a big enough table it is still
    // walking while the early probes flow.  `overlapped` records how many
    // probes actually raced it (polling — a lower bound).
    router.profiler.clear();
    router.peering_up(9);
    let mut overlapped = 0;
    for i in 0..probes {
        // The shared registry's dump gauge, refreshed by the fanout on
        // every pump — the probe traffic itself keeps it live while the
        // walk is in flight.
        if gauge_value(&router, "bgp.fanout.dumps_in_flight") > 0 {
            overlapped += 1;
        }
        run_probes(&router, 2, nexthop, 1000 + i, 1);
    }
    let during = kernel_latencies(&router.profiler);

    // Completion still polls the live cross-thread accessor: the gauge
    // only refreshes on BGP-loop activity, so once probing stops it could
    // hold its last value and park this wait forever.
    let ok = router.wait_for(Duration::from_secs(600), || !router.bgp_dump_in_flight(9));
    assert!(ok, "peer-up dump never finished");
    let dumped = router.bgp_announced_count(9);
    router.stop();

    let max = |v: &[f64]| v.iter().cloned().fold(0.0, f64::max);
    let steady_max_ms = max(&steady);
    let during_max_ms = max(&during);
    let report = format!(
        "Peer-up background dump (§5.3): {initial} routes, {probes} probes/phase\n\
         steady-state max probe latency:  {steady_max_ms:.2} ms\n\
         during-dump  max probe latency:  {during_max_ms:.2} ms\n\
         probes overlapping the dump:     {overlapped}/{probes}\n\
         routes dumped to the new peer:   {dumped}"
    );
    PeerUpOutcome {
        report,
        steady_max_ms,
        during_max_ms,
        dumped,
        overlapped,
    }
}

/// Outcome of the churn-storm overload experiment (fig-storm).
pub struct StormOutcome {
    /// Human-readable report.
    pub report: String,
    /// Max keepalive round-trip (ms) on the idle router.
    pub steady_probe_ms: f64,
    /// Max keepalive round-trip (ms) sampled while the storm drained
    /// (timeouts are clamped to the 2 s probe deadline).
    pub storm_probe_max_ms: f64,
    /// Peak outstanding XRLs on the BGP router's pending map — the
    /// quantity the hard cap bounds.
    pub peak_outstanding: usize,
    /// Peak depth charged to the BGP→RIB lane.
    pub peak_lane_depth: usize,
    /// Peak routes held back in the fanout while the RIB reader was
    /// gated off — where backpressure moves the overload.
    pub peak_fanout_queue: usize,
    /// Peak BGP heap proxy (route storage + fanout holdback), bytes.
    pub peak_memory_bytes: usize,
    /// Data frames shed at the hard cap (must be 0: backpressure holds
    /// the excess upstream before the cap is ever reached).
    pub shed: u64,
    /// Supervised restarts observed — a saturated process must never be
    /// mistaken for a dead one, so this must stay 0.
    pub restarts: u32,
    /// Whether the supervisor's verdict ever left Healthy.
    pub degraded: bool,
    /// Whether the final table converged exactly (routes + connected).
    pub converged: bool,
    /// Wall-clock seconds from first storm update to convergence.
    pub elapsed_s: f64,
}

/// The overload claim measured: flap a full backbone table through a
/// deliberately slow RIB (every route ack held 2 ms) and watch what the
/// XRL plane does with the excess.  The BGP→RIB lane raises Xoff at
/// `policy`'s high watermark, the fanout reader gates off, and the
/// outstanding-request queue stays bounded while supervision keepalives
/// keep landing on the priority lane — busy is never classified as dead.
/// The table must converge exactly: this is flow control, not loss.
///
/// `routes` prefixes are flapped (announce + withdraw) `rounds` times
/// and then re-announced, so the storm is `(2*rounds + 1) * routes`
/// updates and the converged table is `routes + 1` (connected).
pub fn storm_experiment(routes: usize, rounds: u32, policy: xorp_xrl::QueuePolicy) -> StormOutcome {
    use xorp_rtrmgr::{SupervisedState, SupervisorConfig};

    // Fast keepalives so a false restart would show up quickly; an
    // overload budget far beyond the storm so sustained Xoff alone never
    // escalates to Degraded inside the experiment window.
    let supervision = SupervisorConfig {
        keepalive_interval: Duration::from_millis(40),
        miss_threshold: 3,
        backoff_base: Duration::from_millis(300),
        backoff_max: Duration::from_millis(800),
        restart_budget: 5,
        grace_period: Duration::from_secs(30),
        overload_budget: Duration::from_secs(600),
    };
    let router = MultiProcessRouter::new(RouterOptions {
        supervision: Some(supervision),
        overload: policy,
        rib_delay_ms: 2,
        ..RouterOptions::default()
    });
    assert!(
        router.wait_for(Duration::from_secs(10), || router.fea_route_count() == 1),
        "connected route never installed"
    );

    // ---- steady-state baseline ------------------------------------------
    let probe_ms = |timeout: Duration| {
        router
            .probe_bgp_latency(timeout)
            .map_or(timeout.as_secs_f64() * 1e3, |d| d.as_secs_f64() * 1e3)
    };
    let mut steady_probe_ms = 0.0f64;
    for _ in 0..16 {
        steady_probe_ms = steady_probe_ms.max(probe_ms(Duration::from_secs(2)));
    }

    // ---- the storm -------------------------------------------------------
    // The queue peaks come from the shared registry's gauge high-water
    // marks (`bgp.xrl.pending`, `bgp.xrl.lane_depth`,
    // `bgp.fanout.queue_len`) — tracked by the writers themselves on
    // every update, so no sampling loop can miss a spike between polls.
    // The memory proxy has no gauge (it walks the whole table on demand)
    // and keeps the sparse sampler.
    struct Peaks {
        mem: usize,
    }
    impl Peaks {
        // The memory proxy walks the whole table — sampled sparsely so
        // the instrumentation doesn't become the load.
        fn sample_mem(&mut self, r: &MultiProcessRouter) {
            self.mem = self.mem.max(r.bgp_memory_bytes());
        }
    }
    let mut peaks = Peaks { mem: 0 };
    let mut storm_probes: Vec<f64> = Vec::new();
    let table = backbone_table(&WorkloadConfig {
        routes,
        ..Default::default()
    });

    // The feed posts updates straight into the BGP loop (bypassing the
    // XRL plane), so probes taken here would measure the harness's own
    // post flood, not the router — sampling happens in the drain loop,
    // where the lane is congested but the loop is merely paced.
    let start = Instant::now();
    let mut chunk_i = 0usize;
    let mut feed = |announce: bool, peaks: &mut Peaks| {
        for batch in table.chunks(64) {
            if announce {
                router.feed_backbone(1, batch);
            } else {
                router.withdraw_backbone(1, batch);
            }
            chunk_i += 1;
            if chunk_i % 64 == 0 {
                peaks.sample_mem(&router);
                eprintln!(
                    "  [feed  {:>5.1}s] chunk={} fanout={} out={} restarts={} state={:?}",
                    start.elapsed().as_secs_f64(),
                    chunk_i,
                    gauge_value(&router, "bgp.fanout.queue_len"),
                    gauge_value(&router, "bgp.xrl.pending"),
                    router.supervised_restarts(),
                    router.supervisor_state("bgp"),
                );
            }
        }
    };
    for _ in 0..rounds {
        feed(true, &mut peaks);
        feed(false, &mut peaks);
    }
    feed(true, &mut peaks);

    // ---- drain: keep sampling until the final announce converges ---------
    let target = routes + 1;
    let deadline = Instant::now() + Duration::from_secs(600);
    let mut restarts = 0u32;
    let mut degraded = false;
    let mut converged = false;
    let mut settled = false;
    let mut tick = 0usize;
    let mut last_progress = Instant::now();
    while Instant::now() < deadline {
        tick += 1;
        if last_progress.elapsed() > Duration::from_secs(2) {
            last_progress = Instant::now();
            eprintln!(
                "  [storm {:>5.1}s] bgp={} rib={} fea={} fanout={} out={} rib_out={} parked={} shed={} rib_shed={} restarts={} state={:?}",
                start.elapsed().as_secs_f64(),
                router.bgp_route_count(),
                router.rib_route_count(),
                router.fea_route_count(),
                gauge_value(&router, "bgp.fanout.queue_len"),
                gauge_value(&router, "bgp.xrl.pending"),
                gauge_value(&router, "rib.xrl.pending"),
                router.rib_fea_backlog(),
                counter_value(&router, "bgp.xrl.shed_total"),
                counter_value(&router, "rib.xrl.shed_total"),
                router.supervised_restarts(),
                router.supervisor_state("bgp"),
            );
        }
        if tick % 16 == 0 {
            peaks.sample_mem(&router);
        }
        if tick % 32 == 0 {
            storm_probes.push(probe_ms(Duration::from_secs(2)));
        }
        restarts = restarts.max(router.supervised_restarts());
        // Transient Suspect (one late probe on a loaded host) is tolerated;
        // what must never happen under backpressure alone is the sticky
        // escalation.
        if router.supervisor_state("bgp") == Some(SupervisedState::Degraded) {
            degraded = true;
        }
        // The counts pass through `target` between flap rounds, so require
        // an empty pipeline twice, 50 ms apart, before calling it done.
        // The queue gauges are exact once the pipeline is idle: each is
        // written wherever its queue changes.
        let done = router.fea_route_count() == target
            && router.rib_route_count() == target
            && gauge_value(&router, "bgp.fanout.queue_len") == 0
            && gauge_value(&router, "bgp.xrl.pending") == 0
            && router.rib_fea_backlog() == 0
            && gauge_value(&router, "rib.xrl.pending") == 0;
        if done && settled {
            converged = true;
            break;
        }
        settled = done;
        std::thread::sleep(Duration::from_millis(if done { 50 } else { 2 }));
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    // Both policed senders: a shed anywhere on the path is data loss.
    // (Registry counters — `xorp-stats` shows the same numbers live.)
    let shed =
        counter_value(&router, "bgp.xrl.shed_total") + counter_value(&router, "rib.xrl.shed_total");
    let peak_outstanding = gauge_max(&router, "bgp.xrl.pending");
    let peak_lane_depth = gauge_max(&router, "bgp.xrl.lane_depth");
    let peak_fanout_queue = gauge_max(&router, "bgp.fanout.queue_len");
    restarts = restarts.max(router.supervised_restarts());
    router.stop();

    let storm_probe_max_ms = storm_probes.iter().cloned().fold(0.0, f64::max);
    let updates = routes * (2 * rounds as usize + 1);
    let report = format!(
        "Churn storm (xoff {} / xon {} / cap {}): {routes} routes x {rounds} flap rounds = {updates} updates, RIB ack +2 ms\n\
         peak outstanding XRLs:          {}\n\
         peak BGP->RIB lane depth:       {}\n\
         peak fanout holdback (routes):  {}\n\
         peak BGP memory proxy:          {:.1} MiB\n\
         steady-state max probe:         {steady_probe_ms:.2} ms\n\
         during-storm max probe:         {storm_probe_max_ms:.2} ms\n\
         shed at hard cap:               {shed}\n\
         supervised restarts:            {restarts}\n\
         degraded:                       {degraded}\n\
         converged exactly:              {converged} ({:.1} s, {:.0} updates/s)",
        policy.high_watermark,
        policy.low_watermark,
        policy.hard_cap,
        peak_outstanding,
        peak_lane_depth,
        peak_fanout_queue,
        peaks.mem as f64 / (1024.0 * 1024.0),
        elapsed_s,
        updates as f64 / elapsed_s,
    );
    StormOutcome {
        report,
        steady_probe_ms,
        storm_probe_max_ms,
        peak_outstanding,
        peak_lane_depth,
        peak_fanout_queue,
        peak_memory_bytes: peaks.mem,
        shed,
        restarts,
        degraded,
        converged,
        elapsed_s,
    }
}

/// Announce+withdraw `count` probes on `peer`, waiting for each to reach
/// the kernel (the Fig-10/11 probe discipline).
fn run_probes(
    router: &MultiProcessRouter,
    peer: u32,
    nexthop: std::net::Ipv4Addr,
    offset: u32,
    count: u32,
) {
    for i in offset..offset + count {
        let net = test_route(i);
        let add_key = format!("add {net}");
        router.announce_one(peer, net, nexthop);
        let ok = router.wait_for(Duration::from_secs(10), || {
            router
                .profiler
                .snapshot(points::KERNEL)
                .iter()
                .any(|r| r.payload == add_key)
        });
        assert!(ok, "probe {net} never reached the kernel");
        let del_key = format!("del {net}");
        router.withdraw_one(peer, net);
        let ok = router.wait_for(Duration::from_secs(10), || {
            router
                .profiler
                .snapshot(points::KERNEL)
                .iter()
                .any(|r| r.payload == del_key)
        });
        assert!(ok, "withdrawal of {net} never reached the kernel");
    }
}

/// Per-probe "entering kernel" latency (ms), in probe order.
fn kernel_latencies(profiler: &xorp_profiler::Profiler) -> Vec<f64> {
    let bgp_in = profiler.snapshot(points::BGP_IN);
    let kernel = profiler.snapshot(points::KERNEL);
    let mut out = Vec::new();
    for rec in &bgp_in {
        if !rec.payload.starts_with("add ") {
            continue;
        }
        if let Some(k) = kernel.iter().find(|k| k.payload == rec.payload) {
            out.push((k.nanos.saturating_sub(rec.nanos)) as f64 / 1e6);
        }
    }
    out
}

/// Figure 9: XRL throughput for a given transport and argument count.
/// Returns XRLs per second over a 10,000-call transaction with a 100-call
/// pipeline window (the paper's methodology, §8.1).
pub fn xrl_throughput(
    family: xorp_xrl::router::TransportPref,
    num_args: usize,
    transaction: u32,
    window: u32,
) -> f64 {
    use std::cell::Cell;
    use std::rc::Rc;
    use xorp_event::EventLoop;
    use xorp_xrl::{Finder, Xrl, XrlArgs, XrlRouter};

    let finder = Finder::new();

    // Receiver: separate thread for TCP/UDP; same loop for intra.
    let intra = family == xorp_xrl::router::TransportPref::Intra;
    let mut el = EventLoop::new();
    let router = XrlRouter::new(&mut el, finder.clone());
    router.enable_tcp().unwrap();
    router.enable_udp().unwrap();
    router
        .register_target("fig9-sender", "fig9-sender-0", false)
        .unwrap();

    let _receiver = if intra {
        router.register_target("sink", "sink-0", true).unwrap();
        router.add_fn(
            "sink-0",
            "sink/1.0/consume",
            |_el, _args| Ok(XrlArgs::new()),
        );
        None
    } else {
        Some(crate::process::Process::spawn(
            "fig9-sink",
            finder.clone(),
            |_el2, r| {
                r.enable_udp().unwrap();
                r.register_target("sink", "sink-0", true).unwrap();
                r.add_fn(
                    "sink-0",
                    "sink/1.0/consume",
                    |_el, _args| Ok(XrlArgs::new()),
                );
            },
        ))
    };

    let mut args = XrlArgs::new();
    for i in 0..num_args {
        args = args.add_u32(&format!("a{i}"), i as u32);
    }
    let xrl = Xrl::generic("sink", "sink", "1.0", "consume", args);

    let sent = Rc::new(Cell::new(0u32));
    let done = Rc::new(Cell::new(0u32));

    // Recursive sender: each completion launches the next call.
    fn send_next(
        el: &mut EventLoop,
        router: &XrlRouter,
        xrl: &Xrl,
        family: xorp_xrl::router::TransportPref,
        sent: &Rc<Cell<u32>>,
        done: &Rc<Cell<u32>>,
        transaction: u32,
    ) {
        if sent.get() >= transaction {
            return;
        }
        sent.set(sent.get() + 1);
        let router2 = router.clone();
        let xrl2 = xrl.clone();
        let sent2 = sent.clone();
        let done2 = done.clone();
        router.send_pref(
            el,
            xrl.clone(),
            family,
            Box::new(move |el, result| {
                result.expect("fig9 call failed");
                done2.set(done2.get() + 1);
                send_next(el, &router2, &xrl2, family, &sent2, &done2, transaction);
            }),
        );
    }

    let start = Instant::now();
    for _ in 0..window.min(transaction) {
        send_next(&mut el, &router, &xrl, family, &sent, &done, transaction);
    }
    while done.get() < transaction {
        if !el.run_one() {
            el.run_for(Duration::from_micros(200));
        }
    }
    let elapsed = start.elapsed();
    // Release sockets and reader threads: bench harnesses call this in a
    // loop, and leaked listeners would exhaust file descriptors.
    router.shutdown(&mut el);
    transaction as f64 / elapsed.as_secs_f64()
}

/// Figure 13: the four router models fed 255 routes at 1 s (virtual)
/// intervals.  Returns (model name, series of (arrival s, delay s)).
pub fn route_flow_models(count: u32) -> Vec<(&'static str, Vec<(f64, f64)>)> {
    use xorp_baseline::{run_route_flow, EventDrivenModel, ScannerModel};
    use xorp_event::EventLoop;

    let mut out = Vec::new();
    let spacing = Duration::from_secs(1);

    let mut el = EventLoop::new_virtual();
    let xorp = EventDrivenModel::xorp();
    out.push((
        "XORP",
        series(run_route_flow(&mut el, &xorp, count, spacing)),
    ));

    let mut el = EventLoop::new_virtual();
    let mrtd = EventDrivenModel::mrtd();
    out.push((
        "MRTd",
        series(run_route_flow(&mut el, &mrtd, count, spacing)),
    ));

    let mut el = EventLoop::new_virtual();
    let cisco = ScannerModel::cisco();
    cisco.start(&mut el);
    out.push((
        "Cisco",
        series(run_route_flow(&mut el, &cisco, count, spacing)),
    ));

    let mut el = EventLoop::new_virtual();
    let quagga = ScannerModel::quagga();
    quagga.start(&mut el);
    out.push((
        "Quagga",
        series(run_route_flow(&mut el, &quagga, count, spacing)),
    ));

    out
}

fn series(props: Vec<xorp_baseline::Propagation>) -> Vec<(f64, f64)> {
    props
        .into_iter()
        .map(|p| (p.arrival.as_secs_f64(), p.delay.as_secs_f64()))
        .collect()
}
