//! The end-to-end scenario: the threaded three-process router
//! (`MultiProcessRouter`, XRLs over loopback TCP) driven from one thread
//! and timed from outside.
//!
//! ```text
//! set-up (x5, median)   table, router up, connected route in the FIB,
//!                       one small announce+withdraw cycle to warm up
//! announce the table, wait for the FIB                 -> add rate, RSS
//! twelve rounds, at full table, each:
//!   churn               open loop on a fixed schedule      -> churn_p50_ms
//!   probes              closed loop, one prefix at a time  (traced run only)
//! withdraw the table, wait for the FIB                 -> del rate
//! two more announce/withdraw cycles, and more while the budget lasts
//! ```
//!
//! Churn latency is sampled in twelve pieces spread over the run and their
//! mean reported (less the lowest and the highest piece), and the bulk
//! rates are means over at least three cycles.  The reason is the box: the
//! cost of a system call shifts by a third, and cross-thread round trips
//! by up to a factor of two, for seconds to minutes at a time (other
//! tenants on the host).  A metric measured in one contiguous stretch
//! takes on whatever state that stretch fell into.  Pieces spread over the
//! run see the states in their long-run proportion, and of the ways to
//! combine them the mean repeated best from run to run: a median or
//! quartile of pieces flips between the states whenever they are evenly
//! matched (README, "Noise floor").
//!
//! Tracing is dormant except where a latency needs its stopwatch: the two
//! §8.2 profiler points around the probes, and 1-in-4 UPDATE sampling
//! during churn.  After every phase the router's table sizes are compared
//! with the oracle's.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use xorp_harness::stats::{causal_spans, stitch_spans};
use xorp_harness::workload::BackboneRoute;
use xorp_harness::{MultiProcessRouter, RouterOptions};
use xorp_profiler::{points, MetricValue};

use crate::gen::{
    self, ChurnUpdate, Rng, CHURN_PEER, CHURN_UPDATE_ROUTES, TABLE_PEER, UPDATE_ROUTES,
};
use crate::oracle::Oracle;
use crate::procfs;
use crate::spec::Workload;
use crate::stats::{median, percentile, trimmed_mean};

/// The paper's table size (§8.2).
pub const TABLE_ROUTES: usize = xorp_harness::workload::PAPER_TABLE_SIZE;
/// Probes per block; a percentile is taken per block.  250 leaves 25
/// samples beyond the 90th percentile.
const PROBE_BLOCK: usize = 250;
/// Untimed probes before the first block: the probe peer's first nexthop
/// resolution (an XRL round trip to the RIB) happens here.
const PROBE_WARMUP: usize = 20;
/// Sample one churn UPDATE in this many.
const CHURN_SAMPLE_EVERY: usize = 4;
/// A phase that has not converged by now never will.
const STALL: Duration = Duration::from_secs(120);

/// How much work one run does.
#[derive(Debug, Clone)]
pub struct Plan {
    pub table_routes: usize,
    /// Routes in the warm-up cycle that is part of every set-up.
    pub warm_routes: usize,
    /// Set-ups per run (the median is reported, the last one is used).
    pub setups: usize,
    /// Bulk cycles repeat until this much time has gone into them ...
    pub cycle_budget: Duration,
    /// ... but there are at least this many.
    pub min_cycles: u32,
    /// Rounds of (probes, churn) at full table.
    pub rounds: usize,
    /// Probe blocks per round.
    pub probe_blocks: usize,
    /// Churn per round.
    pub churn: Duration,
}

impl Plan {
    /// The measured run: a third of `seconds` for bulk cycles (at least
    /// three), a fifth for churn in twelve rounds; the rest is set-up,
    /// draining and the checks between phases.  No probes: their latency
    /// did not repeat well enough to gate and lives in the ledger.
    pub fn full(seconds: f64) -> Plan {
        let rounds = 12;
        Plan {
            table_routes: TABLE_ROUTES,
            warm_routes: 4096,
            setups: 5,
            cycle_budget: Duration::from_secs_f64(seconds / 3.0),
            // Three, so that batch 1 (12 s a cycle) has more than a sample
            // or two.
            min_cycles: 3,
            rounds,
            probe_blocks: 0,
            churn: Duration::from_secs_f64(seconds * 0.20 / rounds as f64),
        }
    }

    /// The scenario as the traced run uses it: one bulk cycle for the
    /// outside counters, two rounds with probes for the diagnostics.
    pub fn beside_walk(seconds: f64) -> Plan {
        Plan {
            setups: 1,
            cycle_budget: Duration::ZERO,
            min_cycles: 1,
            rounds: 2,
            probe_blocks: 2,
            ..Plan::full(seconds)
        }
    }

    /// Smoke-test size: a 10k table and a few seconds.  Never reported.
    pub fn quick() -> Plan {
        Plan {
            table_routes: 10_000,
            warm_routes: 1024,
            setups: 2,
            cycle_budget: Duration::from_millis(500),
            min_cycles: 1,
            rounds: 2,
            probe_blocks: 1,
            churn: Duration::from_millis(700),
        }
    }
}

/// Operations attempted and failed; each failure is reported on stderr as
/// it happens.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn ops(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// One check: counts as attempted, and as failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(1, what());
        }
    }

    pub fn fail(&mut self, n: u64, what: String) {
        self.failed += n;
        eprintln!("FAILED: {what}");
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What a scenario run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Ledger entries the scenario can see from outside (`proc.*`, `q.*`,
    /// diagnostics); the traced run adds the layer walk's.
    pub ledger: BTreeMap<&'static str, f64>,
    /// Nanoseconds per route of the first announce half-cycle, start to
    /// FIB complete, for the walk's pipeline ratio.
    pub add_ns_per_route: f64,
    pub tally: Tally,
}

/// A started router with its table and the model of what it should hold.
struct Bench {
    router: MultiProcessRouter,
    table: Vec<BackboneRoute>,
    oracle: Oracle,
}

impl Bench {
    /// Wait (polling) until the FIB's size is `target`.
    fn fib_is(&self, target: usize) -> bool {
        self.router
            .wait_for(STALL, || self.router.fea_route_count() == target)
    }

    /// Announce (or withdraw) the first `routes` of the table in 64-route
    /// UPDATEs and wait for the FIB to hold (or have lost) them all.
    /// Returns the time from the first posted UPDATE to FIB complete.
    fn bulk(&mut self, announce: bool, routes: usize, tally: &mut Tally) -> Duration {
        // The oracle first: its bookkeeping must not compete with the
        // router for the two cores while the clock runs.
        for r in &self.table[..routes] {
            if announce {
                let std::net::IpAddr::V4(nexthop) = r.attrs.nexthop else {
                    unreachable!("the table is IPv4")
                };
                self.oracle
                    .announce(TABLE_PEER, &r.net, r.attrs.as_path.path_len(), nexthop);
            } else {
                self.oracle.withdraw(TABLE_PEER, &r.net);
            }
        }
        let start = Instant::now();
        for chunk in self.table[..routes].chunks(UPDATE_ROUTES) {
            let update = if announce {
                gen::announce(chunk)
            } else {
                gen::withdraw(chunk)
            };
            self.router.apply_update(TABLE_PEER, update);
        }
        let ok = self.fib_is(self.oracle.fib_routes());
        let took = start.elapsed();
        tally.ops(routes);
        if !ok {
            let what = if announce { "announce" } else { "withdrawal" };
            tally.fail(routes as u64, format!("{what} of {routes} routes stalled"));
        }
        took
    }

    /// Compare the three processes' table sizes with the oracle's.
    fn check_counts(&self, phase: &str, tally: &mut Tally) {
        let want = (
            self.oracle.bgp_routes(),
            self.oracle.fib_routes(),
            self.oracle.fib_routes(),
        );
        let got = (
            self.router.bgp_route_count(),
            self.router.rib_route_count(),
            self.router.fea_route_count(),
        );
        tally.check(got == want, || {
            format!("after {phase}: (bgp, rib, fib) routes {got:?}, oracle {want:?}")
        });
    }

    /// (batches, rows) the RIB has applied through `apply_batch` so far.
    fn rib_batches(&self) -> (u64, u64) {
        match self.router.metrics.get("rib.batch_size") {
            Some(MetricValue::Histogram(h)) => (h.count, h.sum),
            _ => (0, 0),
        }
    }

    fn gauge_max(&self, name: &str) -> f64 {
        match self.router.metrics.get(name) {
            Some(MetricValue::Gauge { max, .. }) => max.max(0) as f64,
            _ => 0.0,
        }
    }

    fn counter(&self, name: &str) -> u64 {
        match self.router.metrics.get(name) {
            Some(MetricValue::Counter(v)) => v,
            _ => 0,
        }
    }
}

/// Per-thread CPU time at one instant, for the `proc.*` ledger entries.
struct CpuSnap {
    threads: BTreeMap<String, u64>,
    driver: u64,
}

impl CpuSnap {
    fn take() -> CpuSnap {
        CpuSnap {
            threads: procfs::thread_cpu_ns(),
            driver: procfs::self_cpu_ns(),
        }
    }

    /// CPU nanoseconds since the snapshot, by ledger name.  The XRL reader
    /// threads (one per connection, all named alike) are summed.
    fn used(&self) -> BTreeMap<&'static str, u64> {
        let now = CpuSnap::take();
        let mut used: BTreeMap<&'static str, u64> = [
            ("proc.bgp.cpu_ns", "proc-bgp"),
            ("proc.rib.cpu_ns", "proc-rib"),
            ("proc.fea.cpu_ns", "proc-fea"),
            ("proc.xrl_read.cpu_ns", "xrl-tcp-read"),
        ]
        .into_iter()
        .map(|(metric, thread)| {
            (
                metric,
                procfs::cpu_delta(&self.threads, &now.threads, thread),
            )
        })
        .collect();
        used.insert("proc.driver.cpu_ns", now.driver.saturating_sub(self.driver));
        used
    }
}

/// Build the inputs and the router and run the warm-up cycle; returns the
/// bench and how long all of that took.
fn set_up(wl: &Workload, seed: u64, plan: &Plan, tally: &mut Tally) -> (Bench, Duration) {
    let start = Instant::now();
    let table = gen::table(seed, plan.table_routes);
    let router = MultiProcessRouter::new(RouterOptions {
        batch_size: wl.batch_size,
        ..RouterOptions::default()
    });
    let mut bench = Bench {
        router,
        table,
        oracle: Oracle::with_connected(),
    };
    let up = bench.fib_is(1);
    tally.check(up, || "connected route never reached the FIB".into());
    // Warm-up: allocator pools, XRL resolution and connections, and the
    // table peer's first nexthop resolution all happen here, untimed.
    bench.bulk(true, plan.warm_routes, tally);
    bench.bulk(false, plan.warm_routes, tally);
    (bench, start.elapsed())
}

/// Run the scenario for one workload.
pub fn run(wl: &Workload, seed: u64, plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let mut tally = Tally::default();
    let mut rng = Rng::new(seed ^ 0x5eed_c0de);

    // ---- set-up, several times; keep the last ------------------------------
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..plan.setups {
        if let Some(Bench { router, .. }) = bench.take() {
            router.stop();
        }
        let (b, took) = set_up(wl, seed, plan, &mut tally);
        setup_s.push(took.as_secs_f64());
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");
    out.e2e.insert("setup_s", median(&setup_s));
    let n = plan.table_routes;

    // ---- bulk cycles, with the rounds inside the first ---------------------
    let (mut add_rates, mut del_rates) = (Vec::new(), Vec::new());
    let mut bulk_spent = Duration::ZERO;
    let mut cycles = 0;
    loop {
        let first = cycles == 0;
        let rss_before = procfs::rss_bytes();
        let cpu = CpuSnap::take();
        let batches_before = bench.rib_batches();
        let add = bench.bulk(true, n, &mut tally);
        let mut cpu_used = cpu.used();
        bench.check_counts("bulk announce", &mut tally);

        if first {
            out.add_ns_per_route = add.as_nanos() as f64 / n as f64;
            let (frames, rows) = bench.rib_batches();
            let (frames, rows) = (frames - batches_before.0, rows - batches_before.1);
            out.ledger.insert(
                "batch.rib_fill_ratio",
                match frames {
                    // The per-route path never calls apply_batch: every
                    // frame carries its one route.
                    0 => 1.0,
                    _ => rows as f64 / frames as f64 / wl.batch_size as f64,
                },
            );
            let rss = procfs::rss_bytes().saturating_sub(rss_before);
            out.e2e.insert("rss_full_table_mb", rss as f64 / 1e6);
            rounds(&mut bench, wl, &mut rng, plan, &mut out, &mut tally);
        }
        let cpu = CpuSnap::take();
        let del = bench.bulk(false, n, &mut tally);
        if first {
            // CPU the router's threads and the driver burned over the two
            // bulk halves, per route handled.
            for (name, ns) in cpu.used() {
                *cpu_used.entry(name).or_insert(0) += ns;
            }
            let total: u64 = cpu_used.values().sum();
            for (name, ns) in cpu_used {
                out.ledger.insert(name, ns as f64 / (2 * n) as f64);
            }
            let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
            out.ledger.insert(
                "proc.cpu_util",
                total as f64 / ((add + del).as_nanos() as f64 * cores as f64),
            );
        }
        bench.check_counts("bulk withdraw", &mut tally);

        add_rates.push(n as f64 / add.as_secs_f64());
        del_rates.push(n as f64 / del.as_secs_f64());
        eprintln!(
            "cycle {cycles}: add {:.0} routes/s, del {:.0}",
            add_rates[cycles as usize], del_rates[cycles as usize]
        );
        cycles += 1;
        bulk_spent += add + del;
        if cycles >= plan.min_cycles && bulk_spent + bulk_spent / cycles > plan.cycle_budget {
            break;
        }
    }
    out.e2e.insert("add_routes_per_s", trimmed_mean(&add_rates));
    out.e2e.insert("del_routes_per_s", trimmed_mean(&del_rates));

    // ---- what the router's own registry saw --------------------------------
    for (metric, gauge) in [
        ("q.bgp.event_depth_max", "bgp.event.bulk_depth"),
        ("q.rib.event_depth_max", "rib.event.bulk_depth"),
        ("q.fea.event_depth_max", "fea.event.bulk_depth"),
        ("q.bgp.xrl_pending_max", "bgp.xrl.pending"),
        ("q.rib.xrl_pending_max", "rib.xrl.pending"),
        ("q.bgp.fanout_len_max", "bgp.fanout.queue_len"),
    ] {
        out.ledger.insert(metric, bench.gauge_max(gauge));
    }
    let sum = |suffix: &str| -> u64 {
        ["bgp", "rib", "fea"]
            .iter()
            .map(|p| bench.counter(&format!("{p}.{suffix}")))
            .sum()
    };
    let (shed, retransmit) = (sum("xrl.shed_total"), sum("xrl.retransmit_total"));
    out.ledger.insert("xrl.shed_total", shed as f64);
    out.ledger.insert("xrl.retransmit_total", retransmit as f64);
    if shed > 0 {
        tally.fail(shed, format!("{shed} XRL frames shed"));
    }
    let alive = bench.router.bgp_alive();
    tally.check(alive, || "the BGP process died".into());
    bench.router.stop();

    out.tally = tally;
    out
}

/// `trace.overhead_ratio`: time for a bulk cycle with one UPDATE in 64
/// traced, over the time with tracing dormant — on a 16k-route table so
/// that two alternating pairs fit the traced run.
pub fn trace_overhead(wl: &Workload, seed: u64, tally: &mut Tally) -> f64 {
    const ROUTES: usize = 16_384;
    let plan = Plan {
        table_routes: ROUTES,
        ..Plan::quick()
    };
    let (mut bench, _) = set_up(wl, seed, &plan, tally);
    let (mut dormant, mut sampled) = (Vec::new(), Vec::new());
    for _ in 0..2 {
        for (every, times) in [(0, &mut dormant), (64, &mut sampled)] {
            bench.router.tracer.set_sampling(every);
            let cycle = bench.bulk(true, ROUTES, tally) + bench.bulk(false, ROUTES, tally);
            times.push(cycle.as_secs_f64());
        }
    }
    bench.router.tracer.set_sampling(0);
    bench.router.stop();
    median(&sampled) / median(&dormant)
}

/// The rounds at full table: probes and churn in turn, `plan.rounds`
/// times over.
fn rounds(
    bench: &mut Bench,
    wl: &Workload,
    rng: &mut Rng,
    plan: &Plan,
    out: &mut Outcome,
    tally: &mut Tally,
) {
    // Inputs for all rounds up front, so generating them is not between
    // the measurements.
    let per_round = PROBE_BLOCK * plan.probe_blocks;
    let order = gen::probe_order(rng, (PROBE_WARMUP + plan.rounds * per_round) as u32);
    let updates_per_s = wl.churn_routes_per_s / CHURN_UPDATE_ROUTES as u64;
    let per_segment = (plan.churn.as_secs_f64() * updates_per_s as f64) as usize;
    let schedule = gen::churn_schedule(rng, &bench.table, plan.rounds * per_segment);

    if plan.probe_blocks > 0 {
        probe_block(bench, &order[..PROBE_WARMUP], &mut Tally::default());
    }
    let (mut probe_p50, mut probe_p90, mut probe_all) = (Vec::new(), Vec::new(), Vec::new());
    let (mut churn_p50, mut churn_p90, mut churn_all) = (Vec::new(), Vec::new(), Vec::new());
    let (mut late_ms, mut backlog) = (Vec::new(), 0);
    // UPDATEs BGP has seen with sampling on; it samples every
    // `CHURN_SAMPLE_EVERY`-th of them.
    let mut arrivals = 0;
    for round in 0..plan.rounds {
        for block in 0..plan.probe_blocks {
            let at = PROBE_WARMUP + round * per_round + block * PROBE_BLOCK;
            let ms = probe_block(bench, &order[at..at + PROBE_BLOCK], tally);
            if !ms.is_empty() {
                probe_p50.push(percentile(&ms, 0.50));
                probe_p90.push(percentile(&ms, 0.90));
                probe_all.extend(ms);
            }
        }
        bench.check_counts("probes", tally);

        let segment = &schedule[round * per_segment..(round + 1) * per_segment];
        let interval_ns = 1_000_000_000 / updates_per_s;
        let churned = churn_segment(bench, segment, interval_ns, &mut arrivals, tally);
        if !churned.latency_ms.is_empty() {
            churn_p50.push(percentile(&churned.latency_ms, 0.50));
            churn_p90.push(percentile(&churned.latency_ms, 0.90));
            churn_all.extend(churned.latency_ms);
        }
        late_ms.extend(churned.late_ms);
        backlog += churned.backlog;
    }

    if !probe_all.is_empty() {
        eprintln!("probe p50 by block: {probe_p50:.3?} ms");
        eprintln!("probe p90 by block: {probe_p90:.3?} ms");
        out.ledger.insert("probe.p50_ms", trimmed_mean(&probe_p50));
        out.ledger.insert("probe.p90_ms", trimmed_mean(&probe_p90));
        out.ledger
            .insert("probe.p99_ms", percentile(&probe_all, 0.99));
        out.ledger
            .insert("probe.max_ms", percentile(&probe_all, 1.0));
    }
    if !churn_all.is_empty() {
        eprintln!("churn p50 by round: {churn_p50:.3?} ms");
        eprintln!("churn p90 by round: {churn_p90:.3?} ms");
        out.e2e.insert("churn_p50_ms", trimmed_mean(&churn_p50));
        out.ledger.insert("churn.p90_ms", trimmed_mean(&churn_p90));
        out.ledger
            .insert("churn.p99_ms", percentile(&churn_all, 0.99));
        out.ledger
            .insert("churn.late_p90_ms", percentile(&late_ms, 0.90));
        out.ledger.insert("churn.backlog_end", backlog as f64);
    }
    // ---- hand the table back as the bulk withdraw expects it (untimed) -----
    let held = bench.oracle.held_by(CHURN_PEER);
    for chunk in held.chunks(UPDATE_ROUTES) {
        bench.router.apply_update(
            CHURN_PEER,
            xorp_bgp::bgp::UpdateIn {
                withdrawn: chunk.to_vec(),
                announce: None,
            },
        );
        for net in chunk {
            bench.oracle.withdraw(CHURN_PEER, net);
        }
    }
    let settled = bench.fib_is(bench.oracle.fib_routes())
        && bench.router.wait_for(STALL, || {
            bench.router.bgp_route_count() == bench.oracle.bgp_routes()
        });
    tally.check(settled, || "churn peer's routes never drained".into());
    bench.check_counts("churn clean-up", tally);
}

/// Closed loop, one client.  Each probe announces one prefix on the churn
/// peer, waits for it to reach the FIB, withdraws it and waits again.
/// Latency is read from the router's own §8.2 stamps (`BGP_IN` to
/// `KERNEL`), so the polling interval below paces the probes but is not in
/// the measurement.  Returns the latencies in milliseconds.
fn probe_block(bench: &Bench, probes: &[u32], tally: &mut Tally) -> Vec<f64> {
    let profiler = &bench.router.profiler;
    profiler.enable(points::BGP_IN);
    profiler.enable(points::KERNEL);
    profiler.clear();

    let mut latencies_ms = Vec::with_capacity(probes.len());
    for &probe in probes {
        let net = gen::probe_net(probe);
        let reached = |key: &str| -> Option<u64> {
            let deadline = Instant::now() + Duration::from_secs(2);
            loop {
                if let Some(rec) = profiler
                    .take(points::KERNEL)
                    .into_iter()
                    .find(|r| r.payload == key)
                {
                    return Some(rec.nanos);
                }
                if Instant::now() > deadline {
                    return None;
                }
                std::thread::sleep(Duration::from_micros(100));
            }
        };
        bench
            .router
            .announce_one(CHURN_PEER, net, gen::CHURN_NEXTHOP);
        let add_key = format!("add {net}");
        let installed = reached(&add_key);
        let entered = profiler
            .take(points::BGP_IN)
            .into_iter()
            .find(|r| r.payload == add_key)
            .map(|r| r.nanos);
        bench.router.withdraw_one(CHURN_PEER, net);
        let removed = reached(&format!("del {net}"));
        tally.ops(2);
        match (entered, installed, removed) {
            (Some(t0), Some(t1), Some(_)) => latencies_ms.push((t1 - t0) as f64 / 1e6),
            _ => tally.fail(1, format!("probe {net} timed out")),
        }
    }
    profiler.disable(points::BGP_IN);
    profiler.disable(points::KERNEL);
    profiler.clear();
    latencies_ms
}

/// What one churn segment measured.
struct Churned {
    /// Per sampled UPDATE: due time to the end of its last `fea` span.
    latency_ms: Vec<f64>,
    /// Per UPDATE: how late the generator sent it.
    late_ms: Vec<f64>,
    /// Sampled UPDATEs still unserved when the schedule ended.
    backlog: u64,
}

/// Open loop.  16-route UPDATEs leave on a fixed schedule whether or not
/// the router keeps up; one UPDATE in four is traced, and its latency runs
/// from the moment it was *due* to the end of its last `fea` span, so time
/// a stalled generator or a queue added is counted.
fn churn_segment(
    bench: &mut Bench,
    schedule: &[ChurnUpdate],
    interval_ns: u64,
    arrivals: &mut usize,
    tally: &mut Tally,
) -> Churned {
    let attrs = gen::churn_attrs();
    let tracer = bench.router.tracer.clone();
    let count = schedule.len();
    // The tracer keeps a bounded ring per process; empty the rings as the
    // segment goes so a long one loses no span.
    let mut spans = Vec::new();
    let drain = |spans: &mut Vec<_>| {
        for process in ["bgp", "rib", "fea"] {
            spans.extend(tracer.drain(process, usize::MAX).spans);
        }
    };

    tracer.set_sampling(CHURN_SAMPLE_EVERY as u64);
    let start_ns = tracer.now_ns() + 1_000_000;
    let mut late_ms = Vec::with_capacity(count);
    for (k, update) in schedule.iter().enumerate() {
        if k % 1024 == 1023 {
            drain(&mut spans);
        }
        let due = start_ns + k as u64 * interval_ns;
        loop {
            let now = tracer.now_ns();
            if now >= due {
                late_ms.push((now - due) as f64 / 1e6);
                break;
            }
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        bench
            .router
            .apply_update(CHURN_PEER, update.to_update(&attrs));
        bench.oracle.apply_churn(update);
    }
    let schedule_end_ns = start_ns + count as u64 * interval_ns;
    tally.ops(count * CHURN_UPDATE_ROUTES);

    // The pipeline is FIFO end to end, so when this prefix shows up in the
    // FIB everything scheduled before it has been served.
    let sentinel = gen::sentinel_net();
    bench
        .router
        .announce_one(CHURN_PEER, sentinel, gen::CHURN_NEXTHOP);
    bench
        .oracle
        .announce(CHURN_PEER, &sentinel, 0, gen::CHURN_NEXTHOP);
    // (How much was still unserved when the schedule ended shows in the
    // latencies and in `churn.backlog_end`; only never draining is a
    // failure — a host stall of a second or two is not the router's.)
    let drained = bench.fib_is(bench.oracle.fib_routes());
    tally.check(drained, || "churn never drained".into());
    tracer.set_sampling(0);
    // BGP samples every `CHURN_SAMPLE_EVERY`-th UPDATE it sees while
    // sampling is on: this segment's, and the sentinel's.
    let first_sampled = (CHURN_SAMPLE_EVERY - *arrivals % CHURN_SAMPLE_EVERY) % CHURN_SAMPLE_EVERY;
    *arrivals += count + 1;
    bench.router.withdraw_one(CHURN_PEER, sentinel);
    bench.oracle.withdraw(CHURN_PEER, &sentinel);
    let gone = bench.fib_is(bench.oracle.fib_routes());
    tally.check(gone, || "churn sentinel never left the FIB".into());
    bench.check_counts("churn", tally);

    // ---- latency of each sampled UPDATE ------------------------------------
    drain(&mut spans);
    let views = stitch_spans(spans);
    let sampled: Vec<usize> = (first_sampled..count).step_by(CHURN_SAMPLE_EVERY).collect();
    // Roots come out in the order BGP took the UPDATEs in; one more may
    // follow for the sentinel.
    let roots: Vec<u64> = views
        .iter()
        .filter(|v| v.is_root())
        .map(|v| v.trace_id)
        .take(sampled.len())
        .collect();
    tally.check(roots.len() == sampled.len(), || {
        format!(
            "{} of {} sampled churn UPDATEs left a trace",
            roots.len(),
            sampled.len()
        )
    });
    let mut latency_ms = Vec::with_capacity(sampled.len());
    let mut backlog = 0;
    for (&k, &trace_id) in sampled.iter().zip(&roots) {
        // The FEA records a span when it installs, not when it deletes,
        // so an UPDATE that only removes FIB entries has no stopwatch.
        if schedule[k].kind == gen::ChurnKind::Drop {
            continue;
        }
        let due = start_ns + k as u64 * interval_ns;
        let done = causal_spans(&views, trace_id)
            .iter()
            .filter(|s| s.point == "fea")
            .map(|s| s.end_ns)
            .max();
        match done {
            Some(done) => {
                latency_ms.push(done.saturating_sub(due) as f64 / 1e6);
                backlog += u64::from(done > schedule_end_ns);
            }
            None => tally.fail(1, format!("sampled churn UPDATE {k} never reached the FEA")),
        }
    }
    Churned {
        latency_ms,
        late_ms,
        backlog,
    }
}
