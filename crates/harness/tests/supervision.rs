//! End-to-end supervision tests: kill the BGP process out from under a
//! running router and watch the rtrmgr prober classify the crash, restart
//! it with backoff, and — the tentpole — keep its routes installed as
//! *stale* through the grace window instead of flushing them (§4.1
//! relaxed to graceful restart).  A control run without supervision keeps
//! the original flush-on-death behaviour, and exhausting the restart
//! budget degrades the component and flushes immediately.
//!
//! Timings are generous multiples of the configured intervals so the
//! tests stay deterministic on loaded CI machines.

use std::time::{Duration, Instant};

use xorp_harness::figures::{counter_value, gauge_value};
use xorp_harness::router::{MultiProcessRouter, RouterOptions};
use xorp_harness::workload::{backbone_table, WorkloadConfig};
use xorp_rtrmgr::{SupervisedState, SupervisorConfig};
use xorp_xrl::QueuePolicy;

/// A supervision config tuned for test speed: probes every 40 ms, three
/// misses classify a crash, restarts come after `backoff_base * 2^(n-1)`.
fn test_supervision(backoff_base_ms: u64, budget: u32, grace: Duration) -> SupervisorConfig {
    SupervisorConfig {
        keepalive_interval: Duration::from_millis(40),
        miss_threshold: 3,
        backoff_base: Duration::from_millis(backoff_base_ms),
        backoff_max: Duration::from_millis(800),
        restart_budget: budget,
        grace_period: grace,
        overload_budget: Duration::from_secs(30),
    }
}

fn supervised_router(cfg: SupervisorConfig) -> MultiProcessRouter {
    MultiProcessRouter::new(RouterOptions {
        supervision: Some(cfg),
        ..Default::default()
    })
}

/// Announce three routes from peer 1 and wait for full convergence
/// (3 EBGP + the pre-installed connected route = 4 everywhere).
fn converge_three_routes(router: &MultiProcessRouter) {
    router.announce_one(
        1,
        "10.1.0.0/16".parse().unwrap(),
        "192.168.1.1".parse().unwrap(),
    );
    router.announce_one(
        1,
        "10.2.0.0/16".parse().unwrap(),
        "192.168.1.1".parse().unwrap(),
    );
    router.announce_one(
        1,
        "10.3.0.0/16".parse().unwrap(),
        "192.168.1.1".parse().unwrap(),
    );
    assert!(
        router.wait_for(Duration::from_secs(10), || router.rib_route_count() == 4
            && router.fea_route_count() == 4),
        "initial convergence failed: rib={} fea={}",
        router.rib_route_count(),
        router.fea_route_count()
    );
}

/// The tentpole scenario: kill BGP mid-session.  Routes must stay
/// installed (stale) through the grace window, the supervisor must
/// restart the process with backoff, and the replayed session must
/// re-advertise and un-stale every route — no withdrawal ever reaches
/// the FEA.
#[test]
fn supervised_bgp_death_preserves_routes_through_graceful_restart() {
    // Backoff long enough (300 ms) that the stale window is reliably
    // observable before the respawned process re-advertises; grace long
    // enough (3 s) that the sweep cannot fire before re-learning.
    let router = supervised_router(test_supervision(300, 5, Duration::from_secs(3)));
    converge_three_routes(&router);
    assert_eq!(
        router.supervisor_state("bgp"),
        Some(SupervisedState::Healthy)
    );

    router.kill("bgp");
    assert!(!router.bgp_alive());

    // Death marks the EBGP routes stale — but nothing is withdrawn.
    assert!(
        router.wait_for(Duration::from_secs(5), || router.rib_stale_count() == 3),
        "routes were not marked stale: stale={} rib={}",
        router.rib_stale_count(),
        router.rib_route_count()
    );
    assert_eq!(
        router.rib_route_count(),
        4,
        "stale routes must stay installed"
    );
    assert_eq!(
        router.fea_route_count(),
        4,
        "no withdrawal may reach the FEA"
    );

    // The prober classifies the crash and respawns with backoff; the
    // restarted process replays its session and re-advertises, clearing
    // every stale mark.
    assert!(
        router.wait_for(Duration::from_secs(10), || router.supervised_restarts()
            >= 1
            && router.bgp_alive()
            && router.rib_stale_count() == 0),
        "supervised restart did not recover: restarts={} alive={} stale={}",
        router.supervised_restarts(),
        router.bgp_alive(),
        router.rib_stale_count()
    );
    assert_eq!(
        router.supervisor_state("bgp"),
        Some(SupervisedState::Healthy)
    );

    // Outlive the grace window: the sweep must find nothing left to
    // withdraw, because everything was re-learned.
    std::thread::sleep(Duration::from_millis(3500));
    assert_eq!(
        router.rib_route_count(),
        4,
        "sweep withdrew re-learned routes"
    );
    assert_eq!(router.fea_route_count(), 4);
    assert_eq!(router.rib_stale_count(), 0);

    router.stop();
}

/// Control run: the identical kill without supervision flushes the dead
/// protocol's routes immediately — the PR-1 behaviour is unchanged.
#[test]
fn unsupervised_bgp_death_still_flushes_immediately() {
    let router = MultiProcessRouter::new(RouterOptions::default());
    converge_three_routes(&router);
    assert_eq!(router.supervisor_state("bgp"), None);

    router.kill("bgp");
    assert!(
        router.wait_for(Duration::from_secs(10), || router.rib_route_count() == 1
            && router.fea_route_count() == 1),
        "unsupervised death did not flush: rib={} fea={}",
        router.rib_route_count(),
        router.fea_route_count()
    );
    assert_eq!(router.supervised_restarts(), 0);
    router.stop();
}

/// Exhausting the restart budget trips the circuit breaker: the component
/// degrades (no more respawns) and its routes are flushed — permanent
/// death gets the immediate-flush policy, grace notwithstanding.
#[test]
fn restart_budget_exhaustion_degrades_and_flushes() {
    // Budget of 2, and every respawn crashes right after coming up.  The
    // long grace period proves the flush comes from the Degraded verdict,
    // not from a sweep timer.
    let router = supervised_router(test_supervision(50, 2, Duration::from_secs(60)));
    converge_three_routes(&router);

    router.set_crash_on_spawn("bgp", 100);
    router.kill("bgp");

    assert!(
        router.wait_for(Duration::from_secs(20), || {
            router.supervisor_state("bgp") == Some(SupervisedState::Degraded)
        }),
        "budget exhaustion never degraded: state={:?} restarts={}",
        router.supervisor_state("bgp"),
        router.supervised_restarts()
    );
    assert_eq!(
        router.supervised_restarts(),
        2,
        "degraded component must stop being restarted at its budget"
    );

    // The Degraded verdict flushes over XRL; only the connected route
    // survives.
    assert!(
        router.wait_for(Duration::from_secs(10), || router.rib_route_count() == 1
            && router.fea_route_count() == 1),
        "degraded flush never happened: rib={} fea={}",
        router.rib_route_count(),
        router.fea_route_count()
    );

    // The breaker is sticky: no further restarts happen.
    std::thread::sleep(Duration::from_millis(500));
    assert_eq!(router.supervised_restarts(), 2);
    assert_eq!(
        router.supervisor_state("bgp"),
        Some(SupervisedState::Degraded)
    );
    router.stop();
}

/// Overload satellite: a saturated-but-alive process must never be
/// mistaken for a dead one.  A slow RIB plus tight watermarks keep the
/// BGP→RIB data lane congested (Xoff in force, reader paused) while the
/// supervisor's keepalives ride the priority lane — so every probe lands,
/// the component stays Healthy, and zero restarts happen.  Backpressure
/// holds the excess in the fanout rather than shedding it, so the storm
/// still converges exactly.
#[test]
fn saturated_bgp_is_probed_alive_and_never_restarted() {
    let router = MultiProcessRouter::new(RouterOptions {
        supervision: Some(test_supervision(300, 5, Duration::from_secs(30))),
        overload: QueuePolicy {
            high_watermark: 16,
            low_watermark: 4,
            hard_cap: 1024,
        },
        // Each route ack is held 2 ms: ~16 outstanding per 2 ms of drain
        // means seconds of sustained congestion for a few thousand routes.
        rib_delay_ms: 2,
        ..Default::default()
    });
    converge_three_routes(&router);
    assert_eq!(
        router.supervisor_state("bgp"),
        Some(SupervisedState::Healthy)
    );

    let table = backbone_table(&WorkloadConfig {
        routes: 3000,
        ..Default::default()
    });
    for batch in table.chunks(64) {
        router.feed_backbone(1, batch);
    }
    assert!(
        router.wait_for(Duration::from_secs(10), || router.bgp_congested()),
        "storm never congested the BGP→RIB lane"
    );

    // A supervision keepalive must land while the data lane is saturated
    // (it bypasses the congested queue entirely).
    assert!(
        router.probe_bgp_latency(Duration::from_secs(2)).is_some(),
        "priority probe starved behind the data backlog"
    );

    // Sample through the storm: busy-but-alive is never acted on.  A
    // transient Suspect from host CPU starvation (a loaded CI machine
    // can delay even priority probes) is tolerated — the claims that
    // must hold are: the process is never torn down, never restarted,
    // and never escalated to Degraded inside its overload budget.
    for _ in 0..25 {
        assert!(router.bgp_alive(), "saturated process was torn down");
        assert_ne!(
            router.supervisor_state("bgp"),
            Some(SupervisedState::Degraded),
            "saturation must not degrade the component within its budget"
        );
        assert_eq!(
            router.supervised_restarts(),
            0,
            "saturated process must NOT be restarted"
        );
        std::thread::sleep(Duration::from_millis(40));
    }

    // Backpressure, not loss: the full table converges and nothing was
    // shed at the hard cap.
    assert!(
        router.wait_for(Duration::from_secs(60), || router.rib_route_count() == 3004
            && router.fea_route_count() == 3004),
        "storm did not converge: rib={} fea={} shed={}",
        router.rib_route_count(),
        router.fea_route_count(),
        counter_value(&router, "bgp.xrl.shed_total")
    );
    assert_eq!(
        counter_value(&router, "bgp.xrl.shed_total"),
        0,
        "data frames must be held back, never shed"
    );
    assert_eq!(router.supervised_restarts(), 0);
    // Any starvation-induced Suspect streak heals once the storm drains:
    // the verdict settles back to Healthy with zero restarts spent.
    assert!(
        router.wait_for(Duration::from_secs(5), || router.supervisor_state("bgp")
            == Some(SupervisedState::Healthy)),
        "verdict did not settle back to Healthy: {:?}",
        router.supervisor_state("bgp")
    );
    assert_eq!(router.supervised_restarts(), 0);
    router.stop();
}

/// Soak: repeated kill/restart cycles, each of which must fully recover
/// (alive, no stale routes, full table) without eating into correctness.
/// Exercises cumulative backoff growth and replay across generations.
#[test]
fn repeated_kill_restart_cycles_recover_every_time() {
    let router = supervised_router(test_supervision(50, 10, Duration::from_secs(30)));
    converge_three_routes(&router);

    for cycle in 1..=3u32 {
        router.kill("bgp");
        assert!(
            router.wait_for(Duration::from_secs(20), || router.supervised_restarts()
                >= cycle
                && router.bgp_alive()
                && router.rib_stale_count() == 0
                && router.rib_route_count() == 4),
            "cycle {cycle} did not recover: restarts={} alive={} stale={} rib={}",
            router.supervised_restarts(),
            router.bgp_alive(),
            router.rib_stale_count(),
            router.rib_route_count()
        );
        assert_eq!(
            router.supervisor_state("bgp"),
            Some(SupervisedState::Healthy)
        );
        // Let the supervisor observe a healthy probe or two between kills.
        std::thread::sleep(Duration::from_millis(100));
    }
    assert_eq!(router.fea_route_count(), 4);
    router.stop();
}

/// Wait until `name` is back (a restart past `restarts`), BGP's stale
/// marks are gone, and the FIB and the RIB both hold `expected` routes
/// with the pipeline idle.  Returns the time since `t0`.  The counts pass
/// through `expected` while churn drains, so BGP must first have taken
/// every UPDATE posted to it (a loop query queues behind them), and the
/// state must hold twice, 50 ms apart.
fn recover(
    router: &MultiProcessRouter,
    name: &str,
    restarts: u32,
    expected: usize,
    t0: Instant,
) -> Duration {
    let idle = || {
        ["bgp.fanout.queue_len", "bgp.xrl.pending", "rib.xrl.pending"]
            .iter()
            .all(|g| gauge_value(router, g) == 0)
            && router.rib_fea_backlog() == 0
    };
    let whole = || {
        router.supervised_restarts() > restarts
            && router.alive(name)
            && router.bgp_route_count() + 1 == expected
            && router.rib_stale_count() == 0
            && router.rib_route_count() == expected
            && router.fea_route_count() == expected
            && idle()
    };
    let mut settled = None;
    let recovered = router.wait_for(Duration::from_secs(60), || {
        if !whole() {
            settled = None;
            return false;
        }
        settled.get_or_insert_with(|| t0.elapsed());
        std::thread::sleep(Duration::from_millis(50));
        whole()
    });
    assert!(
        recovered,
        "{name} did not recover: restarts={} alive={} stale={} rib={} fea={} (want {expected}) \
         fanout={} bgp.pending={} rib.pending={} backlog={}",
        router.supervised_restarts(),
        router.alive(name),
        router.rib_stale_count(),
        router.rib_route_count(),
        router.fea_route_count(),
        gauge_value(router, "bgp.fanout.queue_len"),
        gauge_value(router, "bgp.xrl.pending"),
        gauge_value(router, "rib.xrl.pending"),
        router.rib_fea_backlog(),
    );
    settled.expect("recovered")
}

/// The end state every kill must reach: FIB == RIB == table + connected,
/// no consistency violation, nothing shed.
fn assert_whole(router: &MultiProcessRouter, expected: usize) {
    assert_eq!(router.rib_route_count(), expected);
    assert_eq!(router.fea_route_count(), expected);
    assert_eq!(router.rib_violations(), Vec::<String>::new());
    let shed = counter_value(router, "bgp.xrl.shed_total");
    assert_eq!(shed, 0, "bgp shed {shed} frames");
}

/// Every process can die and come back, each re-learning its state from
/// its neighbours: the FEA from the RIB's watcher dump, the RIB from
/// BGP's re-advertisement (the FEA holding its routes stale meanwhile),
/// BGP from the peer model (the RIB holding its routes stale).  Each is
/// killed while a backbone table loads and again during churn, and the
/// RIB once more while the BGP→RIB lane is in Xoff, whose closed flow
/// cell must not park the re-advertisement.  Prints the time from each
/// kill until FIB == RIB == table + connected.
#[test]
fn every_process_is_killed_and_restarted_under_load_churn_and_xoff() {
    const ROUTES: usize = 2000;
    let table = backbone_table(&WorkloadConfig {
        routes: ROUTES,
        ..Default::default()
    });
    let chunks: Vec<_> = table.chunks(64).collect();
    let router_with = |options: RouterOptions| {
        MultiProcessRouter::new(RouterOptions {
            supervision: Some(test_supervision(50, 5, Duration::from_secs(30))),
            consistency_check: true,
            ..options
        })
    };
    for name in ["fea", "rib", "bgp"] {
        // Killed while the table loads.
        let router = router_with(RouterOptions::default());
        let mut t0 = Instant::now();
        for (i, batch) in chunks.iter().enumerate() {
            if i == chunks.len() / 2 {
                t0 = Instant::now();
                router.kill(name);
            }
            router.feed_backbone(1, batch);
        }
        let took = recover(&router, name, 0, ROUTES + 1, t0);
        assert_whole(&router, ROUTES + 1);
        println!(
            "kill {name} (load): FIB == RIB after {} ms",
            took.as_millis()
        );
        router.stop();

        // Killed during churn: each round withdraws and re-announces every
        // chunk in turn.
        let router = router_with(RouterOptions::default());
        for batch in &chunks {
            router.feed_backbone(1, batch);
        }
        assert!(
            router.wait_for(Duration::from_secs(30), || router.fea_route_count()
                == ROUTES + 1),
            "initial load did not converge: fea={}",
            router.fea_route_count()
        );
        let mut t0 = Instant::now();
        for round in 0..3 {
            for (i, batch) in chunks.iter().enumerate() {
                if round == 1 && i == chunks.len() / 2 {
                    t0 = Instant::now();
                    router.kill(name);
                }
                router.withdraw_backbone(1, batch);
                router.feed_backbone(1, batch);
            }
        }
        let took = recover(&router, name, 0, ROUTES + 1, t0);
        assert_whole(&router, ROUTES + 1);
        println!(
            "kill {name} (churn): FIB == RIB after {} ms",
            took.as_millis()
        );
        router.stop();
    }

    // Killed while the BGP→RIB lane is in Xoff: a slow RIB and tight
    // watermarks, as in `saturated_bgp_is_probed_alive_and_never_restarted`.
    let router = router_with(RouterOptions {
        overload: QueuePolicy {
            high_watermark: 16,
            low_watermark: 4,
            hard_cap: 1024,
        },
        rib_delay_ms: 2,
        ..Default::default()
    });
    for batch in &chunks {
        router.feed_backbone(1, batch);
    }
    assert!(
        router.wait_for(Duration::from_secs(10), || router.bgp_congested()),
        "the load never congested the BGP→RIB lane"
    );
    let t0 = Instant::now();
    router.kill("rib");
    let took = recover(&router, "rib", 0, ROUTES + 1, t0);
    assert_whole(&router, ROUTES + 1);
    println!("kill rib (xoff): FIB == RIB after {} ms", took.as_millis());
    router.stop();
}

/// A dead RIB's routes stay in the FIB, stale, until the restarted RIB
/// re-sends them: forwarding keeps every route while the RIB restarts.
#[test]
fn fib_holds_a_dead_ribs_routes_through_its_restart() {
    // A 300 ms backoff keeps the RIB down for several probe intervals.
    let router = supervised_router(test_supervision(300, 5, Duration::from_secs(30)));
    converge_three_routes(&router);
    router.kill("rib");
    assert!(!router.alive("rib"));
    for _ in 0..10 {
        assert_eq!(
            router.fea_route_count(),
            4,
            "a dead RIB's route left the FIB"
        );
        std::thread::sleep(Duration::from_millis(30));
    }
    recover(&router, "rib", 0, 4, Instant::now());
    router.stop();
}

/// A RIB that spends its restart budget degrades, and its routes leave
/// the FIB at once instead of waiting out the grace period.
#[test]
fn degraded_rib_flushes_the_fib() {
    let router = supervised_router(test_supervision(50, 2, Duration::from_secs(60)));
    converge_three_routes(&router);
    router.set_crash_on_spawn("rib", 100);
    router.kill("rib");
    assert!(
        router.wait_for(Duration::from_secs(20), || {
            router.supervisor_state("rib") == Some(SupervisedState::Degraded)
        }),
        "budget exhaustion never degraded: state={:?}",
        router.supervisor_state("rib")
    );
    assert!(
        router.wait_for(Duration::from_secs(10), || router.fea_route_count() == 0),
        "degraded flush never reached the FIB: fea={}",
        router.fea_route_count()
    );
    router.stop();
}

/// A peer brought up after spawn is up again after a BGP restart: the
/// peer model records it, and its export feed refills with a dump.
#[test]
fn restarted_bgp_brings_back_a_peer_raised_after_spawn() {
    let router = MultiProcessRouter::new(RouterOptions {
        supervision: Some(test_supervision(50, 5, Duration::from_secs(30))),
        down_peers: vec![2],
        ..Default::default()
    });
    converge_three_routes(&router);
    router.peering_up(2);
    assert!(
        router.wait_for(Duration::from_secs(10), || router.bgp_announced_count(2)
            == 3),
        "peer 2 never got the table: {}",
        router.bgp_announced_count(2)
    );
    router.kill("bgp");
    assert!(
        router.wait_for(Duration::from_secs(20), || router.supervised_restarts()
            >= 1
            && router.bgp_alive()
            && router.bgp_announced_count(2) == 3),
        "peer 2 is down after the restart: restarts={} alive={} announced={}",
        router.supervised_restarts(),
        router.bgp_alive(),
        router.bgp_announced_count(2)
    );
    router.stop();
}

/// BGP's restart state is bounded by the table, not by churn: ten
/// announce/withdraw rounds over a table leave the peer model one entry
/// per prefix still announced, and the restarted router converges to the
/// same counts.
#[test]
fn bgp_restart_state_is_bounded_by_the_table() {
    const ROUTES: usize = 1000;
    let router = supervised_router(test_supervision(50, 5, Duration::from_secs(30)));
    let table = backbone_table(&WorkloadConfig {
        routes: ROUTES,
        ..Default::default()
    });
    for _ in 0..10 {
        for batch in table.chunks(64) {
            router.feed_backbone(1, batch);
        }
        for batch in table.chunks(64) {
            router.withdraw_backbone(1, batch);
        }
    }
    // End with three quarters of the table announced.
    let kept = &table[..ROUTES * 3 / 4];
    for batch in kept.chunks(64) {
        router.feed_backbone(1, batch);
    }
    assert_eq!(router.peer_model_routes(), kept.len());
    assert!(
        router.wait_for(Duration::from_secs(30), || router.rib_route_count()
            == kept.len() + 1
            && router.fea_route_count() == kept.len() + 1),
        "churn did not converge: rib={} fea={}",
        router.rib_route_count(),
        router.fea_route_count()
    );

    router.kill("bgp");
    recover(&router, "bgp", 0, kept.len() + 1, Instant::now());
    assert_eq!(router.bgp_route_count(), kept.len());
    assert_eq!(router.peer_model_routes(), kept.len());
    router.stop();
}
