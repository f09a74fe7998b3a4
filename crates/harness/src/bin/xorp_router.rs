//! `xorp-router` — run a configured router.
//!
//! The operator-facing entrypoint: parse a XORP-style configuration file,
//! validate it against the standard template, and bring up the
//! multi-process router (BGP, RIB, FEA event loops over TCP XRLs) with
//! interfaces, static routes and BGP peers from the config.
//!
//! ```sh
//! cargo run --release -p xorp-harness --bin xorp-router -- config.boot
//! cargo run --release -p xorp-harness --bin xorp-router -- --example-config
//! ```
//!
//! The router runs until ^C (or EOF on stdin), printing table sizes
//! periodically — enough to watch synthetic peers converge, and the
//! skeleton a real deployment would grow sockets onto.
//!
//! ## Fault injection
//!
//! The XRL plane can be made deliberately lossy, to exercise the
//! timeout/retransmit/dedup machinery end to end (see EXPERIMENTS.md):
//!
//! ```sh
//! xorp-router --example-config --fault 0.05 --fault-seed 42
//! xorp-router config.boot --fault-drop 0.1 --fault-delay 0.2 \
//!     --fault-delay-ms 1:20 --fault-disconnect 0.01 --fault-seed 7
//! ```
//!
//! ## Supervision
//!
//! `--supervise` runs the rtrmgr keepalive prober against every process
//! (fea, rib, bgp): crashes are detected by missed-probe streaks and
//! restarted with exponential backoff under a restart budget.  The
//! process holding a dead one's routes (the RIB for BGP, the FEA for the
//! RIB) keeps them *stale* for a grace period instead of flushing them,
//! while the restarted process re-learns its state from its neighbours
//! (see EXPERIMENTS.md §supervision):
//!
//! ```sh
//! xorp-router --example-config --supervise
//! xorp-router config.boot --supervise --keepalive-ms 250 \
//!     --miss-threshold 3 --backoff-ms 200:5000 --restart-budget 5 \
//!     --grace-ms 10000
//! ```
//!
//! ## Backpressure
//!
//! Every per-peer XRL send queue is bounded (2048 frames, Xoff at 512,
//! Xon at 128 unless tuned): crossing the high watermark pauses the
//! congested pipeline reader until the lane drains, and sends beyond the
//! cap are shed.  `--xrl-queue-cap N` tunes the cap, moving the Xoff/Xon
//! watermarks to N/4 and N/16; `--xoff-watermark HIGH:LOW` sets them
//! directly:
//!
//! ```sh
//! xorp-router --example-config --xrl-queue-cap 2048
//! xorp-router config.boot --xrl-queue-cap 1024 --xoff-watermark 256:64
//! ```

use std::net::IpAddr;
use std::time::Duration;

use xorp_harness::figargs::{flag_value, parse_batch};
use xorp_harness::router::{MultiProcessRouter, PeerPolicy, RouterOptions};
use xorp_harness::workload::{backbone_table, WorkloadConfig};
use xorp_rtrmgr::template::standard_template;
use xorp_rtrmgr::{parse, ConfigNode, SupervisorConfig};
use xorp_xrl::{FaultConfig, QueuePolicy};

const EXAMPLE: &str = r#"
# Example xorp-rs configuration.
interfaces {
    interface eth0 {
        address: 192.168.0.1
        prefix: 192.168.0.0/16
    }
}
protocols {
    static {
        route 172.30.0.0/16 {
            nexthop: 192.168.9.9
            metric: 1
        }
    }
    bgp {
        local-as: 65000
        router-id: 192.168.0.1
        peer 192.168.1.1 {
            as: 65001
        }
        peer 192.168.1.2 {
            as: 65002
        }
    }
}
"#;

/// Parse `--flag value` pairs of the fault knobs into a [`FaultConfig`].
/// Returns `None` when no fault flag is present.
fn parse_fault_flags(args: &[String]) -> Option<FaultConfig> {
    let rate = |flag: &str| -> Option<f64> {
        flag_value(args, flag).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag} expects a probability, got {v:?}");
                std::process::exit(2);
            })
        })
    };
    let seed: u64 = flag_value(args, "--fault-seed")
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("--fault-seed expects an integer, got {v:?}");
                std::process::exit(2);
            })
        })
        .unwrap_or(0);
    // `--fault R` is shorthand for R drop + R duplicate + R delay of 1-10ms.
    let mut config = match rate("--fault") {
        Some(r) => FaultConfig::lossy(seed, r),
        None => FaultConfig {
            seed,
            ..FaultConfig::default()
        },
    };
    let mut any = rate("--fault").is_some();
    if let Some(p) = rate("--fault-drop") {
        config.drop = p;
        any = true;
    }
    if let Some(p) = rate("--fault-duplicate") {
        config.duplicate = p;
        any = true;
    }
    if let Some(p) = rate("--fault-delay") {
        config.delay = p;
        if config.delay_ms == (0, 0) {
            config.delay_ms = (1, 10);
        }
        any = true;
    }
    if let Some(v) = flag_value(args, "--fault-delay-ms") {
        let (lo, hi) = v
            .split_once(':')
            .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
            .unwrap_or_else(|| {
                eprintln!("--fault-delay-ms expects LO:HI milliseconds, got {v:?}");
                std::process::exit(2);
            });
        config.delay_ms = (lo, hi);
        any = true;
    }
    if let Some(p) = rate("--fault-disconnect") {
        config.disconnect = p;
        any = true;
    }
    any.then_some(config)
}

/// Parse `--xrl-queue-cap N` and `--xoff-watermark HIGH:LOW` into the
/// router's [`QueuePolicy`]: [`QueuePolicy::default`] with neither flag; a
/// given cap moves the watermarks to cap/4 and cap/16 unless they are
/// given too.
fn parse_overload_flags(args: &[String]) -> QueuePolicy {
    let cap: Option<usize> = flag_value(args, "--xrl-queue-cap").map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--xrl-queue-cap expects an integer, got {v:?}");
            std::process::exit(2);
        })
    });
    let marks: Option<(usize, usize)> = flag_value(args, "--xoff-watermark").map(|v| {
        v.split_once(':')
            .and_then(|(h, l)| Some((h.parse().ok()?, l.parse().ok()?)))
            .unwrap_or_else(|| {
                eprintln!("--xoff-watermark expects HIGH:LOW frames, got {v:?}");
                std::process::exit(2);
            })
    });
    let hard_cap = cap.unwrap_or(QueuePolicy::default().hard_cap).max(1);
    let (high_watermark, low_watermark) =
        marks.unwrap_or(((hard_cap / 4).max(1), (hard_cap / 16).max(1)));
    QueuePolicy {
        high_watermark,
        low_watermark,
        hard_cap,
    }
}

/// Parse the supervision knobs into a [`SupervisorConfig`].  `--supervise`
/// alone enables the defaults; any tuning flag also implies supervision.
fn parse_supervision_flags(args: &[String]) -> Option<SupervisorConfig> {
    let millis = |flag: &str| -> Option<Duration> {
        flag_value(args, flag).map(|v| {
            Duration::from_millis(v.parse().unwrap_or_else(|_| {
                eprintln!("{flag} expects milliseconds, got {v:?}");
                std::process::exit(2);
            }))
        })
    };
    let count = |flag: &str| -> Option<u32> {
        flag_value(args, flag).map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{flag} expects an integer, got {v:?}");
                std::process::exit(2);
            })
        })
    };
    let mut config = SupervisorConfig::default();
    let mut any = args.iter().any(|a| a == "--supervise");
    if let Some(d) = millis("--keepalive-ms") {
        config.keepalive_interval = d;
        any = true;
    }
    if let Some(n) = count("--miss-threshold") {
        config.miss_threshold = n;
        any = true;
    }
    if let Some(v) = flag_value(args, "--backoff-ms") {
        let (lo, hi): (u64, u64) = v
            .split_once(':')
            .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
            .unwrap_or_else(|| {
                eprintln!("--backoff-ms expects LO:HI milliseconds, got {v:?}");
                std::process::exit(2);
            });
        config.backoff_base = Duration::from_millis(lo);
        config.backoff_max = Duration::from_millis(hi);
        any = true;
    }
    if let Some(n) = count("--restart-budget") {
        config.restart_budget = n;
        any = true;
    }
    if let Some(d) = millis("--grace-ms") {
        config.grace_period = d;
        any = true;
    }
    any.then_some(config)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (config_text, demo_feed) = if args.iter().any(|a| a == "--example-config") {
        println!("--- running the built-in example configuration ---\n{EXAMPLE}");
        (EXAMPLE.to_string(), true)
    } else if let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) {
        (
            std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            }),
            false,
        )
    } else {
        eprintln!("usage: xorp-router <config-file> | --example-config");
        std::process::exit(2);
    };

    // ---- parse + validate (the Router Manager's commit path) -----------
    let root: ConfigNode = match parse(&config_text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let errors = standard_template().validate(&root);
    if !errors.is_empty() {
        eprintln!("configuration rejected:");
        for e in errors {
            eprintln!("  {e}");
        }
        std::process::exit(1);
    }

    let bgp_node = root.child("protocols").and_then(|p| p.child("bgp"));
    let local_as = bgp_node
        .and_then(|b| b.attr("local-as"))
        .and_then(|v| v.as_u32())
        .unwrap_or(65000);
    let peers: Vec<(u32, u32)> = bgp_node
        .map(|b| {
            b.children_named("peer")
                .enumerate()
                .map(|(i, p)| {
                    (
                        i as u32 + 1,
                        p.attr("as")
                            .and_then(|v| v.as_u32())
                            .unwrap_or(65000 + i as u32),
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    // Policies compile here, before any process spawns: a bad one is a
    // configuration error, not a crash on the BGP thread.
    let peer_policies: std::collections::HashMap<u32, PeerPolicy> = bgp_node
        .map(|b| {
            b.children_named("peer")
                .enumerate()
                .map(|(i, p)| {
                    let policy = PeerPolicy::compile(
                        p.attr("import").and_then(|v| v.as_str()),
                        p.attr("export").and_then(|v| v.as_str()),
                        p.attr("damping") == Some(&xorp_rtrmgr::ConfigValue::Bool(true)),
                    )
                    .unwrap_or_else(|e| {
                        eprintln!("peer {}: {e}", p.key.as_deref().unwrap_or("?"));
                        std::process::exit(1);
                    });
                    (i as u32 + 1, policy)
                })
                .collect()
        })
        .unwrap_or_default();

    let fault = parse_fault_flags(&args);
    println!(
        "starting router: AS {local_as}, {} BGP peer(s), 3 processes (bgp, rib, fea)",
        peers.len()
    );
    if let Some(cfg) = &fault {
        println!(
            "fault injection on: seed={} drop={} dup={} delay={} ({}..{} ms) disconnect={}",
            cfg.seed,
            cfg.drop,
            cfg.duplicate,
            cfg.delay,
            cfg.delay_ms.0,
            cfg.delay_ms.1,
            cfg.disconnect
        );
    }
    let supervision = parse_supervision_flags(&args);
    if let Some(cfg) = &supervision {
        println!(
            "supervision on: keepalive={}ms misses={} backoff={}..{}ms budget={} grace={}ms",
            cfg.keepalive_interval.as_millis(),
            cfg.miss_threshold,
            cfg.backoff_base.as_millis(),
            cfg.backoff_max.as_millis(),
            cfg.restart_budget,
            cfg.grace_period.as_millis()
        );
    }
    let batch_size = parse_batch();
    println!("route runs capped at batch-size={batch_size}");
    let overload = parse_overload_flags(&args);
    if overload != QueuePolicy::default() {
        println!(
            "xrl backpressure tuned: hard-cap={} xoff at {} / xon at {}",
            overload.hard_cap, overload.high_watermark, overload.low_watermark
        );
    }
    let router = MultiProcessRouter::new(RouterOptions {
        local_as,
        peers: peers.clone(),
        peer_policies,
        consistency_check: false,
        fault,
        retry: None, // defaults to RetryPolicy::default() when fault is set
        supervision,
        batch_size,
        overload,
        rib_delay_ms: 0,
        down_peers: vec![],
        wire_v1_only: None,
    });

    // Static routes from the config go in via the RIB (through BGP's
    // announce path they'd be EBGP; feed them as supplementary probes).
    if let Some(static_node) = root.child("protocols").and_then(|p| p.child("static")) {
        for route in static_node.children_named("route") {
            if let (Some(key), Some(nh)) = (
                route.key.as_ref().and_then(|k| k.parse().ok()),
                route
                    .attr("nexthop")
                    .and_then(|v| v.as_addr())
                    .and_then(|a| match a {
                        IpAddr::V4(a) => Some(a),
                        IpAddr::V6(_) => None,
                    }),
            ) {
                let _: xorp_net::Ipv4Net = key;
                router.announce_one(peers.first().map(|(id, _)| *id).unwrap_or(1), key, nh);
                println!("installed static route {key} via {nh}");
            }
        }
    }

    // Demo mode: synthesize a routing feed so there's something to watch.
    if demo_feed && !peers.is_empty() {
        println!("feeding a 10,000-route synthetic table from peer 1...");
        let table = backbone_table(&WorkloadConfig {
            routes: 10_000,
            ..Default::default()
        });
        for batch in table.chunks(64) {
            router.feed_backbone(peers[0].0, batch);
        }
    }

    // ---- run until interrupted, reporting table sizes -------------------
    println!("router is up; reporting every 2 s (^C to stop)\n");
    let mut last = (0usize, 0usize, 0usize);
    for _ in 0..u64::MAX {
        std::thread::sleep(Duration::from_secs(2));
        let now = (
            router.bgp_route_count(),
            router.rib_route_count(),
            router.fea_route_count(),
        );
        if now != last {
            println!(
                "bgp: {:>7} routes   rib: {:>7}   fib: {:>7}",
                now.0, now.1, now.2
            );
            last = now;
        }
        if demo_feed && now.2 >= 10_001 {
            println!("\ndemo feed converged; exiting (run with a config file to keep serving)");
            break;
        }
    }
    router.stop();
}
