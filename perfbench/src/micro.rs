//! Small per-layer measurements that need no router: each calls one
//! layer's public functions in a loop and divides.  They fill the ledger
//! rows the layer walk cannot see (event-loop wake-ups, XRL round trips,
//! the bare trie, the cost of the instrumentation itself).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use xorp_event::EventLoop;
use xorp_harness::figures::xrl_throughput;
use xorp_harness::workload::BackboneRoute;
use xorp_harness::Process;
use xorp_net::{PatriciaTrie, ProtocolId, RouteEntry};
use xorp_policy::FilterBank;
use xorp_profiler::{Profiler, Tracer};
use xorp_rib::{RedistWatcher, Rib};
use xorp_xrl::{Finder, TransportPref};

use crate::gen::{self, Rng};
use crate::stats::median;

fn ns_per(t0: Instant, n: usize) -> f64 {
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// Run every measurement; `table` is the seeded backbone table.
pub fn run(seed: u64, table: &[BackboneRoute]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let mut rng = Rng::new(seed ^ 0x0031_c0de);
    event(&mut out);
    xrl(&mut out);
    patricia(&mut out, &mut rng, table);
    redist_share(&mut out, table);
    instrumentation(&mut out);
    out
}

/// `event.post_wakeup_us`: a closure posted from this thread to an idle
/// loop on another, post to first instruction (median of 1,000 — a probe
/// pays this three times).  `event.run_one_ns`: one deferred event
/// through `run_one` on a loop that never sleeps.
fn event(out: &mut BTreeMap<&'static str, f64>) {
    let idle = Process::spawn("bench-idle", Finder::new(), |_el, _router| {});
    let (tx, rx) = mpsc::channel();
    let mut wakeups_us = Vec::with_capacity(1000);
    for _ in 0..1000 {
        // Long enough for the loop to go back to sleep.
        std::thread::sleep(Duration::from_micros(200));
        let tx = tx.clone();
        let posted = Instant::now();
        idle.post(move |_el| {
            let _ = tx.send(posted.elapsed());
        });
        let woke = rx.recv().expect("idle loop answers");
        wakeups_us.push(woke.as_nanos() as f64 / 1e3);
    }
    idle.stop();
    out.insert("event.post_wakeup_us", median(&wakeups_us));

    const EVENTS: usize = 200_000;
    let mut el = EventLoop::new();
    let counter = Rc::new(std::cell::Cell::new(0usize));
    let t0 = Instant::now();
    for _ in 0..EVENTS / 1000 {
        for _ in 0..1000 {
            let c = counter.clone();
            el.defer(move |_el| c.set(c.get() + 1));
        }
        while el.run_one() {}
    }
    out.insert("event.run_one_ns", ns_per(t0, EVENTS));
    assert_eq!(counter.get(), EVENTS);
}

/// Bare XRL calls by the fig-9 method (closed loop, window 100 unless
/// said otherwise), time per call:
/// `xrl.dispatch.intra_ns` intra-process, send to callback;
/// `xrl.tcp.call_ns` over TCP with no arguments — the smallest message,
/// where per-message cost dominates;
/// `xrl.tcp.a25_ns` over TCP with 25 arguments, the largest message the
/// paper measures, where marshalling dominates;
/// `xrl.tcp.rtt_us` over TCP at window 1 — a full round trip with both
/// loops otherwise idle.
fn xrl(out: &mut BTreeMap<&'static str, f64>) {
    let per_call = |family, args, calls, window| 1e9 / xrl_throughput(family, args, calls, window);
    out.insert(
        "xrl.dispatch.intra_ns",
        per_call(TransportPref::Intra, 0, 200_000, 100),
    );
    out.insert(
        "xrl.tcp.call_ns",
        per_call(TransportPref::Tcp, 0, 50_000, 100),
    );
    out.insert(
        "xrl.tcp.a25_ns",
        per_call(TransportPref::Tcp, 25, 30_000, 100),
    );
    out.insert(
        "xrl.tcp.rtt_us",
        per_call(TransportPref::Tcp, 0, 5_000, 1) / 1e3,
    );
}

/// The bare trie at the table's size: insert every prefix, look up seeded
/// addresses, remove every prefix.
fn patricia(out: &mut BTreeMap<&'static str, f64>, rng: &mut Rng, table: &[BackboneRoute]) {
    let addrs = gen::lookup_addrs(rng, table, 100_000);
    let mut trie: PatriciaTrie<Ipv4Addr, u32> = PatriciaTrie::new();
    let t0 = Instant::now();
    for (i, r) in table.iter().enumerate() {
        trie.insert(r.net, i as u32);
    }
    out.insert("net.patricia.insert_ns", ns_per(t0, table.len()));
    let t0 = Instant::now();
    for &a in &addrs {
        black_box(trie.longest_match(black_box(a)));
    }
    out.insert("net.patricia.lookup_ns", ns_per(t0, addrs.len()));
    let t0 = Instant::now();
    for r in table {
        black_box(trie.remove(&r.net));
    }
    out.insert("net.patricia.remove_ns", ns_per(t0, table.len()));
    assert!(trie.is_empty());
}

/// `rib.redist.share_ns`: what a redistribution watcher adds to one RIB
/// add — the same routes into a RIB with a watcher (a sink that drops
/// everything) and into one without, difference per route.
fn redist_share(out: &mut BTreeMap<&'static str, f64>, table: &[BackboneRoute]) {
    let routes = &table[..table.len().min(32_768)];
    let load = |watched: bool| -> f64 {
        let mut el = EventLoop::new();
        let mut rib: Rib<Ipv4Addr> = Rib::new(false);
        if watched {
            rib.add_redist_watcher(
                &mut el,
                RedistWatcher::new(
                    "sink",
                    None,
                    FilterBank::accept_by_default(),
                    Rc::new(|_el, op| {
                        black_box(op);
                    }),
                ),
            );
        }
        let mut connected = RouteEntry::new(
            "192.168.0.0/16".parse().expect("literal prefix"),
            xorp_net::PathAttributes::new(IpAddr::V4(Ipv4Addr::new(192, 168, 0, 1))).shared(),
            1,
            ProtocolId::Connected,
        );
        connected.ifname = Some("eth0".into());
        rib.add_route(&mut el, connected);
        let t0 = Instant::now();
        for r in routes {
            let route = RouteEntry::new(r.net, r.attrs.clone(), 0, ProtocolId::Ebgp);
            rib.add_route(&mut el, route);
        }
        el.run_until_idle();
        ns_per(t0, routes.len())
    };
    // Alternate the two, three times, so drift hits both alike.
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        without.push(load(false));
        with.push(load(true));
    }
    out.insert("rib.redist.share_ns", median(&with) - median(&without));
}

/// What the router's own instrumentation costs per stamp: a §8.2 point
/// dormant and enabled, and one sampled span (begin + finish).
fn instrumentation(out: &mut BTreeMap<&'static str, f64>) {
    const STAMPS: usize = 1_000_000;
    let profiler = Profiler::new();
    let point = profiler.point("bench_point");
    let t0 = Instant::now();
    for i in 0..STAMPS {
        point.record(|| format!("add {i}"));
    }
    out.insert("profiler.stamp_dormant_ns", ns_per(t0, STAMPS));

    profiler.enable("bench_point");
    let t0 = Instant::now();
    for i in 0..STAMPS / 10 {
        point.record(|| format!("add {i}"));
    }
    out.insert("profiler.stamp_enabled_ns", ns_per(t0, STAMPS / 10));

    let tracer = Tracer::new();
    tracer.set_sampling(1);
    let recorder = tracer.recorder("bench");
    let t0 = Instant::now();
    for _ in 0..STAMPS / 10 {
        let ctx = recorder.sample().expect("sampling every event");
        let span = recorder.begin(ctx, "bench");
        recorder.finish(span);
    }
    out.insert("profiler.span_sampled_ns", ns_per(t0, STAMPS / 10));
}
