//! Failure-path tests: two routers exchanging XRLs over TCP while a seeded
//! [`FaultPlan`] drops, duplicates, delays and severs frames underneath
//! them.  The property under test is the §4/§6 robustness story — every
//! request completes *exactly once* (no double-dispatch at the receiver, no
//! hang at the sender), or fails crisply with [`XrlError::Timeout`].
//!
//! Every test is seeded; a failure prints the fault plan's decision trace,
//! so the run can be reproduced from the log alone.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use proptest::prelude::*;
use xorp_event::{EventLoop, EventSender};
use xorp_xrl::router::TransportPref;
use xorp_xrl::{
    FaultConfig, FaultPlan, Finder, QueuePolicy, RetryPolicy, Xrl, XrlError, XrlRouter,
};

/// Distinct lane seeds per test so parallel tests never share streams.
static NEXT_CLASS: AtomicU64 = AtomicU64::new(0);

/// Outcome of one lossy exchange.
struct Exchange {
    /// Per-request result, indexed by request id.
    results: Vec<Result<u32, XrlError>>,
    /// How many times the receiver's handler ran per request id.
    dispatch_counts: HashMap<u32, u32>,
    /// The sender's fault trace (for failure artifacts).
    sender_report: String,
}

/// Run `n` pipelined TCP requests from a faulty sender to a faulty echo
/// receiver; both routers share `config` (their decision streams still
/// differ because the lane labels differ).
fn run_exchange(config: FaultConfig, retry: RetryPolicy, n: u32, timeout: Duration) -> Exchange {
    run_exchange_linger(config, retry, n, timeout, Duration::ZERO)
}

/// [`run_exchange`], then keep both loops running for `linger` after the
/// last response — long enough for maximally-delayed duplicate frames to
/// reach the receiver, so `dispatch_counts` reflects any late
/// re-dispatch.
fn run_exchange_linger(
    config: FaultConfig,
    retry: RetryPolicy,
    n: u32,
    timeout: Duration,
    linger: Duration,
) -> Exchange {
    let class = format!("fe{}", NEXT_CLASS.fetch_add(1, Ordering::SeqCst));
    let instance = format!("{class}-0");
    let finder = Finder::new();
    let dispatch_counts: Arc<Mutex<HashMap<u32, u32>>> = Arc::new(Mutex::new(HashMap::new()));

    // Receiver thread: echo `i` back, counting every handler invocation.
    let (tx, rx) = mpsc::channel::<EventSender>();
    let receiver_thread = std::thread::spawn({
        let finder = finder.clone();
        let counts = dispatch_counts.clone();
        let config = config.clone();
        let class = class.clone();
        let instance = instance.clone();
        move || {
            let mut el = EventLoop::new();
            let router = XrlRouter::new(&mut el, finder);
            router.set_fault_plan(config); // responses are lossy too
            router.enable_tcp().unwrap();
            router.register_target(&class, &instance, true).unwrap();
            router.add_fn(&instance, &format!("{class}/1.0/echo"), move |_el, args| {
                let i = args.get_u32("i")?;
                *counts.lock().unwrap().entry(i).or_insert(0) += 1;
                Ok(args.clone())
            });
            tx.send(el.sender()).unwrap();
            el.run();
            router.shutdown(&mut el);
        }
    });
    let receiver_sender = rx.recv().unwrap();

    // Sender on this thread.
    let mut el = EventLoop::new();
    let router = XrlRouter::new(&mut el, finder);
    router.set_fault_plan(config);
    router.set_retry_policy(Some(retry));
    // These tests burst all `n` sends at once and are about dedup, not queues.
    router.set_overload_policy(QueuePolicy {
        hard_cap: n as usize,
        ..QueuePolicy::default()
    });
    router.enable_tcp().unwrap();
    router
        .register_target("fault-sender", &format!("{class}-sender"), true)
        .unwrap();

    let (res_tx, res_rx) = mpsc::channel::<(u32, Result<u32, XrlError>)>();
    for i in 0..n {
        let xrl: Xrl = format!("finder://{class}/{class}/1.0/echo?i:u32={i}")
            .parse()
            .unwrap();
        let res_tx = res_tx.clone();
        router.send_pref(
            &mut el,
            xrl,
            TransportPref::Tcp,
            Box::new(move |_el, result| {
                let r = result.and_then(|args| args.get_u32("i"));
                res_tx.send((i, r)).unwrap();
            }),
        );
    }

    let mut results: Vec<Result<u32, XrlError>> = (0..n).map(|_| Err(XrlError::Timeout)).collect();
    let mut done = 0usize;
    let deadline = std::time::Instant::now() + timeout;
    while done < n as usize {
        if let Ok((i, r)) = res_rx.try_recv() {
            results[i as usize] = r;
            done += 1;
            continue;
        }
        if std::time::Instant::now() >= deadline {
            break; // return partial results; caller asserts and prints trace
        }
        el.run_for(Duration::from_millis(1));
    }

    // Late duplicates are still in flight; give them time to land so a
    // wrongly-evicted identity shows up as a second dispatch.
    let linger_deadline = std::time::Instant::now() + linger;
    while std::time::Instant::now() < linger_deadline {
        el.run_for(Duration::from_millis(1));
    }

    let sender_report = router
        .fault_report()
        .unwrap_or_else(|| "no fault plan".into());
    receiver_sender.stop();
    receiver_thread.join().unwrap();
    let dispatch_counts = dispatch_counts.lock().unwrap().clone();
    Exchange {
        results,
        dispatch_counts,
        sender_report,
    }
}

/// Assert the exactly-once property over an exchange, dumping the fault
/// trace on the first violation.
fn assert_exactly_once(ex: &Exchange, n: u32) {
    for i in 0..n {
        let got = &ex.results[i as usize];
        assert!(
            matches!(got, Ok(v) if *v == i),
            "request {i} did not complete correctly: {got:?}\n--- sender fault trace ---\n{}",
            ex.sender_report
        );
        let count = ex.dispatch_counts.get(&i).copied().unwrap_or(0);
        assert_eq!(
            count, 1,
            "request {i} dispatched {count} times (want exactly 1)\n--- sender fault trace ---\n{}",
            ex.sender_report
        );
    }
}

/// The ISSUE acceptance bar: 1000 XRLs at 5% drop + 5% duplicate + 5%
/// delay (reordering), every request completes exactly once.
#[test]
fn thousand_xrls_at_5_percent_loss_exactly_once() {
    let config = FaultConfig::lossy(0xFA117, 0.05);
    let retry = RetryPolicy {
        max_attempts: 8,
        base_timeout: Duration::from_millis(50),
        max_timeout: Duration::from_secs(1),
    };
    let n = 1000;
    let ex = run_exchange(config, retry, n, Duration::from_secs(60));
    assert_exactly_once(&ex, n);
    // The run must actually have been lossy, or the test proves nothing.
    assert!(
        ex.sender_report.contains("Drop"),
        "expected drops in the trace:\n{}",
        ex.sender_report
    );
    assert!(
        ex.sender_report.contains("Duplicate"),
        "expected duplicates in the trace:\n{}",
        ex.sender_report
    );
}

/// Connections severed mid-stream: the sender must transparently
/// reconnect and retransmit, still exactly-once.
#[test]
fn disconnects_reconnect_and_complete() {
    let config = FaultConfig {
        seed: 0xD15C,
        drop: 0.02,
        duplicate: 0.02,
        delay: 0.0,
        delay_ms: (0, 0),
        disconnect: 0.03,
    };
    let retry = RetryPolicy {
        max_attempts: 10,
        base_timeout: Duration::from_millis(50),
        max_timeout: Duration::from_secs(1),
    };
    let n = 200;
    let ex = run_exchange(config, retry, n, Duration::from_secs(60));
    assert_exactly_once(&ex, n);
    assert!(
        ex.sender_report.contains("Disconnect"),
        "expected disconnects in the trace:\n{}",
        ex.sender_report
    );
}

/// A black-hole link never delivers anything: every request must fail
/// with Timeout once its retry budget is spent — error, not hang.
#[test]
fn black_hole_times_out_instead_of_hanging() {
    let config = FaultConfig::black_hole(7);
    let retry = RetryPolicy {
        max_attempts: 3,
        base_timeout: Duration::from_millis(10),
        max_timeout: Duration::from_millis(40),
    };
    let n = 5;
    let ex = run_exchange(config, retry, n, Duration::from_secs(30));
    for i in 0..n {
        assert!(
            matches!(ex.results[i as usize], Err(XrlError::Timeout)),
            "request {i}: want Timeout, got {:?}",
            ex.results[i as usize]
        );
        assert_eq!(
            ex.dispatch_counts.get(&i),
            None,
            "request {i} leaked through"
        );
    }
}

/// Dedup-cache retention is bounded by the sender's retry policy, not a
/// fixed capacity.  Every request frame is duplicated and a slice of all
/// frames is delayed by the maximum `--fault` delay, while the flood is
/// sized well past any plausible capacity cap (the cache once held a
/// fixed 8192 identities).  If eviction ever dropped an identity whose
/// duplicate was still in transit — i.e. within the policy's
/// retransmission window — that late copy would re-dispatch the handler
/// and the per-request count would exceed one.
#[test]
fn flooded_dedup_cache_never_redispatches_delayed_duplicates() {
    let max_delay = Duration::from_millis(300);
    let config = FaultConfig {
        seed: 0xDED0_0CAC,
        drop: 0.0,
        duplicate: 1.0,
        delay: 0.08,
        delay_ms: (100, max_delay.as_millis() as u64),
        disconnect: 0.0,
    };
    let retry = RetryPolicy {
        max_attempts: 4,
        base_timeout: Duration::from_millis(400),
        max_timeout: Duration::from_secs(1),
    };
    // The property only means something if the window really covers the
    // longest transit a duplicate can take.
    assert!(retry.retransmission_window() > max_delay * 2);

    let n = 9000;
    let ex = run_exchange_linger(
        config,
        retry,
        n,
        Duration::from_secs(120),
        max_delay + Duration::from_millis(200),
    );
    assert_exactly_once(&ex, n);
    assert!(
        ex.sender_report.contains("Duplicate"),
        "expected duplicates in the trace:\n{}",
        ex.sender_report
    );
    assert!(
        ex.sender_report.contains("Delay"),
        "expected delays in the trace:\n{}",
        ex.sender_report
    );
}

// Determinism: the wire-level behaviour is a pure function of the seed.
// (The transport-level interleaving varies, but the *decisions* — which
// frames drop, duplicate, delay — replay identically.)
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn plans_replay_identically(seed in any::<u64>(), rate_ppm in 0u32..400_000, lanes in 1usize..4) {
        let rate = rate_ppm as f64 / 1e6;
        let mut a = FaultPlan::new(FaultConfig::lossy(seed, rate));
        let mut b = FaultPlan::new(FaultConfig::lossy(seed, rate));
        for i in 0..300 {
            let lane = format!("tcp:peer-{}", i % lanes);
            prop_assert_eq!(a.decide(&lane), b.decide(&lane));
        }
        prop_assert_eq!(a.render_trace(), b.render_trace());
    }
}

// The exactly-once property holds across arbitrary seeded fault mixes
// (drop + duplicate + delay/reorder), not just the tuned 5% case.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn exactly_once_under_arbitrary_fault_mix(
        seed in any::<u64>(),
        drop_ppm in 0u32..150_000,
        dup_ppm in 0u32..150_000,
        delay_ppm in 0u32..150_000,
        n in 20u32..60,
    ) {
        let config = FaultConfig {
            seed,
            drop: drop_ppm as f64 / 1e6,
            duplicate: dup_ppm as f64 / 1e6,
            delay: delay_ppm as f64 / 1e6,
            delay_ms: (1, 5),
            disconnect: 0.0,
        };
        let retry = RetryPolicy {
            max_attempts: 10,
            base_timeout: Duration::from_millis(25),
            max_timeout: Duration::from_millis(500),
        };
        let ex = run_exchange(config, retry, n, Duration::from_secs(30));
        for i in 0..n {
            let got = &ex.results[i as usize];
            prop_assert!(
                matches!(got, Ok(v) if *v == i),
                "request {} failed: {:?}\n--- sender fault trace ---\n{}",
                i, got, ex.sender_report
            );
            let count = ex.dispatch_counts.get(&i).copied().unwrap_or(0);
            prop_assert_eq!(
                count, 1,
                "request {} dispatched {} times\n--- sender fault trace ---\n{}",
                i, count, ex.sender_report
            );
        }
    }
}
