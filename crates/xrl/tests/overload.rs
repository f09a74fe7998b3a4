//! Overload-control tests: per-lane watermarks, hard-cap shedding, the
//! priority lane, and dead-UDP-peer queue eviction.
//!
//! The congested consumer is modelled the way it happens in production: a
//! receiver that accepts requests but doesn't answer them (its responders
//! are stashed), so the sender's `pending` map toward that lane grows until
//! the overload machinery intervenes.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use xorp_event::{EventLoop, EventSender};
use xorp_profiler::{MetricValue, Metrics};
use xorp_xrl::keepalive::{add_keepalive_responder, probe_liveness};
use xorp_xrl::router::TransportPref;
use xorp_xrl::{
    CongestionSignal, FaultConfig, Finder, QueuePolicy, Responder, RetryPolicy, Xrl, XrlError,
    XrlResult, XrlRouter,
};

/// Distinct class names per test so parallel tests never collide.
static NEXT_CLASS: AtomicU64 = AtomicU64::new(0);

/// Loop-slot holding the receiver's unanswered responders, so the test can
/// post a "release" closure into the receiver's loop later.  Release is
/// sticky: holds arriving afterwards (e.g. frames that were still parked
/// in the sender's unpipelined UDP queue) answer immediately.
#[derive(Clone)]
struct Stash {
    held: Rc<RefCell<Vec<Responder>>>,
    released: Rc<RefCell<bool>>,
}

/// Spawn a receiver that *stashes* `hold` requests (never replies until
/// released) and answers keepalives normally.  Returns its loop sender and
/// join handle.  `udp_only` restricts the advertised transports.
fn spawn_stashing_receiver(
    finder: Finder,
    class: &str,
    udp_only: bool,
) -> (EventSender, std::thread::JoinHandle<()>) {
    let (tx, rx) = mpsc::channel::<EventSender>();
    let class = class.to_string();
    let handle = std::thread::spawn(move || {
        let instance = format!("{class}-0");
        let mut el = EventLoop::new();
        let router = XrlRouter::new(&mut el, finder);
        if udp_only {
            router.enable_udp().unwrap();
        } else {
            router.enable_tcp().unwrap();
        }
        router.register_target(&class, &instance, true).unwrap();
        let stash = Stash {
            held: Rc::new(RefCell::new(Vec::new())),
            released: Rc::new(RefCell::new(false)),
        };
        el.set_slot::<Stash>(stash.clone());
        router.add_handler(
            &instance,
            &format!("{class}/1.0/hold"),
            move |el, _args, responder| {
                if *stash.released.borrow() {
                    responder.ok(el);
                } else {
                    stash.held.borrow_mut().push(responder);
                }
            },
        );
        add_keepalive_responder(&router, &instance);
        tx.send(el.sender()).unwrap();
        el.run();
        router.shutdown(&mut el);
    });
    (rx.recv().unwrap(), handle)
}

/// Post a release into the receiver's loop: every stashed responder
/// replies successfully.
fn release_stash(receiver: &EventSender) {
    receiver.post(|el| {
        let stash = el.slot::<Stash>().cloned();
        if let Some(stash) = stash {
            *stash.released.borrow_mut() = true;
            let held: Vec<Responder> = stash.held.borrow_mut().drain(..).collect();
            for r in held {
                r.ok(el);
            }
        }
    });
}

/// How many `hold` requests the receiver is holding unanswered.
fn held_count(receiver: &EventSender) -> usize {
    let (tx, rx) = mpsc::channel();
    receiver.post(move |el| {
        let held = el.slot::<Stash>().map_or(0, |s| s.held.borrow().len());
        tx.send(held).unwrap();
    });
    rx.recv().unwrap()
}

fn hold_xrl(class: &str) -> Xrl {
    format!("finder://{class}/{class}/1.0/hold")
        .parse()
        .unwrap()
}

/// Run `el` until `done()` or the deadline; panics on timeout.
fn run_until(el: &mut EventLoop, what: &str, mut done: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !done() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}"
        );
        el.run_for(Duration::from_millis(1));
    }
}

/// The tentpole lifecycle on one TCP lane: depth climbs as the consumer
/// stalls, `Xoff` fires at the high watermark (once — hysteresis), the
/// hard cap sheds with `Overloaded`, priority traffic still passes, and
/// draining emits exactly one `Xon`.
#[test]
fn watermarks_shed_and_priority_on_a_stalled_lane() {
    let class = format!("ovl{}", NEXT_CLASS.fetch_add(1, Ordering::SeqCst));
    let finder = Finder::new();
    let (receiver, rthread) = spawn_stashing_receiver(finder.clone(), &class, false);

    let mut el = EventLoop::new();
    let router = XrlRouter::new(&mut el, finder);
    router.enable_tcp().unwrap();
    let me = format!("{class}-sender");
    router.register_target("ovl-sender", &me, true).unwrap();
    add_keepalive_responder(&router, &me);
    router.set_overload_policy(QueuePolicy {
        high_watermark: 8,
        low_watermark: 3,
        hard_cap: 12,
    });
    let signals: Rc<RefCell<Vec<CongestionSignal>>> = Rc::new(RefCell::new(Vec::new()));
    let s = signals.clone();
    router.set_congestion_cb(move |_el, sig| s.borrow_mut().push(sig.clone()));

    // Saturate the lane to exactly the hard cap.
    let results: Rc<RefCell<Vec<XrlResult>>> = Rc::new(RefCell::new(Vec::new()));
    for _ in 0..12 {
        let r = results.clone();
        router.send(
            &mut el,
            hold_xrl(&class),
            Box::new(move |_el, res| r.borrow_mut().push(res)),
        );
    }
    let lane = router
        .lane_of(&class, &format!("{class}/1.0/hold"))
        .expect("remote target has a lane");
    assert_eq!(router.lane_depth(&lane), 12);
    assert_eq!(
        signals.borrow().clone(),
        vec![CongestionSignal::Xoff { lane: lane.clone() }],
        "exactly one Xoff at the high watermark"
    );
    assert!(router.any_lane_congested());

    // One past the cap: shed immediately, not queued.
    let r = results.clone();
    router.send(
        &mut el,
        hold_xrl(&class),
        Box::new(move |_el, res| r.borrow_mut().push(res)),
    );
    assert_eq!(results.borrow().len(), 1);
    assert!(matches!(results.borrow()[0], Err(XrlError::Overloaded)));
    assert_eq!(router.shed_count(), 1);
    assert_eq!(router.lane_depth(&lane), 12, "shed frames are not charged");

    // Priority traffic bypasses the cap: the stalled consumer still
    // answers its keepalive.
    let probed: Rc<RefCell<Option<(bool, bool)>>> = Rc::new(RefCell::new(None));
    let p = probed.clone();
    probe_liveness(&router, &mut el, &class, move |_el, alive, congested| {
        *p.borrow_mut() = Some((alive, congested));
    });
    run_until(&mut el, "priority probe", || probed.borrow().is_some());
    assert_eq!(
        *probed.borrow(),
        Some((true, false)),
        "stalled-but-alive consumer answers and is itself uncongested"
    );

    // A self-probe (intra dispatch) reports *this* router's congestion.
    let self_probed: Rc<RefCell<Option<(bool, bool)>>> = Rc::new(RefCell::new(None));
    let p = self_probed.clone();
    probe_liveness(
        &router,
        &mut el,
        "ovl-sender",
        move |_el, alive, congested| {
            *p.borrow_mut() = Some((alive, congested));
        },
    );
    run_until(&mut el, "self probe", || self_probed.borrow().is_some());
    assert_eq!(*self_probed.borrow(), Some((true, true)));

    // Drain: the consumer answers everything; exactly one Xon, depth 0.
    release_stash(&receiver);
    run_until(&mut el, "drain", || results.borrow().len() == 13);
    assert_eq!(
        results.borrow().iter().filter(|r| r.is_ok()).count(),
        12,
        "all held requests completed"
    );
    assert_eq!(router.lane_depth(&lane), 0);
    assert!(!router.any_lane_congested());
    assert_eq!(
        signals.borrow().clone(),
        vec![
            CongestionSignal::Xoff { lane: lane.clone() },
            CongestionSignal::Xon { lane: lane.clone() },
        ],
        "one Xoff, one Xon — no whipsaw inside the hysteresis band"
    );

    receiver.stop();
    rthread.join().unwrap();
}

/// A router nobody configured still bounds its lanes: the default policy
/// charges every data send from the first one, raises Xoff at its high
/// watermark and sheds at its hard cap, on a lane label that matches
/// `lane_of` — through the string-keyed and the interned send path alike,
/// which share one lane.
#[test]
fn lane_accounting_is_on_and_bounded_by_default() {
    let class = format!("ovl{}", NEXT_CLASS.fetch_add(1, Ordering::SeqCst));
    let finder = Finder::new();
    let (receiver, rthread) = spawn_stashing_receiver(finder.clone(), &class, false);

    let mut el = EventLoop::new();
    let router = XrlRouter::new(&mut el, finder);
    router.enable_tcp().unwrap();
    let signals: Rc<RefCell<Vec<CongestionSignal>>> = Rc::new(RefCell::new(Vec::new()));
    let s = signals.clone();
    router.set_congestion_cb(move |_el, sig| s.borrow_mut().push(sig.clone()));

    let policy = QueuePolicy::default();
    let path = format!("{class}/1.0/hold");
    let interned = router.intern(&class, &path, 0, &[]);
    let results: Rc<RefCell<Vec<XrlResult>>> = Rc::new(RefCell::new(Vec::new()));
    for i in 0..=policy.hard_cap {
        let r = results.clone();
        let cb = Box::new(move |_el: &mut EventLoop, res| r.borrow_mut().push(res));
        if i % 2 == 0 {
            router.send(&mut el, hold_xrl(&class), cb);
        } else {
            router.send_interned(&mut el, &interned, Default::default(), false, cb);
        }
        if i == 0 {
            let lane = router.lane_of(&class, &path).unwrap();
            assert_eq!(router.lane_depth(&lane), 1, "charged from the first send");
        }
    }
    let lane = router.lane_of(&class, &path).unwrap();
    assert_eq!(router.lane_depth(&lane), policy.hard_cap);
    assert_eq!(router.pending_len(), policy.hard_cap);
    assert_eq!(router.shed_count(), 1);
    assert!(matches!(results.borrow()[..], [Err(XrlError::Overloaded)]));
    assert_eq!(
        signals.borrow().clone(),
        vec![CongestionSignal::Xoff { lane: lane.clone() }]
    );

    release_stash(&receiver);
    run_until(&mut el, "drain", || {
        results.borrow().len() == policy.hard_cap + 1
    });
    assert_eq!(router.lane_depth(&lane), 0);
    assert_eq!(router.pending_len(), 0);
    assert_eq!(signals.borrow().len(), 2, "one Xoff, one Xon");

    receiver.stop();
    rthread.join().unwrap();
}

/// Completions before new work: a sender whose lane is in Xoff and whose
/// own loop holds thousands of queued ordinary events hears `Xon` as soon
/// as the receiver answers, while most of that backlog is still queued —
/// the responses do not wait behind it, so the window turns over.
#[test]
fn xon_arrives_while_a_deep_input_backlog_is_still_queued() {
    const BACKLOG: usize = 2_000;
    let class = format!("ovl{}", NEXT_CLASS.fetch_add(1, Ordering::SeqCst));
    let finder = Finder::new();
    let (receiver, rthread) = spawn_stashing_receiver(finder.clone(), &class, false);

    let mut el = EventLoop::new();
    let metrics = Metrics::new();
    let router = XrlRouter::new(&mut el, finder);
    router.enable_tcp().unwrap();
    router.set_metrics(&metrics);
    router.set_overload_policy(QueuePolicy {
        high_watermark: 8,
        low_watermark: 3,
        hard_cap: 12,
    });
    // Bulk events still queued on the sender's loop, read when Xon fires.
    let queued = Arc::new(AtomicUsize::new(0));
    let xon_with_queued: Rc<RefCell<Option<usize>>> = Rc::default();
    let (q, x) = (queued.clone(), xon_with_queued.clone());
    router.set_congestion_cb(move |_el, sig| {
        if matches!(sig, CongestionSignal::Xon { .. }) {
            *x.borrow_mut() = Some(q.load(Ordering::SeqCst));
        }
    });
    let results: Rc<RefCell<Vec<XrlResult>>> = Rc::new(RefCell::new(Vec::new()));
    for _ in 0..12 {
        let r = results.clone();
        router.send(
            &mut el,
            hold_xrl(&class),
            Box::new(move |_el, res| r.borrow_mut().push(res)),
        );
    }
    assert!(router.any_lane_congested(), "the lane is in Xoff");
    el.run_until_idle(); // the turn's flush puts the requests on the wire

    let input = el.sender();
    for _ in 0..BACKLOG {
        queued.fetch_add(1, Ordering::SeqCst);
        let q = queued.clone();
        input.post(move |_| {
            q.fetch_sub(1, Ordering::SeqCst);
        });
    }
    release_stash(&receiver);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while frames_read(&metrics) < 12 {
        assert!(std::time::Instant::now() < deadline, "no answers arrived");
        std::thread::yield_now();
    }
    // Every answer is now queued behind the backlog, or beside it.
    assert_eq!(queued.load(Ordering::SeqCst), BACKLOG);
    while xon_with_queued.borrow().is_none() {
        assert!(el.run_one(), "the answers never completed");
    }
    let still_queued = xon_with_queued.borrow().unwrap();
    assert!(
        still_queued >= BACKLOG / 2,
        "Xon arrived with only {still_queued} of {BACKLOG} queued events left"
    );
    run_until(&mut el, "drain", || results.borrow().len() == 12);
    assert!(results.borrow().iter().all(|r| r.is_ok()));
    el.run_until_idle();
    assert_eq!(queued.load(Ordering::SeqCst), 0);

    receiver.stop();
    rthread.join().unwrap();
}

/// Frames the router's TCP readers have decoded so far.
fn frames_read(metrics: &Metrics) -> u64 {
    match metrics.get("xrl.frames_per_read") {
        Some(MetricValue::Histogram(h)) => h.sum,
        _ => 0,
    }
}

/// Satellite regression: a black-holed UDP peer used to leave its
/// unpipelined per-peer queue populated until process exit.  Declaring the
/// peer dead (first spent retry budget) must evict the queue and fail
/// every outstanding request toward it.
#[test]
fn dead_udp_peer_queue_is_evicted() {
    let class = format!("ovl{}", NEXT_CLASS.fetch_add(1, Ordering::SeqCst));
    let finder = Finder::new();
    let (receiver, rthread) = spawn_stashing_receiver(finder.clone(), &class, true);

    let mut el = EventLoop::new();
    let router = XrlRouter::new(&mut el, finder);
    router.enable_udp().unwrap();
    router
        .register_target("ovl-sender", &format!("{class}-sender"), true)
        .unwrap();
    // The peer is black-holed: every frame toward it disappears.
    router.set_fault_plan(FaultConfig::black_hole(0xDEAD));
    router.set_retry_policy(Some(RetryPolicy {
        max_attempts: 2,
        base_timeout: Duration::from_millis(10),
        max_timeout: Duration::from_millis(20),
    }));

    let results: Rc<RefCell<Vec<XrlResult>>> = Rc::new(RefCell::new(Vec::new()));
    for _ in 0..10 {
        let r = results.clone();
        router.send_pref(
            &mut el,
            hold_xrl(&class),
            TransportPref::Udp,
            Box::new(move |_el, res| r.borrow_mut().push(res)),
        );
    }
    // One in flight, the rest parked in the per-peer queue.
    assert_eq!(router.udp_queue_depth(), 9);

    run_until(&mut el, "peer declared dead", || {
        results.borrow().len() == 10
    });
    assert!(
        results
            .borrow()
            .iter()
            .all(|r| matches!(r, Err(XrlError::Timeout))),
        "every request fails crisply: {:?}",
        results.borrow()
    );
    assert_eq!(router.udp_queue_depth(), 0, "dead peer's queue evicted");
    assert_eq!(router.pending_len(), 0);

    receiver.stop();
    rthread.join().unwrap();
}

/// A priority probe skips the unpipelined UDP queue: with the peer's data
/// slot wedged behind a stalled request, the keepalive still completes and
/// the parked data frames stay exactly where they were.
#[test]
fn priority_probe_skips_saturated_udp_queue() {
    let class = format!("ovl{}", NEXT_CLASS.fetch_add(1, Ordering::SeqCst));
    let finder = Finder::new();
    let (receiver, rthread) = spawn_stashing_receiver(finder.clone(), &class, true);

    let mut el = EventLoop::new();
    let router = XrlRouter::new(&mut el, finder);
    router.enable_udp().unwrap();
    router
        .register_target("ovl-sender", &format!("{class}-sender"), true)
        .unwrap();

    let results: Rc<RefCell<Vec<XrlResult>>> = Rc::new(RefCell::new(Vec::new()));
    for _ in 0..5 {
        let r = results.clone();
        router.send_pref(
            &mut el,
            hold_xrl(&class),
            TransportPref::Udp,
            Box::new(move |_el, res| r.borrow_mut().push(res)),
        );
    }
    assert_eq!(router.udp_queue_depth(), 4);

    let probed: Rc<RefCell<Option<bool>>> = Rc::new(RefCell::new(None));
    let p = probed.clone();
    probe_liveness(&router, &mut el, &class, move |_el, alive, _congested| {
        *p.borrow_mut() = Some(alive);
    });
    run_until(&mut el, "udp priority probe", || probed.borrow().is_some());
    assert_eq!(*probed.borrow(), Some(true));
    assert_eq!(
        router.udp_queue_depth(),
        4,
        "the probe neither consumed nor pumped the data queue"
    );

    release_stash(&receiver);
    run_until(&mut el, "drain", || results.borrow().len() == 5);
    assert_eq!(router.udp_queue_depth(), 0);

    receiver.stop();
    rthread.join().unwrap();
}

/// A parked UDP request's retry timer starts when its turn comes, not when
/// it is parked.  With a retry policy, the requests behind a stalled one
/// stay parked while it retransmits; they used to time out in the queue,
/// jump the peer's one-in-flight slot, and later go out a second time when
/// the slot reached them.
#[test]
fn parked_udp_requests_keep_their_place_under_retry() {
    let class = format!("ovl{}", NEXT_CLASS.fetch_add(1, Ordering::SeqCst));
    let finder = Finder::new();
    let (receiver, rthread) = spawn_stashing_receiver(finder.clone(), &class, true);

    let mut el = EventLoop::new();
    let router = XrlRouter::new(&mut el, finder);
    router.enable_udp().unwrap();
    router
        .register_target("ovl-sender", &format!("{class}-sender"), true)
        .unwrap();
    router.set_retry_policy(Some(RetryPolicy {
        max_attempts: 50,
        base_timeout: Duration::from_millis(20),
        max_timeout: Duration::from_millis(40),
    }));

    let results: Rc<RefCell<Vec<XrlResult>>> = Rc::new(RefCell::new(Vec::new()));
    for _ in 0..3 {
        let r = results.clone();
        router.send_pref(
            &mut el,
            hold_xrl(&class),
            TransportPref::Udp,
            Box::new(move |_el, res| r.borrow_mut().push(res)),
        );
    }
    assert_eq!(router.udp_queue_depth(), 2);

    // Several retry periods: the first request retransmits, the others wait.
    el.run_for(Duration::from_millis(120));
    assert_eq!(
        held_count(&receiver),
        1,
        "only the request holding the slot reached the receiver"
    );
    assert_eq!(router.udp_queue_depth(), 2);

    release_stash(&receiver);
    run_until(&mut el, "drain", || results.borrow().len() == 3);
    assert!(results.borrow().iter().all(|r| r.is_ok()));
    assert_eq!(router.udp_queue_depth(), 0);
    assert_eq!(router.pending_len(), 0);

    receiver.stop();
    rthread.join().unwrap();
}

/// Shutdown fails every pending request, and no request parked behind a
/// UDP peer may reach the wire on the way: failing the one in flight frees
/// its peer's slot, which must not hand the slot — and a write — to the
/// next parked one.
#[test]
fn shutdown_sends_no_parked_udp_request() {
    let class = format!("ovl{}", NEXT_CLASS.fetch_add(1, Ordering::SeqCst));
    let finder = Finder::new();
    let (receiver, rthread) = spawn_stashing_receiver(finder.clone(), &class, true);

    let mut el = EventLoop::new();
    let router = XrlRouter::new(&mut el, finder);
    router.enable_udp().unwrap();
    router
        .register_target("ovl-sender", &format!("{class}-sender"), true)
        .unwrap();

    let results: Rc<RefCell<Vec<XrlResult>>> = Rc::new(RefCell::new(Vec::new()));
    for _ in 0..5 {
        let r = results.clone();
        router.send_pref(
            &mut el,
            hold_xrl(&class),
            TransportPref::Udp,
            Box::new(move |_el, res| r.borrow_mut().push(res)),
        );
    }
    assert_eq!(router.udp_queue_depth(), 4);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while held_count(&receiver) < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for the first hold"
        );
        el.run_for(Duration::from_millis(1));
    }

    router.shutdown(&mut el);
    assert_eq!(results.borrow().len(), 5, "every request failed");
    assert!(results
        .borrow()
        .iter()
        .all(|r| matches!(r, Err(XrlError::TargetDied))));
    // Give a datagram written at shutdown time to arrive.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        held_count(&receiver),
        1,
        "a request parked at shutdown reached the receiver"
    );

    receiver.stop();
    rthread.join().unwrap();
}
