//! Request identity: a receiver remembers `(sender, seq)` only for requests
//! that can arrive twice — the sender marked them ([`SEQ_MAY_RECUR`], set
//! when it has a retry policy or a fault plan) or they came as datagrams.
//! The receiver in these tests never has a policy of its own: what it
//! keeps is decided by what the sender said.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use xorp_event::{EventLoop, EventSender};
use xorp_xrl::{Finder, QueuePolicy, RetryPolicy, TransportPref, Xrl, XrlRouter};

/// Distinct class names per test so parallel tests never collide.
static NEXT_CLASS: AtomicU64 = AtomicU64::new(0);

/// What the receiver saw: identities remembered, handler runs per request.
struct Seen {
    dedup_len: usize,
    runs: HashMap<u32, u32>,
}

/// Send `n` requests at once over `pref` from a router with `retry` (and
/// no fault plan) to an echo receiver with neither; wait for every
/// response.
fn exchange(n: u32, retry: Option<RetryPolicy>, pref: TransportPref) -> Seen {
    let class = format!("dd{}", NEXT_CLASS.fetch_add(1, Ordering::SeqCst));
    let instance = format!("{class}-0");
    let finder = Finder::new();
    let runs: Arc<Mutex<HashMap<u32, u32>>> = Arc::new(Mutex::new(HashMap::new()));

    let (tx, rx) = mpsc::channel::<EventSender>();
    let receiver_thread = std::thread::spawn({
        let (finder, runs, class, instance) = (
            finder.clone(),
            runs.clone(),
            class.clone(),
            instance.clone(),
        );
        move || {
            let mut el = EventLoop::new();
            let router = XrlRouter::new(&mut el, finder);
            router.enable_tcp().unwrap();
            router.enable_udp().unwrap();
            router.register_target(&class, &instance, true).unwrap();
            router.add_fn(&instance, &format!("{class}/1.0/echo"), move |_el, args| {
                *runs.lock().unwrap().entry(args.get_u32("i")?).or_insert(0) += 1;
                Ok(args.clone())
            });
            tx.send(el.sender()).unwrap();
            el.run();
            router.shutdown(&mut el);
        }
    });
    let receiver = rx.recv().unwrap();

    let mut el = EventLoop::new();
    let router = XrlRouter::new(&mut el, finder);
    router.set_retry_policy(retry);
    // The whole burst goes out before the loop runs.
    router.set_overload_policy(QueuePolicy {
        hard_cap: n as usize,
        ..QueuePolicy::default()
    });
    router.enable_tcp().unwrap();
    router.enable_udp().unwrap();
    let (done_tx, done_rx) = mpsc::channel::<u32>();
    for i in 0..n {
        let xrl: Xrl = format!("finder://{class}/{class}/1.0/echo?i:u32={i}")
            .parse()
            .unwrap();
        let done_tx = done_tx.clone();
        router.send_pref(
            &mut el,
            xrl,
            pref,
            Box::new(move |_el, result| {
                done_tx
                    .send(result.and_then(|a| a.get_u32("i")).unwrap())
                    .unwrap();
            }),
        );
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut answered = 0;
    while answered < n {
        assert!(Instant::now() < deadline, "{answered}/{n} answered");
        el.run_for(Duration::from_millis(1));
        answered += done_rx.try_iter().count() as u32;
    }
    router.shutdown(&mut el);

    let (len_tx, len_rx) = mpsc::channel::<usize>();
    receiver.post(move |el| {
        let router = el.slot::<XrlRouter>().unwrap().clone();
        len_tx.send(router.dedup_len()).unwrap();
        el.stop();
    });
    let dedup_len = len_rx.recv().unwrap();
    receiver_thread.join().unwrap();
    let runs = runs.lock().unwrap().clone();
    Seen { dedup_len, runs }
}

fn assert_each_ran_once(seen: &Seen, n: u32) {
    assert_eq!(seen.runs.len(), n as usize);
    assert!(seen.runs.values().all(|&runs| runs == 1));
}

/// Long enough that no timeout fires: these exchanges lose nothing.
fn patient() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        base_timeout: Duration::from_secs(30),
        max_timeout: Duration::from_secs(30),
    }
}

#[test]
fn dedup_only_when_flagged_so_plain_tcp_costs_the_receiver_nothing() {
    let seen = exchange(5_000, None, TransportPref::Tcp);
    assert_each_ran_once(&seen, 5_000);
    assert_eq!(seen.dedup_len, 0);
}

#[test]
fn dedup_only_when_flagged_and_a_retrying_sender_flags_every_request() {
    let seen = exchange(5_000, Some(patient()), TransportPref::Tcp);
    assert_each_ran_once(&seen, 5_000);
    assert_eq!(seen.dedup_len, 5_000);
}

#[test]
fn dedup_only_when_flagged_except_datagrams_which_always_keep_an_identity() {
    let seen = exchange(300, None, TransportPref::Udp);
    assert_each_ran_once(&seen, 300);
    assert_eq!(seen.dedup_len, 300);
}
