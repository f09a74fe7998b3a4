//! The TCP family's batching contract, checked from outside.  A raw socket
//! stands in for the peer, so every byte on the wire is visible; the
//! router's loop runs on a virtual clock and is stepped one event at a
//! time, so every turn is visible too — and no timer can fire unless the
//! test advances time.  Cross-thread progress (a reader thread having
//! decoded what was written) is awaited on the transport's own
//! `xrl.frames_per_read` histogram, never slept for.

use std::cell::RefCell;
use std::io::Write;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::rc::Rc;
use std::time::{Duration, Instant};

use xorp_event::{EventLoop, Time};
use xorp_profiler::{MetricValue, Metrics};
use xorp_xrl::finder::Endpoint;
use xorp_xrl::marshal::{read_frame, Frame};
use xorp_xrl::{
    AtomValue, FaultConfig, Finder, RetryPolicy, Xrl, XrlArgs, XrlError, XrlResult, XrlRouter,
    SEQ_MAY_RECUR,
};

const TIMEOUT: Duration = Duration::from_secs(10);

/// Spin (running no loop) until another thread has made `cond` true.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + TIMEOUT;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// `(count, sum)` of a histogram: syscalls made, frames they carried.
fn histogram(metrics: &Metrics, name: &str) -> (u64, u64) {
    match metrics.get(name) {
        Some(MetricValue::Histogram(h)) => (h.count, h.sum),
        other => panic!("{name}: {other:?}"),
    }
}

fn gauge(metrics: &Metrics, name: &str) -> i64 {
    match metrics.get(name) {
        Some(MetricValue::Gauge { value, .. }) => value,
        other => panic!("{name}: {other:?}"),
    }
}

fn note_frame(key: [u8; 16], seq: u64, i: u32, priority: bool) -> Vec<u8> {
    Frame::Request {
        seq,
        sender: 4242,
        target: "sink-0".into(),
        key,
        path: "sink/1.0/note".into(),
        args: XrlArgs::new().add_u32("i", i),
        method_id: None,
        priority,
        trace: None,
    }
    .encode()
    .to_vec()
}

/// A router whose `sink/1.0/note` handler logs its argument, fed by a raw
/// socket the test writes encoded frames into.
struct Receiving {
    el: EventLoop,
    metrics: Metrics,
    log: Rc<RefCell<Vec<u32>>>,
    key: [u8; 16],
    wire: TcpStream,
}

fn receiving() -> Receiving {
    let finder = Finder::new();
    let mut el = EventLoop::new_virtual();
    let metrics = Metrics::new();
    let router = XrlRouter::new(&mut el, finder.clone());
    let addr = router.enable_tcp().unwrap();
    router.set_metrics(&metrics);
    router.register_target("sink", "sink-0", true).unwrap();
    let log = Rc::new(RefCell::new(Vec::new()));
    let l = log.clone();
    router.add_fn("sink-0", "sink/1.0/note", move |_el, args| {
        l.borrow_mut().push(args.get_u32("i")?);
        Ok(XrlArgs::new())
    });
    let key = finder
        .resolve("anonymous", "sink-0", "sink/1.0/note")
        .unwrap()
        .key;
    let wire = TcpStream::connect(addr).unwrap();
    // Registration made the Finder post cache invalidations; with those
    // out of the way, every event the tests step through is a frame's.
    el.run_until_idle();
    Receiving {
        el,
        metrics,
        log,
        key,
        wire,
    }
}

impl Receiving {
    /// Write `bytes` in one `write` and wait until the reader thread has
    /// decoded (and so posted) `total` frames in all.
    fn feed(&mut self, bytes: &[u8], total: u64) {
        self.wire.write_all(bytes).unwrap();
        wait_until("the reader to decode the stream", || {
            histogram(&self.metrics, "xrl.frames_per_read").1 == total
        });
    }
}

const PRIORITY_MARK: u32 = 1_000_000;

/// Bulk frames keep their order through batching, priority frames keep
/// theirs, and no loop event carries more than 64 frames.
#[test]
fn order_is_preserved_with_priority_frames_interleaved() {
    let mut rx = receiving();
    let mut stream = Vec::new();
    let mut priorities = 0;
    for i in 0..200u32 {
        if [10, 100, 150].contains(&i) {
            stream.extend(note_frame(
                rx.key,
                1000 + i as u64,
                PRIORITY_MARK + priorities,
                true,
            ));
            priorities += 1;
        }
        stream.extend(note_frame(rx.key, i as u64, i, false));
    }
    rx.feed(&stream, 203);

    let mut largest_event = 0;
    loop {
        let before = rx.log.borrow().len();
        if !rx.el.run_one() {
            break;
        }
        largest_event = largest_event.max(rx.log.borrow().len() - before);
    }
    assert!(
        largest_event <= 64,
        "one event ran {largest_event} frames; the batch cap is 64"
    );
    let log = rx.log.borrow();
    let (pri, bulk): (Vec<u32>, Vec<u32>) = log.iter().partition(|&&i| i >= PRIORITY_MARK);
    assert_eq!(bulk, (0..200).collect::<Vec<_>>());
    assert_eq!(pri, (0..3).map(|p| PRIORITY_MARK + p).collect::<Vec<_>>());
    // Everything was posted before the loop ran, so the priority lane
    // drained first: the keepalives overtook the whole backlog.
    assert!(
        log[..3].iter().all(|&i| i >= PRIORITY_MARK),
        "{:?}",
        &log[..8]
    );
}

/// A priority frame that arrives while the loop is inside a bulk batch is
/// handled as soon as that batch ends — ahead of every batch still queued.
#[test]
fn priority_frame_waits_behind_at_most_one_batch() {
    let mut rx = receiving();
    let mut stream = Vec::new();
    for i in 0..200u32 {
        stream.extend(note_frame(rx.key, i as u64, i, false));
    }
    rx.feed(&stream, 200);

    // The loop takes the first batch...
    assert!(rx.el.run_one());
    let first_batch = rx.log.borrow().len();
    assert!(
        (1..=64).contains(&first_batch),
        "first batch ran {first_batch}"
    );
    // ...and while it was "inside" it, a keepalive arrived.
    let keepalive = note_frame(rx.key, 9999, PRIORITY_MARK, true);
    rx.feed(&keepalive, 201);
    while rx.log.borrow().last() != Some(&PRIORITY_MARK) {
        assert!(rx.el.run_one(), "keepalive never ran");
    }
    assert_eq!(
        rx.log.borrow().len(),
        first_batch + 1,
        "bulk frames ran between the batch in progress and the keepalive"
    );
    rx.el.run_until_idle();
    assert_eq!(rx.log.borrow().len(), 201);
}

/// The next frame on the wire, which must be a successful response.
fn read_ok_response(wire: &mut TcpStream) -> u64 {
    wire.set_read_timeout(Some(TIMEOUT)).unwrap();
    match Frame::decode(read_frame(wire).unwrap()).unwrap() {
        Frame::Response {
            seq, result: Ok(_), ..
        } => seq,
        other => panic!("expected an ok response, read {other:?}"),
    }
}

/// The `seq` bit is the wire contract for dedup.  A replayed request that
/// carries [`SEQ_MAY_RECUR`] runs its handler once and has the cached
/// response replayed; without the bit the sender has promised never to
/// send a second copy, so each arrival is a request of its own.
#[test]
fn dedup_only_when_flagged_replay_from_a_raw_peer() {
    let mut rx = receiving();
    let flagged = note_frame(rx.key, SEQ_MAY_RECUR | 7, 70, false);
    rx.feed(&[flagged.clone(), flagged].concat(), 2);
    rx.el.run_until_idle();
    assert_eq!(*rx.log.borrow(), [70]);
    for _ in 0..2 {
        assert_eq!(read_ok_response(&mut rx.wire), SEQ_MAY_RECUR | 7);
    }
    assert_eq!(gauge(&rx.metrics, "xrl.dedup_entries"), 1);

    let plain = note_frame(rx.key, 8, 80, false);
    rx.feed(&[plain.clone(), plain].concat(), 4);
    rx.el.run_until_idle();
    assert_eq!(*rx.log.borrow(), [70, 80, 80]);
    for _ in 0..2 {
        assert_eq!(read_ok_response(&mut rx.wire), 8);
    }
    assert_eq!(gauge(&rx.metrics, "xrl.dedup_entries"), 1);
}

/// A router whose only peer is a raw listener registered with the Finder
/// by hand: what the router writes, the test reads byte for byte.
struct Sending {
    el: EventLoop,
    router: XrlRouter,
    metrics: Metrics,
    listener: TcpListener,
    results: Rc<RefCell<Vec<(u32, XrlResult)>>>,
}

fn sending(retry: Option<RetryPolicy>) -> Sending {
    let finder = Finder::new();
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let endpoint = Endpoint::Tcp(listener.local_addr().unwrap());
    finder
        .register("peer", "peer-0", vec![endpoint], true)
        .unwrap();
    let mut el = EventLoop::new_virtual();
    let metrics = Metrics::new();
    el.set_metrics(&metrics);
    let router = XrlRouter::new(&mut el, finder);
    router.enable_tcp().unwrap();
    router.set_metrics(&metrics);
    router.set_retry_policy(retry);
    router.register_target("me", "me-0", true).unwrap();
    el.run_until_idle(); // the Finder's cache invalidations (see `receiving`)
    Sending {
        el,
        router,
        metrics,
        listener,
        results: Rc::new(RefCell::new(Vec::new())),
    }
}

impl Sending {
    fn send(&mut self, i: u32, priority: bool) {
        let xrl: Xrl = format!("finder://peer/peer/1.0/poke?i:u32={i}")
            .parse()
            .unwrap();
        let results = self.results.clone();
        let cb = Box::new(move |_el: &mut EventLoop, r: XrlResult| {
            results.borrow_mut().push((i, r));
        });
        if priority {
            self.router.send_priority(&mut self.el, xrl, cb);
        } else {
            self.router.send(&mut self.el, xrl, cb);
        }
    }

    fn accept(&self) -> TcpStream {
        let (stream, _) = self.listener.accept().unwrap();
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        stream
    }

    fn writes(&self) -> (u64, u64) {
        histogram(&self.metrics, "xrl.frames_per_write")
    }
}

/// Read one request off the wire: `(seq, i, priority)`.
fn read_poke(wire: &mut TcpStream) -> (u64, u32, bool) {
    match Frame::decode(read_frame(wire).unwrap()).unwrap() {
        Frame::Request {
            seq,
            args,
            priority,
            ..
        } => (seq, args.get_u32("i").unwrap(), priority),
        other => panic!("expected a request, read {other:?}"),
    }
}

/// One request on an idle connection: nothing is written inside the send,
/// exactly one loop event later it is on the wire, and that event was not
/// a timer — virtual time never moved and nothing else is runnable.
#[test]
fn lone_request_is_written_in_the_same_turn_with_no_timer() {
    let mut tx = sending(None);
    tx.send(7, false);
    assert_eq!(tx.writes(), (0, 0), "written before the turn ended");
    assert!(tx.el.run_one(), "the turn's flush was not scheduled");
    assert_eq!(tx.writes(), (1, 1));
    // (Held open to the end: its close would post an event of its own.)
    let mut wire = tx.accept();
    assert_eq!(read_poke(&mut wire).1, 7);
    assert!(!tx.el.run_one(), "something beyond the flush was runnable");
    assert_eq!(tx.el.now(), Time::ZERO);
}

/// A turn's frames leave in FIFO order in one write; a priority frame
/// flushes at once, carrying the bulk frames queued ahead of it.
#[test]
fn one_write_per_turn_and_priority_flushes_immediately() {
    let mut tx = sending(None);
    tx.send(0, false);
    tx.send(1, false);
    tx.send(2, true);
    assert_eq!(tx.writes(), (1, 3), "the priority frame did not flush");
    tx.send(3, false);
    tx.send(4, false);
    assert_eq!(tx.writes(), (1, 3));
    assert!(tx.el.run_one());
    assert_eq!(
        tx.writes(),
        (2, 5),
        "the turn's tail did not share one write"
    );

    let mut wire = tx.accept();
    let seen: Vec<(u32, bool)> = (0..5)
        .map(|_| read_poke(&mut wire))
        .map(|(_, i, p)| (i, p))
        .collect();
    assert_eq!(
        seen,
        vec![(0, false), (1, false), (2, true), (3, false), (4, false)]
    );
}

/// Put one request in flight, then reset the connection under it and
/// buffer five more behind the dead socket without running the loop.
/// (The listener stays open, so a retransmission can reconnect.)
fn sever_with_frames_buffered(tx: &mut Sending) {
    tx.send(0, false);
    tx.el.run_until_idle();
    assert_eq!(tx.writes(), (1, 1));
    // Closing with the request unread makes the kernel reset the
    // connection instead of closing it gracefully.
    drop(tx.accept());
    // The reader thread noticing (its close event sits queued, the loop
    // is not running) means the reset has landed: writes now fail.
    wait_until("the reset to reach the sender", || {
        gauge(&tx.metrics, "event.bulk_depth") >= 1
    });
    for i in 1..=5 {
        tx.send(i, false);
    }
    assert_eq!(
        tx.writes(),
        (1, 1),
        "buffered frames must wait for the flush"
    );
    assert_eq!(tx.router.pending_len(), 6);
}

/// Without a retry policy, a failed flush fails everything outstanding on
/// the connection with `TargetDied` — through `connection_closed`, within
/// the turn, while the reader thread's own close event is still queued.
#[test]
fn failed_flush_fails_pending_requests_without_retry() {
    let mut tx = sending(None);
    sever_with_frames_buffered(&mut tx);
    assert!(tx.el.run_one()); // the flush: fails, schedules the close
    assert!(tx.el.run_one()); // connection_closed
    assert!(
        gauge(&tx.metrics, "event.bulk_depth") >= 1,
        "the reader's close event ran first; the flush path went untested"
    );
    let mut failed: Vec<u32> = tx
        .results
        .borrow()
        .iter()
        .map(|(i, r)| {
            assert_eq!(r, &Err(XrlError::TargetDied), "request {i}");
            *i
        })
        .collect();
    failed.sort_unstable();
    assert_eq!(failed, (0..=5).collect::<Vec<_>>());
    assert_eq!(tx.router.pending_len(), 0);
    // The reader's late close finds nothing left to do.
    tx.el.run_until_idle();
    assert_eq!(tx.results.borrow().len(), 6);
}

/// With a retry policy the same failure costs nothing but time: requests
/// stay pending on their armed timers and are retransmitted — same
/// sequence numbers — over a fresh connection.
#[test]
fn failed_flush_leaves_pending_requests_to_their_retry_timers() {
    let mut tx = sending(Some(RetryPolicy {
        max_attempts: 4,
        base_timeout: Duration::from_millis(50),
        max_timeout: Duration::from_millis(200),
    }));
    sever_with_frames_buffered(&mut tx);
    tx.el.run_until_idle();
    assert!(tx.results.borrow().is_empty(), "{:?}", tx.results.borrow());
    assert_eq!(tx.router.pending_len(), 6);

    // Virtual time reaches the first backoff: every request is
    // retransmitted, reconnecting on demand.
    tx.el.run_for(Duration::from_millis(60));
    let mut wire = tx.accept();
    let mut pokes: Vec<(u64, u32, bool)> = (0..6).map(|_| read_poke(&mut wire)).collect();
    pokes.sort_unstable();
    assert_eq!(
        pokes.iter().map(|p| p.1).collect::<Vec<_>>(),
        (0..=5).collect::<Vec<_>>()
    );
    let mut replies = Vec::new();
    for (seq, _, _) in &pokes {
        let reply = Frame::Response {
            seq: *seq,
            result: Ok(XrlArgs::new()),
            priority: false,
        };
        replies.extend_from_slice(&reply.encode());
    }
    wire.write_all(&replies).unwrap();
    wait_until("the replies to be decoded", || {
        histogram(&tx.metrics, "xrl.frames_per_read").1 >= 6
    });
    tx.el.run_until_idle();
    assert_eq!(tx.results.borrow().len(), 6);
    assert!(tx.results.borrow().iter().all(|(_, r)| r.is_ok()));
    assert_eq!(tx.router.pending_len(), 0);
}

/// The `Disconnect` fault acts per frame, before buffering: the frame it
/// rode on (and everything buffered ahead of it) is written, the peer sees
/// the connection end, the reply already owed still gets back, and the
/// next send reconnects.
#[test]
fn disconnect_fault_delivers_then_severs() {
    let mut tx = sending(Some(RetryPolicy::default()));
    tx.router.set_fault_plan(FaultConfig {
        seed: 1,
        drop: 0.0,
        duplicate: 0.0,
        delay: 0.0,
        delay_ms: (0, 0),
        disconnect: 1.0,
    });
    tx.send(0, false);
    tx.el.run_until_idle();
    tx.send(1, false);
    tx.el.run_until_idle();

    // Each request severed the connection it travelled on, so each got a
    // connection of its own: one frame, then end of stream.
    let mut first = tx.accept();
    let (seq, i, _) = read_poke(&mut first);
    assert_eq!(i, 0);
    assert!(
        read_frame(&mut first).is_err(),
        "the peer never saw the sever"
    );
    let mut second = tx.accept();
    assert_eq!(read_poke(&mut second).1, 1);

    // The severed side still hears the reply to what it delivered.
    let reply = Frame::Response {
        seq,
        result: Ok(XrlArgs::new()),
        priority: false,
    };
    first.write_all(&reply.encode()).unwrap();
    wait_until("the reply to be decoded", || {
        histogram(&tx.metrics, "xrl.frames_per_read").1 >= 1
    });
    tx.el.run_until_idle();
    assert_eq!(*tx.results.borrow(), vec![(0, Ok(XrlArgs::new()))]);
}

/// The reordering the completion lane allows, pinned.  In one write the
/// peer sends three requests and then the answers to two of the router's
/// three outstanding requests, then closes its sending half.  Both
/// answers complete before the first request dispatches, though they
/// arrived after it; the requests dispatch in arrival order, and
/// the close runs after every answer the reader delivered: the answered
/// requests end `Ok`, and only the unanswered one fails `TargetDied`.
#[test]
fn responses_overtake_earlier_requests_and_the_close_waits_for_them() {
    let mut tx = sending(None);
    // Per dispatched request: its `i`, and how many of the router's own
    // requests had completed successfully when it ran.
    let dispatched: Rc<RefCell<Vec<(u32, usize)>>> = Rc::default();
    let (log, results) = (dispatched.clone(), tx.results.clone());
    tx.router.add_fn("me-0", "me/1.0/note", move |_el, args| {
        let answered = results.borrow().iter().filter(|(_, r)| r.is_ok()).count();
        log.borrow_mut().push((args.get_u32("i")?, answered));
        Ok(XrlArgs::new())
    });
    let finder = tx.router.finder();
    let key = finder
        .resolve("anonymous", "me-0", "me/1.0/note")
        .unwrap()
        .key;
    tx.el.run_until_idle();
    for i in 0..3 {
        tx.send(i, false);
    }
    tx.el.run_until_idle();
    let mut wire = tx.accept();
    let pokes: Vec<u64> = (0..3).map(|_| read_poke(&mut wire).0).collect();

    let mut stream = Vec::new();
    for i in 0..3u32 {
        let request = Frame::Request {
            seq: 100 + u64::from(i),
            sender: 4242,
            target: "me-0".into(),
            key,
            path: "me/1.0/note".into(),
            args: XrlArgs::new().add_u32("i", i),
            method_id: None,
            priority: false,
            trace: None,
        };
        stream.extend_from_slice(&request.encode());
    }
    for &seq in &pokes[..2] {
        let reply = Frame::Response {
            seq,
            result: Ok(XrlArgs::new()),
            priority: false,
        };
        stream.extend_from_slice(&reply.encode());
    }
    wire.write_all(&stream).unwrap();
    wire.shutdown(Shutdown::Write).unwrap();
    wait_until("the reader to decode the stream", || {
        histogram(&tx.metrics, "xrl.frames_per_read").1 == 5
    });

    let deadline = Instant::now() + TIMEOUT;
    while tx.results.borrow().len() < 3 || dispatched.borrow().len() < 3 {
        assert!(Instant::now() < deadline, "timed out stepping the loop");
        if !tx.el.run_one() {
            std::thread::yield_now(); // the close may still be on its way
        }
    }
    let dispatched = dispatched.borrow();
    assert_eq!(
        dispatched.iter().map(|d| d.0).collect::<Vec<_>>(),
        [0, 1, 2],
        "requests dispatch in arrival order"
    );
    assert_eq!(
        dispatched[0].1, 2,
        "both answers complete before the first request dispatches"
    );
    let mut results = tx.results.borrow().clone();
    results.sort_by_key(|(i, _)| *i);
    assert_eq!(
        results,
        [
            (0, Ok(XrlArgs::new())),
            (1, Ok(XrlArgs::new())),
            (2, Err(XrlError::TargetDied))
        ]
    );
    // The peer still hears the answers to its requests, in order.
    tx.el.run_until_idle();
    let replies: Vec<u64> = (0..3).map(|_| read_ok_response(&mut wire)).collect();
    assert_eq!(replies, [100, 101, 102]);
}

/// The close waits behind every answer however many batches they fill:
/// the peer answers all but the last of 130 requests (three completion
/// batches) and closes before the loop has run any of them.  Only the
/// unanswered request fails.
#[test]
fn close_runs_after_every_answer_its_reader_delivered() {
    const SENT: u32 = 130;
    let mut tx = sending(None);
    for i in 0..SENT {
        tx.send(i, false);
    }
    tx.el.run_until_idle();
    let mut wire = tx.accept();
    let mut answers = Vec::new();
    for _ in 1..SENT {
        let reply = Frame::Response {
            seq: read_poke(&mut wire).0,
            result: Ok(XrlArgs::new()),
            priority: false,
        };
        answers.extend_from_slice(&reply.encode());
    }
    wire.write_all(&answers).unwrap();
    wire.shutdown(Shutdown::Write).unwrap();
    // Three answer batches, the close and the lane's wakeup marker.
    wait_until("the reader to post the answers and the close", || {
        gauge(&tx.metrics, "event.completion_depth") + gauge(&tx.metrics, "event.bulk_depth") >= 5
    });
    let deadline = Instant::now() + TIMEOUT;
    while tx.results.borrow().len() < SENT as usize {
        assert!(Instant::now() < deadline, "timed out stepping the loop");
        if !tx.el.run_one() {
            std::thread::yield_now();
        }
    }
    let failed: Vec<u32> = tx
        .results
        .borrow()
        .iter()
        .filter(|(_, r)| r.is_err())
        .map(|(i, r)| {
            assert_eq!(r, &Err(XrlError::TargetDied));
            *i
        })
        .collect();
    assert_eq!(failed, [SENT - 1]);
}

/// The argument block of a `poke` call: named, as a dynamic send and an
/// unsigned interned call both carry it.
fn poke_args(i: u32) -> XrlArgs {
    XrlArgs::new().add_u32("i", i)
}

/// Interned and dynamic sends are one request on the wire.  An interned
/// call whose signature the peer never advertised takes the v1 named
/// encoding, and then its frame is the dynamic send's byte for byte —
/// except `seq` — charged to the same lane.
#[test]
fn interned_and_dynamic_sends_put_the_same_frame_on_the_same_lane() {
    let mut tx = sending(None);
    let lane = format!("tcp:{}", tx.listener.local_addr().unwrap());
    assert_eq!(
        tx.router.lane_of("peer", "peer/1.0/poke").as_deref(),
        Some(lane.as_str())
    );
    tx.send(7, false);
    let call = tx.router.intern("peer", "peer/1.0/poke", 0, &[]);
    tx.router
        .send_interned(&mut tx.el, &call, poke_args(7), false, Box::new(|_, _| {}));
    assert_eq!(tx.router.lane_depth(&lane), 2, "both sends on one lane");
    tx.el.run_until_idle();

    let mut wire = tx.accept();
    let dynamic = read_frame(&mut wire).unwrap();
    let interned = read_frame(&mut wire).unwrap();
    assert_eq!(dynamic.len(), interned.len());
    // Body: kind byte, then the u64 seq, then everything else.
    assert_eq!(dynamic[0], interned[0]);
    assert_ne!(dynamic[1..9], interned[1..9], "two requests, two seqs");
    assert_eq!(dynamic[9..], interned[9..]);
}

/// `lane_of` names no lane for a co-located target (intra dispatch is
/// never queued), and the kill family reaches a UDP-only target over UDP.
#[test]
fn colocated_target_has_no_lane_and_kill_reaches_a_udp_only_target() {
    let mut tx = sending(None);
    assert_eq!(tx.router.lane_of("me", "me/1.0/anything"), None);
    assert!(tx.router.lane_of("peer", "peer/1.0/poke").is_some());

    let socket = std::net::UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    socket.set_read_timeout(Some(TIMEOUT)).unwrap();
    let finder = tx.router.finder();
    let endpoint = Endpoint::Udp(socket.local_addr().unwrap());
    finder
        .register("udponly", "udponly-0", vec![endpoint], true)
        .unwrap();
    tx.router.enable_udp().unwrap();
    tx.el.run_until_idle();
    tx.router.send_kill(&mut tx.el, "udponly", 15).unwrap();

    let mut datagram = [0u8; 64];
    let (n, _) = socket.recv_from(&mut datagram).unwrap();
    let body = bytes::Bytes::copy_from_slice(&datagram[4..n]);
    assert_eq!(Frame::decode(body).unwrap(), Frame::Kill { signal: 15 });
}

/// The wire counts list items in 16 bits.  A request whose block it
/// cannot count fails `BadArgs` in the send itself — through either
/// face — before it is charged to a lane or written, so no handler can
/// ever see a truncated copy.
#[test]
fn an_uncountable_request_fails_before_it_is_charged() {
    let mut tx = sending(None);
    let lane = format!("tcp:{}", tx.listener.local_addr().unwrap());
    let rows = || XrlArgs::new().add_list("rows", vec![AtomValue::U32(0); 65_536]);
    let results = tx.results.clone();
    let xrl = Xrl::generic("peer", "peer", "1.0", "poke", rows());
    tx.router.send(
        &mut tx.el,
        xrl,
        Box::new(move |_, r| results.borrow_mut().push((0, r))),
    );
    let results = tx.results.clone();
    let call = tx.router.intern("peer", "peer/1.0/poke", 0, &[]);
    tx.router.send_interned(
        &mut tx.el,
        &call,
        rows(),
        false,
        Box::new(move |_, r| results.borrow_mut().push((1, r))),
    );
    let results = tx.results.borrow().clone();
    assert_eq!(results.len(), 2, "both sends failed synchronously");
    for (_, r) in results {
        assert!(matches!(r, Err(XrlError::BadArgs(_))), "{r:?}");
    }
    assert_eq!(tx.router.lane_depth(&lane), 0);
    assert_eq!(tx.router.pending_len(), 0);
    tx.el.run_until_idle();
    assert_eq!(tx.writes(), (0, 0), "an uncountable frame reached the wire");
}

/// A reply the wire cannot count goes back as `BadArgs`, not as a
/// shorter list.
#[test]
fn an_uncountable_reply_is_sent_as_bad_args() {
    let mut rx = receiving();
    let router = rx.el.slot::<XrlRouter>().unwrap().clone();
    router.add_fn("sink-0", "sink/1.0/flood", |_el, _args| {
        Ok(XrlArgs::new().add_list("rows", vec![AtomValue::U32(0); 65_536]))
    });
    let request = Frame::Request {
        seq: 5,
        sender: 4242,
        target: "sink-0".into(),
        key: rx.key,
        path: "sink/1.0/flood".into(),
        args: XrlArgs::new(),
        method_id: None,
        priority: false,
        trace: None,
    };
    rx.feed(&request.encode(), 1);
    rx.el.run_until_idle();
    rx.wire.set_read_timeout(Some(TIMEOUT)).unwrap();
    match Frame::decode(read_frame(&mut rx.wire).unwrap()).unwrap() {
        Frame::Response {
            seq: 5,
            result: Err(XrlError::BadArgs(_)),
            ..
        } => {}
        other => panic!("expected a BadArgs response, read {other:?}"),
    }
}
