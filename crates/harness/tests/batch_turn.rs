//! `RouteBatcher`'s idle flush (`flush_ms == 0`) against the TCP family's
//! frame batches.  The flush is deferred work, and deferred work now runs
//! after the whole batch of frames a reader thread posted, not between two
//! of them.  Two things must hold: a lone route still leaves in the turn
//! that produced it, and routes that arrived together leave together.
//!
//! The process under test sits in the middle, on a virtual clock: raw
//! frames written to its listener each push one row into a batcher, whose
//! sink is a raw listener registered as the `rib` — so both the frames in
//! and the `add_routes` frames out are visible byte for byte.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xorp_event::EventLoop;
use xorp_harness::batch::RouteBatcher;
use xorp_harness::xrl_ifaces::{self, BulkRouteSink};
use xorp_net::Ipv4Net;
use xorp_profiler::{points, MetricValue, Metrics, Profiler};
use xorp_xrl::finder::Endpoint;
use xorp_xrl::marshal::{read_frame, Frame};
use xorp_xrl::{AtomValue, Finder, XrlArgs, XrlRouter};

const TIMEOUT: Duration = Duration::from_secs(10);

/// `(count, sum)` of a histogram: syscalls made, frames they carried.
fn histogram(metrics: &Metrics, name: &str) -> (u64, u64) {
    match metrics.get(name) {
        Some(MetricValue::Histogram(h)) => (h.count, h.sum),
        other => panic!("{name}: {other:?}"),
    }
}

/// Rows in the next `add_routes` frame on the wire.
fn read_add_routes(wire: &mut TcpStream) -> usize {
    match Frame::decode(read_frame(wire).unwrap()).unwrap() {
        Frame::Request { path, args, .. } => {
            assert_eq!(path, "rib/1.0/add_routes");
            args.get_rows("routes").unwrap().len()
        }
        other => panic!("expected a request, read {other:?}"),
    }
}

#[test]
fn idle_flush_keeps_a_lone_route_in_its_turn_and_coalesces_a_frame_batch() {
    let finder = Finder::new();
    let rib = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let rib_at = Endpoint::Tcp(rib.local_addr().unwrap());
    finder.register("rib", "rib-0", vec![rib_at], true).unwrap();

    let mut el = EventLoop::new_virtual();
    let metrics = Metrics::new();
    let router = XrlRouter::new(&mut el, finder.clone());
    let addr = router.enable_tcp().unwrap();
    router.set_metrics(&metrics);
    router.register_target("mid", "mid-0", true).unwrap();
    let batcher = RouteBatcher::new(
        BulkRouteSink::rib(&xrl_ifaces::rib::Client::new(&router, "rib")),
        256,
        0, // flush on idle
        Profiler::new().point(points::SENT_TO_RIB),
    );
    let b = batcher.clone();
    router.add_handler("mid-0", "mid/1.0/push", move |el, args, responder| {
        let i = args.get_u32("i").unwrap();
        let net: Ipv4Net = format!("10.0.{i}.0/24").parse().unwrap();
        b.push(el, true, net, vec![AtomValue::U32(i)]);
        responder.ok(el);
    });
    let key = finder
        .resolve("anonymous", "mid-0", "mid/1.0/push")
        .unwrap()
        .key;
    el.run_until_idle(); // the Finder's registration-time cache invalidations

    let push = |i: u32| {
        Frame::Request {
            seq: i as u64,
            sender: 4242,
            target: "mid-0".into(),
            key,
            path: "mid/1.0/push".into(),
            args: XrlArgs::new().add_u32("i", i),
            method_id: None,
            priority: false,
            trace: None,
        }
        .encode()
    };
    let mut feed = TcpStream::connect(addr).unwrap();
    let decoded = |total: u64| {
        let deadline = Instant::now() + TIMEOUT;
        while histogram(&metrics, "xrl.frames_per_read").1 != total {
            assert!(
                Instant::now() < deadline,
                "reader never decoded {total} frames"
            );
            std::thread::yield_now();
        }
    };

    // A lone route.  The event queued right behind its frame must find
    // everything the route caused already written: the batcher's frame
    // left in the frame's own turn.  The clock is virtual and is never
    // advanced, so no timer had a hand in it.
    feed.write_all(&push(1)).unwrap();
    decoded(1);
    let written_by_next_event = Arc::new(Mutex::new(None));
    let (seen, m) = (written_by_next_event.clone(), metrics.clone());
    assert!(el.sender().post(move |_el| {
        *seen.lock().unwrap() = Some(histogram(&m, "xrl.frames_per_write"));
    }));
    el.run_until_idle();
    let written = histogram(&metrics, "xrl.frames_per_write");
    assert_eq!(*written_by_next_event.lock().unwrap(), Some(written));
    let (mut wire, _) = rib.accept().unwrap();
    wire.set_read_timeout(Some(TIMEOUT)).unwrap();
    assert_eq!(read_add_routes(&mut wire), 1);
    assert_eq!(batcher.pending_count(), 0);

    // Three routes in one write: the reader posts them as one batch, the
    // deferred flush runs after all three, and they leave as one frame
    // per frame-carrying read (one, unless the kernel split the write).
    let batches = |m: &Metrics| match m.get("xrl.frames_per_read") {
        Some(MetricValue::Histogram(h)) => h.count - h.buckets[0],
        other => panic!("xrl.frames_per_read: {other:?}"),
    };
    let batches_before = batches(&metrics);
    let three: Vec<u8> = (2..5).flat_map(|i| push(i).to_vec()).collect();
    feed.write_all(&three).unwrap();
    decoded(4);
    el.run_until_idle();
    let frames_out = batches(&metrics) - batches_before;
    let rows: usize = (0..frames_out).map(|_| read_add_routes(&mut wire)).sum();
    assert_eq!(rows, 3);
    assert_eq!(batcher.pending_count(), 0);
}
