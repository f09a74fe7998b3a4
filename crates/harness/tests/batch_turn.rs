//! A hop's route output against raw listeners, so every frame it sends is
//! visible byte for byte.
//!
//! `RouteBatcher`'s idle flush against the TCP family's frame batches: the
//! flush is deferred work, and deferred work runs after the whole batch of
//! frames a reader thread posted, not between two of them.  Two things
//! must hold: a lone route still leaves in the turn that produced it, and
//! routes that arrived together leave together.  The process under test
//! sits in the middle, on a virtual clock: raw frames written to its
//! listener each push one row into a batcher, whose sink is a raw listener
//! registered as the `rib`.
//!
//! `RouteOutput` at batch 1: each op leaves at once as the hop's per-route
//! frame, no gate holds it, and only the RIB hop's deletions name the
//! protocol.

use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xorp_event::EventLoop;
use xorp_harness::batch::{RouteBatcher, RouteOutput};
use xorp_harness::xrl_ifaces::{self, BulkRouteSink, WireOp};
use xorp_net::{Ipv4Net, PathAttributes, ProtocolId, RouteEntry};
use xorp_profiler::{points, MetricValue, Metrics, Profiler};
use xorp_stages::RouteOp;
use xorp_xrl::finder::Endpoint;
use xorp_xrl::marshal::{read_frame, Frame};
use xorp_xrl::{sig_hash, AtomType, AtomValue, Finder, XrlArgs, XrlRouter};

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
        BulkRouteSink::Rib(xrl_ifaces::rib::Client::new(&router, "rib")),
        256,
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

/// A raw listener registered with the Finder as `class`.
fn raw_target(finder: &Finder, class: &str) -> TcpListener {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let endpoint = Endpoint::Tcp(listener.local_addr().unwrap());
    finder
        .register(class, &format!("{class}-0"), vec![endpoint], true)
        .unwrap();
    listener
}

/// A sending process on a virtual clock.
fn sender(finder: &Finder) -> (EventLoop, XrlRouter) {
    let mut el = EventLoop::new_virtual();
    let router = XrlRouter::new(&mut el, finder.clone());
    router.enable_tcp().unwrap();
    (el, router)
}

fn output(sink: BulkRouteSink, batch_size: usize) -> RouteOutput {
    let profiler = Profiler::new();
    RouteOutput::new(
        sink,
        batch_size,
        profiler.point(points::QUEUED_FOR_RIB),
        profiler.point(points::SENT_TO_RIB),
        xorp_profiler::tracing::Tracer::new().recorder("test"),
    )
}

fn route(net: &str) -> RouteEntry<Ipv4Addr> {
    let attrs = PathAttributes::new(IpAddr::V4(Ipv4Addr::new(192, 168, 1, 1)));
    RouteEntry::new(net.parse().unwrap(), Arc::new(attrs), 1, ProtocolId::Ebgp)
}

fn add(net: &str) -> WireOp {
    let route = route(net);
    RouteOp::Add {
        net: route.net,
        route,
    }
}

fn delete(net: &str) -> WireOp {
    let old = route(net);
    RouteOp::Delete { net: old.net, old }
}

fn accept(listener: &TcpListener) -> TcpStream {
    let (wire, _) = listener.accept().unwrap();
    wire.set_read_timeout(Some(TIMEOUT)).unwrap();
    wire
}

/// The next request on the wire: its path (empty on a positional frame),
/// method id, and arguments.
fn request(wire: &mut TcpStream) -> (String, Option<u32>, XrlArgs) {
    match Frame::decode(read_frame(wire).unwrap()).unwrap() {
        Frame::Request {
            path,
            method_id,
            args,
            ..
        } => (path, method_id, args),
        other => panic!("expected a request, read {other:?}"),
    }
}

/// At batch 1 a pushed add is sent by the push itself, before the loop
/// runs again, as one per-route request: the frame carries `add_route`'s
/// interned method id, not `add_routes'`.
#[test]
fn batch_one_sends_a_pushed_add_in_its_turn_as_one_add_route() {
    const ADD_ROUTE: u32 = 7;
    const ADD_ROUTES: u32 = 9;
    let finder = Finder::new();
    let rib = raw_target(&finder, "rib");
    let add_route_sig = sig_hash(
        "add_route",
        &[
            ("net", AtomType::Ipv4Net),
            ("nexthop", AtomType::Ipv4),
            ("ifname", AtomType::Text),
            ("metric", AtomType::U32),
            ("proto", AtomType::Text),
        ],
        &[],
    );
    let add_routes_sig = sig_hash(
        "add_routes",
        &[("routes", AtomType::List)],
        &[("count", AtomType::U32)],
    );
    finder.advertise_sig("rib-0", "rib/1.0/add_route", ADD_ROUTE, add_route_sig);
    finder.advertise_sig("rib-0", "rib/1.0/add_routes", ADD_ROUTES, add_routes_sig);
    let (mut el, router) = sender(&finder);
    let out = output(
        BulkRouteSink::Rib(xrl_ifaces::rib::Client::new(&router, "rib")),
        1,
    );

    out.push(&mut el, &add("10.0.1.0/24"));
    assert_eq!(router.pending_len(), 1, "the add waited for a later turn");
    el.run_until_idle();
    let mut wire = accept(&rib);
    let (_, method_id, args) = request(&mut wire);
    assert_eq!(method_id, Some(ADD_ROUTE));
    assert_eq!(args.len(), 5);
    assert_eq!(router.pending_len(), 1, "one request, not two");
}

/// Only the RIB keys routes by protocol: its hop's deletions carry it,
/// per route and per row, and the FEA hop's carry the prefix alone.
#[test]
fn a_delete_names_its_protocol_on_the_rib_hop_only() {
    let finder = Finder::new();
    let rib = raw_target(&finder, "rib");
    let fea = raw_target(&finder, "fea");
    let (mut el, router) = sender(&finder);
    let rib_client = xrl_ifaces::rib::Client::new(&router, "rib");
    let fea_client = xrl_ifaces::fea::Client::new(&router, "fea");
    for batch_size in [1, 256] {
        output(BulkRouteSink::Rib(rib_client.clone()), batch_size)
            .push(&mut el, &delete("10.0.1.0/24"));
        output(BulkRouteSink::Fea(fea_client.clone()), batch_size)
            .push(&mut el, &delete("10.0.1.0/24"));
    }
    el.run_until_idle();

    let names =
        |args: &XrlArgs| -> Vec<String> { args.atoms().iter().map(|a| a.name.clone()).collect() };
    let row_len = |args: &XrlArgs| args.get_rows("routes").unwrap()[0].len();
    let mut rib_wire = accept(&rib);
    let (path, _, args) = request(&mut rib_wire);
    assert_eq!(path, "rib/1.0/delete_route");
    assert_eq!(names(&args), ["net", "proto"]);
    assert_eq!(args.get_text("proto").unwrap(), "ebgp");
    let (path, _, args) = request(&mut rib_wire);
    assert_eq!(path, "rib/1.0/delete_routes");
    assert_eq!(row_len(&args), 2);

    let mut fea_wire = accept(&fea);
    let (path, _, args) = request(&mut fea_wire);
    assert_eq!(path, "fea/1.0/delete_route");
    assert_eq!(names(&args), ["net"]);
    let (path, _, args) = request(&mut fea_wire);
    assert_eq!(path, "fea/1.0/delete_routes");
    assert_eq!(row_len(&args), 1);
}

/// At batch 1 there is no buffer to gate: closing the gate holds nothing
/// back, and the route leaves at once (the Xoff it answers stops the
/// fanout or the redistribution watcher upstream instead).
#[test]
fn batch_one_gate_holds_no_route_back() {
    let finder = Finder::new();
    let fea = raw_target(&finder, "fea");
    let (mut el, router) = sender(&finder);
    let out = output(
        BulkRouteSink::Fea(xrl_ifaces::fea::Client::new(&router, "fea")),
        1,
    );
    out.set_gate(&mut el, true);
    out.push(&mut el, &add("10.0.1.0/24"));
    assert_eq!(router.pending_len(), 1, "the gate held a per-route add");
    el.run_until_idle();
    let (path, _, _) = request(&mut accept(&fea));
    assert_eq!(path, "fea/1.0/add_route");
}
