//! A hop's route output against raw listeners, so every frame it sends is
//! visible byte for byte.
//!
//! `RouteBatcher`'s flush waits on the loop's idle lane: it runs once the
//! loop has drained its input, so rows pushed by every event queued
//! behind the first leave together, up to `batch_size` rows a frame.  Two
//! things must hold: a lone route still leaves before the loop blocks,
//! and routes that arrived together leave together.  The process under
//! test sits in the middle, on a virtual clock: raw frames written to its
//! listener each push one row into a batcher, whose sink is a raw
//! listener registered as the `rib`.
//!
//! `RouteOutput` at batch 1: each op leaves at once as the hop's per-route
//! frame, no gate holds it, and only the RIB hop's deletions name the
//! protocol.

use std::cell::{Cell, RefCell};
use std::collections::{HashSet, VecDeque};
use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, TcpListener, TcpStream};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xorp_event::EventLoop;
use xorp_harness::batch::{RouteBatcher, RouteOutput};
use xorp_harness::router::on_congestion;
use xorp_harness::xrl_ifaces::{self, BulkRouteSink, WireOp};
use xorp_net::{Ipv4Net, PathAttributes, ProtocolId, RouteEntry};
use xorp_policy::FilterBank;
use xorp_profiler::{points, MetricValue, Metrics, Profiler};
use xorp_rib::{RedistWatcher, Rib};
use xorp_stages::RouteOp;
use xorp_xrl::finder::Endpoint;
use xorp_xrl::marshal::{read_frame, Frame};
use xorp_xrl::{
    sig_hash, AtomType, AtomValue, CongestionSignal, Finder, QueuePolicy, XrlArgs, XrlRouter,
};

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
            args.get_list("routes").unwrap().len()
        }
        other => panic!("expected a request, read {other:?}"),
    }
}

#[test]
fn idle_flush_lets_queued_events_run_first_and_coalesces_a_frame_batch() {
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
    let batcher = rib_batcher(&router);
    let b = batcher.clone();
    router.add_handler("mid-0", "mid/1.0/push", move |el, args, responder| {
        let i = args.get_u32("i").unwrap();
        b.push(el, &add(&format!("10.0.{i}.0/24")));
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

    // A lone route.  The event queued right behind its frame runs before
    // the flush and finds the row still held; the frame is written before
    // the loop has nothing left to run, i.e. before a real loop would
    // block.  The clock is virtual and is never advanced, so no timer had
    // a hand in it.
    feed.write_all(&push(1)).unwrap();
    decoded(1);
    let seen_by_next_event = Arc::new(Mutex::new(None));
    let (seen, m, b) = (seen_by_next_event.clone(), metrics.clone(), batcher.clone());
    el.set_slot(b);
    assert!(el.sender().post(move |el| {
        let held = el.slot::<RouteBatcher>().unwrap().pending_count();
        *seen.lock().unwrap() = Some((held, histogram(&m, "xrl.frames_per_write")));
    }));
    el.run_until_idle();
    let (held, (writes, frames)) = seen_by_next_event.lock().unwrap().unwrap();
    assert_eq!(
        held, 1,
        "the row left before the event queued behind it ran"
    );
    assert_eq!(
        histogram(&metrics, "xrl.frames_per_write"),
        (writes + 1, frames + 1),
        "the frame was not written before the loop ran dry"
    );
    let (mut wire, _) = rib.accept().unwrap();
    wire.set_read_timeout(Some(TIMEOUT)).unwrap();
    assert_eq!(read_add_routes(&mut wire), 1);
    assert_eq!(batcher.pending_count(), 0);

    // Three routes in one write: the reader posts them as one batch, the
    // idle flush runs after all three, and they leave as one frame.
    let three: Vec<u8> = (2..5).flat_map(|i| push(i).to_vec()).collect();
    feed.write_all(&three).unwrap();
    decoded(4);
    el.run_until_idle();
    assert_eq!(read_add_routes(&mut wire), 3);
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
        |args: &XrlArgs| -> Vec<String> { args.iter().map(|(name, _)| name.to_string()).collect() };
    let row_len = |args: &XrlArgs| match &args.get_list("routes").unwrap()[0] {
        AtomValue::List(row) => row.len(),
        other => panic!("a row that is not a list: {other:?}"),
    };
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

/// At batch 1 there is no buffer to hold: a closed flow cell holds
/// nothing back, and the route leaves at once (the Xoff it answers stops
/// the fanout or the redistribution watcher upstream instead).
#[test]
fn batch_one_gate_holds_no_route_back() {
    let finder = Finder::new();
    let fea = raw_target(&finder, "fea");
    let (mut el, router) = sender(&finder);
    let out = output(
        BulkRouteSink::Fea(xrl_ifaces::fea::Client::new(&router, "fea")),
        1,
    );
    out.set_flow(Rc::new(Cell::new(false)));
    out.push(&mut el, &add("10.0.1.0/24"));
    assert_eq!(router.pending_len(), 1, "the gate held a per-route add");
    el.run_until_idle();
    let (path, _, _) = request(&mut accept(&fea));
    assert_eq!(path, "fea/1.0/add_route");
}

/// A batcher at batch size 256 toward the `rib` class.
fn rib_batcher(router: &XrlRouter) -> RouteBatcher {
    RouteBatcher::new(
        BulkRouteSink::Rib(xrl_ifaces::rib::Client::new(router, "rib")),
        256,
        Profiler::new().point(points::SENT_TO_RIB),
    )
}

/// Every `add_routes` request on the wire until `rows` rows have arrived:
/// the rows each frame carried.
fn frames_of(wire: &mut TcpStream, rows: usize) -> Vec<usize> {
    let mut frames = Vec::new();
    while frames.iter().sum::<usize>() < rows {
        frames.push(read_add_routes(wire));
    }
    frames
}

/// Rows pushed by several events queued on the loop leave as one frame:
/// the flush waits until the last of them has run.
#[test]
fn rows_pushed_by_several_queued_events_leave_as_one_frame() {
    let finder = Finder::new();
    let rib = raw_target(&finder, "rib");
    let (mut el, router) = sender(&finder);
    el.set_slot(rib_batcher(&router));
    let input = el.sender();
    for i in 1..=3 {
        input.post(move |el| {
            let batcher = el.slot::<RouteBatcher>().unwrap().clone();
            batcher.push(el, &add(&format!("10.0.{i}.0/24")));
        });
    }
    el.run_until_idle();
    assert_eq!(router.pending_len(), 1, "one frame per event");
    assert_eq!(frames_of(&mut accept(&rib), 3), [3]);
}

/// `batch_size` is a cap: 257 rows in one turn leave as a full frame,
/// sent by the push that filled it, and a frame of the one left over.
#[test]
fn rows_past_the_cap_leave_as_a_full_frame_and_the_rest() {
    let finder = Finder::new();
    let rib = raw_target(&finder, "rib");
    let (mut el, router) = sender(&finder);
    let batcher = rib_batcher(&router);
    for i in 0..257u32 {
        batcher.push(&mut el, &add(&format!("10.{}.{}.0/24", i / 256, i % 256)));
    }
    assert_eq!(
        router.pending_len(),
        1,
        "the full frame waited for the flush"
    );
    assert_eq!(batcher.pending_count(), 1);
    el.run_until_idle();
    assert_eq!(frames_of(&mut accept(&rib), 257), [256, 1]);
}

/// A closed flow cell (the destination lane is in Xoff) holds rows
/// through the idle flush; reopening it and flushing ships them at once,
/// in frames of at most `batch_size` rows however many it held.
#[test]
fn a_closed_gate_holds_rows_until_it_reopens() {
    let finder = Finder::new();
    let rib = raw_target(&finder, "rib");
    let (mut el, router) = sender(&finder);
    let batcher = rib_batcher(&router);
    let flow = Rc::new(Cell::new(false));
    batcher.set_flow(flow.clone());
    for i in 1..=3 {
        batcher.push(&mut el, &add(&format!("10.0.{i}.0/24")));
    }
    el.run_until_idle();
    assert_eq!(batcher.pending_count(), 3);
    assert_eq!(router.pending_len(), 0, "a closed gate let a frame out");
    flow.set(true);
    batcher.flush(&mut el);
    assert_eq!(batcher.pending_count(), 0);
    el.run_until_idle();
    let mut wire = accept(&rib);
    assert_eq!(frames_of(&mut wire, 3), [3]);

    flow.set(false);
    for i in 0..600 {
        batcher.push(&mut el, &add(&format!("10.1.{}.{}/32", i / 256, i % 256)));
    }
    el.run_until_idle();
    assert_eq!(batcher.pending_count(), 600);
    flow.set(true);
    batcher.flush(&mut el);
    el.run_until_idle();
    assert_eq!(frames_of(&mut wire, 600), [256, 256, 88]);
}

/// The nets of the next `add_routes` request on the wire, and its seq.
fn add_routes_nets(wire: &mut TcpStream) -> (u64, Vec<Ipv4Net>) {
    match Frame::decode(read_frame(wire).unwrap()).unwrap() {
        Frame::Request { seq, args, .. } => {
            let rows = args.get_list("routes").unwrap();
            let nets = rows.iter().map(|row| match row {
                AtomValue::List(row) => match row[0] {
                    AtomValue::Ipv4Net(net) => net,
                    ref other => panic!("a row led by {other:?}"),
                },
                other => panic!("a row that is not a list: {other:?}"),
            });
            (seq, nets.collect())
        }
        other => panic!("expected a request, read {other:?}"),
    }
}

/// A frame whose send re-congests the lane stops the flush: of 600 held
/// rows, reopening the flow cell ships one 256-row frame, and the rest
/// leave after the next reopen, in order.
#[test]
fn a_frame_that_recloses_the_flow_cell_stops_the_flush() {
    let finder = Finder::new();
    let rib = raw_target(&finder, "rib");
    let (mut el, router) = sender(&finder);
    let batcher = rib_batcher(&router);
    let flow = Rc::new(Cell::new(false));
    batcher.set_flow(flow.clone());
    // Every frame in flight crosses the high watermark: its send closes
    // the cell, as the hop's congestion callback does on Xoff.
    router.set_overload_policy(QueuePolicy {
        high_watermark: 1,
        low_watermark: 0,
        hard_cap: 64,
    });
    let f = flow.clone();
    router.set_congestion_cb(move |_el, sig| f.set(!matches!(sig, CongestionSignal::Xoff { .. })));
    let nets: Vec<Ipv4Net> = (0..600)
        .map(|i| format!("10.1.{}.{}/32", i / 256, i % 256).parse().unwrap())
        .collect();
    for net in &nets {
        batcher.push(&mut el, &add(&net.to_string()));
    }
    el.run_until_idle();
    assert_eq!(batcher.pending_count(), 600);

    flow.set(true);
    batcher.flush(&mut el);
    el.run_until_idle();
    assert!(!flow.get(), "the first frame's send closed the cell");
    assert_eq!(router.pending_len(), 1, "one frame left");
    assert_eq!(batcher.pending_count(), 600 - 256);

    flow.set(true);
    batcher.flush(&mut el);
    el.run_until_idle();
    assert_eq!(batcher.pending_count(), 0);
    let mut wire = accept(&rib);
    let mut frames = Vec::new();
    let mut got = Vec::new();
    while got.len() < nets.len() {
        let (_, rows) = add_routes_nets(&mut wire);
        frames.push(rows.len());
        got.extend(rows);
    }
    assert_eq!(frames, [256, 256, 88]);
    assert_eq!(got, nets, "rows left out of order");
}

/// The RIB hop's Xon replay: a `fea` redistribution watcher feeds a
/// batch-64 output, wired as the router wires it, toward an FEA that
/// answers only when the test releases its replies.  A backlog of forty
/// frames' worth of routes builds while the lane is in Xoff; each release
/// brings the lane to its low watermark, and the replay the Xon starts
/// must stop between deliveries and between frames when its own sends
/// re-congest the lane.  The lane never goes past its high watermark,
/// nothing is shed, and the FEA ends with every route.
#[test]
fn rib_xon_replay_stops_at_the_watermark() {
    const ROUTES: usize = 64 * 40;
    let finder = Finder::new();
    let fea = raw_target(&finder, "fea");
    let (mut el, router) = sender(&finder);
    let metrics = Metrics::new();
    router.set_metrics(&metrics);
    let policy = QueuePolicy {
        high_watermark: 4,
        low_watermark: 1,
        hard_cap: 8,
    };
    router.set_overload_policy(policy);

    let rib = Rc::new(RefCell::new(Rib::<Ipv4Addr>::new(false)));
    let out = output(
        BulkRouteSink::Fea(xrl_ifaces::fea::Client::new(&router, "fea")),
        64,
    );
    let fea_out = out.clone();
    rib.borrow_mut().add_redist_watcher(
        &mut el,
        RedistWatcher::new(
            "fea",
            None,
            FilterBank::accept_by_default(),
            Rc::new(move |el, op| fea_out.push(el, &op)),
        ),
    );
    let flow = rib.borrow().redist_watcher_flow("fea").unwrap();
    let r = rib.clone();
    on_congestion(&router, "fea", flow, &out, move |el| {
        r.borrow_mut().set_redist_watcher_flow(el, "fea", true);
    });

    for i in 0..ROUTES {
        let net = format!("10.{}.{}.0/24", i / 256, i % 256).parse().unwrap();
        let attrs = PathAttributes::new(IpAddr::V4(Ipv4Addr::new(192, 168, 1, 1)));
        let mut route = RouteEntry::new(net, Arc::new(attrs), 1, ProtocolId::Static);
        route.ifname = Some("eth0".into());
        rib.borrow_mut().add_route(&mut el, route);
    }
    el.run_until_idle();
    assert!(router.any_lane_congested());
    assert!(rib.borrow().redist_watcher_backlog("fea") > 0);

    let mut wire = accept(&fea);
    let mut installed = HashSet::new();
    let mut unanswered = VecDeque::new();
    let (mut read, mut answered) = (0, 0);
    for _ in 0..ROUTES {
        // Read every frame the router has sent: with the loop idle, each
        // is answered or still pending.
        while read < answered + router.pending_len() {
            let (seq, nets) = add_routes_nets(&mut wire);
            unanswered.push_back(seq);
            installed.extend(nets);
            read += 1;
        }
        if installed.len() == ROUTES || unanswered.is_empty() {
            break;
        }
        // Answer all but one: the lane drains to its low watermark, and
        // the Xon lets the replay go on.  Once the lane is no longer
        // congested, answer everything.
        let keep = usize::from(router.any_lane_congested());
        while unanswered.len() > keep {
            let seq = unanswered.pop_front().unwrap();
            let reply = Frame::Response {
                seq,
                result: Ok(XrlArgs::new()),
                priority: false,
            };
            wire.write_all(&reply.encode()).unwrap();
            answered += 1;
        }
        let deadline = Instant::now() + TIMEOUT;
        while histogram(&metrics, "xrl.frames_per_read").1 != answered as u64 {
            assert!(Instant::now() < deadline, "replies never decoded");
            std::thread::yield_now();
        }
        el.run_until_idle();
    }
    let lane_depth = match metrics.get("xrl.lane_depth") {
        Some(MetricValue::Gauge { max, .. }) => max,
        other => panic!("xrl.lane_depth: {other:?}"),
    };
    assert!(
        lane_depth <= policy.high_watermark as i64 + 1,
        "lane depth reached {lane_depth}"
    );
    assert_eq!(router.shed_count(), 0);
    assert_eq!(installed.len(), ROUTES);
}
