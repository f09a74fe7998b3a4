//! A hop's route output against raw listeners, so every frame it sends is
//! visible byte for byte.
//!
//! `RouteOutput`'s flush waits on the loop's idle lane: it runs once the
//! loop has drained its input, so rows pushed by every event queued
//! behind the first leave together, up to `batch_size` rows a frame.  Two
//! things must hold: a lone route still leaves before the loop blocks,
//! and routes that arrived together leave together.  The process under
//! test sits in the middle, on a virtual clock: raw frames written to its
//! listener each push one row into an output, whose sink is a raw
//! listener registered as the `rib`.
//!
//! How a run leaves depends on its length alone, at every batch size: a
//! run of one op on the hop's per-route method, a longer run as one
//! vectorized frame.  At batch 1 each op leaves in its push's turn, a
//! closed flow cell holds it as it holds a row at any other size, and
//! only the RIB hop's deletions name the protocol.
//!
//! On the RIB→FEA hop the output is the one place a route waits out an
//! Xoff: a held op keeps its trace, a drained or cleared output gives its
//! buffer back, and held live ops leave before the dump the Xon restarts.

use std::cell::{Cell, RefCell};
use std::collections::{HashSet, VecDeque};
use std::io::Write;
use std::net::{IpAddr, Ipv4Addr, TcpListener, TcpStream};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xorp_event::EventLoop;
use xorp_harness::batch::RouteOutput;
use xorp_harness::router::on_congestion;
use xorp_harness::xrl_ifaces::{self, BulkRouteSink, WireOp};
use xorp_net::{HeapSize, Ipv4Net, PathAttributes, ProtocolId, RouteEntry};
use xorp_policy::FilterBank;
use xorp_profiler::tracing::{self as xtrace, TraceContext, Tracer};
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
        b.push(el, add(&format!("10.0.{i}.0/24")));
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
        let held = el.slot::<RouteOutput>().unwrap().pending_count();
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
    assert_eq!(request(&mut wire).0, "rib/1.0/add_route");
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

    out.push(&mut el, add("10.0.1.0/24"));
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
    for (batch_size, deletes) in [(1, 1), (256, 2)] {
        let rib_out = output(BulkRouteSink::Rib(rib_client.clone()), batch_size);
        let fea_out = output(BulkRouteSink::Fea(fea_client.clone()), batch_size);
        for i in 0..deletes {
            rib_out.push(&mut el, delete(&format!("10.0.{i}.0/24")));
            fea_out.push(&mut el, delete(&format!("10.0.{i}.0/24")));
        }
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

/// At batch 256 a run is the longest same-direction prefix: pushed
/// `add, add, delete` leave as one two-row `add_routes`, then the lone
/// delete on the per-route `delete_route`, in push order.
#[test]
fn a_run_leaves_by_its_length_in_push_order() {
    let finder = Finder::new();
    let rib = raw_target(&finder, "rib");
    let (mut el, router) = sender(&finder);
    let out = rib_output(&router, 256);
    out.push(&mut el, add("10.0.1.0/24"));
    out.push(&mut el, add("10.0.2.0/24"));
    out.push(&mut el, delete("10.0.1.0/24"));
    el.run_until_idle();
    let mut wire = accept(&rib);
    let (path, _, args) = request(&mut wire);
    assert_eq!(path, "rib/1.0/add_routes");
    assert_eq!(args.get_list("routes").unwrap().len(), 2);
    let (path, _, args) = request(&mut wire);
    assert_eq!(path, "rib/1.0/delete_route");
    assert_eq!(args.get_text("proto").unwrap(), "ebgp");
}

/// A lone row at batch 256 waits for the idle flush, and then leaves
/// per route: the frame carries `add_route`'s interned method id, not
/// `add_routes'`.
#[test]
fn a_lone_row_flushed_on_the_idle_lane_leaves_per_route() {
    const ADD_ROUTE: u32 = 7;
    const ADD_ROUTES: u32 = 9;
    let finder = Finder::new();
    let rib = raw_target(&finder, "rib");
    let route_args = [
        ("net", AtomType::Ipv4Net),
        ("nexthop", AtomType::Ipv4),
        ("ifname", AtomType::Text),
        ("metric", AtomType::U32),
        ("proto", AtomType::Text),
    ];
    let sigs = [
        (
            "add_route",
            ADD_ROUTE,
            sig_hash("add_route", &route_args, &[]),
        ),
        (
            "add_routes",
            ADD_ROUTES,
            sig_hash(
                "add_routes",
                &[("routes", AtomType::List)],
                &[("count", AtomType::U32)],
            ),
        ),
    ];
    for (method, id, sig) in sigs {
        finder.advertise_sig("rib-0", &format!("rib/1.0/{method}"), id, sig);
    }
    let (mut el, router) = sender(&finder);
    let out = rib_output(&router, 256);

    out.push(&mut el, add("10.0.1.0/24"));
    assert_eq!(
        router.pending_len(),
        0,
        "the row left before the idle flush"
    );
    el.run_until_idle();
    assert_eq!(router.pending_len(), 1);
    let (_, method_id, args) = request(&mut accept(&rib));
    assert_eq!(method_id, Some(ADD_ROUTE));
    assert_eq!(args.len(), 5);
}

/// An output at batch size 256 toward the `rib` class.
fn rib_batcher(router: &XrlRouter) -> RouteOutput {
    rib_output(router, 256)
}

fn rib_output(router: &XrlRouter, batch_size: usize) -> RouteOutput {
    output(
        BulkRouteSink::Rib(xrl_ifaces::rib::Client::new(router, "rib")),
        batch_size,
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

/// Every `add_route` or `add_routes` request on the wire until `rows`
/// rows have arrived: the ops each run carried, a per-route request
/// counting one.  A vectorized frame of one row fails the test: a run of
/// one leaves per route.
fn runs_of(wire: &mut TcpStream, rows: usize) -> Vec<usize> {
    let mut runs = Vec::new();
    while runs.iter().sum::<usize>() < rows {
        let (path, _, args) = request(wire);
        runs.push(match path.as_str() {
            "rib/1.0/add_route" => 1,
            "rib/1.0/add_routes" => {
                let n = args.get_list("routes").unwrap().len();
                assert!(n > 1, "a run of one left as a frame");
                n
            }
            other => panic!("expected a route add, read {other}"),
        });
    }
    runs
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
            let batcher = el.slot::<RouteOutput>().unwrap().clone();
            batcher.push(el, add(&format!("10.0.{i}.0/24")));
        });
    }
    el.run_until_idle();
    assert_eq!(router.pending_len(), 1, "one frame per event");
    assert_eq!(frames_of(&mut accept(&rib), 3), [3]);
}

/// `batch_size` is a cap: 257 rows in one turn leave as a full frame,
/// sent by the push that filled it, and the one left over per route.
#[test]
fn rows_past_the_cap_leave_as_a_full_frame_and_the_rest() {
    let finder = Finder::new();
    let rib = raw_target(&finder, "rib");
    let (mut el, router) = sender(&finder);
    let batcher = rib_batcher(&router);
    for i in 0..257u32 {
        batcher.push(&mut el, add(&format!("10.{}.{}.0/24", i / 256, i % 256)));
    }
    assert_eq!(
        router.pending_len(),
        1,
        "the full frame waited for the flush"
    );
    assert_eq!(batcher.pending_count(), 1);
    el.run_until_idle();
    assert_eq!(runs_of(&mut accept(&rib), 257), [256, 1]);
}

/// A closed flow cell (the destination lane is in Xoff) holds rows
/// through the idle flush, at every batch size; reopening it and flushing
/// ships them at once, in runs of at most `batch_size` rows however many
/// it held.
#[test]
fn a_closed_gate_holds_rows_until_it_reopens() {
    for (batch_size, three, six_hundred) in [
        (256, vec![3], vec![256, 256, 88]),
        (1, vec![1; 3], vec![1; 600]),
    ] {
        let finder = Finder::new();
        let rib = raw_target(&finder, "rib");
        let (mut el, router) = sender(&finder);
        let batcher = rib_output(&router, batch_size);
        let flow = Rc::new(Cell::new(false));
        batcher.set_flow(flow.clone());
        for i in 1..=3 {
            batcher.push(&mut el, add(&format!("10.0.{i}.0/24")));
        }
        el.run_until_idle();
        assert_eq!(batcher.pending_count(), 3);
        assert_eq!(router.pending_len(), 0, "a closed gate let a frame out");
        flow.set(true);
        batcher.flush(&mut el);
        assert_eq!(batcher.pending_count(), 0);
        el.run_until_idle();
        let mut wire = accept(&rib);
        assert_eq!(runs_of(&mut wire, 3), three);

        flow.set(false);
        for i in 0..600 {
            batcher.push(&mut el, add(&format!("10.1.{}.{}/32", i / 256, i % 256)));
        }
        el.run_until_idle();
        assert_eq!(batcher.pending_count(), 600);
        flow.set(true);
        batcher.flush(&mut el);
        el.run_until_idle();
        assert_eq!(runs_of(&mut wire, 600), six_hundred);
    }
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
        batcher.push(&mut el, add(&net.to_string()));
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
            Rc::new(move |el, op| fea_out.push(el, op)),
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
    assert!(out.pending_count() > 0);

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

/// The trace context of the next request on the wire (v2 frames carry
/// it as a trailer).
fn request_trace(wire: &mut TcpStream) -> Option<TraceContext> {
    match Frame::decode(read_frame(wire).unwrap()).unwrap() {
        Frame::Request { trace, .. } => trace,
        other => panic!("expected a request, read {other:?}"),
    }
}

/// A sampled op held while the flow cell is closed keeps its trace: after
/// the reopen it leaves as its run's carrier, the frame's trace trailer
/// naming its trace, or coalesced into a carrier's run with a fan-in link
/// to it, at batch 1 and at batch 256.  Nothing leaks into the ambient
/// context.
#[test]
fn a_held_sampled_op_keeps_its_trace_to_the_fea() {
    let a = TraceContext {
        trace_id: 7,
        parent_span: 3,
    };
    let b = TraceContext {
        trace_id: 9,
        parent_span: 4,
    };
    for (batch_size, carriers, fan_ins) in [
        (1, vec![None, Some(7), Some(9)], vec![]),
        (256, vec![Some(7)], vec![(9, 7)]),
    ] {
        let finder = Finder::new();
        let fea = raw_target(&finder, "fea");
        let route_args = [
            ("net", AtomType::Ipv4Net),
            ("nexthop", AtomType::Ipv4),
            ("ifname", AtomType::Text),
            ("metric", AtomType::U32),
        ];
        let rows = [("routes", AtomType::List)];
        let add_route = sig_hash("add_route", &route_args, &[]);
        let add_routes = sig_hash("add_routes", &rows, &[("count", AtomType::U32)]);
        finder.advertise_sig("fea-0", "fea/1.0/add_route", 1, add_route);
        finder.advertise_sig("fea-0", "fea/1.0/add_routes", 2, add_routes);
        let (mut el, router) = sender(&finder);
        let tracer = Tracer::new();
        let profiler = Profiler::new();
        let out = RouteOutput::new(
            BulkRouteSink::Fea(xrl_ifaces::fea::Client::new(&router, "fea")),
            batch_size,
            profiler.point(points::QUEUED_FOR_FEA),
            profiler.point(points::SENT_TO_FEA),
            tracer.recorder("rib"),
        );
        let flow = Rc::new(Cell::new(false));
        out.set_flow(flow.clone());
        for (net, ctx) in [
            ("10.0.1.0/24", None),
            ("10.0.2.0/24", Some(a)),
            ("10.0.3.0/24", Some(b)),
        ] {
            let prev = xtrace::set_current(ctx);
            out.push(&mut el, add(net));
            xtrace::set_current(prev);
        }
        el.run_until_idle();
        assert_eq!(out.pending_count(), 3, "batch {batch_size}");
        assert_eq!(router.pending_len(), 0, "a closed cell let a frame out");

        flow.set(true);
        out.flush(&mut el);
        el.run_until_idle();
        assert_eq!(xtrace::current(), None);
        let mut wire = accept(&fea);
        let sent: Vec<Option<u64>> = carriers
            .iter()
            .map(|_| request_trace(&mut wire).map(|t| t.trace_id))
            .collect();
        assert_eq!(sent, carriers, "batch {batch_size}: frame traces");
        let links: Vec<(u64, u64)> = tracer
            .snapshot("rib")
            .0
            .iter()
            .filter(|s| s.point == "fan_in")
            .map(|s| (s.trace_id, s.link))
            .collect();
        assert_eq!(links, fan_ins, "batch {batch_size}: fan-in links");
    }
}

/// An output that held a table's worth of ops gives its buffer back once
/// a flush drains it, and once `clear` drops what it held: at most the
/// 32 KiB a drained holdback may keep.
#[test]
fn a_drained_or_cleared_output_gives_its_buffer_back() {
    const KEPT: usize = 32 * 1024;
    let finder = Finder::new();
    let _rib = raw_target(&finder, "rib");
    let (mut el, router) = sender(&finder);
    let out = rib_output(&router, 256);
    let flow = Rc::new(Cell::new(false));
    out.set_flow(flow.clone());
    let hold = |el: &mut EventLoop| {
        for i in 0..2_000u32 {
            out.push(el, add(&format!("10.{}.{}.0/24", i / 256, i % 256)));
        }
        assert_eq!(out.pending_count(), 2_000);
        assert!(out.heap_size() > KEPT, "{} B held", out.heap_size());
    };

    hold(&mut el);
    flow.set(true);
    out.flush(&mut el);
    assert_eq!(out.pending_count(), 0);
    assert!(
        out.heap_size() <= KEPT,
        "{} B after the drain",
        out.heap_size()
    );

    flow.set(false);
    hold(&mut el);
    out.clear();
    assert!(out.heap_size() <= KEPT, "{} B after clear", out.heap_size());
}

/// The ops of the next request on the FEA wire, `(add, net)` each, and
/// the request's seq.
fn fea_ops(wire: &mut TcpStream) -> (u64, Vec<(bool, Ipv4Net)>) {
    let (seq, path, args) = match Frame::decode(read_frame(wire).unwrap()).unwrap() {
        Frame::Request {
            seq, path, args, ..
        } => (seq, path, args),
        other => panic!("expected a request, read {other:?}"),
    };
    let rows = |add: bool| -> Vec<(bool, Ipv4Net)> {
        let rows = args.get_list("routes").unwrap();
        rows.iter()
            .map(|row| match row {
                AtomValue::List(row) => match row[0] {
                    AtomValue::Ipv4Net(net) => (add, net),
                    ref other => panic!("a row led by {other:?}"),
                },
                other => panic!("a row that is not a list: {other:?}"),
            })
            .collect()
    };
    let ops = match path.as_str() {
        "fea/1.0/add_route" => vec![(true, args.get_ipv4net("net").unwrap())],
        "fea/1.0/delete_route" => vec![(false, args.get_ipv4net("net").unwrap())],
        "fea/1.0/add_routes" => rows(true),
        "fea/1.0/delete_routes" => rows(false),
        other => panic!("expected a route op, read {other}"),
    };
    (seq, ops)
}

/// A static route toward `eth0`, as the RIB hands it to the FEA.
fn rib_route(net: &str, metric: u32) -> RouteEntry<Ipv4Addr> {
    let attrs = PathAttributes::new(IpAddr::V4(Ipv4Addr::new(192, 168, 1, 1)));
    let mut route = RouteEntry::new(
        net.parse().unwrap(),
        Arc::new(attrs),
        metric,
        ProtocolId::Static,
    );
    route.ifname = Some("eth0".into());
    route
}

/// The RIB→FEA hop wired as the router wires it: a `fea` watcher added to
/// a loaded RIB dumps its table into a batch-32 output toward an FEA that
/// answers only when the test does.  The dump congests the lane, and
/// while it is in Xoff the output holds every op, the dump's and the live
/// ones alike.  The Xon ships the held ops first, the live ones in the
/// order they arrived; the dump it restarts carries on behind them and
/// repeats no prefix, and the FEA ends with the RIB's table.
#[test]
fn held_live_ops_leave_before_the_restarted_dump_and_no_prefix_twice() {
    const ROUTES: usize = 640;
    let net = |i: usize| format!("10.{}.{}.0/24", i / 256, i % 256);
    let finder = Finder::new();
    let fea = raw_target(&finder, "fea");
    let (mut el, router) = sender(&finder);
    let metrics = Metrics::new();
    router.set_metrics(&metrics);
    router.set_overload_policy(QueuePolicy {
        high_watermark: 2,
        low_watermark: 1,
        hard_cap: 8,
    });
    let rib = Rc::new(RefCell::new(Rib::<Ipv4Addr>::new(false)));
    for i in 0..ROUTES {
        rib.borrow_mut().add_route(&mut el, rib_route(&net(i), 1));
    }

    let out = output(
        BulkRouteSink::Fea(xrl_ifaces::fea::Client::new(&router, "fea")),
        32,
    );
    let fea_out = out.clone();
    rib.borrow_mut().add_redist_watcher(
        &mut el,
        RedistWatcher::new(
            "fea",
            None,
            FilterBank::accept_by_default(),
            Rc::new(move |el, op| fea_out.push(el, op)),
        ),
    );
    let flow = rib.borrow().redist_watcher_flow("fea").unwrap();
    let r = rib.clone();
    on_congestion(&router, "fea", flow.clone(), &out, move |el| {
        r.borrow_mut().set_redist_watcher_flow(el, "fea", true);
    });
    el.run_until_idle();
    assert!(!flow.get(), "the dump congested the lane");

    let mut fea = FeaWire::new(accept(&fea));
    fea.read_sent(&router);
    let ahead = fea.ops.len() + out.pending_count();

    // Live churn during the Xoff: two new prefixes, the delete of a
    // prefix the dump already gave the FEA, a replace the dump has not
    // reached (an add to the FEA) and a delete it has not reached (never
    // told).
    let mut rib_mut = rib.borrow_mut();
    rib_mut.add_route(&mut el, rib_route("20.0.0.0/24", 1));
    rib_mut.add_route(&mut el, rib_route("20.0.1.0/24", 1));
    rib_mut.delete_route(&mut el, ProtocolId::Static, net(1).parse().unwrap());
    rib_mut.add_route(&mut el, rib_route(&net(512), 2));
    rib_mut.delete_route(&mut el, ProtocolId::Static, net(513).parse().unwrap());
    drop(rib_mut);
    let live: Vec<(bool, Ipv4Net)> = [
        (true, "20.0.0.0/24".to_string()),
        (true, "20.0.1.0/24".to_string()),
        (false, net(1)),
        (true, net(512)),
    ]
    .into_iter()
    .map(|(add, n)| (add, n.parse().unwrap()))
    .collect();
    assert_eq!(out.pending_count() + fea.ops.len(), ahead + live.len());
    assert_eq!(
        router.pending_len(),
        fea.unanswered.len(),
        "Xoff let a frame out"
    );

    // Answer everything until a round sends nothing more.
    loop {
        fea.read_sent(&router);
        if fea.unanswered.is_empty() {
            break;
        }
        fea.answer_all(&metrics);
        el.run_until_idle();
    }
    assert_eq!(router.shed_count(), 0);
    assert_eq!(out.pending_count(), 0);

    let ops = &fea.ops;
    assert_eq!(
        ops[ahead..ahead + live.len()],
        live[..],
        "live ops out of order"
    );
    let dumped_after = &ops[ahead + live.len()..];
    assert!(!dumped_after.is_empty(), "the dump had nothing left");
    assert!(dumped_after
        .iter()
        .all(|&(add, net)| add && !live.contains(&(add, net))));

    let mut fib = HashSet::new();
    for &(add, net) in ops {
        if add {
            assert!(fib.insert(net), "{net} added twice");
        } else {
            assert!(fib.remove(&net), "{net} deleted but never added");
        }
    }
    let want: HashSet<Ipv4Net> = (0..ROUTES)
        .filter(|&i| i != 1 && i != 513)
        .map(net)
        .chain(["20.0.0.0/24".into(), "20.0.1.0/24".into()])
        .map(|n| n.parse().unwrap())
        .collect();
    assert_eq!(fib, want);
}

/// The FEA end of a raw `fea` lane: every op read so far, and the seqs of
/// the requests not yet answered.
struct FeaWire {
    wire: TcpStream,
    ops: Vec<(bool, Ipv4Net)>,
    unanswered: VecDeque<u64>,
    read: usize,
    answered: usize,
}

impl FeaWire {
    fn new(wire: TcpStream) -> FeaWire {
        FeaWire {
            wire,
            ops: Vec::new(),
            unanswered: VecDeque::new(),
            read: 0,
            answered: 0,
        }
    }

    /// Read every request the router has sent: with the loop idle, each
    /// is answered or still pending.
    fn read_sent(&mut self, router: &XrlRouter) {
        while self.read < self.answered + router.pending_len() {
            let (seq, ops) = fea_ops(&mut self.wire);
            self.unanswered.push_back(seq);
            self.ops.extend(ops);
            self.read += 1;
        }
    }

    /// Answer every request read, and wait until the router has decoded
    /// the replies.
    fn answer_all(&mut self, metrics: &Metrics) {
        for seq in self.unanswered.drain(..) {
            let reply = Frame::Response {
                seq,
                result: Ok(XrlArgs::new()),
                priority: false,
            };
            self.wire.write_all(&reply.encode()).unwrap();
            self.answered += 1;
        }
        let deadline = Instant::now() + TIMEOUT;
        while histogram(metrics, "xrl.frames_per_read").1 != self.answered as u64 {
            assert!(Instant::now() < deadline, "replies never decoded");
            std::thread::yield_now();
        }
    }
}
