//! Wire-compatibility suite: golden frame fixtures pin the v1 and v2
//! binary encodings byte for byte, and mixed-version interop tests show
//! a v1-only peer and a v2-capable peer converse transparently over TCP
//! in both directions.
//!
//! The fixtures are the contract: if any hex string changes, the wire
//! format changed and every deployed peer is affected — bump the
//! negotiation, don't edit the constant.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use xorp_event::{EventLoop, EventSender};
use xorp_net::ProtocolId;
use xorp_xrl::marshal::Frame;
use xorp_xrl::{xrl_interface, AtomValue, Finder, XrlArgs, XrlRouter, SEQ_MAY_RECUR};

// ---- golden fixtures ----------------------------------------------------

/// A representative `rib/1.0/add_route` request, v1 named encoding
/// (kind byte 0): path string plus name-tagged atoms.
const V1_ADD_ROUTE_HEX: &str = "00000084000000000000000001000000000000000200057269622d304242424242424242424242424242424200117269622f312e302f6164645f726f757465000500036e6574090a0000001800076e657874686f7007c0000202000669666e616d6506000000046574683000066d65747269630200000064000570726f746f060000000465626770";

/// The same call on the v2 positional wire (kind byte 3): a 4-byte
/// interned method id replaces the path, and atoms drop their names.
const V2_ADD_ROUTE_HEX: &str = "00000050030000000000000001000000000000000200057269622d3042424242424242424242424242424242000000070005090a0000001807c00002020600000004657468300200000064060000000465626770";

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(s: &str) -> Vec<u8> {
    assert!(s.len() % 2 == 0, "odd hex fixture");
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
        .collect()
}

/// The v1 fixture frame: named arguments, method addressed by path.
fn v1_add_route_frame() -> Frame {
    Frame::Request {
        seq: 1,
        sender: 2,
        target: "rib-0".into(),
        key: [0x42; 16],
        path: "rib/1.0/add_route".into(),
        method_id: None,
        args: XrlArgs::new()
            .add_ipv4net("net", "10.0.0.0/24".parse().unwrap())
            .add_ipv4("nexthop", "192.0.2.2".parse().unwrap())
            .add_str("ifname", "eth0")
            .add_u32("metric", 100)
            .add_str("proto", "ebgp"),
        priority: false,
        trace: None,
    }
}

/// The v2 fixture frame: same call, positional atoms, interned id.
fn v2_add_route_frame() -> Frame {
    let mut args = XrlArgs::new();
    args.push_value(AtomValue::Ipv4Net("10.0.0.0/24".parse().unwrap()));
    args.push_value(AtomValue::Ipv4("192.0.2.2".parse().unwrap()));
    args.push_value(AtomValue::Text("eth0".into()));
    args.push_value(AtomValue::U32(100));
    args.push_value(AtomValue::Text("ebgp".into()));
    Frame::Request {
        seq: 1,
        sender: 2,
        target: "rib-0".into(),
        key: [0x42; 16],
        path: String::new(),
        method_id: Some(7),
        args,
        priority: false,
        trace: None,
    }
}

/// A v2 `rib/1.0/add_routes` frame of three `[net, nexthop, ifname,
/// metric, proto]` rows: an empty `ifname` (a BGP route), a named one, and
/// a protocol outside the fixed set.
const V2_ADD_ROUTES_HEX: &str = "000000a1030000000000000001000000000000000200057269622d30424242424242424242424242424242420000000200010d00030d0005090a0000001807c0000202060000000002000000640600000004656267700d0005090a0100001807c0000203060000000465746830020000000106000000067374617469630d000509c00000000907000000000600000005c3a97468310200000007060000000670726f746f37";

/// The BGP→RIB hop's v2 `delete_routes` frame: `[net, proto]` rows (the
/// RIB keys its tables by protocol).
const V2_RIB_DELETE_ROUTES_HEX: &str = "00000043030000000000000001000000000000000200057269622d30424242424242424242424242424242420000000300010d00010d0002090a00000018060000000465626770";

/// The RIB→FEA hop's v2 `delete_routes` frame: bare `[net]` rows (the FIB
/// keys by prefix alone).
const V2_FEA_DELETE_ROUTES_HEX: &str = "00000043030000000000000001000000000000000200056665612d30424242424242424242424242424242420000000300010d00020d0001090a000000180d0001090a01000018";

/// [`V2_ADD_ROUTES_HEX`]'s call on the v1 named wire.
const V1_ADD_ROUTES_HEX: &str = "000000b9000000000000000001000000000000000200057269622d304242424242424242424242424242424200127269622f312e302f6164645f726f7574657300010006726f757465730d00030d0005090a0000001807c0000202060000000002000000640600000004656267700d0005090a0100001807c0000203060000000465746830020000000106000000067374617469630d000509c00000000907000000000600000005c3a97468310200000007060000000670726f746f37";

/// One row per `(net, nexthop, ifname, metric, proto)`.
fn add_rows() -> Vec<AtomValue> {
    let row = |net: &str, nh: &str, ifname: &str, metric, proto: ProtocolId| {
        AtomValue::List(vec![
            AtomValue::Ipv4Net(net.parse().unwrap()),
            AtomValue::Ipv4(nh.parse().unwrap()),
            AtomValue::Text(ifname.into()),
            AtomValue::U32(metric),
            AtomValue::Text(proto.name()),
        ])
    };
    vec![
        row("10.0.0.0/24", "192.0.2.2", "", 100, ProtocolId::Ebgp),
        row("10.1.0.0/24", "192.0.2.3", "eth0", 1, ProtocolId::Static),
        row("192.0.0.0/9", "0.0.0.0", "éth1", 7, ProtocolId::Other(7)),
    ]
}

/// A batched request carrying `rows` as its one `routes` argument: v2
/// (positional, `method_id`) or v1 (named, addressed by `path`).
fn rows_frame(target: &str, method: Result<u32, &str>, rows: Vec<AtomValue>) -> Frame {
    let mut args = XrlArgs::new();
    let (path, method_id) = match method {
        Ok(id) => {
            args.push_value(AtomValue::List(rows));
            (String::new(), Some(id))
        }
        Err(path) => {
            args = args.add_list("routes", rows);
            (path.to_string(), None)
        }
    };
    Frame::Request {
        seq: 1,
        sender: 2,
        target: target.into(),
        key: [0x42; 16],
        path,
        method_id,
        args,
        priority: false,
        trace: None,
    }
}

/// The batched fixtures, each with its frame.
fn batched_fixtures() -> Vec<(&'static str, Frame)> {
    let net = |s: &str| AtomValue::Ipv4Net(s.parse().unwrap());
    let rib_delete = vec![AtomValue::List(vec![
        net("10.0.0.0/24"),
        AtomValue::Text(ProtocolId::Ebgp.name()),
    ])];
    let fea_delete = vec![
        AtomValue::List(vec![net("10.0.0.0/24")]),
        AtomValue::List(vec![net("10.1.0.0/24")]),
    ];
    vec![
        (V2_ADD_ROUTES_HEX, rows_frame("rib-0", Ok(2), add_rows())),
        (
            V2_RIB_DELETE_ROUTES_HEX,
            rows_frame("rib-0", Ok(3), rib_delete),
        ),
        (
            V2_FEA_DELETE_ROUTES_HEX,
            rows_frame("fea-0", Ok(3), fea_delete),
        ),
        (
            V1_ADD_ROUTES_HEX,
            rows_frame("rib-0", Err("rib/1.0/add_routes"), add_rows()),
        ),
    ]
}

/// The batched route frames are pinned byte for byte, both ways: the
/// tree of atoms encodes to the fixture and the fixture decodes to it.
#[test]
fn golden_batched_route_frames_are_stable() {
    for (hex, frame) in batched_fixtures() {
        assert_eq!(to_hex(&frame.encode()), hex, "{frame:?}");
        let bytes = from_hex(hex);
        let decoded = Frame::decode(bytes::Bytes::copy_from_slice(&bytes[4..])).unwrap();
        assert_eq!(decoded, frame);
    }
}

#[test]
fn golden_v1_frame_encoding_is_stable() {
    let frame = v1_add_route_frame();
    assert_eq!(to_hex(&frame.encode()), V1_ADD_ROUTE_HEX);
    let bytes = from_hex(V1_ADD_ROUTE_HEX);
    let decoded = Frame::decode(bytes::Bytes::copy_from_slice(&bytes[4..])).unwrap();
    assert_eq!(decoded, frame);
}

#[test]
fn golden_v2_frame_encoding_is_stable() {
    let frame = v2_add_route_frame();
    assert_eq!(to_hex(&frame.encode()), V2_ADD_ROUTE_HEX);
    let bytes = from_hex(V2_ADD_ROUTE_HEX);
    let decoded = Frame::decode(bytes::Bytes::copy_from_slice(&bytes[4..])).unwrap();
    assert_eq!(decoded, frame);
}

/// The may-recur mark rides the existing 8-byte `seq` field: on both wires
/// a flagged request round-trips and differs from the golden (unflagged)
/// frame in exactly one bit — the top bit of `seq`'s first byte, right
/// after the length prefix and the kind byte.
#[test]
fn flagged_seq_round_trips_and_moves_no_other_byte() {
    for (frame, golden) in [
        (v1_add_route_frame(), V1_ADD_ROUTE_HEX),
        (v2_add_route_frame(), V2_ADD_ROUTE_HEX),
    ] {
        let mut flagged = frame;
        if let Frame::Request { seq, .. } = &mut flagged {
            *seq |= SEQ_MAY_RECUR;
        }
        let bytes = flagged.encode();
        let decoded = Frame::decode(bytes::Bytes::copy_from_slice(&bytes[4..])).unwrap();
        assert_eq!(decoded, flagged);
        let mut expected = from_hex(golden);
        expected[5] |= 0x80;
        assert_eq!(bytes[..], expected[..]);
    }
}

/// The headline saving the fixtures also document: dropping the path and
/// the argument names takes ≥30% off a per-route frame.
#[test]
fn wire_v2_cuts_route_frame_bytes_by_a_third() {
    let v1 = v1_add_route_frame().encode().len();
    let v2 = v2_add_route_frame().encode().len();
    assert!(
        (v2 as f64) <= (v1 as f64) * 0.7,
        "v2 frame not ≥30% smaller: v1={v1}B v2={v2}B"
    );
}

// ---- mixed-version interop over TCP -------------------------------------

xrl_interface! {
    /// Minimal typed surface for the interop tests.
    pub interface calc("calc", "1.0") {
        fn add(a: u32, b: u32) -> (sum: u32);
    }
}

/// Records, per dispatched call, whether the request arrived on the v2
/// positional wire.
struct CalcServer {
    wire: Arc<Mutex<Vec<bool>>>,
}

impl calc::Server for CalcServer {
    fn add(&self, el: &mut EventLoop, a: u32, b: u32, responder: xorp_xrl::TypedResponder<(u32,)>) {
        self.wire.lock().unwrap().push(responder.wire_v2());
        responder.ok(el, (a + b,));
    }
}

/// A calc "process" on its own thread, over TCP.  `v1_only` models a
/// pre-v2 build: it neither advertises signatures nor emits v2 frames.
fn spawn_calc(
    finder: Finder,
    v1_only: bool,
    wire: Arc<Mutex<Vec<bool>>>,
) -> (EventSender, std::thread::JoinHandle<()>) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let mut el = EventLoop::new();
        let router = XrlRouter::new(&mut el, finder);
        if v1_only {
            router.set_wire_v1_only(true);
        }
        router.enable_tcp().unwrap();
        router.register_target("calc", "calc-0", false).unwrap();
        calc::register(&router, "calc-0", CalcServer { wire });
        tx.send(el.sender()).unwrap();
        el.run();
        router.shutdown(&mut el);
    });
    let sender = rx.recv().unwrap();
    (sender, handle)
}

/// Call `add` through the typed stub and spin the caller's loop until
/// the reply lands.
fn call_add(el: &mut EventLoop, client: &calc::Client, a: u32, b: u32) -> u32 {
    let slot = std::rc::Rc::new(std::cell::RefCell::new(None));
    let s = slot.clone();
    client.add(el, a, b, move |_el, r| {
        *s.borrow_mut() = Some(r);
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(res) = slot.borrow_mut().take() {
            let (sum,) = res.expect("calc/1.0/add failed");
            return sum;
        }
        assert!(Instant::now() < deadline, "calc/1.0/add timed out");
        if !el.run_one() {
            el.run_for(Duration::from_millis(1));
        }
    }
}

fn caller(finder: Finder, v1_only: bool) -> (EventLoop, XrlRouter) {
    let mut el = EventLoop::new();
    let router = XrlRouter::new(&mut el, finder);
    if v1_only {
        router.set_wire_v1_only(true);
    }
    router.enable_tcp().unwrap();
    router.register_target("caller", "caller-0", false).unwrap();
    (el, router)
}

#[test]
fn v2_peers_negotiate_positional_wire_over_tcp() {
    let finder = Finder::new();
    let wire = Arc::new(Mutex::new(Vec::new()));
    let (sender, handle) = spawn_calc(finder.clone(), false, wire.clone());
    let (mut el, router) = caller(finder, false);

    let client = calc::Client::new(&router, "calc");
    for i in 0..4u32 {
        assert_eq!(call_add(&mut el, &client, i, 10), i + 10);
    }
    let seen = wire.lock().unwrap().clone();
    assert_eq!(seen.len(), 4);
    assert!(
        seen.iter().all(|v2| *v2),
        "v2-capable pair fell back to named frames: {seen:?}"
    );

    router.shutdown(&mut el);
    sender.stop();
    handle.join().unwrap();
}

#[test]
fn v1_only_caller_reaches_v2_server() {
    let finder = Finder::new();
    let wire = Arc::new(Mutex::new(Vec::new()));
    let (sender, handle) = spawn_calc(finder.clone(), false, wire.clone());
    let (mut el, router) = caller(finder, true);

    let client = calc::Client::new(&router, "calc");
    assert_eq!(call_add(&mut el, &client, 20, 22), 42);
    let seen = wire.lock().unwrap().clone();
    assert_eq!(seen, vec![false], "v1-only caller somehow emitted v2");

    router.shutdown(&mut el);
    sender.stop();
    handle.join().unwrap();
}

// ---- trace-trailer compatibility ----------------------------------------

use xorp_profiler::tracing::{self as xtrace, TraceContext, Tracer};

/// Per-call record: (wire_v2, trace context scoped over the handler).
type SeenCalls = Arc<Mutex<Vec<(bool, Option<TraceContext>)>>>;

/// Records, per dispatched call, the wire version and the trace context
/// the dispatcher scoped over the handler.
struct TracingCalcServer {
    seen: SeenCalls,
}

impl calc::Server for TracingCalcServer {
    fn add(&self, el: &mut EventLoop, a: u32, b: u32, responder: xorp_xrl::TypedResponder<(u32,)>) {
        self.seen
            .lock()
            .unwrap()
            .push((responder.wire_v2(), xtrace::current()));
        responder.ok(el, (a + b,));
    }
}

fn spawn_tracing_calc(
    finder: Finder,
    v1_only: bool,
    seen: SeenCalls,
) -> (EventSender, std::thread::JoinHandle<()>) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let mut el = EventLoop::new();
        let router = XrlRouter::new(&mut el, finder);
        if v1_only {
            router.set_wire_v1_only(true);
        }
        router.enable_tcp().unwrap();
        router.register_target("calc", "calc-0", false).unwrap();
        calc::register(&router, "calc-0", TracingCalcServer { seen });
        tx.send(el.sender()).unwrap();
        el.run();
        router.shutdown(&mut el);
    });
    let sender = rx.recv().unwrap();
    (sender, handle)
}

/// A sampled context set on the caller rides the v2 trailer to the
/// server's dispatch scope; unsampled calls from the same caller carry
/// nothing.
#[test]
fn trace_context_rides_v2_wire_to_server() {
    let finder = Finder::new();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let (sender, handle) = spawn_tracing_calc(finder.clone(), false, seen.clone());
    let (mut el, router) = caller(finder, false);
    let client = calc::Client::new(&router, "calc");

    // Unsampled call: no ambient context, no trailer.
    assert_eq!(call_add(&mut el, &client, 1, 2), 3);
    // Sampled call: ambient context captured at send time.
    let ctx = TraceContext {
        trace_id: 0xABCD_EF01_2345_6789,
        parent_span: 42,
    };
    let prev = xtrace::set_current(Some(ctx));
    client.add(&mut el, 3, 4, |_el, _r| {});
    xtrace::set_current(prev);
    assert_eq!(call_add(&mut el, &client, 5, 6), 11);

    let got = seen.lock().unwrap().clone();
    assert_eq!(got.len(), 3);
    assert_eq!(got[0], (true, None), "unsampled call grew a context");
    assert_eq!(got[1], (true, Some(ctx)), "context lost on the v2 wire");
    assert_eq!(got[2], (true, None), "context leaked past its scope");

    router.shutdown(&mut el);
    sender.stop();
    handle.join().unwrap();
}

/// A v1-pinned peer must never receive a flagged frame: the caller's
/// ambient context is dropped at the v1 fallback, so the server decodes
/// a plain named frame and sees no context.
#[test]
fn v1_pinned_peer_never_receives_flagged_frame() {
    let finder = Finder::new();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let (sender, handle) = spawn_tracing_calc(finder.clone(), true, seen.clone());
    let (mut el, router) = caller(finder, false);
    let client = calc::Client::new(&router, "calc");

    let ctx = TraceContext {
        trace_id: 7,
        parent_span: 9,
    };
    let prev = xtrace::set_current(Some(ctx));
    let sum = call_add(&mut el, &client, 20, 22);
    xtrace::set_current(prev);
    assert_eq!(sum, 42);

    let got = seen.lock().unwrap().clone();
    assert_eq!(
        got,
        vec![(false, None)],
        "a v1-pinned peer saw a v2 frame or a trace context"
    );

    router.shutdown(&mut el);
    sender.stop();
    handle.join().unwrap();
}

/// Tracing enabled but unsampled changes nothing on the wire: with a
/// live tracer whose sampler declines, the ambient context stays unset
/// and both golden fixtures encode byte-identically.
#[test]
fn golden_fixtures_unchanged_with_tracing_enabled_but_unsampled() {
    let tracer = Tracer::new();
    tracer.set_sampling(1_000_000);
    assert!(tracer.sample().is_some(), "first arrival is sampled");
    assert!(tracer.sample().is_none(), "second arrival must not be");
    assert_eq!(xtrace::current(), None);
    assert_eq!(to_hex(&v1_add_route_frame().encode()), V1_ADD_ROUTE_HEX);
    assert_eq!(to_hex(&v2_add_route_frame().encode()), V2_ADD_ROUTE_HEX);
}

#[test]
fn v2_caller_falls_back_for_v1_only_server() {
    let finder = Finder::new();
    let wire = Arc::new(Mutex::new(Vec::new()));
    let (sender, handle) = spawn_calc(finder.clone(), true, wire.clone());
    let (mut el, router) = caller(finder, false);

    // The server never advertised a signature, so the interned call's
    // negotiation finds none and the stub stays on v1 named frames.
    let client = calc::Client::new(&router, "calc");
    assert_eq!(call_add(&mut el, &client, 2, 40), 42);
    let seen = wire.lock().unwrap().clone();
    assert_eq!(seen, vec![false], "caller sent v2 to a v1-only peer");

    router.shutdown(&mut el);
    sender.stop();
    handle.join().unwrap();
}
