//! Hostile argument bytes through generated dispatch.
//!
//! Arbitrary bytes stand where a request's argument block goes, behind a
//! valid v1 (named) or v2 (positional) header.  A frame that decodes is
//! dispatched, in the form it decoded to, to an `xrl_interface!` server
//! taking text, list and numeric arguments, and the reply is encoded as a
//! response frame.  Every frame must fail to decode with `BadFrame` or be
//! answered `Ok` or `BadArgs`; none may panic.  The cases are a pure
//! function of the RNG seed (CI fixes `PROPTEST_RNG_SEED`).

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use xorp_event::EventLoop;
use xorp_net::Ipv4Net;
use xorp_xrl::marshal::Frame;
use xorp_xrl::{
    xrl_interface, AtomValue, Finder, RetTuple, TypedResponder, WireList, Xrl, XrlArgs, XrlError,
    XrlResult, XrlRouter,
};

xrl_interface! {
    /// Text, list and numeric arguments, in both list forms.
    pub interface hostile("hostile", "1.0") {
        fn take(label: String, rows: Vec<AtomValue>, n: u32, wire: WireList, net: Ipv4Net)
            -> (count: u32, label: String);
    }
}

const TAKE: &str = "hostile/1.0/take";
const TAKE_ARGS: &[&str] = &["label", "rows", "n", "wire", "net"];

struct Sink;

impl hostile::Server for Sink {
    fn take(
        &self,
        el: &mut EventLoop,
        label: String,
        rows: Vec<AtomValue>,
        n: u32,
        wire: WireList,
        net: Ipv4Net,
        responder: TypedResponder<(u32, String)>,
    ) {
        let count = n
            .wrapping_add(rows.len() as u32)
            .wrapping_add(wire.len() as u32)
            .wrapping_add(net.len().into());
        responder.ok(el, (count, label));
    }
}

/// A request for `take`, v1 (named, by path) or v2 (positional, by id).
fn request(v2: bool, args: XrlArgs) -> Frame {
    Frame::Request {
        seq: 9,
        sender: 4,
        target: "hostile-0".into(),
        key: [5; 16],
        path: if v2 { String::new() } else { TAKE.into() },
        method_id: v2.then_some(0),
        args,
        priority: false,
        trace: None,
    }
}

/// A request body whose argument block — count included — is `block`.
fn body(v2: bool, block: &[u8]) -> Vec<u8> {
    let empty = request(v2, XrlArgs::new()).encode();
    let header = &empty[4..empty.len() - 2];
    [header, block].concat()
}

/// The argument block of a well-typed `take` call, in the request's
/// layout.
fn well_typed(v2: bool, label: String, n: u32) -> Vec<u8> {
    let rows = vec![
        AtomValue::List(vec![AtomValue::U32(n)]),
        AtomValue::Text(label.clone()),
    ];
    let wire = WireList::from_atoms(&rows).unwrap();
    let net = Ipv4Net::new([10, 0, 0, 0].into(), (n % 33) as u8).unwrap();
    let args = (label, rows, n, wire, net).into_args(TAKE_ARGS, v2);
    let framed = request(v2, args).encode();
    let header = body(v2, &[]).len();
    framed[4 + header..].to_vec()
}

/// Decode `body` and dispatch what it decodes to; the reply.
fn dispatch(body: &[u8]) -> Result<XrlResult, XrlError> {
    let Frame::Request {
        args, method_id, ..
    } = Frame::decode_slice(body)?
    else {
        unreachable!("a request header decodes as a request")
    };
    let mut el = EventLoop::new_virtual();
    let router = XrlRouter::new(&mut el, Finder::new());
    router
        .register_target("hostile", "hostile-0", true)
        .unwrap();
    hostile::register(&router, "hostile-0", Sink);
    let got = Rc::new(RefCell::new(None));
    let g = got.clone();
    let cb = Box::new(move |_: &mut EventLoop, r| *g.borrow_mut() = Some(r));
    match method_id {
        Some(_) => {
            let entry = router
                .finder()
                .resolve("anonymous", "hostile", TAKE)
                .unwrap();
            let call = router.intern("hostile", TAKE, entry.sig_hash.unwrap(), TAKE_ARGS);
            router.send_interned(&mut el, &call, args, false, cb);
        }
        None => {
            let xrl = Xrl::generic("hostile", "hostile", "1.0", "take", args);
            router.send(&mut el, xrl, cb);
        }
    }
    el.run_until_idle();
    let reply = got.borrow_mut().take().expect("every request is answered");
    Ok(reply)
}

/// The outcome the test accepts for one body, replies encoded and
/// decoded as response frames on the way.
fn check(body: &[u8]) {
    match dispatch(body) {
        Err(XrlError::BadFrame(_)) => {}
        Err(other) => panic!("decoding failed with {other:?}, not BadFrame"),
        Ok(reply) => {
            assert!(
                matches!(reply, Ok(_) | Err(XrlError::BadArgs(_))),
                "{reply:?}"
            );
            let frame = Frame::Response {
                seq: 9,
                result: reply,
                priority: false,
            };
            let encoded = frame.encode();
            assert!(Frame::decode_slice(&encoded[4..]).is_ok(), "{frame:?}");
        }
    }
}

fn arb_value() -> impl Strategy<Value = AtomValue> {
    let leaf = prop_oneof![
        any::<u32>().prop_map(AtomValue::U32),
        any::<i64>().prop_map(AtomValue::I64),
        any::<bool>().prop_map(AtomValue::Bool),
        "[ -~]{0,12}".prop_map(AtomValue::Text),
        (any::<u32>(), 0u8..=32)
            .prop_map(|(b, l)| { AtomValue::Ipv4Net(Ipv4Net::new(b.into(), l).unwrap()) }),
        proptest::collection::vec(any::<u8>(), 0..8).prop_map(AtomValue::Binary),
    ];
    prop_oneof![
        3 => leaf.clone(),
        1 => proptest::collection::vec(leaf, 0..4).prop_map(AtomValue::List),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bytes with no structure at all.
    #[test]
    fn random_argument_bytes_never_panic_dispatch(
        v2 in any::<bool>(),
        block in proptest::collection::vec(any::<u8>(), 0..96),
    ) {
        check(&body(v2, &block));
    }

    /// A well-typed block with bytes flipped and cut: lengths, counts and
    /// type codes that lie.
    #[test]
    fn damaged_argument_blocks_never_panic_dispatch(
        v2 in any::<bool>(),
        label in "[ -~]{0,8}",
        n in any::<u32>(),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..4),
        cut in proptest::option::of(any::<usize>()),
    ) {
        let mut block = well_typed(v2, label, n);
        let undamaged = dispatch(&body(v2, &block));
        prop_assert!(matches!(undamaged, Ok(Ok(_))), "{undamaged:?}");
        for (at, xor) in flips {
            let at = at % block.len();
            block[at] ^= xor;
        }
        if let Some(cut) = cut {
            block.truncate(cut % (block.len() + 1));
        }
        check(&body(v2, &block));
    }

    /// Grammatical blocks of the wrong shape, refused with `BadArgs`:
    /// atoms of any type, in any number, named or not.
    #[test]
    fn mistyped_argument_blocks_never_panic_dispatch(
        v2 in any::<bool>(),
        atoms in proptest::collection::vec((0usize..6, arb_value()), 0..7),
    ) {
        let mut args = XrlArgs::new();
        for (name, value) in atoms {
            match v2 {
                true => args.push_value(value),
                false => args.push(xorp_xrl::XrlAtom::new(["label", "rows", "n", "wire", "net", "x"][name], value)),
            }
        }
        let framed = request(v2, args).encode();
        check(&framed[4..]);
    }
}
