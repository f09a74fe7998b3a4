//! An argument block costs one allocation to build and one to decode.
//!
//! A counting global allocator watches the v2 `rib/1.0/add_route` call on
//! the test's own thread: its five arguments written into a block from
//! values the caller already owns, as the generated stub writes them, and
//! the golden v2 fixture frame decoded as a TCP reader decodes it — the
//! target name and the block, and nothing per argument.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use xorp_net::Ipv4Net;
use xorp_xrl::marshal::Frame;
use xorp_xrl::{RetTuple, XrlArgs};

struct Counting;

thread_local! {
    /// Allocations made by this thread: the tests in this binary run on
    /// threads of their own, and each counts only its own.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, and what it returns.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// `crates/xrl/tests/wire_compat.rs`'s v2 `add_route` fixture.
const V2_ADD_ROUTE_HEX: &str = "00000050030000000000000001000000000000000200057269622d3042424242424242424242424242424242000000070005090a0000001807c00002020600000004657468300200000064060000000465626770";

const ADD_ROUTE_ARGS: &[&str] = &["net", "nexthop", "ifname", "metric", "proto"];

type AddRoute = (Ipv4Net, Ipv4Addr, String, u32, String);

/// The fixture call's arguments, as its caller holds them.
fn add_route() -> AddRoute {
    (
        "10.0.0.0/24".parse().unwrap(),
        Ipv4Addr::new(192, 0, 2, 2),
        "eth0".to_string(),
        100,
        "ebgp".to_string(),
    )
}

fn fixture() -> Vec<u8> {
    (0..V2_ADD_ROUTE_HEX.len() / 2)
        .map(|i| u8::from_str_radix(&V2_ADD_ROUTE_HEX[2 * i..2 * i + 2], 16).unwrap())
        .collect()
}

fn fixture_frame(args: XrlArgs) -> Frame {
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

#[test]
fn building_the_add_route_block_allocates_once() {
    let values = add_route();
    let (n, args) = allocations(|| values.into_args(ADD_ROUTE_ARGS, true));
    assert!(n <= 1, "building five arguments allocated {n} times");
    assert_eq!(fixture_frame(args).encode().to_vec(), fixture());
}

#[test]
fn decoding_the_v2_add_route_fixture_allocates_for_target_and_block() {
    let bytes = fixture();
    let (n, frame) = allocations(|| Frame::decode_slice(&bytes[4..]));
    assert!(n <= 2, "decoding the frame allocated {n} times");
    let Ok(Frame::Request { args, .. }) = frame else {
        panic!("the fixture did not decode: {frame:?}");
    };
    assert_eq!(
        AddRoute::from_args(&args, ADD_ROUTE_ARGS).unwrap(),
        add_route()
    );
}
