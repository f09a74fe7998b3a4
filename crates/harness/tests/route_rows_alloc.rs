//! A batched route frame costs allocations per frame, not per row.
//!
//! A counting global allocator watches one hop's codec end to end, on the
//! test's own thread, so other threads of the process never count: the
//! sender writes the frame's rows straight into a list (with a writer
//! reused from frame to frame, as the batcher's is), the frame is
//! encoded into an out-buffer that is also reused (as a TCP connection's
//! is), decoded, and its rows are read in place.  A 256-row frame must
//! allocate exactly as often as a 16-row one, at each hop and in each
//! direction.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{IpAddr, Ipv4Addr};

use xorp_harness::xrl_ifaces;
use xorp_net::{Ipv4Net, PathAttributes, ProtocolId, RouteEntry};
use xorp_xrl::marshal::Frame;
use xorp_xrl::{ListWriter, WireList, XrlArgs};

struct Counting;

thread_local! {
    /// Allocations made by this thread: the harness's own threads and
    /// any other test's allocate too, and must not count.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
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

#[derive(Clone, Copy, Debug)]
enum Hop {
    /// BGP→RIB: no interface name, deletions name the protocol.
    Rib,
    /// RIB→FEA: an interface name, deletions by prefix alone.
    Fea,
}

/// Routes as the hop's sender holds them.
fn routes(hop: Hop, n: u32) -> Vec<RouteEntry<Ipv4Addr>> {
    let attrs = PathAttributes::new(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1))).shared();
    (0..n)
        .map(|i| {
            let net = Ipv4Net::new(Ipv4Addr::from((10 << 24) | (i << 8)), 24).unwrap();
            let mut route = RouteEntry::new(net, attrs.clone(), i, ProtocolId::Ebgp);
            if let Hop::Fea = hop {
                route.ifname = Some("eth0".into());
            }
            route
        })
        .collect()
}

/// Allocations made carrying `routes` across one hop in one frame:
/// write, encode, decode, read.  Returns the count and the rows read.
fn carry(
    hop: Hop,
    add: bool,
    rows: &mut ListWriter,
    wire: &mut Vec<u8>,
    routes: &[RouteEntry<Ipv4Addr>],
) -> (usize, usize) {
    wire.clear();
    let before = allocations();
    for route in routes {
        if add {
            xrl_ifaces::write_add_row(rows, route.net, route);
        } else {
            let proto = matches!(hop, Hop::Rib).then_some(route.proto);
            xrl_ifaces::write_delete_row(rows, route.net, proto);
        }
    }
    let mut args = XrlArgs::new();
    args.push_arg(&rows.take());
    Frame::Request {
        seq: 1,
        sender: 2,
        target: "rib-0".into(),
        key: [7; 16],
        path: String::new(),
        method_id: Some(2),
        args,
        priority: false,
        trace: None,
    }
    .encode_into(wire);
    let Ok(Frame::Request { args, .. }) = Frame::decode_slice(&wire[4..]) else {
        panic!("the frame did not decode");
    };
    let list: WireList = args.get_arg(0, "routes").unwrap();
    let read = if add {
        xrl_ifaces::read_add_rows(&list).unwrap().len()
    } else {
        xrl_ifaces::read_delete_rows(&list).unwrap().len()
    };
    drop((args, list));
    (allocations() - before, read)
}

#[test]
fn a_batched_frame_allocates_per_frame_not_per_row() {
    for hop in [Hop::Rib, Hop::Fea] {
        for add in [true, false] {
            let (small, large) = (routes(hop, 16), routes(hop, 256));
            let (mut rows, mut wire) = (ListWriter::default(), Vec::new());
            carry(hop, add, &mut rows, &mut wire, &large); // the buffers grow once
            let (at_16, read_16) = carry(hop, add, &mut rows, &mut wire, &small);
            let (at_256, read_256) = carry(hop, add, &mut rows, &mut wire, &large);
            assert_eq!((read_16, read_256), (16, 256));
            assert_eq!(
                at_16,
                at_256,
                "{hop:?} {}: 16 rows allocate {at_16} times, 256 rows {at_256}",
                if add { "add" } else { "delete" }
            );
        }
    }
}
