//! Route-flap damping keeps penalties, not routes.
//!
//! A counting global allocator tracks the live heap of the test's own
//! thread (the BGP process is single-threaded and lives on it).  The same
//! 20,000 routes load through a damped peering and through an undamped
//! one; the damped peering may cost at most 4 B/route more, before and
//! after its first sweep.  A per-route structure in the damping stage — a
//! copy of what it forwarded, a state entry per announced prefix — costs
//! at least a map entry per route and breaks this.
//!
//! What damping does keep, a penalty per prefix that flapped, is charged
//! by `BgpProcess::memory_bytes`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use xorp_bgp::bgp::UpdateIn;
use xorp_bgp::nexthop::{AnswerCb, NexthopService, RibNexthopAnswer};
use xorp_bgp::{BgpConfig, BgpProcess, DampingConfig, PeerConfig, PeerId};
use xorp_event::EventLoop;
use xorp_net::{AsNum, AsPath, PathAttributes, Prefix};

const ROUTES: u32 = 20_000;
const PER_UPDATE: u32 = 100;
/// Extra live heap a damped peering may cost per route.
const BOUND: isize = 4;

struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    // A thread being torn down has no thread-locals left; its frees are
    // not the test's.
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

// SAFETY: every method hands its arguments to `System` unchanged, so
// `System`'s guarantees are this allocator's.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

struct Flat;

impl NexthopService<Ipv4Addr> for Flat {
    fn resolve_nexthop(&self, el: &mut EventLoop, _addr: Ipv4Addr, cb: AnswerCb<Ipv4Addr>) {
        let valid = "192.168.0.0/16".parse().unwrap();
        cb(
            el,
            RibNexthopAnswer {
                valid,
                metric: Some(1),
            },
        );
    }
}

fn net(i: u32) -> Prefix<Ipv4Addr> {
    Prefix::new(Ipv4Addr::from((10 << 24) | (i << 8)), 24).unwrap()
}

/// A process with one peering, damped or not, sending its best routes to
/// a RIB output that keeps nothing.
fn process(el: &mut EventLoop, damping: Option<DampingConfig>) -> BgpProcess<Ipv4Addr> {
    let config = BgpConfig {
        local_as: AsNum(65000),
        router_id: "10.255.0.1".parse().unwrap(),
        local_addr: IpAddr::V4("10.255.0.1".parse().unwrap()),
        hold_time: 90,
    };
    let mut bgp = BgpProcess::new(config, Rc::new(Flat));
    bgp.set_rib_output(el, |_el, _origin, _op| {});
    let mut cfg = PeerConfig::simple(PeerId(1), AsNum(65001));
    cfg.damping = damping;
    bgp.add_peer(el, cfg, None);
    bgp.peering_up(el, PeerId(1));
    bgp
}

fn announce(el: &mut EventLoop, bgp: &mut BgpProcess<Ipv4Addr>, nets: Vec<Prefix<Ipv4Addr>>) {
    let mut attrs = PathAttributes::new(IpAddr::V4(Ipv4Addr::new(192, 168, 1, 1)));
    attrs.as_path = AsPath::from_sequence([65001]);
    let update = UpdateIn {
        withdrawn: vec![],
        announce: Some((Arc::new(attrs), nets)),
    };
    bgp.apply_update(el, PeerId(1), update);
}

fn load(el: &mut EventLoop, bgp: &mut BgpProcess<Ipv4Addr>) {
    for u in 0..ROUTES / PER_UPDATE {
        let nets = (0..PER_UPDATE).map(|i| net(u * PER_UPDATE + i)).collect();
        announce(el, bgp, nets);
        el.run_until_idle();
    }
}

/// Live heap a loaded peering holds beyond an empty one: once the load
/// has settled, and again after a sweep period.
fn loaded_heap(damping: Option<DampingConfig>) -> (isize, isize) {
    let mut el = EventLoop::new_virtual();
    let mut bgp = process(&mut el, damping);
    let empty = live();
    load(&mut el, &mut bgp);
    let loaded = live() - empty;
    el.run_until(el.now() + Duration::from_secs(10));
    let swept = live() - empty;
    assert_eq!(bgp.route_count(), ROUTES as usize);
    drop(bgp);
    (loaded, swept)
}

#[test]
fn a_damped_peering_holds_no_more_than_an_undamped_one() {
    let (plain, plain_swept) = loaded_heap(None);
    let (damped, damped_swept) = loaded_heap(Some(DampingConfig::default()));
    let routes = ROUTES as isize;
    let extra = (damped - plain) / routes;
    let extra_swept = (damped_swept - plain_swept) / routes;
    println!(
        "{ROUTES} routes: undamped {plain} B, damped {damped} B ({extra} B/route more); \
         after a sweep {plain_swept} B and {damped_swept} B ({extra_swept} B/route more)"
    );
    assert!(extra <= BOUND, "{extra} B/route more with damping");
    assert!(
        extra_swept <= BOUND,
        "{extra_swept} B/route more with damping after a sweep"
    );
}

#[test]
fn memory_bytes_charges_the_penalties_of_flapped_prefixes() {
    let mut el = EventLoop::new_virtual();
    let mut bgp = process(&mut el, Some(DampingConfig::default()));
    load(&mut el, &mut bgp);
    let mut charged = vec![bgp.memory_bytes()];
    let mut flapped = 0;
    for k in [500, 2_000] {
        // One withdrawal each: a penalty below the suppress threshold, so
        // the re-announcement goes through and the table is whole again.
        let nets: Vec<_> = (flapped..flapped + k).map(net).collect();
        let withdraw = UpdateIn {
            withdrawn: nets.clone(),
            announce: None,
        };
        bgp.apply_update(&mut el, PeerId(1), withdraw);
        announce(&mut el, &mut bgp, nets);
        el.run_until_idle();
        flapped += k;
        assert_eq!(bgp.route_count(), ROUTES as usize);
        charged.push(bgp.memory_bytes());
    }
    println!("memory_bytes after 0, 500 and 2,500 flapped prefixes: {charged:?}");
    assert!(charged[1] >= charged[0] + 500 * 16, "{charged:?}");
    assert!(charged[2] >= charged[1] + 2_000 * 16, "{charged:?}");
}
