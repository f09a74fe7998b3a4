//! A route costs the router well under one heap allocation, loaded or
//! withdrawn.
//!
//! A counting global allocator watches a default three-process router
//! at batch 256 while it loads 40,000 backbone routes in 64-route
//! UPDATEs and then withdraws them, twice.  Allocations made on the test's own
//! thread (building each UPDATE, posting it, polling the FEA's count)
//! are counted apart: they are the test's, not the router's.  Every
//! other thread is the router's — the BGP, RIB and FEA loops and their
//! XRL readers.
//!
//! Nothing the router does per route needs the heap: a PeerIn slot is
//! the UPDATE's own attribute block, the export to the second peer
//! reuses one block per input block, and rows travel in reused frame
//! buffers.  The bound leaves room for per-UPDATE and per-frame work
//! and for timers, not for a per-route allocation anywhere.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use xorp_harness::{
    backbone_table, BackboneRoute, MultiProcessRouter, RouterOptions, WorkloadConfig,
};

const ROUTES: usize = 40_000;
const PER_UPDATE: usize = 64;
const TIMEOUT: Duration = Duration::from_secs(120);
/// Router allocations allowed per route, loaded or withdrawn.
const BOUND: f64 = 0.5;

struct Counting;

static ROUTER: AtomicUsize = AtomicUsize::new(0);
static TEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ON_TEST_THREAD: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    // A thread being torn down has no thread-locals left: it is not the
    // test's, which outlives the router.
    let test = ON_TEST_THREAD.try_with(Cell::get).unwrap_or(false);
    let counter = if test { &TEST } else { &ROUTER };
    counter.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method hands its arguments to `System` unchanged, so
// `System`'s guarantees are this allocator's.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Poll the FEA's route count until it reads `n`.  Polls are spaced so
/// that answering them stays a small share of the router's count.
fn wait_for_fib(router: &MultiProcessRouter, n: usize) {
    let deadline = Instant::now() + TIMEOUT;
    while router.fea_route_count() != n {
        assert!(
            Instant::now() < deadline,
            "fea={} rib={} bgp={}, waiting for {n}",
            router.fea_route_count(),
            router.rib_route_count(),
            router.bgp_route_count()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Router and test-thread allocations made while `phase` runs, per route.
fn per_route(phase: impl FnOnce()) -> (f64, f64) {
    let (router, test) = (ROUTER.load(Ordering::Relaxed), TEST.load(Ordering::Relaxed));
    phase();
    let router = ROUTER.load(Ordering::Relaxed) - router;
    let test = TEST.load(Ordering::Relaxed) - test;
    (router as f64 / ROUTES as f64, test as f64 / ROUTES as f64)
}

/// Load the table and withdraw it: allocations per route for each half,
/// the router's and the test thread's.
fn cycle(router: &MultiProcessRouter, table: &[BackboneRoute]) -> [(f64, f64); 2] {
    let load = per_route(|| {
        for update in table.chunks(PER_UPDATE) {
            router.feed_backbone(1, update);
        }
        wait_for_fib(router, ROUTES + 1);
    });
    let withdraw = per_route(|| {
        for update in table.chunks(PER_UPDATE) {
            router.withdraw_backbone(1, update);
        }
        wait_for_fib(router, 1);
    });
    [load, withdraw]
}

#[test]
fn a_route_costs_the_router_under_half_an_allocation() {
    ON_TEST_THREAD.with(|d| d.set(true));
    let router = MultiProcessRouter::new(RouterOptions {
        batch_size: 256,
        ..Default::default()
    });
    wait_for_fib(&router, 1);
    let table = backbone_table(&WorkloadConfig {
        routes: ROUTES,
        batch: PER_UPDATE,
        ..Default::default()
    });

    // The first load finds no nexthop answer cached: the resolver holds
    // back the routes that arrive before the RIB's answer and then sends
    // them in one walk in prefix order, where routes of many UPDATEs
    // alternate and each misses PeerOut's one-block memo.  How many that
    // is depends on how far BGP gets before the answer comes back, so the
    // first cycle is printed, not bounded.  The second runs as the
    // benchmark's loads do, with the answer cached.
    let [(cold, _), _] = cycle(&router, &table);
    let [(load, load_test), (withdraw, withdraw_test)] = cycle(&router, &table);
    println!(
        "allocations per route, router (test thread): first load {cold:.3}; \
         load {load:.3} ({load_test:.3}), withdraw {withdraw:.3} ({withdraw_test:.3})"
    );
    assert_eq!(router.bgp_route_count(), 0);
    router.stop();
    assert!(
        load <= BOUND,
        "a load costs {load:.3} allocations per route"
    );
    assert!(
        withdraw <= BOUND,
        "a withdraw costs {withdraw:.3} allocations per route"
    );
}
