//! A warm dynamic send finds its route in the resolve cache by borrowed
//! keys.
//!
//! A counting global allocator watches `XrlRouter::send` on the test's own
//! thread once the target has been resolved: the cache lookup allocates
//! no key of its own, so the send costs the route it clones out of the
//! cache and what it builds for the request, and nothing for the lookup.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xorp_event::EventLoop;
use xorp_xrl::{Finder, Xrl, XrlArgs, XrlRouter};

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

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations of one warm dynamic send to a target on the same loop:
/// rendering the path, cloning the cached route (instance, class,
/// endpoints) and deferring the dispatch.  A lookup that built a
/// `(String, String)` key cost two more.
const WARM_SEND_ALLOCATIONS: usize = 6;

#[test]
fn a_warm_dynamic_send_allocates_no_cache_key() {
    let mut el = EventLoop::new();
    let router = XrlRouter::new(&mut el, Finder::new());
    router.register_target("echo", "echo-0", true).unwrap();
    router.add_fn("echo-0", "echo/1.0/ping", |_el, _args| Ok(XrlArgs::new()));
    let ping = || "finder://echo/echo/1.0/ping".parse::<Xrl>().unwrap();
    let answered = std::rc::Rc::new(Cell::new(0));

    let mut counts = Vec::new();
    for _ in 0..6 {
        let (xrl, a) = (ping(), answered.clone());
        let cb = Box::new(move |_el: &mut EventLoop, r: xorp_xrl::XrlResult| {
            assert!(r.is_ok());
            a.set(a.get() + 1);
        });
        counts.push(allocations(|| router.send(&mut el, xrl, cb)));
        el.run_until_idle();
    }
    assert_eq!(answered.get(), 6);
    // The first sends resolve through the Finder, fill the cache and grow
    // the router's tables; the last two find everything in place.
    let warm = counts[4..].iter().max().copied().unwrap();
    assert!(
        warm <= WARM_SEND_ALLOCATIONS,
        "a warm dynamic send allocated {warm} times (at most {WARM_SEND_ALLOCATIONS}): {counts:?}"
    );
}
