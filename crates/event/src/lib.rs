//! The single-threaded, event-driven programming model of §4.
//!
//! Each XORP "process" adopts a single-threaded event loop: events come from
//! timers and I/O sources, callbacks are dispatched as each event occurs,
//! and every event is processed to completion.  Tasks too large for one
//! event — withdrawing 100,000+ routes when a peering drops — run as
//! **background tasks**: cooperative slices executed only when no events are
//! pending (§4, §5.1.2).  Work that should wait for the input already
//! queued — a coalescer's flush — goes on the **idle lane**
//! ([`EventLoop::defer_idle`]): it runs once every input lane is empty and
//! no timer is due, ahead of background slices.
//!
//! Differences from the paper's C++/SFS loop, and why they don't matter:
//!
//! * Instead of `select(2)` on file descriptors, I/O readiness arrives as
//!   closures posted from reader threads through a cross-thread channel
//!   ([`EventSender`]).  The loop itself stays single-threaded; callbacks
//!   still run to completion, in arrival order within each of the three
//!   cross-thread lanes (priority, completion, bulk — see
//!   [`EventLoop::run_one`] for how they interleave).
//! * The clock is pluggable: [`EventLoop::new`] uses the wall clock, while
//!   [`EventLoop::new_virtual`] runs in virtual time, jumping straight to
//!   the next timer deadline when idle.  Virtual time lets the Figure 13
//!   experiment model 300 seconds of router behaviour in milliseconds
//!   without changing any protocol code.

mod background;
mod eventloop;
mod time;

pub use background::SliceResult;
pub use eventloop::{BackgroundHandle, EventLoop, EventSender, TimerHandle};
pub use time::{ClockKind, Time};
