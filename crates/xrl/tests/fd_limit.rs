//! A TCP connection set up at the process's descriptor limit costs only
//! that connection: a send that cannot connect fails with `Transport`,
//! and a listener drops a stream it cannot serve and keeps accepting.
//! Neither the router's loop thread nor the listener thread panics.
//!
//! This is its own test binary because `RLIMIT_NOFILE` is process-wide:
//! no other test may open descriptors while it is lowered.  The offline
//! tree has no `libc` crate, so the two calls are declared here.
#![cfg(target_os = "linux")]

use std::cell::RefCell;
use std::fs::File;
use std::io::{ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::rc::Rc;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use xorp_event::EventLoop;
use xorp_xrl::finder::Endpoint;
use xorp_xrl::router::TransportPref;
use xorp_xrl::{Finder, Xrl, XrlArgs, XrlError, XrlRouter};

/// `struct rlimit` on Linux, where `rlim_t` is 64 bits wide.
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

/// `RLIMIT_NOFILE` on Linux.
const RLIMIT_NOFILE: i32 = 7;

/// `EMFILE`: the process has no descriptor number left.
const EMFILE: i32 = 24;

extern "C" {
    fn getrlimit(resource: i32, limit: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, limit: *const RLimit) -> i32;
}

/// The descriptor limit lowered so that exactly `free` descriptor numbers
/// are left; dropping it restores the old limit.
struct Lowered {
    old: RLimit,
    /// Descriptors filling every other number below the limit.
    _held: Vec<File>,
}

impl Lowered {
    fn new(free: usize) -> Lowered {
        let mut old = RLimit { cur: 0, max: 0 };
        // SAFETY: `old` is a valid, writable `struct rlimit` for the call.
        assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut old) }, 0);
        let highest = std::fs::read_dir("/proc/self/fd")
            .expect("list open descriptors")
            .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u64>().ok())
            .max()
            .expect("stdin is open");
        let lowered = RLimit {
            cur: highest + 8,
            max: old.max,
        };
        // SAFETY: `lowered` is a valid `struct rlimit` that outlives the call.
        assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &lowered) }, 0);
        // Fill every number below the limit, holes included, then give
        // back exactly `free` of them.
        let mut held = Vec::new();
        let err = loop {
            match File::open("/dev/null") {
                Ok(f) => held.push(f),
                Err(e) => break e,
            }
        };
        assert_eq!(err.raw_os_error(), Some(EMFILE), "{err}");
        assert!(held.len() >= free);
        held.truncate(held.len() - free);
        Lowered { old, _held: held }
    }
}

impl Drop for Lowered {
    fn drop(&mut self) {
        // SAFETY: `self.old` is the valid `struct rlimit` getrlimit filled.
        unsafe { setrlimit(RLIMIT_NOFILE, &self.old) };
    }
}

/// Send `echo/1.0/echo` to `target` over TCP and run the loop until the
/// reply lands.  Panics if none lands within 10 s.
fn echo(el: &mut EventLoop, router: &XrlRouter, target: &str) -> Result<XrlArgs, XrlError> {
    let xrl: Xrl = format!("finder://{target}/echo/1.0/echo?i:u32=7")
        .parse()
        .unwrap();
    let slot = Rc::new(RefCell::new(None));
    let s = slot.clone();
    let done = Box::new(move |_el: &mut EventLoop, r| *s.borrow_mut() = Some(r));
    router.send_pref(el, xrl, TransportPref::Tcp, done);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(r) = slot.borrow_mut().take() {
            return r;
        }
        assert!(Instant::now() < deadline, "no reply from {target}");
        el.run_for(Duration::from_millis(1));
    }
}

#[test]
fn tcp_setup_at_the_descriptor_limit_fails_the_connection_not_the_process() {
    let finder = Finder::new();

    // The echo server, on its own loop thread.
    let (tx, rx) = mpsc::channel();
    let server = std::thread::spawn({
        let finder = finder.clone();
        move || {
            let mut el = EventLoop::new();
            let router = XrlRouter::new(&mut el, finder);
            let addr = router.enable_tcp().unwrap();
            router.register_target("echo", "echo-0", true).unwrap();
            router.add_fn("echo-0", "echo/1.0/echo", |_el, args| Ok(args.clone()));
            tx.send((el.sender(), addr)).unwrap();
            el.run();
            router.shutdown(&mut el);
        }
    });
    let (server_loop, server_addr) = rx.recv().unwrap();

    // A peer that never accepts: connecting to it needs no server thread.
    let sink = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let sink_addr = Endpoint::Tcp(sink.local_addr().unwrap());
    finder
        .register("sink", "sink-0", vec![sink_addr], true)
        .unwrap();

    let mut el = EventLoop::new();
    let client = XrlRouter::new(&mut el, finder);
    client.enable_tcp().unwrap();

    // The listener accepts at the limit: the connection's own descriptor
    // is the last one, so its reader's cannot be had.  The listener drops
    // it (the peer reads end of stream) and serves the next connection.
    {
        let _limit = Lowered::new(2);
        let mut peer = TcpStream::connect(server_addr).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        match peer.read(&mut [0u8; 1]) {
            Ok(0) => {}
            Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
            other => panic!("the listener kept a connection it cannot serve: {other:?}"),
        }
    }
    assert!(
        echo(&mut el, &client, "echo").is_ok(),
        "the listener stopped accepting"
    );

    // The loop thread connects at the limit: the send fails as a refused
    // connect does, and the loop goes on serving.
    {
        let _limit = Lowered::new(1);
        let r = echo(&mut el, &client, "sink");
        assert!(matches!(r, Err(XrlError::Transport(_))), "{r:?}");
    }
    assert!(echo(&mut el, &client, "echo").is_ok());

    client.shutdown(&mut el);
    server_loop.stop();
    server.join().unwrap();
}
