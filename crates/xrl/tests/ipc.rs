//! Cross-"process" IPC integration tests: two event loops on two threads,
//! speaking XRLs through the Finder over every protocol family.

use std::sync::mpsc;
use std::time::Duration;

use xorp_event::{EventLoop, EventSender};
use xorp_xrl::router::TransportPref;
use xorp_xrl::script::{call_xrl_sync, serve_finder};
use xorp_xrl::{Finder, Xrl, XrlArgs, XrlError, XrlRouter};

const TIMEOUT: Duration = Duration::from_secs(10);

/// Spawn an "echo" process: a loop+router on its own thread, serving
/// `echo/1.0/echo` (returns its arguments), `echo/1.0/add` (u32 sum) and
/// `echo/1.0/never` (never replies).  Returns its loop sender.
fn spawn_echo(
    finder: Finder,
    class: &str,
    instance: &str,
) -> (EventSender, std::thread::JoinHandle<()>) {
    let (tx, rx) = mpsc::channel();
    let class = class.to_string();
    let instance = instance.to_string();
    let handle = std::thread::spawn(move || {
        let mut el = EventLoop::new();
        let router = XrlRouter::new(&mut el, finder);
        router.enable_tcp().unwrap();
        router.enable_udp().unwrap();
        router.register_target(&class, &instance, false).unwrap();
        router.add_fn(&instance, &format!("{class}/1.0/echo"), |_el, args| {
            Ok(args.clone())
        });
        router.add_fn(&instance, &format!("{class}/1.0/add"), |_el, args| {
            let a = args.get_u32("a")?;
            let b = args.get_u32("b")?;
            Ok(XrlArgs::new().add_u32("sum", a + b))
        });
        router.add_handler(
            &instance,
            &format!("{class}/1.0/never"),
            |_el, _args, _responder| {
                // Deliberately drop the responder without replying: over
                // TCP/UDP the caller just never hears back (until the
                // connection dies).
            },
        );
        tx.send(el.sender()).unwrap();
        el.run();
        router.shutdown(&mut el);
    });
    let sender = rx.recv().unwrap();
    (sender, handle)
}

fn sender_process(finder: Finder) -> (EventLoop, XrlRouter) {
    let mut el = EventLoop::new();
    let router = XrlRouter::new(&mut el, finder);
    router.enable_tcp().unwrap();
    router.enable_udp().unwrap();
    router
        .register_target("test-sender", "test-sender-0", false)
        .unwrap();
    (el, router)
}

#[test]
fn tcp_request_response() {
    let finder = Finder::new();
    let (echo_sender, echo_thread) = spawn_echo(finder.clone(), "echo", "echo-0");
    let (mut el, router) = sender_process(finder);

    let result = call_xrl_sync(
        &mut el,
        &router,
        "finder://echo/echo/1.0/add?a:u32=2&b:u32=40",
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(result.get_u32("sum").unwrap(), 42);

    echo_sender.stop();
    echo_thread.join().unwrap();
}

#[test]
fn udp_request_response() {
    let finder = Finder::new();
    let (echo_sender, echo_thread) = spawn_echo(finder.clone(), "uecho", "uecho-0");
    let (mut el, router) = sender_process(finder);

    // Force UDP via send_pref.
    let xrl: Xrl = "finder://uecho/uecho/1.0/add?a:u32=1&b:u32=2"
        .parse()
        .unwrap();
    let (tx, rx) = mpsc::channel();
    router.send_pref(
        &mut el,
        xrl,
        TransportPref::Udp,
        Box::new(move |_el, result| {
            tx.send(result).unwrap();
        }),
    );
    let deadline = std::time::Instant::now() + TIMEOUT;
    let result = loop {
        if let Ok(r) = rx.try_recv() {
            break r;
        }
        assert!(std::time::Instant::now() < deadline, "udp call timed out");
        el.run_for(Duration::from_millis(1));
    };
    assert_eq!(result.unwrap().get_u32("sum").unwrap(), 3);

    echo_sender.stop();
    echo_thread.join().unwrap();
}

#[test]
fn udp_is_unpipelined_but_ordered() {
    // Queue several UDP calls back-to-back: flow control must deliver all,
    // one at a time, responses in order.
    let finder = Finder::new();
    let (echo_sender, echo_thread) = spawn_echo(finder.clone(), "qecho", "qecho-0");
    let (mut el, router) = sender_process(finder);

    let (tx, rx) = mpsc::channel();
    for i in 0..20u32 {
        let xrl: Xrl = format!("finder://qecho/qecho/1.0/echo?i:u32={i}")
            .parse()
            .unwrap();
        let tx = tx.clone();
        router.send_pref(
            &mut el,
            xrl,
            TransportPref::Udp,
            Box::new(move |_el, result| {
                tx.send(result.unwrap().get_u32("i").unwrap()).unwrap();
            }),
        );
    }
    let mut seen = Vec::new();
    let deadline = std::time::Instant::now() + TIMEOUT;
    while seen.len() < 20 {
        if let Ok(i) = rx.try_recv() {
            seen.push(i);
            continue;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "udp queue stalled: {seen:?}"
        );
        el.run_for(Duration::from_millis(1));
    }
    assert_eq!(seen, (0..20).collect::<Vec<_>>());

    echo_sender.stop();
    echo_thread.join().unwrap();
}

#[test]
fn intra_process_dispatch() {
    // Sender and receiver on ONE loop — the Figure 9 intra-process setup.
    let finder = Finder::new();
    let mut el = EventLoop::new();
    let router = XrlRouter::new(&mut el, finder);
    router.register_target("local", "local-0", true).unwrap();
    router.add_fn("local-0", "local/1.0/double", |_el, args| {
        Ok(XrlArgs::new().add_u32("x", args.get_u32("x")? * 2))
    });
    let result = call_xrl_sync(
        &mut el,
        &router,
        "finder://local/local/1.0/double?x:u32=21",
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(result.get_u32("x").unwrap(), 42);
}

#[test]
fn forced_intra_fails_across_loops() {
    let finder = Finder::new();
    let (echo_sender, echo_thread) = spawn_echo(finder.clone(), "recho", "recho-0");
    let (mut el, router) = sender_process(finder);

    let xrl: Xrl = "finder://recho/recho/1.0/echo".parse().unwrap();
    let (tx, rx) = mpsc::channel();
    router.send_pref(
        &mut el,
        xrl,
        TransportPref::Intra,
        Box::new(move |_el, result| {
            tx.send(result).unwrap();
        }),
    );
    el.run_until_idle();
    match rx.try_recv().unwrap() {
        Err(XrlError::Transport(_)) => {}
        other => panic!("expected transport error, got {other:?}"),
    }

    echo_sender.stop();
    echo_thread.join().unwrap();
}

#[test]
fn unknown_target_resolve_fails() {
    let finder = Finder::new();
    let (mut el, router) = sender_process(finder);
    let err = call_xrl_sync(&mut el, &router, "finder://nosuch/x/1.0/y", TIMEOUT).unwrap_err();
    assert!(matches!(err, XrlError::ResolveFailed(_)));
}

#[test]
fn unknown_method_rejected_by_receiver() {
    let finder = Finder::new();
    let (echo_sender, echo_thread) = spawn_echo(finder.clone(), "mecho", "mecho-0");
    let (mut el, router) = sender_process(finder);
    let err = call_xrl_sync(
        &mut el,
        &router,
        "finder://mecho/mecho/1.0/no_such_method",
        TIMEOUT,
    )
    .unwrap_err();
    assert!(matches!(err, XrlError::NoSuchMethod(_)), "{err:?}");
    echo_sender.stop();
    echo_thread.join().unwrap();
}

#[test]
fn acl_denies_resolution() {
    let finder = Finder::new();
    let (echo_sender, echo_thread) = spawn_echo(finder.clone(), "pecho", "pecho-0");
    finder.set_acl_enabled(true);
    finder.allow("test-sender", "pecho", "pecho/1.0/echo");
    let (mut el, router) = sender_process(finder);

    // Allowed method works...
    assert!(call_xrl_sync(
        &mut el,
        &router,
        "finder://pecho/pecho/1.0/echo?x:u32=1",
        TIMEOUT
    )
    .is_ok());
    // ...unlisted method is denied at resolution time.
    let err = call_xrl_sync(
        &mut el,
        &router,
        "finder://pecho/pecho/1.0/add?a:u32=1&b:u32=2",
        TIMEOUT,
    )
    .unwrap_err();
    assert!(matches!(err, XrlError::AccessDenied(_)), "{err:?}");

    echo_sender.stop();
    echo_thread.join().unwrap();
}

#[test]
fn lifetime_notifications() {
    let finder = Finder::new();
    let (mut el, router) = sender_process(finder.clone());

    let (tx, rx) = mpsc::channel();
    router.watch_class("watched", move |_el, ev| {
        tx.send((ev.instance.clone(), ev.up)).unwrap();
    });

    let (watched_sender, watched_thread) = spawn_echo(finder.clone(), "watched", "watched-0");
    // Birth event.
    let deadline = std::time::Instant::now() + TIMEOUT;
    let birth = loop {
        if let Ok(ev) = rx.try_recv() {
            break ev;
        }
        assert!(std::time::Instant::now() < deadline);
        el.run_for(Duration::from_millis(1));
    };
    assert_eq!(birth, ("watched-0".to_string(), true));

    // Death event on shutdown.
    watched_sender.stop();
    watched_thread.join().unwrap();
    let death = loop {
        if let Ok(ev) = rx.try_recv() {
            break ev;
        }
        assert!(std::time::Instant::now() < deadline);
        el.run_for(Duration::from_millis(1));
    };
    assert_eq!(death, ("watched-0".to_string(), false));
}

#[test]
fn resolve_cache_used_and_invalidated() {
    let finder = Finder::new();
    let (echo_sender, echo_thread) = spawn_echo(finder.clone(), "cecho", "cecho-0");
    let (mut el, router) = sender_process(finder.clone());

    assert_eq!(router.cache_len(), 0);
    call_xrl_sync(&mut el, &router, "finder://cecho/cecho/1.0/echo", TIMEOUT).unwrap();
    assert_eq!(router.cache_len(), 1);

    // Deregistering the class must flush the sender's cache entry.
    echo_sender.stop();
    echo_thread.join().unwrap();
    let deadline = std::time::Instant::now() + TIMEOUT;
    while router.cache_len() != 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "cache never invalidated"
        );
        el.run_for(Duration::from_millis(1));
    }
}

#[test]
fn resolve_cache_key_cannot_collide_across_target_and_path() {
    // Regression: the resolve cache used to key on the joined string
    // `"{target}|{path}"`, so target `svc|x` + path `y/1.0/m` and target
    // `svc` + path `x|y/1.0/m` shared the key `svc|x|y/1.0/m`.  Whichever
    // resolved first hijacked the other's dispatch — the second call went
    // to the wrong instance with the wrong method key.  The key is now the
    // `(target, path)` tuple; both calls must reach their own handler.
    let finder = Finder::new();
    let mut el = EventLoop::new();
    let router = XrlRouter::new(&mut el, finder);

    router.register_target("svc|x", "svcx-0", true).unwrap();
    router.add_fn("svcx-0", "y/1.0/m", |_el, _args| {
        Ok(XrlArgs::new().add_str("who", "pipe-class"))
    });
    router.register_target("svc", "svc-0", true).unwrap();
    router.add_fn("svc-0", "x|y/1.0/m", |_el, _args| {
        Ok(XrlArgs::new().add_str("who", "plain-class"))
    });

    let call = |el: &mut EventLoop, router: &XrlRouter, target: &str, iface: &str| {
        let (tx, rx) = mpsc::channel();
        router.send(
            el,
            Xrl::generic(target, iface, "1.0", "m", XrlArgs::new()),
            Box::new(move |_el, result| tx.send(result).unwrap()),
        );
        el.run_until_idle();
        rx.try_recv().unwrap().unwrap().get_text("who").unwrap()
    };

    // Prime the cache with the first identity, then send the colliding one.
    assert_eq!(call(&mut el, &router, "svc|x", "y"), "pipe-class");
    assert_eq!(call(&mut el, &router, "svc", "x|y"), "plain-class");
    // And in reverse order against a fresh cache.
    router.flush_resolve_cache();
    assert_eq!(call(&mut el, &router, "svc", "x|y"), "plain-class");
    assert_eq!(call(&mut el, &router, "svc|x", "y"), "pipe-class");
    // Two distinct identities, two cache entries — not one shared slot.
    assert_eq!(router.cache_len(), 2);
}

#[test]
fn kill_family_stops_target() {
    let finder = Finder::new();
    let (_echo_sender, echo_thread) = spawn_echo(finder.clone(), "kecho", "kecho-0");
    let (mut el, router) = sender_process(finder);

    // Default kill handler stops the target loop; the thread then exits.
    router.send_kill(&mut el, "kecho", 15).unwrap();
    echo_thread.join().unwrap();
}

#[test]
fn scriptable_finder_target() {
    let finder = Finder::new();
    let mut el = EventLoop::new();
    let router = XrlRouter::new(&mut el, finder.clone());
    serve_finder(&router).unwrap();
    router.register_target("demo", "demo-0", true).unwrap();

    let result = call_xrl_sync(
        &mut el,
        &router,
        "finder://finder/finder/1.0/resolve?target:txt=demo",
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(result.get_text("instance").unwrap(), "demo-0");
    assert_eq!(result.get_text("class").unwrap(), "demo");

    let result = call_xrl_sync(
        &mut el,
        &router,
        "finder://finder/finder/1.0/instances?class:txt=demo",
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(result.get_list("instances").unwrap().len(), 1);
}

#[test]
fn pipelined_tcp_many_in_flight() {
    // The Figure 9 shape: many requests written before any response is
    // consumed; all complete.
    let finder = Finder::new();
    let (echo_sender, echo_thread) = spawn_echo(finder.clone(), "flood", "flood-0");
    let (mut el, router) = sender_process(finder);

    let n = 500u32;
    let (tx, rx) = mpsc::channel();
    for i in 0..n {
        let xrl: Xrl = format!("finder://flood/flood/1.0/echo?i:u32={i}")
            .parse()
            .unwrap();
        let tx = tx.clone();
        router.send_pref(
            &mut el,
            xrl,
            TransportPref::Tcp,
            Box::new(move |_el, result| {
                tx.send(result.unwrap().get_u32("i").unwrap()).unwrap();
            }),
        );
    }
    let mut got = Vec::new();
    let deadline = std::time::Instant::now() + TIMEOUT;
    while got.len() < n as usize {
        if let Ok(i) = rx.try_recv() {
            got.push(i);
            continue;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "stalled at {}",
            got.len()
        );
        el.run_for(Duration::from_millis(1));
    }
    // Pipelined responses arrive in request order on one connection.
    assert_eq!(got, (0..n).collect::<Vec<_>>());

    echo_sender.stop();
    echo_thread.join().unwrap();
}

#[test]
fn deferred_reply_from_handler() {
    // A handler that parks the responder and replies from a timer — the
    // asynchronous-messaging requirement of §6.
    let finder = Finder::new();
    let (tx, rx) = mpsc::channel();
    let t = std::thread::spawn({
        let finder = finder.clone();
        move || {
            let mut el = EventLoop::new();
            let router = XrlRouter::new(&mut el, finder);
            router.enable_tcp().unwrap();
            router.register_target("slow", "slow-0", true).unwrap();
            router.add_handler("slow-0", "slow/1.0/later", |el, _args, responder| {
                el.after(Duration::from_millis(20), move |el| {
                    responder.reply(el, Ok(XrlArgs::new().add_u32("late", 1)));
                });
            });
            tx.send(el.sender()).unwrap();
            el.run();
        }
    });
    let slow_sender = rx.recv().unwrap();
    let (mut el, router) = sender_process(finder);
    let result = call_xrl_sync(&mut el, &router, "finder://slow/slow/1.0/later", TIMEOUT).unwrap();
    assert_eq!(result.get_u32("late").unwrap(), 1);
    slow_sender.stop();
    t.join().unwrap();
}

/// `send_pref` across every preference and target shape: a co-located
/// target (intra, TCP and UDP endpoints all this router's own), a
/// TCP-only and a UDP-only raw peer.  A forced family is used exactly or
/// the send fails naming the preference; `Auto` takes intra, else TCP,
/// else UDP.  The family shows in the lane the request is charged to and
/// in who reads it.  (Co-located × `Auto` is `intra_process_dispatch`.)
#[test]
fn send_pref_matrix() {
    use std::cell::Cell;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream, UdpSocket};
    use std::rc::Rc;
    use xorp_xrl::finder::Endpoint;
    use xorp_xrl::marshal::{read_frame, Frame};
    use TransportPref::{Auto, Intra, Tcp, Udp};

    let finder = Finder::new();
    let tcp_peer = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let udp_peer = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
    udp_peer.set_read_timeout(Some(TIMEOUT)).unwrap();
    let (tcp_addr, udp_addr) = (
        tcp_peer.local_addr().unwrap(),
        udp_peer.local_addr().unwrap(),
    );
    finder
        .register("tonly", "tonly-0", vec![Endpoint::Tcp(tcp_addr)], true)
        .unwrap();
    finder
        .register("uonly", "uonly-0", vec![Endpoint::Udp(udp_addr)], true)
        .unwrap();
    let (mut el, router) = sender_process(finder);
    let (own_tcp, own_udp) = (router.enable_tcp().unwrap(), router.enable_udp().unwrap());
    router.register_target("local", "local-0", true).unwrap();
    let hits = Rc::new(Cell::new(0));
    let h = hits.clone();
    router.add_fn("local-0", "local/1.0/hit", move |_el, _args| {
        h.set(h.get() + 1);
        Ok(XrlArgs::new())
    });
    let mut tcp_wire: Option<TcpStream> = None;
    let reply = |seq| {
        Frame::Response {
            seq,
            result: Ok(XrlArgs::new()),
            priority: false,
        }
        .encode()
    };

    for (target, pref, family) in [
        ("local", Intra, Some(Intra)),
        ("local", Tcp, Some(Tcp)),
        ("local", Udp, Some(Udp)),
        ("tonly", Auto, Some(Tcp)),
        ("tonly", Intra, None),
        ("tonly", Tcp, Some(Tcp)),
        ("tonly", Udp, None),
        ("uonly", Auto, Some(Udp)),
        ("uonly", Intra, None),
        ("uonly", Tcp, None),
        ("uonly", Udp, Some(Udp)),
    ] {
        let cell = format!("{target} × {pref:?}");
        let (tx, rx) = mpsc::channel();
        let xrl = Xrl::generic(target, target, "1.0", "hit", XrlArgs::new());
        router.send_pref(
            &mut el,
            xrl,
            pref,
            Box::new(move |_el, r| tx.send(r).unwrap()),
        );
        let Some(family) = family else {
            match rx.try_recv() {
                Ok(Err(XrlError::Transport(m))) => {
                    assert!(m.contains(&format!("via {pref:?}")), "{cell}: {m}")
                }
                other => panic!("{cell}: expected no usable endpoint, got {other:?}"),
            }
            continue;
        };
        let lane = match (target, family) {
            ("local", Tcp) => Some(format!("tcp:{own_tcp}")),
            ("local", Udp) => Some(format!("udp:{own_udp}")),
            ("tonly", _) => Some(format!("tcp:{tcp_addr}")),
            ("uonly", _) => Some(format!("udp:{udp_addr}")),
            _ => None,
        };
        for other in [format!("tcp:{own_tcp}"), format!("udp:{own_udp}")] {
            let want = usize::from(lane.as_ref() == Some(&other));
            assert_eq!(router.lane_depth(&other), want, "{cell}: lane {other}");
        }
        if let Some(lane) = &lane {
            assert_eq!(router.lane_depth(lane), 1, "{cell}: lane {lane}");
        }
        let before = hits.get();
        el.run_until_idle();
        match target {
            "tonly" => {
                let wire = tcp_wire.get_or_insert_with(|| {
                    let (s, _) = tcp_peer.accept().unwrap();
                    s.set_read_timeout(Some(TIMEOUT)).unwrap();
                    s
                });
                let Frame::Request { seq, .. } = Frame::decode(read_frame(wire).unwrap()).unwrap()
                else {
                    panic!("{cell}: expected a request");
                };
                wire.write_all(&reply(seq)).unwrap();
            }
            "uonly" => {
                let mut buf = [0u8; 512];
                let (n, from) = udp_peer.recv_from(&mut buf).unwrap();
                let body = bytes::Bytes::copy_from_slice(&buf[4..n]);
                let Frame::Request { seq, .. } = Frame::decode(body).unwrap() else {
                    panic!("{cell}: expected a request");
                };
                udp_peer.send_to(&reply(seq), from).unwrap();
            }
            _ => {}
        }
        let deadline = std::time::Instant::now() + TIMEOUT;
        let result = loop {
            if let Ok(r) = rx.try_recv() {
                break r;
            }
            assert!(std::time::Instant::now() < deadline, "{cell}: no reply");
            el.run_for(Duration::from_millis(1));
        };
        assert!(result.is_ok(), "{cell}: {result:?}");
        let ran_here = usize::from(target == "local");
        assert_eq!(hits.get() - before, ran_here, "{cell}: handler runs");
    }
}
