//! Real-TCP BGP sessions: a [`SessionTransport`] over genuine sockets, so
//! two routers in different "processes" (threads, or actual processes)
//! speak RFC-format BGP to each other — OPEN/KEEPALIVE establishment,
//! UPDATE exchange, hold-timer death — through the same session driver the
//! tests run over in-memory pipes.
//!
//! Reader threads post decoded-byte events into the owning loop; sessions
//! are found through the loop's [`WireSessions`] slot by id (the same
//! pattern the XRL transports use for the router).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use xorp_bgp::session::{Session, SessionTransport};
use xorp_event::{EventLoop, EventSender};

/// Loop slot: the BGP sessions living on this loop, by wire id.
#[derive(Default)]
pub struct WireSessions {
    sessions: HashMap<u32, Rc<std::cell::RefCell<Session>>>,
}

impl WireSessions {
    /// Register a session under `id` on this loop.
    pub fn register(el: &mut EventLoop, id: u32, session: Rc<std::cell::RefCell<Session>>) {
        if el.slot::<WireSessions>().is_none() {
            el.set_slot(WireSessions::default());
        }
        el.slot_mut::<WireSessions>()
            .unwrap()
            .sessions
            .insert(id, session);
    }

    fn get(el: &EventLoop, id: u32) -> Option<Rc<std::cell::RefCell<Session>>> {
        el.slot::<WireSessions>()
            .and_then(|w| w.sessions.get(&id).cloned())
    }
}

/// A TCP transport for one session.
///
/// Active mode (`connect_to` set) dials out on `connect`; passive mode
/// waits for [`accept_one`] to hand it a connection.
pub struct TcpTransport {
    id: u32,
    sender: EventSender,
    write: Arc<Mutex<Option<TcpStream>>>,
    connect_to: Option<SocketAddr>,
}

impl TcpTransport {
    /// An actively connecting transport for session `id` on the loop
    /// behind `sender`.
    pub fn active(id: u32, sender: EventSender, connect_to: SocketAddr) -> Rc<TcpTransport> {
        Rc::new(TcpTransport {
            id,
            sender,
            write: Arc::new(Mutex::new(None)),
            connect_to: Some(connect_to),
        })
    }

    /// A passive transport; pair with [`accept_one`].
    pub fn passive(id: u32, sender: EventSender) -> Rc<TcpTransport> {
        Rc::new(TcpTransport {
            id,
            sender,
            write: Arc::new(Mutex::new(None)),
            connect_to: None,
        })
    }
}

/// Make `stream` session `id`'s connection: it becomes the write half,
/// and a reader thread feeds the session.  `on_connected` is posted
/// BEFORE the reader spawns: posted events are FIFO, so no received byte
/// can overtake the connection event (an OPEN arriving before
/// TcpConnected would be dropped by the FSM).
fn adopt(stream: TcpStream, write: &Mutex<Option<TcpStream>>, sender: &EventSender, id: u32) {
    let _ = stream.set_nodelay(true);
    let read = stream.try_clone().expect("clone stream");
    *write.lock().unwrap() = Some(stream);
    sender.post(move |el| {
        if let Some(s) = WireSessions::get(el, id) {
            Session::on_connected(el, &s);
        }
    });
    spawn_reader(id, read, sender.clone());
}

fn spawn_reader(id: u32, mut stream: TcpStream, sender: EventSender) {
    std::thread::Builder::new()
        .name(format!("bgp-wire-read-{id}"))
        .spawn(move || {
            let mut buf = [0u8; 16 * 1024];
            loop {
                match stream.read(&mut buf) {
                    Ok(0) | Err(_) => {
                        sender.post(move |el| {
                            if let Some(s) = WireSessions::get(el, id) {
                                Session::on_closed(el, &s);
                            }
                        });
                        return;
                    }
                    Ok(n) => {
                        let bytes = buf[..n].to_vec();
                        if !sender.post(move |el| {
                            if let Some(s) = WireSessions::get(el, id) {
                                Session::on_bytes(el, &s, &bytes);
                            }
                        }) {
                            return;
                        }
                    }
                }
            }
        })
        .expect("spawn bgp wire reader");
}

impl SessionTransport for TcpTransport {
    fn connect(&self, _el: &mut EventLoop) {
        let Some(addr) = self.connect_to else {
            return; // passive: accept_one will adopt
        };
        // Guard against a stale connect-retry pop racing an established
        // connection: one live connection per transport.
        if self.write.lock().unwrap().is_some() {
            return;
        }
        let write = self.write.clone();
        let sender = self.sender.clone();
        let id = self.id;
        std::thread::Builder::new()
            .name(format!("bgp-wire-connect-{id}"))
            .spawn(move || match TcpStream::connect(addr) {
                Ok(stream) => adopt(stream, &write, &sender, id),
                Err(_) => {
                    sender.post(move |el| {
                        if let Some(s) = WireSessions::get(el, id) {
                            Session::on_closed(el, &s);
                        }
                    });
                }
            })
            .expect("spawn connect thread");
    }

    fn send(&self, _el: &mut EventLoop, bytes: &[u8]) {
        if let Some(stream) = self.write.lock().unwrap().as_mut() {
            let _ = stream.write_all(bytes);
        }
    }

    fn close(&self, _el: &mut EventLoop) {
        if let Some(stream) = self.write.lock().unwrap().take() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Accept one inbound connection on `listener` and hand it to `transport`
/// (spawns the accept thread; non-blocking for the caller).
pub fn accept_one(listener: TcpListener, transport: &Rc<TcpTransport>) {
    let write = transport.write.clone();
    let sender = transport.sender.clone();
    let id = transport.id;
    std::thread::Builder::new()
        .name(format!("bgp-wire-accept-{id}"))
        .spawn(move || {
            if let Ok((stream, _peer)) = listener.accept() {
                adopt(stream, &write, &sender, id);
            }
        })
        .expect("spawn accept thread");
}
