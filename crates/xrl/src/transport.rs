//! Protocol-family plumbing: the threads and buffers that move XRL frames.
//!
//! "Protocol families are the mechanisms by which XRLs are transported from
//! one component to another." (§6.3)  Each family here provides framing and
//! the IPC mechanism itself; dispatch and correlation live in
//! [`crate::router`].
//!
//! # What the router may ask
//!
//! Every piece of per-family state a router keeps lives in one
//! [`Families`] value: the TCP listener and connection cache, the UDP
//! socket, and the per-peer queues that keep UDP unpipelined (§8.1).  The
//! router names endpoints by [`Via`] and writes to one [`Remote`] value — a
//! connection or a datagram peer, matched per frame with no dynamic
//! dispatch — and asks its `Families` for nothing else than to enable a
//! family, advertise its endpoints, connect a `Via`, park a UDP request
//! behind its peer's request in flight, release that slot, evict a failed
//! connection or dead peer, and tear everything down.
//!
//! The paper's loop multiplexes sockets with `select(2)`.  We keep the
//! router loop single-threaded and give each socket a dedicated reader
//! thread that posts decoded frames into the loop — same run-to-completion
//! semantics, no poll dependency.
//!
//! # TCP: syscalls per turn, not per frame
//!
//! The TCP family earns its throughput by pipelining (§8.1), and a
//! pipelined connection carries many frames per event-loop turn.  Both
//! directions are amortised over that natural batch:
//!
//! * **Reads.**  Each `xrl-tcp-read` thread issues one `read` into a
//!   reusable [`FrameDecoder`] buffer, decodes every complete frame it
//!   now holds, and posts them to the loop in events of at most
//!   `MAX_FRAME_BATCH` (64) frames: the responses as one batch on the
//!   loop's *completion* lane, the requests as another on the bulk lane.
//!   A batch runs to completion through the same per-frame logic a lone
//!   frame gets, each request under its own trace context.  The loop
//!   alternates completion and bulk events while both hold work, so a
//!   response — the thing that reopens a bounded sender's window — waits
//!   behind at most one bulk batch, not behind every request queued
//!   ahead of it.  The price is that a connection's responses and
//!   requests no longer run in their joint arrival order, in either
//!   direction: a response may run before a request that arrived earlier,
//!   and a request before a response that arrived earlier (when older
//!   responses outnumber the bulk events ahead of the request).  Order
//!   within the responses and within the requests holds.  A handler that
//!   cares must not rely on it — the nexthop resolver re-asks any answer
//!   an invalidation of its range overtook.  The
//!   reader's final `connection_closed` rides the completion lane too, so
//!   it runs after every response the reader posted.  UDP responses take
//!   the completion lane as well.  Priority frames are posted singly on
//!   the loop's priority lane, so a keepalive waits behind at most the one
//!   batch the loop is already running.
//! * **Writes.**  The loop thread appends encoded frames to the
//!   connection's out-buffer (`TcpConn`); the first frame of a turn
//!   schedules one deferred flush (`flush_dirty`) that drains every
//!   connection written to during the turn with one `write` each.  The
//!   buffer drains early at `FLUSH_BYTES` (64 KiB), and immediately for a
//!   priority frame.  A lone frame on an idle connection therefore still
//!   leaves in the turn that produced it — deferred events run before the
//!   loop accepts anything else — with no timer involved.
//!
//! Wire bytes and per-connection FIFO order are exactly those of a
//! frame-at-a-time writer: the out-buffer is the byte stream, flushed in
//! order.
//!
//! **Ordering note for deferred work.**  A frame batch is one loop event,
//! so a handler's `el.defer` (the local lane) runs after the whole batch
//! it arrived in, not between two frames of it — but before any event
//! still queued behind the batch.  The write flush above is such local
//! work, so replies leave per turn.  Work queued with `el.defer_idle`
//! waits longer: it runs once the loop has drained every queued event.
//! The harness `RouteOutput` arms its flush there, so its runs gather
//! the rows of every batch that queued up while the loop was busy.
//!
//! A failed flush marks the connection dead and hands it to
//! `XrlRouter::connection_closed`, the same path a reader thread's EOF
//! takes: the connection is evicted, and requests outstanding on it fail
//! with `TargetDied` or are left to their armed retry timers.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use bytes::Bytes;
use parking_lot::Mutex;
use xorp_event::{EventLoop, EventSender};
use xorp_profiler::{Histogram, Metrics};

use crate::error::XrlError;
use crate::finder::Endpoint;
use crate::marshal::{Frame, FrameDecoder};
use crate::router::XrlRouter;

/// Largest UDP frame we will send; keeps datagrams under the loopback MTU.
const MAX_UDP_FRAME: usize = 60_000;

/// Bytes a TCP reader asks the kernel for per `read`.
const READ_BUF_BYTES: usize = 64 * 1024;

/// Most bulk frames posted to the loop as one event: the grain of one
/// 64-route UPDATE, and the longest a priority frame can wait behind bulk
/// work already running.
const MAX_FRAME_BATCH: usize = 64;

/// Out-buffer size at which a connection is written without waiting for
/// the end of the turn.
const FLUSH_BYTES: usize = 64 * 1024;

/// How often a listener checks its stop flag while no connection is
/// pending.
const ACCEPT_POLL: std::time::Duration = std::time::Duration::from_millis(2);

/// `xrl.frames_per_read` / `xrl.frames_per_write`: one observation per
/// syscall, so the histograms show the batch an operator is actually
/// getting.  Late-bound because listeners (and their readers) start before
/// [`XrlRouter::set_metrics`] hands the router a registry.
struct TcpMetrics {
    frames_per_read: Histogram,
    frames_per_write: Histogram,
}

type SharedTcpMetrics = Arc<OnceLock<TcpMetrics>>;

/// Connections a listener accepted, for shutdown to close: a reader
/// blocked on a peer that sends nothing more would otherwise keep the
/// socket open, and the peer would wait on its requests forever.
type Accepted = Arc<Mutex<Vec<Weak<TcpConn>>>>;

/// Start a TCP listener on an ephemeral localhost port.  Each accepted
/// connection gets a reader thread that posts its frames to `sender`'s
/// loop, and is kept in `accepted`.  Returns the bound address.
///
/// The listener runs nonblocking and polls `stop` between accepts, so
/// shutdown never depends on one more connection arriving to unblock the
/// thread (the old blocking accept only observed `stop` *after*
/// `incoming()` yielded).  Transient accept errors — e.g. `ECONNABORTED`
/// when a peer resets between arrival and accept — no longer kill the
/// accept loop.
fn spawn_tcp_listener(
    sender: EventSender,
    stop: Arc<AtomicBool>,
    accepted: Accepted,
    metrics: SharedTcpMetrics,
) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    std::thread::Builder::new()
        .name(format!("xrl-tcp-accept-{}", addr.port()))
        .spawn(move || loop {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_nodelay(true);
                    let conn = spawn_tcp_reader(stream, sender.clone(), metrics.clone());
                    let mut accepted = accepted.lock();
                    accepted.retain(|c| c.strong_count() > 0);
                    accepted.push(Arc::downgrade(&conn));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(_) => {
                    // Transient (aborted handshake) or fatal; either way
                    // check the flag and keep serving.
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        })
        .expect("spawn accept thread");
    Ok(addr)
}

/// Spawn the per-connection reader.  The connection is read by this thread
/// and written (through the returned [`TcpConn`]) by the loop thread.
fn spawn_tcp_reader(
    stream: TcpStream,
    sender: EventSender,
    metrics: SharedTcpMetrics,
) -> Arc<TcpConn> {
    let mut read_half = stream.try_clone().expect("clone tcp stream");
    let conn = Arc::new(TcpConn::new(stream, metrics));
    let reader_conn = conn.clone();
    std::thread::Builder::new()
        .name("xrl-tcp-read".into())
        .spawn(move || {
            let conn = reader_conn;
            let mut decoder = FrameDecoder::with_capacity(READ_BUF_BYTES);
            // A read error, end of stream or an oversized length header
            // all end the connection; so does the loop going away.
            while matches!(decoder.fill(&mut read_half), Ok(n) if n > 0)
                && post_decoded(&mut decoder, &conn, &sender)
            {}
            // Tell the loop so pending callbacks can fail over.  On the
            // completion lane, behind every response this reader posted:
            // a request that was answered never fails `TargetDied`.
            sender.post_completion(move |el| XrlRouter::connection_closed(el, &Remote::Tcp(conn)));
        })
        .expect("spawn tcp reader");
    conn
}

/// Decode every complete frame `decoder` holds and post them to the loop
/// in events of at most `MAX_FRAME_BATCH` frames: responses on the
/// completion lane, requests on the bulk lane, each in arrival order, and
/// priority frames singly on the priority lane (this is where a keepalive
/// passes a route-storm backlog).  Returns `false` when the stream is
/// corrupt or the loop is gone.
fn post_decoded(decoder: &mut FrameDecoder, conn: &Arc<TcpConn>, sender: &EventSender) -> bool {
    let mut decoded = 0u64;
    let mut responses = Vec::new();
    let mut requests = Vec::new();
    let post_batch = |batch: &mut Vec<Frame>, completion: bool| {
        let frames = std::mem::take(batch);
        let conn = Remote::Tcp(conn.clone());
        let run = move |el: &mut EventLoop| XrlRouter::incoming(el, frames, conn);
        if completion {
            sender.post_completion(run)
        } else {
            sender.post(run)
        }
    };
    let alive = loop {
        let frame = match decoder.next_frame() {
            Ok(Some(body)) => Frame::decode_slice(body),
            // Responses first: the wakeup marker their post may add then
            // sits ahead of the requests, so on a loop with nothing else
            // queued this read's responses run first, whichever lane ran
            // last.
            Ok(None) => {
                break (responses.is_empty() || post_batch(&mut responses, true))
                    && (requests.is_empty() || post_batch(&mut requests, false))
            }
            Err(_) => break false,
        };
        decoded += 1;
        let posted = match frame {
            Ok(frame) if frame.is_priority() => {
                let conn = Remote::Tcp(conn.clone());
                sender.post_priority(move |el| XrlRouter::incoming(el, [frame], conn))
            }
            Ok(frame) => {
                let completion = matches!(frame, Frame::Response { .. });
                let batch = if completion {
                    &mut responses
                } else {
                    &mut requests
                };
                batch.push(frame);
                batch.len() < MAX_FRAME_BATCH || post_batch(batch, completion)
            }
            Err(_) => true, // skip malformed frame, keep the connection
        };
        if !posted {
            break false;
        }
    };
    if let Some(m) = conn.metrics.get() {
        m.frames_per_read.observe(decoded);
    }
    alive
}

/// Connections written to during the current loop turn, awaiting the
/// turn's one deferred [`flush_dirty`].  Lives in the loop's type slot.
struct DirtyConns(Vec<Arc<TcpConn>>);

/// Write out every connection buffered during this turn.  Runs as the
/// turn's deferred flush, and from [`Families::shutdown`] so frames
/// buffered by the final turn leave before the sockets close.
fn flush_dirty(el: &mut EventLoop) {
    let dirty = match el.slot_mut::<DirtyConns>() {
        Some(d) => std::mem::take(&mut d.0),
        None => return,
    };
    for conn in dirty {
        conn.out.lock().dirty = false;
        conn.flush(el);
    }
}

/// Frames encoded but not yet written.
#[derive(Default)]
struct OutBuf {
    bytes: Vec<u8>,
    /// Frames in `bytes`, for `xrl.frames_per_write`.
    frames: u64,
    /// Listed in the loop's [`DirtyConns`] for this turn's flush.
    dirty: bool,
    /// A write failed or the connection was severed: sends fail from here
    /// on, and `connection_closed` has been scheduled.
    dead: bool,
}

/// One established TCP connection: the socket, its fault-lane label, and
/// the out-buffer the loop thread fills between flushes.  Shared with the
/// connection's reader thread (which only reads the socket and hands the
/// `Arc` back to the loop with every batch); the out-buffer's mutex is
/// never contended.
pub(crate) struct TcpConn {
    stream: TcpStream,
    /// `tcp:<peer address>`, computed once at connect/accept.
    lane: String,
    out: Mutex<OutBuf>,
    metrics: SharedTcpMetrics,
}

impl TcpConn {
    fn new(stream: TcpStream, metrics: SharedTcpMetrics) -> TcpConn {
        let lane = match stream.peer_addr() {
            Ok(peer) => format!("tcp:{peer}"),
            Err(_) => "tcp:?".into(),
        };
        TcpConn {
            stream,
            lane,
            out: Mutex::new(OutBuf::default()),
            metrics,
        }
    }

    /// Write the out-buffer with one `write_all`.  On failure the
    /// connection is marked dead and handed to `connection_closed` —
    /// deferred, because this may run inside a send whose request is not
    /// yet armed for retry.
    fn flush(self: &Arc<Self>, el: &mut EventLoop) {
        let failed = {
            let mut out = self.out.lock();
            if out.bytes.is_empty() {
                return;
            }
            if let Some(m) = self.metrics.get() {
                m.frames_per_write.observe(out.frames);
            }
            let failed = (&self.stream).write_all(&out.bytes).is_err();
            out.bytes.clear();
            // One huge frame must not pin its buffer for the connection's life.
            out.bytes.shrink_to(FLUSH_BYTES);
            out.frames = 0;
            out.dead |= failed;
            failed
        };
        if failed {
            let conn = Remote::Tcp(self.clone());
            el.defer(move |el| XrlRouter::connection_closed(el, &conn));
        }
    }
}

/// Bind a UDP socket on an ephemeral localhost port and spawn its reader
/// thread.  Returns (socket, bound address).
fn spawn_udp(
    sender: EventSender,
    stop: Arc<AtomicBool>,
) -> std::io::Result<(Arc<UdpSocket>, SocketAddr)> {
    let socket = Arc::new(UdpSocket::bind(("127.0.0.1", 0))?);
    let addr = socket.local_addr()?;
    let reader = socket.clone();
    std::thread::Builder::new()
        .name(format!("xrl-udp-read-{}", addr.port()))
        .spawn(move || {
            let mut buf = vec![0u8; MAX_UDP_FRAME + 4];
            loop {
                let (n, peer) = match reader.recv_from(&mut buf) {
                    Ok(x) => x,
                    Err(_) => return,
                };
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                // Datagram = length header + body, same as the stream form.
                if n < 4 {
                    continue;
                }
                let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
                if len + 4 != n {
                    continue;
                }
                let body = Bytes::from(buf[4..n].to_vec());
                match Frame::decode(body) {
                    Ok(frame) => {
                        let reply = Remote::Udp(UdpTransport {
                            socket: reader.clone(),
                            peer,
                        });
                        let priority = frame.is_priority();
                        let completion = matches!(frame, Frame::Response { .. });
                        let run = move |el: &mut EventLoop| XrlRouter::incoming(el, [frame], reply);
                        let posted = if priority {
                            sender.post_priority(run)
                        } else if completion {
                            sender.post_completion(run)
                        } else {
                            sender.post(run)
                        };
                        if !posted {
                            return;
                        }
                    }
                    Err(_) => continue,
                }
            }
        })
        .expect("spawn udp reader");
    Ok((socket, addr))
}

// ----- the common transport abstraction ------------------------------------

/// A frame-writing endpoint: one TCP connection or one UDP peer.  The
/// router writes every outgoing frame through this trait (as a
/// [`Remote`], which picks the family by `match`), which is where
/// the fault-injection layer (see [`crate::fault`]) taps the stream —
/// faults apply uniformly to every protocol family, per frame, before any
/// buffering.  Handles are cheap clones of shared state; nothing is built
/// per frame.
pub(crate) trait Transport: Clone + 'static {
    /// Send one frame toward the peer: written now (UDP) or appended to
    /// the connection's out-buffer for this turn's flush (TCP).
    fn send_frame(&self, el: &mut EventLoop, frame: &Frame) -> Result<(), XrlError>;

    /// Label for fault-lane selection and tracing (`tcp:127.0.0.1:5000`).
    fn lane(&self) -> Cow<'_, str>;

    /// Forcibly sever the underlying connection, if the family has one.
    /// Used by the `Disconnect` fault action; UDP has no connection state,
    /// so it is a no-op there.
    fn sever(&self, _el: &mut EventLoop) {}
}

impl Transport for Arc<TcpConn> {
    fn send_frame(&self, el: &mut EventLoop, frame: &Frame) -> Result<(), XrlError> {
        let (flush_now, newly_dirty) = {
            let mut out = self.out.lock();
            if out.dead {
                // As a write to the closed socket would: the caller evicts
                // the connection, and its next send reconnects.
                return Err(XrlError::Transport("tcp write: connection closed".into()));
            }
            frame.encode_into(&mut out.bytes);
            out.frames += 1;
            let flush_now = frame.is_priority() || out.bytes.len() >= FLUSH_BYTES;
            let newly_dirty = !flush_now && !std::mem::replace(&mut out.dirty, true);
            (flush_now, newly_dirty)
        };
        if flush_now {
            self.flush(el);
        } else if newly_dirty {
            let first = match el.slot_mut::<DirtyConns>() {
                Some(dirty) => {
                    dirty.0.push(self.clone());
                    dirty.0.len() == 1
                }
                None => {
                    el.set_slot(DirtyConns(vec![self.clone()]));
                    true
                }
            };
            if first {
                // First buffered connection of the turn: schedule its flush.
                el.defer(flush_dirty);
            }
        }
        Ok(())
    }

    fn lane(&self) -> Cow<'_, str> {
        Cow::Borrowed(&self.lane)
    }

    /// What was sent before the fault still reaches the wire, as it did
    /// when every frame was written on the spot.  Then this side stops
    /// sending: the write half closes (the peer sees the connection end),
    /// later sends fail, and the connection goes through
    /// `connection_closed`.  The read half stays open until the peer
    /// closes in turn, so responses already on their way back are not
    /// thrown away — a full shutdown here makes the loss per fault grow
    /// with the in-flight window (send rate × round-trip time), and the
    /// retry timers of everything lost together then fire together, into
    /// the next fault.
    fn sever(&self, el: &mut EventLoop) {
        self.flush(el);
        let _ = self.stream.shutdown(Shutdown::Write);
        if !std::mem::replace(&mut self.out.lock().dead, true) {
            let conn = Remote::Tcp(self.clone());
            el.defer(move |el| XrlRouter::connection_closed(el, &conn));
        }
    }
}

/// One UDP peer reached through a shared socket.
#[derive(Clone)]
pub(crate) struct UdpTransport {
    socket: Arc<UdpSocket>,
    peer: SocketAddr,
}

impl Transport for UdpTransport {
    /// One datagram: the length header and body, as on a stream.
    fn send_frame(&self, _el: &mut EventLoop, frame: &Frame) -> Result<(), XrlError> {
        let bytes = frame.encode();
        if bytes.len() > MAX_UDP_FRAME {
            return Err(XrlError::Transport(format!(
                "frame too large for UDP: {} bytes",
                bytes.len()
            )));
        }
        self.socket
            .send_to(&bytes, self.peer)
            .map_err(|e| XrlError::Transport(format!("udp send: {e}")))?;
        Ok(())
    }

    fn lane(&self) -> Cow<'_, str> {
        Cow::Owned(format!("udp:{}", self.peer))
    }
}

/// The one remote-transport value: what a request is written to and what a
/// reply travels back on.  A `match` per frame picks the family; nothing is
/// boxed.
#[derive(Clone)]
pub(crate) enum Remote {
    /// One established connection.
    Tcp(Arc<TcpConn>),
    /// A peer reached through this router's (or, for a reply, the
    /// receiving router's) bound socket.
    Udp(UdpTransport),
}

impl Remote {
    /// Whether frames from this peer are datagrams, which the network may
    /// deliver twice: every request that arrives this way takes a dedup
    /// identity.
    pub(crate) fn is_datagram(&self) -> bool {
        matches!(self, Remote::Udp(_))
    }
}

/// Identity, not contents: the same connection, or the same socket and
/// peer.  This is how a dead connection finds the requests written to it.
impl PartialEq for Remote {
    fn eq(&self, other: &Remote) -> bool {
        match (self, other) {
            (Remote::Tcp(a), Remote::Tcp(b)) => Arc::ptr_eq(a, b),
            (Remote::Udp(a), Remote::Udp(b)) => {
                Arc::ptr_eq(&a.socket, &b.socket) && a.peer == b.peer
            }
            _ => false,
        }
    }
}

impl Transport for Remote {
    fn send_frame(&self, el: &mut EventLoop, frame: &Frame) -> Result<(), XrlError> {
        match self {
            Remote::Tcp(conn) => conn.send_frame(el, frame),
            Remote::Udp(peer) => peer.send_frame(el, frame),
        }
    }

    fn lane(&self) -> Cow<'_, str> {
        match self {
            Remote::Tcp(conn) => conn.lane(),
            Remote::Udp(peer) => peer.lane(),
        }
    }

    fn sever(&self, el: &mut EventLoop) {
        match self {
            Remote::Tcp(conn) => conn.sever(el),
            Remote::Udp(peer) => peer.sever(el),
        }
    }
}

// ----- the families one router owns ----------------------------------------

/// Which endpoint an outgoing request was sent through: the router's
/// choice among the ones its target advertised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Via {
    /// Direct dispatch on the caller's own loop.
    Intra,
    Tcp(SocketAddr),
    Udp(SocketAddr),
}

impl Via {
    /// The overload lane a request on this endpoint is charged to
    /// (`tcp:127.0.0.1:5000`); `None` for intra dispatch, which has no
    /// queue.
    pub(crate) fn lane(self) -> Option<Rc<str>> {
        match self {
            Via::Intra => None,
            Via::Tcp(a) => Some(Rc::from(format!("tcp:{a}"))),
            Via::Udp(a) => Some(Rc::from(format!("udp:{a}"))),
        }
    }
}

/// Every protocol family one router has enabled, with all the state a
/// family keeps per peer.  The router reaches a peer only through it.
pub(crate) struct Families {
    sender: EventSender,
    tcp: Option<TcpFamily>,
    udp: Option<UdpFamily>,
    /// Shared with the TCP listener and reader threads.
    metrics: SharedTcpMetrics,
}

struct TcpFamily {
    listen_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Outgoing connections by peer, reused by every send toward it.
    conns: HashMap<SocketAddr, Arc<TcpConn>>,
    accepted: Accepted,
}

struct UdpFamily {
    socket: Arc<UdpSocket>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    peers: HashMap<SocketAddr, UdpSlot>,
}

/// UDP is deliberately unpipelined (§8.1): at most one data request in
/// flight per peer, the rest parked in order until its response arrives.
#[derive(Default)]
struct UdpSlot {
    /// The request that holds the slot.
    in_flight: Option<u64>,
    parked: VecDeque<(u64, Frame)>,
}

impl Families {
    pub(crate) fn new(sender: EventSender) -> Families {
        Families {
            sender,
            tcp: None,
            udp: None,
            metrics: SharedTcpMetrics::default(),
        }
    }

    /// Report the TCP family's frames per syscall (`xrl.frames_per_read`,
    /// `xrl.frames_per_write`) to `metrics`; the first registry keeps them.
    pub(crate) fn set_metrics(&self, metrics: &Metrics) {
        let _ = self.metrics.set(TcpMetrics {
            frames_per_read: metrics.histogram("xrl.frames_per_read"),
            frames_per_write: metrics.histogram("xrl.frames_per_write"),
        });
    }

    /// Start the TCP listener, once; returns its address.
    pub(crate) fn enable_tcp(&mut self) -> Result<SocketAddr, XrlError> {
        if let Some(t) = &self.tcp {
            return Ok(t.listen_addr);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let accepted = Accepted::default();
        let (sender, metrics) = (self.sender.clone(), self.metrics.clone());
        let listen_addr = spawn_tcp_listener(sender, stop.clone(), accepted.clone(), metrics)
            .map_err(|e| XrlError::Transport(format!("tcp listen: {e}")))?;
        self.tcp = Some(TcpFamily {
            listen_addr,
            stop,
            conns: HashMap::new(),
            accepted,
        });
        Ok(listen_addr)
    }

    /// Bind the UDP socket, once; returns its address.
    pub(crate) fn enable_udp(&mut self) -> Result<SocketAddr, XrlError> {
        if let Some(u) = &self.udp {
            return Ok(u.local_addr);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let (socket, local_addr) = spawn_udp(self.sender.clone(), stop.clone())
            .map_err(|e| XrlError::Transport(format!("udp bind: {e}")))?;
        self.udp = Some(UdpFamily {
            socket,
            local_addr,
            stop,
            peers: HashMap::new(),
        });
        Ok(local_addr)
    }

    /// The endpoints of the enabled families, for a registration to
    /// advertise.
    pub(crate) fn endpoints(&self) -> impl Iterator<Item = Endpoint> + '_ {
        let tcp = self.tcp.as_ref().map(|t| Endpoint::Tcp(t.listen_addr));
        tcp.into_iter()
            .chain(self.udp.as_ref().map(|u| Endpoint::Udp(u.local_addr)))
    }

    /// The transport toward `via`: the cached connection to a TCP peer (or
    /// a new one, which is then cached), or the UDP socket addressed to
    /// the peer.
    pub(crate) fn connect(&mut self, via: Via) -> Result<Remote, XrlError> {
        let disabled = |family| XrlError::Transport(format!("{family} family not enabled"));
        match via {
            Via::Intra => Err(XrlError::Transport(
                "intra dispatch has no transport".into(),
            )),
            Via::Tcp(addr) => {
                let tcp = self.tcp.as_mut().ok_or_else(|| disabled("tcp"))?;
                if let Some(conn) = tcp.conns.get(&addr) {
                    return Ok(Remote::Tcp(conn.clone()));
                }
                let raw = TcpStream::connect(addr)
                    .map_err(|e| XrlError::Transport(format!("connect {addr}: {e}")))?;
                let _ = raw.set_nodelay(true);
                let conn = spawn_tcp_reader(raw, self.sender.clone(), self.metrics.clone());
                tcp.conns.insert(addr, conn.clone());
                Ok(Remote::Tcp(conn))
            }
            Via::Udp(peer) => {
                let udp = self.udp.as_ref().ok_or_else(|| disabled("udp"))?;
                Ok(Remote::Udp(UdpTransport {
                    socket: udp.socket.clone(),
                    peer,
                }))
            }
        }
    }

    /// Park request `seq` if it must wait: a UDP data request finding its
    /// peer's slot taken is parked behind it, in order, and `None` comes
    /// back.  Otherwise the frame comes back to be written now, and a UDP
    /// data request holds the slot from here.  Priority requests never
    /// wait for the slot — a keepalive must not queue behind a saturated
    /// data queue — and never hold it.
    pub(crate) fn park(
        &mut self,
        via: Via,
        seq: u64,
        frame: Frame,
        priority: bool,
    ) -> Option<Frame> {
        let (Via::Udp(peer), false, Some(udp)) = (via, priority, self.udp.as_mut()) else {
            return Some(frame);
        };
        let slot = udp.peers.entry(peer).or_default();
        if slot.in_flight.is_some() {
            slot.parked.push_back((seq, frame));
            return None;
        }
        slot.in_flight = Some(seq);
        Some(frame)
    }

    /// Request `seq` toward `via` has finished.  If it held its UDP peer's
    /// slot, the slot passes to the next parked request, which comes back
    /// to be written now.
    pub(crate) fn release(&mut self, via: Via, seq: u64) -> Option<(u64, Frame)> {
        let Via::Udp(peer) = via else {
            return None;
        };
        let slot = self.udp.as_mut()?.peers.get_mut(&peer)?;
        if slot.in_flight != Some(seq) {
            return None;
        }
        let next = slot.parked.pop_front();
        slot.in_flight = next.as_ref().map(|(seq, _)| *seq);
        next
    }

    /// Forget a connection that failed, unless a send already replaced
    /// it: the next send toward its peer connects afresh.  A datagram peer
    /// keeps nothing to forget.
    pub(crate) fn evict(&mut self, remote: &Remote) {
        if let (Remote::Tcp(conn), Some(tcp)) = (remote, self.tcp.as_mut()) {
            tcp.conns.retain(|_, c| !Arc::ptr_eq(c, conn));
        }
    }

    /// A request toward `via` spent its whole retry budget.  A UDP peer is
    /// then dead: its parked frames are dropped (they would otherwise wait
    /// until process exit), and `true` says every request outstanding
    /// toward it should fail now instead of serially burning its own
    /// budget.  A TCP peer's other requests keep their budgets.
    pub(crate) fn peer_dead(&mut self, via: Via) -> bool {
        let Via::Udp(peer) = via else {
            return false;
        };
        if let Some(udp) = self.udp.as_mut() {
            udp.peers.remove(&peer);
        }
        true
    }

    /// Forget every UDP peer's slot and the frames parked behind it: the
    /// router is shutting down, and none of them may reach the wire.
    pub(crate) fn drop_parked(&mut self) {
        self.udp.iter_mut().for_each(|udp| udp.peers.clear());
    }

    /// Frames parked behind a UDP peer's request in flight.
    pub(crate) fn parked(&self) -> impl Iterator<Item = &Frame> + '_ {
        let peers = self.udp.iter().flat_map(|u| u.peers.values());
        peers.flat_map(|p| p.parked.iter().map(|(_, frame)| frame))
    }

    /// Write out what the final turn buffered (a reply sent just before
    /// the loop stopped), then stop every family.  The accept thread polls
    /// its stop flag, so no wake-up connection is needed; the UDP reader
    /// is woken by a runt datagram to itself.
    pub(crate) fn shutdown(&mut self, el: &mut EventLoop) {
        flush_dirty(el);
        if let Some(tcp) = self.tcp.take() {
            tcp.stop.store(true, Ordering::SeqCst);
            let accepted = tcp
                .accepted
                .lock()
                .iter()
                .filter_map(Weak::upgrade)
                .collect();
            for conn in tcp.conns.into_values().chain::<Vec<_>>(accepted) {
                // Both directions, without flushing: that was done above.
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
        }
        if let Some(udp) = self.udp.take() {
            udp.stop.store(true, Ordering::SeqCst);
            let _ = udp.socket.send_to(&[0u8; 1], udp.local_addr);
        }
    }
}
