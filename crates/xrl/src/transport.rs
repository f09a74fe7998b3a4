//! Protocol-family plumbing: the threads and buffers that move XRL frames.
//!
//! "Protocol families are the mechanisms by which XRLs are transported from
//! one component to another." (§6.3)  Each family here provides framing and
//! the IPC mechanism itself; dispatch and correlation live in
//! [`crate::router`].
//!
//! # What the router may ask
//!
//! Every socket and connection a router keeps lives in one [`Families`]
//! value: the TCP listener and connection cache, the UDP socket, and the
//! in-memory family's links.  The router names endpoints by [`Via`] and
//! writes to one [`Remote`] value — a connection, a datagram peer or an
//! in-memory link, matched per frame with no dynamic dispatch — and asks
//! its `Families` for nothing else than to enable a family, advertise its
//! endpoints, connect a `Via`, evict a failed connection, and tear
//! everything down.  What a request is waiting for (UDP's one request in
//! flight per peer, §8.1, included) is the exchange core's
//! ([`crate::exchange`]), not a family's.
//!
//! The in-memory family ([`MemPipe`]) moves the bytes a stream would carry
//! to another loop of the same process, cut at seeded boundaries and
//! reassembled by a [`FrameDecoder`].  With virtual-clock loops that a test
//! steps, an exchange over it replays from its seeds.
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
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;
use xorp_event::{EventLoop, EventSender};
use xorp_profiler::{Histogram, Metrics};

use crate::error::XrlError;
use crate::fault::Lane;
use crate::finder::{Endpoint, Finder};
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
                // Nothing pending, an aborted handshake, or fatal: either
                // way check the flag and keep serving.
                Err(_) => std::thread::sleep(ACCEPT_POLL),
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
            let (remote, metrics) = (Remote::Tcp(conn.clone()), conn.metrics.clone());
            let mut decoder = FrameDecoder::with_capacity(READ_BUF_BYTES);
            // A read error, end of stream or an oversized length header
            // all end the connection; so does the loop going away.
            while matches!(decoder.fill(&mut read_half), Ok(n) if n > 0) {
                let per_read = metrics.get().map(|m| &m.frames_per_read);
                if !post_decoded(&mut decoder, &remote, &sender, per_read) {
                    break;
                }
            }
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
/// passes a route-storm backlog).  Requests are answered on `remote`.
/// Returns `false` when the stream is corrupt or the loop is gone.
fn post_decoded(
    decoder: &mut FrameDecoder,
    remote: &Remote,
    sender: &EventSender,
    frames_per_read: Option<&Histogram>,
) -> bool {
    let mut decoded = 0u64;
    let mut responses = Vec::new();
    let mut requests = Vec::new();
    let post_batch = |batch: &mut Vec<Frame>, completion: bool| {
        let (frames, remote) = (std::mem::take(batch), remote.clone());
        let run = move |el: &mut EventLoop| XrlRouter::incoming(el, frames, remote);
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
                let remote = remote.clone();
                sender.post_priority(move |el| XrlRouter::incoming(el, [frame], remote))
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
    if let Some(h) = frames_per_read {
        h.observe(decoded);
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
            let mut decoder = FrameDecoder::with_capacity(MAX_UDP_FRAME + 4);
            while let Ok((n, peer)) = reader.recv_from(&mut buf) {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                // Datagram = length header + body, same as the stream form,
                // and its frame is posted as a TCP reader posts one.
                let header = buf[..n].first_chunk::<4>();
                if header.map(|h| u32::from_be_bytes(*h) as usize + 4) != Some(n) {
                    continue;
                }
                let socket = reader.clone();
                let reply = Remote::Udp(UdpTransport { socket, peer });
                let _ = decoder.fill(&mut &buf[..n]);
                if !post_decoded(&mut decoder, &reply, &sender, None) {
                    return;
                }
            }
        })
        .expect("spawn udp reader");
    Ok((socket, addr))
}

// ----- the remote transports -----------------------------------------------

impl TcpConn {
    /// Append one frame to the out-buffer for this turn's flush (at once
    /// for a priority frame or a full buffer).
    fn send_frame(self: &Arc<Self>, el: &mut EventLoop, frame: &Frame) -> Result<(), XrlError> {
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
    fn sever(self: &Arc<Self>, el: &mut EventLoop) {
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

impl UdpTransport {
    /// One datagram: the length header and body, as on a stream.
    fn send_frame(&self, frame: &Frame) -> Result<(), XrlError> {
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
}

/// One in-memory connection between two loops of this process.  Each
/// direction carries the bytes a stream would, cut at seeded boundaries
/// and reassembled by the receiving end's decoder, whose frames are posted
/// to the receiving loop as a TCP reader posts them.  The link itself loses
/// and reorders nothing; the fault plan at the router's chokepoint does.
pub(crate) struct MemLink {
    /// `ends[0]` delivers to the endpoint connected to, `ends[1]` back.
    ends: [MemEnd; 2],
}

/// One direction of a [`MemLink`].
struct MemEnd {
    /// The receiving loop.
    to: EventSender,
    /// `mem:<receiving endpoint id>`, which also seeds the cuts.
    lane: String,
    /// The cut stream and the receiving end's reassembly buffer.
    rx: Mutex<(Lane, FrameDecoder)>,
}

impl MemEnd {
    /// The direction delivering to endpoint `id` on the loop `to` posts to.
    fn new(to: EventSender, id: u64) -> MemEnd {
        let lane = format!("mem:{id}");
        let rx = Mutex::new((Lane::new(0, &lane), FrameDecoder::with_capacity(4096)));
        MemEnd { to, lane, rx }
    }
}

/// One direction of an in-memory link; its reply travels the other.
#[derive(Clone)]
pub(crate) struct MemPipe {
    link: Arc<MemLink>,
    end: usize,
}

impl MemPipe {
    /// Feed the frame's bytes to the receiving end in seeded pieces.
    fn send_frame(&self, frame: &Frame) -> Result<(), XrlError> {
        let (link, end) = (self.link.clone(), 1 - self.end);
        let (reply, to) = (
            Remote::Mem(MemPipe { link, end }),
            &self.link.ends[self.end],
        );
        let bytes = frame.encode();
        let mut rest = &bytes[..];
        let (cuts, decoder) = &mut *to.rx.lock();
        while !rest.is_empty() {
            let cut = cuts.range(1, rest.len() as u64) as usize;
            let mut piece = &rest[..cut];
            rest = &rest[cut..];
            while !piece.is_empty() {
                let fed = decoder.fill(&mut piece).is_ok();
                if !fed || !post_decoded(decoder, &reply, &to.to, None) {
                    return Err(XrlError::Transport("mem: the peer loop is gone".into()));
                }
            }
        }
        Ok(())
    }
}

/// The one remote-transport value: what a request is written to and what a
/// reply travels back on.  A `match` per frame picks the family; nothing is
/// boxed.  The router writes every outgoing frame through one, which is
/// where the fault-injection layer (see [`crate::fault`]) taps the stream:
/// faults apply uniformly to every family, per frame, before any buffering.
#[derive(Clone)]
pub(crate) enum Remote {
    /// One established connection.
    Tcp(Arc<TcpConn>),
    /// A peer reached through this router's (or, for a reply, the
    /// receiving router's) bound socket.
    Udp(UdpTransport),
    /// One direction of an in-memory link.
    Mem(MemPipe),
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
            (Remote::Mem(a), Remote::Mem(b)) => Arc::ptr_eq(&a.link, &b.link) && a.end == b.end,
            _ => false,
        }
    }
}

impl Remote {
    /// Whether frames from this peer are datagrams, which the network may
    /// deliver twice: every request that arrives this way takes a dedup
    /// identity.
    pub(crate) fn is_datagram(&self) -> bool {
        matches!(self, Remote::Udp(_))
    }

    /// Send one frame toward the peer: appended to the connection's
    /// out-buffer (TCP), written now (UDP) or posted (in-memory).
    pub(crate) fn send_frame(&self, el: &mut EventLoop, frame: &Frame) -> Result<(), XrlError> {
        match self {
            Remote::Tcp(conn) => conn.send_frame(el, frame),
            Remote::Udp(peer) => peer.send_frame(frame),
            Remote::Mem(pipe) => pipe.send_frame(frame),
        }
    }

    /// Label for fault-lane selection and tracing (`tcp:127.0.0.1:5000`).
    pub(crate) fn lane(&self) -> Cow<'_, str> {
        match self {
            Remote::Tcp(conn) => Cow::Borrowed(&conn.lane),
            Remote::Udp(peer) => Cow::Owned(format!("udp:{}", peer.peer)),
            Remote::Mem(pipe) => Cow::Borrowed(&pipe.link.ends[pipe.end].lane),
        }
    }

    /// Forcibly sever the connection, for the `Disconnect` fault action;
    /// a datagram peer or an in-memory link has none to sever.
    pub(crate) fn sever(&self, el: &mut EventLoop) {
        if let Remote::Tcp(conn) = self {
            conn.sever(el);
        }
    }
}

// ----- the families one router owns ----------------------------------------

/// Which endpoint an outgoing request was sent through: the router's
/// choice among the ones its target advertised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Via {
    /// Direct dispatch on the caller's own loop.
    Intra,
    Tcp(SocketAddr),
    Udp(SocketAddr),
    Mem(u64),
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
            Via::Mem(id) => Some(Rc::from(format!("mem:{id}"))),
        }
    }
}

/// Every protocol family one router has enabled, with its sockets and
/// connections.  The router reaches a peer only through it.
pub(crate) struct Families {
    sender: EventSender,
    /// Where in-memory endpoints are found.
    finder: Finder,
    tcp: Option<TcpFamily>,
    udp: Option<UdpFamily>,
    mem: Option<MemFamily>,
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
}

struct MemFamily {
    /// This router's in-memory endpoint id.
    id: u64,
    /// Outgoing links by peer endpoint id.
    links: HashMap<u64, Arc<MemLink>>,
}

impl Families {
    pub(crate) fn new(sender: EventSender, finder: Finder) -> Families {
        Families {
            sender,
            finder,
            tcp: None,
            udp: None,
            mem: None,
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
        });
        Ok(local_addr)
    }

    /// Open the in-memory receiving point, once; returns its endpoint id.
    pub(crate) fn enable_mem(&mut self) -> u64 {
        let (finder, sender) = (&self.finder, &self.sender);
        let mem = self.mem.get_or_insert_with(|| MemFamily {
            id: finder.listen_mem(sender.clone()),
            links: HashMap::new(),
        });
        mem.id
    }

    /// The endpoints of the enabled families, for a registration to
    /// advertise.
    pub(crate) fn endpoints(&self) -> impl Iterator<Item = Endpoint> + '_ {
        let tcp = self.tcp.as_ref().map(|t| Endpoint::Tcp(t.listen_addr));
        tcp.into_iter()
            .chain(self.udp.as_ref().map(|u| Endpoint::Udp(u.local_addr)))
            .chain(self.mem.as_ref().map(|m| Endpoint::Mem(m.id)))
    }

    /// The transport toward `via`: the cached connection or link to a TCP
    /// or in-memory peer (or a new one, which is then cached), or the UDP
    /// socket addressed to the peer.
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
            Via::Mem(peer) => {
                let mem = self.mem.as_mut().ok_or_else(|| disabled("mem"))?;
                if let Some(link) = mem.links.get(&peer) {
                    let link = link.clone();
                    return Ok(Remote::Mem(MemPipe { link, end: 0 }));
                }
                let to = self.finder.mem_loop(peer);
                let to =
                    to.ok_or_else(|| XrlError::Transport(format!("no mem endpoint {peer}")))?;
                let back = MemEnd::new(self.sender.clone(), mem.id);
                let link = Arc::new(MemLink {
                    ends: [MemEnd::new(to, peer), back],
                });
                mem.links.insert(peer, link.clone());
                Ok(Remote::Mem(MemPipe { link, end: 0 }))
            }
        }
    }

    /// Forget a connection that failed, unless a send already replaced
    /// it: the next send toward its peer connects afresh.  A datagram peer
    /// or an in-memory link keeps nothing to forget.
    pub(crate) fn evict(&mut self, remote: &Remote) {
        if let (Remote::Tcp(conn), Some(tcp)) = (remote, self.tcp.as_mut()) {
            tcp.conns.retain(|_, c| !Arc::ptr_eq(c, conn));
        }
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
        self.mem = None;
    }
}
