//! The XRL router: per-loop dispatcher for outgoing and incoming XRLs.
//!
//! One [`XrlRouter`] serves each event loop ("process").  It hosts one or
//! more *targets* (component instances — "most processes contain more than
//! one component", §6.1), registers them with the [`Finder`], resolves and
//! caches outgoing XRLs, moves frames over the enabled protocol families,
//! and correlates responses back to caller callbacks.
//!
//! All dispatch happens on the loop thread; reader threads only post
//! decoded frames.  The router is a cheap `Rc` handle, stored in the loop's
//! type slot so cross-thread closures can find it.
//!
//! # Sending
//!
//! An XRL has two faces, the textual form scripts call and the typed
//! stubs the IDL generates (§6.1), and one way out.  A route (resolution,
//! endpoint, lane label, negotiated encoding) comes from an
//! [`InternedCall`]'s cache or from a per-call lookup in
//! [`XrlRouter::send`]; one chooser picks the endpoint and one send core
//! admits the request and emits it — a named v1 frame, or a positional v2
//! frame when the caller's signature matches the target's.
//!
//! # Failure handling
//!
//! Remote transports can lose, duplicate, delay, or reorder frames — in
//! production because processes crash and sockets reset, in tests because a
//! [`FaultPlan`] injects those faults deterministically.  The router makes
//! request dispatch *exactly-once* in the face of all of that:
//!
//! * every outgoing frame funnels through one chokepoint
//!   ([`XrlRouter::transport_write`]) where the optional fault plan taps it;
//! * a configured [`RetryPolicy`] arms a timeout per remote request and
//!   retransmits it — same sequence number — with exponential backoff until
//!   a response arrives or the attempt budget is spent
//!   ([`XrlError::Timeout`]);
//! * receivers deduplicate requests on `(sender, seq)` — but only requests
//!   that can recur: a sender that can emit a second copy (it has a
//!   [`RetryPolicy`] or a [`FaultPlan`]) sets [`SEQ_MAY_RECUR`], the top
//!   bit of `seq`, and datagrams can duplicate on their own.  For those, a
//!   retransmission of a request whose handler already ran gets the
//!   *cached* response replayed instead of a second dispatch; a TCP request
//!   without the bit is dispatched as it arrives and costs the receiver no
//!   identity;
//! * duplicate responses are dropped by the existing correlation map (the
//!   pending entry is gone after the first).
//!
//! # Overload control
//!
//! Every router bounds, per transport lane, what it holds for requests in
//! flight: the `pending` map entries (and, for UDP, the unpipelined
//! per-peer queues) charged to the lane, under its [`QueuePolicy`]
//! ([`QueuePolicy::default`] unless [`XrlRouter::set_overload_policy`]
//! retunes it).  Crossing the high watermark emits a per-lane
//! [`CongestionSignal::Xoff`] through the callback installed with
//! [`XrlRouter::set_congestion_cb`]; draining below the low watermark emits
//! [`CongestionSignal::Xon`].  A producer that heeds the signals keeps its
//! backlog in its own queue (BGP's fanout, the RIB's redistribution
//! watcher), so the XRL plane holds a window of requests, not a table of
//! them.  Past the hard cap, data sends fail fast with
//! [`XrlError::Overloaded`] instead of queueing.  Control traffic uses
//! [`XrlRouter::send_priority`], which bypasses all of it — a keepalive
//! answers even when every data lane is parked.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpStream, UdpSocket};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use xorp_event::{EventLoop, EventSender, Time, TimerHandle};
use xorp_profiler::tracing::{self as xtrace, TraceContext};
use xorp_profiler::{Counter, Gauge, Metrics};

use crate::atom::XrlArgs;
use crate::error::XrlError;
use crate::fault::{FaultAction, FaultConfig, FaultPlan};
use crate::finder::{Endpoint, Finder, LifetimeEvent, ResolveEntry};
use crate::marshal::{check_counts, Frame};
use crate::transport::{
    flush_dirty, spawn_tcp_listener, spawn_tcp_reader, spawn_udp, SharedTcpMetrics, TcpConn,
    TcpMetrics, Transport, UdpTransport,
};
use crate::xrl::Xrl;
use crate::XrlResult;

/// Callback invoked on the sender's loop when a response (or failure)
/// arrives.
pub type ResponseCb = Box<dyn FnOnce(&mut EventLoop, XrlResult)>;

/// Handler for an incoming XRL method.
pub type Handler = Rc<dyn Fn(&mut EventLoop, &XrlArgs, Responder)>;

/// Transport preference for an outgoing XRL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportPref {
    /// Intra-process when co-located, else TCP, else UDP.
    #[default]
    Auto,
    /// Force intra-process direct dispatch (error if not co-located).
    Intra,
    /// Force TCP.
    Tcp,
    /// Force UDP (unpipelined, §8.1).
    Udp,
}

/// Timeout-and-retransmit policy for remote requests.  `None` (the router
/// default) preserves the original fire-and-wait behaviour: a request with
/// no response waits until its connection dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total transmission attempts, including the first.
    pub max_attempts: u32,
    /// Timeout for the first attempt; doubles per retry.
    pub base_timeout: Duration,
    /// Backoff cap.
    pub max_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_timeout: Duration::from_millis(100),
            max_timeout: Duration::from_secs(2),
        }
    }
}

/// Bounds on the per-lane send queue: the count of this router's requests
/// outstanding toward one remote endpoint (the `pending` retransmission
/// entries routed to that lane, which for UDP also covers every frame
/// parked in the peer's unpipelined queue).
///
/// Crossing `high_watermark` emits [`CongestionSignal::Xoff`] for the lane;
/// draining back to `low_watermark` emits [`CongestionSignal::Xon`].  The
/// gap between the two is hysteresis — producers that react to `Xoff`
/// should not be whipsawed by a single completion.  A data-priority send
/// finding the lane at `hard_cap` is shed outright with
/// [`XrlError::Overloaded`] instead of growing the queue; priority sends
/// ([`XrlRouter::send_priority`] — supervision keepalives) always pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuePolicy {
    /// Lane depth at which `Xoff` fires.
    pub high_watermark: usize,
    /// Lane depth a congested lane must drain to before `Xon` fires.
    pub low_watermark: usize,
    /// Depth beyond which data frames are shed with `Overloaded`.
    pub hard_cap: usize,
}

impl Default for QueuePolicy {
    fn default() -> Self {
        QueuePolicy {
            high_watermark: 512,
            low_watermark: 128,
            hard_cap: 2048,
        }
    }
}

/// Flow-control event for one transport lane, delivered through the
/// callback installed with [`XrlRouter::set_congestion_cb`].  Lane labels
/// match [`XrlRouter::lane_of`] (`tcp:127.0.0.1:5000`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CongestionSignal {
    /// The lane crossed its high watermark: stop producing toward it.
    Xoff {
        /// Transport lane label.
        lane: String,
    },
    /// The congested lane drained below its low watermark: resume.
    Xon {
        /// Transport lane label.
        lane: String,
    },
}

impl CongestionSignal {
    /// The lane this signal concerns.
    pub fn lane(&self) -> &str {
        match self {
            CongestionSignal::Xoff { lane } | CongestionSignal::Xon { lane } => lane,
        }
    }
}

impl RetryPolicy {
    /// The timeout armed for transmission attempt `attempt` (1-based):
    /// `base * 2^(attempt-1)`, capped at `max_timeout`.
    fn timeout_for(&self, attempt: u32) -> Duration {
        let factor = 2u32.saturating_pow(attempt.saturating_sub(1));
        self.base_timeout
            .saturating_mul(factor)
            .min(self.max_timeout)
    }

    /// Upper bound on how long after the *first* transmission a
    /// retransmission of the same request can still arrive: the sum of all
    /// armed backoffs, plus one extra `max_timeout` of grace for transit
    /// delay of the final copy.  The receiver's dedup cache must remember a
    /// request identity at least this long, or a late retransmission would
    /// re-dispatch its handler.
    pub fn retransmission_window(&self) -> Duration {
        let mut w = Duration::ZERO;
        for attempt in 1..=self.max_attempts {
            w = w.saturating_add(self.timeout_for(attempt));
        }
        w.saturating_add(self.max_timeout)
    }
}

/// How a reply travels back to the caller.
pub(crate) enum ReplyPath {
    /// Caller is on this same loop; complete through the local router.
    Local,
    /// Buffer a response frame on the connection the request arrived on.
    Tcp(Arc<TcpConn>),
    /// Send a response datagram from the receiver's bound socket to where
    /// the request came from.
    Udp(UdpTransport),
}

/// Capability to answer one in-flight XRL.  Handlers may reply immediately
/// or stash the responder and reply later — the asynchronous messaging the
/// paper's event-driven design requires (§6).
pub struct Responder {
    router: XrlRouter,
    seq: u64,
    /// `(sender, seq)` of the remote request this answers, for the
    /// receiver-side dedup cache.  `None` for local dispatch.
    origin: Option<(u64, u64)>,
    path: ReplyPath,
    /// The request arrived priority-marked; the reply is marked too, so
    /// the probe's round trip jumps receive queues in both directions.
    priority: bool,
    /// The request arrived as a wire-v2 positional frame: the caller
    /// negotiated our signature, so reply atoms may go unnamed too.
    wire_v2: bool,
}

impl Responder {
    /// Whether the request arrived as a wire-v2 positional frame.
    /// Generated repliers emit unnamed (positional) reply atoms when true —
    /// the caller decodes by signature order — and named atoms otherwise.
    pub fn wire_v2(&self) -> bool {
        self.wire_v2
    }

    /// Send the result back to the caller.
    pub fn reply(self, el: &mut EventLoop, result: XrlResult) {
        let Responder {
            router,
            seq,
            origin,
            path,
            priority,
            wire_v2: _,
        } = self;
        if let Some(key) = origin {
            // Cache the outcome so a retransmission of this request replays
            // the response instead of re-running the handler.
            let mut inner = router.inner.borrow_mut();
            if let Some(state) = inner.dedup.get_mut(&key) {
                *state = DedupState::Done(result.clone());
            }
        }
        match path {
            ReplyPath::Local => router.complete(el, seq, result),
            remote => router.write_response(el, &remote, seq, result, priority),
        }
    }

    /// Shorthand for an empty-args success.
    pub fn ok(self, el: &mut EventLoop) {
        self.reply(el, Ok(XrlArgs::new()));
    }
}

/// Which transport an outgoing request used (for failure handling and UDP
/// flow control).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Via {
    Intra,
    Tcp(SocketAddr),
    Udp(SocketAddr),
}

/// One request awaiting its response.
struct Pending {
    cb: ResponseCb,
    via: Via,
    /// Transmission attempts made so far (1 after the initial send).
    attempt: u32,
    /// The armed timeout, when a [`RetryPolicy`] is configured.
    timer: Option<TimerHandle>,
    /// Retransmission copy of the request frame (remote vias only).
    frame: Option<Frame>,
    /// The TCP connection the request was last written to: when that
    /// connection dies, this is how [`XrlRouter::connection_closed`] finds
    /// the requests that died with it (and not ones already moved to its
    /// replacement).
    conn: Option<Arc<TcpConn>>,
    /// Lane this entry is charged against in the overload accounting:
    /// every remote data-priority send.  Priority and intra sends are
    /// never charged.  `Rc<str>` so interned senders share one precomputed
    /// label per lane instead of allocating a fresh `String` per route.
    counted_lane: Option<Rc<str>>,
    /// Sent via [`XrlRouter::send_priority`]: over UDP it never owned the
    /// unpipelined per-peer slot, so completion must not pump the queue.
    priority: bool,
}

/// Per-lane overload accounting.
#[derive(Default)]
struct LaneLoad {
    /// Outstanding data-priority requests charged to the lane.
    depth: usize,
    /// Whether the lane is currently in the Xoff state.
    xoff: bool,
}

/// Receiver-side state for one `(sender, seq)` request identity.
enum DedupState {
    /// Handler dispatched, no reply yet: drop retransmissions, the reply
    /// will answer the first copy.
    InFlight,
    /// Handler replied: replay this to any retransmission.
    Done(XrlResult),
}

/// Top bit of a request's `seq`: set by a sender that can put a second
/// copy of the request on the wire — it has a [`RetryPolicy`] (timeout
/// retransmission) or a [`FaultPlan`] (injected duplicates) when the number
/// is allocated.  Part of the wire contract: a receiver keeps a dedup
/// identity for a TCP request only when the bit is set.  The frame layout
/// is unchanged (`seq` stays an opaque u64 that responses echo verbatim),
/// and a sender with neither policy emits the same bytes it always did.
pub const SEQ_MAY_RECUR: u64 = 1 << 63;

/// How long a receiver with no [`RetryPolicy`] of its own remembers a
/// request identity: long enough for a sender running the default policy.
/// Who pays, and when: only receivers of requests that can recur (UDP, or
/// [`SEQ_MAY_RECUR`] set) — about 120 B per identity, evicted by age alone,
/// so a lossy or retrying batch-1 feed at ~80k requests/s holds ~2.4M
/// identities here.  `xrl.dedup_entries` shows it.  Requests over TCP from
/// a sender with neither a retry policy nor a fault plan cost nothing.
const DEDUP_DEFAULT_WINDOW: Duration = Duration::from_secs(30);

/// One registered method on a target: its interned slot is its index in
/// [`Target::methods`], which doubles as the wire-v2 `method_id`.
struct MethodEntry {
    /// Full `iface/version/method` path.  `Arc` (not `Rc`): clones of it
    /// are attached to decoded argument blocks as error context, and those
    /// travel inside frames that cross reader threads.
    path: Arc<str>,
    handler: Handler,
}

struct Target {
    class: String,
    key: [u8; 16],
    sole: bool,
    /// Method table in registration order; index == wire-v2 method id.
    methods: Vec<MethodEntry>,
    /// Path -> index into `methods`, for v1 named dispatch.
    by_path: HashMap<String, u32>,
}

#[derive(Default)]
struct UdpPeerQueue {
    in_flight: bool,
    queue: VecDeque<Frame>,
}

struct TcpState {
    listen_addr: Option<SocketAddr>,
    stop: Arc<AtomicBool>,
    conns: HashMap<SocketAddr, Arc<TcpConn>>,
}

struct UdpState {
    socket: Arc<UdpSocket>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    queues: HashMap<SocketAddr, UdpPeerQueue>,
}

struct RouterInner {
    router_id: u64,
    finder: Finder,
    sender: EventSender,
    targets: HashMap<String, Target>,
    primary_class: Option<String>,
    /// Next unallocated request number; handed out by [`RouterInner::next_seq`].
    seq_counter: u64,
    pending: xorp_net::FxHashMap<u64, Pending>,
    /// Resolve cache keyed by `(target, method path)` — a tuple, not a
    /// joined string, so a target name containing the old `|` separator
    /// cannot alias another entry.
    resolve_cache: HashMap<(String, String), ResolveEntry>,
    /// Bumped whenever `resolve_cache` is flushed or partially invalidated
    /// (and on wire-mode changes).  [`InternedCall`]s remember the
    /// generation they resolved under and re-resolve when it moves — no
    /// registry of interned calls to walk.
    cache_generation: u64,
    /// Never emit wire-v2 frames and never advertise signatures: this
    /// router behaves like a pre-v2 peer.  For mixed-version testing.
    wire_v1_only: bool,
    tcp: Option<TcpState>,
    udp: Option<UdpState>,
    fault: Option<FaultPlan>,
    retry: Option<RetryPolicy>,
    /// Per-lane queue bounds.
    overload: QueuePolicy,
    /// Overload accounting per transport lane.  Keyed by the label the
    /// charged `Pending` entries share, looked up by `&str`: a lane's key
    /// is allocated once, when the lane is first charged.
    lane_load: xorp_net::FxHashMap<Rc<str>, LaneLoad>,
    /// Receives Xoff/Xon as lanes cross their watermarks.
    #[allow(clippy::type_complexity)]
    congestion_cb: Option<Rc<dyn Fn(&mut EventLoop, &CongestionSignal)>>,
    /// Data frames shed at the hard cap (diagnostic).
    shed: u64,
    dedup: HashMap<(u64, u64), DedupState>,
    /// Insertion-ordered request identities with their arrival time.  An
    /// entry is evicted only once it is older than the retry policy's
    /// retransmission window — never by a size cap — so eviction can never
    /// drop an identity whose retransmission is still within retry budget
    /// (which would re-dispatch the handler).  Memory stays bounded by
    /// request rate × window.
    dedup_order: VecDeque<((u64, u64), Time)>,
    watchdog: Option<TimerHandle>,
    #[allow(clippy::type_complexity)]
    lifetime_cbs: Vec<(u64, String, Rc<dyn Fn(&mut EventLoop, &LifetimeEvent)>)>,
    shut_down: bool,
    /// Observability hooks, attached by [`XrlRouter::set_metrics`].
    metrics: Option<XrlMetrics>,
    /// The TCP family's per-syscall histograms, shared with its listener
    /// and reader threads (which start before a registry is attached).
    tcp_metrics: SharedTcpMetrics,
}

/// The router's registry handles.
#[derive(Clone)]
struct XrlMetrics {
    /// `xrl.pending` — outstanding requests of every kind, charged or not
    /// (gauge tracks the peak).
    pending: Gauge,
    /// `xrl.lane_depth` — per-lane charged depth, across all lanes.
    lane_depth: Gauge,
    /// `xrl.dedup_entries` — request identities the receiver side
    /// remembers (gauge tracks the peak): the cache that grows with
    /// traffic when senders retry.
    dedup_entries: Gauge,
    /// `xrl.xoff_total` / `xrl.xon_total` — watermark crossings.
    xoff: Counter,
    xon: Counter,
    /// `xrl.shed_total` — data sends refused at the hard cap.
    shed: Counter,
    /// `xrl.retransmit_total` — timeout-driven retransmissions.
    retransmit: Counter,
}

/// A resolved route to one target method: the resolution, the chosen
/// transport, the precomputed lane label, and whether wire-v2 was
/// negotiated.  [`XrlRouter::send_routed`] sends along one.  An
/// [`InternedCall`] keeps its route between sends, valid only while the
/// router's cache generation matches; a dynamic send builds a fresh one.
#[derive(Clone)]
struct InternedCached {
    instance: String,
    key: [u8; 16],
    via: Via,
    /// Precomputed overload-lane label (`None` for intra dispatch).
    lane: Option<Rc<str>>,
    /// The peer advertised a matching signature: send positional frames.
    method_id: Option<u32>,
}

struct InternedInner {
    target: String,
    path: String,
    /// This side's signature hash; v2 only when the peer advertises the
    /// same value for `path`.
    sig_hash: u64,
    /// Argument names in signature order, used to label positional args
    /// when falling back to v1 named frames.
    arg_names: &'static [&'static str],
    cached: RefCell<Option<InternedCached>>,
    /// Router cache generation the entry was resolved under.
    generation: Cell<u64>,
}

/// A pre-resolved outgoing method path.  Created once per call site with
/// [`XrlRouter::intern`].  Interned and dynamic sends share one send core
/// and differ only in where the route comes from: [`XrlRouter::send`]
/// renders the path, looks up the resolve cache and chooses an endpoint
/// per call, while [`XrlRouter::send_interned`] reuses the route it cached
/// and negotiates the positional wire-v2 encoding when the resolved
/// target advertised a matching signature.  Self-invalidates when the
/// router's resolve cache is flushed.
#[derive(Clone)]
pub struct InternedCall {
    inner: Rc<InternedInner>,
}

impl InternedCall {
    /// The target this call resolves (class or instance name).
    pub fn target(&self) -> &str {
        &self.inner.target
    }

    /// The full `iface/version/method` path.
    pub fn path(&self) -> &str {
        &self.inner.path
    }
}

impl RouterInner {
    /// Allocate a request sequence number, marked [`SEQ_MAY_RECUR`] iff
    /// this router can put the request on the wire twice.
    fn next_seq(&mut self) -> u64 {
        let seq = self.seq_counter;
        self.seq_counter += 1;
        if self.retry.is_some() || self.fault.is_some() {
            seq | SEQ_MAY_RECUR
        } else {
            seq
        }
    }

    /// The state half of [`XrlRouter::admit`]: charge the lane, or hand
    /// `cb` back when it is at its hard cap; on success the request's
    /// `seq` and the `Xoff` to emit if this send crossed the high
    /// watermark.
    fn admit(
        &mut self,
        via: Via,
        lane: Option<Rc<str>>,
        priority: bool,
        cb: ResponseCb,
    ) -> Result<(u64, Option<CongestionSignal>), ResponseCb> {
        let counted_lane = lane.filter(|_| !priority);
        let mut xoff = None;
        if let Some(lane) = &counted_lane {
            let load = match self.lane_load.get_mut(lane.as_ref()) {
                Some(load) => load,
                None => self.lane_load.entry(lane.clone()).or_default(),
            };
            if load.depth >= self.overload.hard_cap {
                self.shed += 1;
                if let Some(m) = &self.metrics {
                    m.shed.inc();
                }
                return Err(cb);
            }
            load.depth += 1;
            if let Some(m) = &self.metrics {
                m.lane_depth.set(load.depth as i64);
            }
            if !load.xoff && load.depth >= self.overload.high_watermark {
                load.xoff = true;
                if let Some(m) = &self.metrics {
                    m.xoff.inc();
                }
                xoff = Some(CongestionSignal::Xoff {
                    lane: lane.to_string(),
                });
            }
        }
        let seq = self.next_seq();
        self.pending.insert(
            seq,
            Pending {
                cb,
                via,
                attempt: 1,
                timer: None,
                frame: None,
                conn: None,
                counted_lane,
                priority,
            },
        );
        if let Some(m) = &self.metrics {
            m.pending.set(self.pending.len() as i64);
        }
        Ok((seq, xoff))
    }
}

static NEXT_ROUTER_ID: AtomicU64 = AtomicU64::new(1);

/// The per-loop XRL dispatcher.  Clone-cheap handle.
#[derive(Clone)]
pub struct XrlRouter {
    inner: Rc<RefCell<RouterInner>>,
}

impl XrlRouter {
    /// Create a router on `el`'s loop, wired to `finder`, and store it in
    /// the loop's type slot.  Enable transports *before* registering
    /// targets so registrations advertise the right endpoints.
    pub fn new(el: &mut EventLoop, finder: Finder) -> XrlRouter {
        let router_id = NEXT_ROUTER_ID.fetch_add(1, Ordering::SeqCst);
        let sender = el.sender();
        finder.add_cache_holder(router_id, sender.clone());
        let router = XrlRouter {
            inner: Rc::new(RefCell::new(RouterInner {
                router_id,
                finder,
                sender,
                targets: HashMap::new(),
                primary_class: None,
                seq_counter: 1,
                pending: Default::default(),
                resolve_cache: HashMap::new(),
                cache_generation: 1,
                wire_v1_only: false,
                tcp: None,
                udp: None,
                fault: None,
                retry: None,
                overload: QueuePolicy::default(),
                lane_load: Default::default(),
                congestion_cb: None,
                shed: 0,
                dedup: HashMap::new(),
                dedup_order: VecDeque::new(),
                watchdog: None,
                lifetime_cbs: Vec::new(),
                shut_down: false,
                metrics: None,
                tcp_metrics: SharedTcpMetrics::default(),
            })),
        };
        el.set_slot::<XrlRouter>(router.clone());
        router
    }

    /// This router's unique id (used for intra-process endpoint matching
    /// and as the sender id on request frames).
    pub fn router_id(&self) -> u64 {
        self.inner.borrow().router_id
    }

    /// The Finder this router talks to.
    pub fn finder(&self) -> Finder {
        self.inner.borrow().finder.clone()
    }

    /// Attach a metrics registry.  The router reports outstanding requests
    /// (`xrl.pending`), charged lane depth (`xrl.lane_depth`), remembered
    /// request identities (`xrl.dedup_entries`), watermark
    /// crossings (`xrl.xoff_total`/`xrl.xon_total`), hard-cap sheds
    /// (`xrl.shed_total`), retransmissions (`xrl.retransmit_total`) and
    /// the TCP family's frames per syscall (`xrl.frames_per_read`,
    /// `xrl.frames_per_write`; the first registry attached keeps those).
    /// Scope the registry per process (`metrics.scoped("bgp")`) to keep
    /// routers apart.
    pub fn set_metrics(&self, metrics: &Metrics) {
        let mut inner = self.inner.borrow_mut();
        let _ = inner.tcp_metrics.set(TcpMetrics {
            frames_per_read: metrics.histogram("xrl.frames_per_read"),
            frames_per_write: metrics.histogram("xrl.frames_per_write"),
        });
        inner.metrics = Some(XrlMetrics {
            pending: metrics.gauge("xrl.pending"),
            lane_depth: metrics.gauge("xrl.lane_depth"),
            dedup_entries: metrics.gauge("xrl.dedup_entries"),
            xoff: metrics.counter("xrl.xoff_total"),
            xon: metrics.counter("xrl.xon_total"),
            shed: metrics.counter("xrl.shed_total"),
            retransmit: metrics.counter("xrl.retransmit_total"),
        });
    }

    // ----- failure-handling knobs -------------------------------------------

    /// Install a deterministic fault plan on this router's *outgoing*
    /// frames (requests and responses alike).  Replaces any existing plan.
    pub fn set_fault_plan(&self, config: FaultConfig) {
        self.inner.borrow_mut().fault = Some(FaultPlan::new(config));
    }

    /// Render the fault plan's decision trace, if a plan is installed.
    /// This is what tests dump on failure so a run is reproducible from the
    /// log alone.
    pub fn fault_report(&self) -> Option<String> {
        self.inner.borrow().fault.as_ref().map(|p| p.render_trace())
    }

    /// Configure request timeouts and retransmission.  `None` (the
    /// default) keeps requests pending until their transport dies.
    pub fn set_retry_policy(&self, policy: Option<RetryPolicy>) {
        self.inner.borrow_mut().retry = policy;
    }

    // ----- overload control -------------------------------------------------

    /// Retune the bounds on every transport lane's outstanding-request
    /// queue ([`QueuePolicy::default`] until called).  Accounting carries
    /// over: a lane already in Xoff emits its `Xon` once it drains to the
    /// new low watermark.
    pub fn set_overload_policy(&self, policy: QueuePolicy) {
        self.inner.borrow_mut().overload = policy;
    }

    /// Install the callback that receives [`CongestionSignal`]s as lanes
    /// cross their watermarks.  Replaces any existing callback.
    pub fn set_congestion_cb<F>(&self, cb: F)
    where
        F: Fn(&mut EventLoop, &CongestionSignal) + 'static,
    {
        self.inner.borrow_mut().congestion_cb = Some(Rc::new(cb));
    }

    /// Outstanding data-priority requests charged to `lane` (diagnostic).
    pub fn lane_depth(&self, lane: &str) -> usize {
        self.inner
            .borrow()
            .lane_load
            .get(lane)
            .map(|l| l.depth)
            .unwrap_or(0)
    }

    /// Whether any lane is currently Xoff — what the keepalive responder
    /// reports back to the supervisor as "busy but alive".
    pub fn any_lane_congested(&self) -> bool {
        self.inner.borrow().lane_load.values().any(|l| l.xoff)
    }

    /// Data frames shed at the hard cap so far (diagnostic).
    pub fn shed_count(&self) -> u64 {
        self.inner.borrow().shed
    }

    /// Total outstanding requests (diagnostic).
    pub fn pending_len(&self) -> usize {
        self.inner.borrow().pending.len()
    }

    /// Approximate bytes held by the XRL layer for in-flight traffic:
    /// per-request bookkeeping (`Pending`, excluding callback captures),
    /// frames retained for retransmission, and frames parked in UDP
    /// per-peer queues.  This is the queue memory the hard cap bounds.
    /// Walks the maps, so sample it sparsely.
    pub fn retained_frame_bytes(&self) -> usize {
        let inner = self.inner.borrow();
        let pending: usize = inner
            .pending
            .values()
            .map(|p| {
                std::mem::size_of::<Pending>() + p.frame.as_ref().map_or(0, |f| f.approx_wire_len())
            })
            .sum();
        let parked: usize = inner
            .udp
            .iter()
            .flat_map(|u| u.queues.values())
            .flat_map(|q| q.queue.iter())
            .map(|f| f.approx_wire_len())
            .sum();
        pending + parked
    }

    /// Total frames parked in UDP per-peer queues awaiting their slot
    /// (diagnostic; the dead-peer eviction test watches this drain).
    pub fn udp_queue_depth(&self) -> usize {
        self.inner
            .borrow()
            .udp
            .as_ref()
            .map(|u| u.queues.values().map(|q| q.queue.len()).sum())
            .unwrap_or(0)
    }

    /// The transport lane an Auto-preference send to `target`/`path` would
    /// use right now — `None` for intra-process dispatch (intra lanes have
    /// no queue and are never congested).  Lets a producer map a
    /// [`CongestionSignal`]'s lane label back to the consumer it feeds.
    pub fn lane_of(&self, target: &str, path: &str) -> Option<String> {
        let entry = self.resolve_cached(target, path).ok()?;
        let (_, lane) = self.choose(&entry, TransportPref::Auto).ok()?;
        lane.map(|l| l.to_string())
    }

    /// Pick the endpoint `pref` allows among `entry`'s, with its lane label
    /// (`None` for intra dispatch).  `Auto` takes intra dispatch when the
    /// target is co-located, else TCP, else UDP; the forced preferences
    /// take their own family or nothing.
    fn choose(
        &self,
        entry: &ResolveEntry,
        pref: TransportPref,
    ) -> Result<(Via, Option<Rc<str>>), XrlError> {
        let my_id = self.inner.borrow().router_id;
        let (mut intra, mut tcp, mut udp) = (false, None, None);
        for ep in &entry.endpoints {
            match ep {
                Endpoint::Intra { router_id } if *router_id == my_id => intra = true,
                Endpoint::Tcp(a) => tcp = Some(Via::Tcp(*a)),
                Endpoint::Udp(a) => udp = Some(Via::Udp(*a)),
                Endpoint::Intra { .. } => {}
            }
        }
        let intra = intra.then_some(Via::Intra);
        let via = match pref {
            TransportPref::Auto => intra.or(tcp).or(udp),
            TransportPref::Intra => intra,
            TransportPref::Tcp => tcp,
            TransportPref::Udp => udp,
        }
        .ok_or_else(|| {
            XrlError::Transport(format!(
                "no usable endpoint for {} via {pref:?}",
                entry.instance
            ))
        })?;
        let lane = match via {
            Via::Intra => None,
            Via::Tcp(a) => Some(Rc::from(format!("tcp:{a}"))),
            Via::Udp(a) => Some(Rc::from(format!("udp:{a}"))),
        };
        Ok((via, lane))
    }

    /// Admit one request and register it as pending: the one place a send
    /// is charged to its lane, shed at the hard cap, and given its sequence
    /// number.  `lane` is the transport lane the request will travel
    /// (`None` for intra dispatch); priority and intra sends pass
    /// uncharged.  Returns the request's `seq`, or `None` after failing
    /// `cb` with [`XrlError::Overloaded`].  A send that crosses the high
    /// watermark emits `Xoff` once its entry is in place.
    fn admit(
        &self,
        el: &mut EventLoop,
        via: Via,
        lane: Option<Rc<str>>,
        priority: bool,
        cb: ResponseCb,
    ) -> Option<u64> {
        let outcome = self.inner.borrow_mut().admit(via, lane, priority, cb);
        match outcome {
            Ok((seq, None)) => Some(seq),
            Ok((seq, Some(xoff))) => {
                self.emit_congestion(el, xoff);
                Some(seq)
            }
            Err(cb) => {
                cb(el, Err(XrlError::Overloaded));
                None
            }
        }
    }

    /// Release one outstanding request from `lane`, emitting `Xon` once a
    /// congested lane drains to the low watermark.
    fn note_lane_dequeue(&self, el: &mut EventLoop, lane: &str) {
        let signal = {
            let inner = &mut *self.inner.borrow_mut();
            let low_watermark = inner.overload.low_watermark;
            let Some(load) = inner.lane_load.get_mut(lane) else {
                return;
            };
            load.depth = load.depth.saturating_sub(1);
            if let Some(m) = &inner.metrics {
                m.lane_depth.set(load.depth as i64);
            }
            if load.xoff && load.depth <= low_watermark {
                load.xoff = false;
                if let Some(m) = &inner.metrics {
                    m.xon.inc();
                }
                Some(CongestionSignal::Xon {
                    lane: lane.to_string(),
                })
            } else {
                None
            }
        };
        if let Some(sig) = signal {
            self.emit_congestion(el, sig);
        }
    }

    fn emit_congestion(&self, el: &mut EventLoop, sig: CongestionSignal) {
        let cb = self.inner.borrow().congestion_cb.clone();
        if let Some(cb) = cb {
            cb(el, &sig);
        }
    }

    // ----- transports ------------------------------------------------------

    /// Enable the TCP protocol family; returns the listening address.
    pub fn enable_tcp(&self) -> Result<SocketAddr, XrlError> {
        let mut inner = self.inner.borrow_mut();
        if let Some(t) = &inner.tcp {
            return Ok(t.listen_addr.expect("listener up"));
        }
        let stop = Arc::new(AtomicBool::new(false));
        let addr = spawn_tcp_listener(
            inner.sender.clone(),
            stop.clone(),
            inner.tcp_metrics.clone(),
        )
        .map_err(|e| XrlError::Transport(format!("tcp listen: {e}")))?;
        inner.tcp = Some(TcpState {
            listen_addr: Some(addr),
            stop,
            conns: HashMap::new(),
        });
        Ok(addr)
    }

    /// Enable the UDP protocol family; returns the bound address.
    pub fn enable_udp(&self) -> Result<SocketAddr, XrlError> {
        let mut inner = self.inner.borrow_mut();
        if let Some(u) = &inner.udp {
            return Ok(u.local_addr);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let (socket, addr) = spawn_udp(inner.sender.clone(), stop.clone())
            .map_err(|e| XrlError::Transport(format!("udp bind: {e}")))?;
        inner.udp = Some(UdpState {
            socket,
            local_addr: addr,
            stop,
            queues: HashMap::new(),
        });
        Ok(addr)
    }

    // ----- targets and handlers ---------------------------------------------

    /// The endpoints a registration should advertise right now.
    fn current_endpoints(&self) -> Vec<Endpoint> {
        let inner = self.inner.borrow();
        let mut eps = vec![Endpoint::Intra {
            router_id: inner.router_id,
        }];
        if let Some(t) = &inner.tcp {
            eps.push(Endpoint::Tcp(t.listen_addr.expect("listener up")));
        }
        if let Some(u) = &inner.udp {
            eps.push(Endpoint::Udp(u.local_addr));
        }
        eps
    }

    /// Register a component instance of `class` with the Finder,
    /// advertising every enabled transport plus intra-process dispatch.
    pub fn register_target(&self, class: &str, instance: &str, sole: bool) -> Result<(), XrlError> {
        let endpoints = self.current_endpoints();
        let finder = self.inner.borrow().finder.clone();
        let key = finder.register(class, instance, endpoints, sole)?;
        let mut inner = self.inner.borrow_mut();
        if inner.primary_class.is_none() {
            inner.primary_class = Some(class.to_string());
        }
        inner.targets.insert(
            instance.to_string(),
            Target {
                class: class.to_string(),
                key,
                sole,
                methods: Vec::new(),
                by_path: HashMap::new(),
            },
        );
        Ok(())
    }

    /// Attach a handler for `iface/version/method` on a registered target.
    pub fn add_handler<F>(&self, instance: &str, path: &str, f: F)
    where
        F: Fn(&mut EventLoop, &XrlArgs, Responder) + 'static,
    {
        self.add_handler_inner(instance, path, Rc::new(f), None);
    }

    /// Attach a handler registered through a signed interface: like
    /// [`XrlRouter::add_handler`], but also advertises the method's
    /// interned id and signature hash to the Finder, so callers holding
    /// the same signature can switch to positional wire-v2 frames.
    pub fn add_handler_signed<F>(&self, instance: &str, path: &str, sig_hash: u64, f: F)
    where
        F: Fn(&mut EventLoop, &XrlArgs, Responder) + 'static,
    {
        self.add_handler_inner(instance, path, Rc::new(f), Some(sig_hash));
    }

    fn add_handler_inner(&self, instance: &str, path: &str, h: Handler, sig_hash: Option<u64>) {
        let (method_id, finder, advertise) = {
            let mut inner = self.inner.borrow_mut();
            let advertise = !inner.wire_v1_only;
            let finder = inner.finder.clone();
            let target = inner
                .targets
                .get_mut(instance)
                .unwrap_or_else(|| panic!("no such target: {instance}"));
            let id = match target.by_path.get(path) {
                Some(&i) => {
                    // Re-registration replaces the handler in its slot so
                    // existing interned ids stay valid.
                    target.methods[i as usize].handler = h;
                    i
                }
                None => {
                    let i = target.methods.len() as u32;
                    target.methods.push(MethodEntry {
                        path: Arc::from(path),
                        handler: h,
                    });
                    target.by_path.insert(path.to_string(), i);
                    i
                }
            };
            (id, finder, advertise)
        };
        if let Some(hash) = sig_hash {
            if advertise {
                finder.advertise_sig(instance, path, method_id, hash);
            }
        }
    }

    /// Attach a synchronous handler: the closure's return value is the
    /// reply.
    pub fn add_fn<F>(&self, instance: &str, path: &str, f: F)
    where
        F: Fn(&mut EventLoop, &XrlArgs) -> XrlResult + 'static,
    {
        self.add_handler(instance, path, move |el, args, responder| {
            let result = f(el, args);
            responder.reply(el, result);
        });
    }

    /// Pin this router to wire v1: never advertise signatures, never emit
    /// positional frames.  Models a peer from before the v2 encoding, for
    /// mixed-version interop testing.  Set before registering handlers.
    pub fn set_wire_v1_only(&self, v1_only: bool) {
        let mut inner = self.inner.borrow_mut();
        inner.wire_v1_only = v1_only;
        inner.cache_generation += 1;
    }

    // ----- finder liveness --------------------------------------------------

    /// Start a watchdog that re-registers this router's targets and
    /// lifetime watches if the Finder loses them — the paper's recovery
    /// story when the Finder process restarts (§6.2: components must
    /// re-register so the system converges back).  Returns the timer
    /// handle; [`XrlRouter::shutdown`] cancels it.
    pub fn start_watchdog(&self, el: &mut EventLoop, interval: Duration) -> TimerHandle {
        if let Some(old) = self.inner.borrow_mut().watchdog.take() {
            el.cancel(old);
        }
        let router = self.clone();
        let handle = el.every(interval, move |el| router.watchdog_tick(el));
        self.inner.borrow_mut().watchdog = Some(handle);
        handle
    }

    /// One watchdog pass: verify every registration and watch, repairing
    /// what the Finder no longer knows.
    fn watchdog_tick(&self, _el: &mut EventLoop) {
        let (finder, router_id, targets) = {
            let inner = self.inner.borrow();
            if inner.shut_down {
                return;
            }
            (
                inner.finder.clone(),
                inner.router_id,
                inner
                    .targets
                    .iter()
                    .map(|(i, t)| (i.clone(), t.class.clone(), t.key, t.sole))
                    .collect::<Vec<_>>(),
            )
        };
        let mut repaired = false;
        for (instance, class, key, sole) in targets {
            if finder.check_key(&instance, &key) {
                continue;
            }
            // Registration gone (or key superseded): re-register with fresh
            // endpoints and adopt the new key.
            let endpoints = self.current_endpoints();
            if let Ok(new_key) = finder.register(&class, &instance, endpoints, sole) {
                if let Some(t) = self.inner.borrow_mut().targets.get_mut(&instance) {
                    t.key = new_key;
                }
                repaired = true;
            }
        }
        // Lifetime watches are state in the Finder too; restore any it lost.
        let watches: Vec<(u64, String)> = self
            .inner
            .borrow()
            .lifetime_cbs
            .iter()
            .map(|(id, class, _)| (*id, class.clone()))
            .collect();
        for (id, class) in watches {
            if finder.has_watch(id) {
                continue;
            }
            let sender = self.inner.borrow().sender.clone();
            let new_id = finder.watch_class(&class, router_id, sender);
            for entry in self.inner.borrow_mut().lifetime_cbs.iter_mut() {
                if entry.0 == id {
                    entry.0 = new_id;
                }
            }
            repaired = true;
        }
        if repaired {
            // Everyone's endpoints may have changed across the restart.
            let mut inner = self.inner.borrow_mut();
            inner.resolve_cache.clear();
            inner.cache_generation += 1;
        }
    }

    // ----- sending ----------------------------------------------------------

    /// Dispatch an XRL; `cb` fires on this loop with the response.
    pub fn send(&self, el: &mut EventLoop, xrl: Xrl, cb: ResponseCb) {
        self.send_inner(el, xrl, TransportPref::Auto, false, cb);
    }

    /// Dispatch an XRL over a specific protocol family.
    pub fn send_pref(&self, el: &mut EventLoop, xrl: Xrl, pref: TransportPref, cb: ResponseCb) {
        self.send_inner(el, xrl, pref, false, cb);
    }

    /// Dispatch an XRL on the priority lane: never charged against the
    /// overload accounting, never shed at the hard cap, and over UDP it
    /// skips the unpipelined per-peer queue.  For control traffic that must
    /// get through precisely when the data lanes are saturated —
    /// supervision keepalives above all, so a busy-but-alive process is
    /// never misclassified as dead.
    pub fn send_priority(&self, el: &mut EventLoop, xrl: Xrl, cb: ResponseCb) {
        self.send_inner(el, xrl, TransportPref::Auto, true, cb);
    }

    /// The dynamic half of sending: render the path, resolve it through
    /// the cache, choose an endpoint under `pref`, and hand the route to
    /// the send core as a named v1 request.
    fn send_inner(
        &self,
        el: &mut EventLoop,
        xrl: Xrl,
        pref: TransportPref,
        priority: bool,
        cb: ResponseCb,
    ) {
        let path = xrl.path.dotted();
        let route = self.resolve_cached(xrl.target(), &path).and_then(|entry| {
            let (via, lane) = self.choose(&entry, pref)?;
            Ok(InternedCached {
                instance: entry.instance,
                key: entry.key,
                via,
                lane,
                method_id: None,
            })
        });
        match route {
            Ok(route) => self.send_routed(el, route, path, xrl.args, priority, cb),
            Err(e) => cb(el, Err(e)),
        }
    }

    /// Intern an outgoing `(target, path)` call site.  `sig_hash` is this
    /// side's hash of the method signature; `arg_names` are the argument
    /// names in signature order, used to label positional arguments when
    /// falling back to v1 named frames.  Generated client stubs intern
    /// every method once at construction.
    pub fn intern(
        &self,
        target: &str,
        path: &str,
        sig_hash: u64,
        arg_names: &'static [&'static str],
    ) -> InternedCall {
        InternedCall {
            inner: Rc::new(InternedInner {
                target: target.to_string(),
                path: path.to_string(),
                sig_hash,
                arg_names,
                cached: RefCell::new(None),
                generation: Cell::new(0),
            }),
        }
    }

    /// Dispatch through an [`InternedCall`]: the same send core as
    /// [`XrlRouter::send`], with the route taken from the call's cache
    /// instead of resolved per send.  After the first send (and after any
    /// cache flush) the per-route cost is one generation check and one
    /// clone of the cached route — no path rendering, no
    /// `(String, String)` resolve-cache key, no lane label `format!`.
    /// `args` is positional (built with [`XrlArgs::push_value`] in
    /// signature order); when wire v2 was not negotiated with the resolved
    /// peer the atoms are labeled from `arg_names` and the frame goes out
    /// as v1 named.
    pub fn send_interned(
        &self,
        el: &mut EventLoop,
        call: &InternedCall,
        mut args: XrlArgs,
        priority: bool,
        cb: ResponseCb,
    ) {
        // Revalidate the interned route against the cache generation.
        let inner = &call.inner;
        let generation = self.inner.borrow().cache_generation;
        if inner.generation.get() != generation || inner.cached.borrow().is_none() {
            let route = self.resolve_cached(&inner.target, &inner.path);
            match route.and_then(|entry| {
                let (via, lane) = self.choose(&entry, TransportPref::Auto)?;
                let v1_only = self.inner.borrow().wire_v1_only;
                let negotiated = !v1_only && entry.sig_hash == Some(inner.sig_hash);
                Ok(InternedCached {
                    instance: entry.instance,
                    key: entry.key,
                    via,
                    lane,
                    method_id: entry.method_id.filter(|_| negotiated),
                })
            }) {
                Ok(route) => *inner.cached.borrow_mut() = Some(route),
                Err(e) => return cb(el, Err(e)),
            }
            inner.generation.set(generation);
        }
        let route = inner.cached.borrow().clone();
        let route = route.expect("interned cache populated");

        // v1 fallback: the peer never advertised our signature, so label
        // the positional atoms with their names before the frame leaves.
        // A v2 request is found by its method id and carries no path.
        let path = match route.method_id {
            Some(_) => String::new(),
            None => {
                args.label_names(inner.arg_names);
                inner.path.clone()
            }
        };
        self.send_routed(el, route, path, args, priority, cb);
    }

    /// The one send core, whichever way the route was found: admit the
    /// request on the route's lane, then either defer an intra dispatch
    /// or put one request frame on the wire.  An argument block the wire
    /// cannot count fails with [`XrlError::BadArgs`] before it is charged.
    fn send_routed(
        &self,
        el: &mut EventLoop,
        route: InternedCached,
        path: String,
        args: XrlArgs,
        priority: bool,
        cb: ResponseCb,
    ) {
        if let Err(e) = check_counts(&args) {
            return cb(el, Err(e));
        }
        let InternedCached {
            instance,
            key,
            via,
            lane,
            method_id,
        } = route;
        // The ambient trace context rides intra dispatch (no wire to lose
        // it on) and v2 frames (as the trace trailer).  v1 peers never see
        // it: the v1 wire has no trailer, so the context stops here rather
        // than producing a flagged frame the peer can't parse.  Read
        // before `admit`, which may run an Xoff callback.
        let trace = match (via, method_id) {
            (Via::Intra, _) | (_, Some(_)) => xtrace::current(),
            _ => None,
        };
        let Some(seq) = self.admit(el, via, lane, priority, cb) else {
            return;
        };
        let sender = self.router_id();
        let (Via::Tcp(addr) | Via::Udp(addr)) = via else {
            // Same loop: defer so the dispatch is its own event, exactly
            // like a frame arriving from a transport.
            let router = self.clone();
            el.defer(move |el| {
                router.dispatch(
                    el,
                    seq,
                    sender,
                    &instance,
                    key,
                    &path,
                    args,
                    method_id,
                    ReplyPath::Local,
                    priority,
                    trace,
                );
            });
            return;
        };
        let frame = Frame::Request {
            seq,
            sender,
            target: instance,
            key,
            path,
            args,
            method_id,
            priority,
            trace,
        };
        // Only a TCP failure has a cached connection to evict.
        let tcp = matches!(via, Via::Tcp(_)).then_some(addr);
        let written = match tcp {
            Some(addr) => self.tcp_send(el, seq, addr, &frame),
            None => self.udp_send_or_queue(el, addr, frame.clone(), priority),
        };
        match written {
            Ok(()) => self.arm_retry(el, seq, frame),
            Err(e) => self.write_failed(el, seq, tcp, frame, e),
        }
    }

    /// Resolve with caching.  Cache key includes the method path because
    /// the Finder's ACL is per-method (§7).
    fn resolve_cached(&self, target: &str, path: &str) -> Result<ResolveEntry, XrlError> {
        let cache_key = (target.to_string(), path.to_string());
        if let Some(e) = self.inner.borrow().resolve_cache.get(&cache_key) {
            return Ok(e.clone());
        }
        let (finder, requester) = {
            let inner = self.inner.borrow();
            (
                inner.finder.clone(),
                inner
                    .primary_class
                    .clone()
                    .unwrap_or_else(|| "anonymous".into()),
            )
        };
        let entry = finder.resolve(&requester, target, path)?;
        self.inner
            .borrow_mut()
            .resolve_cache
            .insert(cache_key, entry.clone());
        Ok(entry)
    }

    // ----- the write chokepoint ---------------------------------------------

    /// Write one frame through the (optional) fault plan.  *Every* remote
    /// frame this router emits — request, retransmission, response, kill —
    /// passes through here, so injected faults apply uniformly.
    ///
    /// A dropped frame reports `Ok`: silent loss is precisely the failure
    /// mode being modelled, and the retry machinery (not the caller) is
    /// responsible for noticing.
    fn transport_write<T: Transport>(
        &self,
        el: &mut EventLoop,
        transport: &T,
        frame: &Frame,
    ) -> Result<(), XrlError> {
        let decided = {
            let mut inner = self.inner.borrow_mut();
            inner
                .fault
                .as_mut()
                .map(|plan| plan.decide(&transport.lane()))
        };
        let Some(actions) = decided else {
            return transport.send_frame(el, frame);
        };
        let dropped = actions.contains(&FaultAction::Drop);
        let duplicate = actions.contains(&FaultAction::Duplicate);
        let delay = actions.iter().find_map(|a| match a {
            FaultAction::Delay(d) => Some(*d),
            _ => None,
        });
        let disconnect = actions.contains(&FaultAction::Disconnect);

        let mut result = Ok(());
        if !dropped {
            match delay {
                None => {
                    result = transport.send_frame(el, frame);
                    if duplicate {
                        let _ = transport.send_frame(el, frame);
                    }
                }
                Some(d) => {
                    // The frame itself is held back (reordering past
                    // anything sent meanwhile); a duplicate, if any, still
                    // goes now.
                    if duplicate {
                        result = transport.send_frame(el, frame);
                    }
                    let t = transport.clone();
                    let f = frame.clone();
                    el.after(d, move |el| {
                        let _ = t.send_frame(el, &f);
                    });
                }
            }
        }
        if disconnect {
            transport.sever(el);
        }
        result
    }

    /// Write the response to request `seq` back along `path`.  A lost
    /// response is the requester's retry machinery's to notice; a reply
    /// the wire cannot count goes back as the [`XrlError::BadArgs`] it is.
    fn write_response(
        &self,
        el: &mut EventLoop,
        path: &ReplyPath,
        seq: u64,
        result: XrlResult,
        priority: bool,
    ) {
        let frame = Frame::Response {
            seq,
            result: result.and_then(|args| check_counts(&args).map(|()| args)),
            priority,
        };
        let _ = match path {
            ReplyPath::Local => Ok(()),
            ReplyPath::Tcp(conn) => self.transport_write(el, conn, &frame),
            ReplyPath::Udp(peer) => self.transport_write(el, peer, &frame),
        };
    }

    /// Write request `seq`'s frame on the connection to `addr`, recording
    /// the connection in the pending entry first: a frame lost with the
    /// connection's out-buffer must be found by `connection_closed`.
    fn tcp_send(
        &self,
        el: &mut EventLoop,
        seq: u64,
        addr: SocketAddr,
        frame: &Frame,
    ) -> Result<(), XrlError> {
        let conn = self.tcp_conn(addr)?;
        if let Some(p) = self.inner.borrow_mut().pending.get_mut(&seq) {
            p.conn = Some(conn.clone());
        }
        self.transport_write(el, &conn, frame)
    }

    /// Reuse or establish the TCP connection to `addr`.
    fn tcp_conn(&self, addr: SocketAddr) -> Result<Arc<TcpConn>, XrlError> {
        let existing = {
            let inner = self.inner.borrow();
            let tcp = inner
                .tcp
                .as_ref()
                .ok_or_else(|| XrlError::Transport("tcp family not enabled".into()))?;
            tcp.conns.get(&addr).cloned()
        };
        match existing {
            Some(s) => Ok(s),
            None => {
                let raw = TcpStream::connect(addr)
                    .map_err(|e| XrlError::Transport(format!("connect {addr}: {e}")))?;
                let _ = raw.set_nodelay(true);
                let mut inner = self.inner.borrow_mut();
                let conn = spawn_tcp_reader(raw, inner.sender.clone(), inner.tcp_metrics.clone());
                inner
                    .tcp
                    .as_mut()
                    .expect("tcp enabled")
                    .conns
                    .insert(addr, conn.clone());
                Ok(conn)
            }
        }
    }

    /// The UDP family's shared socket.
    fn udp_socket(&self) -> Result<Arc<UdpSocket>, XrlError> {
        let inner = self.inner.borrow();
        let udp = inner.udp.as_ref();
        udp.map(|u| u.socket.clone())
            .ok_or_else(|| XrlError::Transport("udp family not enabled".into()))
    }

    /// UDP is deliberately unpipelined (§8.1): at most one outstanding
    /// request per peer; later requests queue until the response arrives.
    /// Priority frames skip the queue discipline entirely — a keepalive
    /// must not wait behind a saturated data queue.
    fn udp_send_or_queue(
        &self,
        el: &mut EventLoop,
        addr: SocketAddr,
        frame: Frame,
        priority: bool,
    ) -> Result<(), XrlError> {
        let socket = {
            let mut inner = self.inner.borrow_mut();
            let udp = inner
                .udp
                .as_mut()
                .ok_or_else(|| XrlError::Transport("udp family not enabled".into()))?;
            if priority {
                udp.socket.clone()
            } else {
                let q = udp.queues.entry(addr).or_default();
                if q.in_flight {
                    q.queue.push_back(frame);
                    return Ok(());
                }
                q.in_flight = true;
                udp.socket.clone()
            }
        };
        self.transport_write(el, &UdpTransport { socket, peer: addr }, &frame)
    }

    /// Arm the timeout for a just-sent (or just-queued) remote request,
    /// remembering the frame for retransmission.  No-op without a policy.
    fn arm_retry(&self, el: &mut EventLoop, seq: u64, frame: Frame) {
        let Some(policy) = self.inner.borrow().retry else {
            return;
        };
        {
            let mut inner = self.inner.borrow_mut();
            let Some(p) = inner.pending.get_mut(&seq) else {
                return; // already failed or completed
            };
            p.frame = Some(frame);
        }
        self.arm_timeout(el, seq, policy);
    }

    /// (Re-)arm the backoff timeout for `seq`'s current attempt number.
    fn arm_timeout(&self, el: &mut EventLoop, seq: u64, policy: RetryPolicy) {
        let attempt = match self.inner.borrow().pending.get(&seq) {
            Some(p) => p.attempt,
            None => return,
        };
        let router = self.clone();
        let handle = el.after(policy.timeout_for(attempt), move |el| {
            router.on_timeout(el, seq)
        });
        if let Some(p) = self.inner.borrow_mut().pending.get_mut(&seq) {
            if let Some(old) = p.timer.replace(handle) {
                el.cancel(old);
            }
        }
    }

    /// A request's timeout fired: retransmit with the *same* sequence
    /// number (so a late response to any copy still correlates, and the
    /// receiver can dedup), or give up with [`XrlError::Timeout`].
    fn on_timeout(&self, el: &mut EventLoop, seq: u64) {
        let Some(policy) = self.inner.borrow().retry else {
            return;
        };
        let (via, retry) = {
            let mut inner = self.inner.borrow_mut();
            let Some(p) = inner.pending.get_mut(&seq) else {
                return; // answered in the meantime
            };
            p.timer = None;
            if p.attempt >= policy.max_attempts {
                (p.via, None)
            } else {
                p.attempt += 1;
                (p.via, Some(p.frame.clone()))
            }
        };
        match retry {
            None => {
                // Budget spent: for UDP this declares the peer dead, which
                // also evicts its parked queue and fails everything else
                // outstanding toward it (including this request).
                if let Via::Udp(peer) = via {
                    self.udp_peer_dead(el, peer);
                } else {
                    self.fail_pending(el, seq, XrlError::Timeout);
                }
            }
            Some(Some(frame)) => {
                {
                    let inner = self.inner.borrow();
                    if let Some(m) = &inner.metrics {
                        m.retransmit.inc();
                    }
                }
                let written = match via {
                    Via::Intra => Ok(()),
                    Via::Tcp(addr) => self.tcp_send(el, seq, addr, &frame),
                    // Retransmit directly: the in-flight slot for this
                    // peer is already ours.
                    Via::Udp(peer) => self.udp_socket().and_then(|socket| {
                        self.transport_write(el, &UdpTransport { socket, peer }, &frame)
                    }),
                };
                match written {
                    Ok(()) => self.arm_timeout(el, seq, policy),
                    Err(_) => {
                        // The write itself failed (dead socket, refused
                        // connect): treat it like a lost frame — evict any
                        // dead cached connection and keep backing off until
                        // the attempt budget is spent.
                        if let Via::Tcp(addr) = via {
                            if let Some(tcp) = self.inner.borrow_mut().tcp.as_mut() {
                                tcp.conns.remove(&addr);
                            }
                        }
                        self.arm_timeout(el, seq, policy);
                    }
                }
            }
            Some(None) => self.fail_pending(el, seq, XrlError::Timeout),
        }
    }

    /// A send for `seq` failed at the transport layer (dead socket,
    /// refused connect).  With a retry policy the failure is just another
    /// form of frame loss: evict the dead cached connection and let the
    /// armed timeout retransmit over a fresh one.  Without a policy the
    /// caller sees the transport error directly.
    fn write_failed(
        &self,
        el: &mut EventLoop,
        seq: u64,
        addr: Option<SocketAddr>,
        frame: Frame,
        err: XrlError,
    ) {
        if let Some(addr) = addr {
            if let Some(tcp) = self.inner.borrow_mut().tcp.as_mut() {
                tcp.conns.remove(&addr);
            }
        }
        if self.inner.borrow().retry.is_some() {
            self.arm_retry(el, seq, frame);
        } else {
            self.fail_pending(el, seq, err);
        }
    }

    /// Fail one pending request, releasing its timer, UDP slot and
    /// overload charge.
    fn fail_pending(&self, el: &mut EventLoop, seq: u64, err: XrlError) {
        let entry = {
            let mut inner = self.inner.borrow_mut();
            let entry = inner.pending.remove(&seq);
            if entry.is_some() {
                if let Some(m) = &inner.metrics {
                    m.pending.set(inner.pending.len() as i64);
                }
            }
            entry
        };
        let Some(p) = entry else {
            return;
        };
        if let Some(t) = p.timer {
            el.cancel(t);
        }
        if let Some(lane) = &p.counted_lane {
            self.note_lane_dequeue(el, lane);
        }
        if let Via::Udp(peer) = p.via {
            if !p.priority {
                self.udp_pump(el, peer);
            }
        }
        (p.cb)(el, Err(err));
    }

    /// A UDP peer exhausted a request's whole retry budget: declare it
    /// dead.  Its parked per-peer queue is evicted (those frames would
    /// otherwise persist until process exit) and every request outstanding
    /// toward it fails now instead of serially burning its own budget.
    fn udp_peer_dead(&self, el: &mut EventLoop, peer: SocketAddr) {
        let victims: Vec<u64> = {
            let mut inner = self.inner.borrow_mut();
            if let Some(udp) = inner.udp.as_mut() {
                udp.queues.remove(&peer);
            }
            inner
                .pending
                .iter()
                .filter(|(_, p)| p.via == Via::Udp(peer))
                .map(|(s, _)| *s)
                .collect()
        };
        // The queue entry is gone, so the fail path's udp_pump finds
        // nothing to send toward the dead peer.
        for seq in victims {
            self.fail_pending(el, seq, XrlError::Timeout);
        }
    }

    // ----- incoming ----------------------------------------------------------

    /// Entry point for single frames posted by transport reader threads
    /// (UDP datagrams, TCP priority frames).
    pub(crate) fn incoming_frame(el: &mut EventLoop, frame: Frame, reply: ReplyPath) {
        if let Some(router) = el.slot::<XrlRouter>().cloned() {
            router.handle_frame(el, frame, reply);
        }
    }

    /// Entry point for a TCP reader's batch of frames: one loop event
    /// that runs every frame to completion, in arrival order, exactly as
    /// if each had been posted alone.
    pub(crate) fn incoming_batch(el: &mut EventLoop, frames: Vec<Frame>, conn: Arc<TcpConn>) {
        if let Some(router) = el.slot::<XrlRouter>().cloned() {
            for frame in frames {
                router.handle_frame(el, frame, ReplyPath::Tcp(conn.clone()));
            }
        }
    }

    fn handle_frame(&self, el: &mut EventLoop, frame: Frame, reply: ReplyPath) {
        match frame {
            Frame::Request {
                seq,
                sender,
                target,
                key,
                path,
                args,
                method_id,
                priority,
                trace,
            } => self.dispatch(
                el, seq, sender, &target, key, &path, args, method_id, reply, priority, trace,
            ),
            Frame::Response { seq, result, .. } => self.complete(el, seq, result),
            Frame::Kill { .. } => el.stop(),
        }
    }

    /// Dispatch an incoming request to the matching handler, deduplicating
    /// retransmissions so every request runs its handler exactly once.
    ///
    /// `method_id` is present for wire-v2 frames (and interned intra
    /// dispatch): the handler is found by array index in the target's
    /// method table, with no path hashing.  v1 frames go through the
    /// path-keyed index instead.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &self,
        el: &mut EventLoop,
        seq: u64,
        sender_id: u64,
        instance: &str,
        key: [u8; 16],
        path: &str,
        mut args: XrlArgs,
        method_id: Option<u32>,
        reply: ReplyPath,
        priority: bool,
        trace: Option<TraceContext>,
    ) {
        // Only a request that can arrive twice takes a (sender, seq)
        // identity: a datagram (the network duplicates those by itself) or
        // one whose sender marked it as possibly retransmitted.
        let origin = match reply {
            ReplyPath::Local => None,
            ReplyPath::Udp(_) => Some((sender_id, seq)),
            ReplyPath::Tcp(_) => (seq & SEQ_MAY_RECUR != 0).then_some((sender_id, seq)),
        };
        if let Some(dedup_key) = origin {
            let now = el.now();
            let cached = {
                let mut inner = self.inner.borrow_mut();
                match inner.dedup.get(&dedup_key) {
                    Some(DedupState::InFlight) => return, // duplicate; first copy will answer
                    Some(DedupState::Done(result)) => Some(result.clone()),
                    None => {
                        inner.dedup.insert(dedup_key, DedupState::InFlight);
                        inner.dedup_order.push_back((dedup_key, now));
                        // Evict only identities older than the sender's
                        // possible retransmission horizon (bounded by the
                        // retry policy, not a fixed capacity): an entry
                        // still within retry budget must never be dropped,
                        // or a late retransmission would dispatch twice.
                        let window = inner
                            .retry
                            .map(|p| p.retransmission_window())
                            .unwrap_or(DEDUP_DEFAULT_WINDOW);
                        while let Some(((_, _), at)) = inner.dedup_order.front() {
                            if now.duration_since(*at) <= window {
                                break;
                            }
                            if let Some((old, _)) = inner.dedup_order.pop_front() {
                                inner.dedup.remove(&old);
                            }
                        }
                        if let Some(m) = &inner.metrics {
                            m.dedup_entries.set(inner.dedup.len() as i64);
                        }
                        None
                    }
                }
            };
            if let Some(result) = cached {
                // Retransmission of an already-answered request: replay the
                // cached response, don't re-run the handler.
                self.write_response(el, &reply, seq, result, priority);
                return;
            }
        }
        let responder = Responder {
            router: self.clone(),
            seq,
            origin,
            path: reply,
            priority,
            wire_v2: method_id.is_some(),
        };
        let handler = {
            let inner = self.inner.borrow();
            match inner.targets.get(instance) {
                None => Err(XrlError::NoSuchMethod(format!(
                    "no such target: {instance}"
                ))),
                Some(t) if t.key != key => {
                    // "the receiving process will reject XRLs that don't
                    // match the registered method name" (§7).
                    Err(XrlError::BadMethodKey)
                }
                Some(t) => {
                    let entry = match method_id {
                        Some(id) => t.methods.get(id as usize),
                        None => t.by_path.get(path).and_then(|&i| t.methods.get(i as usize)),
                    };
                    match entry {
                        Some(m) => Ok((m.handler.clone(), m.path.clone())),
                        None => Err(XrlError::NoSuchMethod(match method_id {
                            Some(id) => format!("{instance} has no method id {id}"),
                            None => format!("{instance} has no method {path}"),
                        })),
                    }
                }
            }
        };
        match handler {
            Ok((h, method_path)) => {
                // Attach the method path so argument-decode errors name the
                // call they belong to.  For v2 dispatch this is the only
                // place the path string appears — the frame doesn't carry
                // it — and it's a refcount bump, not an allocation.
                args.set_context(method_path);
                // Scope the frame's trace context over the handler: every
                // span the handler records (and every onward send it makes)
                // inherits the caller's causality, then the previous
                // ambient context is restored.
                let prev = xtrace::set_current(trace);
                h(el, &args, responder);
                xtrace::set_current(prev);
            }
            Err(e) => responder.reply(el, Err(e)),
        }
    }

    /// Complete an in-flight request with its response.  Duplicate
    /// responses find no pending entry and are dropped, never
    /// double-dispatched.
    pub(crate) fn complete(&self, el: &mut EventLoop, seq: u64, result: XrlResult) {
        let entry = {
            let mut inner = self.inner.borrow_mut();
            let entry = inner.pending.remove(&seq);
            if entry.is_some() {
                if let Some(m) = &inner.metrics {
                    m.pending.set(inner.pending.len() as i64);
                }
            }
            entry
        };
        let Some(p) = entry else {
            return; // response for a request we gave up on, or a duplicate
        };
        if let Some(t) = p.timer {
            el.cancel(t);
        }
        if let Some(lane) = &p.counted_lane {
            self.note_lane_dequeue(el, lane);
        }
        // UDP flow control: the response frees the peer's slot (priority
        // frames never held it).
        if let Via::Udp(peer) = p.via {
            if !p.priority {
                self.udp_pump(el, peer);
            }
        }
        (p.cb)(el, result);
    }

    /// Send the next queued UDP request to `peer`, if any.
    fn udp_pump(&self, el: &mut EventLoop, peer: SocketAddr) {
        let (socket, frame) = {
            let mut inner = self.inner.borrow_mut();
            let Some(udp) = inner.udp.as_mut() else {
                return;
            };
            let socket = udp.socket.clone();
            let Some(q) = udp.queues.get_mut(&peer) else {
                return;
            };
            match q.queue.pop_front() {
                Some(f) => {
                    q.in_flight = true;
                    (socket, f)
                }
                None => {
                    q.in_flight = false;
                    return;
                }
            }
        };
        let _ = self.transport_write(el, &UdpTransport { socket, peer }, &frame);
    }

    /// Deliver a kill-family signal to `target` (§6.3's "kill protocol
    /// family, which is capable of sending just one message type — a UNIX
    /// signal — to components within a host").  The receiving loop stops.
    pub fn send_kill(&self, el: &mut EventLoop, target: &str, signal: u32) -> Result<(), XrlError> {
        let entry = self.resolve_cached(target, "!kill")?;
        let kill = Frame::Kill { signal };
        match self.choose(&entry, TransportPref::Auto)?.0 {
            Via::Intra => {
                el.defer(|el| el.stop());
                Ok(())
            }
            Via::Tcp(addr) => {
                let conn = self.tcp_conn(addr)?;
                self.transport_write(el, &conn, &kill)
            }
            Via::Udp(peer) => {
                let socket = self.udp_socket()?;
                self.transport_write(el, &UdpTransport { socket, peer }, &kill)
            }
        }
    }

    /// A TCP connection died: retry requests in flight on it (when a
    /// [`RetryPolicy`] allows — reconnecting transparently), else fail
    /// them.  Reached from the connection's reader thread (EOF, reset) and
    /// from a failed flush; whichever comes second finds nothing to do.
    pub(crate) fn connection_closed(el: &mut EventLoop, conn: &Arc<TcpConn>) {
        let router = match el.slot::<XrlRouter>() {
            Some(r) => r.clone(),
            None => return,
        };
        let (affected, retry_enabled) = {
            let mut inner = router.inner.borrow_mut();
            let retry_enabled = inner.retry.is_some();
            if let Some(tcp) = inner.tcp.as_mut() {
                // Evict it, unless a send already did and reconnected.
                tcp.conns.retain(|_, c| !Arc::ptr_eq(c, conn));
            }
            let affected: Vec<(u64, bool)> = inner
                .pending
                .iter()
                .filter(|(_, p)| p.conn.as_ref().is_some_and(|c| Arc::ptr_eq(c, conn)))
                .map(|(seq, p)| (*seq, p.frame.is_some()))
                .collect();
            (affected, retry_enabled)
        };
        for (seq, has_frame) in affected {
            if retry_enabled && has_frame {
                // The dead connection is already evicted; each request's
                // armed backoff timer will retransmit over a fresh one
                // (`tcp_conn` reconnects on demand).  Retransmitting the
                // whole herd *here* would roll the fault dice for every
                // pending request at once and cascade.
                let unarmed = router
                    .inner
                    .borrow()
                    .pending
                    .get(&seq)
                    .is_some_and(|p| p.timer.is_none());
                if unarmed {
                    if let Some(policy) = router.inner.borrow().retry {
                        router.arm_timeout(el, seq, policy);
                    }
                }
            } else {
                router.fail_pending(el, seq, XrlError::TargetDied);
            }
        }
    }

    // ----- lifetime notification ---------------------------------------------

    /// Watch a component class for starts/stops (§6.2).  The callback runs
    /// on this loop.  Returns a watch id for [`XrlRouter::unwatch`].
    pub fn watch_class<F>(&self, class: &str, cb: F) -> u64
    where
        F: Fn(&mut EventLoop, &LifetimeEvent) + 'static,
    {
        let (finder, router_id, sender) = {
            let inner = self.inner.borrow();
            (inner.finder.clone(), inner.router_id, inner.sender.clone())
        };
        let id = finder.watch_class(class, router_id, sender);
        self.inner
            .borrow_mut()
            .lifetime_cbs
            .push((id, class.to_string(), Rc::new(cb)));
        id
    }

    /// Remove a lifetime watch.
    pub fn unwatch(&self, watch_id: u64) {
        let finder = self.inner.borrow().finder.clone();
        finder.unwatch(watch_id);
        self.inner
            .borrow_mut()
            .lifetime_cbs
            .retain(|(id, _, _)| *id != watch_id);
    }

    /// Fan a lifetime event out to this loop's matching callbacks.
    pub(crate) fn deliver_lifetime_event(el: &mut EventLoop, ev: &LifetimeEvent) {
        let router = match el.slot::<XrlRouter>() {
            Some(r) => r.clone(),
            None => return,
        };
        #[allow(clippy::type_complexity)]
        let cbs: Vec<Rc<dyn Fn(&mut EventLoop, &LifetimeEvent)>> = router
            .inner
            .borrow()
            .lifetime_cbs
            .iter()
            .filter(|(_, class, _)| class == &ev.class)
            .map(|(_, _, cb)| cb.clone())
            .collect();
        for cb in cbs {
            cb(el, ev);
        }
    }

    /// Drop every cache entry (posted by the Finder on ACL change).
    pub(crate) fn flush_cache_on(el: &mut EventLoop) {
        if let Some(r) = el.slot::<XrlRouter>() {
            let r = r.clone();
            let mut inner = r.inner.borrow_mut();
            inner.resolve_cache.clear();
            inner.cache_generation += 1;
        }
    }

    /// Drop cache entries for a class (posted by the Finder on change).
    pub(crate) fn invalidate_cache_on(el: &mut EventLoop, class: &str) {
        if let Some(r) = el.slot::<XrlRouter>() {
            let r = r.clone();
            let mut inner = r.inner.borrow_mut();
            inner.resolve_cache.retain(|_, e| e.class != class);
            // Interned calls can't be invalidated per class (they hold no
            // registry); moving the generation makes every one re-resolve,
            // which hits the still-warm resolve cache for other classes.
            inner.cache_generation += 1;
        }
    }

    /// Number of resolve-cache entries (test/diagnostic).
    pub fn cache_len(&self) -> usize {
        self.inner.borrow().resolve_cache.len()
    }

    /// Drop every resolve-cache entry (test/diagnostic).
    pub fn flush_resolve_cache(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.resolve_cache.clear();
        inner.cache_generation += 1;
    }

    /// Number of remembered request identities in the receiver-side dedup
    /// cache (test/diagnostic).
    pub fn dedup_len(&self) -> usize {
        self.inner.borrow().dedup.len()
    }

    /// Deregister everything, stop transports, and fail outstanding
    /// requests.  The router is unusable afterwards.
    pub fn shutdown(&self, el: &mut EventLoop) {
        let already = {
            let mut inner = self.inner.borrow_mut();
            std::mem::replace(&mut inner.shut_down, true)
        };
        if already {
            return;
        }
        if let Some(h) = self.inner.borrow_mut().watchdog.take() {
            el.cancel(h);
        }
        let (finder, router_id, instances, watches) = {
            let inner = self.inner.borrow();
            (
                inner.finder.clone(),
                inner.router_id,
                inner.targets.keys().cloned().collect::<Vec<_>>(),
                inner
                    .lifetime_cbs
                    .iter()
                    .map(|(id, _, _)| *id)
                    .collect::<Vec<_>>(),
            )
        };
        for i in &instances {
            finder.deregister(i);
        }
        for w in watches {
            finder.unwatch(w);
        }
        finder.remove_cache_holder(router_id);

        // Fail callers waiting on us.
        let pending: Vec<u64> = self.inner.borrow().pending.keys().copied().collect();
        for seq in pending {
            self.fail_pending(el, seq, XrlError::TargetDied);
        }

        // Frames buffered by the final turn (a reply sent just before the
        // loop stopped) leave before the sockets close.
        flush_dirty(el);

        // Stop transports.  The accept thread polls its stop flag, so no
        // wake-up connection is needed.
        let mut inner = self.inner.borrow_mut();
        if let Some(tcp) = inner.tcp.take() {
            tcp.stop.store(true, Ordering::SeqCst);
            for conn in tcp.conns.values() {
                conn.close();
            }
        }
        if let Some(udp) = inner.udp.take() {
            udp.stop.store(true, Ordering::SeqCst);
            // Wake the reader with a runt datagram so it sees the flag.
            let _ = udp.socket.send_to(&[0u8; 1], udp.local_addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retransmission_window_bounds_every_retry() {
        // The window must cover the sum of all armed backoffs plus one
        // max_timeout of transit grace — the latest instant at which a
        // retransmission of attempt `max_attempts` can still arrive.
        let p = RetryPolicy {
            max_attempts: 4,
            base_timeout: Duration::from_millis(100),
            max_timeout: Duration::from_millis(500),
        };
        // Backoffs: 100, 200, 400, 500 (capped) = 1200ms; + 500ms grace.
        assert_eq!(p.retransmission_window(), Duration::from_millis(1700));
        // A one-shot policy still leaves transit grace.
        let one = RetryPolicy {
            max_attempts: 1,
            base_timeout: Duration::from_millis(50),
            max_timeout: Duration::from_millis(80),
        };
        assert_eq!(one.retransmission_window(), Duration::from_millis(130));
        // The default policy: backoffs 100+200+400+800+1600+2000+2000+2000
        // = 9100ms, plus 2000ms transit grace.
        let d = RetryPolicy::default();
        assert_eq!(d.retransmission_window(), Duration::from_millis(11_100));
    }

    #[test]
    fn default_dedup_window_covers_default_retry_policy() {
        // A receiver with no explicit policy must still remember request
        // identities long enough for a sender using the *default* policy.
        assert!(DEDUP_DEFAULT_WINDOW >= RetryPolicy::default().retransmission_window());
    }
}
