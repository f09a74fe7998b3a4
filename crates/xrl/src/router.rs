//! The XRL router: per-loop dispatcher for outgoing and incoming XRLs.
//!
//! One [`XrlRouter`] serves each event loop ("process").  It hosts one or
//! more *targets* (component instances — "most processes contain more than
//! one component", §6.1), registers them with the [`Finder`], resolves and
//! caches outgoing XRLs, moves frames over the enabled protocol families,
//! and correlates responses back to caller callbacks.
//!
//! The families themselves — listener, connections, sockets — live behind
//! [`crate::transport`]'s `Families`.  The router picks an endpoint (a
//! `Via`), asks for the transport toward it, and writes frames to that one
//! `Remote` value; it never names a socket.
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
//! Transports can lose, duplicate, delay or reorder frames — processes
//! crash and sockets reset, or a [`FaultPlan`] injects faults at the one
//! write chokepoint, [`XrlRouter::transport_write`].  Dispatch stays
//! *exactly-once*: a [`RetryPolicy`] retransmits a request under its own
//! sequence number with exponential backoff until it is answered or out of
//! attempts ([`XrlError::Timeout`]); a receiver replays its cached answer
//! to a copy of a request that can recur (its sender set
//! [`SEQ_MAY_RECUR`], or it is a datagram); a duplicate response finds its
//! request gone.
//!
//! Where that state lives: every request's record (attempt, retransmission
//! copy, connection, UDP parking), the lane loads and the receiver's dedup
//! window are one plain state machine, [`crate::exchange`].  The router
//! feeds it sends, frames, timer firings, dead connections and shutdown,
//! and performs what it answers: write a frame, arm a timer, complete a
//! request, signal a lane.
//!
//! # Overload control
//!
//! Per transport lane the exchange core counts the requests in flight
//! (parked ones included) against the [`QueuePolicy`]
//! ([`XrlRouter::set_overload_policy`]).  Crossing the high watermark emits
//! [`CongestionSignal::Xoff`] to the callback installed with
//! [`XrlRouter::set_congestion_cb`], draining to the low one
//! [`CongestionSignal::Xon`]; past the hard cap a data send fails fast with
//! [`XrlError::Overloaded`].  Producers that heed the signals keep their
//! backlog in their own queues (BGP's fanout, the RIB's redistribution
//! watcher), so the XRL plane holds a window of requests, not a table of
//! them.  [`XrlRouter::send_priority`] bypasses all of it — a keepalive
//! answers even when every data lane is parked.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use xorp_event::{EventLoop, EventSender, TimerHandle};
use xorp_profiler::tracing as xtrace;
use xorp_profiler::Metrics;

use crate::atom::XrlArgs;
use crate::error::XrlError;
pub use crate::exchange::{CongestionSignal, QueuePolicy, RetryPolicy, SEQ_MAY_RECUR};
use crate::exchange::{Effect, Exchange, Verdict};
use crate::fault::{FaultAction, FaultConfig, FaultPlan};
use crate::finder::{Endpoint, Finder, LifetimeEvent, ResolveEntry};
use crate::marshal::Frame;
use crate::transport::{Families, Remote, Via};
use crate::xrl::Xrl;
use crate::XrlResult;

/// Callback invoked on the sender's loop when a response (or failure)
/// arrives.
pub type ResponseCb = Box<dyn FnOnce(&mut EventLoop, XrlResult)>;

/// Handler for an incoming XRL method; generated decoders read arguments in place.
pub type Handler = Rc<dyn Fn(&mut EventLoop, &XrlArgs, Responder)>;

/// A lifetime watch's callback.
type LifetimeCb = Rc<dyn Fn(&mut EventLoop, &LifetimeEvent)>;

/// Transport preference for an outgoing XRL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportPref {
    /// Intra-process when co-located, else TCP, else in-memory, else UDP.
    #[default]
    Auto,
    /// Force intra-process direct dispatch (error if not co-located).
    Intra,
    /// Force TCP.
    Tcp,
    /// Force UDP (unpipelined, §8.1).
    Udp,
    /// Force the in-memory family.
    Mem,
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
    /// The transport the request arrived on; `None` when the caller is on
    /// this same loop and completes through the local router.
    path: Option<Remote>,
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
            ..
        } = self;
        if let Some(id) = origin {
            // A retransmission of this request replays the response
            // instead of re-running the handler.
            router.inner.borrow_mut().ex.replied(id, &result);
        }
        match path {
            None => router.step(el, |ex| ex.complete(seq, result)),
            Some(remote) => router.write_response(el, &remote, seq, result, priority),
        }
    }

    /// Shorthand for an empty-args success.
    pub fn ok(self, el: &mut EventLoop) {
        self.reply(el, Ok(XrlArgs::new()));
    }
}

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

struct RouterInner {
    router_id: u64,
    finder: Finder,
    sender: EventSender,
    targets: HashMap<String, Target>,
    primary_class: Option<String>,
    /// Every request in flight, lane load and received identity.
    ex: Exchange<ResponseCb, Remote>,
    /// Resolve cache by target, then method path: looked up by borrowed
    /// keys, and a target name cannot alias another entry.
    resolve_cache: HashMap<String, HashMap<String, ResolveEntry>>,
    /// Bumped whenever `resolve_cache` is flushed or partially invalidated
    /// (and on wire-mode changes).  [`InternedCall`]s remember the
    /// generation they resolved under and re-resolve when it moves — no
    /// registry of interned calls to walk.
    cache_generation: u64,
    /// Never emit wire-v2 frames and never advertise signatures: this
    /// router behaves like a pre-v2 peer.  For mixed-version testing.
    wire_v1_only: bool,
    families: Families,
    fault: Option<FaultPlan>,
    /// Receives Xoff/Xon as lanes cross their watermarks.
    #[allow(clippy::type_complexity)]
    congestion_cb: Option<Rc<dyn Fn(&mut EventLoop, &CongestionSignal)>>,
    watchdog: Option<TimerHandle>,
    /// Lifetime watches: id, class, callback.
    lifetime_cbs: Vec<(u64, String, LifetimeCb)>,
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
    /// Drop the resolve-cache entries `keep` refuses and move the cache
    /// generation.  Every [`InternedCall`] then re-resolves — they hold no
    /// registry to invalidate one class in — which hits the still-warm
    /// cache for whatever was kept.
    fn invalidate_routes(&mut self, keep: impl Fn(&ResolveEntry) -> bool) {
        for paths in self.resolve_cache.values_mut() {
            paths.retain(|_, e| keep(e));
        }
        self.cache_generation += 1;
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
        let families = Families::new(sender.clone(), finder.clone());
        let router = XrlRouter {
            inner: Rc::new(RefCell::new(RouterInner {
                router_id,
                finder,
                sender,
                targets: HashMap::new(),
                primary_class: None,
                ex: Exchange::new(),
                resolve_cache: HashMap::new(),
                cache_generation: 1,
                wire_v1_only: false,
                families,
                fault: None,
                congestion_cb: None,
                watchdog: None,
                lifetime_cbs: Vec::new(),
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
        inner.families.set_metrics(metrics);
        inner.ex.set_metrics(metrics);
    }

    // ----- failure-handling knobs -------------------------------------------

    /// Install a deterministic fault plan on this router's *outgoing*
    /// frames (requests and responses alike).  Replaces any existing plan.
    pub fn set_fault_plan(&self, config: FaultConfig) {
        let mut inner = self.inner.borrow_mut();
        inner.fault = Some(FaultPlan::new(config));
        inner.ex.may_recur = true;
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
        self.inner.borrow_mut().ex.retry = policy;
    }

    // ----- overload control -------------------------------------------------

    /// Retune the bounds on every transport lane's outstanding-request
    /// queue ([`QueuePolicy::default`] until called).  Accounting carries
    /// over: a lane already in Xoff emits its `Xon` once it drains to the
    /// new low watermark.
    pub fn set_overload_policy(&self, policy: QueuePolicy) {
        self.inner.borrow_mut().ex.overload = policy;
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
        self.inner.borrow().ex.lane_depth(lane)
    }

    /// Whether any lane is currently Xoff — what the keepalive responder
    /// reports back to the supervisor as "busy but alive".
    pub fn any_lane_congested(&self) -> bool {
        self.inner.borrow().ex.any_lane_congested()
    }

    /// Data frames shed at the hard cap so far (diagnostic).
    pub fn shed_count(&self) -> u64 {
        self.inner.borrow().ex.shed
    }

    /// Total outstanding requests (diagnostic).
    pub fn pending_len(&self) -> usize {
        self.inner.borrow().ex.pending_len()
    }

    /// Approximate bytes held by the XRL layer for in-flight traffic:
    /// per-request bookkeeping (excluding callback captures) and the
    /// frames kept for parking or retransmission.  This is the queue
    /// memory the hard cap bounds.  Walks the requests, so sample it
    /// sparsely.
    pub fn retained_frame_bytes(&self) -> usize {
        self.inner.borrow().ex.retained_bytes()
    }

    /// Total requests parked behind a UDP peer's request in flight
    /// (diagnostic; the dead-peer eviction test watches this drain).
    pub fn udp_queue_depth(&self) -> usize {
        self.inner.borrow().ex.parked_len()
    }

    /// The transport lane an Auto-preference send to `target`/`path` would
    /// use right now — `None` for intra-process dispatch (intra lanes have
    /// no queue and are never congested).  Lets a producer map a
    /// [`CongestionSignal`]'s lane label back to the consumer it feeds.
    pub fn lane_of(&self, target: &str, path: &str) -> Option<String> {
        let route = self.route(target, path, TransportPref::Auto, None).ok()?;
        route.lane.map(|l| l.to_string())
    }

    /// Resolve `target`/`path` through the cache and pick the endpoint
    /// `pref` allows, with its lane label.  `Auto` takes intra dispatch
    /// when the target is co-located, else TCP, else UDP; the forced
    /// preferences take their own family or nothing.  `sig_hash` is the
    /// caller's signature hash, if it has one: the route carries the
    /// target's method id — positional wire-v2 frames — only when the
    /// target advertised the same hash.
    fn route(
        &self,
        target: &str,
        path: &str,
        pref: TransportPref,
        sig_hash: Option<u64>,
    ) -> Result<InternedCached, XrlError> {
        let entry = self.resolve_cached(target, path)?;
        let (my_id, v1_only) = {
            let inner = self.inner.borrow();
            (inner.router_id, inner.wire_v1_only)
        };
        let (mut intra, mut tcp, mut udp, mut mem) = (false, None, None, None);
        for ep in &entry.endpoints {
            match ep {
                Endpoint::Intra { router_id } if *router_id == my_id => intra = true,
                Endpoint::Tcp(a) => tcp = Some(Via::Tcp(*a)),
                Endpoint::Udp(a) => udp = Some(Via::Udp(*a)),
                Endpoint::Mem(id) => mem = Some(Via::Mem(*id)),
                Endpoint::Intra { .. } => {}
            }
        }
        let intra = intra.then_some(Via::Intra);
        let via = match pref {
            TransportPref::Auto => intra.or(tcp).or(mem).or(udp),
            TransportPref::Intra => intra,
            TransportPref::Tcp => tcp,
            TransportPref::Udp => udp,
            TransportPref::Mem => mem,
        }
        .ok_or_else(|| {
            XrlError::Transport(format!(
                "no usable endpoint for {} via {pref:?}",
                entry.instance
            ))
        })?;
        let negotiated = !v1_only && sig_hash.is_some() && entry.sig_hash == sig_hash;
        Ok(InternedCached {
            instance: entry.instance,
            key: entry.key,
            via,
            lane: via.lane(),
            method_id: entry.method_id.filter(|_| negotiated),
        })
    }

    // ----- transports ------------------------------------------------------

    /// Enable the TCP protocol family; returns the listening address.
    pub fn enable_tcp(&self) -> Result<SocketAddr, XrlError> {
        self.inner.borrow_mut().families.enable_tcp()
    }

    /// Enable the UDP protocol family; returns the bound address.
    pub fn enable_udp(&self) -> Result<SocketAddr, XrlError> {
        self.inner.borrow_mut().families.enable_udp()
    }

    /// Enable the in-memory family: peers on other loops of this process
    /// that enabled it too are reached with no socket.  Returns the
    /// endpoint id, numbered by the Finder.
    pub fn enable_mem(&self) -> u64 {
        self.inner.borrow_mut().families.enable_mem()
    }

    // ----- targets and handlers ---------------------------------------------

    /// The endpoints a registration should advertise right now.
    fn current_endpoints(&self) -> Vec<Endpoint> {
        let inner = self.inner.borrow();
        let intra = Endpoint::Intra {
            router_id: inner.router_id,
        };
        std::iter::once(intra)
            .chain(inner.families.endpoints())
            .collect()
    }

    /// Register a component instance of `class` with the Finder,
    /// advertising every enabled transport plus intra-process dispatch.
    pub fn register_target(&self, class: &str, instance: &str, sole: bool) -> Result<(), XrlError> {
        let endpoints = self.current_endpoints();
        let inner = &mut *self.inner.borrow_mut();
        let key = inner.finder.register(class, instance, endpoints, sole)?;
        inner.primary_class.get_or_insert_with(|| class.to_string());
        let (class, methods, by_path) = (class.to_string(), Vec::new(), HashMap::new());
        let target = Target {
            class,
            key,
            sole,
            methods,
            by_path,
        };
        inner.targets.insert(instance.to_string(), target);
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
        let inner = &mut *self.inner.borrow_mut();
        let target = inner.targets.get_mut(instance);
        let target = target.unwrap_or_else(|| panic!("no such target: {instance}"));
        let method_id = match target.by_path.get(path) {
            Some(&i) => {
                // Re-registration replaces the handler in its slot so
                // existing interned ids stay valid.
                target.methods[i as usize].handler = h;
                i
            }
            None => {
                let i = target.methods.len() as u32;
                target.by_path.insert(path.to_string(), i);
                let path = Arc::from(path);
                target.methods.push(MethodEntry { path, handler: h });
                i
            }
        };
        if let (Some(hash), false) = (sig_hash, inner.wire_v1_only) {
            inner.finder.advertise_sig(instance, path, method_id, hash);
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
        inner.invalidate_routes(|_| true);
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
        if self.inner.borrow().ex.shut_down {
            return;
        }
        let endpoints = self.current_endpoints();
        let inner = &mut *self.inner.borrow_mut();
        let (finder, mut repaired) = (inner.finder.clone(), false);
        for (instance, t) in inner.targets.iter_mut() {
            // Registration gone (or key superseded): re-register with fresh
            // endpoints and adopt the new key.
            if !finder.check_key(instance, &t.key) {
                let registered = finder.register(&t.class, instance, endpoints.clone(), t.sole);
                if let Ok(key) = registered {
                    (t.key, repaired) = (key, true);
                }
            }
        }
        // Lifetime watches are state in the Finder too; restore any it lost.
        for (id, class, _) in inner.lifetime_cbs.iter_mut() {
            if !finder.has_watch(*id) {
                *id = finder.watch_class(class, inner.router_id, inner.sender.clone());
                repaired = true;
            }
        }
        if repaired {
            // Everyone's endpoints may have changed across the restart.
            inner.invalidate_routes(|_| false);
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
        match self.route(xrl.target(), &path, pref, None) {
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
    /// `args` is positional (written in signature order); when wire v2 was
    /// not negotiated with the resolved peer the block is relabelled from
    /// `arg_names` and the frame goes out as v1 named.
    pub fn send_interned(
        &self,
        el: &mut EventLoop,
        call: &InternedCall,
        args: XrlArgs,
        priority: bool,
        cb: ResponseCb,
    ) {
        // Revalidate the interned route against the cache generation.
        let inner = &call.inner;
        let generation = self.inner.borrow().cache_generation;
        if inner.generation.get() != generation || inner.cached.borrow().is_none() {
            let sig_hash = Some(inner.sig_hash);
            match self.route(&inner.target, &inner.path, TransportPref::Auto, sig_hash) {
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
        let (path, args) = match route.method_id {
            Some(_) => (String::new(), args),
            None => (inner.path.clone(), args.into_layout(true, inner.arg_names)),
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
        if let Err(e) = args.counted() {
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
        // than producing a flagged frame the peer can't parse.
        let trace = match (via, method_id) {
            (Via::Intra, _) | (_, Some(_)) => xtrace::current(),
            _ => None,
        };
        let (admitted, sender) = {
            let inner = &mut *self.inner.borrow_mut();
            (inner.ex.admit(via, lane, priority, cb), inner.router_id)
        };
        let seq = match admitted {
            Ok(seq) => seq,
            Err((cb, e)) => return cb(el, Err(e)),
        };
        let request = Frame::Request {
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
        if via != Via::Intra {
            return self.step(el, |ex| ex.launch(seq, via, request));
        }
        // Same loop: defer so the dispatch is its own event, exactly like a
        // frame arriving from a transport.  Intra sends are never charged,
        // so admitting one queued no effect.
        let router = self.clone();
        el.defer(move |el| router.dispatch(el, request, None));
    }

    /// Resolve with caching.  Cache key includes the method path because
    /// the Finder's ACL is per-method (§7).
    fn resolve_cached(&self, target: &str, path: &str) -> Result<ResolveEntry, XrlError> {
        let inner = &mut *self.inner.borrow_mut();
        if let Some(e) = inner.resolve_cache.get(target).and_then(|p| p.get(path)) {
            return Ok(e.clone());
        }
        let requester = inner.primary_class.as_deref().unwrap_or("anonymous");
        let entry = inner.finder.resolve(requester, target, path)?;
        let paths = inner.resolve_cache.entry(target.to_string()).or_default();
        paths.insert(path.to_string(), entry.clone());
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
    fn transport_write(
        &self,
        el: &mut EventLoop,
        transport: &Remote,
        frame: &Frame,
    ) -> Result<(), XrlError> {
        let decided = self
            .inner
            .borrow_mut()
            .fault
            .as_mut()
            .map(|plan| plan.decide(&transport.lane()));
        let Some(actions) = decided else {
            return transport.send_frame(el, frame);
        };
        let delay = actions.iter().find_map(|a| match a {
            FaultAction::Delay(d) => Some(*d),
            _ => None,
        });
        let duplicate = actions.contains(&FaultAction::Duplicate);
        let mut result = Ok(());
        if !actions.contains(&FaultAction::Drop) {
            // A delayed frame is held back (reordering past anything sent
            // meanwhile); a duplicate, if any, still goes now.
            if delay.is_none() || duplicate {
                result = transport.send_frame(el, frame);
            }
            if let Some(d) = delay {
                let (t, f) = (transport.clone(), frame.clone());
                el.after(d, move |el| _ = t.send_frame(el, &f));
            } else if duplicate {
                let _ = transport.send_frame(el, frame);
            }
        }
        if actions.contains(&FaultAction::Disconnect) {
            transport.sever(el);
        }
        result
    }

    /// Write the response to request `seq` back on `remote`.  A lost
    /// response is the requester's retry machinery's to notice; a reply
    /// the wire cannot count goes back as the [`XrlError::BadArgs`] it is.
    fn write_response(
        &self,
        el: &mut EventLoop,
        remote: &Remote,
        seq: u64,
        result: XrlResult,
        priority: bool,
    ) {
        let frame = Frame::Response {
            seq,
            result: result.and_then(|args| args.counted().map(|()| args)),
            priority,
        };
        let _ = self.transport_write(el, remote, &frame);
    }

    // ----- the exchange core's effects --------------------------------------

    /// Feed the exchange core one input, then perform what it queued.
    fn step(&self, el: &mut EventLoop, input: impl FnOnce(&mut Exchange<ResponseCb, Remote>)) {
        input(&mut self.inner.borrow_mut().ex);
        self.perform(el);
    }

    /// Perform the exchange core's effects in queue order, each under a
    /// borrow of its own: a callback one runs may feed the core again, and
    /// what that queues is performed in turn.
    fn perform(&self, el: &mut EventLoop) {
        loop {
            let effect = self.inner.borrow_mut().ex.next_effect();
            match effect {
                None => return,
                Some(Effect::Write { seq, via, frame }) => self.write_request(el, seq, via, frame),
                Some(Effect::Arm {
                    seq,
                    attempt,
                    after,
                }) => {
                    let router = self.clone();
                    el.after(after, move |el| {
                        router.step(el, |ex| ex.timer_fired(seq, attempt))
                    });
                }
                Some(Effect::Complete { payload, result }) => payload(el, result),
                Some(Effect::Signal(signal)) => {
                    let cb = self.inner.borrow().congestion_cb.clone();
                    if let Some(cb) = cb {
                        cb(el, &signal);
                    }
                }
            }
        }
    }

    /// Write request `seq`'s frame toward `via` and tell the core how it
    /// went.  A failed write evicts the connection; the next send
    /// reconnects.
    fn write_request(&self, el: &mut EventLoop, seq: u64, via: Via, frame: Frame) {
        let connected = self.inner.borrow_mut().families.connect(via);
        let (conn, outcome) = match connected {
            Ok(remote) => {
                let outcome = self.transport_write(el, &remote, &frame);
                if outcome.is_err() {
                    self.inner.borrow_mut().families.evict(&remote);
                }
                (Some(remote), outcome)
            }
            Err(e) => (None, Err(e)),
        };
        self.inner
            .borrow_mut()
            .ex
            .written(seq, conn, frame, outcome);
    }

    // ----- incoming ----------------------------------------------------------

    /// Entry point for the frames a transport reader thread posts: a TCP
    /// reader's batch, or one datagram or priority frame.  One loop event
    /// runs every frame to completion, in arrival order, exactly as if each
    /// had been posted alone; requests are answered on `remote`.
    pub(crate) fn incoming(
        el: &mut EventLoop,
        frames: impl IntoIterator<Item = Frame>,
        remote: Remote,
    ) {
        let Some(router) = el.slot::<XrlRouter>().cloned() else {
            return;
        };
        for frame in frames {
            match frame {
                Frame::Response { seq, result, .. } => {
                    router.step(el, |ex| ex.complete(seq, result))
                }
                Frame::Kill { .. } => el.stop(),
                request => router.dispatch(el, request, Some(remote.clone())),
            }
        }
    }

    /// Dispatch an incoming request to the matching handler, deduplicating
    /// retransmissions so every request runs its handler exactly once.
    ///
    /// `method_id` is present for wire-v2 frames (and interned intra
    /// dispatch): the handler is found by array index in the target's
    /// method table, with no path hashing.  v1 frames go through the
    /// path-keyed index instead.  `reply` is the transport to answer on,
    /// `None` for a request from this loop.
    fn dispatch(&self, el: &mut EventLoop, request: Frame, reply: Option<Remote>) {
        let Frame::Request {
            seq,
            sender,
            target: instance,
            key,
            path,
            mut args,
            method_id,
            priority,
            trace,
        } = request
        else {
            return;
        };
        // Only a request that can arrive twice takes a (sender, seq)
        // identity: a datagram (the network duplicates those by itself) or
        // one whose sender marked it as possibly retransmitted.
        let origin = match &reply {
            Some(r) if r.is_datagram() || seq & SEQ_MAY_RECUR != 0 => Some((sender, seq)),
            _ => None,
        };
        if let (Some(id), Some(remote)) = (origin, &reply) {
            let verdict = self.inner.borrow_mut().ex.request_in(id, el.now());
            match verdict {
                Verdict::Dispatch => {}
                Verdict::Drop => return, // the first copy's reply answers it
                Verdict::Replay(result) => {
                    return self.write_response(el, remote, seq, result, priority)
                }
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
            let index = |t: &Target| method_id.or_else(|| t.by_path.get(&path).copied());
            match inner.targets.get(&instance) {
                None => Err(XrlError::NoSuchMethod(format!(
                    "no such target: {instance}"
                ))),
                // "the receiving process will reject XRLs that don't match
                // the registered method name" (§7).
                Some(t) if t.key != key => Err(XrlError::BadMethodKey),
                Some(t) => match index(t).and_then(|i| t.methods.get(i as usize)) {
                    Some(m) => Ok((m.handler.clone(), m.path.clone())),
                    None => Err(XrlError::NoSuchMethod(match method_id {
                        Some(id) => format!("{instance} has no method id {id}"),
                        None => format!("{instance} has no method {path}"),
                    })),
                },
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

    /// Deliver a kill-family signal to `target` (§6.3's "kill protocol
    /// family, which is capable of sending just one message type — a UNIX
    /// signal — to components within a host").  The receiving loop stops.
    pub fn send_kill(&self, el: &mut EventLoop, target: &str, signal: u32) -> Result<(), XrlError> {
        let via = self.route(target, "!kill", TransportPref::Auto, None)?.via;
        if via == Via::Intra {
            el.defer(|el| el.stop());
            return Ok(());
        }
        let remote = self.inner.borrow_mut().families.connect(via)?;
        self.transport_write(el, &remote, &Frame::Kill { signal })
    }

    /// A connection died: evict it, and let the exchange core fail or
    /// retransmit what it carried.  Reached from the connection's reader
    /// thread (EOF, reset) and from a failed flush; whichever comes second
    /// finds nothing to do.
    pub(crate) fn connection_closed(el: &mut EventLoop, conn: &Remote) {
        let Some(router) = el.slot::<XrlRouter>().cloned() else {
            return;
        };
        router.inner.borrow_mut().families.evict(conn);
        router.step(el, |ex| ex.connection_closed(conn));
    }

    // ----- lifetime notification ---------------------------------------------

    /// Watch a component class for starts/stops (§6.2).  The callback runs
    /// on this loop.  Returns a watch id for [`XrlRouter::unwatch`].
    pub fn watch_class<F>(&self, class: &str, cb: F) -> u64
    where
        F: Fn(&mut EventLoop, &LifetimeEvent) + 'static,
    {
        let inner = &mut *self.inner.borrow_mut();
        let id = inner
            .finder
            .watch_class(class, inner.router_id, inner.sender.clone());
        inner
            .lifetime_cbs
            .push((id, class.to_string(), Rc::new(cb)));
        id
    }

    /// Remove a lifetime watch.
    pub fn unwatch(&self, watch_id: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.finder.unwatch(watch_id);
        inner.lifetime_cbs.retain(|(id, ..)| *id != watch_id);
    }

    /// Fan a lifetime event out to this loop's matching callbacks.
    pub(crate) fn deliver_lifetime_event(el: &mut EventLoop, ev: &LifetimeEvent) {
        let Some(router) = el.slot::<XrlRouter>().cloned() else {
            return;
        };
        let cbs: Vec<LifetimeCb> = router
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
            r.flush_resolve_cache();
        }
    }

    /// Drop cache entries for a class (posted by the Finder on change).
    pub(crate) fn invalidate_cache_on(el: &mut EventLoop, class: &str) {
        if let Some(r) = el.slot::<XrlRouter>() {
            r.inner.borrow_mut().invalidate_routes(|e| e.class != class);
        }
    }

    /// Number of resolve-cache entries (test/diagnostic).
    pub fn cache_len(&self) -> usize {
        let cache = &self.inner.borrow().resolve_cache;
        cache.values().map(HashMap::len).sum()
    }

    /// Drop every resolve-cache entry (test/diagnostic).
    pub fn flush_resolve_cache(&self) {
        self.inner.borrow_mut().invalidate_routes(|_| false);
    }

    /// Number of remembered request identities in the receiver-side dedup
    /// cache (test/diagnostic).
    pub fn dedup_len(&self) -> usize {
        self.inner.borrow().ex.dedup_len()
    }

    /// Deregister everything, stop transports, and fail outstanding
    /// requests.  The router is unusable afterwards.
    pub fn shutdown(&self, el: &mut EventLoop) {
        if self.inner.borrow().ex.shut_down {
            return;
        }
        {
            let inner = &mut *self.inner.borrow_mut();
            if let Some(h) = inner.watchdog.take() {
                el.cancel(h);
            }
            let finder = &inner.finder;
            inner.targets.keys().for_each(|i| finder.deregister(i));
            inner
                .lifetime_cbs
                .iter()
                .for_each(|(w, ..)| finder.unwatch(*w));
            finder.remove_cache_holder(inner.router_id);
        }
        // Fail callers waiting on us; nothing reaches the wire on the way.
        self.step(el, Exchange::shutdown);
        self.inner.borrow_mut().families.shutdown(el);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::DEDUP_DEFAULT_WINDOW;

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
