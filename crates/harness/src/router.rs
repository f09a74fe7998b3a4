//! A full multi-process router: BGP, RIB and FEA event loops on separate
//! threads, speaking XRLs over TCP — the §8.2 measurement configuration.
//!
//! Route flow and the eight profiling points:
//!
//! ```text
//! apply_update ──[1 BGP_IN]── BGP pipeline ──[2 QUEUED_FOR_RIB]──
//!   XRL rib/1.0/add_route ──[3 SENT_TO_RIB]──(tcp)──[4 RIB_IN]──
//!   RIB stages ──[5 QUEUED_FOR_FEA]── XRL fea/1.0/add_route
//!   ──[6 SENT_TO_FEA]──(tcp)──[7 FEA_IN]── FIB insert [8 KERNEL]
//! ```
//!
//! ## Supervision
//!
//! With [`RouterOptions::supervision`] set, a fourth process — `rtrmgr` —
//! probes the BGP process over XRL keepalives and restarts it when a
//! streak of misses classifies a crash (§3.1 brought to production
//! practice).  While BGP is down, the RIB holds its routes *stale* under
//! the configured grace timer instead of flushing them; the respawned
//! process re-learns its table (peers re-announce on session
//! re-establishment, modeled by a replay log) and re-advertises, clearing
//! the stale marks; the sweep then withdraws only what was never
//! re-learned.  When the restart budget is spent, the component degrades
//! and its routes are flushed immediately — permanent death gets the old
//! §4.1 policy, as does every death when supervision is off.

use std::cell::{Cell, RefCell};
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use xorp_bgp::bgp::UpdateIn;
use xorp_bgp::nexthop::{AnswerCb, NexthopService, RibNexthopAnswer};
use xorp_bgp::{BgpConfig, BgpProcess, PeerConfig, PeerId, ReaderId};
use xorp_event::EventLoop;
use xorp_fea::{test_iface, Fea, FibEntry};
use xorp_net::{Ipv4Net, PathAttributes, ProtocolId, RouteEntry};
use xorp_policy::FilterBank;
use xorp_profiler::tracing::{self as xtrace, ActiveSpan, SpanRecorder, TraceContext, Tracer};
use xorp_profiler::{points, Metrics, PointHandle, Profiler};
use xorp_rib::{BatchOp, RedistWatcher, Rib};
use xorp_rtrmgr::{FlightReport, SupervisedState, Supervisor, SupervisorConfig, SupervisorVerdict};
use xorp_xrl::keepalive;
use xorp_xrl::profile::add_profile_responder;
use xorp_xrl::{
    AtomValue, CongestionSignal, FaultConfig, Finder, QueuePolicy, RetTuple, RetryPolicy,
    TypedResponder, XrlError, XrlRouter,
};

use crate::batch::RouteOutput;
use crate::process::Process;
use crate::workload::BackboneRoute;
use crate::xrl_ifaces::{self, BulkRouteSink, RouteWire};

/// Loop-slot wrapper for the BGP process state.
pub struct BgpSlot(pub Rc<RefCell<BgpProcess<Ipv4Addr>>>);
/// Loop-slot wrapper for the RIB process state.
pub struct RibSlot(pub Rc<RefCell<Rib<Ipv4Addr>>>);
/// Loop-slot wrapper for the FEA process state.
pub struct FeaSlot(pub Rc<RefCell<Fea>>);

/// How long an injected-crash BGP process lives after registering: long
/// enough to come all the way up (deterministic), short enough that every
/// supervision cycle in the tests sees a real crash.
const CRASH_DELAY: Duration = Duration::from_millis(5);

/// The BGP process handle, shared between the router facade and the
/// supervisor (which replaces it on restart).
type SharedBgp = Arc<Mutex<Option<Process>>>;

/// Peer announcements recorded for replay into a restarted BGP process.
type ReplayLog = Arc<Mutex<Vec<(u32, UpdateIn<Ipv4Addr>)>>>;

/// Per-peer policy knobs (sourced from the rtrmgr config in
/// `xorp-router`), compiled once before any process spawns, so a bad
/// policy is a configuration error and a supervised respawn reuses the
/// banks.
#[derive(Clone, Default)]
pub struct PeerPolicy {
    /// Import filters (the §8.3 stack language).
    pub import: Option<FilterBank>,
    /// Export filters.
    pub export: Option<FilterBank>,
    /// Enable route-flap damping with default parameters.
    pub damping: bool,
}

impl PeerPolicy {
    /// Compile a peer's import and export policy sources.  The error
    /// names the policy and carries the compiler's message.
    pub fn compile(
        import: Option<&str>,
        export: Option<&str>,
        damping: bool,
    ) -> Result<PeerPolicy, String> {
        let bank = |name: &str, src: Option<&str>| {
            src.map(|src| {
                let mut filters = FilterBank::accept_by_default();
                filters
                    .push_source(name, src)
                    .map(|()| filters)
                    .map_err(|e| format!("{name} {e}"))
            })
            .transpose()
        };
        Ok(PeerPolicy {
            import: bank("import", import)?,
            export: bank("export", export)?,
            damping,
        })
    }
}

/// Construction options.
pub struct RouterOptions {
    /// Our AS.
    pub local_as: u32,
    /// (peer id, peer AS) pairs.
    pub peers: Vec<(u32, u32)>,
    /// Peer ids configured but NOT brought up at spawn.  Bring one up later
    /// with [`MultiProcessRouter::peering_up`] — its export feed then
    /// starts with a §5.3 background dump of the existing table (the
    /// peer-up experiment).
    pub down_peers: Vec<u32>,
    /// Optional per-peer policies, by peer id.
    pub peer_policies: std::collections::HashMap<u32, PeerPolicy>,
    /// Splice consistency-checking cache stages (debug configuration).
    pub consistency_check: bool,
    /// Deterministic fault plan for every process's outgoing XRL frames.
    pub fault: Option<FaultConfig>,
    /// Request timeout/retransmission policy.  Defaults on whenever `fault`
    /// is set (a lossy plan without retries just hangs callers).
    pub retry: Option<RetryPolicy>,
    /// Supervise the BGP process: keepalive liveness, backoff restart,
    /// restart budget, and graceful-restart stale handling in the RIB.
    /// `None` keeps the PR-1 behaviour (death flushes immediately).
    pub supervision: Option<SupervisorConfig>,
    /// Batch up to this many routes into one `add_routes`/`delete_routes`
    /// XRL on the BGP→RIB and RIB→FEA hops; partial batches flush on
    /// event-loop idle.  `1` (the default) keeps the per-route
    /// `add_route`/`delete_route` path verbatim.
    pub batch_size: usize,
    /// Bounds on every process's per-lane XRL send queue: crossing the
    /// high watermark pauses the congested pipeline reader (Xoff) until
    /// the lane drains below the low watermark (Xon); the hard cap sheds
    /// frames outright.
    pub overload: QueuePolicy,
    /// Artificial service delay, per route XRL, in the RIB's handlers —
    /// models a busy RIB for the overload experiments.  `0` replies
    /// inline.
    pub rib_delay_ms: u64,
    /// Pin the named process ("bgp", "rib" or "fea") to the v1 named wire
    /// encoding, modelling a pre-v2 build in an otherwise-upgraded router:
    /// it neither advertises signatures nor emits positional frames, and
    /// its peers negotiate back to v1 on the affected hops.
    pub wire_v1_only: Option<&'static str>,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            local_as: 65000,
            peers: vec![(1, 65001), (2, 65002)],
            down_peers: vec![],
            peer_policies: Default::default(),
            consistency_check: false,
            fault: None,
            retry: None,
            supervision: None,
            batch_size: 1,
            overload: QueuePolicy::default(),
            rib_delay_ms: 0,
            wire_v1_only: None,
        }
    }
}

/// The assembled router: three supervised-able processes plus, when
/// supervision is on, the `rtrmgr` prober.
pub struct MultiProcessRouter {
    /// Shared profiler (all eight §8.2 points).
    pub profiler: Profiler,
    /// Shared metrics registry.  Every process writes through a scoped
    /// view (`bgp.`, `rib.`, `fea.`, `rtrmgr.`); any process's
    /// `profile/1.0/get_metrics` serves the whole registry.
    pub metrics: Metrics,
    /// Shared trace recorder: sampled UPDATEs root causal spans that ride
    /// the XRL wire across all three processes.  Sampling starts off
    /// (`set_sampling`); any process's `profile/1.0/get_spans` serves its
    /// ring.
    pub tracer: Tracer,
    /// The broker.
    pub finder: Finder,
    bgp: SharedBgp,
    _rib: Process,
    _fea: Process,
    /// The supervising rtrmgr process, when supervision is enabled.
    supervisor: Option<Process>,
    /// Supervision state shared with the rtrmgr process.
    sup_state: Option<Arc<Mutex<Supervisor>>>,
    replay: ReplayLog,
    crash_on_spawn: Arc<AtomicU32>,
    restarts: Arc<AtomicU32>,
    /// Post-mortems the supervisor captured at crash classification.
    flights: Arc<Mutex<Vec<FlightReport>>>,
}

/// BGP's nexthop service backed by the RIB's interest-registration XRL
/// (§5.1.1: "The Nexthop Resolver stages talk asynchronously to the RIB").
struct XrlNexthopService(xrl_ifaces::rib::Client);

impl NexthopService<Ipv4Addr> for XrlNexthopService {
    fn resolve_nexthop(&self, el: &mut EventLoop, addr: Ipv4Addr, cb: AnswerCb<Ipv4Addr>) {
        self.0.register_interest(el, addr, move |el, result| {
            let ans = match result {
                Ok((valid, reachable, metric)) => RibNexthopAnswer {
                    valid,
                    metric: reachable.then_some(metric),
                },
                Err(_) => RibNexthopAnswer {
                    valid: xorp_net::Prefix::host(addr),
                    metric: None,
                },
            };
            cb(el, ans);
        });
    }
}

/// The BGP process's `bgp/1.0` server (nexthop invalidation and the
/// graceful-restart readvertisement trigger).
struct BgpServer {
    bgp: Rc<RefCell<BgpProcess<Ipv4Addr>>>,
}

impl xrl_ifaces::bgp::Server for BgpServer {
    fn invalidate(&self, el: &mut EventLoop, net: Ipv4Net, responder: TypedResponder<()>) {
        self.bgp.borrow_mut().invalidate_nexthops(el, net);
        responder.ok(el, ());
    }

    // Graceful-restart refresh on demand (e.g. after a RIB restart):
    // schedule a background dump of the best table to the RIB reader.
    // `count` is the number of stored routes the dump will visit — the
    // walk itself proceeds in event-loop slices after this reply.
    fn readvertise(&self, el: &mut EventLoop, responder: TypedResponder<(u32,)>) {
        let n = self.bgp.borrow_mut().readvertise_rib(el);
        responder.ok(el, (n as u32,));
    }
}

/// The FEA process's `fea/1.0` server: FIB edits, per-route and
/// vectorized.
struct FeaServer {
    fea: Rc<RefCell<Fea>>,
    fea_in: PointHandle,
    recorder: SpanRecorder,
}

impl FeaServer {
    /// Terminal trace hop: one `fea` point span per traced frame (the
    /// dispatcher scoped the frame's context over this handler).
    fn trace_arrival(&self) {
        if let Some(ctx) = xtrace::current() {
            self.recorder.instant(ctx, "fea");
        }
    }

    fn install(&self, w: RouteWire) {
        self.fea_in.record(|| format!("add {}", w.net));
        self.fea.borrow_mut().add_route4(FibEntry {
            net: w.net,
            nexthop: IpAddr::V4(w.nexthop),
            ifname: if w.ifname.is_empty() {
                "eth0".to_string()
            } else {
                w.ifname
            },
            metric: w.metric,
        }); // stamps KERNEL
    }
}

impl xrl_ifaces::fea::Server for FeaServer {
    fn add_route(
        &self,
        el: &mut EventLoop,
        net: Ipv4Net,
        nexthop: Ipv4Addr,
        ifname: String,
        metric: u32,
        responder: TypedResponder<()>,
    ) {
        self.trace_arrival();
        self.install(RouteWire {
            net,
            nexthop,
            ifname,
            metric,
            proto: ProtocolId::Ebgp,
        });
        responder.ok(el, ());
    }

    fn delete_route(&self, el: &mut EventLoop, net: Ipv4Net, responder: TypedResponder<()>) {
        self.fea_in.record(|| format!("del {net}"));
        self.fea.borrow_mut().delete_route4(&net);
        responder.ok(el, ());
    }

    // Vectorized twins of add_route/delete_route — N FIB edits per
    // frame.  All rows are validated before any is applied.
    fn add_routes(
        &self,
        el: &mut EventLoop,
        routes: Vec<AtomValue>,
        responder: TypedResponder<(u32,)>,
    ) {
        let parsed = match xrl_ifaces::decode_add_rows(&routes) {
            Ok(p) => p,
            Err(e) => return responder.fail(el, e),
        };
        self.trace_arrival();
        let n = parsed.len() as u32;
        for w in parsed {
            self.install(w);
        }
        responder.ok(el, (n,));
    }

    fn delete_routes(
        &self,
        el: &mut EventLoop,
        routes: Vec<AtomValue>,
        responder: TypedResponder<(u32,)>,
    ) {
        let parsed = match xrl_ifaces::decode_delete_rows(&routes) {
            Ok(p) => p,
            Err(e) => return responder.fail(el, e),
        };
        let n = parsed.len() as u32;
        for (net, _proto) in parsed {
            self.fea_in.record(|| format!("del {net}"));
            self.fea.borrow_mut().delete_route4(&net);
        }
        responder.ok(el, (n,));
    }

    fn route_count(&self, el: &mut EventLoop, responder: TypedResponder<(u32,)>) {
        responder.ok(el, (self.fea.borrow().route_count4() as u32,));
    }
}

/// The RIB process's `rib/1.0` server.  Route edits go through
/// [`RibServer::reply`], which models a busy RIB for the overload
/// experiments: XRLs are applied on arrival but acknowledged only after
/// `delay`, so the sender sees a slow consumer and its lane backs up.
struct RibServer {
    rib: Rc<RefCell<Rib<Ipv4Addr>>>,
    rib_in: PointHandle,
    delay: Option<Duration>,
    recorder: SpanRecorder,
}

/// An open `rib` span plus the ambient context it displaced.
type RibSpan = Option<(ActiveSpan, Option<TraceContext>)>;

impl RibServer {
    /// Open a `rib` span under the frame's context (scoped over this
    /// handler by the dispatcher) and make its child context ambient, so
    /// the redistribution sink — which runs inside the route apply —
    /// threads it on toward the FEA.
    fn begin_span(&self) -> RibSpan {
        let ctx = xtrace::current()?;
        let span = self.recorder.begin(ctx, "rib");
        let prev = xtrace::set_current(Some(span.ctx));
        Some((span, prev))
    }

    fn end_span(&self, traced: RibSpan) {
        if let Some((span, prev)) = traced {
            xtrace::set_current(prev);
            self.recorder.finish(span);
        }
    }
    fn reply<R: RetTuple>(
        &self,
        el: &mut EventLoop,
        responder: TypedResponder<R>,
        reply: Result<R, XrlError>,
    ) {
        match self.delay {
            Some(d) => {
                el.after(d, move |el| responder.reply(el, reply));
            }
            None => responder.reply(el, reply),
        }
    }

    fn entry(w: RouteWire) -> RouteEntry<Ipv4Addr> {
        let mut attrs = PathAttributes::new(IpAddr::V4(w.nexthop));
        attrs.ebgp = w.proto == ProtocolId::Ebgp;
        let mut route = RouteEntry::new(w.net, Arc::new(attrs), w.metric, w.proto);
        if !w.ifname.is_empty() {
            route.ifname = Some(w.ifname.as_str().into());
        }
        route
    }
}

impl xrl_ifaces::rib::Server for RibServer {
    fn add_route(
        &self,
        el: &mut EventLoop,
        net: Ipv4Net,
        nexthop: Ipv4Addr,
        ifname: String,
        metric: u32,
        proto: String,
        responder: TypedResponder<()>,
    ) {
        self.rib_in.record(|| format!("add {net}"));
        let proto = ProtocolId::from_name(&proto).unwrap_or(ProtocolId::Ebgp);
        let route = Self::entry(RouteWire {
            net,
            nexthop,
            ifname,
            metric,
            proto,
        });
        let traced = self.begin_span();
        self.rib.borrow_mut().add_route(el, route);
        self.end_span(traced);
        self.reply(el, responder, Ok(()));
    }

    fn delete_route(
        &self,
        el: &mut EventLoop,
        net: Ipv4Net,
        proto: String,
        responder: TypedResponder<()>,
    ) {
        self.rib_in.record(|| format!("del {net}"));
        let proto = ProtocolId::from_name(&proto).unwrap_or(ProtocolId::Ebgp);
        let traced = self.begin_span();
        self.rib.borrow_mut().delete_route(el, proto, net);
        self.end_span(traced);
        self.reply(el, responder, Ok(()));
    }

    // Vectorized twins: N routes per frame, applied through
    // Rib::apply_batch (one resolve/redistribution pass).  Row
    // validation is transactional — a malformed row rejects the whole
    // frame before any route is applied.
    fn add_routes(
        &self,
        el: &mut EventLoop,
        routes: Vec<AtomValue>,
        responder: TypedResponder<(u32,)>,
    ) {
        let parsed = match xrl_ifaces::decode_add_rows(&routes) {
            Ok(p) => p,
            Err(e) => return self.reply(el, responder, Err(e)),
        };
        let mut ops = Vec::with_capacity(parsed.len());
        for w in parsed {
            self.rib_in.record(|| format!("add {}", w.net));
            ops.push(BatchOp::Add(Self::entry(w)));
        }
        let traced = self.begin_span();
        let n = self.rib.borrow_mut().apply_batch(el, ops);
        self.end_span(traced);
        self.reply(el, responder, Ok((n as u32,)));
    }

    fn delete_routes(
        &self,
        el: &mut EventLoop,
        routes: Vec<AtomValue>,
        responder: TypedResponder<(u32,)>,
    ) {
        let parsed = match xrl_ifaces::decode_delete_rows(&routes) {
            Ok(p) => p,
            Err(e) => return self.reply(el, responder, Err(e)),
        };
        let mut ops = Vec::with_capacity(parsed.len());
        for (net, proto) in parsed {
            self.rib_in.record(|| format!("del {net}"));
            ops.push(BatchOp::Delete { proto, net });
        }
        let traced = self.begin_span();
        let n = self.rib.borrow_mut().apply_batch(el, ops);
        self.end_span(traced);
        self.reply(el, responder, Ok((n as u32,)));
    }

    fn register_interest(
        &self,
        el: &mut EventLoop,
        addr: Ipv4Addr,
        responder: TypedResponder<(Ipv4Net, bool, u32)>,
    ) {
        let ans = self.rib.borrow_mut().register_interest(1, addr);
        let reply = match ans.route {
            Some(route) => (ans.valid, true, route.metric),
            None => (ans.valid, false, 0),
        };
        responder.ok(el, reply);
    }

    fn route_count(&self, el: &mut EventLoop, responder: TypedResponder<(u32,)>) {
        responder.ok(el, (self.rib.borrow().route_count() as u32,));
    }

    // Immediate flush of a protocol's routes — the supervisor's
    // permanent-death action when a restart budget is spent.
    fn flush_protocol(&self, el: &mut EventLoop, proto: String, responder: TypedResponder<()>) {
        let proto = ProtocolId::from_name(&proto).unwrap_or(ProtocolId::Ebgp);
        self.rib.borrow_mut().clear_protocol(el, proto);
        responder.ok(el, ());
    }

    fn stale_count(&self, el: &mut EventLoop, proto: String, responder: TypedResponder<(u32,)>) {
        let proto = ProtocolId::from_name(&proto).unwrap_or(ProtocolId::Ebgp);
        responder.ok(el, (self.rib.borrow().stale_count(proto) as u32,));
    }
}

/// What every process of the router shares: the broker, the three
/// observability sinks, and the options.  `Clone + Send`, so the
/// supervisor's respawn on the rtrmgr thread wires BGP exactly as the
/// first spawn did.
#[derive(Clone)]
struct Wiring {
    finder: Finder,
    profiler: Profiler,
    tracer: Tracer,
    /// The shared registry: unscoped in the router's copy, the process's
    /// own `name.` view in the copy its setup receives.  Registration is
    /// idempotent, so a respawned process reattaches to the same slots.
    metrics: Metrics,
    options: Arc<RouterOptions>,
}

/// Spawn one router process.  The prologue every process shares runs
/// first: the XRL knobs, the scoped registry on router and loop, and the
/// `name` target with its keepalive and profile responders.  `setup` then
/// runs on the loop thread, after registration, with the scoped wiring.
fn spawn_process(
    name: &'static str,
    wiring: &Wiring,
    setup: impl FnOnce(&mut EventLoop, &XrlRouter, &Wiring) + Send + 'static,
) -> Process {
    let w = Wiring {
        metrics: wiring.metrics.scoped(name),
        ..wiring.clone()
    };
    Process::spawn(name, wiring.finder.clone(), move |el, router| {
        // Every process gets the same fault plan and retry policy; fault
        // decision streams still diverge per lane (peer address).  A lossy
        // plan without retries just hangs callers.
        let o = &w.options;
        if let Some(cfg) = &o.fault {
            router.set_fault_plan(cfg.clone());
        }
        router.set_retry_policy(
            o.retry
                .or_else(|| o.fault.as_ref().map(|_| RetryPolicy::default())),
        );
        router.set_overload_policy(o.overload);
        router.set_wire_v1_only(o.wire_v1_only == Some(name));
        router.set_metrics(&w.metrics);
        el.set_metrics(&w.metrics);
        let instance = format!("{name}-0");
        router
            .register_target(name, &instance, true)
            .expect("a fresh router registers its one target");
        keepalive::add_keepalive_responder(router, &instance);
        add_profile_responder(router, &instance, &w.profiler, &w.metrics, &w.tracer);
        setup(el, router, &w);
    })
}

/// Backpressure for one hop: when the lane to `target`'s route methods
/// crosses a watermark, flip `flow` at once — on Xoff always, on Xon too
/// when `sync_xon` — so an Xoff raised by a send stops the drain in
/// progress at its next entry.  `then(el, ready)` runs deferred, because
/// the signal fires inside the send path, which may already hold the
/// process borrow.
fn on_congestion(
    router: &XrlRouter,
    target: &'static str,
    flow: Rc<Cell<bool>>,
    sync_xon: bool,
    then: impl Fn(&mut EventLoop, bool) + 'static,
) {
    let lane_router = router.clone();
    let path = format!("{target}/1.0/add_route");
    let then = Rc::new(then);
    router.set_congestion_cb(move |el, sig| {
        if lane_router.lane_of(target, &path).as_deref() != Some(sig.lane()) {
            return;
        }
        let ready = matches!(sig, CongestionSignal::Xon { .. });
        if sync_xon || !ready {
            flow.set(ready);
        }
        let then = then.clone();
        el.defer(move |el| then(el, ready));
    });
}

/// Everything needed to (re)spawn the BGP process — the supervisor's
/// respawn action runs on the rtrmgr loop thread, so this is `Send + Sync`.
#[derive(Clone)]
struct BgpFactory {
    wiring: Wiring,
    replay: ReplayLog,
    crash_on_spawn: Arc<AtomicU32>,
}

impl BgpFactory {
    fn spawn(&self) -> Process {
        let (replay, crash_on_spawn) = (self.replay.clone(), self.crash_on_spawn.clone());
        spawn_process("bgp", &self.wiring, move |el, router, w| {
            let o = &w.options;
            let config = BgpConfig {
                local_as: xorp_net::AsNum(o.local_as),
                router_id: "10.255.0.1".parse().unwrap(),
                local_addr: IpAddr::V4("192.168.0.1".parse().unwrap()),
                hold_time: 90,
            };
            let rib = xrl_ifaces::rib::Client::new(router, "rib");
            let mut bgp = BgpProcess::new(config, Rc::new(XrlNexthopService(rib.clone())));
            bgp.set_profiler(w.profiler.clone());
            bgp.set_tracer(w.tracer.recorder("bgp"));
            bgp.set_metrics(&w.metrics);

            // Best routes → RIB over typed `rib/1.0` stubs (points 2 and
            // 3).  The client interns every method once; per-route sends
            // do no path hashing and negotiate the positional wire.  The
            // fanout coalesces as many deliveries as one frame carries.
            let out = RouteOutput::new(
                BulkRouteSink::Rib(rib),
                o.batch_size,
                w.profiler.point(points::QUEUED_FOR_RIB),
                w.profiler.point(points::SENT_TO_RIB),
                w.tracer.recorder("bgp"),
            );
            bgp.set_coalesce(o.batch_size);
            // Fanout delivery re-establishes a sampled route's context;
            // stamp the hop and thread the child context into the output.
            let fanout_rec = w.tracer.recorder("bgp");
            let rib_out = out.clone();
            bgp.set_rib_output(el, move |el, _origin, op| {
                let trace_prev = xtrace::current()
                    .map(|ctx| xtrace::set_current(Some(fanout_rec.instant(ctx, "fanout"))));
                rib_out.push(el, &op);
                if let Some(prev) = trace_prev {
                    xtrace::set_current(prev);
                }
            });

            for &(id, asn) in &o.peers {
                let mut cfg = PeerConfig::simple(PeerId(id), xorp_net::AsNum(asn));
                cfg.consistency_check = o.consistency_check;
                if let Some(policy) = o.peer_policies.get(&id) {
                    if let Some(bank) = &policy.import {
                        cfg.import = bank.clone();
                    }
                    if let Some(bank) = &policy.export {
                        cfg.export = bank.clone();
                    }
                    if policy.damping {
                        cfg.damping = Some(xorp_bgp::DampingConfig::default());
                    }
                }
                bgp.add_peer(el, cfg, Some(Rc::new(|_el, _update| {})));
                if !o.down_peers.contains(&id) {
                    bgp.peering_up(el, PeerId(id));
                }
            }

            let bgp = Rc::new(RefCell::new(bgp));
            el.set_slot(BgpSlot(bgp.clone()));

            // Backpressure: when the lane to the RIB crosses its high
            // watermark, stop pulling best-path deliveries out of the
            // fanout (whose queue coalesces per prefix, so holdback
            // memory is bounded by table size, not churn rate) and hold
            // batched flushes; Xon ships what the output held, then
            // resumes the reader.
            let flow_gate = Rc::new(Cell::new(true));
            bgp.borrow_mut()
                .set_reader_gate(ReaderId::Rib, flow_gate.clone());
            let b = bgp.clone();
            on_congestion(router, "rib", flow_gate, true, move |el, ready| {
                out.set_gate(el, !ready);
                b.borrow_mut().set_reader_flow(el, ReaderId::Rib, ready);
            });

            xrl_ifaces::bgp::register(router, "bgp-0", BgpServer { bgp: bgp.clone() });

            // A restarted BGP re-learns its table from its peers, which
            // re-announce when the sessions re-establish; the harness
            // models that with the recorded update log.  Replayed routes
            // travel the normal pipeline to the RIB, clearing stale marks.
            let log: Vec<(u32, UpdateIn<Ipv4Addr>)> = replay.lock().clone();
            for (peer, update) in log {
                bgp.borrow_mut().apply_update(el, PeerId(peer), update);
            }

            // Deterministic crash injection for the supervision tests: die
            // shortly after coming all the way up.
            if crash_on_spawn.load(Ordering::SeqCst) > 0 {
                crash_on_spawn.fetch_sub(1, Ordering::SeqCst);
                el.after(CRASH_DELAY, |el| el.stop());
            }
        })
    }
}

/// Read process state on its own loop: `f` runs against the loop's `S`
/// slot.  The default value when the process or the slot is gone.
fn read<S: 'static, R: Default + Send + 'static>(
    process: Option<&Process>,
    f: impl FnOnce(&S) -> R + Send + 'static,
) -> R {
    process
        .and_then(|p| p.call(move |el| el.slot::<S>().map(f)).ok().flatten())
        .unwrap_or_default()
}

impl MultiProcessRouter {
    /// Spawn the three processes and wire them together.  A connected
    /// route `192.168.0.0/16 dev eth0` is pre-installed so BGP nexthops in
    /// that range resolve (the paper likewise keeps one route installed to
    /// stabilize RIB interactions).
    pub fn new(options: RouterOptions) -> MultiProcessRouter {
        let wiring = Wiring {
            finder: Finder::new(),
            profiler: Profiler::new(),
            tracer: Tracer::new(),
            metrics: Metrics::new(),
            options: Arc::new(options),
        };

        // ---- FEA process ----------------------------------------------------
        let fea = spawn_process("fea", &wiring, |el, router, w| {
            let mut fea = Fea::new();
            fea.configure_interface(test_iface("eth0", "192.168.0.1", 16));
            fea.set_profiler(w.profiler.clone());
            let fea = Rc::new(RefCell::new(fea));
            el.set_slot(FeaSlot(fea.clone()));
            xrl_ifaces::fea::register(
                router,
                "fea-0",
                FeaServer {
                    fea,
                    fea_in: w.profiler.point(points::FEA_IN),
                    recorder: w.tracer.recorder("fea"),
                },
            );
        });

        // ---- RIB process ----------------------------------------------------
        let rib = spawn_process("rib", &wiring, |el, router, w| {
            let o = &w.options;
            let rib = Rc::new(RefCell::new(Rib::<Ipv4Addr>::new(o.consistency_check)));
            rib.borrow_mut().set_metrics(&w.metrics);
            el.set_slot(RibSlot(rib.clone()));

            // §4.1: "if a routing protocol dies, the RIB will deregister all
            // the routes that protocol had registered" — driven by the
            // Finder's lifetime events for the bgp class.  Under
            // supervision the policy relaxes to graceful restart: mark the
            // routes stale and give the restarted process `grace` to
            // re-advertise before sweeping the remainder.
            let grace = o.supervision.map(|cfg| cfg.grace_period);
            let r = rib.clone();
            router.watch_class("bgp", move |el, ev| {
                if ev.up {
                    return;
                }
                match grace {
                    None => {
                        r.borrow_mut().clear_protocol(el, ProtocolId::Ebgp);
                    }
                    Some(grace) => {
                        if r.borrow_mut().mark_protocol_stale(ProtocolId::Ebgp) > 0 {
                            let r2 = r.clone();
                            el.after(grace, move |el| {
                                r2.borrow_mut().sweep_stale(el, ProtocolId::Ebgp);
                            });
                        }
                    }
                }
            });

            // Output: install into the FEA over XRLs (points 5 and 6).
            // The stream is delivered through a redistribution watcher
            // rather than a bare output stage, so a congested FEA lane can
            // park the excess in the watcher's backlog — without a
            // consumer for the Xoff, the RIB would pump its own lane
            // through the hard cap and silently shed installs, leaving
            // the FIB permanently short of the RIB.
            let out = RouteOutput::new(
                BulkRouteSink::Fea(xrl_ifaces::fea::Client::new(router, "fea")),
                o.batch_size,
                w.profiler.point(points::QUEUED_FOR_FEA),
                w.profiler.point(points::SENT_TO_FEA),
                w.tracer.recorder("rib"),
            );
            let fea_out = out.clone();
            rib.borrow_mut().add_redist_watcher(
                el,
                RedistWatcher::new(
                    "fea",
                    None,
                    FilterBank::accept_by_default(),
                    Rc::new(move |el, op| fea_out.push(el, &op)),
                ),
            );
            // A congested FEA lane parks the redistribution stream.  The
            // watcher's flow cell flips synchronously inside the send path
            // (overshoot is bounded at the watermark); the backlog replay
            // and then the batched-flush gate run deferred.
            let flow = rib
                .borrow()
                .redist_watcher_flow("fea")
                .expect("fea watcher just added");
            let r = rib.clone();
            on_congestion(router, "fea", flow, false, move |el, ready| {
                r.borrow_mut().set_redist_watcher_flow(el, "fea", ready);
                out.set_gate(el, !ready);
            });

            // Pre-install the connected route BGP nexthops resolve via.
            {
                let mut attrs = PathAttributes::new(IpAddr::V4("192.168.0.1".parse().unwrap()));
                attrs.ebgp = false;
                let mut route = RouteEntry::new(
                    "192.168.0.0/16".parse().unwrap(),
                    Arc::new(attrs),
                    1,
                    ProtocolId::Connected,
                );
                route.ifname = Some("eth0".into());
                rib.borrow_mut().add_route(el, route);
            }

            // Invalidation: tell BGP its cached answers died (§5.2.1).
            let bgp_client = xrl_ifaces::bgp::Client::new(router, "bgp");
            rib.borrow_mut().set_invalidation_cb(
                1, // client id for the BGP process
                Rc::new(move |el, _client, valid| {
                    bgp_client.invalidate(el, valid, |_el, _r| {});
                }),
            );

            // Busy-RIB model for the overload experiments: route XRLs are
            // applied on arrival but acknowledged only after `delay`, so
            // the sender sees a slow consumer and its lane backs up.
            let delay = (o.rib_delay_ms > 0).then(|| Duration::from_millis(o.rib_delay_ms));
            xrl_ifaces::rib::register(
                router,
                "rib-0",
                RibServer {
                    rib,
                    rib_in: w.profiler.point(points::RIB_IN),
                    delay,
                    recorder: w.tracer.recorder("rib"),
                },
            );
        });

        // ---- BGP process ----------------------------------------------------
        let replay: ReplayLog = Arc::new(Mutex::new(Vec::new()));
        let crash_on_spawn = Arc::new(AtomicU32::new(0));
        let factory = BgpFactory {
            wiring: wiring.clone(),
            replay: replay.clone(),
            crash_on_spawn: crash_on_spawn.clone(),
        };
        let bgp: SharedBgp = Arc::new(Mutex::new(Some(factory.spawn())));

        // ---- supervisor (rtrmgr) process ------------------------------------
        let restarts = Arc::new(AtomicU32::new(0));
        let flights: Arc<Mutex<Vec<FlightReport>>> = Arc::new(Mutex::new(Vec::new()));
        let sup_state = wiring.options.supervision.map(|cfg| {
            let mut sup = Supervisor::new(cfg);
            sup.manage("bgp");
            sup.set_metrics(&wiring.metrics.scoped("rtrmgr"));
            Arc::new(Mutex::new(sup))
        });
        let supervisor = sup_state.as_ref().map(|sup| {
            let cfg = *sup.lock().config();
            let sup = sup.clone();
            let shared = bgp.clone();
            let restarts = restarts.clone();
            // The flight recorder reads the whole registry (unscoped): a
            // post-mortem filters to the dead process's prefix itself.
            let flight_metrics = wiring.metrics.clone();
            let flights = flights.clone();
            spawn_process("rtrmgr", &wiring, move |el, router, w| {
                // Probes run on a short leash: a hung component must
                // classify as a miss within roughly one keepalive
                // interval, not wait out the data-plane retry policy.
                router.set_retry_policy(Some(RetryPolicy {
                    max_attempts: 2,
                    base_timeout: (cfg.keepalive_interval / 4).max(Duration::from_millis(5)),
                    max_timeout: (cfg.keepalive_interval / 2).max(Duration::from_millis(10)),
                }));

                // Probe round-trip latency, µs (§3.1 liveness telemetry).
                let probe_latency = w.metrics.histogram("probe_latency_us");
                let rib_client = xrl_ifaces::rib::Client::new(router, "rib");
                let probe_router = router.clone();
                let flight_tracer = w.tracer.clone();
                el.every(cfg.keepalive_interval, move |el| {
                    let now = Duration::from_nanos(el.now().as_nanos());
                    // Respawns due now, in dependency order.  Only the BGP
                    // process is supervised in this configuration.  (Bind
                    // the list first: iterating `sup.lock().…` directly
                    // would hold the guard across the body.)
                    let due = sup.lock().due_restarts(now);
                    for name in due {
                        if name == "bgp" {
                            // Drop the dead handle (joining its thread)
                            // before the fresh instance re-registers.
                            let dead = shared.lock().take();
                            drop(dead);
                            *shared.lock() = Some(factory.spawn());
                            restarts.fetch_add(1, Ordering::SeqCst);
                            sup.lock().restarted(&name);
                        }
                    }
                    if sup.lock().should_probe("bgp") {
                        let sup = sup.clone();
                        let rib_client = rib_client.clone();
                        let probe_latency = probe_latency.clone();
                        let flights = flights.clone();
                        let flight_tracer = flight_tracer.clone();
                        let flight_metrics = flight_metrics.clone();
                        let t0 = Instant::now();
                        keepalive::probe_liveness(
                            &probe_router,
                            el,
                            "bgp",
                            move |el, alive, congested| {
                                if alive {
                                    probe_latency.observe(t0.elapsed().as_micros() as u64);
                                }
                                let now = Duration::from_nanos(el.now().as_nanos());
                                let verdict = sup.lock().record_probe("bgp", alive, now);
                                if alive {
                                    // Busy-but-alive is not dead: congestion
                                    // feeds the overload budget, which only
                                    // escalates to Degraded when sustained past
                                    // it.  No flush — the component is still
                                    // serving its routes.
                                    sup.lock().record_overload("bgp", congested, now);
                                }
                                // Flight recorder: crash classification is
                                // the moment to snapshot what the dead
                                // process was doing — its span ring and
                                // metrics outlive it in the shared
                                // registries.
                                let reason = match &verdict {
                                    SupervisorVerdict::RestartScheduled { .. } => {
                                        "crash classified, restart scheduled"
                                    }
                                    SupervisorVerdict::Degraded => "restart budget spent, degraded",
                                    SupervisorVerdict::None => return,
                                };
                                flights.lock().push(FlightReport::capture(
                                    "bgp",
                                    reason,
                                    &flight_tracer,
                                    &flight_metrics,
                                ));
                                if verdict == SupervisorVerdict::Degraded {
                                    // Budget spent: permanent death.  Flush the
                                    // protocol's routes now — the grace window
                                    // no longer applies.
                                    rib_client.flush_protocol(
                                        el,
                                        ProtocolId::Ebgp.name(),
                                        |_el, _r| {},
                                    );
                                }
                            },
                        );
                    }
                });
            })
        });

        MultiProcessRouter {
            profiler: wiring.profiler,
            metrics: wiring.metrics,
            tracer: wiring.tracer,
            finder: wiring.finder,
            bgp,
            _rib: rib,
            _fea: fea,
            supervisor,
            sup_state,
            replay,
            crash_on_spawn,
            restarts,
            flights,
        }
    }

    /// Post-mortem flight reports the supervisor captured so far (crash
    /// classifications and Degraded escalations), oldest first.
    pub fn flight_reports(&self) -> Vec<FlightReport> {
        self.flights.lock().clone()
    }

    /// Kill the BGP process, as a fault test would: its router deregisters
    /// from the Finder, whose death notification drives the RIB's §4.1
    /// policy (flush, or mark-stale under supervision).  No-op if already
    /// dead.
    pub fn kill_bgp(&mut self) {
        let dead = self.bgp.lock().take();
        if let Some(bgp) = dead {
            bgp.stop();
        }
    }

    /// Whether the BGP process is currently running (a supervised restart
    /// may have replaced the original — this reflects the live instance).
    pub fn bgp_alive(&self) -> bool {
        self.bgp.lock().as_ref().is_some_and(|p| p.is_alive())
    }

    /// Supervised restarts performed so far.
    pub fn supervised_restarts(&self) -> u32 {
        self.restarts.load(Ordering::SeqCst)
    }

    /// The supervisor's view of a component, when supervision is on.
    pub fn supervisor_state(&self, name: &str) -> Option<SupervisedState> {
        self.sup_state.as_ref().and_then(|s| s.lock().state(name))
    }

    /// Make the next `n` BGP spawns crash shortly after coming up
    /// (deterministic crash-loop injection for supervision tests).
    pub fn set_bgp_crash_on_spawn(&self, n: u32) {
        self.crash_on_spawn.store(n, Ordering::SeqCst);
    }

    /// Simulate the Finder dying and restarting empty.  Each process's
    /// watchdog re-registers its targets and watches within its next tick.
    pub fn kill_finder(&self) {
        self.finder.clear();
    }

    /// Feed an UPDATE to a peer (runs on the BGP loop).  Under supervision
    /// the update is also recorded for replay into a restarted process
    /// (real peers re-announce when the session re-establishes).  Silently
    /// dropped while the process is down.
    pub fn apply_update(&self, peer: u32, update: UpdateIn<Ipv4Addr>) {
        if self.sup_state.is_some() {
            self.replay.lock().push((peer, update.clone()));
        }
        if let Some(bgp) = self.bgp.lock().as_ref() {
            bgp.post(move |el| {
                let slot = el.slot::<BgpSlot>().expect("bgp slot").0.clone();
                slot.borrow_mut().apply_update(el, PeerId(peer), update);
            });
        }
    }

    /// Feed a pre-generated backbone batch as one UPDATE.
    pub fn feed_backbone(&self, peer: u32, batch: &[BackboneRoute]) {
        let attrs = batch[0].attrs.clone();
        let nets: Vec<Ipv4Net> = batch.iter().map(|r| r.net).collect();
        self.apply_update(
            peer,
            UpdateIn {
                withdrawn: vec![],
                announce: Some((attrs, nets)),
            },
        );
    }

    /// Announce one prefix (the §8.2 test route).
    pub fn announce_one(&self, peer: u32, net: Ipv4Net, nexthop: Ipv4Addr) {
        let attrs = Arc::new(PathAttributes::new(IpAddr::V4(nexthop)));
        self.apply_update(
            peer,
            UpdateIn {
                withdrawn: vec![],
                announce: Some((attrs, vec![net])),
            },
        );
    }

    /// Withdraw a pre-generated backbone batch as one UPDATE (the flap
    /// half of the churn-storm workload).
    pub fn withdraw_backbone(&self, peer: u32, batch: &[BackboneRoute]) {
        let nets: Vec<Ipv4Net> = batch.iter().map(|r| r.net).collect();
        self.apply_update(
            peer,
            UpdateIn {
                withdrawn: nets,
                announce: None,
            },
        );
    }

    /// Withdraw one prefix.
    pub fn withdraw_one(&self, peer: u32, net: Ipv4Net) {
        self.apply_update(
            peer,
            UpdateIn {
                withdrawn: vec![net],
                announce: None,
            },
        );
    }

    /// Routes currently in the FEA's FIB (cross-thread query).
    pub fn fea_route_count(&self) -> usize {
        read(Some(&self._fea), |s: &FeaSlot| s.0.borrow().route_count4())
    }

    /// Routes currently in the RIB's final table.
    pub fn rib_route_count(&self) -> usize {
        read(Some(&self._rib), |s: &RibSlot| s.0.borrow().route_count())
    }

    /// FEA installs parked in the RIB's redistribution watcher while the
    /// RIB→FEA lane is congested (backpressure observability).
    pub fn rib_fea_backlog(&self) -> usize {
        read(Some(&self._rib), |s: &RibSlot| {
            s.0.borrow().redist_watcher_backlog("fea")
        })
    }

    /// EBGP routes in the RIB still marked stale (graceful-restart
    /// observability).
    pub fn rib_stale_count(&self) -> usize {
        read(Some(&self._rib), |s: &RibSlot| {
            s.0.borrow().stale_count(ProtocolId::Ebgp)
        })
    }

    /// Bring a configured-but-down peering up (runs on the BGP loop).  The
    /// peer's export feed starts with a §5.3 background dump of the
    /// existing table, interleaved with live churn.
    pub fn peering_up(&self, peer: u32) {
        if let Some(bgp) = self.bgp.lock().as_ref() {
            bgp.post(move |el| {
                let slot = el.slot::<BgpSlot>().expect("bgp slot").0.clone();
                slot.borrow_mut().peering_up(el, PeerId(peer));
            });
        }
    }

    /// Is a background dump still walking toward `peer`'s export branch?
    pub fn bgp_dump_in_flight(&self, peer: u32) -> bool {
        read(self.bgp.lock().as_ref(), move |s: &BgpSlot| {
            s.0.borrow().dump_in_flight(PeerId(peer))
        })
    }

    /// Routes a peering has announced to its neighbor so far (dump
    /// progress observability).
    pub fn bgp_announced_count(&self, peer: u32) -> usize {
        read(self.bgp.lock().as_ref(), move |s: &BgpSlot| {
            s.0.borrow().announced_count(PeerId(peer))
        })
    }

    /// BGP PeerIn route count across peers.
    pub fn bgp_route_count(&self) -> usize {
        read(self.bgp.lock().as_ref(), |s: &BgpSlot| {
            s.0.borrow().route_count()
        })
    }

    /// Whether any lane on the BGP process's XRL router is currently
    /// above its high watermark (an Xoff is in force).
    pub fn bgp_congested(&self) -> bool {
        read(self.bgp.lock().as_ref(), |r: &XrlRouter| {
            r.any_lane_congested()
        })
    }

    /// Heap bytes the fanout stage holds (its queue buffer by capacity,
    /// reader bookkeeping, in-flight dump state): what a drained backlog
    /// must have given back.
    pub fn bgp_fanout_memory_bytes(&self) -> usize {
        read(self.bgp.lock().as_ref(), |s: &BgpSlot| {
            s.0.borrow().fanout_memory_bytes()
        })
    }

    /// BGP process heap proxy: route storage, fanout holdback, and the
    /// XRL layer's retained frames (retransmission copies + UDP parking).
    pub fn bgp_memory_bytes(&self) -> usize {
        let bgp = self.bgp.lock();
        read(bgp.as_ref(), |s: &BgpSlot| s.0.borrow().memory_bytes())
            + read(bgp.as_ref(), |r: &XrlRouter| r.retained_frame_bytes())
    }

    /// Round-trip a supervision keepalive to the BGP process over the
    /// priority lane, from the RIB's loop, and time it.  `None` on
    /// timeout or a dead process.
    pub fn probe_bgp_latency(&self, timeout: Duration) -> Option<Duration> {
        let (tx, rx) = std::sync::mpsc::channel();
        self._rib.post(move |el| {
            let router = el
                .slot::<XrlRouter>()
                .expect("xrl router on rib loop")
                .clone();
            let t0 = Instant::now();
            keepalive::probe_liveness(&router, el, "bgp", move |_el, alive, _congested| {
                if alive {
                    let _ = tx.send(t0.elapsed());
                }
            });
        });
        rx.recv_timeout(timeout).ok()
    }

    /// Consistency violations from the RIB's cache stage, if enabled.
    pub fn rib_violations(&self) -> Vec<String> {
        read(Some(&self._rib), |s: &RibSlot| {
            s.0.borrow().consistency_violations()
        })
    }

    /// Spin until `pred()` or timeout; returns success.
    pub fn wait_for(&self, timeout: Duration, mut pred: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if pred() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        pred()
    }

    /// Shut the router down: the supervisor first (so it cannot restart
    /// what we are stopping), then the protocols, then the
    /// infrastructure — reverse dependency order, like
    /// `RouterManager::shutdown`.
    pub fn stop(self) {
        if let Some(sup) = self.supervisor {
            sup.stop();
        }
        let bgp = self.bgp.lock().take();
        if let Some(bgp) = bgp {
            bgp.stop();
        }
        self._rib.stop();
        self._fea.stop();
    }
}
