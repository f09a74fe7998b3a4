//! A full multi-process router: BGP, RIB and FEA event loops on separate
//! threads, speaking XRLs over TCP — the §8.2 measurement configuration.
//!
//! Route flow and the eight profiling points:
//!
//! ```text
//! apply_update ──[1 BGP_IN]── BGP pipeline ──[2 QUEUED_FOR_RIB]── batch
//!   ── XRL rib/1.0/add_route(s) ──[3 SENT_TO_RIB]──(tcp)──[4 RIB_IN]──
//!   RIB stages ──[5 QUEUED_FOR_FEA]── batch ── XRL fea/1.0/add_route(s)
//!   ──[6 SENT_TO_FEA]──(tcp)──[7 FEA_IN]── FIB insert [8 KERNEL]
//! ```
//!
//! ## Lifecycle
//!
//! `fea`, `rib` and `bgp` are rows of one process table: a name, a setup
//! function over the shared `Wiring`, and the live [`Process`].  The first
//! spawn and every restart run the same function.  With
//! [`RouterOptions::supervision`] set, a fourth process — `rtrmgr` —
//! probes every row over XRL keepalives and respawns, in dependency
//! order, a process whose streak of misses classifies a crash (§3.1
//! brought to production practice).  A restarted process re-learns its
//! state from its neighbours, each driven by a class watch on the dead
//! one: for the FEA the RIB re-adds its `fea` watcher, whose dump refills
//! the FIB; for the RIB, BGP re-asks every nexthop and re-advertises its
//! best table; for BGP, the peer model feeds each peer's current
//! announcements.  Meanwhile the process holding the dead one's routes
//! (the FEA for the RIB, the RIB for BGP) keeps them *stale* under the
//! grace timer and sweeps only what was never re-sent.  Without
//! supervision the grace is zero: death flushes (§4.1).  A spent restart
//! budget degrades the row, and its `flush` withdraws those routes at once.

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
use xorp_fea::{test_iface, Fea};
use xorp_net::{AttrBlocks, Ipv4Net, PathAttributes, Prefix, ProtocolId};
use xorp_policy::FilterBank;
use xorp_profiler::tracing::{self as xtrace, ActiveSpan, SpanRecorder, TraceContext, Tracer};
use xorp_profiler::{points, Histogram, Metrics, PointHandle, Profiler};
use xorp_rib::{BatchOp, RedistWatcher, Rib};
use xorp_rtrmgr::{FlightReport, SupervisedState, Supervisor, SupervisorConfig};
use xorp_xrl::keepalive;
use xorp_xrl::profile::add_profile_responder;
use xorp_xrl::{
    CongestionSignal, FaultConfig, Finder, QueuePolicy, RetTuple, RetryPolicy, TypedResponder,
    WireList, XrlError, XrlRouter,
};

use crate::batch::RouteOutput;
use crate::process::Process;
use crate::workload::BackboneRoute;
use crate::xrl_ifaces::{self, BulkRouteSink, RouteRow, RouteWire};

mod lifecycle;
use lifecycle::{process_table, row, spawn_rtrmgr, Flights, PeerModel, Processes};

/// Loop-slot wrapper for the BGP process state.
pub struct BgpSlot(pub Rc<RefCell<BgpProcess<Ipv4Addr>>>);
/// Loop-slot wrapper for the RIB process state.
pub struct RibSlot(pub Rc<RefCell<Rib<Ipv4Addr>>>);
/// Loop-slot wrapper for the FEA process state.
pub struct FeaSlot(pub Rc<RefCell<Fea>>);

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
    /// Supervise every process (fea, rib, bgp): keepalive liveness,
    /// backoff restart under a restart budget, and graceful restart — a
    /// dead process's routes stay installed, stale, for the grace period
    /// while its successor re-learns.  `None`: nothing restarts, and a
    /// death flushes its routes at once.
    pub supervision: Option<SupervisorConfig>,
    /// Cap on a run of same-direction routes on the BGP→RIB and RIB→FEA
    /// hops (default `1`).  A run of one leaves as `add_route`/
    /// `delete_route`, a longer one as one `add_routes`/`delete_routes`
    /// XRL; partial runs flush once the sender's loop has drained its input.
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

/// The assembled router: the process table plus, when supervision is on,
/// the `rtrmgr` prober.
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
    /// `fea`, `rib` and `bgp`, in dependency order.
    processes: Processes,
    /// The supervising rtrmgr process, when supervision is enabled.
    supervisor: Option<Process>,
    /// Supervision state shared with the rtrmgr process.
    sup_state: Option<Arc<Mutex<Supervisor>>>,
    peers: Arc<Mutex<PeerModel>>,
    restarts: Arc<AtomicU32>,
    flights: Flights,
}

/// BGP's nexthop service backed by the RIB's interest-registration XRL
/// (§5.1.1: "The Nexthop Resolver stages talk asynchronously to the RIB").
/// A failed query (a dead RIB) is not an answer: the nexthop keeps its
/// last one, and the invalidation BGP sends when a RIB comes up asks again.
struct XrlNexthopService(xrl_ifaces::rib::Client);

impl NexthopService<Ipv4Addr> for XrlNexthopService {
    fn resolve_nexthop(&self, el: &mut EventLoop, addr: Ipv4Addr, cb: AnswerCb<Ipv4Addr>) {
        self.0.register_interest(el, addr, move |el, result| {
            if let Ok((valid, reachable, metric)) = result {
                let metric = reachable.then_some(metric);
                cb(el, RibNexthopAnswer { valid, metric });
            }
        });
    }
}

/// The BGP process's `bgp/1.0` server: nexthop invalidation.
struct BgpServer {
    bgp: Rc<RefCell<BgpProcess<Ipv4Addr>>>,
}

impl xrl_ifaces::bgp::Server for BgpServer {
    fn invalidate(&self, el: &mut EventLoop, net: Ipv4Net, responder: TypedResponder<()>) {
        self.bgp.borrow_mut().invalidate_nexthops(el, net);
        responder.ok(el, ());
    }
}

/// The FEA process's `fea/1.0` server: FIB edits, per-route and
/// vectorized.
struct FeaServer {
    fea: Rc<RefCell<Fea>>,
    fea_in: PointHandle,
    recorder: SpanRecorder,
    /// `fea.batch_size`: rows per `add_routes`/`delete_routes` frame.
    batch_size: Histogram,
}

impl FeaServer {
    /// Terminal trace hop: one `fea` point span per traced frame (the
    /// dispatcher scoped the frame's context over this handler).
    fn trace_arrival(&self) {
        if let Some(ctx) = xtrace::current() {
            self.recorder.instant(ctx, "fea");
        }
    }

    fn install(&self, net: Ipv4Net, nexthop: Ipv4Addr, ifname: &str, metric: u32) {
        self.fea_in.record(|| format!("add {net}"));
        let ifname = Some(ifname).filter(|n| !n.is_empty()).unwrap_or("eth0");
        let mut fea = self.fea.borrow_mut();
        fea.install4(net, IpAddr::V4(nexthop), ifname, metric); // stamps KERNEL
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
        self.install(net, nexthop, &ifname, metric);
        responder.ok(el, ());
    }

    fn delete_route(&self, el: &mut EventLoop, net: Ipv4Net, responder: TypedResponder<()>) {
        self.fea_in.record(|| format!("del {net}"));
        self.fea.borrow_mut().delete_route4(&net);
        responder.ok(el, ());
    }

    // Vectorized twins of add_route/delete_route — N FIB edits per
    // frame, read in place.  All rows are validated before any is applied.
    fn add_routes(&self, el: &mut EventLoop, routes: WireList, responder: TypedResponder<(u32,)>) {
        let rows = match xrl_ifaces::read_add_rows(&routes) {
            Ok(rows) => rows,
            Err(e) => return responder.fail(el, e),
        };
        self.trace_arrival();
        for r in &rows {
            self.install(r.net, r.nexthop, r.ifname, r.metric);
        }
        self.batch_size.observe(rows.len() as u64);
        responder.ok(el, (rows.len() as u32,));
    }

    fn delete_routes(
        &self,
        el: &mut EventLoop,
        routes: WireList,
        responder: TypedResponder<(u32,)>,
    ) {
        let rows = match xrl_ifaces::read_delete_rows(&routes) {
            Ok(rows) => rows,
            Err(e) => return responder.fail(el, e),
        };
        for (net, _proto) in &rows {
            self.fea_in.record(|| format!("del {net}"));
            self.fea.borrow_mut().delete_route4(net);
        }
        self.batch_size.observe(rows.len() as u64);
        responder.ok(el, (rows.len() as u32,));
    }

    fn route_count(&self, el: &mut EventLoop, responder: TypedResponder<(u32,)>) {
        responder.ok(el, (self.fea.borrow().route_count4() as u32,));
    }

    // A degraded RIB's routes, which are all of them, go at once.
    fn flush_routes(&self, el: &mut EventLoop, responder: TypedResponder<()>) {
        let mut fea = self.fea.borrow_mut();
        fea.mark_stale();
        fea.sweep_stale();
        responder.ok(el, ());
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
    /// The one attribute block per nexthop the RIB's routes share.
    blocks: RefCell<AttrBlocks>,
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

    /// Apply one frame's ops and acknowledge them.
    fn apply(
        &self,
        el: &mut EventLoop,
        ops: Vec<BatchOp<Ipv4Addr>>,
        responder: TypedResponder<(u32,)>,
    ) {
        let traced = self.begin_span();
        let n = self.rib.borrow_mut().apply_batch(el, ops);
        self.end_span(traced);
        self.reply(el, responder, Ok((n as u32,)));
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
        let proto = match xrl_ifaces::protocol(&proto) {
            Ok(proto) => proto,
            Err(e) => return self.reply(el, responder, Err(e)),
        };
        let row = RouteRow {
            net,
            nexthop,
            ifname: &ifname,
            metric,
            proto,
        };
        let route = row.into_rib_route(&mut self.blocks.borrow_mut());
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
        let proto = match xrl_ifaces::protocol(&proto) {
            Ok(proto) => proto,
            Err(e) => return self.reply(el, responder, Err(e)),
        };
        let traced = self.begin_span();
        self.rib.borrow_mut().delete_route(el, proto, net);
        self.end_span(traced);
        self.reply(el, responder, Ok(()));
    }

    // Vectorized twins: N routes per frame, read in place and applied
    // through Rib::apply_batch (one resolve/redistribution pass).  Row
    // validation is transactional — a malformed row rejects the whole
    // frame before any route is applied.
    fn add_routes(&self, el: &mut EventLoop, routes: WireList, responder: TypedResponder<(u32,)>) {
        let rows = match xrl_ifaces::read_add_rows(&routes) {
            Ok(rows) => rows,
            Err(e) => return self.reply(el, responder, Err(e)),
        };
        let mut blocks = self.blocks.borrow_mut();
        let ops = rows.into_iter().map(|row| {
            self.rib_in.record(|| format!("add {}", row.net));
            BatchOp::Add(row.into_rib_route(&mut blocks))
        });
        let ops = ops.collect();
        drop(blocks);
        self.apply(el, ops, responder);
    }

    fn delete_routes(
        &self,
        el: &mut EventLoop,
        routes: WireList,
        responder: TypedResponder<(u32,)>,
    ) {
        let rows = match xrl_ifaces::read_delete_rows(&routes) {
            Ok(rows) => rows,
            Err(e) => return self.reply(el, responder, Err(e)),
        };
        let ops = rows.into_iter().map(|(net, proto)| {
            self.rib_in.record(|| format!("del {net}"));
            BatchOp::Delete { proto, net }
        });
        self.apply(el, ops.collect(), responder);
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
        let proto = xrl_ifaces::protocol(&proto);
        let flushed = proto.map(|p| self.rib.borrow_mut().clear_protocol(el, p));
        responder.reply(el, flushed.map(|_| ()));
    }

    fn stale_count(&self, el: &mut EventLoop, proto: String, responder: TypedResponder<(u32,)>) {
        let count = xrl_ifaces::protocol(&proto).map(|p| self.rib.borrow().stale_count(p));
        responder.reply(el, count.map(|n| (n as u32,)));
    }
}

/// What every process of the router shares: the broker, the three
/// observability sinks, the options and the peer model.  `Clone + Send`,
/// so a respawn on the rtrmgr thread wires a process exactly as the first
/// spawn did.
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
    peers: Arc<Mutex<PeerModel>>,
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

/// Backpressure for one hop, one rule for both.  The producer (a fanout
/// reader, the `fea` watcher), its dump and `out` read one `flow` cell,
/// at every batch size.  The lane to `target`'s route methods flips it
/// inside the send path: Xoff closes it, stopping a delivery, a dump
/// slice or a run at its next step.  Xon reopens it and defers one
/// `resume` (the producer's backlog replay and dump restart) and then a
/// flush of `out`: the signal may fire with the process borrowed.  The
/// deferred step is skipped if an Xoff closed the cell meanwhile, so a
/// stale Xon never reopens a congested lane.
pub fn on_congestion(
    router: &XrlRouter,
    target: &'static str,
    flow: Rc<Cell<bool>>,
    out: &RouteOutput,
    resume: impl Fn(&mut EventLoop) + 'static,
) {
    out.set_flow(flow.clone());
    let (lane_router, out, resume) = (router.clone(), out.clone(), Rc::new(resume));
    let path = format!("{target}/1.0/add_route");
    router.set_congestion_cb(move |el, sig| {
        if lane_router.lane_of(target, &path).as_deref() != Some(sig.lane()) {
            return;
        }
        let ready = matches!(sig, CongestionSignal::Xon { .. });
        flow.set(ready);
        if ready {
            let (flow, out, resume) = (flow.clone(), out.clone(), resume.clone());
            el.defer(move |el| {
                if flow.get() {
                    resume(el);
                    out.flush(el);
                }
            });
        }
    });
}

/// §4.1 for the routes a dead `class` process installed here: `mark`
/// keeps them installed, stale, and `sweep` withdraws what is still stale
/// when the grace period ends — at once without supervision.
fn on_death(
    router: &XrlRouter,
    w: &Wiring,
    class: &str,
    mark: impl Fn() -> usize + 'static,
    sweep: impl Fn(&mut EventLoop) + 'static,
) {
    let grace = w.options.supervision.map(|cfg| cfg.grace_period);
    let sweep = Rc::new(sweep);
    router.watch_class(class, move |el, ev| {
        if ev.up || mark() == 0 {
            return;
        }
        let sweep = sweep.clone();
        match grace {
            Some(grace) => {
                el.after(grace, move |el| sweep(el));
            }
            None => sweep(el),
        }
    });
}

fn setup_fea(el: &mut EventLoop, router: &XrlRouter, w: &Wiring) {
    let mut fea = Fea::new();
    fea.configure_interface(test_iface("eth0", "192.168.0.1", 16));
    fea.set_profiler(w.profiler.clone());
    let fea = Rc::new(RefCell::new(fea));
    el.set_slot(FeaSlot(fea.clone()));
    let (f, f2) = (fea.clone(), fea.clone());
    on_death(
        router,
        w,
        "rib",
        move || f.borrow_mut().mark_stale(),
        move |_el| _ = f2.borrow_mut().sweep_stale(),
    );
    xrl_ifaces::fea::register(
        router,
        "fea-0",
        FeaServer {
            fea,
            fea_in: w.profiler.point(points::FEA_IN),
            recorder: w.tracer.recorder("fea"),
            batch_size: w.metrics.histogram("batch_size"),
        },
    );
}

/// Feed the FEA through the RIB's `fea` redistribution watcher, so a
/// congested FEA lane parks the stream in the watcher's backlog: without
/// a consumer for the Xoff, the RIB would pump its own lane through the
/// hard cap and silently shed installs.  A watcher added to a loaded RIB
/// starts with a dump of its table.
fn watch_fea(
    el: &mut EventLoop,
    router: &XrlRouter,
    rib: &Rc<RefCell<Rib<Ipv4Addr>>>,
    out: &RouteOutput,
) {
    let fea_out = out.clone();
    let sink = Rc::new(move |el: &mut EventLoop, op| fea_out.push(el, op));
    let accept = FilterBank::accept_by_default();
    let watcher = RedistWatcher::new("fea", None, accept, sink);
    rib.borrow_mut().add_redist_watcher(el, watcher);
    let flow = rib.borrow().redist_watcher_flow("fea");
    let r = rib.clone();
    on_congestion(router, "fea", flow.expect("fea watcher"), out, move |el| {
        r.borrow_mut().set_redist_watcher_flow(el, "fea", true);
    });
}

fn setup_rib(el: &mut EventLoop, router: &XrlRouter, w: &Wiring) {
    let o = &w.options;
    let rib = Rc::new(RefCell::new(Rib::<Ipv4Addr>::new(o.consistency_check)));
    rib.borrow_mut().set_metrics(&w.metrics);
    el.set_slot(RibSlot(rib.clone()));

    // §4.1: "if a routing protocol dies, the RIB will deregister all
    // the routes that protocol had registered".
    let (r, r2) = (rib.clone(), rib.clone());
    on_death(
        router,
        w,
        "bgp",
        move || r.borrow_mut().mark_protocol_stale(ProtocolId::Ebgp),
        move |el| _ = r2.borrow_mut().sweep_stale(el, ProtocolId::Ebgp),
    );

    // Output: install into the FEA over XRLs (points 5 and 6).
    let out = RouteOutput::new(
        BulkRouteSink::Fea(xrl_ifaces::fea::Client::new(router, "fea")),
        o.batch_size,
        w.profiler.point(points::QUEUED_FOR_FEA),
        w.profiler.point(points::SENT_TO_FEA),
        w.tracer.recorder("rib"),
    );
    watch_fea(el, router, &rib, &out);
    // A dead FEA's FIB died with it: drop its watcher and the ops
    // queued for it.  A new FEA gets a new watcher, whose dump
    // refills its FIB.
    let r = rib.clone();
    router.watch_class("fea", move |el, ev| {
        if !ev.up {
            r.borrow_mut().remove_redist_watcher("fea");
            out.clear();
        } else if r.borrow().redist_watcher_flow("fea").is_none() {
            let router = el.slot::<XrlRouter>().expect("xrl router").clone();
            watch_fea(el, &router, &r, &out);
        }
    });

    // Pre-install the connected route BGP nexthops resolve via.
    let mut blocks = AttrBlocks::default();
    let connected = RouteWire {
        net: "192.168.0.0/16".parse().unwrap(),
        nexthop: Ipv4Addr::new(192, 168, 0, 1),
        ifname: "eth0".into(),
        metric: 1,
        proto: ProtocolId::Connected,
    };
    rib.borrow_mut()
        .add_route(el, connected.into_rib_route(&mut blocks));

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
            blocks: RefCell::new(blocks),
        },
    );
}

fn setup_bgp(el: &mut EventLoop, router: &XrlRouter, w: &Wiring) {
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
    // 3).  The client interns every method once; sends do no
    // path hashing and negotiate the positional wire.  The
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
        rib_out.push(el, op);
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
    }
    let bgp = Rc::new(RefCell::new(bgp));
    el.set_slot(BgpSlot(bgp.clone()));

    // Backpressure: a congested lane to the RIB closes the RIB
    // reader's flow cell, and the backlog waits in the fanout
    // queue, whose holdback is bounded by table size, not churn
    // rate.
    let flow = bgp.borrow().reader_flow(ReaderId::Rib);
    let b = bgp.clone();
    on_congestion(router, "rib", flow.expect("RIB reader"), &out, move |el| {
        b.borrow_mut().set_reader_flow(el, ReaderId::Rib, true);
    });

    // While the RIB is dead its reader parks in the fanout, and the ops
    // queued for it go: a dead lane sends no Xoff to stop the stream, nor
    // an Xon to restart it.  A new RIB starts empty and holds none of our
    // nexthop interest: re-ask every nexthop, reopen the reader and
    // re-advertise the best table.
    let (b, lost) = (bgp.clone(), Cell::new(false));
    router.watch_class("rib", move |el, ev| {
        if !ev.up {
            lost.set(true);
            b.borrow_mut().set_reader_flow(el, ReaderId::Rib, false);
            out.clear();
        } else if lost.replace(false) {
            let mut bgp = b.borrow_mut();
            bgp.invalidate_nexthops(el, Prefix::default_route());
            bgp.set_reader_flow(el, ReaderId::Rib, true);
            bgp.readvertise_rib(el);
            drop(bgp);
            out.flush(el);
        }
    });

    xrl_ifaces::bgp::register(router, "bgp-0", BgpServer { bgp: bgp.clone() });

    // The peers that are up re-send what they announce when their
    // sessions re-establish: the peer model replays that, through the
    // backpressured pipeline.
    let (up, updates) = {
        let model = w.peers.lock();
        (model.up.clone(), model.updates())
    };
    let mut bgp = bgp.borrow_mut();
    for id in up {
        bgp.peering_up(el, PeerId(id));
    }
    for (peer, update) in updates {
        bgp.apply_update(el, PeerId(peer), update);
    }
}

impl MultiProcessRouter {
    /// Spawn the three processes and wire them together.  A connected
    /// route `192.168.0.0/16 dev eth0` is pre-installed so BGP nexthops in
    /// that range resolve (the paper likewise keeps one route installed to
    /// stabilize RIB interactions).
    pub fn new(options: RouterOptions) -> MultiProcessRouter {
        let down = &options.down_peers;
        let up = options
            .peers
            .iter()
            .map(|p| p.0)
            .filter(|id| !down.contains(id));
        let peers = PeerModel {
            up: up.collect(),
            ..Default::default()
        };
        let wiring = Wiring {
            finder: Finder::new(),
            profiler: Profiler::new(),
            tracer: Tracer::new(),
            metrics: Metrics::new(),
            options: Arc::new(options),
            peers: Arc::new(Mutex::new(peers)),
        };
        let mut rows = process_table();
        for row in &mut rows {
            row.respawn(&wiring);
        }
        let processes: Processes = Arc::new(Mutex::new(rows));
        let (restarts, flights) = (Arc::default(), Arc::default());
        let rtrmgr = wiring
            .options
            .supervision
            .map(|cfg| spawn_rtrmgr(cfg, &wiring, &processes, &restarts, &flights));
        let (supervisor, sup_state) = rtrmgr.unzip();

        MultiProcessRouter {
            profiler: wiring.profiler,
            metrics: wiring.metrics,
            tracer: wiring.tracer,
            finder: wiring.finder,
            processes,
            supervisor,
            sup_state,
            peers: wiring.peers,
            restarts,
            flights,
        }
    }

    /// Run `f` on the live `name` process, if there is one.
    fn with<R>(&self, name: &str, f: impl FnOnce(&Process) -> R) -> Option<R> {
        row(&mut self.processes.lock(), name)?.live.as_ref().map(f)
    }

    /// Read process state on its own loop: `f` runs against the `name`
    /// loop's `S` slot.  The default value when the process or the slot is
    /// gone.
    fn read<S: 'static, R: Default + Send + 'static>(
        &self,
        name: &str,
        f: impl FnOnce(&S) -> R + Send + 'static,
    ) -> R {
        let read = |p: &Process| p.call(move |el| el.slot::<S>().map(f)).ok().flatten();
        self.with(name, read).flatten().unwrap_or_default()
    }

    /// Post-mortem flight reports the supervisor captured so far (crash
    /// classifications and Degraded escalations), oldest first.
    pub fn flight_reports(&self) -> Vec<FlightReport> {
        self.flights.lock().clone()
    }

    /// Kill a process (`fea`, `rib` or `bgp`), as a fault test would: its
    /// router deregisters from the Finder, whose death notification drives
    /// its neighbours' rules (module doc).  No-op if already dead.
    pub fn kill(&self, name: &str) {
        let dead = row(&mut self.processes.lock(), name).and_then(|m| m.live.take());
        if let Some(process) = dead {
            process.stop();
        }
    }

    /// Whether a process is running (a supervised restart may have
    /// replaced the original — this reflects the live instance).
    pub fn alive(&self, name: &str) -> bool {
        self.with(name, Process::is_alive).unwrap_or(false)
    }

    /// Whether the BGP process is running.
    pub fn bgp_alive(&self) -> bool {
        self.alive("bgp")
    }

    /// Supervised restarts performed so far.
    pub fn supervised_restarts(&self) -> u32 {
        self.restarts.load(Ordering::SeqCst)
    }

    /// The supervisor's view of a component, when supervision is on.
    pub fn supervisor_state(&self, name: &str) -> Option<SupervisedState> {
        self.sup_state.as_ref().and_then(|s| s.lock().state(name))
    }

    /// Make the next `n` spawns of `name` crash shortly after coming up
    /// (deterministic crash-loop injection for supervision tests).
    pub fn set_crash_on_spawn(&self, name: &str, n: u32) {
        if let Some(row) = row(&mut self.processes.lock(), name) {
            row.crashes = n;
        }
    }

    /// Routes the peer model holds for a restarted BGP: one per announced
    /// prefix per peer.
    pub fn peer_model_routes(&self) -> usize {
        self.peers.lock().routes.values().map(|r| r.len()).sum()
    }

    /// Simulate the Finder dying and restarting empty.  Each process's
    /// watchdog re-registers its targets and watches within its next tick.
    pub fn kill_finder(&self) {
        self.finder.clear();
    }

    /// Feed an UPDATE to a peer (runs on the BGP loop).  Under supervision
    /// the peer model records it too, for a restarted process.  Silently
    /// dropped while the process is down.
    pub fn apply_update(&self, peer: u32, update: UpdateIn<Ipv4Addr>) {
        if self.sup_state.is_some() {
            self.peers.lock().record(peer, &update);
        }
        self.with("bgp", |bgp| {
            bgp.post(move |el| {
                let slot = el.slot::<BgpSlot>().expect("bgp slot").0.clone();
                slot.borrow_mut().apply_update(el, PeerId(peer), update);
            })
        });
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
        self.read("fea", |s: &FeaSlot| s.0.borrow().route_count4())
    }

    /// Routes currently in the RIB's final table.
    pub fn rib_route_count(&self) -> usize {
        self.read("rib", |s: &RibSlot| s.0.borrow().route_count())
    }

    /// FEA installs parked in the RIB's redistribution watcher while the
    /// RIB→FEA lane is congested (backpressure observability).
    pub fn rib_fea_backlog(&self) -> usize {
        self.read("rib", |s: &RibSlot| {
            s.0.borrow().redist_watcher_backlog("fea")
        })
    }

    /// EBGP routes in the RIB still marked stale (graceful-restart
    /// observability).
    pub fn rib_stale_count(&self) -> usize {
        self.read("rib", |s: &RibSlot| {
            s.0.borrow().stale_count(ProtocolId::Ebgp)
        })
    }

    /// Bring a configured-but-down peering up (runs on the BGP loop).  The
    /// peer's export feed starts with a §5.3 background dump of the
    /// existing table, interleaved with live churn.
    pub fn peering_up(&self, peer: u32) {
        self.peers.lock().up.insert(peer);
        self.with("bgp", |bgp| {
            bgp.post(move |el| {
                let slot = el.slot::<BgpSlot>().expect("bgp slot").0.clone();
                slot.borrow_mut().peering_up(el, PeerId(peer));
            })
        });
    }

    /// Is a background dump still walking toward `peer`'s export branch?
    pub fn bgp_dump_in_flight(&self, peer: u32) -> bool {
        self.read("bgp", move |s: &BgpSlot| {
            s.0.borrow().dump_in_flight(PeerId(peer))
        })
    }

    /// Routes a peering has announced to its neighbor so far (dump
    /// progress observability).
    pub fn bgp_announced_count(&self, peer: u32) -> usize {
        self.read("bgp", move |s: &BgpSlot| {
            s.0.borrow().announced_count(PeerId(peer))
        })
    }

    /// BGP PeerIn route count across peers.
    pub fn bgp_route_count(&self) -> usize {
        self.read("bgp", |s: &BgpSlot| s.0.borrow().route_count())
    }

    /// Whether any lane on the BGP process's XRL router is currently
    /// above its high watermark (an Xoff is in force).
    pub fn bgp_congested(&self) -> bool {
        self.read("bgp", |r: &XrlRouter| r.any_lane_congested())
    }

    /// Heap bytes the fanout stage holds (its queue buffer by capacity,
    /// reader bookkeeping, in-flight dump state): what a drained backlog
    /// must have given back.
    pub fn bgp_fanout_memory_bytes(&self) -> usize {
        self.read("bgp", |s: &BgpSlot| s.0.borrow().fanout_memory_bytes())
    }

    /// BGP process heap proxy: route storage, fanout holdback, and the
    /// XRL layer's retained frames (retransmission copies + UDP parking).
    pub fn bgp_memory_bytes(&self) -> usize {
        self.read("bgp", |s: &BgpSlot| s.0.borrow().memory_bytes())
            + self.read("bgp", |r: &XrlRouter| r.retained_frame_bytes())
    }

    /// Round-trip a supervision keepalive to the BGP process over the
    /// priority lane, from the RIB's loop, and time it.  `None` on
    /// timeout or a dead process.
    pub fn probe_bgp_latency(&self, timeout: Duration) -> Option<Duration> {
        let (tx, rx) = std::sync::mpsc::channel();
        self.with("rib", |rib| {
            rib.post(move |el| {
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
            })
        });
        rx.recv_timeout(timeout).ok()
    }

    /// Consistency violations from the RIB's cache stage, if enabled.
    pub fn rib_violations(&self) -> Vec<String> {
        self.read("rib", |s: &RibSlot| s.0.borrow().consistency_violations())
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
    /// what we are stopping), then the processes in reverse dependency
    /// order, like `RouterManager::shutdown`.
    pub fn stop(self) {
        if let Some(sup) = self.supervisor {
            sup.stop();
        }
        let rows = std::mem::take(&mut *self.processes.lock());
        for process in rows.into_iter().rev().filter_map(|m| m.live) {
            process.stop();
        }
    }
}

#[cfg(test)]
mod tests;
