//! One lifecycle for every process: the process table, the peer model a
//! restarted BGP is fed, and the `rtrmgr` loop that probes and respawns
//! the table's rows (the module doc of `router` gives each process's
//! re-learn rule).

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use xorp_bgp::bgp::UpdateIn;
use xorp_event::EventLoop;
use xorp_net::{FxHashMap, Ipv4Net, PathAttributes, ProtocolId};
use xorp_rtrmgr::{FlightReport, Supervisor, SupervisorConfig, SupervisorVerdict};
use xorp_xrl::{keepalive, RetryPolicy, XrlRouter};

use super::{setup_bgp, setup_fea, setup_rib, spawn_process, Wiring};
use crate::process::Process;
use crate::xrl_ifaces;

/// How long an injected-crash process lives after coming up: long enough
/// to come all the way up (deterministic), short enough that every
/// supervision cycle in the tests sees a real crash.
const CRASH_DELAY: Duration = Duration::from_millis(5);

/// What the peers would re-send a restarted BGP when their sessions
/// re-establish: each peer's current announcements and the peers that are
/// up.  Announcements are recorded only under supervision; the map holds
/// one entry per announced prefix, however much churn the peer sent.
/// Prefixes come from the network, so the map is ordered, not hashed.
#[derive(Default)]
pub(super) struct PeerModel {
    pub(super) routes: BTreeMap<u32, BTreeMap<Ipv4Net, Arc<PathAttributes>>>,
    pub(super) up: BTreeSet<u32>,
}

impl PeerModel {
    pub(super) fn record(&mut self, peer: u32, update: &UpdateIn<Ipv4Addr>) {
        let routes = self.routes.entry(peer).or_default();
        for net in &update.withdrawn {
            routes.remove(net);
        }
        if let Some((attrs, nets)) = &update.announce {
            routes.extend(nets.iter().map(|&net| (net, attrs.clone())));
        }
    }

    /// The announcements as UPDATEs: one per peer and attribute block.
    pub(super) fn updates(&self) -> Vec<(u32, UpdateIn<Ipv4Addr>)> {
        let mut updates = Vec::new();
        for (&peer, routes) in &self.routes {
            let mut blocks: FxHashMap<*const PathAttributes, (Arc<_>, Vec<_>)> =
                FxHashMap::default();
            for (&net, attrs) in routes {
                let block = blocks.entry(Arc::as_ptr(attrs));
                block.or_insert_with(|| (attrs.clone(), vec![])).1.push(net);
            }
            for announce in blocks.into_values() {
                let withdrawn = vec![];
                let announce = Some(announce);
                updates.push((
                    peer,
                    UpdateIn {
                        withdrawn,
                        announce,
                    },
                ));
            }
        }
        updates
    }
}

/// A process's own setup, run by [`spawn_process`] after the prologue.
type Setup = fn(&mut EventLoop, &XrlRouter, &Wiring);

/// One row of the process table.
pub(super) struct Managed {
    pub(super) name: &'static str,
    setup: Setup,
    /// A permanent death's flush, sent from rtrmgr to the process holding
    /// this one's routes: the grace period no longer applies.
    flush: fn(&mut EventLoop, &XrlRouter),
    pub(super) live: Option<Process>,
    /// Spawns still to crash shortly after coming up (fault injection).
    pub(super) crashes: u32,
}

impl Managed {
    fn new(name: &'static str, setup: Setup, flush: fn(&mut EventLoop, &XrlRouter)) -> Managed {
        let (live, crashes) = (None, 0);
        Managed {
            name,
            setup,
            flush,
            live,
            crashes,
        }
    }

    /// Spawn the process in place of a dead instance, whose thread is
    /// joined first, before the fresh instance registers.
    pub(super) fn respawn(&mut self, wiring: &Wiring) {
        drop(self.live.take());
        let process = spawn_process(self.name, wiring, self.setup);
        if self.crashes > 0 {
            self.crashes -= 1;
            process.post(|el| {
                el.after(CRASH_DELAY, |el| el.stop());
            });
        }
        self.live = Some(process);
    }
}

/// The process table, shared with rtrmgr, which replaces dead rows.
pub(super) type Processes = Arc<Mutex<Vec<Managed>>>;

pub(super) fn row<'a>(rows: &'a mut [Managed], name: &str) -> Option<&'a mut Managed> {
    rows.iter_mut().find(|m| m.name == name)
}

/// The process table, in dependency order.  Each row's `flush` tells the
/// process holding its routes to drop them; nothing holds the FEA's.
pub(super) fn process_table() -> Vec<Managed> {
    vec![
        Managed::new("fea", setup_fea, |_el, _router| {}),
        Managed::new("rib", setup_rib, |el, router| {
            xrl_ifaces::fea::Client::new(router, "fea").flush_routes(el, |_el, _r| {});
        }),
        Managed::new("bgp", setup_bgp, |el, router| {
            let rib = xrl_ifaces::rib::Client::new(router, "rib");
            rib.flush_protocol(el, ProtocolId::Ebgp.name(), |_el, _r| {});
        }),
    ]
}

/// Post-mortems the supervisor captured at crash classification.
pub(super) type Flights = Arc<Mutex<Vec<FlightReport>>>;

/// Put every row under supervision and spawn `rtrmgr` over the table.
/// Every keepalive interval it respawns the rows whose restart is due, in
/// dependency order, and probes every row still counted alive.  A crash
/// classification is flight-recorded; a Degraded verdict also sends the
/// row's flush.
pub(super) fn spawn_rtrmgr(
    cfg: SupervisorConfig,
    wiring: &Wiring,
    processes: &Processes,
    restarts: &Arc<AtomicU32>,
    flights: &Flights,
) -> (Process, Arc<Mutex<Supervisor>>) {
    let mut sup = Supervisor::new(cfg);
    for row in processes.lock().iter() {
        sup.manage(row.name);
    }
    sup.set_metrics(&wiring.metrics.scoped("rtrmgr"));
    let sup = Arc::new(Mutex::new(sup));
    let state = sup.clone();
    let (processes, restarts, flights) = (processes.clone(), restarts.clone(), flights.clone());
    // Respawns wire a process as the first spawn did, and the flight
    // recorder reads the whole registry (unscoped): a post-mortem filters
    // to the dead process's prefix itself.
    let unscoped = wiring.clone();
    let rtrmgr = spawn_process("rtrmgr", wiring, move |el, router, w| {
        // Probes run on a short leash: a hung component must classify as
        // a miss within roughly one keepalive interval, not wait out the
        // data-plane retry policy.
        router.set_retry_policy(Some(RetryPolicy {
            max_attempts: 2,
            base_timeout: (cfg.keepalive_interval / 4).max(Duration::from_millis(5)),
            max_timeout: (cfg.keepalive_interval / 2).max(Duration::from_millis(10)),
        }));

        // Probe round-trip latency, µs (§3.1 liveness telemetry).
        let probe_latency = w.metrics.histogram("probe_latency_us");
        let router = router.clone();
        el.every(cfg.keepalive_interval, move |el| {
            let now = Duration::from_nanos(el.now().as_nanos());
            // (Bind the list first: iterating `sup.lock().…` directly
            // would hold the guard across the body.)
            let due = sup.lock().due_restarts(now);
            for name in due {
                if let Some(row) = row(&mut processes.lock(), &name) {
                    row.respawn(&unscoped);
                }
                restarts.fetch_add(1, Ordering::SeqCst);
                sup.lock().restarted(&name);
            }
            let rows: Vec<_> = processes.lock().iter().map(|m| (m.name, m.flush)).collect();
            for (name, flush) in rows {
                if !sup.lock().should_probe(name) {
                    continue;
                }
                let (sup, probe_latency) = (sup.clone(), probe_latency.clone());
                let (flights, unscoped) = (flights.clone(), unscoped.clone());
                let (t0, flush_router) = (Instant::now(), router.clone());
                keepalive::probe_liveness(&router, el, name, move |el, alive, congested| {
                    if alive {
                        probe_latency.observe(t0.elapsed().as_micros() as u64);
                    }
                    let now = Duration::from_nanos(el.now().as_nanos());
                    let verdict = sup.lock().record_probe(name, alive, now);
                    if alive {
                        // Busy-but-alive is not dead: congestion feeds the
                        // overload budget, which only escalates to
                        // Degraded when sustained past it.  No flush — the
                        // component is still serving its routes.
                        sup.lock().record_overload(name, congested, now);
                    }
                    // Flight recorder: crash classification is the moment
                    // to snapshot what the dead process was doing — its
                    // span ring and metrics outlive it in the shared
                    // registries.
                    let reason = match &verdict {
                        SupervisorVerdict::RestartScheduled { .. } => {
                            "crash classified, restart scheduled"
                        }
                        SupervisorVerdict::Degraded => "restart budget spent, degraded",
                        SupervisorVerdict::None => return,
                    };
                    let (tracer, metrics) = (&unscoped.tracer, &unscoped.metrics);
                    flights
                        .lock()
                        .push(FlightReport::capture(name, reason, tracer, metrics));
                    if verdict == SupervisorVerdict::Degraded {
                        flush(el, &flush_router);
                    }
                });
            }
        });
    });
    (rtrmgr, state)
}
