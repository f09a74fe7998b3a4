//! The RIP process: distance-vector processing, timers, split horizon.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use xorp_event::{EventLoop, SliceResult, Time};
use xorp_net::{Ipv4Net, PathAttributes, ProtocolId, RouteEntry};
use xorp_profiler::tracing::{self as xtrace, SpanRecorder};
use xorp_stages::RouteOp;

use crate::packet::{RipCommand, RipEntry, RipPacket, INFINITY, MAX_ENTRIES};

/// Routes re-emitted per background readvertise slice.
const READVERTISE_SLICE: usize = 64;

/// Protocol timers (RFC 2453 defaults).
#[derive(Debug, Clone, Copy)]
pub struct RipConfig {
    /// Periodic full-table advertisement interval.
    pub update_interval: Duration,
    /// Route lifetime without refresh.
    pub timeout: Duration,
    /// Garbage-collection hold after expiry (advertised at metric 16).
    pub gc_interval: Duration,
    /// Send triggered updates on change.
    pub triggered_updates: bool,
}

impl Default for RipConfig {
    fn default() -> Self {
        RipConfig {
            update_interval: Duration::from_secs(30),
            timeout: Duration::from_secs(180),
            gc_interval: Duration::from_secs(120),
            triggered_updates: true,
        }
    }
}

/// Where a route stands in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RipRouteState {
    /// Alive and advertised.
    Valid,
    /// Expired; advertised at metric 16 until GC.
    GarbageCollecting,
}

struct RipRoute {
    metric: u32,
    nexthop: Ipv4Addr,
    /// Interface it was learned on (split-horizon key); None = local.
    iface: Option<String>,
    /// The advertising neighbor; None = locally originated.
    from: Option<Ipv4Addr>,
    tag: u16,
    state: RipRouteState,
    /// Deadline for the current state (timeout or GC end); used to detect
    /// stale timer pops.
    deadline: Time,
}

/// Packet-output callback: (interface, destination, packet).
pub type PacketSender = Rc<dyn Fn(&mut EventLoop, &str, Ipv4Addr, RipPacket)>;
/// Route-output callback: deltas for the RIB.
pub type RouteSink = Rc<dyn Fn(&mut EventLoop, RouteOp<Ipv4Addr, RouteEntry<Ipv4Addr>>)>;
/// Batched route-output callback: one whole flush of RIB deltas,
/// delivered at a natural boundary (end of packet/timer processing) or
/// when the size limit fills.
pub type BatchRouteSink = Rc<dyn Fn(&mut EventLoop, Vec<RouteOp<Ipv4Addr, RouteEntry<Ipv4Addr>>>)>;

/// The RIPv2 protocol engine.
pub struct RipProcess {
    config: RipConfig,
    /// Interface name → our address on it.
    ifaces: HashMap<String, Ipv4Addr>,
    routes: BTreeMap<Ipv4Net, RipRoute>,
    send: PacketSender,
    rib: RouteSink,
    /// When set, RIB deltas buffer here and flush as one batch at the
    /// size limit or the end of the packet/timer that produced them.
    batch_rib: Option<(BatchRouteSink, usize)>,
    pending_rib: Vec<RouteOp<Ipv4Addr, RouteEntry<Ipv4Addr>>>,
    me: Option<std::rc::Weak<RefCell<RipProcess>>>,
    /// Ingress trace sampler: a sampled RESPONSE roots a `rip_in` span
    /// whose ambient context every RIB delta it causes inherits.
    tracer: Option<SpanRecorder>,
    /// Updates sent (diagnostics).
    pub updates_sent: u64,
}

impl RipProcess {
    /// Build a process; wrap in `Rc<RefCell<_>>` and call
    /// [`RipProcess::start`].
    pub fn new(config: RipConfig, send: PacketSender, rib: RouteSink) -> RipProcess {
        RipProcess {
            config,
            ifaces: HashMap::new(),
            routes: BTreeMap::new(),
            send,
            rib,
            batch_rib: None,
            pending_rib: Vec::new(),
            me: None,
            tracer: None,
            updates_sent: 0,
        }
    }

    /// Attach a trace recorder; received RESPONSE packets become trace
    /// ingress points (sampled 1-in-N by the shared tracer).
    pub fn set_tracer(&mut self, recorder: SpanRecorder) {
        self.tracer = Some(recorder);
    }

    /// Switch RIB output to batched delivery: deltas accumulate and flush
    /// to `sink` once `limit` queue up or the packet/timer event that
    /// produced them finishes — a single change still flushes at its own
    /// boundary, keeping per-route latency.
    pub fn set_batch_sink(&mut self, sink: BatchRouteSink, limit: usize) {
        self.batch_rib = Some((sink, limit.max(1)));
    }

    /// Deliver one RIB delta, buffering under batch mode.
    fn deliver_rib(
        el: &mut EventLoop,
        me: &Rc<RefCell<RipProcess>>,
        op: RouteOp<Ipv4Addr, RouteEntry<Ipv4Addr>>,
    ) {
        let per_route = {
            let mut s = me.borrow_mut();
            if s.batch_rib.is_some() {
                s.pending_rib.push(op);
                None
            } else {
                Some((s.rib.clone(), op))
            }
        };
        match per_route {
            Some((rib, op)) => rib(el, op),
            None => {
                let full = {
                    let s = me.borrow();
                    s.batch_rib
                        .as_ref()
                        .is_some_and(|(_, limit)| s.pending_rib.len() >= *limit)
                };
                if full {
                    Self::flush_rib(el, me);
                }
            }
        }
    }

    /// Flush buffered RIB deltas (no-op per-route or when empty).
    pub fn flush_rib(el: &mut EventLoop, me: &Rc<RefCell<RipProcess>>) {
        let flush = {
            let mut s = me.borrow_mut();
            match (&s.batch_rib, s.pending_rib.is_empty()) {
                (Some((sink, _)), false) => {
                    let sink = sink.clone();
                    Some((sink, std::mem::take(&mut s.pending_rib)))
                }
                _ => None,
            }
        };
        if let Some((sink, ops)) = flush {
            sink(el, ops);
        }
    }

    /// Register an interface RIP speaks on.
    pub fn add_interface(&mut self, name: &str, addr: Ipv4Addr) {
        self.ifaces.insert(name.to_string(), addr);
    }

    /// Arm the periodic advertisement timer and remember the self-handle.
    pub fn start(el: &mut EventLoop, me: &Rc<RefCell<RipProcess>>) {
        me.borrow_mut().me = Some(Rc::downgrade(me));
        let interval = me.borrow().config.update_interval;
        let weak = Rc::downgrade(me);
        el.every(interval, move |el| {
            if let Some(rc) = weak.upgrade() {
                RipProcess::send_full_table(el, &rc);
            }
        });
        // Solicit neighbors immediately.
        let ifaces: Vec<(String, Ipv4Addr)> = me
            .borrow()
            .ifaces
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let send = me.borrow().send.clone();
        for (iface, _) in ifaces {
            send(el, &iface, Ipv4Addr::BROADCAST, RipPacket::request_all());
        }
    }

    /// Locally originate a route (e.g. a connected network).
    pub fn originate(el: &mut EventLoop, me: &Rc<RefCell<RipProcess>>, net: Ipv4Net, metric: u32) {
        {
            let mut s = me.borrow_mut();
            s.routes.insert(
                net,
                RipRoute {
                    metric,
                    nexthop: Ipv4Addr::UNSPECIFIED,
                    iface: None,
                    from: None,
                    tag: 0,
                    state: RipRouteState::Valid,
                    deadline: Time(u64::MAX), // local routes never expire
                },
            );
        }
        Self::emit_rib(el, me, net, true);
        Self::flush_rib(el, me);
        Self::triggered(el, me, net);
    }

    /// Withdraw a locally originated route.
    pub fn withdraw(el: &mut EventLoop, me: &Rc<RefCell<RipProcess>>, net: Ipv4Net) {
        let existed = {
            let mut s = me.borrow_mut();
            s.routes.remove(&net).is_some()
        };
        if existed {
            Self::emit_rib(el, me, net, false);
            Self::flush_rib(el, me);
            Self::triggered(el, me, net);
        }
    }

    /// Handle a received packet.
    pub fn on_packet(
        el: &mut EventLoop,
        me: &Rc<RefCell<RipProcess>>,
        iface: &str,
        src: Ipv4Addr,
        pkt: RipPacket,
    ) {
        match pkt.command {
            RipCommand::Request => {
                // Whole-table request: unicast our table back.
                let packets = Self::build_response_packets(me, Some(iface));
                let send = me.borrow().send.clone();
                for p in packets {
                    me.borrow_mut().updates_sent += 1;
                    send(el, iface, src, p);
                }
            }
            RipCommand::Response => {
                // Ignore packets sourced from one of our own addresses.
                if me.borrow().ifaces.values().any(|a| *a == src) {
                    return;
                }
                // A sampled RESPONSE roots a trace: every table change and
                // RIB delta it causes runs under the `rip_in` span.
                let traced = me.borrow().tracer.as_ref().cloned().and_then(|t| {
                    let ctx = t.sample()?;
                    let span = t.begin(ctx, "rip_in");
                    let prev = xtrace::set_current(Some(span.ctx));
                    Some((t, span, prev))
                });
                let mut changed = Vec::new();
                for entry in pkt.entries {
                    if Self::process_entry(el, me, iface, src, &entry) {
                        changed.push(entry.net);
                    }
                }
                // End of packet: natural batch boundary for RIB deltas.
                Self::flush_rib(el, me);
                if me.borrow().config.triggered_updates {
                    for net in changed {
                        Self::triggered(el, me, net);
                    }
                }
                if let Some((t, span, prev)) = traced {
                    xtrace::set_current(prev);
                    t.finish(span);
                }
            }
        }
    }

    /// Distance-vector update for one entry; returns true if the table
    /// changed.
    fn process_entry(
        el: &mut EventLoop,
        me: &Rc<RefCell<RipProcess>>,
        iface: &str,
        src: Ipv4Addr,
        entry: &RipEntry,
    ) -> bool {
        let metric = (entry.metric + 1).min(INFINITY);
        let nexthop = if entry.nexthop.is_unspecified() {
            src
        } else {
            entry.nexthop
        };
        let now = el.now();
        let timeout = me.borrow().config.timeout;
        let deadline = now + timeout;

        enum Outcome {
            None,
            Refresh,
            Changed { was_present: bool },
            Expired,
        }

        let outcome = {
            let mut s = me.borrow_mut();
            let gc_interval = s.config.gc_interval;
            match s.routes.get_mut(&entry.net) {
                Some(route) if route.from == Some(src) => {
                    // The owning neighbor speaks; believe it unconditionally.
                    if metric >= INFINITY {
                        if route.state == RipRouteState::Valid {
                            route.state = RipRouteState::GarbageCollecting;
                            route.metric = INFINITY;
                            route.deadline = now + gc_interval;
                            Outcome::Expired
                        } else {
                            Outcome::None
                        }
                    } else {
                        let changed = route.metric != metric || route.nexthop != nexthop;
                        let was_gc = route.state == RipRouteState::GarbageCollecting;
                        route.metric = metric;
                        route.nexthop = nexthop;
                        route.state = RipRouteState::Valid;
                        route.deadline = deadline;
                        route.tag = entry.tag;
                        if changed || was_gc {
                            Outcome::Changed {
                                was_present: !was_gc,
                            }
                        } else {
                            Outcome::Refresh
                        }
                    }
                }
                Some(route) => {
                    // A different neighbor: only better metrics win.
                    if metric < route.metric
                        || (route.state == RipRouteState::GarbageCollecting && metric < INFINITY)
                    {
                        let was_present = route.state == RipRouteState::Valid;
                        *route = RipRoute {
                            metric,
                            nexthop,
                            iface: Some(iface.to_string()),
                            from: Some(src),
                            tag: entry.tag,
                            state: RipRouteState::Valid,
                            deadline,
                        };
                        Outcome::Changed { was_present }
                    } else {
                        Outcome::None
                    }
                }
                None => {
                    if metric < INFINITY {
                        s.routes.insert(
                            entry.net,
                            RipRoute {
                                metric,
                                nexthop,
                                iface: Some(iface.to_string()),
                                from: Some(src),
                                tag: entry.tag,
                                state: RipRouteState::Valid,
                                deadline,
                            },
                        );
                        Outcome::Changed { was_present: false }
                    } else {
                        Outcome::None
                    }
                }
            }
        };

        match outcome {
            Outcome::None => false,
            Outcome::Refresh => {
                Self::arm_timeout(el, me, entry.net, deadline);
                false
            }
            Outcome::Changed { was_present } => {
                Self::arm_timeout(el, me, entry.net, deadline);
                if was_present {
                    Self::emit_rib_replace(el, me, entry.net);
                } else {
                    Self::emit_rib(el, me, entry.net, true);
                }
                true
            }
            Outcome::Expired => {
                let gc_deadline = me.borrow().routes[&entry.net].deadline;
                Self::arm_gc(el, me, entry.net, gc_deadline);
                Self::emit_rib(el, me, entry.net, false);
                true
            }
        }
    }

    /// Arm (or re-arm) the per-route timeout; stale pops are detected by
    /// comparing the stored deadline — no table scanner.
    fn arm_timeout(el: &mut EventLoop, me: &Rc<RefCell<RipProcess>>, net: Ipv4Net, deadline: Time) {
        let weak = Rc::downgrade(me);
        el.at(deadline, move |el| {
            let Some(rc) = weak.upgrade() else { return };
            let expired_now = {
                let mut s = rc.borrow_mut();
                let gc = s.config.gc_interval;
                match s.routes.get_mut(&net) {
                    Some(r) if r.state == RipRouteState::Valid && r.deadline == deadline => {
                        r.state = RipRouteState::GarbageCollecting;
                        r.metric = INFINITY;
                        r.deadline = el.now() + gc;
                        Some(r.deadline)
                    }
                    _ => None, // stale pop: refreshed or replaced meanwhile
                }
            };
            if let Some(gc_deadline) = expired_now {
                Self::arm_gc(el, &rc, net, gc_deadline);
                Self::emit_rib(el, &rc, net, false);
                Self::flush_rib(el, &rc);
                Self::triggered(el, &rc, net);
            }
        });
    }

    fn arm_gc(el: &mut EventLoop, me: &Rc<RefCell<RipProcess>>, net: Ipv4Net, deadline: Time) {
        let weak = Rc::downgrade(me);
        el.at(deadline, move |_el| {
            let Some(rc) = weak.upgrade() else { return };
            let mut s = rc.borrow_mut();
            if let Some(r) = s.routes.get(&net) {
                if r.state == RipRouteState::GarbageCollecting && r.deadline == deadline {
                    s.routes.remove(&net);
                }
            }
        });
    }

    /// Send the full table on every interface (the periodic update).
    pub fn send_full_table(el: &mut EventLoop, me: &Rc<RefCell<RipProcess>>) {
        let ifaces: Vec<String> = me.borrow().ifaces.keys().cloned().collect();
        let send = me.borrow().send.clone();
        for iface in ifaces {
            let packets = Self::build_response_packets(me, Some(&iface));
            for p in packets {
                me.borrow_mut().updates_sent += 1;
                send(el, &iface, Ipv4Addr::BROADCAST, p);
            }
        }
    }

    /// A triggered update for one changed route, on all interfaces.
    fn triggered(el: &mut EventLoop, me: &Rc<RefCell<RipProcess>>, net: Ipv4Net) {
        if !me.borrow().config.triggered_updates {
            return;
        }
        let ifaces: Vec<String> = me.borrow().ifaces.keys().cloned().collect();
        let send = me.borrow().send.clone();
        for iface in ifaces {
            let entry = {
                let s = me.borrow();
                Self::entry_for(&s, &net, &iface)
            };
            if let Some(entry) = entry {
                me.borrow_mut().updates_sent += 1;
                send(
                    el,
                    &iface,
                    Ipv4Addr::BROADCAST,
                    RipPacket {
                        command: RipCommand::Response,
                        entries: vec![entry],
                    },
                );
            }
        }
    }

    /// The advertisement for one route out one interface, applying split
    /// horizon with poisoned reverse.  `None` when the route is gone.
    fn entry_for(s: &RipProcess, net: &Ipv4Net, iface: &str) -> Option<RipEntry> {
        let r = s.routes.get(net)?;
        let metric = if r.iface.as_deref() == Some(iface) {
            INFINITY // poisoned reverse
        } else {
            r.metric
        };
        Some(RipEntry {
            net: *net,
            nexthop: Ipv4Addr::UNSPECIFIED,
            metric,
            tag: r.tag,
        })
    }

    /// Build full-table Response packets for one interface.
    fn build_response_packets(me: &Rc<RefCell<RipProcess>>, iface: Option<&str>) -> Vec<RipPacket> {
        let s = me.borrow();
        let mut entries = Vec::new();
        for net in s.routes.keys() {
            let e = match iface {
                Some(iface) => Self::entry_for(&s, net, iface),
                None => Self::entry_for(&s, net, ""),
            };
            if let Some(e) = e {
                entries.push(e);
            }
        }
        entries
            .chunks(MAX_ENTRIES)
            .map(|chunk| RipPacket {
                command: RipCommand::Response,
                entries: chunk.to_vec(),
            })
            .collect()
    }

    fn make_route_entry(s: &RipProcess, net: Ipv4Net) -> Option<RouteEntry<Ipv4Addr>> {
        let r = s.routes.get(&net)?;
        if r.state != RipRouteState::Valid {
            return None;
        }
        let attrs = PathAttributes::new(IpAddr::V4(r.nexthop));
        let mut route = RouteEntry::new(net, Arc::new(attrs), r.metric, ProtocolId::Rip);
        route.ifname = r.iface.as_deref().map(Into::into);
        Some(route)
    }

    fn emit_rib(el: &mut EventLoop, me: &Rc<RefCell<RipProcess>>, net: Ipv4Net, up: bool) {
        let op = {
            let s = me.borrow();
            if up {
                Self::make_route_entry(&s, net).map(|route| RouteOp::Add { net, route })
            } else {
                // Synthesize the delete from what we can still see; the
                // RIB origin table keys deletes by prefix.
                Some(RouteOp::Delete {
                    net,
                    old: Self::make_route_entry(&s, net).unwrap_or_else(|| {
                        RouteEntry::new(
                            net,
                            Arc::new(PathAttributes::new(IpAddr::V4(Ipv4Addr::UNSPECIFIED))),
                            INFINITY,
                            ProtocolId::Rip,
                        )
                    }),
                })
            }
        };
        if let Some(op) = op {
            Self::deliver_rib(el, me, op);
        }
    }

    fn emit_rib_replace(el: &mut EventLoop, me: &Rc<RefCell<RipProcess>>, net: Ipv4Net) {
        // The RIB origin table treats a re-add as replace.
        Self::emit_rib(el, me, net, true);
    }

    /// Graceful-restart refresh: re-emit every valid route to the RIB sink
    /// (after a RIB restart, our routes are stale until re-advertised),
    /// then follow with a full-table advertisement to the neighbors.  The
    /// walk runs as a background task in bounded slices — a keyed cursor
    /// over the route map, re-anchored each slice so concurrent
    /// adds/expiries are safe — never as one synchronous table scan.
    /// Returns how many routes the walk will re-emit.
    pub fn readvertise(el: &mut EventLoop, me: &Rc<RefCell<RipProcess>>) -> usize {
        let total = me
            .borrow()
            .routes
            .values()
            .filter(|r| r.state == RipRouteState::Valid)
            .count();
        let me_weak = Rc::downgrade(me);
        let mut cursor: Option<Ipv4Net> = None;
        el.spawn_background(move |el| {
            use std::ops::Bound;
            let Some(me) = me_weak.upgrade() else {
                return SliceResult::Done;
            };
            let nets: Vec<Ipv4Net> = {
                let p = me.borrow();
                let start = match &cursor {
                    Some(c) => Bound::Excluded(*c),
                    None => Bound::Unbounded,
                };
                p.routes
                    .range((start, Bound::Unbounded))
                    .filter(|(_, r)| r.state == RipRouteState::Valid)
                    .take(READVERTISE_SLICE)
                    .map(|(net, _)| *net)
                    .collect()
            };
            match nets.last() {
                None => {
                    Self::flush_rib(el, &me);
                    Self::send_full_table(el, &me);
                    SliceResult::Done
                }
                Some(last) => {
                    cursor = Some(*last);
                    for net in &nets {
                        Self::emit_rib_replace(el, &me, *net);
                    }
                    Self::flush_rib(el, &me);
                    SliceResult::Continue
                }
            }
        });
        total
    }

    // ---- introspection ----------------------------------------------------

    /// Number of routes (valid + garbage-collecting).
    pub fn route_count(&self) -> usize {
        self.routes.len()
    }

    /// Metric for a route, if present and valid.
    pub fn metric_of(&self, net: &Ipv4Net) -> Option<u32> {
        self.routes
            .get(net)
            .filter(|r| r.state == RipRouteState::Valid)
            .map(|r| r.metric)
    }

    /// Lifecycle state of a route.
    pub fn state_of(&self, net: &Ipv4Net) -> Option<RipRouteState> {
        self.routes.get(net).map(|r| r.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Rig {
        el: EventLoop,
        rip: Rc<RefCell<RipProcess>>,
        sent: Rc<RefCell<Vec<(String, Ipv4Addr, RipPacket)>>>,
        rib: Rc<RefCell<BTreeMap<Ipv4Net, RouteEntry<Ipv4Addr>>>>,
    }

    fn rig(config: RipConfig) -> Rig {
        let mut el = EventLoop::new_virtual();
        let sent = Rc::new(RefCell::new(Vec::new()));
        let rib = Rc::new(RefCell::new(BTreeMap::new()));
        let s2 = sent.clone();
        let r2 = rib.clone();
        let rip = Rc::new(RefCell::new(RipProcess::new(
            config,
            Rc::new(move |_el, iface: &str, dst, pkt| {
                s2.borrow_mut().push((iface.to_string(), dst, pkt));
            }),
            Rc::new(
                move |_el, op: RouteOp<Ipv4Addr, RouteEntry<Ipv4Addr>>| match op {
                    RouteOp::Add { net, route }
                    | RouteOp::Replace {
                        net, new: route, ..
                    } => {
                        r2.borrow_mut().insert(net, route);
                    }
                    RouteOp::Delete { net, .. } => {
                        r2.borrow_mut().remove(&net);
                    }
                },
            ),
        )));
        rip.borrow_mut()
            .add_interface("eth0", "10.0.0.1".parse().unwrap());
        rip.borrow_mut()
            .add_interface("eth1", "10.0.1.1".parse().unwrap());
        RipProcess::start(&mut el, &rip);
        sent.borrow_mut().clear(); // drop the initial requests
        Rig { el, rip, sent, rib }
    }

    fn response(nets: &[(&str, u32)]) -> RipPacket {
        RipPacket {
            command: RipCommand::Response,
            entries: nets
                .iter()
                .map(|(n, m)| RipEntry {
                    net: n.parse().unwrap(),
                    nexthop: Ipv4Addr::UNSPECIFIED,
                    metric: *m,
                    tag: 0,
                })
                .collect(),
        }
    }

    fn neighbor() -> Ipv4Addr {
        "10.0.0.2".parse().unwrap()
    }

    /// A sampled RESPONSE roots a `rip_in` trace span; the RIB deltas it
    /// causes run under the span's ambient context.  Unsampled packets
    /// leave no ambient residue.
    #[test]
    fn sampled_response_roots_a_rip_in_span() {
        use xorp_profiler::tracing::Tracer;
        let tracer = Tracer::new();
        tracer.set_sampling(2); // sample every other packet
        let mut r = rig(RipConfig::default());
        r.rip.borrow_mut().set_tracer(tracer.recorder("rip"));
        RipProcess::on_packet(
            &mut r.el,
            &r.rip,
            "eth0",
            neighbor(),
            response(&[("192.168.0.0/16", 3)]),
        );
        RipProcess::on_packet(
            &mut r.el,
            &r.rip,
            "eth0",
            neighbor(),
            response(&[("192.168.1.0/24", 3)]),
        );
        let (spans, _) = tracer.snapshot("rip");
        assert_eq!(spans.len(), 1, "1-in-2 sampling must root one span");
        assert_eq!(spans[0].point, "rip_in");
        assert_eq!(spans[0].parent_span, 0, "ingress span is a trace root");
        assert!(spans[0].end_ns >= spans[0].start_ns);
        // The handler restored the ambient context on the way out.
        assert_eq!(xtrace::current(), None);
    }

    #[test]
    fn learns_routes_with_incremented_metric() {
        let mut r = rig(RipConfig::default());
        RipProcess::on_packet(
            &mut r.el,
            &r.rip,
            "eth0",
            neighbor(),
            response(&[("192.168.0.0/16", 3)]),
        );
        assert_eq!(
            r.rip.borrow().metric_of(&"192.168.0.0/16".parse().unwrap()),
            Some(4)
        );
        let rib = r.rib.borrow();
        let route = &rib[&"192.168.0.0/16".parse().unwrap()];
        assert_eq!(route.metric, 4);
        assert_eq!(route.nexthop(), IpAddr::V4(neighbor()));
        assert_eq!(route.ifname.as_deref(), Some("eth0"));
    }

    #[test]
    fn better_metric_from_other_neighbor_wins() {
        let mut r = rig(RipConfig::default());
        RipProcess::on_packet(
            &mut r.el,
            &r.rip,
            "eth0",
            neighbor(),
            response(&[("192.168.0.0/16", 5)]),
        );
        let other: Ipv4Addr = "10.0.1.2".parse().unwrap();
        // Worse: ignored.
        RipProcess::on_packet(
            &mut r.el,
            &r.rip,
            "eth1",
            other,
            response(&[("192.168.0.0/16", 9)]),
        );
        assert_eq!(
            r.rib.borrow()[&"192.168.0.0/16".parse().unwrap()].nexthop(),
            IpAddr::V4(neighbor())
        );
        // Better: takes over.
        RipProcess::on_packet(
            &mut r.el,
            &r.rip,
            "eth1",
            other,
            response(&[("192.168.0.0/16", 2)]),
        );
        assert_eq!(
            r.rib.borrow()[&"192.168.0.0/16".parse().unwrap()].nexthop(),
            IpAddr::V4(other)
        );
    }

    #[test]
    fn owner_metric_increase_believed() {
        let mut r = rig(RipConfig::default());
        RipProcess::on_packet(
            &mut r.el,
            &r.rip,
            "eth0",
            neighbor(),
            response(&[("192.168.0.0/16", 2)]),
        );
        RipProcess::on_packet(
            &mut r.el,
            &r.rip,
            "eth0",
            neighbor(),
            response(&[("192.168.0.0/16", 7)]),
        );
        assert_eq!(
            r.rip.borrow().metric_of(&"192.168.0.0/16".parse().unwrap()),
            Some(8)
        );
    }

    #[test]
    fn infinity_from_owner_withdraws() {
        let mut r = rig(RipConfig::default());
        RipProcess::on_packet(
            &mut r.el,
            &r.rip,
            "eth0",
            neighbor(),
            response(&[("192.168.0.0/16", 2)]),
        );
        assert_eq!(r.rib.borrow().len(), 1);
        RipProcess::on_packet(
            &mut r.el,
            &r.rip,
            "eth0",
            neighbor(),
            response(&[("192.168.0.0/16", INFINITY)]),
        );
        assert!(r.rib.borrow().is_empty());
        assert_eq!(
            r.rip.borrow().state_of(&"192.168.0.0/16".parse().unwrap()),
            Some(RipRouteState::GarbageCollecting)
        );
        // GC removes the entry after the hold.
        r.el.run_for(Duration::from_secs(121));
        assert_eq!(r.rip.borrow().route_count(), 0);
    }

    #[test]
    fn route_times_out_without_refresh() {
        let mut r = rig(RipConfig::default());
        RipProcess::on_packet(
            &mut r.el,
            &r.rip,
            "eth0",
            neighbor(),
            response(&[("192.168.0.0/16", 2)]),
        );
        // Refresh at t+100 keeps it alive past the original deadline.
        r.el.run_for(Duration::from_secs(100));
        RipProcess::on_packet(
            &mut r.el,
            &r.rip,
            "eth0",
            neighbor(),
            response(&[("192.168.0.0/16", 2)]),
        );
        r.el.run_for(Duration::from_secs(100)); // t=200 < 100+180
        assert!(r.rib.borrow().len() == 1, "refresh must re-arm the timeout");
        // No more refreshes: expires at t=280.
        r.el.run_for(Duration::from_secs(100));
        assert!(r.rib.borrow().is_empty());
    }

    #[test]
    fn periodic_updates_sent_with_poisoned_reverse() {
        let mut r = rig(RipConfig::default());
        RipProcess::on_packet(
            &mut r.el,
            &r.rip,
            "eth0",
            neighbor(),
            response(&[("192.168.0.0/16", 2)]),
        );
        r.sent.borrow_mut().clear();
        r.el.run_for(Duration::from_secs(31));
        let sent = r.sent.borrow();
        // One periodic packet per interface (plus possible triggered noise
        // cleared above).
        let eth0: Vec<_> = sent.iter().filter(|(i, _, _)| i == "eth0").collect();
        let eth1: Vec<_> = sent.iter().filter(|(i, _, _)| i == "eth1").collect();
        assert!(!eth0.is_empty() && !eth1.is_empty());
        // Split horizon with poisoned reverse: metric 16 back out eth0.
        let m0 = eth0[0].2.entries[0].metric;
        let m1 = eth1[0].2.entries[0].metric;
        assert_eq!(m0, INFINITY);
        assert_eq!(m1, 3);
    }

    #[test]
    fn request_answered_with_full_table() {
        let mut r = rig(RipConfig::default());
        RipProcess::originate(&mut r.el, &r.rip, "10.5.0.0/16".parse().unwrap(), 1);
        r.sent.borrow_mut().clear();
        RipProcess::on_packet(
            &mut r.el,
            &r.rip,
            "eth0",
            neighbor(),
            RipPacket::request_all(),
        );
        let sent = r.sent.borrow();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].1, neighbor()); // unicast reply
        assert_eq!(sent[0].2.entries.len(), 1);
    }

    #[test]
    fn triggered_updates_on_change() {
        let mut r = rig(RipConfig::default());
        r.sent.borrow_mut().clear();
        RipProcess::on_packet(
            &mut r.el,
            &r.rip,
            "eth0",
            neighbor(),
            response(&[("192.168.0.0/16", 2)]),
        );
        // Triggered update went out on both interfaces immediately.
        assert_eq!(r.sent.borrow().len(), 2);
        // An unchanged re-advertisement triggers nothing.
        r.sent.borrow_mut().clear();
        RipProcess::on_packet(
            &mut r.el,
            &r.rip,
            "eth0",
            neighbor(),
            response(&[("192.168.0.0/16", 2)]),
        );
        assert!(r.sent.borrow().is_empty());
    }

    #[test]
    fn own_packets_ignored() {
        let mut r = rig(RipConfig::default());
        RipProcess::on_packet(
            &mut r.el,
            &r.rip,
            "eth0",
            "10.0.0.1".parse().unwrap(), // our own eth0 address
            response(&[("192.168.0.0/16", 2)]),
        );
        assert_eq!(r.rip.borrow().route_count(), 0);
    }

    #[test]
    fn large_tables_split_into_packets() {
        let mut r = rig(RipConfig::default());
        for i in 0..60u8 {
            RipProcess::originate(
                &mut r.el,
                &r.rip,
                format!("10.{i}.0.0/16").parse().unwrap(),
                1,
            );
        }
        r.sent.borrow_mut().clear();
        RipProcess::on_packet(
            &mut r.el,
            &r.rip,
            "eth0",
            neighbor(),
            RipPacket::request_all(),
        );
        let sent = r.sent.borrow();
        // 60 entries → 3 packets of ≤25.
        assert_eq!(sent.len(), 3);
        assert!(sent.iter().all(|(_, _, p)| p.entries.len() <= MAX_ENTRIES));
        let total: usize = sent.iter().map(|(_, _, p)| p.entries.len()).sum();
        assert_eq!(total, 60);
    }

    #[test]
    fn withdraw_local_route() {
        let mut r = rig(RipConfig::default());
        RipProcess::originate(&mut r.el, &r.rip, "10.5.0.0/16".parse().unwrap(), 1);
        assert_eq!(r.rib.borrow().len(), 1);
        RipProcess::withdraw(&mut r.el, &r.rip, "10.5.0.0/16".parse().unwrap());
        assert!(r.rib.borrow().is_empty());
    }

    #[test]
    fn batch_sink_receives_whole_packet_as_one_flush() {
        let mut r = rig(RipConfig::default());
        let batches: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let b = batches.clone();
        r.rip
            .borrow_mut()
            .set_batch_sink(Rc::new(move |_el, ops| b.borrow_mut().push(ops.len())), 64);
        // Ten entries in one packet: one flush of ten deltas at the end
        // of packet processing, not ten calls.
        let nets: Vec<(String, u32)> = (0..10u8).map(|i| (format!("10.{i}.0.0/16"), 2)).collect();
        let refs: Vec<(&str, u32)> = nets.iter().map(|(n, m)| (n.as_str(), *m)).collect();
        RipProcess::on_packet(&mut r.el, &r.rip, "eth0", neighbor(), response(&refs));
        assert_eq!(*batches.borrow(), vec![10]);
        // A single local change flushes at its own boundary immediately.
        RipProcess::originate(&mut r.el, &r.rip, "172.16.0.0/16".parse().unwrap(), 1);
        assert_eq!(*batches.borrow(), vec![10, 1]);
    }

    #[test]
    fn batch_sink_size_limit_forces_early_flush() {
        let mut r = rig(RipConfig::default());
        let batches: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let b = batches.clone();
        r.rip
            .borrow_mut()
            .set_batch_sink(Rc::new(move |_el, ops| b.borrow_mut().push(ops.len())), 4);
        let nets: Vec<(String, u32)> = (0..10u8).map(|i| (format!("10.{i}.0.0/16"), 2)).collect();
        let refs: Vec<(&str, u32)> = nets.iter().map(|(n, m)| (n.as_str(), *m)).collect();
        RipProcess::on_packet(&mut r.el, &r.rip, "eth0", neighbor(), response(&refs));
        // 10 deltas at limit 4: two full flushes plus the boundary tail.
        assert_eq!(*batches.borrow(), vec![4, 4, 2]);
    }

    /// The graceful-restart refresh path: a restarted RIB forgot our
    /// routes; readvertise() re-emits every valid one (and only valid
    /// ones) to the RIB sink plus a full-table advertisement on the wire.
    #[test]
    fn readvertise_refreshes_rib_and_neighbors() {
        let mut r = rig(RipConfig::default());
        RipProcess::originate(&mut r.el, &r.rip, "10.5.0.0/16".parse().unwrap(), 1);
        RipProcess::on_packet(
            &mut r.el,
            &r.rip,
            "eth0",
            neighbor(),
            response(&[("192.168.0.0/16", 3)]),
        );
        // A garbage-collecting route must not be re-advertised.
        RipProcess::on_packet(
            &mut r.el,
            &r.rip,
            "eth0",
            neighbor(),
            response(&[("172.16.0.0/16", 2)]),
        );
        RipProcess::on_packet(
            &mut r.el,
            &r.rip,
            "eth0",
            neighbor(),
            response(&[("172.16.0.0/16", INFINITY)]),
        );

        // The RIB restarts with empty state.
        r.rib.borrow_mut().clear();
        r.sent.borrow_mut().clear();
        let n = RipProcess::readvertise(&mut r.el, &r.rip);
        assert_eq!(n, 2);
        // The walk is lazy: nothing re-emitted until the loop idles.
        assert!(r.rib.borrow().is_empty());
        r.el.run_until_idle();
        assert_eq!(r.rib.borrow().len(), 2);
        assert!(r.rib.borrow().contains_key(&"10.5.0.0/16".parse().unwrap()));
        assert!(!r.sent.borrow().is_empty(), "no wire advertisement sent");
    }
}
