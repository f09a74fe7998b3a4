//! Route-flap damping as a pipeline stage (§8.3).
//!
//! "Route flap damping was also not a part of our original BGP design.  We
//! are currently adding this functionality (ISPs demand it, even though
//! it's a flawed mechanism), and can do so efficiently and simply by adding
//! another stage to the BGP pipeline.  The code does not impact other
//! stages, which need not be aware that damping is occurring."
//!
//! Standard RFC 2439-style mechanics: each flap (withdrawal) adds a fixed
//! penalty; the penalty decays exponentially with a configurable half
//! life; a withdrawal that lifts it to the suppress threshold suppresses
//! the prefix, whose announcements are then withheld; once decay brings
//! the penalty under the reuse threshold, the prefix is released.  Decay
//! is computed lazily from loop time, plus a periodic sweep releases
//! suppressed prefixes whose penalty has decayed.
//!
//! The stage stores no routes ("routes are stored only in the Peer In
//! stages", §5.1), only the penalties of prefixes that flapped.
//! Downstream holds upstream's route for every prefix that is not
//! suppressed and nothing for one that is, so the stage forwards what is
//! not suppressed unchanged, answers `lookup_route` by relaying upstream
//! (`None` while suppressed), and releases a prefix by looking its route
//! up upstream.  Forwarding unchanged means an identical re-announcement
//! (a replace whose old and new routes are equal) passes through rather
//! than being swallowed.

use std::collections::BTreeMap;
use std::time::Duration;

use xorp_event::{EventLoop, Time};
use xorp_net::{Addr, HeapSize, Prefix};
use xorp_stages::{OriginId, RouteOp, Stage, StageRef};

use crate::{BgpRoute, PeerId};

/// Damping parameters (defaults follow common vendor practice).
#[derive(Debug, Clone, Copy)]
pub struct DampingConfig {
    /// Penalty added per flap.
    pub flap_penalty: f64,
    /// Penalty above which a prefix is suppressed.
    pub suppress_threshold: f64,
    /// Penalty below which a suppressed prefix is reused.
    pub reuse_threshold: f64,
    /// Exponential-decay half life.
    pub half_life: Duration,
    /// Penalty ceiling.
    pub max_penalty: f64,
}

impl Default for DampingConfig {
    fn default() -> Self {
        DampingConfig {
            flap_penalty: 1000.0,
            suppress_threshold: 2000.0,
            reuse_threshold: 750.0,
            half_life: Duration::from_secs(900),
            max_penalty: 16000.0,
        }
    }
}

/// A flapped prefix's penalty, as of `stamped`.
struct DampState {
    penalty: f64,
    stamped: Time,
    suppressed: bool,
}

impl DampState {
    /// Decay the penalty to `now` and stamp it there.
    fn restamp(&mut self, now: Time, half_life: Duration) {
        self.penalty = decay(self.penalty, self.stamped, now, half_life);
        self.stamped = now;
    }
}

impl HeapSize for DampState {
    fn heap_size(&self) -> usize {
        0
    }
}

/// The per-peer damping stage (sits between the PeerIn, with any
/// draining deletion stages, and the import filters).
pub struct DampingStage<A: Addr> {
    peer: PeerId,
    config: DampingConfig,
    /// Prefixes that flapped, from their first withdrawal until their
    /// penalty has decayed away.
    state: BTreeMap<Prefix<A>, DampState>,
    upstream: Option<StageRef<A, BgpRoute<A>>>,
    downstream: Option<StageRef<A, BgpRoute<A>>>,
}

impl<A: Addr> DampingStage<A> {
    /// A damping stage for `peer`.
    pub fn new(peer: PeerId, config: DampingConfig) -> Self {
        DampingStage {
            peer,
            config,
            state: BTreeMap::new(),
            upstream: None,
            downstream: None,
        }
    }

    /// Number of currently suppressed prefixes.
    pub fn suppressed_count(&self) -> usize {
        self.state.values().filter(|s| s.suppressed).count()
    }

    /// Current (decayed) penalty for a prefix.
    pub fn penalty(&self, net: &Prefix<A>, now: Time) -> f64 {
        self.state
            .get(net)
            .map(|s| decay(s.penalty, s.stamped, now, self.config.half_life))
            .unwrap_or(0.0)
    }

    fn emit(&self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, BgpRoute<A>>) {
        if let Some(d) = &self.downstream {
            d.borrow_mut().route_op(el, origin, op);
        }
    }

    /// Periodic sweep: release suppressed prefixes whose penalty decayed
    /// below the reuse threshold, announcing upstream's route for each.
    /// Call from a timer (the façade arms it).
    pub fn sweep(&mut self, el: &mut EventLoop) {
        let now = el.now();
        let cfg = self.config;
        let mut released = Vec::new();
        for (net, s) in self.state.iter_mut() {
            s.restamp(now, cfg.half_life);
            if s.suppressed && s.penalty < cfg.reuse_threshold {
                s.suppressed = false;
                released.push(*net);
            }
        }
        // Forget fully-decayed clean entries.
        self.state.retain(|_, s| s.suppressed || s.penalty > 1.0);
        for net in released {
            if let Some(route) = self.lookup_route(&net) {
                self.emit(el, self.peer.into(), RouteOp::Add { net, route });
            }
        }
    }
}

/// Penalties of the prefixes that flapped; no routes.
impl<A: Addr> HeapSize for DampingStage<A> {
    fn heap_size(&self) -> usize {
        self.state.heap_size()
    }
}

fn decay(penalty: f64, stamped: Time, now: Time, half_life: Duration) -> f64 {
    let dt = (now - stamped).as_secs_f64();
    if dt <= 0.0 {
        return penalty;
    }
    penalty * 0.5f64.powf(dt / half_life.as_secs_f64())
}

impl<A: Addr> Stage<A, BgpRoute<A>> for DampingStage<A> {
    fn name(&self) -> String {
        format!("damping[{}]", self.peer.0)
    }

    fn route_op(&mut self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, BgpRoute<A>>) {
        let now = el.now();
        let cfg = self.config;
        let net = op.net();
        match op {
            RouteOp::Add { .. } | RouteOp::Replace { .. } => {
                if let Some(s) = self.state.get_mut(&net) {
                    s.restamp(now, cfg.half_life);
                    if s.suppressed {
                        if s.penalty >= cfg.reuse_threshold {
                            return; // withheld; upstream keeps the route
                        }
                        // Decayed under reuse: release now.  Downstream
                        // holds nothing for the prefix, so this is an add.
                        s.suppressed = false;
                        let (_, route) = op.into_routes();
                        let route = route.expect("an add or replace carries a route");
                        self.emit(el, origin, RouteOp::Add { net, route });
                        return;
                    }
                }
                self.emit(el, origin, op);
            }
            RouteOp::Delete { .. } => {
                let s = self.state.entry(net).or_insert(DampState {
                    penalty: 0.0,
                    stamped: now,
                    suppressed: false,
                });
                s.restamp(now, cfg.half_life);
                s.penalty = (s.penalty + cfg.flap_penalty).min(cfg.max_penalty);
                if s.suppressed {
                    return; // downstream holds nothing to delete
                }
                s.suppressed = s.penalty >= cfg.suppress_threshold;
                self.emit(el, origin, op);
            }
        }
    }

    fn lookup_route(&self, net: &Prefix<A>) -> Option<BgpRoute<A>> {
        if self.state.get(net).is_some_and(|s| s.suppressed) {
            return None;
        }
        self.upstream.as_ref()?.borrow().lookup_route(net)
    }

    fn push(&mut self, el: &mut EventLoop) {
        if let Some(d) = &self.downstream {
            d.borrow_mut().push(el);
        }
    }

    fn set_downstream(&mut self, s: StageRef<A, BgpRoute<A>>) {
        self.downstream = Some(s);
    }

    fn set_upstream(&mut self, s: StageRef<A, BgpRoute<A>>) {
        self.upstream = Some(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};
    use xorp_net::{AsPath, PathAttributes, ProtocolId};
    use xorp_stages::{stage_ref, CacheStage, SinkStage};

    type R = BgpRoute<Ipv4Addr>;

    fn route(net: &str) -> R {
        let mut attrs = PathAttributes::new(IpAddr::V4("192.0.2.1".parse().unwrap()));
        attrs.as_path = AsPath::from_sequence([65001]);
        R::new(net.parse().unwrap(), attrs.shared(), 0, ProtocolId::Ebgp)
    }

    fn cfg() -> DampingConfig {
        DampingConfig {
            flap_penalty: 1000.0,
            suppress_threshold: 2000.0,
            reuse_threshold: 750.0,
            half_life: Duration::from_secs(60),
            max_penalty: 16000.0,
        }
    }

    struct Rig {
        el: EventLoop,
        /// The table upstream: it holds what was announced, and the stage
        /// looks routes up in it.
        table: std::rc::Rc<std::cell::RefCell<SinkStage<Ipv4Addr, R>>>,
        stage: DampingStage<Ipv4Addr>,
        cache: std::rc::Rc<std::cell::RefCell<CacheStage<Ipv4Addr, R>>>,
        sink: std::rc::Rc<std::cell::RefCell<SinkStage<Ipv4Addr, R>>>,
    }

    fn rig() -> Rig {
        let el = EventLoop::new_virtual();
        let table = stage_ref(SinkStage::new());
        let mut stage = DampingStage::new(PeerId(1), cfg());
        let cache = stage_ref(CacheStage::new("damp-out"));
        let sink = stage_ref(SinkStage::new());
        cache.borrow_mut().set_downstream(sink.clone());
        stage.set_downstream(cache.clone());
        stage.set_upstream(table.clone());
        Rig {
            el,
            table,
            stage,
            cache,
            sink,
        }
    }

    impl Rig {
        /// Apply `op` to the upstream table, then send it on to the stage.
        fn send(&mut self, op: RouteOp<Ipv4Addr, R>) {
            self.table
                .borrow_mut()
                .route_op(&mut self.el, OriginId(1), op.clone());
            self.stage.route_op(&mut self.el, OriginId(1), op);
        }

        fn announce(&mut self, net: &str) {
            let r = route(net);
            self.send(RouteOp::Add {
                net: r.net,
                route: r,
            });
        }

        fn withdraw(&mut self, net: &str) {
            let r = route(net);
            self.send(RouteOp::Delete { net: r.net, old: r });
        }

        fn flap(&mut self, net: &str) {
            self.announce(net);
            self.withdraw(net);
        }

        fn visible(&self, net: &str) -> bool {
            self.sink.borrow().table.contains_key(&net.parse().unwrap())
        }
    }

    #[test]
    fn stable_routes_pass_through() {
        let mut r = rig();
        r.announce("10.0.0.0/8");
        assert!(r.visible("10.0.0.0/8"));
        r.withdraw("10.0.0.0/8");
        assert!(!r.visible("10.0.0.0/8"));
        assert!(r.cache.borrow().violations().is_empty());
    }

    #[test]
    fn repeated_flaps_suppress() {
        let mut r = rig();
        r.flap("10.0.0.0/8"); // penalty 1000
        r.flap("10.0.0.0/8"); // penalty 2000 → suppressed
        assert_eq!(r.stage.suppressed_count(), 1);
        // Re-announcement is withheld.
        r.announce("10.0.0.0/8");
        assert!(!r.visible("10.0.0.0/8"));
        assert!(r.cache.borrow().violations().is_empty());
    }

    #[test]
    fn penalty_decays_and_reuses_via_sweep() {
        let mut r = rig();
        r.flap("10.0.0.0/8");
        r.flap("10.0.0.0/8");
        r.announce("10.0.0.0/8"); // held
        assert!(!r.visible("10.0.0.0/8"));
        // Two half-lives: 2000 → 500 < reuse(750).
        r.el.run_until(Time::from_secs(120));
        r.stage.sweep(&mut r.el);
        assert!(r.visible("10.0.0.0/8"));
        assert_eq!(r.stage.suppressed_count(), 0);
        assert!(r.cache.borrow().violations().is_empty());
    }

    #[test]
    fn reannounce_after_decay_without_sweep() {
        let mut r = rig();
        r.flap("10.0.0.0/8");
        r.flap("10.0.0.0/8");
        r.el.run_until(Time::from_secs(120)); // decay below reuse
        r.announce("10.0.0.0/8"); // immediate release path
        assert!(r.visible("10.0.0.0/8"));
        assert!(r.cache.borrow().violations().is_empty());
    }

    #[test]
    fn other_prefixes_unaffected() {
        let mut r = rig();
        r.flap("10.0.0.0/8");
        r.flap("10.0.0.0/8");
        r.announce("20.0.0.0/8");
        assert!(r.visible("20.0.0.0/8"));
    }

    #[test]
    fn penalty_capped() {
        let mut r = rig();
        for _ in 0..100 {
            r.flap("10.0.0.0/8");
        }
        assert!(r.stage.penalty(&"10.0.0.0/8".parse().unwrap(), r.el.now()) <= 16000.0);
    }

    #[test]
    fn lookup_reflects_suppression() {
        let mut r = rig();
        r.flap("10.0.0.0/8");
        r.flap("10.0.0.0/8");
        r.announce("10.0.0.0/8");
        assert!(r
            .stage
            .lookup_route(&"10.0.0.0/8".parse().unwrap())
            .is_none());
        r.announce("20.0.0.0/8");
        assert!(r
            .stage
            .lookup_route(&"20.0.0.0/8".parse().unwrap())
            .is_some());
    }

    #[test]
    fn decay_math() {
        let hl = Duration::from_secs(60);
        let p = decay(1000.0, Time::ZERO, Time::from_secs(60), hl);
        assert!((p - 500.0).abs() < 1e-6);
        let p = decay(1000.0, Time::ZERO, Time::from_secs(120), hl);
        assert!((p - 250.0).abs() < 1e-6);
        assert_eq!(
            decay(1000.0, Time::from_secs(5), Time::from_secs(5), hl),
            1000.0
        );
    }
}
