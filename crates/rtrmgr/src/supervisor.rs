//! Process supervision (§3.1): liveness probing, crash classification and
//! restart scheduling.
//!
//! The paper's Router Manager "starts, configures, and stops" processes;
//! a production router manager must also notice when one *dies* and bring
//! it back without taking the router down.  This module is the policy
//! half of that loop, kept deliberately free of I/O so it can be driven
//! identically by the real keepalive prober (XRL `common/1.0/keepalive`
//! round-trips, see `xorp-xrl`'s `keepalive` module) and by deterministic
//! unit tests:
//!
//! * **liveness** — callers feed probe outcomes in via
//!   [`Supervisor::record_probe`]; a streak of misses at least
//!   [`SupervisorConfig::miss_threshold`] long classifies the component as
//!   crashed (one missed probe is congestion; N in a row is a corpse);
//! * **restart scheduling** — a crashed component gets a restart time with
//!   exponential backoff (`backoff_base * 2^(attempt-1)`, capped at
//!   `backoff_max`), drained in dependency order through
//!   [`Supervisor::due_restarts`];
//! * **circuit breaking** — each component has a restart budget; when it
//!   is spent the component lands in [`SupervisedState::Degraded`] and is
//!   left alone (the caller flushes its routes — a crash-looping protocol
//!   is treated as permanently dead rather than restarted forever).
//!
//! Time is a plain [`Duration`] since an arbitrary epoch (the caller's
//! event-loop clock), so the machine is clock-agnostic and replayable.

use std::collections::BTreeMap;
use std::time::Duration;

use xorp_profiler::{Counter, Gauge, Metrics};

use crate::manager::dependency_rank;

/// Supervision knobs (see EXPERIMENTS.md for how they interact).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// How often each managed component is probed.
    pub keepalive_interval: Duration,
    /// Consecutive missed probes that classify a crash.
    pub miss_threshold: u32,
    /// Backoff before the first restart attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling (doubling stops here).
    pub backoff_max: Duration,
    /// Total restarts allowed per component before it is declared
    /// [`SupervisedState::Degraded`].  The budget is cumulative over the
    /// supervisor's lifetime — a component that crash-loops slowly still
    /// exhausts it.
    pub restart_budget: u32,
    /// Graceful-restart window: how long the RIB keeps a dead supervised
    /// protocol's routes installed (stale) waiting for re-advertisement.
    pub grace_period: Duration,
    /// How long a component may report itself *congested* (keepalives
    /// answering — it is alive — but its XRL lanes Xoff'd) before the
    /// supervisor opens the circuit and degrades it.  Overload past this
    /// budget is treated like a spent restart budget: better a degraded
    /// component with flushed routes than one ballooning toward OOM.
    pub overload_budget: Duration,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            keepalive_interval: Duration::from_millis(500),
            miss_threshold: 3,
            backoff_base: Duration::from_millis(200),
            backoff_max: Duration::from_secs(5),
            restart_budget: 5,
            grace_period: Duration::from_secs(10),
            overload_budget: Duration::from_secs(30),
        }
    }
}

/// Where a supervised component is in its liveness/restart lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisedState {
    /// Answering probes.
    Healthy,
    /// Missed `.0` consecutive probes — below the crash threshold.
    Suspect(u32),
    /// Classified as crashed; restart due at `at` (clock of
    /// [`Supervisor::record_probe`]), attempt number `attempt` (1-based).
    PendingRestart { at: Duration, attempt: u32 },
    /// Restart budget exhausted: circuit open, no further restarts.
    Degraded,
}

/// What the driver must act on after feeding in a probe result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorVerdict {
    /// Nothing to do.
    None,
    /// Crash classified; a restart was scheduled.  Poll
    /// [`Supervisor::due_restarts`] to learn when it comes due.
    RestartScheduled { at: Duration, attempt: u32 },
    /// Crash classified with no budget left: the component just entered
    /// [`SupervisedState::Degraded`].  The caller should flush its routes
    /// (permanent death — the graceful-restart window no longer applies).
    Degraded,
}

struct Entry {
    rank: u32,
    state: SupervisedState,
    /// Consecutive missed probes; an answer or a restart clears it.
    misses: u32,
    restarts_used: u32,
    /// When the component first reported sustained congestion (cleared by
    /// the first uncongested report).
    congested_since: Option<Duration>,
}

/// The supervision state machine over a set of named components.
pub struct Supervisor {
    config: SupervisorConfig,
    entries: BTreeMap<String, Entry>,
    metrics: Option<SupMetrics>,
}

/// Registry handles for supervision outcomes (verdicts, not probe I/O —
/// probe latency is measured where the probes are sent).
struct SupMetrics {
    /// `sup.probe_miss_total` — probes that came back dead.
    probe_miss: Counter,
    /// `sup.miss_streak` — current consecutive-miss streak of the worst
    /// component (gauge max shows how close the router came to a crash
    /// classification).
    miss_streak: Gauge,
    /// `sup.restart_total` — crash classifications that scheduled a restart.
    restarts: Counter,
    /// `sup.degraded_total` — circuit-open verdicts (budget spent or
    /// overload sustained).
    degraded: Counter,
    /// `sup.congested_probe_total` — probes answered with the congested
    /// flag set (the overload signal feeding the circuit breaker).
    congested_probes: Counter,
}

impl Supervisor {
    pub fn new(config: SupervisorConfig) -> Supervisor {
        Supervisor {
            config,
            entries: BTreeMap::new(),
            metrics: None,
        }
    }

    /// Attach a metrics registry; supervision verdicts become counters
    /// (`sup.probe_miss_total`, `sup.restart_total`, `sup.degraded_total`,
    /// `sup.congested_probe_total`) and the consecutive-miss streak a
    /// gauge (`sup.miss_streak`).
    pub fn set_metrics(&mut self, metrics: &Metrics) {
        self.metrics = Some(SupMetrics {
            probe_miss: metrics.counter("sup.probe_miss_total"),
            miss_streak: metrics.gauge("sup.miss_streak"),
            restarts: metrics.counter("sup.restart_total"),
            degraded: metrics.counter("sup.degraded_total"),
            congested_probes: metrics.counter("sup.congested_probe_total"),
        });
    }

    pub fn config(&self) -> &SupervisorConfig {
        &self.config
    }

    /// Put a component under supervision (idempotent; starts Healthy).
    pub fn manage(&mut self, name: &str) {
        self.entries.entry(name.to_string()).or_insert(Entry {
            rank: dependency_rank(name),
            state: SupervisedState::Healthy,
            misses: 0,
            restarts_used: 0,
            congested_since: None,
        });
    }

    pub fn state(&self, name: &str) -> Option<SupervisedState> {
        self.entries.get(name).map(|e| e.state)
    }

    /// Restarts performed so far for a component.
    pub fn restarts_used(&self, name: &str) -> u32 {
        self.entries.get(name).map(|e| e.restarts_used).unwrap_or(0)
    }

    /// Whether a probe should be sent: only Healthy/Suspect components are
    /// probed (one crash classification per death — a component awaiting
    /// restart or degraded is already known-dead).
    pub fn should_probe(&self, name: &str) -> bool {
        matches!(
            self.state(name),
            Some(SupervisedState::Healthy) | Some(SupervisedState::Suspect(_))
        )
    }

    /// Feed in one probe outcome at time `now` (the caller's clock).
    pub fn record_probe(&mut self, name: &str, alive: bool, now: Duration) -> SupervisorVerdict {
        let verdict = self.classify(name, alive, now);
        if let Some(m) = &self.metrics {
            let worst = self.entries.values().map(|e| e.misses).max().unwrap_or(0);
            m.miss_streak.set(worst as i64);
        }
        verdict
    }

    fn classify(&mut self, name: &str, alive: bool, now: Duration) -> SupervisorVerdict {
        let config = self.config;
        let Some(entry) = self.entries.get_mut(name) else {
            return SupervisorVerdict::None;
        };
        match (entry.state, alive) {
            // Recovery or steady state.
            (SupervisedState::Healthy, true) | (SupervisedState::Suspect(_), true) => {
                entry.state = SupervisedState::Healthy;
                entry.misses = 0;
                SupervisorVerdict::None
            }
            // A late answer while a restart is pending or after degrading
            // changes nothing: the classification already happened.
            (SupervisedState::PendingRestart { .. }, _) | (SupervisedState::Degraded, _) => {
                SupervisorVerdict::None
            }
            // A miss.
            (SupervisedState::Healthy, false) | (SupervisedState::Suspect(_), false) => {
                entry.misses += 1;
                let misses = entry.misses;
                if let Some(m) = &self.metrics {
                    m.probe_miss.inc();
                }
                if misses < config.miss_threshold {
                    entry.state = SupervisedState::Suspect(misses);
                    return SupervisorVerdict::None;
                }
                // Crash classified.
                if entry.restarts_used >= config.restart_budget {
                    entry.state = SupervisedState::Degraded;
                    if let Some(m) = &self.metrics {
                        m.degraded.inc();
                    }
                    return SupervisorVerdict::Degraded;
                }
                entry.restarts_used += 1;
                let attempt = entry.restarts_used;
                let backoff = config
                    .backoff_base
                    .saturating_mul(1u32 << (attempt - 1).min(16))
                    .min(config.backoff_max);
                let at = now + backoff;
                entry.state = SupervisedState::PendingRestart { at, attempt };
                if let Some(m) = &self.metrics {
                    m.restarts.inc();
                }
                SupervisorVerdict::RestartScheduled { at, attempt }
            }
        }
    }

    /// Feed in one overload observation at time `now`: whether the
    /// component's keepalive answer carried the `congested` flag.  An
    /// answering-but-congested component is *not* a crash (that is the
    /// whole point of the priority lane) — but congestion sustained past
    /// [`SupervisorConfig::overload_budget`] opens the circuit exactly
    /// like a spent restart budget: the component degrades and the caller
    /// flushes its routes rather than letting queues grow to OOM.
    pub fn record_overload(
        &mut self,
        name: &str,
        congested: bool,
        now: Duration,
    ) -> SupervisorVerdict {
        let budget = self.config.overload_budget;
        let Some(entry) = self.entries.get_mut(name) else {
            return SupervisorVerdict::None;
        };
        if !congested {
            entry.congested_since = None;
            return SupervisorVerdict::None;
        }
        if let Some(m) = &self.metrics {
            m.congested_probes.inc();
        }
        // Only live components can be overloaded; one awaiting restart or
        // already degraded has been classified.
        if !matches!(
            entry.state,
            SupervisedState::Healthy | SupervisedState::Suspect(_)
        ) {
            return SupervisorVerdict::None;
        }
        let since = *entry.congested_since.get_or_insert(now);
        if now.saturating_sub(since) >= budget {
            entry.state = SupervisedState::Degraded;
            if let Some(m) = &self.metrics {
                m.degraded.inc();
            }
            SupervisorVerdict::Degraded
        } else {
            SupervisorVerdict::None
        }
    }

    /// Components whose restart is due at `now`, in dependency order
    /// (interfaces/FEA before RIB before protocols — a protocol restarted
    /// before the RIB it registers with would just fail again).  States
    /// are left as `PendingRestart`; the caller performs the respawn and
    /// reports it via [`Supervisor::restarted`].
    pub fn due_restarts(&self, now: Duration) -> Vec<String> {
        let mut due: Vec<(u32, &String)> = self
            .entries
            .iter()
            .filter_map(|(name, e)| match e.state {
                SupervisedState::PendingRestart { at, .. } if at <= now => Some((e.rank, name)),
                _ => None,
            })
            .collect();
        due.sort();
        due.into_iter().map(|(_, name)| name.clone()).collect()
    }

    /// The caller respawned the component: back to Healthy, streak reset.
    /// (The restart budget is *not* reset — see [`SupervisorConfig`].)
    pub fn restarted(&mut self, name: &str) {
        if let Some(entry) = self.entries.get_mut(name) {
            entry.state = SupervisedState::Healthy;
            entry.misses = 0;
            entry.congested_since = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn config() -> SupervisorConfig {
        SupervisorConfig {
            keepalive_interval: ms(10),
            miss_threshold: 3,
            backoff_base: ms(100),
            backoff_max: ms(400),
            restart_budget: 3,
            grace_period: ms(1000),
            overload_budget: ms(500),
        }
    }

    #[test]
    fn misses_below_threshold_stay_suspect_and_reset_on_answer() {
        let mut s = Supervisor::new(config());
        s.manage("bgp");
        assert_eq!(s.record_probe("bgp", false, ms(0)), SupervisorVerdict::None);
        assert_eq!(s.state("bgp"), Some(SupervisedState::Suspect(1)));
        assert_eq!(
            s.record_probe("bgp", false, ms(10)),
            SupervisorVerdict::None
        );
        assert_eq!(s.state("bgp"), Some(SupervisedState::Suspect(2)));
        // One good answer clears the streak.
        assert_eq!(s.record_probe("bgp", true, ms(20)), SupervisorVerdict::None);
        assert_eq!(s.state("bgp"), Some(SupervisedState::Healthy));
        assert_eq!(s.restarts_used("bgp"), 0);
    }

    #[test]
    fn metrics_track_misses_restarts_and_degradation() {
        use xorp_profiler::MetricValue;
        let metrics = Metrics::new();
        let mut s = Supervisor::new(config());
        s.set_metrics(&metrics);
        s.manage("bgp");
        // Two misses, then recovery: streak peaks at 2 and resets.
        s.record_probe("bgp", false, ms(0));
        s.record_probe("bgp", false, ms(10));
        s.record_probe("bgp", true, ms(20));
        match metrics.get("sup.miss_streak") {
            Some(MetricValue::Gauge { value, max }) => assert_eq!((value, max), (0, 2)),
            other => panic!("miss_streak: {other:?}"),
        }
        // Crash classification (3 more misses) schedules a restart.
        for t in 3..6 {
            s.record_probe("bgp", false, ms(t * 10));
        }
        match metrics.get("sup.probe_miss_total") {
            Some(MetricValue::Counter(n)) => assert_eq!(n, 5),
            other => panic!("probe_miss_total: {other:?}"),
        }
        match metrics.get("sup.restart_total") {
            Some(MetricValue::Counter(n)) => assert_eq!(n, 1),
            other => panic!("restart_total: {other:?}"),
        }
        // Sustained overload degrades and counts.
        s.restarted("bgp");
        s.record_overload("bgp", true, ms(100));
        let v = s.record_overload("bgp", true, ms(700));
        assert_eq!(v, SupervisorVerdict::Degraded);
        match metrics.get("sup.congested_probe_total") {
            Some(MetricValue::Counter(n)) => assert_eq!(n, 2),
            other => panic!("congested_probe_total: {other:?}"),
        }
        match metrics.get("sup.degraded_total") {
            Some(MetricValue::Counter(n)) => assert_eq!(n, 1),
            other => panic!("degraded_total: {other:?}"),
        }
    }

    #[test]
    fn miss_streak_gauge_shows_the_worst_component() {
        use xorp_profiler::MetricValue;
        let metrics = Metrics::new();
        let mut s = Supervisor::new(config());
        s.set_metrics(&metrics);
        s.manage("bgp");
        s.manage("rib");
        s.record_probe("bgp", false, ms(0));
        s.record_probe("bgp", false, ms(10));
        // A healthy answer from another component leaves bgp's streak.
        s.record_probe("rib", true, ms(10));
        let streak = || match metrics.get("sup.miss_streak") {
            Some(MetricValue::Gauge { value, .. }) => value,
            other => panic!("miss_streak: {other:?}"),
        };
        assert_eq!(streak(), 2);
        s.record_probe("rib", false, ms(20));
        assert_eq!(streak(), 2);
        s.record_probe("bgp", true, ms(20));
        assert_eq!(streak(), 1, "rib's one miss is now the worst");
        s.record_probe("rib", true, ms(30));
        assert_eq!(streak(), 0);
    }

    #[test]
    fn threshold_classifies_crash_and_schedules_backoff() {
        let mut s = Supervisor::new(config());
        s.manage("bgp");
        for t in 0..2 {
            s.record_probe("bgp", false, ms(t * 10));
        }
        let verdict = s.record_probe("bgp", false, ms(20));
        assert_eq!(
            verdict,
            SupervisorVerdict::RestartScheduled {
                at: ms(120),
                attempt: 1
            }
        );
        // Not yet due; no probes while pending.
        assert!(s.due_restarts(ms(100)).is_empty());
        assert!(!s.should_probe("bgp"));
        // Due at/after the backoff.
        assert_eq!(s.due_restarts(ms(120)), vec!["bgp".to_string()]);
        s.restarted("bgp");
        assert_eq!(s.state("bgp"), Some(SupervisedState::Healthy));
        assert!(s.should_probe("bgp"));
        assert_eq!(s.restarts_used("bgp"), 1);
    }

    #[test]
    fn backoff_doubles_per_attempt_and_caps() {
        let mut s = Supervisor::new(config());
        s.manage("bgp");
        let mut now = ms(0);
        let mut backoffs = Vec::new();
        for _ in 0..3 {
            let mut verdict = SupervisorVerdict::None;
            for _ in 0..3 {
                verdict = s.record_probe("bgp", false, now);
                now += ms(10);
            }
            match verdict {
                SupervisorVerdict::RestartScheduled { at, .. } => {
                    backoffs.push(at - (now - ms(10)));
                    s.restarted("bgp");
                }
                other => panic!("expected a scheduled restart, got {other:?}"),
            }
        }
        // base 100 ms, doubled, capped at 400 ms.
        assert_eq!(backoffs, vec![ms(100), ms(200), ms(400)]);
    }

    #[test]
    fn budget_exhaustion_degrades_and_opens_the_circuit() {
        let mut s = Supervisor::new(config());
        s.manage("bgp");
        let mut now = ms(0);
        for _ in 0..3 {
            for _ in 0..3 {
                s.record_probe("bgp", false, now);
                now += ms(10);
            }
            s.restarted("bgp");
        }
        assert_eq!(s.restarts_used("bgp"), 3);
        // Fourth crash: budget spent.
        let mut verdict = SupervisorVerdict::None;
        for _ in 0..3 {
            verdict = s.record_probe("bgp", false, now);
            now += ms(10);
        }
        assert_eq!(verdict, SupervisorVerdict::Degraded);
        assert_eq!(s.state("bgp"), Some(SupervisedState::Degraded));
        // Terminal: no probes, no restarts, late answers ignored.
        assert!(!s.should_probe("bgp"));
        assert!(s.due_restarts(ms(1_000_000)).is_empty());
        assert_eq!(s.record_probe("bgp", true, now), SupervisorVerdict::None);
        assert_eq!(s.state("bgp"), Some(SupervisedState::Degraded));
    }

    #[test]
    fn sustained_overload_past_budget_degrades() {
        let mut s = Supervisor::new(config());
        s.manage("bgp");
        // Congested but alive, within budget: nothing happens — this is
        // exactly the busy-but-alive case that must NOT restart.
        assert_eq!(
            s.record_overload("bgp", true, ms(0)),
            SupervisorVerdict::None
        );
        assert_eq!(
            s.record_overload("bgp", true, ms(400)),
            SupervisorVerdict::None
        );
        assert_eq!(s.state("bgp"), Some(SupervisedState::Healthy));
        // Budget (500 ms) spent: circuit opens.
        assert_eq!(
            s.record_overload("bgp", true, ms(500)),
            SupervisorVerdict::Degraded
        );
        assert_eq!(s.state("bgp"), Some(SupervisedState::Degraded));
        // Terminal, like restart-budget exhaustion.
        assert!(!s.should_probe("bgp"));
        assert_eq!(
            s.record_overload("bgp", true, ms(10_000)),
            SupervisorVerdict::None
        );
    }

    #[test]
    fn intermittent_congestion_never_degrades() {
        let mut s = Supervisor::new(config());
        s.manage("bgp");
        // Xoff/Xon cycles: each uncongested report resets the clock, so
        // total congested time can exceed the budget without ever
        // *sustaining* it.
        let mut now = ms(0);
        for _ in 0..10 {
            assert_eq!(s.record_overload("bgp", true, now), SupervisorVerdict::None);
            now += ms(400);
            assert_eq!(
                s.record_overload("bgp", false, now),
                SupervisorVerdict::None
            );
            now += ms(100);
        }
        assert_eq!(s.state("bgp"), Some(SupervisedState::Healthy));
    }

    #[test]
    fn due_restarts_come_out_in_dependency_order() {
        let mut s = Supervisor::new(config());
        for name in ["bgp", "rib", "fea", "rip"] {
            s.manage(name);
            for t in 0..3 {
                s.record_probe(name, false, ms(t * 10));
            }
        }
        // All four crashed at once: infrastructure first, then the RIB,
        // then the protocols (alphabetical within a rank).
        assert_eq!(
            s.due_restarts(ms(10_000)),
            vec![
                "fea".to_string(),
                "rib".to_string(),
                "bgp".to_string(),
                "rip".to_string()
            ]
        );
    }
}
