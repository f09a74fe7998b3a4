//! Deterministic fault injection for the XRL transports.
//!
//! The paper's robustness story (§4, §6) is that a router decomposed into
//! processes speaking XRLs survives the failure of any one component.  To
//! test that story the transports must be able to *misbehave on demand*:
//! drop frames, deliver them twice, delay them out of order, or cut a
//! connection — all reproducibly from a single seed.
//!
//! A [`FaultPlan`] sits at the router's frame-write chokepoint (see
//! [`crate::router::XrlRouter`]) and decides, per frame and per peer, which
//! [`FaultAction`]s to apply.  Decisions come from a SplitMix64 stream
//! seeded per (plan seed, lane), so two routers with the same plan make
//! independent but reproducible choices, and a failing run can be replayed
//! from the seed alone.  Every decision is recorded in an event trace that
//! tests and CI dump on failure.

use std::collections::HashMap;
use std::time::Duration;

/// What to do with one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Forward unmodified.
    Deliver,
    /// Silently discard.
    Drop,
    /// Send now and once more (the duplicate may additionally be delayed).
    Duplicate,
    /// Hold the frame for the given delay before sending (reorders it past
    /// anything sent in the meantime).
    Delay(Duration),
    /// Deliver, then sever the connection it travelled on (TCP only; a
    /// no-op lane elsewhere).
    Disconnect,
}

/// Tunable fault probabilities and bounds.  All probabilities are per
/// frame, evaluated independently in the order drop → duplicate → delay →
/// disconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the deterministic decision stream.
    pub seed: u64,
    /// P(frame is dropped).
    pub drop: f64,
    /// P(frame is sent twice).
    pub duplicate: f64,
    /// P(frame is delayed), which also reorders it.
    pub delay: f64,
    /// Uniform delay bounds in milliseconds (inclusive).
    pub delay_ms: (u64, u64),
    /// P(connection is severed after the frame is written).
    pub disconnect: f64,
}

impl FaultConfig {
    /// A plan that misbehaves at the given composite rate: `rate` drop,
    /// `rate` duplicate, `rate` delay of 1–10 ms, no disconnects.
    pub fn lossy(seed: u64, rate: f64) -> FaultConfig {
        FaultConfig {
            seed,
            drop: rate,
            duplicate: rate,
            delay: rate,
            delay_ms: (1, 10),
            disconnect: 0.0,
        }
    }

    /// A plan that never delivers anything — a black-hole link.
    pub fn black_hole(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            drop: 1.0,
            duplicate: 0.0,
            delay: 0.0,
            delay_ms: (0, 0),
            disconnect: 0.0,
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            delay_ms: (0, 0),
            disconnect: 0.0,
        }
    }
}

/// One recorded decision, for the reproducibility trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Which lane (peer label) the frame was headed to.
    pub lane: String,
    /// Frame ordinal within that lane (0-based).
    pub frame_ix: u64,
    /// The action taken.
    pub action: FaultAction,
}

/// Per-lane deterministic RNG: SplitMix64.  The in-memory family cuts its
/// byte streams with one too.
#[derive(Debug, Clone)]
pub(crate) struct Lane {
    state: u64,
    frames: u64,
}

impl Lane {
    pub(crate) fn new(seed: u64, label: &str) -> Lane {
        // Fold the lane label into the seed (FNV-1a) so lanes differ but
        // stay reproducible.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Lane {
            state: seed ^ h,
            frames: 0,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Uniform in `lo..=hi`.
    pub(crate) fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// The seeded fault schedule for one router's outgoing frames.
#[derive(Debug)]
pub struct FaultPlan {
    config: FaultConfig,
    lanes: HashMap<String, Lane>,
    trace: Vec<FaultEvent>,
    trace_cap: usize,
}

impl FaultPlan {
    /// Build a plan from its config.  The plan is deterministic: the same
    /// config and the same per-lane frame sequence produce the same
    /// decisions.
    pub fn new(config: FaultConfig) -> FaultPlan {
        FaultPlan {
            config,
            lanes: HashMap::new(),
            trace: Vec::new(),
            trace_cap: 10_000,
        }
    }

    /// The config this plan was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Decide the fate of the next frame on `lane`.  Returns the actions in
    /// application order (at most one of each kind).
    pub fn decide(&mut self, lane: &str) -> Vec<FaultAction> {
        let seed = self.config.seed;
        let l = self
            .lanes
            .entry(lane.to_string())
            .or_insert_with(|| Lane::new(seed, lane));
        let frame_ix = l.frames;
        l.frames += 1;

        let mut actions = Vec::new();
        if l.chance(self.config.drop) {
            actions.push(FaultAction::Drop);
        } else {
            if l.chance(self.config.duplicate) {
                actions.push(FaultAction::Duplicate);
            }
            if l.chance(self.config.delay) {
                let (lo, hi) = self.config.delay_ms;
                actions.push(FaultAction::Delay(Duration::from_millis(l.range(lo, hi))));
            }
            if actions.is_empty() {
                actions.push(FaultAction::Deliver);
            }
        }
        if l.chance(self.config.disconnect) {
            actions.push(FaultAction::Disconnect);
        }

        if self.trace.len() < self.trace_cap {
            for a in &actions {
                self.trace.push(FaultEvent {
                    lane: lane.to_string(),
                    frame_ix,
                    action: *a,
                });
            }
        }
        actions
    }

    /// The recorded decision trace (capped at 10k events).
    pub fn trace(&self) -> &[FaultEvent] {
        &self.trace
    }

    /// Counts per action kind: (delivered, dropped, duplicated, delayed,
    /// disconnected).
    pub fn summary(&self) -> (usize, usize, usize, usize, usize) {
        let mut s = (0, 0, 0, 0, 0);
        for e in &self.trace {
            match e.action {
                FaultAction::Deliver => s.0 += 1,
                FaultAction::Drop => s.1 += 1,
                FaultAction::Duplicate => s.2 += 1,
                FaultAction::Delay(_) => s.3 += 1,
                FaultAction::Disconnect => s.4 += 1,
            }
        }
        s
    }

    /// Render the trace for a failure artifact: one line per event, plus
    /// the seed line a rerun needs.
    pub fn render_trace(&self) -> String {
        let mut out = format!(
            "fault plan: seed={} drop={} dup={} delay={} delay_ms={:?} disconnect={}\n",
            self.config.seed,
            self.config.drop,
            self.config.duplicate,
            self.config.delay,
            self.config.delay_ms,
            self.config.disconnect
        );
        for e in &self.trace {
            out.push_str(&format!("{} #{} {:?}\n", e.lane, e.frame_ix, e.action));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_decisions() {
        let mut a = FaultPlan::new(FaultConfig::lossy(7, 0.3));
        let mut b = FaultPlan::new(FaultConfig::lossy(7, 0.3));
        for i in 0..200 {
            let lane = if i % 2 == 0 { "x" } else { "y" };
            assert_eq!(a.decide(lane), b.decide(lane));
        }
        assert_eq!(a.trace(), b.trace());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultPlan::new(FaultConfig::lossy(1, 0.5));
        let mut b = FaultPlan::new(FaultConfig::lossy(2, 0.5));
        let da: Vec<_> = (0..100).flat_map(|_| a.decide("x")).collect();
        let db: Vec<_> = (0..100).flat_map(|_| b.decide("x")).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn lanes_are_independent_streams() {
        // Interleaving lanes must not perturb either lane's own stream.
        let mut interleaved = FaultPlan::new(FaultConfig::lossy(9, 0.4));
        let mut solo = FaultPlan::new(FaultConfig::lossy(9, 0.4));
        let mut inter_x = Vec::new();
        for i in 0..100 {
            inter_x.push(interleaved.decide("x"));
            if i % 3 == 0 {
                interleaved.decide("y");
            }
        }
        let solo_x: Vec<_> = (0..100).map(|_| solo.decide("x")).collect();
        assert_eq!(inter_x, solo_x);
    }

    #[test]
    fn zero_rates_always_deliver() {
        let mut p = FaultPlan::new(FaultConfig::default());
        for _ in 0..50 {
            assert_eq!(p.decide("x"), vec![FaultAction::Deliver]);
        }
    }

    #[test]
    fn black_hole_always_drops() {
        let mut p = FaultPlan::new(FaultConfig::black_hole(3));
        for _ in 0..50 {
            assert_eq!(p.decide("x"), vec![FaultAction::Drop]);
        }
    }

    #[test]
    fn rates_roughly_respected() {
        let mut p = FaultPlan::new(FaultConfig::lossy(11, 0.2));
        for _ in 0..2000 {
            p.decide("x");
        }
        let (_delivered, dropped, duplicated, delayed, _) = p.summary();
        // 2000 frames at 20%: expect ~400 drops, wide tolerance.
        assert!((200..600).contains(&dropped), "drops: {dropped}");
        assert!(duplicated > 100, "dups: {duplicated}");
        assert!(delayed > 100, "delays: {delayed}");
    }

    #[test]
    fn trace_renders_with_seed() {
        let mut p = FaultPlan::new(FaultConfig::lossy(42, 0.5));
        p.decide("peer-a");
        let text = p.render_trace();
        assert!(text.contains("seed=42"));
        assert!(text.contains("peer-a #0"));
    }
}
