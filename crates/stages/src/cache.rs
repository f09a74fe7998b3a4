//! The consistency-checking cache stage (§5.1).
//!
//! "we have developed an extra consistency checking stage for debugging
//! purposes.  This cache stage, just after the outgoing filter bank in the
//! output pipeline to each peer, has helped us discover many subtle bugs
//! that would otherwise have gone undetected."
//!
//! [`CacheStage`] sits between two stages, mirrors the add/delete stream
//! into its own table, and verifies both consistency rules:
//!
//! 1. every `delete_route` matches a previous `add_route` (same prefix,
//!    same route), and
//! 2. upstream `lookup_route` answers agree with the message history.
//!
//! Violations are recorded (and optionally panic), then the message is
//! forwarded unchanged — the stage is invisible to its neighbors.

use std::collections::BTreeMap;

use xorp_event::EventLoop;
use xorp_net::{Addr, Prefix};

use crate::{OriginId, RouteOp, Stage, StageRef};

/// A recorded consistency violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsistencyViolation {
    /// Which rule was broken, human-readable.
    pub message: String,
}

/// Pass-through consistency checker.
pub struct CacheStage<A: Addr, R: Clone + PartialEq> {
    label: String,
    downstream: Option<StageRef<A, R>>,
    upstream: Option<StageRef<A, R>>,
    table: BTreeMap<Prefix<A>, R>,
    violations: Vec<ConsistencyViolation>,
    panic_on_violation: bool,
}

impl<A: Addr, R: Clone + PartialEq> CacheStage<A, R> {
    /// A checker labelled `label` (labels appear in violation messages).
    pub fn new(label: impl Into<String>) -> Self {
        CacheStage {
            label: label.into(),
            downstream: None,
            upstream: None,
            table: BTreeMap::new(),
            violations: Vec::new(),
            panic_on_violation: false,
        }
    }

    /// Panic on violation instead of recording (CI configuration).
    pub fn panic_on_violation(&mut self, yes: bool) {
        self.panic_on_violation = yes;
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[ConsistencyViolation] {
        &self.violations
    }

    /// Routes currently mirrored.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if the mirror is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Forget the mirrored table (NOT the recorded violations).  Used when
    /// the downstream consumer's state is externally reset — e.g. a
    /// peering bounced, so the remote router forgot everything and the
    /// stream legitimately restarts with adds.
    pub fn reset(&mut self) {
        self.table.clear();
    }

    fn violate(&mut self, message: String) {
        let message = format!("[{}] {}", self.label, message);
        if self.panic_on_violation {
            panic!("consistency violation: {message}");
        }
        self.violations.push(ConsistencyViolation { message });
    }
}

impl<A: Addr, R: Clone + PartialEq> Stage<A, R> for CacheStage<A, R> {
    fn name(&self) -> String {
        format!("cache[{}]", self.label)
    }

    fn route_op(&mut self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, R>) {
        match &op {
            RouteOp::Add { net, route } => {
                if self.table.insert(*net, route.clone()).is_some() {
                    self.violate(format!(
                        "add_route for {net} while a route is already present \
                         (use replace_route)"
                    ));
                }
            }
            RouteOp::Replace { net, old, new } => match self.table.insert(*net, new.clone()) {
                None => self.violate(format!(
                    "replace_route for {net} without a previous add_route"
                )),
                Some(prev) if &prev != old => self.violate(format!(
                    "replace_route for {net} names a different old route \
                         than was added"
                )),
                Some(_) => {}
            },
            RouteOp::Delete { net, old } => match self.table.remove(net) {
                None => self.violate(format!(
                    "delete_route for {net} without a previous add_route"
                )),
                Some(prev) if &prev != old => self.violate(format!(
                    "delete_route for {net} names a different route than was added"
                )),
                Some(_) => {}
            },
        }
        if let Some(d) = &self.downstream {
            d.borrow_mut().route_op(el, origin, op);
        }
    }

    fn lookup_route(&self, net: &Prefix<A>) -> Option<R> {
        let up = self
            .upstream
            .as_ref()
            .and_then(|u| u.borrow().lookup_route(net));
        // Rule 2: upstream's answer must agree with the stream we've seen.
        // (Checked opportunistically: a read-only method can't record, so
        // disagreement here surfaces via the mirrored answer we return —
        // downstream consumers see the *consistent* view.)
        match (&up, self.table.get(net)) {
            (Some(a), Some(b)) if a == b => up,
            (None, None) => None,
            // Disagreement: trust the message history (rule 2 says the
            // stream defines truth for downstream).
            (_, mirrored) => mirrored.cloned(),
        }
    }

    fn push(&mut self, el: &mut EventLoop) {
        if let Some(d) = &self.downstream {
            d.borrow_mut().push(el);
        }
    }

    fn set_downstream(&mut self, s: StageRef<A, R>) {
        self.downstream = Some(s);
    }

    /// Plumb the upstream neighbor (needed only to relay lookups).
    fn set_upstream(&mut self, s: StageRef<A, R>) {
        self.upstream = Some(s);
    }
}

/// Audit an upstream stage against this checker's mirror: every mirrored
/// route must be visible via `lookup_route`, and vice versa for a list of
/// candidate prefixes.  Returns violations found (does not record them).
pub fn audit_lookup_consistency<A: Addr, R: Clone + PartialEq>(
    cache: &CacheStage<A, R>,
    upstream: &dyn Stage<A, R>,
) -> Vec<ConsistencyViolation> {
    let mut out = Vec::new();
    for (net, route) in &cache.table {
        match upstream.lookup_route(net) {
            Some(r) if &r == route => {}
            Some(_) => out.push(ConsistencyViolation {
                message: format!("lookup_route({net}) disagrees with message history"),
            }),
            None => out.push(ConsistencyViolation {
                message: format!("lookup_route({net}) = None but add_route was sent"),
            }),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{stage_ref, SinkStage};
    use std::net::Ipv4Addr;

    fn p(s: &str) -> Prefix<Ipv4Addr> {
        s.parse().unwrap()
    }

    fn add(net: &str, r: u32) -> RouteOp<Ipv4Addr, u32> {
        RouteOp::Add {
            net: p(net),
            route: r,
        }
    }

    fn del(net: &str, r: u32) -> RouteOp<Ipv4Addr, u32> {
        RouteOp::Delete {
            net: p(net),
            old: r,
        }
    }

    #[test]
    fn consistent_stream_passes() {
        let mut el = EventLoop::new_virtual();
        let sink = stage_ref(SinkStage::<Ipv4Addr, u32>::new());
        let mut cache = CacheStage::new("test");
        cache.set_downstream(sink.clone());
        cache.route_op(&mut el, OriginId(0), add("10.0.0.0/8", 1));
        cache.route_op(
            &mut el,
            OriginId(0),
            RouteOp::Replace {
                net: p("10.0.0.0/8"),
                old: 1,
                new: 2,
            },
        );
        cache.route_op(&mut el, OriginId(0), del("10.0.0.0/8", 2));
        assert!(cache.violations().is_empty(), "{:?}", cache.violations());
        assert!(sink.borrow().table.is_empty());
        assert_eq!(sink.borrow().log.len(), 3);
    }

    #[test]
    fn double_add_flagged() {
        let mut el = EventLoop::new_virtual();
        let mut cache: CacheStage<Ipv4Addr, u32> = CacheStage::new("t");
        cache.route_op(&mut el, OriginId(0), add("10.0.0.0/8", 1));
        cache.route_op(&mut el, OriginId(0), add("10.0.0.0/8", 2));
        assert_eq!(cache.violations().len(), 1);
    }

    #[test]
    fn replace_without_add_flagged() {
        let mut el = EventLoop::new_virtual();
        let mut cache: CacheStage<Ipv4Addr, u32> = CacheStage::new("t");
        cache.route_op(
            &mut el,
            OriginId(0),
            RouteOp::Replace {
                net: p("10.0.0.0/8"),
                old: 1,
                new: 2,
            },
        );
        assert_eq!(cache.violations().len(), 1);
    }

    #[test]
    fn rule1_delete_without_add() {
        let mut el = EventLoop::new_virtual();
        let mut cache: CacheStage<Ipv4Addr, u32> = CacheStage::new("t");
        cache.route_op(&mut el, OriginId(0), del("10.0.0.0/8", 1));
        assert_eq!(cache.violations().len(), 1);
        assert!(cache.violations()[0].message.contains("without a previous"));
    }

    #[test]
    fn rule1_delete_wrong_route() {
        let mut el = EventLoop::new_virtual();
        let mut cache: CacheStage<Ipv4Addr, u32> = CacheStage::new("t");
        cache.route_op(&mut el, OriginId(0), add("10.0.0.0/8", 1));
        cache.route_op(&mut el, OriginId(0), del("10.0.0.0/8", 99));
        assert_eq!(cache.violations().len(), 1);
        assert!(cache.violations()[0].message.contains("different route"));
    }

    #[test]
    #[should_panic(expected = "consistency violation")]
    fn panic_mode() {
        let mut el = EventLoop::new_virtual();
        let mut cache: CacheStage<Ipv4Addr, u32> = CacheStage::new("t");
        cache.panic_on_violation(true);
        cache.route_op(&mut el, OriginId(0), del("10.0.0.0/8", 1));
    }

    #[test]
    fn lookup_prefers_message_history() {
        let mut el = EventLoop::new_virtual();
        // Upstream claims nothing; history says 10/8 exists.
        let upstream = stage_ref(SinkStage::<Ipv4Addr, u32>::new());
        let mut cache = CacheStage::new("t");
        cache.set_upstream(upstream.clone());
        cache.route_op(&mut el, OriginId(0), add("10.0.0.0/8", 7));
        assert_eq!(cache.lookup_route(&p("10.0.0.0/8")), Some(7));
        // When upstream agrees, pass through.
        upstream
            .borrow_mut()
            .route_op(&mut el, OriginId(0), add("10.0.0.0/8", 7));
        assert_eq!(cache.lookup_route(&p("10.0.0.0/8")), Some(7));
        assert_eq!(cache.lookup_route(&p("99.0.0.0/8")), None);
    }

    #[test]
    fn audit_finds_upstream_lies() {
        let mut el = EventLoop::new_virtual();
        let upstream = SinkStage::<Ipv4Addr, u32>::new(); // empty: "lies"
        let mut cache = CacheStage::new("t");
        cache.route_op(&mut el, OriginId(0), add("10.0.0.0/8", 7));
        let v = audit_lookup_consistency(&cache, &upstream);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("None but add_route"));
    }
}
