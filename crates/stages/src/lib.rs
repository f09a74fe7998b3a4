//! The staged routing-table framework (§5).
//!
//! "Rather than a single, shared, passive table that stores information and
//! annotations, we implement routing tables as dynamic processes through
//! which routes flow.  There is no single routing table object, but rather
//! a network of pluggable routing stages, each implementing the same
//! interface."
//!
//! The interface is three messages (§5.1):
//!
//! * **add_route** — a preceding stage sends a new route downstream;
//! * **delete_route** — a preceding stage withdraws a route downstream;
//! * **lookup_route** — a later stage asks *upstream* for the current route
//!   to a subnet.
//!
//! with two consistency rules: (1) every `delete_route` corresponds to a
//! previous `add_route`, and (2) `lookup_route` answers agree with the
//! add/delete messages previously sent downstream.  "A stage can assume
//! that upstream stages are consistent, and need only preserve consistency
//! for downstream stages."
//!
//! This crate supplies the [`Stage`] trait, the [`StageRef`] plumbing that
//! lets stage networks be re-plumbed at runtime (dynamic deletion stages,
//! policy re-filter stages, §5.1.2), and the [`CacheStage`] consistency
//! checker the paper describes using to shake out "many subtle bugs".

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use xorp_event::EventLoop;
use xorp_net::{Addr, Prefix};

pub mod cache;
pub mod dump;

pub use cache::{CacheStage, ConsistencyViolation};
pub use dump::{DumpSource, DumpStage, TableSource, TrieTable, VecSource, SLICE_SIZE};

/// Identifies the source of a route at the head of a pipeline: a BGP
/// peering index, a RIB origin-table index, etc.  Stages pass it through so
/// fanout/decision stages can tell alternatives apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OriginId(pub u32);

/// A route change flowing downstream.
///
/// Deletions carry the *old route* as well as the prefix; XORP does the
/// same internally, and it is what lets downstream stages (peer-out
/// pipelines, consistency checkers) act without a lookup back upstream.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteOp<A: Addr, R> {
    /// Announce (or replace) the route for a subnet.
    Add {
        /// Destination subnet.
        net: Prefix<A>,
        /// The route.
        route: R,
    },
    /// Atomically replace a previously announced route (delete + add in one
    /// message — XORP's `replace_route`).  Keeping old and new together
    /// lets intermediate stages compute winners without storing their own
    /// copy of the table, preserving "routes are stored only in the origin
    /// stages".
    Replace {
        /// Destination subnet.
        net: Prefix<A>,
        /// The route previously announced.
        old: R,
        /// Its replacement.
        new: R,
    },
    /// Withdraw the route for a subnet.
    Delete {
        /// Destination subnet.
        net: Prefix<A>,
        /// The route being withdrawn (what a prior `Add` announced).
        old: R,
    },
}

impl<A: Addr, R> RouteOp<A, R> {
    /// The subnet this operation concerns.
    pub fn net(&self) -> Prefix<A> {
        match self {
            RouteOp::Add { net, .. }
            | RouteOp::Replace { net, .. }
            | RouteOp::Delete { net, .. } => *net,
        }
    }

    /// True for `Add`.
    pub fn is_add(&self) -> bool {
        matches!(self, RouteOp::Add { .. })
    }

    /// The route now in effect after this operation, if any.
    pub fn new_route(&self) -> Option<&R> {
        match self {
            RouteOp::Add { route, .. } => Some(route),
            RouteOp::Replace { new, .. } => Some(new),
            RouteOp::Delete { .. } => None,
        }
    }

    /// The route in effect before this operation, if any.
    pub fn old_route(&self) -> Option<&R> {
        match self {
            RouteOp::Add { .. } => None,
            RouteOp::Replace { old, .. } | RouteOp::Delete { old, .. } => Some(old),
        }
    }

    /// The routes in effect before and after this operation.
    pub fn into_routes(self) -> (Option<R>, Option<R>) {
        match self {
            RouteOp::Add { route, .. } => (None, Some(route)),
            RouteOp::Replace { old, new, .. } => (Some(old), Some(new)),
            RouteOp::Delete { old, .. } => (Some(old), None),
        }
    }
}

impl<A: Addr, R: PartialEq> RouteOp<A, R> {
    /// The operation that moves a holder of `before` for `net` to `after`,
    /// or `None` when the two agree.
    pub fn diff(net: Prefix<A>, before: Option<R>, after: Option<R>) -> Option<Self> {
        match (before, after) {
            (None, Some(route)) => Some(RouteOp::Add { net, route }),
            (Some(old), None) => Some(RouteOp::Delete { net, old }),
            (Some(old), Some(new)) if old != new => Some(RouteOp::Replace { net, old, new }),
            _ => None,
        }
    }
}

/// A pluggable routing stage.
///
/// Stages "receive routes from upstream and pass them downstream, sometimes
/// modifying or filtering them along the way ... new stages can be added to
/// the pipeline without disturbing their neighbors" (§5.1).
pub trait Stage<A: Addr, R: Clone> {
    /// Diagnostic name (shown in consistency violations and pipeline
    /// dumps).
    fn name(&self) -> String;

    /// Handle a route change arriving from upstream.  The stage drops it,
    /// modifies it, or passes it to its downstream neighbor.
    fn route_op(&mut self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, R>);

    /// Answer (or relay upstream) a downstream stage's question: what is
    /// the current route for `net`?  Must be consistent with the message
    /// history this stage has sent downstream.
    fn lookup_route(&self, net: &Prefix<A>) -> Option<R>;

    /// A batch boundary: upstream has momentarily run dry (e.g. end of a
    /// BGP UPDATE).  Stages that coalesce output flush here.  Default:
    /// relay.
    fn push(&mut self, el: &mut EventLoop) {
        let _ = el;
    }

    /// Re-plumb this stage's downstream neighbor.  This is what makes the
    /// network *dynamic*: deletion stages, policy stages and merge stages
    /// are spliced in at runtime (§5.1.2).  Terminal stages need not
    /// accept a neighbor; the default refuses loudly.
    fn set_downstream(&mut self, s: StageRef<A, R>) {
        let _ = s;
        panic!("stage {} does not support downstream plumbing", self.name());
    }

    /// Re-plumb this stage's upstream neighbor, the stage its
    /// `lookup_route` relays to.  A splice above a stage re-plumbs it
    /// here, as a splice below re-plumbs `set_downstream`.  Stages that
    /// answer every lookup themselves need no neighbor; the default
    /// refuses loudly.
    fn set_upstream(&mut self, s: StageRef<A, R>) {
        let _ = s;
        panic!("stage {} does not support upstream plumbing", self.name());
    }
}

/// A terminal stage that hands every operation to a closure — the bridge
/// from a stage network to the outside world (an XRL send, the FEA, a
/// test probe).
pub struct FnStage<A: Addr, R: Clone> {
    label: String,
    #[allow(clippy::type_complexity)]
    f: Box<dyn FnMut(&mut EventLoop, OriginId, RouteOp<A, R>)>,
    #[allow(clippy::type_complexity)]
    on_push: Option<Box<dyn FnMut(&mut EventLoop)>>,
}

impl<A: Addr, R: Clone> FnStage<A, R> {
    /// Wrap a closure as a terminal stage.
    pub fn new(
        label: impl Into<String>,
        f: impl FnMut(&mut EventLoop, OriginId, RouteOp<A, R>) + 'static,
    ) -> Self {
        FnStage {
            label: label.into(),
            f: Box::new(f),
            on_push: None,
        }
    }

    /// Also invoke a closure on `push` boundaries.
    pub fn on_push(mut self, f: impl FnMut(&mut EventLoop) + 'static) -> Self {
        self.on_push = Some(Box::new(f));
        self
    }
}

impl<A: Addr, R: Clone> Stage<A, R> for FnStage<A, R> {
    fn name(&self) -> String {
        format!("fn[{}]", self.label)
    }

    fn route_op(&mut self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, R>) {
        (self.f)(el, origin, op);
    }

    fn lookup_route(&self, _net: &Prefix<A>) -> Option<R> {
        None
    }

    fn push(&mut self, el: &mut EventLoop) {
        if let Some(f) = &mut self.on_push {
            f(el);
        }
    }
}

/// Shared handle to a stage, allowing runtime re-plumbing.
pub type StageRef<A, R> = Rc<RefCell<dyn Stage<A, R>>>;

/// Convenience: wrap a concrete stage into a [`StageRef`].
pub fn stage_ref<A: Addr, R: Clone, S: Stage<A, R> + 'static>(s: S) -> Rc<RefCell<S>> {
    Rc::new(RefCell::new(s))
}

/// A terminal stage that records everything reaching the end of a pipeline.
/// Used by unit tests throughout the workspace, and as the "best routes"
/// sink in simple configurations.
pub struct SinkStage<A: Addr, R: Clone> {
    /// Every operation received, in order.
    pub log: Vec<(OriginId, RouteOp<A, R>)>,
    /// Current table implied by the log.
    pub table: std::collections::BTreeMap<Prefix<A>, R>,
    /// Number of `push` calls seen.
    pub pushes: usize,
}

impl<A: Addr, R: Clone> Default for SinkStage<A, R> {
    fn default() -> Self {
        SinkStage {
            log: Vec::new(),
            table: Default::default(),
            pushes: 0,
        }
    }
}

impl<A: Addr, R: Clone> SinkStage<A, R> {
    /// Fresh empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prefixes currently present.
    pub fn nets(&self) -> Vec<Prefix<A>> {
        self.table.keys().copied().collect()
    }
}

impl<A: Addr, R: Clone> Stage<A, R> for SinkStage<A, R> {
    fn name(&self) -> String {
        "sink".into()
    }

    fn route_op(&mut self, _el: &mut EventLoop, origin: OriginId, op: RouteOp<A, R>) {
        match &op {
            RouteOp::Add { net, route } => {
                self.table.insert(*net, route.clone());
            }
            RouteOp::Replace { net, new, .. } => {
                self.table.insert(*net, new.clone());
            }
            RouteOp::Delete { net, .. } => {
                self.table.remove(net);
            }
        }
        self.log.push((origin, op));
    }

    fn lookup_route(&self, net: &Prefix<A>) -> Option<R> {
        self.table.get(net).cloned()
    }

    fn push(&mut self, _el: &mut EventLoop) {
        self.pushes += 1;
    }
}

impl<A: Addr, R: Clone> fmt::Debug for SinkStage<A, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SinkStage({} routes, {} ops)",
            self.table.len(),
            self.log.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    type R = u32;

    fn p(s: &str) -> Prefix<Ipv4Addr> {
        s.parse().unwrap()
    }

    #[test]
    fn sink_tracks_table() {
        let mut el = EventLoop::new_virtual();
        let mut sink: SinkStage<Ipv4Addr, R> = SinkStage::new();
        sink.route_op(
            &mut el,
            OriginId(0),
            RouteOp::Add {
                net: p("10.0.0.0/8"),
                route: 1,
            },
        );
        sink.route_op(
            &mut el,
            OriginId(0),
            RouteOp::Add {
                net: p("20.0.0.0/8"),
                route: 2,
            },
        );
        sink.route_op(
            &mut el,
            OriginId(0),
            RouteOp::Delete {
                net: p("10.0.0.0/8"),
                old: 1,
            },
        );
        assert_eq!(sink.nets(), vec![p("20.0.0.0/8")]);
        assert_eq!(sink.lookup_route(&p("20.0.0.0/8")), Some(2));
        assert_eq!(sink.lookup_route(&p("10.0.0.0/8")), None);
        assert_eq!(sink.log.len(), 3);
        sink.push(&mut el);
        assert_eq!(sink.pushes, 1);
    }

    #[test]
    fn route_op_accessors() {
        let add: RouteOp<Ipv4Addr, R> = RouteOp::Add {
            net: p("10.0.0.0/8"),
            route: 1,
        };
        assert!(add.is_add());
        assert_eq!(add.net(), p("10.0.0.0/8"));
        let del: RouteOp<Ipv4Addr, R> = RouteOp::Delete {
            net: p("10.0.0.0/8"),
            old: 1,
        };
        assert!(!del.is_add());
    }

    #[test]
    fn stage_ref_coerces_to_dyn() {
        let sink = stage_ref(SinkStage::<Ipv4Addr, R>::new());
        let dyn_ref: StageRef<Ipv4Addr, R> = sink.clone();
        let mut el = EventLoop::new_virtual();
        dyn_ref.borrow_mut().route_op(
            &mut el,
            OriginId(1),
            RouteOp::Add {
                net: p("10.0.0.0/8"),
                route: 9,
            },
        );
        assert_eq!(sink.borrow().table.len(), 1);
        assert_eq!(dyn_ref.borrow().name(), "sink");
    }
}
