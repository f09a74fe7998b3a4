//! The Routing Information Base as a staged network (§5.2, Figure 7).
//!
//! "Routes come into the RIB from multiple routing protocols ... As with
//! BGP, routes are stored only in the origin stages, and similar add_route,
//! delete_route and lookup_route messages traverse between the stages."
//!
//! The stage network this crate builds:
//!
//! ```text
//! OriginTable(connected) ─┐
//! OriginTable(static) ────┼─ MergeStage ─┐ (internal side)
//! OriginTable(rip) ───────┘              │
//!                                        ExtIntStage ─ RedistStage ─ RegisterStage ─ output
//! OriginTable(ebgp) ──┬─ MergeStage ─────┘ (external side)
//! OriginTable(ibgp) ──┘
//! ```
//!
//! * [`OriginTable`] — the only stages that store routes; one per protocol.
//!   Every stage below answers `lookup_route` by asking upstream, so a
//!   route is fetched from here, never copied along the way.
//! * [`MergeStage`] — stateless pairwise arbitration on administrative
//!   distance ("this single metric allows more distributed
//!   decision-making, which we prefer").
//! * [`ExtIntStage`] — composes external (EGP) routes with internal (IGP)
//!   routes.  Resolution state is per *nexthop* (its egress interface and
//!   the prefixes using it), not per route; the one table it keeps is the
//!   merged internal side, O(IGP routes), for longest-match resolution.
//! * [`RedistStage`] — programmable policy filters redistributing a route
//!   subset to other protocols (§5.2, §8.3).
//! * [`RegisterStage`] — interest registration with
//!   largest-enclosing-non-overlaid-subnet answers (§5.2.1, Figure 8),
//!   computed over a payload-free trie of the final table's prefixes.
//!
//! [`Rib`] wires the network together and is the façade a RIB "process"
//! exposes over XRLs.

pub mod extint;
pub mod merge;
pub mod origin;
pub mod redist;
pub mod register;
pub mod rib;

pub use extint::ExtIntStage;
pub use merge::MergeStage;
pub use origin::{OriginTable, OriginTableSource};
pub use redist::{RedistStage, RedistWatcher};
pub use register::{covering_answer, RegisterAnswer, RegisterStage};
pub use rib::{BatchOp, Rib};

use xorp_net::Addr;

/// The route type flowing through RIB pipelines.
pub type RibRoute<A> = xorp_net::RouteEntry<A>;

/// Convenience alias for stage handles in this crate.
pub type RibStageRef<A> = xorp_stages::StageRef<A, RibRoute<A>>;

/// True if `proto` belongs on the external (EGP) side of the ExtInt stage.
pub fn is_external(proto: xorp_net::ProtocolId) -> bool {
    matches!(
        proto,
        xorp_net::ProtocolId::Ebgp | xorp_net::ProtocolId::Ibgp
    )
}

/// Compute the winner between two candidate routes by administrative
/// distance; `a` wins ties.
pub(crate) fn better<A: Addr>(a: &RibRoute<A>, b: &RibRoute<A>) -> bool {
    a.admin_distance <= b.admin_distance
}
