//! Staged BGP-4 (§5.1, Figures 4–6).
//!
//! "To a first approximation, BGP can be modeled as the pipeline
//! architecture ... Routes come in from a specific BGP peer and progress
//! through an incoming filter bank into the decision process.  The best
//! routes then proceed down additional pipelines, one for each peering,
//! through an outgoing filter bank and then on to the relevant peer
//! router."
//!
//! The pipeline this crate builds per peer (Figure 5, plus the §8.3
//! extensions):
//!
//! ```text
//! PeerIn ─[DeletionStage*]─ [Damping] ─ ImportFilters ─ NexthopResolver ─┐
//! PeerIn ─[DeletionStage*]─ [Damping] ─ ImportFilters ─ NexthopResolver ─┼─ Decision
//!                                                                        │     │
//!                       ┌─────────────────────────────── FanoutQueue ────┘─────┘
//!                       ├─ ExportFilters ─ [Cache] ─ PeerOut → UPDATEs to peer
//!                       ├─ ExportFilters ─ [Cache] ─ PeerOut → UPDATEs to peer
//!                       └─→ best routes to the RIB
//! ```
//!
//! `DeletionStage*` are the *dynamic* stages of §5.1.2: spliced in when a
//! peering goes down, draining >100k routes as a cooperative background
//! task while the PeerIn is immediately ready for the peering to return.
//! A splice re-plumbs both neighbours of the chain (`set_downstream` above
//! it, `set_upstream` below), so the first fixed stage — the optional
//! damping stage, or the import filters — relays lookups into the drain.
//!
//! Routes are stored only in PeerIn stages (and, while they drain, in
//! deletion stages); damping keeps only the penalties of prefixes that
//! flapped.  The Decision Process looks up alternatives "via calls
//! upstream through the pipeline".  The
//! NexthopResolver talks asynchronously to the RIB (§5.1.1) through the
//! [`nexthop::NexthopService`] abstraction and caches answers over the
//! non-overlapping ranges of §5.2.1.

pub mod aggregation;
pub mod bgp;
pub mod damping;
pub mod decision;
pub mod deletion;
pub mod fanout;
pub mod filter;
pub mod fsm;
pub mod msg;
pub mod nexthop;
pub mod peer_in;
pub mod peer_out;
pub mod session;

pub use aggregation::AggregationStage;
pub use bgp::{BgpConfig, BgpProcess, PeerConfig};
pub use damping::DampingConfig;
pub use decision::DecisionStage;
pub use deletion::DeletionStage;
pub use fanout::{FanoutQueue, ReaderId};
pub use filter::FilterStage;
pub use fsm::{FsmAction, FsmEvent, FsmState, PeerFsm};
pub use msg::{BgpMessage, NotificationCode, OpenMessage, UpdateMessage};
pub use nexthop::{NexthopResolver, NexthopService, RibNexthopAnswer};
pub use peer_in::{PeerIn, PeerTable};
pub use peer_out::PeerOut;
pub use session::{Session, SessionConfig, SessionHandler, SessionTransport};

use xorp_net::Addr;

/// The route type flowing through BGP pipelines.  The `metric` field
/// carries the IGP metric to the nexthop once the resolver annotates it.
pub type BgpRoute<A> = xorp_net::RouteEntry<A>;

/// Stage handle alias for this crate.
pub type BgpStageRef<A> = xorp_stages::StageRef<A, BgpRoute<A>>;

/// A peering's identity inside the pipeline network (also its OriginId).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeerId(pub u32);

impl From<PeerId> for xorp_stages::OriginId {
    fn from(p: PeerId) -> Self {
        xorp_stages::OriginId(p.0)
    }
}

/// Rank two BGP routes; `true` if `a` is preferred over `b`.
///
/// Order (RFC 4271 §9.1 as summarized in the paper's attribute docs):
/// higher local-pref, shorter AS path, lower origin, lower MED, EBGP over
/// IBGP, lower IGP metric to nexthop, lower peer id.
pub fn route_better<A: Addr>(
    a: &BgpRoute<A>,
    a_peer: PeerId,
    b: &BgpRoute<A>,
    b_peer: PeerId,
) -> bool {
    let ka = (
        std::cmp::Reverse(a.attrs.effective_local_pref()),
        a.attrs.as_path.path_len(),
        a.attrs.origin,
        a.attrs.effective_med(),
        !a.attrs.ebgp, // false (EBGP) sorts first
        a.metric,      // IGP metric annotation
        a_peer,
    );
    let kb = (
        std::cmp::Reverse(b.attrs.effective_local_pref()),
        b.attrs.as_path.path_len(),
        b.attrs.origin,
        b.attrs.effective_med(),
        !b.attrs.ebgp,
        b.metric,
        b_peer,
    );
    ka < kb
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};
    use xorp_net::{AsPath, PathAttributes, ProtocolId};

    fn route(f: impl FnOnce(&mut PathAttributes)) -> BgpRoute<Ipv4Addr> {
        let mut attrs = PathAttributes::new(IpAddr::V4("192.0.2.1".parse().unwrap()));
        attrs.as_path = AsPath::from_sequence([65001]);
        f(&mut attrs);
        BgpRoute::new(
            "10.0.0.0/8".parse().unwrap(),
            attrs.shared(),
            0,
            ProtocolId::Ebgp,
        )
    }

    #[test]
    fn local_pref_dominates() {
        let hi = route(|a| a.local_pref = Some(200));
        let lo = route(|a| {
            a.local_pref = Some(100);
            a.as_path = AsPath::from_sequence([65001]); // shorter path
        });
        assert!(route_better(&hi, PeerId(2), &lo, PeerId(1)));
    }

    #[test]
    fn shorter_as_path_wins() {
        let short = route(|a| a.as_path = AsPath::from_sequence([1]));
        let long = route(|a| a.as_path = AsPath::from_sequence([1, 2, 3]));
        assert!(route_better(&short, PeerId(2), &long, PeerId(1)));
        assert!(!route_better(&long, PeerId(1), &short, PeerId(2)));
    }

    #[test]
    fn med_lower_wins() {
        let lo = route(|a| a.med = Some(10));
        let hi = route(|a| a.med = Some(20));
        assert!(route_better(&lo, PeerId(2), &hi, PeerId(1)));
    }

    #[test]
    fn ebgp_beats_ibgp() {
        let e = route(|a| a.ebgp = true);
        let i = route(|a| a.ebgp = false);
        assert!(route_better(&e, PeerId(2), &i, PeerId(1)));
    }

    #[test]
    fn igp_metric_breaks_hot_potato() {
        // Identical attributes; nearer exit (lower IGP metric) wins — the
        // "hot potato" behaviour the paper describes (§3).
        let mut near = route(|_| {});
        near.metric = 5;
        let mut far = route(|_| {});
        far.metric = 50;
        assert!(route_better(&near, PeerId(2), &far, PeerId(1)));
    }

    #[test]
    fn peer_id_tiebreak_is_total() {
        let a = route(|_| {});
        let b = route(|_| {});
        assert!(route_better(&a, PeerId(1), &b, PeerId(2)));
        assert!(!route_better(&b, PeerId(2), &a, PeerId(1)));
    }
}
