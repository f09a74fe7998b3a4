//! BGP path attributes.
//!
//! A [`PathAttributes`] block is the per-route data BGP's decision process
//! ranks on.  Many routes share identical attribute blocks (all routes in
//! one UPDATE share one), so stages pass them by `Arc` — this is the main
//! mechanism that keeps the staged design's memory overhead to the "slightly
//! greater memory usage" the paper concedes (§5.1) rather than a full copy
//! per stage.
//!
//! The RIB shares its blocks too.  A route reaches it over `rib/1.0` with
//! only a nexthop and a protocol, so its block holds two facts, and an
//! [`AttrBlocks`] interner hands every route with the same pair the same
//! block.

use std::collections::BTreeMap;
use std::fmt;
use std::net::IpAddr;
use std::sync::{Arc, Weak};

use crate::aspath::AsPath;
use crate::heapsize::HeapSize;

/// The ORIGIN attribute: how the route entered BGP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Origin {
    /// Interior Gateway Protocol (network statement).
    Igp = 0,
    /// Exterior Gateway Protocol (historical).
    Egp = 1,
    /// Unknown provenance (redistribution).
    Incomplete = 2,
}

impl Origin {
    /// Decode from the RFC 4271 wire value.
    pub fn from_u8(v: u8) -> Option<Origin> {
        match v {
            0 => Some(Origin::Igp),
            1 => Some(Origin::Egp),
            2 => Some(Origin::Incomplete),
            _ => None,
        }
    }
}

/// The MULTI_EXIT_DISC attribute.  Lower is preferred; absent compares as 0
/// per common router behaviour (configurable in real stacks).
pub type MedMetric = u32;

/// A standard community value (RFC 1997): `AS:value` packed into 32 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Community(pub u32);

impl Community {
    /// `NO_EXPORT` well-known community.
    pub const NO_EXPORT: Community = Community(0xFFFF_FF01);
    /// `NO_ADVERTISE` well-known community.
    pub const NO_ADVERTISE: Community = Community(0xFFFF_FF02);

    /// Construct from the conventional `asn:value` halves.
    pub fn new(asn: u16, value: u16) -> Community {
        Community(((asn as u32) << 16) | value as u32)
    }

    /// The AS half.
    pub fn asn(&self) -> u16 {
        (self.0 >> 16) as u16
    }

    /// The value half.
    pub fn value(&self) -> u16 {
        self.0 as u16
    }
}

impl fmt::Display for Community {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.asn(), self.value())
    }
}

impl HeapSize for Community {
    fn heap_size(&self) -> usize {
        0
    }
}

/// The attribute block attached to a BGP route.
///
/// Ranked by the decision process in the order: local-pref (higher wins),
/// AS-path length (shorter wins), origin (lower wins), MED (lower wins),
/// EBGP-over-IBGP, IGP metric to nexthop, tie-break on peer id.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathAttributes {
    /// NEXT_HOP: the router to forward through.  For IBGP routes this is
    /// typically a distant exit router whose reachability and metric must be
    /// resolved via the RIB (§5.1.1).
    pub nexthop: IpAddr,
    /// AS_PATH.
    pub as_path: AsPath,
    /// ORIGIN.
    pub origin: Origin,
    /// LOCAL_PREF; `None` when not present (EBGP-received, pre-ingress).
    pub local_pref: Option<u32>,
    /// MULTI_EXIT_DISC.
    pub med: Option<MedMetric>,
    /// Standard communities, kept sorted for cheap comparison.
    pub communities: Vec<Community>,
    /// Whether the route was learned over EBGP (true) or IBGP (false).
    pub ebgp: bool,
    /// Policy tag list: the one addition the paper's policy framework made
    /// to pre-existing code (§8.3) — tags travel with routes between BGP and
    /// the RIB so redistribution filters can match on them.
    pub tags: Vec<u32>,
}

impl PathAttributes {
    /// Minimal attribute block for a route with the given nexthop.
    pub fn new(nexthop: IpAddr) -> Self {
        PathAttributes {
            nexthop,
            as_path: AsPath::empty(),
            origin: Origin::Igp,
            local_pref: None,
            med: None,
            communities: Vec::new(),
            ebgp: true,
            tags: Vec::new(),
        }
    }

    /// Effective local preference (default 100 when absent, as routers do).
    pub fn effective_local_pref(&self) -> u32 {
        self.local_pref.unwrap_or(100)
    }

    /// Effective MED (absent treated as 0 = most preferred).
    pub fn effective_med(&self) -> u32 {
        self.med.unwrap_or(0)
    }

    /// True if the NO_EXPORT community is attached.
    pub fn no_export(&self) -> bool {
        self.communities.contains(&Community::NO_EXPORT)
    }

    /// Wrap in an `Arc` for sharing across stages.
    pub fn shared(self) -> Arc<PathAttributes> {
        Arc::new(self)
    }
}

impl HeapSize for PathAttributes {
    fn heap_size(&self) -> usize {
        self.as_path.heap_size() + self.communities.heap_size() + self.tags.heap_size()
    }
}

/// One shared attribute block per `(nexthop, ebgp)` pair, for a table whose
/// routes carry nothing else in their block.
///
/// The map holds weak handles, so it never keeps a block alive, but a dead
/// entry keeps the block's allocation until it is pruned.  Dead entries
/// are pruned when the map
/// reaches twice the number of live entries seen at the last prune, which
/// is amortised O(1) per call and bounds the map at twice the peak number
/// of live blocks, plus one.  The map is ordered, not hashed, because the
/// nexthops are chosen by a peer.
#[derive(Default)]
pub struct AttrBlocks {
    blocks: BTreeMap<(IpAddr, bool), Weak<PathAttributes>>,
    live_at_prune: usize,
}

impl AttrBlocks {
    /// The live block for `(nexthop, ebgp)`, or a new one.
    pub fn get(&mut self, nexthop: IpAddr, ebgp: bool) -> Arc<PathAttributes> {
        if let Some(block) = self.blocks.get(&(nexthop, ebgp)).and_then(Weak::upgrade) {
            return block;
        }
        let block = Arc::new(PathAttributes {
            ebgp,
            ..PathAttributes::new(nexthop)
        });
        self.blocks.insert((nexthop, ebgp), Arc::downgrade(&block));
        if self.blocks.len() > 2 * self.live_at_prune {
            self.blocks.retain(|_, b| b.strong_count() > 0);
            self.live_at_prune = self.blocks.len();
        }
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn attrs() -> PathAttributes {
        PathAttributes::new(IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)))
    }

    #[test]
    fn community_packing() {
        let c = Community::new(65001, 42);
        assert_eq!(c.asn(), 65001);
        assert_eq!(c.value(), 42);
        assert_eq!(c.to_string(), "65001:42");
    }

    #[test]
    fn well_known_communities() {
        assert_eq!(Community::NO_EXPORT.asn(), 0xFFFF);
        let mut a = attrs();
        assert!(!a.no_export());
        a.communities.push(Community::NO_EXPORT);
        assert!(a.no_export());
    }

    #[test]
    fn effective_defaults() {
        let a = attrs();
        assert_eq!(a.effective_local_pref(), 100);
        assert_eq!(a.effective_med(), 0);
        let mut b = attrs();
        b.local_pref = Some(200);
        b.med = Some(10);
        assert_eq!(b.effective_local_pref(), 200);
        assert_eq!(b.effective_med(), 10);
    }

    #[test]
    fn origin_wire_values() {
        assert_eq!(Origin::from_u8(0), Some(Origin::Igp));
        assert_eq!(Origin::from_u8(1), Some(Origin::Egp));
        assert_eq!(Origin::from_u8(2), Some(Origin::Incomplete));
        assert_eq!(Origin::from_u8(3), None);
        assert!(Origin::Igp < Origin::Incomplete);
    }

    #[test]
    fn equal_pairs_share_one_block() {
        let mut blocks = AttrBlocks::default();
        let nh = IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1));
        let a = blocks.get(nh, true);
        assert!(Arc::ptr_eq(&a, &blocks.get(nh, true)));
        let ibgp = blocks.get(nh, false);
        assert!(!Arc::ptr_eq(&a, &ibgp));
        assert_eq!((a.nexthop, a.ebgp, ibgp.ebgp), (nh, true, false));
        // A block dropped with its last holder is rebuilt, equal, on demand.
        drop(a);
        assert_eq!(*blocks.get(nh, true), *blocks.get(nh, true));
    }

    #[test]
    fn churn_keeps_the_interner_within_twice_the_peak_live_blocks() {
        let mut blocks = AttrBlocks::default();
        let mut alive = std::collections::VecDeque::new();
        for i in 0..100_000u32 {
            if alive.len() == 100 {
                alive.pop_front();
            }
            alive.push_back(blocks.get(IpAddr::V4(Ipv4Addr::from(i)), i % 2 == 0));
            assert!(blocks.blocks.len() <= 201, "{i}: {}", blocks.blocks.len());
        }
    }

    #[test]
    fn heap_size_counts_paths() {
        let mut a = attrs();
        a.as_path = AsPath::from_sequence([1, 2, 3, 4]);
        assert!(a.heap_size() > 0);
    }
}
