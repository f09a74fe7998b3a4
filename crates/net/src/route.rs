//! The route record exchanged between routing stages and processes.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::addr::Addr;
use crate::attrs::PathAttributes;
use crate::heapsize::HeapSize;
use crate::patricia::PatriciaTrie;
use crate::prefix::Prefix;

/// Identifies which protocol (or origin table) produced a route.
///
/// The RIB arbitrates between protocols by administrative distance; the
/// protocol id also keys redistribution ("redistribute rip into bgp").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProtocolId {
    /// Directly connected interface route.
    Connected,
    /// Operator-configured static route.
    Static,
    /// RIPv2.
    Rip,
    /// External BGP.
    Ebgp,
    /// Internal BGP.
    Ibgp,
    /// OSPF (substrate hook; protocol not shipped in XORP 1.0).
    Ospf,
    /// An experimental or third-party protocol, identified by a small tag —
    /// the extension hook exercised by the ad-hoc protocol example (§8.3).
    Other(u16),
}

impl ProtocolId {
    /// Stable textual name, used in XRLs and the config language.
    pub fn name(&self) -> String {
        self.to_string()
    }

    /// Parse the textual name produced by [`ProtocolId::name`].
    pub fn from_name(s: &str) -> Option<ProtocolId> {
        match s {
            "connected" => Some(ProtocolId::Connected),
            "static" => Some(ProtocolId::Static),
            "rip" => Some(ProtocolId::Rip),
            "ebgp" => Some(ProtocolId::Ebgp),
            "ibgp" => Some(ProtocolId::Ibgp),
            "ospf" => Some(ProtocolId::Ospf),
            _ => s
                .strip_prefix("proto")
                .and_then(|n| n.parse().ok())
                .map(ProtocolId::Other),
        }
    }
}

/// The stable name, written without allocating (route rows are encoded
/// through this).
impl fmt::Display for ProtocolId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ProtocolId::Connected => "connected",
            ProtocolId::Static => "static",
            ProtocolId::Rip => "rip",
            ProtocolId::Ebgp => "ebgp",
            ProtocolId::Ibgp => "ibgp",
            ProtocolId::Ospf => "ospf",
            ProtocolId::Other(n) => return write!(f, "proto{n}"),
        })
    }
}

/// Administrative distance: the RIB's single arbitration metric (§5.2).
///
/// Lower wins.  Defaults follow industry convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AdminDistance(pub u8);

impl AdminDistance {
    /// Conventional default distance for a protocol.
    pub fn default_for(proto: ProtocolId) -> AdminDistance {
        AdminDistance(match proto {
            ProtocolId::Connected => 0,
            ProtocolId::Static => 1,
            ProtocolId::Ebgp => 20,
            ProtocolId::Ospf => 110,
            ProtocolId::Rip => 120,
            ProtocolId::Ibgp => 200,
            ProtocolId::Other(_) => 150,
        })
    }
}

/// A route as it flows between stages and processes.
///
/// For BGP routes the interesting data lives in the shared
/// [`PathAttributes`] block; for IGP routes `metric` carries the protocol
/// metric and `attrs` may be a minimal block.  The `Arc` sharing means a
/// route can sit in a PeerIn table, a fanout queue and an outbound filter
/// bank without tripling attribute memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteEntry<A: Addr> {
    /// Destination subnet.
    pub net: Prefix<A>,
    /// Shared attribute block (nexthop, AS path, ...).
    pub attrs: Arc<PathAttributes>,
    /// Protocol metric (RIP hop count, IGP cost...).  BGP carries its
    /// ranking inside `attrs`.
    pub metric: u32,
    /// Which protocol produced the route.
    pub proto: ProtocolId,
    /// Administrative distance used by the RIB merge stages.
    pub admin_distance: AdminDistance,
    /// Interface the route points out of, when known.  The ad-hoc routing
    /// extension of §8.3 required exactly this: specifying a route by
    /// interface rather than by nexthop router.
    pub ifname: Option<Arc<str>>,
    /// Identity of the peer/client that contributed the route (a BGP
    /// peering id, a RIB client id).  Fanout stages use it to avoid
    /// advertising a route back to its source.
    pub source: Option<u32>,
}

impl<A: Addr> RouteEntry<A> {
    /// Construct a route with the protocol's default admin distance.
    pub fn new(net: Prefix<A>, attrs: Arc<PathAttributes>, metric: u32, proto: ProtocolId) -> Self {
        RouteEntry {
            net,
            attrs,
            metric,
            proto,
            admin_distance: AdminDistance::default_for(proto),
            ifname: None,
            source: None,
        }
    }

    /// The nexthop address from the attribute block.
    pub fn nexthop(&self) -> std::net::IpAddr {
        self.attrs.nexthop
    }

    /// Replace the attribute block (stages that modify attributes make a
    /// new block; others clone the `Arc`).
    pub fn with_attrs(mut self, attrs: PathAttributes) -> Self {
        self.attrs = Arc::new(attrs);
        self
    }
}

impl<A: Addr> HeapSize for RouteEntry<A> {
    fn heap_size(&self) -> usize {
        // A lone route owns its block; a table of routes that share blocks
        // is measured with `route_table_bytes` instead.
        self.attrs.heap_size() + self.ifname.as_ref().map_or(0, |s| s.len())
    }
}

/// A stored route's handle to its attribute block: the one part of a
/// route slot that several routes share.
pub trait SharesAttrs: HeapSize {
    /// The shared block.
    fn attrs(&self) -> &Arc<PathAttributes>;
}

impl SharesAttrs for Arc<PathAttributes> {
    fn attrs(&self) -> &Arc<PathAttributes> {
        self
    }
}

/// Heap bytes of a route table under the one accounting rule for shared
/// blocks: the trie with each stored slot's own heap, and each distinct
/// attribute block once per table, counted by pointer, however many
/// slots hold a handle to it.  The slot is whatever the table stores per
/// route: the bare block in BGP's PeerIn; block, metric and interface
/// index in the RIB's origin tables.
pub fn route_table_bytes<A: Addr, S: SharesAttrs>(routes: &PatriciaTrie<A, S>) -> usize {
    let mut blocks = BTreeSet::new();
    let repeats: usize = routes
        .iter()
        .map(|(_, s)| s.attrs())
        .filter(|attrs| !blocks.insert(Arc::as_ptr(attrs)))
        .map(|attrs| attrs.heap_size())
        .sum();
    routes.heap_size() - repeats
}

/// Graceful-restart marks over a route table (§4.1 relaxed): the prefixes
/// a dead process installed.  They stay installed while marked; a
/// re-learned or withdrawn route loses its mark, and whatever is still
/// marked when the grace timer fires is withdrawn.
#[derive(Debug, Clone)]
pub struct StaleSet<A: Addr>(BTreeSet<Prefix<A>>);

impl<A: Addr> Default for StaleSet<A> {
    fn default() -> Self {
        StaleSet(BTreeSet::new())
    }
}

impl<A: Addr> StaleSet<A> {
    /// Mark every route of `routes`, replacing earlier marks.  Returns
    /// how many were marked.
    pub fn mark_all<S>(&mut self, routes: &PatriciaTrie<A, S>) -> usize {
        self.0 = routes.iter().map(|(net, _)| net).collect();
        self.0.len()
    }

    /// `net` was re-learned or withdrawn: its mark goes.
    pub fn clear(&mut self, net: &Prefix<A>) {
        self.0.remove(net);
    }

    /// Routes still marked.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when nothing is marked.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The grace timer fired: every prefix still marked, marks cleared.
    pub fn take(&mut self) -> Vec<Prefix<A>> {
        std::mem::take(&mut self.0).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{IpAddr, Ipv4Addr};

    fn route(s: &str) -> RouteEntry<Ipv4Addr> {
        RouteEntry::new(
            s.parse().unwrap(),
            PathAttributes::new(IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1))).shared(),
            1,
            ProtocolId::Rip,
        )
    }

    #[test]
    fn default_admin_distances_ordered() {
        use ProtocolId::*;
        let d = AdminDistance::default_for;
        assert!(d(Connected) < d(Static));
        assert!(d(Static) < d(Ebgp));
        assert!(d(Ebgp) < d(Ospf));
        assert!(d(Ospf) < d(Rip));
        assert!(d(Rip) < d(Ibgp));
    }

    #[test]
    fn protocol_name_roundtrip() {
        for p in [
            ProtocolId::Connected,
            ProtocolId::Static,
            ProtocolId::Rip,
            ProtocolId::Ebgp,
            ProtocolId::Ibgp,
            ProtocolId::Ospf,
            ProtocolId::Other(7),
        ] {
            assert_eq!(ProtocolId::from_name(&p.name()), Some(p));
        }
        assert_eq!(ProtocolId::from_name("nonsense"), None);
    }

    #[test]
    fn route_accessors() {
        let r = route("10.1.0.0/16");
        assert_eq!(r.nexthop(), IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)));
        assert_eq!(r.admin_distance, AdminDistance(120));
        let r2 = r
            .clone()
            .with_attrs(PathAttributes::new(IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2))));
        assert_eq!(r2.nexthop(), IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)));
    }

    #[test]
    fn a_table_charges_each_shared_block_once() {
        let shared = route("10.0.0.0/8").attrs;
        let (mut sharing, mut copying) = (PatriciaTrie::new(), PatriciaTrie::new());
        for net in ["10.0.0.0/8", "11.0.0.0/8", "12.0.0.0/8"] {
            let own = route(net);
            copying.insert(own.net, own.attrs);
            sharing.insert(own.net, shared.clone());
        }
        let block = shared.heap_size();
        assert_eq!(route_table_bytes(&copying), copying.heap_size());
        assert_eq!(route_table_bytes(&sharing), sharing.heap_size() - 2 * block);
    }
}
