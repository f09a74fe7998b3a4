//! The harness router's XRL interfaces, declared once with
//! [`xorp_xrl::xrl_interface!`] — the single source of truth for the
//! typed client stubs, the server traits, the dispatch tables, and the
//! wire-v2 signature hashes of the `rib/1.0`, `fea/1.0` and `bgp/1.0`
//! surfaces.
//!
//! Alongside the interfaces lives the shared **route codec**: the one
//! place that knows how a route crosses the wire, both as the positional
//! arguments of `add_route`/`delete_route` and as the row layout inside
//! the vectorized `add_routes`/`delete_routes` frames.  BGP→RIB and
//! RIB→FEA use the same encoding; previously each hop carried its own
//! copy of these helpers.

use std::net::{IpAddr, Ipv4Addr};

use xorp_event::EventLoop;
use xorp_net::{AttrBlocks, Ipv4Net, ProtocolId, RouteEntry};
use xorp_stages::RouteOp;
use xorp_xrl::{xrl_interface, AtomValue, XrlError};

xrl_interface! {
    /// The RIB's route surface: per-route and vectorized edits, nexthop
    /// interest registration (§5.1.1), and the supervision hooks
    /// (`flush_protocol`, `stale_count`).
    pub interface rib("rib", "1.0") {
        fn add_route(net: Ipv4Net, nexthop: Ipv4Addr, ifname: String, metric: u32, proto: String);
        fn delete_route(net: Ipv4Net, proto: String);
        fn add_routes(routes: Vec<AtomValue>) -> (count: u32);
        fn delete_routes(routes: Vec<AtomValue>) -> (count: u32);
        fn register_interest(addr: Ipv4Addr) -> (valid: Ipv4Net, reachable: bool, metric: u32);
        fn route_count() -> (count: u32);
        fn flush_protocol(proto: String);
        fn stale_count(proto: String) -> (count: u32);
    }
}

xrl_interface! {
    /// The FEA's FIB surface.  The FEA keys its FIB purely by prefix, so
    /// deletions carry no protocol.
    pub interface fea("fea", "1.0") {
        fn add_route(net: Ipv4Net, nexthop: Ipv4Addr, ifname: String, metric: u32);
        fn delete_route(net: Ipv4Net);
        fn add_routes(routes: Vec<AtomValue>) -> (count: u32);
        fn delete_routes(routes: Vec<AtomValue>) -> (count: u32);
        fn route_count() -> (count: u32);
    }
}

xrl_interface! {
    /// BGP's session-facing surface: nexthop-cache invalidation (§5.2.1)
    /// and the graceful-restart readvertisement trigger.
    pub interface bgp("bgp", "1.0") {
        fn invalidate(net: Ipv4Net);
        fn readvertise() -> (count: u32);
    }
}

/// A route as it crosses the wire: the decoded form of one
/// `add_route` argument set or one `add_routes` row.
pub struct RouteWire {
    pub net: Ipv4Net,
    pub nexthop: Ipv4Addr,
    pub ifname: String,
    pub metric: u32,
    pub proto: ProtocolId,
}

impl RouteWire {
    /// Project a RIB route entry onto its wire form (IPv6 nexthops map to
    /// the unspecified v4 address; this harness routes IPv4).
    pub fn from_entry(net: Ipv4Net, route: &RouteEntry<Ipv4Addr>) -> RouteWire {
        RouteWire {
            net,
            nexthop: match route.nexthop() {
                IpAddr::V4(a) => a,
                IpAddr::V6(_) => Ipv4Addr::UNSPECIFIED,
            },
            ifname: route.ifname.as_deref().unwrap_or("").to_string(),
            metric: route.metric,
            proto: route.proto,
        }
    }

    /// Build the RIB's route from its wire form.  Its attribute block holds
    /// only the nexthop and the EBGP bit, so every route that agrees on
    /// both gets the one block `blocks` keeps for the pair.
    pub fn into_rib_route(self, blocks: &mut AttrBlocks) -> RouteEntry<Ipv4Addr> {
        let attrs = blocks.get(IpAddr::V4(self.nexthop), self.proto == ProtocolId::Ebgp);
        let mut route = RouteEntry::new(self.net, attrs, self.metric, self.proto);
        if !self.ifname.is_empty() {
            route.ifname = Some(self.ifname.into());
        }
        route
    }
}

/// Encode a route into one batched-XRL row: `[net, nexthop, ifname,
/// metric, proto]` — the positional twin of the `add_route` argument
/// list.  FEA-side decoding ignores the trailing `proto`.
pub fn add_row(net: Ipv4Net, route: &RouteEntry<Ipv4Addr>) -> Vec<AtomValue> {
    let w = RouteWire::from_entry(net, route);
    vec![
        AtomValue::Ipv4Net(w.net),
        AtomValue::Ipv4(w.nexthop),
        AtomValue::Text(w.ifname),
        AtomValue::U32(w.metric),
        AtomValue::Text(w.proto.name()),
    ]
}

/// Encode a deletion row: `[net]`, or `[net, proto]` when the receiver
/// keys by protocol (the RIB does, the FEA does not).
pub fn delete_row(net: Ipv4Net, proto: Option<ProtocolId>) -> Vec<AtomValue> {
    match proto {
        Some(p) => vec![AtomValue::Ipv4Net(net), AtomValue::Text(p.name())],
        None => vec![AtomValue::Ipv4Net(net)],
    }
}

fn row_err(i: usize, what: &str) -> XrlError {
    XrlError::BadArgs(format!("routes[{i}]: {what}"))
}

fn as_row(i: usize, value: &AtomValue) -> Result<&[AtomValue], XrlError> {
    match value {
        AtomValue::List(items) => Ok(items),
        _ => Err(row_err(i, "row is not a list")),
    }
}

/// Decode one `[net, nexthop, ifname, metric, proto]` row.
pub fn decode_add_row(i: usize, value: &AtomValue) -> Result<RouteWire, XrlError> {
    match as_row(i, value)? {
        [AtomValue::Ipv4Net(net), AtomValue::Ipv4(nexthop), AtomValue::Text(ifname), AtomValue::U32(metric), AtomValue::Text(proto)] => {
            Ok(RouteWire {
                net: *net,
                nexthop: *nexthop,
                ifname: ifname.clone(),
                metric: *metric,
                proto: ProtocolId::from_name(proto).unwrap_or(ProtocolId::Ebgp),
            })
        }
        _ => Err(row_err(i, "expected [net, nexthop, ifname, metric, proto]")),
    }
}

/// Decode one `[net]` or `[net, proto]` deletion row.
pub fn decode_delete_row(i: usize, value: &AtomValue) -> Result<(Ipv4Net, ProtocolId), XrlError> {
    match as_row(i, value)? {
        [AtomValue::Ipv4Net(net)] => Ok((*net, ProtocolId::Ebgp)),
        [AtomValue::Ipv4Net(net), AtomValue::Text(proto)] => Ok((
            *net,
            ProtocolId::from_name(proto).unwrap_or(ProtocolId::Ebgp),
        )),
        _ => Err(row_err(i, "expected [net] or [net, proto]")),
    }
}

/// Decode every row of an `add_routes` frame, transactionally: one bad
/// row rejects the whole frame before any route is applied.
pub fn decode_add_rows(rows: &[AtomValue]) -> Result<Vec<RouteWire>, XrlError> {
    rows.iter()
        .enumerate()
        .map(|(i, v)| decode_add_row(i, v))
        .collect()
}

/// Decode every row of a `delete_routes` frame, transactionally.
pub fn decode_delete_rows(rows: &[AtomValue]) -> Result<Vec<(Ipv4Net, ProtocolId)>, XrlError> {
    rows.iter()
        .enumerate()
        .map(|(i, v)| decode_delete_row(i, v))
        .collect()
}

/// One hop's route methods behind one handle: the single place that
/// knows which methods each hop calls, per route and vectorized, and
/// whether its deletions name the protocol (the RIB keys by it; the FEA
/// does not), so [`crate::batch::RouteOutput`] works over either stub.
#[derive(Clone)]
pub enum BulkRouteSink {
    /// BGP→RIB over `rib/1.0`.
    Rib(rib::Client),
    /// RIB→FEA over `fea/1.0`.
    Fea(fea::Client),
}

/// A route op as both hops carry it.
pub type WireOp = RouteOp<Ipv4Addr, RouteEntry<Ipv4Addr>>;

impl BulkRouteSink {
    /// Send one op as this hop's per-route `add_route`/`delete_route`.
    pub fn send_one(&self, el: &mut EventLoop, op: &WireOp) {
        let net = op.net();
        match op {
            RouteOp::Add { route, .. } | RouteOp::Replace { new: route, .. } => {
                let w = RouteWire::from_entry(net, route);
                match self {
                    Self::Rib(c) => c.add_route(
                        el,
                        net,
                        w.nexthop,
                        w.ifname,
                        w.metric,
                        w.proto.name(),
                        |_el, _r| {},
                    ),
                    Self::Fea(c) => {
                        c.add_route(el, net, w.nexthop, w.ifname, w.metric, |_el, _r| {})
                    }
                }
            }
            RouteOp::Delete { old, .. } => match self {
                Self::Rib(c) => c.delete_route(el, net, old.proto.name(), |_el, _r| {}),
                Self::Fea(c) => c.delete_route(el, net, |_el, _r| {}),
            },
        }
    }

    /// Encode one op as a row of this hop's vectorized frames.
    pub fn row(&self, op: &WireOp) -> Vec<AtomValue> {
        match op {
            RouteOp::Add { net, route }
            | RouteOp::Replace {
                net, new: route, ..
            } => add_row(*net, route),
            RouteOp::Delete { net, old } => {
                delete_row(*net, matches!(self, Self::Rib(_)).then_some(old.proto))
            }
        }
    }

    /// Ship one same-direction run of encoded rows.
    pub fn send(&self, el: &mut EventLoop, add: bool, rows: Vec<AtomValue>) {
        match (self, add) {
            (Self::Rib(c), true) => c.add_routes(el, rows, |_el, _r| {}),
            (Self::Rib(c), false) => c.delete_routes(el, rows, |_el, _r| {}),
            (Self::Fea(c), true) => c.add_routes(el, rows, |_el, _r| {}),
            (Self::Fea(c), false) => c.delete_routes(el, rows, |_el, _r| {}),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;
    use std::time::Duration;

    use xorp_xrl::finder::Endpoint;
    use xorp_xrl::marshal::{read_frame, Frame};
    use xorp_xrl::{sig_hash, AtomType, Finder, XrlRouter};

    use super::*;

    /// `rib/1.0/add_route`'s signature hash, written out by hand.  Both
    /// ends of the BGP→RIB hop compute it from the declaration above; if it
    /// moved, every peer built before the move would fall back to v1.
    const ADD_ROUTE_SIG: u64 = 4_517_232_572_969_457_889;

    #[test]
    fn rib_add_route_signature_is_pinned() {
        let hand = sig_hash(
            "add_route",
            &[
                ("net", AtomType::Ipv4Net),
                ("nexthop", AtomType::Ipv4),
                ("ifname", AtomType::Text),
                ("metric", AtomType::U32),
                ("proto", AtomType::Text),
            ],
            &[],
        );
        assert_eq!(hand, ADD_ROUTE_SIG);

        // A peer advertising the hand-written hash gets a positional v2
        // frame from the generated stub: stub and literal agree.
        let finder = Finder::new();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let endpoint = Endpoint::Tcp(listener.local_addr().unwrap());
        finder
            .register("rib", "rib-0", vec![endpoint], true)
            .unwrap();
        finder.advertise_sig("rib-0", "rib/1.0/add_route", 7, hand);
        let mut el = EventLoop::new_virtual();
        let router = XrlRouter::new(&mut el, finder);
        router.enable_tcp().unwrap();
        rib::Client::new(&router, "rib").add_route(
            &mut el,
            "10.0.0.0/8".parse().unwrap(),
            Ipv4Addr::new(192, 168, 0, 1),
            "eth0".into(),
            1,
            "ebgp".into(),
            |_el, _r| {},
        );
        el.run_until_idle();
        let (mut wire, _) = listener.accept().unwrap();
        wire.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        match Frame::decode(read_frame(&mut wire).unwrap()).unwrap() {
            Frame::Request { method_id, .. } => assert_eq!(method_id, Some(7)),
            other => panic!("expected a request, read {other:?}"),
        }
    }
}
