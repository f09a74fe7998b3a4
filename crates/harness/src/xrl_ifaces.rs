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
//! RIB→FEA use the same encoding.
//!
//! Route rows travel as bytes.  A sender writes each op's row straight
//! into the frame's list ([`write_add_row`], [`write_delete_row`] on a
//! [`ListWriter`]), and a receiver reads the rows in place from the
//! [`WireList`] the frame decoded to ([`read_add_rows`],
//! [`read_delete_rows`]), interface names borrowed from the frame: no row
//! becomes an atom tree, a `Vec` or a `String` on either side.  Both
//! readers run the one transactional row reader, [`WireList::read_rows`]
//! in `xorp_xrl::wire`, which `profile/1.0`'s replies are read with too.
//! The tree helpers ([`add_row`], [`decode_add_rows`], …) run the same
//! writer and reader, so there is one row grammar.

use std::net::{IpAddr, Ipv4Addr};

use xorp_event::EventLoop;
use xorp_net::{AttrBlocks, Ipv4Net, ProtocolId, RouteEntry};
use xorp_stages::RouteOp;
use xorp_xrl::{xrl_interface, AtomRef, AtomValue, ListWriter, WireList, XrlError};

xrl_interface! {
    /// The RIB's route surface: per-route and vectorized edits, nexthop
    /// interest registration (§5.1.1), and the supervision hooks
    /// (`flush_protocol`, `stale_count`).
    pub interface rib("rib", "1.0") {
        fn add_route(net: Ipv4Net, nexthop: Ipv4Addr, ifname: String, metric: u32, proto: String);
        fn delete_route(net: Ipv4Net, proto: String);
        fn add_routes(routes: WireList) -> (count: u32);
        fn delete_routes(routes: WireList) -> (count: u32);
        fn register_interest(addr: Ipv4Addr) -> (valid: Ipv4Net, reachable: bool, metric: u32);
        fn route_count() -> (count: u32);
        fn flush_protocol(proto: String);
        fn stale_count(proto: String) -> (count: u32);
    }
}

xrl_interface! {
    /// The FEA's FIB surface.  The FEA keys its FIB purely by prefix, so
    /// deletions carry no protocol.  `flush_routes` withdraws a dead
    /// RIB's routes at once (the supervisor's permanent-death action).
    pub interface fea("fea", "1.0") {
        fn add_route(net: Ipv4Net, nexthop: Ipv4Addr, ifname: String, metric: u32);
        fn delete_route(net: Ipv4Net);
        fn add_routes(routes: WireList) -> (count: u32);
        fn delete_routes(routes: WireList) -> (count: u32);
        fn route_count() -> (count: u32);
        fn flush_routes();
    }
}

xrl_interface! {
    /// BGP's surface toward the RIB: nexthop-cache invalidation (§5.2.1).
    pub interface bgp("bgp", "1.0") {
        fn invalidate(net: Ipv4Net);
    }
}

/// A route as it crosses the wire: the decoded form of one
/// `add_route` argument set or one `add_routes` row, owning its
/// interface name.  [`RouteRow`] is the borrowed twin the row reader
/// yields.
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
            nexthop: v4_nexthop(route),
            ifname: route.ifname.as_deref().unwrap_or("").to_string(),
            metric: route.metric,
            proto: route.proto,
        }
    }

    /// The borrowed form.
    pub fn row(&self) -> RouteRow<'_> {
        RouteRow {
            net: self.net,
            nexthop: self.nexthop,
            ifname: &self.ifname,
            metric: self.metric,
            proto: self.proto,
        }
    }

    /// Build the RIB's route from its wire form (see
    /// [`RouteRow::into_rib_route`]).
    pub fn into_rib_route(self, blocks: &mut AttrBlocks) -> RouteEntry<Ipv4Addr> {
        self.row().into_rib_route(blocks)
    }
}

/// One route read in place from an `add_routes` row (or borrowed from a
/// [`RouteWire`]): its interface name points into the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteRow<'a> {
    pub net: Ipv4Net,
    pub nexthop: Ipv4Addr,
    pub ifname: &'a str,
    pub metric: u32,
    pub proto: ProtocolId,
}

impl RouteRow<'_> {
    /// Build the RIB's route.  Its attribute block holds only the nexthop
    /// and the EBGP bit, so every route that agrees on both gets the one
    /// block `blocks` keeps for the pair.
    pub fn into_rib_route(self, blocks: &mut AttrBlocks) -> RouteEntry<Ipv4Addr> {
        let attrs = blocks.get(IpAddr::V4(self.nexthop), self.proto == ProtocolId::Ebgp);
        let mut route = RouteEntry::new(self.net, attrs, self.metric, self.proto);
        if !self.ifname.is_empty() {
            route.ifname = Some(self.ifname.into());
        }
        route
    }

    /// The owned form.
    pub fn to_wire(&self) -> RouteWire {
        RouteWire {
            net: self.net,
            nexthop: self.nexthop,
            ifname: self.ifname.to_string(),
            metric: self.metric,
            proto: self.proto,
        }
    }
}

fn v4_nexthop(route: &RouteEntry<Ipv4Addr>) -> Ipv4Addr {
    match route.nexthop() {
        IpAddr::V4(a) => a,
        IpAddr::V6(_) => Ipv4Addr::UNSPECIFIED,
    }
}

/// The protocol a wire name denotes.  An unknown name is an error, never
/// a default: a mistyped `flush_protocol` must not wipe another
/// protocol's routes.
pub fn protocol(name: &str) -> Result<ProtocolId, XrlError> {
    ProtocolId::from_name(name)
        .ok_or_else(|| XrlError::BadArgs(format!("unknown protocol {name:?}")))
}

/// Append a route's row to a batched frame's list: `[net, nexthop,
/// ifname, metric, proto]`, the positional twin of the `add_route`
/// argument list.  FEA-side reading ignores the trailing `proto`.
pub fn write_add_row(rows: &mut ListWriter, net: Ipv4Net, route: &RouteEntry<Ipv4Addr>) {
    rows.list(|row| {
        row.put(&net)
            .put(&v4_nexthop(route))
            .text(route.ifname.as_deref().unwrap_or(""))
            .put(&route.metric)
            .text_display(route.proto);
    });
}

/// Append a deletion row: `[net]`, or `[net, proto]` when the receiver
/// keys by protocol (the RIB does, the FEA does not).
pub fn write_delete_row(rows: &mut ListWriter, net: Ipv4Net, proto: Option<ProtocolId>) {
    rows.list(|row| {
        row.put(&net);
        if let Some(p) = proto {
            row.text_display(p);
        }
    });
}

/// The one row written by `write`, as a tree of atoms.
fn row_atoms(write: impl FnOnce(&mut ListWriter)) -> Vec<AtomValue> {
    let mut rows = ListWriter::default();
    write(&mut rows);
    match rows.take().to_atoms().ok().and_then(|mut r| r.pop()) {
        Some(AtomValue::List(items)) => items,
        _ => unreachable!("the writer wrote one list"),
    }
}

/// [`write_add_row`]'s row as a tree of atoms.  No router path calls
/// this: it serves callers that build argument trees by hand.
pub fn add_row(net: Ipv4Net, route: &RouteEntry<Ipv4Addr>) -> Vec<AtomValue> {
    row_atoms(|rows| write_add_row(rows, net, route))
}

/// [`write_delete_row`]'s row as a tree of atoms.  No router path calls
/// this: it serves callers that build argument trees by hand.
pub fn delete_row(net: Ipv4Net, proto: Option<ProtocolId>) -> Vec<AtomValue> {
    row_atoms(|rows| write_delete_row(rows, net, proto))
}

/// Read the `[net, nexthop, ifname, metric, proto]` rows of an
/// `add_routes` frame in place.
pub fn read_add_rows(rows: &WireList) -> Result<Vec<RouteRow<'_>>, XrlError> {
    let shape = || XrlError::BadArgs("expected [net, nexthop, ifname, metric, proto]".into());
    rows.read_rows("routes", |r, arity| {
        if arity != 5 {
            return Err(shape());
        }
        match [r.read()?, r.read()?, r.read()?, r.read()?, r.read()?] {
            [AtomRef::Ipv4Net(net), AtomRef::Ipv4(nexthop), AtomRef::Text(ifname), AtomRef::U32(metric), AtomRef::Text(proto)] => {
                Ok(RouteRow {
                    net,
                    nexthop,
                    ifname,
                    metric,
                    proto: protocol(proto)?,
                })
            }
            _ => Err(shape()),
        }
    })
}

/// Read the `[net]` or `[net, proto]` rows of a `delete_routes` frame
/// (a bare prefix names an EBGP route).
pub fn read_delete_rows(rows: &WireList) -> Result<Vec<(Ipv4Net, ProtocolId)>, XrlError> {
    let shape = || XrlError::BadArgs("expected [net] or [net, proto]".into());
    rows.read_rows("routes", |r, arity| match arity {
        1 => match r.read()? {
            AtomRef::Ipv4Net(net) => Ok((net, ProtocolId::Ebgp)),
            _ => Err(shape()),
        },
        2 => match [r.read()?, r.read()?] {
            [AtomRef::Ipv4Net(net), AtomRef::Text(proto)] => Ok((net, protocol(proto)?)),
            _ => Err(shape()),
        },
        _ => Err(shape()),
    })
}

/// [`read_add_rows`] over rows given as a tree of atoms, which are
/// encoded once and read by the same reader.
pub fn decode_add_rows(rows: &[AtomValue]) -> Result<Vec<RouteWire>, XrlError> {
    let rows = WireList::from_atoms(rows)?;
    Ok(read_add_rows(&rows)?
        .iter()
        .map(RouteRow::to_wire)
        .collect())
}

/// [`read_delete_rows`] over rows given as a tree of atoms.
pub fn decode_delete_rows(rows: &[AtomValue]) -> Result<Vec<(Ipv4Net, ProtocolId)>, XrlError> {
    read_delete_rows(&WireList::from_atoms(rows)?)
}

/// One hop's route methods behind one handle: the single place that
/// knows how a run of ops leaves on each hop — a lone op on the per-route
/// method, a longer run on the vectorized one — and whether its deletions
/// name the protocol (the RIB keys by it; the FEA does not), so
/// [`crate::batch::RouteOutput`] works over either stub.
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
    /// Send one run of same-direction ops.  A run of one leaves as this
    /// hop's `add_route`/`delete_route`; a longer run as one
    /// `add_routes`/`delete_routes` frame whose rows are written into
    /// `rows`, a writer kept from frame to frame.
    pub fn send_run(
        &self,
        el: &mut EventLoop,
        rows: &mut ListWriter,
        mut run: impl ExactSizeIterator<Item = WireOp>,
    ) {
        if run.len() == 1 {
            if let Some(op) = run.next() {
                self.send_one(el, op);
            }
            return;
        }
        let mut add = true;
        for op in run {
            match op {
                RouteOp::Add { net, route }
                | RouteOp::Replace {
                    net, new: route, ..
                } => write_add_row(rows, net, &route),
                RouteOp::Delete { net, old } => {
                    add = false;
                    let proto = matches!(self, Self::Rib(_)).then_some(old.proto);
                    write_delete_row(rows, net, proto);
                }
            }
        }
        let rows = rows.take();
        match (self, add) {
            (Self::Rib(c), true) => c.add_routes(el, rows, |_el, _r| {}),
            (Self::Rib(c), false) => c.delete_routes(el, rows, |_el, _r| {}),
            (Self::Fea(c), true) => c.add_routes(el, rows, |_el, _r| {}),
            (Self::Fea(c), false) => c.delete_routes(el, rows, |_el, _r| {}),
        }
    }

    fn send_one(&self, el: &mut EventLoop, op: WireOp) {
        match op {
            RouteOp::Add { net, route }
            | RouteOp::Replace {
                net, new: route, ..
            } => {
                let w = RouteWire::from_entry(net, &route);
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
            RouteOp::Delete { net, old } => match self {
                Self::Rib(c) => c.delete_route(el, net, old.proto.name(), |_el, _r| {}),
                Self::Fea(c) => c.delete_route(el, net, |_el, _r| {}),
            },
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

    /// Every element of a batch must be a list: anything else rejects
    /// the whole batch, naming the row.
    #[test]
    fn a_row_that_is_not_a_list_rejects_its_frame() {
        let net: Ipv4Net = "10.0.0.0/8".parse().unwrap();
        let mut rows = ListWriter::default();
        write_delete_row(&mut rows, net, None);
        rows.put(&2u32);
        let rows = rows.take();
        for err in [
            read_delete_rows(&rows).unwrap_err(),
            read_add_rows(&rows).unwrap_err(),
        ] {
            assert!(matches!(err, XrlError::BadArgs(_)), "{err:?}");
        }
        let err = read_delete_rows(&rows).unwrap_err().to_string();
        assert!(err.contains("routes[1]: row is not a list"), "{err}");
    }

    /// `add_routes`' and `delete_routes`' hashes (both interfaces): the
    /// rows argument is a `list` whatever form it travels in, so taking
    /// it as a [`WireList`] moved neither hash.
    const ROWS_SIGS: [(&str, u64); 2] = [
        ("add_routes", 2_062_218_159_761_363_007),
        ("delete_routes", 9_571_760_894_793_151_713),
    ];

    #[test]
    fn batched_route_signatures_are_pinned() {
        for (method, pinned) in ROWS_SIGS {
            let hand = sig_hash(
                method,
                &[("routes", AtomType::List)],
                &[("count", AtomType::U32)],
            );
            assert_eq!(hand, pinned, "{method}");
        }
        // Peers advertising the pinned hashes get positional frames from
        // both generated stubs.
        let finder = Finder::new();
        let mut listeners = Vec::new();
        for target in ["rib", "fea"] {
            let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            let endpoint = Endpoint::Tcp(listener.local_addr().unwrap());
            let instance = format!("{target}-0");
            finder
                .register(target, &instance, vec![endpoint], true)
                .unwrap();
            for (id, (method, pinned)) in ROWS_SIGS.into_iter().enumerate() {
                let path = format!("{target}/1.0/{method}");
                finder.advertise_sig(&instance, &path, 20 + id as u32, pinned);
            }
            listeners.push(listener);
        }
        let mut el = EventLoop::new_virtual();
        let router = XrlRouter::new(&mut el, finder);
        router.enable_tcp().unwrap();
        let net: Ipv4Net = "10.0.0.0/8".parse().unwrap();
        let mut rows = ListWriter::default();
        let rib = rib::Client::new(&router, "rib");
        write_delete_row(&mut rows, net, Some(ProtocolId::Ebgp));
        rib.add_routes(&mut el, rows.take(), |_el, _r| {});
        rib.delete_routes(&mut el, rows.take(), |_el, _r| {});
        let fea = fea::Client::new(&router, "fea");
        fea.add_routes(&mut el, rows.take(), |_el, _r| {});
        fea.delete_routes(&mut el, rows.take(), |_el, _r| {});
        el.run_until_idle();
        for listener in listeners {
            let (mut wire, _) = listener.accept().unwrap();
            wire.set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            for id in [20, 21] {
                match Frame::decode(read_frame(&mut wire).unwrap()).unwrap() {
                    Frame::Request { method_id, .. } => assert_eq!(method_id, Some(id)),
                    other => panic!("expected a request, read {other:?}"),
                }
            }
        }
    }

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
