//! The RIB process's server against a client on the same loop.

use super::*;
use xorp_net::RouteEntry;

/// 1,000 routes over four nexthops, half through `add_route` and half
/// through `add_routes` frames, leave the RIB holding four attribute
/// blocks: one per nexthop, whichever method a route arrived by.
#[test]
fn rib_routes_share_one_block_per_nexthop_on_both_route_methods() {
    let mut el = EventLoop::new_virtual();
    let router = XrlRouter::new(&mut el, Finder::new());
    router.register_target("rib", "rib-0", true).unwrap();
    let rib = Rc::new(RefCell::new(Rib::<Ipv4Addr>::new(false)));
    let mut blocks = AttrBlocks::default();
    let connected = RouteWire {
        net: "192.168.0.0/16".parse().unwrap(),
        nexthop: Ipv4Addr::new(192, 168, 0, 1),
        ifname: "eth0".into(),
        metric: 1,
        proto: ProtocolId::Connected,
    };
    rib.borrow_mut()
        .add_route(&mut el, connected.into_rib_route(&mut blocks));
    xrl_ifaces::rib::register(
        &router,
        "rib-0",
        RibServer {
            rib: rib.clone(),
            rib_in: Profiler::new().point(points::RIB_IN),
            delay: None,
            recorder: Tracer::new().recorder("rib"),
            blocks: RefCell::new(blocks),
        },
    );

    let net = |i: u32| Ipv4Net::new(Ipv4Addr::from((10 << 24) | (i << 8)), 24).unwrap();
    let nexthop = |i: u32| Ipv4Addr::new(192, 168, 1, 1 + (i % 4) as u8);
    let client = xrl_ifaces::rib::Client::new(&router, "rib");
    let acked = Rc::new(Cell::new(0u32));
    for i in 0..500 {
        let acked = acked.clone();
        client.add_route(
            &mut el,
            net(i),
            nexthop(i),
            String::new(),
            0,
            ProtocolId::Ebgp.name(),
            move |_el, r| acked.set(acked.get() + u32::from(r.is_ok())),
        );
    }
    for frame in (500..1000).collect::<Vec<u32>>().chunks(100) {
        let rows = frame
            .iter()
            .map(|&i| {
                let attrs = PathAttributes::new(IpAddr::V4(nexthop(i))).shared();
                AtomValue::List(xrl_ifaces::add_row(
                    net(i),
                    &RouteEntry::new(net(i), attrs, 0, ProtocolId::Ebgp),
                ))
            })
            .collect();
        let acked = acked.clone();
        client.add_routes(&mut el, rows, move |_el, r| {
            acked.set(acked.get() + r.map_or(0, |(n,)| n))
        });
    }
    el.run_until_idle();
    assert_eq!(acked.get(), 1000);

    let mut distinct: Vec<Arc<PathAttributes>> = Vec::new();
    for i in 0..1000 {
        let route = rib.borrow().lookup_exact(&net(i)).expect("installed");
        assert_eq!(route.nexthop(), IpAddr::V4(nexthop(i)));
        if !distinct.iter().any(|b| Arc::ptr_eq(b, &route.attrs)) {
            distinct.push(route.attrs);
        }
    }
    assert_eq!(distinct.len(), 4);
}
