//! The RIB process's server against a client on the same loop.

use super::*;
use xorp_net::RouteEntry;
use xorp_xrl::ListWriter;

/// A RIB holding the connected route, served as `rib` on `el`'s router,
/// and a client of it.
fn rib_rig(el: &mut EventLoop) -> (Rc<RefCell<Rib<Ipv4Addr>>>, xrl_ifaces::rib::Client) {
    let router = XrlRouter::new(el, Finder::new());
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
        .add_route(el, connected.into_rib_route(&mut blocks));
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
    (rib, xrl_ifaces::rib::Client::new(&router, "rib"))
}

fn net(i: u32) -> Ipv4Net {
    Ipv4Net::new(Ipv4Addr::from((10 << 24) | (i << 8)), 24).unwrap()
}

fn nexthop(i: u32) -> Ipv4Addr {
    Ipv4Addr::new(192, 168, 1, 1 + (i % 4) as u8)
}

fn route(i: u32, proto: ProtocolId) -> RouteEntry<Ipv4Addr> {
    let attrs = PathAttributes::new(IpAddr::V4(nexthop(i))).shared();
    RouteEntry::new(net(i), attrs, 0, proto)
}

/// The reply a call gets, once the loop has run it.
fn reply<T: 'static>(
    el: &mut EventLoop,
    call: impl FnOnce(&mut EventLoop, Box<dyn FnOnce(&mut EventLoop, T)>),
) -> T {
    let slot = Rc::new(RefCell::new(None));
    let s = slot.clone();
    call(el, Box::new(move |_el, r| *s.borrow_mut() = Some(r)));
    el.run_until_idle();
    let got = slot.borrow_mut().take();
    got.expect("no reply")
}

/// 1,000 routes over four nexthops, half through `add_route` and half
/// through `add_routes` frames, leave the RIB holding four attribute
/// blocks: one per nexthop, whichever method a route arrived by.
#[test]
fn rib_routes_share_one_block_per_nexthop_on_both_route_methods() {
    let mut el = EventLoop::new_virtual();
    let (rib, client) = rib_rig(&mut el);
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
    let mut rows = ListWriter::default();
    for frame in (500..1000).collect::<Vec<u32>>().chunks(100) {
        for &i in frame {
            xrl_ifaces::write_add_row(&mut rows, net(i), &route(i, ProtocolId::Ebgp));
        }
        let acked = acked.clone();
        client.add_routes(&mut el, rows.take(), move |_el, r| {
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

/// A RIB holding one EBGP route, and its client.
fn rib_with_an_ebgp_route(
    el: &mut EventLoop,
) -> (Rc<RefCell<Rib<Ipv4Addr>>>, xrl_ifaces::rib::Client) {
    let (rib, client) = rib_rig(el);
    rib.borrow_mut().add_route(el, route(1, ProtocolId::Ebgp));
    el.run_until_idle();
    (rib, client)
}

fn bad_args<T: std::fmt::Debug>(r: Result<T, XrlError>) -> bool {
    matches!(r, Err(XrlError::BadArgs(ref m)) if m.contains("unknown protocol"))
}

#[test]
fn add_route_rejects_an_unknown_protocol() {
    let mut el = EventLoop::new_virtual();
    let (rib, client) = rib_with_an_ebgp_route(&mut el);
    let r = reply(&mut el, |el, cb| {
        client.add_route(el, net(2), nexthop(2), String::new(), 0, "ebpg".into(), cb)
    });
    assert!(bad_args(r));
    assert!(rib.borrow().lookup_exact(&net(2)).is_none());
}

#[test]
fn delete_route_rejects_an_unknown_protocol() {
    let mut el = EventLoop::new_virtual();
    let (rib, client) = rib_with_an_ebgp_route(&mut el);
    let r = reply(&mut el, |el, cb| {
        client.delete_route(el, net(1), "ebpg".into(), cb)
    });
    assert!(bad_args(r));
    assert!(rib.borrow().lookup_exact(&net(1)).is_some());
}

/// A mistyped supervisor flush must not wipe BGP's routes.
#[test]
fn flush_protocol_rejects_an_unknown_protocol() {
    let mut el = EventLoop::new_virtual();
    let (rib, client) = rib_with_an_ebgp_route(&mut el);
    let r = reply(&mut el, |el, cb| {
        client.flush_protocol(el, "ebpg".into(), cb)
    });
    assert!(bad_args(r));
    assert!(rib.borrow().lookup_exact(&net(1)).is_some());
    let r = reply(&mut el, |el, cb| {
        client.flush_protocol(el, "ebgp".into(), cb)
    });
    assert!(r.is_ok());
    assert!(rib.borrow().lookup_exact(&net(1)).is_none());
}

#[test]
fn stale_count_rejects_an_unknown_protocol() {
    let mut el = EventLoop::new_virtual();
    let (_rib, client) = rib_with_an_ebgp_route(&mut el);
    let r = reply(&mut el, |el, cb| client.stale_count(el, "ebpg".into(), cb));
    assert!(bad_args(r));
    let r = reply(&mut el, |el, cb| client.stale_count(el, "ebgp".into(), cb));
    assert_eq!(r.unwrap(), (0,));
}

/// A row naming an unknown protocol rejects its whole frame: the good
/// rows before it are not applied either.
#[test]
fn a_row_with_an_unknown_protocol_rejects_its_frame() {
    let mut el = EventLoop::new_virtual();
    let (rib, client) = rib_with_an_ebgp_route(&mut el);
    let mut rows = ListWriter::default();
    xrl_ifaces::write_add_row(&mut rows, net(2), &route(2, ProtocolId::Ebgp));
    rows.list(|row| {
        row.put(&net(3))
            .put(&nexthop(3))
            .text("")
            .put(&0u32)
            .text("ebpg");
    });
    let r = reply(&mut el, |el, cb| client.add_routes(el, rows.take(), cb));
    assert!(
        matches!(r, Err(XrlError::BadArgs(ref m)) if m.starts_with("routes[1]: unknown protocol"))
    );
    assert!(rib.borrow().lookup_exact(&net(2)).is_none());

    xrl_ifaces::write_delete_row(&mut rows, net(1), Some(ProtocolId::Ebgp));
    rows.list(|row| {
        row.put(&net(1)).text("ebpg");
    });
    let r = reply(&mut el, |el, cb| client.delete_routes(el, rows.take(), cb));
    assert!(
        matches!(r, Err(XrlError::BadArgs(ref m)) if m.starts_with("routes[1]: unknown protocol"))
    );
    assert!(rib.borrow().lookup_exact(&net(1)).is_some());
}

/// `(count, sum)` of a histogram in the router's registry.
fn histogram(router: &MultiProcessRouter, name: &str) -> (u64, u64) {
    match router.metrics.get(name) {
        Some(xorp_profiler::MetricValue::Histogram(h)) => (h.count, h.sum),
        other => panic!("{name}: {other:?}"),
    }
}

/// At batch 256 a full-table load fills its frames on both hops.  The
/// UPDATEs queue behind an event that holds the BGP loop, so BGP meets
/// them all as queued input however the threads are scheduled: its
/// frames leave full, and each one the RIB applies sends the FEA a full
/// frame in turn.  A flush after every event would send one 64-route
/// UPDATE per frame.
#[test]
fn a_queued_table_fills_the_frames_of_both_hops() {
    const ROUTES: usize = 20_000;
    const TIMEOUT: Duration = Duration::from_secs(120);
    let router = MultiProcessRouter::new(RouterOptions {
        batch_size: 256,
        ..Default::default()
    });
    assert!(router.wait_for(TIMEOUT, || router.fea_route_count() == 1));
    let before = ["rib.batch_size", "fea.batch_size"].map(|h| histogram(&router, h));

    let (release, held) = std::sync::mpsc::channel::<()>();
    let bgp = router.with("bgp", |bgp| {
        bgp.post(move |_el| {
            let _ = held.recv();
        })
    });
    assert_eq!(bgp, Some(true));
    let table = crate::backbone_table(&crate::WorkloadConfig {
        routes: ROUTES,
        ..Default::default()
    });
    for batch in table.chunks(64) {
        router.feed_backbone(1, batch);
    }
    release.send(()).unwrap();
    assert!(
        router.wait_for(TIMEOUT, || router.fea_route_count() == ROUTES + 1),
        "fea={} rib={}",
        router.fea_route_count(),
        router.rib_route_count()
    );

    for (name, (count, sum)) in ["rib.batch_size", "fea.batch_size"].into_iter().zip(before) {
        let (frames, rows) = histogram(&router, name);
        let (frames, rows) = (frames - count, rows - sum);
        assert_eq!(rows, ROUTES as u64, "{name}");
        let mean = rows as f64 / frames as f64;
        assert!(mean >= 0.9 * 256.0, "{name}: {mean:.1} rows per frame");
    }
    router.stop();
}

/// A nexthop query that fails is not an answer: with no RIB to ask, the
/// service calls nothing back, so BGP keeps the nexthop's last answer
/// instead of declaring it unreachable.  A RIB that is up still answers.
#[test]
fn a_failed_nexthop_query_is_not_an_answer() {
    let mut el = EventLoop::new_virtual();
    let (_rib, client) = rib_rig(&mut el);
    let ask = |el: &mut EventLoop, service: &XrlNexthopService| {
        let answer = Rc::new(RefCell::new(None));
        let a = answer.clone();
        let cb = Box::new(move |_el: &mut EventLoop, ans| *a.borrow_mut() = Some(ans));
        service.resolve_nexthop(el, nexthop(0), cb);
        el.run_until_idle();
        answer.take()
    };
    let live = ask(&mut el, &XrlNexthopService(client)).and_then(|a| a.metric);
    assert!(live.is_some(), "a live RIB did not answer");
    let router = el.slot::<XrlRouter>().cloned().unwrap();
    let dead = XrlNexthopService(xrl_ifaces::rib::Client::new(&router, "no-rib"));
    let answer = ask(&mut el, &dead);
    assert_eq!(answer, None, "a failed query answered");
}
