//! The §5.1 memory claim: "a XORP router holding a full backbone routing
//! table of about 150,000 routes requires about 120 MB for BGP and 60 MB
//! for the RIB, which is simply not a problem on any recent hardware."
//!
//! Builds a single-loop BGP process, RIB and FEA holding the synthetic
//! backbone table and reports measured bytes.  The RIB and the FIB are
//! loaded the way the router's RIB and FEA processes load them: the RIB
//! builds each route from its wire form with the router's own constructor,
//! and the FEA installs through `Fea::add_route4`.
//!
//! Usage: `table-memory [--routes N]`

use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;

use xorp_bgp::bgp::UpdateIn;
use xorp_bgp::nexthop::{AnswerCb, NexthopService, RibNexthopAnswer};
use xorp_bgp::{BgpConfig, BgpProcess, PeerConfig, PeerId};
use xorp_event::EventLoop;
use xorp_fea::{test_iface, Fea, FibEntry};
use xorp_harness::figargs::flag_value;
use xorp_harness::workload::{backbone_table, WorkloadConfig, PAPER_TABLE_SIZE};
use xorp_harness::xrl_ifaces::RouteWire;
use xorp_net::{AsNum, AttrBlocks, Prefix, ProtocolId};
use xorp_rib::Rib;

struct Flat;
impl NexthopService<Ipv4Addr> for Flat {
    fn resolve_nexthop(&self, el: &mut EventLoop, addr: Ipv4Addr, cb: AnswerCb<Ipv4Addr>) {
        cb(
            el,
            RibNexthopAnswer {
                valid: "192.168.0.0/16".parse().unwrap(),
                metric: "192.168.0.0/16"
                    .parse::<Prefix<Ipv4Addr>>()
                    .unwrap()
                    .contains_addr(addr)
                    .then_some(1),
            },
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let routes: usize = flag_value(&args, "--routes")
        .and_then(|v| v.parse().ok())
        .unwrap_or(PAPER_TABLE_SIZE);

    eprintln!("generating {routes} routes...");
    let table = backbone_table(&WorkloadConfig {
        routes,
        ..Default::default()
    });

    let mut el = EventLoop::new_virtual();

    // ---- BGP process holding the table --------------------------------
    let mut bgp = BgpProcess::new(
        BgpConfig {
            local_as: AsNum(65000),
            router_id: "10.0.0.1".parse().unwrap(),
            local_addr: IpAddr::V4("10.0.0.1".parse().unwrap()),
            hold_time: 90,
        },
        Rc::new(Flat),
    );
    bgp.add_peer(&mut el, PeerConfig::simple(PeerId(1), AsNum(65001)), None);
    bgp.peering_up(&mut el, PeerId(1));

    // ---- RIB and FEA holding the same table ----------------------------
    let mut rib: Rib<Ipv4Addr> = Rib::new(false);
    let mut blocks = AttrBlocks::default();
    let connected = RouteWire {
        net: "192.168.0.0/16".parse().unwrap(),
        nexthop: "192.168.0.1".parse().unwrap(),
        ifname: "eth0".into(),
        metric: 1,
        proto: ProtocolId::Connected,
    };
    rib.add_route(&mut el, connected.into_rib_route(&mut blocks));
    let mut fea = Fea::new();
    fea.configure_interface(test_iface("eth0", "192.168.0.1", 16));

    eprintln!("loading...");
    for batch in table.chunks(64) {
        let nets: Vec<_> = batch.iter().map(|r| r.net).collect();
        bgp.apply_update(
            &mut el,
            PeerId(1),
            UpdateIn {
                withdrawn: vec![],
                announce: Some((batch[0].attrs.clone(), nets)),
            },
        );
        el.run_until_idle();
    }
    // What BGP sends over rib/1.0 for a best route: nexthop, no interface.
    for r in &table {
        let IpAddr::V4(nexthop) = r.attrs.nexthop else {
            unreachable!("the backbone table is IPv4")
        };
        let wire = RouteWire {
            net: r.net,
            nexthop,
            ifname: String::new(),
            metric: 0,
            proto: ProtocolId::Ebgp,
        };
        rib.add_route(&mut el, wire.into_rib_route(&mut blocks));
        fea.add_route4(FibEntry {
            net: r.net,
            nexthop: IpAddr::V4(nexthop),
            ifname: "eth0".into(),
            metric: 0,
        });
    }
    el.run_until_idle();

    let bgp_mb = bgp.memory_bytes() as f64 / 1e6;
    let rib_mb = rib.memory_bytes() as f64 / 1e6;
    let fea_mb = fea.memory_bytes() as f64 / 1e6;
    println!("Memory footprint at {} routes (§5.1 claim)", routes);
    println!(
        "{:<12} {:>14} {:>18}",
        "component", "measured (MB)", "paper, C++ 2004 (MB)"
    );
    println!("{:<12} {:>14.1} {:>18}", "BGP", bgp_mb, 120);
    println!("{:<12} {:>14.1} {:>18}", "RIB", rib_mb, 60);
    println!("{:<12} {:>14.1} {:>18}", "FEA", fea_mb, "-");
    println!(
        "\nbgp stored routes: {}   bgp best routes: {}   rib routes: {}   fib routes: {}",
        bgp.route_count(),
        bgp.best_count(),
        rib.route_count(),
        fea.route_count4()
    );
    // Likewise the BGP row: the peer tables hold the one copy of each
    // route; the resolvers keep one entry per nexthop.
    let peer_mb = bgp.peer_table_bytes() as f64 / 1e6;
    println!(
        "bgp = peer tables {:.1} MB + resolver indexes and fanout {:.1} MB \
         (per-nexthop entries, nothing per route; {:.0} B/route)",
        peer_mb,
        bgp_mb - peer_mb,
        (bgp_mb - peer_mb) * 1e6 / bgp.route_count() as f64
    );
    // The RIB row: the origin tables (the only copy of each route) plus
    // what the stages below them keep, none of it per external route.
    let origin_mb = rib.origin_bytes() as f64 / 1e6;
    println!(
        "rib = origin tables {:.1} MB + stage indexes {:.1} MB \
         (ExtInt internal mirror and per-nexthop entries, Register registrations; \
         {:.0} B/route)",
        origin_mb,
        rib_mb - origin_mb,
        (rib_mb - origin_mb) * 1e6 / rib.route_count() as f64
    );
    // The fanout stage after the shadow-table removal: its heap cost is
    // queue + reader bookkeeping only.  The per-route mirror it used to
    // keep (a BTreeMap<Prefix, BgpRoute> of every best route) would cost
    // roughly one map entry per best route.
    let mirror_entry = std::mem::size_of::<Prefix<Ipv4Addr>>()
        + std::mem::size_of::<xorp_bgp::BgpRoute<Ipv4Addr>>();
    println!(
        "fanout heap now: {} bytes   removed best-table mirror would hold: ~{:.1} MB \
         ({} routes x {} B/entry)",
        bgp.fanout_memory_bytes(),
        (bgp.best_count() * mirror_entry) as f64 / 1e6,
        bgp.best_count(),
        mirror_entry
    );
    println!(
        "\nThe paper's point — that a full table's memory cost 'is simply not\n\
         a problem on any recent hardware' — holds a fortiori: each table\n\
         stores only what varies per route (BGP an attribute block, the\n\
         RIB block, metric and interface index, the FIB nexthop, interface\n\
         index and metric), and the blocks are shared (Arc; one per UPDATE in\n\
         BGP, one per nexthop in the RIB), which keeps the Rust tables well\n\
         under the 2004 C++ numbers."
    );
}
