//! What a moving nexthop answer costs, in BGP and in the RIB.
//!
//! One peering's table of N routes (default 100,000) is spread over K
//! nexthops (1, 4, 16), each in a range of its own, in UPDATEs of 100
//! routes.  BGP's answers are held back while the table loads, then
//! delivered one event each ("load answers"); then one nexthop's answer
//! moves, then every nexthop's, again answered separately.  In the RIB
//! the same table resolves through one internal /24 per nexthop, and one
//! of those routes goes and comes back.  Each cell is the median of three
//! runs, in milliseconds of wall time on one thread.
//!
//! ```sh
//! cargo run --release -p xorp-bgp --example answer_walk [-- N]
//! ```
use std::cell::RefCell;
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use xorp_bgp::bgp::UpdateIn;
use xorp_bgp::nexthop::{AnswerCb, NexthopService, RibNexthopAnswer};
use xorp_bgp::{BgpConfig, BgpProcess, PeerConfig, PeerId};
use xorp_event::EventLoop;
use xorp_net::{AsNum, AsPath, PathAttributes, Prefix, ProtocolId, RouteEntry};
use xorp_rib::Rib;

type Net = Prefix<Ipv4Addr>;

#[derive(Default)]
struct Held {
    queue: RefCell<Vec<(Ipv4Addr, AnswerCb<Ipv4Addr>)>>,
}

struct Svc(Rc<Held>);

impl NexthopService<Ipv4Addr> for Svc {
    fn resolve_nexthop(&self, _el: &mut EventLoop, addr: Ipv4Addr, cb: AnswerCb<Ipv4Addr>) {
        self.0.queue.borrow_mut().push((addr, cb));
    }
}

fn nh(i: u32) -> Ipv4Addr {
    Ipv4Addr::new(192, 168, i as u8, 1)
}

fn range(a: Ipv4Addr) -> Net {
    Prefix::new(a, 24).unwrap()
}

/// Deliver every queued answer, each as its own event; returns seconds.
fn answer_all(el: &mut EventLoop, held: &Held, metric: u32) -> f64 {
    let t = Instant::now();
    loop {
        let next = held.queue.borrow_mut().pop();
        let Some((addr, cb)) = next else { break };
        cb(
            el,
            RibNexthopAnswer {
                valid: range(addr),
                metric: Some(metric),
            },
        );
        el.run_until_idle();
    }
    t.elapsed().as_secs_f64()
}

/// BGP: (load answers, one nexthop moves, all move), in seconds.
fn bgp(n: u32, k: u32) -> [f64; 3] {
    let mut el = EventLoop::new_virtual();
    let held = Rc::new(Held::default());
    let config = BgpConfig {
        local_as: AsNum(65000),
        router_id: "10.0.0.1".parse().unwrap(),
        local_addr: IpAddr::V4("10.0.0.1".parse().unwrap()),
        hold_time: 90,
    };
    let mut bgp = BgpProcess::new(config, Rc::new(Svc(held.clone())));
    bgp.set_rib_output(&mut el, |_el, _o, _op| {});
    bgp.add_peer(&mut el, PeerConfig::simple(PeerId(1), AsNum(65001)), None);
    bgp.peering_up(&mut el, PeerId(1));
    const PER_UPDATE: u32 = 100;
    for u in 0..n / PER_UPDATE {
        let mut attrs = PathAttributes::new(IpAddr::V4(nh(u % k)));
        attrs.as_path = AsPath::from_sequence([65001]);
        let nets = (0..PER_UPDATE)
            .map(|j| table_net(u * PER_UPDATE + j))
            .collect();
        let announce = Some((Arc::new(attrs), nets));
        let update = UpdateIn {
            withdrawn: vec![],
            announce,
        };
        bgp.apply_update(&mut el, PeerId(1), update);
        el.run_until_idle();
    }
    let load = answer_all(&mut el, &held, 1);
    assert_eq!(bgp.route_count(), (n - n % PER_UPDATE) as usize);
    bgp.invalidate_nexthops(&mut el, range(nh(0)));
    el.run_until_idle();
    let one = answer_all(&mut el, &held, 2);
    bgp.invalidate_nexthops(&mut el, "192.168.0.0/16".parse().unwrap());
    el.run_until_idle();
    let all = answer_all(&mut el, &held, 3);
    [load, one, all]
}

/// The RIB: (one internal route goes, comes back), in seconds.
fn rib(n: u32, k: u32) -> [f64; 2] {
    let mut el = EventLoop::new_virtual();
    let mut rib: Rib<Ipv4Addr> = Rib::new(false);
    rib.set_output(|_el, _o, _op| {});
    let igp = |i: u32| {
        let attrs = PathAttributes::new(IpAddr::V4(Ipv4Addr::UNSPECIFIED));
        let mut r = RouteEntry::new(range(nh(i)), Arc::new(attrs), 1, ProtocolId::Static);
        r.ifname = Some(format!("eth{i}").into());
        r
    };
    for i in 0..k {
        rib.add_route(&mut el, igp(i));
    }
    let attrs: Vec<_> = (0..k)
        .map(|i| Arc::new(PathAttributes::new(IpAddr::V4(nh(i)))))
        .collect();
    for i in 0..n {
        let a = attrs[((i / 100) % k) as usize].clone();
        rib.add_route(
            &mut el,
            RouteEntry::new(table_net(i), a, 0, ProtocolId::Ebgp),
        );
    }
    let t = Instant::now();
    rib.delete_route(&mut el, ProtocolId::Static, range(nh(0)));
    let down = t.elapsed().as_secs_f64();
    let t = Instant::now();
    rib.add_route(&mut el, igp(0));
    let up = t.elapsed().as_secs_f64();
    assert_eq!(rib.route_count(), (n + k) as usize);
    [down, up]
}

/// The `i`th route of the table: 10.0.0.0/24, 10.0.1.0/24, ...
fn table_net(i: u32) -> Net {
    Prefix::new(Ipv4Addr::from((10 << 24) | (i << 8)), 24).unwrap()
}

/// Median over three runs of each timing, in milliseconds.
fn median<const C: usize>(run: impl Fn() -> [f64; C]) -> [f64; C] {
    let runs: Vec<_> = (0..3).map(|_| run()).collect();
    std::array::from_fn(|c| {
        let mut v: Vec<f64> = runs.iter().map(|r| r[c] * 1e3).collect();
        v.sort_by(f64::total_cmp);
        v[1]
    })
}

fn main() {
    let n: u32 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("N: a route count"))
        .unwrap_or(100_000);
    println!("N = {n}; milliseconds, median of 3");
    println!("| K | BGP load answers | BGP one answer moves | BGP all answers move | RIB IGP route goes | RIB IGP route returns |");
    println!("|---|---|---|---|---|---|");
    for k in [1, 4, 16] {
        let [load, one, all] = median(|| bgp(n, k));
        let [down, up] = median(|| rib(n, k));
        println!("| {k} | {load:.1} | {one:.1} | {all:.1} | {down:.1} | {up:.1} |");
    }
}
