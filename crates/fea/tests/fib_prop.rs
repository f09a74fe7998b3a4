//! Round trip through the FEA's compact forwarding table.
//!
//! The FIB stores a route as its nexthop, its interface's index in the
//! interface table and its metric; a lookup rebuilds the entry with the
//! interface table's name.  Every route a lookup hands out must be the
//! entry that was installed.
//!
//! Generated runs over twelve nested prefixes (a /8, /16s inside it and
//! /24s inside those) mix installs through known, unknown and disabled
//! interfaces (some with an IPv6 nexthop, which is refused), deletes,
//! interfaces going down (which flushes their routes) and up, and
//! interfaces configured again or added while routes are installed.
//! Checked after every step against a model of the installed entries:
//! each install's verdict, each delete's, the route count, and the
//! longest match for an address inside every prefix and one outside all.

use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr};

use proptest::prelude::*;
use xorp_fea::{test_iface, Fea, FibEntry};
use xorp_net::Prefix;

type Net = Prefix<Ipv4Addr>;

/// Interface names a route may ask for; the last is never configured.
const IFACES: [&str; 5] = ["eth0", "eth1", "eth2", "eth3", "eth9"];

#[derive(Debug, Clone)]
enum Op {
    /// Install prefix `.0` via nexthop `.1` (IPv6 when 0) out of
    /// interface `.2` with metric `.3`.
    Add(u8, u8, u8, u32),
    Delete(u8),
    /// Interface `.0` goes down, or up.
    Enable(u8, bool),
    /// Interface `.0` is configured (again), enabled.
    Configure(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0u8..12, 0u8..4, 0u8..5, 0u32..3).prop_map(|(n, h, i, m)| Op::Add(n, h, i, m)),
        3 => (0u8..12).prop_map(Op::Delete),
        2 => (0u8..4, any::<bool>()).prop_map(|(i, on)| Op::Enable(i, on)),
        1 => (0u8..4).prop_map(Op::Configure),
    ]
}

/// 10.0.0.0/8, then 10.i.0.0/16 for i in 1..=6, then 10.i.i.0/24 for i
/// in 1..=5.
fn net(ix: u8) -> Net {
    match ix {
        0 => Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 8),
        1..=6 => Prefix::new(Ipv4Addr::new(10, ix, 0, 0), 16),
        _ => Prefix::new(Ipv4Addr::new(10, ix - 6, ix - 6, 0), 24),
    }
    .unwrap()
}

fn entry(op: (u8, u8, u8, u32)) -> FibEntry<Ipv4Addr> {
    let (n, hop, iface, metric) = op;
    FibEntry {
        net: net(n),
        nexthop: match hop {
            0 => "2001:db8::1".parse().unwrap(),
            h => IpAddr::V4(Ipv4Addr::new(192, 0, 2, h)),
        },
        ifname: IFACES[iface as usize].to_string(),
        metric,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fib_routes_round_trip(ops in prop::collection::vec(arb_op(), 1..120)) {
        let mut fea = Fea::new();
        // Interface name → enabled; eth3 appears only when configured.
        let mut ifaces: BTreeMap<&str, bool> = BTreeMap::new();
        for name in &IFACES[..3] {
            fea.configure_interface(test_iface(name, "10.255.0.1", 24));
            ifaces.insert(name, true);
        }
        let mut installed: BTreeMap<Net, FibEntry<Ipv4Addr>> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Add(n, h, i, m) => {
                    let e = entry((n, h, i, m));
                    let ok = e.nexthop.is_ipv4() && ifaces.get(e.ifname.as_str()) == Some(&true);
                    prop_assert_eq!(fea.add_route4(e.clone()), ok, "{:?}", e);
                    if ok {
                        installed.insert(e.net, e);
                    }
                }
                Op::Delete(n) => {
                    let had = installed.remove(&net(n)).is_some();
                    prop_assert_eq!(fea.delete_route4(&net(n)), had);
                }
                Op::Enable(i, on) => {
                    let name = IFACES[i as usize];
                    let known = ifaces.contains_key(name);
                    prop_assert_eq!(fea.set_interface_enabled(name, on), known);
                    if known {
                        ifaces.insert(name, on);
                        if !on {
                            installed.retain(|_, e| e.ifname != name);
                        }
                    }
                }
                Op::Configure(i) => {
                    let name = IFACES[i as usize];
                    fea.configure_interface(test_iface(name, "10.254.0.1", 24));
                    ifaces.insert(name, true);
                }
            }
            prop_assert_eq!(fea.route_count4(), installed.len());
            let inside = (0..12u8).map(|n| net(n).addr());
            for addr in inside.chain([Ipv4Addr::new(11, 0, 0, 1)]) {
                let want = installed
                    .values()
                    .filter(|e| e.net.contains_addr(addr))
                    .max_by_key(|e| e.net.len())
                    .map(|e| (e.net, e.nexthop, e.ifname.clone(), e.metric));
                let got = fea
                    .lookup4(addr)
                    .map(|r| (r.net, r.nexthop, r.ifname.to_string(), r.metric));
                prop_assert_eq!(got, want, "{}", addr);
            }
        }
    }
}
