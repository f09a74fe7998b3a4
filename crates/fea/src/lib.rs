//! The Forwarding Engine Abstraction (§3, §7).
//!
//! "The FEA provides a stable API for communicating with a forwarding
//! engine or engines" — and doubles as the security relay: "rather than
//! sending UDP packets directly, RIP sends and receives packets using XRL
//! calls to the FEA", so routing processes never need raw-socket
//! privileges.
//!
//! The paper's FEA fronted the FreeBSD kernel or a Click forwarding path;
//! this one fronts a **simulated forwarding plane**: an in-memory FIB and
//! interface table, plus a packet relay.  Installing a route into the FIB
//! is the "entering the kernel" boundary of the §8.2 experiments, stamped
//! via the shared [`Profiler`].
//!
//! The simulation is still a real forwarding plane in the ways the
//! evaluation needs: the FIB answers longest-prefix-match forwarding
//! queries, and the packet relay delivers protocol traffic (RIP, BGP
//! sessions) between routers in a harness topology.

use std::collections::HashMap;
use std::net::IpAddr;
use std::rc::Rc;
use std::sync::Arc;

use xorp_event::EventLoop;
use xorp_net::{Addr, HeapSize, Ipv4Net, Mac, PatriciaTrie, Prefix, StaleSet};
use xorp_profiler::{points, PointHandle, Profiler};

pub mod iface;

pub use iface::{IfaceConfig, Interface};

/// A forwarding entry as a client asks for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FibEntry<A: Addr> {
    /// Destination subnet.
    pub net: Prefix<A>,
    /// Nexthop router (unspecified for directly connected).
    pub nexthop: IpAddr,
    /// Egress interface.
    pub ifname: String,
    /// Metric (diagnostic; the FIB itself forwards on longest match).
    pub metric: u32,
}

/// One installed forwarding entry, as a lookup hands it out.  Its
/// interface name is the interface table's own, shared by every route out
/// of that interface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FibRoute<A: Addr> {
    /// Destination subnet.
    pub net: Prefix<A>,
    /// Nexthop router (unspecified for directly connected).
    pub nexthop: IpAddr,
    /// Egress interface.
    pub ifname: Arc<str>,
    /// Metric (diagnostic; the FIB itself forwards on longest match).
    pub metric: u32,
}

/// What the FIB stores per route: the trie holds the prefix, and the
/// interface is named by its index in the FEA's interface table.  12
/// bytes for IPv4, 16 as the trie's `Option` slot.
#[derive(Debug, Clone, Copy)]
struct FibSlot<A: Addr> {
    nexthop: A,
    iface: u32,
    metric: u32,
}

impl<A: Addr> HeapSize for FibSlot<A> {
    fn heap_size(&self) -> usize {
        0
    }
}

/// Callback receiving packets a protocol asked the FEA to deliver:
/// `(ifname, src, dst, payload)`.
pub type PacketTx = Rc<dyn Fn(&mut EventLoop, &str, IpAddr, IpAddr, &[u8])>;
/// Callback a protocol registers to receive packets from an interface.
pub type PacketRx = Rc<dyn Fn(&mut EventLoop, &str, IpAddr, &[u8])>;

/// The simulated forwarding engine.
pub struct Fea {
    /// Interfaces in the order first configured, each with the one copy
    /// of its name that looked-up routes share.  None is ever removed, so
    /// the index a FIB slot holds stays valid.
    interfaces: Vec<(Arc<str>, Interface)>,
    /// Each interface's index by name.
    iface_index: HashMap<Arc<str>, u32>,
    fib4: PatriciaTrie<std::net::Ipv4Addr, FibSlot<std::net::Ipv4Addr>>,
    fib6: PatriciaTrie<std::net::Ipv6Addr, FibSlot<std::net::Ipv6Addr>>,
    /// IPv4 routes a dead RIB installed, held until it re-sends them.
    stale: StaleSet<std::net::Ipv4Addr>,
    kernel_point: Option<PointHandle>,
    /// The harness wire: where sent packets go.
    wire: Option<PacketTx>,
    /// Protocol receivers keyed by a registration name ("rip", "bgp"...).
    receivers: HashMap<String, PacketRx>,
    /// FIB write counters (diagnostics).
    pub installs: u64,
    /// FIB delete counter.
    pub removals: u64,
}

impl Default for Fea {
    fn default() -> Self {
        Self::new()
    }
}

impl Fea {
    /// An empty forwarding engine with no interfaces.
    pub fn new() -> Fea {
        Fea {
            interfaces: Vec::new(),
            iface_index: HashMap::new(),
            fib4: PatriciaTrie::new(),
            fib6: PatriciaTrie::new(),
            stale: StaleSet::default(),
            kernel_point: None,
            wire: None,
            receivers: HashMap::new(),
            installs: 0,
            removals: 0,
        }
    }

    /// Attach the §8.2 profiler; route installs stamp the `KERNEL` point.
    /// A pre-resolved [`PointHandle`] is held so a dormant point costs one
    /// relaxed atomic load per install — no lock, no clock read.
    pub fn set_profiler(&mut self, p: Profiler) {
        self.kernel_point = Some(p.point(points::KERNEL));
    }

    /// Connect the packet relay to the harness topology.
    pub fn set_wire(&mut self, wire: PacketTx) {
        self.wire = Some(wire);
    }

    // ---- interface management (the FEA's iface API) -----------------------

    /// Create or reconfigure an interface.
    pub fn configure_interface(&mut self, cfg: IfaceConfig) -> &Interface {
        let iface = Interface::new(cfg);
        let i = match self.iface_index.get(iface.name.as_str()) {
            // Reconfiguring keeps the index routes already hold.
            Some(&i) => {
                self.interfaces[i as usize].1 = iface;
                i
            }
            None => {
                let name: Arc<str> = iface.name.as_str().into();
                let i = u32::try_from(self.interfaces.len()).expect("fewer than 2^32 interfaces");
                self.iface_index.insert(name.clone(), i);
                self.interfaces.push((name, iface));
                i
            }
        };
        &self.interfaces[i as usize].1
    }

    /// Bring an interface up or down.  Downing an interface flushes FIB
    /// entries through it.
    pub fn set_interface_enabled(&mut self, name: &str, enabled: bool) -> bool {
        let Some(&i) = self.iface_index.get(name) else {
            return false;
        };
        self.interfaces[i as usize].1.enabled = enabled;
        if !enabled {
            let dead4: Vec<Ipv4Net> = self
                .fib4
                .iter()
                .filter(|(_, s)| s.iface == i)
                .map(|(n, _)| n)
                .collect();
            for net in dead4 {
                self.fib4.remove(&net);
                self.removals += 1;
            }
            let dead6: Vec<Prefix<std::net::Ipv6Addr>> = self
                .fib6
                .iter()
                .filter(|(_, s)| s.iface == i)
                .map(|(n, _)| n)
                .collect();
            for net in dead6 {
                self.fib6.remove(&net);
                self.removals += 1;
            }
        }
        true
    }

    /// Look up an interface.
    pub fn interface(&self, name: &str) -> Option<&Interface> {
        let &i = self.iface_index.get(name)?;
        Some(&self.interfaces[i as usize].1)
    }

    /// All interfaces, sorted by name.
    pub fn interfaces(&self) -> Vec<&Interface> {
        let mut v: Vec<&Interface> = self.interfaces.iter().map(|(_, i)| i).collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    // ---- FIB (the "kernel" boundary) ---------------------------------------

    /// The stored form of a route out of `ifname`, or `None` when that
    /// interface is unknown or down, or `nexthop` is of the other family.
    fn slot<A: Addr>(&self, nexthop: IpAddr, ifname: &str, metric: u32) -> Option<FibSlot<A>> {
        let &iface = self.iface_index.get(ifname)?;
        let nexthop = A::from_ipaddr(nexthop)?;
        let enabled = self.interfaces[iface as usize].1.enabled;
        enabled.then_some(FibSlot {
            nexthop,
            iface,
            metric,
        })
    }

    /// The route stored for `net` as `slot`, holding the interface
    /// table's own name.
    fn route<A: Addr>(&self, net: Prefix<A>, slot: &FibSlot<A>) -> FibRoute<A> {
        FibRoute {
            net,
            nexthop: slot.nexthop.to_ipaddr(),
            ifname: self.interfaces[slot.iface as usize].0.clone(),
            metric: slot.metric,
        }
    }

    /// Install (or replace) an IPv4 route out of the interface named
    /// `ifname` — the §8.2 "entering the kernel" moment.  Refused when the
    /// interface is unknown or down, or `nexthop` is not IPv4.
    pub fn install4(&mut self, net: Ipv4Net, nexthop: IpAddr, ifname: &str, metric: u32) -> bool {
        let Some(slot) = self.slot(nexthop, ifname, metric) else {
            return false;
        };
        if let Some(h) = &self.kernel_point {
            h.record(|| format!("add {net}"));
        }
        self.installs += 1;
        self.stale.clear(&net);
        self.fib4.insert(net, slot);
        true
    }

    /// [`Fea::install4`] for a client's [`FibEntry`].
    pub fn add_route4(&mut self, entry: FibEntry<std::net::Ipv4Addr>) -> bool {
        self.install4(entry.net, entry.nexthop, &entry.ifname, entry.metric)
    }

    /// Remove an IPv4 route.
    pub fn delete_route4(&mut self, net: &Ipv4Net) -> bool {
        if let Some(h) = &self.kernel_point {
            h.record(|| format!("del {net}"));
        }
        self.stale.clear(net);
        let removed = self.fib4.remove(net).is_some();
        if removed {
            self.removals += 1;
        }
        removed
    }

    /// The RIB died: mark every IPv4 route stale, keeping it installed.
    /// Returns how many were marked.
    pub fn mark_stale(&mut self) -> usize {
        self.stale.mark_all(&self.fib4)
    }

    /// Withdraw every IPv4 route still stale: the ones a restarted RIB did
    /// not re-send.  Returns how many went.
    pub fn sweep_stale(&mut self) -> usize {
        let nets = self.stale.take();
        nets.iter().filter(|net| self.delete_route4(net)).count()
    }

    /// Install an IPv6 route; refused as [`Fea::install4`] refuses.
    pub fn add_route6(&mut self, entry: FibEntry<std::net::Ipv6Addr>) -> bool {
        let Some(slot) = self.slot(entry.nexthop, &entry.ifname, entry.metric) else {
            return false;
        };
        if let Some(h) = &self.kernel_point {
            h.record(|| format!("add {}", entry.net));
        }
        self.installs += 1;
        self.fib6.insert(entry.net, slot);
        true
    }

    /// Remove an IPv6 route.
    pub fn delete_route6(&mut self, net: &Prefix<std::net::Ipv6Addr>) -> bool {
        let removed = self.fib6.remove(net).is_some();
        if removed {
            self.removals += 1;
        }
        removed
    }

    /// Forwarding decision: longest-prefix match.
    pub fn lookup4(&self, dst: std::net::Ipv4Addr) -> Option<FibRoute<std::net::Ipv4Addr>> {
        let (net, slot) = self.fib4.longest_match(dst)?;
        Some(self.route(net, slot))
    }

    /// IPv6 forwarding decision.
    pub fn lookup6(&self, dst: std::net::Ipv6Addr) -> Option<FibRoute<std::net::Ipv6Addr>> {
        let (net, slot) = self.fib6.longest_match(dst)?;
        Some(self.route(net, slot))
    }

    /// Routes installed (v4).
    pub fn route_count4(&self) -> usize {
        self.fib4.len()
    }

    /// Heap bytes of the FIB structures.
    pub fn memory_bytes(&self) -> usize {
        self.fib4.heap_size() + self.fib6.heap_size()
    }

    // ---- packet relay (§7: protocols do I/O through the FEA) ---------------

    /// A protocol registers to receive packets (keyed by protocol name).
    pub fn register_receiver(&mut self, proto: &str, rx: PacketRx) {
        self.receivers.insert(proto.to_string(), rx);
    }

    /// A protocol asks the FEA to send a packet.  Fails (returns false) if
    /// the interface is down or unknown — the sandboxed protocol never
    /// touches a socket itself.
    pub fn send_packet(
        &self,
        el: &mut EventLoop,
        ifname: &str,
        src: IpAddr,
        dst: IpAddr,
        payload: &[u8],
    ) -> bool {
        if !self.interface(ifname).is_some_and(|i| i.enabled) {
            return false;
        }
        if let Some(wire) = &self.wire {
            wire(el, ifname, src, dst, payload);
            true
        } else {
            false
        }
    }

    /// The harness delivers a packet that arrived on `ifname` for `proto`.
    pub fn deliver_packet(
        &self,
        el: &mut EventLoop,
        proto: &str,
        ifname: &str,
        src: IpAddr,
        payload: &[u8],
    ) -> bool {
        if !self.interface(ifname).is_some_and(|i| i.enabled) {
            return false;
        }
        if let Some(rx) = self.receivers.get(proto) {
            let rx = rx.clone();
            rx(el, ifname, src, payload);
            true
        } else {
            false
        }
    }
}

/// Convenience for tests and examples: an enabled Ethernet-ish interface.
pub fn test_iface(name: &str, addr: &str, prefix_len: u8) -> IfaceConfig {
    IfaceConfig {
        name: name.to_string(),
        addr: addr.parse().unwrap(),
        prefix_len,
        mac: Mac([0, 0, 0, 0, 0, 1]),
        mtu: 1500,
        enabled: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::net::Ipv4Addr;

    fn fea() -> Fea {
        let mut f = Fea::new();
        f.configure_interface(test_iface("eth0", "10.0.0.1", 24));
        f.configure_interface(test_iface("eth1", "10.0.1.1", 24));
        f
    }

    fn entry(net: &str, ifname: &str) -> FibEntry<Ipv4Addr> {
        FibEntry {
            net: net.parse().unwrap(),
            nexthop: "10.0.0.254".parse().unwrap(),
            ifname: ifname.to_string(),
            metric: 1,
        }
    }

    #[test]
    fn fib_install_lookup_delete() {
        let mut f = fea();
        assert!(f.add_route4(entry("10.0.0.0/8", "eth0")));
        assert!(f.add_route4(entry("10.1.0.0/16", "eth1")));
        assert_eq!(f.route_count4(), 2);
        assert_eq!(
            &*f.lookup4("10.1.2.3".parse().unwrap()).unwrap().ifname,
            "eth1"
        );
        assert_eq!(
            &*f.lookup4("10.9.9.9".parse().unwrap()).unwrap().ifname,
            "eth0"
        );
        assert!(f.lookup4("192.168.1.1".parse().unwrap()).is_none());
        assert!(f.delete_route4(&"10.1.0.0/16".parse().unwrap()));
        assert!(!f.delete_route4(&"10.1.0.0/16".parse().unwrap()));
        assert_eq!(
            &*f.lookup4("10.1.2.3".parse().unwrap()).unwrap().ifname,
            "eth0"
        );
    }

    #[test]
    fn routes_through_down_interfaces_rejected_and_flushed() {
        let mut f = fea();
        assert!(f.add_route4(entry("10.0.0.0/8", "eth0")));
        assert!(f.add_route4(entry("10.1.0.0/16", "eth1")));
        // Unknown interface refused.
        assert!(!f.add_route4(entry("11.0.0.0/8", "eth9")));
        // Downing eth1 flushes its routes.
        f.set_interface_enabled("eth1", false);
        assert_eq!(f.route_count4(), 1);
        assert!(!f.add_route4(entry("10.1.0.0/16", "eth1")));
        f.set_interface_enabled("eth1", true);
        assert!(f.add_route4(entry("10.1.0.0/16", "eth1")));
    }

    fn entry6(net: &str, ifname: &str) -> FibEntry<std::net::Ipv6Addr> {
        FibEntry {
            net: net.parse().unwrap(),
            nexthop: "fe80::1".parse().unwrap(),
            ifname: ifname.to_string(),
            metric: 1,
        }
    }

    /// Every route out of an interface holds the interface's index, and a
    /// lookup hands out the interface table's own name; an unknown or
    /// disabled interface is still refused, and disabling one still
    /// flushes its routes in both families.
    #[test]
    fn routes_share_their_interface_name_and_leave_with_it() {
        let mut f = fea();
        for i in 0..4u8 {
            assert!(f.add_route4(entry(&format!("10.{i}.0.0/16"), "eth0")));
        }
        assert!(f.add_route4(entry("11.0.0.0/8", "eth1")));
        assert!(f.add_route6(entry6("2001:db8::/32", "eth0")));
        assert!(f.add_route6(entry6("2001:db9::/32", "eth1")));
        // Reconfiguring the interface keeps the index routes hold.
        f.configure_interface(test_iface("eth0", "10.0.0.2", 24));
        let index = f.iface_index["eth0"];
        assert_eq!(f.fib4.iter().filter(|(_, s)| s.iface == index).count(), 4);
        let name = f.interfaces[index as usize].0.clone();
        let eth0 = |ifname: &Arc<str>| Arc::ptr_eq(ifname, &name);
        assert!(eth0(&f.lookup4(Ipv4Addr::new(10, 3, 0, 1)).unwrap().ifname));
        assert!(eth0(
            &f.lookup6("2001:db8::1".parse().unwrap()).unwrap().ifname
        ));

        assert!(!f.add_route4(entry("12.0.0.0/8", "eth9")));
        assert!(!f.add_route6(entry6("2001:dba::/32", "eth9")));
        f.set_interface_enabled("eth0", false);
        assert!(!f.add_route4(entry("12.0.0.0/8", "eth0")));
        assert!(!f.add_route6(entry6("2001:dba::/32", "eth0")));
        assert_eq!(f.route_count4(), 1);
        assert!(f.lookup6("2001:db8::1".parse().unwrap()).is_none());
        let v6 = f.lookup6("2001:db9::1".parse().unwrap()).unwrap();
        assert_eq!(&*v6.ifname, "eth1");
        assert_eq!(f.removals, 5);
    }

    /// A route is refused when its nexthop is of the other family, as it
    /// is through an unknown interface, and an accepted one reads back as
    /// it was installed.
    #[test]
    fn a_nexthop_of_the_other_family_is_refused() {
        let mut f = fea();
        let mut v4 = entry("10.0.0.0/8", "eth0");
        v4.nexthop = "2001:db8::1".parse().unwrap();
        assert!(!f.add_route4(v4));
        let mut v6 = entry6("2001:db8::/32", "eth0");
        v6.nexthop = "10.0.0.254".parse().unwrap();
        assert!(!f.add_route6(v6));
        assert_eq!((f.route_count4(), f.installs), (0, 0));

        let e = entry("10.0.0.0/8", "eth1");
        assert!(f.add_route4(e.clone()));
        let got = f.lookup4(Ipv4Addr::new(10, 9, 9, 9)).unwrap();
        let got = (got.net, got.nexthop, got.ifname.to_string(), got.metric);
        assert_eq!(got, (e.net, e.nexthop, e.ifname, e.metric));
    }

    /// The route array holds `Option<FibSlot>`: 16 bytes for IPv4.
    #[test]
    fn an_ipv4_slot_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Option<FibSlot<Ipv4Addr>>>(), 16);
    }

    #[test]
    fn kernel_profiling_point_stamped() {
        let mut f = fea();
        let p = Profiler::new();
        p.enable(points::KERNEL);
        f.set_profiler(p.clone());
        f.add_route4(entry("10.0.0.0/8", "eth0"));
        f.delete_route4(&"10.0.0.0/8".parse().unwrap());
        let recs = p.snapshot(points::KERNEL);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].payload, "add 10.0.0.0/8");
        assert_eq!(recs[1].payload, "del 10.0.0.0/8");
    }

    #[test]
    fn packet_relay_roundtrip() {
        let mut el = EventLoop::new_virtual();
        let mut f = fea();
        let sent = Rc::new(RefCell::new(Vec::new()));
        let s = sent.clone();
        f.set_wire(Rc::new(
            move |_el, ifname: &str, src, dst, payload: &[u8]| {
                s.borrow_mut()
                    .push((ifname.to_string(), src, dst, payload.to_vec()));
            },
        ));
        let received = Rc::new(RefCell::new(Vec::new()));
        let r = received.clone();
        f.register_receiver(
            "rip",
            Rc::new(move |_el, ifname: &str, src, payload: &[u8]| {
                r.borrow_mut()
                    .push((ifname.to_string(), src, payload.to_vec()));
            }),
        );

        let src: IpAddr = "10.0.0.1".parse().unwrap();
        let dst: IpAddr = "10.0.0.2".parse().unwrap();
        assert!(f.send_packet(&mut el, "eth0", src, dst, b"hello"));
        assert_eq!(sent.borrow().len(), 1);

        assert!(f.deliver_packet(&mut el, "rip", "eth0", dst, b"reply"));
        assert_eq!(received.borrow().len(), 1);
        // Unknown protocol: not delivered.
        assert!(!f.deliver_packet(&mut el, "ospf", "eth0", dst, b"x"));
    }

    #[test]
    fn down_interface_blocks_io() {
        let mut el = EventLoop::new_virtual();
        let mut f = fea();
        f.set_wire(Rc::new(|_el, _i: &str, _s, _d, _p: &[u8]| {}));
        f.register_receiver("rip", Rc::new(|_el, _i: &str, _s, _p: &[u8]| {}));
        f.set_interface_enabled("eth0", false);
        let a: IpAddr = "10.0.0.1".parse().unwrap();
        assert!(!f.send_packet(&mut el, "eth0", a, a, b"x"));
        assert!(!f.deliver_packet(&mut el, "rip", "eth0", a, b"x"));
    }

    #[test]
    fn interface_listing() {
        let f = fea();
        let names: Vec<&str> = f.interfaces().iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, vec!["eth0", "eth1"]);
        assert!(f.interface("eth0").unwrap().enabled);
        assert!(f.interface("eth9").is_none());
    }

    #[test]
    fn stale_routes_go_unless_reinstalled() {
        let mut fea = Fea::new();
        fea.configure_interface(test_iface("eth0", "10.0.0.1", 24));
        let nh: IpAddr = "10.0.0.2".parse().unwrap();
        for net in ["10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16"] {
            assert!(fea.install4(net.parse().unwrap(), nh, "eth0", 1));
        }
        assert_eq!(fea.mark_stale(), 3);
        fea.install4("10.1.0.0/16".parse().unwrap(), nh, "eth0", 1);
        fea.delete_route4(&"10.2.0.0/16".parse().unwrap());
        assert_eq!(
            fea.sweep_stale(),
            1,
            "only 10.3/16 was neither re-sent nor withdrawn"
        );
        assert_eq!(fea.route_count4(), 1);
        assert_eq!(fea.sweep_stale(), 0);
    }

    #[test]
    fn v6_fib() {
        let mut f = fea();
        let e = FibEntry::<std::net::Ipv6Addr> {
            net: "2001:db8::/32".parse().unwrap(),
            nexthop: "fe80::1".parse().unwrap(),
            ifname: "eth0".to_string(),
            metric: 1,
        };
        assert!(f.add_route6(e));
        assert!(f.lookup6("2001:db8::5".parse().unwrap()).is_some());
        assert!(f.lookup6("2001:db9::5".parse().unwrap()).is_none());
        assert!(f.delete_route6(&"2001:db8::/32".parse().unwrap()));
    }

    #[test]
    fn memory_accounting() {
        let mut f = fea();
        let empty = f.memory_bytes();
        for i in 0..100u8 {
            f.add_route4(entry(&format!("10.{i}.0.0/16"), "eth0"));
        }
        assert!(f.memory_bytes() > empty);
    }
}
