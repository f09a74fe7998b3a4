//! An independent model of what the router should hold: the benchmark
//! replays into it the same UPDATEs it feeds the router, and compares.
//!
//! The model is three rules and no code shared with the router's tables:
//! lowest administrative distance wins a prefix, then the shortest AS
//! path, then the lowest peer id; forwarding follows the longest matching
//! prefix.  The generators never produce a tie the finer BGP rules (MED,
//! origin, IGP metric) would have to break.

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

use xorp_net::Ipv4Net;

use crate::gen::{self, ChurnKind, ChurnUpdate};

/// Administrative distance of a connected route.
pub const DISTANCE_CONNECTED: u8 = 0;
/// Administrative distance of an EBGP route.
pub const DISTANCE_EBGP: u8 = 20;

/// One source's offer for a prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    pub distance: u8,
    pub path_len: usize,
    /// 0 for the connected route.
    pub peer: u32,
    pub nexthop: Ipv4Addr,
}

impl Candidate {
    fn rank(&self) -> (u8, usize, u32) {
        (self.distance, self.path_len, self.peer)
    }
}

/// The expected state of the router.
#[derive(Default)]
pub struct Oracle {
    /// Offers per prefix, keyed by `(network bits, length)`.
    offers: HashMap<(u32, u8), Vec<Candidate>>,
    /// How many prefixes of each length hold an offer — lets a lookup
    /// skip lengths nothing uses.
    by_len: BTreeMap<u8, usize>,
    bgp_routes: usize,
}

fn key(net: &Ipv4Net) -> (u32, u8) {
    (u32::from(net.addr()), net.len())
}

impl Oracle {
    /// The state of a freshly started router: only the connected
    /// 192.168.0.0/16 via 192.168.0.1 the harness pre-installs.
    pub fn with_connected() -> Oracle {
        let mut o = Oracle::default();
        o.offer(
            &"192.168.0.0/16".parse().expect("literal prefix"),
            Candidate {
                distance: DISTANCE_CONNECTED,
                path_len: 0,
                peer: 0,
                nexthop: Ipv4Addr::new(192, 168, 0, 1),
            },
        );
        o
    }

    /// `peer` announces `net` (replacing its earlier offer, if any).
    pub fn announce(&mut self, peer: u32, net: &Ipv4Net, path_len: usize, nexthop: Ipv4Addr) {
        self.offer(
            net,
            Candidate {
                distance: DISTANCE_EBGP,
                path_len,
                peer,
                nexthop,
            },
        );
    }

    fn offer(&mut self, net: &Ipv4Net, cand: Candidate) {
        let offers = self.offers.entry(key(net)).or_default();
        if offers.is_empty() {
            *self.by_len.entry(net.len()).or_default() += 1;
        }
        match offers.iter_mut().find(|c| c.peer == cand.peer) {
            Some(existing) => *existing = cand,
            None => {
                offers.push(cand);
                if cand.distance == DISTANCE_EBGP {
                    self.bgp_routes += 1;
                }
            }
        }
    }

    /// `peer` withdraws `net`.  Returns whether it held an offer.
    pub fn withdraw(&mut self, peer: u32, net: &Ipv4Net) -> bool {
        let Some(offers) = self.offers.get_mut(&key(net)) else {
            return false;
        };
        let Some(pos) = offers.iter().position(|c| c.peer == peer) else {
            return false;
        };
        if offers.swap_remove(pos).distance == DISTANCE_EBGP {
            self.bgp_routes -= 1;
        }
        if offers.is_empty() {
            self.offers.remove(&key(net));
            let n = self.by_len.get_mut(&net.len()).expect("length was counted");
            *n -= 1;
            if *n == 0 {
                self.by_len.remove(&net.len());
            }
        }
        true
    }

    /// Replay one churn UPDATE.
    pub fn apply_churn(&mut self, update: &ChurnUpdate) {
        for net in &update.nets {
            match update.kind {
                ChurnKind::Replace | ChurnKind::New => self.announce(
                    gen::CHURN_PEER,
                    net,
                    gen::CHURN_PATH_LEN,
                    gen::CHURN_NEXTHOP,
                ),
                ChurnKind::Restore | ChurnKind::Drop => {
                    self.withdraw(gen::CHURN_PEER, net);
                }
            }
        }
    }

    /// Prefixes `peer` currently offers, in address order.
    pub fn held_by(&self, peer: u32) -> Vec<Ipv4Net> {
        let mut keys: Vec<(u32, u8)> = self
            .offers
            .iter()
            .filter(|(_, offers)| offers.iter().any(|c| c.peer == peer))
            .map(|(k, _)| *k)
            .collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|(bits, len)| Ipv4Net::new(Ipv4Addr::from(bits), len).expect("stored prefix"))
            .collect()
    }

    /// The winning offer for exactly `net`.
    pub fn best(&self, net: &Ipv4Net) -> Option<Candidate> {
        self.best_at(key(net))
    }

    fn best_at(&self, key: (u32, u8)) -> Option<Candidate> {
        self.offers
            .get(&key)?
            .iter()
            .copied()
            .min_by_key(Candidate::rank)
    }

    /// Routes BGP should store across all peers (one per peer and prefix).
    pub fn bgp_routes(&self) -> usize {
        self.bgp_routes
    }

    /// Entries the RIB's final table and the FIB should each hold (one
    /// per prefix with any offer).
    pub fn fib_routes(&self) -> usize {
        self.offers.len()
    }

    /// The forwarding decision for `dst`: nexthop of the best offer of
    /// the longest prefix covering it.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<Ipv4Addr> {
        let bits = u32::from(dst);
        for &len in self.by_len.keys().rev() {
            let mask = if len == 0 { 0 } else { u32::MAX << (32 - len) };
            if let Some(best) = self.best_at((bits & mask, len)) {
                return Some(best.nexthop);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(s: &str) -> Ipv4Net {
        s.parse().unwrap()
    }
    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// Five routes by hand: a connected /16, a BGP /8 with two offers, a
    /// more specific /24 inside it, and a BGP offer for the connected
    /// prefix itself (which must lose on distance).
    #[test]
    fn five_route_case() {
        let mut o = Oracle::with_connected();
        o.announce(1, &net("20.0.0.0/8"), 3, ip("192.168.1.1"));
        o.announce(2, &net("20.0.0.0/8"), 1, ip("192.168.1.200"));
        o.announce(1, &net("20.1.2.0/24"), 4, ip("192.168.1.2"));
        o.announce(1, &net("192.168.0.0/16"), 1, ip("192.168.1.9"));

        assert_eq!(o.bgp_routes(), 4);
        assert_eq!(o.fib_routes(), 3);
        // Shortest AS path wins the /8 ...
        assert_eq!(o.lookup(ip("20.9.9.9")), Some(ip("192.168.1.200")));
        // ... the longest prefix wins the address ...
        assert_eq!(o.lookup(ip("20.1.2.3")), Some(ip("192.168.1.2")));
        // ... and connected beats BGP for the same prefix.
        assert_eq!(o.lookup(ip("192.168.1.1")), Some(ip("192.168.0.1")));
        assert_eq!(o.lookup(ip("8.8.8.8")), None);

        // Withdrawing the winner flips the decision back.
        assert!(o.withdraw(2, &net("20.0.0.0/8")));
        assert_eq!(o.lookup(ip("20.9.9.9")), Some(ip("192.168.1.1")));
        assert_eq!(o.best(&net("20.0.0.0/8")).unwrap().peer, 1);
        // Withdrawing what is not held changes nothing.
        assert!(!o.withdraw(2, &net("20.0.0.0/8")));
        assert!(!o.withdraw(1, &net("30.0.0.0/8")));
        // Removing the /24 uncovers the /8.
        assert!(o.withdraw(1, &net("20.1.2.0/24")));
        assert_eq!(o.lookup(ip("20.1.2.3")), Some(ip("192.168.1.1")));
        assert_eq!((o.bgp_routes(), o.fib_routes()), (2, 2));
        assert_eq!(o.held_by(1), vec![net("20.0.0.0/8"), net("192.168.0.0/16")]);
        assert!(o.held_by(2).is_empty());
        // Equal path lengths fall to the lower peer id.
        o.announce(2, &net("20.0.0.0/8"), 3, ip("192.168.1.200"));
        assert_eq!(o.best(&net("20.0.0.0/8")).unwrap().peer, 1);
        // Re-announcing replaces the peer's own offer, it does not add one.
        o.announce(2, &net("20.0.0.0/8"), 2, ip("192.168.1.200"));
        assert_eq!(o.bgp_routes(), 3);
        assert_eq!(o.best(&net("20.0.0.0/8")).unwrap().peer, 2);
    }

    #[test]
    fn churn_replay_tracks_counts() {
        let table = gen::table(3, 512);
        let mut o = Oracle::with_connected();
        for r in &table {
            o.announce(
                gen::TABLE_PEER,
                &r.net,
                r.attrs.as_path.path_len(),
                match r.attrs.nexthop {
                    std::net::IpAddr::V4(a) => a,
                    _ => unreachable!(),
                },
            );
        }
        assert_eq!((o.bgp_routes(), o.fib_routes()), (512, 513));
        let (mut replaced, mut fresh) = (0i64, 0i64);
        for u in gen::churn_schedule(&mut gen::Rng::new(3), &table, 400) {
            o.apply_churn(&u);
            let n = u.nets.len() as i64;
            match u.kind {
                ChurnKind::Replace => replaced += n,
                ChurnKind::Restore => replaced -= n,
                ChurnKind::New => fresh += n,
                ChurnKind::Drop => fresh -= n,
            }
            assert_eq!(o.bgp_routes() as i64, 512 + replaced + fresh);
            assert_eq!(o.fib_routes() as i64, 513 + fresh);
        }
    }
}
