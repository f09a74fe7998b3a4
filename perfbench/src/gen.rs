//! Seeded input generators.  Everything the router is fed comes from
//! here, and everything here is a pure function of `--seed`: the backbone
//! table, the order probes are sent in, and the churn schedule.

use std::collections::VecDeque;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::Arc;

use xorp_bgp::bgp::UpdateIn;
use xorp_harness::workload::{backbone_table, BackboneRoute, WorkloadConfig};
use xorp_net::{AsPath, Ipv4Net, PathAttributes, Prefix};

/// Routes per UPDATE in the bulk phases (the fig11/12 harness's figure).
pub const UPDATE_ROUTES: usize = 64;
/// Routes per UPDATE in the churn phase: small messages, so an UPDATE's
/// latency is not dominated by its own size.
pub const CHURN_UPDATE_ROUTES: usize = 16;
/// The peering the backbone table arrives on.
pub const TABLE_PEER: u32 = 1;
/// The peering probes and churn arrive on — a different one, so their
/// nexthop is resolved through the RIB (the fig12 discipline).
pub const CHURN_PEER: u32 = 2;

/// SplitMix64: tiny, seedable, and independent of the `rand` stand-in the
/// repository builds against.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The seeded backbone table (`routes` unique prefixes, 64 per shared
/// attribute block, 16 nexthops inside the connected 192.168.0.0/16).
pub fn table(seed: u64, routes: usize) -> Vec<BackboneRoute> {
    backbone_table(&WorkloadConfig {
        routes,
        seed,
        batch: UPDATE_ROUTES,
        ..Default::default()
    })
}

/// One UPDATE announcing a chunk of the table (all routes of a chunk
/// share the first route's attribute block, as the generator built them).
pub fn announce(chunk: &[BackboneRoute]) -> UpdateIn<Ipv4Addr> {
    UpdateIn {
        withdrawn: vec![],
        announce: Some((
            chunk[0].attrs.clone(),
            chunk.iter().map(|r| r.net).collect(),
        )),
    }
}

/// One UPDATE withdrawing a chunk of the table.
pub fn withdraw(chunk: &[BackboneRoute]) -> UpdateIn<Ipv4Addr> {
    UpdateIn {
        withdrawn: chunk.iter().map(|r| r.net).collect(),
        announce: None,
    }
}

/// Nexthop of everything the churn peer announces.
pub const CHURN_NEXTHOP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 200);

/// Attribute block of the churn peer's announcements: a one-hop AS path,
/// shorter than any the table generator draws (2 to 6 hops), so announcing
/// a prefix the table already holds flips the decision.
pub fn churn_attrs() -> Arc<PathAttributes> {
    let mut attrs = PathAttributes::new(IpAddr::V4(CHURN_NEXTHOP));
    attrs.as_path = AsPath::from_sequence([65002]);
    Arc::new(attrs)
}

/// AS-path length of [`churn_attrs`].
pub const CHURN_PATH_LEN: usize = 1;

/// The `i`-th probe prefix: a /24 in 10.0.0.0/10, space the table
/// generator never uses (the harness's `test_route`).
pub fn probe_net(i: u32) -> Ipv4Net {
    xorp_harness::workload::test_route(i)
}

/// Probe indices above this would run into the sentinel prefix.
pub const MAX_PROBES: u32 = 16_000;

/// Probe indices `0..count` in seeded order.
pub fn probe_order(rng: &mut Rng, count: u32) -> Vec<u32> {
    assert!(count <= MAX_PROBES, "probe space exhausted");
    let mut order: Vec<u32> = (0..count).collect();
    rng.shuffle(&mut order);
    order
}

/// The `j`-th churn-only prefix: a /24 from 10.64.0.0 up, clear of both
/// the table and the probes.
fn fresh_net(j: u32) -> Ipv4Net {
    Prefix::new(Ipv4Addr::from(0x0a40_0000u32 + (j << 8)), 24).expect("valid /24")
}
const FRESH_POOL: u32 = 32_768;

/// Marks the end of the churn stream: the pipeline is FIFO, so once this
/// prefix is in the FIB every churn UPDATE before it has been served.
pub fn sentinel_net() -> Ipv4Net {
    Prefix::new(Ipv4Addr::new(10, 63, 255, 0), 24).expect("valid /24")
}

/// What one churn UPDATE does.  All four arrive on [`CHURN_PEER`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// Announce table prefixes with a shorter AS path: the decision flips
    /// and a *replace* travels to the FIB.
    Replace,
    /// Withdraw such announcements: the decision flips back.
    Restore,
    /// Announce prefixes nobody else holds.
    New,
    /// Withdraw those.
    Drop,
}

impl ChurnKind {
    pub fn is_announce(self) -> bool {
        matches!(self, ChurnKind::Replace | ChurnKind::New)
    }
}

/// One scheduled churn UPDATE.
#[derive(Debug, Clone)]
pub struct ChurnUpdate {
    pub kind: ChurnKind,
    pub nets: Vec<Ipv4Net>,
}

impl ChurnUpdate {
    pub fn to_update(&self, attrs: &Arc<PathAttributes>) -> UpdateIn<Ipv4Addr> {
        if self.kind.is_announce() {
            UpdateIn {
                withdrawn: vec![],
                announce: Some((attrs.clone(), self.nets.clone())),
            }
        } else {
            UpdateIn {
                withdrawn: self.nets.clone(),
                announce: None,
            }
        }
    }
}

/// A seeded churn stream of `updates` UPDATEs over a loaded table: 40 %
/// replace, 30 % restore, 20 % new, 10 % drop.  A withdrawal only ever
/// names prefixes announced earlier in the stream and still held, so no
/// operation fails; when a drawn kind has nothing to act on, its opposite
/// is scheduled instead.
pub fn churn_schedule(rng: &mut Rng, table: &[BackboneRoute], updates: usize) -> Vec<ChurnUpdate> {
    let per = CHURN_UPDATE_ROUTES;
    // Four pools; an UPDATE moves `per` prefixes from one to another.
    // Free prefixes wait in seeded order and withdrawn ones rejoin at the
    // back; held ones wait in announcement order.
    const TABLE_FREE: usize = 0;
    const REPLACED: usize = 1;
    const FRESH_FREE: usize = 2;
    const FRESH_HELD: usize = 3;
    let flow = |kind| match kind {
        ChurnKind::Replace => (TABLE_FREE, REPLACED),
        ChurnKind::Restore => (REPLACED, TABLE_FREE),
        ChurnKind::New => (FRESH_FREE, FRESH_HELD),
        ChurnKind::Drop => (FRESH_HELD, FRESH_FREE),
    };
    let mut order: Vec<u32> = (0..table.len() as u32).collect();
    rng.shuffle(&mut order);
    let mut pools: [VecDeque<Ipv4Net>; 4] = Default::default();
    pools[TABLE_FREE] = order.iter().map(|&i| table[i as usize].net).collect();
    pools[FRESH_FREE] = (0..FRESH_POOL).map(fresh_net).collect();

    let mut out = Vec::with_capacity(updates);
    for _ in 0..updates {
        let mut kind = match rng.below(10) {
            0..=3 => ChurnKind::Replace,
            4..=6 => ChurnKind::Restore,
            7..=8 => ChurnKind::New,
            _ => ChurnKind::Drop,
        };
        if pools[flow(kind).0].len() < per {
            kind = match kind {
                ChurnKind::Replace => ChurnKind::Restore,
                ChurnKind::Restore => ChurnKind::Replace,
                ChurnKind::New => ChurnKind::Drop,
                ChurnKind::Drop => ChurnKind::New,
            };
        }
        let (from, to) = flow(kind);
        let nets: Vec<Ipv4Net> = pools[from].drain(..per).collect();
        pools[to].extend(nets.iter().copied());
        out.push(ChurnUpdate { kind, nets });
    }
    out
}

/// `count` lookup addresses, seeded: three quarters fall inside a table
/// prefix (so the answer is a real route, often with a less specific one
/// underneath), the rest anywhere.
pub fn lookup_addrs(rng: &mut Rng, table: &[BackboneRoute], count: usize) -> Vec<Ipv4Addr> {
    (0..count)
        .map(|_| {
            if rng.below(4) < 3 {
                let net = table[rng.below(table.len())].net;
                let host_bits = 32 - net.len() as u32;
                let offset = (rng.next_u64() as u32) & ((1u64 << host_bits) - 1) as u32;
                Ipv4Addr::from(u32::from(net.addr()) | offset)
            } else {
                Ipv4Addr::from(rng.next_u64() as u32)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let nets = |seed| -> Vec<Ipv4Net> { table(seed, 2000).iter().map(|r| r.net).collect() };
        assert_eq!(nets(7), nets(7));
        assert_ne!(nets(7), nets(8));

        let t = table(7, 2000);
        let sched = |seed| -> Vec<(ChurnKind, Vec<Ipv4Net>)> {
            churn_schedule(&mut Rng::new(seed), &t, 300)
                .into_iter()
                .map(|u| (u.kind, u.nets))
                .collect()
        };
        assert_eq!(sched(1), sched(1));
        assert_ne!(sched(1), sched(2));
        assert_eq!(
            probe_order(&mut Rng::new(3), 500),
            probe_order(&mut Rng::new(3), 500)
        );
        assert_ne!(
            probe_order(&mut Rng::new(3), 500),
            probe_order(&mut Rng::new(4), 500)
        );
        assert_eq!(
            lookup_addrs(&mut Rng::new(5), &t, 100),
            lookup_addrs(&mut Rng::new(5), &t, 100)
        );
    }

    /// Every withdrawal names prefixes the stream announced and still
    /// holds — on a table small enough that the pools wrap.
    #[test]
    fn churn_never_withdraws_what_it_does_not_hold() {
        let t = table(11, 256);
        let in_table: HashSet<Ipv4Net> = t.iter().map(|r| r.net).collect();
        let mut held: HashSet<Ipv4Net> = HashSet::new();
        let mut kinds = HashSet::new();
        for u in churn_schedule(&mut Rng::new(11), &t, 2000) {
            assert_eq!(u.nets.len(), CHURN_UPDATE_ROUTES);
            kinds.insert(format!("{:?}", u.kind));
            for net in &u.nets {
                match u.kind {
                    ChurnKind::Replace => {
                        assert!(in_table.contains(net));
                        assert!(held.insert(*net), "{net} announced twice");
                    }
                    ChurnKind::New => {
                        assert!(!in_table.contains(net));
                        assert!(held.insert(*net), "{net} announced twice");
                    }
                    ChurnKind::Restore | ChurnKind::Drop => {
                        assert!(held.remove(net), "{net} withdrawn but not held");
                    }
                }
            }
        }
        assert_eq!(kinds.len(), 4, "all four kinds drawn: {kinds:?}");
    }

    #[test]
    fn reserved_prefixes_stay_clear_of_each_other() {
        // Probes sit below 10.63.0.0, the sentinel at 10.63.255.0, the
        // churn-only pool from 10.64.0.0 up.
        let probes: Ipv4Net = "10.0.0.0/10".parse().unwrap();
        assert!(probes.contains(&probe_net(0)) && probes.contains(&probe_net(MAX_PROBES - 1)));
        assert!(u32::from(probe_net(MAX_PROBES - 1).addr()) < u32::from(sentinel_net().addr()));
        assert!(!probes.contains(&fresh_net(0)));
        assert_eq!(fresh_net(FRESH_POOL - 1).to_string(), "10.191.255.0/24");
    }
}
