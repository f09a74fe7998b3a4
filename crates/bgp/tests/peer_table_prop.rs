//! Round trip through BGP's compact route store.
//!
//! A PeerIn stores each route as its attribute block alone: the peering's
//! id and protocol live once with the table, and a peering flap hands the
//! whole table to a deletion stage, which rebuilds every route it drains
//! from the same constants.  Every route the two stages hand out must be
//! the route that was stored, the peering's route for the prefix: its
//! source the peer, its protocol the peering's, metric 0, no interface.
//!
//! Generated runs over twelve prefixes and four attribute blocks, on an
//! EBGP or an IBGP peering with a random id, mix announcements (adds and
//! replaces), withdrawals, peering flaps that splice a deletion stage in
//! front of the older ones, background drain slices, and a dump cursor
//! that walks the PeerIn and every deletion stage a few prefixes at a
//! time.  As the BGP process does, a flap in the middle of the walk hands
//! it the new deletion stage, since the PeerIn's cursor is stranded.
//! Checked after every step: each op that reached the end of the chain (an
//! add's route, a replace's old and new, a delete's old, the drain's
//! deletes) against the stored routes and what the chain sent before,
//! every prefix's lookup, and the lookup of every prefix the dump visits.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;
use xorp_bgp::{BgpRoute, DeletionStage, PeerId, PeerIn};
use xorp_event::EventLoop;
use xorp_net::{AsNum, AsPath, PathAttributes, Prefix, ProtocolId};
use xorp_stages::{stage_ref, DumpSource, SinkStage, Stage, StageRef, TableSource};

type Net = Prefix<Ipv4Addr>;
type R = BgpRoute<Ipv4Addr>;

#[derive(Debug, Clone)]
enum Op {
    /// Announce prefix `.0` with attribute block `.1` (add or replace).
    Announce(u8, u8),
    Withdraw(u8),
    /// The peering drops and comes back.
    Flap,
    /// One event-loop turn: a background drain slice, if any is due.
    Drain,
    /// The dump visits up to this many prefixes.
    Dump(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u8..12, 0u8..4).prop_map(|(n, b)| Op::Announce(n, b)),
        3 => (0u8..12).prop_map(Op::Withdraw),
        1 => Just(Op::Flap),
        2 => Just(Op::Drain),
        2 => (1u8..5).prop_map(Op::Dump),
    ]
}

fn net(ix: u8) -> Net {
    Prefix::new(Ipv4Addr::new(10, ix, 0, 0), 16).unwrap()
}

fn blocks() -> Vec<Arc<PathAttributes>> {
    (0..4u32)
        .map(|b| {
            let mut attrs = PathAttributes::new(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 1)));
            attrs.as_path = AsPath::from_sequence([65001 + b]);
            attrs.shared()
        })
        .collect()
}

/// The peering's route for `net` with `attrs`: what the PeerIn stores.
fn stored(peer: PeerId, proto: ProtocolId, net: Net, attrs: &Arc<PathAttributes>) -> R {
    R {
        source: Some(peer.0),
        ..BgpRoute::new(net, attrs.clone(), 0, proto)
    }
}

struct Rig {
    el: EventLoop,
    peer_in: Rc<RefCell<PeerIn<Ipv4Addr>>>,
    /// Newest first, as the BGP process splices them.
    deletions: Vec<Rc<RefCell<DeletionStage<Ipv4Addr>>>>,
    sink: Rc<RefCell<SinkStage<Ipv4Addr, R>>>,
    /// The dump's cursors, drained front to back; empty between walks.
    dump: Vec<Box<dyn DumpSource<Ipv4Addr>>>,
}

impl Rig {
    fn new(peer: PeerId, proto: ProtocolId) -> Rig {
        let peer_in = stage_ref(PeerIn::new(peer, proto, AsNum(65000)));
        let sink = stage_ref(SinkStage::new());
        peer_in.borrow_mut().set_downstream(sink.clone());
        Rig {
            el: EventLoop::new_virtual(),
            peer_in,
            deletions: Vec::new(),
            sink,
            dump: Vec::new(),
        }
    }

    /// The stage the chain's lookups are asked at: the one above the sink.
    fn bottom(&self) -> StageRef<Ipv4Addr, R> {
        match self.deletions.last() {
            Some(oldest) => oldest.clone(),
            None => self.peer_in.clone(),
        }
    }

    /// Peering down and up: the PeerIn's table goes to a new deletion
    /// stage spliced in directly below the PeerIn.
    fn flap(&mut self) {
        let table = self.peer_in.borrow_mut().take_table();
        let del = stage_ref(DeletionStage::new(table));
        let below: StageRef<Ipv4Addr, R> = match self.deletions.first() {
            Some(newest) => {
                newest.borrow_mut().set_upstream(del.clone());
                newest.clone()
            }
            None => self.sink.clone(),
        };
        del.borrow_mut().set_downstream(below);
        del.borrow_mut().set_upstream(self.peer_in.clone());
        self.peer_in.borrow_mut().set_downstream(del.clone());
        if !self.dump.is_empty() {
            self.dump.push(Box::new(TableSource::new(del.clone())));
        }
        DeletionStage::start(&mut self.el, del.clone());
        self.deletions.insert(0, del);
    }

    /// The next prefix of the walk, opening one over every table first
    /// if none is in flight.
    fn dump_next(&mut self) -> Option<Net> {
        if self.dump.is_empty() {
            self.dump
                .push(Box::new(TableSource::new(self.peer_in.clone())));
            for del in &self.deletions {
                self.dump.push(Box::new(TableSource::new(del.clone())));
            }
        }
        while let Some(source) = self.dump.first_mut() {
            if let Some(net) = source.next_prefix() {
                return Some(net);
            }
            self.dump.remove(0);
        }
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn peer_table_routes_round_trip(
        peer in 1u32..1000,
        ebgp in any::<bool>(),
        ops in prop::collection::vec(arb_op(), 1..120),
    ) {
        let (peer, proto) = (PeerId(peer), if ebgp { ProtocolId::Ebgp } else { ProtocolId::Ibgp });
        let blocks = blocks();
        let mut rig = Rig::new(peer, proto);
        // What the PeerIn stores, and what the chain has sent downstream.
        let mut table: BTreeMap<Net, R> = BTreeMap::new();
        let mut sent: BTreeMap<Net, R> = BTreeMap::new();
        let mut seen = 0;
        for op in ops {
            let mut visited = Vec::new();
            match op {
                Op::Announce(n, b) => {
                    let route = BgpRoute::new(net(n), blocks[b as usize].clone(), 0, proto);
                    rig.peer_in.borrow_mut().announce(&mut rig.el, route);
                    table.insert(net(n), stored(peer, proto, net(n), &blocks[b as usize]));
                }
                Op::Withdraw(n) => {
                    let old = rig.peer_in.borrow_mut().withdraw(&mut rig.el, net(n));
                    prop_assert_eq!(old, table.remove(&net(n)));
                }
                Op::Flap => {
                    rig.flap();
                    table.clear();
                }
                Op::Drain => {
                    rig.el.run_one();
                }
                Op::Dump(k) => {
                    for _ in 0..k {
                        visited.extend(rig.dump_next());
                    }
                }
            }
            // Every op the chain sent since the last step.
            let sink = rig.sink.borrow();
            for (origin, op) in &sink.log[seen..] {
                prop_assert_eq!(origin.0, peer.0);
                let net = op.net();
                prop_assert_eq!(op.old_route(), sent.get(&net), "{}", net);
                match op.new_route() {
                    Some(new) => {
                        prop_assert_eq!(Some(new), table.get(&net), "{}", net);
                        sent.insert(net, new.clone());
                    }
                    None => {
                        sent.remove(&net);
                    }
                }
            }
            seen = sink.log.len();
            drop(sink);
            // The PeerIn's routes were all sent; the rest of what was sent
            // waits in a deletion stage.
            for (net, route) in &table {
                prop_assert_eq!(sent.get(net), Some(route));
            }
            let parked: usize = rig.deletions.iter().map(|d| d.borrow().pending_count()).sum();
            prop_assert_eq!(rig.peer_in.borrow().len(), table.len());
            prop_assert_eq!(parked, sent.len() - table.len());
            // Lookups agree with what was sent, for every prefix and for
            // every prefix the dump visited.
            let bottom = rig.bottom();
            for n in 0..12 {
                prop_assert_eq!(bottom.borrow().lookup_route(&net(n)), sent.get(&net(n)).cloned());
            }
            for net in visited {
                let route = bottom.borrow().lookup_route(&net);
                prop_assert!(route.is_some(), "the dump visited {} after it left", net);
                prop_assert_eq!(route.as_ref(), sent.get(&net));
            }
        }
    }
}
