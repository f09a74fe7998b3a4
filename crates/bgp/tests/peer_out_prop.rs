//! Model test for the Peer Out stage, which keeps no per-prefix state.
//!
//! Peer Out decides whether a replace or a delete takes something back
//! from the peer by re-running its verdict on the old route the op
//! carries.  Generated streams go in, consistent as the export filter
//! delivers them: adds, replaces and deletes over twelve prefixes, with
//! routes learned over EBGP or IBGP, tagged NO_EXPORT or not, drawn from
//! a few shared attribute blocks.  They go into an EBGP or an IBGP
//! session, per route or in batches, with session flaps between them (a
//! reset, then the table replayed as adds, as the peer-up dump does).
//!
//! The peer's table is rebuilt from the UPDATEs the way a receiver applies
//! them: a batch's withdrawals, then its announcements.  After every flush
//! it must equal the model, which is every route the session advertises,
//! transformed, and `announced_count` must equal the size of the peer's
//! table.  Sent per route, a withdrawal must name an announced prefix.  A
//! batch may withdraw a prefix it first announced: it sends each prefix
//! once, as its last change, and cannot tell whether the announce was
//! new, so the withdrawal goes out either way (a receiver ignores it).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr};
use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;
use xorp_bgp::peer_out::{PeerOut, UpdateOut};
use xorp_bgp::{BgpRoute, PeerId};
use xorp_event::EventLoop;
use xorp_net::{AsNum, AsPath, Community, PathAttributes, Prefix, ProtocolId};
use xorp_stages::{OriginId, RouteOp, Stage};

type Net = Prefix<Ipv4Addr>;
type R = BgpRoute<Ipv4Addr>;
/// What the remote peer holds, plus a count of per-route withdrawals that
/// named a prefix it did not hold.
type PeerTable = Rc<RefCell<(BTreeMap<Net, Arc<PathAttributes>>, usize)>>;

#[derive(Debug, Clone)]
enum Op {
    /// Announce prefix `.0` with attribute block `.1` (add or replace).
    Set(u8, u8),
    Del(u8),
    /// A batch boundary.
    Push,
    /// The session drops and comes back.
    Flap,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0u8..12, 0u8..8).prop_map(|(n, b)| Op::Set(n, b)),
        3 => (0u8..12).prop_map(Op::Del),
        2 => Just(Op::Push),
        1 => Just(Op::Flap),
    ]
}

fn net(ix: u8) -> Net {
    Prefix::new(Ipv4Addr::new(10, ix, 0, 0), 16).unwrap()
}

/// Eight blocks: learned over EBGP or IBGP × NO_EXPORT or not × two MEDs.
fn blocks() -> Vec<Arc<PathAttributes>> {
    (0..8u8)
        .map(|b| {
            let mut attrs = PathAttributes::new(IpAddr::V4(Ipv4Addr::new(192, 0, 2, 9)));
            attrs.as_path = AsPath::from_sequence([65002]);
            attrs.local_pref = Some(150);
            attrs.ebgp = b & 1 == 1;
            if b & 2 == 2 {
                attrs.communities.push(Community::NO_EXPORT);
            }
            attrs.med = Some(u32::from(b >> 2));
            attrs.shared()
        })
        .collect()
}

fn apply(
    peer: &PeerTable,
    per_route: bool,
    withdrawn: Vec<Net>,
    announced: Vec<(Arc<PathAttributes>, Vec<Net>)>,
) {
    let mut peer = peer.borrow_mut();
    for net in withdrawn {
        if peer.0.remove(&net).is_none() && per_route {
            peer.1 += 1;
        }
    }
    for (attrs, nets) in announced {
        for net in nets {
            peer.0.insert(net, attrs.clone());
        }
    }
}

fn peer_out(ebgp: bool, batch: usize, peer: &PeerTable) -> PeerOut<Ipv4Addr> {
    let p = peer.clone();
    let mut po = PeerOut::new(
        PeerId(1),
        AsNum(65000),
        ebgp,
        IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
        Rc::new(move |_el, out| match out {
            UpdateOut::Withdraw(net) => apply(&p, true, vec![net], vec![]),
            UpdateOut::Announce(net, attrs) => apply(&p, true, vec![], vec![(attrs, vec![net])]),
        }),
    );
    if batch > 0 {
        let p = peer.clone();
        po.set_batch_writer(Rc::new(move |_el, w, a| apply(&p, false, w, a)), batch);
    }
    po
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn peer_table_matches_the_model(
        ebgp in any::<bool>(),
        batch in 0usize..5,
        ops in prop::collection::vec(arb_op(), 1..80),
    ) {
        let mut el = EventLoop::new_virtual();
        let blocks = blocks();
        let peer: PeerTable = Rc::default();
        let mut po = peer_out(ebgp, batch, &peer);
        // The stream's table: what the export filter has sent for each prefix.
        let mut table: BTreeMap<Net, R> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Set(n, b) => {
                    let new = R::new(net(n), blocks[b as usize].clone(), 0, ProtocolId::Ebgp);
                    let op = match table.insert(net(n), new.clone()) {
                        Some(old) => RouteOp::Replace { net: net(n), old, new },
                        None => RouteOp::Add { net: net(n), route: new },
                    };
                    po.route_op(&mut el, OriginId(2), op);
                }
                Op::Del(n) => {
                    if let Some(old) = table.remove(&net(n)) {
                        po.route_op(&mut el, OriginId(2), RouteOp::Delete { net: net(n), old });
                    }
                }
                Op::Push => po.push(&mut el),
                Op::Flap => {
                    po.reset();
                    peer.borrow_mut().0.clear();
                    for (n, r) in &table {
                        po.route_op(&mut el, OriginId(2), RouteOp::Add { net: *n, route: r.clone() });
                    }
                }
            }
            if po.pending_count() > 0 {
                continue; // the peer has not been told yet
            }
            let model: BTreeMap<Net, Arc<PathAttributes>> = table
                .iter()
                .filter_map(|(n, r)| po.transform(r).map(|a| (*n, a)))
                .collect();
            let peer = peer.borrow();
            prop_assert_eq!(peer.1, 0, "a withdrawal named a prefix the peer did not hold");
            prop_assert_eq!(peer.0.len(), model.len());
            for (n, attrs) in &model {
                prop_assert_eq!(peer.0.get(n).map(|a| &**a), Some(&**attrs), "{}", n);
            }
            prop_assert_eq!(po.announced_count(), model.len());
        }
    }
}
