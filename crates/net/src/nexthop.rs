//! Per-nexthop state for layers that annotate routes they do not store.
//!
//! BGP's nexthop resolver and the RIB's ExtInt stage annotate a route from
//! an answer about its nexthop, and a full table has a handful of nexthops.
//! [`NexthopIndex`] keeps each answer once, with a count of the routes
//! naming it; the owner walks its origin tables when answers move.

use std::collections::BTreeMap;

use crate::addr::Addr;
use crate::heapsize::HeapSize;
use crate::prefix::Prefix;

/// One nexthop's state and how many routes name it.
#[derive(Debug)]
pub struct NexthopEntry<S> {
    /// The owner's answer for this nexthop.
    pub state: S,
    /// Routes currently naming this nexthop.
    pub routes: usize,
}

/// An ordered map from nexthop to [`NexthopEntry`]: the nexthops inside a
/// changed range are one range scan, and no hash needs defending against
/// peer-chosen addresses.
#[derive(Debug)]
pub struct NexthopIndex<A: Addr, S>(BTreeMap<A, NexthopEntry<S>>);

impl<A: Addr, S> Default for NexthopIndex<A, S> {
    fn default() -> Self {
        NexthopIndex(BTreeMap::new())
    }
}

impl<A: Addr, S> NexthopIndex<A, S> {
    /// `nh`'s entry, if it has one.
    pub fn get(&self, nh: &A) -> Option<&NexthopEntry<S>> {
        self.0.get(nh)
    }

    /// `nh`'s entry, mutably.
    pub fn get_mut(&mut self, nh: &A) -> Option<&mut NexthopEntry<S>> {
        self.0.get_mut(nh)
    }

    /// Count one more route naming `nh`, making its state with `make` if
    /// the nexthop is new.  Returns the state.
    pub fn add_route(&mut self, nh: A, make: impl FnOnce() -> S) -> &mut S {
        let entry = self.0.entry(nh).or_insert_with(|| NexthopEntry {
            state: make(),
            routes: 0,
        });
        entry.routes += 1;
        &mut entry.state
    }

    /// Count one route fewer naming `nh`.  Returns the state, which stays
    /// until [`NexthopIndex::prune`] drops it.
    pub fn remove_route(&mut self, nh: &A) -> Option<&mut S> {
        let entry = self.0.get_mut(nh)?;
        entry.routes = entry.routes.saturating_sub(1);
        Some(&mut entry.state)
    }

    /// Drop `nh`'s entry if no route names it and `idle` holds for its
    /// state.
    pub fn prune(&mut self, nh: &A, idle: impl FnOnce(&S) -> bool) {
        if self
            .0
            .get(nh)
            .is_some_and(|e| e.routes == 0 && idle(&e.state))
        {
            self.0.remove(nh);
        }
    }

    /// The entries of the nexthops inside `range`, in address order.
    pub fn range_mut(
        &mut self,
        range: &Prefix<A>,
    ) -> impl Iterator<Item = (A, &mut NexthopEntry<S>)> {
        let inside = self.0.range_mut(range.first_addr()..=range.last_addr());
        inside.map(|(nh, e)| (*nh, e))
    }

    /// Routes naming a nexthop whose state satisfies `pred`.
    pub fn routes_where(&self, pred: impl Fn(&S) -> bool) -> usize {
        self.0
            .values()
            .filter(|e| pred(&e.state))
            .map(|e| e.routes)
            .sum()
    }
}

impl<A: Addr, S> HeapSize for NexthopIndex<A, S> {
    /// One map entry per nexthop; nothing grows with the routes.
    fn heap_size(&self) -> usize {
        self.0.len() * std::mem::size_of::<(A, NexthopEntry<S>)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn a(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn counts_routes_and_prunes_idle_entries() {
        let mut ix: NexthopIndex<Ipv4Addr, u32> = NexthopIndex::default();
        ix.add_route(a("192.168.1.1"), || 7);
        ix.add_route(a("192.168.1.1"), || unreachable!("entry exists"));
        ix.add_route(a("10.0.0.1"), || 9);
        assert_eq!(ix.get(&a("192.168.1.1")).unwrap().routes, 2);
        assert_eq!(ix.routes_where(|s| *s == 7), 2);

        assert_eq!(ix.remove_route(&a("192.168.1.1")), Some(&mut 7));
        ix.prune(&a("192.168.1.1"), |_| true);
        assert!(
            ix.get(&a("192.168.1.1")).is_some(),
            "a nexthop with a route is kept"
        );
        ix.remove_route(&a("192.168.1.1"));
        ix.prune(&a("192.168.1.1"), |_| false);
        assert!(ix.get(&a("192.168.1.1")).is_some(), "a busy state is kept");
        ix.prune(&a("192.168.1.1"), |_| true);
        assert!(ix.get(&a("192.168.1.1")).is_none());
    }

    #[test]
    fn range_scan_visits_the_nexthops_inside() {
        let mut ix: NexthopIndex<Ipv4Addr, ()> = NexthopIndex::default();
        for nh in ["192.168.0.255", "192.168.1.0", "192.168.1.9", "192.168.2.0"] {
            ix.add_route(a(nh), || ());
        }
        let range: Prefix<Ipv4Addr> = "192.168.1.0/24".parse().unwrap();
        let inside: Vec<_> = ix.range_mut(&range).map(|(nh, _)| nh).collect();
        assert_eq!(inside, [a("192.168.1.0"), a("192.168.1.9")]);
    }
}
