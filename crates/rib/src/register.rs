//! Interest registration (§5.2.1, Figure 8).
//!
//! BGP and PIM need to track routing changes for specific addresses (BGP
//! nexthops, multicast sources).  "when BGP asks the RIB about a specific
//! address, the RIB informs BGP about the address range for which the same
//! answer applies" — and critically, that range is **the largest enclosing
//! subnet that is not overlaid by a more specific route**, so client
//! caches never hold an answer that a more specific route silently
//! contradicts, and "no largest enclosing subnet ever overlaps any other
//! in the cached data", letting clients use balanced trees.
//!
//! On any route change overlapping a handed-out range, the stage sends the
//! client a "cache invalidated" message for that subnet; the client
//! re-queries.
//!
//! Figure 8 is a question about which prefixes exist, not about their
//! routes, so the stage keeps only the *geometry* of the final table: a
//! payload-free trie of its prefixes.  The route that goes with a matched
//! prefix is fetched by one exact `lookup_route` upstream, where the
//! origin tables hold it.

use std::collections::HashMap;
use std::rc::Rc;

use xorp_event::EventLoop;
use xorp_net::{Addr, HeapSize, PatriciaTrie, Prefix};
use xorp_stages::{OriginId, RouteOp, Stage, StageRef};

use crate::RibRoute;

/// The answer to an interest registration.
#[derive(Debug, Clone, PartialEq)]
pub struct RegisterAnswer<A: Addr> {
    /// The subnet for which this answer is valid — the largest enclosing
    /// subnet of the queried address not overlaid by a more specific
    /// route.
    pub valid: Prefix<A>,
    /// The matching route, or `None` if the address is unrouted.
    pub route: Option<RibRoute<A>>,
}

/// Callback invoked when a handed-out range is invalidated.
pub type InvalidationCb<A> = Rc<dyn Fn(&mut EventLoop, u32, Prefix<A>)>;

/// Compute the Figure 8 answer against a route table: the longest-match
/// route for `addr` plus the largest enclosing non-overlaid subnet.
pub fn covering_answer<A: Addr, T: Clone>(
    trie: &PatriciaTrie<A, T>,
    addr: A,
) -> (Option<(Prefix<A>, T)>, Prefix<A>) {
    match trie.longest_match(addr) {
        Some((rnet, val)) => {
            let matched = Some((rnet, val.clone()));
            // Narrow from the matched route toward the address until no
            // more-specific route overlays the range.
            let mut s = rnet;
            while trie.iter_subtree(&s).any(|(p, _)| p != rnet) {
                debug_assert!(s.len() < A::BITS);
                let bit = Prefix::<A>::host(addr).bit(s.len());
                s = s.child(bit).expect("narrowing below host route");
            }
            (matched, s)
        }
        None => {
            // Unrouted address: the valid range is the largest subnet
            // around it containing no route at all.
            let mut s = Prefix::<A>::default_route();
            while trie.iter_subtree(&s).next().is_some() {
                debug_assert!(s.len() < A::BITS);
                let bit = Prefix::<A>::host(addr).bit(s.len());
                s = s.child(bit).expect("narrowing below host route");
            }
            (None, s)
        }
    }
}

struct Registration<A: Addr> {
    client: u32,
    valid: Prefix<A>,
}

/// Pass-through stage answering interest registrations and longest-match
/// queries against the final table.
pub struct RegisterStage<A: Addr> {
    /// The prefixes of the final table, nothing else.
    prefixes: PatriciaTrie<A, ()>,
    upstream: Option<StageRef<A, RibRoute<A>>>,
    downstream: Option<StageRef<A, RibRoute<A>>>,
    registrations: Vec<Registration<A>>,
    invalidation_cbs: HashMap<u32, InvalidationCb<A>>,
}

impl<A: Addr> Default for RegisterStage<A> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Addr> RegisterStage<A> {
    /// An empty register stage.
    pub fn new() -> Self {
        RegisterStage {
            prefixes: PatriciaTrie::new(),
            upstream: None,
            downstream: None,
            registrations: Vec::new(),
            invalidation_cbs: HashMap::new(),
        }
    }

    /// Plumb the downstream neighbor.
    pub fn set_downstream(&mut self, s: StageRef<A, RibRoute<A>>) {
        self.downstream = Some(s);
    }

    /// Plumb the upstream neighbor (where routes are fetched from).
    pub fn set_upstream(&mut self, s: StageRef<A, RibRoute<A>>) {
        self.upstream = Some(s);
    }

    /// Install the invalidation callback for a client.
    pub fn set_invalidation_cb(&mut self, client: u32, cb: InvalidationCb<A>) {
        self.invalidation_cbs.insert(client, cb);
    }

    /// Register interest in `addr` for `client`.  Returns the matched
    /// route and the range the answer covers; the registration stays
    /// active until invalidated or dropped.
    pub fn register_interest(&mut self, client: u32, addr: A) -> RegisterAnswer<A> {
        let (matched, valid) = covering_answer(&self.prefixes, addr);
        self.registrations.push(Registration { client, valid });
        RegisterAnswer {
            valid,
            route: matched.and_then(|(net, ())| self.lookup_route(&net)),
        }
    }

    /// Drop a client's registration for the given valid range.
    pub fn deregister_interest(&mut self, client: u32, valid: &Prefix<A>) -> bool {
        let before = self.registrations.len();
        self.registrations
            .retain(|r| !(r.client == client && r.valid == *valid));
        self.registrations.len() != before
    }

    /// Active registrations (diagnostics).
    pub fn registration_count(&self) -> usize {
        self.registrations.len()
    }

    /// Longest-match query against the final table — the RIB's general
    /// route query, used for reverse-path lookups etc.
    pub fn longest_match(&self, addr: A) -> Option<(Prefix<A>, RibRoute<A>)> {
        let (net, ()) = self.prefixes.longest_match(addr)?;
        Some((net, self.lookup_route(&net)?))
    }

    /// Number of routes in the final table.
    pub fn route_count(&self) -> usize {
        self.prefixes.len()
    }

    fn invalidate_overlapping(&mut self, el: &mut EventLoop, net: Prefix<A>) {
        let mut fired: Vec<(u32, Prefix<A>)> = Vec::new();
        self.registrations.retain(|r| {
            if r.valid.overlaps(&net) {
                fired.push((r.client, r.valid));
                false
            } else {
                true
            }
        });
        for (client, valid) in fired {
            if let Some(cb) = self.invalidation_cbs.get(&client) {
                let cb = cb.clone();
                cb(el, client, valid);
            }
        }
    }
}

impl<A: Addr> HeapSize for RegisterStage<A> {
    /// The prefix set; registrations are per client, not per route.
    fn heap_size(&self) -> usize {
        self.prefixes.heap_size()
    }
}

impl<A: Addr> Stage<A, RibRoute<A>> for RegisterStage<A> {
    fn name(&self) -> String {
        "register".into()
    }

    fn route_op(&mut self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, RibRoute<A>>) {
        let net = op.net();
        // A replace leaves the set of prefixes as it was.
        match &op {
            RouteOp::Add { .. } => {
                self.prefixes.insert(net, ());
            }
            RouteOp::Replace { .. } => {}
            RouteOp::Delete { .. } => {
                self.prefixes.remove(&net);
            }
        }
        // "Should the situation change at any later stage, the RIB will
        // send a 'cache invalidated' message for the relevant subnet."
        self.invalidate_overlapping(el, net);
        if let Some(d) = &self.downstream {
            d.borrow_mut().route_op(el, origin, op);
        }
    }

    fn lookup_route(&self, net: &Prefix<A>) -> Option<RibRoute<A>> {
        self.upstream.as_ref()?.borrow().lookup_route(net)
    }

    fn push(&mut self, el: &mut EventLoop) {
        if let Some(d) = &self.downstream {
            d.borrow_mut().push(el);
        }
    }

    fn set_downstream(&mut self, s: StageRef<A, RibRoute<A>>) {
        RegisterStage::set_downstream(self, s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::OriginTable;
    use std::cell::RefCell;
    use std::net::{IpAddr, Ipv4Addr};
    use std::sync::Arc;
    use xorp_net::{PathAttributes, ProtocolId};
    use xorp_stages::stage_ref;

    fn route(net: &str) -> RibRoute<Ipv4Addr> {
        RibRoute::new(
            net.parse().unwrap(),
            Arc::new(PathAttributes::new(IpAddr::V4(
                "192.0.2.1".parse().unwrap(),
            ))),
            1,
            ProtocolId::Static,
        )
    }

    fn a(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn p(s: &str) -> Prefix<Ipv4Addr> {
        s.parse().unwrap()
    }

    /// The exact Figure 8 scenario.
    fn figure8_trie() -> PatriciaTrie<Ipv4Addr, u32> {
        let mut t = PatriciaTrie::new();
        t.insert(p("128.16.0.0/16"), 0);
        t.insert(p("128.16.0.0/18"), 1);
        t.insert(p("128.16.128.0/17"), 2);
        t.insert(p("128.16.192.0/18"), 3);
        t
    }

    #[test]
    fn figure8_query_32_1() {
        let t = figure8_trie();
        let (matched, valid) = covering_answer(&t, a("128.16.32.1"));
        assert_eq!(matched.unwrap().0, p("128.16.0.0/18"));
        assert_eq!(valid, p("128.16.0.0/18"));
    }

    #[test]
    fn figure8_query_160_1() {
        let t = figure8_trie();
        let (matched, valid) = covering_answer(&t, a("128.16.160.1"));
        // Most specific match is the /17, but the /17 is overlaid by
        // 128.16.192.0/18, so the valid range narrows to 128.16.128.0/18.
        assert_eq!(matched.unwrap().0, p("128.16.128.0/17"));
        assert_eq!(valid, p("128.16.128.0/18"));
    }

    #[test]
    fn figure8_query_192_1() {
        let t = figure8_trie();
        let (matched, valid) = covering_answer(&t, a("128.16.192.1"));
        assert_eq!(matched.unwrap().0, p("128.16.192.0/18"));
        assert_eq!(valid, p("128.16.192.0/18"));
    }

    #[test]
    fn figure8_query_hole() {
        let t = figure8_trie();
        // 128.16.64.1 matches only the /16 (the /18s don't cover it); the
        // /16 is overlaid, so the range narrows to the uncovered quarter.
        let (matched, valid) = covering_answer(&t, a("128.16.64.1"));
        assert_eq!(matched.unwrap().0, p("128.16.0.0/16"));
        assert_eq!(valid, p("128.16.64.0/18"));
    }

    #[test]
    fn unrouted_address_gets_negative_range() {
        let t = figure8_trie();
        let (matched, valid) = covering_answer(&t, a("10.0.0.1"));
        assert!(matched.is_none());
        // The range must not contain any route.
        assert!(t.iter_subtree(&valid).next().is_none());
        assert!(valid.contains_addr(a("10.0.0.1")));
        // And must be maximal: its parent overlaps some route.
        let parent = valid.parent().unwrap();
        assert!(t.iter_subtree(&parent).next().is_some());
    }

    #[test]
    fn answers_never_overlap() {
        let t = figure8_trie();
        let mut ranges: Vec<Prefix<Ipv4Addr>> = Vec::new();
        for addr in [
            "128.16.32.1",
            "128.16.160.1",
            "128.16.192.1",
            "128.16.64.1",
            "128.16.0.1",
            "10.0.0.1",
        ] {
            let (_, valid) = covering_answer(&t, a(addr));
            ranges.push(valid);
        }
        for (i, x) in ranges.iter().enumerate() {
            for y in ranges.iter().skip(i + 1) {
                assert!(x == y || !x.overlaps(y), "ranges {x} and {y} overlap");
            }
        }
    }

    /// A register stage fed by an origin table — which is also where it
    /// fetches routes from, since it holds none itself.
    #[allow(clippy::type_complexity)]
    fn fed_stage() -> (
        Rc<RefCell<OriginTable<Ipv4Addr>>>,
        Rc<RefCell<RegisterStage<Ipv4Addr>>>,
    ) {
        let origin = stage_ref(OriginTable::new(ProtocolId::Static, OriginId(0)));
        let stage = stage_ref(RegisterStage::new());
        origin.borrow_mut().set_downstream(stage.clone());
        stage.borrow_mut().set_upstream(origin.clone());
        (origin, stage)
    }

    #[test]
    fn stage_registration_and_invalidation() {
        let mut el = EventLoop::new_virtual();
        let (origin, stage) = fed_stage();
        for net in ["128.16.0.0/16", "128.16.0.0/18"] {
            origin.borrow_mut().add_route(&mut el, route(net));
        }
        #[allow(clippy::type_complexity)]
        let fired: Rc<RefCell<Vec<(u32, Prefix<Ipv4Addr>)>>> = Rc::new(RefCell::new(vec![]));
        let f = fired.clone();
        stage.borrow_mut().set_invalidation_cb(
            7,
            Rc::new(move |_el, client, valid| {
                f.borrow_mut().push((client, valid));
            }),
        );

        let ans = stage.borrow_mut().register_interest(7, a("128.16.32.1"));
        assert_eq!(ans.valid, p("128.16.0.0/18"));
        assert!(ans.route.is_some());
        assert_eq!(stage.borrow().registration_count(), 1);

        // An unrelated change does not invalidate.
        origin.borrow_mut().add_route(&mut el, route("10.0.0.0/8"));
        assert!(fired.borrow().is_empty());

        // A more specific route inside the valid range invalidates.
        origin
            .borrow_mut()
            .add_route(&mut el, route("128.16.32.0/24"));
        assert_eq!(fired.borrow().len(), 1);
        assert_eq!(fired.borrow()[0], (7, p("128.16.0.0/18")));
        assert_eq!(stage.borrow().registration_count(), 0);

        // Re-query: the answer now reflects the new route.
        let ans = stage.borrow_mut().register_interest(7, a("128.16.32.1"));
        assert_eq!(ans.route.unwrap().net, p("128.16.32.0/24"));
    }

    #[test]
    fn deregister() {
        let mut el = EventLoop::new_virtual();
        let (origin, stage) = fed_stage();
        origin.borrow_mut().add_route(&mut el, route("10.0.0.0/8"));
        let ans = stage.borrow_mut().register_interest(1, a("10.1.1.1"));
        assert!(stage.borrow_mut().deregister_interest(1, &ans.valid));
        assert!(!stage.borrow_mut().deregister_interest(1, &ans.valid));
        // No callback after deregistration.
        let fired = Rc::new(RefCell::new(0));
        let f = fired.clone();
        stage
            .borrow_mut()
            .set_invalidation_cb(1, Rc::new(move |_el, _, _| *f.borrow_mut() += 1));
        origin.borrow_mut().add_route(&mut el, route("10.1.0.0/16"));
        assert_eq!(*fired.borrow(), 0);
    }

    #[test]
    fn mirror_tracks_stream() {
        let mut el = EventLoop::new_virtual();
        let (origin, stage) = fed_stage();
        let r = route("10.0.0.0/8");
        origin.borrow_mut().add_route(&mut el, r.clone());
        assert_eq!(stage.borrow().route_count(), 1);
        assert!(stage.borrow().longest_match(a("10.1.1.1")).is_some());
        origin.borrow_mut().delete_route(&mut el, r.net);
        assert_eq!(stage.borrow().route_count(), 0);
        assert!(stage.borrow().longest_match(a("10.1.1.1")).is_none());
    }

    /// The stage stores prefixes, not routes: a reintroduced payload (a
    /// per-route copy of the table) fails here.
    #[test]
    fn memory_budget_register_payload_is_empty() {
        fn payload_size<A: Addr, T>(_: &PatriciaTrie<A, T>) -> usize {
            std::mem::size_of::<T>()
        }
        let stage: RegisterStage<Ipv4Addr> = RegisterStage::new();
        assert_eq!(payload_size(&stage.prefixes), 0);
    }

    /// A replace keeps the prefix; the fetched route is the new one.
    #[test]
    fn replace_keeps_prefix_and_serves_new_route() {
        let mut el = EventLoop::new_virtual();
        let (origin, stage) = fed_stage();
        origin.borrow_mut().add_route(&mut el, route("10.0.0.0/8"));
        let mut changed = route("10.0.0.0/8");
        changed.metric = 9;
        origin.borrow_mut().add_route(&mut el, changed.clone());
        assert_eq!(stage.borrow().route_count(), 1);
        let (net, got) = stage.borrow().longest_match(a("10.1.1.1")).unwrap();
        assert_eq!((net, got), (p("10.0.0.0/8"), changed));
    }
}
