//! A binary Patricia (radix) trie keyed by network prefixes, with **safe
//! route iterators** (§5.3 of the paper).
//!
//! Routing tables are walked by background tasks — a BGP deletion stage
//! drains >100,000 routes across many event-loop slices — and the table may
//! be mutated while the task is paused.  A naive iterator would dangle.  The
//! paper's solution, reproduced here:
//!
//! > "we use some spare bits in each route tree node to hold a reference
//! > count of the number of iterators currently pointing at this tree node.
//! > If the route tree receives a request to delete a node, the node's data
//! > is invalidated, but the node itself is not removed immediately unless
//! > the reference count is zero.  It is the responsibility of the last
//! > iterator leaving a previously-deleted node to actually perform the
//! > deletion."
//!
//! [`IterHandle`] is that iterator: a detached cursor that never borrows the
//! trie, advanced by [`PatriciaTrie::iter_next`].  While a handle rests on a
//! node, that node is refcounted and survives `remove`; the payload is
//! invalidated immediately (so lookups stay consistent) and physical unlink
//! is deferred to the last departing iterator.
//!
//! # Layout
//!
//! Nodes live in an arena with a free list, so handles are stable indices,
//! not pointers.  One index names a node in two parallel arrays, and routes
//! live in a third array of their own:
//!
//! - `nodes: Vec<Link<A>>`, the only array a descent reads: the prefix, a
//!   flags byte and the two child indices — 16 bytes for IPv4, 28 for IPv6.
//!   The flags are `ROUTE` (the node holds a route) and `PINNED` (a safe
//!   iterator rests on it), so `remove` and `cleanup` decide from the link
//!   alone.
//! - `meta: Vec<Meta>`, 8 bytes: the parent index and the node's route
//!   slot (`NIL` for a junction or a zombie).  Cleanup, iteration, the climb
//!   below and every read of a route go through it.
//! - `routes: Vec<Option<T>>`, indexed by slot, with a free list of
//!   vacated slots: sized by the peak route count, not the node count, so
//!   a junction (about 0.6 per route in a backbone table) costs no payload.
//!   `set_payload` is the one writer of `ROUTE`, the slot and the routes.
//!
//! The §5.3 refcount sits in `pins`, a short list of `(node, count)`
//! entries read only for a node whose `PINNED` bit is set: few handles
//! exist at once (deletion stages and dumps), so no node pays for one.  A
//! per-node generation that catches stale handles is kept in debug builds
//! only.
//!
//! # The /16 jump index
//!
//! `jump[b]`, for each value `b` of an address's top 16 bits, names the
//! deepest node of length ≤ 16 whose prefix contains /16 block `b`, or the
//! root if there is none.  Every node whose prefix contains a key lies on
//! that key's root path, so a descent toward a key of length ≥ 16 starts at
//! `jump[b]` and skips the levels above it; `longest_match` and
//! `best_covering` climb `meta.parent` from there only when nothing at or
//! below holds a route.  A zombie node left behind by a safe iterator is
//! still linked, so a slot may name it.
//!
//! `alloc` and `dealloc` keep the invariant: a new node of length ≤ 16 takes
//! over the slots in its range that named its parent, and a freed one hands
//! its slots back to its parent.  The index (65,536 × 4 bytes) is allocated
//! with the first node of length ≤ 16; the root is slot 0, so it is zeroed
//! memory whose pages become resident only where they are written.
//!
//! On a 146,515-route backbone table a descent reads 16.9 nodes from the
//! root and 2.5 from the jump slot.  The width is measured, not tuned:
//! inserting, then removing, every route of that table in four tries and
//! one `BTreeSet` (the per-route table work of BGP, the RIB and the FEA
//! together) costs, per route,
//!
//! | layout | insert | remove |
//! |---|---|---|
//! | one 80-byte node, no index | 4.4 µs | 4.8 µs |
//! | split layout only | 2.9 µs | 3.0 µs |
//! | split + 8-bit index | 2.3 µs | 2.4 µs |
//! | split + 12-bit index | 1.7 µs | 2.0 µs |
//! | split + 16-bit index | 1.45 µs | 1.7 µs |
//! | split + 20-bit index | 3.1 µs | 3.2 µs |
//!
//! At 20 bits the /16–/19 prefixes (30 % of the table) can no longer use the
//! index, and each short prefix fills 16 times as many slots.

use std::fmt;

use crate::addr::Addr;
use crate::heapsize::HeapSize;
use crate::prefix::Prefix;

type NodeIdx = u32;
/// An index into the route array.
type Slot = u32;
/// No node, or no route slot.
const NIL: u32 = u32::MAX;
/// The `/0` node: always arena slot 0, never freed.
const ROOT: NodeIdx = 0;

/// Address bits the jump index covers: one slot per /16 block.
const JUMP_BITS: u8 = 16;

/// `Link::flags`: the node holds a route.
const ROUTE: u8 = 1;
/// `Link::flags`: at least one safe iterator rests on the node, and `pins`
/// holds its count.
const PINNED: u8 = 2;

/// The part of a node every descent reads.
#[derive(Clone, Copy)]
struct Link<A: Addr> {
    prefix: Prefix<A>,
    /// `ROUTE` and `PINNED`.
    flags: u8,
    children: [NodeIdx; 2],
}

impl<A: Addr> Link<A> {
    fn has_route(&self) -> bool {
        self.flags & ROUTE != 0
    }

    fn child_count(&self) -> u8 {
        (self.children[0] != NIL) as u8 + (self.children[1] != NIL) as u8
    }
}

/// The part of a node only cleanup, iteration, upward climbs and route
/// reads use.
struct Meta {
    parent: NodeIdx,
    /// This node's index in the route array; `NIL` unless `ROUTE` is set.
    slot: Slot,
}

/// A detached, mutation-safe cursor over a [`PatriciaTrie`].
///
/// Obtain with [`PatriciaTrie::iter_handle`], advance with
/// [`PatriciaTrie::iter_next`], and release with
/// [`PatriciaTrie::iter_release`] (dropping the handle without releasing it
/// leaks the pin and one node's memory — harmless but untidy; the trie's
/// `Drop` does not care).
#[derive(Debug)]
pub struct IterHandle {
    cur: NodeIdx,
    /// The generation of `cur` when the handle came to rest on it.
    #[cfg(debug_assertions)]
    generation: u32,
    /// False until the first `iter_next`.
    started: bool,
}

/// Binary radix trie over [`Prefix`] keys.
///
/// Supports exact and longest-prefix lookups, subtree queries, ordinary
/// borrow-based iteration, and the handle-based safe iteration described in
/// the module docs.  Iteration order is (address bits, prefix length) —
/// i.e. a less specific prefix is visited before its more-specifics.
pub struct PatriciaTrie<A: Addr, T> {
    nodes: Vec<Link<A>>,
    meta: Vec<Meta>,
    free: Vec<NodeIdx>,
    routes: Vec<Option<T>>,
    free_slots: Vec<Slot>,
    /// `(node, count)` for every `PINNED` node: the §5.3 iterator refcount.
    pins: Vec<(NodeIdx, u32)>,
    /// Per-node arena generation, bumped on free; detects stale handles.
    #[cfg(debug_assertions)]
    generation: Vec<u32>,
    /// The /16 jump index; empty until the first node of length ≤ 16 other
    /// than the root.
    jump: Vec<NodeIdx>,
}

impl<A: Addr, T> Default for PatriciaTrie<A, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<A: Addr, T> PatriciaTrie<A, T> {
    /// An empty trie.
    pub fn new() -> Self {
        PatriciaTrie {
            nodes: vec![Link {
                prefix: Prefix::default_route(),
                flags: 0,
                children: [NIL, NIL],
            }],
            meta: vec![Meta {
                parent: NIL,
                slot: NIL,
            }],
            free: Vec::new(),
            routes: Vec::new(),
            free_slots: Vec::new(),
            pins: Vec::new(),
            #[cfg(debug_assertions)]
            generation: vec![0],
            jump: Vec::new(),
        }
    }

    /// Number of stored routes (zombie nodes awaiting unlink don't count).
    pub fn len(&self) -> usize {
        self.routes.len() - self.free_slots.len()
    }

    /// True if no routes are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of live nodes — routes, payload-less junctions and zombies,
    /// i.e. arena slots not on the free list.  Each costs one `Link` and
    /// one `Meta`; only a node holding a route also owns a route slot.
    /// `heap_size` charges the arrays' capacity, both free lists, the pin
    /// list and the jump index.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    fn link(&self, i: NodeIdx) -> &Link<A> {
        &self.nodes[i as usize]
    }

    fn link_mut(&mut self, i: NodeIdx) -> &mut Link<A> {
        &mut self.nodes[i as usize]
    }

    fn meta(&self, i: NodeIdx) -> &Meta {
        &self.meta[i as usize]
    }

    fn meta_mut(&mut self, i: NodeIdx) -> &mut Meta {
        &mut self.meta[i as usize]
    }

    /// Node `i`'s route slot, if it holds a route.
    fn slot_of(&self, i: NodeIdx) -> Option<usize> {
        let slot = self.meta(i).slot;
        (slot != NIL).then_some(slot as usize)
    }

    /// Node `i`'s route, if it holds one.
    fn route(&self, i: NodeIdx) -> Option<&T> {
        self.routes[self.slot_of(i)?].as_ref()
    }

    /// Store or clear node `i`'s route, returning the old one: the one
    /// writer of `ROUTE`, `Meta::slot` and the route array, which must
    /// agree.  A node gains a slot with its first route and gives it back
    /// with its last.
    fn set_payload(&mut self, i: NodeIdx, value: Option<T>) -> Option<T> {
        let slot = self.meta(i).slot;
        debug_assert_eq!(self.link(i).has_route(), slot != NIL);
        match (slot, value) {
            (NIL, None) => None,
            (NIL, Some(v)) => {
                let slot = match self.free_slots.pop() {
                    Some(s) => {
                        self.routes[s as usize] = Some(v);
                        s
                    }
                    None => {
                        self.routes.push(Some(v));
                        (self.routes.len() - 1) as Slot
                    }
                };
                self.meta_mut(i).slot = slot;
                self.link_mut(i).flags |= ROUTE;
                None
            }
            (s, Some(v)) => self.routes[s as usize].replace(v),
            (s, None) => {
                self.meta_mut(i).slot = NIL;
                self.link_mut(i).flags &= !ROUTE;
                self.free_slots.push(s);
                self.routes[s as usize].take()
            }
        }
    }

    /// The jump slot of the /16 block holding `p`'s first address.
    fn block(p: &Prefix<A>) -> usize {
        (p.bits() >> (128 - u32::from(JUMP_BITS))) as usize
    }

    /// Where a descent toward `key` starts: for a key of length ≥ 16, the
    /// deepest node of length ≤ 16 containing it (which then lies on its
    /// root path); otherwise the root.
    fn start(&self, key: &Prefix<A>) -> NodeIdx {
        if key.len() >= JUMP_BITS {
            if let Some(&node) = self.jump.get(Self::block(key)) {
                return node;
            }
        }
        ROOT
    }

    /// The jump slots inside `p`, a prefix of length ≤ 16.
    fn slots(p: &Prefix<A>) -> std::ops::Range<usize> {
        let first = Self::block(p);
        first..first + (1 << (JUMP_BITS - p.len()))
    }

    /// Point the jump slots inside `prefix` that name `from` at `to`.
    fn repoint(&mut self, prefix: &Prefix<A>, from: NodeIdx, to: NodeIdx) {
        for slot in &mut self.jump[Self::slots(prefix)] {
            if *slot == from {
                *slot = to;
            }
        }
    }

    fn alloc(&mut self, prefix: Prefix<A>, parent: NodeIdx, payload: Option<T>) -> NodeIdx {
        let link = Link {
            prefix,
            flags: 0,
            children: [NIL, NIL],
        };
        let meta = Meta { parent, slot: NIL };
        let i = if let Some(i) = self.free.pop() {
            *self.link_mut(i) = link;
            *self.meta_mut(i) = meta;
            i
        } else {
            self.nodes.push(link);
            self.meta.push(meta);
            #[cfg(debug_assertions)]
            self.generation.push(0);
            (self.nodes.len() - 1) as NodeIdx
        };
        self.set_payload(i, payload);
        if prefix.len() <= JUMP_BITS {
            if self.jump.is_empty() {
                // Every slot names the root, slot 0: zeroed memory.
                self.jump = vec![ROOT; 1 << JUMP_BITS];
            }
            self.repoint(&prefix, parent, i);
        }
        i
    }

    fn dealloc(&mut self, i: NodeIdx) {
        debug_assert_ne!(i, ROOT);
        debug_assert_eq!(
            self.link(i).flags,
            0,
            "freeing a node with a route or a pin"
        );
        let prefix = self.link(i).prefix;
        if prefix.len() <= JUMP_BITS {
            let parent = self.meta(i).parent;
            self.repoint(&prefix, i, parent);
        }
        #[cfg(debug_assertions)]
        {
            let g = &mut self.generation[i as usize];
            *g = g.wrapping_add(1);
        }
        self.free.push(i);
    }

    /// Which child slot of `parent_prefix` the prefix `p` falls under.
    fn slot(parent_prefix: &Prefix<A>, p: &Prefix<A>) -> usize {
        p.bit(parent_prefix.len()) as usize
    }

    /// Insert `value` at `net`, returning the previous value if any.
    pub fn insert(&mut self, net: Prefix<A>, value: T) -> Option<T> {
        let mut cur = self.start(&net);
        loop {
            let cur_link = *self.link(cur);
            let cur_prefix = cur_link.prefix;
            debug_assert!(cur_prefix.contains(&net));
            if cur_prefix == net {
                return self.set_payload(cur, Some(value));
            }
            let slot = Self::slot(&cur_prefix, &net);
            let child = cur_link.children[slot];
            if child == NIL {
                let leaf = self.alloc(net, cur, Some(value));
                self.link_mut(cur).children[slot] = leaf;
                return None;
            }
            let child_prefix = self.link(child).prefix;
            if child_prefix.contains(&net) {
                cur = child;
                continue;
            }
            if net.contains(&child_prefix) {
                // New node sits between cur and child.
                let mid = self.alloc(net, cur, Some(value));
                let child_slot = Self::slot(&net, &child_prefix);
                self.link_mut(mid).children[child_slot] = child;
                self.meta_mut(child).parent = mid;
                self.link_mut(cur).children[slot] = mid;
                return None;
            }
            // Diverge: split with a payload-less junction at the common
            // subnet, with `net`'s new leaf and `child` beneath it.
            let common = net.common_subnet(&child_prefix);
            debug_assert!(common.len() > cur_prefix.len());
            let junction = self.alloc(common, cur, None);
            let leaf = self.alloc(net, junction, Some(value));
            let net_slot = Self::slot(&common, &net);
            let child_slot = Self::slot(&common, &child_prefix);
            debug_assert_ne!(net_slot, child_slot);
            self.link_mut(junction).children[net_slot] = leaf;
            self.link_mut(junction).children[child_slot] = child;
            self.meta_mut(child).parent = junction;
            self.link_mut(cur).children[slot] = junction;
            return None;
        }
    }

    /// Find the arena node exactly matching `net`, payload-bearing or not.
    fn find_node(&self, net: &Prefix<A>) -> Option<NodeIdx> {
        let mut cur = self.start(net);
        loop {
            let link = self.link(cur);
            if link.prefix == *net {
                return Some(cur);
            }
            if link.prefix.len() >= net.len() {
                return None;
            }
            let child = link.children[Self::slot(&link.prefix, net)];
            if child == NIL || !self.link(child).prefix.contains(net) {
                // Went past; the only remaining possibility is that the
                // child IS net, handled by contains (equal prefixes contain
                // each other).
                return None;
            }
            cur = child;
        }
    }

    /// The route at node `i`, if `i` is a node and holds one.
    fn route_at(&self, i: NodeIdx) -> Option<(Prefix<A>, &T)> {
        if i == NIL {
            return None;
        }
        self.route(i).map(|t| (self.link(i).prefix, t))
    }

    /// The nearest strict ancestor of `i` that holds a route, or `NIL`.
    fn route_above(&self, mut i: NodeIdx) -> NodeIdx {
        loop {
            i = self.meta(i).parent;
            if i == NIL || self.link(i).has_route() {
                return i;
            }
        }
    }

    /// Exact-match lookup.
    pub fn get(&self, net: &Prefix<A>) -> Option<&T> {
        self.find_node(net).and_then(|i| self.route(i))
    }

    /// Exact-match mutable lookup.
    pub fn get_mut(&mut self, net: &Prefix<A>) -> Option<&mut T> {
        let slot = self.slot_of(self.find_node(net)?)?;
        self.routes[slot].as_mut()
    }

    /// True if a route exists exactly at `net`.
    pub fn contains_key(&self, net: &Prefix<A>) -> bool {
        self.get(net).is_some()
    }

    /// Longest-prefix match for an address: the most specific stored route
    /// containing `addr`.
    pub fn longest_match(&self, addr: A) -> Option<(Prefix<A>, &T)> {
        let host = Prefix::host(addr);
        let start = self.start(&host);
        let mut best = NIL;
        let mut cur = start;
        loop {
            let link = self.link(cur);
            if !link.prefix.contains(&host) {
                break;
            }
            if link.has_route() {
                best = cur;
            }
            if link.prefix.len() >= A::BITS {
                break;
            }
            let child = link.children[Self::slot(&link.prefix, &host)];
            if child == NIL {
                break;
            }
            cur = child;
        }
        if best == NIL {
            best = self.route_above(start);
        }
        self.route_at(best)
    }

    /// The most specific stored route that *strictly* contains `net`
    /// (a covering, less-specific route).
    pub fn best_covering(&self, net: &Prefix<A>) -> Option<(Prefix<A>, &T)> {
        // The start node contains `net` and may equal it; everything above
        // it strictly contains `net`.
        let start = self.start(net);
        let mut best = NIL;
        let mut cur = start;
        loop {
            let link = self.link(cur);
            if !(link.prefix.contains(net) && link.prefix.len() < net.len()) {
                break;
            }
            if link.has_route() {
                best = cur;
            }
            let child = link.children[Self::slot(&link.prefix, net)];
            if child == NIL {
                break;
            }
            cur = child;
        }
        if best == NIL {
            best = self.route_above(start);
        }
        self.route_at(best)
    }

    /// Remove the route at `net`, returning its value.
    ///
    /// If safe iterators currently rest on the node, the payload is removed
    /// (so all lookups immediately stop seeing the route) but the node
    /// skeleton is retained until the last iterator departs.
    pub fn remove(&mut self, net: &Prefix<A>) -> Option<T> {
        let idx = self.find_node(net)?;
        let old = self.set_payload(idx, None)?;
        self.cleanup(idx);
        Some(old)
    }

    /// Physically unlink `idx` if it is structurally unnecessary: no
    /// route, no pin, fewer than two children, not the root.  Cascades
    /// upward, since removing a leaf can leave its parent spliceable.  The
    /// only caller of `dealloc`.
    fn cleanup(&mut self, mut idx: NodeIdx) {
        loop {
            if idx == ROOT {
                return;
            }
            let link = *self.link(idx);
            if link.flags != 0 {
                return;
            }
            let parent = self.meta(idx).parent;
            match link.child_count() {
                2 => return,
                1 => {
                    // Splice the single child up to the parent.
                    let child = if link.children[0] != NIL {
                        link.children[0]
                    } else {
                        link.children[1]
                    };
                    let pslot = self.parent_slot(idx);
                    self.link_mut(parent).children[pslot] = child;
                    self.meta_mut(child).parent = parent;
                    self.dealloc(idx);
                    // Parent's child count is unchanged; no cascade.
                    return;
                }
                _ => {
                    let pslot = self.parent_slot(idx);
                    self.link_mut(parent).children[pslot] = NIL;
                    self.dealloc(idx);
                    idx = parent;
                }
            }
        }
    }

    /// Which child slot of its parent `idx` occupies.
    fn parent_slot(&self, idx: NodeIdx) -> usize {
        let parent = self.meta(idx).parent;
        debug_assert_ne!(parent, NIL);
        if self.link(parent).children[0] == idx {
            0
        } else {
            debug_assert_eq!(self.link(parent).children[1], idx);
            1
        }
    }

    /// Preorder successor in the node structure (payload-bearing or not).
    fn next_structural(&self, n: NodeIdx) -> NodeIdx {
        let link = self.link(n);
        if link.children[0] != NIL {
            return link.children[0];
        }
        if link.children[1] != NIL {
            return link.children[1];
        }
        let mut cur = n;
        loop {
            let parent = self.meta(cur).parent;
            if parent == NIL {
                return NIL;
            }
            let p = self.link(parent);
            if p.children[0] == cur && p.children[1] != NIL {
                return p.children[1];
            }
            cur = parent;
        }
    }

    /// The first payload node at-or-after `n` in preorder (inclusive when
    /// `inclusive`).
    fn next_payload(&self, mut n: NodeIdx, inclusive: bool) -> NodeIdx {
        if n == NIL {
            return NIL;
        }
        if !inclusive {
            n = self.next_structural(n);
        }
        while n != NIL && !self.link(n).has_route() {
            n = self.next_structural(n);
        }
        n
    }

    /// The topmost node whose prefix lies inside `net` (the node for `net`
    /// itself if it exists), or `NIL`.
    fn subtree_top(&self, net: &Prefix<A>) -> NodeIdx {
        let mut cur = self.start(net);
        loop {
            let link = self.link(cur);
            if net.contains(&link.prefix) {
                return cur;
            }
            if !link.prefix.contains(net) {
                return NIL;
            }
            let child = link.children[Self::slot(&link.prefix, net)];
            if child == NIL {
                return NIL;
            }
            cur = child;
        }
    }

    // ----- safe (handle-based) iteration -------------------------------

    /// Create a safe iterator positioned before the first route.
    pub fn iter_handle(&mut self) -> IterHandle {
        IterHandle {
            cur: NIL,
            #[cfg(debug_assertions)]
            generation: 0,
            started: false,
        }
    }

    /// Create a safe iterator positioned before the first route at or
    /// below `net` — used by deletion stages draining a peer's table.
    /// Iteration still runs to the very end of the trie; callers bound it
    /// with the subtree check themselves or use ordinary subtree iteration.
    pub fn iter_handle_from(&mut self, net: &Prefix<A>) -> IterHandle {
        let target = self.next_payload(self.subtree_top(net), true);
        let mut h = self.iter_handle();
        // With nothing at or below `net` the handle starts exhausted rather
        // than restarting from the root.
        h.started = target == NIL;
        self.rest(&mut h, target);
        h
    }

    /// Move `h` onto node `n` (`NIL` for past the end), pinning `n`.  The
    /// caller then releases the node `h` rested on before.
    fn rest(&mut self, h: &mut IterHandle, n: NodeIdx) {
        h.cur = n;
        if n == NIL {
            return;
        }
        #[cfg(debug_assertions)]
        {
            h.generation = self.generation[n as usize];
        }
        let link = self.link_mut(n);
        if link.flags & PINNED == 0 {
            link.flags |= PINNED;
            self.pins.push((n, 1));
        } else {
            let k = self.pin_of(n);
            self.pins[k].1 += 1;
        }
    }

    /// Where node `n`'s count sits in `pins`; `n` must be `PINNED`.
    fn pin_of(&self, n: NodeIdx) -> usize {
        debug_assert!(
            self.link(n).flags & PINNED != 0,
            "iterator refcount underflow"
        );
        self.pins
            .iter()
            .position(|&(node, _)| node == n)
            .expect("a pinned node has a pin entry")
    }

    /// One iterator leaves node `idx`.  The last one to leave unpins it
    /// and, if its route was deleted meanwhile, performs the deferred
    /// deletion (§5.3).
    fn leave(&mut self, idx: NodeIdx) {
        if idx == NIL {
            return;
        }
        let k = self.pin_of(idx);
        self.pins[k].1 -= 1;
        if self.pins[k].1 == 0 {
            self.pins.swap_remove(k);
            self.link_mut(idx).flags &= !PINNED;
            self.cleanup(idx);
        }
    }

    /// Advance a safe iterator, returning the next route.
    ///
    /// Safe to call with arbitrary inserts/removes between calls; a route
    /// deleted while the iterator rested on it is skipped, and routes
    /// inserted behind the cursor are not revisited.
    pub fn iter_next(&mut self, h: &mut IterHandle) -> Option<(Prefix<A>, &T)> {
        let next = if h.cur == NIL {
            if h.started {
                return None; // exhausted
            }
            h.started = true;
            self.next_payload(ROOT, true)
        } else {
            #[cfg(debug_assertions)]
            assert_eq!(
                self.generation[h.cur as usize], h.generation,
                "stale iterator handle"
            );
            if !h.started {
                // Handle from iter_handle_from already rests on its first
                // payload node; yield it without advancing.
                h.started = true;
                let cur = h.cur;
                if self.link(cur).has_route() {
                    return self.route_at(cur);
                }
                self.next_payload(cur, false)
            } else {
                self.next_payload(h.cur, false)
            }
        };

        let old = h.cur;
        self.rest(h, next);
        self.leave(old);
        self.route_at(next)
    }

    /// Release a safe iterator, performing any deferred deletion it was
    /// holding up.
    pub fn iter_release(&mut self, h: IterHandle) {
        self.leave(h.cur);
    }

    // ----- borrow-based iteration ---------------------------------------

    /// Iterate all routes in (bits, length) order.  Requires no concurrent
    /// mutation (ordinary borrow rules); use [`IterHandle`] otherwise.
    pub fn iter(&self) -> Iter<'_, A, T> {
        Iter {
            trie: self,
            next: self.next_payload(ROOT, true),
        }
    }

    /// Iterate the routes at or below `net` (i.e. `net` and all of its
    /// more-specifics).
    pub fn iter_subtree(&self, net: &Prefix<A>) -> SubtreeIter<'_, A, T> {
        SubtreeIter {
            trie: self,
            net: *net,
            next: self.next_payload(self.subtree_top(net), true),
        }
    }

    /// True if any route strictly more specific than `net` exists.
    pub fn has_more_specific(&self, net: &Prefix<A>) -> bool {
        self.iter_subtree(net).any(|(p, _)| p != *net)
    }

    /// Collect every stored prefix (test/diagnostic helper).
    pub fn keys(&self) -> Vec<Prefix<A>> {
        self.iter().map(|(p, _)| p).collect()
    }

    /// Remove all routes.  Safe-iterator handles become exhausted (their
    /// nodes are retained until released).
    pub fn clear(&mut self) {
        let prefixes: Vec<Prefix<A>> = self.keys();
        for p in prefixes {
            self.remove(&p);
        }
    }
}

/// Borrow-based full iterator; see [`PatriciaTrie::iter`].
pub struct Iter<'a, A: Addr, T> {
    trie: &'a PatriciaTrie<A, T>,
    next: NodeIdx,
}

impl<'a, A: Addr, T> Iterator for Iter<'a, A, T> {
    type Item = (Prefix<A>, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.trie.route_at(self.next)?;
        self.next = self.trie.next_payload(self.next, false);
        Some(item)
    }
}

/// Borrow-based subtree iterator; see [`PatriciaTrie::iter_subtree`].
pub struct SubtreeIter<'a, A: Addr, T> {
    trie: &'a PatriciaTrie<A, T>,
    net: Prefix<A>,
    next: NodeIdx,
}

impl<'a, A: Addr, T> Iterator for SubtreeIter<'a, A, T> {
    type Item = (Prefix<A>, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        let item = self
            .trie
            .route_at(self.next)
            .filter(|(p, _)| self.net.contains(p));
        self.next = match item {
            Some(_) => self.trie.next_payload(self.next, false),
            None => NIL,
        };
        item
    }
}

impl<'a, A: Addr, T> IntoIterator for &'a PatriciaTrie<A, T> {
    type Item = (Prefix<A>, &'a T);
    type IntoIter = Iter<'a, A, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<A: Addr, T: fmt::Debug> fmt::Debug for PatriciaTrie<A, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<A: Addr, T: HeapSize> HeapSize for PatriciaTrie<A, T> {
    /// The link and `Meta` arrays (one entry per node), the route array
    /// (one slot per peak route) and each route's own heap, both free
    /// lists and the pin list, all at capacity, and the jump index once
    /// allocated.  Debug builds add the generation array.
    fn heap_size(&self) -> usize {
        let bytes = self.nodes.capacity() * std::mem::size_of::<Link<A>>()
            + self.meta.capacity() * std::mem::size_of::<Meta>()
            + self.routes.heap_size()
            + self.free.heap_size()
            + self.free_slots.heap_size()
            + self.pins.capacity() * std::mem::size_of::<(NodeIdx, u32)>()
            + self.jump.heap_size();
        #[cfg(debug_assertions)]
        let bytes = bytes + self.generation.heap_size();
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    type Trie = PatriciaTrie<Ipv4Addr, u32>;

    fn p(s: &str) -> Prefix<Ipv4Addr> {
        s.parse().unwrap()
    }

    fn a(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    impl<A: Addr, T> PatriciaTrie<A, T> {
        /// Panic unless every jump slot names the deepest live node of
        /// length ≤ 16 containing its block (the root if none).
        fn check_jump_index(&self) {
            // An unallocated index reads as every slot naming the root.
            let got = |b: usize| self.jump.get(b).copied().unwrap_or(ROOT);
            // Preorder fill: a deeper node overwrites its ancestors' range.
            let mut want = vec![ROOT; 1 << JUMP_BITS];
            let mut stack = vec![ROOT];
            while let Some(n) = stack.pop() {
                let link = self.link(n);
                if link.prefix.len() > JUMP_BITS {
                    continue;
                }
                want[Self::slots(&link.prefix)].fill(n);
                stack.extend(link.children.iter().filter(|&&c| c != NIL));
            }
            if let Some(b) = (0..want.len()).find(|&b| want[b] != got(b)) {
                panic!(
                    "jump slot {b:#06x} names node {} ({:?}), want {} ({:?})",
                    got(b),
                    self.link(got(b)).prefix,
                    want[b],
                    self.link(want[b]).prefix
                );
            }
        }
    }

    #[test]
    fn insert_get_remove() {
        let mut t = Trie::new();
        assert_eq!(t.insert(p("10.0.0.0/8"), 1), None);
        assert_eq!(t.insert(p("10.1.0.0/16"), 2), None);
        assert_eq!(t.insert(p("10.0.0.0/8"), 3), Some(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&3));
        assert_eq!(t.get(&p("10.1.0.0/16")), Some(&2));
        assert_eq!(t.get(&p("10.2.0.0/16")), None);
        assert_eq!(t.remove(&p("10.0.0.0/8")), Some(3));
        assert_eq!(t.remove(&p("10.0.0.0/8")), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn default_route_storable() {
        let mut t = Trie::new();
        t.insert(p("0.0.0.0/0"), 9);
        assert_eq!(t.get(&p("0.0.0.0/0")), Some(&9));
        assert_eq!(t.longest_match(a("1.2.3.4")).unwrap().0, p("0.0.0.0/0"));
        assert_eq!(t.remove(&p("0.0.0.0/0")), Some(9));
        assert!(t.is_empty());
    }

    #[test]
    fn longest_match_walks_down() {
        let mut t = Trie::new();
        t.insert(p("128.16.0.0/16"), 16);
        t.insert(p("128.16.0.0/18"), 18);
        t.insert(p("128.16.128.0/17"), 17);
        t.insert(p("128.16.192.0/18"), 19);
        // The Figure 8 queries:
        assert_eq!(
            t.longest_match(a("128.16.32.1")).unwrap().0,
            p("128.16.0.0/18")
        );
        assert_eq!(
            t.longest_match(a("128.16.160.1")).unwrap().0,
            p("128.16.128.0/17")
        );
        assert_eq!(
            t.longest_match(a("128.16.192.1")).unwrap().0,
            p("128.16.192.0/18")
        );
        assert_eq!(
            t.longest_match(a("128.16.64.1")).unwrap().0,
            p("128.16.0.0/16")
        );
        assert_eq!(t.longest_match(a("1.1.1.1")), None);
    }

    /// The jump slot for 10.1/16 names a payload-less junction whose
    /// subtree holds no route for the address; the answer is the /8 above.
    #[test]
    fn longest_match_climbs_above_a_routeless_start_node() {
        let mut t = Trie::new();
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/24"), 24);
        t.insert(p("10.1.128.0/24"), 124);
        let start = t.start(&Prefix::host(a("10.1.64.1")));
        assert_eq!(t.link(start).prefix, p("10.1.0.0/16"));
        assert!(!t.link(start).has_route());
        assert_eq!(t.longest_match(a("10.1.64.1")), Some((p("10.0.0.0/8"), &8)));
        assert_eq!(
            t.best_covering(&p("10.1.64.0/24")),
            Some((p("10.0.0.0/8"), &8))
        );
        assert_eq!(
            t.longest_match(a("10.1.128.9")),
            Some((p("10.1.128.0/24"), &124))
        );
        t.remove(&p("10.0.0.0/8"));
        assert_eq!(t.longest_match(a("10.1.64.1")), None);
        t.check_jump_index();
    }

    /// IPv6 keys index on their top 16 bits, like IPv4 keys.
    #[test]
    fn jump_index_uses_the_top_16_bits_of_v6() {
        let mut t: PatriciaTrie<Ipv6Addr, u32> = PatriciaTrie::new();
        let p6 = |s: &str| -> Prefix<Ipv6Addr> { s.parse().unwrap() };
        let a6 = |s: &str| -> Ipv6Addr { s.parse().unwrap() };
        t.insert(p6("2001::/16"), 16);
        t.insert(p6("2001:db8::/32"), 32);
        t.insert(p6("2400::/8"), 8);
        t.check_jump_index();
        // 2001::/16 and 2400::/8 meet under a junction at 2000::/5.
        let slot_prefix = |t: &PatriciaTrie<Ipv6Addr, u32>, b: usize| t.link(t.jump[b]).prefix;
        let top = t.start(&p6("2001:db8::/32"));
        assert_eq!(t.link(top).prefix, p6("2001::/16"));
        assert_eq!(t.jump[0x2001], top);
        assert_eq!(slot_prefix(&t, 0x24ff), p6("2400::/8"));
        assert_eq!(slot_prefix(&t, 0x2002), p6("2000::/5"));
        assert_eq!(t.jump[0x3001], ROOT);
        assert_eq!(t.longest_match(a6("2001:db8::1")).unwrap().1, &32);
        assert_eq!(t.longest_match(a6("2001:dead::1")).unwrap().1, &16);
        assert_eq!(t.longest_match(a6("24ab::1")).unwrap().1, &8);
        assert_eq!(t.longest_match(a6("2002::1")), None);
        t.remove(&p6("2001::/16"));
        t.check_jump_index();
        assert_eq!(slot_prefix(&t, 0x2001), p6("2000::/5"));
        assert_eq!(t.longest_match(a6("2001:db8::1")).unwrap().1, &32);
        assert_eq!(t.longest_match(a6("2001:dead::1")), None);
    }

    /// The array every descent walks stays at 16 bytes per IPv4 node.
    #[test]
    fn ipv4_link_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Link<Ipv4Addr>>(), 16);
    }

    /// Random churn over covering and more-specific prefixes in a few /16
    /// blocks, with safe iterators pinning zombies: after every operation
    /// each jump slot names the deepest node of length ≤ 16 over its block.
    #[test]
    fn jump_index_tracks_churn_and_zombies() {
        let blocks = [0x0a01u32, 0x0a02, 0x0a81, 0xc0a8];
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut t = Trie::new();
        let mut handles = Vec::new();
        for step in 0..600 {
            let r = next();
            let block = blocks[(r % 4) as usize];
            let len = if r & 0x30 == 0 {
                (r >> 8) as u8 % 17
            } else {
                16 + (r >> 8) as u8 % 17
            };
            let net =
                Prefix::new(Ipv4Addr::from(block << 16 | (r >> 32) as u32 & 0xffff), len).unwrap();
            match (r >> 40) % 8 {
                0..=3 => {
                    t.insert(net, step);
                }
                4..=6 => {
                    t.remove(&net);
                }
                _ => {
                    // Rest an iterator somewhere, or release the oldest.
                    if handles.len() < 3 {
                        let mut h = t.iter_handle_from(&net);
                        t.iter_next(&mut h);
                        handles.push(h);
                    } else {
                        t.iter_release(handles.remove(0));
                    }
                }
            }
            t.check_jump_index();
        }
        for h in handles {
            t.iter_release(h);
        }
        t.check_jump_index();
        t.clear();
        t.check_jump_index();
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn divergent_insert_creates_junction() {
        let mut t = Trie::new();
        t.insert(p("10.64.0.0/16"), 1);
        t.insert(p("10.128.0.0/16"), 2);
        // Junction is 10.0.0.0/8-ish payload-less node; both reachable.
        assert_eq!(t.get(&p("10.64.0.0/16")), Some(&1));
        assert_eq!(t.get(&p("10.128.0.0/16")), Some(&2));
        assert_eq!(t.len(), 2);
        // Junction carries no payload:
        assert_eq!(t.get(&p("10.0.0.0/8")), None);
    }

    #[test]
    fn insert_between_parent_and_child() {
        let mut t = Trie::new();
        t.insert(p("10.1.1.0/24"), 24);
        t.insert(p("10.0.0.0/8"), 8); // goes above the /24
        t.insert(p("10.1.0.0/16"), 16); // goes between them
        assert_eq!(t.longest_match(a("10.1.1.5")).unwrap().1, &24);
        assert_eq!(t.longest_match(a("10.1.2.5")).unwrap().1, &16);
        assert_eq!(t.longest_match(a("10.9.9.9")).unwrap().1, &8);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut t = Trie::new();
        let mut prefixes = vec![
            p("192.168.0.0/16"),
            p("10.0.0.0/8"),
            p("10.1.0.0/16"),
            p("172.16.0.0/12"),
            p("10.1.128.0/17"),
            p("0.0.0.0/0"),
        ];
        for (i, pre) in prefixes.iter().enumerate() {
            t.insert(*pre, i as u32);
        }
        prefixes.sort();
        assert_eq!(t.keys(), prefixes);
    }

    #[test]
    fn subtree_iteration() {
        let mut t = Trie::new();
        for s in [
            "10.0.0.0/8",
            "10.1.0.0/16",
            "10.1.2.0/24",
            "10.2.0.0/16",
            "11.0.0.0/8",
        ] {
            t.insert(p(s), 0);
        }
        let subtree: Vec<_> = t.iter_subtree(&p("10.1.0.0/16")).map(|(k, _)| k).collect();
        assert_eq!(subtree, vec![p("10.1.0.0/16"), p("10.1.2.0/24")]);
        let all10: Vec<_> = t.iter_subtree(&p("10.0.0.0/8")).map(|(k, _)| k).collect();
        assert_eq!(all10.len(), 4);
        assert!(t.iter_subtree(&p("12.0.0.0/8")).next().is_none());
        assert!(t.has_more_specific(&p("10.1.0.0/16")));
        assert!(!t.has_more_specific(&p("10.1.2.0/24")));
        assert!(!t.has_more_specific(&p("11.0.0.0/8")));
    }

    #[test]
    fn best_covering_strict() {
        let mut t = Trie::new();
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        assert_eq!(
            t.best_covering(&p("10.1.0.0/16")).unwrap().0,
            p("10.0.0.0/8")
        );
        assert_eq!(
            t.best_covering(&p("10.1.2.0/24")).unwrap().0,
            p("10.1.0.0/16")
        );
        assert_eq!(t.best_covering(&p("10.0.0.0/8")), None);
        assert_eq!(t.best_covering(&p("11.0.0.0/8")), None);
    }

    #[test]
    fn safe_iter_basic_traversal() {
        let mut t = Trie::new();
        for s in ["10.0.0.0/8", "10.1.0.0/16", "20.0.0.0/8"] {
            t.insert(p(s), 0);
        }
        let mut h = t.iter_handle();
        let mut seen = Vec::new();
        while let Some((k, _)) = t.iter_next(&mut h) {
            seen.push(k);
        }
        t.iter_release(h);
        assert_eq!(
            seen,
            vec![p("10.0.0.0/8"), p("10.1.0.0/16"), p("20.0.0.0/8")]
        );
    }

    #[test]
    fn safe_iter_survives_deletion_of_current_node() {
        let mut t = Trie::new();
        for s in ["10.0.0.0/8", "10.1.0.0/16", "20.0.0.0/8"] {
            t.insert(p(s), 0);
        }
        let mut h = t.iter_handle();
        assert_eq!(t.iter_next(&mut h).unwrap().0, p("10.0.0.0/8"));
        // Delete the node the iterator rests on: payload vanishes but the
        // iterator stays valid.
        assert_eq!(t.remove(&p("10.0.0.0/8")), Some(0));
        assert_eq!(t.get(&p("10.0.0.0/8")), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.iter_next(&mut h).unwrap().0, p("10.1.0.0/16"));
        assert_eq!(t.iter_next(&mut h).unwrap().0, p("20.0.0.0/8"));
        assert_eq!(t.iter_next(&mut h), None);
        t.iter_release(h);
        // Deferred deletion completed: structure fully clean.
        assert_eq!(t.keys(), vec![p("10.1.0.0/16"), p("20.0.0.0/8")]);
    }

    #[test]
    fn deferred_deletion_happens_on_release() {
        let mut t = Trie::new();
        t.insert(p("10.0.0.0/8"), 0);
        t.insert(p("20.0.0.0/8"), 0);
        let before_nodes = t.node_count();
        let mut h = t.iter_handle();
        t.iter_next(&mut h); // rest on 10/8
        t.remove(&p("10.0.0.0/8"));
        // Node skeleton retained while the iterator rests on it.
        assert!(t.node_count() >= before_nodes);
        t.iter_release(h);
        // Released without advancing: the zombie is now reclaimed.
        assert!(t.node_count() < before_nodes);
        assert_eq!(t.keys(), vec![p("20.0.0.0/8")]);
    }

    #[test]
    fn two_iterators_on_same_node() {
        let mut t = Trie::new();
        t.insert(p("10.0.0.0/8"), 0);
        t.insert(p("20.0.0.0/8"), 0);
        let mut h1 = t.iter_handle();
        let mut h2 = t.iter_handle();
        t.iter_next(&mut h1);
        t.iter_next(&mut h2); // both rest on 10/8
        t.remove(&p("10.0.0.0/8"));
        t.iter_release(h1); // first leaves: node must survive for h2
        assert_eq!(t.iter_next(&mut h2).unwrap().0, p("20.0.0.0/8"));
        assert_eq!(t.iter_next(&mut h2), None);
        t.iter_release(h2);
        assert_eq!(t.keys(), vec![p("20.0.0.0/8")]);
    }

    #[test]
    fn reinsert_into_zombie_node() {
        let mut t = Trie::new();
        t.insert(p("10.0.0.0/8"), 1);
        t.insert(p("20.0.0.0/8"), 1);
        let mut h = t.iter_handle();
        t.iter_next(&mut h); // rest on 10/8
        t.remove(&p("10.0.0.0/8"));
        // Re-add while the node is a zombie: must resurrect cleanly.
        t.insert(p("10.0.0.0/8"), 2);
        assert_eq!(t.get(&p("10.0.0.0/8")), Some(&2));
        // Iterator continues; it does NOT revisit the resurrected node.
        assert_eq!(t.iter_next(&mut h).unwrap().0, p("20.0.0.0/8"));
        t.iter_release(h);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn insertions_ahead_of_cursor_are_seen() {
        let mut t = Trie::new();
        t.insert(p("10.0.0.0/8"), 0);
        t.insert(p("30.0.0.0/8"), 0);
        let mut h = t.iter_handle();
        assert_eq!(t.iter_next(&mut h).unwrap().0, p("10.0.0.0/8"));
        t.insert(p("20.0.0.0/8"), 0); // ahead of cursor
        t.insert(p("5.0.0.0/8"), 0); // behind cursor
        let rest: Vec<_> = std::iter::from_fn(|| t.iter_next(&mut h).map(|(k, _)| k)).collect();
        t.iter_release(h);
        assert_eq!(rest, vec![p("20.0.0.0/8"), p("30.0.0.0/8")]);
    }

    #[test]
    fn iter_handle_from_subtree_start() {
        let mut t = Trie::new();
        for s in ["10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24", "20.0.0.0/8"] {
            t.insert(p(s), 0);
        }
        let mut h = t.iter_handle_from(&p("10.1.0.0/16"));
        assert_eq!(t.iter_next(&mut h).unwrap().0, p("10.1.0.0/16"));
        assert_eq!(t.iter_next(&mut h).unwrap().0, p("10.1.2.0/24"));
        // Runs past the subtree by design.
        assert_eq!(t.iter_next(&mut h).unwrap().0, p("20.0.0.0/8"));
        t.iter_release(h);
    }

    #[test]
    fn clear_empties() {
        let mut t = Trie::new();
        for i in 0..100u32 {
            t.insert(Prefix::new(Ipv4Addr::from(i << 16), 16).unwrap(), i);
        }
        assert_eq!(t.len(), 100);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn node_reuse_via_free_list() {
        let mut t = Trie::new();
        for round in 0..3 {
            for i in 0..50u32 {
                t.insert(Prefix::new(Ipv4Addr::from(i << 20), 12).unwrap(), round);
            }
            for i in 0..50u32 {
                t.remove(&Prefix::new(Ipv4Addr::from(i << 20), 12).unwrap());
            }
        }
        assert!(t.is_empty());
        // Arena does not grow unboundedly across rounds.
        assert!(t.nodes.len() < 200, "arena grew to {}", t.nodes.len());
    }

    #[test]
    fn heap_size_nonzero() {
        let mut t = Trie::new();
        t.insert(p("10.0.0.0/8"), 7);
        assert!(t.heap_size() > 0);
    }

    /// The side entry every node pays holds a parent and a route slot.
    #[test]
    fn meta_is_8_bytes() {
        assert_eq!(std::mem::size_of::<Meta>(), 8);
    }

    /// Two diverging prefixes make a root, a junction and two leaves, but
    /// only the leaves own a route slot.
    #[test]
    fn junctions_own_no_route_slot() {
        let mut t = Trie::new();
        t.insert(p("10.64.0.0/16"), 1);
        t.insert(p("10.128.0.0/16"), 2);
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.routes.len(), 2);
        let junction = t.find_node(&p("10.0.0.0/8")).unwrap();
        assert_eq!(t.meta(junction).slot, NIL);
        assert_eq!(t.meta(ROOT).slot, NIL);
    }

    /// Withdrawn routes hand their slots back, and a reload takes them
    /// again: the route array stays at its first peak.
    #[test]
    fn route_slots_are_reused() {
        let nets: Vec<_> = (0..1_000u32)
            .map(|i| Prefix::new(Ipv4Addr::from(0x0a00_0000 | i << 8), 24).unwrap())
            .collect();
        let mut t = Trie::new();
        for (i, net) in nets.iter().enumerate() {
            t.insert(*net, i as u32);
        }
        let (peak, capacity) = (t.routes.len(), t.routes.capacity());
        assert_eq!(peak, 1_000);
        for net in &nets {
            t.remove(net);
        }
        assert!(t.is_empty());
        assert_eq!(t.free_slots.len(), peak);
        for (i, net) in nets.iter().enumerate().rev() {
            t.insert(*net, i as u32 + 1);
        }
        assert_eq!(t.len(), 1_000);
        assert_eq!(t.routes.len(), peak);
        assert_eq!(t.routes.capacity(), capacity);
        assert!(t.free_slots.is_empty());
        assert_eq!(t.get(&nets[7]), Some(&8));
    }

    /// Two handles on one node share one pin entry; the node stays PINNED
    /// until the second leaves, which then reclaims the zombie.
    #[test]
    fn pin_clears_when_the_last_of_two_handles_leaves() {
        let mut t = Trie::new();
        t.insert(p("10.0.0.0/8"), 0);
        t.insert(p("20.0.0.0/8"), 0);
        let node = t.find_node(&p("10.0.0.0/8")).unwrap();
        let pinned = |t: &Trie| t.link(node).flags & PINNED != 0;
        let mut h1 = t.iter_handle();
        let mut h2 = t.iter_handle();
        t.iter_next(&mut h1);
        assert!(pinned(&t));
        t.iter_next(&mut h2);
        assert_eq!(t.pins, vec![(node, 2)]);
        t.remove(&p("10.0.0.0/8"));
        assert_eq!(t.meta(node).slot, NIL);
        assert_eq!(t.node_count(), 4, "the zombie stays linked");
        t.iter_release(h1);
        assert!(pinned(&t));
        assert_eq!(t.pins, vec![(node, 1)]);
        t.iter_next(&mut h2);
        assert!(!pinned(&t));
        assert_eq!(t.node_count(), 2, "the last leaver reclaimed the zombie");
        assert!(t.find_node(&p("10.0.0.0/8")).is_none());
        t.iter_release(h2);
        assert!(t.pins.is_empty());
        assert_eq!(t.keys(), vec![p("20.0.0.0/8")]);
    }

    /// A handle whose node was freed and reused trips the generation check
    /// (debug builds keep the generations).  The handle here comes from a
    /// second trie whose node 1 has been freed once.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stale iterator handle")]
    fn recycled_node_trips_the_stale_handle_check() {
        let mut other = Trie::new();
        other.insert(p("10.0.0.0/8"), 0);
        other.remove(&p("10.0.0.0/8"));
        other.insert(p("20.0.0.0/8"), 0);
        let mut h = other.iter_handle_from(&p("20.0.0.0/8"));
        assert_eq!(h.cur, 1);
        let mut t = Trie::new();
        t.insert(p("30.0.0.0/8"), 0);
        t.iter_next(&mut h);
    }
}
