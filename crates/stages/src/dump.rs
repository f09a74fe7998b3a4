//! Background route dumps (§5.3).
//!
//! "When a new peering comes up, the new peer needs to be sent the entire
//! routing table.  At the same time, the router needs to continue
//! processing routing updates.  ... a background task walks the relevant
//! routing tables, and sends the routes to the new peer."  The walk must
//! be interleaved with live churn such that the new reader sees each
//! prefix *exactly once* — either from the dump, or from a live
//! add/replace/delete that overtook the dump, or not at all when the route
//! died before the dump reached it.
//!
//! [`DumpStage`] is spliced in front of a newly attached reader.  A
//! cooperative background task pulls prefixes from one or more
//! [`DumpSource`]s (typically safe-iterator walks of the origin tables,
//! §5.3), looks each route up *upstream* — routes are stored only in the
//! origin stages, so the dump never copies a table — and emits an `Add`
//! downstream.  Live operations delivered to the reader pass through the
//! stage's intercept:
//!
//! * prefix already dumped (or dump finished) → forward verbatim;
//! * first contact via a live `Add` → forward, and skip it when the dump
//!   walk reaches it later;
//! * first contact via a live `Replace` → the reader never saw the old
//!   route, so forward an `Add` of the new one;
//! * first contact via a live `Delete` → the reader never saw the route at
//!   all: suppress, and remember the prefix so the dump does not
//!   resurrect it.
//!
//! The `synced` set this requires is transient — it lives only for the
//! duration of the dump and is freed on completion, unlike the permanent
//! full-table mirrors it replaces.
//!
//! A dump shares its reader's flow cell ([`DumpStage::set_flow`]) and reads
//! it before every slice: while the reader's lane is in Xoff the walk
//! parks, and [`DumpStage::start`] restarts it once the cell reopens.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;

use xorp_event::{EventLoop, SliceResult};
use xorp_net::{Addr, HeapSize, IterHandle, PatriciaTrie, Prefix};

use crate::{OriginId, RouteOp, Stage, StageRef};

/// Routes one background slice visits: a dump's prefixes, a deletion
/// stage's routes, a refilter's reconciled prefixes.
pub const SLICE_SIZE: usize = 64;

/// A cursor over the prefixes a dump must visit.  Implementations wrap the
/// safe iterator handles of the origin tables; `Drop` must release any
/// handle so zombie trie nodes are freed even when the dump is aborted.
pub trait DumpSource<A: Addr> {
    /// The next prefix to visit, or `None` when this source is exhausted.
    fn next_prefix(&mut self) -> Option<Prefix<A>>;
}

/// A [`DumpSource`] over a fixed prefix list — used by tests and by
/// callers that snapshot small key sets.
pub struct VecSource<A: Addr>(std::collections::VecDeque<Prefix<A>>);

impl<A: Addr> VecSource<A> {
    /// Source that yields the given prefixes in order.
    pub fn new(nets: impl IntoIterator<Item = Prefix<A>>) -> Self {
        VecSource(nets.into_iter().collect())
    }
}

impl<A: Addr> DumpSource<A> for VecSource<A> {
    fn next_prefix(&mut self) -> Option<Prefix<A>> {
        self.0.pop_front()
    }
}

/// A stage whose routes live in one trie a dump can walk (§5.3).
pub trait TrieTable {
    /// The address family.
    type Addr: Addr;
    /// The stored route type.
    type Route;

    /// The trie holding the stage's routes, for [`TableSource`]'s cursor
    /// (a safe iterator needs `&mut`).  A write through it would bypass
    /// the stage's downstream messages.
    fn trie(&mut self) -> &mut PatriciaTrie<Self::Addr, Self::Route>;

    /// Bumped whenever the trie is swapped out wholesale, stranding any
    /// handle into the old one.
    fn epoch(&self) -> u64 {
        0
    }
}

/// A [`DumpSource`] walking a [`TrieTable`] with a safe iterator handle
/// (§5.3): the table may be freely mutated between steps, deleted nodes
/// lingering as zombies until the handle moves on.  If the trie is swapped
/// out underneath the walk (a BGP peering flapped and its table went to a
/// deletion stage), the epoch check reports the source exhausted instead
/// of touching freed nodes, and the stale handle is dropped without
/// release: its pinned nodes belong to the old trie and die with it.
pub struct TableSource<T: TrieTable> {
    table: Rc<RefCell<T>>,
    handle: Option<IterHandle>,
    epoch: u64,
}

impl<T: TrieTable> TableSource<T> {
    /// Open a walk over `table`'s current trie.
    pub fn new(table: Rc<RefCell<T>>) -> Self {
        let (handle, epoch) = {
            let mut t = table.borrow_mut();
            (t.trie().iter_handle(), t.epoch())
        };
        TableSource {
            table,
            handle: Some(handle),
            epoch,
        }
    }
}

impl<T: TrieTable> DumpSource<T::Addr> for TableSource<T> {
    fn next_prefix(&mut self) -> Option<Prefix<T::Addr>> {
        let h = self.handle.as_mut()?;
        let mut t = self.table.borrow_mut();
        if t.epoch() != self.epoch {
            self.handle = None;
            return None;
        }
        let next = t.trie().iter_next(h).map(|(net, _)| net);
        if next.is_none() {
            // Exhausted: release eagerly so the trie drops any zombie node.
            let h = self.handle.take().expect("handle checked above");
            t.trie().iter_release(h);
        }
        next
    }
}

impl<T: TrieTable> Drop for TableSource<T> {
    fn drop(&mut self) {
        if let (Some(h), Ok(mut t)) = (self.handle.take(), self.table.try_borrow_mut()) {
            if t.epoch() == self.epoch {
                t.trie().iter_release(h);
            }
        }
    }
}

/// A stage that streams upstream state to a newly attached reader in
/// bounded background slices, while live churn flows through it.
pub struct DumpStage<A: Addr, R: Clone> {
    label: String,
    downstream: Option<StageRef<A, R>>,
    /// Upstream stage queried for the current route to each dumped prefix.
    lookup: StageRef<A, R>,
    sources: Vec<Box<dyn DumpSource<A>>>,
    /// Prefixes the reader has been told about (dumped, or first-contacted
    /// by a live op).  Cleared when the dump completes.
    synced: BTreeSet<Prefix<A>>,
    /// Per-reader translation of a looked-up route: origin to attribute it
    /// to and the (possibly rewritten) route, or `None` to withhold it
    /// (split horizon, policy).
    #[allow(clippy::type_complexity)]
    transform: Box<dyn Fn(&R) -> Option<(OriginId, R)>>,
    /// Invoked before every slice, outside any borrow of this stage — the
    /// fanout uses it to flush the reader's queued deliveries so upstream
    /// lookups agree with what the reader has consumed.
    #[allow(clippy::type_complexity)]
    before_slice: Option<Box<dyn FnMut(&mut EventLoop)>>,
    /// Invoked once when the walk completes (not when aborted).
    #[allow(clippy::type_complexity)]
    on_done: Option<Box<dyn FnOnce(&mut EventLoop)>>,
    /// The reader's flow cell, read before every slice: while it reads
    /// `false` the walk is parked.
    flow: Rc<Cell<bool>>,
    done: bool,
    task_live: bool,
}

impl<A: Addr, R: Clone> DumpStage<A, R> {
    /// New dump stage; `lookup` is the upstream stage whose `lookup_route`
    /// answers are streamed to the reader.
    pub fn new(label: impl Into<String>, lookup: StageRef<A, R>) -> Self {
        DumpStage {
            label: label.into(),
            downstream: None,
            lookup,
            sources: Vec::new(),
            synced: BTreeSet::new(),
            transform: Box::new(|_| None),
            before_slice: None,
            on_done: None,
            flow: Rc::new(Cell::new(true)),
            done: false,
            task_live: false,
        }
    }

    /// Append a prefix source; sources are drained in order.
    pub fn add_source(&mut self, s: Box<dyn DumpSource<A>>) {
        self.sources.push(s);
    }

    /// Identity transform: every looked-up route is emitted unmodified,
    /// attributed to `origin`.
    pub fn passthrough(&mut self, origin: OriginId) {
        self.transform = Box::new(move |r| Some((origin, r.clone())));
    }

    /// Per-reader route translation (see [`DumpStage::transform`] field
    /// docs).
    pub fn set_transform(&mut self, f: impl Fn(&R) -> Option<(OriginId, R)> + 'static) {
        self.transform = Box::new(f);
    }

    /// Hook run before every slice without any borrow of this stage held.
    pub fn set_before_slice(&mut self, f: impl FnMut(&mut EventLoop) + 'static) {
        self.before_slice = Some(Box::new(f));
    }

    /// Completion callback (runs on natural completion, not on abort).
    pub fn set_on_done(&mut self, f: impl FnOnce(&mut EventLoop) + 'static) {
        self.on_done = Some(Box::new(f));
    }

    /// True once the walk has completed (or the dump was aborted).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Prefixes delivered so far (dump + live first contacts).
    pub fn synced_count(&self) -> usize {
        self.synced.len()
    }

    /// Share the reader's flow cell.  While it reads `false` the walk is
    /// parked: the background task exits at its next wake-up instead of
    /// spinning, and live ops still flow through the intercept.  Once the
    /// cell reopens, [`DumpStage::start`] restarts the walk where it
    /// stopped.
    pub fn set_flow(&mut self, flow: Rc<Cell<bool>>) {
        self.flow = flow;
    }

    /// Abandon the dump: drop the sources (releasing their iterator
    /// handles) and free the synced set.  The stage behaves as a plain
    /// pass-through afterwards; `on_done` does not fire.
    pub fn abort(&mut self) {
        self.done = true;
        self.on_done = None;
        self.sources.clear();
        self.synced.clear();
    }

    /// Start the background walk, or restart a parked one.  `me` must be
    /// the shared handle this stage lives in (the task re-enters through
    /// it).  A no-op while the task is live or the walk is done.
    pub fn start(el: &mut EventLoop, me: Rc<RefCell<DumpStage<A, R>>>)
    where
        A: 'static,
        R: 'static,
    {
        {
            let mut s = me.borrow_mut();
            if s.task_live || s.done {
                return;
            }
            s.task_live = true;
        }
        el.spawn_background(move |el| {
            // Flush the reader's queued deliveries (etc.) with no borrow
            // of the stage held: the hook may re-enter route_op.
            // NB: take the hook in its own statement — an `if let` on the
            // borrow_mut() call would hold the borrow across hook(el).
            let hook = me.borrow_mut().before_slice.take();
            if let Some(mut hook) = hook {
                hook(el);
                let mut s = me.borrow_mut();
                if s.before_slice.is_none() {
                    s.before_slice = Some(hook);
                }
            }
            // Parked or aborted: exit rather than spin — a background task
            // that always returns Continue would hang `run_until_idle`.
            // Checked after the hook: a flush the closed cell cut short
            // leaves queued ops the slice's lookups would run ahead of.
            {
                let mut s = me.borrow_mut();
                if s.done || !s.flow.get() {
                    s.task_live = false;
                    return SliceResult::Done;
                }
            }
            // Collect one slice of adds under the borrow; emit after
            // releasing it.
            let (ops, downstream, done) = {
                let mut s = me.borrow_mut();
                let mut ops = Vec::with_capacity(SLICE_SIZE);
                while ops.len() < SLICE_SIZE {
                    let net = loop {
                        match s.sources.first_mut() {
                            None => break None,
                            Some(src) => match src.next_prefix() {
                                Some(net) => break Some(net),
                                None => {
                                    s.sources.remove(0);
                                }
                            },
                        }
                    };
                    let Some(net) = net else { break };
                    if !s.synced.insert(net) {
                        continue; // live churn got here first
                    }
                    // `lookup` is a different cell than `me`; no aliasing.
                    let found = s.lookup.borrow().lookup_route(&net);
                    if let Some(r) = found {
                        if let Some((origin, route)) = (s.transform)(&r) {
                            ops.push((origin, RouteOp::Add { net, route }));
                        }
                    }
                }
                let done = s.sources.is_empty();
                (ops, s.downstream.clone(), done)
            };
            if let Some(d) = &downstream {
                let emitted = !ops.is_empty();
                for (origin, op) in ops {
                    d.borrow_mut().route_op(el, origin, op);
                }
                if emitted || done {
                    d.borrow_mut().push(el);
                }
            }
            if done {
                let cb = {
                    let mut s = me.borrow_mut();
                    s.done = true;
                    s.task_live = false;
                    s.synced = BTreeSet::new(); // transient state: free it
                    s.on_done.take()
                };
                if let Some(cb) = cb {
                    cb(el);
                }
                SliceResult::Done
            } else {
                SliceResult::Continue
            }
        });
    }
}

impl<A: Addr, R: Clone> Stage<A, R> for DumpStage<A, R> {
    fn name(&self) -> String {
        format!("dump[{}]", self.label)
    }

    fn route_op(&mut self, el: &mut EventLoop, origin: OriginId, op: RouteOp<A, R>) {
        let Some(d) = self.downstream.clone() else {
            return;
        };
        if self.done || !self.synced.insert(op.net()) {
            // Dump finished, or the reader already knows this prefix:
            // plain pass-through.
            d.borrow_mut().route_op(el, origin, op);
            return;
        }
        // First contact for this prefix arrives via live churn, ahead of
        // the dump walk.
        match op {
            RouteOp::Add { .. } => d.borrow_mut().route_op(el, origin, op),
            RouteOp::Replace { net, new, .. } => {
                // The reader never saw `old`; to it this is a plain add.
                d.borrow_mut()
                    .route_op(el, origin, RouteOp::Add { net, route: new });
            }
            RouteOp::Delete { .. } => {
                // The route died before the dump reached it: the reader
                // must never hear about it (the synced mark above stops
                // the walk from resurrecting it).
            }
        }
    }

    fn lookup_route(&self, net: &Prefix<A>) -> Option<R> {
        // Consistency with the history *we* sent downstream: a prefix the
        // reader has not yet been told about does not exist for it.
        if self.done || self.synced.contains(net) {
            return self.lookup.borrow().lookup_route(net);
        }
        None
    }

    fn push(&mut self, el: &mut EventLoop) {
        if let Some(d) = &self.downstream {
            d.borrow_mut().push(el);
        }
    }

    fn set_downstream(&mut self, s: StageRef<A, R>) {
        self.downstream = Some(s);
    }
}

impl<A: Addr, R: Clone> HeapSize for DumpStage<A, R> {
    fn heap_size(&self) -> usize {
        // BTreeSet nodes: key plus amortized node overhead per entry.
        self.synced.len() * (std::mem::size_of::<Prefix<A>>() + 2 * std::mem::size_of::<usize>())
            + self.label.heap_size()
            + self.sources.capacity() * std::mem::size_of::<Box<dyn DumpSource<A>>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{stage_ref, CacheStage, SinkStage};
    use std::net::Ipv4Addr;

    type R = u32;
    type Net = Prefix<Ipv4Addr>;

    fn p(i: u16) -> Net {
        Prefix::new(Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 0), 24).unwrap()
    }

    /// Rig: upstream sink holds `n` routes (route = prefix index);
    /// dump → cache → reader sink.
    #[allow(clippy::type_complexity)]
    fn rig(
        n: u16,
    ) -> (
        EventLoop,
        Rc<RefCell<SinkStage<Ipv4Addr, R>>>,
        Rc<RefCell<DumpStage<Ipv4Addr, R>>>,
        Rc<RefCell<CacheStage<Ipv4Addr, R>>>,
        Rc<RefCell<SinkStage<Ipv4Addr, R>>>,
    ) {
        let mut el = EventLoop::new_virtual();
        let upstream = stage_ref(SinkStage::new());
        for i in 0..n {
            upstream.borrow_mut().route_op(
                &mut el,
                OriginId(0),
                RouteOp::Add {
                    net: p(i),
                    route: i as u32,
                },
            );
        }
        let cache = stage_ref(CacheStage::new("dump-test"));
        let reader = stage_ref(SinkStage::new());
        cache.borrow_mut().set_downstream(reader.clone());
        let mut dump = DumpStage::new("test", upstream.clone() as StageRef<Ipv4Addr, R>);
        dump.add_source(Box::new(VecSource::new((0..n).map(p))));
        dump.passthrough(OriginId(0));
        let dump = stage_ref(dump);
        dump.borrow_mut().set_downstream(cache.clone());
        (el, upstream, dump, cache, reader)
    }

    #[test]
    fn background_dump_delivers_everything() {
        let (mut el, upstream, dump, cache, reader) = rig(200);
        let done = Rc::new(RefCell::new(false));
        let d = done.clone();
        dump.borrow_mut()
            .set_on_done(move |_el| *d.borrow_mut() = true);
        DumpStage::start(&mut el, dump.clone());
        assert!(reader.borrow().table.is_empty());
        el.run_until_idle();
        assert!(*done.borrow());
        assert!(dump.borrow().is_done());
        assert_eq!(reader.borrow().table, upstream.borrow().table);
        assert!(cache.borrow().violations().is_empty());
        // Transient state freed on completion.
        assert_eq!(dump.borrow().synced_count(), 0);
    }

    #[test]
    fn dump_is_sliced_not_monolithic() {
        let (mut el, _up, dump, _cache, reader) = rig(200);
        DumpStage::start(&mut el, dump.clone());
        el.run_one();
        assert_eq!(reader.borrow().table.len(), SLICE_SIZE);
        el.run_one();
        assert_eq!(reader.borrow().table.len(), 2 * SLICE_SIZE);
        assert!(!dump.borrow().is_done());
    }

    #[test]
    fn live_add_ahead_of_dump_is_delivered_once() {
        let (mut el, upstream, dump, cache, reader) = rig(200);
        DumpStage::start(&mut el, dump.clone());
        el.run_one(); // first slice: prefixes 0..64 dumped
        let net = p(150); // not yet dumped
        upstream.borrow_mut().route_op(
            &mut el,
            OriginId(0),
            RouteOp::Replace {
                net,
                old: 150,
                new: 999,
            },
        );
        // The fanout would deliver this as a Replace; the reader never saw
        // the old route, so the intercept turns it into an Add.
        dump.borrow_mut().route_op(
            &mut el,
            OriginId(0),
            RouteOp::Replace {
                net,
                old: 150,
                new: 999,
            },
        );
        assert_eq!(reader.borrow().table.get(&net), Some(&999));
        el.run_until_idle();
        // Exactly once: the dump walk skipped the synced prefix, so the
        // reader still holds the live value, and the cache saw no
        // double-add.
        assert_eq!(reader.borrow().table.get(&net), Some(&999));
        assert!(cache.borrow().violations().is_empty());
        assert_eq!(reader.borrow().table.len(), 200);
    }

    #[test]
    fn delete_ahead_of_dump_is_suppressed() {
        let (mut el, upstream, dump, cache, reader) = rig(200);
        DumpStage::start(&mut el, dump.clone());
        el.run_one();
        let net = p(150);
        upstream
            .borrow_mut()
            .route_op(&mut el, OriginId(0), RouteOp::Delete { net, old: 150 });
        dump.borrow_mut()
            .route_op(&mut el, OriginId(0), RouteOp::Delete { net, old: 150 });
        el.run_until_idle();
        // The reader never heard of the dead prefix — no add, no delete.
        assert!(!reader.borrow().table.contains_key(&net));
        assert!(reader.borrow().log.iter().all(|(_, op)| op.net() != net));
        assert!(cache.borrow().violations().is_empty());
        assert_eq!(reader.borrow().table.len(), 199);
    }

    #[test]
    fn ops_after_dump_pass_through() {
        let (mut el, _up, dump, cache, reader) = rig(10);
        DumpStage::start(&mut el, dump.clone());
        el.run_until_idle();
        dump.borrow_mut()
            .route_op(&mut el, OriginId(0), RouteOp::Delete { net: p(3), old: 3 });
        assert_eq!(reader.borrow().table.len(), 9);
        assert!(cache.borrow().violations().is_empty());
    }

    #[test]
    fn suspend_parks_without_spinning_and_resume_restarts() {
        let (mut el, _up, dump, _cache, reader) = rig(200);
        let flow = Rc::new(Cell::new(true));
        dump.borrow_mut().set_flow(flow.clone());
        DumpStage::start(&mut el, dump.clone());
        el.run_one();
        flow.set(false);
        // The parked task must exit, not spin: run_until_idle returns.
        el.run_until_idle();
        assert!(!dump.borrow().is_done());
        let parked = reader.borrow().table.len();
        assert!(parked < 200);
        flow.set(true);
        DumpStage::start(&mut el, dump.clone());
        el.run_until_idle();
        assert!(dump.borrow().is_done());
        assert_eq!(reader.borrow().table.len(), 200);
    }

    #[test]
    fn abort_stops_walk_and_keeps_passthrough() {
        let (mut el, _up, dump, _cache, reader) = rig(200);
        DumpStage::start(&mut el, dump.clone());
        el.run_one();
        dump.borrow_mut().abort();
        el.run_until_idle();
        let after_abort = reader.borrow().table.len();
        assert!(after_abort < 200, "abort must stop the walk");
        // Still a functioning pass-through stage.
        dump.borrow_mut().route_op(
            &mut el,
            OriginId(0),
            RouteOp::Add {
                net: p(999),
                route: 7,
            },
        );
        assert_eq!(reader.borrow().table.len(), after_abort + 1);
    }

    #[test]
    fn lookup_is_consistent_with_emitted_history() {
        let (mut el, _up, dump, _cache, _reader) = rig(200);
        DumpStage::start(&mut el, dump.clone());
        el.run_one();
        // Dumped prefix: relayed upstream.
        assert_eq!(dump.borrow().lookup_route(&p(0)), Some(0));
        // Not yet dumped: the reader has not been told, so None.
        assert_eq!(dump.borrow().lookup_route(&p(150)), None);
        el.run_until_idle();
        assert_eq!(dump.borrow().lookup_route(&p(150)), Some(150));
    }

    #[test]
    fn heap_size_tracks_synced_set() {
        let (mut el, _up, dump, _cache, _reader) = rig(200);
        DumpStage::start(&mut el, dump.clone());
        el.run_one();
        let mid = dump.borrow().heap_size();
        assert!(mid > 0);
        el.run_until_idle();
        assert!(dump.borrow().heap_size() < mid);
    }
}
