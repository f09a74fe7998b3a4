//! The one bounded ring under both §8.2 points and trace spans.
//!
//! A [`Ring`] keeps the newest [`RING_CAPACITY`] items: a push past the
//! cap evicts the oldest item and counts it.  Readers take the ring in
//! bounded, oldest-first [`Drained`] pages or copy it whole with
//! [`Ring::snapshot`]; either way the eviction count comes back under the
//! same lock as the items, so a reader always knows whether its window
//! has a hole.

use std::collections::VecDeque;

use parking_lot::Mutex;

/// Items one ring holds before it starts evicting its oldest.
pub const RING_CAPACITY: usize = 65_536;

/// One page of a ring, removed by a bounded drain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Drained<T> {
    /// Oldest-first items removed by this page.
    pub items: Vec<T>,
    /// Items still buffered after this page (paginate until 0).
    pub remaining: usize,
    /// Evictions since the previous drain: nonzero means the stream has a
    /// hole older than `items[0]`.  Reported on the first page of a
    /// paginated read only, then reset, so a reader summing `dropped`
    /// across pages counts each eviction once.
    pub dropped: u64,
}

impl<T> Default for Drained<T> {
    fn default() -> Self {
        Drained {
            items: Vec::new(),
            remaining: 0,
            dropped: 0,
        }
    }
}

struct State<T> {
    items: VecDeque<T>,
    /// Items evicted since the last drain or clear.
    dropped: u64,
}

/// A bounded, lock-protected FIFO with an eviction counter.
pub(crate) struct Ring<T> {
    capacity: usize,
    state: Mutex<State<T>>,
}

impl<T> Ring<T> {
    pub(crate) fn new(capacity: usize) -> Ring<T> {
        Ring {
            capacity: capacity.max(1),
            state: Mutex::new(State {
                items: VecDeque::new(),
                dropped: 0,
            }),
        }
    }

    /// Append the item `make` builds.  `make` runs under the ring's lock,
    /// so a clock it reads is monotone along the ring even with
    /// concurrent pushers.
    pub(crate) fn push_with(&self, make: impl FnOnce() -> T) {
        let mut s = self.state.lock();
        if s.items.len() >= self.capacity {
            s.items.pop_front();
            s.dropped += 1;
        }
        let item = make();
        s.items.push_back(item);
    }

    /// Remove and return up to `max` of the oldest items.
    pub(crate) fn drain(&self, max: usize) -> Drained<T> {
        let mut s = self.state.lock();
        let n = max.min(s.items.len());
        let items = s.items.drain(..n).collect();
        Drained {
            items,
            remaining: s.items.len(),
            dropped: std::mem::take(&mut s.dropped),
        }
    }

    /// Copy the buffered items and the eviction count without clearing.
    pub(crate) fn snapshot(&self) -> (Vec<T>, u64)
    where
        T: Clone,
    {
        let s = self.state.lock();
        (s.items.iter().cloned().collect(), s.dropped)
    }

    /// Items buffered and evictions counted, without copying.
    pub(crate) fn len_and_dropped(&self) -> (usize, u64) {
        let s = self.state.lock();
        (s.items.len(), s.dropped)
    }

    /// Forget every item and the eviction count.
    pub(crate) fn clear(&self) {
        let mut s = self.state.lock();
        s.items.clear();
        s.dropped = 0;
    }

    /// Hold the ring's lock (tests prove a dormant path never takes it).
    #[cfg(test)]
    pub(crate) fn hold(&self) -> impl Sized + '_ {
        self.state.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Push,
        Drain(usize),
        Snapshot,
        Clear,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => Just(Op::Push),
            3 => (0usize..6).prop_map(Op::Drain),
            1 => Just(Op::Snapshot),
            1 => Just(Op::Clear),
        ]
    }

    proptest! {
        /// Any push/drain/snapshot/clear sequence at a small capacity
        /// against a `VecDeque` + counter model: the ring keeps the newest
        /// items, each page's `remaining` is exact (so a page ending on
        /// the last item closes the pagination), and `dropped` comes back
        /// once, on the first page after the evictions.
        #[test]
        fn ring_matches_a_deque_and_counter_model(
            capacity in 1usize..6,
            ops in prop::collection::vec(op(), 0..64),
        ) {
            let ring = Ring::new(capacity);
            let mut model: VecDeque<u32> = VecDeque::new();
            let mut evicted = 0u64;
            let mut next = 0u32;
            for op in ops {
                match op {
                    Op::Push => {
                        ring.push_with(|| next);
                        model.push_back(next);
                        if model.len() > capacity {
                            model.pop_front();
                            evicted += 1;
                        }
                        next += 1;
                    }
                    Op::Drain(max) => {
                        let page = ring.drain(max);
                        let n = max.min(model.len());
                        let want: Vec<u32> = model.drain(..n).collect();
                        prop_assert_eq!(page.items, want);
                        prop_assert_eq!(page.remaining, model.len());
                        prop_assert_eq!(page.dropped, std::mem::take(&mut evicted));
                    }
                    Op::Snapshot => {
                        let (items, dropped) = ring.snapshot();
                        prop_assert_eq!(items, model.iter().copied().collect::<Vec<_>>());
                        prop_assert_eq!(dropped, evicted);
                        prop_assert_eq!(ring.len_and_dropped(), (model.len(), evicted));
                    }
                    Op::Clear => {
                        ring.clear();
                        model.clear();
                        evicted = 0;
                    }
                }
            }
        }
    }
}
