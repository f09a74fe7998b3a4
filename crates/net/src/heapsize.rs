//! Byte accounting for routing-table structures.
//!
//! The paper reports (§5) that "a XORP router holding a full backbone
//! routing table of about 150,000 routes requires about 120 MB for BGP and
//! 60 MB for the RIB".  [`HeapSize`] lets us measure the analogous quantity
//! for our structures: the number of heap bytes reachable from a value,
//! excluding the value's own inline size (use [`HeapSize::total_size`] for
//! inline + heap).

/// Give a holdback queue's buffer back once its backlog has drained.
///
/// A `VecDeque` never shrinks by itself, so one full-table backlog would
/// otherwise stay resident for the life of the process.  Call after
/// popping: a buffer of more than 32 KiB that is less than a quarter full
/// is cut to twice its length, which leaves room to grow again without
/// reallocating on every push and costs amortised O(1) per pop.  The floor
/// is in bytes, not slots, so a drained buffer keeps at most 32 KiB
/// whatever its element size.
pub fn release_drained<T>(queue: &mut std::collections::VecDeque<T>) {
    let bytes = queue.capacity() * std::mem::size_of::<T>();
    if bytes > 32 * 1024 && queue.len() < queue.capacity() / 4 {
        queue.shrink_to(2 * queue.len());
    }
}

/// Estimate of the heap bytes owned by a value.
pub trait HeapSize {
    /// Bytes on the heap reachable from (and owned by) `self`.
    fn heap_size(&self) -> usize;

    /// Inline size plus owned heap bytes.
    fn total_size(&self) -> usize
    where
        Self: Sized,
    {
        std::mem::size_of::<Self>() + self.heap_size()
    }
}

impl HeapSize for String {
    fn heap_size(&self) -> usize {
        self.capacity()
    }
}

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_size(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
            + self.iter().map(HeapSize::heap_size).sum::<usize>()
    }
}

impl<T: HeapSize> HeapSize for Option<T> {
    fn heap_size(&self) -> usize {
        self.as_ref().map_or(0, HeapSize::heap_size)
    }
}

impl<T: HeapSize> HeapSize for Box<T> {
    fn heap_size(&self) -> usize {
        std::mem::size_of::<T>() + (**self).heap_size()
    }
}

impl<T: HeapSize> HeapSize for std::sync::Arc<T> {
    /// Arc contents are charged in full to each handle.  A table whose
    /// routes share attribute blocks is measured with
    /// [`crate::route_table_bytes`], which charges each distinct block once.
    fn heap_size(&self) -> usize {
        std::mem::size_of::<T>() + (**self).heap_size() + 2 * std::mem::size_of::<usize>()
    }
}

/// The nodes of a standard B-tree holding `len` entries of `entry` bytes.
/// The B-tree does not expose its nodes, so this is a model of it: leaves
/// of 11 entries plus a 16-byte header, charged as two-thirds full (where
/// random insertion settles; in-order insertion leaves them half full),
/// and one internal node of twelve child pointers per seven leaves.
fn btree_node_bytes(len: usize, entry: usize) -> usize {
    const KEYS: usize = 11;
    const FILL: usize = KEYS * 2 / 3;
    let leaf = KEYS * entry + 16;
    let leaves = len.div_ceil(FILL);
    let internal = leaves / FILL;
    leaves * leaf + internal * (leaf + (KEYS + 1) * std::mem::size_of::<usize>())
}

impl<T: HeapSize> HeapSize for std::collections::BTreeSet<T> {
    fn heap_size(&self) -> usize {
        btree_node_bytes(self.len(), std::mem::size_of::<T>())
            + self.iter().map(HeapSize::heap_size).sum::<usize>()
    }
}

impl<K: HeapSize, V: HeapSize> HeapSize for std::collections::BTreeMap<K, V> {
    fn heap_size(&self) -> usize {
        let entry = std::mem::size_of::<K>() + std::mem::size_of::<V>();
        btree_node_bytes(self.len(), entry)
            + self
                .iter()
                .map(|(k, v)| k.heap_size() + v.heap_size())
                .sum::<usize>()
    }
}

macro_rules! zero_heap {
    ($($t:ty),* $(,)?) => {
        $(impl HeapSize for $t {
            fn heap_size(&self) -> usize { 0 }
        })*
    };
}

zero_heap!(
    u8,
    u16,
    u32,
    u64,
    u128,
    usize,
    i8,
    i16,
    i32,
    i64,
    i128,
    isize,
    bool,
    char,
    f32,
    f64,
    (),
    std::net::Ipv4Addr,
    std::net::Ipv6Addr,
    std::net::IpAddr,
    std::time::Duration,
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_have_no_heap() {
        assert_eq!(5u32.heap_size(), 0);
        assert_eq!(5u32.total_size(), 4);
    }

    #[test]
    fn string_counts_capacity() {
        let mut s = String::with_capacity(64);
        s.push_str("hi");
        assert_eq!(s.heap_size(), 64);
    }

    #[test]
    fn vec_counts_capacity_and_elements() {
        let v: Vec<String> = vec![String::with_capacity(10), String::with_capacity(20)];
        assert!(v.heap_size() >= 2 * std::mem::size_of::<String>() + 30);
    }

    #[test]
    fn option_and_box() {
        let b: Box<u64> = Box::new(7);
        assert_eq!(b.heap_size(), 8);
        let o: Option<Box<u64>> = Some(Box::new(7));
        assert_eq!(o.heap_size(), 8);
        assert_eq!(None::<Box<u64>>.heap_size(), 0);
    }

    /// However the pops are grouped between calls, a drained buffer of
    /// large slots ends within the byte floor, not a slot count.
    #[test]
    fn drained_buffer_keeps_at_most_the_byte_floor() {
        for step in [1, 7, 300, 5_000] {
            let mut q: std::collections::VecDeque<[u8; 112]> =
                std::iter::repeat([0; 112]).take(20_000).collect();
            while !q.is_empty() {
                for _ in 0..step.min(q.len()) {
                    q.pop_front();
                }
                release_drained(&mut q);
            }
            assert!(
                q.capacity() * 112 <= 32 * 1024,
                "step {step}: {}",
                q.capacity()
            );
        }
    }
}
