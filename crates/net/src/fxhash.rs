//! A small multiplicative hasher for maps keyed by the program's own small
//! integers (`ProtocolId`, `OriginId`).
//!
//! The standard library's SipHash defends against keys crafted to collide,
//! which costs tens of nanoseconds on a 2–4 byte key.  These aliases trade
//! that defence away, so they are only for keys no peer controls: prefixes
//! and addresses learned from the network stay in ordered maps or behind
//! the default hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with [`FxHasher`].
pub type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// Rotate-xor-multiply per word (the Firefox / rustc "Fx" scheme).
#[derive(Default, Clone, Copy)]
pub struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }
    fn write_u16(&mut self, n: u16) {
        self.add(n.into());
    }
    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProtocolId;

    #[test]
    fn map_behaves_like_a_map() {
        let mut m: FxHashMap<ProtocolId, u32> = FxHashMap::default();
        for (i, p) in [
            ProtocolId::Connected,
            ProtocolId::Ebgp,
            ProtocolId::Other(7),
            ProtocolId::Other(8),
        ]
        .into_iter()
        .enumerate()
        {
            assert_eq!(m.insert(p, i as u32), None);
        }
        assert_eq!(m[&ProtocolId::Other(8)], 3);
        assert_eq!(m.remove(&ProtocolId::Ebgp), Some(1));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn small_integers_spread_over_low_and_high_bits() {
        // hashbrown takes the bucket from the low bits and the control
        // byte from the top seven: consecutive keys must differ in both.
        let hash = |n: u32| {
            let mut h = FxHasher::default();
            h.write_u32(n);
            h.finish()
        };
        let low: FxHashSet<u64> = (0..64).map(|n| hash(n) & 63).collect();
        let high: FxHashSet<u64> = (0..64).map(|n| hash(n) >> 57).collect();
        assert_eq!(low.len(), 64);
        assert!(high.len() > 32, "{}", high.len());
    }

    #[test]
    fn byte_slices_hash_by_content() {
        let hash = |b: &[u8]| {
            let mut h = FxHasher::default();
            h.write(b);
            h.finish()
        };
        assert_eq!(hash(b"abcdefghij"), hash(b"abcdefghij"));
        assert_ne!(hash(b"abcdefghij"), hash(b"abcdefghik"));
    }
}
