//! Fast, non-cryptographic hashing for integer keys.
//!
//! The graph and the production engines' update paths do not hash. The
//! maps keyed by vertex ids or vertex pairs live around them: the update
//! stream generators' edge samplers, CSR deduplication, several
//! baselines, and the hash-indexed replica the differential test
//! compares against. The default SipHash is needlessly slow for
//! 32/64-bit integer keys; we implement the well-known Fx algorithm (as
//! used by rustc) directly, since `rustc-hash` is not in the allowed
//! dependency set for this workspace.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant of the Fx hash (64-bit golden-ratio derived).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher: a word-at-a-time multiplicative hash.
///
/// Not HashDoS-resistant; inputs here are internally generated vertex ids,
/// so adversarial collisions are not a concern.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Word-at-a-time over the byte slice; tail handled by padding.
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `HashMap` specialized to the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` specialized to the Fx hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

/// Packs an unordered vertex pair into a canonical `u64` key
/// (smaller id in the high half).
#[inline]
pub fn pair_key(u: u32, v: u32) -> u64 {
    let (a, b) = if u <= v { (u, v) } else { (v, u) };
    ((a as u64) << 32) | b as u64
}

/// Inverse of [`pair_key`].
#[inline]
pub fn unpack_pair(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_key_is_order_invariant() {
        assert_eq!(pair_key(3, 9), pair_key(9, 3));
        assert_ne!(pair_key(3, 9), pair_key(3, 10));
    }

    #[test]
    fn pair_key_round_trips() {
        for &(u, v) in &[(0, 0), (1, 2), (u32::MAX, 7), (42, 42)] {
            let (a, b) = unpack_pair(pair_key(u, v));
            assert_eq!((a, b), (u.min(v), u.max(v)));
        }
    }

    #[test]
    fn fx_map_basic_ops() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, (i * 2) as u32);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&i), Some(&((i * 2) as u32)));
        }
    }

    #[test]
    fn hasher_distinguishes_streams() {
        use std::hash::Hash;
        fn h<T: Hash>(t: &T) -> u64 {
            let mut hasher = FxHasher::default();
            t.hash(&mut hasher);
            hasher.finish()
        }
        assert_ne!(h(&1u64), h(&2u64));
        assert_ne!(h(&(1u32, 2u32)), h(&(2u32, 1u32)));
        assert_ne!(h(&"abc"), h(&"abd"));
    }
}
