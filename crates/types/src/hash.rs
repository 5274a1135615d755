//! [`FastMap`] / [`FastSet`] — the simulator's hash containers.
//!
//! Every simulator-internal map is keyed by small integers: request ids,
//! sector and granule addresses, `(Asid, Vpn)` pairs, `(SmId, WarpId)`
//! slots. The standard library's SipHash with per-process random keys is
//! built to resist adversarial keys, which these never are, and costs a
//! large share of host time on the memory-response path. [`FastHasher`]
//! is a fixed multiply-rotate hash instead: one rotate, xor and multiply
//! per integer written, and a final rotate so the well-mixed high bits of
//! the product pick the bucket (aligned addresses would otherwise all
//! land in the same few buckets).
//!
//! Being unkeyed, the hasher makes iteration order a function of the
//! operations alone, the same in every process. No simulated result
//! reads iteration order anyway; the fixed order only removes a source
//! of run-to-run variation in host time and memory.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`FastHasher`]. Build one with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A `HashSet` using [`FastHasher`]. Build one with `FastSet::default()`.
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

/// Deterministic multiply-rotate hasher for small integer keys.
///
/// # Example
///
/// ```
/// use swgpu_types::FastMap;
///
/// let mut m: FastMap<u64, &str> = FastMap::default();
/// m.insert(0x1000, "sector");
/// assert_eq!(m.get(&0x1000), Some(&"sector"));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

/// Odd multiplier with well-spread bits (the golden-ratio constant used by
/// Fibonacci hashing).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The product's high bits depend on every input bit; move them
        // down to where the table takes its bucket index.
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(v)
    }

    #[test]
    fn hash_is_fixed_across_builders() {
        assert_eq!(hash_of(&(3u16, 0x4000u64)), hash_of(&(3u16, 0x4000u64)));
        assert_ne!(hash_of(&(3u16, 0x4000u64)), hash_of(&(4u16, 0x4000u64)));
        assert_ne!(hash_of(&"ab"), hash_of(&"ba"));
    }

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // Sector addresses are 32-byte aligned; their bucket bits (the
        // low bits of the hash) must still differ.
        let buckets: FastSet<u64> = (0..1024u64).map(|i| hash_of(&(i * 32)) & 1023).collect();
        assert!(
            buckets.len() > 512,
            "only {} of 1024 buckets",
            buckets.len()
        );
    }

    #[test]
    fn maps_and_sets_work() {
        let mut m: FastMap<(u16, u64), u32> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(((i % 7) as u16, i << 16), i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&(3, 10 << 16)), Some(&10));
        let s: FastSet<u64> = (0..10).collect();
        assert!(s.contains(&9) && !s.contains(&10));
    }
}
