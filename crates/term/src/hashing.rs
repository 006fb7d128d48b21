//! Std-only hashers for the engine's hot-path maps.
//!
//! The default `RandomState` (SipHash-1-3) is built to resist adversarial
//! keys, which the engine's keys never are: they are small integers (arena
//! ids, symbol indices, subgoal numbers) or hashes the arena has already
//! mixed. Two cheaper hashers cover those cases:
//!
//! * [`MulHasher`] — a multiplicative word hasher in the style of rustc's
//!   `FxHasher`: each word is rotated in and multiplied by an odd constant.
//!   [`FastMap`] and [`FastSet`] use it.
//! * [`PassThroughHasher`] — returns a `u64` key unchanged; only for keys
//!   that are already well-mixed hashes (the arena's hash-cons index).
//!
//! Both are deterministic, so map iteration order no longer varies from
//! process to process.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Multiplicative word hasher for small integer keys.
#[derive(Clone, Copy, Default, Debug)]
pub struct MulHasher(u64);

impl MulHasher {
    #[inline]
    fn add(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(SEED);
    }
}

impl Hasher for MulHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.add(u64::from_le_bytes(tail) ^ rest.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
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
        // The product's entropy sits in the high bits; the table indexes by
        // the low ones, so rotate the high bits down.
        self.0.rotate_left(26)
    }
}

/// Identity hasher for keys that are already mixed 64-bit hashes.
#[derive(Clone, Copy, Default, Debug)]
pub struct PassThroughHasher(u64);

impl Hasher for PassThroughHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Not reached for `u64` keys; fold anything else rather than panic.
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(SEED);
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.0 = i;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builder for [`MulHasher`].
pub type BuildMulHasher = BuildHasherDefault<MulHasher>;

/// A `HashMap` keyed by small integers, hashed with [`MulHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildMulHasher>;

/// A `HashSet` of small integers, hashed with [`MulHasher`].
pub type FastSet<K> = HashSet<K, BuildMulHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
        BuildMulHasher::default().hash_one(t)
    }

    #[test]
    fn mul_hasher_is_deterministic_and_separates_small_keys() {
        assert_eq!(hash_of(&(1usize, 2usize)), hash_of(&(1usize, 2usize)));
        let hs: HashSet<u64> = (0u32..1000).map(|i| hash_of(&i)).collect();
        assert_eq!(hs.len(), 1000);
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
    }

    #[test]
    fn byte_writes_distinguish_lengths() {
        assert_ne!(hash_of(&"ab"), hash_of(&"ab\0"));
        assert_ne!(hash_of(&[0u8; 3][..]), hash_of(&[0u8; 4][..]));
    }

    #[test]
    fn pass_through_returns_the_key() {
        let b = BuildHasherDefault::<PassThroughHasher>::default();
        assert_eq!(b.hash_one(0xdead_beef_u64), 0xdead_beef);
    }

    #[test]
    fn fast_collections_behave_like_std() {
        let mut m: FastMap<(u32, u32), usize> = FastMap::default();
        for i in 0..500u32 {
            m.insert((i, i * 7), i as usize);
        }
        assert_eq!(m.len(), 500);
        assert_eq!(m.get(&(42, 294)), Some(&42));
        let mut s: FastSet<usize> = FastSet::default();
        assert!(s.insert(3));
        assert!(!s.insert(3));
    }
}
