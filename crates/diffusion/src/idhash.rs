//! A small multiplicative hasher for the protocol's id-keyed maps.
//!
//! Every key the diffusion state machine hashes is a handful of small
//! integers (`NodeId`, `(NodeId, u32)`, `MsgId`), and the keys come from the
//! simulation, not from an adversary, so SipHash's flooding resistance buys
//! nothing here. This is the FxHash recipe (rotate, xor, multiply by an odd
//! constant per word) with a final rotation that moves the well-mixed high
//! bits down to where the table takes its bucket index.
//!
//! No output may depend on hash order: every iteration over these maps is
//! either order-free (retain, any, sum) or collected and sorted first.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash's 64-bit multiplier.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// The hasher state: one word, folded per written integer.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed by protocol ids, hashed with [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of protocol ids, hashed with [`IdHasher`].
pub(crate) type IdSet<T> = HashSet<T, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(v)
    }

    #[test]
    fn nearby_keys_spread_over_low_bits() {
        // Sequential ids must not collide in the low bits a small table
        // indexes by.
        let buckets: IdSet<u64> = (0u32..64).map(|i| hash((i, 7u32)) & 63).collect();
        assert!(buckets.len() > 32, "only {} of 64 buckets", buckets.len());
    }

    #[test]
    fn byte_writes_fold_every_chunk() {
        assert_ne!(hash("abcdefgh1"), hash("abcdefgh2"));
    }
}
