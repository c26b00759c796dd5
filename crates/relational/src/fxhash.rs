//! A seedless multiply-rotate word hasher (rustc's FxHash algorithm) for
//! maps whose keys the engine assigns itself.
//!
//! Interned symbols ([`Sym`](crate::Sym), [`SymTuple`](crate::SymTuple)),
//! node ids and index keys are dense `u32` words. std's default SipHash
//! spends more time on such a key than the probe that follows it; FxHash
//! folds each word with one add and one multiply and rotates once at the
//! end, so hashbrown's tag (the top 7 bits) and its bucket index (the low
//! bits) both come from the well-mixed middle of the product.
//!
//! The hash has **no seed**, so anyone who chooses the keys can choose
//! collisions. Use it only for keys the program assigns: a map keyed by a
//! peer-supplied `Value`, `TxnId` or `(relation, key)` keeps std's keyed
//! `RandomState`. A seedless hash also iterates in the same order on every
//! run — still not an order anyone should rely on, so determinism-critical
//! code sorts, exactly as it would for a std map.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`]; engine-assigned keys only.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// A `HashSet` hashed with [`FxHasher`]; engine-assigned keys only.
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;
/// Builds [`FxHasher`]s; every one starts from the same (zero) state.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The FxHash multiplier (rustc's 64-bit constant).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// The word hasher (see module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            self.add(u64::from_le_bytes(w));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            // The length keeps `[1]` and `[1, 0]` apart.
            self.add(u64::from_le_bytes(w) ^ ((rest.len() as u64) << 56));
        }
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
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::{Sym, SymTuple};
    use std::hash::BuildHasher;

    /// A packed `(shard: 8 bits, local: 24 bits)` word hashed the way
    /// `#[derive(Hash)]` hashes the engine's `NodeId(u32)`.
    fn node_id_hashes() -> Vec<u64> {
        let b = FxBuildHasher::default();
        (0..16u32)
            .flat_map(|shard| (0..4096u32).map(move |local| (shard << 24) | local))
            .map(|w| b.hash_one(w))
            .collect()
    }

    /// A 256 × 256 grid of two-symbol tuples.
    fn sym_tuple_hashes() -> Vec<u64> {
        let b = FxBuildHasher::default();
        (0..256u32)
            .flat_map(|x| (0..256u32).map(move |y| SymTuple::new(vec![Sym(x), Sym(y)])))
            .map(|t| b.hash_one(&t))
            .collect()
    }

    fn distinct(hashes: &[u64], bucket: impl Fn(u64) -> u64) -> usize {
        let mut seen: Vec<u64> = hashes.iter().map(|&h| bucket(h)).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    #[test]
    fn separately_built_hashers_agree() {
        let t = SymTuple::new(vec![Sym(7), Sym(1 << 20), Sym(3)]);
        let (a, b) = (FxBuildHasher::default(), FxBuildHasher::default());
        assert_eq!(a.hash_one(&t), b.hash_one(&t));
        assert_eq!(a.hash_one(0x0500_0123u32), b.hash_one(0x0500_0123u32));
    }

    #[test]
    fn byte_writes_separate_lengths() {
        let bytes = |b: &[u8]| {
            let mut h = FxHasher::default();
            h.write(b);
            h.finish()
        };
        assert_ne!(bytes(&[1]), bytes(&[1, 0]));
        assert_ne!(bytes(b"ab"), bytes(b"ba"));
        assert_ne!(bytes(b"12345678"), bytes(b"12345678\0"));
    }

    #[test]
    fn tag_bits_take_every_value() {
        // hashbrown's 7-bit control tag is the top 7 bits of the hash.
        for hashes in [node_id_hashes(), sym_tuple_hashes()] {
            assert_eq!(hashes.len(), 65_536);
            assert_eq!(distinct(&hashes, |h| h >> 57), 128);
        }
    }

    #[test]
    fn low_bits_fill_every_small_table_bucket() {
        // hashbrown picks the bucket from the low bits: a 4096-bucket
        // table must see all of them used.
        for hashes in [node_id_hashes(), sym_tuple_hashes()] {
            assert_eq!(distinct(&hashes, |h| h & 0xfff), 4096);
        }
    }

    #[test]
    fn sym_tuples_spread_over_a_full_size_table() {
        // 65,536 uniformly random keys fill 1 - 1/e ≈ 63 % of 2^16
        // buckets; the grid must do about as well.
        let used = distinct(&sym_tuple_hashes(), |h| h & 0xffff);
        assert!(used * 100 >= 65_536 * 60, "{used} of 65536 buckets used");
    }
}
