//! Hash maps keyed by identifiers.
//!
//! The controller looks a switch (or a job, or a span) up on nearly
//! every step of an update: once per FlowMod compiled, sent and
//! acknowledged. [`IdMap`] is the map for those lookups: std's
//! `HashMap` with [`IdHasher`], a fixed, seedless hasher cheap enough
//! for one- or two-word keys.
//!
//! The hasher folds each word in with a multiply (FxHash's step) and
//! finishes with SplitMix64's finalizer, so ids that differ only in
//! their high bits — `k << 48`, or MAC-derived dpids that share their
//! low bytes — still spread over the table's low bits, which is what
//! `HashMap` buckets by.
//!
//! Without a random seed, colliding keys can be crafted; an `IdMap`
//! must therefore only *store* keys its owner issued or validated
//! (topology switches, its own job and span ids). Probing with a
//! foreign key is harmless: it cannot grow the map. Iteration order is
//! arbitrary (stable for one insertion history, but not sorted); a map
//! whose order reaches an output stays a `BTreeMap`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::rng::splitmix_finalize;

/// A `HashMap` keyed by identifiers, hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The fixed hasher behind [`IdMap`]: a multiply per word, SplitMix64's
/// finalizer at the end.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher {
    state: u64,
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        splitmix_finalize(self.state)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::hash::BuildHasher;

    use super::*;
    use crate::DpId;

    fn hash<T: std::hash::Hash>(x: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(x)
    }

    #[test]
    fn structured_ids_spread_over_the_low_bits() {
        let form = |name, k: u64| match name {
            "k" => k,
            "k << 16" => k << 16,
            "k << 32" => k << 32,
            "k << 48" => k << 48,
            _ => 0x0000_0200_0000_0000 | k << 8, // MAC-style
        };
        for name in ["k", "k << 16", "k << 32", "k << 48", "mac"] {
            let low: BTreeSet<u64> = (0..4096)
                .map(|k| hash(DpId(form(name, k))) & 0xfff)
                .collect();
            assert!(
                low.len() >= 2048,
                "{name}: only {} of 4096 low-12-bit values",
                low.len()
            );
        }
    }

    #[test]
    fn tuple_keys_are_order_sensitive() {
        assert_ne!(hash((DpId(1), DpId(2))), hash((DpId(2), DpId(1))));
        assert_ne!(hash((DpId(0), DpId(1))), hash((DpId(1), DpId(0))));
    }
}
