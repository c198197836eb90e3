//! Sparse, lazily-materialized leaf maps.
//!
//! The final level of the recursive position map lives on-chip (§3, [26]).
//! For host-memory efficiency we store it sparsely: an entry that was
//! never remapped defaults to a PRF of the block id, which is
//! distributionally equivalent to the uniformly random initial assignment
//! the protocol specifies (and deterministic, so whole simulations replay
//! bit-for-bit).

use crate::types::{BlockId, Leaf};
use otc_crypto::Prf;
use std::collections::HashMap;

/// A map `BlockId -> Leaf` with PRF-derived defaults.
#[derive(Debug, Clone)]
pub struct SparseLeafMap {
    prf: Prf,
    leaf_count: u64,
    overrides: HashMap<BlockId, Leaf>,
}

impl SparseLeafMap {
    /// Creates a map whose defaults are `PRF(id) mod leaf_count`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_count == 0`.
    pub fn new(prf: Prf, leaf_count: u64) -> Self {
        assert!(leaf_count > 0, "leaf_count must be positive");
        Self {
            prf,
            leaf_count,
            overrides: HashMap::new(),
        }
    }

    /// Current leaf for `id`.
    pub fn get(&self, id: BlockId) -> Leaf {
        self.overrides
            .get(&id)
            .copied()
            .unwrap_or_else(|| Leaf(self.prf.eval_below(id.0, self.leaf_count)))
    }

    /// Remaps `id` to `leaf`, returning the previous mapping.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn set(&mut self, id: BlockId, leaf: Leaf) -> Leaf {
        assert!(leaf.0 < self.leaf_count, "leaf out of range");
        // One hash of `id`: the insert hands back any earlier override.
        self.overrides
            .insert(id, leaf)
            .unwrap_or_else(|| Leaf(self.prf.eval_below(id.0, self.leaf_count)))
    }

    /// Number of entries that have ever been remapped (host-memory
    /// diagnostic).
    pub fn materialized_entries(&self) -> usize {
        self.overrides.len()
    }

    /// The number of leaves in the target tree.
    pub fn leaf_count(&self) -> u64 {
        self.leaf_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otc_crypto::SymmetricKey;
    use proptest::prelude::*;

    fn map(leaves: u64) -> SparseLeafMap {
        SparseLeafMap::new(Prf::new(SymmetricKey::from_seed(3), b"pm"), leaves)
    }

    #[test]
    fn defaults_are_deterministic_and_in_range() {
        let m1 = map(16);
        let m2 = map(16);
        for i in 0..100 {
            let l = m1.get(BlockId(i));
            assert_eq!(l, m2.get(BlockId(i)));
            assert!(l.0 < 16);
        }
        assert_eq!(m1.materialized_entries(), 0);
    }

    #[test]
    fn set_overrides_and_returns_old() {
        let mut m = map(16);
        let default = m.get(BlockId(5));
        let old = m.set(BlockId(5), Leaf(3));
        assert_eq!(old, default);
        assert_eq!(m.get(BlockId(5)), Leaf(3));
        assert_eq!(m.materialized_entries(), 1);
    }

    #[test]
    #[should_panic(expected = "leaf out of range")]
    fn set_out_of_range_panics() {
        map(8).set(BlockId(0), Leaf(8));
    }

    proptest! {
        #[test]
        fn prop_get_after_set(id in any::<u64>(), leaf in 0u64..32) {
            let mut m = map(32);
            m.set(BlockId(id), Leaf(leaf));
            prop_assert_eq!(m.get(BlockId(id)), Leaf(leaf));
        }

        #[test]
        fn prop_defaults_roughly_uniform(offset in any::<u64>()) {
            // Over 1024 consecutive ids, every one of 8 leaves should
            // receive a plausible share of defaults.
            let m = map(8);
            let mut counts = [0u32; 8];
            for i in 0..1024u64 {
                counts[m.get(BlockId(offset.wrapping_add(i))).0 as usize] += 1;
            }
            for &c in &counts {
                prop_assert!(c >= 64, "leaf got only {} of 1024", c);
            }
        }
    }
}
