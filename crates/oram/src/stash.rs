//! The on-chip stash as [`crate::TreeOram`] kept it before its flat
//! records: a sorted vector of blocks that own their payloads, filled
//! one insert at a time. Test-only — the reference storage `tree.rs`'s
//! property tests check the flat storage against.
//!
//! Blocks read off a path that cannot be immediately evicted back wait in
//! a small on-chip memory ([26] sizes it at 128 KB and the power model
//! charges stash reads/writes per 16 B chunk, Table 2).

use crate::bucket::StoredBlock;
use crate::types::{BlockId, Leaf};

/// On-chip stash: an associative store of blocks awaiting eviction.
///
/// A vector kept sorted by block id: lookups and inserts are binary
/// searches over a few dozen contiguous entries, iteration is id-ordered
/// so eviction's lowest-id tie-break falls out of a plain scan, and the
/// DRAM image (not just timing and fingerprints) is bit-reproducible
/// across runs — which matters once deferred evictions interleave.
#[derive(Debug, Clone, Default)]
pub struct Stash {
    /// Resident blocks, strictly ascending by id.
    blocks: Vec<StoredBlock>,
    peak: usize,
}

impl Stash {
    /// An empty stash.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current number of resident blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the stash is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Largest occupancy ever observed (reported by experiments; the
    /// paper's hardware provisions a fixed-size stash).
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Position of `id`, or where it would be inserted.
    fn search(&self, id: BlockId) -> Result<usize, usize> {
        self.blocks.binary_search_by_key(&id, |b| b.id)
    }

    /// Inserts a block (replacing any stale copy with the same id).
    pub fn insert(&mut self, block: StoredBlock) {
        match self.search(block.id) {
            Ok(i) => self.blocks[i] = block,
            Err(i) => self.blocks.insert(i, block),
        }
        self.peak = self.peak.max(self.blocks.len());
    }

    /// Looks up a block without removing it.
    pub fn get(&self, id: BlockId) -> Option<&StoredBlock> {
        self.search(id).ok().map(|i| &self.blocks[i])
    }

    /// Mutable lookup (used by read-modify-write accesses).
    pub fn get_mut(&mut self, id: BlockId) -> Option<&mut StoredBlock> {
        self.search(id).ok().map(|i| &mut self.blocks[i])
    }

    /// Whether a block is resident.
    pub fn contains(&self, id: BlockId) -> bool {
        self.search(id).is_ok()
    }

    /// Evicts blocks for one *whole path* in a single id-ordered pass:
    /// each block goes to the deepest level `<= deepest(leaf)` whose
    /// output bucket still has a free slot (at most `z` per level), or
    /// stays resident when every eligible level is full.
    ///
    /// This produces placements *identical* to the reference per-bucket
    /// procedure — filling one bucket at a time from the leaf upward,
    /// each with the first `z` eligible blocks of an id-ordered scan — in
    /// O(stash + levels) instead of O(stash x levels). The two are
    /// equivalent because eviction legality is prefix-closed (a block
    /// eligible at level `l` is eligible at every level above `l`), so
    /// both procedures greedily match the same lowest-id blocks to the
    /// deepest buckets; `prop_single_pass_eviction_matches_per_bucket`
    /// pins this exhaustively.
    ///
    /// `out` must hold one (typically recycled, emptied-by-path-read)
    /// vector per level, root first. Placed blocks move straight into
    /// their level's vector, in ascending id order, and the blocks that
    /// stay are compacted in place.
    pub fn evict_path_into<F>(&mut self, z: usize, mut deepest: F, out: &mut [Vec<StoredBlock>])
    where
        F: FnMut(Leaf) -> usize,
    {
        if z == 0 || out.is_empty() {
            return;
        }
        let top = out.len() - 1;
        self.blocks.retain_mut(|blk| {
            let d = deepest(blk.leaf).min(top);
            // Deepest-first: levels fill monotonically, so this scan is
            // O(1) amortized — it only walks levels that are already
            // full, and each level fills once per pass.
            match (0..=d).rev().find(|&level| out[level].len() < z) {
                Some(level) => {
                    out[level].push(StoredBlock {
                        id: blk.id,
                        leaf: blk.leaf,
                        payload: std::mem::take(&mut blk.payload),
                    });
                    false
                }
                None => true,
            }
        });
    }

    /// Iterates over resident blocks in id order (for invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = &StoredBlock> {
        self.blocks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(id: u64, leaf: u64) -> StoredBlock {
        StoredBlock {
            id: BlockId(id),
            leaf: Leaf(leaf),
            payload: vec![id as u8],
        }
    }

    /// Reference eviction for one bucket: removes and returns the first
    /// `limit` blocks of an id-ordered scan that `may_place` admits (the
    /// block's own path must pass through the bucket). Filling a path's
    /// buckets with this from the leaf upward is the per-bucket procedure
    /// [`Stash::evict_path_into`] must match.
    fn drain_for_bucket<F>(stash: &mut Stash, limit: usize, mut may_place: F) -> Vec<StoredBlock>
    where
        F: FnMut(Leaf) -> bool,
    {
        let chosen: Vec<BlockId> = stash
            .iter()
            .filter(|b| may_place(b.leaf))
            .take(limit)
            .map(|b| b.id)
            .collect();
        chosen
            .into_iter()
            .map(|id| {
                let i = stash.search(id).expect("chosen from stash");
                stash.blocks.remove(i)
            })
            .collect()
    }

    #[test]
    fn insert_get_contains() {
        let mut s = Stash::new();
        s.insert(blk(1, 0));
        assert!(s.contains(BlockId(1)));
        assert_eq!(s.get(BlockId(1)).map(|b| b.leaf), Some(Leaf(0)));
        assert!(!s.contains(BlockId(2)));
    }

    #[test]
    fn insert_same_id_replaces() {
        let mut s = Stash::new();
        s.insert(blk(1, 0));
        s.insert(blk(1, 5));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(BlockId(1)).map(|b| b.leaf), Some(Leaf(5)));
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut s = Stash::new();
        for i in 0..10 {
            s.insert(blk(i, 0));
        }
        let drained = drain_for_bucket(&mut s, 10, |_| true);
        assert_eq!(drained.len(), 10);
        assert_eq!(s.len(), 0);
        assert_eq!(s.peak(), 10);
    }

    #[test]
    fn drain_respects_limit_and_predicate() {
        let mut s = Stash::new();
        s.insert(blk(1, 0));
        s.insert(blk(2, 1));
        s.insert(blk(3, 0));
        let drained = drain_for_bucket(&mut s, 1, |leaf| leaf == Leaf(0));
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].leaf, Leaf(0));
        assert_eq!(s.len(), 2);
        let drained2 = drain_for_bucket(&mut s, 5, |leaf| leaf == Leaf(0));
        assert_eq!(drained2.len(), 1);
        let drained3 = drain_for_bucket(&mut s, 5, |_| true);
        assert_eq!(drained3.len(), 1);
        assert_eq!(drained3[0].leaf, Leaf(1));
        assert!(s.is_empty());
    }

    #[test]
    fn drain_prefers_lowest_ids_deterministically() {
        let mut s = Stash::new();
        for id in [5u64, 2, 9, 1] {
            s.insert(blk(id, 0));
        }
        let ids: Vec<u64> = drain_for_bucket(&mut s, 2, |_| true)
            .iter()
            .map(|b| b.id.0)
            .collect();
        assert_eq!(ids, [1, 2]);
    }

    #[test]
    fn drain_zero_limit_is_noop() {
        let mut s = Stash::new();
        s.insert(blk(1, 0));
        assert!(drain_for_bucket(&mut s, 0, |_| true).is_empty());
        assert_eq!(s.len(), 1);
    }

    mod single_pass_equivalence {
        use super::*;
        use crate::geometry::TreeGeometry;
        use proptest::prelude::*;

        /// Reference eviction: one [`drain_for_bucket`] per level, leaf
        /// upward.
        fn per_bucket(
            stash: &mut Stash,
            geom: &TreeGeometry,
            path_leaf: Leaf,
            out: &mut [Vec<StoredBlock>],
        ) {
            for level in (0..geom.levels() as usize).rev() {
                let drained = drain_for_bucket(stash, geom.z(), |block_leaf| {
                    geom.paths_share_level(path_leaf, block_leaf, level as u32)
                });
                out[level] = drained;
            }
        }

        proptest! {
            #[test]
            fn prop_single_pass_eviction_matches_per_bucket(
                levels in 1u32..6,
                z in 1usize..4,
                path_leaf in any::<u64>(),
                blocks in proptest::collection::vec((0u64..48, any::<u64>()), 0..32),
            ) {
                let geom = TreeGeometry::new(levels, z, 64, 16);
                let path_leaf = Leaf(path_leaf % geom.leaf_count());
                let mut reference = Stash::new();
                let mut fast = Stash::new();
                // The id-keyed map the stash used to be: the sorted
                // vector must hold exactly its contents, in its order.
                let mut model = std::collections::BTreeMap::new();
                for &(id, leaf) in &blocks {
                    let b = blk(id, leaf % geom.leaf_count());
                    reference.insert(b.clone());
                    model.insert(b.id, b.clone());
                    fast.insert(b);
                }
                let resident: Vec<&StoredBlock> = fast.iter().collect();
                prop_assert_eq!(resident, model.values().collect::<Vec<_>>());
                let n = levels as usize;
                let mut ref_out = vec![Vec::new(); n];
                let mut fast_out = vec![Vec::new(); n];
                per_bucket(&mut reference, &geom, path_leaf, &mut ref_out);
                fast.evict_path_into(
                    geom.z(),
                    |block_leaf| geom.deepest_shared_level(path_leaf, block_leaf) as usize,
                    &mut fast_out,
                );
                prop_assert_eq!(fast_out, ref_out, "bucket placements diverged");
                let rem_ref: Vec<BlockId> = reference.iter().map(|b| b.id).collect();
                let rem_fast: Vec<BlockId> = fast.iter().map(|b| b.id).collect();
                prop_assert_eq!(rem_fast, rem_ref, "resident sets diverged");
            }
        }
    }
}
