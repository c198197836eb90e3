//! A single Path ORAM tree: buckets, stash, path read/write, eviction.
//!
//! [`TreeOram`] implements the mechanics of one tree. Position management
//! lives *outside* (in [`crate::RecursivePathOram`] or the caller): every
//! access is told which leaf the block is currently mapped to and which
//! leaf it is being remapped to, mirroring how a hardware controller's
//! datapath is driven by the position-map lookup pipeline.
//!
//! Storage is split at [`DENSE_LEVELS`]. The tree-top is a flat array of
//! buckets with their encryption counters. Below it only the buckets that
//! hold blocks are stored: a path read removes them, a write-back inserts
//! only the buckets it filled, and a deep bucket's encryption counter is
//! derived from a log of written-back leaves. An empty deep bucket — all
//! dummies — costs no host memory, so paper-scale trees (2^25 leaves) are
//! cheap to instantiate and their path accesses are array work.

use crate::bucket::{Bucket, StoredBlock};
use crate::geometry::{PathTable, TreeGeometry};
use crate::stash::Stash;
use crate::types::{BlockId, Leaf, NodeIndex};
use otc_crypto::Prf;
use std::collections::HashMap;

/// Synthesizes the payload of a block that has never been written.
///
/// * The data ORAM returns zeroed cache lines (fresh memory).
/// * Recursive position-map ORAMs return PRF-derived default positions, so
///   the position map is lazily materializable (see `DESIGN.md` §3).
#[derive(Clone)]
pub enum DefaultPayload {
    /// All-zero payload of the tree's block size.
    Zeros,
    /// Position-map default: entry `j` of block `b` is
    /// `PRF(b * entries + j) mod child_leaf_count`, encoded little-endian
    /// as fixed-width `u32`s.
    PosmapPrf {
        /// PRF used to derive default child positions.
        prf: Prf,
        /// Number of position entries packed per block.
        entries_per_block: usize,
        /// Leaf count of the ORAM whose positions this map stores.
        child_leaf_count: u64,
    },
}

impl std::fmt::Debug for DefaultPayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DefaultPayload::Zeros => write!(f, "DefaultPayload::Zeros"),
            DefaultPayload::PosmapPrf {
                entries_per_block,
                child_leaf_count,
                ..
            } => write!(
                f,
                "DefaultPayload::PosmapPrf {{ entries_per_block: {entries_per_block}, \
                 child_leaf_count: {child_leaf_count} }}"
            ),
        }
    }
}

impl DefaultPayload {
    fn synthesize(&self, id: BlockId, block_bytes: usize) -> Vec<u8> {
        match self {
            DefaultPayload::Zeros => vec![0u8; block_bytes],
            DefaultPayload::PosmapPrf {
                prf,
                entries_per_block,
                child_leaf_count,
            } => {
                let mut out = vec![0u8; block_bytes];
                for j in 0..*entries_per_block {
                    let idx = id.0 * *entries_per_block as u64 + j as u64;
                    let pos = prf.eval_below(idx, *child_leaf_count) as u32;
                    out[j * 4..j * 4 + 4].copy_from_slice(&pos.to_le_bytes());
                }
                out
            }
        }
    }
}

/// Statistics for one tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Path accesses performed (real + dummy).
    pub path_accesses: u64,
    /// Bytes moved through the pins by this tree (read + write).
    pub bytes_moved: u64,
    /// Peak stash occupancy.
    pub stash_peak: usize,
}

/// Tree levels held in the dense top-of-tree array. Every access
/// rewrites its path's top levels, so these buckets are hot on *every*
/// access and (for any realistic access count) all hold blocks or
/// counters anyway; storing them as a flat heap-indexed array turns the
/// hottest `DENSE_LEVELS` of every path read/write into direct indexing
/// with no hashing and no probing. 2^14 − 1 buckets ≈ 0.5 MB per tree —
/// the on-chip tree-top buffer of the Ren et al. \[26\] controller designs,
/// in host-memory form. Levels below it store only block-holding buckets.
const DENSE_LEVELS: u32 = 14;

/// Fast node-index hasher for the map of resident deep buckets.
///
/// Bucket keys are heap indices — structured, dense-per-level integers —
/// and the map is probed once per deep level on every path read, so
/// SipHash is pure overhead here (there is no attacker-controlled key
/// material: node indices derive from PRNG-drawn leaves). A
/// SplitMix64-style finalizer mixes all 64 bits into the low bits
/// hashbrown indexes by.
#[derive(Clone, Copy, Default)]
struct NodeIndexHasher(u64);

impl std::hash::Hasher for NodeIndexHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Clone, Copy, Default)]
struct BuildNodeIndexHasher;

impl std::hash::BuildHasher for BuildNodeIndexHasher {
    type Hasher = NodeIndexHasher;

    fn build_hasher(&self) -> NodeIndexHasher {
        NodeIndexHasher::default()
    }
}

/// One Path ORAM tree.
pub struct TreeOram {
    geom: TreeGeometry,
    /// Per-level path-node constants, computed once per geometry — the
    /// path read/write hot loops index this instead of re-deriving
    /// bucket indices per access.
    path: PathTable,
    /// Top [`DENSE_LEVELS`] levels, heap-indexed (`node.0` directly):
    /// the tree-top buffer. Always allocated, `encryption_counter == 0`
    /// means "never written".
    dense: Vec<Bucket>,
    /// The blocks of every bucket below the dense levels that holds any.
    /// A path read removes its buckets and a write-back inserts only the
    /// ones it filled, so an empty deep bucket has no entry.
    resident: HashMap<NodeIndex, Vec<StoredBlock>, BuildNodeIndexHasher>,
    /// Leaf of every path write-back, oldest first, kept only when the
    /// tree has levels below the dense top: a deep bucket's encryption
    /// counter is the number of these paths that pass through it (see
    /// [`TreeOram::bucket_fingerprint`]). 8 B per write-back.
    write_backs: Vec<Leaf>,
    stash: Stash,
    /// Per-level eviction scratch (root first), recycled across
    /// accesses: the single-pass stash eviction fills these, then each
    /// dense level's contents move into its path bucket and each filled
    /// deep level's vector moves into `resident` whole.
    evict_scratch: Vec<Vec<StoredBlock>>,
    default_payload: DefaultPayload,
    /// Fingerprint PRF: models what ciphertext an adversary would see for
    /// a bucket (changes on every write-back).
    fingerprint_prf: Prf,
    accesses: u64,
}

impl std::fmt::Debug for TreeOram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TreeOram")
            .field("geom", &self.geom)
            .field("materialized_buckets", &self.materialized_buckets())
            .field("stash_len", &self.stash.len())
            .field("accesses", &self.accesses)
            .finish()
    }
}

impl TreeOram {
    /// Creates an empty tree.
    pub fn new(geom: TreeGeometry, default_payload: DefaultPayload, fingerprint_prf: Prf) -> Self {
        Self {
            geom,
            path: geom.path_table(),
            dense: {
                let levels = geom.levels().min(DENSE_LEVELS);
                vec![Bucket::empty(); ((1u64 << levels) - 1) as usize]
            },
            resident: HashMap::default(),
            write_backs: Vec::new(),
            stash: Stash::new(),
            evict_scratch: Vec::new(),
            default_payload,
            fingerprint_prf,
            accesses: 0,
        }
    }

    /// The tree's geometry.
    pub fn geometry(&self) -> &TreeGeometry {
        &self.geom
    }

    /// Performs one real access.
    ///
    /// Reads the path to `leaf` into the stash, applies `update` to the
    /// payload of `id` (synthesizing a default payload if the block was
    /// never written) and remaps the block to `new_leaf`. The payload is
    /// read or written only through `update`, so an access whose result
    /// nobody consumes allocates nothing.
    ///
    /// Unless `defer`, the path is then evicted and written back. With
    /// `defer` the path's blocks stay in the stash and the caller must
    /// later call [`TreeOram::evict_path`] with the same `leaf` to
    /// complete the eviction. Until then the Path ORAM invariant still
    /// holds (stash residency is always legal) and reads of any staged
    /// block keep working — only the write-back bandwidth and the
    /// re-encryption of the path's buckets are postponed.
    ///
    /// # Panics
    ///
    /// Panics if `leaf`/`new_leaf` are out of range, or if the invariant
    /// "the block is on the claimed path or in the stash" is violated —
    /// which would mean the caller's position map is inconsistent.
    pub fn access<F>(&mut self, id: BlockId, leaf: Leaf, new_leaf: Leaf, defer: bool, update: F)
    where
        F: FnOnce(&mut Vec<u8>),
    {
        assert!(new_leaf.0 < self.geom.leaf_count(), "new_leaf out of range");
        self.read_path_into_stash(leaf);

        // The block must now be in the stash: either it came off the path,
        // it was already waiting in the stash, or it has never been
        // written and we synthesize it.
        if !self.stash.contains(id) {
            let payload = self.default_payload.synthesize(id, self.geom.block_bytes());
            self.stash.insert(StoredBlock { id, leaf, payload });
        }

        let block = self.stash.get_mut(id).expect("block staged in stash");
        block.leaf = new_leaf;
        update(&mut block.payload);
        self.accesses += 1;
        if !defer {
            // The read just emptied the path's buckets, so the immediate
            // write-back is exactly the serial eviction.
            self.write_path_from_stash(leaf);
        }
    }

    /// Performs a dummy access: reads the path to `leaf` without touching
    /// any logical block (§1.1.2 footnote 1, §3) and, unless `defer`,
    /// writes it back. Indistinguishable from a real access by
    /// construction — the same bytes move and every bucket is
    /// re-encrypted. A deferred dummy leaves the write-back to a later
    /// [`TreeOram::evict_path`], as a deferred real access does.
    pub fn dummy_access(&mut self, leaf: Leaf, defer: bool) {
        self.read_path_into_stash(leaf);
        self.accesses += 1;
        if !defer {
            self.write_path_from_stash(leaf);
        }
    }

    /// Completes a deferred eviction: gathers the current contents of the
    /// path to `leaf` back into the stash (interleaved earlier evictions
    /// may have re-filled shared buckets — the root is on every path) and
    /// writes the path back with greedy eviction. Exactly one bucket
    /// re-encryption per path bucket, the same as the write-back half of
    /// a serial access, so ciphertext fingerprints after all pending
    /// evictions drain match serial mode bit for bit.
    ///
    /// Timing-model note: the gather is *functional bookkeeping*, not
    /// modeled DRAM traffic — callers charge a drain the path-write cost
    /// only ([`crate::AccessPlan::eviction`]). The buckets a drain can
    /// find non-empty are exactly the path prefix shared with an earlier
    /// pending eviction (deeper buckets were emptied by this path's own
    /// read and FIFO order keeps them empty), and a hardware controller
    /// holds those top-of-tree levels in its on-chip tree-top buffer
    /// (standard in the Ren et al. \[26\] designs this models), so the
    /// write-back re-reads nothing from DRAM. Worst case outside the
    /// buffered depth — two pending paths to nearby leaves — the model
    /// is optimistic by the shared suffix; bytes_moved accounting is
    /// unaffected (each access still moves read + write once).
    pub fn evict_path(&mut self, leaf: Leaf) {
        self.read_path_into_stash(leaf);
        self.write_path_from_stash(leaf);
    }

    /// The ciphertext fingerprint of a bucket, as an adversary snapshotting
    /// DRAM would see it (§3.2). Changes on every write-back because
    /// buckets are re-encrypted probabilistically.
    ///
    /// A tree-top bucket's counter is stored; a deeper bucket's is
    /// counted from the write-back log, so probing one costs time linear
    /// in the tree's write-backs. The §3.2 probe target, the root, is
    /// always in the tree-top.
    pub fn bucket_fingerprint(&self, node: NodeIndex) -> u64 {
        let counter = if node.0 < self.dense.len() as u64 {
            self.dense[node.0 as usize].encryption_counter
        } else if node.0 >= self.geom.bucket_count() {
            // Past the last level: no such bucket, never written.
            0
        } else {
            // Heap index n sits at level d = ⌊log2(n + 1)⌋ with path
            // prefix n + 1 − 2^d; every written-back path whose leaf
            // carries that prefix re-encrypted it once.
            let level = u64::BITS - 1 - (node.0 + 1).leading_zeros();
            let prefix = node.0 + 1 - (1u64 << level);
            let shift = self.geom.height() - level;
            self.write_backs
                .iter()
                .filter(|leaf| leaf.0 >> shift == prefix)
                .count() as u64
        };
        self.fingerprint_prf.eval2(node.0, counter)
    }

    /// Fingerprint of the root bucket (§3.2's probe target: the root is on
    /// *every* path, so it is rewritten by *every* access).
    pub fn root_fingerprint(&self) -> u64 {
        self.bucket_fingerprint(self.geom.root())
    }

    /// Current stash occupancy.
    pub fn stash_len(&self) -> usize {
        self.stash.len()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TreeStats {
        TreeStats {
            path_accesses: self.accesses,
            bytes_moved: self.accesses * 2 * self.geom.path_bytes(),
            stash_peak: self.stash.peak(),
        }
    }

    /// Number of buckets that hold host memory beyond the pre-allocated
    /// tree-top array (footprint diagnostic): dense buckets that have
    /// been written — their block vectors keep an allocation — plus the
    /// deep buckets that currently hold blocks.
    pub fn materialized_buckets(&self) -> usize {
        let dense_written = self
            .dense
            .iter()
            .filter(|b| b.encryption_counter > 0)
            .count();
        dense_written + self.resident.len()
    }

    fn read_path_into_stash(&mut self, leaf: Leaf) {
        self.path.assert_leaf(leaf);
        let dense_levels = self.dense_levels();
        for level in 0..dense_levels {
            let node = self.path.node_at(leaf, level);
            // Drain in place: the bucket keeps its block vector's
            // allocation for the write-back half of the access.
            for block in self.dense[node.0 as usize].blocks.drain(..) {
                self.stash.insert(block);
            }
        }
        for level in dense_levels..self.path.levels() {
            let node = self.path.node_at(leaf, level);
            if let Some(blocks) = self.resident.remove(&node) {
                for block in blocks {
                    self.stash.insert(block);
                }
            }
        }
    }

    /// How many of this tree's levels live in the dense top array.
    #[inline]
    fn dense_levels(&self) -> usize {
        self.geom.levels().min(DENSE_LEVELS) as usize
    }

    fn write_path_from_stash(&mut self, leaf: Leaf) {
        // Evict greedily from the leaf upward: deeper placements free more
        // stash space and are strictly harder to satisfy, so fill them
        // first (standard Path ORAM eviction). The whole path is filled
        // in ONE id-ordered stash pass — placements provably identical
        // to the per-bucket reference scan (see
        // [`Stash::evict_path_into`]) at O(stash + levels) instead of
        // O(stash x levels) per access.
        let geom = self.geom;
        let levels = self.path.levels();
        if self.evict_scratch.len() != levels {
            self.evict_scratch.resize_with(levels, Vec::new);
        }
        self.stash.evict_path_into(
            geom.z(),
            |block_leaf| geom.deepest_shared_level(leaf, block_leaf) as usize,
            &mut self.evict_scratch,
        );
        let dense_levels = self.dense_levels();
        for level in 0..dense_levels {
            let node = self.path.node_at(leaf, level);
            let bucket = &mut self.dense[node.0 as usize];
            debug_assert!(bucket.blocks.is_empty(), "path was read before write");
            bucket.blocks.append(&mut self.evict_scratch[level]);
            // Probabilistic re-encryption of every bucket on the path.
            bucket.encryption_counter += 1;
        }
        for level in dense_levels..levels {
            if self.evict_scratch[level].is_empty() {
                continue;
            }
            let node = self.path.node_at(leaf, level);
            let blocks = std::mem::take(&mut self.evict_scratch[level]);
            let stale = self.resident.insert(node, blocks);
            debug_assert!(stale.is_none(), "path was read before write");
        }
        // The deep buckets' re-encryption: one logged path.
        if levels > dense_levels {
            self.write_backs.push(leaf);
        }
    }

    /// Verifies the Path ORAM invariant for every materialized block:
    /// a block mapped to leaf `l` must lie on the path to `l` (or in the
    /// stash). Returns the number of blocks checked.
    ///
    /// # Panics
    ///
    /// Panics (with a diagnostic) if the invariant is violated. Intended
    /// for tests and debug assertions, not production paths.
    pub fn check_invariant(&self) -> usize {
        let mut checked = 0;
        let dense = self
            .dense
            .iter()
            .enumerate()
            .map(|(i, b)| (NodeIndex(i as u64), &b.blocks));
        for (node, blocks) in dense.chain(self.resident.iter().map(|(n, b)| (*n, b))) {
            assert!(
                blocks.len() <= self.geom.z(),
                "bucket {node:?} over capacity"
            );
            for block in blocks {
                let on_path = self.geom.path_nodes(block.leaf).any(|n| n == node);
                assert!(
                    on_path,
                    "block {} mapped to {} stored off-path at node {:?}",
                    block.id, block.leaf, node
                );
                checked += 1;
            }
        }
        checked + self.stash.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otc_crypto::{Prf, SymmetricKey};
    use proptest::prelude::*;

    fn test_tree(levels: u32) -> TreeOram {
        let key = SymmetricKey::from_seed(1234);
        TreeOram::new(
            TreeGeometry::new(levels, 3, 64, 16),
            DefaultPayload::Zeros,
            Prf::new(key, b"fingerprint"),
        )
    }

    /// The payload of `id` after an access that only reads it.
    fn read(t: &mut TreeOram, id: BlockId, leaf: Leaf, new_leaf: Leaf) -> Vec<u8> {
        let mut out = Vec::new();
        t.access(id, leaf, new_leaf, false, |p| out.clone_from(p));
        out
    }

    fn write(t: &mut TreeOram, id: BlockId, leaf: Leaf, new_leaf: Leaf, data: &[u8]) {
        t.access(id, leaf, new_leaf, false, |p| p.copy_from_slice(data));
    }

    /// Deterministic "random" leaf sequence for tests.
    fn leaf_seq(geom: &TreeGeometry, seed: u64) -> impl FnMut() -> Leaf + '_ {
        let mut rng = otc_crypto::SplitMix64::new(seed);
        move || Leaf(rng.next_below(geom.leaf_count()))
    }

    #[test]
    fn fresh_block_reads_zero() {
        let mut t = test_tree(4);
        let data = read(&mut t, BlockId(5), Leaf(2), Leaf(3));
        assert_eq!(data, vec![0u8; 64]);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut t = test_tree(4);
        let payload = vec![0xAB; 64];
        write(&mut t, BlockId(7), Leaf(1), Leaf(4), &payload);
        // Must read via the *new* leaf.
        let got = read(&mut t, BlockId(7), Leaf(4), Leaf(0));
        assert_eq!(got, payload);
        t.check_invariant();
    }

    #[test]
    fn root_fingerprint_changes_every_access() {
        let mut t = test_tree(4);
        let f0 = t.root_fingerprint();
        t.dummy_access(Leaf(0), false);
        let f1 = t.root_fingerprint();
        t.dummy_access(Leaf(7), false);
        let f2 = t.root_fingerprint();
        assert_ne!(f0, f1);
        assert_ne!(f1, f2);
    }

    #[test]
    fn off_path_bucket_fingerprint_stable() {
        let mut t = test_tree(4);
        // Access leaf 0 repeatedly; the leaf-level bucket of leaf 7 is
        // never on that path, so its ciphertext never changes.
        let node7 = t.geometry().node_at(Leaf(7), 3);
        let before = t.bucket_fingerprint(node7);
        for _ in 0..5 {
            t.dummy_access(Leaf(0), false);
        }
        assert_eq!(t.bucket_fingerprint(node7), before);
    }

    #[test]
    fn dummy_access_preserves_contents() {
        let mut t = test_tree(4);
        write(&mut t, BlockId(3), Leaf(6), Leaf(6), &[9u8; 64]);
        for leaf in 0..8 {
            t.dummy_access(Leaf(leaf), false);
        }
        assert_eq!(read(&mut t, BlockId(3), Leaf(6), Leaf(1)), vec![9u8; 64]);
        t.check_invariant();
    }

    #[test]
    fn access_counts_and_bytes() {
        let mut t = test_tree(4);
        t.dummy_access(Leaf(0), false);
        read(&mut t, BlockId(0), Leaf(0), Leaf(0));
        let s = t.stats();
        assert_eq!(s.path_accesses, 2);
        assert_eq!(s.bytes_moved, 2 * 2 * t.geometry().path_bytes());
    }

    #[test]
    fn posmap_default_payload_is_prf_derived() {
        let key = SymmetricKey::from_seed(9);
        let prf = Prf::new(key, b"posmap");
        let dp = DefaultPayload::PosmapPrf {
            prf,
            entries_per_block: 8,
            child_leaf_count: 16,
        };
        let payload = dp.synthesize(BlockId(2), 32);
        for j in 0..8usize {
            let v = u32::from_le_bytes(payload[j * 4..j * 4 + 4].try_into().expect("4 bytes"));
            assert_eq!(u64::from(v), prf.eval_below(2 * 8 + j as u64, 16));
            assert!(u64::from(v) < 16);
        }
    }

    #[test]
    fn paper_scale_tree_is_cheap_to_instantiate() {
        // 26 levels = 2^26-1 buckets; only the written path's tree-top
        // buckets and the deep buckets holding blocks cost memory.
        let mut t = test_tree(26);
        let geom = *t.geometry();
        let (l, l2) = {
            let mut next = leaf_seq(&geom, 42);
            (next(), next())
        };
        assert!(l.0 < geom.leaf_count());
        write(&mut t, BlockId(123_456), l, l2, &[1u8; 64]);
        assert!(t.materialized_buckets() <= 26);
    }

    #[test]
    fn deep_bucket_holds_a_block_only_while_resident() {
        // A block remapped onto the path it was read from settles in
        // that path's leaf bucket, 20 levels below the dense top.
        let mut t = test_tree(34);
        let leaf = Leaf(0x1_2345_6789);
        write(&mut t, BlockId(9), leaf, leaf, &[4u8; 64]);
        assert_eq!(t.resident.len(), 1, "one deep bucket holds the block");
        let node = t.geometry().node_at(leaf, 33);
        assert!(t.resident[&node].iter().any(|b| b.id == BlockId(9)));
        // Reading the path takes the bucket out of the map; the write-back
        // puts it (or a shallower one) back.
        t.dummy_access(leaf, true);
        assert_eq!(t.resident.len(), 0);
        t.evict_path(leaf);
        assert_eq!(t.resident.len(), 1);
        assert_eq!(read(&mut t, BlockId(9), leaf, Leaf(3)), vec![4u8; 64]);
        assert_eq!(t.check_invariant(), 1);
        let prf = &t.fingerprint_prf;
        assert_eq!(t.bucket_fingerprint(node), prf.eval2(node.0, 3));
        // Past the last level there is no bucket: counter 0.
        let past = NodeIndex(t.geometry().bucket_count());
        assert_eq!(t.bucket_fingerprint(past), prf.eval2(past.0, 0));
        assert_eq!(
            t.bucket_fingerprint(NodeIndex(u64::MAX)),
            prf.eval2(u64::MAX, 0)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Read-your-writes under random interleavings, with the invariant
        /// checked continuously and the stash staying bounded.
        #[test]
        fn prop_read_your_writes(seed in any::<u64>(), ops in 1usize..60) {
            let mut t = test_tree(5); // 16 leaves
            let geom = *t.geometry();
            let mut rng = otc_crypto::SplitMix64::new(seed);
            // Model of truth: block id -> (expected payload, current leaf).
            let mut model: std::collections::HashMap<u64, (Vec<u8>, Leaf)> =
                std::collections::HashMap::new();
            for step in 0..ops {
                let id = rng.next_below(12); // ≤ 12 distinct blocks in 16-leaf tree
                let new_leaf = Leaf(rng.next_below(geom.leaf_count()));
                let entry = model.get(&id).cloned();
                let cur_leaf = entry
                    .as_ref()
                    .map(|(_, l)| *l)
                    .unwrap_or(Leaf(rng.next_below(geom.leaf_count())));
                if rng.next_below(2) == 0 {
                    // write
                    let payload = vec![(step as u8).wrapping_mul(31); 64];
                    write(&mut t, BlockId(id), cur_leaf, new_leaf, &payload);
                    model.insert(id, (payload, new_leaf));
                } else {
                    // read
                    let got = read(&mut t, BlockId(id), cur_leaf, new_leaf);
                    if let Some((expect, _)) = entry {
                        prop_assert_eq!(&got, &expect);
                    } else {
                        prop_assert_eq!(&got, &vec![0u8; 64]);
                    }
                    model
                        .entry(id)
                        .and_modify(|e| e.1 = new_leaf)
                        .or_insert((vec![0u8; 64], new_leaf));
                }
                t.check_invariant();
                prop_assert!(t.stash_len() <= 40, "stash grew to {}", t.stash_len());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Re-encryption counts below the dense tree-top: an 18-level
        /// tree puts its last four levels under the dense array. Random
        /// reads, writes and dummies — each immediate or deferred, with
        /// deferred write-backs drained oldest-first at random points —
        /// are checked against a model that counts write-backs per node.
        /// Half the leaves come from a cluster of eight neighbours, whose
        /// paths share all but the last three levels, so blocks also
        /// settle in deep buckets.
        /// After every step, every node on every touched path must show
        /// the fingerprint of exactly its modelled count, every block
        /// must read back its last write, and the invariant must hold.
        #[test]
        fn prop_deep_fingerprints_track_writebacks(seed in any::<u64>(), ops in 1usize..60) {
            let mut t = test_tree(18);
            let geom = *t.geometry();
            prop_assert!(geom.levels() > DENSE_LEVELS, "tree must reach below the dense top");
            let mut rng = otc_crypto::SplitMix64::new(seed);
            // Block id -> (expected payload, current leaf).
            let mut model: HashMap<u64, (Vec<u8>, Leaf)> = HashMap::new();
            // Node index -> write-backs that re-encrypted it.
            let mut writes: HashMap<u64, u64> = HashMap::new();
            let mut touched: Vec<Leaf> = Vec::new();
            let mut pending: std::collections::VecDeque<Leaf> = Default::default();
            let cluster = rng.next_below(geom.leaf_count() / 8) * 8;
            let draw_leaf = move |rng: &mut otc_crypto::SplitMix64| match rng.next_below(2) {
                0 => Leaf(cluster + rng.next_below(8)),
                _ => Leaf(rng.next_below(geom.leaf_count())),
            };
            let count_write_back = |writes: &mut HashMap<u64, u64>, leaf: Leaf| {
                for node in geom.path_nodes(leaf) {
                    *writes.entry(node.0).or_insert(0) += 1;
                }
            };
            for step in 0..ops {
                let defer = rng.next_below(2) == 0;
                let access = match rng.next_below(5) {
                    0 => {
                        if let Some(leaf) = pending.pop_front() {
                            t.evict_path(leaf);
                            count_write_back(&mut writes, leaf);
                        }
                        None
                    }
                    1 => {
                        let leaf = draw_leaf(&mut rng);
                        t.dummy_access(leaf, defer);
                        Some(leaf)
                    }
                    op => {
                        let id = rng.next_below(12);
                        let new_leaf = draw_leaf(&mut rng);
                        let (expect, leaf) = model
                            .get(&id)
                            .cloned()
                            .unwrap_or_else(|| (vec![0u8; 64], draw_leaf(&mut rng)));
                        let written = (op == 2).then(|| vec![(step as u8) ^ 0x5A; 64]);
                        let mut got = Vec::new();
                        t.access(BlockId(id), leaf, new_leaf, defer, |p| {
                            if let Some(w) = &written {
                                p.copy_from_slice(w);
                            }
                            got.clone_from(p);
                        });
                        let now = written.unwrap_or(expect);
                        prop_assert_eq!(&got, &now, "block {} read back wrong", id);
                        model.insert(id, (now, new_leaf));
                        Some(leaf)
                    }
                };
                if let Some(leaf) = access {
                    if !touched.contains(&leaf) {
                        touched.push(leaf);
                    }
                    if defer {
                        pending.push_back(leaf);
                    } else {
                        count_write_back(&mut writes, leaf);
                    }
                }
                while pending.len() > 4 {
                    let oldest = pending.pop_front().expect("non-empty");
                    t.evict_path(oldest);
                    count_write_back(&mut writes, oldest);
                }
                for &path in &touched {
                    for node in geom.path_nodes(path) {
                        let count = writes.get(&node.0).copied().unwrap_or(0);
                        prop_assert_eq!(
                            t.bucket_fingerprint(node),
                            t.fingerprint_prf.eval2(node.0, count),
                            "node {} after step {}", node.0, step
                        );
                    }
                }
                t.check_invariant();
            }
        }
    }
}
