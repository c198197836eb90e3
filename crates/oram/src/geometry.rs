//! Binary-tree geometry for one Path ORAM.

use crate::types::{Leaf, NodeIndex};

/// Geometry of a single ORAM tree: a complete binary tree of buckets.
///
/// Terminology: a tree of *height* `h` has `h + 1` levels (root = level 0,
/// leaves = level `h`) and `2^h` leaves. The paper's default data ORAM in
/// this reproduction has 26 levels (height 25, 2^25 leaves); see
/// [`crate::OramConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeGeometry {
    levels: u32,
    z: usize,
    block_bytes: usize,
    header_bytes: usize,
}

impl TreeGeometry {
    /// Creates a geometry with `levels` levels, `z` block slots per
    /// bucket, `block_bytes` per block and `header_bytes` of per-bucket
    /// metadata (IV/counter).
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0`, `levels > 40`, or `z == 0`.
    pub fn new(levels: u32, z: usize, block_bytes: usize, header_bytes: usize) -> Self {
        assert!(
            levels > 0 && levels <= 40,
            "unreasonable level count {levels}"
        );
        assert!(z > 0, "bucket capacity must be positive");
        Self {
            levels,
            z,
            block_bytes,
            header_bytes,
        }
    }

    /// Number of levels (root through leaf, inclusive).
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Tree height (= levels − 1).
    pub fn height(&self) -> u32 {
        self.levels - 1
    }

    /// Blocks per bucket (the paper's `Z`; 3 for all ORAMs, §9.1.2).
    pub fn z(&self) -> usize {
        self.z
    }

    /// Payload bytes per block.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// Per-bucket header bytes (nonce/IV for probabilistic encryption).
    pub fn header_bytes(&self) -> usize {
        self.header_bytes
    }

    /// Number of leaves (`2^height`).
    pub fn leaf_count(&self) -> u64 {
        1u64 << self.height()
    }

    /// Total buckets in the tree (`2^levels − 1`).
    pub fn bucket_count(&self) -> u64 {
        (1u64 << self.levels) - 1
    }

    /// Bytes of one bucket as stored in DRAM (header + Z blocks, dummies
    /// included — buckets are padded to fixed size, §3).
    pub fn bucket_bytes(&self) -> u64 {
        (self.header_bytes + self.z * self.block_bytes) as u64
    }

    /// Bytes moved to read (or write) one full path.
    pub fn path_bytes(&self) -> u64 {
        self.levels as u64 * self.bucket_bytes()
    }

    /// Node index of the bucket at `level` on the path to `leaf`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` or `level` is out of range.
    pub fn node_at(&self, leaf: Leaf, level: u32) -> NodeIndex {
        assert!(leaf.0 < self.leaf_count(), "leaf {leaf} out of range");
        assert!(level < self.levels, "level {level} out of range");
        // The path from root to leaf follows the bits of the leaf label
        // from most significant (just below the root) to least.
        // Node at `level` has heap index: (2^level - 1) + (leaf >> (height - level)).
        let prefix = leaf.0 >> (self.height() - level);
        NodeIndex(((1u64 << level) - 1) + prefix)
    }

    /// The node indices along the path from root to `leaf`
    /// (root first).
    pub fn path_nodes(&self, leaf: Leaf) -> impl Iterator<Item = NodeIndex> + '_ {
        (0..self.levels).map(move |lvl| self.node_at(leaf, lvl))
    }

    /// The root bucket's node index (probed by the §3.2 adversary).
    pub fn root(&self) -> NodeIndex {
        NodeIndex(0)
    }

    /// Whether the bucket at `level` on the path to `a` is also on the
    /// path to `b` — i.e. the two paths have not yet diverged at `level`.
    ///
    /// Used by eviction: a stash block mapped to leaf `b` may be placed in
    /// the path-to-`a` bucket at `level` iff this returns `true`.
    pub fn paths_share_level(&self, a: Leaf, b: Leaf, level: u32) -> bool {
        let shift = self.height() - level;
        if shift >= 64 {
            return true; // both prefixes are empty at the root
        }
        (a.0 >> shift) == (b.0 >> shift)
    }

    /// The deepest level at which the paths to `a` and `b` still share a
    /// bucket — the common-prefix length of the two leaf labels. Eviction
    /// legality is prefix-closed ([`TreeGeometry::paths_share_level`]
    /// holds exactly for levels `0..=deepest`), so one XOR replaces a
    /// per-level predicate scan in the eviction hot loop.
    pub fn deepest_shared_level(&self, a: Leaf, b: Leaf) -> u32 {
        // Bits where the labels still differ after shifting; the paths
        // share level `l` iff `height - l` kills every differing bit.
        let sig = 64 - (a.0 ^ b.0).leading_zeros();
        debug_assert!(
            sig <= self.height(),
            "leaves {a}/{b} out of range for height {}",
            self.height()
        );
        self.height().saturating_sub(sig)
    }

    /// Precomputed per-level path-node table for this geometry.
    pub fn path_table(&self) -> PathTable {
        PathTable::new(self)
    }
}

/// Precomputed per-level path-node index table for one geometry.
///
/// The bucket index at `level` on the path to `leaf` is pure arithmetic
/// on the leaf label — `(2^level − 1) + (leaf >> (height − level))` —
/// so the per-level base/shift constants are computed once per tree and
/// the per-access hot path ([`crate::TreeOram`]'s path read/write) does
/// a table lookup instead of re-deriving (and re-asserting) them for
/// every bucket of every access.
#[derive(Debug, Clone)]
pub struct PathTable {
    leaf_count: u64,
    /// `(2^level − 1, height − level)` per level, root first.
    rows: Vec<(u64, u32)>,
}

impl PathTable {
    /// Builds the table for `geom` (one row per level).
    pub fn new(geom: &TreeGeometry) -> Self {
        Self {
            leaf_count: geom.leaf_count(),
            rows: (0..geom.levels())
                .map(|lvl| ((1u64 << lvl) - 1, geom.height() - lvl))
                .collect(),
        }
    }

    /// Number of levels (rows).
    pub fn levels(&self) -> usize {
        self.rows.len()
    }

    /// Node index at `level` on the path to `leaf`. The leaf bound is
    /// asserted once per path via [`PathTable::assert_leaf`], not here.
    #[inline]
    pub fn node_at(&self, leaf: Leaf, level: usize) -> NodeIndex {
        let (base, shift) = self.rows[level];
        NodeIndex(base + (leaf.0 >> shift))
    }

    /// Asserts `leaf` is addressable by this geometry.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range.
    pub fn assert_leaf(&self, leaf: Leaf) {
        assert!(leaf.0 < self.leaf_count, "leaf {leaf} out of range");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> TreeGeometry {
        TreeGeometry::new(4, 3, 64, 16) // 8 leaves, 15 buckets
    }

    #[test]
    fn counts() {
        let g = small();
        assert_eq!(g.leaf_count(), 8);
        assert_eq!(g.bucket_count(), 15);
        assert_eq!(g.bucket_bytes(), 16 + 3 * 64);
        assert_eq!(g.path_bytes(), 4 * 208);
    }

    #[test]
    fn paper_data_tree_sizes() {
        // Default data ORAM: 26 levels, Z=3, 64 B blocks, 16 B header.
        let g = TreeGeometry::new(26, 3, 64, 16);
        assert_eq!(g.leaf_count(), 1 << 25);
        // Nominal capacity ≈ 13 GB of slots; the *addressable* capacity
        // used by the paper is 4 GB (2^26 blocks), a 33% load factor.
        assert_eq!(g.path_bytes(), 26 * 208);
    }

    #[test]
    fn root_is_on_every_path() {
        let g = small();
        for leaf in 0..g.leaf_count() {
            assert_eq!(g.node_at(Leaf(leaf), 0), g.root());
        }
    }

    #[test]
    fn leaf_level_nodes_are_distinct_and_dense() {
        let g = small();
        let nodes: Vec<u64> = (0..g.leaf_count())
            .map(|l| g.node_at(Leaf(l), g.height()).0)
            .collect();
        // Leaves occupy indices 7..15 in heap order for a 4-level tree.
        assert_eq!(nodes, (7..15).collect::<Vec<_>>());
    }

    #[test]
    fn path_parent_child_relation() {
        let g = small();
        for leaf in 0..g.leaf_count() {
            let path: Vec<NodeIndex> = g.path_nodes(Leaf(leaf)).collect();
            assert_eq!(path.len(), g.levels() as usize);
            for w in path.windows(2) {
                let (parent, child) = (w[0].0, w[1].0);
                assert!(child == 2 * parent + 1 || child == 2 * parent + 2);
            }
        }
    }

    #[test]
    fn paths_share_level_matches_node_equality() {
        let g = small();
        for a in 0..g.leaf_count() {
            for b in 0..g.leaf_count() {
                for lvl in 0..g.levels() {
                    let share = g.paths_share_level(Leaf(a), Leaf(b), lvl);
                    let same_node = g.node_at(Leaf(a), lvl) == g.node_at(Leaf(b), lvl);
                    assert_eq!(share, same_node, "a={a} b={b} lvl={lvl}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "leaf")]
    fn out_of_range_leaf_panics() {
        small().node_at(Leaf(8), 0);
    }

    proptest! {
        #[test]
        fn prop_share_levels_are_prefix_closed(levels in 2u32..20, a in any::<u64>(), b in any::<u64>()) {
            // If two paths share level L, they share every level above L.
            let g = TreeGeometry::new(levels, 3, 64, 16);
            let a = Leaf(a % g.leaf_count());
            let b = Leaf(b % g.leaf_count());
            let mut shared_so_far = true;
            for lvl in 0..g.levels() {
                let s = g.paths_share_level(a, b, lvl);
                if !shared_so_far {
                    prop_assert!(!s, "diverged paths re-converged at level {}", lvl);
                }
                shared_so_far = s;
            }
        }

        #[test]
        fn prop_deepest_shared_level_matches_predicate(levels in 1u32..26, a in any::<u64>(), b in any::<u64>()) {
            // deepest_shared_level must be exactly the boundary of the
            // per-level predicate: shared at every level up to it,
            // diverged at every level past it.
            let g = TreeGeometry::new(levels, 3, 64, 16);
            let a = Leaf(a % g.leaf_count());
            let b = Leaf(b % g.leaf_count());
            let d = g.deepest_shared_level(a, b);
            for lvl in 0..g.levels() {
                prop_assert_eq!(
                    g.paths_share_level(a, b, lvl),
                    lvl <= d,
                    "a={} b={} lvl={} d={}", a, b, lvl, d
                );
            }
        }

        #[test]
        fn prop_node_indices_in_range(levels in 1u32..26, leaf in any::<u64>()) {
            let g = TreeGeometry::new(levels, 3, 64, 16);
            let leaf = Leaf(leaf % g.leaf_count());
            for node in g.path_nodes(leaf) {
                prop_assert!(node.0 < g.bucket_count());
            }
        }
    }
}
