//! The full recursive Path ORAM controller.
//!
//! One logical access touches four trees in sequence (§9.1.2: "3 levels of
//! recursion"): the on-chip position map yields the leaf of a block in the
//! smallest posmap ORAM; reading that block yields the leaf of a block in
//! the next posmap ORAM; and so on down to the data ORAM. Every touched
//! block is remapped to a fresh random leaf as it is accessed — the
//! critical security step (§3.1).

use crate::config::{OramConfig, POSMAP_ENTRY_BYTES};
use crate::posmap::SparseLeafMap;
use crate::stats::OramStats;
use crate::tree::{DefaultPayload, TreeOram};
use crate::types::{BlockId, Leaf, NodeIndex};
use otc_crypto::{Prf, SplitMix64, SymmetricKey};
use std::collections::VecDeque;

/// A complete Path ORAM with recursive position maps.
///
/// Whether the data tree's path write-back (the eviction) runs inline or
/// is deferred into a background queue is fixed when the ORAM is built:
/// [`RecursivePathOram::new`] evicts inline, the serial controller the
/// paper models; [`RecursivePathOram::with_deferred_evictions`] builds
/// the pipelined controller's variant. Every access method then runs the
/// same code whichever was chosen.
///
/// # Example
///
/// ```
/// use otc_oram::{OramConfig, RecursivePathOram};
///
/// let mut oram = RecursivePathOram::new(OramConfig::small()).expect("valid config");
/// oram.write(3, &[0xCD; 64]);
/// assert_eq!(oram.read(3), vec![0xCD; 64]);
/// // Every access (including the read) touched all four trees:
/// assert_eq!(oram.stats().real_accesses, 2);
/// ```
pub struct RecursivePathOram {
    config: OramConfig,
    data: TreeOram,
    /// `posmaps[0]` holds data-ORAM positions, …, last is smallest.
    posmaps: Vec<TreeOram>,
    onchip: SparseLeafMap,
    rng: SplitMix64,
    stats: OramStats,
    /// Whether data-tree accesses defer their path write-back.
    defer_evictions: bool,
    /// Data-tree paths whose write-back (eviction) has been deferred,
    /// FIFO. Drained by [`RecursivePathOram::drain_eviction`].
    pending_evictions: VecDeque<Leaf>,
    /// Reusable scratch for the covering posmap block indices of one
    /// access (one entry per recursion level).
    covering_scratch: Vec<u64>,
    /// Reusable scratch for one dummy access's batched leaf draws.
    dummy_leaves: Vec<Leaf>,
}

impl std::fmt::Debug for RecursivePathOram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecursivePathOram")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish()
    }
}

impl RecursivePathOram {
    /// Builds an ORAM from `config` whose accesses evict inline.
    ///
    /// # Errors
    ///
    /// Returns a descriptive error if `config` fails
    /// [`OramConfig::validate`].
    pub fn new(config: OramConfig) -> Result<Self, String> {
        Self::build(config, false)
    }

    /// As [`RecursivePathOram::new`], but every access defers the data
    /// tree's path write-back into the background eviction queue. Real
    /// and dummy accesses defer alike, so they stay indistinguishable;
    /// posmap trees still evict inline (their paths are small and their
    /// lookups form the pipeline's front stages). The caller drains the
    /// queue via [`RecursivePathOram::drain_eviction`].
    ///
    /// # Errors
    ///
    /// As [`RecursivePathOram::new`].
    pub fn with_deferred_evictions(config: OramConfig) -> Result<Self, String> {
        Self::build(config, true)
    }

    fn build(config: OramConfig, defer_evictions: bool) -> Result<Self, String> {
        config.validate()?;
        let key = SymmetricKey::from_seed(config.seed);
        let data = TreeOram::new(
            config.data,
            DefaultPayload::Zeros,
            Prf::new(key, b"fingerprint/data"),
        );
        let entries = config.entries_per_posmap_block();
        let mut posmaps = Vec::with_capacity(config.posmaps.len());
        // posmaps[i] stores the positions of the tree "below" it:
        // below posmaps[0] is the data tree; below posmaps[i] is
        // posmaps[i-1].
        let mut child_leaf_count = config.data.leaf_count();
        for (i, geom) in config.posmaps.iter().enumerate() {
            let label = format!("posmap{i}");
            posmaps.push(TreeOram::new(
                *geom,
                DefaultPayload::PosmapPrf {
                    prf: Prf::new(key, label.as_bytes()),
                    entries_per_block: entries,
                    child_leaf_count,
                },
                Prf::new(key, format!("fingerprint/{label}").as_bytes()),
            ));
            child_leaf_count = geom.leaf_count();
        }
        let smallest_leaves = config
            .posmaps
            .last()
            .expect("validated: non-empty")
            .leaf_count();
        let onchip = SparseLeafMap::new(Prf::new(key, b"onchip"), smallest_leaves);
        let rng_seed = config.seed ^ 0x5EAF_5EED;
        Ok(Self {
            config,
            data,
            posmaps,
            onchip,
            rng: SplitMix64::new(rng_seed),
            stats: OramStats::default(),
            defer_evictions,
            pending_evictions: VecDeque::new(),
            covering_scratch: Vec::new(),
            dummy_leaves: Vec::new(),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &OramConfig {
        &self.config
    }

    /// Reads the cache line at block address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` exceeds [`OramConfig::data_block_capacity`].
    pub fn read(&mut self, addr: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.access(addr, |p| out.extend_from_slice(p));
        out
    }

    /// As [`RecursivePathOram::read`], discarding the payload: the same
    /// trees move the same bytes, but no copy of the cache line is
    /// materialized. The multi-tenant host's serving datapath consumes
    /// only the access's *timing*, so its read path stays allocation-free.
    pub fn read_discard(&mut self, addr: u64) {
        self.access(addr, |_| {});
    }

    /// Writes the cache line at block address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range or `data` is not one data block
    /// long.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        assert_eq!(
            data.len(),
            self.config.data.block_bytes(),
            "payload must be block-sized"
        );
        self.access(addr, |p| p.copy_from_slice(data));
    }

    /// Performs an indistinguishable dummy access (§1.1.2): a random path
    /// is read and written in every tree, with all the same data movement
    /// and re-encryption as a real access (the data tree's write-back
    /// deferred exactly when a real access's would be).
    pub fn dummy_access(&mut self) {
        // Batch the PRNG draws up front (same draw order as ever:
        // posmap chain smallest-first, then the data tree) so the hot
        // loop below is pure tree work; the scratch is reused across
        // dummies.
        self.dummy_leaves.clear();
        for i in (0..self.posmaps.len()).rev() {
            self.dummy_leaves.push(Leaf(
                self.rng.next_below(self.posmaps[i].geometry().leaf_count()),
            ));
        }
        let leaf = Leaf(self.rng.next_below(self.data.geometry().leaf_count()));
        for (j, i) in (0..self.posmaps.len()).rev().enumerate() {
            let posmap_leaf = self.dummy_leaves[j];
            self.posmaps[i].dummy_access(posmap_leaf, false);
        }
        self.data.dummy_access(leaf, self.defer_evictions);
        self.defer_eviction(leaf);
        self.stats.dummy_accesses += 1;
        self.stats.bytes_moved += self.config.bytes_per_access();
    }

    /// Queues the data-tree path to `leaf` for a later drain, when this
    /// ORAM defers its evictions.
    fn defer_eviction(&mut self, leaf: Leaf) {
        if self.defer_evictions {
            self.pending_evictions.push_back(leaf);
            self.stats.deferred_evictions += 1;
        }
    }

    /// Completes the oldest deferred data-tree eviction, if any. Returns
    /// whether one was drained. After every pending eviction has drained,
    /// bucket ciphertext fingerprints (the §3.2 observable) match what a
    /// serial controller would have produced for the same access
    /// sequence — deferral reorders write-backs, it never skips one.
    pub fn drain_eviction(&mut self) -> bool {
        match self.pending_evictions.pop_front() {
            Some(leaf) => {
                self.data.evict_path(leaf);
                self.stats.eviction_drains += 1;
                true
            }
            None => false,
        }
    }

    /// Drains every pending deferred eviction (oldest first).
    pub fn drain_evictions(&mut self) {
        while self.drain_eviction() {}
    }

    /// Number of data-tree evictions currently deferred.
    pub fn pending_evictions(&self) -> usize {
        self.pending_evictions.len()
    }

    /// Current occupancy of the *data tree's* stash — the one deferred
    /// evictions grow. Bounded-deferral controllers watch this.
    pub fn data_stash_len(&self) -> usize {
        self.data.stash_len()
    }

    /// Current stash occupancy summed over every tree (data + posmaps) —
    /// the controller-wide on-chip block count perf sessions sample each
    /// round. The data tree dominates under deferred eviction; posmap
    /// stashes drain inline and contribute only transient occupancy.
    pub fn total_stash_len(&self) -> usize {
        self.data.stash_len() + self.posmaps.iter().map(|p| p.stash_len()).sum::<usize>()
    }

    /// One full recursive access, applying `update` to the data block's
    /// payload. The tree and PRNG work is the same whatever `update`
    /// does, so discard-mode callers (the host's serving datapath) get
    /// the same timing and DRAM image with zero payload allocation.
    fn access<F>(&mut self, addr: u64, update: F)
    where
        F: FnOnce(&mut [u8]),
    {
        assert!(
            addr < self.config.data_block_capacity(),
            "address {addr} beyond ORAM capacity {}",
            self.config.data_block_capacity()
        );
        let entries = self.config.entries_per_posmap_block() as u64;

        // Block indices at each recursion level, data-level first.
        // posmap block covering data block `a` is `a / entries`, etc.
        let mut covering = std::mem::take(&mut self.covering_scratch);
        covering.clear();
        let mut b = addr;
        for _ in &self.posmaps {
            b /= entries;
            covering.push(b);
        }
        // covering[i] = block index within posmaps[i].

        // 1. On-chip posmap: leaf of the smallest posmap ORAM's block.
        let smallest = self.posmaps.len() - 1;
        let top_block = BlockId(covering[smallest]);
        let new_top_leaf = Leaf(
            self.rng
                .next_below(self.posmaps[smallest].geometry().leaf_count()),
        );
        let top_leaf = self.onchip.set(top_block, new_top_leaf);

        // 2. Walk down the posmap chain. Reading posmaps[i] yields the
        //    leaf for the block in the tree below (posmaps[i-1] or data).
        let mut cur_leaf = top_leaf;
        let mut cur_new = new_top_leaf;
        for i in (0..self.posmaps.len()).rev() {
            let block = BlockId(covering[i]);
            let below_index = if i == 0 { addr } else { covering[i - 1] };
            let slot = (below_index % entries) as usize;
            let below_leaves = if i == 0 {
                self.data.geometry().leaf_count()
            } else {
                self.posmaps[i - 1].geometry().leaf_count()
            };
            let new_below_leaf = Leaf(self.rng.next_below(below_leaves));
            let mut old_below_leaf = Leaf(0);
            // The posmap block's payload is consumed inside the closure.
            self.posmaps[i].access(block, cur_leaf, cur_new, false, |payload| {
                let off = slot * POSMAP_ENTRY_BYTES;
                let bytes: [u8; 4] = payload[off..off + 4]
                    .try_into()
                    .expect("entry within block");
                old_below_leaf = Leaf(u64::from(u32::from_le_bytes(bytes)));
                payload[off..off + 4].copy_from_slice(&(new_below_leaf.0 as u32).to_le_bytes());
            });
            // Prepare next iteration: the tree below is accessed with the
            // leaf we just read, remapped to the one we just installed.
            cur_leaf = old_below_leaf;
            cur_new = new_below_leaf;
        }
        self.covering_scratch = covering;

        // 3. Data ORAM access (eviction inline or deferred).
        self.data.access(
            BlockId(addr),
            cur_leaf,
            cur_new,
            self.defer_evictions,
            update,
        );
        self.defer_eviction(cur_leaf);

        self.stats.real_accesses += 1;
        self.stats.bytes_moved += self.config.bytes_per_access();
        self.stats.stash_peak = self.stats.stash_peak.max(self.data.stats().stash_peak).max(
            self.posmaps
                .iter()
                .map(|t| t.stats().stash_peak)
                .max()
                .unwrap_or(0),
        );
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> OramStats {
        let mut s = self.stats;
        s.stash_peak = s.stash_peak.max(self.data.stats().stash_peak).max(
            self.posmaps
                .iter()
                .map(|t| t.stats().stash_peak)
                .max()
                .unwrap_or(0),
        );
        s
    }

    /// Ciphertext fingerprint of the *data tree's root bucket* — the §3.2
    /// probe target. Changes on every access of any kind.
    pub fn root_fingerprint(&self) -> u64 {
        self.data.root_fingerprint()
    }

    /// Fingerprint of an arbitrary data-tree bucket.
    pub fn bucket_fingerprint(&self, node: NodeIndex) -> u64 {
        self.data.bucket_fingerprint(node)
    }

    /// Checks the Path ORAM invariant in every tree. Test/debug helper.
    ///
    /// # Panics
    ///
    /// Panics if any tree violates the invariant.
    pub fn check_invariants(&self) {
        self.data.check_invariant();
        for t in &self.posmaps {
            t.check_invariant();
        }
    }

    /// Peak stash occupancy across all trees.
    pub fn stash_peak(&self) -> usize {
        self.stats().stash_peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> RecursivePathOram {
        RecursivePathOram::new(OramConfig::small()).expect("valid")
    }

    fn deferred() -> RecursivePathOram {
        RecursivePathOram::with_deferred_evictions(OramConfig::small()).expect("valid")
    }

    #[test]
    fn fresh_reads_are_zero() {
        let mut o = small();
        assert_eq!(o.read(0), vec![0u8; 64]);
        assert_eq!(o.read(100), vec![0u8; 64]);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut o = small();
        o.write(42, &[7u8; 64]);
        assert_eq!(o.read(42), vec![7u8; 64]);
    }

    #[test]
    fn total_stash_spans_data_and_posmap_trees() {
        let mut o = small();
        for i in 0..32u64 {
            o.write(i, &[i as u8; 64]);
        }
        assert!(o.total_stash_len() >= o.data_stash_len());
        assert_eq!(o.pending_evictions(), 0, "an inline ORAM never defers");
        // Deferred accesses grow the data stash; the total tracks it.
        let mut d = deferred();
        for i in 0..16u64 {
            d.write(i, &[1u8; 64]);
        }
        assert!(d.total_stash_len() >= d.data_stash_len());
        assert!(d.data_stash_len() > 0);
    }

    #[test]
    fn many_blocks_roundtrip_with_invariants() {
        let mut o = small();
        for i in 0..128u64 {
            o.write(i, &[i as u8; 64]);
        }
        o.check_invariants();
        for i in (0..128u64).rev() {
            assert_eq!(o.read(i), vec![i as u8; 64], "block {i}");
        }
        o.check_invariants();
    }

    #[test]
    fn repeated_access_remaps() {
        // Accessing the same block repeatedly must keep working (the
        // position map is updated on every access).
        let mut o = small();
        o.write(9, &[1u8; 64]);
        for _ in 0..50 {
            assert_eq!(o.read(9), vec![1u8; 64]);
        }
        o.check_invariants();
    }

    #[test]
    fn dummy_accesses_preserve_data_and_count_separately() {
        let mut o = small();
        o.write(5, &[3u8; 64]);
        for _ in 0..20 {
            o.dummy_access();
        }
        assert_eq!(o.read(5), vec![3u8; 64]);
        let s = o.stats();
        assert_eq!(s.dummy_accesses, 20);
        assert_eq!(s.real_accesses, 2);
        assert_eq!(s.bytes_moved, 22 * o.config().bytes_per_access());
    }

    #[test]
    fn root_fingerprint_changes_on_real_and_dummy() {
        let mut o = small();
        let f0 = o.root_fingerprint();
        o.read(0);
        let f1 = o.root_fingerprint();
        o.dummy_access();
        let f2 = o.root_fingerprint();
        assert_ne!(f0, f1);
        assert_ne!(f1, f2);
    }

    #[test]
    #[should_panic(expected = "beyond ORAM capacity")]
    fn out_of_range_address_panics() {
        small().read(u64::MAX);
    }

    #[test]
    #[should_panic(expected = "payload must be block-sized")]
    fn wrong_payload_size_panics() {
        small().write(0, &[1, 2, 3]);
    }

    #[test]
    fn deferred_accesses_roundtrip_under_bounded_queue() {
        let mut o = deferred();
        for i in 0..32u64 {
            o.write(i, &[i as u8; 64]);
            while o.pending_evictions() > 4 {
                assert!(o.drain_eviction());
            }
        }
        o.check_invariants(); // stash residency is always legal
        for i in (0..32u64).rev() {
            assert_eq!(o.read(i), vec![i as u8; 64], "block {i}");
            while o.pending_evictions() > 4 {
                o.drain_eviction();
            }
        }
        o.drain_evictions();
        assert_eq!(o.pending_evictions(), 0);
        assert!(!o.drain_eviction(), "drained queue reports empty");
        o.check_invariants();
        let s = o.stats();
        assert_eq!(s.deferred_evictions, 64);
        assert_eq!(s.eviction_drains, 64);
        assert_eq!(s.pending_evictions(), 0);
    }

    #[test]
    fn deferred_fingerprints_match_serial_after_drain() {
        // The §3.2 observable (bucket ciphertexts) must not betray the
        // pipelining: after all deferred evictions drain, every bucket
        // has been re-encrypted exactly as many times as under a serial
        // controller running the same access sequence.
        let mut serial = small();
        let mut deferred = deferred();
        let mut rng = SplitMix64::new(0xFEED);
        for step in 0..60u64 {
            match rng.next_below(3) {
                0 => {
                    let addr = rng.next_below(100);
                    let val = vec![step as u8; 64];
                    serial.write(addr, &val);
                    deferred.write(addr, &val);
                }
                1 => {
                    let addr = rng.next_below(100);
                    assert_eq!(serial.read(addr), deferred.read(addr));
                }
                _ => {
                    serial.dummy_access();
                    deferred.dummy_access();
                }
            }
            while deferred.pending_evictions() > 3 {
                deferred.drain_eviction();
            }
        }
        deferred.drain_evictions();
        assert_eq!(serial.root_fingerprint(), deferred.root_fingerprint());
        for node in [0u64, 1, 2, 5, 12, 40] {
            assert_eq!(
                serial.bucket_fingerprint(NodeIndex(node)),
                deferred.bucket_fingerprint(NodeIndex(node)),
                "bucket {node}"
            );
        }
        serial.check_invariants();
        deferred.check_invariants();
    }

    #[test]
    fn deferred_fingerprints_match_serial_after_drain_paper() {
        // As above at the paper's geometry, where the data tree's last
        // 12 levels sit below the dense tree-top: every bucket on every
        // accessed data path — dense and deep — must match the serial
        // controller's ciphertext once the deferred evictions drain.
        let mut serial = RecursivePathOram::new(OramConfig::paper()).expect("valid");
        let mut deferred =
            RecursivePathOram::with_deferred_evictions(OramConfig::paper()).expect("valid");
        let fresh = RecursivePathOram::new(OramConfig::paper()).expect("valid");
        let capacity = serial.config().data_block_capacity();
        let mut rng = SplitMix64::new(0xFEED);
        let mut paths = Vec::new();
        for step in 0..60u64 {
            // Half the accesses hit eight hot addresses, so blocks come
            // back off the tree and through the stash.
            let addr = match rng.next_below(2) {
                0 => rng.next_below(8),
                _ => rng.next_below(capacity),
            };
            match rng.next_below(3) {
                0 => {
                    let val = vec![step as u8; 64];
                    serial.write(addr, &val);
                    deferred.write(addr, &val);
                }
                1 => assert_eq!(serial.read(addr), deferred.read(addr)),
                _ => {
                    serial.dummy_access();
                    deferred.dummy_access();
                }
            }
            // The deferred controller queues every data path it touched.
            paths.push(*deferred.pending_evictions.back().expect("queued"));
            while deferred.pending_evictions() > 3 {
                deferred.drain_eviction();
            }
        }
        deferred.drain_evictions();
        let geom = serial.config().data;
        let mut deep = 0;
        for leaf in paths {
            for node in geom.path_nodes(leaf) {
                let fp = serial.bucket_fingerprint(node);
                assert_eq!(fp, deferred.bucket_fingerprint(node), "bucket {node:?}");
                // Every bucket on an accessed path was re-encrypted.
                assert_ne!(fp, fresh.bucket_fingerprint(node), "bucket {node:?}");
                deep += usize::from(node.0 >= (1 << 14) - 1);
            }
        }
        assert!(deep >= 60 * 12, "only {deep} deep buckets compared");
        serial.check_invariants();
        deferred.check_invariants();
    }

    #[test]
    fn paper_config_instantiates_lazily() {
        let mut o = RecursivePathOram::new(OramConfig::paper()).expect("valid");
        // 2^26 blocks addressable; pick one near the top of the range.
        let addr = (1u64 << 26) - 5;
        o.write(addr, &[9u8; 64]);
        assert_eq!(o.read(addr), vec![9u8; 64]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random mixed workload against a HashMap oracle, with dummy
        /// accesses interleaved, invariants checked, stash bounded.
        #[test]
        fn prop_matches_oracle(seed in any::<u64>(), ops in 1usize..120) {
            let mut o = small();
            let mut oracle: std::collections::HashMap<u64, Vec<u8>> =
                std::collections::HashMap::new();
            let mut rng = SplitMix64::new(seed);
            let addr_space = 200u64;
            for step in 0..ops {
                match rng.next_below(4) {
                    0 => {
                        let addr = rng.next_below(addr_space);
                        let val = vec![(step as u8) ^ 0x5A; 64];
                        o.write(addr, &val);
                        oracle.insert(addr, val);
                    }
                    1 | 2 => {
                        let addr = rng.next_below(addr_space);
                        let got = o.read(addr);
                        let expect = oracle.get(&addr).cloned().unwrap_or(vec![0u8; 64]);
                        prop_assert_eq!(got, expect);
                    }
                    _ => o.dummy_access(),
                }
            }
            o.check_invariants();
            prop_assert!(o.stash_peak() < 64, "stash peak {}", o.stash_peak());
        }
    }
}
