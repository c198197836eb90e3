//! A single Path ORAM tree: buckets, stash, path read/write, eviction.
//!
//! [`TreeOram`] implements the mechanics of one tree. Position management
//! lives *outside* (in [`crate::RecursivePathOram`] or the caller): every
//! access is told which leaf the block is currently mapped to and which
//! leaf it is being remapped to, mirroring how a hardware controller's
//! datapath is driven by the position-map lookup pipeline.
//!
//! # Storage
//!
//! A block moves as a 24-byte [`Record`]: its id, its leaf, and the cell
//! of the tree's payload arena that holds its bytes. A block's cell is
//! appended when the block is first synthesized and never moves or frees
//! (a block never leaves the ORAM), so buckets, the stash, the path
//! buffer and eviction copy records only.
//!
//! Buckets are split at [`DENSE_LEVELS`]. The tree-top is one flat,
//! zero-initialized array of fixed-size buckets: an encryption counter,
//! an occupancy, then `Z` record slots. Below it only the buckets that
//! hold blocks are stored, each as a chunk of one record slab: a path
//! read returns its chunks to a free list and a write-back reuses them.
//! A deep bucket's encryption counter is derived from a log of
//! written-back leaves. An empty deep bucket — all dummies — costs no
//! host memory, so paper-scale trees (2^25 leaves) are cheap to
//! instantiate.
//!
//! A path read gathers the path's records into a buffer sorted by id. An
//! inline write-back merges that buffer with the id-sorted stash in one
//! pass and places each record greedily ([`evict_merged`]); a deferred
//! access merges the buffer into the stash instead. Once the arena, the
//! slab and the scratch buffers have grown to a run's working size, an
//! access allocates nothing.

use crate::geometry::{PathTable, TreeGeometry};
use crate::types::{BlockId, Leaf, NodeIndex};
use otc_crypto::Prf;
use std::collections::HashMap;

/// Synthesizes the payload of a block that has never been written.
///
/// * The data ORAM returns zeroed cache lines (fresh memory).
/// * Recursive position-map ORAMs return PRF-derived default positions, so
///   the position map is lazily materializable: a never-written block
///   has a well-defined pseudorandom position, so a 4 GiB ORAM needs no
///   up-front initialization pass and stores only the blocks touched.
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
    /// Writes the default payload of `id` into `cell`, which the arena
    /// has just zero-filled.
    fn synthesize_into(&self, id: BlockId, cell: &mut [u8]) {
        if let DefaultPayload::PosmapPrf {
            prf,
            entries_per_block,
            child_leaf_count,
        } = self
        {
            for j in 0..*entries_per_block {
                let idx = id.0 * *entries_per_block as u64 + j as u64;
                let pos = prf.eval_below(idx, *child_leaf_count) as u32;
                cell[j * 4..j * 4 + 4].copy_from_slice(&pos.to_le_bytes());
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

/// Tree levels held in the dense tree-top array: 2^12 − 1 = 4,095
/// buckets. Every access rewrites its path's top levels, so these
/// buckets are hot on *every* access, and a flat heap-indexed array
/// makes the top of every path read and write-back direct indexing with
/// no hashing and no probing — the on-chip tree-top buffer of the Ren et
/// al. \[26\] controller designs, in host-memory form.
///
/// A bucket is `2 + 3Z` words — 88 B at Z = 3 — so the array takes
/// about 352 KiB per tree. It is zero-initialized, so a page of it costs
/// memory only once a path touches it. Two more levels would take
/// 1.4 MiB per tree, and the paths of a short run touch nearly all of
/// it, although blocks settle near the leaves and seldom rest that high.
/// Below the dense top a bucket costs memory only while it holds blocks.
const DENSE_LEVELS: u32 = 12;

/// Words of one record slot in a tree-top bucket: id, leaf, cell.
const RECORD_WORDS: usize = 3;

/// Words of a tree-top bucket's header: encryption counter, occupancy.
const HEADER_WORDS: usize = 2;

/// A block as the tree moves it. Its payload stays in the tree's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    id: BlockId,
    /// The leaf the block is currently mapped to.
    leaf: Leaf,
    /// The block's payload cell in the arena.
    cell: u32,
}

impl Record {
    /// Filler for record slots that hold no block.
    const EMPTY: Record = Record {
        id: BlockId(0),
        leaf: Leaf(0),
        cell: 0,
    };

    /// The record as a tree-top bucket slot stores it.
    fn to_words(self) -> [u64; RECORD_WORDS] {
        [self.id.0, self.leaf.0, u64::from(self.cell)]
    }

    /// The record a tree-top bucket slot holds.
    fn from_words(slot: &[u64]) -> Self {
        Record {
            id: BlockId(slot[0]),
            leaf: Leaf(slot[1]),
            cell: slot[2] as u32,
        }
    }
}

/// Where a deep bucket's records sit: slots `index * Z..index * Z + len`
/// of the record slab.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    index: u32,
    len: u32,
}

/// The records of two id-sorted slices, merged in id order.
fn merged<'a>(a: &'a [Record], b: &'a [Record]) -> impl Iterator<Item = Record> + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || match (a.get(i), b.get(j)) {
        (Some(x), Some(y)) if x.id < y.id => {
            i += 1;
            Some(*x)
        }
        (Some(x), None) => {
            i += 1;
            Some(*x)
        }
        (_, Some(y)) => {
            j += 1;
            Some(*y)
        }
        (None, None) => None,
    })
}

/// Greedy Path ORAM eviction of one path. The id-ordered union of
/// `stash` and `path` (each sorted by id) is placed lowest id first:
/// each record goes to the deepest level `<= deepest(leaf)` whose bucket
/// still has a free slot, or to `kept` when every level it may use is
/// full. Level `l`'s placements land in `slots[l * z..l * z + fill[l]]`,
/// in ascending id order; `fill` holds one count per level, root first.
///
/// This places exactly as the per-bucket procedure does — fill the
/// buckets one at a time from the leaf upward, each with the first `z`
/// eligible records of an id-ordered scan — in O(records + levels)
/// instead of O(records × levels). The two agree because eviction
/// legality is prefix-closed (a record eligible at level `l` is eligible
/// at every level above it), so both greedily match the same lowest-id
/// records to the deepest buckets.
fn evict_merged(
    stash: &[Record],
    path: &[Record],
    z: usize,
    deepest: impl Fn(Leaf) -> usize,
    fill: &mut [usize],
    slots: &mut [Record],
    kept: &mut Vec<Record>,
) {
    fill.fill(0);
    let top = fill.len() - 1;
    for record in merged(stash, path) {
        let d = deepest(record.leaf).min(top);
        // Deepest-first: levels fill monotonically, so this scan is O(1)
        // amortized — it only walks levels that are already full, and
        // each level fills once per pass.
        match (0..=d).rev().find(|&level| fill[level] < z) {
            Some(level) => {
                slots[level * z + fill[level]] = record;
                fill[level] += 1;
            }
            None => kept.push(record),
        }
    }
}

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
    /// Levels held in `dense`: `min(levels, DENSE_LEVELS)`.
    dense_levels: usize,
    /// The tree-top buckets, heap-indexed (`node.0` directly), each
    /// `HEADER_WORDS + Z * RECORD_WORDS` words: the encryption counter
    /// (0 = never written), the occupancy, then `Z` record slots.
    dense: Vec<u64>,
    /// The chunk of every bucket below the dense levels that holds
    /// blocks. A path read removes its buckets and a write-back inserts
    /// only the ones it filled, so an empty deep bucket has no entry.
    resident: HashMap<NodeIndex, Chunk, BuildNodeIndexHasher>,
    /// Record slab of the deep buckets, `Z` slots per chunk.
    slab: Vec<Record>,
    /// Chunks of `slab` that no bucket holds, reused by write-backs.
    free_chunks: Vec<u32>,
    /// Leaf of every path write-back, oldest first, kept only when the
    /// tree has levels below the dense top: a deep bucket's encryption
    /// counter is the number of these paths that pass through it (see
    /// [`TreeOram::bucket_fingerprint`]). 8 B per write-back.
    write_backs: Vec<Leaf>,
    /// The on-chip stash: records awaiting eviction, strictly ascending
    /// by id, so eviction's lowest-id tie-break is a plain scan and the
    /// DRAM image is bit-reproducible however deferred evictions
    /// interleave. \[26\] sizes it at 128 KB, and the power model charges
    /// its reads and writes per 16 B chunk (Table 2). Path ORAM's
    /// security argument needs its occupancy to stay small with
    /// overwhelming probability; the property tests exercise this.
    stash: Vec<Record>,
    /// Largest on-chip occupancy ever observed: the stash plus the path
    /// being accessed (reported by experiments; the paper's hardware
    /// provisions a fixed-size stash).
    stash_peak: usize,
    /// The records of the path being accessed, sorted by id once read.
    path_buf: Vec<Record>,
    /// The next stash a write-back or deferral builds (recycled).
    spare: Vec<Record>,
    /// One write-back's placements: `fill[l]` records at level `l`, in
    /// `placed[l * Z..]`.
    fill: Vec<usize>,
    placed: Vec<Record>,
    /// Payload arena: cell `c` is bytes `c * block_bytes..(c + 1) *
    /// block_bytes`.
    payloads: Vec<u8>,
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
        let levels = geom.levels() as usize;
        let dense_levels = geom.levels().min(DENSE_LEVELS);
        let dense_buckets = (1usize << dense_levels) - 1;
        Self {
            geom,
            path: geom.path_table(),
            dense_levels: dense_levels as usize,
            dense: vec![0; dense_buckets * (HEADER_WORDS + geom.z() * RECORD_WORDS)],
            resident: HashMap::default(),
            slab: Vec::new(),
            free_chunks: Vec::new(),
            write_backs: Vec::new(),
            stash: Vec::new(),
            stash_peak: 0,
            path_buf: Vec::new(),
            spare: Vec::new(),
            fill: vec![0; levels],
            placed: vec![Record::EMPTY; levels * geom.z()],
            payloads: Vec::new(),
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
    /// Reads the path to `leaf`, applies `update` to the payload of `id`
    /// (synthesizing a default payload if the block was never written)
    /// and remaps the block to `new_leaf`. The payload is read or written
    /// only through `update`, in place: an access whose result nobody
    /// consumes copies no payload.
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
    /// Panics if `leaf`/`new_leaf` are out of range, or if the payload
    /// arena outgrows `u32::MAX` cells.
    pub fn access<F>(&mut self, id: BlockId, leaf: Leaf, new_leaf: Leaf, defer: bool, update: F)
    where
        F: FnOnce(&mut [u8]),
    {
        assert!(new_leaf.0 < self.geom.leaf_count(), "new_leaf out of range");
        self.read_path(leaf);
        // The block came off the path, was already waiting in the
        // stash, or has never been written: then it is synthesized onto
        // the path buffer, at its place in id order.
        let record = match self.path_buf.binary_search_by_key(&id, |r| r.id) {
            Ok(i) => &mut self.path_buf[i],
            Err(i) => match self.stash.binary_search_by_key(&id, |r| r.id) {
                Ok(j) => &mut self.stash[j],
                Err(_) => {
                    let cell = self.synthesize(id);
                    self.path_buf.insert(i, Record { id, leaf, cell });
                    &mut self.path_buf[i]
                }
            },
        };
        record.leaf = new_leaf;
        let cell = record.cell as usize;
        let bytes = self.geom.block_bytes();
        update(&mut self.payloads[cell * bytes..(cell + 1) * bytes]);
        self.accesses += 1;
        self.finish_path(leaf, defer);
    }

    /// Performs a dummy access: reads the path to `leaf` without touching
    /// any logical block (§1.1.2 footnote 1, §3) and, unless `defer`,
    /// writes it back. Indistinguishable from a real access by
    /// construction — the same bytes move and every bucket is
    /// re-encrypted. A deferred dummy leaves the write-back to a later
    /// [`TreeOram::evict_path`], as a deferred real access does.
    pub fn dummy_access(&mut self, leaf: Leaf, defer: bool) {
        self.read_path(leaf);
        self.accesses += 1;
        self.finish_path(leaf, defer);
    }

    /// Completes a deferred eviction: gathers the current contents of the
    /// path to `leaf` (interleaved earlier evictions may have re-filled
    /// shared buckets — the root is on every path) and writes the path
    /// back with greedy eviction. Exactly one bucket re-encryption per
    /// path bucket, the same as the write-back half of a serial access,
    /// so ciphertext fingerprints after all pending evictions drain
    /// match serial mode bit for bit.
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
        self.read_path(leaf);
        self.finish_path(leaf, false);
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
        let stride = self.dense_stride();
        let counter = if node.0 < (self.dense.len() / stride) as u64 {
            self.dense[node.0 as usize * stride]
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
            stash_peak: self.stash_peak,
        }
    }

    /// Number of buckets below the tree-top array that currently hold
    /// blocks, each in a chunk of the record slab (footprint diagnostic).
    /// The tree-top buckets live in their pre-allocated array whether or
    /// not they hold blocks, and a deep bucket costs memory only while it
    /// holds one.
    pub fn materialized_buckets(&self) -> usize {
        self.resident.len()
    }

    /// Words per tree-top bucket.
    fn dense_stride(&self) -> usize {
        HEADER_WORDS + self.geom.z() * RECORD_WORDS
    }

    /// Appends a cell for `id`'s default payload to the arena.
    fn synthesize(&mut self, id: BlockId) -> u32 {
        let bytes = self.geom.block_bytes();
        let start = self.payloads.len();
        let cell = u32::try_from(start / bytes.max(1))
            .expect("payload arena holds at most u32::MAX blocks per tree");
        self.payloads.resize(start + bytes, 0);
        self.default_payload
            .synthesize_into(id, &mut self.payloads[start..]);
        cell
    }

    /// Moves the records of the path to `leaf` into the path buffer,
    /// sorted by id, emptying the path's buckets and freeing its chunks.
    fn read_path(&mut self, leaf: Leaf) {
        self.path.assert_leaf(leaf);
        self.path_buf.clear();
        let stride = self.dense_stride();
        for level in 0..self.dense_levels {
            let base = self.path.node_at(leaf, level).0 as usize * stride;
            let len = std::mem::take(&mut self.dense[base + 1]) as usize;
            let slots = &self.dense[base + HEADER_WORDS..][..len * RECORD_WORDS];
            self.path_buf
                .extend(slots.chunks_exact(RECORD_WORDS).map(Record::from_words));
        }
        let z = self.geom.z();
        for level in self.dense_levels..self.path.levels() {
            if let Some(chunk) = self.resident.remove(&self.path.node_at(leaf, level)) {
                let start = chunk.index as usize * z;
                self.path_buf
                    .extend_from_slice(&self.slab[start..start + chunk.len as usize]);
                self.free_chunks.push(chunk.index);
            }
        }
        self.path_buf.sort_unstable_by_key(|r| r.id);
    }

    /// Ends an access to the path to `leaf`, whose records (and any
    /// synthesized block) are in the path buffer: writes the path back,
    /// or with `defer` merges the buffer into the stash.
    fn finish_path(&mut self, leaf: Leaf, defer: bool) {
        // Mid-access the controller holds the stash and the whole path.
        self.stash_peak = self.stash_peak.max(self.stash.len() + self.path_buf.len());
        let mut next = std::mem::take(&mut self.spare);
        next.clear();
        if defer {
            next.extend(merged(&self.stash, &self.path_buf));
        } else {
            let geom = self.geom;
            evict_merged(
                &self.stash,
                &self.path_buf,
                geom.z(),
                |block_leaf| geom.deepest_shared_level(leaf, block_leaf) as usize,
                &mut self.fill,
                &mut self.placed,
                &mut next,
            );
            self.store_path(leaf);
        }
        self.spare = std::mem::replace(&mut self.stash, next);
    }

    /// Writes the placements of [`evict_merged`] into the buckets of the
    /// path to `leaf`, which its read emptied, and re-encrypts every one:
    /// a tree-top bucket bumps its counter, the deep ones log the path.
    fn store_path(&mut self, leaf: Leaf) {
        let z = self.geom.z();
        let stride = self.dense_stride();
        for level in 0..self.dense_levels {
            let base = self.path.node_at(leaf, level).0 as usize * stride;
            let placed = &self.placed[level * z..][..self.fill[level]];
            let bucket = &mut self.dense[base..base + stride];
            debug_assert_eq!(bucket[1], 0, "path was read before write");
            bucket[0] += 1;
            bucket[1] = placed.len() as u64;
            for (slot, record) in bucket[HEADER_WORDS..]
                .chunks_exact_mut(RECORD_WORDS)
                .zip(placed)
            {
                slot.copy_from_slice(&record.to_words());
            }
        }
        for level in self.dense_levels..self.path.levels() {
            let len = self.fill[level];
            if len == 0 {
                continue;
            }
            let index = self.free_chunks.pop().unwrap_or_else(|| {
                let index = u32::try_from(self.slab.len() / z)
                    .expect("record slab holds at most u32::MAX buckets per tree");
                self.slab.resize(self.slab.len() + z, Record::EMPTY);
                index
            });
            let start = index as usize * z;
            self.slab[start..start + len].copy_from_slice(&self.placed[level * z..][..len]);
            let chunk = Chunk {
                index,
                len: len as u32,
            };
            let stale = self.resident.insert(self.path.node_at(leaf, level), chunk);
            debug_assert!(stale.is_none(), "path was read before write");
        }
        if self.path.levels() > self.dense_levels {
            self.write_backs.push(leaf);
        }
    }

    /// Verifies the Path ORAM invariant for every materialized block:
    /// a block mapped to leaf `l` must lie on the path to `l` (or in the
    /// stash). Returns the number of blocks checked.
    ///
    /// # Panics
    ///
    /// Panics (with a diagnostic) if the invariant is violated, a bucket
    /// is over capacity, or the stash is not strictly ordered by id.
    /// Intended for tests and debug assertions, not production paths.
    pub fn check_invariant(&self) -> usize {
        let z = self.geom.z();
        let mut checked = 0;
        let mut check = |node: NodeIndex, record: Record| {
            let on_path = self.geom.path_nodes(record.leaf).any(|n| n == node);
            assert!(
                on_path,
                "block {} mapped to {} stored off-path at node {:?}",
                record.id, record.leaf, node
            );
            checked += 1;
        };
        for (node, bucket) in self.dense.chunks_exact(self.dense_stride()).enumerate() {
            let len = bucket[1] as usize;
            assert!(len <= z, "bucket {node} over capacity");
            for slot in bucket[HEADER_WORDS..][..len * RECORD_WORDS].chunks_exact(RECORD_WORDS) {
                check(NodeIndex(node as u64), Record::from_words(slot));
            }
        }
        for (&node, chunk) in &self.resident {
            let len = chunk.len as usize;
            assert!(len > 0 && len <= z, "bucket {node:?} holds {len} blocks");
            let start = chunk.index as usize * z;
            for &record in &self.slab[start..start + len] {
                check(node, record);
            }
        }
        assert!(
            self.stash.windows(2).all(|w| w[0].id < w[1].id),
            "stash not strictly ordered by id"
        );
        checked + self.stash.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otc_crypto::{Prf, SplitMix64, SymmetricKey};
    use proptest::prelude::*;
    use reference::RefTree;
    use std::collections::{BTreeMap, VecDeque};

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
        t.access(id, leaf, new_leaf, false, |p| out = p.to_vec());
        out
    }

    fn write(t: &mut TreeOram, id: BlockId, leaf: Leaf, new_leaf: Leaf, data: &[u8]) {
        t.access(id, leaf, new_leaf, false, |p| p.copy_from_slice(data));
    }

    /// Deterministic "random" leaf sequence for tests.
    fn leaf_seq(geom: &TreeGeometry, seed: u64) -> impl FnMut() -> Leaf + '_ {
        let mut rng = SplitMix64::new(seed);
        move || Leaf(rng.next_below(geom.leaf_count()))
    }

    /// The storage the flat records replaced, kept as the oracle they
    /// must match observable for observable: every block a
    /// [`StoredBlock`] owning its payload vector, every bucket its own
    /// block vector and encryption counter, and a path read that inserts
    /// block by block into the sorted [`Stash`], whose peak is the
    /// largest length an insert left.
    mod reference {
        use super::super::{DefaultPayload, TreeStats};
        use crate::bucket::{Bucket, StoredBlock};
        use crate::geometry::TreeGeometry;
        use crate::stash::Stash;
        use crate::types::{BlockId, Leaf, NodeIndex};
        use otc_crypto::Prf;
        use std::collections::HashMap;

        pub struct RefTree {
            geom: TreeGeometry,
            /// Every bucket ever written back.
            buckets: HashMap<NodeIndex, Bucket>,
            stash: Stash,
            default_payload: DefaultPayload,
            fingerprint_prf: Prf,
            accesses: u64,
        }

        impl RefTree {
            pub fn new(geom: TreeGeometry, default_payload: DefaultPayload, prf: Prf) -> Self {
                Self {
                    geom,
                    buckets: HashMap::new(),
                    stash: Stash::new(),
                    default_payload,
                    fingerprint_prf: prf,
                    accesses: 0,
                }
            }

            pub fn access<F>(&mut self, id: BlockId, leaf: Leaf, new: Leaf, defer: bool, update: F)
            where
                F: FnOnce(&mut Vec<u8>),
            {
                self.read_path_into_stash(leaf);
                if !self.stash.contains(id) {
                    let mut payload = vec![0u8; self.geom.block_bytes()];
                    self.default_payload.synthesize_into(id, &mut payload);
                    self.stash.insert(StoredBlock { id, leaf, payload });
                }
                let block = self.stash.get_mut(id).expect("block staged in stash");
                block.leaf = new;
                update(&mut block.payload);
                self.accesses += 1;
                if !defer {
                    self.write_path_from_stash(leaf);
                }
            }

            pub fn dummy_access(&mut self, leaf: Leaf, defer: bool) {
                self.read_path_into_stash(leaf);
                self.accesses += 1;
                if !defer {
                    self.write_path_from_stash(leaf);
                }
            }

            pub fn evict_path(&mut self, leaf: Leaf) {
                self.read_path_into_stash(leaf);
                self.write_path_from_stash(leaf);
            }

            pub fn bucket_fingerprint(&self, node: NodeIndex) -> u64 {
                let counter = self.buckets.get(&node).map_or(0, |b| b.encryption_counter);
                self.fingerprint_prf.eval2(node.0, counter)
            }

            pub fn stash_len(&self) -> usize {
                self.stash.len()
            }

            pub fn stats(&self) -> TreeStats {
                TreeStats {
                    path_accesses: self.accesses,
                    bytes_moved: self.accesses * 2 * self.geom.path_bytes(),
                    stash_peak: self.stash.peak(),
                }
            }

            pub fn check_invariant(&self) -> usize {
                let mut checked = 0;
                for (node, bucket) in &self.buckets {
                    assert!(bucket.occupancy() <= self.geom.z());
                    for block in &bucket.blocks {
                        assert!(self.geom.path_nodes(block.leaf).any(|n| n == *node));
                        checked += 1;
                    }
                }
                checked + self.stash.len()
            }

            fn read_path_into_stash(&mut self, leaf: Leaf) {
                for node in self.geom.path_nodes(leaf) {
                    if let Some(bucket) = self.buckets.get_mut(&node) {
                        for block in bucket.blocks.drain(..) {
                            self.stash.insert(block);
                        }
                    }
                }
            }

            fn write_path_from_stash(&mut self, leaf: Leaf) {
                let geom = self.geom;
                let mut out = vec![Vec::new(); geom.levels() as usize];
                self.stash.evict_path_into(
                    geom.z(),
                    |block_leaf| geom.deepest_shared_level(leaf, block_leaf) as usize,
                    &mut out,
                );
                for (node, blocks) in geom.path_nodes(leaf).zip(out) {
                    let bucket = self.buckets.entry(node).or_default();
                    bucket.blocks = blocks;
                    bucket.encryption_counter += 1;
                }
            }
        }
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
        let mut payload = [0u8; 32];
        dp.synthesize_into(BlockId(2), &mut payload);
        for j in 0..8usize {
            let v = u32::from_le_bytes(payload[j * 4..j * 4 + 4].try_into().expect("4 bytes"));
            assert_eq!(u64::from(v), prf.eval_below(2 * 8 + j as u64, 16));
            assert!(u64::from(v) < 16);
        }
    }

    #[test]
    fn paper_scale_tree_is_cheap_to_instantiate() {
        // 26 levels = 2^26-1 buckets; beyond the tree-top array only the
        // deep bucket holding the written block costs memory.
        let mut t = test_tree(26);
        let geom = *t.geometry();
        let (l, l2) = {
            let mut next = leaf_seq(&geom, 42);
            (next(), next())
        };
        assert!(l.0 < geom.leaf_count());
        write(&mut t, BlockId(123_456), l, l2, &[1u8; 64]);
        assert!(t.materialized_buckets() <= 1);
    }

    #[test]
    fn deep_bucket_holds_a_block_only_while_resident() {
        // A block remapped onto the path it was read from settles in
        // that path's leaf bucket, 22 levels below the dense top.
        let mut t = test_tree(34);
        let leaf = Leaf(0x1_2345_6789);
        write(&mut t, BlockId(9), leaf, leaf, &[4u8; 64]);
        assert_eq!(t.resident.len(), 1, "one deep bucket holds the block");
        let node = t.geometry().node_at(leaf, 33);
        let chunk = t.resident[&node];
        let z = t.geometry().z();
        let slots = &t.slab[chunk.index as usize * z..][..chunk.len as usize];
        assert!(slots.iter().any(|r| r.id == BlockId(9)));
        // Reading the path takes the bucket out of the map and frees its
        // chunk; the write-back reuses the chunk for this (or a
        // shallower) bucket.
        t.dummy_access(leaf, true);
        assert_eq!(t.resident.len(), 0);
        assert_eq!(t.free_chunks, [chunk.index]);
        t.evict_path(leaf);
        assert_eq!(t.resident.len(), 1);
        assert!(t.free_chunks.is_empty(), "the write-back reused the chunk");
        assert_eq!(t.slab.len(), z, "one chunk was ever allocated");
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
            let mut rng = SplitMix64::new(seed);
            // Model of truth: block id -> (expected payload, current leaf).
            let mut model: HashMap<u64, (Vec<u8>, Leaf)> = HashMap::new();
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
        /// tree puts its last six levels under the dense array. Random
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
            let mut rng = SplitMix64::new(seed);
            // Block id -> (expected payload, current leaf).
            let mut model: HashMap<u64, (Vec<u8>, Leaf)> = HashMap::new();
            // Node index -> write-backs that re-encrypted it.
            let mut writes: HashMap<u64, u64> = HashMap::new();
            let mut touched: Vec<Leaf> = Vec::new();
            let mut pending: VecDeque<Leaf> = VecDeque::new();
            let cluster = rng.next_below(geom.leaf_count() / 8) * 8;
            let draw_leaf = move |rng: &mut SplitMix64| match rng.next_below(2) {
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
                            got = p.to_vec();
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The flat storage against [`RefTree`], the storage it replaced,
        /// driven alike: random reads, writes and dummies — each immediate
        /// or deferred, with deferred write-backs drained oldest-first at
        /// random points — on a 5-level tree (all tree-top), a 13-level
        /// tree (one level below it) and an 18-level tree (six), with
        /// zero or position-map default payloads. Half the leaves come
        /// from a cluster of eight neighbours, so blocks settle deep.
        /// After every step both must agree on the payload read, the
        /// stash length, the stats (stash peak included), the invariant
        /// check's block count, and the fingerprint of every bucket on
        /// every path touched so far.
        #[test]
        fn prop_matches_reference_storage(
            seed in any::<u64>(),
            levels in proptest::sample::select(vec![5u32, 13, 18]),
            posmap in any::<bool>(),
            ops in 1usize..80,
        ) {
            let geom = TreeGeometry::new(levels, 3, 32, 16);
            let key = SymmetricKey::from_seed(seed);
            let default_payload = if posmap {
                DefaultPayload::PosmapPrf {
                    prf: Prf::new(key, b"posmap"),
                    entries_per_block: 8,
                    child_leaf_count: 1 << 20,
                }
            } else {
                DefaultPayload::Zeros
            };
            let fingerprint = Prf::new(key, b"fingerprint");
            let mut flat = TreeOram::new(geom, default_payload.clone(), fingerprint);
            let mut reference = RefTree::new(geom, default_payload, fingerprint);
            let mut rng = SplitMix64::new(seed);
            let cluster = rng.next_below(geom.leaf_count() / 8) * 8;
            let draw_leaf = move |rng: &mut SplitMix64| match rng.next_below(2) {
                0 => Leaf(cluster + rng.next_below(8)),
                _ => Leaf(rng.next_below(geom.leaf_count())),
            };
            // Block id -> the leaf it is mapped to.
            let mut leaves: HashMap<u64, Leaf> = HashMap::new();
            let mut touched: Vec<Leaf> = Vec::new();
            let mut pending: VecDeque<Leaf> = VecDeque::new();
            for step in 0..ops {
                let defer = rng.next_below(2) == 0;
                let access = match rng.next_below(5) {
                    0 => {
                        if let Some(leaf) = pending.pop_front() {
                            flat.evict_path(leaf);
                            reference.evict_path(leaf);
                        }
                        None
                    }
                    1 => {
                        let leaf = draw_leaf(&mut rng);
                        flat.dummy_access(leaf, defer);
                        reference.dummy_access(leaf, defer);
                        Some(leaf)
                    }
                    op => {
                        let id = rng.next_below(24);
                        let new_leaf = draw_leaf(&mut rng);
                        let leaf = match leaves.get(&id) {
                            Some(&leaf) => leaf,
                            None => draw_leaf(&mut rng),
                        };
                        let value = (op == 2).then_some(step as u8 ^ 0x5A);
                        let (mut got, mut want) = (Vec::new(), Vec::new());
                        flat.access(BlockId(id), leaf, new_leaf, defer, |p| {
                            if let Some(v) = value {
                                p.fill(v);
                            }
                            got = p.to_vec();
                        });
                        reference.access(BlockId(id), leaf, new_leaf, defer, |p| {
                            if let Some(v) = value {
                                p.fill(v);
                            }
                            want = p.clone();
                        });
                        prop_assert_eq!(&got, &want, "block {} at step {}", id, step);
                        leaves.insert(id, new_leaf);
                        Some(leaf)
                    }
                };
                if let Some(leaf) = access {
                    if !touched.contains(&leaf) {
                        touched.push(leaf);
                    }
                    if defer {
                        pending.push_back(leaf);
                    }
                }
                while pending.len() > 4 {
                    let oldest = pending.pop_front().expect("non-empty");
                    flat.evict_path(oldest);
                    reference.evict_path(oldest);
                }
                prop_assert_eq!(flat.stash_len(), reference.stash_len(), "step {}", step);
                prop_assert_eq!(flat.stats(), reference.stats(), "step {}", step);
                prop_assert_eq!(
                    flat.check_invariant(),
                    reference.check_invariant(),
                    "step {}", step
                );
                for &path in &touched {
                    for node in geom.path_nodes(path) {
                        prop_assert_eq!(
                            flat.bucket_fingerprint(node),
                            reference.bucket_fingerprint(node),
                            "node {} after step {}", node.0, step
                        );
                    }
                }
            }
        }
    }

    proptest! {
        /// [`evict_merged`] against the per-bucket procedure: fill the
        /// path's buckets from the leaf upward, each with the first `z`
        /// eligible records of an id-ordered scan. Each block is either
        /// waiting in the stash or read off the path; the two sorted
        /// halves must be placed, level by level and in the same order,
        /// as that scan places their union, and keep the same rest.
        #[test]
        fn prop_merge_eviction_matches_per_bucket(
            levels in 1u32..6,
            z in 1usize..4,
            path_leaf in any::<u64>(),
            blocks in proptest::collection::vec((0u64..48, any::<u64>(), any::<bool>()), 0..32),
        ) {
            let geom = TreeGeometry::new(levels, z, 64, 16);
            let path_leaf = Leaf(path_leaf % geom.leaf_count());
            let (mut stash, mut path) = (BTreeMap::new(), BTreeMap::new());
            for &(id, leaf, on_path) in &blocks {
                if stash.contains_key(&id) || path.contains_key(&id) {
                    continue;
                }
                let record = Record {
                    id: BlockId(id),
                    leaf: Leaf(leaf % geom.leaf_count()),
                    cell: id as u32,
                };
                let side = if on_path { &mut path } else { &mut stash };
                side.insert(id, record);
            }
            let mut rest: Vec<Record> = stash.values().chain(path.values()).copied().collect();
            rest.sort_by_key(|r| r.id);
            let n = levels as usize;
            let mut want = vec![Vec::new(); n];
            for level in (0..n).rev() {
                rest.retain(|r| {
                    let fits = want[level].len() < z
                        && geom.paths_share_level(path_leaf, r.leaf, level as u32);
                    if fits {
                        want[level].push(r.id);
                    }
                    !fits
                });
            }
            let stash: Vec<Record> = stash.into_values().collect();
            let path: Vec<Record> = path.into_values().collect();
            let (mut fill, mut slots, mut kept) = (vec![0; n], vec![Record::EMPTY; n * z], Vec::new());
            evict_merged(
                &stash,
                &path,
                z,
                |block_leaf| geom.deepest_shared_level(path_leaf, block_leaf) as usize,
                &mut fill,
                &mut slots,
                &mut kept,
            );
            for (level, want) in want.iter().enumerate() {
                let placed: Vec<BlockId> =
                    slots[level * z..][..fill[level]].iter().map(|r| r.id).collect();
                prop_assert_eq!(&placed, want, "level {} placements diverged", level);
            }
            prop_assert_eq!(kept, rest, "kept records diverged");
        }
    }
}
