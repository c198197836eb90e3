//! Address-space sharding across independent Path ORAMs.
//!
//! A production appliance cannot serve fleet traffic from one ORAM: every
//! access is serialized behind one tree (1488 cycles at the paper
//! geometry), so a single instance caps out near 700 accesses per
//! million cycles. [`ShardedOram`] scales the backend horizontally: `N`
//! independent [`RecursivePathOram`] instances, line-interleaved by
//! address, each with a shard-unique randomness seed
//! ([`OramConfig::shard`]) so position maps are pairwise independent.
//!
//! # What a shard-granular observer sees
//!
//! Path ORAM hides the address *within* a shard; the shard *index* of an
//! access is additional observable surface. Each tenant's line addresses
//! are mixed through a per-tenant tag before interleaving (real accesses
//! spread near-uniformly), and the caller supplies each dummy's shard
//! drawn uniformly from a per-tenant PRNG — so dummies are not marked by
//! any global pattern (an earlier round-robin cursor was a trivial
//! real/dummy distinguisher *and* coupled tenants through shared state).
//!
//! That does not close the channel. A real access still goes to shard
//! `addr % n_shards`, so the shard sequence follows the secret address
//! stream, and a co-tenant sees it as queueing on the shards it shares.
//! The leak is measured: in the mixed pool, a probe tenant tells four
//! secret address streams of a `static_1000` or `static_2000` victim
//! apart — 2 bits, all that four secrets can show — while the ledger
//! charges a static victim nothing. Oblivious shard placement, which
//! would close it, is item 1 of `ROADMAP.md`.
//!
//! # Pipelining ([`PipelineKind`])
//!
//! Serialized `OLAT` is the dominant cost at saturation: a shard that
//! charges 1488 opaque cycles per access caps out near 700 accesses per
//! million cycles no matter how requests are scheduled. The staged mode
//! breaks the access into its [`AccessPlan`] stages and treats each
//! posmap tree and the data-tree port as independent pipeline units —
//! the posmap recursion of access *i+1* overlaps the data-path work of
//! access *i* (the trees are disjoint memory regions), and the data
//! tree's path write-back (the eviction) defers into a bounded
//! background queue drained during the data port's idle cycles. The
//! tenant's completion is the data-path *read*; sustained throughput is
//! bounded by the most expensive stage instead of the stage sum.
//!
//! Deferral is functional, not just timing: blocks of an undrained path
//! wait in the shard's stash (Path ORAM's invariant is stash-agnostic,
//! so `check_invariants` holds throughout), the queue bound
//! [`MAX_DEFERRED`] plus a stash threshold derived from it force drains
//! before the backlog can grow, and after a flush the bucket
//! ciphertexts are bit-identical to a serial run of the same access
//! sequence.
//!
//! `PipelineKind::Serial`, the paper's controller, is the one-stage
//! pipeline: its only unit is the data port, which each access holds
//! for the whole `OLAT`, and its ORAM never defers an eviction. Both
//! disciplines therefore run one charge and one ORAM call per access;
//! the pre-pipeline arithmetic serial shards must reproduce lives as a
//! hand-rolled model in `tests/pipeline_equivalence.rs`.
//!
//! # Lanes (the executor's unit of work)
//!
//! Each shard's complete mutable state — its ORAM, timing parameters
//! ([`LaneParams`]), busy/stage clocks, and counters — lives in one
//! [`Lane`] struct, so the host's shard executor can move lanes to
//! worker threads for a round. Shards are mutually independent by
//! construction (disjoint trees, disjoint counters), so per-lane FIFO
//! execution on any worker reproduces the inline per-shard arithmetic
//! bit-for-bit (see `host::ParallelKind`).
//!
//! A lane's counters (accesses, queueing, service, drains and the
//! service histogram) are one [`Tally`]. The pool keeps one more for
//! the shards a shrink retired, and each retired lane folds into it, so
//! every pool-wide getter reads one total that survives resizes. The
//! per-shard facts the round loop needs while the lanes are out —
//! routing and what a slot costs — are one table, the [`ShardRouter`].

use otc_dram::{Cycle, DdrConfig};
use otc_oram::{
    AccessPlan, CapacityKind, CapacityModel, OramConfig, OramTiming, RecursivePathOram,
};
use otc_perf::{Histogram, RoundSample, ShardSample};

/// Buckets of the per-access service-time histogram (each
/// [`SERVICE_HIST_OLAT_FRACTION`]th of `OLAT` wide; the last bucket
/// absorbs the overflow tail).
const SERVICE_HIST_BUCKETS: usize = 1024;

/// Service-histogram bucket width as a fraction of `OLAT` (width =
/// `OLAT / 16`, so the histogram spans 64 `OLAT`s before saturating).
const SERVICE_HIST_OLAT_FRACTION: u64 = 16;

/// Per-shard bound on a staged shard's background eviction queue. At
/// the bound, drains are forced ahead of the next access even if they
/// delay it, so the queue (and with it the stash) cannot grow without
/// limit. Serial shards never defer.
pub const MAX_DEFERRED: usize = 4;

/// How a shard schedules the stages of consecutive accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PipelineKind {
    /// One opaque `OLAT` per access, strictly sequential per shard —
    /// the paper's controller, run as a one-stage pipeline whose ORAM
    /// evicts inline.
    #[default]
    Serial,
    /// Staged pipeline: each posmap tree and the data-tree port are
    /// independent units, so the posmap lookups of access *i+1* overlap
    /// the data-path/eviction work of access *i*, and data-tree
    /// evictions are deferred into a background queue of at most
    /// [`MAX_DEFERRED`] paths, drained during idle cycles (stash
    /// occupancy bounds enforced).
    Staged,
}

/// The name the repo benchmark builds shard classes with: the same type
/// as [`PipelineKind`], constructed by [`PipelineKind::serial`] and
/// [`PipelineKind::staged`].
pub type PipelineConfig = PipelineKind;

impl PipelineKind {
    /// The serial discipline: the paper's controller.
    pub fn serial() -> Self {
        Self::Serial
    }

    /// The staged pipeline.
    pub fn staged() -> Self {
        Self::Staged
    }

    /// The stage plan a shard running this discipline walks each access
    /// through. Staged, that is `plan` itself. Serial, it is the
    /// one-stage pipeline: the whole `OLAT` on the data port, with no
    /// posmap stage and nothing to defer.
    fn lane_plan(&self, plan: &AccessPlan) -> AccessPlan {
        match self {
            PipelineKind::Serial => AccessPlan {
                posmap_levels: Vec::new(),
                data_read: plan.total(),
                eviction: 0,
            },
            PipelineKind::Staged => plan.clone(),
        }
    }
}

/// How one shard access was actually served: where it ran, when it
/// started after any queueing behind the shard, and when it completed.
///
/// This is the *internal* service truth the closed-loop tenant frontends
/// feed back into their cores; the observable timeline remains each
/// tenant's slot grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardService {
    /// Shard that served the access.
    pub shard: usize,
    /// Cycle service actually began (`requested` plus any queueing).
    pub start: Cycle,
    /// Cycle service completed (`start + OLAT`).
    pub completion: Cycle,
    /// Cycles the access waited behind a busy shard.
    pub queued_cycles: Cycle,
}

/// One shard class of a heterogeneous pool: the ORAM geometry its
/// shards are built from plus the pipeline discipline they run. A
/// [`ShardedOram`] instantiates its shards round-robin over a mix of
/// classes (shard `i` gets class `i % mix.len()`), so the class of a
/// given shard index is stable across online resizes.
#[derive(Debug, Clone)]
pub struct ShardClass {
    /// ORAM geometry of this class's shards (each still gets a
    /// shard-unique seed via [`OramConfig::shard`]).
    pub oram: OramConfig,
    /// Pipeline discipline this class's shards run.
    pub pipeline: PipelineKind,
}

/// One class of the pool's mix with its lane parameters, precomputed at
/// construction so resizes can mint new shards without re-deriving.
#[derive(Clone)]
struct MixClass {
    class: ShardClass,
    params: LaneParams,
}

impl MixClass {
    /// Steady-state initiation interval of this class's shards under
    /// their own discipline: the bottleneck of the stages a lane walks,
    /// surcharged by the eviction drain ([`AccessPlan::staged_cadence`]).
    /// A serial lane's one stage holds the port for the whole `OLAT`,
    /// so its cadence is the `OLAT`.
    fn cadence(&self) -> Cycle {
        self.params.plan.staged_cadence()
    }
}

/// Per-shard timing parameters a lane charges against. Every lane owns
/// its copy (shards of different classes have different geometry and
/// discipline), so worker threads need nothing shared to execute one.
#[derive(Clone)]
pub(crate) struct LaneParams {
    /// The stages one access walks through (see
    /// [`PipelineKind::lane_plan`]); their costs sum to the class `OLAT`
    /// exactly. The last unit is the data-tree port.
    pub(crate) plan: AccessPlan,
    /// Forced-drain threshold on the data tree's stash, derived from the
    /// geometry and [`MAX_DEFERRED`].
    pub(crate) stash_bound: usize,
    /// Blocks on one data-tree path (levels × Z) — the stash headroom a
    /// deferred eviction can add.
    pub(crate) path_blocks: usize,
}

/// The ORAM operation a lane performs alongside its timing charge.
///
/// The round loop routes addresses on the spine thread (the PRNG and
/// tag arithmetic must stay in serial order) and posts lane-local ops;
/// read payloads are discarded — the host's serving loop never inspects
/// them, and the timing result [`ShardService`] is the completion truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneOp {
    /// Read the block at a shard-local address.
    Read {
        /// Shard-local block address.
        local: u64,
    },
    /// Write a zero-fill block at a shard-local address (the serving
    /// host stores opaque zero payloads; timing is the product).
    Write {
        /// Shard-local block address.
        local: u64,
    },
    /// An indistinguishable dummy access.
    Dummy,
}

/// Service counters of one shard, or of every shard a shrink retired.
/// A pool-wide figure is the sum over the live lanes' tallies and the
/// retired one.
///
/// A live lane's `accesses` and `drained_evictions` restate its ORAM's
/// own `OramStats` (one ORAM call per access, one `drain_eviction` per
/// drain). They stay so that live and retired shards share one struct
/// and every pool-wide getter reads one total: without them the retired
/// tally would need its own two counters, and each getter a walk over
/// the live ORAMs' stats. `staged_shrink_keeps_the_retired_shards_drains`
/// checks that the copies agree.
#[derive(Clone)]
struct Tally {
    /// Accesses (real + dummy) served.
    accesses: u64,
    /// Cycles accesses waited behind a busy shard.
    queueing_cycles: u64,
    /// Σ (completion − request time) over the accesses.
    service_cycles: u64,
    /// Background eviction drains completed.
    drained_evictions: u64,
    /// Per-access service-time distribution (bucket width `OLAT / 16`
    /// of the pool `OLAT`, overflow in the last bucket).
    hist: Histogram,
}

impl Tally {
    /// An empty tally whose histogram is sized for pool `OLAT` `olat`.
    fn new(olat: Cycle) -> Self {
        Self {
            accesses: 0,
            queueing_cycles: 0,
            service_cycles: 0,
            drained_evictions: 0,
            hist: Histogram::new(
                (olat / SERVICE_HIST_OLAT_FRACTION).max(1),
                SERVICE_HIST_BUCKETS,
            ),
        }
    }

    /// Adds `other`'s counts to this tally.
    fn absorb(&mut self, other: &Tally) {
        self.accesses += other.accesses;
        self.queueing_cycles += other.queueing_cycles;
        self.service_cycles += other.service_cycles;
        self.drained_evictions += other.drained_evictions;
        self.hist.merge(&other.hist);
    }
}

/// One shard's complete service state: its ORAM plus every clock,
/// counter, and histogram the pool keeps per shard. Lanes are mutually
/// disjoint, so the host's executor can run different lanes on
/// different threads and reproduce the inline arithmetic exactly.
pub(crate) struct Lane {
    /// This lane's shard index (reported in [`ShardService::shard`]).
    index: usize,
    /// This lane's own timing parameters (its class's geometry and
    /// discipline — lanes of one pool may differ).
    params: LaneParams,
    /// The shard's ORAM instance (deferring its evictions exactly when
    /// the lane's discipline is staged).
    oram: RecursivePathOram,
    /// When each pipeline unit frees up. Units are the posmap stages in
    /// recursion order, then the data-tree port (which the read stage
    /// and eviction drains share).
    stage_free: Vec<Cycle>,
    /// Accumulated busy cycles per pipeline unit (the occupancy
    /// [`ShardedOram::utilization`] reports).
    stage_busy: Vec<u64>,
    /// This shard's service counters.
    tally: Tally,
}

impl Lane {
    fn new(index: usize, params: LaneParams, oram: RecursivePathOram, olat: Cycle) -> Self {
        let units = params.plan.posmap_levels.len() + 1;
        Self {
            index,
            params,
            oram,
            stage_free: vec![0; units],
            stage_busy: vec![0; units],
            tally: Tally::new(olat),
        }
    }

    /// Drains one deferred eviction onto the data port, charging the
    /// path write to it. False when nothing is pending.
    fn drain(&mut self) -> bool {
        if !self.oram.drain_eviction() {
            return false;
        }
        let data_unit = self.params.plan.posmap_levels.len();
        self.stage_free[data_unit] += self.params.plan.eviction;
        self.stage_busy[data_unit] += self.params.plan.eviction;
        self.tally.drained_evictions += 1;
        true
    }

    /// Walks one access through the lane's pipeline units. Posmap
    /// lookups of this access overlap whatever earlier accesses still
    /// occupy the data port; the eviction is deferred when the lane's
    /// ORAM defers it (the caller performs the matching ORAM op and this
    /// method completes the pending functional drains it schedules). A
    /// serial lane's one stage makes this a strictly sequential `OLAT`
    /// per access.
    fn charge(&mut self, at: Cycle) -> ShardService {
        let data_unit = self.params.plan.posmap_levels.len();
        // Stage 1..=P: the posmap recursion, one unit per tree.
        let mut t = at;
        let mut start = None;
        for j in 0..data_unit {
            let cost = self.params.plan.posmap_levels[j];
            let begin = t.max(self.stage_free[j]);
            start.get_or_insert(begin);
            t = begin + cost;
            self.stage_free[j] = t;
            self.stage_busy[j] += cost;
        }
        // Background evictions on the data port, ahead of this access's
        // read: free drains fit inside the port's idle window before the
        // read could start anyway; forced drains (queue at its bound, or
        // stash past its bound) run even if they delay the read. A drain
        // costs the path *write* only — the gather inside `evict_path`
        // is functional bookkeeping for buckets the controller's
        // tree-top buffer holds on-chip (see `TreeOram::evict_path`).
        loop {
            let pending = self.oram.pending_evictions();
            if pending == 0 {
                break;
            }
            let p = &self.params;
            let forced = pending >= MAX_DEFERRED
                || self.oram.data_stash_len() + p.path_blocks > p.stash_bound;
            let free = self.stage_free[data_unit] + p.plan.eviction <= t;
            if !forced && !free {
                break;
            }
            self.drain();
        }
        // Data-path read: completion hands the block to the tenant; the
        // write-back joins the background queue instead of the critical
        // path.
        let p = &self.params;
        let read_begin = t.max(self.stage_free[data_unit]);
        // Million-round horizons drive the clocks toward the u64 edge
        // long before anything else; catch the wrap where it would
        // originate rather than where the corrupted clock surfaces.
        debug_assert!(
            read_begin.checked_add(p.plan.data_read).is_some(),
            "lane stage clock overflow at read begin {read_begin}"
        );
        let completion = read_begin + p.plan.data_read;
        self.stage_free[data_unit] = completion;
        self.stage_busy[data_unit] += p.plan.data_read;
        // Queueing = service time beyond the uncontended critical path.
        let queued_cycles = (completion - at) - p.plan.critical_path();
        let tally = &mut self.tally;
        tally.accesses += 1;
        tally.queueing_cycles += queued_cycles;
        tally.service_cycles += completion - at;
        tally.hist.record(completion - at);
        ShardService {
            shard: self.index,
            start: start.unwrap_or(read_begin),
            completion,
            queued_cycles,
        }
    }

    /// Performs one routed operation: the timing charge plus the
    /// matching ORAM op. This is the unit of work the host's executor
    /// runs; per-lane FIFO order makes it bit-identical to calling
    /// [`ShardedOram::read`]/`write`/`dummy_access` in the same order.
    pub(crate) fn execute(&mut self, op: LaneOp, at: Cycle) -> ShardService {
        let service = self.charge(at);
        match op {
            LaneOp::Read { local } => self.oram.read_discard(local),
            LaneOp::Write { local } => self.oram.write(local, &[0u8; 64]),
            LaneOp::Dummy => self.oram.dummy_access(),
        }
        service
    }
}

/// What the pool knows about one shard without its lane: how many
/// blocks it addresses and what one of its slots costs under each
/// [`CapacityKind`].
#[derive(Debug, Clone, Copy)]
struct ShardFacts {
    /// Addressable blocks.
    capacity: u64,
    /// A slot's cost under olat pricing: the shard class's `OLAT`.
    olat: Cycle,
    /// A slot's cost under cadence pricing: the class's pipeline cadence.
    cadence: Cycle,
}

/// A [`ShardedOram`]'s one table of per-shard facts. It routes a global
/// line address to (shard, local address) — the only copy of the
/// line-interleave arithmetic — and prices each shard's slots for the
/// host's WDRR arbiter; the round loop reads it while the executor
/// holds the lanes. The pool rebuilds it on every resize. A shard index
/// keeps its class (`i % mix.len()`) for the pool's lifetime, so a
/// shard's facts never change at a resize.
#[derive(Debug)]
pub(crate) struct ShardRouter {
    shards: Vec<ShardFacts>,
}

impl ShardRouter {
    /// The table for shards `0..n_shards` of `mix` (shard `i` is class
    /// `i % mix.len()`).
    fn new(mix: &[MixClass], n_shards: usize) -> Self {
        let shards = (0..n_shards)
            .map(|i| {
                let c = &mix[i % mix.len()];
                ShardFacts {
                    capacity: c.class.oram.data_block_capacity(),
                    olat: c.params.plan.total(),
                    cadence: c.cadence(),
                }
            })
            .collect();
        Self { shards }
    }

    /// The shard owning global block address `addr` (line-interleaved)
    /// and the address within it.
    pub(crate) fn route(&self, addr: u64) -> (usize, u64) {
        let n = self.shards.len() as u64;
        let shard = (addr % n) as usize;
        (shard, (addr / n) % self.shards[shard].capacity)
    }

    /// What one slot on `shard` costs under `pricing`: the shard's own
    /// class `OLAT` under olat pricing, its class pipeline cadence under
    /// cadence pricing.
    pub(crate) fn cost(&self, shard: usize, pricing: CapacityKind) -> Cycle {
        let facts = &self.shards[shard];
        match pricing {
            CapacityKind::Olat => facts.olat,
            CapacityKind::Cadence => facts.cadence,
        }
    }

    /// Number of shards routed across.
    pub(crate) fn n_shards(&self) -> usize {
        self.shards.len()
    }
}

/// `N` independent Path ORAM shards behind one flat block address space.
pub struct ShardedOram {
    /// The class mix the pool cycles through: shard `i` is built from
    /// `mix[i % mix.len()]`, which keeps each index's class stable
    /// across online resizes.
    mix: Vec<MixClass>,
    /// Pool `OLAT`, fixed at construction as the maximum over the mix's
    /// class `OLAT`s — the figure every tenant slot grid is built from.
    /// It must not move at resize: surviving streams anchored at
    /// admission would otherwise shift their periods. Every tally's
    /// histogram is sized from it, so mixed-class histograms merge.
    olat: Cycle,
    /// Per-shard service state, disjoint by construction.
    lanes: Vec<Lane>,
    /// Per-shard routing and slot costs over the current shard count.
    router: ShardRouter,
    /// Counters of the shards a shrink retired, so every pool-wide
    /// total (and the conservation `Σ accesses == Σ slots served`)
    /// survives resizes.
    retired: Tally,
}

impl std::fmt::Debug for ShardedOram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedOram")
            .field("shards", &self.lanes.len())
            .field("classes", &self.mix.len())
            .field("capacity", &self.capacity())
            .field("accesses", &self.accesses())
            .finish()
    }
}

impl ShardedOram {
    /// Builds a pool of `n_shards` ORAMs, each with a shard-unique seed:
    /// shard `i` is instantiated from `classes[i % classes.len()]`, so
    /// the mix cycles round-robin over the shard indices and each
    /// index's class survives online resizes. A homogeneous pool is one
    /// class. The pool `OLAT` (what slot grids are built from) is the
    /// maximum over *all* classes of the mix — conservative for
    /// whichever shard a slot lands on, and stable whatever subset of
    /// classes a given shard count instantiates.
    ///
    /// # Errors
    ///
    /// Propagates [`OramConfig::validate`] failures; rejects
    /// `n_shards == 0` and an empty class list.
    pub fn with_mix(
        classes: &[ShardClass],
        ddr: &DdrConfig,
        n_shards: usize,
    ) -> Result<Self, String> {
        if n_shards == 0 {
            return Err("a sharded ORAM needs at least one shard".into());
        }
        if classes.is_empty() {
            return Err("a sharded ORAM needs at least one shard class".into());
        }
        let mix = classes
            .iter()
            .map(|class| {
                let plan = AccessPlan::derive(&class.oram, ddr);
                debug_assert_eq!(
                    plan.total(),
                    OramTiming::derive(&class.oram, ddr).latency,
                    "plan must telescope to OLAT"
                );
                // Deferral keeps at most `MAX_DEFERRED` undrained paths'
                // blocks in the stash; two extra paths of slack cover the
                // serial baseline's transient occupancy.
                let path_blocks = class.oram.data.levels() as usize * class.oram.data.z();
                MixClass {
                    params: LaneParams {
                        plan: class.pipeline.lane_plan(&plan),
                        stash_bound: (MAX_DEFERRED + 2) * path_blocks,
                        path_blocks,
                    },
                    class: class.clone(),
                }
            })
            .collect::<Vec<_>>();
        let olat = mix
            .iter()
            .map(|c| c.params.plan.total())
            .max()
            .expect("non-empty");
        let lanes = (0..n_shards)
            .map(|i| Self::mint_lane(&mix, i, olat))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Self {
            router: ShardRouter::new(&mix, n_shards),
            mix,
            olat,
            lanes,
            retired: Tally::new(olat),
        })
    }

    /// Mints shard `index` from its mix class, with the shard-unique
    /// seed and a tally sized for pool `OLAT` `olat`. A staged class's
    /// ORAM defers its evictions; a serial class's evicts inline.
    fn mint_lane(mix: &[MixClass], index: usize, olat: Cycle) -> Result<Lane, String> {
        let c = &mix[index % mix.len()];
        let config = c.class.oram.shard(index as u64);
        let oram = match c.class.pipeline {
            PipelineKind::Serial => RecursivePathOram::new(config),
            PipelineKind::Staged => RecursivePathOram::with_deferred_evictions(config),
        };
        oram.map(|oram| Lane::new(index, c.params.clone(), oram, olat))
    }

    /// The mix classes shard indices `0..n_shards` would instantiate:
    /// the full mix once `n_shards >= mix.len()`, otherwise the prefix.
    fn classes_in_use(&self, n_shards: usize) -> &[MixClass] {
        &self.mix[..self.mix.len().min(n_shards.max(1))]
    }

    /// Resizes the pool online to `n_shards`. New shards are minted from
    /// the base geometry with their shard-unique seeds and start idle;
    /// shrinking retires the highest-indexed shards, folding their
    /// counters into the retired tally so every pool-wide total, and
    /// conservation checks (`Σ shard accesses + retired == Σ slots
    /// served`), keep holding across resizes. Payloads are not migrated
    /// — the serving host discards them (timing is the product).
    /// Routing is `addr % n_shards`, so a grow re-routes nearly every
    /// address just as a shrink does: callers that need the stored bytes
    /// must not resize (the ROADMAP item "Data that survives the control
    /// plane").
    ///
    /// # Errors
    ///
    /// Rejects `n_shards == 0`; propagates ORAM construction failures
    /// (in which case the pool is unchanged).
    pub fn resize(&mut self, n_shards: usize) -> Result<(), String> {
        if n_shards == 0 {
            return Err("a sharded ORAM needs at least one shard".into());
        }
        if n_shards > self.lanes.len() {
            let grown = (self.lanes.len()..n_shards)
                .map(|i| Self::mint_lane(&self.mix, i, self.olat))
                .collect::<Result<Vec<_>, String>>()?;
            self.lanes.extend(grown);
        } else {
            for lane in self.lanes.drain(n_shards..) {
                self.retired.absorb(&lane.tally);
            }
        }
        self.router = ShardRouter::new(&self.mix, n_shards);
        Ok(())
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.lanes.len()
    }

    /// Total addressable blocks across all shards.
    pub fn capacity(&self) -> u64 {
        self.router.shards.iter().map(|s| s.capacity).sum()
    }

    /// Pool `OLAT`: the per-access latency every slot grid is built
    /// from. For a heterogeneous mix this is the maximum over *all* mix
    /// classes (fixed at construction, stable across resizes); for a
    /// homogeneous pool it is exactly that class's `OLAT`.
    pub fn olat(&self) -> Cycle {
        self.olat
    }

    /// The [`CapacityModel`] a pool of `n_shards` shards of this mix
    /// prices slots at under `kind`: the pool `OLAT`, which never moves
    /// (grids are anchored on it), and the maximum pipeline cadence
    /// over the classes those shards instantiate — conservative for
    /// whichever shard a slot lands on, and for a homogeneous pool the
    /// one class's cadence. A resize re-prices admitted tenants against
    /// the would-be pool's model, since growing or shrinking can change
    /// which mix classes are instantiated.
    pub fn capacity_model(&self, n_shards: usize, kind: CapacityKind) -> CapacityModel {
        let cadence = self
            .classes_in_use(n_shards)
            .iter()
            .map(MixClass::cadence)
            .max()
            .expect("at least one class");
        CapacityModel::from_parts(kind, self.olat, cadence)
    }

    /// Per-shard slot costs under `kind`, in shard-index order — what
    /// each shard's slots cost the scheduler per round (see
    /// [`crate::round_slot_capacity`]): the shard's own class `OLAT`
    /// under olat pricing, its class pipeline cadence under cadence
    /// pricing.
    pub fn pricing_cadences(&self, kind: CapacityKind) -> Vec<Cycle> {
        (0..self.router.n_shards())
            .map(|s| self.router.cost(s, kind))
            .collect()
    }

    /// The pool's per-shard routing and slot costs (valid while the
    /// lanes are taken).
    pub(crate) fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Moves the per-shard lanes out of the pool so the host's executor
    /// can hold them for one round (each lane carries its own timing
    /// parameters). The pool is unusable until [`ShardedOram::put_lanes`]
    /// returns them.
    pub(crate) fn take_lanes(&mut self) -> Vec<Lane> {
        std::mem::take(&mut self.lanes)
    }

    /// Restores the lanes taken by [`ShardedOram::take_lanes`], in the
    /// original index order.
    pub(crate) fn put_lanes(&mut self, lanes: Vec<Lane>) {
        debug_assert!(self.lanes.is_empty(), "put_lanes without take_lanes");
        self.lanes = lanes;
    }

    /// Reads the block at global address `addr` at slot time `at`.
    pub fn read(&mut self, addr: u64, at: Cycle) -> (Vec<u8>, ShardService) {
        let (s, local) = self.router.route(addr);
        let lane = &mut self.lanes[s];
        let service = lane.charge(at);
        (lane.oram.read(local), service)
    }

    /// As [`ShardedOram::read`], discarding the payload. The host's
    /// serving datapath consumes only the service timing (the tenant-side
    /// consumer of the cache line is outside the simulated appliance), so
    /// its steady state allocates nothing per slot.
    pub fn read_discard(&mut self, addr: u64, at: Cycle) -> ShardService {
        let (s, local) = self.router.route(addr);
        self.lanes[s].execute(LaneOp::Read { local }, at)
    }

    /// Writes the block at global address `addr` at slot time `at`.
    pub fn write(&mut self, addr: u64, data: &[u8], at: Cycle) -> ShardService {
        let (s, local) = self.router.route(addr);
        let lane = &mut self.lanes[s];
        let service = lane.charge(at);
        lane.oram.write(local, data);
        service
    }

    /// Performs an indistinguishable dummy access on `shard` at slot
    /// time `at`. The caller picks the shard — uniformly from a
    /// per-tenant PRNG in the host — so dummies carry no global pattern a
    /// shard-granular observer could use to tell them from real accesses.
    pub fn dummy_access(&mut self, shard: usize, at: Cycle) -> ShardService {
        self.lanes[shard].execute(LaneOp::Dummy, at)
    }

    /// Flushes every shard's background eviction queue (serial shards
    /// have nothing pending). Charges the drains to the data ports as if
    /// they ran back to back from each port's current free point — the
    /// end-of-run analogue of the idle-cycle drains.
    pub fn drain_evictions(&mut self) {
        for lane in &mut self.lanes {
            while lane.drain() {}
        }
    }

    /// Total accesses (real + dummy) per shard.
    pub fn accesses(&self) -> Vec<u64> {
        self.lanes.iter().map(|l| l.tally.accesses).collect()
    }

    /// Accesses (real + dummy) served by shards since retired by a
    /// shrink ([`ShardedOram::resize`]).
    pub fn retired_accesses(&self) -> u64 {
        self.retired.accesses
    }

    /// The pool-wide tally: every live lane's plus the retired one.
    fn total(&self) -> Tally {
        let mut total = self.retired.clone();
        for lane in &self.lanes {
            total.absorb(&lane.tally);
        }
        total
    }

    /// Cycles slots spent queued behind a busy shard (an internal service
    /// metric — nonzero means the fleet briefly exceeded a shard's
    /// bandwidth; the observable slot grids are unaffected). Includes
    /// shards since retired by a shrink.
    pub fn queueing_cycles(&self) -> u64 {
        self.total().queueing_cycles
    }

    /// Per-shard busy fraction over `horizon` cycles, reported as
    /// *pipeline-stage occupancy*: the busiest unit's busy cycles (minus
    /// the tail of its last interval extending past the horizon) over
    /// the horizon.
    ///
    /// A serial shard is one unit whose busy time is `accesses × OLAT`,
    /// so this reduces exactly to the pre-pipeline formula (pinned by a
    /// unit test). The naive `accesses × OLAT` numerator would
    /// *over-report* a staged shard — overlapped stages multiply-count
    /// wall cycles the shard spends serving several accesses at once —
    /// so staged shards report the bottleneck unit's occupancy instead,
    /// which is the quantity admission control actually needs to keep
    /// below 1.0.
    pub fn utilization(&self, horizon: Cycle) -> Vec<f64> {
        if horizon == 0 {
            return vec![0.0; self.lanes.len()];
        }
        self.lanes
            .iter()
            .map(|l| {
                l.stage_busy
                    .iter()
                    .zip(&l.stage_free)
                    .map(|(&b, &f)| {
                        b.saturating_sub(f.saturating_sub(horizon)) as f64 / horizon as f64
                    })
                    .fold(0.0f64, f64::max)
            })
            .collect()
    }

    /// Read access to one shard (instrumentation only).
    pub fn shard(&self, index: usize) -> &RecursivePathOram {
        &self.lanes[index].oram
    }

    /// A human-readable pipeline label: `"serial"` / `"staged"` when
    /// every instantiated class agrees, `"mixed"` otherwise.
    pub fn pipeline_label(&self) -> &'static str {
        let classes = self.classes_in_use(self.lanes.len());
        let first = classes[0].class.pipeline;
        if classes.iter().all(|c| c.class.pipeline == first) {
            match first {
                PipelineKind::Serial => "serial",
                PipelineKind::Staged => "staged",
            }
        } else {
            "mixed"
        }
    }

    /// Σ (completion − request time) over all accesses, including
    /// shards since retired by a shrink.
    pub fn service_cycles(&self) -> u64 {
        self.total().service_cycles
    }

    /// Mean per-access service time (cycles) so far; 0.0 when idle.
    pub fn mean_service_cycles(&self) -> f64 {
        let total = self.total();
        if total.accesses == 0 {
            0.0
        } else {
            total.service_cycles as f64 / total.accesses as f64
        }
    }

    /// The merged fleet-wide per-access service-time distribution:
    /// every live shard's histogram plus the retired histogram, so the
    /// result covers all accesses ever served (conservation:
    /// `service_histogram().total() == Σ accesses + retired`). This is
    /// the distribution the pipeline and admission gates read p50/p99
    /// from and perf-session summaries store.
    pub fn service_histogram(&self) -> Histogram {
        self.total().hist
    }

    /// Median per-access service time (cycles) so far, as the upper edge
    /// of the bucket holding the median access. 0 when idle.
    pub fn p50_service_cycles(&self) -> Cycle {
        self.service_histogram().percentile(50)
    }

    /// 99th-percentile per-access service time (cycles) so far, as the
    /// upper edge of the histogram bucket holding the 99th-percentile
    /// access — a conservative (never under-reporting) figure with
    /// `OLAT/16`-cycle resolution. 0 when idle. This is the number the
    /// admission gate's SLO is stated against.
    pub fn p99_service_cycles(&self) -> Cycle {
        self.service_histogram().percentile(99)
    }

    /// Deferred evictions drained in the background so far, including
    /// shards since retired by a shrink.
    pub fn drained_evictions(&self) -> u64 {
        self.total().drained_evictions
    }

    /// Deferred evictions currently pending across all shards.
    pub fn pending_evictions(&self) -> usize {
        self.lanes.iter().map(|l| l.oram.pending_evictions()).sum()
    }

    /// Pipeline units per shard as perf sessions sample them: 1 for a
    /// serial shard (the whole shard is one unit), posmap trees plus the
    /// data port for a staged one.
    pub fn n_stage_units(&self) -> usize {
        self.classes_in_use(self.lanes.len())
            .iter()
            .map(|c| c.params.plan.posmap_levels.len() + 1)
            .max()
            .expect("at least one class")
    }

    /// Cumulative busy cycles per pipeline unit of one shard. A serial
    /// shard reports its single opaque unit (`accesses × OLAT`); a
    /// staged shard reports each unit's accumulated stage time.
    pub fn stage_busy_snapshot(&self, shard: usize) -> Vec<u64> {
        self.lanes[shard].stage_busy.clone()
    }

    /// Writes the per-shard rows and the retired-access counter into a
    /// perf-session round sample: cumulative accesses, eviction-queue
    /// depth, stash occupancy (data + posmap trees), and per-unit stage
    /// busy cycles for every live shard.
    pub(crate) fn sample_into(&self, sample: &mut RoundSample) {
        sample.retired_accesses = self.retired.accesses;
        sample.shards = self
            .lanes
            .iter()
            .map(|l| ShardSample {
                accesses: l.tally.accesses,
                queue_depth: l.oram.pending_evictions() as u32,
                stash_len: l.oram.total_stash_len() as u32,
                stage_busy: l.stage_busy.clone(),
            })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A homogeneous pool of `n` small-geometry shards.
    fn pool(pipeline: PipelineKind, n: usize) -> ShardedOram {
        let class = ShardClass {
            oram: OramConfig::small(),
            pipeline,
        };
        ShardedOram::with_mix(&[class], &DdrConfig::default(), n).expect("valid")
    }

    fn small(n: usize) -> ShardedOram {
        pool(PipelineKind::Serial, n)
    }

    /// The stage plan of one small-geometry access.
    fn small_plan() -> AccessPlan {
        AccessPlan::derive(&OramConfig::small(), &DdrConfig::default())
    }

    /// The pipeline cadence `s` prices a slot at under cadence pricing.
    fn cadence(s: &ShardedOram) -> Cycle {
        s.capacity_model(s.n_shards(), CapacityKind::Cadence)
            .pipeline_cadence()
    }

    #[test]
    fn capacity_scales_with_shards() {
        let one = small(1);
        let four = small(4);
        assert_eq!(four.capacity(), 4 * one.capacity());
        assert_eq!(four.n_shards(), 4);
    }

    #[test]
    fn addresses_route_by_interleave() {
        let s = small(4);
        let r = s.router();
        let cap = OramConfig::small().data_block_capacity();
        for addr in 0..32u64 {
            assert_eq!(r.route(addr), ((addr % 4) as usize, (addr / 4) % cap));
        }
        assert_eq!(r.n_shards(), 4);
    }

    #[test]
    fn read_your_writes_across_shards() {
        let mut s = small(3);
        let payload = vec![7u8; 64];
        for addr in [0u64, 1, 2, 3, 100, 101] {
            s.write(addr, &payload, 0);
        }
        for addr in [0u64, 1, 2, 3, 100, 101] {
            assert_eq!(s.read(addr, 0).0, payload, "addr {addr}");
        }
    }

    #[test]
    fn shards_have_distinct_seeds() {
        let base = OramConfig::small();
        let seeds: Vec<u64> = (0..8).map(|i| base.shard(i).seed).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "seeds collide: {seeds:?}");
        assert!(!seeds.contains(&base.seed));
    }

    #[test]
    fn dummies_land_on_the_requested_shard() {
        let mut s = small(4);
        for (i, shard) in [0usize, 3, 1, 3, 2, 0].into_iter().enumerate() {
            s.dummy_access(shard, i as u64 * 10_000);
        }
        // Only dummies were posted, so each shard's accesses are its
        // dummies.
        assert_eq!(s.accesses(), &[2, 1, 1, 2]);
    }

    #[test]
    fn utilization_never_exceeds_one() {
        let mut s = small(1);
        // Burst five same-shard accesses at one instant near the horizon:
        // most of the service time lands past it.
        for _ in 0..5 {
            s.read(0, 100);
        }
        let horizon = 100 + s.olat();
        let u = s.utilization(horizon);
        assert!(u[0] <= 1.0, "utilization {u:?} exceeds 100%");
        assert!(u[0] > 0.0);
    }

    #[test]
    fn resize_grows_and_shrinks_with_conserved_counters() {
        let mut s = small(2);
        for addr in 0..10u64 {
            s.read(addr, addr * 10_000);
        }
        let served: u64 = s.accesses().iter().sum();
        assert_eq!(served, 10);
        // Grow: fresh idle shards, distinct seeds, old counters kept.
        s.resize(5).expect("grow");
        assert_eq!(s.n_shards(), 5);
        // Routing follows the new interleave (a grow re-routes too).
        for addr in 0..10u64 {
            assert_eq!(s.router().route(addr).0, (addr % 5) as usize);
        }
        assert_eq!(s.accesses().iter().sum::<u64>(), 10);
        assert_eq!(s.accesses()[2..], [0, 0, 0]);
        let seeds: Vec<u64> = (0..5).map(|i| OramConfig::small().shard(i).seed).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 5);
        for addr in 0..10u64 {
            s.read(addr, 200_000 + addr * 10_000);
        }
        // Shrink: retired shards fold into the retired counters so the
        // total stays conserved.
        s.resize(1).expect("shrink");
        assert_eq!(s.n_shards(), 1);
        assert!((0..10u64).all(|addr| s.router().route(addr).0 == 0));
        let total = s.accesses().iter().sum::<u64>() + s.retired_accesses();
        assert_eq!(total, 20);
        // Zero shards is refused and leaves the pool intact.
        assert!(s.resize(0).is_err());
        assert_eq!(s.n_shards(), 1);
        assert_eq!(s.router().n_shards(), 1);
    }

    #[test]
    fn shrink_preserves_pool_wide_service_counters() {
        // queueing/service/drain totals were pool-global before the lane
        // refactor; retiring a shard must not lose its contribution.
        let mut s = small(2);
        let olat = s.olat();
        s.read(1, 1_000); // shard 1
        s.read(3, 1_000); // shard 1 again: queues a full OLAT
        let queueing = s.queueing_cycles();
        let service = s.service_cycles();
        let hist_total = s.service_histogram().total();
        assert_eq!(queueing, olat);
        s.resize(1).expect("shrink away shard 1");
        assert_eq!(s.queueing_cycles(), queueing);
        assert_eq!(s.service_cycles(), service);
        assert_eq!(s.service_histogram().total(), hist_total);
        assert_eq!(s.mean_service_cycles(), service as f64 / 2.0);
    }

    fn staged(n: usize) -> ShardedOram {
        pool(PipelineKind::Staged, n)
    }

    #[test]
    fn serial_utilization_values_pinned() {
        // The serial formula (accesses × OLAT minus the post-horizon
        // tail) is the pre-pipeline reference; pin its exact values.
        let mut s = small(2);
        let olat = s.olat();
        s.read(0, 1_000); // shard 0
        s.read(2, 1_000); // shard 0 again: queues, busy until 1_000 + 2·olat
        s.read(1, 200); // shard 1, completes well before the horizon
        let horizon = 1_000 + 2 * olat; // exactly the shard-0 busy end
        let u = s.utilization(horizon);
        assert_eq!(u[0], (2 * olat) as f64 / horizon as f64);
        assert_eq!(u[1], olat as f64 / horizon as f64);
        // A horizon cutting the last interval subtracts only the tail.
        let early = 1_000 + olat;
        let u = s.utilization(early);
        assert_eq!(u[0], olat as f64 / early as f64);
        // Zero horizon reports all-idle.
        assert_eq!(s.utilization(0), vec![0.0, 0.0]);
    }

    #[test]
    fn effective_cadence_tracks_the_discipline() {
        let serial = small(1);
        let staged = staged(1);
        assert_eq!(cadence(&serial), serial.olat());
        assert_eq!(cadence(&staged), small_plan().staged_cadence());
        assert!(cadence(&staged) < cadence(&serial));
        // Olat pricing charges a full OLAT whatever the discipline;
        // cadence pricing follows the pipeline.
        for s in [&serial, &staged] {
            assert_eq!(
                s.capacity_model(1, CapacityKind::Olat).effective_cadence(),
                s.olat()
            );
            assert_eq!(
                s.capacity_model(1, CapacityKind::Cadence)
                    .effective_cadence(),
                cadence(s)
            );
        }
    }

    #[test]
    fn serial_lanes_run_the_one_stage_pipeline() {
        let mut serial = small(1);
        let mut staged = staged(1);
        let plan = small_plan();
        // One stage holding the data port for the whole OLAT: the
        // critical path is OLAT, so queueing reduces to `start − at`,
        // and the stage cadence is the serial pricing cadence.
        let one = PipelineKind::Serial.lane_plan(&plan);
        assert!(one.posmap_levels.is_empty());
        assert_eq!(
            (one.total(), one.critical_path()),
            (plan.total(), plan.total())
        );
        assert_eq!(one.staged_cadence(), cadence(&serial));
        assert_eq!(PipelineKind::Staged.lane_plan(&plan), plan);
        // Only a staged shard's ORAM defers its eviction.
        serial.read(0, 0);
        staged.read(0, 0);
        assert_eq!(serial.pending_evictions(), 0);
        assert_eq!(staged.pending_evictions(), 1);
    }

    #[test]
    fn p99_service_time_reflects_the_queueing_tail() {
        let mut s = small(1);
        let olat = s.olat();
        assert_eq!(s.p99_service_cycles(), 0, "idle pool reports 0");
        // 100 spaced accesses (service exactly OLAT) and one colliding
        // access (service 2·OLAT): p99 sits at the uncontended bucket,
        // the max would not.
        for i in 0..100u64 {
            s.read(0, i * 4 * olat);
        }
        let p99_uncontended = s.p99_service_cycles();
        assert!(p99_uncontended >= olat && p99_uncontended <= olat + olat / 16);
        // One access landing mid-service (the i=99 read occupies the
        // shard until 397·OLAT) queues for OLAT/2 — a genuine outlier
        // bucket — yet 1 of 101 samples cannot move the 99th percentile.
        let (_, outlier) = s.read(0, 396 * olat + olat / 2);
        assert_eq!(outlier.queued_cycles, olat / 2, "outlier must queue");
        assert_eq!(s.p99_service_cycles(), p99_uncontended);
        // Make the tail 2% of accesses and p99 must move past OLAT.
        for i in 0..30u64 {
            s.read(0, 500 * olat + i); // back-to-back burst: deep queueing
        }
        assert!(s.p99_service_cycles() > 2 * olat);
    }

    #[test]
    fn staged_pipeline_cuts_service_time_and_queueing() {
        let mut serial = small(1);
        let mut staged = staged(1);
        // A saturating burst: 24 back-to-back accesses at one instant.
        for i in 0..24u64 {
            serial.read(i * 2, 1_000);
            staged.read(i * 2, 1_000);
        }
        let serial_mean = serial.mean_service_cycles();
        let staged_mean = staged.mean_service_cycles();
        assert!(
            staged_mean < serial_mean * 0.85,
            "staged {staged_mean:.0} not ≥15% below serial {serial_mean:.0}"
        );
        assert!(staged.queueing_cycles() < serial.queueing_cycles());
        // The pipeline's sustained cadence is the bottleneck stage, not
        // the full OLAT: the burst finishes measurably earlier.
        let plan = small_plan();
        assert!(plan.bottleneck() < plan.total());
    }

    #[test]
    fn staged_reads_return_the_same_data_as_serial() {
        let mut a = small(2);
        let mut b = staged(2);
        let payload = vec![0xEE; 64];
        for addr in [0u64, 1, 5, 9, 100] {
            a.write(addr, &payload, 0);
            b.write(addr, &payload, 0);
        }
        for addr in [0u64, 1, 5, 9, 100] {
            assert_eq!(a.read(addr, 0).0, b.read(addr, 0).0, "addr {addr}");
        }
    }

    #[test]
    fn staged_eviction_queue_stays_bounded_and_drains() {
        let mut s = staged(1);
        let data = OramConfig::small().data;
        let stash_bound = (MAX_DEFERRED + 2) * data.levels() as usize * data.z();
        for i in 0..64u64 {
            s.read(i, i * 10); // near-saturating arrivals
            assert!(
                s.pending_evictions() <= MAX_DEFERRED,
                "queue grew to {} (bound {MAX_DEFERRED})",
                s.pending_evictions()
            );
            assert!(s.shard(0).data_stash_len() <= stash_bound);
        }
        assert!(s.drained_evictions() > 0, "background drains never ran");
        s.drain_evictions();
        assert_eq!(s.pending_evictions(), 0);
        s.shard(0).check_invariants();
    }

    #[test]
    fn staged_fingerprints_match_serial_after_drain() {
        // Same seeded access sequence through both disciplines: after the
        // staged backend flushes its queues, the §3.2 observable (bucket
        // ciphertexts) is bit-identical to serial.
        let mut a = small(2);
        let mut b = staged(2);
        for i in 0..40u64 {
            a.read(i % 7, i * 500);
            b.read(i % 7, i * 500);
            a.dummy_access((i % 2) as usize, i * 500 + 100);
            b.dummy_access((i % 2) as usize, i * 500 + 100);
        }
        b.drain_evictions();
        for shard in 0..2 {
            assert_eq!(
                a.shard(shard).root_fingerprint(),
                b.shard(shard).root_fingerprint(),
                "shard {shard}"
            );
        }
    }

    #[test]
    fn lane_execute_matches_the_pool_entry_points() {
        // The round loop posts LaneOps; they must charge exactly like
        // the pool's public read/write/dummy paths.
        for make in [small as fn(usize) -> ShardedOram, staged] {
            let mut via_pool = make(2);
            let mut via_lane = make(2);
            let zeros = [0u8; 64];
            for i in 0..20u64 {
                let at = i * 700;
                let addr = i * 3 % 16;
                let (s, local) = via_pool.router().route(addr);
                let expect = match i % 3 {
                    0 => via_pool.read(addr, at).1,
                    1 => via_pool.write(addr, &zeros, at),
                    _ => via_pool.dummy_access(s, at),
                };
                let op = match i % 3 {
                    0 => LaneOp::Read { local },
                    1 => LaneOp::Write { local },
                    _ => LaneOp::Dummy,
                };
                let mut lanes = via_lane.take_lanes();
                let got = lanes[s].execute(op, at);
                via_lane.put_lanes(lanes);
                assert_eq!(got, expect, "op {i}");
            }
            assert_eq!(via_pool.accesses(), via_lane.accesses());
            assert_eq!(via_pool.queueing_cycles(), via_lane.queueing_cycles());
            assert_eq!(via_pool.service_cycles(), via_lane.service_cycles());
            for shard in 0..2 {
                assert_eq!(
                    via_pool.shard(shard).root_fingerprint(),
                    via_lane.shard(shard).root_fingerprint(),
                    "shard {shard}"
                );
            }
        }
    }

    #[test]
    fn queueing_accrues_when_slots_collide() {
        let mut s = small(2);
        let olat = s.olat();
        // Two accesses to the same shard at the same instant: the second
        // queues for olat cycles.
        let (_, first) = s.read(0, 1_000);
        assert_eq!(first.queued_cycles, 0);
        assert_eq!(first.start, 1_000);
        assert_eq!(first.completion, 1_000 + olat);
        let (_, second) = s.read(2, 1_000); // addr 2 % 2 == shard 0 again
        assert_eq!(second.queued_cycles, olat);
        assert_eq!(second.start, 1_000 + olat);
        assert_eq!(second.completion, 1_000 + 2 * olat);
        assert_eq!(s.queueing_cycles(), olat);
        // Spaced accesses don't queue.
        s.read(1, 1_000);
        s.read(3, 1_000 + 2 * olat);
        assert_eq!(s.queueing_cycles(), olat);
    }

    /// A second, smaller geometry for heterogeneous-mix tests (one fewer
    /// data level, one fewer recursion level than [`OramConfig::small`]).
    fn tiny() -> OramConfig {
        OramConfig {
            data: otc_oram::TreeGeometry::new(7, 3, 64, 16),
            posmaps: vec![
                otc_oram::TreeGeometry::new(4, 3, 32, 16),
                otc_oram::TreeGeometry::new(3, 3, 32, 16),
            ],
            seed: 0x717E_5EED,
        }
    }

    fn mixed(n: usize) -> ShardedOram {
        ShardedOram::with_mix(
            &[
                ShardClass {
                    oram: OramConfig::small(),
                    pipeline: PipelineKind::Serial,
                },
                ShardClass {
                    oram: tiny(),
                    pipeline: PipelineKind::Staged,
                },
            ],
            &DdrConfig::default(),
            n,
        )
        .expect("valid mix")
    }

    #[test]
    fn with_mix_rejects_degenerate_inputs() {
        let ddr = DdrConfig::default();
        assert!(ShardedOram::with_mix(&[], &ddr, 2).is_err());
        let class = ShardClass {
            oram: OramConfig::small(),
            pipeline: PipelineKind::Serial,
        };
        assert!(ShardedOram::with_mix(&[class], &ddr, 0).is_err());
    }

    #[test]
    fn mixed_pool_capacity_and_routing_follow_the_classes() {
        let m = mixed(4);
        let small_cap = OramConfig::small().data_block_capacity();
        let tiny_cap = tiny().data_block_capacity();
        assert!(tiny_cap < small_cap);
        // Shards 0,2 are class small; 1,3 are class tiny.
        assert_eq!(m.capacity(), 2 * small_cap + 2 * tiny_cap);
        let r = m.router();
        for addr in 0..64u64 {
            let shard = (addr % 4) as usize;
            let cap = if shard.is_multiple_of(2) {
                small_cap
            } else {
                tiny_cap
            };
            assert_eq!(r.route(addr), (shard, (addr / 4) % cap));
        }
    }

    #[test]
    fn mixed_pool_reads_its_writes_on_every_class() {
        let mut m = mixed(4);
        let payload = vec![0xABu8; 64];
        for addr in [0u64, 1, 2, 3, 40, 41, 42, 43] {
            m.write(addr, &payload, 0);
        }
        for addr in [0u64, 1, 2, 3, 40, 41, 42, 43] {
            assert_eq!(m.read(addr, 0).0, payload, "addr {addr}");
        }
    }

    #[test]
    fn mixed_pool_aggregates_are_the_conservative_maxima() {
        let m = mixed(4);
        let small_pool = small(1);
        let tiny_staged = ShardedOram::with_mix(
            &[ShardClass {
                oram: tiny(),
                pipeline: PipelineKind::Staged,
            }],
            &DdrConfig::default(),
            1,
        )
        .expect("valid");
        // Pool OLAT is the max over classes (small's — the bigger tree).
        assert!(tiny_staged.olat() < small_pool.olat());
        assert_eq!(m.olat(), small_pool.olat());
        // Pricing cadence is the max over classes in use: the serial
        // small class's full OLAT dominates the tiny staged cadence.
        assert_eq!(cadence(&m), small_pool.olat());
        assert_eq!(m.pipeline_label(), "mixed");
        // Per-shard pricing alternates with the class assignment.
        let cadences = m.pricing_cadences(CapacityKind::Cadence);
        assert_eq!(cadences.len(), 4);
        assert_eq!(cadences[0], small_pool.olat());
        assert_eq!(cadences[1], cadence(&tiny_staged));
        assert_eq!(cadences[0], cadences[2]);
        assert_eq!(cadences[1], cadences[3]);
        // Olat pricing charges each shard its own class OLAT.
        let olats = m.pricing_cadences(CapacityKind::Olat);
        assert_eq!(olats[0], small_pool.olat());
        assert_eq!(olats[1], tiny_staged.olat());
        // A one-shard pool of this mix only instantiates class 0, and
        // the would-be pricing model reflects that; the pool OLAT stays
        // anchored at the construction-time max regardless.
        let at1 = m.capacity_model(1, CapacityKind::Cadence);
        assert_eq!(at1.effective_cadence(), small_pool.olat());
        assert_eq!(at1.olat(), m.olat());
    }

    #[test]
    fn mixed_pool_resize_cycles_the_class_template() {
        let mut m = mixed(2);
        let small_cap = OramConfig::small().data_block_capacity();
        let tiny_cap = tiny().data_block_capacity();
        assert_eq!(m.capacity(), small_cap + tiny_cap);
        let olat_before = m.olat();
        // Each class's slot cost under olat and under cadence pricing:
        // serial small pays its OLAT either way, staged tiny its cadence.
        let small_olat = small_plan().total();
        let tiny_plan = AccessPlan::derive(&tiny(), &DdrConfig::default());
        let olat_costs = [small_olat, tiny_plan.total()];
        let cadence_costs = [small_olat, tiny_plan.staged_cadence()];
        // Grow: shards 2 and 3 must pick up classes 0 and 1 again.
        m.resize(4).expect("grow");
        assert_eq!(m.capacity(), 2 * (small_cap + tiny_cap));
        assert_eq!(m.olat(), olat_before, "pool OLAT is resize-stable");
        assert_eq!(
            m.pricing_cadences(CapacityKind::Olat),
            [olat_costs, olat_costs].concat()
        );
        assert_eq!(
            m.pricing_cadences(CapacityKind::Cadence),
            [cadence_costs, cadence_costs].concat()
        );
        // Shrink to one shard: only class 0 remains instantiated.
        m.resize(1).expect("shrink");
        assert_eq!(m.capacity(), small_cap);
        assert_eq!(m.pipeline_label(), "serial");
        assert_eq!(m.olat(), olat_before, "pool OLAT is resize-stable");
        assert_eq!(m.pricing_cadences(CapacityKind::Olat), [small_olat]);
        assert_eq!(m.pricing_cadences(CapacityKind::Cadence), [small_olat]);
        // Mixed service histograms stay mergeable across classes: serve
        // a little traffic on both classes after growing back.
        m.resize(4).expect("grow again");
        for addr in 0..8u64 {
            m.read(addr, addr * 50_000);
        }
        assert_eq!(m.service_histogram().total(), 8);
    }
}
