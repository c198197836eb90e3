//! The multi-tenant host: admission control plus the quantum-batched
//! slot scheduler.
//!
//! # Scheduling model
//!
//! Each tenant owns a [`SlotStream`] (the enforcer timeline of
//! `otc-core`, factored out for exactly this purpose): its observable
//! access times are `s_0 = origin + r`, `s_{k+1} = s_k + OLAT + r`, with
//! `r` evolving only at public epoch boundaries and `origin` the
//! tenant's admission time. The scheduler works in quantum-sized batches
//! of virtual time: each round it serves *all* slots due before the next
//! frontier in global slot-time order against the shared
//! [`ShardedOram`], pulling each tenant's traffic arrivals lazily as its
//! slots come due. Real requests go to the shard owning the
//! (tenant-tagged) address; each dummy's shard is drawn uniformly from
//! the tenant's own PRNG.
//!
//! Due slots are found through a [`CalendarQueue`] keyed by global slot
//! time, so a round costs O(slots due + quantum/bucket-width) instead of
//! the O(K tenants) per served slot a k-way merge pays. The calendar is
//! the host's only due-slot finder: each tenant's observable times are
//! a function of its own rate choices alone, so no tenant can tell how
//! the host finds the next due slot. It serves the exact order the
//! k-way merge it replaced served, tie-breaks included;
//! `tests/churn_props.rs` and `tests/spine_equivalence.rs` hold digests
//! recorded from that merge.
//!
//! # Online churn
//!
//! Tenants arrive and leave while the host serves traffic:
//!
//! * [`MultiTenantHost::admit`] authorizes a tenant's leakage
//!   parameters and splices its slot stream into the calendar mid-run —
//!   the new grid is anchored at the admission clock
//!   ([`SlotStream::starting_at`]), so no phantom past-due slots
//!   materialize and no other tenant's stream moves.
//! * [`MultiTenantHost::evict`] freezes the tenant's ledger entry
//!   (fleet sums are conserved — an eviction never un-spends bits),
//!   drops its queued arrivals, and removes its calendar entry. It runs
//!   between rounds, when the tenant's stream has been served up to the
//!   clock, so no slot is left due. Other tenants' streams are
//!   untouched: eviction is an O(1) bucket op, not a drain.
//! * [`MultiTenantHost::resize_shards`] grows or shrinks the backend
//!   shard pool online — nothing pauses, nothing drains. Routing is
//!   `addr % n_shards`, so any resize, grow or shrink, re-routes nearly
//!   every address; payloads are not migrated (the ROADMAP item "Data
//!   that survives the control plane").
//!
//! Two invariants make multi-tenancy leakage-sound:
//!
//! 1. **Per-tenant periodicity** — a tenant's slot times are computed
//!    from its own stream state only; the scheduler never moves, drops,
//!    or reorders a slot because of another tenant (churn events
//!    included — see `tests/churn_isolation.rs`). Cross-tenant
//!    contention shows up as internal shard queueing
//!    ([`ShardedOram::queueing_cycles`]), never in the observable grid.
//! 2. **Admission-controlled capacity** — a tenant is admitted only if
//!    the fleet's worst-case slot demand (every *active* tenant at its
//!    fastest candidate rate) fits within the shards' aggregate service
//!    bandwidth, so invariant 1 is sustainable, not aspirational.
//!    Eviction returns its capacity to the pool.

use crate::adversary::{AdversaryKind, AdversaryState, ObservedSlot};
use crate::arbiter::WdrrArbiter;
use crate::calendar::{self, CalendarQueue};
use crate::ledger::LeakageLedger;
use crate::parallel::{LaneRequest, ShardExecutor, Ticket};
use crate::shard::{LaneOp, PipelineKind, ShardClass, ShardedOram};
use crate::traffic::{LoopMode, Request, TenantTraffic, TrafficModel, TrafficPull};
use otc_attacks::RateEstimate;
use otc_core::{RatePolicy, SecureProcessor, SessionError, SlotStream};
use otc_crypto::SplitMix64;
use otc_dram::{Cycle, DdrConfig};
use otc_oram::{CapacityKind, CapacityModel, OramConfig};
use otc_perf::{PerfSession, RoundSample, SessionMeta, SessionSummary, TenantSample};
use otc_sim::AccessKind;
use otc_workloads::SpecBenchmark;
use std::cmp::Reverse;
use std::collections::VecDeque;

/// Cap on recorded serve-log entries (memory guard, mirroring the
/// per-stream trace cap in `otc-core`).
const SERVE_LOG_CAP: usize = 4_000_000;

/// Admission cap on worst-case per-shard utilization: the active fleet
/// may demand at most this share of each shard.
pub const MAX_SHARD_UTILIZATION: f64 = 0.9;

/// Host-level errors.
#[derive(Debug, Clone, PartialEq)]
pub enum HostError {
    /// The tenant's leakage parameters exceed the processor's limit.
    Session(SessionError),
    /// Admitting the tenant (or shrinking the shard pool) would
    /// oversubscribe the shards: worst-case fleet slot demand (in
    /// shard-equivalents) against available capacity. Carries the
    /// capacity figure the denial was priced at so operators can see
    /// *why* — an olat-priced staged pool saying "saturated" at half
    /// its real bandwidth looks very different from a cadence-priced
    /// one that is genuinely full.
    Saturated {
        /// Shard-equivalents the fleet would demand.
        demanded: f64,
        /// Shard-equivalents available under the utilization cap.
        available: f64,
        /// Per-slot service figure each slot was priced at (cycles).
        cadence: Cycle,
        /// The pricing that produced `cadence`.
        pricing: CapacityKind,
    },
    /// The tenant id is not registered with this host.
    UnknownTenant {
        /// The offending id.
        id: usize,
    },
    /// The tenant was already evicted.
    AlreadyEvicted {
        /// The offending id.
        id: usize,
        /// Host clock at which it was evicted.
        at: Cycle,
    },
    /// ORAM construction / configuration failure.
    Build(String),
}

impl std::fmt::Display for HostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostError::Session(e) => write!(f, "session: {e}"),
            HostError::Saturated {
                demanded,
                available,
                cadence,
                pricing,
            } => write!(
                f,
                "saturated: fleet demands {demanded:.2} shard-equivalents, {available:.2} \
                 available ({:.2} short; {pricing} pricing at {cadence} cycles/slot)",
                demanded - available
            ),
            HostError::UnknownTenant { id } => write!(f, "unknown tenant id {id}"),
            HostError::AlreadyEvicted { id, at } => {
                write!(f, "tenant {id} was already evicted at cycle {at}")
            }
            HostError::Build(e) => write!(f, "build: {e}"),
        }
    }
}

impl std::error::Error for HostError {}

impl From<SessionError> for HostError {
    fn from(e: SessionError) -> Self {
        HostError::Session(e)
    }
}

/// The due-slot finder a scenario's `scheduler=` key names. The
/// calendar queue is the only one; the type remains because the repo
/// benchmark's scenarios name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Calendar-queue (bucketed timing wheel): O(slots due) per round,
    /// O(1) tenant insertion/removal.
    #[default]
    Calendar,
}

/// Where the host executes the shard work of one scheduling round.
///
/// Both kinds run the same round loop. Its scheduling spine — calendar
/// pops, tenant PRNG draws, slot-grid serves, the leakage ledger — is
/// always serial (its order *is* the determinism guarantee); only the
/// heavy per-shard work (ORAM path reads, stash updates, eviction
/// drains, histogram records) moves. Each shard is pinned to one
/// worker, workers execute their shards' requests strictly FIFO, and
/// the round commits completions in posting order — so seeded runs
/// produce byte-identical serve logs, ledgers, and `.otcp` perf
/// sessions at any thread count (`tests/threaded_equivalence.rs` pins
/// this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelKind {
    /// Every shard access runs inline on the caller's thread.
    #[default]
    Serial,
    /// Shard work on `n ≥ 1` persistent worker threads, clamped to the
    /// shard count: a round uses, and the host spawns, at most one
    /// worker per shard.
    Threads(usize),
}

/// Host configuration.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Base ORAM geometry; each shard gets a shard-unique seed from it.
    pub oram: OramConfig,
    /// DRAM channel model.
    pub ddr: DdrConfig,
    /// Number of ORAM shards.
    pub n_shards: usize,
    /// Virtual-time frontier advance per scheduling round (the batch of
    /// work processed per round), in cycles.
    pub quantum: Cycle,
    /// The processor's per-tenant leakage limit `L` (bits).
    pub leakage_limit_bits: u64,
    /// Seed for the host's randomness: the processor's key material
    /// and each tenant's address tag and dummy-shard PRNG.
    pub seed: u64,
    /// Whether tenant slot traces and the global serve log are recorded
    /// (tests/analysis; off for long sweeps).
    pub record_traces: bool,
    /// Shard pipeline discipline (see [`PipelineKind`]): `Serial` is the
    /// paper's controller, one opaque `OLAT` per access; `Staged`
    /// overlaps the stages of consecutive accesses and defers evictions
    /// to background drains, at most
    /// [`MAX_DEFERRED`](crate::MAX_DEFERRED) per shard.
    pub pipeline: PipelineKind,
    /// What admission prices one slot at (see [`CapacityKind`]): `Olat`
    /// charges a full `OLAT` per slot — the pre-cadence reference, bit-
    /// identical to historical admission decisions — while `Cadence`
    /// charges the pipeline's steady-state initiation interval, letting
    /// a staged pool admit up to the bandwidth it actually sustains.
    /// Slot grids (and hence the timing channel) are identical under
    /// both: only the admission ceiling moves.
    pub capacity: CapacityKind,
    /// Where shard accesses run (see [`ParallelKind`]): inline under
    /// `Serial`, on worker threads under `Threads(n)`. The round loop
    /// is the same, so the observable state (serve logs, ledgers, perf
    /// sessions) is the same at any thread count.
    pub parallel: ParallelKind,
    /// Heterogeneous shard-class mix. Empty (the default) builds a
    /// homogeneous pool from [`HostConfig::oram`] +
    /// [`HostConfig::pipeline`]; non-empty overrides both and
    /// instantiates shard `i` from `shard_mix[i % shard_mix.len()]`.
    pub shard_mix: Vec<ShardClass>,
}

impl Default for HostConfig {
    fn default() -> Self {
        Self {
            oram: OramConfig::paper(),
            ddr: DdrConfig::default(),
            n_shards: 4,
            quantum: 1 << 16,
            leakage_limit_bits: 64,
            seed: 0x07C0_57ED,
            record_traces: false,
            pipeline: PipelineKind::Serial,
            capacity: CapacityKind::Olat,
            parallel: ParallelKind::Serial,
            shard_mix: Vec::new(),
        }
    }
}

impl HostConfig {
    /// A small configuration for tests: small ORAM geometry, 2 shards.
    pub fn small() -> Self {
        Self {
            oram: OramConfig::small(),
            n_shards: 2,
            ..Self::default()
        }
    }

    /// A validating builder over the config, the front door for
    /// flag/scenario plumbing. It catches nonsense — zero quantum, zero
    /// threads, an explicitly empty shard mix, an absurd leakage limit —
    /// at build time with a typed error instead of a downstream panic
    /// or a silently degenerate run. A struct literal gets the same
    /// field checks from [`MultiTenantHost::new`].
    pub fn builder() -> HostConfigBuilder {
        HostConfigBuilder::default()
    }

    /// The field checks both front doors run: [`HostConfigBuilder::build`]
    /// and [`MultiTenantHost::new`].
    fn validate(&self) -> Result<(), HostError> {
        let fail = |msg: String| Err(HostError::Build(msg));
        if self.n_shards == 0 {
            return fail("a sharded ORAM needs at least one shard".into());
        }
        if self.quantum == 0 {
            return fail("round quantum must be > 0 cycles".into());
        }
        if let ParallelKind::Threads(0) = self.parallel {
            return fail(
                "parallel rounds need at least one worker thread (use Serial for none)".into(),
            );
        }
        // A zero limit admits nothing dynamic and an astronomically
        // large one defeats the point of authorization; both are
        // configuration mistakes, not policies.
        if self.leakage_limit_bits == 0 || self.leakage_limit_bits > 1 << 20 {
            return fail(format!(
                "leakage limit of {} bits is outside the sane range [1, 2^20]",
                self.leakage_limit_bits
            ));
        }
        Ok(())
    }
}

/// Builder for [`HostConfig`] with build-time validation; see
/// [`HostConfig::builder`]. Unset fields keep [`HostConfig::default`]'s
/// values.
#[derive(Debug, Clone, Default)]
pub struct HostConfigBuilder {
    cfg: HostConfig,
    /// `Some` once `shard_mix` was called — an explicitly empty mix is
    /// rejected at build (field-default empty means "homogeneous pool"
    /// and stays legal).
    mix: Option<Vec<ShardClass>>,
}

impl HostConfigBuilder {
    /// Base ORAM geometry.
    pub fn oram(mut self, oram: OramConfig) -> Self {
        self.cfg.oram = oram;
        self
    }

    /// Number of ORAM shards.
    pub fn shards(mut self, n: usize) -> Self {
        self.cfg.n_shards = n;
        self
    }

    /// Virtual-time frontier advance per round, in cycles.
    pub fn quantum(mut self, quantum: Cycle) -> Self {
        self.cfg.quantum = quantum;
        self
    }

    /// Per-tenant leakage limit `L` (bits).
    pub fn leakage_limit_bits(mut self, bits: u64) -> Self {
        self.cfg.leakage_limit_bits = bits;
        self
    }

    /// Seed for the host's randomness: the processor's key material
    /// and each tenant's address tag and dummy-shard PRNG.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Whether tenant slot traces and the serve log are recorded.
    pub fn record_traces(mut self, on: bool) -> Self {
        self.cfg.record_traces = on;
        self
    }

    /// Shard pipeline discipline (homogeneous pools).
    pub fn pipeline(mut self, pipeline: PipelineKind) -> Self {
        self.cfg.pipeline = pipeline;
        self
    }

    /// Slot pricing for admission.
    pub fn capacity(mut self, capacity: CapacityKind) -> Self {
        self.cfg.capacity = capacity;
        self
    }

    /// Round execution mode.
    pub fn parallel(mut self, parallel: ParallelKind) -> Self {
        self.cfg.parallel = parallel;
        self
    }

    /// CLI-style thread count: `0` runs serial, `n ≥ 1` runs
    /// [`ParallelKind::Threads`]`(n)`.
    pub fn threads(self, n: usize) -> Self {
        self.parallel(match n {
            0 => ParallelKind::Serial,
            n => ParallelKind::Threads(n),
        })
    }

    /// Heterogeneous shard-class mix. Passing an empty vector is an
    /// error at build time — use the default (don't call this) for a
    /// homogeneous pool.
    pub fn shard_mix(mut self, mix: Vec<ShardClass>) -> Self {
        self.mix = Some(mix);
        self
    }

    /// Validates and produces the config.
    ///
    /// # Errors
    ///
    /// [`HostError::Build`] describing the first offending field.
    pub fn build(self) -> Result<HostConfig, HostError> {
        let mut cfg = self.cfg;
        cfg.validate()?;
        if let Some(mix) = self.mix {
            if mix.is_empty() {
                return Err(HostError::Build(
                    "an explicit shard mix must name at least one class".into(),
                ));
            }
            cfg.shard_mix = mix;
        }
        Ok(cfg)
    }
}

/// What a prospective tenant asks for.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name.
    pub name: String,
    /// Traffic source.
    pub benchmark: SpecBenchmark,
    /// Rate policy (static or the paper's dynamic scheme).
    pub policy: RatePolicy,
    /// Instruction budget for the tenant's program.
    pub instructions: u64,
}

impl TenantSpec {
    /// Worst-case fraction of one shard this tenant can demand: slots
    /// at its fastest candidate rate (one per `rate + OLAT` cycles —
    /// the grid period is observable stream state and never moves with
    /// the pricing), each occupying the pool's
    /// [`CapacityModel::effective_cadence`] service cycles. Under
    /// [`CapacityKind::Olat`] that cadence is a full `OLAT` and this
    /// reduces exactly to the historical formula; under
    /// [`CapacityKind::Cadence`] a staged pool charges its steady-state
    /// initiation interval instead, so the same tenant claims a smaller
    /// share of a pipeline that really does serve it cheaper.
    pub fn worst_case_utilization(&self, capacity: &CapacityModel) -> f64 {
        capacity.slot_utilization(self.policy.fastest_rate())
    }
}

/// Lifecycle state of one tenant slot on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TenantState {
    Active,
    Evicted { at: Cycle },
}

struct TenantRuntime {
    id: usize,
    /// Display name; a denial that names it counts against this row.
    name: String,
    benchmark: SpecBenchmark,
    /// The tenant's slot grid. Its origin is the host clock at
    /// admission, which also anchors the frontend's tenant-local
    /// arrival clock.
    stream: SlotStream,
    traffic: TenantTraffic,
    lookahead: Option<Request>,
    pending: VecDeque<Request>,
    state: TenantState,
    /// Per-tenant address tag: a SplitMix64 draw XORed onto line
    /// addresses so each tenant's miss stream spreads across shards
    /// uniformly and decorrelated from other tenants'. This is *routing*
    /// diversity only — after the per-shard capacity reduction tenants'
    /// working sets still alias, which is harmless while the host
    /// discards payloads (timing is the product here); true per-tenant
    /// data partitioning is a ROADMAP item.
    addr_tag: u64,
    /// Per-tenant PRNG for dummy-shard draws (uniform, so dummies carry
    /// no pattern distinguishing them from real accesses, and no state is
    /// shared between tenants).
    rng: SplitMix64,
    /// Shard queueing attributed to this tenant's slot accesses (real +
    /// dummy). In closed-loop mode these cycles are actually *felt* by
    /// the tenant's core; in open-loop they are accounting only.
    queueing_cycles: Cycle,
    /// Denied operations attributed to this tenant (a rejected
    /// re-admission of its name after eviction). Perf sessions sample it.
    denied: u64,
    /// `Some` when this seat runs an attacks-crate adversary; the round
    /// loop appends its observations in its own slot order under every
    /// executor.
    adversary: Option<AdversaryState>,
}

impl TenantRuntime {
    fn is_active(&self) -> bool {
        self.state == TenantState::Active
    }

    /// Stable label for reports: the adversary role when the seat runs
    /// one, the traffic model otherwise.
    fn traffic_label(&self) -> &'static str {
        match &self.adversary {
            Some(a) => a.kind.label(),
            None => self.traffic.model().label(),
        }
    }

    /// Perf-session tag in the shared `TrafficModel::tag` /
    /// `AdversaryKind::tag` space.
    fn traffic_tag(&self) -> u8 {
        match &self.adversary {
            Some(a) => a.kind.tag(),
            None => self.traffic.model().tag(),
        }
    }
}

/// One entry of the global serve log (recorded when
/// [`HostConfig::record_traces`] is on): whose slot was served at which
/// global cycle. The cross-tenant *ordering* is what the recorded
/// merge-order digests key on — per-tenant traces alone cannot
/// distinguish tie-break order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedSlot {
    /// Tenant id whose slot was served.
    pub tenant: usize,
    /// Global cycle the slot started.
    pub start: Cycle,
    /// Whether the slot carried a real request.
    pub real: bool,
}

/// One tenant's share of a [`HostReport`].
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant id.
    pub id: usize,
    /// Display name.
    pub name: String,
    /// Traffic source name.
    pub benchmark: &'static str,
    /// Rate-policy label.
    pub policy: String,
    /// Arrival-process label: `"workload"`, `"bursty"`, `"diurnal"`,
    /// `"replay"`, or — for adversary seats — `"probe"` /
    /// `"distinguisher"`.
    pub traffic: &'static str,
    /// Slots served (real + dummy).
    pub slots_served: u64,
    /// Real accesses served.
    pub real_served: u64,
    /// Fraction of slots that were dummies.
    pub dummy_fraction: f64,
    /// Real accesses per million cycles of the tenant's own serving
    /// lifetime (admission until eviction or the current clock), so
    /// tenants admitted or evicted mid-run report undistorted rates.
    pub throughput_per_mcycle: f64,
    /// Cumulative Fig. 4 waste cycles.
    pub waste_cycles: u64,
    /// Waste per real access (cycles).
    pub waste_per_real: f64,
    /// Rate in force at the end of the run.
    pub final_rate: Cycle,
    /// Epoch transitions taken.
    pub transitions: u64,
    /// Authorized ORAM-timing budget (bits).
    pub budget_bits: f64,
    /// Bits revealed so far.
    pub spent_bits: f64,
    /// Instructions the tenant's program retired.
    pub instructions_retired: u64,
    /// Whether this tenant ran a closed-loop frontend.
    pub closed_loop: bool,
    /// Cycles this tenant's slot accesses spent queued behind busy
    /// shards (felt by the tenant only in closed-loop mode).
    pub queueing_cycles: u64,
    /// Closed-loop only: total backend cycles fed back into the tenant's
    /// clock (Σ service completion − request arrival); 0 for open-loop.
    pub feedback_cycles: u64,
    /// Host clock at admission (0 for tenants admitted before the
    /// scheduler first ran).
    pub admitted_at: Cycle,
    /// Host clock at eviction; `None` while the tenant is active.
    pub evicted_at: Option<Cycle>,
    /// Worst-case capacity share admission charged this tenant (its WDRR
    /// weight; the last re-priced figure for tenants that lived through
    /// a resize, frozen at eviction).
    pub capacity_share: f64,
}

impl TenantReport {
    /// Whether the tenant stayed within its leakage budget.
    pub fn within_budget(&self) -> bool {
        crate::ledger::within_budget_bits(self.spent_bits, self.budget_bits)
    }

    /// Whether the tenant is still being served.
    pub fn is_active(&self) -> bool {
        self.evicted_at.is_none()
    }
}

/// Fleet-level outcome of a scheduling run.
#[derive(Debug, Clone)]
pub struct HostReport {
    /// Virtual cycles the host advanced.
    pub horizon: Cycle,
    /// Per-tenant rows, in id order (evicted tenants keep their frozen
    /// rows: the ledger never forgets).
    pub tenants: Vec<TenantReport>,
    /// Total accesses (real + dummy) per live shard.
    pub shard_accesses: Vec<u64>,
    /// Accesses served by shards since retired by a shrink.
    pub retired_shard_accesses: u64,
    /// Per-shard busy fraction over the horizon.
    pub shard_utilization: Vec<f64>,
    /// Cycles slots spent queued behind busy shards (internal metric).
    pub shard_queueing_cycles: u64,
    /// Pipeline discipline the shards ran: `"serial"`, `"staged"`, or
    /// `"mixed"` when the live shard classes disagree.
    pub pipeline_label: &'static str,
    /// Σ (completion − request time) over all shard accesses.
    pub shard_service_cycles: u64,
    /// Mean per-access service time in cycles (0.0 when idle) — the
    /// headline number the pipeline exists to cut.
    pub mean_service_cycles: f64,
    /// Median per-access service time in cycles (0 when idle), from the
    /// merged fleet-wide service histogram.
    pub p50_service_cycles: Cycle,
    /// 99th-percentile per-access service time in cycles (0 when idle)
    /// — the figure the admission SLO is stated against.
    pub p99_service_cycles: Cycle,
    /// Deferred evictions completed by background drains (staged mode).
    pub background_eviction_drains: u64,
    /// Pricing admission ran under (see [`CapacityKind`]).
    pub capacity: CapacityKind,
    /// Per-slot service figure admission priced against, in cycles:
    /// `OLAT` under olat pricing, the pipeline's steady-state initiation
    /// interval under cadence pricing.
    pub effective_cadence: Cycle,
    /// Worst-case shard-equivalents the *active* fleet demands at that
    /// pricing (the ledger's capacity-share rows sum to this).
    pub fleet_demand: f64,
    /// Shard-equivalents available under the utilization cap.
    pub fleet_capacity: f64,
    /// Slots one scheduling round can sustainably serve at the effective
    /// cadence (see [`crate::round_slot_capacity`]).
    pub round_slot_capacity: f64,
    /// Sum of per-tenant budgets (bits), frozen tenants included.
    pub fleet_budget_bits: f64,
    /// Sum of per-tenant bits revealed (bits), frozen tenants included.
    pub fleet_spent_bits: f64,
}

impl HostReport {
    /// Whether every tenant stayed within its budget.
    pub fn all_within_budget(&self) -> bool {
        self.tenants.iter().all(TenantReport::within_budget)
    }

    /// Number of tenants still being served.
    pub fn active_tenants(&self) -> usize {
        self.tenants.iter().filter(|t| t.is_active()).count()
    }
}

/// One posted slot's bookkeeping in the round loop: who was served,
/// when, whether it carried a real request, and which executor ticket
/// redeems its shard service.
struct PostedSlot {
    tenant: usize,
    slot: Cycle,
    real: bool,
    ticket: Ticket,
}

/// Persistent round-loop scratch, kept on the host so the steady-state
/// serving spine allocates nothing. No buffer carries meaning across
/// rounds: each round clears before filling.
#[derive(Default)]
struct RoundScratch {
    /// The round's slots in posting order.
    posted: Vec<PostedSlot>,
    /// Closed-loop feedback owed per tenant: the ticket of its last
    /// real read this round.
    pending_fb: Vec<Option<Ticket>>,
}

/// The multi-tenant ORAM appliance.
pub struct MultiTenantHost {
    cfg: HostConfig,
    sharded: ShardedOram,
    /// The secure processor whose leakage limit `L` admission checks
    /// every tenant's parameters against.
    processor: SecureProcessor,
    ledger: LeakageLedger,
    tenants: Vec<TenantRuntime>,
    /// Next slot time per active tenant, keyed by tenant id.
    calendar: CalendarQueue,
    serve_log: Vec<ServedSlot>,
    clock: Cycle,
    rotation: usize,
    /// Scheduling rounds stepped so far (perf-session round ordinals).
    rounds: u64,
    /// Cumulative denied admissions/resizes (perf sessions sample it).
    admissions_denied: u64,
    /// The perf session being recorded; its summary is filled when it
    /// is taken. `None` — the common case — costs one branch at the end
    /// of each round; nothing per served slot.
    perf: Option<PerfSession>,
    /// Runs each round's shard accesses where [`HostConfig::parallel`]
    /// says: inline, or on persistent worker threads spawned as rounds
    /// first need them (per-round spawns would dominate the shard work).
    executor: ShardExecutor,
    /// WDRR credit state for the contended-port tie-break; each round
    /// reads its weights from the ledger's capacity shares.
    arbiter: WdrrArbiter,
    /// Reusable round-loop buffers (see [`RoundScratch`]).
    scratch: RoundScratch,
}

impl std::fmt::Debug for MultiTenantHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiTenantHost")
            .field("tenants", &self.tenants.len())
            .field("active", &self.active_tenants())
            .field("shards", &self.sharded.n_shards())
            .field("clock", &self.clock)
            .finish()
    }
}

impl MultiTenantHost {
    /// Builds an empty host.
    ///
    /// # Errors
    ///
    /// [`HostError::Build`] on any field [`HostConfigBuilder::build`]
    /// rejects, or on invalid ORAM geometry.
    pub fn new(cfg: HostConfig) -> Result<Self, HostError> {
        cfg.validate()?;
        let homogeneous = [ShardClass {
            oram: cfg.oram.clone(),
            pipeline: cfg.pipeline,
        }];
        let classes = if cfg.shard_mix.is_empty() {
            &homogeneous[..]
        } else {
            &cfg.shard_mix
        };
        let sharded =
            ShardedOram::with_mix(classes, &cfg.ddr, cfg.n_shards).map_err(HostError::Build)?;
        let processor =
            SecureProcessor::manufacture(&mut SplitMix64::new(cfg.seed), cfg.leakage_limit_bits);
        let calendar = CalendarQueue::new(calendar::BUCKET_WIDTH, calendar::BUCKETS);
        let executor = ShardExecutor::new(cfg.parallel);
        Ok(Self {
            cfg,
            sharded,
            processor,
            ledger: LeakageLedger::new(),
            tenants: Vec::new(),
            calendar,
            serve_log: Vec::new(),
            clock: 0,
            rotation: 0,
            rounds: 0,
            admissions_denied: 0,
            perf: None,
            executor,
            arbiter: WdrrArbiter::default(),
            scratch: RoundScratch::default(),
        })
    }

    /// The capacity model in force: the pool's pipeline discipline
    /// priced under [`HostConfig::capacity`]. Every layer that charges
    /// for a slot — admission, eviction refunds, resize refusals, the
    /// scheduler's per-round capacity, the ledger's utilization rows —
    /// prices against this one model.
    pub fn capacity_model(&self) -> CapacityModel {
        self.sharded
            .capacity_model(self.sharded.n_shards(), self.cfg.capacity)
    }

    /// Worst-case shard-equivalents the *active* fleet demands (evicted
    /// tenants return their share to the pool): the ledger's
    /// [`LeakageLedger::fleet_capacity_share`].
    pub fn fleet_demand(&self) -> f64 {
        self.ledger.fleet_capacity_share()
    }

    /// Shard-equivalents available under the admission cap.
    pub fn capacity(&self) -> f64 {
        self.sharded.n_shards() as f64 * MAX_SHARD_UTILIZATION
    }

    /// Admits an open-loop tenant (online: works at any host clock).
    /// Returns the tenant id.
    ///
    /// # Errors
    ///
    /// See [`MultiTenantHost::admit`].
    pub fn add_tenant(&mut self, spec: &TenantSpec) -> Result<usize, HostError> {
        self.admit(spec, LoopMode::Open)
    }

    /// Admits a tenant *online* under the frontend feedback discipline
    /// `mode` (see the `traffic` module docs for the open-vs-closed
    /// trade-off): leakage authorization against the processor's limit
    /// `L` (§5), capacity check against the active fleet, stream +
    /// frontend construction, and an O(1) splice of its first slot into
    /// the calendar. The tenant's grid is anchored at the current clock
    /// — always a round boundary, hence a public time — so admission
    /// never perturbs any other tenant's stream and never materializes
    /// past-due slots. Returns the tenant id.
    ///
    /// # Errors
    ///
    /// [`HostError::Session`] when the leakage parameters exceed the
    /// processor's limit; [`HostError::Saturated`] when the shards cannot
    /// absorb the tenant's worst-case slot demand.
    pub fn admit(&mut self, spec: &TenantSpec, mode: LoopMode) -> Result<usize, HostError> {
        self.admit_inner(spec, mode, TrafficModel::Workload, None)
    }

    /// As [`MultiTenantHost::admit`], shaping the tenant's arrivals with
    /// a [`TrafficModel`]. Models are delay-only (see the `traffic`
    /// module docs) so every host invariant — monotone arrivals,
    /// closed-loop completion ≥ arrival — holds under shaping.
    ///
    /// # Errors
    ///
    /// As [`MultiTenantHost::admit`], plus [`HostError::Build`] for an
    /// invalid model or a [`TrafficModel::Replay`] paired with
    /// [`LoopMode::Closed`] (replay replaces program timing wholesale,
    /// so there is no core to feed completions back into).
    pub fn admit_with_traffic(
        &mut self,
        spec: &TenantSpec,
        mode: LoopMode,
        model: TrafficModel,
    ) -> Result<usize, HostError> {
        model.validate().map_err(HostError::Build)?;
        if model.requires_open_loop() && mode == LoopMode::Closed {
            return Err(HostError::Build(
                "replay traffic replaces program timing and must run open-loop".into(),
            ));
        }
        self.admit_inner(spec, mode, model, None)
    }

    /// Admits an *adversary* through the same front door as every other
    /// tenant: same capacity check, same leakage authorization, same
    /// slot stream. The seat's traffic is pinned to a saturating
    /// [`TrafficModel::Replay`] whose gap equals the adversary's own
    /// slot period, so nearly every slot carries a real, timeable
    /// access; its per-slot queueing observations accumulate in a log
    /// readable via [`MultiTenantHost::adversary_observations`].
    ///
    /// # Errors
    ///
    /// See [`MultiTenantHost::admit`].
    pub fn admit_adversary(
        &mut self,
        spec: &TenantSpec,
        kind: AdversaryKind,
    ) -> Result<usize, HostError> {
        // One arrival per slot: the stream serves a slot every
        // `fastest_rate + olat` cycles at its fastest rate, so arrival j
        // is due by slot j and the backlog never grows.
        let period = spec.policy.fastest_rate() + self.sharded.olat();
        let model = TrafficModel::Replay {
            gaps: vec![period],
            repeat: u32::MAX,
        };
        self.admit_inner(spec, LoopMode::Open, model, Some(AdversaryState::new(kind)))
    }

    fn admit_inner(
        &mut self,
        spec: &TenantSpec,
        mode: LoopMode,
        model: TrafficModel,
        adversary: Option<AdversaryState>,
    ) -> Result<usize, HostError> {
        let capacity_model = self.capacity_model();
        let util = spec.worst_case_utilization(&capacity_model);
        let demanded = self.fleet_demand() + util;
        let available = self.capacity();
        if demanded > available {
            self.note_denial(Some(&spec.name));
            return Err(HostError::Saturated {
                demanded,
                available,
                cadence: capacity_model.effective_cadence(),
                pricing: capacity_model.kind(),
            });
        }
        let params = spec.policy.leakage_params();
        if let Err(e) = self.processor.authorize(&params) {
            self.note_denial(Some(&spec.name));
            return Err(e.into());
        }
        let id = self.tenants.len();
        self.ledger
            .add_tenant(id, params.rate_count, params.schedule, util);
        let mut stream =
            SlotStream::starting_at(self.sharded.olat(), spec.policy.clone(), self.clock);
        stream.set_trace_recording(self.cfg.record_traces);
        let mut rng = SplitMix64::new(self.cfg.seed ^ (id as u64 + 1));
        let addr_tag = rng.next_u64();
        self.calendar.insert(id, stream.next_slot());
        self.tenants.push(TenantRuntime {
            id,
            name: spec.name.clone(),
            benchmark: spec.benchmark,
            stream,
            traffic: TenantTraffic::with_model(spec.benchmark, spec.instructions, mode, model),
            lookahead: None,
            pending: VecDeque::new(),
            state: TenantState::Active,
            addr_tag,
            rng,
            queueing_cycles: 0,
            denied: 0,
            adversary,
        });
        Ok(id)
    }

    /// The observation log of adversary seat `id` (empty slice for
    /// ordinary tenants and unknown ids).
    pub fn adversary_observations(&self, id: usize) -> &[ObservedSlot] {
        self.tenants
            .get(id)
            .and_then(|t| t.adversary.as_ref())
            .map(|a| a.log.as_slice())
            .unwrap_or(&[])
    }

    /// Which adversary role seat `id` runs, if any.
    pub fn adversary_kind(&self, id: usize) -> Option<AdversaryKind> {
        self.tenants
            .get(id)
            .and_then(|t| t.adversary.as_ref())
            .map(|a| a.kind)
    }

    /// Runs the queueing probe over adversary seat `id`'s log against
    /// `candidate_rates` (see [`QueueingProbe::estimate`]). `None` for
    /// non-adversary seats or too few busy observations.
    ///
    /// [`QueueingProbe::estimate`]: otc_attacks::QueueingProbe::estimate
    pub fn adversary_estimate(&self, id: usize, candidate_rates: &[Cycle]) -> Option<RateEstimate> {
        self.tenants
            .get(id)?
            .adversary
            .as_ref()?
            .estimate(self.sharded.olat(), candidate_rates)
    }

    /// Records a denied admission or resize: bumps the fleet counter
    /// and, when the denial names a tenant already admitted (a
    /// re-admission attempt after eviction), that tenant's own counter
    /// — so perf sessions can attribute repeated rejections.
    fn note_denial(&mut self, name: Option<&str>) {
        self.admissions_denied += 1;
        if let Some(rt) = self.tenants.iter_mut().find(|t| Some(&*t.name) == name) {
            rt.denied += 1;
        }
    }

    /// Evicts tenant `id` online: its queued arrivals are dropped
    /// unserved, its calendar entry is removed (O(1) bucket op — no other
    /// tenant's stream pauses), and its ledger entry is frozen in place:
    /// the fleet's budget and spent sums are conserved, an eviction never
    /// un-spends bits. Eviction runs between rounds, when every active
    /// stream has been served up to the clock (so its observable stream
    /// ends on its own grid) and its ledger row was synced at its last
    /// served slot.
    ///
    /// # Errors
    ///
    /// [`HostError::UnknownTenant`] / [`HostError::AlreadyEvicted`].
    pub fn evict(&mut self, id: usize) -> Result<(), HostError> {
        if id >= self.tenants.len() {
            return Err(HostError::UnknownTenant { id });
        }
        if let TenantState::Evicted { at } = self.tenants[id].state {
            return Err(HostError::AlreadyEvicted { id, at });
        }
        let rt = &mut self.tenants[id];
        let removed = self.calendar.remove(id, rt.stream.next_slot());
        debug_assert!(
            removed,
            "calendar entry out of sync with tenant {id}'s stream"
        );
        self.ledger.freeze(id);
        rt.pending.clear();
        rt.lookahead = None;
        rt.state = TenantState::Evicted { at: self.clock };
        Ok(())
    }

    /// Resizes the shard pool online to `n_shards`. Growing adds fresh,
    /// idle shards; shrinking retires the highest-indexed shards (their
    /// access counters are preserved in
    /// [`ShardedOram::retired_accesses`]). No tenant's stream pauses and
    /// no drain happens — the slot grids are pure timing and never
    /// move. Shrinking is refused if the active fleet's worst-case
    /// demand would no longer fit.
    ///
    /// Routing is `addr % n_shards`, so any resize, grow or shrink,
    /// re-routes nearly every address. The host discards access
    /// payloads (timing is the product), so no data migration happens;
    /// a payload-preserving resize needs the oblivious migration pass of
    /// the ROADMAP item "Data that survives the control plane".
    ///
    /// # Errors
    ///
    /// [`HostError::Saturated`] when the active fleet would oversubscribe
    /// the shrunk pool; [`HostError::Build`] for a zero-shard request.
    pub fn resize_shards(&mut self, n_shards: usize) -> Result<(), HostError> {
        if n_shards == 0 {
            return Err(HostError::Build(
                "a sharded ORAM needs at least one shard".into(),
            ));
        }
        // Price the *would-be* pool: a different shard count can
        // instantiate a different subset of the class mix, moving the
        // pricing cadence — the old model would mis-price the check.
        let model = self.sharded.capacity_model(n_shards, self.cfg.capacity);
        let demanded = self
            .tenants
            .iter()
            .filter(|t| t.is_active())
            .map(|t| model.slot_utilization(t.stream.policy().fastest_rate()))
            .sum::<f64>();
        let available = n_shards as f64 * MAX_SHARD_UTILIZATION;
        if demanded > available {
            self.note_denial(None);
            return Err(HostError::Saturated {
                demanded,
                available,
                cadence: model.effective_cadence(),
                pricing: model.kind(),
            });
        }
        self.sharded.resize(n_shards).map_err(HostError::Build)?;
        // Re-price every active row under the new pool's model. Rows
        // admitted before the resize otherwise keep a `capacity_share`
        // from the old geometry, and `fleet_demand()` would price the
        // new pool on the old one's terms (for a homogeneous pool the
        // figures are bit-identical, so this is behavior-neutral there).
        for t in self.tenants.iter().filter(|t| t.is_active()) {
            let util = model.slot_utilization(t.stream.policy().fastest_rate());
            self.ledger.reprice(t.id, util);
        }
        Ok(())
    }

    /// Number of tenants ever admitted (evicted ones included — ids are
    /// dense and never reused).
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Number of tenants currently being served.
    pub fn active_tenants(&self) -> usize {
        self.tenants.iter().filter(|t| t.is_active()).count()
    }

    /// Whether tenant `id` is still being served.
    pub fn tenant_active(&self, id: usize) -> bool {
        self.tenants.get(id).is_some_and(TenantRuntime::is_active)
    }

    /// Host clock at which tenant `id` was evicted, if it was.
    pub fn evicted_at(&self, id: usize) -> Option<Cycle> {
        match self.tenants.get(id)?.state {
            TenantState::Active => None,
            TenantState::Evicted { at } => Some(at),
        }
    }

    /// Virtual time reached so far.
    pub fn clock(&self) -> Cycle {
        self.clock
    }

    /// The leakage ledger (budgets + bits revealed so far).
    pub fn ledger(&self) -> &LeakageLedger {
        &self.ledger
    }

    /// A tenant's observable slot trace (empty unless
    /// [`HostConfig::record_traces`] is set).
    pub fn tenant_trace(&self, id: usize) -> &[otc_core::SlotRecord] {
        self.tenants[id].stream.trace()
    }

    /// A tenant's slot stream (read-only).
    pub fn tenant_stream(&self, id: usize) -> &SlotStream {
        &self.tenants[id].stream
    }

    /// The global serve log (empty unless [`HostConfig::record_traces`]
    /// is set): every served slot in exact service order.
    pub fn serve_log(&self) -> &[ServedSlot] {
        &self.serve_log
    }

    /// Pulls `rt`'s arrivals (tagged for shard routing, shifted onto the
    /// host clock by the tenant's admission origin) into its pending
    /// queue up to `until`, stopping at a suspended closed-loop core or
    /// program end. Called lazily — for a tenant's due slot, not for the
    /// whole fleet per round — so idle tenants cost nothing.
    fn pull_arrivals(rt: &mut TenantRuntime, until: Cycle) {
        loop {
            if rt.lookahead.is_none() {
                rt.lookahead = match rt.traffic.poll() {
                    TrafficPull::Request(mut r) => {
                        r.line_addr ^= rt.addr_tag;
                        // Saturating: a parked arrival stays parked.
                        r.at = r.at.saturating_add(rt.stream.origin());
                        Some(r)
                    }
                    TrafficPull::AwaitingService | TrafficPull::Exhausted => None,
                };
            }
            match rt.lookahead {
                Some(r) if r.at <= until => {
                    rt.pending.push_back(r);
                    rt.lookahead = None;
                }
                _ => break,
            }
        }
    }

    /// Runs one scheduling round: serves every slot due before the next
    /// quantum frontier in **global slot-time order**, pulling each
    /// tenant's arrivals lazily as its slots come due. Time-ordered
    /// service keeps the shards' queueing accounting honest and matches
    /// what the appliance hardware would do.
    ///
    /// The spine — pick, arrival pull, real-or-dummy choice, stream
    /// serve, WDRR charge, serve-log entry, calendar re-insert, ledger
    /// sync — runs on the caller's thread; each slot's shard access goes
    /// to the executor [`HostConfig::parallel`] picks. Every executor
    /// gives the same observable outcome because:
    ///
    /// 1. **Per-lane FIFO = posting order.** Each shard sees its
    ///    requests in the spine's posting order, so the per-lane
    ///    arithmetic is identical wherever it runs.
    /// 2. **Deferred closed-loop feedback is invisible.** A suspended
    ///    closed-loop core is only re-polled at the tenant's next due
    ///    slot, so completing it just before that pull (or at the round
    ///    boundary) is the same as completing it at serve time.
    /// 3. **Completions commit in posting order.** Per-tenant queueing
    ///    sums commute, and each tenant's slots are posted in its own
    ///    slot order, so adversary observation logs are in serve order.
    pub fn step_round(&mut self) {
        // Saturating: the round frontier parks at the end of time at
        // the numeric horizon instead of wrapping behind the clock.
        let frontier = self.clock.saturating_add(self.cfg.quantum);
        let n = self.tenants.len();
        let rotation = self.rotation;
        let record = self.cfg.record_traces;
        let pricing = self.cfg.capacity;
        self.arbiter.replenish(self.cfg.quantum, &self.ledger);
        self.executor.begin(self.sharded.take_lanes());
        // Disjoint field borrows so the spine can mutate tenants/
        // calendar/ledger/serve log while the executor holds the lanes.
        // The router routes each slot and prices it for the arbiter
        // (stable within a round: resizes happen between rounds).
        let router = self.sharded.router();
        let executor = &mut self.executor;
        let tenants = &mut self.tenants;
        let calendar = &mut self.calendar;
        let serve_log = &mut self.serve_log;
        let ledger = &mut self.ledger;
        let arbiter = &mut self.arbiter;
        let RoundScratch { posted, pending_fb } = &mut self.scratch;
        posted.clear();
        pending_fb.clear();
        pending_fb.resize(n, None);
        loop {
            // Composite tie-break: biggest unspent WDRR credit first
            // (constant under uniform weights),
            // the legacy rotating rank as the deterministic settlement.
            // Charging happens at post time in spine order, so the
            // credit evolution is the same under every executor.
            let a = &*arbiter;
            let rank = |key: usize| (Reverse(a.credit_rank(key)), (key + n - rotation) % n);
            let Some((idx, slot)) = calendar.pop_due(frontier, rank) else {
                break;
            };
            let rt = &mut tenants[idx];
            debug_assert_eq!(rt.stream.next_slot(), slot);
            // Closed-loop feedback owed from this tenant's previous real
            // read: resume its suspended core with the service completion
            // it actually observed (slot wait + queueing + OLAT),
            // translated back onto the tenant-local clock, before the
            // arrival pull below re-polls it.
            if let Some(ticket) = pending_fb[idx].take() {
                rt.traffic
                    .complete(executor.completion(ticket).completion - rt.stream.origin());
            }
            // Lazy arrival pull: everything that arrived by this slot's
            // start decides real-vs-dummy; later arrivals wait for the
            // tenant's own later slots.
            Self::pull_arrivals(rt, slot);
            let real = matches!(rt.pending.front(), Some(p) if p.at <= slot);
            let (shard, op) = if real {
                let req = rt.pending.pop_front().expect("front exists");
                rt.stream.serve(Some(req.at));
                let (shard, local) = router.route(req.line_addr);
                let op = match req.kind {
                    AccessKind::Read => LaneOp::Read { local },
                    AccessKind::Write => LaneOp::Write { local },
                };
                (shard, op)
            } else {
                let shard = rt.rng.next_below(router.n_shards() as u64) as usize;
                rt.stream.serve(None);
                (shard, LaneOp::Dummy)
            };
            let ticket = executor.post(LaneRequest {
                lane: shard,
                at: slot,
                op,
            });
            arbiter.charge(idx, router.cost(shard, pricing));
            if rt.traffic.is_closed_loop() && matches!(op, LaneOp::Read { .. }) {
                pending_fb[idx] = Some(ticket);
            }
            posted.push(PostedSlot {
                tenant: idx,
                slot,
                real,
                ticket,
            });
            if record && serve_log.len() < SERVE_LOG_CAP {
                serve_log.push(ServedSlot {
                    tenant: rt.id,
                    start: slot,
                    real,
                });
            }
            calendar.insert(idx, rt.stream.next_slot());
            // Ledger sync per served slot (transitions only move when a
            // slot is served, so untouched tenants need no sweep).
            ledger.record_transitions(rt.id, rt.stream.transitions().len() as u64);
        }
        self.sharded.put_lanes(executor.finish());
        for p in posted.iter() {
            let queued = executor.completion(p.ticket).queued_cycles;
            let rt = &mut tenants[p.tenant];
            rt.queueing_cycles += queued;
            if let Some(adv) = rt.adversary.as_mut() {
                adv.record(ObservedSlot {
                    start: p.slot,
                    queued,
                    real: p.real,
                });
            }
        }
        // Feedback still owed to tenants with no later due slot this
        // round completes at the boundary: the core was not re-polled
        // in between.
        for (rt, fb) in tenants.iter_mut().zip(pending_fb.iter_mut()) {
            if let Some(ticket) = fb.take() {
                rt.traffic
                    .complete(executor.completion(ticket).completion - rt.stream.origin());
            }
        }
        // Churn-safe lag check (debug builds only): every *active*
        // stream must have been served up to the frontier. Evicted
        // streams legitimately freeze behind the clock, and the lag is
        // computed saturating so an exhausted/frozen stream can never
        // underflow the subtraction (the pre-churn version of this
        // assertion compared against the raw difference and wrapped).
        #[cfg(debug_assertions)]
        for rt in self.tenants.iter() {
            debug_assert!(
                !rt.is_active() || rt.stream.next_slot() >= frontier,
                "active tenant {} lags the frontier by {} cycles",
                rt.id,
                frontier.saturating_sub(rt.stream.next_slot())
            );
        }
        self.rotation = if n == 0 { 0 } else { (rotation + 1) % n };
        self.clock = frontier;
        self.rounds += 1;
        // Perf sampling happens at the round boundary only — never per
        // served slot — and only while a session records, so the
        // disabled path costs this one branch.
        if self.perf.is_some() {
            let mut sample = RoundSample::default();
            self.sample_into(&mut sample);
            if let Some(session) = self.perf.as_mut() {
                session.rounds.push(sample);
            }
        }
    }

    /// Starts recording a perf session: from now on every
    /// [`MultiTenantHost::step_round`] appends one [`RoundSample`].
    /// `label` is free-form context stored in the session meta.
    /// Recording is deterministic — every sampled quantity derives from
    /// the simulated clock and counters — so two seeded runs produce
    /// byte-identical session files.
    pub fn record_perf_session(&mut self, label: &str) {
        let meta = SessionMeta {
            label: label.to_string(),
            seed: self.cfg.seed,
            olat: self.sharded.olat(),
            quantum: self.cfg.quantum,
            initial_shards: self.sharded.n_shards() as u32,
            stage_units: self.sharded.n_stage_units() as u32,
            pipeline: self.sharded.pipeline_label().into(),
            capacity: self.cfg.capacity.to_string(),
        };
        self.perf = Some(PerfSession {
            meta,
            rounds: Vec::new(),
            summary: SessionSummary::default(),
        });
    }

    /// Stops recording and closes the session with the end-of-run
    /// summary (fleet totals plus the merged service-time histogram).
    /// `None` if [`MultiTenantHost::record_perf_session`] was never
    /// called.
    pub fn take_perf_session(&mut self) -> Option<PerfSession> {
        let mut session = self.perf.take()?;
        session.summary = SessionSummary {
            rounds: self.rounds,
            clock: self.clock,
            accesses: self.sharded.accesses().iter().sum::<u64>() + self.sharded.retired_accesses(),
            service_cycles: self.sharded.service_cycles(),
            queueing_cycles: self.sharded.queueing_cycles(),
            eviction_drains: self.sharded.drained_evictions(),
            service_hist: self.sharded.service_histogram(),
        };
        Some(session)
    }

    /// Scheduling rounds stepped so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Cumulative denied admissions/resizes.
    pub fn admissions_denied(&self) -> u64 {
        self.admissions_denied
    }

    /// Runs rounds until every *active* tenant has served at least
    /// `target` slots (or a safety horizon is hit). Returns the fleet
    /// report. A host with no active tenants returns immediately.
    pub fn run_until_slots(&mut self, target: u64) -> HostReport {
        // Relative to the current clock so repeated runs on one host
        // each get a full budget.
        let end = self.clock.saturating_add(self.slot_horizon(target));
        while !self.all_served(target) && self.clock < end {
            self.step_round();
        }
        self.report()
    }

    /// Whether every *active* tenant has served at least `target` slots.
    pub(crate) fn all_served(&self, target: u64) -> bool {
        self.tenants
            .iter()
            .all(|t| !t.is_active() || t.stream.slots_served() >= target)
    }

    /// The cycles [`MultiTenantHost::run_until_slots`] may serve before
    /// giving up: each active policy's slowest candidate rate bounds the
    /// cycles a slot can take, with generous slack for epoch ramp-in.
    pub(crate) fn slot_horizon(&self, target: u64) -> Cycle {
        let slowest_period = self
            .tenants
            .iter()
            .filter(|t| t.is_active())
            .map(|t| t.stream.policy().slowest_rate() + self.sharded.olat())
            .max()
            .unwrap_or(0);
        if slowest_period == 0 {
            return 0;
        }
        target
            .saturating_mul(slowest_period)
            .saturating_mul(4)
            .max(1 << 22)
    }

    /// Runs rounds until virtual time reaches `horizon`.
    pub fn run_for(&mut self, horizon: Cycle) -> HostReport {
        // Saturating: a maximal horizon must stop at the end of time,
        // not wrap `end` behind the clock and return without running.
        let end = self.clock.saturating_add(horizon);
        while self.clock < end {
            self.step_round();
        }
        self.report()
    }

    /// Snapshot of fleet + per-tenant metrics at the current clock.
    pub fn report(&self) -> HostReport {
        let horizon = self.clock.max(1);
        let tenants = self
            .tenants
            .iter()
            .map(|t| {
                let entry = self.ledger.entry(t.id);
                let real = t.stream.real_served();
                // Throughput over the tenant's own serving lifetime, not
                // the global horizon — a tenant admitted late or evicted
                // early would otherwise report a diluted rate.
                let lifetime = match t.state {
                    TenantState::Active => horizon.saturating_sub(t.stream.origin()),
                    TenantState::Evicted { at } => at.saturating_sub(t.stream.origin()),
                }
                .max(1);
                TenantReport {
                    id: t.id,
                    name: t.name.clone(),
                    benchmark: t.benchmark.full_name(),
                    policy: t.stream.label(),
                    traffic: t.traffic_label(),
                    slots_served: t.stream.slots_served(),
                    real_served: real,
                    dummy_fraction: t.stream.dummy_fraction(),
                    throughput_per_mcycle: real as f64 * 1e6 / lifetime as f64,
                    waste_cycles: t.stream.lifetime_waste(),
                    waste_per_real: if real == 0 {
                        0.0
                    } else {
                        t.stream.lifetime_waste() as f64 / real as f64
                    },
                    final_rate: t.stream.current_rate(),
                    transitions: t.stream.transitions().len() as u64,
                    budget_bits: entry.budget_bits,
                    spent_bits: entry.spent_bits,
                    instructions_retired: t.traffic.retired(),
                    closed_loop: t.traffic.is_closed_loop(),
                    queueing_cycles: t.queueing_cycles,
                    feedback_cycles: t.traffic.feedback_cycles(),
                    admitted_at: t.stream.origin(),
                    evicted_at: match t.state {
                        TenantState::Active => None,
                        TenantState::Evicted { at } => Some(at),
                    },
                    capacity_share: entry.capacity_share,
                }
            })
            .collect();
        let model = self.capacity_model();
        HostReport {
            horizon: self.clock,
            tenants,
            shard_accesses: self.sharded.accesses(),
            retired_shard_accesses: self.sharded.retired_accesses(),
            shard_utilization: self.sharded.utilization(self.clock),
            shard_queueing_cycles: self.sharded.queueing_cycles(),
            pipeline_label: self.sharded.pipeline_label(),
            shard_service_cycles: self.sharded.service_cycles(),
            mean_service_cycles: self.sharded.mean_service_cycles(),
            p50_service_cycles: self.sharded.p50_service_cycles(),
            p99_service_cycles: self.sharded.p99_service_cycles(),
            background_eviction_drains: self.sharded.drained_evictions(),
            capacity: model.kind(),
            effective_cadence: model.effective_cadence(),
            fleet_demand: self.fleet_demand(),
            fleet_capacity: self.capacity(),
            round_slot_capacity: crate::calendar::round_slot_capacity(
                self.cfg.quantum,
                &self.sharded.pricing_cadences(self.cfg.capacity),
            ),
            fleet_budget_bits: self.ledger.fleet_budget_bits(),
            fleet_spent_bits: self.ledger.fleet_spent_bits(),
        }
    }

    /// Assembles one complete round sample: host-level fields (round
    /// ordinal, clock, denials, ledger capacity share, per-tenant rows),
    /// then the shard pool's and calendar queue's portions.
    fn sample_into(&self, sample: &mut RoundSample) {
        sample.round = self.rounds;
        sample.clock = self.clock;
        sample.admissions_denied = self.admissions_denied;
        sample.fleet_capacity_share = self.ledger.fleet_capacity_share();
        self.sharded.sample_into(sample);
        self.calendar.sample_into(sample);
        sample.tenants = self
            .tenants
            .iter()
            .map(|t| TenantSample {
                id: t.id as u32,
                active: t.is_active(),
                slots: t.stream.slots_served(),
                real: t.stream.real_served(),
                queued_cycles: t.queueing_cycles,
                denied: t.denied,
                traffic: t.traffic_tag(),
            })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otc_core::RateSet;

    fn dynamic_policy() -> RatePolicy {
        RatePolicy::dynamic_paper(4, 4)
    }

    fn spec(name: &str, bench: SpecBenchmark, policy: RatePolicy) -> TenantSpec {
        TenantSpec {
            name: name.into(),
            benchmark: bench,
            policy,
            instructions: 100_000,
        }
    }

    #[test]
    fn admits_until_saturation() {
        let mut host = MultiTenantHost::new(HostConfig::small()).expect("builds");
        // small geometry olat; fastest dynamic rate 256.
        let olat = host.sharded.olat();
        let per = olat as f64 / (256 + olat) as f64;
        let cap = host.capacity();
        let fit = (cap / per).floor() as usize;
        for i in 0..fit {
            host.add_tenant(&spec(
                &format!("t{i}"),
                SpecBenchmark::Mcf,
                dynamic_policy(),
            ))
            .expect("fits");
        }
        let err = host
            .add_tenant(&spec("overflow", SpecBenchmark::Mcf, dynamic_policy()))
            .expect_err("must saturate");
        assert!(matches!(err, HostError::Saturated { .. }), "{err:?}");
        // Evicting one tenant frees exactly its share: the next admit
        // succeeds again.
        host.evict(0).expect("evict");
        host.add_tenant(&spec("refill", SpecBenchmark::Mcf, dynamic_policy()))
            .expect("eviction must return capacity to the pool");
    }

    #[test]
    fn leakage_limit_enforced_at_admission() {
        let cfg = HostConfig {
            leakage_limit_bits: 16,
            ..HostConfig::small()
        };
        let mut host = MultiTenantHost::new(cfg).expect("builds");
        // dynamic_R4_E4 wants 32 bits > 16.
        let err = host
            .add_tenant(&spec("greedy", SpecBenchmark::Mcf, dynamic_policy()))
            .expect_err("over limit");
        assert!(matches!(
            err,
            HostError::Session(SessionError::LeakageLimitExceeded { .. })
        ));
        // A static tenant (0 bits) is fine.
        host.add_tenant(&spec(
            "modest",
            SpecBenchmark::Mcf,
            RatePolicy::Static { rate: 1_000 },
        ))
        .expect("static fits");
    }

    #[test]
    fn admission_registers_tenants_within_limit() {
        let cfg = HostConfig {
            leakage_limit_bits: 32,
            ..HostConfig::small()
        };
        let mut host = MultiTenantHost::new(cfg).expect("builds");
        // dynamic_R4_E4 wants exactly the 32-bit limit; a static tenant
        // wants 0 bits. Both take the next dense ids.
        let a = host
            .add_tenant(&spec("alice", SpecBenchmark::Mcf, dynamic_policy()))
            .expect("fits: 32 bits");
        let b = host
            .add_tenant(&spec(
                "bob",
                SpecBenchmark::Mcf,
                RatePolicy::Static { rate: 1_000 },
            ))
            .expect("fits: 0 bits");
        assert_eq!((a, b), (0, 1));
        assert_eq!(host.tenant_count(), 2);
        let budgets: Vec<f64> = host
            .ledger()
            .entries()
            .iter()
            .map(|e| e.budget_bits)
            .collect();
        assert_eq!(budgets, [32.0, 0.0]);
        assert_eq!(host.admissions_denied(), 0);
    }

    #[test]
    fn admission_rejects_over_budget_params() {
        let cfg = HostConfig {
            leakage_limit_bits: 32,
            ..HostConfig::small()
        };
        let mut host = MultiTenantHost::new(cfg).expect("builds");
        // dynamic_R4_E2 wants 64 bits > 32.
        let err = host
            .add_tenant(&spec(
                "eve",
                SpecBenchmark::Mcf,
                RatePolicy::dynamic_paper(4, 2),
            ))
            .expect_err("over limit");
        assert!(matches!(
            err,
            HostError::Session(SessionError::LeakageLimitExceeded { .. })
        ));
        // The refusal leaves no row behind and counts one denial.
        assert_eq!(host.tenant_count(), 0);
        assert!(host.ledger().entries().is_empty());
        assert_eq!(host.admissions_denied(), 1);
    }

    #[test]
    fn evicted_rows_keep_their_names_and_ids_are_never_reused() {
        let mut host = MultiTenantHost::new(HostConfig::small()).expect("builds");
        let policy = RatePolicy::Static { rate: 2_000 };
        let a = host
            .add_tenant(&spec("alice", SpecBenchmark::Mcf, policy.clone()))
            .expect("admit");
        let b = host
            .add_tenant(&spec("bob", SpecBenchmark::Mcf, policy.clone()))
            .expect("admit");
        host.evict(a).expect("evict");
        assert!(!host.tenant_active(a));
        assert!(host.tenant_active(b));
        // A returning tenant gets a fresh id, never a reused one.
        let a2 = host
            .add_tenant(&spec("alice", SpecBenchmark::Mcf, policy))
            .expect("re-admit");
        assert_eq!(a2, 2);
        let rows: Vec<(usize, String, bool)> = host
            .report()
            .tenants
            .into_iter()
            .map(|t| (t.id, t.name.clone(), t.is_active()))
            .collect();
        assert_eq!(
            rows,
            [
                (0, "alice".to_string(), false),
                (1, "bob".to_string(), true),
                (2, "alice".to_string(), true),
            ]
        );
    }

    #[test]
    fn slots_follow_each_tenants_grid() {
        let cfg = HostConfig {
            record_traces: true,
            ..HostConfig::small()
        };
        let mut host = MultiTenantHost::new(cfg).expect("builds");
        let a = host
            .add_tenant(&spec(
                "a",
                SpecBenchmark::Mcf,
                RatePolicy::Static { rate: 700 },
            ))
            .expect("admit");
        let b = host
            .add_tenant(&spec(
                "b",
                SpecBenchmark::Hmmer,
                RatePolicy::Static { rate: 1_900 },
            ))
            .expect("admit");
        host.run_until_slots(500);
        let olat = host.sharded.olat();
        for (id, rate) in [(a, 700u64), (b, 1_900u64)] {
            let trace = host.tenant_trace(id);
            assert!(trace.len() >= 500);
            for (k, s) in trace.iter().enumerate() {
                assert_eq!(
                    s.start,
                    rate + k as u64 * (rate + olat),
                    "tenant {id} slot {k}"
                );
            }
        }
    }

    #[test]
    fn mid_run_admission_splices_into_the_calendar() {
        // Online churn: a tenant admitted after the scheduler ran gets a
        // grid anchored at its admission clock — no phantom past-due
        // slots, no perturbation of the incumbent.
        let cfg = HostConfig {
            record_traces: true,
            ..HostConfig::small()
        };
        let mut host = MultiTenantHost::new(cfg).expect("builds");
        let early = host
            .add_tenant(&spec(
                "early",
                SpecBenchmark::Mcf,
                RatePolicy::Static { rate: 2_000 },
            ))
            .expect("admit at clock 0");
        host.run_for(1 << 18);
        let admit_clock = host.clock();
        let late = host
            .add_tenant(&spec(
                "late",
                SpecBenchmark::Hmmer,
                RatePolicy::Static { rate: 2_000 },
            ))
            .expect("mid-run admission");
        host.run_for(1 << 18);
        let olat = host.sharded.olat();
        let late_trace = host.tenant_trace(late);
        assert!(!late_trace.is_empty(), "late tenant never served");
        for (k, s) in late_trace.iter().enumerate() {
            assert_eq!(
                s.start,
                admit_clock + 2_000 + k as u64 * (2_000 + olat),
                "late slot {k} off its anchored grid"
            );
        }
        // The incumbent's grid still runs from time 0, untouched.
        let early_trace = host.tenant_trace(early);
        for (k, s) in early_trace.iter().enumerate() {
            assert_eq!(s.start, 2_000 + k as u64 * (2_000 + olat));
        }
    }

    #[test]
    fn eviction_freezes_stream_and_ledger() {
        let mut host = MultiTenantHost::new(HostConfig::small()).expect("builds");
        let gone = host
            .add_tenant(&spec("gone", SpecBenchmark::Mcf, dynamic_policy()))
            .expect("admit");
        let stay = host
            .add_tenant(&spec(
                "stay",
                SpecBenchmark::Hmmer,
                RatePolicy::Static { rate: 1_500 },
            ))
            .expect("admit");
        host.run_for(1 << 20);
        let served_at_eviction = host.tenant_stream(gone).slots_served();
        let spent_at_eviction = host.ledger().entry(gone).spent_bits;
        let budget_before = host.ledger().fleet_budget_bits();
        assert!(
            host.tenant_stream(gone).next_slot() >= host.clock(),
            "between rounds nothing is due"
        );
        host.evict(gone).expect("evict");
        assert!(!host.tenant_active(gone));
        assert_eq!(host.evicted_at(gone), Some(host.clock()));
        host.run_for(1 << 20);
        // The evicted stream froze; the survivor kept running.
        assert_eq!(host.tenant_stream(gone).slots_served(), served_at_eviction);
        assert!(host.tenant_stream(stay).slots_served() > 0);
        assert!(host.tenant_active(stay));
        // Ledger: frozen in place, fleet sums conserved.
        assert_eq!(host.ledger().entry(gone).spent_bits, spent_at_eviction);
        assert_eq!(host.ledger().fleet_budget_bits(), budget_before);
        // Double eviction and unknown ids are errors.
        assert!(matches!(
            host.evict(gone),
            Err(HostError::AlreadyEvicted { .. })
        ));
        assert!(matches!(
            host.evict(99),
            Err(HostError::UnknownTenant { id: 99 })
        ));
    }

    #[test]
    fn evicted_stream_never_trips_the_lag_assertion() {
        // Regression (churn-safety of the round lag check): an evicted
        // tenant's stream freezes with next_slot far behind the
        // advancing clock. The pre-churn assertion compared every
        // stream's next_slot against the clock and computed the lag with
        // a raw subtraction — underflow in debug builds the moment a
        // frozen stream was swept. Running many rounds past an eviction
        // must not panic.
        let mut host = MultiTenantHost::new(HostConfig::small()).expect("builds");
        host.add_tenant(&spec(
            "doomed",
            SpecBenchmark::Mcf,
            RatePolicy::Static { rate: 400 },
        ))
        .expect("admit");
        host.add_tenant(&spec(
            "survivor",
            SpecBenchmark::Hmmer,
            RatePolicy::Static { rate: 900 },
        ))
        .expect("admit");
        host.run_for(1 << 18);
        host.evict(0).expect("evict");
        host.run_for(1 << 20); // would underflow/panic pre-fix
        let frozen = host.tenant_stream(0).next_slot();
        assert!(
            frozen < host.clock(),
            "frozen stream must lag the clock for this regression to bite"
        );
    }

    #[test]
    fn fast_tenant_never_falls_behind_the_clock() {
        // Regression: a fast tenant (short slot period) used to outpace a
        // per-round batch budget and lag unboundedly behind the clock;
        // the scheduler must serve every due slot each round.
        let mut host = MultiTenantHost::new(HostConfig::small()).expect("builds");
        host.add_tenant(&spec(
            "fast",
            SpecBenchmark::Mcf,
            RatePolicy::Static { rate: 300 },
        ))
        .expect("admit");
        host.run_for(1 << 21);
        let stream = host.tenant_stream(0);
        let period = 300 + host.sharded.olat();
        let expected = (1 << 21) / period;
        assert!(
            stream.slots_served() >= expected,
            "served {} of ~{} due slots",
            stream.slots_served(),
            expected
        );
        assert!(
            stream.next_slot() >= host.clock(),
            "stream lags clock by {} cycles",
            host.clock().saturating_sub(stream.next_slot())
        );
    }

    #[test]
    fn resize_shards_online_grow_and_shrink() {
        let mut host = MultiTenantHost::new(HostConfig::small()).expect("builds");
        host.add_tenant(&spec(
            "t",
            SpecBenchmark::Mcf,
            RatePolicy::Static { rate: 1_000 },
        ))
        .expect("admit");
        host.run_for(1 << 18);
        let before: u64 = host.sharded.accesses().iter().sum();
        host.resize_shards(4).expect("grow");
        host.run_for(1 << 18);
        let report = host.report();
        assert_eq!(report.shard_accesses.len(), 4);
        // Accounting stays conserved across the resize.
        let total: u64 = report.shard_accesses.iter().sum::<u64>() + report.retired_shard_accesses;
        let slots: u64 = report.tenants.iter().map(|t| t.slots_served).sum();
        assert_eq!(total, slots);
        assert!(report.shard_accesses.iter().sum::<u64>() > before);
        // Shrink keeps the retired counters.
        host.resize_shards(1).expect("shrink");
        host.run_for(1 << 18);
        let report = host.report();
        assert_eq!(report.shard_accesses.len(), 1);
        let total: u64 = report.shard_accesses.iter().sum::<u64>() + report.retired_shard_accesses;
        let slots: u64 = report.tenants.iter().map(|t| t.slots_served).sum();
        assert_eq!(total, slots);
        // Zero shards is refused.
        assert!(matches!(host.resize_shards(0), Err(HostError::Build(_))));
    }

    #[test]
    fn shrink_below_fleet_demand_is_refused() {
        let cfg = HostConfig {
            n_shards: 4,
            ..HostConfig::small()
        };
        let mut host = MultiTenantHost::new(cfg).expect("builds");
        for i in 0..4 {
            host.add_tenant(&spec(
                &format!("t{i}"),
                SpecBenchmark::Mcf,
                dynamic_policy(),
            ))
            .expect("admit");
        }
        let err = host.resize_shards(1).expect_err("cannot shrink under load");
        assert!(matches!(err, HostError::Saturated { .. }), "{err:?}");
        // The pool is untouched after the refusal.
        assert_eq!(host.report().shard_accesses.len(), 4);
    }

    /// A two-class mix whose pricing cadence genuinely moves with the
    /// shard count: class 0 (a tiny staged pipeline) is the cheap one,
    /// so a one-shard pool prices slots at its short cadence while two
    /// or more shards instantiate the serial class and the conservative
    /// max jumps to a full small-geometry OLAT.
    fn cadence_moving_mix() -> Vec<ShardClass> {
        vec![
            ShardClass {
                oram: OramConfig {
                    data: otc_oram::TreeGeometry::new(7, 3, 64, 16),
                    posmaps: vec![
                        otc_oram::TreeGeometry::new(4, 3, 32, 16),
                        otc_oram::TreeGeometry::new(3, 3, 32, 16),
                    ],
                    seed: 0x717E_5EED,
                },
                pipeline: PipelineKind::Staged,
            },
            ShardClass {
                oram: OramConfig::small(),
                pipeline: PipelineKind::Serial,
            },
        ]
    }

    #[test]
    fn resize_reprices_rows_admitted_under_the_old_geometry() {
        // Regression: rows admitted before a resize kept their
        // old-geometry capacity_share, so the ledger's
        // fleet_capacity_share() silently diverged from what the live
        // pool's model actually charges — and a tenant admitted after
        // the resize was priced on a different basis than its
        // identically-configured neighbor admitted before it.
        let cfg = HostConfig {
            shard_mix: cadence_moving_mix(),
            capacity: CapacityKind::Cadence,
            ..HostConfig::small()
        };
        let mut host = MultiTenantHost::new(cfg).expect("builds");
        let rates = [900u64, 1_500];
        let a = host
            .add_tenant(&spec(
                "a",
                SpecBenchmark::Mcf,
                RatePolicy::Static { rate: rates[0] },
            ))
            .expect("admit");
        host.add_tenant(&spec(
            "b",
            SpecBenchmark::Hmmer,
            RatePolicy::Static { rate: rates[1] },
        ))
        .expect("admit");
        // Every churn event must leave the ledger's occupancy rows, the
        // host's live demand, and a from-scratch pricing under the
        // current model in exact agreement.
        let assert_priced_fresh = |host: &MultiTenantHost, active_rates: &[u64]| {
            let model = host.capacity_model();
            let fresh: f64 = active_rates
                .iter()
                .map(|&r| model.slot_utilization(r))
                .sum();
            assert_eq!(host.fleet_demand(), fresh, "host demand stale");
            assert_eq!(
                host.ledger().fleet_capacity_share(),
                fresh,
                "ledger rows stale"
            );
        };
        assert_priced_fresh(&host, &rates);
        host.run_for(1 << 18);
        // Shrink to one shard: only the cheap staged class remains, the
        // pricing cadence drops, every surviving row must re-price.
        let cadence_before = host.capacity_model().effective_cadence();
        host.resize_shards(1).expect("shrink");
        let cadence_after = host.capacity_model().effective_cadence();
        assert!(
            cadence_after < cadence_before,
            "mix must move the pricing for this regression to bite \
             ({cadence_before} -> {cadence_after})"
        );
        assert_priced_fresh(&host, &rates);
        host.run_for(1 << 18);
        // A tenant admitted under the new geometry with tenant a's exact
        // policy must carry the same share as a's re-priced row.
        let c = host
            .add_tenant(&spec(
                "c",
                SpecBenchmark::Sjeng,
                RatePolicy::Static { rate: rates[0] },
            ))
            .expect("admit post-resize");
        assert_eq!(
            host.ledger().entry(a).capacity_share,
            host.ledger().entry(c).capacity_share,
            "same policy, same pool, different price"
        );
        assert_priced_fresh(&host, &[900, 1_500, 900]);
        // Grow back: both classes in use again, rows re-price upward;
        // an eviction then drops exactly the frozen row's share.
        host.resize_shards(3).expect("grow");
        assert_priced_fresh(&host, &[900, 1_500, 900]);
        host.run_for(1 << 18);
        host.evict(a).expect("evict");
        assert_priced_fresh(&host, &[1_500, 900]);
        host.run_for(1 << 18);
        assert!(host.report().all_within_budget());
    }

    #[test]
    fn report_covers_all_tenants_and_shards() {
        let mut host = MultiTenantHost::new(HostConfig::small()).expect("builds");
        host.add_tenant(&spec("a", SpecBenchmark::Mcf, dynamic_policy()))
            .expect("admit");
        host.add_tenant(&spec(
            "b",
            SpecBenchmark::Sjeng,
            RatePolicy::Static { rate: 2_000 },
        ))
        .expect("admit");
        let report = host.run_until_slots(300);
        assert_eq!(report.tenants.len(), 2);
        assert_eq!(report.active_tenants(), 2);
        assert_eq!(report.shard_accesses.len(), 2);
        assert!(report.tenants.iter().all(|t| t.slots_served >= 300));
        // mcf under a dynamic policy does real work.
        assert!(report.tenants[0].real_served > 0);
        // Fleet accounting is the sum of rows.
        let sum: f64 = report.tenants.iter().map(|t| t.budget_bits).sum();
        assert!((report.fleet_budget_bits - sum).abs() < 1e-9);
        assert!(report.all_within_budget());
        // Every served slot hit some shard.
        let slots: u64 = report.tenants.iter().map(|t| t.slots_served).sum();
        let shard_total: u64 = report.shard_accesses.iter().sum();
        assert_eq!(slots, shard_total);
    }

    #[test]
    fn closed_loop_fleet_reports_queueing_feedback() {
        // Three closed-loop tenants on two shards at a brisk static rate:
        // slots collide on shards, and the collisions must surface as
        // per-tenant queueing and as backend cycles fed into the cores.
        let mut host = MultiTenantHost::new(HostConfig::small()).expect("builds");
        for (i, bench) in [
            SpecBenchmark::Mcf,
            SpecBenchmark::Libquantum,
            SpecBenchmark::Mcf,
        ]
        .into_iter()
        .enumerate()
        {
            host.admit(
                &spec(&format!("t{i}"), bench, RatePolicy::Static { rate: 600 }),
                LoopMode::Closed,
            )
            .expect("admit");
        }
        let report = host.run_until_slots(2_000);
        assert!(report.tenants.iter().all(|t| t.closed_loop));
        assert!(
            report.tenants.iter().any(|t| t.queueing_cycles > 0),
            "no tenant observed shard queueing: {report:?}"
        );
        assert!(
            report.tenants.iter().all(|t| t.feedback_cycles > 0),
            "every closed-loop tenant must receive service feedback"
        );
        assert!(report.tenants.iter().all(|t| t.instructions_retired > 0));
        // The per-tenant attribution must sum to the fleet-wide metric.
        let sum: u64 = report.tenants.iter().map(|t| t.queueing_cycles).sum();
        assert_eq!(sum, report.shard_queueing_cycles);
    }

    #[test]
    fn staged_pipeline_cuts_queueing_and_service_time() {
        // The tentpole's headline: same closed-loop fleet at saturation,
        // staged vs serial — mean per-access service time and queueing
        // both drop, and background drains actually ran.
        let build = |pipeline: PipelineKind| {
            let cfg = HostConfig {
                pipeline,
                ..HostConfig::small()
            };
            let mut host = MultiTenantHost::new(cfg).expect("builds");
            for i in 0..3 {
                host.admit(
                    &spec(
                        &format!("t{i}"),
                        SpecBenchmark::Mcf,
                        RatePolicy::Static { rate: 600 },
                    ),
                    LoopMode::Closed,
                )
                .expect("admit");
            }
            host.run_until_slots(2_000)
        };
        let serial = build(PipelineKind::Serial);
        let staged = build(PipelineKind::Staged);
        assert_eq!(serial.pipeline_label, "serial");
        assert_eq!(staged.pipeline_label, "staged");
        assert_eq!(serial.background_eviction_drains, 0);
        assert!(staged.background_eviction_drains > 0);
        assert!(
            staged.mean_service_cycles < serial.mean_service_cycles * 0.85,
            "staged {:.0} not ≥15% below serial {:.0}",
            staged.mean_service_cycles,
            serial.mean_service_cycles
        );
        assert!(staged.shard_queueing_cycles < serial.shard_queueing_cycles);
    }

    #[test]
    fn staged_shrink_keeps_the_retired_shards_drains() {
        // A shrink folds each retired lane's whole tally into the pool's:
        // the background drains a staged shard ran before it was retired
        // stay in every pool-wide total and in the report.
        let cfg = HostConfig {
            pipeline: PipelineKind::Staged,
            ..HostConfig::small()
        };
        let mut host = MultiTenantHost::new(cfg).expect("builds");
        for i in 0..2 {
            host.admit(
                &spec(
                    &format!("t{i}"),
                    SpecBenchmark::Mcf,
                    RatePolicy::Static { rate: 600 },
                ),
                LoopMode::Closed,
            )
            .expect("admit");
        }
        host.run_until_slots(500);
        assert!(host.sharded.shard(1).stats().eviction_drains > 0);
        // Each live lane's tally restates its ORAM's own counts.
        let shards = 0..host.sharded.n_shards();
        for i in shards.clone() {
            let oram = host.sharded.shard(i).stats();
            assert_eq!(
                host.sharded.accesses()[i],
                oram.total_accesses(),
                "shard {i}"
            );
        }
        let oram_drains: u64 = shards
            .map(|i| host.sharded.shard(i).stats().eviction_drains)
            .sum();
        assert_eq!(host.sharded.drained_evictions(), oram_drains);
        let drains = host.sharded.drained_evictions();
        let served = host.sharded.service_histogram().total();
        assert_eq!(host.report().background_eviction_drains, drains);
        host.resize_shards(1).expect("two tenants fit one shard");
        assert_eq!(host.sharded.drained_evictions(), drains);
        assert_eq!(host.sharded.service_histogram().total(), served);
        assert_eq!(host.report().background_eviction_drains, drains);
    }

    #[test]
    fn replay_beyond_the_end_of_time_serves_a_late_tenant_one_real_slot() {
        // A gap that overruns the clock parks every later arrival at the
        // end of time, also once the host shifts it by the origin of a
        // tenant admitted mid-run: one arrival is ever due.
        let mut host = MultiTenantHost::new(HostConfig::small()).expect("builds");
        host.step_round();
        let model = TrafficModel::Replay {
            gaps: vec![1, Cycle::MAX],
            repeat: 2,
        };
        let policy = RatePolicy::Static { rate: 300 };
        let id = host
            .admit_with_traffic(
                &spec("a", SpecBenchmark::Mcf, policy),
                LoopMode::Open,
                model,
            )
            .expect("admit");
        assert!(host.tenant_stream(id).origin() > 0);
        host.run_until_slots(50);
        let stream = host.tenant_stream(id);
        assert!(stream.slots_served() >= 50);
        assert_eq!(stream.real_served(), 1);
    }

    #[test]
    fn open_loop_reports_no_feedback_cycles() {
        let mut host = MultiTenantHost::new(HostConfig::small()).expect("builds");
        host.add_tenant(&spec("open", SpecBenchmark::Mcf, dynamic_policy()))
            .expect("admit");
        let report = host.run_until_slots(300);
        assert!(!report.tenants[0].closed_loop);
        assert_eq!(report.tenants[0].feedback_cycles, 0);
    }

    #[test]
    fn dynamic_fleet_rates_are_candidates() {
        let mut host = MultiTenantHost::new(HostConfig::small()).expect("builds");
        host.add_tenant(&spec("a", SpecBenchmark::Mcf, dynamic_policy()))
            .expect("admit");
        let report = host.run_for(1 << 22);
        let rates = RateSet::paper(4);
        let t = &report.tenants[0];
        if t.transitions > 0 {
            assert!(rates.rates().contains(&t.final_rate), "{t:?}");
        }
    }

    #[test]
    fn both_front_doors_refuse_every_invalid_field() {
        // A struct literal used to skip every check: `quantum: 0` built
        // a host whose clock never moved.
        type Break = fn(&mut HostConfig);
        let cases: [(&str, Break); 5] = [
            ("zero shards", |c| c.n_shards = 0),
            ("zero quantum", |c| c.quantum = 0),
            ("zero threads", |c| c.parallel = ParallelKind::Threads(0)),
            ("0-bit leakage limit", |c| c.leakage_limit_bits = 0),
            ("limit over 2^20 bits", |c| {
                c.leakage_limit_bits = (1 << 20) + 1
            }),
        ];
        for (what, break_it) in cases {
            let mut c = HostConfig::small();
            break_it(&mut c);
            let built = HostConfig::builder()
                .oram(c.oram.clone())
                .shards(c.n_shards)
                .quantum(c.quantum)
                .parallel(c.parallel)
                .leakage_limit_bits(c.leakage_limit_bits)
                .build();
            assert!(
                matches!(built, Err(HostError::Build(_))),
                "builder accepted {what}"
            );
            assert!(
                matches!(MultiTenantHost::new(c), Err(HostError::Build(_))),
                "struct literal with {what} accepted"
            );
        }
    }

    #[test]
    fn threads_spawn_only_the_workers_a_round_uses() {
        let cfg = HostConfig {
            parallel: ParallelKind::Threads(8),
            ..HostConfig::small()
        };
        let mut host = MultiTenantHost::new(cfg).expect("builds");
        host.add_tenant(&spec("t", SpecBenchmark::Mcf, dynamic_policy()))
            .expect("admit");
        assert_eq!(host.executor.spawned_workers(), 0);
        host.step_round();
        assert_eq!(host.executor.spawned_workers(), 2, "2 shards, 2 workers");
        host.resize_shards(4).expect("grow");
        host.step_round();
        assert_eq!(host.executor.spawned_workers(), 4, "a grow spawns more");
        host.resize_shards(1).expect("shrink");
        host.step_round();
        assert_eq!(host.executor.spawned_workers(), 4, "a shrink keeps them");
    }
}
