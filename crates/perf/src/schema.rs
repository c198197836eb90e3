//! The stable perf-session schema.
//!
//! One [`RoundSample`] is recorded per scheduling round; all counter
//! fields are **cumulative** since the start of the run, so consumers
//! difference adjacent samples to get per-round activity and a dropped
//! sample never corrupts downstream deltas beyond its own round.

use crate::hist::Histogram;
use otc_dram::Cycle;

/// Session-wide context, written once at the head of a session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionMeta {
    /// Free-form label describing the run (CLI args, mode).
    pub label: String,
    /// Workload seed the run was driven by.
    pub seed: u64,
    /// Per-access ORAM latency (OLAT) in cycles.
    pub olat: Cycle,
    /// Scheduling-round quantum in cycles.
    pub quantum: Cycle,
    /// Shard count at the start of the run (resizes show up in the
    /// per-round shard vectors).
    pub initial_shards: u32,
    /// Pipeline units per shard (posmap trees + the data port); 1 in
    /// serial mode, where the whole shard is one unit.
    pub stage_units: u32,
    /// Pipeline discipline (`"serial"` / `"staged"`).
    pub pipeline: String,
    /// Admission pricing (`"olat"` / `"cadence"`).
    pub capacity: String,
}

impl Default for SessionMeta {
    fn default() -> Self {
        Self {
            label: String::new(),
            seed: 0,
            olat: 0,
            quantum: 0,
            initial_shards: 0,
            stage_units: 1,
            pipeline: "serial".into(),
            capacity: "olat".into(),
        }
    }
}

/// One shard's counters at a round boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardSample {
    /// Cumulative accesses (real + dummy) served by this shard.
    pub accesses: u64,
    /// Background-eviction queue depth (pending deferred evictions).
    pub queue_depth: u32,
    /// Current stash occupancy in blocks (data + posmap trees).
    pub stash_len: u32,
    /// Cumulative busy cycles per pipeline unit (one entry in serial
    /// mode, posmap trees then the data port in staged mode).
    pub stage_busy: Vec<u64>,
}

/// Calendar-queue bucket statistics at a round boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CalendarSample {
    /// Slot entries currently queued.
    pub entries: u32,
    /// Buckets holding at least one entry.
    pub occupied_buckets: u32,
    /// Entries in the fullest bucket.
    pub max_bucket_len: u32,
}

/// One tenant's counters at a round boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantSample {
    /// Tenant id.
    pub id: u32,
    /// Whether the tenant was active (serving) this round.
    pub active: bool,
    /// Cumulative slots served (real + dummy).
    pub slots: u64,
    /// Cumulative real accesses served.
    pub real: u64,
    /// Cumulative cycles this tenant's slots spent queued behind busy
    /// shards.
    pub queued_cycles: u64,
    /// Cumulative denied operations attributed to this tenant (e.g. a
    /// denied re-admission of its name after eviction).
    pub denied: u64,
    /// Arrival-process tag: 0 = workload, 1 = bursty, 2 = diurnal,
    /// 3 = replay, 4 = probe adversary, 5 = distinguisher adversary
    /// (the host's `TrafficModel::tag` / `AdversaryKind::tag` space).
    pub traffic: u8,
}

impl TenantSample {
    /// Human-readable name for the [`TenantSample::traffic`] tag
    /// (`"unknown"` for tags this build does not know).
    pub fn traffic_label(&self) -> &'static str {
        match self.traffic {
            0 => "workload",
            1 => "bursty",
            2 => "diurnal",
            3 => "replay",
            4 => "probe",
            5 => "distinguisher",
            _ => "unknown",
        }
    }
}

/// Everything sampled at one scheduling-round boundary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundSample {
    /// Round ordinal (1-based: recorded after the round completes).
    pub round: u64,
    /// Host clock at the round boundary.
    pub clock: Cycle,
    /// Cumulative admission/resize denials fleet-wide.
    pub admissions_denied: u64,
    /// Cumulative accesses folded into retired counters by shrinks
    /// (`Σ shards.accesses + retired == Σ tenants.slots` every round).
    pub retired_accesses: u64,
    /// The ledger's active-fleet capacity share (shard-equivalents
    /// demanded); differencing adjacent samples gives churn deltas.
    pub fleet_capacity_share: f64,
    /// Calendar-queue occupancy.
    pub calendar: CalendarSample,
    /// Per-shard counters, in shard order (length tracks resizes).
    pub shards: Vec<ShardSample>,
    /// Per-tenant counters, in id order (evicted tenants keep their
    /// frozen rows).
    pub tenants: Vec<TenantSample>,
}

/// End-of-session aggregate, written once at the tail.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSummary {
    /// The host's round count when the session closed: the last round
    /// sample's ordinal.
    pub rounds: u64,
    /// Final host clock.
    pub clock: Cycle,
    /// Total accesses (real + dummy), retired shards included.
    pub accesses: u64,
    /// Σ (completion − request time) over all accesses.
    pub service_cycles: u64,
    /// Cycles slots spent queued behind busy shards.
    pub queueing_cycles: u64,
    /// Deferred evictions completed by background drains.
    pub eviction_drains: u64,
    /// The merged fleet-wide service-time distribution (p50/p99 come
    /// from here — the same histogram the pipeline and admission gates
    /// read).
    pub service_hist: Histogram,
}

impl Default for SessionSummary {
    fn default() -> Self {
        Self {
            rounds: 0,
            clock: 0,
            accesses: 0,
            service_cycles: 0,
            queueing_cycles: 0,
            eviction_drains: 0,
            service_hist: Histogram::new(1, 1),
        }
    }
}

impl SessionSummary {
    /// Mean per-access service time in cycles (0.0 when idle).
    pub fn mean_service_cycles(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.service_cycles as f64 / self.accesses as f64
        }
    }
}
