//! `otc-host` — the multi-tenant ORAM serving layer.
//!
//! The HPCA'14 paper bounds the ORAM timing channel for a *single*
//! secure-processor session. This crate is the step from protocol to
//! appliance: one host serving many tenants over shared, sharded Path
//! ORAM backends while keeping every tenant's timing-channel guarantee —
//! and the fleet-wide leakage accounting — intact.
//!
//! # Architecture
//!
//! ```text
//!  tenants ──► SecureProcessor::authorize(L), one per host    otc-core §5
//!     │
//!     ├─ TenantTraffic  : workload → LLC-miss arrivals        otc-workloads/otc-sim
//!     ├─ SlotStream     : per-tenant rate-periodic timeline   otc-core enforcer
//!     │
//!  MultiTenantHost ── calendar-queue slot scheduler + churn
//!     │               (admit / evict / resize, O(slots due) per round)
//!  ShardedOram ── N independent RecursivePathOrams            otc-oram
//!     │
//!  LeakageLedger ── per-tenant + fleet bit accounting         otc-core §6/§10
//! ```
//!
//! Each tenant's observable timeline is its own [`SlotStream`] grid — a
//! pure function of its rate choices, never of co-tenants (see
//! `tests/tenant_isolation.rs`), and never of churn events (see
//! `tests/churn_isolation.rs`): tenants are admitted, evicted, and the
//! shard pool resized online without moving any surviving stream's
//! slots. Admission control caps worst-case fleet slot demand below
//! shard bandwidth so the grids stay servable, and the [`LeakageLedger`]
//! tracks bits revealed against each tenant's authorized
//! [`otc_core::LeakageModel`] budget — evicted tenants' rows freeze in
//! place so fleet sums are conserved across churn.
//!
//! # Quickstart
//!
//! ```
//! use otc_core::RatePolicy;
//! use otc_host::{HostConfig, MultiTenantHost, TenantSpec};
//! use otc_workloads::SpecBenchmark;
//!
//! let mut host = MultiTenantHost::new(HostConfig::small())?;
//! for (name, bench) in [("alice", SpecBenchmark::Mcf), ("bob", SpecBenchmark::Hmmer)] {
//!     host.add_tenant(&TenantSpec {
//!         name: name.into(),
//!         benchmark: bench,
//!         policy: RatePolicy::dynamic_paper(4, 4),
//!         instructions: 50_000,
//!     })?;
//! }
//! let report = host.run_until_slots(200);
//! assert_eq!(report.tenants.len(), 2);
//! assert!(report.all_within_budget());
//! # Ok::<(), otc_host::HostError>(())
//! ```
//!
//! The `otc` binary drives this end to end: `otc run` (workload mix
//! through the full stack), `otc tenants` (saturation sweep), and
//! `otc leakage` (budget report).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod arbiter;
mod calendar;
mod host;
mod ledger;
mod parallel;
mod report;
mod scenario;
mod shard;
mod timeq;
mod traffic;

pub use adversary::{AdversaryKind, ObservedSlot};
pub use calendar::{round_slot_capacity, CalendarQueue};
pub use host::{
    HostConfig, HostConfigBuilder, HostError, HostReport, MultiTenantHost, ParallelKind,
    SchedulerKind, ServedSlot, TenantReport, TenantSpec, MAX_SHARD_UTILIZATION,
};
pub use ledger::{within_budget_bits, LeakageLedger, LedgerEntry};
pub use report::render;
pub use scenario::{
    parse_bench, parse_churn_script, parse_scenario, EventOutcome, OramChoice, ScenarioAction,
    ScenarioError, ScenarioEvent, ScenarioHost, ScenarioSpec, ScenarioTenant, ServeEnd,
};
pub use shard::{
    PipelineConfig, PipelineKind, ShardClass, ShardService, ShardedOram, MAX_DEFERRED,
};
pub use timeq::{TimeQ, TimedEvent};
pub use traffic::{LoopMode, Request, TenantTraffic, TrafficModel, TrafficPull};

// Re-exported so downstream harnesses can score adversary-tenant logs
// without a direct otc-attacks dependency.
pub use otc_attacks::{
    observation_advantage, observation_bits, observation_classes, QueueingProbe, RateEstimate,
};

// Re-exported so downstream code (CLI, benches) can name the stream type
// and parse schemes without a direct otc-core dependency.
pub use otc_core::{parse_scheme, SlotRecord, SlotStream, MAX_STATIC_RATE};

// Re-exported so downstream code can name the capacity pricing without a
// direct otc-oram dependency (the model itself lives beside AccessPlan).
pub use otc_oram::{CapacityKind, CapacityModel};

// Re-exported so downstream code (CLI, benches, tests) can record and
// read perf sessions without a direct otc-perf dependency.
pub use otc_perf::{
    CodecError, Histogram, PerfSession, RoundSample, SessionFile, SessionMeta, SessionSummary,
};
