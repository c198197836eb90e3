//! # oram-timing
//!
//! A from-scratch Rust reproduction of **"Suppressing the Oblivious RAM
//! Timing Channel While Making Information Leakage and Program Efficiency
//! Trade-offs"** (Fletcher, Ren, Yu, van Dijk, Khan, Devadas — HPCA 2014).
//!
//! Secure processors that fetch cache lines through Path ORAM hide *what*
//! they access but not *when*; the access-rate timeline tracks program
//! locality and can be read out of shared DRAM by software (§3.2 of the
//! paper). This workspace implements the paper's answer — a
//! leakage-*bounded* dynamic ORAM rate controller — together with every
//! substrate it needs, and a benchmark suite regenerating every table and
//! figure of the paper's evaluation.
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`core`] | **The contribution**: epoch schedules, candidate rate sets, the Equation-1 rate learner with the Algorithm-1 shift divider, the slot-periodic rate enforcer with dummy accesses, information-theoretic leakage accounting, and the §5/§8 session protocol |
//! | [`oram`] | Path ORAM: tree + stash + recursive position maps, probabilistic bucket encryption, access timing |
//! | [`host`] | **Beyond the paper**: the multi-tenant serving layer — sharded ORAM backends, batched slot scheduling over per-tenant `SlotStream`s, a tenant directory with session-authorized leakage budgets, and the fleet-wide `LeakageLedger` (drive it with the `otc` CLI) |
//! | [`perf`] | Structured perf sessions: per-round sample schema, framed + footer-indexed binary trace format, exact-percentile histograms, and the `otc report` timeline renderer |
//! | [`sim`] | Cycle-level in-order processor (Table 1): caches, write buffer, pluggable memory backends |
//! | [`dram`] | DRAM timing: flat-latency baseline + calibrated DDR3-like channel model |
//! | [`workloads`] | Synthetic SPEC-int stand-ins with per-input variants |
//! | [`power`] | The Table 2 energy model (984 nJ per ORAM access) |
//! | [`crypto`] | Simulation-grade fixed-latency primitives, session keys |
//! | [`attacks`] | Executable adversaries: Fig. 1(a)'s malicious program + decoder, the §3.2 root-bucket probe, replay attacks |
//!
//! ## Quickstart
//!
//! ```
//! use oram_timing::prelude::*;
//!
//! // The paper's headline configuration: |R| = 4 rates, epochs grow 4x,
//! // leaking at most 32 bits over the ORAM timing channel.
//! let scheme = Scheme::dynamic(4, 4);
//! assert_eq!(scheme.oram_timing_leakage_bits(), 32.0);
//!
//! // Run a memory-bound workload through the full stack.
//! let mut workload = SpecBenchmark::Mcf.workload(50_000);
//! let mut backend = scheme
//!     .build_backend(&OramConfig::small(), &DdrConfig::default())
//!     .expect("valid configuration");
//! let stats = Simulator::new(SimConfig::default())
//!     .run(&mut workload, &mut *backend, 50_000);
//! assert_eq!(stats.instructions, 50_000);
//! ```
//!
//! See `examples/` for runnable scenarios (quickstart, the timing attack
//! and its defeat, leakage budgeting, replay attacks, phase adaptation)
//! and `crates/bench/benches/` for the per-figure reproductions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use otc_attacks as attacks;
pub use otc_core as core;
pub use otc_crypto as crypto;
pub use otc_dram as dram;
pub use otc_host as host;
pub use otc_oram as oram;
pub use otc_perf as perf;
pub use otc_power as power;
pub use otc_sim as sim;
pub use otc_workloads as workloads;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use otc_attacks::{
        decode_trace, recovery_accuracy, MaliciousProgram, ReplayAttacker, RootBucketProbe,
    };
    pub use otc_core::{
        DividerImpl, EpochSchedule, LeakageModel, LeakageParams, PerfCounters,
        RateLimitedOramBackend, RatePolicy, RatePredictor, RateSet, Scheme, SecureProcessor,
        SlotRecord, UnprotectedOramBackend, UserSession,
    };
    pub use otc_crypto::{SplitMix64, SymmetricKey};
    pub use otc_dram::{Cycle, DdrConfig, FlatDram, TransferSpec};
    pub use otc_host::{
        HostConfig, LeakageLedger, LoopMode, MultiTenantHost, ShardedOram, TenantSpec,
    };
    pub use otc_oram::{OramConfig, OramTiming, RecursivePathOram};
    pub use otc_power::{PowerModel, PowerReport};
    pub use otc_sim::{
        DramBackend, Instr, InstructionStream, MemoryBackend, SimConfig, SimStats, Simulator,
        StepEvent, SteppedSim,
    };
    pub use otc_workloads::{AddressPattern, InstructionMix, SpecBenchmark, WorkloadSpec};
}
