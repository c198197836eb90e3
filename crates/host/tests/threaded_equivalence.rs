//! Parallel-host determinism suite: `ParallelKind::Threads(n)` must be
//! observably *identical* to `ParallelKind::Serial` — not statistically
//! close, byte-identical — for every scheduling surface the host
//! exposes: the global serve log, per-tenant slot traces, the leakage
//! ledger sums, the fleet report, and recorded `.otcp` perf sessions.
//!
//! The scripts cover the shapes that stress the merge most: open-loop
//! saturation, closed-loop feedback (service completions re-enter
//! tenant clocks), the staged shard pipeline (background eviction
//! drains), churn storms (admit/evict/resize mid-run), and both
//! schedulers (calendar and the k-way merge reference).

use otc_core::RatePolicy;
use otc_host::{
    CapacityKind, HostConfig, LoopMode, MultiTenantHost, ParallelKind, PipelineConfig,
    SchedulerKind, ShardClass, TenantSpec,
};
use otc_oram::{OramConfig, TreeGeometry};
use otc_workloads::SpecBenchmark;

fn spec(name: &str, bench: SpecBenchmark, policy: RatePolicy) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        benchmark: bench,
        policy,
        instructions: 150_000,
    }
}

/// Everything observable about one finished run, in comparable form.
#[derive(Debug, PartialEq)]
struct Outcome {
    serve_log: Vec<otc_host::ServedSlot>,
    traces: Vec<Vec<otc_host::SlotRecord>>,
    clock: u64,
    rounds: u64,
    shard_accesses: Vec<u64>,
    retired_accesses: u64,
    shard_queueing: u64,
    shard_service: u64,
    drains: u64,
    p50: u64,
    p99: u64,
    tenant_queueing: Vec<u64>,
    tenant_feedback: Vec<u64>,
    tenant_slots: Vec<u64>,
    tenant_real: Vec<u64>,
    fleet_budget_bits_milli: u64,
    fleet_spent_bits_milli: u64,
    session_bytes: Vec<u8>,
}

/// Runs `script` on a fresh host under `parallel` with traces and a
/// perf session recording, then snapshots every observable surface.
fn run(mut cfg: HostConfig, parallel: ParallelKind, script: fn(&mut MultiTenantHost)) -> Outcome {
    cfg.record_traces = true;
    cfg.parallel = parallel;
    let mut host = MultiTenantHost::new(cfg).expect("builds");
    host.record_perf_session("threaded equivalence");
    script(&mut host);
    let session = host.take_perf_session().expect("recording was on");
    let report = host.report();
    Outcome {
        serve_log: host.serve_log().to_vec(),
        traces: (0..host.tenant_count())
            .map(|id| host.tenant_trace(id).to_vec())
            .collect(),
        clock: host.clock(),
        rounds: host.rounds(),
        shard_accesses: report.shard_accesses.clone(),
        retired_accesses: report.retired_shard_accesses,
        shard_queueing: report.shard_queueing_cycles,
        shard_service: report.shard_service_cycles,
        drains: report.background_eviction_drains,
        p50: report.p50_service_cycles,
        p99: report.p99_service_cycles,
        tenant_queueing: report.tenants.iter().map(|t| t.queueing_cycles).collect(),
        tenant_feedback: report.tenants.iter().map(|t| t.feedback_cycles).collect(),
        tenant_slots: report.tenants.iter().map(|t| t.slots_served).collect(),
        tenant_real: report.tenants.iter().map(|t| t.real_served).collect(),
        fleet_budget_bits_milli: (report.fleet_budget_bits * 1000.0).round() as u64,
        fleet_spent_bits_milli: (report.fleet_spent_bits * 1000.0).round() as u64,
        session_bytes: session.to_bytes(),
    }
}

/// Asserts Threads(2) and Threads(4) reproduce Serial exactly.
fn assert_equivalent(cfg: HostConfig, script: fn(&mut MultiTenantHost)) {
    let reference = run(cfg.clone(), ParallelKind::Serial, script);
    for threads in [2usize, 4] {
        let threaded = run(cfg.clone(), ParallelKind::Threads(threads), script);
        assert_eq!(
            threaded, reference,
            "Threads({threads}) diverged from Serial"
        );
    }
}

fn open_loop_script(host: &mut MultiTenantHost) {
    host.add_tenant(&spec(
        "a",
        SpecBenchmark::Mcf,
        RatePolicy::Static { rate: 2_400 },
    ))
    .expect("admit a");
    host.add_tenant(&spec(
        "b",
        SpecBenchmark::Hmmer,
        RatePolicy::dynamic_paper(4, 4),
    ))
    .expect("admit b");
    host.add_tenant(&spec(
        "c",
        SpecBenchmark::Bzip2,
        RatePolicy::Static { rate: 3_000 },
    ))
    .expect("admit c");
    for _ in 0..10 {
        host.step_round();
    }
}

fn closed_loop_script(host: &mut MultiTenantHost) {
    host.admit(
        &spec("a", SpecBenchmark::Mcf, RatePolicy::Static { rate: 2_400 }),
        LoopMode::Closed,
    )
    .expect("admit a");
    host.admit(
        &spec("b", SpecBenchmark::Hmmer, RatePolicy::dynamic_paper(4, 4)),
        LoopMode::Closed,
    )
    .expect("admit b");
    host.add_tenant(&spec(
        "c",
        SpecBenchmark::Bzip2,
        RatePolicy::Static { rate: 3_000 },
    ))
    .expect("admit c");
    for _ in 0..10 {
        host.step_round();
    }
}

fn churn_storm_script(host: &mut MultiTenantHost) {
    host.add_tenant(&spec(
        "a",
        SpecBenchmark::Mcf,
        RatePolicy::Static { rate: 2_400 },
    ))
    .expect("admit a");
    host.admit(
        &spec(
            "b",
            SpecBenchmark::Hmmer,
            RatePolicy::Static { rate: 3_000 },
        ),
        LoopMode::Closed,
    )
    .expect("admit b");
    for _ in 0..4 {
        host.step_round();
    }
    host.admit(
        &spec(
            "c",
            SpecBenchmark::Bzip2,
            RatePolicy::Static { rate: 2_800 },
        ),
        LoopMode::Closed,
    )
    .expect("admit c");
    for _ in 0..4 {
        host.step_round();
    }
    host.evict(0).expect("evict a");
    for _ in 0..2 {
        host.step_round();
    }
    host.resize_shards(1).expect("shrink pool");
    for _ in 0..4 {
        host.step_round();
    }
    host.resize_shards(3).expect("grow pool");
    for _ in 0..4 {
        host.step_round();
    }
}

#[test]
fn open_loop_threads_match_serial() {
    assert_equivalent(HostConfig::small(), open_loop_script);
}

#[test]
fn closed_loop_threads_match_serial() {
    assert_equivalent(HostConfig::small(), closed_loop_script);
}

#[test]
fn churn_storm_threads_match_serial() {
    assert_equivalent(HostConfig::small(), churn_storm_script);
}

#[test]
fn staged_pipeline_threads_match_serial() {
    let cfg = HostConfig {
        pipeline: PipelineConfig::staged(),
        ..HostConfig::small()
    };
    assert_equivalent(cfg.clone(), open_loop_script);
    assert_equivalent(cfg.clone(), closed_loop_script);
    assert_equivalent(cfg, churn_storm_script);
}

#[test]
fn merge_scheduler_threads_match_serial() {
    let cfg = HostConfig {
        scheduler: SchedulerKind::Merge,
        ..HostConfig::small()
    };
    assert_equivalent(cfg, churn_storm_script);
}

/// A heterogeneous two-class pool: serial small-geometry lanes
/// interleaved with staged lanes of a shallower tree. Lanes then carry
/// *different* per-shard timing parameters through the worker channels —
/// the surface this suite exists to pin.
fn mixed_pool_cfg() -> HostConfig {
    HostConfig {
        shard_mix: vec![
            ShardClass {
                oram: OramConfig::small(),
                pipeline: PipelineConfig::serial(),
            },
            ShardClass {
                oram: OramConfig {
                    data: TreeGeometry::new(7, 3, 64, 16),
                    posmaps: vec![
                        TreeGeometry::new(4, 3, 32, 16),
                        TreeGeometry::new(3, 3, 32, 16),
                    ],
                    seed: 0x717E_5EED,
                },
                pipeline: PipelineConfig::staged(),
            },
        ],
        n_shards: 3,
        capacity: CapacityKind::Cadence,
        ..HostConfig::small()
    }
}

#[test]
fn mixed_lane_pool_threads_match_serial() {
    // Heterogeneous lanes must not cost the determinism guarantee:
    // open-loop, closed-loop feedback, and a churn storm whose resizes
    // change which classes are even instantiated (1 shard = serial
    // only, 3 = both) all replay byte-identically under threads —
    // including the WDRR credit evolution, since the mixed-rate fleet
    // carries genuinely unequal weights.
    assert_equivalent(mixed_pool_cfg(), open_loop_script);
    assert_equivalent(mixed_pool_cfg(), closed_loop_script);
    assert_equivalent(mixed_pool_cfg(), churn_storm_script);
}

#[test]
fn mixed_lane_merge_scheduler_threads_match_serial() {
    let cfg = HostConfig {
        scheduler: SchedulerKind::Merge,
        ..mixed_pool_cfg()
    };
    assert_equivalent(cfg, churn_storm_script);
}

#[test]
fn more_workers_than_shards_degenerates_cleanly() {
    // Threads(16) against a 2-shard pool clamps to 2 workers; Threads(1)
    // exercises the post/merge machinery on one worker. Both must still
    // be byte-identical to serial.
    let reference = run(HostConfig::small(), ParallelKind::Serial, open_loop_script);
    for threads in [1usize, 16] {
        let threaded = run(
            HostConfig::small(),
            ParallelKind::Threads(threads),
            open_loop_script,
        );
        assert_eq!(
            threaded, reference,
            "Threads({threads}) diverged from Serial"
        );
    }
}
