//! Equivalence suite for the shard pipeline (the Serial-vs-Staged
//! analogue of the Calendar-vs-Merge scheduler suite):
//!
//! 1. **Serial reproduces the pre-pipeline arithmetic, bit for bit** —
//!    `PipelineKind::Serial` (the one-stage pipeline) is replayed
//!    against a hand-rolled model of the original `ShardService`
//!    accounting (`start = max(at, busy_until)`, `completion = start +
//!    OLAT`), the only copy of that arithmetic, over a seeded pattern
//!    of reads, writes and dummies: every service, utilization, stage
//!    snapshot and cycle total must match.
//! 2. **Open-loop observables are pipeline-independent** — a tenant's
//!    slot grid is pure stream timing, so open-loop traces and serve
//!    logs are bit-identical across `Serial` and `Staged`; the backend
//!    discipline is invisible where it must be.
//! 3. **Closed-loop saturation shows the win** — the perf gate:
//!    `BENCH_pipeline.json`'s closed-loop fleet serves with ≥15% lower
//!    mean *and* p99 per-access service time under `Staged`, and the
//!    record, rendered afresh, matches the checked-in file byte for
//!    byte.
//!
//! CI runs this suite twice with fixed seeds: any nondeterminism in the
//! pipeline (queue order, drain scheduling) would show up as a diff
//! between runs.

use otc_core::RatePolicy;
use otc_dram::{Cycle, DdrConfig};
use otc_host::{
    HostConfig, HostReport, LoopMode, MultiTenantHost, PipelineConfig, PipelineKind, ScenarioSpec,
    ShardClass, ShardedOram, TenantSpec,
};
use otc_oram::OramConfig;
use otc_workloads::SpecBenchmark;

mod util;

/// The perf gate's floor: staged mean and p99 service times at least
/// this many percent below serial's.
const FLOOR_PCT: f64 = 15.0;

fn spec(name: &str, bench: SpecBenchmark, rate: u64) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        benchmark: bench,
        policy: RatePolicy::Static { rate },
        instructions: 200_000,
    }
}

fn fleet(pipeline: PipelineConfig, mode: LoopMode) -> MultiTenantHost {
    let cfg = HostConfig {
        record_traces: true,
        pipeline,
        ..HostConfig::small()
    };
    let mut host = MultiTenantHost::new(cfg).expect("builds");
    for (i, (bench, rate)) in [
        (SpecBenchmark::Mcf, 600),
        (SpecBenchmark::Libquantum, 900),
        (SpecBenchmark::Hmmer, 700),
    ]
    .into_iter()
    .enumerate()
    {
        host.admit(&spec(&format!("t{i}"), bench, rate), mode)
            .expect("admit");
    }
    host
}

#[test]
fn serial_service_matches_pre_pipeline_arithmetic_bit_for_bit() {
    // Hand-rolled model of the original (pre-pipeline) ShardService
    // accounting — the only copy of the serial arithmetic — replayed
    // against PipelineKind::Serial over a seeded pattern of reads,
    // writes and dummies with queueing collisions and idle gaps.
    const SHARDS: usize = 3;
    let serial = ShardClass {
        oram: OramConfig::small(),
        pipeline: PipelineConfig::serial(),
    };
    let mut sharded =
        ShardedOram::with_mix(&[serial], &DdrConfig::default(), SHARDS).expect("valid");
    let olat = sharded.olat();
    let mut busy_until = [0u64; SHARDS];
    let mut accesses = [0u64; SHARDS];
    let mut model_queueing = 0u64;
    let mut model_service = 0u64;
    // The pre-pipeline utilization: each shard's `accesses × OLAT`,
    // minus the tail of its last interval past the horizon.
    let utilization = |busy_until: &[u64; SHARDS], accesses: &[u64; SHARDS], horizon: Cycle| {
        (0..SHARDS)
            .map(|s| {
                let busy =
                    (accesses[s] * olat).saturating_sub(busy_until[s].saturating_sub(horizon));
                busy as f64 / horizon as f64
            })
            .collect::<Vec<_>>()
    };
    let payload = [0x5Au8; 64];
    let mut rng = otc_crypto::SplitMix64::new(0xBEEF_CAFE);
    let mut at: Cycle = 0;
    for step in 0..500u64 {
        at += rng.next_below(olat * 2); // collisions and gaps both occur
        let addr = rng.next_below(300);
        let shard = sharded.shard_of(addr);
        let service = match step % 5 {
            0 => sharded.dummy_access(shard, at),
            1 => sharded.write(addr, &payload, at),
            _ => sharded.read(addr, at).1,
        };
        // The reference model.
        let start = at.max(busy_until[shard]);
        busy_until[shard] = start + olat;
        accesses[shard] += 1;
        model_queueing += start - at;
        model_service += start + olat - at;
        assert_eq!(service.shard, shard, "step {step}");
        assert_eq!(service.start, start, "step {step}");
        assert_eq!(service.completion, start + olat, "step {step}");
        assert_eq!(service.queued_cycles, start - at, "step {step}");
        if step % 50 == 49 {
            // Horizons before, at and past the shards' busy ends.
            for horizon in [at / 2, at, at + olat / 3, at + 2 * olat] {
                assert_eq!(
                    sharded.utilization(horizon),
                    utilization(&busy_until, &accesses, horizon),
                    "step {step}, horizon {horizon}"
                );
            }
        }
    }
    assert_eq!(sharded.utilization(0), vec![0.0; SHARDS]);
    assert_eq!(sharded.accesses(), accesses);
    assert_eq!(sharded.n_stage_units(), 1, "a serial shard is one unit");
    for (s, &n) in accesses.iter().enumerate() {
        assert_eq!(sharded.stage_busy_snapshot(s), [n * olat], "shard {s}");
    }
    assert_eq!(sharded.queueing_cycles(), model_queueing);
    assert_eq!(sharded.service_cycles(), model_service);
    assert_eq!(sharded.pending_evictions(), 0, "serial never defers");
    assert_eq!(sharded.drained_evictions(), 0);
}

#[test]
fn open_loop_observables_identical_across_pipeline_modes() {
    let mut serial = fleet(PipelineConfig::serial(), LoopMode::Open);
    let mut staged = fleet(PipelineConfig::staged(), LoopMode::Open);
    serial.run_for(1 << 20);
    staged.run_for(1 << 20);
    assert!(!serial.serve_log().is_empty());
    assert_eq!(
        serial.serve_log(),
        staged.serve_log(),
        "open-loop serve order must not depend on the backend pipeline"
    );
    for id in 0..3 {
        assert_eq!(
            serial.tenant_trace(id),
            staged.tenant_trace(id),
            "tenant {id} open-loop trace shifted"
        );
    }
    // The backends did run differently — staged deferred evictions.
    let staged_report = staged.report();
    assert_eq!(staged_report.pipeline_label, "staged");
    assert!(staged_report.background_eviction_drains > 0);
    // And the internal service metric improved even though the
    // observable grids are identical.
    let serial_report = serial.report();
    assert!(staged_report.mean_service_cycles < serial_report.mean_service_cycles);
}

/// `BENCH_pipeline.json`'s fleet: four closed-loop `static_600` seats on
/// two small shards under `pipeline`, seed 7, 3000 slots each.
fn record_spec(pipeline: &str) -> ScenarioSpec {
    let keys = format!("shards=2 oram=small pipeline={pipeline} seed=7 slots=3000");
    util::flag_spec(&keys, 4, 4, true, |_| "static_600".into())
}

fn serve_record_fleet(pipeline: &str) -> HostReport {
    let mut spec = record_spec(pipeline);
    let (mut host, refused) = util::admit(&mut spec);
    assert_eq!(refused, None, "the record fleet fits its pool");
    util::serve(&spec, &mut host)
}

/// Renders `BENCH_pipeline.json` from the two runs.
fn pipeline_record(serial: &HostReport, staged: &HostReport, gains: (f64, f64)) -> String {
    let spec = record_spec("serial");
    let h = &spec.host;
    let run = |r: &HostReport| {
        let tp: f64 = r
            .tenants
            .iter()
            .filter(|t| t.is_active())
            .map(|t| t.throughput_per_mcycle)
            .sum();
        format!(
            "{{\"mean_service_cycles\": {:.3}, \"p50_service_cycles\": {}, \
             \"p99_service_cycles\": {}, \"queueing_cycles\": {}, \"service_cycles\": {}, \
             \"fleet_throughput_per_mcycle\": {tp:.3}, \"background_eviction_drains\": {}}}",
            r.mean_service_cycles,
            r.p50_service_cycles,
            r.p99_service_cycles,
            r.shard_queueing_cycles,
            r.shard_service_cycles,
            r.background_eviction_drains
        )
    };
    let (mean, p99) = gains;
    format!(
        "{{\n  \"bench\": \"pipeline_sweep\",\n  \"config\": {{\"seed\": {}, \"tenants\": {}, \
         \"shards\": {}, \"oram\": \"{}\", \"scheme\": \"{}\", \"slots_per_tenant\": {}, \
         \"closed_loop\": true}},\n  \"serial\": {},\n  \"staged\": {},\n  \
         \"improvement_pct\": {mean:.3},\n  \"p99_improvement_pct\": {p99:.3},\n  \
         \"gate_pct\": {FLOOR_PCT:.1},\n  \"gate_passed\": {}\n}}\n",
        h.seed,
        spec.tenants.len(),
        h.shards,
        h.oram.label(),
        spec.tenants[0].scheme,
        h.slots,
        run(serial),
        run(staged),
        mean >= FLOOR_PCT && p99 >= FLOOR_PCT
    )
}

#[test]
fn closed_loop_staged_meets_the_perf_gate_floor() {
    // The perf gate: the same closed-loop fleet, served under each
    // pipeline, must show staged mean and p99 per-access service times
    // ≥15% below serial's.
    let serial_report = serve_record_fleet("serial");
    let staged_report = serve_record_fleet("staged");
    let below = |staged: f64, serial: f64| (1.0 - staged / serial) * 100.0;
    let improvement = below(
        staged_report.mean_service_cycles,
        serial_report.mean_service_cycles,
    );
    let p99_improvement = below(
        staged_report.p99_service_cycles as f64,
        serial_report.p99_service_cycles as f64,
    );
    assert!(
        improvement >= FLOOR_PCT && p99_improvement >= FLOOR_PCT,
        "staged mean {:.1} is {improvement:.1}% below serial {:.1}, staged p99 {} is \
         {p99_improvement:.1}% below serial {} (floor {FLOOR_PCT}% on both)",
        staged_report.mean_service_cycles,
        serial_report.mean_service_cycles,
        staged_report.p99_service_cycles,
        serial_report.p99_service_cycles
    );
    assert!(staged_report.shard_queueing_cycles < serial_report.shard_queueing_cycles);
    // Closed-loop cores actually felt the faster completions. Totals are
    // not comparable (faster feedback lets a core issue *more* real
    // requests inside the same slot budget), so compare the mean backend
    // cycles fed back per real access.
    let fb_per_real = |r: &otc_host::HostReport| -> f64 {
        let fb: u64 = r.tenants.iter().map(|t| t.feedback_cycles).sum();
        let real: u64 = r.tenants.iter().map(|t| t.real_served).sum();
        fb as f64 / real.max(1) as f64
    };
    assert!(fb_per_real(&staged_report) < fb_per_real(&serial_report));
    // Leakage accounting is untouched by the pipeline: same budgets,
    // same spends.
    assert_eq!(
        serial_report.fleet_budget_bits,
        staged_report.fleet_budget_bits
    );
    assert_eq!(
        serial_report.fleet_spent_bits,
        staged_report.fleet_spent_bits
    );
    util::assert_text_eq(
        "BENCH_pipeline.json",
        &pipeline_record(
            &serial_report,
            &staged_report,
            (improvement, p99_improvement),
        ),
        include_str!("../../../BENCH_pipeline.json"),
    );
}

#[test]
fn serial_is_the_default_everywhere() {
    // HostConfig::default / ::small must keep the pre-pipeline
    // discipline: existing seeds, traces and reports stay bit-stable
    // unless staged mode is opted into.
    assert_eq!(HostConfig::default().pipeline, PipelineConfig::serial());
    assert_eq!(HostConfig::small().pipeline, PipelineConfig::serial());
    assert_eq!(PipelineConfig::default().kind, PipelineKind::Serial);
}
