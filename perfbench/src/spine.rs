//! `spine_k1024`: the K=1024 point of `otc bench --spine`. 1,024
//! open-loop static-rate tenants (the `tenant_mix(4)` rotation, 20,000
//! instructions each, rates cycling {64, 96, 128, 192}×OLAT) on 16
//! serial shards at paper geometry, quantum 65,536, calendar scheduler,
//! serial executor, no recording. Every slot is real, so host time goes
//! to the serving spine and to paper-geometry real ORAM accesses.
//!
//! The benchmark seed picks the host's protocol seed (leaf and shard
//! draws); the roster is the fixed spine point. Once per invocation the
//! exact `BENCH_spine.json` configuration is replayed for 256 rounds and
//! its digest compared with the recorded one.
//!
//! `BENCHMARK.json` does not list this workload: its serve loop touches
//! the state of 1,024 tenants and grows ~900 MB of sparse tree levels per
//! repetition, and on a host whose memory is shared its speed follows the
//! neighbours' load — ten seeds spread 0.23 of their median, against the
//! largest bound a metric may have, 0.25. It stays runnable for the
//! K=1024 layer profile (`--trace 1`) and the `BENCH_spine.json`
//! cross-check.

use std::time::Instant;

use otc_core::RatePolicy;
use otc_host::{
    CapacityKind, HostConfig, LoopMode, MultiTenantHost, PipelineConfig, ShardClass, TenantSpec,
};
use otc_oram::{OramConfig, OramTiming};
use otc_workloads::SpecBenchmark;

use crate::fleet::{self, FleetRun};
use crate::metrics::{Checks, Values};
use crate::probes::{self, Shape};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

/// Tenants in the fleet.
const K: usize = 1024;
/// Shards in the pool.
const SHARDS: usize = 16;
/// Rounds per timed repetition (the spine sweep's round count).
const ROUNDS: u64 = 256;
/// Static rates as OLAT multiples, cycled across the fleet.
const RATE_OLATS: [u64; 4] = [64, 96, 128, 192];
/// Instructions per tenant program.
const INSTRUCTIONS: u64 = 20_000;
/// Seed of the recorded spine sweep.
const REFERENCE_SEED: u64 = 0x07C0_57ED;
/// `BENCH_spine.json`'s K=1024 digest after 256 rounds at
/// [`REFERENCE_SEED`]: slots, real slots, clock, spent bits × 1000.
const REFERENCE_DIGEST: [(&str, u64); 4] = [
    ("slots", 111_104),
    ("real", 111_104),
    ("clock", 16_777_216),
    ("spent_bits_milli", 0),
];

fn config(seed: u64) -> HostConfig {
    HostConfig::builder()
        .oram(OramConfig::paper())
        .shards(SHARDS)
        .leakage_limit_bits(64)
        .seed(seed)
        .record_traces(false)
        .pipeline(PipelineConfig::serial())
        .capacity(CapacityKind::Olat)
        .threads(0)
        .build()
        .expect("the spine configuration is valid")
}

fn olat() -> u64 {
    let cfg = config(REFERENCE_SEED);
    OramTiming::derive(&cfg.oram, &cfg.ddr).latency
}

fn roster(k: usize) -> Vec<TenantSpec> {
    let benches = SpecBenchmark::tenant_mix(4);
    let olat = olat();
    (0..k)
        .map(|i| TenantSpec {
            name: format!("t{i}"),
            benchmark: benches[i % benches.len()],
            policy: RatePolicy::Static {
                rate: RATE_OLATS[i % RATE_OLATS.len()] * olat,
            },
            instructions: INSTRUCTIONS,
        })
        .collect()
}

fn instance(
    seed: u64,
    (k, rounds): (usize, u64),
    record: bool,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> FleetRun {
    let roster = roster(k);
    tracer.enter("instance");
    let t0 = Instant::now();
    let cfg = config(seed);
    let mut host = tracer
        .span("host.new", || MultiTenantHost::new(cfg))
        .expect("the spine host builds");
    let mut admitted = 0u64;
    for spec in &roster {
        let r = tracer.span("host.admit", || host.admit(spec, LoopMode::Open));
        checks.check(r.is_ok(), || {
            format!("admitting {}: {:?}", spec.name, r.as_ref().err())
        });
        admitted += u64::from(r.is_ok());
    }
    let setup_s = t0.elapsed().as_secs_f64();
    if record {
        host.record_perf_session("perfbench spine_k1024");
    }
    let (round_ms, serve_s) = fleet::serve(&mut host, rounds, tracer, |_, _, _| {});
    let (session, session_bytes) = if record {
        fleet::finish_session(&mut host, rounds, tracer, checks)
    } else {
        (None, 0)
    };
    tracer.exit();
    let run = FleetRun {
        setup_s,
        serve_s,
        round_ms,
        report: host.report(),
        rounds: host.rounds(),
        admissions_denied: host.admissions_denied(),
        admitted,
        session,
        session_bytes,
    };
    fleet::check_report(&run.report, checks);
    run
}

/// Runs timed repetitions until `budget_s` has passed (at least `min`).
fn repeat(
    ctx: &Ctx,
    budget_s: f64,
    min: usize,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Vec<FleetRun> {
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < min || start.elapsed().as_secs_f64() < budget_s {
        runs.push(instance(
            host_seed(ctx.seed),
            size(ctx),
            false,
            tracer,
            checks,
        ));
    }
    runs
}

/// Fleet size and rounds of one timed repetition.
fn size(ctx: &Ctx) -> (usize, u64) {
    if ctx.smoke {
        (64, 8)
    } else {
        (K, ROUNDS)
    }
}

/// The host protocol seed the benchmark seed selects.
fn host_seed(seed: u64) -> u64 {
    probes::SplitMix(seed ^ 0x5EED_5B17E).next()
}

/// The probe shape of this fleet.
fn shape(k: usize, pool_accesses: u64) -> Shape {
    let olat = olat();
    Shape {
        oram: OramConfig::paper(),
        pool: vec![ShardClass {
            oram: OramConfig::paper(),
            pipeline: PipelineConfig::serial(),
        }],
        shards: SHARDS,
        periods: (0..k)
            .map(|i| RATE_OLATS[i % RATE_OLATS.len()] * olat + olat)
            .collect(),
        policy: RatePolicy::Static {
            rate: RATE_OLATS[0] * olat,
        },
        benches: SpecBenchmark::tenant_mix(4),
        instructions: INSTRUCTIONS,
        pool_accesses,
        olat,
        quantum: 1 << 16,
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut checks = Checks::default();
    let mut notes = Vec::new();
    let mut off = Tracer::new(false, ctx.run_id);
    if !ctx.smoke {
        let r = instance(REFERENCE_SEED, (K, ROUNDS), false, &mut off, &mut checks);
        let diff = crate::stats::digest_mismatches(&REFERENCE_DIGEST, &r.digest()[..4]);
        checks.check(diff.is_empty(), || {
            format!(
                "K=1024 digest differs from BENCH_spine.json: {}",
                diff.join(", ")
            )
        });
        notes.push(format!(
            "BENCH_spine.json K=1024 cross-check at round {ROUNDS}: slots {} real {} clock {} bits {} ({})",
            r.slots(),
            r.real(),
            r.report.horizon,
            r.report.fleet_spent_bits,
            if diff.is_empty() { "match" } else { "MISMATCH" }
        ));
    }
    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let runs = repeat(ctx, budget, 2, &mut off, &mut checks);
    fleet::check_repeatable(&runs, &mut checks);
    let e2e = fleet::end_to_end(&runs);
    notes.push(format!(
        "{} repetitions of {} rounds; real/dummy split {}/{}; p99 service {} cycles",
        runs.len(),
        runs[0].rounds,
        runs[0].real(),
        runs[0].slots() - runs[0].real(),
        runs[0].report.p99_service_cycles
    ));
    notes.push(fleet::repetition_note(&runs));
    let mut layer = Values::per_layer_defaults();
    if ctx.trace {
        let mut tracer = Tracer::new(true, ctx.run_id);
        tracer.enter("run");
        let traced = repeat(ctx, budget, 2, &mut tracer, &mut checks);
        tracer.exit();
        let recorded = instance(host_seed(ctx.seed), size(ctx), true, &mut off, &mut checks);
        let mut all = traced;
        all.push(recorded);
        fleet::check_repeatable(&all, &mut checks);
        let recorded = all.pop().expect("recorded run");
        fleet::step_metrics(&all, &mut layer);
        fleet::layer_counts(&recorded, &mut layer);
        probes::run_all(
            &shape(size(ctx).0, recorded.slots()),
            ctx.seed,
            ctx.probe_scale(),
            &mut layer,
        );
        let costs = fleet::layer_costs(&recorded, &layer, false, false);
        let step_ns = tracer.total_ns("host.step_round") / all.len() as f64;
        notes.push(crate::attribute(&costs, step_ns, &mut layer));
        notes.push(format!(
            "step time per served slot {:.1} us; probes: shard access {:.1} us, ORAM read {:.1} us",
            step_ns / recorded.slots() as f64 / 1e3,
            layer.get("shard.access_ns").unwrap_or(0.0) / 1e3,
            layer.get("oram.read_ns").unwrap_or(0.0) / 1e3,
        ));
        crate::self_shares(&tracer, &mut layer);
        let traced_e2e = fleet::end_to_end(&all);
        crate::trace_overhead(&e2e, &traced_e2e, &mut layer);
        crate::write_spans(ctx, &tracer, &mut notes);
    }
    Outcome {
        e2e,
        layer,
        checks,
        notes,
        executor: "serial",
    }
}
