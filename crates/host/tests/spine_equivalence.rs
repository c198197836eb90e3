//! Spine equivalence suite at fleet scale: the zero-allocation serving
//! spine (pooled round scratch, indexed ORAM datapath, two-level
//! calendar) must be *observably invisible*. A K=1024 churn storm on a
//! 16-shard pool — the exact fleet shape `otc bench --spine` times —
//! must produce byte-identical serve logs, per-tenant traces, reports,
//! and recorded `.otcp` sessions across every `ParallelKind`, and the
//! same service order under both `SchedulerKind`s.
//!
//! The fleet mixes rates spanning the calendar's level-0 horizon
//! (64..192 x OLAT) with a band of slow tenants whose periods overflow
//! into the level-1 wheel, so insertion, cascade, and mid-run eviction
//! out of *both* levels are all on the tested path. A separate
//! regression pins the host past 2^32 virtual cycles, where the cycle
//! arithmetic audited for overflow actually runs at scale.
//!
//! Serial and threaded rounds run one spine, so comparing them pins
//! only that the executors agree. `mixed_pool_matches_the_golden_transcript`
//! pins the host's absolute output: the shipped example scenario, run
//! through the scenario driver `otc run --scenario` uses, must reproduce
//! `golden/mixed_pool.golden` byte for byte under every executor.

use otc_core::RatePolicy;
use otc_host::{
    parse_scenario, render, EventOutcome, HostConfig, LoopMode, MultiTenantHost, ParallelKind,
    ScenarioAction, SchedulerKind, ServeEnd, TenantSpec,
};
use otc_oram::{OramConfig, OramTiming};
use otc_workloads::SpecBenchmark;
use std::fmt::Write as _;

mod util;

/// Fleet size `otc bench --spine` gates on.
const K: usize = 1024;
/// Shard pool size matching the spine bench.
const SHARDS: usize = 16;
/// Static rates as OLAT multiples, cycled across the fast band.
const RATE_OLATS: [u64; 4] = [64, 96, 128, 192];
/// Tenants at the tail of the fleet whose period lands beyond the
/// calendar's level-0 horizon (default 256 x 4096 = 1M cycles), parking
/// their entries in the level-1 overflow wheel.
const SLOW: usize = 32;
/// Slow-band rate multiple: ~3M cycles at the small geometry's OLAT.
const SLOW_OLAT_MULT: u64 = 2048;

fn small_olat() -> u64 {
    OramTiming::derive(&OramConfig::small(), &otc_dram::DdrConfig::default()).latency
}

fn spine_cfg() -> HostConfig {
    HostConfig {
        n_shards: SHARDS,
        ..HostConfig::small()
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
    p50: u64,
    p99: u64,
    tenant_slots: Vec<u64>,
    tenant_real: Vec<u64>,
    tenant_queueing: Vec<u64>,
    fleet_spent_bits_milli: u64,
    session_bytes: Vec<u8>,
}

fn run(mut cfg: HostConfig, parallel: ParallelKind, script: fn(&mut MultiTenantHost)) -> Outcome {
    cfg.record_traces = true;
    cfg.parallel = parallel;
    let mut host = MultiTenantHost::new(cfg).expect("builds");
    host.record_perf_session("spine equivalence");
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
        p50: report.p50_service_cycles,
        p99: report.p99_service_cycles,
        tenant_slots: report.tenants.iter().map(|t| t.slots_served).collect(),
        tenant_real: report.tenants.iter().map(|t| t.real_served).collect(),
        tenant_queueing: report.tenants.iter().map(|t| t.queueing_cycles).collect(),
        fleet_spent_bits_milli: (report.fleet_spent_bits * 1000.0).round() as u64,
        session_bytes: session.to_bytes(),
    }
}

/// Admits the K=1024 fleet (fast band cycling `RATE_OLATS`, slow band
/// overflowing the calendar's level-0 horizon), then drives it through
/// a churn storm: steady rounds, a 250-tenant eviction wave hitting
/// both calendar levels, a 16 -> 8 shrink, and a regrow.
fn k1024_storm(host: &mut MultiTenantHost) {
    let olat = small_olat();
    let benches = [
        SpecBenchmark::Mcf,
        SpecBenchmark::Hmmer,
        SpecBenchmark::Bzip2,
    ];
    for i in 0..K {
        let mult = if i >= K - SLOW {
            SLOW_OLAT_MULT
        } else {
            RATE_OLATS[i % RATE_OLATS.len()]
        };
        host.admit(
            &TenantSpec {
                name: format!("t{i}"),
                benchmark: benches[i % benches.len()],
                policy: RatePolicy::Static { rate: mult * olat },
                instructions: 20_000,
            },
            LoopMode::Open,
        )
        .expect("K=1024 fits the 16-shard admission ceiling");
    }
    for _ in 0..4 {
        host.step_round();
    }
    // Eviction wave: every 4th fast tenant (the fastest rate class,
    // freeing the most capacity) plus two slow tenants whose pending
    // entries sit in the level-1 overflow wheel.
    for i in (0..K - SLOW).step_by(4) {
        host.evict(i).expect("evict fast tenant");
    }
    host.evict(K - 1).expect("evict slow tenant");
    host.evict(K - SLOW).expect("evict slow tenant");
    for _ in 0..2 {
        host.step_round();
    }
    host.resize_shards(8)
        .expect("post-eviction fleet fits 8 shards");
    for _ in 0..2 {
        host.step_round();
    }
    host.resize_shards(SHARDS).expect("regrow pool");
    for _ in 0..2 {
        host.step_round();
    }
}

#[test]
fn k1024_storm_threads_match_serial() {
    let reference = run(spine_cfg(), ParallelKind::Serial, k1024_storm);
    assert!(
        !reference.serve_log.is_empty(),
        "storm must actually serve slots"
    );
    for threads in [2usize, 4] {
        let threaded = run(spine_cfg(), ParallelKind::Threads(threads), k1024_storm);
        assert_eq!(
            threaded, reference,
            "Threads({threads}) diverged from Serial at K=1024"
        );
    }
}

#[test]
fn k1024_storm_merge_scheduler_threads_match_serial() {
    let cfg = HostConfig {
        scheduler: SchedulerKind::Merge,
        ..spine_cfg()
    };
    let reference = run(cfg.clone(), ParallelKind::Serial, k1024_storm);
    let threaded = run(cfg, ParallelKind::Threads(4), k1024_storm);
    assert_eq!(
        threaded, reference,
        "Threads(4) diverged from Serial under the merge scheduler"
    );
}

#[test]
fn k1024_storm_schedulers_agree_on_every_serving_surface() {
    // Calendar (the two-level wheel) vs Merge (the k-way reference
    // scan) must agree on everything the spine serves: the global
    // serve log, every tenant trace, the clock, and the full report.
    // Session bytes are excluded *only* because `.otcp` metadata embeds
    // the scheduler label and the calendar-occupancy samples are
    // scheduler-local state (the merge scheduler keeps no calendar);
    // every serving-order surface inside the session is covered by the
    // fields compared here.
    let cal = run(spine_cfg(), ParallelKind::Serial, k1024_storm);
    let mrg = run(
        HostConfig {
            scheduler: SchedulerKind::Merge,
            ..spine_cfg()
        },
        ParallelKind::Serial,
        k1024_storm,
    );
    assert_eq!(mrg.serve_log, cal.serve_log, "serve order diverged");
    assert_eq!(mrg.traces, cal.traces, "tenant traces diverged");
    assert_eq!(
        (
            mrg.clock,
            mrg.rounds,
            mrg.shard_accesses,
            mrg.retired_accesses
        ),
        (
            cal.clock,
            cal.rounds,
            cal.shard_accesses,
            cal.retired_accesses
        ),
        "clock/shard surfaces diverged"
    );
    assert_eq!(
        (mrg.shard_queueing, mrg.shard_service, mrg.p50, mrg.p99),
        (cal.shard_queueing, cal.shard_service, cal.p50, cal.p99),
        "service-time surfaces diverged"
    );
    assert_eq!(
        (mrg.tenant_slots, mrg.tenant_real, mrg.tenant_queueing),
        (cal.tenant_slots, cal.tenant_real, cal.tenant_queueing),
        "per-tenant surfaces diverged"
    );
    assert_eq!(
        mrg.fleet_spent_bits_milli, cal.fleet_spent_bits_milli,
        "ledger bits diverged"
    );
}

#[test]
fn clock_past_2_pow_32_stays_sound() {
    // Million-round-horizon overflow regression: a slow tenant whose
    // period (2^27 cycles) dwarfs the calendar's level-0 horizon parks
    // every pending entry in the level-1 wheel, and driving the host
    // past 2^32 virtual cycles runs the audited cycle arithmetic (slot
    // grids, frontiers, lane clocks, cascade spans) far beyond 32-bit
    // range. Debug builds also exercise the overflow debug_asserts.
    let mut host = MultiTenantHost::new(HostConfig::small()).expect("builds");
    host.admit(
        &TenantSpec {
            name: "glacial".into(),
            benchmark: SpecBenchmark::Mcf,
            policy: RatePolicy::Static { rate: 1 << 27 },
            instructions: 20_000,
        },
        LoopMode::Open,
    )
    .expect("one glacial tenant always fits");
    let report = host.run_for((1u64 << 32) + (1 << 20));
    assert!(
        host.clock() > 1 << 32,
        "host must actually cross 2^32 cycles, clock={}",
        host.clock()
    );
    // 2^32 / 2^27 = 32 periods: the slot grid must have stayed exact
    // across the whole horizon, not stalled or wrapped.
    let slots = report.tenants[0].slots_served;
    assert!(
        (30..=34).contains(&slots),
        "expected ~32 slots over 2^32 cycles at a 2^27 period, got {slots}"
    );
    assert_eq!(report.horizon, host.clock(), "report horizon tracks clock");
    assert!(
        report.fleet_spent_bits >= 0.0 && report.fleet_spent_bits.is_finite(),
        "ledger stays finite past 2^32 cycles"
    );
}

/// Slot records printed per tenant (`otc run --trace 50`).
const GOLDEN_TRACE: usize = 50;

/// Runs `examples/mixed_pool.scenario` as `otc run --scenario FILE
/// --trace 50 --perf-session F` does — the same driver, the same
/// session label — and renders what the run observed: event outcomes,
/// the fleet report, the first slot records per tenant, each
/// adversary's reading, and digests of the full serve log and the
/// `.otcp` session bytes.
fn mixed_pool_transcript(parallel: ParallelKind) -> String {
    let spec = parse_scenario(include_str!("../../../examples/mixed_pool.scenario"))
        .expect("the shipped example parses");
    let mut cfg = spec.host_config().expect("the shipped example builds");
    cfg.record_traces = true;
    cfg.parallel = parallel;
    let mut host = MultiTenantHost::new(cfg).expect("builds");
    let instructions = spec.host.slots.saturating_mul(50);
    spec.admit_roster(&mut host, instructions)
        .expect("the roster fits");
    host.record_perf_session(&format!(
        "scenario tenants={} slots={} events={}",
        spec.tenants.len(),
        spec.host.slots,
        spec.events.len()
    ));
    let mut out = String::new();
    let end = spec.serve(&mut host, instructions, |ev, clock, outcome| {
        let outcome = match (outcome, &ev.action) {
            (EventOutcome::Admitted { id, .. }, _) => Ok(format!("admitted id {id}")),
            (EventOutcome::Evicted(retired), ScenarioAction::Evict { id }) => {
                Ok(format!("evicted {id}, {retired} retired"))
            }
            (EventOutcome::Resized, ScenarioAction::Shards { n }) => Ok(format!("resized to {n}")),
            (EventOutcome::Rejected(e), _) => Err(e),
            (outcome, action) => panic!("{outcome:?} does not answer {action:?}"),
        };
        writeln!(out, "@{} clock {clock}: {outcome:?}", ev.round).unwrap();
    });
    assert_eq!(
        end,
        ServeEnd::Complete,
        "the example must finish inside the bound"
    );
    let report = host.report();
    let session = host.take_perf_session().expect("recording was on");
    out.push_str(&render(&report));
    writeln!(out, "slot traces (first {GOLDEN_TRACE} per tenant):").unwrap();
    for t in &report.tenants {
        let slots: Vec<String> = host
            .tenant_trace(t.id)
            .iter()
            .take(GOLDEN_TRACE)
            .map(|s| format!("{}{}", s.start, if s.real { "R" } else { "d" }))
            .collect();
        writeln!(out, "{}: {}", t.name, slots.join(" ")).unwrap();
    }
    let candidates = spec.victim_rates();
    for t in &report.tenants {
        if host.adversary_kind(t.id).is_some() {
            writeln!(
                out,
                "adversary {}: {} observed slots, estimate {:?}",
                t.name,
                host.adversary_observations(t.id).len(),
                host.adversary_estimate(t.id, &candidates)
            )
            .unwrap();
        }
    }
    let log = host.serve_log();
    let log_bytes = log.iter().flat_map(|s| {
        (s.tenant as u64)
            .to_le_bytes()
            .into_iter()
            .chain(s.start.to_le_bytes())
            .chain([u8::from(s.real)])
    });
    writeln!(
        out,
        "serve log: {} entries, fnv1a {:016x}",
        log.len(),
        util::fnv1a(log_bytes)
    )
    .unwrap();
    let bytes = session.to_bytes();
    writeln!(
        out,
        "session: {} bytes, fnv1a {:016x}",
        bytes.len(),
        util::fnv1a(bytes.iter().copied())
    )
    .unwrap();
    out
}

#[test]
fn mixed_pool_matches_the_golden_transcript() {
    let golden = include_str!("golden/mixed_pool.golden");
    for parallel in [ParallelKind::Serial, ParallelKind::Threads(2)] {
        let got = mixed_pool_transcript(parallel);
        let first_diff = got
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(got.lines().count().min(golden.lines().count()));
        assert!(
            got == golden,
            "{parallel:?} transcript diverged from golden/mixed_pool.golden at line {}:\n{}",
            first_diff + 1,
            got
        );
    }
}
