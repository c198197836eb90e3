//! Spine equivalence suite at fleet scale: the zero-allocation serving
//! spine (pooled round scratch, indexed ORAM datapath, one-ring
//! calendar) must be *observably invisible*. A K=1024 churn storm on a
//! 16-shard pool — the exact fleet shape `otc bench --spine` times —
//! must produce byte-identical serve logs, per-tenant traces, reports,
//! and recorded `.otcp` sessions across every `ParallelKind`, and the
//! same service order as the k-way merge the calendar replaced
//! (digests recorded from it).
//!
//! The fleet mixes rates within the calendar ring's span (64..192 x
//! OLAT) with a band of slow tenants whose periods exceed it, so their
//! entries alias onto the ring and the pass check holds them back until
//! their own pass: insertion, aliased pops and mid-run eviction of both
//! kinds of entry are all on the tested path. A separate
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
    ScenarioAction, ServeEnd, TenantSpec,
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
/// calendar ring's span (256 x 4096 = 1M cycles), so their entries
/// alias onto the ring and wait out the pass check.
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
/// beyond the calendar ring's span), then drives it through a churn
/// storm: steady rounds, a 250-tenant eviction wave hitting fast and
/// aliased entries alike, a 16 -> 8 shrink, and a regrow.
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
    // entries alias onto the ring from a later pass.
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

/// Every serving surface of one storm [`Outcome`] but its session
/// bytes, on one line: the serve log, every tenant's trace, the clock,
/// the shard and service-time figures, the per-tenant counters and the
/// ledger's bits. Each list is digested with FNV-1a.
fn serving_surfaces(o: &Outcome) -> String {
    let words = |v: &[u64]| util::fnv1a(v.iter().flat_map(|w| w.to_le_bytes()));
    let traces: Vec<u64> = o.traces.iter().map(|t| util::trace_digest(t)).collect();
    format!(
        "log {} {:016x}, traces {:016x}, clock {} rounds {}, shards {:?} retired {}, \
         queueing {} service {} p50 {} p99 {}, tenant slots {:016x} real {:016x} \
         queueing {:016x}, spent milli-bits {}",
        o.serve_log.len(),
        util::serve_log_digest(&o.serve_log),
        words(&traces),
        o.clock,
        o.rounds,
        o.shard_accesses,
        o.retired_accesses,
        o.shard_queueing,
        o.shard_service,
        o.p50,
        o.p99,
        words(&o.tenant_slots),
        words(&o.tenant_real),
        words(&o.tenant_queueing),
        o.fleet_spent_bits_milli
    )
}

/// [`serving_surfaces`] of the storm served by the k-way merge the
/// calendar replaced, which scanned every tenant per served slot.
/// Recorded before the merge was removed.
const MERGE_STORM_SURFACES: &str = "log 11408 2050b0e1ee298505, traces 96001a335a175235, \
    clock 655360 rounds 10, shards [814, 825, 825, 799, 837, 809, 849, 810, 108, 118, 102, \
    105, 114, 132, 118, 106] retired 3937, queueing 80242400 service 84805600 p50 6025 \
    p99 25600, tenant slots 273be876dc7ff725 real 273be876dc7ff725 queueing \
    4904f3c391d934fe, spent milli-bits 0";

#[test]
fn k1024_storm_schedulers_agree_on_every_serving_surface() {
    // The calendar (one ring, slow entries aliased onto it) must serve
    // the storm exactly as the k-way merge did: the global serve log,
    // every tenant trace, the clock, and the full report. Session bytes
    // are left out: their calendar-occupancy samples are calendar state
    // the merge never had.
    let cal = run(spine_cfg(), ParallelKind::Serial, k1024_storm);
    util::assert_text_eq(
        "the merge's storm surfaces",
        &serving_surfaces(&cal),
        MERGE_STORM_SURFACES,
    );
}

#[test]
fn clock_past_2_pow_32_stays_sound() {
    // Million-round-horizon overflow regression: a slow tenant whose
    // period (2^27 cycles) dwarfs the calendar ring's span aliases
    // every pending entry onto the ring, where the pass check holds it
    // back, and driving the host past 2^32 virtual cycles runs the
    // audited cycle arithmetic (slot grids, frontiers, lane clocks,
    // pass numbers) far beyond 32-bit range. Debug builds also exercise the overflow debug_asserts.
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
    writeln!(
        out,
        "serve log: {} entries, fnv1a {:016x}",
        log.len(),
        util::serve_log_digest(log)
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
