//! `closed_churn`: a generated `ScenarioSpec` served with churn. Closed-
//! loop tenants run full stepped cores whose instruction budgets never
//! run out; the pool is `small:serial,small:staged` at cadence pricing;
//! rates are unequal statics or `dynamic_R4_E4`; some tenants ride
//! bursty or diurnal traffic and one seat is a probe adversary. The
//! roster is offered past the admission ceiling, then a churn schedule
//! evicts, grows the pool, re-admits and shrinks it back, while a perf
//! session records every round. The executor is `Threads(1)`: the spine
//! plus one worker.
//!
//! The roster and the churn schedule are fixed so that load is
//! comparable across seeds; the benchmark seed picks the host's protocol
//! seed and every traffic model's seed and phase.

use std::time::Instant;

use otc_core::RatePolicy;
use otc_host::{
    parse_scenario, AdversaryKind, CapacityKind, LoopMode, MultiTenantHost, OramChoice,
    ParallelKind, PipelineConfig, PipelineKind, ScenarioAction, ScenarioEvent, ScenarioHost,
    ScenarioSpec, ScenarioTenant, SchedulerKind, ShardClass, TenantSpec, TrafficModel,
};
use otc_oram::{OramConfig, OramTiming};
use otc_workloads::SpecBenchmark;

use crate::fleet::{self, FleetRun};
use crate::metrics::{Checks, Values};
use crate::probes::{self, Shape, SplitMix};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

/// Shards before and after the pool grows.
const SHARDS: usize = 4;
const GROWN: usize = 6;
/// Rounds per timed repetition.
const ROUNDS: u64 = 192;
/// Instruction budget of every tenant: far beyond what a run retires.
const INSTRUCTIONS: u64 = 1 << 40;

/// Traffic shaping a roster seat asks for.
#[derive(Clone, Copy)]
enum Shaping {
    Workload,
    Bursty,
    Diurnal,
}

/// The offered roster, in admission order: (benchmark, scheme, closed
/// loop, traffic). Seat 0 is the probe adversary; the seats past the
/// admission ceiling are refused.
const ROSTER: [(SpecBenchmark, &str, bool, Shaping); 16] = [
    (SpecBenchmark::Sjeng, "static_900", false, Shaping::Workload),
    (SpecBenchmark::Mcf, "dynamic_R4_E4", true, Shaping::Workload),
    (SpecBenchmark::Gcc, "dynamic_R4_E4", true, Shaping::Bursty),
    (
        SpecBenchmark::Libquantum,
        "static_1300",
        true,
        Shaping::Diurnal,
    ),
    (SpecBenchmark::Gobmk, "static_1300", true, Shaping::Workload),
    (SpecBenchmark::Omnetpp, "static_900", true, Shaping::Bursty),
    (SpecBenchmark::Hmmer, "static_2000", true, Shaping::Diurnal),
    (SpecBenchmark::Bzip2, "static_900", true, Shaping::Workload),
    (
        SpecBenchmark::H264ref,
        "dynamic_R4_E4",
        true,
        Shaping::Bursty,
    ),
    (
        SpecBenchmark::AstarBigLakes,
        "static_2000",
        false,
        Shaping::Diurnal,
    ),
    (
        SpecBenchmark::PerlbenchDiffmail,
        "static_1300",
        true,
        Shaping::Workload,
    ),
    (SpecBenchmark::Mcf, "static_600", true, Shaping::Bursty),
    (
        SpecBenchmark::Libquantum,
        "dynamic_R4_E4",
        true,
        Shaping::Diurnal,
    ),
    (SpecBenchmark::Gcc, "static_600", true, Shaping::Workload),
    (SpecBenchmark::Omnetpp, "static_900", true, Shaping::Bursty),
    (SpecBenchmark::Hmmer, "static_1300", true, Shaping::Diurnal),
];

/// Seats the churn schedule evicts and later re-admits.
const EVICTED: [usize; 2] = [2, 4];

/// Generates the scenario for `seed`.
pub fn scenario(seed: u64, rounds: u64) -> ScenarioSpec {
    let mut rng = SplitMix(seed ^ 0xC40B_5EED);
    let host = ScenarioHost {
        shards: SHARDS,
        oram: OramChoice::Small,
        pipeline: PipelineKind::Serial,
        capacity: CapacityKind::Cadence,
        scheduler: SchedulerKind::Calendar,
        threads: 1,
        quantum: 1 << 16,
        limit_bits: 64,
        seed: rng.next(),
        slots: 1,
        mix: vec![
            (OramChoice::Small, PipelineKind::Serial),
            (OramChoice::Small, PipelineKind::Staged),
        ],
    };
    let tenants = ROSTER
        .iter()
        .enumerate()
        .map(|(i, (bench, scheme, closed, shaping))| ScenarioTenant {
            name: format!("s{i}"),
            bench: *bench,
            scheme: scheme.to_string(),
            closed: *closed,
            traffic: match shaping {
                Shaping::Workload => TrafficModel::Workload,
                Shaping::Bursty => TrafficModel::Bursty {
                    mean_on: 40_000,
                    mean_off: 60_000,
                    seed: rng.next(),
                },
                Shaping::Diurnal => TrafficModel::Diurnal {
                    period: 400_000,
                    amplitude_ppm: 500_000,
                    phase_ppm: (rng.below(1_000_000)) as u32,
                },
            },
            adversary: (i == 0).then_some(AdversaryKind::Probe),
            instructions: Some(INSTRUCTIONS),
        })
        .collect();
    // Evict a dynamic-rate and a static-rate seat, grow, re-admit the
    // same two programs and schemes, shrink back.
    let evicted = EVICTED;
    let at = |f: u64| rounds * f / 6;
    let mut events: Vec<ScenarioEvent> = evicted
        .iter()
        .map(|&id| ScenarioEvent {
            round: at(1),
            action: ScenarioAction::Evict { id },
        })
        .collect();
    events.push(ScenarioEvent {
        round: at(2),
        action: ScenarioAction::Shards { n: GROWN },
    });
    for &id in &evicted {
        events.push(ScenarioEvent {
            round: at(3),
            action: ScenarioAction::Admit {
                bench: ROSTER[id].0,
                scheme: ROSTER[id].1.to_string(),
                closed: true,
            },
        });
    }
    events.push(ScenarioEvent {
        round: at(4),
        action: ScenarioAction::Shards { n: SHARDS },
    });
    ScenarioSpec {
        host,
        tenants,
        events,
    }
}

fn spec_of(t: &ScenarioTenant) -> TenantSpec {
    TenantSpec {
        name: t.name.clone(),
        benchmark: t.bench,
        policy: t.policy().expect("roster schemes parse"),
        instructions: t.instructions.unwrap_or(INSTRUCTIONS),
    }
}

/// Admits `spec` unless pricing says it cannot fit; checks the host's
/// decision against that prediction. Returns whether it was admitted.
fn admit(
    host: &mut MultiTenantHost,
    spec: &TenantSpec,
    how: impl FnOnce(&mut MultiTenantHost) -> Result<usize, otc_host::HostError>,
    checks: &mut Checks,
) -> bool {
    let fits = host.fleet_demand() + spec.worst_case_utilization(&host.capacity_model())
        <= host.capacity();
    let outcome = how(host);
    checks.check(outcome.is_ok() == fits, || {
        format!(
            "admitting {}: predicted {}, host said {:?}",
            spec.name,
            if fits { "admit" } else { "refuse" },
            outcome.as_ref().err()
        )
    });
    outcome.is_ok()
}

fn instance(
    spec: &ScenarioSpec,
    rounds: u64,
    parallel: ParallelKind,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> FleetRun {
    tracer.enter("instance");
    let t0 = Instant::now();
    let mut cfg = spec.host_config().expect("generated scenario builds");
    cfg.parallel = parallel;
    let mut host = tracer
        .span("host.new", || MultiTenantHost::new(cfg))
        .expect("the churn host builds");
    let mut admitted = 0u64;
    for t in &spec.tenants {
        let ts = spec_of(t);
        let ok = tracer.span("host.admit", || {
            admit(
                &mut host,
                &ts,
                |h| match t.adversary {
                    Some(kind) => h.admit_adversary(&ts, kind),
                    None => h.admit_with_traffic(
                        &ts,
                        if t.closed {
                            LoopMode::Closed
                        } else {
                            LoopMode::Open
                        },
                        t.traffic.clone(),
                    ),
                },
                checks,
            )
        });
        admitted += u64::from(ok);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    host.record_perf_session("perfbench closed_churn");
    let mut next = 0usize;
    let (round_ms, serve_s) = fleet::serve(&mut host, rounds, tracer, |round, host, tracer| {
        while next < spec.events.len() && spec.events[next].round <= round {
            let ev = &spec.events[next];
            next += 1;
            tracer.span("host.churn", || match &ev.action {
                ScenarioAction::Evict { id } => {
                    let r = host.evict(*id);
                    checks.check(r.is_ok(), || format!("evicting {id}: {:?}", r.err()));
                }
                ScenarioAction::Shards { n } => {
                    let r = host.resize_shards(*n);
                    checks.check(r.is_ok(), || format!("resizing to {n}: {:?}", r.err()));
                }
                ScenarioAction::Admit {
                    bench,
                    scheme,
                    closed,
                } => {
                    let ts = TenantSpec {
                        name: format!("c{}", host.tenant_count()),
                        benchmark: *bench,
                        policy: otc_host::parse_scheme(scheme).expect("roster scheme"),
                        instructions: INSTRUCTIONS,
                    };
                    let mode = if *closed {
                        LoopMode::Closed
                    } else {
                        LoopMode::Open
                    };
                    admitted += u64::from(admit(host, &ts, |h| h.admit(&ts, mode), checks));
                }
            });
        }
    });
    let (session, session_bytes) = fleet::finish_session(&mut host, rounds, tracer, checks);
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
    checks.check(next == spec.events.len(), || {
        "some churn events never fired".into()
    });
    run
}

fn repeat(
    spec: &ScenarioSpec,
    rounds: u64,
    budget_s: f64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Vec<FleetRun> {
    let start = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < 2 || start.elapsed().as_secs_f64() < budget_s {
        let mut run = instance(spec, rounds, ParallelKind::Threads(1), tracer, checks);
        // Only the first repetition's decoded session is read later;
        // holding every one would make peak memory grow with the number
        // of repetitions, i.e. with host speed.
        if !runs.is_empty() {
            run.session = None;
        }
        runs.push(run);
    }
    runs
}

fn shape(spec: &ScenarioSpec, pool_accesses: u64) -> Shape {
    let small = OramConfig::small();
    let olat = OramTiming::derive(&small, &otc_dram::DdrConfig::default()).latency;
    Shape {
        oram: small.clone(),
        pool: vec![
            ShardClass {
                oram: small.clone(),
                pipeline: PipelineConfig::serial(),
            },
            ShardClass {
                oram: small,
                pipeline: PipelineConfig::staged(),
            },
        ],
        shards: SHARDS,
        periods: spec
            .tenants
            .iter()
            .map(|t| t.policy().map_or(olat, |p| p.fastest_rate()) + olat)
            .collect(),
        policy: RatePolicy::dynamic_paper(4, 4),
        benches: spec.tenants.iter().map(|t| t.bench).collect(),
        instructions: INSTRUCTIONS,
        pool_accesses,
        olat,
        quantum: spec.host.quantum,
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut checks = Checks::default();
    let mut notes = Vec::new();
    let rounds = if ctx.smoke { 12 } else { ROUNDS };
    let generated = scenario(ctx.seed, rounds);
    // The generated spec goes through the text front door and back.
    let spec = parse_scenario(&generated.render());
    checks.check(spec.as_ref().is_ok_and(|s| *s == generated), || {
        format!(
            "scenario does not survive render + parse: {:?}",
            spec.as_ref().err()
        )
    });
    let spec = spec.unwrap_or(generated);
    let mut off = Tracer::new(false, ctx.run_id);
    // Once per invocation, outside the timed runs: the serial executor
    // must reproduce the threaded digest and session exactly.
    let serial = instance(&spec, rounds, ParallelKind::Serial, &mut off, &mut checks);
    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let mut runs = repeat(&spec, rounds, budget, &mut off, &mut checks);
    runs.insert(0, serial);
    fleet::check_repeatable(&runs, &mut checks);
    checks.check(runs[0].session == runs[1].session, || {
        "serial and Threads(1) sessions differ".into()
    });
    let serial = runs.remove(0);
    let e2e = fleet::end_to_end(&runs);
    let r = &runs[0];
    let offered = spec.tenants.len()
        + spec
            .events
            .iter()
            .filter(|e| matches!(e.action, ScenarioAction::Admit { .. }))
            .count();
    notes.push(format!(
        "{} repetitions of {} rounds; {} of {} offered tenants admitted ({} refusals, as priced); \
         real/dummy split {}/{}; {} instructions retired; p99 service {} cycles; ledger {:.1} of {:.1} bits",
        runs.len(),
        r.rounds,
        r.admitted,
        offered,
        r.admissions_denied,
        r.real(),
        r.slots() - r.real(),
        r.instructions(),
        r.report.p99_service_cycles,
        r.report.fleet_spent_bits,
        r.report.fleet_budget_bits,
    ));
    notes.push(format!(
        "serial vs Threads(1) digest: {}",
        if crate::stats::digest_mismatches(&serial.digest(), &r.digest()).is_empty() {
            "identical"
        } else {
            "DIFFERENT"
        }
    ));
    notes.push(fleet::repetition_note(&runs));
    let mut layer = Values::per_layer_defaults();
    if ctx.trace {
        let mut tracer = Tracer::new(true, ctx.run_id);
        tracer.enter("run");
        let traced = repeat(&spec, rounds, budget, &mut tracer, &mut checks);
        tracer.exit();
        let mut all = vec![serial];
        all.extend(traced);
        fleet::check_repeatable(&all, &mut checks);
        let traced = &all[1..];
        fleet::step_metrics(traced, &mut layer);
        fleet::layer_counts(&traced[0], &mut layer);
        probes::run_all(
            &shape(&spec, traced[0].slots()),
            ctx.seed,
            ctx.probe_scale(),
            &mut layer,
        );
        let costs = fleet::layer_costs(&traced[0], &layer, true, true);
        let step_ns = tracer.total_ns("host.step_round") / traced.len() as f64;
        notes.push(crate::attribute(&costs, step_ns, &mut layer));
        notes.push(format!(
            "step time per served slot {:.1} us; probes: shard access {:.1} us, ORAM read {:.1} us",
            step_ns / traced[0].slots() as f64 / 1e3,
            layer.get("shard.access_ns").unwrap_or(0.0) / 1e3,
            layer.get("oram.read_ns").unwrap_or(0.0) / 1e3,
        ));
        crate::self_shares(&tracer, &mut layer);
        crate::trace_overhead(&e2e, &fleet::end_to_end(traced), &mut layer);
        crate::write_spans(ctx, &tracer, &mut notes);
    }
    Outcome {
        e2e,
        layer,
        checks,
        notes,
        executor: "Threads(1)",
    }
}
