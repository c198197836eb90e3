//! `paper_fig6`: the single-processor Fig. 6 experiment. The 11-benchmark
//! `figure6_lineup()` runs under `base_dram` and every scheme of
//! `Scheme::figure6_lineup()` through `Simulator::warm_caches` /
//! `run_warm` at a fixed instruction budget — the full in-order core
//! model, the rate learner and epochs of `RateLimitedOramBackend`, and
//! the power model. It bypasses `otc-host`.
//!
//! The lineup is the paper's, so the benchmark seed only permutes the
//! order the 66 (benchmark, scheme) runs execute in; every simulated
//! figure is independent of it.

use std::time::Instant;

use otc_core::{RateLimitedOramBackend, RatePolicy, Scheme, UnprotectedOramBackend};
use otc_dram::DdrConfig;
use otc_host::{PipelineConfig, ShardClass};
use otc_oram::{OramConfig, OramTiming};
use otc_power::PowerModel;
use otc_sim::{DramBackend, SimConfig, SimStats, Simulator};
use otc_workloads::SpecBenchmark;

use crate::metrics::{peak_rss_mb, Checks, Values};
use crate::probes::{self, Shape, SplitMix};
use crate::stats::{geomean, mean, mean_abs_error, median, tail, LayerCost};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

/// Instructions measured per (benchmark, scheme) run.
const INSTRUCTIONS: u64 = 200_000;
/// Instructions fast-forwarded over flat DRAM before measuring.
const WARMUP: u64 = 200_000;

/// The §9.3 figures and the paper's value for each, in percent.
const PAPER_FIGURES: [(&str, &str, f64); 6] = [
    (
        "paper.dyn_vs_oram_perf_pct",
        "dynamic_R4_E4 vs base_oram, performance",
        20.0,
    ),
    (
        "paper.dyn_vs_oram_power_pct",
        "dynamic_R4_E4 vs base_oram, power",
        12.0,
    ),
    (
        "paper.static500_power_pct",
        "static_500 power vs dynamic",
        34.0,
    ),
    (
        "paper.static1300_perf_pct",
        "static_1300 performance vs dynamic",
        30.0,
    ),
    (
        "paper.static300_power_pct",
        "static_300 power vs dynamic",
        47.0,
    ),
    ("paper.dummy_pct", "dynamic_R4_E4 dummy accesses", 34.0),
];
/// The paper's leakage bound for `dynamic_R4_E4`, in bits.
const PAPER_LEAK_BITS: f64 = 32.0;

/// One (benchmark, scheme) run.
struct Run {
    bench: usize,
    scheme: usize,
    /// Position in the lineup's execution order.
    pos: usize,
    setup_s: f64,
    run_s: f64,
    stats: SimStats,
    watts: f64,
    dummy_fraction: f64,
    transitions: u64,
}

/// The lineup's backends, kept concrete: `Scheme::build_backend` boxes
/// them behind `MemoryBackend`, which hides the rate-limited backend's
/// dummy fraction and epoch transitions.
enum Backend {
    Dram(DramBackend),
    Plain(Box<UnprotectedOramBackend>),
    Limited(Box<RateLimitedOramBackend>),
}

fn schemes() -> Vec<Scheme> {
    let mut s = vec![Scheme::BaseDram];
    s.extend(Scheme::figure6_lineup());
    s
}

fn build(scheme: &Scheme, oram: &OramConfig, ddr: &DdrConfig) -> Backend {
    let limited = |policy| {
        Backend::Limited(Box::new(
            RateLimitedOramBackend::new(oram.clone(), ddr, policy).expect("paper geometry"),
        ))
    };
    match scheme {
        Scheme::BaseDram => Backend::Dram(DramBackend::new()),
        Scheme::BaseOram => Backend::Plain(Box::new(
            UnprotectedOramBackend::new(oram.clone(), ddr).expect("paper geometry"),
        )),
        Scheme::Static { rate } => limited(RatePolicy::Static { rate: *rate }),
        Scheme::Dynamic {
            rate_count,
            schedule,
            ..
        } => limited(RatePolicy::Dynamic {
            rates: otc_core::RateSet::paper(*rate_count),
            schedule: *schedule,
            divider: otc_core::DividerImpl::ShiftRegister,
            initial_rate: 10_000,
        }),
    }
}

fn one(
    bench: SpecBenchmark,
    scheme: &Scheme,
    budget: (u64, u64),
    power: &PowerModel,
    tracer: &mut Tracer,
) -> (f64, f64, SimStats, f64, f64, u64) {
    let (instructions, warmup) = budget;
    let sim = Simulator::new(SimConfig::default().with_llc_capacity(1 << 20));
    let ddr = DdrConfig::default();
    let oram = OramConfig::paper();
    let mut workload = bench.workload(instructions);
    let t0 = Instant::now();
    let mut backend = tracer.span("sim.build_backend", || build(scheme, &oram, &ddr));
    let warm = tracer.span("sim.warm", || sim.warm_caches(&mut workload, warmup));
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (stats, dummy, transitions) = match &mut backend {
        Backend::Dram(b) => {
            let s = tracer.span("sim.run_base_dram", || {
                sim.run_warm(&mut workload, b, instructions, warm)
            });
            (s, 0.0, 0)
        }
        Backend::Plain(b) => {
            let s = tracer.span("sim.run_oram", || {
                sim.run_warm(&mut workload, b.as_mut(), instructions, warm)
            });
            (s, 0.0, 0)
        }
        Backend::Limited(b) => {
            let s = tracer.span("sim.run_oram", || {
                sim.run_warm(&mut workload, b.as_mut(), instructions, warm)
            });
            (s, b.dummy_fraction(), b.transitions().len() as u64)
        }
    };
    let run_s = t1.elapsed().as_secs_f64();
    let watts = tracer.span("power.model", || power.power(&stats).total_watts());
    (setup_s, run_s, stats, watts, dummy, transitions)
}

/// One full lineup, in the seed's order.
fn lineup(ctx: &Ctx, tracer: &mut Tracer) -> Vec<Run> {
    let benches = benches(ctx);
    let schemes = schemes();
    let budget = if ctx.smoke {
        (20_000, 20_000)
    } else {
        (INSTRUCTIONS, WARMUP)
    };
    let ddr = DdrConfig::default();
    let timing = OramTiming::derive(&OramConfig::paper(), &ddr);
    let power =
        PowerModel::paper().with_oram_access(timing.chunks_per_access(), timing.dram_cycles);
    let mut order: Vec<(usize, usize)> = (0..benches.len())
        .flat_map(|b| (0..schemes.len()).map(move |s| (b, s)))
        .collect();
    let mut rng = SplitMix(ctx.seed ^ 0xF166);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    tracer.enter("lineup");
    let mut runs: Vec<Run> = order
        .into_iter()
        .enumerate()
        .map(|(pos, (b, s))| {
            let (setup_s, run_s, stats, watts, dummy_fraction, transitions) =
                one(benches[b], &schemes[s], budget, &power, tracer);
            Run {
                bench: b,
                scheme: s,
                pos,
                setup_s,
                run_s,
                stats,
                watts,
                dummy_fraction,
                transitions,
            }
        })
        .collect();
    tracer.exit();
    runs.sort_by_key(|r| (r.bench, r.scheme));
    runs
}

fn benches(ctx: &Ctx) -> Vec<SpecBenchmark> {
    let all = SpecBenchmark::figure6_lineup();
    if ctx.smoke {
        all[..2].to_vec()
    } else {
        all
    }
}

/// The §9.3 figures of one lineup, in [`PAPER_FIGURES`] order, plus the
/// measured leakage (max transitions × lg|R| over the dynamic runs).
fn figures(runs: &[Run], n_bench: usize) -> (Vec<f64>, f64) {
    let labels: Vec<String> = schemes().iter().map(Scheme::label).collect();
    let idx = |l: &str| {
        labels
            .iter()
            .position(|x| x == l)
            .expect("scheme in lineup")
    };
    let at = |b: usize, s: usize| &runs[b * labels.len() + s];
    let perf = |s: usize| {
        geomean(
            &(0..n_bench)
                .map(|b| at(b, s).stats.cycles as f64 / at(b, 0).stats.cycles.max(1) as f64)
                .collect::<Vec<_>>(),
        )
    };
    let power = |s: usize| mean(&(0..n_bench).map(|b| at(b, s).watts).collect::<Vec<_>>());
    let (dynamic, oram) = (idx("dynamic_R4_E4"), idx("base_oram"));
    let pct = |a: f64, b: f64| (a / b - 1.0) * 100.0;
    let figs = vec![
        pct(perf(dynamic), perf(oram)),
        pct(power(dynamic), power(oram)),
        pct(power(idx("static_500")), power(dynamic)),
        pct(perf(idx("static_1300")), perf(dynamic)),
        pct(power(idx("static_300")), power(dynamic)),
        mean(
            &(0..n_bench)
                .map(|b| at(b, dynamic).dummy_fraction)
                .collect::<Vec<_>>(),
        ) * 100.0,
    ];
    let lg_r = 4f64.log2();
    let leak = (0..n_bench)
        .map(|b| at(b, dynamic).transitions as f64 * lg_r)
        .fold(0.0, f64::max);
    (figs, leak)
}

/// How much slower the first 16 runs a lineup executes are than the same
/// (benchmark, scheme) runs typically are: Σ their times ÷ Σ the median
/// time of each across lineups, averaged over lineups. Runs differ in
/// cost, so each is compared with itself.
fn first16_ratio(lineups: &[Vec<Run>]) -> f64 {
    let typical: Vec<f64> = (0..lineups[0].len())
        .map(|i| median(&lineups.iter().map(|l| l[i].run_s).collect::<Vec<_>>()))
        .collect();
    mean(
        &lineups
            .iter()
            .map(|l| {
                let first: Vec<usize> = (0..l.len()).filter(|&i| l[i].pos < 16).collect();
                first.iter().map(|&i| l[i].run_s).sum::<f64>()
                    / first.iter().map(|&i| typical[i]).sum::<f64>()
            })
            .collect::<Vec<_>>(),
    )
}

fn digest(runs: &[Run]) -> Vec<(&'static str, u64)> {
    runs.iter()
        .flat_map(|r| {
            [
                ("cycles", r.stats.cycles),
                ("oram_accesses", r.stats.backend.oram_accesses),
            ]
        })
        .collect()
}

fn oram_accesses(runs: &[Run]) -> u64 {
    runs.iter().map(|r| r.stats.backend.oram_accesses).sum()
}

/// End-to-end metrics: host-time medians over lineups, simulated figures
/// from the first lineup (all lineups are checked identical).
fn end_to_end(lineups: &[Vec<Run>]) -> Values {
    let mut v = Values::default();
    let per = |f: &dyn Fn(&[Run]) -> f64| median(&lineups.iter().map(|l| f(l)).collect::<Vec<_>>());
    v.set(
        "setup_s",
        per(&|l| median(&l.iter().map(|r| r.setup_s).collect::<Vec<_>>())),
    );
    v.set(
        "slots_per_s",
        per(&|l| {
            let oram: Vec<&Run> = l.iter().filter(|r| r.scheme != 0).collect();
            oram.iter()
                .map(|r| r.stats.backend.oram_accesses)
                .sum::<u64>() as f64
                / oram.iter().map(|r| r.run_s).sum::<f64>()
        }),
    );
    v.set(
        "sim_minstr_per_s",
        per(&|l| {
            l.iter().map(|r| r.stats.instructions).sum::<u64>() as f64
                / l.iter().map(|r| r.run_s).sum::<f64>()
                / 1e6
        }),
    );
    v.set("peak_rss_mb", peak_rss_mb());
    let dynamic = dynamic_index();
    let dyn_runs: Vec<&Run> = lineups[0].iter().filter(|r| r.scheme == dynamic).collect();
    let real: u64 = dyn_runs
        .iter()
        .map(|r| r.stats.backend.oram_accesses - r.stats.backend.oram_dummy_accesses)
        .sum();
    let cycles: u64 = dyn_runs.iter().map(|r| r.stats.cycles).sum();
    v.set("real_per_mcycle", real as f64 / (cycles as f64 / 1e6));
    v.set(
        "real_fraction",
        mean(
            &dyn_runs
                .iter()
                .map(|r| 1.0 - r.dummy_fraction)
                .collect::<Vec<_>>(),
        ),
    );
    v
}

fn dynamic_index() -> usize {
    schemes()
        .iter()
        .position(|s| s.label() == "dynamic_R4_E4")
        .expect("dynamic scheme in lineup")
}

fn repeat(ctx: &Ctx, budget_s: f64, tracer: &mut Tracer) -> Vec<Vec<Run>> {
    let start = Instant::now();
    let mut lineups = Vec::new();
    while lineups.len() < 2 || start.elapsed().as_secs_f64() < budget_s {
        lineups.push(lineup(ctx, tracer));
    }
    lineups
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut checks = Checks::default();
    let mut notes = Vec::new();
    let budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let n_bench = benches(ctx).len();
    let instructions = if ctx.smoke { 20_000 } else { INSTRUCTIONS };
    let mut off = Tracer::new(false, ctx.run_id);
    let lineups = repeat(ctx, budget, &mut off);
    let first = digest(&lineups[0]);
    for (i, l) in lineups.iter().enumerate().skip(1) {
        let diff = crate::stats::digest_mismatches(&first, &digest(l));
        checks.check(diff.is_empty(), || {
            format!(
                "lineup {i} diverged from the first: {} fields differ",
                diff.len()
            )
        });
    }
    for r in &lineups[0] {
        checks.check(r.stats.instructions == instructions, || {
            format!(
                "run ({}, {}) retired {} of {instructions} instructions",
                r.bench, r.scheme, r.stats.instructions
            )
        });
    }
    let (figs, leak) = figures(&lineups[0], n_bench);
    let bound = Scheme::dynamic(4, 4).oram_timing_leakage_bits();
    checks.check(leak <= bound, || {
        format!("dynamic runs revealed {leak} bits, over the {bound}-bit bound")
    });
    let paper: Vec<f64> = PAPER_FIGURES.iter().map(|f| f.2).collect();
    let err = mean_abs_error(&figs, &paper);
    notes.push(format!(
        "{} lineups of {} runs at {instructions} instructions; no hardware reference is in the repo, \
         so beyond these figures the model is unvalidated",
        lineups.len(),
        lineups[0].len()
    ));
    for ((_, what, want), got) in PAPER_FIGURES.iter().zip(&figs) {
        notes.push(format!(
            "{what:<42} measured {got:>+8.2}%  paper {want:>+6.1}%  error {:>6.2} pp",
            (got - want).abs()
        ));
    }
    notes.push(format!(
        "{:<42} measured {leak:>8.1}   paper <= {PAPER_LEAK_BITS} bits (bound {bound})",
        "dynamic_R4_E4 leakage, bits"
    ));
    notes.push(format!(
        "mean absolute error of the six figures: {err:.2} pp"
    ));
    let e2e = end_to_end(&lineups);
    let mut layer = Values::per_layer_defaults();
    if ctx.trace {
        let mut tracer = Tracer::new(true, ctx.run_id);
        tracer.enter("run");
        let traced = repeat(ctx, budget, &mut tracer);
        tracer.exit();
        for l in &traced {
            let diff = crate::stats::digest_mismatches(&first, &digest(l));
            checks.check(diff.is_empty(), || "a traced lineup diverged".into());
        }
        let steps: Vec<f64> = traced
            .iter()
            .flat_map(|l| l.iter().map(|r| r.run_s * 1e3))
            .collect();
        let setups: Vec<f64> = traced
            .iter()
            .flat_map(|l| l.iter().map(|r| r.setup_s * 1e3))
            .collect();
        let (tail_pct, tail_ms) = tail(&steps);
        let p50 = median(&steps);
        layer.set("setup_ms.p50", median(&setups));
        layer.set("step_ms.p50", p50);
        layer.set("step_ms.tail", tail_ms);
        layer.set("step_ms.tail_pct", tail_pct);
        layer.set("step_ms.n", steps.len() as f64);
        layer.set("step_ms.first16_ratio", first16_ratio(&traced));
        let l0 = &lineups[0];
        let dynamic = dynamic_index();
        layer.set("sim.oram_accesses", oram_accesses(l0) as f64);
        layer.set(
            "core.transitions",
            l0.iter()
                .filter(|r| r.scheme == dynamic)
                .map(|r| r.transitions)
                .sum::<u64>() as f64,
        );
        layer.set(
            "traffic.instr_retired",
            l0.iter().map(|r| r.stats.instructions).sum::<u64>() as f64,
        );
        for ((metric, _, _), got) in PAPER_FIGURES.iter().zip(&figs) {
            layer.set(metric, *got);
        }
        layer.set("paper.leak_bits", leak);
        layer.set("paper.err_pp", err);
        let olat = OramTiming::derive(&OramConfig::paper(), &DdrConfig::default()).latency;
        let shape = Shape {
            oram: OramConfig::paper(),
            pool: vec![ShardClass {
                oram: OramConfig::paper(),
                pipeline: PipelineConfig::serial(),
            }],
            shards: 1,
            periods: [300u64, 500, 1300].iter().map(|r| r + olat).collect(),
            policy: RatePolicy::dynamic_paper(4, 4),
            benches: benches(ctx),
            instructions: INSTRUCTIONS + WARMUP,
            pool_accesses: oram_accesses(l0) / (l0.len() as u64 - n_bench as u64),
            olat,
            quantum: 1 << 16,
        };
        probes::run_all(&shape, ctx.seed, ctx.probe_scale(), &mut layer);
        // Every ORAM access is one path access; every rate-limited slot
        // is also one slot-stream serve.
        let limited_slots: u64 = l0
            .iter()
            .filter(|r| r.scheme >= 2)
            .map(|r| r.stats.backend.oram_accesses)
            .sum();
        let costs = [
            LayerCost {
                layer: "attrib.shard",
                calls: oram_accesses(l0) as f64,
                ns_per_call: layer.get("shard.access_ns").unwrap_or(0.0),
            },
            LayerCost {
                layer: "attrib.stream",
                calls: limited_slots as f64,
                ns_per_call: layer.get("stream.serve_ns").unwrap_or(0.0),
            },
        ];
        let step_ns = (tracer.total_ns("sim.run_base_dram") + tracer.total_ns("sim.run_oram"))
            / traced.len() as f64;
        notes.push(crate::attribute(&costs, step_ns, &mut layer));
        crate::self_shares(&tracer, &mut layer);
        crate::trace_overhead(&e2e, &end_to_end(&traced), &mut layer);
        crate::write_spans(ctx, &tracer, &mut notes);
    }
    Outcome {
        e2e,
        layer,
        checks,
        notes,
        executor: "single processor, no host",
    }
}
