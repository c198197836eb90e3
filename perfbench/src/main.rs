//! The repo benchmark. One binary runs one seeded workload, checks its
//! outputs, and prints every metric by name with its unit; the last line
//! of standard output is the JSON result:
//!
//! ```text
//! perfbench --workload spine_k1024|closed_churn|paper_fig6 --seed N \
//!           --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics (spans, probes, counts, attribution) and writes its spans to
//! `$CARGO_TARGET_DIR/perfbench/spans-<workload>-<seed>.jsonl`.
//! `--smoke` shrinks every workload to a few seconds; `--workload all`
//! runs the three in turn (the JSON line then counts every workload's
//! checks and carries the last one's metrics). The exit code is non-zero
//! when any
//! correctness check fails.

mod churn;
mod fig6;
mod fleet;
mod metrics;
mod probes;
mod spine;
mod stats;
mod trace;

use metrics::{json_number, Checks, Values, END_TO_END, PER_LAYER};
use stats::LayerCost;
use trace::Tracer;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["spine_k1024", "closed_churn", "paper_fig6"];

/// One invocation's settings.
pub struct Ctx {
    /// Benchmark seed: every input is generated from it.
    pub seed: u64,
    /// Seconds each measuring phase runs for.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Shrunken sizes for a quick end-to-end smoke test.
    pub smoke: bool,
    /// Id shared by every span of this workload run.
    pub run_id: u64,
    /// Workload name, for file names.
    pub workload: &'static str,
}

impl Ctx {
    /// Probe call-count scale: full size normally, tiny under `--smoke`.
    pub fn probe_scale(&self) -> f64 {
        if self.smoke {
            0.02
        } else {
            1.0
        }
    }
}

/// What a workload run produced.
pub struct Outcome {
    /// End-to-end metrics (untraced).
    pub e2e: Values,
    /// Per-layer metrics (filled by the traced run only).
    pub layer: Values,
    /// Operations and correctness checks.
    pub checks: Checks,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Executor the timed host ran on.
    pub executor: &'static str,
}

/// Stores the attribution of `step_ns` to layers, and the remainder;
/// returns a note naming the top layer.
pub fn attribute(costs: &[LayerCost], step_ns: f64, out: &mut Values) -> String {
    let (shares, rest) = stats::attribution(costs, step_ns);
    for (layer, share) in &shares {
        out.set(layer, *share);
    }
    out.set("attrib.unexplained", rest);
    let (top, share) =
        shares.iter().copied().fold(
            ("attrib.unexplained", rest),
            |a, b| if b.1 > a.1 { b } else { a },
        );
    format!(
        "top layer of the step time: {top} ({:.1}%), unexplained {:.1}%",
        share * 100.0,
        rest * 100.0
    )
}

/// Span names whose self time is reported, and the metric each feeds.
/// Spans the benchmark opens around its own code (`run`, `instance`,
/// `lineup`) fold into `self.bench`.
const SELF_SPANS: [(&str, &str); 11] = [
    ("host.new", "self.host.new"),
    ("host.admit", "self.host.admit"),
    ("host.step_round", "self.host.step_round"),
    ("host.churn", "self.host.churn"),
    ("perf.finish", "self.perf.finish"),
    ("perf.open", "self.perf.open"),
    ("sim.build_backend", "self.sim.build_backend"),
    ("sim.warm", "self.sim.warm"),
    ("sim.run_base_dram", "self.sim.run_base_dram"),
    ("sim.run_oram", "self.sim.run_oram"),
    ("power.model", "self.power.model"),
];

/// Self time of each span name as a share of the traced `run` span.
pub fn self_shares(tracer: &Tracer, out: &mut Values) {
    let total = tracer.total_ns("run");
    let own = tracer.self_ns();
    let mut bench = total;
    for (span, metric) in SELF_SPANS {
        let ns = own.get(span).copied().unwrap_or(0.0);
        bench -= ns;
        out.set(metric, if total > 0.0 { ns / total } else { 0.0 });
    }
    out.set("self.bench", if total > 0.0 { bench / total } else { 0.0 });
}

/// Tracing overhead: how much slower the traced repetitions served
/// slots than the untraced ones, in percent.
pub fn trace_overhead(untraced: &Values, traced: &Values, out: &mut Values) {
    let u = untraced.get("slots_per_s").unwrap_or(0.0);
    let t = traced.get("slots_per_s").unwrap_or(0.0);
    out.set(
        "trace.overhead_pct",
        if u > 0.0 { (u - t) / u * 100.0 } else { 0.0 },
    );
}

/// Writes the traced run's spans beside the build output.
pub fn write_spans(ctx: &Ctx, tracer: &Tracer, notes: &mut Vec<String>) {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let path = std::path::Path::new(&dir)
        .join("perfbench")
        .join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed));
    match tracer.write_jsonl(&path) {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            tracer.len(),
            path.display()
        )),
        Err(e) => notes.push(format!("could not write spans to {}: {e}", path.display())),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload {{{}|all}} --seed N --seconds S --trace 0|1 [--smoke]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = val(),
            "--seed" => args.seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = val().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => args.smoke = true,
            _ => usage(),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        usage();
    }
    args
}

/// Build and host context recorded beside every result, so results from
/// different hosts or toolchains are never compared unknowingly.
fn context_line(ctx: &Ctx, executor: &str) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "context {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"executor\": \"{executor}\", \"available_parallelism\": {parallelism}, \
         \"rustc\": \"{}\", \"commit\": \"{}\", \"source_sha256\": \"{}\"}}",
        ctx.workload,
        ctx.seed,
        json_number(ctx.seconds),
        u8::from(ctx.trace),
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_COMMIT"),
        env("PERFBENCH_SOURCE_SHA256"),
    )
}

/// Runs the workload `ctx` names.
fn dispatch(ctx: &Ctx) -> Outcome {
    match ctx.workload {
        "spine_k1024" => spine::run(ctx),
        "closed_churn" => churn::run(ctx),
        _ => fig6::run(ctx),
    }
}

fn run_one(name: &'static str, args: &Args) -> Outcome {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        run_id: args.seed ^ (WORKLOADS.iter().position(|w| *w == name).unwrap_or(0) as u64) << 56,
        workload: name,
    };
    let out = dispatch(&ctx);
    println!("{}", context_line(&ctx, out.executor));
    for n in &out.notes {
        println!("  {name}: {n}");
    }
    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    let values = if args.trace { &out.layer } else { &out.e2e };
    for (metric, unit) in registry {
        println!(
            "  {name}: {metric:<30} {:>16} {unit}",
            values.get(metric).map_or("-".into(), json_number)
        );
    }
    for f in &out.checks.failures {
        println!("  {name}: CHECK FAILED: {f}");
    }
    out
}

fn main() {
    let args = parse_args();
    let names: Vec<&'static str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        WORKLOADS
            .iter()
            .copied()
            .filter(|w| *w == args.workload)
            .collect()
    };
    let mut attempted = 0;
    let mut failed = 0;
    let mut last = None;
    for name in names {
        let out = run_one(name, &args);
        attempted += out.checks.attempted;
        failed += out.checks.failed;
        last = Some(out);
    }
    let out = last.expect("at least one workload ran");
    let (registry, values) = if args.trace {
        (PER_LAYER, &out.layer)
    } else {
        (END_TO_END, &out.e2e)
    };
    let metrics = match values.to_json(registry) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &'static str, trace: bool) -> Outcome {
        dispatch(&Ctx {
            seed: 7,
            seconds: 0.0,
            trace,
            smoke: true,
            run_id: 7,
            workload,
        })
    }

    /// The smoke mode runs every workload end to end, untraced and
    /// traced, with every check passing and every metric measured.
    #[test]
    fn smoke_runs_every_workload() {
        for w in WORKLOADS {
            let plain = smoke(w, false);
            assert_eq!(plain.checks.failures, Vec::<String>::new(), "{w}");
            assert!(plain.checks.attempted > 0, "{w}");
            plain
                .e2e
                .to_json(END_TO_END)
                .expect("every end-to-end metric");
            let traced = smoke(w, true);
            assert_eq!(traced.checks.failures, Vec::<String>::new(), "{w} traced");
            traced
                .layer
                .to_json(PER_LAYER)
                .expect("every per-layer metric");
        }
    }

    /// Generated churn scenarios survive the text front door for any seed.
    #[test]
    fn churn_scenarios_round_trip() {
        for seed in 0..16 {
            let spec = churn::scenario(seed, 192);
            assert_eq!(otc_host::parse_scenario(&spec.render()).as_ref(), Ok(&spec));
        }
    }
}
