//! Shared experiment harness for the per-figure/per-table bench targets.
//!
//! Each `benches/*.rs` target (run via `cargo bench`) regenerates one
//! table or figure from the paper's evaluation (§9), printing the
//! reproduction's rows next to the paper's reference numbers. This crate
//! holds the common machinery: one run path that warms a benchmark's
//! caches and runs it under a scheme on the cycle-level simulator
//! ([`run_stream`], or [`run_policy`] for a rate policy outside the
//! catalog), the metrics the paper reports, and one sweep of a scheme
//! lineup over the Fig. 6 benchmarks ([`lineup`]) behind Figs. 6, 8a and
//! 8b. Schemes, their policies and their backends come from
//! [`Scheme`]'s catalog.
//!
//! Every run uses the paper's machine: its ORAM geometry, a 1 MiB LLC
//! ([`SimConfig::default`]), and a 1 M-instruction warm-up over flat
//! DRAM before measurement (the paper fast-forwards 1-20 B instructions
//! to get out of initialization, §9.1.1). No run records its observable
//! trace.
//!
//! Scale note: instruction budgets default to a few million per run (the
//! paper runs billions) so `cargo bench --workspace` completes in
//! minutes; set `OTC_BENCH_INSTRUCTIONS` to raise them. Epoch schedules
//! are the scaled ones (first epoch 2^20 cycles, Tmax 2^52), which
//! preserve the paper's epoch counts and therefore its leakage bounds
//! exactly. ROADMAP item 3 records how the Fig. 6 figures move from
//! 200 K to 20 M instructions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use otc_core::{EpochTransition, RateLimitedOramBackend, RatePolicy, Scheme};
use otc_dram::DdrConfig;
use otc_oram::{OramConfig, OramTiming};
use otc_power::{PowerModel, PowerReport};
use otc_sim::{InstructionStream, MemoryBackend, SimConfig, SimStats, Simulator};
use otc_workloads::SpecBenchmark;

/// Instructions every run fast-forwards over flat DRAM before it is
/// measured.
const WARMUP_INSTRUCTIONS: u64 = 1_000_000;

/// Instruction budget per run: `OTC_BENCH_INSTRUCTIONS` or the default.
pub fn instruction_budget(default: u64) -> u64 {
    std::env::var("OTC_BENCH_INSTRUCTIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// What a figure sets for its runs: the instruction budget and window
/// sampling. The machine, the warm-up and trace recording are fixed
/// (see the crate docs).
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Instructions to retire.
    pub instructions: u64,
    /// Record a window sample every this many instructions (None = off).
    pub window_instructions: Option<u64>,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            instructions: 2_000_000,
            window_instructions: None,
        }
    }
}

/// The measurements one run produces.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Scheme label (`base_dram`, `dynamic_R4_E4`, …).
    pub scheme: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Raw simulator statistics.
    pub stats: SimStats,
    /// Power breakdown per the Table 2 model.
    pub power: PowerReport,
    /// Fraction of ORAM slots that were dummy accesses (0 for
    /// `base_dram`/`base_oram`).
    pub dummy_fraction: f64,
    /// Epoch transitions (dynamic schemes only).
    pub transitions: Vec<EpochTransition>,
}

impl RunResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }
}

/// Runs one benchmark under one scheme.
pub fn run_pair(bench: SpecBenchmark, scheme: &Scheme, cfg: &RunConfig) -> RunResult {
    let mut workload = bench.workload(cfg.instructions);
    run_stream(&mut workload, scheme, cfg)
}

/// Runs an arbitrary instruction stream under one scheme (used for the
/// malicious-program experiments, which are not SPEC-shaped).
pub fn run_stream<S>(workload: &mut S, scheme: &Scheme, cfg: &RunConfig) -> RunResult
where
    S: InstructionStream + ?Sized,
{
    match scheme.policy() {
        Some(policy) => run_policy(workload, policy, cfg),
        None => {
            let mut backend = scheme
                .build_backend(&OramConfig::paper(), &DdrConfig::default())
                .expect("valid ORAM config");
            warm_then_run(workload, backend.as_mut(), cfg)
        }
    }
}

/// Runs `workload` on a rate-limited ORAM enforcing `policy`: a
/// catalog scheme's ([`Scheme::policy`]), or one varied from it (the
/// learner ablation swaps its divider).
pub fn run_policy<S>(workload: &mut S, policy: RatePolicy, cfg: &RunConfig) -> RunResult
where
    S: InstructionStream + ?Sized,
{
    let mut backend =
        RateLimitedOramBackend::new(OramConfig::paper(), &DdrConfig::default(), policy)
            .expect("valid ORAM config");
    backend.set_trace_recording(false);
    let run = warm_then_run(workload, &mut backend, cfg);
    RunResult {
        dummy_fraction: backend.dummy_fraction(),
        transitions: backend.transitions().to_vec(),
        ..run
    }
}

/// The one run path: warms the caches over flat DRAM, runs
/// `cfg.instructions` on `backend`, and prices the run's power.
fn warm_then_run<S, B>(workload: &mut S, backend: &mut B, cfg: &RunConfig) -> RunResult
where
    S: InstructionStream + ?Sized,
    B: MemoryBackend + ?Sized,
{
    let sim = Simulator::new(SimConfig {
        window_instructions: cfg.window_instructions,
        ..SimConfig::default()
    });
    let timing = OramTiming::derive(&OramConfig::paper(), &DdrConfig::default());
    let power_model =
        PowerModel::paper().with_oram_access(timing.chunks_per_access(), timing.dram_cycles);
    let benchmark = workload.name().to_string();
    let warm = sim.warm_caches(workload, WARMUP_INSTRUCTIONS);
    let stats = sim.run_warm(workload, backend, cfg.instructions, warm);
    RunResult {
        scheme: backend.label(),
        benchmark,
        power: power_model.power(&stats),
        stats,
        dummy_fraction: 0.0,
        transitions: Vec::new(),
    }
}

/// Performance overhead of `run` relative to a `base` run of the same
/// benchmark: cycles ratio (same instruction count on both sides).
pub fn perf_overhead(run: &RunResult, base: &RunResult) -> f64 {
    run.stats.cycles as f64 / base.stats.cycles.max(1) as f64
}

/// A scheme lineup swept over [`SpecBenchmark::figure6_lineup`], each
/// benchmark's runs normalized to its `base_dram` run. Column `s` of
/// every table is `schemes[s]`, row `b` the `b`-th benchmark.
#[derive(Debug, Clone)]
pub struct Lineup {
    /// Column labels ([`Scheme::label`]).
    labels: Vec<String>,
    /// Row labels (benchmark short names).
    benches: Vec<String>,
    /// `overhead[s][b]`: performance overhead, × vs `base_dram`.
    pub overhead: Vec<Vec<f64>>,
    /// `power[s][b]`: total power, Watts.
    pub power: Vec<Vec<f64>>,
    /// `dummy[s][b]`: fraction of ORAM slots that were dummies.
    pub dummy: Vec<Vec<f64>>,
}

/// The one sweep behind Figs. 6, 8a and 8b: per benchmark, the
/// `base_dram` normalizer and then each of `schemes`.
pub fn lineup(schemes: &[Scheme], cfg: &RunConfig) -> Lineup {
    let benches = SpecBenchmark::figure6_lineup();
    let mut l = Lineup {
        labels: schemes.iter().map(Scheme::label).collect(),
        benches: benches.iter().map(|b| b.short_name().to_string()).collect(),
        overhead: vec![Vec::new(); schemes.len()],
        power: vec![Vec::new(); schemes.len()],
        dummy: vec![Vec::new(); schemes.len()],
    };
    for bench in benches {
        let base = run_pair(bench, &Scheme::BaseDram, cfg);
        for (s, scheme) in schemes.iter().enumerate() {
            let r = run_pair(bench, scheme, cfg);
            l.overhead[s].push(perf_overhead(&r, &base));
            l.power[s].push(r.power.total_watts());
            l.dummy[s].push(r.dummy_fraction);
        }
    }
    l
}

impl Lineup {
    /// Column of the scheme labelled `label`.
    ///
    /// # Panics
    ///
    /// Panics if no scheme of the lineup carries that label.
    pub fn column(&self, label: &str) -> usize {
        self.labels
            .iter()
            .position(|l| l == label)
            .unwrap_or_else(|| panic!("{label} is not in the lineup"))
    }

    /// Prints the overhead table; its `Avg` row is the geometric mean.
    pub fn print_overhead(&self, title: &str) {
        self.print(title, &self.overhead, geomean, 2);
    }

    /// Prints the power table; its `Avg` row is the arithmetic mean.
    pub fn print_power(&self, title: &str) {
        self.print(title, &self.power, mean, 3);
    }

    fn print(&self, title: &str, table: &[Vec<f64>], avg: fn(&[f64]) -> f64, digits: usize) {
        let cells = |values: Vec<f64>| values.iter().map(|v| format!("{v:.digits$}")).collect();
        let mut rows: Vec<(String, Vec<String>)> = self
            .benches
            .iter()
            .enumerate()
            .map(|(b, bench)| (bench.clone(), cells(table.iter().map(|c| c[b]).collect())))
            .collect();
        rows.push(("Avg".into(), cells(table.iter().map(|c| avg(c)).collect())));
        let columns: Vec<&str> = self.labels.iter().map(String::as_str).collect();
        print_table(title, &columns, &rows);
    }
}

/// Pretty-prints a table: header row + rows of (label, values).
pub fn print_table(title: &str, columns: &[&str], rows: &[(String, Vec<String>)]) {
    println!("\n== {title} ==");
    print!("{:<18}", "");
    for c in columns {
        print!("{c:>15}");
    }
    println!();
    for (label, values) in rows {
        print!("{label:<18}");
        for v in values {
            print!("{v:>15}");
        }
        println!();
    }
}

/// Geometric mean (the right average for overhead ratios).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn run_pair_smoke_base_dram_vs_base_oram() {
        let cfg = RunConfig {
            instructions: 40_000,
            ..Default::default()
        };
        let dram = run_pair(SpecBenchmark::Mcf, &Scheme::BaseDram, &cfg);
        let oram = run_pair(SpecBenchmark::Mcf, &Scheme::BaseOram, &cfg);
        assert_eq!(dram.stats.instructions, 40_000);
        assert_eq!(oram.stats.instructions, 40_000);
        // ORAM with no protection is far slower than DRAM on mcf.
        let overhead = perf_overhead(&oram, &dram);
        assert!(overhead > 2.0, "overhead {overhead}");
        // And burns far more memory power.
        assert!(oram.power.memory_watts > dram.power.memory_watts * 10.0);
    }

    #[test]
    fn dynamic_scheme_reports_dummies() {
        // A pure-compute loop (no memory traffic at all): every enforced
        // slot is a dummy access.
        struct AluLoop(u32);
        impl otc_sim::InstructionStream for AluLoop {
            fn next_instr(&mut self) -> otc_sim::Instr {
                self.0 = (self.0 + 1) % 16;
                if self.0 == 0 {
                    otc_sim::Instr::Branch {
                        taken: true,
                        target: 0x1000,
                    }
                } else {
                    otc_sim::Instr::IntAlu
                }
            }
            fn name(&self) -> &str {
                "alu_loop"
            }
        }
        let cfg = RunConfig {
            instructions: 200_000,
            ..Default::default()
        };
        let dyn_run = run_stream(&mut AluLoop(0), &Scheme::dynamic(4, 2), &cfg);
        assert!(dyn_run.dummy_fraction > 0.9, "{}", dyn_run.dummy_fraction);
        assert_eq!(dyn_run.benchmark, "alu_loop");
    }

    #[test]
    fn instruction_budget_env_default() {
        // No env set in tests → default.
        assert_eq!(instruction_budget(123), 123);
    }
}
