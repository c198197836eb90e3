//! **Figure 5 / §9.2**: sweep static ORAM rates for a memory-bound (mcf)
//! and compute-bound (h264ref) benchmark; report performance and power
//! overhead vs `base_dram` at each rate. This is how the paper selects
//! the extremes of `R` (256 and 32768 cycles): rates oversetting mcf's
//! demand destroy its performance, and rates far beyond ~30000 cycles
//! push h264ref's power below `base_dram` (the processor mostly idles
//! waiting for ORAM).
//!
//! Scale notes: performance is measured over the *second half* of each
//! run so cache-warmup compulsory misses (which the paper's 200B-
//! instruction runs amortize away) don't mask the steady-state shape, and
//! h264ref is held in its compute-bound phase (its late memory-bound
//! phase belongs to Fig. 7's story, not Fig. 5's).

use otc_bench::{instruction_budget, print_table, RunConfig};
use otc_core::Scheme;
use otc_sim::WindowSample;
use otc_workloads::SpecBenchmark;

/// Cycles spent in the second half of the run (by instruction count).
fn second_half_cycles(windows: &[WindowSample]) -> u64 {
    let mid = windows.len() / 2;
    windows.last().map(|w| w.cycle).unwrap_or(0) - windows[mid].cycle
}

fn main() {
    let instructions = instruction_budget(1_000_000);
    let cfg = RunConfig {
        instructions,
        window_instructions: Some(instructions / 8),
    };
    // Lg-spaced sweep 2^5..2^17, matching the figure's x-axis range.
    let rates: Vec<u64> = (5..=17).map(|p| 1u64 << p).collect();

    println!("Figure 5 reproduction: {instructions} instructions per run");

    for bench in [SpecBenchmark::Mcf, SpecBenchmark::H264ref] {
        // Keep h264ref inside its compute phase: build against a nominal
        // length 4x the budget (the phase split is a run fraction).
        let nominal = if bench == SpecBenchmark::H264ref {
            instructions * 4
        } else {
            instructions
        };
        let run = |scheme: &Scheme| {
            let mut wl = bench.spec(nominal).build();
            otc_bench::run_stream(&mut wl, scheme, &cfg)
        };
        let base = run(&Scheme::BaseDram);
        let base_steady = second_half_cycles(&base.stats.windows);
        let base_power = base.power.total_watts();
        let mut rows = Vec::new();
        for &rate in &rates {
            let r = run(&Scheme::Static { rate });
            let perf = second_half_cycles(&r.stats.windows) as f64 / base_steady.max(1) as f64;
            let power = r.power.total_watts() / base_power;
            rows.push((
                format!("rate={rate}"),
                vec![format!("{perf:.2}"), format!("{power:.2}")],
            ));
        }
        print_table(
            &format!(
                "Figure 5: {} static-rate sweep (steady-state overhead x vs base_dram)",
                bench.full_name()
            ),
            &["perf", "power"],
            &rows,
        );
    }

    println!(
        "\npaper shape: mcf's performance overhead grows steeply as the rate is \
         overset (slow rates starve a memory-bound program) while its power falls; \
         h264ref's performance is nearly flat (compute-bound) and its power crosses \
         below base_dram in the rate~10^4 decade. Hence R spans 256..32768 (§9.2)."
    );
}
