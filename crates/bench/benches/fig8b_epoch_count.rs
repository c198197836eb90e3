//! **Figure 8b / §9.5**: leakage-reduction study over `|E|`. With
//! |R| = 4 fixed, vary the epoch growth factor in {2, 4, 8, 16}: fewer,
//! longer epochs mean fewer rate choices and proportionally less leakage.
//! The paper reports that E16 (16-bit leakage) costs only ~5% performance
//! vs E4 (32-bit) while slightly *reducing* power; the main casualty is
//! h264ref, which gets stuck with a slow rate chosen before its
//! memory-bound phase.

use otc_bench::{instruction_budget, lineup, RunConfig};
use otc_core::Scheme;

fn main() {
    let cfg = RunConfig {
        instructions: instruction_budget(1_500_000),
        ..Default::default()
    };
    let schemes: Vec<Scheme> = [2u32, 4, 8, 16]
        .into_iter()
        .map(|g| Scheme::dynamic(4, g))
        .collect();

    println!(
        "Figure 8b reproduction: {} instructions per run",
        cfg.instructions
    );

    let l = lineup(&schemes, &cfg);
    l.print_overhead("Figure 8b (top): perf overhead x vs base_dram, varying epoch growth");
    l.print_power("Figure 8b (bottom): power, Watts");

    println!("\nleakage bound per configuration:");
    for s in &schemes {
        println!(
            "  {:<16} {:>6.0} bits",
            s.label(),
            s.oram_timing_leakage_bits()
        );
    }
    println!(
        "paper: E4→E16 reduces ORAM-timing leakage 32→16 bits for ~5% average \
         performance and ~3% power *savings*; h264ref suffers most (slow rate \
         locked in before its late memory-bound phase)."
    );
}
