//! **Figure 8a / §9.5**: leakage-reduction study over `|R|`. With epoch
//! doubling fixed (E2), vary the candidate-rate count |R| in
//! {16, 8, 4, 2} and report per-benchmark performance overhead and power.
//! Halving lg|R| halves the ORAM-timing leakage; the paper reports that
//! going from R16 to R4 costs ~2% performance and ~7% power while halving
//! the leakage, and that R2 hurts mid-range benchmarks (neither extreme
//! rate fits them).

use otc_bench::{instruction_budget, lineup, RunConfig};
use otc_core::Scheme;

fn main() {
    let cfg = RunConfig {
        instructions: instruction_budget(1_500_000),
        ..Default::default()
    };
    let schemes: Vec<Scheme> = [16usize, 8, 4, 2]
        .into_iter()
        .map(|rc| Scheme::dynamic(rc, 2))
        .collect();

    println!(
        "Figure 8a reproduction: {} instructions per run",
        cfg.instructions
    );

    let l = lineup(&schemes, &cfg);
    l.print_overhead("Figure 8a (top): perf overhead x vs base_dram, varying |R|");
    l.print_power("Figure 8a (bottom): power, Watts");

    println!("\nleakage bound per configuration (scaled schedule preserves paper epoch counts):");
    for s in &schemes {
        println!(
            "  {:<16} {:>6.0} bits",
            s.label(),
            s.oram_timing_leakage_bits()
        );
    }
    println!(
        "paper: R16→R4 at E2 improves performance ~2%, costs ~7% power, halves leakage \
         (128→64 bits at paper scale); R2 raises power on mid-range benchmarks \
         (gobmk, gcc) because {{256, 32768}} fits neither."
    );
}
