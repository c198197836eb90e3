//! **Figure 6 + §9.3**: the paper's headline result. Performance overhead
//! (× vs `base_dram`) and power (Watts, chip + memory breakdown) for
//! `base_oram`, `dynamic_R4_E4`, `static_300`, `static_500` and
//! `static_1300` across the 11-benchmark lineup, plus the derived §9.3
//! claim rows (dynamic-vs-oracle gap, static break-even costs, dummy
//! fraction).

use otc_bench::{geomean, instruction_budget, lineup, mean, RunConfig};
use otc_core::Scheme;

fn main() {
    let cfg = RunConfig {
        instructions: instruction_budget(2_000_000),
        ..Default::default()
    };

    println!(
        "Figure 6 reproduction: {} instructions per run (set OTC_BENCH_INSTRUCTIONS to scale)",
        cfg.instructions
    );

    let l = lineup(&Scheme::figure6_lineup(), &cfg);
    l.print_overhead("Figure 6 (top): performance overhead, x vs base_dram");
    println!(
        "paper Avg: base_oram 3.35x | dynamic_R4_E4 4.03x | static_300 3.80x \
         (static_500/static_1300 bracket the dynamic point)"
    );
    l.print_power("Figure 6 (bottom): power, Watts");
    println!(
        "paper Avg power ratios vs base_dram: base_oram 5.27x | dynamic_R4_E4 5.89x | static_300 8.68x"
    );

    // §9.3 derived claims.
    let perf = |label: &str| geomean(&l.overhead[l.column(label)]);
    let power = |label: &str| mean(&l.power[l.column(label)]);
    let dynamic_vs_oracle_perf = (perf("dynamic_R4_E4") / perf("base_oram") - 1.0) * 100.0;
    let dynamic_vs_oracle_power = (power("dynamic_R4_E4") / power("base_oram") - 1.0) * 100.0;
    let static500_power = (power("static_500") / power("dynamic_R4_E4") - 1.0) * 100.0;
    let static1300_perf = (perf("static_1300") / perf("dynamic_R4_E4") - 1.0) * 100.0;
    let static300_power = (power("static_300") / power("dynamic_R4_E4") - 1.0) * 100.0;
    let dummy_avg = mean(&l.dummy[l.column("dynamic_R4_E4")]) * 100.0;

    println!("\n== Section 9.3 derived claims (measured vs paper) ==");
    println!(
        "dynamic_R4_E4 vs base_oram:  perf {dynamic_vs_oracle_perf:+.0}% (paper +20%), \
         power {dynamic_vs_oracle_power:+.0}% (paper +12%)"
    );
    println!(
        "static_500  vs dynamic:      power {static500_power:+.0}% (paper +34%, perf break-even)"
    );
    println!(
        "static_1300 vs dynamic:      perf  {static1300_perf:+.0}% (paper +30%, power break-even)"
    );
    println!("static_300  vs dynamic:      power {static300_power:+.0}% (paper +47%)");
    println!(
        "dynamic dummy-access fraction: {dummy_avg:.0}% (paper: 34% average, footnote in §11)"
    );
    println!(
        "leakage: dynamic_R4_E4 <= {} bits over the ORAM timing channel (paper: 32)",
        Scheme::dynamic(4, 4).oram_timing_leakage_bits()
    );
}
