//! **Figure 2 / §1.1.2**: ORAM access rate over time, across inputs to
//! the same program. perlbench's `diffmail` input accesses ORAM roughly
//! two orders of magnitude more often than `splitmail`; astar's `rivers`
//! input has a steady rate while `biglakes` drifts as the program runs.
//! This is the motivation for *dynamic* rate selection: no single offline
//! rate fits both inputs, let alone both halves of `biglakes`.

use otc_bench::{instruction_budget, print_table, run_pair, RunConfig};
use otc_core::Scheme;
use otc_workloads::SpecBenchmark;

fn main() {
    let instructions = instruction_budget(2_000_000);
    let windows = 10u64;
    let cfg = RunConfig {
        instructions,
        window_instructions: Some(instructions / windows),
    };

    println!(
        "Figure 2 reproduction: {instructions} instructions per run, {windows} windows \
         (paper plots 100M-instruction windows over 200-250B-instruction runs)"
    );

    let pairs = [
        (
            SpecBenchmark::PerlbenchDiffmail,
            SpecBenchmark::PerlbenchSplitmail,
        ),
        (SpecBenchmark::AstarRivers, SpecBenchmark::AstarBigLakes),
    ];

    for (a, b) in pairs {
        let mut rows = Vec::new();
        let mut overall = Vec::new();
        for bench in [a, b] {
            // The paper measures the demand rate of the program itself;
            // base_oram exposes it directly (no dummy traffic).
            let r = run_pair(bench, &Scheme::BaseOram, &cfg);
            let mut cells = Vec::new();
            let mut prev = (0u64, 0u64); // (instr, requests)
            for w in &r.stats.windows {
                let di = w.instructions - prev.0;
                let dr = w.backend_requests - prev.1;
                prev = (w.instructions, w.backend_requests);
                let interval = if dr == 0 {
                    di as f64
                } else {
                    di as f64 / dr as f64
                };
                cells.push(format!("{interval:.0}"));
            }
            // Steady-state interval: averaged over the last third of the
            // run (warmup compulsory misses otherwise dominate at scaled
            // run lengths).
            let tail = &r.stats.windows[(windows as usize * 2 / 3)..];
            let di = tail.last().map(|w| w.instructions).unwrap_or(0)
                - tail.first().map(|w| w.instructions).unwrap_or(0);
            let dr = tail.last().map(|w| w.backend_requests).unwrap_or(0)
                - tail.first().map(|w| w.backend_requests).unwrap_or(0);
            let steady = if dr == 0 {
                di as f64
            } else {
                di as f64 / dr as f64
            };
            overall.push((bench.full_name().to_string(), steady));
            rows.push((bench.full_name().to_string(), cells));
        }
        let window_labels: Vec<String> = (1..=windows).map(|i| format!("w{i}")).collect();
        let columns: Vec<&str> = window_labels.iter().map(|s| s.as_str()).collect();
        print_table(
            "Figure 2: average instructions between 2 ORAM accesses, per window",
            &columns,
            &rows,
        );
        let ratio = overall[1].1.max(overall[0].1) / overall[1].1.min(overall[0].1).max(1e-9);
        println!(
            "steady-state averages (last third): {} = {:.0}, {} = {:.0}  (ratio {ratio:.0}x)",
            overall[0].0, overall[0].1, overall[1].0, overall[1].1
        );
    }

    println!(
        "\npaper shape: perlbench/diffmail sits ~80x below perlbench/splitmail on \
         the instructions-between-accesses axis; astar/rivers is flat while \
         astar/biglakes falls continuously over the run."
    );
}
