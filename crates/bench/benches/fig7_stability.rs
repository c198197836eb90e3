//! **Figure 7 / §9.4**: IPC over time (windowed) for libquantum, gobmk
//! and h264ref under `base_oram`, `dynamic_R4_E2` and `static_1300`, with
//! the dynamic scheme's epoch transitions marked. The paper's
//! observations to reproduce:
//!
//! * libquantum (memory-bound): dynamic tracks base_oram closely (within
//!   ~8%).
//! * gobmk: erratic early, settles onto a mid rate (1290) — after which
//!   it behaves like static_1300.
//! * h264ref: compute-bound early (slowest rate), switches to a faster
//!   rate at the epoch transition after its memory-bound phase begins.

use otc_bench::{instruction_budget, print_table, run_pair, RunConfig};
use otc_core::Scheme;
use otc_workloads::SpecBenchmark;

fn main() {
    let instructions = instruction_budget(3_000_000);
    let windows = 12u64;
    let cfg = RunConfig {
        instructions,
        window_instructions: Some(instructions / windows),
    };
    let schemes = [
        Scheme::BaseOram,
        Scheme::dynamic(4, 2),
        Scheme::Static { rate: 1300 },
    ];

    println!(
        "Figure 7 reproduction: {instructions} instructions per run, {windows} windows \
         (paper plots 1B-instruction windows; these are {} instructions each)",
        instructions / windows
    );

    for bench in [
        SpecBenchmark::Libquantum,
        SpecBenchmark::Gobmk,
        SpecBenchmark::H264ref,
    ] {
        let mut rows = Vec::new();
        let mut dynamic_info = None;
        for scheme in &schemes {
            let r = run_pair(bench, scheme, &cfg);
            let mut cells = Vec::new();
            let mut prev = (0u64, 0u64); // (instr, cycle)
            for w in &r.stats.windows {
                let di = w.instructions - prev.0;
                let dc = w.cycle - prev.1;
                prev = (w.instructions, w.cycle);
                cells.push(format!("{:.3}", di as f64 / dc.max(1) as f64));
            }
            if matches!(scheme, Scheme::Dynamic { .. }) {
                dynamic_info = Some((r.transitions.clone(), r.stats.cycles));
            }
            rows.push((scheme.label(), cells));
        }
        let window_labels: Vec<String> = (1..=windows).map(|i| format!("w{i}")).collect();
        let columns: Vec<&str> = window_labels.iter().map(|s| s.as_str()).collect();
        print_table(
            &format!("Figure 7: {} IPC per window", bench.full_name()),
            &columns,
            &rows,
        );
        if let Some((transitions, total_cycles)) = dynamic_info {
            print!("dynamic_R4_E2 epoch transitions (cycle fraction -> new rate): ");
            for t in &transitions {
                print!(
                    "e{}@{:.2}->{} ",
                    t.epoch + 1,
                    t.at as f64 / total_cycles.max(1) as f64,
                    t.new_rate
                );
            }
            println!();
        }
    }

    println!(
        "\npaper shape: libquantum — dynamic hugs base_oram (≈8% below); gobmk — \
         erratic IPC but a consistent rate choice after epoch e6 (≈static_1300 \
         behaviour); h264ref — IPC collapses under static/dynamic when the \
         memory-bound phase starts (e8), then the dynamic scheme recovers by \
         switching to a faster rate at the next transition."
    );
}
