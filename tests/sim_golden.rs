//! Absolute golden for the single-processor simulator.
//!
//! `stepped_equivalence` compares two drivers of the same core, so a
//! change both drivers share — the caches, the write buffer, the core's
//! timing rules — passes it unnoticed. This test pins what the Fig. 6
//! methodology (`Simulator::warm_caches`, then `Simulator::run_warm`)
//! actually produces: every `SimStats` field of each of the 11
//! `SpecBenchmark::figure6_lineup()` benchmarks, over `base_dram` and
//! `dynamic_R4_E4` on the paper ORAM, at a small budget, compared byte
//! for byte with `golden/sim_fig6.golden`.
//!
//! A change meant to move a simulated count must re-record the golden
//! (the failure prints the fresh text) and say why.

use oram_timing::prelude::*;
use otc_sim::{BackendEnergyProfile, ComponentCounts};
use std::fmt::Write as _;

/// Warm-up instructions, run over flat DRAM before measuring. With 20,000
/// of each no run fills the 1 MB LLC; at this budget mcf, bzip2 and gcc
/// evict dirty LLC lines, so victim choice and back-invalidation count.
const WARMUP: u64 = 100_000;
/// Measured instructions.
const INSTRUCTIONS: u64 = 100_000;

/// Renders every field of `stats` on one line. The destructuring names
/// every field, so a new `SimStats` field fails to compile here until it
/// is rendered too.
fn render(stats: &SimStats) -> String {
    let SimStats {
        cycles,
        instructions,
        loads,
        stores,
        branches,
        taken_branches,
        load_stall_cycles,
        wb_stall_cycles,
        llc_demand_misses,
        llc_writebacks,
        components,
        backend,
        windows,
    } = stats;
    let ComponentCounts {
        int_alu_ops,
        int_mul_ops,
        int_div_ops,
        fp_ops,
        int_regfile_accesses,
        fp_regfile_accesses,
        fetch_buffer_reads,
        l1i_hits,
        l1i_refills,
        l1d_hits,
        l1d_refills,
        l2_accesses,
    } = components;
    let BackendEnergyProfile {
        dram_ctrl_lines,
        oram_accesses,
        oram_dummy_accesses,
    } = backend;
    let mut out = format!(
        "cycles={cycles} instructions={instructions} loads={loads} stores={stores} \
         branches={branches} taken_branches={taken_branches} \
         load_stall_cycles={load_stall_cycles} wb_stall_cycles={wb_stall_cycles} \
         llc_demand_misses={llc_demand_misses} llc_writebacks={llc_writebacks} \
         int_alu_ops={int_alu_ops} int_mul_ops={int_mul_ops} int_div_ops={int_div_ops} \
         fp_ops={fp_ops} int_regfile_accesses={int_regfile_accesses} \
         fp_regfile_accesses={fp_regfile_accesses} fetch_buffer_reads={fetch_buffer_reads} \
         l1i_hits={l1i_hits} l1i_refills={l1i_refills} l1d_hits={l1d_hits} \
         l1d_refills={l1d_refills} l2_accesses={l2_accesses} \
         dram_ctrl_lines={dram_ctrl_lines} oram_accesses={oram_accesses} \
         oram_dummy_accesses={oram_dummy_accesses} windows={}",
        windows.len()
    );
    for w in windows {
        write!(
            out,
            " ({},{},{})",
            w.instructions, w.cycle, w.backend_requests
        )
        .unwrap();
    }
    out
}

/// One line per (benchmark, scheme) run of the lineup.
fn transcript() -> String {
    let oram = OramConfig::paper();
    let ddr = DdrConfig::default();
    let sim = Simulator::new(SimConfig::default());
    let mut out = String::new();
    for bench in SpecBenchmark::figure6_lineup() {
        for scheme in [Scheme::BaseDram, Scheme::dynamic(4, 4)] {
            let mut workload = bench.workload(INSTRUCTIONS);
            let mut backend = scheme.build_backend(&oram, &ddr).expect("paper geometry");
            let warm = sim.warm_caches(&mut workload, WARMUP);
            let stats = sim.run_warm(&mut workload, &mut *backend, INSTRUCTIONS, warm);
            writeln!(
                out,
                "{} {}: {}",
                bench.full_name(),
                scheme.label(),
                render(&stats)
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn fig6_lineup_matches_the_golden_stats() {
    let golden = include_str!("golden/sim_fig6.golden");
    let got = transcript();
    let first_diff = got
        .lines()
        .zip(golden.lines())
        .position(|(a, b)| a != b)
        .unwrap_or(got.lines().count().min(golden.lines().count()));
    assert!(
        got == golden,
        "simulator stats diverged from golden/sim_fig6.golden at line {}:\n{}",
        first_diff + 1,
        got
    );
}
