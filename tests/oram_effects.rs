//! Pinned ORAM effects of the Fig. 6 backends.
//!
//! `sim_golden` pins what the simulated core sees of a backend: its
//! completion times. This test pins what the backend does to its ORAM.
//! Each scheme of `Scheme::figure6_lineup()` runs mcf, gcc and hmmer at
//! the paper geometry through `Simulator::warm_caches` and
//! `Simulator::run_warm`; then the backend's ORAM is rendered on one line
//! and compared byte for byte with `golden/oram_effects.golden`:
//!
//! - every `OramStats` field (the stash peak depends on the order of the
//!   accesses, not only on their count);
//! - an FNV-1a fold of `bucket_fingerprint` over the 4,095 data-tree
//!   buckets of the top 12 levels. A bucket's counter counts the paths
//!   through it, so the fold moves if any access went to another leaf —
//!   the root alone counts only accesses;
//! - the Path ORAM invariant of every tree (`check_invariants`).
//!
//! The golden was recorded from backends that ran their ORAM inline on
//! the simulated core's thread. A change meant to move these effects
//! must re-record it (the failure prints the fresh text) and say why.

use oram_timing::prelude::*;
use otc_oram::{NodeIndex, OramStats};
use std::fmt::Write as _;

/// Warm-up instructions, run over flat DRAM before measuring.
const WARMUP: u64 = 100_000;
/// Measured instructions.
const INSTRUCTIONS: u64 = 100_000;
/// Buckets in the data tree's top 12 levels (heap indices `0..4095`).
const TOP_BUCKETS: u64 = (1 << 12) - 1;

/// FNV-1a over the little-endian bytes of each word.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Every observable effect of a run on `oram`, on one line.
fn render(oram: &RecursivePathOram) -> String {
    oram.check_invariants();
    let OramStats {
        real_accesses,
        dummy_accesses,
        bytes_moved,
        stash_peak,
        deferred_evictions,
        eviction_drains,
    } = oram.stats();
    let fold = fnv1a((0..TOP_BUCKETS).map(|n| oram.bucket_fingerprint(NodeIndex(n))));
    format!(
        "real={real_accesses} dummy={dummy_accesses} bytes={bytes_moved} \
         stash_peak={stash_peak} deferred={deferred_evictions} drains={eviction_drains} \
         top12_fold={fold:016x}"
    )
}

/// Warms `bench`'s caches, runs it on `backend` and returns the cycles.
fn run<B: MemoryBackend>(bench: SpecBenchmark, backend: &mut B) -> Cycle {
    let sim = Simulator::new(SimConfig::default());
    let mut workload = bench.workload(INSTRUCTIONS);
    let warm = sim.warm_caches(&mut workload, WARMUP);
    sim.run_warm(&mut workload, backend, INSTRUCTIONS, warm)
        .cycles
}

/// One line per (benchmark, scheme) run.
fn transcript() -> String {
    let oram = OramConfig::paper();
    let ddr = DdrConfig::default();
    let mut out = String::new();
    for bench in [SpecBenchmark::Mcf, SpecBenchmark::Gcc, SpecBenchmark::Hmmer] {
        for scheme in Scheme::figure6_lineup() {
            let line = match scheme.policy() {
                Some(policy) => {
                    let mut backend = RateLimitedOramBackend::new(oram.clone(), &ddr, policy)
                        .expect("paper geometry");
                    backend.set_trace_recording(false);
                    let cycles = run(bench, &mut backend);
                    let slots = backend.slots_served();
                    format!("cycles={cycles} slots={slots} {}", render(backend.oram()))
                }
                None => {
                    let mut backend =
                        UnprotectedOramBackend::new(oram.clone(), &ddr).expect("paper geometry");
                    backend.set_trace_recording(false);
                    let cycles = run(bench, &mut backend);
                    let requests = backend.request_count();
                    format!(
                        "cycles={cycles} requests={requests} {}",
                        render(backend.oram())
                    )
                }
            };
            writeln!(out, "{} {}: {line}", bench.full_name(), scheme.label()).unwrap();
        }
    }
    out
}

#[test]
fn fig6_backends_leave_the_golden_oram() {
    let golden = include_str!("golden/oram_effects.golden");
    let got = transcript();
    let first_diff = got
        .lines()
        .zip(golden.lines())
        .position(|(a, b)| a != b)
        .unwrap_or(got.lines().count().min(golden.lines().count()));
    assert!(
        got == golden,
        "ORAM effects diverged from golden/oram_effects.golden at line {}:\n{}",
        first_diff + 1,
        got
    );
}
