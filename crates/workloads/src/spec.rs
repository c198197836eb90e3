//! Synthetic stand-ins for the SPEC-int benchmarks the paper evaluates
//! (§9.1.1: "a range (from memory-bound to compute-bound) of SPEC-int
//! benchmarks running reference inputs").
//!
//! SPEC CPU2006 is proprietary, so each benchmark here is a generator
//! parameterized to reproduce the *qualitative memory behaviour* the paper
//! reports for it (each [`SpecBenchmark`] variant's docs name the
//! paper's figures it is calibrated against): footprint relative to the
//! 1 MB LLC, phase structure, burstiness, and input-dependence. Every
//! paper figure is a function of the resulting LLC-miss arrival process,
//! which is what these control.
//!
//! Calibration targets: `base_dram` IPC near the paper's 0.15–0.36 band
//! (§9.1.6), LLC-miss intervals ranging from tens of instructions (mcf,
//! libquantum) to effectively-none (hmmer, perlbench.splitmail), and the
//! phase/drift/burst structure called out in Figs. 2 and 7.

use crate::addr::AddressPattern;
use crate::generator::{PhaseSpec, SyntheticWorkload, WorkloadSpec};
use crate::mix::InstructionMix;

const KB: u64 = 1 << 10;
const MB: u64 = 1 << 20;

/// Standard three-tier locality helper: `cold_percent` of accesses go to
/// a `cold` region beyond the LLC; the rest split ~3:1 between an
/// L1-resident hot set and an L2-resident warm set.
fn tiered(cold: u64, cold_percent: u32) -> AddressPattern {
    let rest = 100 - cold_percent;
    let hot_percent = rest * 3 / 4;
    AddressPattern::Tiered {
        hot: 20 * KB,
        warm: 560 * KB,
        cold,
        hot_percent,
        warm_percent: rest - hot_percent,
    }
}

/// The benchmark/input pairs used across the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecBenchmark {
    /// `mcf` — the most memory-bound workload (Fig. 5's memory-bound
    /// exemplar): pointer chasing over a footprint far beyond the LLC.
    Mcf,
    /// `omnetpp` — discrete-event simulation; random access over a
    /// multi-MB event/heap structure.
    Omnetpp,
    /// `libquantum` — streaming over large arrays; steady, memory-bound
    /// (Fig. 7 top).
    Libquantum,
    /// `bzip2` — block compression; alternating tight/streaming phases.
    Bzip2,
    /// `hmmer` — profile HMM search; hot inner loop, small tables.
    Hmmer,
    /// `astar` with the `rivers` map — steady pathfinding (Fig. 2:
    /// "a single rate is sufficient").
    AstarRivers,
    /// `astar` with the `biglakes` map — footprint grows as the search
    /// expands, so the ORAM rate drifts over the run (Fig. 2 bottom).
    AstarBigLakes,
    /// `gcc` — compiler passes; irregular alternation of small hot
    /// structures and wide sweeps.
    Gcc,
    /// `gobmk` — game-tree search; erratic bursts (Fig. 7 middle),
    /// settling behaviour after several epochs (§9.4).
    Gobmk,
    /// `sjeng` — chess search; compute-leaning with periodic bursts.
    Sjeng,
    /// `h264ref` — video encoder; compute-bound then memory-bound late in
    /// the run (Fig. 7 bottom, the e8 transition).
    H264ref,
    /// `perlbench` on the `diffmail` input — the ORAM-hungry input in
    /// Fig. 2 (top).
    PerlbenchDiffmail,
    /// `perlbench` on the `splitmail` input — ~80× fewer ORAM accesses
    /// than `diffmail` (Fig. 2 top).
    PerlbenchSplitmail,
}

impl SpecBenchmark {
    /// The 11-benchmark lineup of Fig. 6/8 (one input each, in the
    /// paper's column order: mcf, omnet, libq, bzip2, hmmer, astar, gcc,
    /// gobmk, sjeng, h264, perl).
    pub fn figure6_lineup() -> Vec<SpecBenchmark> {
        vec![
            SpecBenchmark::Mcf,
            SpecBenchmark::Omnetpp,
            SpecBenchmark::Libquantum,
            SpecBenchmark::Bzip2,
            SpecBenchmark::Hmmer,
            SpecBenchmark::AstarBigLakes,
            SpecBenchmark::Gcc,
            SpecBenchmark::Gobmk,
            SpecBenchmark::Sjeng,
            SpecBenchmark::H264ref,
            SpecBenchmark::PerlbenchDiffmail,
        ]
    }

    /// A `k`-tenant traffic mix for the multi-tenant host (`otc-host`):
    /// tenants cycle through a pressure-diverse rotation — memory-bound
    /// (`mcf`, `libquantum`), phase-shifting (`astar.biglakes`,
    /// `h264ref`), bursty (`gobmk`), and compute-leaning (`hmmer`,
    /// `sjeng`, `perlbench.splitmail`) — so a saturation sweep exercises
    /// both heavy and light tenants at every fleet size.
    pub fn tenant_mix(k: usize) -> Vec<SpecBenchmark> {
        let rotation = [
            SpecBenchmark::Mcf,
            SpecBenchmark::Hmmer,
            SpecBenchmark::Libquantum,
            SpecBenchmark::Sjeng,
            SpecBenchmark::AstarBigLakes,
            SpecBenchmark::PerlbenchSplitmail,
            SpecBenchmark::Gobmk,
            SpecBenchmark::H264ref,
        ];
        (0..k).map(|i| rotation[i % rotation.len()]).collect()
    }

    /// Short display name (paper column label).
    pub fn short_name(&self) -> &'static str {
        match self {
            SpecBenchmark::Mcf => "mcf",
            SpecBenchmark::Omnetpp => "omnet",
            SpecBenchmark::Libquantum => "libq",
            SpecBenchmark::Bzip2 => "bzip2",
            SpecBenchmark::Hmmer => "hmmer",
            SpecBenchmark::AstarRivers | SpecBenchmark::AstarBigLakes => "astar",
            SpecBenchmark::Gcc => "gcc",
            SpecBenchmark::Gobmk => "gobmk",
            SpecBenchmark::Sjeng => "sjeng",
            SpecBenchmark::H264ref => "h264",
            SpecBenchmark::PerlbenchDiffmail | SpecBenchmark::PerlbenchSplitmail => "perl",
        }
    }

    /// Full name including the input, for Fig. 2-style reports.
    pub fn full_name(&self) -> &'static str {
        match self {
            SpecBenchmark::Mcf => "mcf",
            SpecBenchmark::Omnetpp => "omnetpp",
            SpecBenchmark::Libquantum => "libquantum",
            SpecBenchmark::Bzip2 => "bzip2",
            SpecBenchmark::Hmmer => "hmmer",
            SpecBenchmark::AstarRivers => "astar.rivers",
            SpecBenchmark::AstarBigLakes => "astar.biglakes",
            SpecBenchmark::Gcc => "gcc",
            SpecBenchmark::Gobmk => "gobmk",
            SpecBenchmark::Sjeng => "sjeng",
            SpecBenchmark::H264ref => "h264ref",
            SpecBenchmark::PerlbenchDiffmail => "perlbench.diffmail",
            SpecBenchmark::PerlbenchSplitmail => "perlbench.splitmail",
        }
    }

    /// Builds the workload sized to `nominal_instructions`.
    pub fn workload(&self, nominal_instructions: u64) -> SyntheticWorkload {
        self.spec(nominal_instructions).build()
    }

    /// The generator specification. The comment on each benchmark's arm
    /// gives the memory behaviour its parameters produce.
    pub fn spec(&self, nominal_instructions: u64) -> WorkloadSpec {
        let one = |mix: InstructionMix, pattern: AddressPattern| {
            vec![PhaseSpec {
                mix,
                pattern,
                fraction: 1.0,
            }]
        };
        let (phases, code_bytes, branch_every) = match self {
            // Most memory-bound: ~12% of accesses chase pointers over
            // 256 MB — an LLC miss every ~20 instructions.
            SpecBenchmark::Mcf => (
                one(InstructionMix::memory_heavy(), tiered(256 * MB, 8)),
                16 * KB,
                10,
            ),
            SpecBenchmark::Omnetpp => (
                one(
                    InstructionMix::int_heavy(),
                    AddressPattern::Bursty {
                        calm: Box::new(AddressPattern::Tiered {
                            hot: 24 * KB,
                            warm: 480 * KB,
                            cold: 16 * KB,
                            hot_percent: 72,
                            warm_percent: 26,
                        }),
                        burst: Box::new(AddressPattern::Random { footprint: 24 * MB }),
                        period: 400,
                        burst_len: 1,
                    },
                ),
                64 * KB,
                7,
            ),
            // Streaming interleaved with a small working set: one access
            // in three walks the big arrays word-by-word, opening a new
            // line every ~24 accesses — steadily memory-bound at the
            // paper's pressure scale.
            SpecBenchmark::Libquantum => (
                one(
                    InstructionMix::memory_heavy(),
                    AddressPattern::Bursty {
                        calm: Box::new(AddressPattern::HotCold {
                            hot: 24 * KB,
                            cold: 256 * KB,
                            hot_percent: 80,
                        }),
                        burst: Box::new(AddressPattern::Streaming {
                            footprint: 64 * MB,
                            stride: 8,
                        }),
                        period: 6,
                        burst_len: 1,
                    },
                ),
                8 * KB,
                12,
            ),
            SpecBenchmark::Bzip2 => (
                vec![
                    PhaseSpec {
                        mix: InstructionMix::int_heavy(),
                        pattern: tiered(4 * MB, 2),
                        fraction: 0.65,
                    },
                    PhaseSpec {
                        mix: InstructionMix::memory_heavy(),
                        pattern: AddressPattern::Bursty {
                            calm: Box::new(AddressPattern::HotCold {
                                hot: 24 * KB,
                                cold: 320 * KB,
                                hot_percent: 75,
                            }),
                            burst: Box::new(AddressPattern::Streaming {
                                footprint: 8 * MB,
                                stride: 8,
                            }),
                            period: 8,
                            burst_len: 1,
                        },
                        fraction: 0.35,
                    },
                ],
                24 * KB,
                9,
            ),
            // Compute-bound: entire footprint fits the LLC → essentially
            // no steady-state ORAM traffic.
            SpecBenchmark::Hmmer => (
                one(
                    InstructionMix {
                        int_alu: 62,
                        int_mul: 6,
                        int_div: 1,
                        fp_alu: 4,
                        fp_mul: 2,
                        fp_div: 0,
                        load: 20,
                        store: 5,
                    },
                    // Whole footprint ≈ 580 KB ≪ LLC: conflict misses are
                    // rare, steady-state ORAM traffic ≈ 0.
                    AddressPattern::Tiered {
                        hot: 20 * KB,
                        warm: 240 * KB,
                        cold: 320 * KB,
                        hot_percent: 75,
                        warm_percent: 24,
                    },
                ),
                12 * KB,
                14,
            ),
            SpecBenchmark::AstarRivers => (
                one(
                    InstructionMix::int_heavy(),
                    AddressPattern::Bursty {
                        calm: Box::new(AddressPattern::Tiered {
                            hot: 24 * KB,
                            warm: 480 * KB,
                            cold: 16 * KB,
                            hot_percent: 74,
                            warm_percent: 24,
                        }),
                        burst: Box::new(AddressPattern::Random { footprint: 6 * MB }),
                        period: 350,
                        burst_len: 1,
                    },
                ),
                20 * KB,
                8,
            ),
            // Cold footprint grows 256 KB → 96 MB geometrically: starts
            // LLC-resident, ends heavily memory-bound (Fig. 2's drift).
            SpecBenchmark::AstarBigLakes => (
                one(
                    InstructionMix::int_heavy(),
                    AddressPattern::Growing {
                        hot: 448 * KB,
                        hot_percent: 99,
                        cold_initial: 16 * KB,
                        cold_final: 64 * MB,
                        growth_start_percent: 50,
                    },
                ),
                20 * KB,
                8,
            ),
            SpecBenchmark::Gcc => (
                vec![
                    PhaseSpec {
                        mix: InstructionMix::int_heavy(),
                        pattern: AddressPattern::Bursty {
                            calm: Box::new(AddressPattern::Tiered {
                                hot: 24 * KB,
                                warm: 480 * KB,
                                cold: 16 * KB,
                                hot_percent: 74,
                                warm_percent: 24,
                            }),
                            burst: Box::new(AddressPattern::Random { footprint: 2 * MB }),
                            period: 600,
                            burst_len: 1,
                        },
                        fraction: 0.4,
                    },
                    PhaseSpec {
                        mix: InstructionMix::int_heavy(),
                        pattern: AddressPattern::Bursty {
                            calm: Box::new(AddressPattern::Tiered {
                                hot: 24 * KB,
                                warm: 480 * KB,
                                cold: 16 * KB,
                                hot_percent: 74,
                                warm_percent: 24,
                            }),
                            burst: Box::new(AddressPattern::Random { footprint: 20 * MB }),
                            period: 150,
                            burst_len: 1,
                        },
                        fraction: 0.25,
                    },
                    PhaseSpec {
                        mix: InstructionMix::int_heavy(),
                        pattern: AddressPattern::Bursty {
                            calm: Box::new(AddressPattern::Tiered {
                                hot: 24 * KB,
                                warm: 480 * KB,
                                cold: 16 * KB,
                                hot_percent: 74,
                                warm_percent: 24,
                            }),
                            burst: Box::new(AddressPattern::Random { footprint: 8 * MB }),
                            period: 400,
                            burst_len: 1,
                        },
                        fraction: 0.35,
                    },
                ],
                256 * KB,
                6,
            ),
            // Erratic: LLC-resident between bursts, 16 MB sweeps during.
            SpecBenchmark::Gobmk => (
                one(
                    InstructionMix::int_heavy(),
                    AddressPattern::Bursty {
                        calm: Box::new(AddressPattern::Tiered {
                            hot: 24 * KB,
                            warm: 480 * KB,
                            cold: 16 * KB,
                            hot_percent: 72,
                            warm_percent: 26,
                        }),
                        burst: Box::new(AddressPattern::Random { footprint: 16 * MB }),
                        period: 2_048,
                        burst_len: 4,
                    },
                ),
                96 * KB,
                5,
            ),
            SpecBenchmark::Sjeng => (
                one(
                    InstructionMix {
                        int_alu: 64,
                        int_mul: 4,
                        int_div: 1,
                        fp_alu: 0,
                        fp_mul: 0,
                        fp_div: 0,
                        load: 22,
                        store: 9,
                    },
                    AddressPattern::Bursty {
                        calm: Box::new(AddressPattern::Tiered {
                            hot: 24 * KB,
                            warm: 440 * KB,
                            cold: 256 * KB,
                            hot_percent: 76,
                            warm_percent: 23,
                        }),
                        burst: Box::new(AddressPattern::Random { footprint: 4 * MB }),
                        period: 8_192,
                        burst_len: 48,
                    },
                ),
                48 * KB,
                6,
            ),
            // Compute-bound for 65% of the run, then streaming reference
            // frames from far beyond the LLC (the Fig. 7 e8 switch).
            SpecBenchmark::H264ref => (
                vec![
                    PhaseSpec {
                        mix: InstructionMix::fp_compute(),
                        // Small enough to warm up quickly at scaled run
                        // lengths: truly compute-bound (the learner must
                        // pick the slowest rate here, Fig. 7).
                        pattern: AddressPattern::HotCold {
                            hot: 24 * KB,
                            cold: 256 * KB,
                            hot_percent: 72,
                        },
                        fraction: 0.65,
                    },
                    PhaseSpec {
                        mix: InstructionMix::fp_compute(),
                        pattern: AddressPattern::Bursty {
                            calm: Box::new(AddressPattern::HotCold {
                                hot: 24 * KB,
                                cold: 256 * KB,
                                hot_percent: 80,
                            }),
                            burst: Box::new(AddressPattern::Streaming {
                                footprint: 48 * MB,
                                stride: 8,
                            }),
                            period: 96,
                            burst_len: 1,
                        },
                        fraction: 0.35,
                    },
                ],
                64 * KB,
                11,
            ),
            SpecBenchmark::PerlbenchDiffmail => (
                one(
                    InstructionMix::int_heavy(),
                    AddressPattern::Bursty {
                        calm: Box::new(AddressPattern::Tiered {
                            hot: 24 * KB,
                            warm: 480 * KB,
                            cold: 16 * KB,
                            hot_percent: 74,
                            warm_percent: 24,
                        }),
                        burst: Box::new(AddressPattern::Random { footprint: 16 * MB }),
                        period: 250,
                        burst_len: 1,
                    },
                ),
                128 * KB,
                5,
            ),
            // splitmail's working set fits the LLC: only warmup misses.
            SpecBenchmark::PerlbenchSplitmail => (
                one(
                    InstructionMix::int_heavy(),
                    AddressPattern::HotCold {
                        hot: 24 * KB,
                        cold: 400 * KB,
                        hot_percent: 75,
                    },
                ),
                128 * KB,
                5,
            ),
        };
        WorkloadSpec {
            name: self.full_name().into(),
            phases,
            code_bytes,
            branch_every,
            nominal_instructions,
            // Distinct seeds per benchmark, fixed for reproducibility.
            seed: 0xC0FFEE ^ ((self.full_name().len() as u64) << 8) ^ *self as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otc_sim::instr::InstructionStream;
    use otc_sim::{DramBackend, SimConfig, Simulator};

    /// Steady-state LLC misses per instruction: caches are warmed first
    /// (the paper's fast-forward methodology) so compulsory misses don't
    /// swamp the signal at test-sized instruction counts.
    fn miss_rate(bench: SpecBenchmark, instrs: u64) -> f64 {
        let mut wl = bench.workload(2 * instrs);
        let sim = Simulator::new(SimConfig::default());
        let warm = sim.warm_caches(&mut wl, instrs);
        let mut backend = DramBackend::new();
        let stats = sim.run_warm(&mut wl, &mut backend, instrs, warm);
        (stats.llc_demand_misses + stats.llc_writebacks) as f64 / instrs as f64
    }

    #[test]
    fn lineup_has_eleven_columns() {
        assert_eq!(SpecBenchmark::figure6_lineup().len(), 11);
    }

    #[test]
    fn memory_bound_misses_more_than_compute_bound() {
        // The paper's Fig. 5 anchors: mcf (memory) vs hmmer (compute).
        let mcf = miss_rate(SpecBenchmark::Mcf, 300_000);
        let hmmer = miss_rate(SpecBenchmark::Hmmer, 300_000);
        assert!(mcf > 10.0 * hmmer.max(1e-6), "mcf {mcf} vs hmmer {hmmer}");
    }

    #[test]
    fn perlbench_inputs_differ_by_large_factor() {
        // Fig. 2 top: diffmail accesses ORAM ~80× more often than
        // splitmail. The generators must reproduce a large gap (>10×).
        let diff = miss_rate(SpecBenchmark::PerlbenchDiffmail, 500_000);
        let split = miss_rate(SpecBenchmark::PerlbenchSplitmail, 500_000);
        assert!(
            diff > 10.0 * split.max(1e-7),
            "diffmail {diff} vs splitmail {split}"
        );
    }

    #[test]
    fn h264_becomes_memory_bound_late() {
        // Fig. 7 bottom: compute-bound early, memory-bound late. Caches
        // warmed first (paper methodology) so compulsory misses don't
        // blur the phase contrast.
        let nominal = 600_000;
        let mut wl = SpecBenchmark::H264ref.workload(nominal);
        let cfg = SimConfig {
            window_instructions: Some(50_000),
            ..SimConfig::default()
        };
        let sim = Simulator::new(cfg);
        let warm = sim.warm_caches(&mut wl, 100_000);
        let mut backend = DramBackend::new();
        let stats = sim.run_warm(&mut wl, &mut backend, nominal - 100_000, warm);
        let w = &stats.windows;
        assert!(w.len() >= 9);
        // Phase boundary at 0.65 * 600k = 390k total = 290k measured.
        let early = w[2].backend_requests - w[1].backend_requests;
        let late = w[8].backend_requests - w[7].backend_requests;
        assert!(late > 5 * (early + 1), "early {early} late {late}");
    }

    #[test]
    fn astar_biglakes_rate_drifts_rivers_steady() {
        let run = |b: SpecBenchmark| {
            // Generous fast-forward: the 480 KB warm tier needs ~40k
            // draws to fill (coupon collector), i.e. ~400k instructions.
            let nominal = 1_200_000;
            let mut wl = b.workload(nominal);
            let cfg = SimConfig {
                window_instructions: Some(100_000),
                ..SimConfig::default()
            };
            let sim = Simulator::new(cfg);
            let warm = sim.warm_caches(&mut wl, 400_000);
            let mut backend = DramBackend::new();
            let stats = sim.run_warm(&mut wl, &mut backend, nominal - 400_000, warm);
            stats
                .windows
                .windows(2)
                .map(|p| (p[1].backend_requests - p[0].backend_requests) as f64)
                .collect::<Vec<f64>>()
        };
        let biglakes = run(SpecBenchmark::AstarBigLakes);
        let rivers = run(SpecBenchmark::AstarRivers);
        // biglakes: later windows miss much more than early ones.
        let (bl_early, bl_last) = (biglakes[0] + 1.0, biglakes[biglakes.len() - 1] + 1.0);
        assert!(bl_last > 3.0 * bl_early, "biglakes {bl_early} -> {bl_last}");
        // rivers: steady within 3x.
        let (rv_min, rv_max) = rivers.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &x| {
            (lo.min(x + 1.0), hi.max(x + 1.0))
        });
        assert!(rv_max < 3.0 * rv_min, "rivers spread {rv_min}..{rv_max}");
    }

    #[test]
    fn every_benchmark_builds_and_runs() {
        for b in [
            SpecBenchmark::Mcf,
            SpecBenchmark::Omnetpp,
            SpecBenchmark::Libquantum,
            SpecBenchmark::Bzip2,
            SpecBenchmark::Hmmer,
            SpecBenchmark::AstarRivers,
            SpecBenchmark::AstarBigLakes,
            SpecBenchmark::Gcc,
            SpecBenchmark::Gobmk,
            SpecBenchmark::Sjeng,
            SpecBenchmark::H264ref,
            SpecBenchmark::PerlbenchDiffmail,
            SpecBenchmark::PerlbenchSplitmail,
        ] {
            let mut wl = b.workload(50_000);
            let mut backend = DramBackend::new();
            let stats = Simulator::new(SimConfig::default()).run(&mut wl, &mut backend, 50_000);
            assert_eq!(stats.instructions, 50_000, "{}", b.full_name());
            assert!(
                stats.ipc() > 0.01 && stats.ipc() < 1.2,
                "{} ipc {}",
                b.full_name(),
                stats.ipc()
            );
            assert_eq!(wl.name(), b.full_name());
        }
    }

    #[test]
    fn base_dram_ipc_in_papers_band() {
        // §9.1.6: "a typical SPEC benchmark running base_dram … has an IPC
        // between 0.15-0.36". Synthetic stand-ins should land near that
        // band (we allow slack — these are not the real binaries).
        let mut in_band = 0;
        let mut report = String::new();
        let lineup = SpecBenchmark::figure6_lineup();
        for b in &lineup {
            let mut wl = b.workload(200_000);
            let mut backend = DramBackend::new();
            let s = Simulator::new(SimConfig::default()).run(&mut wl, &mut backend, 200_000);
            report.push_str(&format!("{}={:.3} ", b.full_name(), s.ipc()));
            if s.ipc() >= 0.10 && s.ipc() <= 0.55 {
                in_band += 1;
            }
        }
        assert!(
            in_band >= 8,
            "only {in_band}/11 near the IPC band: {report}"
        );
    }
}
