//! The phase-structured synthetic workload generator.
//!
//! A [`WorkloadSpec`] is a list of phases, each with an instruction mix
//! and an address pattern, occupying a fraction of the workload's nominal
//! length. The built [`SyntheticWorkload`] implements the simulator's
//! [`InstructionStream`], interleaving the sampled computational/memory
//! instructions with loop branches confined to a configurable code
//! footprint (which drives the L1 I model).

use crate::addr::{AddressPattern, AddressSampler};
use crate::mix::{ClassTable, InstructionMix, SampledClass};
use otc_crypto::SplitMix64;
use otc_sim::instr::{Instr, InstructionStream};

/// Base address of the code region (matches the simulator's initial PC).
pub const CODE_BASE: u64 = 0x1000;

/// Address-space stride between phases: each phase draws from its own
/// region so a later phase never free-rides on lines an earlier phase
/// left in the caches (real program phases touch different data).
pub const PHASE_REGION_BYTES: u64 = 768 << 20;

/// One phase of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Instruction-class mix.
    pub mix: InstructionMix,
    /// Data-address pattern.
    pub pattern: AddressPattern,
    /// Fraction of the nominal instruction count this phase occupies
    /// (the last phase absorbs any remainder and runs to the end).
    pub fraction: f64,
}

/// A complete synthetic benchmark specification.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Report name (e.g. `mcf`, `perlbench.diffmail`).
    pub name: String,
    /// The phases, in execution order. Must be non-empty.
    pub phases: Vec<PhaseSpec>,
    /// Static code footprint in bytes (drives I-cache behaviour).
    pub code_bytes: u64,
    /// Average instructions between branches.
    pub branch_every: u64,
    /// Nominal run length (phase fractions refer to this). Runs longer
    /// than nominal stay in the final phase.
    pub nominal_instructions: u64,
    /// RNG seed; same seed → bit-identical stream.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Builds the executable stream.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or fractions are non-positive.
    pub fn build(&self) -> SyntheticWorkload {
        assert!(!self.phases.is_empty(), "at least one phase required");
        assert!(
            self.phases.iter().all(|p| p.fraction > 0.0),
            "phase fractions must be positive"
        );
        assert!(self.branch_every >= 2, "branch_every must be ≥ 2");
        let total: f64 = self.phases.iter().map(|p| p.fraction).sum();
        // Phase boundaries in instructions, normalized to nominal length.
        let mut boundaries = Vec::with_capacity(self.phases.len());
        let mut acc = 0.0;
        for p in &self.phases {
            acc += p.fraction / total;
            boundaries.push((acc * self.nominal_instructions as f64) as u64);
        }
        *boundaries.last_mut().expect("non-empty") = u64::MAX; // final phase absorbs the tail
        let samplers = self
            .phases
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let phase_instrs = (p.fraction / total * self.nominal_instructions as f64) as u64;
                let expected_mem = (phase_instrs as f64 * p.mix.memory_fraction()).max(1.0) as u64;
                AddressSampler::new(
                    p.pattern.clone(),
                    self.seed.wrapping_add(i as u64),
                    expected_mem,
                )
            })
            .collect();
        SyntheticWorkload {
            spec: self.clone(),
            boundaries,
            classes: self.phases.iter().map(|p| p.mix.table()).collect(),
            samplers,
            rng: SplitMix64::new(self.seed),
            issued: 0,
            phase: 0,
            pc: CODE_BASE,
        }
    }
}

/// A built synthetic workload (implements [`InstructionStream`]).
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    spec: WorkloadSpec,
    /// Instruction index at which each phase ends.
    boundaries: Vec<u64>,
    /// Each phase's instruction-class table, built once.
    classes: Vec<ClassTable>,
    samplers: Vec<AddressSampler>,
    rng: SplitMix64,
    issued: u64,
    phase: usize,
    pc: u64,
}

impl SyntheticWorkload {
    /// Index of the phase currently executing.
    pub fn current_phase(&self) -> usize {
        self.phase
    }

    /// The workload's specification.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }
}

impl InstructionStream for SyntheticWorkload {
    fn next_instr(&mut self) -> Instr {
        self.issued += 1;
        while self.issued >= self.boundaries[self.phase] {
            self.phase += 1;
        }
        // Model PC like the simulator does (advance by 4 per retired
        // instruction) so branch targets keep the footprint bounded.
        self.pc += 4;

        // Branch roughly every `branch_every` instructions: mostly local
        // loop-backs, occasionally a far jump within the code footprint.
        if self.rng.next_below(self.spec.branch_every) == 0 {
            let span = self.spec.code_bytes.max(64);
            let target = if self.rng.next_below(8) == 0 {
                // far jump
                CODE_BASE + self.rng.next_below(span) / 4 * 4
            } else {
                // short backward branch (loop)
                let back = 4 * (1 + self.rng.next_below(64));
                CODE_BASE + (self.pc - CODE_BASE).saturating_sub(back) % span
            };
            // ~85% taken, matching loop-dominated integer code.
            let taken = self.rng.next_below(100) < 85;
            if taken {
                self.pc = target;
            }
            return Instr::Branch { taken, target };
        }

        match self.classes[self.phase].sample(&mut self.rng) {
            SampledClass::IntAlu => Instr::IntAlu,
            SampledClass::IntMul => Instr::IntMul,
            SampledClass::IntDiv => Instr::IntDiv,
            SampledClass::FpAlu => Instr::FpAlu,
            SampledClass::FpMul => Instr::FpMul,
            SampledClass::FpDiv => Instr::FpDiv,
            SampledClass::Load => Instr::Load {
                addr: self.phase as u64 * PHASE_REGION_BYTES
                    + self.samplers[self.phase].next_addr(),
            },
            SampledClass::Store => Instr::Store {
                addr: self.phase as u64 * PHASE_REGION_BYTES
                    + self.samplers[self.phase].next_addr(),
            },
        }
    }

    fn name(&self) -> &str {
        &self.spec.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::DATA_BASE;

    fn two_phase_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "two-phase".into(),
            phases: vec![
                PhaseSpec {
                    mix: InstructionMix::int_heavy(),
                    pattern: AddressPattern::Random { footprint: 1 << 12 },
                    fraction: 0.5,
                },
                PhaseSpec {
                    mix: InstructionMix::memory_heavy(),
                    pattern: AddressPattern::Random { footprint: 1 << 26 },
                    fraction: 0.5,
                },
            ],
            code_bytes: 16 << 10,
            branch_every: 8,
            nominal_instructions: 10_000,
            seed: 42,
        }
    }

    #[test]
    fn phases_switch_at_boundary() {
        let mut w = two_phase_spec().build();
        for _ in 0..4_000 {
            w.next_instr();
        }
        assert_eq!(w.current_phase(), 0);
        for _ in 0..2_000 {
            w.next_instr();
        }
        assert_eq!(w.current_phase(), 1);
    }

    #[test]
    fn final_phase_absorbs_overrun() {
        let mut w = two_phase_spec().build();
        for _ in 0..50_000 {
            w.next_instr(); // 5× nominal — must not panic
        }
        assert_eq!(w.current_phase(), 1);
    }

    #[test]
    fn addresses_come_from_active_phase_pattern() {
        let mut w = two_phase_spec().build();
        let mut phase0_max = 0;
        // Stop one short of the boundary: the 5000th instruction is
        // already phase 1.
        for _ in 0..4_999 {
            if let Instr::Load { addr } | Instr::Store { addr } = w.next_instr() {
                phase0_max = phase0_max.max(addr - DATA_BASE);
            }
        }
        assert!(
            phase0_max < 1 << 12,
            "phase-0 footprint exceeded: {phase0_max}"
        );
        let mut phase1_max = 0;
        for _ in 0..20_000 {
            if let Instr::Load { addr } | Instr::Store { addr } = w.next_instr() {
                // Phase 1 draws from its own region.
                assert!(addr >= PHASE_REGION_BYTES + DATA_BASE);
                phase1_max = phase1_max.max(addr - PHASE_REGION_BYTES - DATA_BASE);
            }
        }
        assert!(
            phase1_max > 1 << 20,
            "phase-1 footprint too small: {phase1_max}"
        );
    }

    #[test]
    fn branch_targets_stay_in_code_footprint() {
        let mut w = two_phase_spec().build();
        for _ in 0..50_000 {
            if let Instr::Branch { target, .. } = w.next_instr() {
                assert!(target >= CODE_BASE);
                assert!(target < CODE_BASE + (16 << 10) + 64);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = two_phase_spec().build();
        let mut b = two_phase_spec().build();
        for _ in 0..10_000 {
            assert_eq!(a.next_instr(), b.next_instr());
        }
    }

    #[test]
    fn branch_density_near_configured() {
        let mut w = two_phase_spec().build();
        let mut branches = 0;
        const N: usize = 40_000;
        for _ in 0..N {
            if matches!(w.next_instr(), Instr::Branch { .. }) {
                branches += 1;
            }
        }
        let frac = branches as f64 / N as f64;
        assert!((frac - 1.0 / 8.0).abs() < 0.02, "branch fraction {frac}");
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_panics() {
        WorkloadSpec {
            name: "empty".into(),
            phases: vec![],
            code_bytes: 1024,
            branch_every: 8,
            nominal_instructions: 100,
            seed: 0,
        }
        .build();
    }
}
