//! Instruction-class mixes.
//!
//! A mix assigns integer weights to the simulator's instruction classes;
//! the generator samples from it. Weights rather than floats keep the
//! sampling exact and the configurations hash-friendly.

use otc_crypto::SplitMix64;

/// Relative weights of instruction classes within a workload phase.
///
/// Branches are handled separately by the generator (they need targets and
/// a code-layout model), so a mix covers only computational and memory
/// classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstructionMix {
    /// Integer ALU weight.
    pub int_alu: u32,
    /// Integer multiply weight.
    pub int_mul: u32,
    /// Integer divide weight.
    pub int_div: u32,
    /// FP add/sub weight.
    pub fp_alu: u32,
    /// FP multiply weight.
    pub fp_mul: u32,
    /// FP divide weight.
    pub fp_div: u32,
    /// Load weight.
    pub load: u32,
    /// Store weight.
    pub store: u32,
}

/// What a sampled non-branch instruction should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampledClass {
    /// Integer ALU.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide.
    IntDiv,
    /// FP add/sub.
    FpAlu,
    /// FP multiply.
    FpMul,
    /// FP divide.
    FpDiv,
    /// Load (address supplied by the address pattern).
    Load,
    /// Store (address supplied by the address pattern).
    Store,
}

/// The classes in sampling order.
const CLASSES: [SampledClass; 8] = [
    SampledClass::IntAlu,
    SampledClass::IntMul,
    SampledClass::IntDiv,
    SampledClass::FpAlu,
    SampledClass::FpMul,
    SampledClass::FpDiv,
    SampledClass::Load,
    SampledClass::Store,
];

/// A mix's classes with their cumulative weights. Sampling draws
/// `next_below(total)` and takes the first class whose cumulative weight
/// exceeds the draw, which is the class a walk subtracting each weight
/// in turn reaches: the same draw picks the same class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ClassTable {
    /// `bounds[i]` is the sum of the weights of classes `0..=i`; the
    /// last is the mix's total.
    bounds: [u32; CLASSES.len()],
}

impl ClassTable {
    /// Samples one class.
    #[inline]
    pub(crate) fn sample(&self, rng: &mut SplitMix64) -> SampledClass {
        let total = self.bounds[CLASSES.len() - 1];
        self.class_of(rng.next_below(u64::from(total)) as u32)
    }

    /// The class of draw `x`, which is below the total.
    #[inline]
    fn class_of(&self, x: u32) -> SampledClass {
        let class = self.bounds.iter().position(|&bound| x < bound);
        CLASSES[class.expect("draw below the total")]
    }
}

impl InstructionMix {
    /// An integer-heavy mix typical of control-flow-bound SPEC-int code.
    pub fn int_heavy() -> Self {
        Self {
            int_alu: 60,
            int_mul: 4,
            int_div: 1,
            fp_alu: 0,
            fp_mul: 0,
            fp_div: 0,
            load: 25,
            store: 10,
        }
    }

    /// A memory-heavy mix (pointer chasing / streaming kernels).
    pub fn memory_heavy() -> Self {
        Self {
            int_alu: 45,
            int_mul: 2,
            int_div: 0,
            fp_alu: 0,
            fp_mul: 0,
            fp_div: 0,
            load: 38,
            store: 15,
        }
    }

    /// A media/FP-flavored compute mix (h264ref-style).
    pub fn fp_compute() -> Self {
        Self {
            int_alu: 40,
            int_mul: 8,
            int_div: 1,
            fp_alu: 12,
            fp_mul: 8,
            fp_div: 1,
            load: 22,
            store: 8,
        }
    }

    /// Sum of weights.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero.
    pub fn total(&self) -> u32 {
        let t = self.int_alu
            + self.int_mul
            + self.int_div
            + self.fp_alu
            + self.fp_mul
            + self.fp_div
            + self.load
            + self.store;
        assert!(t > 0, "mix must have at least one non-zero weight");
        t
    }

    /// Samples one class.
    pub fn sample(&self, rng: &mut SplitMix64) -> SampledClass {
        self.table().sample(rng)
    }

    /// The mix's class table. A generator builds one per phase, once,
    /// and samples it on every instruction.
    ///
    /// # Panics
    ///
    /// Panics if all weights are zero.
    pub(crate) fn table(&self) -> ClassTable {
        let weights = [
            self.int_alu,
            self.int_mul,
            self.int_div,
            self.fp_alu,
            self.fp_mul,
            self.fp_div,
            self.load,
            self.store,
        ];
        let mut bounds = [0; CLASSES.len()];
        let mut sum = 0;
        for (bound, weight) in bounds.iter_mut().zip(weights) {
            sum += weight;
            *bound = sum;
        }
        assert!(sum > 0, "mix must have at least one non-zero weight");
        ClassTable { bounds }
    }

    /// Fraction of sampled instructions that touch memory.
    pub fn memory_fraction(&self) -> f64 {
        (self.load + self.store) as f64 / self.total() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_respects_weights() {
        let mix = InstructionMix {
            int_alu: 50,
            int_mul: 0,
            int_div: 0,
            fp_alu: 0,
            fp_mul: 0,
            fp_div: 0,
            load: 50,
            store: 0,
        };
        let mut rng = SplitMix64::new(1);
        let mut loads = 0;
        const N: usize = 10_000;
        for _ in 0..N {
            if mix.sample(&mut rng) == SampledClass::Load {
                loads += 1;
            }
        }
        let frac = loads as f64 / N as f64;
        assert!((frac - 0.5).abs() < 0.05, "load fraction {frac}");
    }

    #[test]
    fn zero_weight_classes_never_sampled() {
        let mix = InstructionMix::int_heavy(); // no FP
        let mut rng = SplitMix64::new(2);
        for _ in 0..5_000 {
            let c = mix.sample(&mut rng);
            assert!(!matches!(
                c,
                SampledClass::FpAlu | SampledClass::FpMul | SampledClass::FpDiv
            ));
        }
    }

    #[test]
    fn table_picks_the_class_the_weight_walk_picks() {
        // The walk the table replaced: subtract each weight in turn
        // until the draw falls inside one.
        fn walk(mix: &InstructionMix, mut x: u32) -> SampledClass {
            let weights = [
                mix.int_alu,
                mix.int_mul,
                mix.int_div,
                mix.fp_alu,
                mix.fp_mul,
                mix.fp_div,
                mix.load,
                mix.store,
            ];
            for (w, c) in weights.into_iter().zip(CLASSES) {
                if x < w {
                    return c;
                }
                x -= w;
            }
            unreachable!("draw within total")
        }
        let sparse = InstructionMix {
            int_alu: 0,
            int_mul: 3,
            int_div: 0,
            fp_alu: 0,
            fp_mul: 1,
            fp_div: 0,
            load: 0,
            store: 2,
        };
        for mix in [
            InstructionMix::int_heavy(),
            InstructionMix::memory_heavy(),
            InstructionMix::fp_compute(),
            sparse,
        ] {
            let table = mix.table();
            for x in 0..mix.total() {
                assert_eq!(table.class_of(x), walk(&mix, x), "{mix:?} draw {x}");
            }
        }
    }

    #[test]
    fn memory_fractions_ordered() {
        assert!(
            InstructionMix::memory_heavy().memory_fraction()
                > InstructionMix::int_heavy().memory_fraction()
        );
    }

    #[test]
    #[should_panic(expected = "non-zero weight")]
    fn all_zero_mix_panics() {
        InstructionMix {
            int_alu: 0,
            int_mul: 0,
            int_div: 0,
            fp_alu: 0,
            fp_mul: 0,
            fp_div: 0,
            load: 0,
            store: 0,
        }
        .total();
    }
}
