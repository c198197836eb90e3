//! Epoch schedules (§6).
//!
//! Program runtime is split into epochs; the ORAM rate may change only at
//! epoch transitions, and each epoch is at least twice the length of the
//! previous one. With a first epoch of `2^f` cycles, a per-epoch growth
//! factor `g` and a maximum runtime `Tmax = 2^t`, the schedule expends
//! `ceil((t − f) / lg g)` epochs — e.g. the paper's `dynamic_R4_E4`
//! (f = 30, g = 4, t = 62) expends 16 epochs, bounding ORAM-timing leakage
//! at `16 · lg 4 = 32` bits (§2.2.1, Example 6.1).

use otc_dram::Cycle;

/// A geometric epoch schedule.
///
/// # Example
///
/// ```
/// use otc_core::EpochSchedule;
///
/// // The paper's epoch-doubling example (Example 6.1):
/// let e = EpochSchedule::new(30, 2, 62);
/// assert_eq!(e.total_epochs(), 32);
/// assert_eq!(e.epoch_length(0), 1 << 30);
/// assert_eq!(e.epoch_length(1), 1 << 31);
///
/// // dynamic_R4_E4 (§9.3): 16 epochs.
/// assert_eq!(EpochSchedule::new(30, 4, 62).total_epochs(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSchedule {
    first_epoch_log2: u32,
    growth: u32,
    tmax_log2: u32,
}

impl EpochSchedule {
    /// Creates a schedule: first epoch `2^first_epoch_log2` cycles, each
    /// subsequent epoch `growth`× longer, maximum runtime
    /// `2^tmax_log2` cycles.
    ///
    /// # Panics
    ///
    /// Panics unless `growth` is a power of two ≥ 2 (the paper's schedules
    /// are ≥ 2× per epoch; powers of two keep the leakage arithmetic
    /// exact) and `first_epoch_log2 < tmax_log2 ≤ 63`.
    pub fn new(first_epoch_log2: u32, growth: u32, tmax_log2: u32) -> Self {
        assert!(
            growth >= 2 && growth.is_power_of_two(),
            "growth must be a power of two ≥ 2"
        );
        assert!(
            first_epoch_log2 < tmax_log2 && tmax_log2 <= 63,
            "require first_epoch_log2 < tmax_log2 ≤ 63"
        );
        Self {
            first_epoch_log2,
            growth,
            tmax_log2,
        }
    }

    /// The paper's configuration: first epoch 2^30 cycles, Tmax = 2^62
    /// (§5, §6.2), with the given growth factor (2 for `E2`, 4 for `E4`…).
    pub fn paper(growth: u32) -> Self {
        Self::new(30, 2, 62).with_growth(growth)
    }

    /// The reproduction's scaled default: first epoch 2^20 cycles,
    /// Tmax = 2^52 — 2^10 times shorter than the paper's, because runs
    /// here retire millions of instructions rather than billions, yet the
    /// same epoch count at every growth factor, so identical leakage
    /// bounds. Whether the shorter epochs move the Fig. 6 figures is an
    /// open question (ROADMAP item 3).
    pub fn scaled(growth: u32) -> Self {
        Self::new(20, 2, 52).with_growth(growth)
    }

    /// Returns the same schedule with a different growth factor.
    pub fn with_growth(mut self, growth: u32) -> Self {
        assert!(
            growth >= 2 && growth.is_power_of_two(),
            "growth must be a power of two ≥ 2"
        );
        self.growth = growth;
        self
    }

    /// First-epoch length in cycles.
    pub fn first_epoch(&self) -> Cycle {
        1u64 << self.first_epoch_log2
    }

    /// The maximum-runtime bound `Tmax` (§5): used only for leakage
    /// accounting, not enforced by the simulator.
    pub fn tmax(&self) -> Cycle {
        1u64 << self.tmax_log2
    }

    /// `lg Tmax` (the early-termination leakage bound, §6).
    pub fn tmax_log2(&self) -> u32 {
        self.tmax_log2
    }

    /// Growth factor between consecutive epochs.
    pub fn growth(&self) -> u32 {
        self.growth
    }

    /// Number of epochs expended over a full `Tmax` run:
    /// `ceil((lg Tmax − lg E0) / lg growth)` (§6.1, Example 6.1).
    pub fn total_epochs(&self) -> u32 {
        let span = self.tmax_log2 - self.first_epoch_log2;
        let lg_g = self.growth.trailing_zeros();
        span.div_ceil(lg_g)
    }

    /// Length in cycles of epoch `i` (0-based). Saturates at `u64::MAX`
    /// rather than overflowing for schedules that outgrow 2^63.
    pub fn epoch_length(&self, i: u32) -> Cycle {
        let lg_g = self.growth.trailing_zeros();
        let shift = self.first_epoch_log2 as u64 + (lg_g as u64) * i as u64;
        if shift >= 64 {
            u64::MAX
        } else {
            1u64 << shift
        }
    }

    /// The absolute cycle at which epoch `i` ends (and epoch `i+1`
    /// begins): the cumulative sum of epoch lengths. Saturating.
    pub fn epoch_end(&self, i: u32) -> Cycle {
        let mut acc: u64 = 0;
        for k in 0..=i {
            acc = acc.saturating_add(self.epoch_length(k));
        }
        acc
    }

    /// Which epoch contains `cycle`.
    pub fn epoch_at(&self, cycle: Cycle) -> u32 {
        let mut i = 0;
        while cycle >= self.epoch_end(i) {
            i += 1;
        }
        i
    }

    /// Epochs whose *transitions* occur at or before `cycle` — i.e. how
    /// many rate choices a run of this length has revealed. Equals
    /// [`EpochSchedule::epoch_at`] (the first epoch's rate is fixed and
    /// public, §6.2, so it reveals nothing).
    pub fn transitions_by(&self, cycle: Cycle) -> u32 {
        self.epoch_at(cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_epoch_counts_match_section_9() {
        // §9.3: dynamic_R4_E4 expends 16 epochs; Example 6.1: doubling
        // expends 32.
        assert_eq!(EpochSchedule::paper(2).total_epochs(), 32);
        assert_eq!(EpochSchedule::paper(4).total_epochs(), 16);
        assert_eq!(EpochSchedule::paper(8).total_epochs(), 11); // ceil(32/3)
        assert_eq!(EpochSchedule::paper(16).total_epochs(), 8); // §9.5
    }

    #[test]
    fn scaled_preserves_epoch_counts() {
        for g in [2u32, 4, 8, 16] {
            assert_eq!(
                EpochSchedule::paper(g).total_epochs(),
                EpochSchedule::scaled(g).total_epochs(),
                "growth {g}"
            );
        }
    }

    #[test]
    fn doubling_lengths() {
        let e = EpochSchedule::new(10, 2, 20);
        assert_eq!(e.epoch_length(0), 1024);
        assert_eq!(e.epoch_length(1), 2048);
        assert_eq!(e.epoch_end(0), 1024);
        assert_eq!(e.epoch_end(1), 1024 + 2048);
    }

    #[test]
    fn epoch_at_boundaries() {
        let e = EpochSchedule::new(10, 2, 20);
        assert_eq!(e.epoch_at(0), 0);
        assert_eq!(e.epoch_at(1023), 0);
        assert_eq!(e.epoch_at(1024), 1);
        assert_eq!(e.epoch_at(1024 + 2048 - 1), 1);
        assert_eq!(e.epoch_at(1024 + 2048), 2);
    }

    #[test]
    fn saturating_lengths_do_not_overflow() {
        let e = EpochSchedule::new(30, 16, 62);
        // Epoch 20 would be 2^110 cycles; saturates instead of panicking.
        assert_eq!(e.epoch_length(20), u64::MAX);
        assert!(e.epoch_end(20) >= e.epoch_end(19));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn growth_of_three_rejected() {
        EpochSchedule::new(10, 3, 20);
    }

    proptest! {
        #[test]
        fn prop_epoch_at_is_monotone(f in 4u32..20, lg_g in 1u32..5, t in 21u32..40,
                                     c1 in 0u64..u64::MAX >> 20, c2 in 0u64..u64::MAX >> 20) {
            let e = EpochSchedule::new(f, 1 << lg_g, t);
            let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
            prop_assert!(e.epoch_at(lo) <= e.epoch_at(hi));
        }

        #[test]
        fn prop_lengths_grow_by_factor(f in 4u32..16, lg_g in 1u32..5, i in 0u32..6) {
            let e = EpochSchedule::new(f, 1 << lg_g, 62);
            let a = e.epoch_length(i);
            let b = e.epoch_length(i + 1);
            if b != u64::MAX {
                prop_assert_eq!(b / a, 1u64 << lg_g);
            }
        }
    }
}
