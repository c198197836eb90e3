//! ORAM access rates and the candidate-rate set `R`.
//!
//! Paper notation (§2.1): "an ORAM rate of r cycles means the next ORAM
//! access happens r cycles after the last access completes". §9.2 chooses
//! the candidate set: extremes 256 and 32768 cycles, with intermediate
//! rates spaced evenly on a lg scale — for `|R| = 4` that yields
//! `{256, 1290, 6501, 32768}`.

use otc_dram::Cycle;

/// The set of candidate ORAM rates the processor may choose among at each
/// epoch transition. Public (part of the leakage parameters the server
/// sends, §5); only the per-epoch *choice* is secret-dependent.
///
/// # Example
///
/// ```
/// use otc_core::RateSet;
///
/// let r = RateSet::log_spaced(256, 32768, 4);
/// assert_eq!(r.rates(), &[256, 1290, 6501, 32768]); // §9.2
/// assert_eq!(r.discretize(2000), 1290);             // nearest candidate
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RateSet {
    rates: Vec<Cycle>,
}

impl RateSet {
    /// Builds a rate set from explicit candidates (sorted, deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if `rates` is empty or contains a zero.
    pub fn new(mut rates: Vec<Cycle>) -> Self {
        assert!(!rates.is_empty(), "rate set must be non-empty");
        assert!(rates.iter().all(|&r| r > 0), "rates must be positive");
        rates.sort_unstable();
        rates.dedup();
        Self { rates }
    }

    /// §9.2's construction: `count` rates between `min` and `max`
    /// inclusive, evenly spaced on a lg scale (each intermediate value
    /// truncated to an integer cycle count, which reproduces the paper's
    /// 1290/6501).
    ///
    /// # Panics
    ///
    /// Panics if `count < 2`, `min == 0`, or `min >= max`.
    pub fn log_spaced(min: Cycle, max: Cycle, count: usize) -> Self {
        assert!(count >= 2, "need at least the two extremes");
        assert!(min > 0 && min < max, "require 0 < min < max");
        let lg_min = (min as f64).log2();
        let lg_max = (max as f64).log2();
        let step = (lg_max - lg_min) / (count as f64 - 1.0);
        let rates = (0..count)
            .map(|i| {
                let lg = lg_min + step * i as f64;
                // Truncate; keep the extremes exact.
                if i == 0 {
                    min
                } else if i == count - 1 {
                    max
                } else {
                    lg.exp2().floor() as Cycle
                }
            })
            .collect();
        Self::new(rates)
    }

    /// The paper's default `R` for a given `|R|` (256–32768 cycles, lg
    /// spaced; §9.2).
    pub fn paper(count: usize) -> Self {
        Self::log_spaced(256, 32768, count)
    }

    /// The candidates, ascending.
    pub fn rates(&self) -> &[Cycle] {
        &self.rates
    }

    /// `|R|`.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// §7.1.3's discretizer: maps a raw predicted interval to the closest
    /// candidate, `argmin_{r ∈ R} |raw − r|`. Ties break toward the
    /// *smaller* (faster) rate — the paper does not specify; faster is the
    /// conservative choice for performance (§7.3 notes the shifter already
    /// biases the same direction).
    pub fn discretize(&self, raw: Cycle) -> Cycle {
        *self
            .rates
            .iter()
            .min_by_key(|&&r| (r.abs_diff(raw), r))
            .expect("non-empty by construction")
    }

    /// The slowest candidate (used when an epoch saw no demand).
    pub fn slowest(&self) -> Cycle {
        *self.rates.last().expect("non-empty")
    }

    /// The fastest candidate.
    pub fn fastest(&self) -> Cycle {
        *self.rates.first().expect("non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_r4() {
        assert_eq!(RateSet::paper(4).rates(), &[256, 1290, 6501, 32768]);
    }

    #[test]
    fn paper_r2_extremes_only() {
        assert_eq!(RateSet::paper(2).rates(), &[256, 32768]);
    }

    #[test]
    fn paper_r8_and_r16_are_lg_spaced() {
        for count in [8usize, 16] {
            let r = RateSet::paper(count);
            assert_eq!(r.len(), count);
            assert_eq!(r.fastest(), 256);
            assert_eq!(r.slowest(), 32768);
            // Ratios between consecutive candidates are near-constant.
            let ratios: Vec<f64> = r
                .rates()
                .windows(2)
                .map(|w| w[1] as f64 / w[0] as f64)
                .collect();
            let expect = (32768f64 / 256.0).powf(1.0 / (count as f64 - 1.0));
            for rho in ratios {
                assert!((rho / expect - 1.0).abs() < 0.02, "ratio {rho} vs {expect}");
            }
        }
    }

    #[test]
    fn paper_sets_hold_every_rate_up_to_1245() {
        // Flooring to whole cycles first merges two neighbours at 1246
        // candidates; `parse_scheme` refuses every count from there up.
        for count in 2..=1245 {
            assert_eq!(RateSet::paper(count).len(), count, "|R| = {count}");
        }
        assert_eq!(RateSet::paper(1246).len(), 1245);
    }

    #[test]
    fn discretize_picks_nearest() {
        let r = RateSet::paper(4);
        assert_eq!(r.discretize(0), 256);
        assert_eq!(r.discretize(256), 256);
        assert_eq!(r.discretize(700), 256); // |700-256|=444 < |700-1290|=590
        assert_eq!(r.discretize(800), 1290); // 544 > 490
        assert_eq!(r.discretize(1_000_000), 32768);
    }

    #[test]
    fn discretize_tie_breaks_fast() {
        let r = RateSet::new(vec![100, 200]);
        assert_eq!(r.discretize(150), 100);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_set_panics() {
        RateSet::new(vec![]);
    }

    #[test]
    fn duplicate_rates_deduped() {
        let r = RateSet::new(vec![5, 5, 7]);
        assert_eq!(r.rates(), &[5, 7]);
    }

    proptest! {
        #[test]
        fn prop_discretize_returns_member_and_is_argmin(
            raw in any::<u64>(),
            mut rates in proptest::collection::vec(1u64..1_000_000, 1..10)
        ) {
            let set = RateSet::new(rates.clone());
            let picked = set.discretize(raw);
            prop_assert!(set.rates().contains(&picked));
            rates.sort_unstable();
            for &r in set.rates() {
                prop_assert!(picked.abs_diff(raw) <= r.abs_diff(raw));
            }
        }

        #[test]
        fn prop_log_spaced_sorted_in_bounds(count in 2usize..20) {
            let set = RateSet::log_spaced(256, 32768, count);
            let rs = set.rates();
            prop_assert!(rs.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(rs[0], 256);
            prop_assert_eq!(*rs.last().expect("non-empty"), 32768);
        }
    }
}
