//! The five evaluated memory-system configurations (§9.1.6) as a single
//! catalog: each scheme's name, rate policy, backend and leakage bound
//! come from here, so benches, examples and the host build them alike.

use crate::enforcer::{RateLimitedOramBackend, RatePolicy, UnprotectedOramBackend};
use crate::epoch::EpochSchedule;
use crate::learner::DividerImpl;
use crate::rate::RateSet;
use otc_dram::{Cycle, DdrConfig};
use otc_oram::OramConfig;
use otc_sim::{DramBackend, MemoryBackend};

/// One of the paper's evaluated schemes.
#[derive(Debug, Clone, PartialEq)]
pub enum Scheme {
    /// Insecure flat-latency DRAM (all overheads are reported relative to
    /// this).
    BaseDram,
    /// Path ORAM with no timing protection — a performance/power oracle
    /// that leaks unboundedly over the timing channel.
    BaseOram,
    /// Strictly periodic ORAM at a fixed rate (Ascend-style, \[7\]).
    Static {
        /// The fixed rate in cycles.
        rate: Cycle,
    },
    /// The paper's dynamic leakage-bounded scheme; build it with
    /// [`Scheme::dynamic`].
    Dynamic {
        /// `|R|` candidates (lg-spaced 256–32768, §9.2).
        rate_count: usize,
        /// Epoch schedule; its growth factor (2, 4, 8 or 16; §9.5) is
        /// the scheme's `E`.
        schedule: EpochSchedule,
    },
}

impl Scheme {
    /// The scheme lineup of Fig. 6: `base_oram`, `dynamic_R4_E4`,
    /// `static_300`, `static_500`, `static_1300` (plus `base_dram` as the
    /// normalization baseline).
    pub fn figure6_lineup() -> Vec<Scheme> {
        vec![
            Scheme::BaseOram,
            Scheme::dynamic(4, 4),
            Scheme::Static { rate: 300 },
            Scheme::Static { rate: 500 },
            Scheme::Static { rate: 1300 },
        ]
    }

    /// A dynamic scheme at the reproduction's scaled epoch schedule.
    pub fn dynamic(rate_count: usize, epoch_growth: u32) -> Scheme {
        Scheme::Dynamic {
            rate_count,
            schedule: EpochSchedule::scaled(epoch_growth),
        }
    }

    /// The rate policy enforcing this scheme (`None` for the two
    /// baselines, which enforce no rate). A dynamic scheme runs §9.2's
    /// learner: the paper's lg-spaced `R`, Algorithm 1's shift-register
    /// divider, and 10000 cycles in the first epoch.
    pub fn policy(&self) -> Option<RatePolicy> {
        match *self {
            Scheme::BaseDram | Scheme::BaseOram => None,
            Scheme::Static { rate } => Some(RatePolicy::Static { rate }),
            Scheme::Dynamic {
                rate_count,
                schedule,
            } => Some(RatePolicy::Dynamic {
                rates: RateSet::paper(rate_count),
                schedule,
                divider: DividerImpl::ShiftRegister,
                initial_rate: 10_000,
            }),
        }
    }

    /// Paper-style label (`base_dram`, `static_300`, `dynamic_R4_E4`, …).
    pub fn label(&self) -> String {
        match (self, self.policy()) {
            (_, Some(policy)) => policy.label(),
            (Scheme::BaseOram, None) => "base_oram".into(),
            _ => "base_dram".into(),
        }
    }

    /// Builds the memory backend implementing this scheme. The box hides
    /// the backend's observable trace, so none is recorded.
    ///
    /// # Errors
    ///
    /// Propagates ORAM configuration errors.
    pub fn build_backend(
        &self,
        oram_config: &OramConfig,
        ddr: &DdrConfig,
    ) -> Result<Box<dyn MemoryBackend>, String> {
        Ok(match (self, self.policy()) {
            (_, Some(policy)) => {
                let mut backend = RateLimitedOramBackend::new(oram_config.clone(), ddr, policy)?;
                backend.set_trace_recording(false);
                Box::new(backend)
            }
            (Scheme::BaseOram, None) => {
                let mut backend = UnprotectedOramBackend::new(oram_config.clone(), ddr)?;
                backend.set_trace_recording(false);
                Box::new(backend)
            }
            _ => Box::new(DramBackend::new()),
        })
    }

    /// Worst-case ORAM-timing leakage of this scheme in bits (§9.1.5's
    /// accounting; termination leakage is separate and common to all).
    pub fn oram_timing_leakage_bits(&self) -> f64 {
        match (self, self.policy()) {
            (_, Some(policy)) => policy.leakage_params().oram_timing_bits(),
            // base_oram leaks unboundedly (the trace count is
            // astronomical — see `leakage::unprotected_trace_count`).
            (Scheme::BaseOram, None) => f64::INFINITY,
            // base_dram has no ORAM.
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(Scheme::BaseDram.label(), "base_dram");
        assert_eq!(Scheme::BaseOram.label(), "base_oram");
        assert_eq!(Scheme::Static { rate: 300 }.label(), "static_300");
        assert_eq!(Scheme::dynamic(4, 4).label(), "dynamic_R4_E4");
    }

    #[test]
    fn figure6_lineup_is_the_papers() {
        let labels: Vec<String> = Scheme::figure6_lineup().iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec![
                "base_oram",
                "dynamic_R4_E4",
                "static_300",
                "static_500",
                "static_1300"
            ]
        );
    }

    #[test]
    fn leakage_per_scheme() {
        assert_eq!(Scheme::Static { rate: 300 }.oram_timing_leakage_bits(), 0.0);
        assert_eq!(Scheme::dynamic(4, 4).oram_timing_leakage_bits(), 32.0);
        assert_eq!(Scheme::dynamic(4, 16).oram_timing_leakage_bits(), 16.0);
        assert!(Scheme::BaseOram.oram_timing_leakage_bits().is_infinite());
    }

    #[test]
    fn backends_build_and_label() {
        let cfg = OramConfig::small();
        let ddr = DdrConfig::default();
        for scheme in Scheme::figure6_lineup() {
            let b = scheme.build_backend(&cfg, &ddr).expect("builds");
            assert_eq!(b.label(), scheme.label());
        }
        let dram = Scheme::BaseDram.build_backend(&cfg, &ddr).expect("builds");
        assert_eq!(dram.label(), "base_dram");
    }
}
