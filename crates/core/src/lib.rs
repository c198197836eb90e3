//! **The paper's contribution**: leakage-bounded dynamic ORAM rate control
//! for secure processors — "Suppressing the Oblivious RAM Timing Channel
//! While Making Information Leakage and Program Efficiency Trade-offs"
//! (HPCA 2014).
//!
//! A secure processor that makes Path ORAM accesses on LLC misses leaks
//! its memory-pressure profile over the *timing* of those accesses. This
//! crate implements the paper's answer:
//!
//! 1. [`EpochSchedule`] — runtime split into geometrically growing epochs.
//! 2. [`RateSet`] — a small public set `R` of candidate ORAM rates; within
//!    an epoch the rate is fixed.
//! 3. [`PerfCounters`] + [`RatePredictor`] — the on-chip rate learner
//!    (§7): Equation 1 over `AccessCount`/`ORAMCycles`/`Waste`, with the
//!    Algorithm-1 shift-register divider.
//! 4. [`RateLimitedOramBackend`] — the enforcement frontend: accesses
//!    happen at strictly scheduled slots, with indistinguishable dummy
//!    accesses filling idle slots.
//! 5. [`LeakageModel`] — the information-theoretic accounting: the
//!    observable trace space has at most `|R|^|E| · Tmax` members, so
//!    leakage ≤ `|E|·lg|R| + lg Tmax` bits.
//! 6. [`SecureProcessor`]/[`UserSession`] — the §5 user–server protocol
//!    with §8's run-once session keys that defeat replay attacks.
//!
//! # Example: bounding leakage to 32 bits
//!
//! ```
//! use otc_core::{EpochSchedule, LeakageModel, RateSet, Scheme};
//!
//! // The paper's headline configuration (§9.3): |R| = 4, epochs grow 4×.
//! let scheme = Scheme::dynamic(4, 4);
//! assert_eq!(scheme.label(), "dynamic_R4_E4");
//! assert_eq!(scheme.oram_timing_leakage_bits(), 32.0);
//!
//! // The rate candidates are public; only the per-epoch choice leaks.
//! assert_eq!(RateSet::paper(4).rates(), &[256, 1290, 6501, 32768]);
//!
//! // Early termination adds lg Tmax = 62 bits (§9.1.5): 94 bits total.
//! let model = LeakageModel::new(4, EpochSchedule::paper(4));
//! assert_eq!(model.total_bits(), 94.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bignat;
mod enforcer;
mod epoch;
mod leakage;
mod learner;
mod overhead_predictor;
mod rate;
mod scheme;
mod session;

pub use bignat::BigNat;
pub use enforcer::{
    parse_scheme, EpochTransition, RateLimitedOramBackend, RatePolicy, SlotOutcome, SlotRecord,
    SlotStream, UnprotectedOramBackend, MAX_STATIC_RATE,
};
pub use epoch::EpochSchedule;
pub use leakage::{
    combine_channels, probabilistic_learn_probability, unprotected_leakage_bits_approx,
    unprotected_trace_count, LeakageModel,
};
pub use learner::{DividerImpl, PerfCounters, RatePredictor};
pub use overhead_predictor::OverheadPredictor;
pub use rate::RateSet;
pub use scheme::Scheme;
pub use session::{LeakageParams, SecureProcessor, SessionError, UserSession};
