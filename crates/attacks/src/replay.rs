//! Replay attacks (§8) and the subtly-broken prevention scheme (§8.1).
//!
//! Two executable demonstrations:
//!
//! * [`ReplayAttacker`] — a malicious server that re-runs the user's
//!   encrypted data under fresh leakage parameters to accumulate
//!   `L · N` bits over `N` replays. Against the run-once session-key
//!   design it is stopped after the first run.
//! * [`demonstrate_broken_determinism`] — §8.1's flawed alternative:
//!   binding (program, data, E, R) with an HMAC and relying on
//!   deterministic re-execution. Main-memory timing is *not*
//!   deterministic (bus contention, deliberate interference), the rate
//!   learner's counters shift with it, and near a discretization boundary
//!   the chosen rates — hence the observable traces — differ between
//!   "identical" runs. Each distinguishable re-run leaks afresh.

use otc_core::{
    DividerImpl, EpochSchedule, LeakageParams, RateLimitedOramBackend, RatePolicy, RateSet,
    SecureProcessor, SessionError, UserSession,
};
use otc_crypto::{Ciphertext, SplitMix64};
use otc_dram::{Cycle, DdrConfig};
use otc_oram::OramConfig;
use otc_sim::{AccessKind, MemoryBackend};

/// Outcome of a replay campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Runs the server managed to execute.
    pub successful_runs: u32,
    /// Worst-case bits the campaign could have extracted
    /// (`per_run_bits × successful_runs` — §4.3: "if the server can learn
    /// L bits per program execution, N replays will allow the server to
    /// learn L ∗ N bits").
    pub bits_obtainable: f64,
    /// The error that stopped the campaign, if any.
    pub stopped_by: Option<SessionError>,
}

/// A malicious server replaying the user's data.
#[derive(Debug)]
pub struct ReplayAttacker {
    /// Leakage parameters the server proposes per run (it may vary them
    /// to aim different traces at different bits).
    pub params: LeakageParams,
    /// Replays the server will attempt.
    pub attempts: u32,
}

impl ReplayAttacker {
    /// A default campaign: 10 replays at the paper's R4/E4 parameters.
    pub fn new() -> Self {
        Self {
            params: LeakageParams {
                rate_count: 4,
                schedule: EpochSchedule::scaled(4),
            },
            attempts: 10,
        }
    }

    /// Runs the campaign against a processor holding one active session.
    /// `end_session_after_first` models the honest protocol (the user
    /// terminates their session after receiving the result).
    pub fn run(
        &self,
        processor: &mut SecureProcessor,
        encrypted_data: &Ciphertext,
        end_session_after_first: bool,
    ) -> ReplayOutcome {
        let per_run_bits = self.params.oram_timing_bits();
        let mut successful = 0;
        let mut stopped_by = None;
        for run in 0..self.attempts {
            let outcome = processor.run_program(encrypted_data, &self.params, |d| d.to_vec());
            match outcome {
                Ok(_) => successful += 1,
                Err(e) => {
                    stopped_by = Some(e);
                    break;
                }
            }
            if run == 0 && end_session_after_first {
                processor.end_session();
            }
        }
        ReplayOutcome {
            successful_runs: successful,
            bits_obtainable: per_run_bits * successful as f64,
            stopped_by,
        }
    }
}

impl Default for ReplayAttacker {
    fn default() -> Self {
        Self::new()
    }
}

/// Sets up a processor + user session and returns encrypted data, for
/// replay experiments.
///
/// # Panics
///
/// Panics if session establishment fails (deterministic in tests).
pub fn session_fixture(
    seed: u64,
    leakage_limit_bits: u64,
    data: &[u8],
) -> (SecureProcessor, UserSession, Ciphertext) {
    let mut rng = SplitMix64::new(seed);
    let mut processor = SecureProcessor::manufacture(&mut rng, leakage_limit_bits);
    let user = UserSession::establish(&mut processor, &mut rng).expect("establish session");
    let encrypted = user.encrypt_data(data);
    (processor, user, encrypted)
}

/// §8.1's broken scheme, made concrete: run the *same* (program, data,
/// R, E) twice, but let main-memory arrival timing jitter by a few cycles
/// (bus contention / a DoS-ing co-tenant). Returns the two runs' chosen
/// rate sequences; if they differ, the observable traces differ and the
/// "deterministic re-execution" argument collapses.
///
/// The request pattern is crafted near a rate-discretization boundary so
/// even ±`jitter` cycles of arrival noise flips the learner's choice —
/// exactly the fragility §8.1 describes ("depending on main memory
/// timing … the rate learner \[may\] choose different rates").
pub fn demonstrate_broken_determinism(jitter: Cycle) -> (Vec<Cycle>, Vec<Cycle>) {
    let run = |jitter: Cycle| {
        let mut backend = RateLimitedOramBackend::new(
            OramConfig::small(),
            &DdrConfig::default(),
            RatePolicy::Dynamic {
                rates: RateSet::paper(4),
                schedule: EpochSchedule::new(14, 2, 24),
                divider: DividerImpl::Exact,
                initial_rate: 10_000,
            },
        )
        .expect("valid config");
        // Offered load sits just below the 1290/6501 discretization
        // boundary ((1290 + 6501)/2 ≈ 3895 cycles between completions);
        // per-request arrival jitter pushes the learner's Equation-1
        // average across it.
        let mut now: Cycle = 0;
        for i in 0..120u64 {
            let done = backend.request(i, AccessKind::Read, now);
            now = done + 3_600 + jitter;
        }
        backend.finish(1 << 18);
        backend
            .transitions()
            .iter()
            .map(|t| t.new_rate)
            .collect::<Vec<Cycle>>()
    };
    (run(0), run(jitter))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_protocol_stops_replay_after_one_run() {
        let (mut processor, _user, encrypted) = session_fixture(7, 64, b"secret payload");
        let attacker = ReplayAttacker::new();
        let outcome = attacker.run(&mut processor, &encrypted, true);
        assert_eq!(outcome.successful_runs, 1);
        assert_eq!(outcome.stopped_by, Some(SessionError::NoActiveSession));
        // One run leaks at most the per-run bound (32 bits at R4/E4).
        assert_eq!(outcome.bits_obtainable, 32.0);
    }

    #[test]
    fn without_key_forgetting_replays_multiply_leakage() {
        let (mut processor, _user, encrypted) = session_fixture(8, 64, b"secret payload");
        let attacker = ReplayAttacker::new();
        // Model a (hypothetical) design that never forgets the key.
        let outcome = attacker.run(&mut processor, &encrypted, false);
        assert_eq!(outcome.successful_runs, 10);
        assert_eq!(outcome.bits_obtainable, 320.0); // L·N = 32·10 (§4.3)
        assert_eq!(outcome.stopped_by, None);
    }

    #[test]
    fn broken_determinism_produces_divergent_rate_choices() {
        // A few hundred cycles of memory-bus jitter across runs of the
        // "same" deterministic tuple → different learner outcomes.
        let (clean, jittered) = demonstrate_broken_determinism(800);
        assert!(!clean.is_empty());
        assert_ne!(
            clean, jittered,
            "rate sequences should diverge under timing jitter"
        );
    }

    #[test]
    fn zero_jitter_is_reproducible() {
        let (a, b) = demonstrate_broken_determinism(0);
        assert_eq!(a, b);
    }
}
