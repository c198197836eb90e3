//! Rate-enforced ORAM backends — the paper's architecture (§2.2, Fig. 3).
//!
//! # The enforced timeline
//!
//! With rate `r` and access latency `OLAT`, accesses happen at *slots*:
//!
//! ```text
//! s_0 = r,   s_{k+1} = (s_k + OLAT) + r(at completion of slot k)
//! ```
//!
//! Every slot performs an ORAM access: a *real* one if a request is
//! pending at slot start, else an indistinguishable *dummy* (§1.1.2).
//! Consequently the observable timeline is a pure function of the rate
//! sequence — for a static scheme it is one fixed trace (0 bits); for the
//! dynamic scheme the number of distinct traces is at most `|R|^|E|`
//! (§2.2.1), and *nothing else about the program's memory behaviour is
//! visible*. The property tests at the bottom of this module check
//! exactly that.
//!
//! The slot timeline itself is factored into [`SlotStream`] — policy,
//! epoch transitions, learner counters, waste and trace — which both
//! [`RateLimitedOramBackend`] (one ORAM per stream) and the multi-tenant
//! scheduler in `otc-host` (many streams over sharded ORAMs) drive.
//!
//! Three backends are provided:
//!
//! * [`UnprotectedOramBackend`] — `base_oram` (§9.1.6): back-to-back
//!   accesses on demand; the timing trace is data-dependent (that's the
//!   vulnerability of Fig. 1).
//! * [`RateLimitedOramBackend`] with [`RatePolicy::Static`] —
//!   `static_300`-style strict periodic schemes ([7]).
//! * [`RateLimitedOramBackend`] with [`RatePolicy::Dynamic`] — the paper's
//!   contribution: per-epoch rate selection by the on-chip learner.

use crate::epoch::EpochSchedule;
use crate::learner::{DividerImpl, PerfCounters, RatePredictor};
use crate::rate::RateSet;
use otc_dram::{Cycle, DdrConfig};
use otc_oram::{OramConfig, OramTiming, RecursivePathOram};
use otc_sim::{AccessKind, BackendEnergyProfile, MemoryBackend};
use std::collections::VecDeque;

/// Cap on recorded trace entries (memory guard for very long runs; the
/// count of slots is always tracked exactly).
const TRACE_CAP: usize = 4_000_000;

/// One observable access slot.
///
/// An adversary monitoring the pins (§4.2) sees `start` (and the fixed
/// latency). Whether the access was real is *not* observable — the field
/// exists for analysis and assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotRecord {
    /// Cycle at which the access began.
    pub start: Cycle,
    /// Whether a real request was served (invisible to the adversary).
    pub real: bool,
}

/// One epoch transition taken by the dynamic scheme (for Fig. 7's epoch
/// markers and for audit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochTransition {
    /// Index of the epoch that just *ended*.
    pub epoch: u32,
    /// Cycle at which the transition was processed.
    pub at: Cycle,
    /// Equation-1 raw prediction computed from the ended epoch.
    pub raw_prediction: u64,
    /// The discretized rate chosen for the next epoch.
    pub new_rate: Cycle,
}

/// Rate-selection policy for [`RateLimitedOramBackend`].
#[derive(Debug, Clone)]
pub enum RatePolicy {
    /// One rate forever — zero ORAM-timing leakage (\[7\]'s approach,
    /// evaluated as `static_300`/`static_500`/`static_1300` in §9).
    Static {
        /// The fixed rate in cycles.
        rate: Cycle,
    },
    /// The paper's dynamic scheme: a new rate from `rates` is chosen by
    /// the learner at the end of each epoch of `schedule`.
    Dynamic {
        /// Candidate rate set `R` (public).
        rates: RateSet,
        /// Epoch schedule `E` (public).
        schedule: EpochSchedule,
        /// Divider implementation for Equation 1.
        divider: DividerImpl,
        /// Rate used during the first epoch, before any counters exist
        /// (§9.2 uses 10000 cycles).
        initial_rate: Cycle,
    },
}

impl RatePolicy {
    /// The paper's dynamic configuration `dynamic_R{n}_E{g}` at the
    /// reproduction's scaled epoch schedule.
    pub fn dynamic_paper(rate_count: usize, growth: u32) -> Self {
        RatePolicy::Dynamic {
            rates: RateSet::paper(rate_count),
            schedule: EpochSchedule::scaled(growth),
            divider: DividerImpl::ShiftRegister,
            initial_rate: 10_000,
        }
    }

    /// The fastest rate this policy can ever put in force (admission
    /// control sizes worst-case slot demand from this).
    pub fn fastest_rate(&self) -> Cycle {
        match self {
            RatePolicy::Static { rate } => *rate,
            RatePolicy::Dynamic {
                rates,
                initial_rate,
                ..
            } => rates.fastest().min(*initial_rate),
        }
    }

    /// The slowest rate this policy can ever put in force (bounds how
    /// long a slot can take, e.g. for run-horizon sizing).
    pub fn slowest_rate(&self) -> Cycle {
        match self {
            RatePolicy::Static { rate } => *rate,
            RatePolicy::Dynamic {
                rates,
                initial_rate,
                ..
            } => rates.slowest().max(*initial_rate),
        }
    }

    /// Paper-style label for this policy (`static_300`, `dynamic_R4_E4`).
    pub fn label(&self) -> String {
        match self {
            RatePolicy::Static { rate } => format!("static_{rate}"),
            RatePolicy::Dynamic {
                rates, schedule, ..
            } => format!("dynamic_R{}_E{}", rates.len(), schedule.growth()),
        }
    }
}

/// What [`SlotStream::serve`] did for one slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotOutcome {
    /// Cycle at which the access began (= the slot time).
    pub start: Cycle,
    /// Cycle at which the access completed (`start + OLAT`).
    pub completion: Cycle,
    /// Whether a real request was served.
    pub real: bool,
}

/// The rate enforcer's observable slot timeline, factored out of
/// [`RateLimitedOramBackend`] so external schedulers (notably the
/// multi-tenant host in `otc-host`) can interleave many tenants' slot
/// streams while each stream's timing stays a pure function of its rate
/// choices.
///
/// A `SlotStream` owns *when* accesses happen — rate policy, epoch
/// transitions, the learner's counters, waste accounting and the
/// observable trace — but not *what* they touch: the caller performs the
/// actual (real or dummy) ORAM access for every served slot.
pub struct SlotStream {
    olat: Cycle,
    policy: RatePolicy,
    current_rate: Cycle,
    next_slot: Cycle,
    /// Cycle the stream's grid is anchored at: the first slot is
    /// `origin + rate`, and the epoch schedule runs relative to `origin`.
    /// 0 for streams created at host start; the admission clock for
    /// tenants spliced in mid-run.
    origin: Cycle,
    // Learner state (dynamic only; counters idle for static).
    counters: PerfCounters,
    epoch_index: u32,
    transitions: Vec<EpochTransition>,
    // Previous slot, for Fig. 4 Req-3 waste accounting.
    last_completion: Cycle,
    last_was_real: bool,
    // Observables & accounting.
    trace: Vec<SlotRecord>,
    record_trace: bool,
    slots_served: u64,
    real_served: u64,
    dummy_served: u64,
    lifetime_waste: u64,
    lifetime_oram_cycles: u64,
}

impl std::fmt::Debug for SlotStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotStream")
            .field("label", &self.policy.label())
            .field("current_rate", &self.current_rate)
            .field("next_slot", &self.next_slot)
            .field("slots_served", &self.slots_served)
            .finish()
    }
}

impl SlotStream {
    /// Creates a stream for an ORAM with access latency `olat` under
    /// `policy`. The first slot is scheduled `rate` cycles after time 0.
    pub fn new(olat: Cycle, policy: RatePolicy) -> Self {
        Self::starting_at(olat, policy, 0)
    }

    /// As [`SlotStream::new`], anchoring the grid at `origin` instead of
    /// time 0: the first slot is `origin + rate`, and the epoch schedule
    /// `E` runs relative to `origin`. This is how a tenant admitted
    /// mid-run splices into a host whose clock is already at `origin`
    /// without materializing a backlog of phantom past-due slots.
    pub fn starting_at(olat: Cycle, policy: RatePolicy, origin: Cycle) -> Self {
        let initial = match &policy {
            RatePolicy::Static { rate } => {
                assert!(*rate > 0, "rate must be positive");
                *rate
            }
            RatePolicy::Dynamic { initial_rate, .. } => {
                assert!(*initial_rate > 0, "initial rate must be positive");
                *initial_rate
            }
        };
        Self {
            olat,
            policy,
            current_rate: initial,
            next_slot: origin + initial,
            origin,
            counters: PerfCounters::new(),
            epoch_index: 0,
            transitions: Vec::new(),
            last_completion: 0,
            last_was_real: false,
            trace: Vec::new(),
            record_trace: true,
            slots_served: 0,
            real_served: 0,
            dummy_served: 0,
            lifetime_waste: 0,
            lifetime_oram_cycles: 0,
        }
    }

    /// Time of the next scheduled slot.
    pub fn next_slot(&self) -> Cycle {
        self.next_slot
    }

    /// Cycle the grid is anchored at (0 unless built with
    /// [`SlotStream::starting_at`]).
    pub fn origin(&self) -> Cycle {
        self.origin
    }

    /// The rate currently in force.
    pub fn current_rate(&self) -> Cycle {
        self.current_rate
    }

    /// ORAM access latency (`OLAT`).
    pub fn olat(&self) -> Cycle {
        self.olat
    }

    /// The policy's paper-style label.
    pub fn label(&self) -> String {
        self.policy.label()
    }

    /// The rate policy driving this stream.
    pub fn policy(&self) -> &RatePolicy {
        &self.policy
    }

    /// Disables trace recording (slot counts stay exact).
    pub fn set_trace_recording(&mut self, on: bool) {
        self.record_trace = on;
    }

    /// Observable slot trace (up to an internal cap).
    pub fn trace(&self) -> &[SlotRecord] {
        &self.trace
    }

    /// Epoch transitions taken so far (empty for static policies).
    pub fn transitions(&self) -> &[EpochTransition] {
        &self.transitions
    }

    /// Total slots served (= real + dummy accesses).
    pub fn slots_served(&self) -> u64 {
        self.slots_served
    }

    /// Slots that served a real request.
    pub fn real_served(&self) -> u64 {
        self.real_served
    }

    /// Slots that served an indistinguishable dummy.
    pub fn dummy_served(&self) -> u64 {
        self.dummy_served
    }

    /// Fraction of served slots that were dummies.
    pub fn dummy_fraction(&self) -> f64 {
        if self.slots_served == 0 {
            0.0
        } else {
            self.dummy_served as f64 / self.slots_served as f64
        }
    }

    /// Cumulative Fig. 4 waste over the stream's whole lifetime (the
    /// learner's per-epoch counter resets at each transition; this one
    /// never resets — it is the host's per-tenant efficiency metric).
    pub fn lifetime_waste(&self) -> u64 {
        self.lifetime_waste
    }

    /// Cumulative ORAM busy cycles charged to real accesses.
    pub fn lifetime_oram_cycles(&self) -> u64 {
        self.lifetime_oram_cycles
    }

    /// Completion time of the most recently served slot (0 before any).
    pub fn last_completion(&self) -> Cycle {
        self.last_completion
    }

    /// Serves the slot at [`SlotStream::next_slot`]. `pending_arrival` is
    /// the arrival time of the oldest queued request, if one arrived by
    /// slot start; `Some` makes this a real access, `None` a dummy. The
    /// caller must perform the corresponding ORAM access.
    pub fn serve(&mut self, pending_arrival: Option<Cycle>) -> SlotOutcome {
        let start = self.next_slot;
        // Saturating: at million-round horizons a runaway rate (or a
        // caller driving the stream to the numeric edge) must park the
        // stream at the end of time, not wrap its slot grid back to
        // cycle zero and corrupt every downstream queue.
        let completion = start.saturating_add(self.olat);

        let real = match pending_arrival {
            Some(arrival) => {
                // Hard assert: this is a public trust boundary, and a
                // late arrival would wrap `start - arrival` into a huge
                // waste value that silently corrupts the rate learner.
                assert!(
                    arrival <= start,
                    "request arrival {arrival} is after slot start {start}"
                );
                // Fig. 4 waste accounting:
                // Req 3 (queued while ORAM served a previous real access):
                //   charge one rate-length — a no-protection system would
                //   have gone back-to-back.
                // Req 1/2 (waiting for the slot / behind a dummy): charge
                //   the actual arrival→start wait.
                let waste = if self.last_was_real && arrival <= self.last_completion {
                    self.current_rate
                } else {
                    start - arrival
                };
                self.counters.record_real_access(self.olat, waste);
                self.lifetime_waste += waste;
                self.lifetime_oram_cycles += self.olat;
                true
            }
            None => false,
        };

        self.slots_served += 1;
        if real {
            self.real_served += 1;
        } else {
            self.dummy_served += 1;
        }
        if self.record_trace && self.trace.len() < TRACE_CAP {
            self.trace.push(SlotRecord { start, real });
        }

        self.last_completion = completion;
        self.last_was_real = real;

        // Epoch transition(s) crossed by this completion (dynamic only).
        self.maybe_transition(completion);

        self.next_slot = completion.saturating_add(self.current_rate);
        SlotOutcome {
            start,
            completion,
            real,
        }
    }

    fn maybe_transition(&mut self, completion: Cycle) {
        let RatePolicy::Dynamic {
            rates,
            schedule,
            divider,
            ..
        } = &self.policy
        else {
            return;
        };
        let (rates, schedule, divider) = (rates.clone(), *schedule, *divider);
        // The schedule is public and runs on the stream's own clock: a
        // stream anchored mid-run at `origin` sees its epochs start there
        // (`at` in the recorded transition stays global).
        let local = completion - self.origin;
        while local >= schedule.epoch_end(self.epoch_index) {
            let epoch_cycles = schedule.epoch_length(self.epoch_index);
            let predictor = RatePredictor::new(divider);
            let raw = predictor.predict_raw(epoch_cycles, &self.counters);
            let new_rate = rates.discretize(raw);
            self.transitions.push(EpochTransition {
                epoch: self.epoch_index,
                at: completion,
                raw_prediction: raw,
                new_rate,
            });
            self.current_rate = new_rate;
            self.counters = PerfCounters::new();
            self.epoch_index += 1;
        }
    }
}

struct Pending {
    arrival: Cycle,
    kind: AccessKind,
    line_addr: u64,
}

/// A Path ORAM behind a slot-periodic rate enforcer.
pub struct RateLimitedOramBackend {
    oram: RecursivePathOram,
    stream: SlotStream,
    pending: VecDeque<Pending>,
    requests: u64,
    capacity: u64,
}

impl std::fmt::Debug for RateLimitedOramBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RateLimitedOramBackend")
            .field("label", &self.stream.label())
            .field("current_rate", &self.stream.current_rate())
            .field("slots_served", &self.stream.slots_served())
            .finish()
    }
}

impl RateLimitedOramBackend {
    /// Builds a backend over a fresh ORAM with the given policy.
    ///
    /// # Errors
    ///
    /// Propagates [`OramConfig::validate`] failures.
    pub fn new(
        oram_config: OramConfig,
        ddr: &DdrConfig,
        policy: RatePolicy,
    ) -> Result<Self, String> {
        let timing = OramTiming::derive(&oram_config, ddr);
        let capacity = oram_config.data_block_capacity();
        let oram = RecursivePathOram::new(oram_config)?;
        Ok(Self {
            oram,
            stream: SlotStream::new(timing.latency, policy),
            pending: VecDeque::new(),
            requests: 0,
            capacity,
        })
    }

    /// Disables trace recording (saves memory on very long sweeps; slot
    /// *counts* are still exact).
    pub fn set_trace_recording(&mut self, on: bool) {
        self.stream.set_trace_recording(on);
    }

    /// ORAM access latency (`OLAT`).
    pub fn olat(&self) -> Cycle {
        self.stream.olat()
    }

    /// The rate currently in force.
    pub fn current_rate(&self) -> Cycle {
        self.stream.current_rate()
    }

    /// Observable slot trace (up to an internal cap).
    pub fn trace(&self) -> &[SlotRecord] {
        self.stream.trace()
    }

    /// Epoch transitions taken so far (empty for static policies).
    pub fn transitions(&self) -> &[EpochTransition] {
        self.stream.transitions()
    }

    /// Total slots served (= real + dummy accesses).
    pub fn slots_served(&self) -> u64 {
        self.stream.slots_served()
    }

    /// Fraction of served slots that were dummies.
    pub fn dummy_fraction(&self) -> f64 {
        self.stream.dummy_fraction()
    }

    /// Read access to the underlying slot stream (for schedulers and
    /// instrumentation: next-slot time, waste, epoch state).
    pub fn stream(&self) -> &SlotStream {
        &self.stream
    }

    /// Read access to the wrapped ORAM (for attack/bench instrumentation,
    /// e.g. root-bucket fingerprint probes).
    pub fn oram(&self) -> &RecursivePathOram {
        &self.oram
    }

    /// Serves exactly one slot at the stream's `next_slot`.
    fn serve_slot(&mut self) {
        // A pending request is eligible if it arrived by slot start.
        let eligible = matches!(
            self.pending.front(),
            Some(p) if p.arrival <= self.stream.next_slot()
        );
        if eligible {
            let p = self.pending.pop_front().expect("front exists");
            self.stream.serve(Some(p.arrival));
            // Functional access against the real ORAM.
            let addr = p.line_addr % self.capacity;
            match p.kind {
                AccessKind::Read => self.oram.read_discard(addr),
                AccessKind::Write => self.oram.write(addr, &[0u8; 64]),
            }
        } else {
            self.stream.serve(None);
            self.oram.dummy_access();
        }
    }

    /// Serves every slot that starts strictly before `now` — public so an
    /// external scheduler can drive the backend without issuing requests.
    pub fn drain_until(&mut self, now: Cycle) {
        while self.stream.next_slot() < now {
            self.serve_slot();
        }
    }
}

impl MemoryBackend for RateLimitedOramBackend {
    fn request(&mut self, line_addr: u64, kind: AccessKind, now: Cycle) -> Cycle {
        self.requests += 1;
        self.drain_until(now);
        self.pending.push_back(Pending {
            arrival: now,
            kind,
            line_addr,
        });
        // Serve slots until *this* request (the back of the queue when
        // pushed) has been served; FIFO order means it is served when the
        // queue drains past it.
        let target = self.pending.len();
        let mut served = 0;
        loop {
            let before = self.pending.len();
            self.serve_slot();
            if self.pending.len() < before {
                served += 1;
                if served == target {
                    return self.stream.last_completion();
                }
            }
        }
    }

    fn request_count(&self) -> u64 {
        self.requests
    }

    fn finish(&mut self, now: Cycle) {
        // Materialize the trailing dummy slots and epoch bookkeeping up to
        // the end of the run.
        self.drain_until(now);
    }

    fn energy_profile(&self) -> BackendEnergyProfile {
        BackendEnergyProfile {
            dram_ctrl_lines: 0,
            oram_accesses: self.stream.slots_served(),
            oram_dummy_accesses: self.stream.dummy_served(),
        }
    }

    fn label(&self) -> String {
        self.stream.label()
    }
}

/// `base_oram`: Path ORAM with **no** timing protection (§9.1.6) —
/// accesses are served back-to-back on demand, so the access-time trace is
/// data-dependent.
pub struct UnprotectedOramBackend {
    oram: RecursivePathOram,
    olat: Cycle,
    busy_until: Cycle,
    trace: Vec<SlotRecord>,
    record_trace: bool,
    requests: u64,
    capacity: u64,
}

impl std::fmt::Debug for UnprotectedOramBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UnprotectedOramBackend")
            .field("requests", &self.requests)
            .finish()
    }
}

impl UnprotectedOramBackend {
    /// Builds the backend over a fresh ORAM.
    ///
    /// # Errors
    ///
    /// Propagates [`OramConfig::validate`] failures.
    pub fn new(oram_config: OramConfig, ddr: &DdrConfig) -> Result<Self, String> {
        let timing = OramTiming::derive(&oram_config, ddr);
        let capacity = oram_config.data_block_capacity();
        Ok(Self {
            oram: RecursivePathOram::new(oram_config)?,
            olat: timing.latency,
            busy_until: 0,
            trace: Vec::new(),
            record_trace: true,
            requests: 0,
            capacity,
        })
    }

    /// Disables trace recording.
    pub fn set_trace_recording(&mut self, on: bool) {
        self.record_trace = on;
    }

    /// The data-dependent access-time trace the adversary observes.
    pub fn trace(&self) -> &[SlotRecord] {
        &self.trace
    }

    /// ORAM access latency.
    pub fn olat(&self) -> Cycle {
        self.olat
    }

    /// Read access to the wrapped ORAM.
    pub fn oram(&self) -> &RecursivePathOram {
        &self.oram
    }
}

impl MemoryBackend for UnprotectedOramBackend {
    fn request(&mut self, line_addr: u64, kind: AccessKind, now: Cycle) -> Cycle {
        self.requests += 1;
        let start = now.max(self.busy_until);
        let completion = start + self.olat;
        self.busy_until = completion;
        let addr = line_addr % self.capacity;
        match kind {
            AccessKind::Read => self.oram.read_discard(addr),
            AccessKind::Write => self.oram.write(addr, &[0u8; 64]),
        }
        if self.record_trace && self.trace.len() < TRACE_CAP {
            self.trace.push(SlotRecord { start, real: true });
        }
        completion
    }

    fn request_count(&self) -> u64 {
        self.requests
    }

    fn energy_profile(&self) -> BackendEnergyProfile {
        BackendEnergyProfile {
            dram_ctrl_lines: 0,
            oram_accesses: self.requests,
            oram_dummy_accesses: 0,
        }
    }

    fn label(&self) -> String {
        "base_oram".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_static(rate: Cycle) -> RateLimitedOramBackend {
        RateLimitedOramBackend::new(
            OramConfig::small(),
            &DdrConfig::default(),
            RatePolicy::Static { rate },
        )
        .expect("valid config")
    }

    fn small_dynamic(first_log2: u32, growth: u32, tmax: u32) -> RateLimitedOramBackend {
        RateLimitedOramBackend::new(
            OramConfig::small(),
            &DdrConfig::default(),
            RatePolicy::Dynamic {
                rates: RateSet::paper(4),
                schedule: EpochSchedule::new(first_log2, growth, tmax),
                divider: DividerImpl::ShiftRegister,
                initial_rate: 10_000,
            },
        )
        .expect("valid config")
    }

    #[test]
    fn static_slots_are_strictly_periodic() {
        let mut b = small_static(500);
        let olat = b.olat();
        // Issue sparse requests; then check the whole observable timeline.
        b.request(1, AccessKind::Read, 100);
        b.request(2, AccessKind::Read, 5_000);
        b.finish(20_000);
        let period = 500 + olat;
        for (k, slot) in b.trace().iter().enumerate() {
            assert_eq!(slot.start, 500 + k as u64 * period, "slot {k}");
        }
        assert!(b.trace().iter().any(|s| s.real));
        assert!(b.trace().iter().any(|s| !s.real));
    }

    #[test]
    fn request_waits_for_slot() {
        let mut b = small_static(1_000);
        let olat = b.olat();
        // First slot starts at 1000. A request at cycle 0 completes at
        // 1000 + OLAT.
        let done = b.request(7, AccessKind::Read, 0);
        assert_eq!(done, 1_000 + olat);
    }

    #[test]
    fn request_after_slot_takes_next() {
        let mut b = small_static(1_000);
        let olat = b.olat();
        // Arrive just after the first slot began: it becomes a dummy and
        // the request takes slot 2 at 1000 + OLAT + 1000.
        let done = b.request(7, AccessKind::Read, 1_001);
        assert_eq!(done, 1_000 + olat + 1_000 + olat);
        assert!(!b.trace()[0].real);
        assert!(b.trace()[1].real);
    }

    #[test]
    fn queued_requests_serve_fifo_one_per_slot() {
        let mut b = small_static(200);
        let olat = b.olat();
        let d1 = b.request(1, AccessKind::Read, 0);
        let d2 = b.request(2, AccessKind::Read, 0);
        let d3 = b.request(3, AccessKind::Write, 0);
        assert_eq!(d1, 200 + olat);
        assert_eq!(d2, d1 + 200 + olat);
        assert_eq!(d3, d2 + 200 + olat);
        assert!(b.trace().iter().take(3).all(|s| s.real));
    }

    #[test]
    fn dummy_fraction_reflects_idleness() {
        let mut b = small_static(100);
        b.request(1, AccessKind::Read, 0);
        b.finish(100_000);
        assert!(b.dummy_fraction() > 0.9, "{}", b.dummy_fraction());
    }

    #[test]
    fn dynamic_transitions_fire_and_reset() {
        // Tiny epochs: first = 2^14, doubling, tmax 2^20.
        let mut b = small_dynamic(14, 2, 20);
        // Saturate with requests so the learner sees demand.
        let mut t = 0;
        for i in 0..200u64 {
            t = b.request(i, AccessKind::Read, t);
        }
        b.finish(1 << 18);
        assert!(
            !b.transitions().is_empty(),
            "no transitions after 2^18 cycles"
        );
        for w in b.transitions().windows(2) {
            assert_eq!(w[1].epoch, w[0].epoch + 1);
            assert!(w[1].at > w[0].at);
        }
        // Chosen rates are members of R.
        let r = RateSet::paper(4);
        for tr in b.transitions() {
            assert!(r.rates().contains(&tr.new_rate), "{tr:?}");
        }
    }

    #[test]
    fn dynamic_idle_epoch_chooses_slowest() {
        let mut b = small_dynamic(14, 2, 20);
        b.finish(1 << 16); // never any demand
        assert!(!b.transitions().is_empty());
        assert_eq!(b.transitions()[0].new_rate, 32768);
        assert_eq!(b.current_rate(), 32768);
    }

    #[test]
    fn dynamic_busy_epoch_chooses_fast_rate() {
        let mut b = small_dynamic(14, 2, 20);
        // Hammer requests back-to-back through the first epoch.
        let mut t = 0;
        while t < (1 << 14) {
            t = b.request(t, AccessKind::Read, t);
        }
        b.finish(1 << 15);
        let first = b.transitions()[0];
        assert_eq!(first.new_rate, 256, "raw was {}", first.raw_prediction);
    }

    #[test]
    fn unprotected_serves_back_to_back() {
        let mut b =
            UnprotectedOramBackend::new(OramConfig::small(), &DdrConfig::default()).expect("valid");
        let olat = b.olat();
        let d1 = b.request(1, AccessKind::Read, 10);
        let d2 = b.request(2, AccessKind::Read, 10);
        assert_eq!(d1, 10 + olat);
        assert_eq!(d2, 10 + 2 * olat);
        assert_eq!(b.trace().len(), 2);
        // The trace is data-dependent: starts reflect request times.
        assert_eq!(b.trace()[0].start, 10);
        assert_eq!(b.trace()[1].start, 10 + olat);
    }

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(small_static(300).label(), "static_300");
        assert_eq!(small_dynamic(14, 4, 30).label(), "dynamic_R4_E4");
        let b =
            UnprotectedOramBackend::new(OramConfig::small(), &DdrConfig::default()).expect("valid");
        assert_eq!(b.label(), "base_oram");
    }

    #[test]
    fn stream_anchored_mid_run_is_a_pure_translation() {
        // A stream spliced in at `origin` must behave exactly like a
        // stream born at time 0 with every observable shifted by
        // `origin`: slots, real/dummy decisions, waste counters, and the
        // epoch schedule (which runs on the stream's own clock).
        let policy = || RatePolicy::Dynamic {
            rates: RateSet::paper(4),
            schedule: EpochSchedule::new(14, 2, 20),
            divider: DividerImpl::ShiftRegister,
            initial_rate: 1_000,
        };
        let origin: Cycle = 3 << 16;
        let mut anchored = SlotStream::starting_at(100, policy(), origin);
        let mut base = SlotStream::new(100, policy());
        assert_eq!(anchored.origin(), origin);
        assert_eq!(base.origin(), 0);
        for k in 0..300u64 {
            // Mix reals (arriving one cycle before the slot) and dummies.
            let (a, b) = if k % 3 == 0 {
                (
                    anchored.serve(Some(anchored.next_slot() - 1)),
                    base.serve(Some(base.next_slot() - 1)),
                )
            } else {
                (anchored.serve(None), base.serve(None))
            };
            assert_eq!(a.start, b.start + origin, "slot {k}");
            assert_eq!(a.real, b.real, "slot {k}");
        }
        assert!(
            !base.transitions().is_empty(),
            "test needs epoch transitions to exercise the schedule"
        );
        assert_eq!(anchored.transitions().len(), base.transitions().len());
        for (a, b) in anchored.transitions().iter().zip(base.transitions()) {
            assert_eq!((a.epoch, a.new_rate), (b.epoch, b.new_rate));
            assert_eq!(a.at, b.at + origin, "transition times stay global");
        }
        assert_eq!(anchored.lifetime_waste(), base.lifetime_waste());
    }

    /// Reconstructs the slot timeline that *must* result from a given
    /// rate sequence — what a (|R|^|E|)-bounded adversary could predict
    /// from the rate choices alone.
    fn reconstruct(
        initial_rate: Cycle,
        olat: Cycle,
        transitions: &[EpochTransition],
        horizon: Cycle,
    ) -> Vec<Cycle> {
        let mut rate = initial_rate;
        let mut slots = Vec::new();
        let mut next = rate;
        let mut ti = 0;
        while next < horizon {
            slots.push(next);
            let completion = next + olat;
            while ti < transitions.len() && completion >= transitions[ti].at {
                rate = transitions[ti].new_rate;
                ti += 1;
            }
            next = completion + rate;
        }
        slots
    }

    #[test]
    fn observable_timeline_is_function_of_rate_choices_only() {
        // Two *different* request patterns; same dynamic config. The
        // reconstruction from (initial rate, transitions) must match the
        // actual timeline exactly — i.e. request data affected nothing
        // observable beyond the rate choices.
        for pattern in 0..2u64 {
            let mut b = small_dynamic(14, 2, 22);
            let mut t = 1_000 * (pattern + 1);
            for i in 0..150u64 {
                t = b.request(i * (pattern + 3), AccessKind::Read, t) + pattern * 997;
            }
            let horizon = 1 << 17;
            b.finish(horizon);
            let actual: Vec<Cycle> = b.trace().iter().map(|s| s.start).collect();
            let expect = reconstruct(10_000, b.olat(), b.transitions(), horizon);
            // The last slot may differ by the finish boundary; compare the
            // common prefix of equal length.
            let n = actual.len().min(expect.len());
            assert!(n > 10);
            assert_eq!(&actual[..n], &expect[..n], "pattern {pattern}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Static schemes: the observable timeline is IDENTICAL for any
        /// two request workloads — zero ORAM-timing leakage (Example 2.1).
        #[test]
        fn prop_static_trace_independent_of_requests(
            seed in any::<u64>(),
            n_requests in 0usize..40,
            rate in 100u64..2_000,
        ) {
            let horizon: Cycle = 200_000;
            let run = |reqs: &[(u64, Cycle)]| {
                let mut b = small_static(rate);
                for &(addr, at) in reqs {
                    b.request(addr, AccessKind::Read, at);
                }
                b.finish(horizon);
                b.trace().iter().map(|s| s.start).collect::<Vec<_>>()
            };
            let mut rng = otc_crypto::SplitMix64::new(seed);
            let mut reqs: Vec<(u64, Cycle)> = (0..n_requests)
                .map(|_| (rng.next_below(100), rng.next_below(100_000)))
                .collect();
            reqs.sort_by_key(|r| r.1);
            let trace_a = run(&reqs);
            let trace_b = run(&[]); // completely idle program
            // Compare the slots within the horizon for both (request
            // servicing may extend slightly past the horizon for A).
            let n = trace_a.len().min(trace_b.len());
            prop_assert_eq!(&trace_a[..n], &trace_b[..n]);
        }

        /// Completions are causally valid and slot-aligned.
        #[test]
        fn prop_completions_after_arrivals(seed in any::<u64>(), rate in 50u64..5_000) {
            let mut b = small_static(rate);
            let olat = b.olat();
            let mut rng = otc_crypto::SplitMix64::new(seed);
            let mut now = 0;
            for i in 0..30u64 {
                now += rng.next_below(3 * (rate + olat));
                let done = b.request(i, AccessKind::Read, now);
                prop_assert!(done >= now + olat);
                // Completion is on the slot grid.
                let period = rate + olat;
                prop_assert_eq!((done - rate - olat) % period, 0);
            }
        }
    }
}
