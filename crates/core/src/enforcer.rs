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
//!
//! # The ORAM companion
//!
//! Neither backend's timing depends on what its ORAM does: a slot's
//! completion is `start + OLAT` whatever path it touches. So both keep
//! the timing (slot stream, `busy_until`, trace) on the caller's thread
//! and hand their functional ORAM calls — `read_discard`, `write`,
//! `dummy_access`, in the order the slots serve them — to a companion
//! thread that owns the [`RecursivePathOram`]. When the host has a CPU
//! to spare, the simulated core and the ORAM run side by side. The
//! thread starts when the first batch of calls is handed over, so a
//! backend that serves nothing spawns nothing; `finish`, `oram()` and
//! `Drop` wait for it to drain every queued call and take the ORAM back,
//! so every ORAM effect a caller can observe (stats, stash peak, bucket
//! fingerprints) is what running the calls inline would have left. A
//! panic on the companion resurfaces on the caller, with its original
//! payload, at the next of those three.

use crate::epoch::EpochSchedule;
use crate::learner::{DividerImpl, PerfCounters, RatePredictor};
use crate::rate::RateSet;
use crate::scheme::Scheme;
use crate::session::LeakageParams;
use otc_dram::{Cycle, DdrConfig};
use otc_oram::{OramConfig, OramTiming, RecursivePathOram};
use otc_sim::{AccessKind, BackendEnergyProfile, MemoryBackend};
use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::thread::JoinHandle;

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
    /// reproduction's scaled epoch schedule ([`Scheme::dynamic`]'s
    /// policy).
    pub fn dynamic_paper(rate_count: usize, growth: u32) -> Self {
        Scheme::dynamic(rate_count, growth)
            .policy()
            .expect("a dynamic scheme enforces a rate policy")
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

    /// The leakage parameters this policy implies, the ones admission
    /// authorizes: a static scheme is one rate (0 bits over the ORAM
    /// timing channel), a dynamic one leaks up to `|E|·lg|R|`.
    pub fn leakage_params(&self) -> LeakageParams {
        match self {
            RatePolicy::Static { .. } => LeakageParams {
                rate_count: 1,
                schedule: EpochSchedule::scaled(4),
            },
            RatePolicy::Dynamic {
                rates, schedule, ..
            } => LeakageParams {
                rate_count: rates.len(),
                schedule: *schedule,
            },
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

/// The largest rate a `static_<rate>` scheme may name: 2^32 cycles, far
/// beyond any rate the paper sweeps (its slowest candidate is 32768),
/// and small enough that every period, horizon and pricing sum built
/// from it stays well inside `u64`.
pub const MAX_STATIC_RATE: u64 = 1 << 32;

/// Parses a [`RatePolicy::label`] — `dynamic_R4_E4`, `static_1300` —
/// back into its policy (the one scheme parser shared by the `otc`
/// flags, churn scripts and scenario files). Total: it returns `None`
/// for every scheme whose `|E|·lg|R|` leakage bound is undefined — rate
/// 0, fewer than two candidate rates, an epoch growth that is not a
/// power of two ≥ 2 — for a static rate above [`MAX_STATIC_RATE`], and
/// for a rate count [`RateSet::paper`] cannot build as that many whole
/// cycle counts (every `n` from 1246 up). It also refuses every spelling
/// but the label itself (`static_0300`, `dynamic_R+4_E4`), so an accepted
/// scheme never panics or stalls downstream and is served under the name
/// it was given.
pub fn parse_scheme(s: &str) -> Option<RatePolicy> {
    let policy = if let Some(rest) = s.strip_prefix("static_") {
        let rate: u64 = rest
            .parse()
            .ok()
            .filter(|r| (1..=MAX_STATIC_RATE).contains(r))?;
        Scheme::Static { rate }.policy()
    } else {
        let (r, e) = s.strip_prefix("dynamic_R")?.split_once("_E")?;
        // At most one candidate per cycle count between the paper set's
        // extremes, checked before any set is built.
        let span = RateSet::paper(2);
        let max_count = (span.slowest() - span.fastest() + 1) as usize;
        let rate_count: usize = r.parse().ok().filter(|n| (2..=max_count).contains(n))?;
        let growth: u32 = e
            .parse()
            .ok()
            .filter(|g: &u32| *g >= 2 && g.is_power_of_two())?;
        Scheme::dynamic(rate_count, growth).policy()
    };
    // Integer parsing takes a leading `0` or `+`, and flooring to whole
    // cycles merges neighbouring lg-spaced rates once the set is dense
    // enough; either way the policy's label differs from `s`.
    policy.filter(|p| p.label() == s)
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
        // The schedule is public and runs on the stream's own clock: a
        // stream anchored mid-run at `origin` sees its epochs start there
        // (`at` in the recorded transition stays global).
        let local = completion - self.origin;
        while local >= schedule.epoch_end(self.epoch_index) {
            let epoch_cycles = schedule.epoch_length(self.epoch_index);
            let predictor = RatePredictor::new(*divider);
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

/// Calls handed to the companion per channel message. When the scheduler
/// puts the companion on the caller's CPU, each message wakes it and
/// preempts the caller; at this size the two trade the CPU every few
/// hundred accesses instead of every few dozen.
const BATCH: usize = 256;
/// Batches in flight before the backend waits for the companion: enough
/// to ride out its scheduling jitter, few enough to keep memory flat and
/// the wait in `finish` short.
const IN_FLIGHT: usize = 4;
/// The companion's stack; ORAM accesses recurse only a few frames.
const COMPANION_STACK: usize = 64 << 10;

/// One functional ORAM call: a real access, its address already reduced
/// to the ORAM's capacity, or a dummy.
#[derive(Clone, Copy)]
enum OramOp {
    Real(AccessKind, u64),
    Dummy,
}

impl OramOp {
    fn apply(self, oram: &mut RecursivePathOram) {
        match self {
            OramOp::Real(AccessKind::Read, addr) => oram.read_discard(addr),
            OramOp::Real(AccessKind::Write, addr) => oram.write(addr, &[0u8; 64]),
            OramOp::Dummy => oram.dummy_access(),
        }
    }
}

/// Runs a backend's ORAM on a thread of its own (see the module docs).
struct OramCompanion {
    /// The ORAM while no thread holds it; `None` while one runs, or for
    /// good once a companion panic has surfaced.
    idle: Option<RecursivePathOram>,
    /// Calls not yet sent.
    batch: Vec<OramOp>,
    running: Option<(SyncSender<Vec<OramOp>>, JoinHandle<RecursivePathOram>)>,
}

impl OramCompanion {
    fn new(oram: RecursivePathOram) -> Self {
        Self {
            idle: Some(oram),
            batch: Vec::with_capacity(BATCH),
            running: None,
        }
    }

    /// Queues `op` behind every call queued before it.
    fn push(&mut self, op: OramOp) {
        self.batch.push(op);
        if self.batch.len() == BATCH {
            self.flush();
        }
    }

    /// Sends the partial batch, starting a companion if none runs.
    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let batch = std::mem::replace(&mut self.batch, Vec::with_capacity(BATCH));
        let (tx, _) = self.running.get_or_insert_with(|| {
            let mut oram = self
                .idle
                .take()
                .expect("the ORAM was lost to an earlier companion panic");
            let (tx, rx) = sync_channel::<Vec<OramOp>>(IN_FLIGHT);
            let handle = std::thread::Builder::new()
                .name("oram-companion".into())
                .stack_size(COMPANION_STACK)
                .spawn(move || {
                    for batch in rx {
                        batch.into_iter().for_each(|op| op.apply(&mut oram));
                    }
                    oram
                })
                .expect("spawn the ORAM companion thread");
            (tx, handle)
        });
        if tx.send(batch).is_err() {
            // The companion hung up: it panicked, and the join says how.
            self.join();
        }
    }

    /// Waits for every call sent so far and takes the ORAM back,
    /// resuming a companion panic on this thread.
    fn join(&mut self) {
        if let Some((tx, handle)) = self.running.take() {
            drop(tx);
            match handle.join() {
                Ok(oram) => self.idle = Some(oram),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    }

    /// Waits until every queued call has run.
    fn wait(&mut self) {
        self.flush();
        self.join();
    }

    /// The ORAM once every queued call has run.
    fn oram(&mut self) -> &RecursivePathOram {
        self.wait();
        self.idle
            .as_ref()
            .expect("the ORAM was lost to an earlier companion panic")
    }
}

impl Drop for OramCompanion {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.wait();
        } else if let Some((tx, handle)) = self.running.take() {
            // A second panic would abort: wait for the thread quietly.
            drop(tx);
            let _ = handle.join();
        }
    }
}

struct Pending {
    arrival: Cycle,
    kind: AccessKind,
    line_addr: u64,
}

/// A Path ORAM behind a slot-periodic rate enforcer.
///
/// The ORAM runs on a companion thread (see the module docs):
/// [`MemoryBackend::finish`] and [`RateLimitedOramBackend::oram`] wait
/// until it has served every slot so far.
pub struct RateLimitedOramBackend {
    companion: OramCompanion,
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
            companion: OramCompanion::new(oram),
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
    /// e.g. root-bucket fingerprint probes), once the companion has run
    /// every access of the slots served so far.
    pub fn oram(&mut self) -> &RecursivePathOram {
        self.companion.oram()
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
            self.companion
                .push(OramOp::Real(p.kind, p.line_addr % self.capacity));
        } else {
            self.stream.serve(None);
            self.companion.push(OramOp::Dummy);
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
        // the end of the run, then wait for the ORAM to serve them.
        self.drain_until(now);
        self.companion.wait();
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
///
/// The ORAM runs on a companion thread (see the module docs):
/// [`MemoryBackend::finish`] and [`UnprotectedOramBackend::oram`] wait
/// until it has served every request so far.
pub struct UnprotectedOramBackend {
    companion: OramCompanion,
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
            companion: OramCompanion::new(RecursivePathOram::new(oram_config)?),
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

    /// Read access to the wrapped ORAM, once the companion has run every
    /// request so far.
    pub fn oram(&mut self) -> &RecursivePathOram {
        self.companion.oram()
    }
}

impl MemoryBackend for UnprotectedOramBackend {
    fn request(&mut self, line_addr: u64, kind: AccessKind, now: Cycle) -> Cycle {
        self.requests += 1;
        let start = now.max(self.busy_until);
        let completion = start + self.olat;
        self.busy_until = completion;
        self.companion
            .push(OramOp::Real(kind, line_addr % self.capacity));
        if self.record_trace && self.trace.len() < TRACE_CAP {
            self.trace.push(SlotRecord { start, real: true });
        }
        completion
    }

    fn request_count(&self) -> u64 {
        self.requests
    }

    fn finish(&mut self, _now: Cycle) {
        self.companion.wait();
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

    /// The small geometry with 32 B data blocks, which a backend's 64 B
    /// write cannot fill.
    fn narrow_blocks() -> OramConfig {
        OramConfig {
            data: otc_oram::TreeGeometry::new(8, 3, 32, 16),
            ..OramConfig::small()
        }
    }

    #[test]
    #[should_panic(expected = "payload must be block-sized")]
    fn companion_panic_resurfaces_at_finish() {
        let mut b = RateLimitedOramBackend::new(
            narrow_blocks(),
            &DdrConfig::default(),
            RatePolicy::Static { rate: 100 },
        )
        .expect("valid config");
        b.request(1, AccessKind::Write, 0);
        b.finish(10_000);
        // Reached only if `finish` did not wait; `Drop` would.
        std::mem::forget(b);
    }

    #[test]
    #[should_panic(expected = "payload must be block-sized")]
    fn unprotected_finish_waits_for_the_companion() {
        let mut b = UnprotectedOramBackend::new(narrow_blocks(), &DdrConfig::default())
            .expect("valid config");
        b.request(1, AccessKind::Write, 0);
        b.finish(10_000);
        std::mem::forget(b);
    }

    #[test]
    #[should_panic(expected = "payload must be block-sized")]
    fn companion_panic_resurfaces_at_drop() {
        let mut b = UnprotectedOramBackend::new(narrow_blocks(), &DdrConfig::default())
            .expect("valid config");
        b.request(1, AccessKind::Write, 0);
        drop(b);
    }

    #[test]
    #[should_panic(expected = "the caller's own panic")]
    fn drop_while_unwinding_keeps_the_first_panic() {
        let mut b = UnprotectedOramBackend::new(narrow_blocks(), &DdrConfig::default())
            .expect("valid config");
        // A full batch reaches the companion, which panics on it; a
        // second panic from `Drop` during this unwind would abort.
        for addr in 0..BATCH as u64 {
            b.request(addr, AccessKind::Write, 0);
        }
        panic!("the caller's own panic");
    }

    #[test]
    fn parse_scheme_refuses_non_canonical_spellings() {
        for s in [
            "static_+300",
            "static_0300",
            "dynamic_R04_E4",
            "dynamic_R4_E04",
            "dynamic_R+4_E4",
        ] {
            assert!(parse_scheme(s).is_none(), "{s} was accepted");
        }
        for scheme in Scheme::figure6_lineup()
            .iter()
            .chain(&[Scheme::dynamic(2, 2), Scheme::dynamic(16, 8)])
            .chain(&[
                Scheme::Static { rate: 1 },
                Scheme::Static {
                    rate: MAX_STATIC_RATE,
                },
            ])
            .filter(|s| s.policy().is_some())
        {
            let label = scheme.label();
            let policy = parse_scheme(&label).unwrap_or_else(|| panic!("{label} refused"));
            assert_eq!(policy.label(), label);
        }
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

        /// After every `finish`, the companion has run exactly the slots
        /// (unprotected: the requests) the timing side accounted for,
        /// and the next request starts a fresh companion.
        #[test]
        fn prop_finish_leaves_the_oram_caught_up(seed in any::<u64>(), rate in 50u64..3_000) {
            let mut limited = small_static(rate);
            let mut plain = UnprotectedOramBackend::new(OramConfig::small(), &DdrConfig::default())
                .expect("valid config");
            let mut rng = otc_crypto::SplitMix64::new(seed);
            let mut now = 0;
            for _ in 0..6 {
                for _ in 0..rng.next_below(80) {
                    now += rng.next_below(2 * rate);
                    let kind = if rng.next_below(3) == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    let addr = rng.next_below(1 << 20);
                    limited.request(addr, kind, now);
                    plain.request(addr, kind, now);
                }
                now += rng.next_below(40_000);
                limited.finish(now);
                plain.finish(now);
                let stats = limited.oram().stats();
                prop_assert_eq!(stats.total_accesses(), limited.slots_served());
                prop_assert_eq!(stats.real_accesses, limited.stream().real_served());
                prop_assert_eq!(stats.dummy_accesses, limited.stream().dummy_served());
                prop_assert_eq!(plain.oram().stats().total_accesses(), plain.request_count());
            }
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
