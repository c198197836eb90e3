//! Per-tenant traffic frontends: turning an `otc-workloads` instruction
//! stream into an LLC-miss arrival process the slot scheduler can pull
//! incrementally. Two frontends exist, one per feedback discipline:
//!
//! # Open loop (the default)
//!
//! The open-loop frontend is a lightweight replica of the simulator's
//! core over the same cache hierarchy ([`WarmState`]: the Table 1
//! caches and their one inclusion rule): it retires instructions,
//! filters loads/stores through L1/L2, and yields one [`Request`] per
//! LLC miss or dirty writeback. A miss charges a **fixed assumed stall**
//! ([`TenantTraffic::DEFAULT_MISS_STALL`]) instead of the actual
//! (rate-dependent) service time, so a tenant's arrival process is a pure
//! function of its own program — never of other tenants or of rate
//! decisions. That decoupling is what makes tenant isolation provable at
//! the scheduler level (and testable: see `tests/tenant_isolation.rs`).
//!
//! # Closed loop
//!
//! The closed-loop frontend ([`TenantTraffic::with_mode`] with
//! [`LoopMode::Closed`]) runs the
//! *full* cycle-level core — [`SteppedSim`], the same code path as the
//! single-session `Simulator` — and blocks on every LLC demand read until
//! the host reports how long the shared backend actually took
//! ([`TenantTraffic::complete`]). Its virtual clock therefore advances by
//! real slot wait + shard queueing + `OLAT` per miss, so heavy co-tenant
//! load visibly slows the tenant down — exactly the rate-dependent
//! behaviour the open-loop constant assumes away.
//!
//! The trade is deliberate and explicit: **open-loop buys provable
//! isolation, closed-loop buys queueing fidelity.** A closed-loop
//! tenant's arrival times (and hence its real/dummy slot pattern, and
//! under a dynamic policy its rate choices) *do* depend on co-tenant
//! pressure — `tests/tenant_isolation.rs` asserts both directions. Use
//! closed-loop for capacity planning sweeps (`otc tenants
//! --closed-loop`), open-loop for leakage arguments.
//!
//! # Traffic models
//!
//! Either frontend can additionally be *shaped* by a [`TrafficModel`]:
//! a deterministic, seeded transformation of the workload's arrival
//! times that turns the rate-periodic miss stream into bursty (on/off
//! Markov), diurnal (phase-shifted sinusoid), or trace-replay arrival
//! processes. Shaping is **delay-only** — a model may postpone an
//! arrival, never advance it before the program produced it, nor
//! before the previous shaped arrival — which keeps shaped arrival
//! times non-decreasing and preserves the closed-loop invariant that a
//! service completion never precedes its request. All shaping
//! randomness comes from the model's own seed, so a shaped open-loop
//! tenant's arrivals remain a pure function of its own configuration:
//! the isolation argument is unchanged, and shaped runs are
//! byte-replayable at any thread count.
//!
//! # Arrival order
//!
//! Open-loop and shaped arrivals are non-decreasing in pull order. An
//! unshaped closed-loop frontend's can step back: the stepped core
//! stamps a store's write-buffer drain ahead of its own clock, so a
//! request pulled after the drain's may arrive earlier. The host never
//! reorders them: it serves each tenant's requests in pull order.

use otc_crypto::SplitMix64;
use otc_dram::Cycle;
use otc_sim::{
    AccessKind, CoreConfig, Instr, InstructionStream, SimConfig, StepEvent, SteppedSim, WarmState,
};
use otc_workloads::{SpecBenchmark, SyntheticWorkload};

/// One LLC-level memory request produced by a tenant frontend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Arrival cycle (tenant-local virtual time).
    pub at: Cycle,
    /// Cache-line address (the byte address's line, `Cache::line_of`).
    pub line_addr: u64,
    /// Demand fill or dirty writeback.
    pub kind: AccessKind,
}

/// Feedback discipline of a tenant frontend (module docs spell out the
/// isolation-vs-fidelity trade).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoopMode {
    /// Fixed per-miss stall; arrivals independent of co-tenants.
    #[default]
    Open,
    /// Full stepped core; observed service times fed back into the clock.
    Closed,
}

/// Deterministic arrival-process shaping applied on top of a frontend
/// (see the module docs' "Traffic models" section). All variants are
/// delay-only and seeded: shaped arrival times are monotone, never
/// precede the unshaped ones, and replay byte-identically across
/// rebuilds and thread counts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TrafficModel {
    /// Unshaped: the workload's own miss process (the historical
    /// behavior of every frontend before traffic models existed).
    #[default]
    Workload,
    /// Two-state on/off Markov modulation: the tenant-local timeline
    /// alternates between ON windows (arrivals pass through) and OFF
    /// windows (arrivals are held until the next ON window starts).
    /// Window durations are exponentially distributed with the given
    /// means, drawn from a `SplitMix64` seeded by `seed` alone.
    Bursty {
        /// Mean ON-window duration in tenant-local cycles (≥ 1).
        mean_on: Cycle,
        /// Mean OFF-window duration in tenant-local cycles (≥ 1).
        mean_off: Cycle,
        /// Seed of the window-duration generator.
        seed: u64,
    },
    /// Phase-shifted sinusoidal time-warp: an arrival at tenant-local
    /// time `t` is delayed by
    /// `amplitude·(period/4)·(1 + sin(2π·(t/period + phase)))/2`.
    /// The warp's slope stays positive (delay-only, monotone, bounded
    /// by `amplitude·period/4`), so arrival density compresses and
    /// expands sinusoidally over each `period` without compounding
    /// through closed-loop feedback. Amplitude and phase are in
    /// parts-per-million so the model stays integer-valued and
    /// `Eq`-comparable.
    Diurnal {
        /// Cycle count of one full intensity cycle (≥ 1).
        period: Cycle,
        /// Peak stretch above 1×, in ppm (≤ 1 000 000 = a 2× peak).
        amplitude_ppm: u32,
        /// Phase offset as a fraction of `period`, in ppm.
        phase_ppm: u32,
    },
    /// Replay an explicit arrival schedule: the k-th pulled request
    /// arrives at the cumulative sum of `gaps` (cycled `repeat` times),
    /// regardless of when the workload produced it. The frontend
    /// exhausts when the schedule runs out. Replay ignores program
    /// timing entirely, so it is open-loop only (a closed-loop core's
    /// clock could overtake the schedule).
    Replay {
        /// Inter-arrival gaps in cycles, applied in order (non-empty).
        gaps: Vec<Cycle>,
        /// How many times the gap list is replayed (≥ 1).
        repeat: u32,
    },
}

impl TrafficModel {
    /// Short stable label ("workload" | "bursty" | "diurnal" |
    /// "replay") used by reports and scenario rendering.
    pub fn label(&self) -> &'static str {
        match self {
            TrafficModel::Workload => "workload",
            TrafficModel::Bursty { .. } => "bursty",
            TrafficModel::Diurnal { .. } => "diurnal",
            TrafficModel::Replay { .. } => "replay",
        }
    }

    /// Compact per-tenant tag recorded in perf sessions
    /// (`otc_perf::TenantSample::traffic`). Adversary tenants override
    /// this with their own tags at the host layer.
    pub fn tag(&self) -> u8 {
        match self {
            TrafficModel::Workload => 0,
            TrafficModel::Bursty { .. } => 1,
            TrafficModel::Diurnal { .. } => 2,
            TrafficModel::Replay { .. } => 3,
        }
    }

    /// Whether this model only makes sense on an open-loop frontend.
    pub fn requires_open_loop(&self) -> bool {
        matches!(self, TrafficModel::Replay { .. })
    }

    /// Validates parameter ranges, returning a human-readable reason on
    /// failure. Scenario parsing and admission both call this; the
    /// shaper itself assumes a validated model.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            TrafficModel::Workload => Ok(()),
            TrafficModel::Bursty {
                mean_on, mean_off, ..
            } => {
                if *mean_on == 0 || *mean_off == 0 {
                    return Err("bursty mean on/off durations must be >= 1 cycle".into());
                }
                Ok(())
            }
            TrafficModel::Diurnal {
                period,
                amplitude_ppm,
                ..
            } => {
                if *period == 0 {
                    return Err("diurnal period must be >= 1 cycle".into());
                }
                if *amplitude_ppm > 1_000_000 {
                    return Err("diurnal amplitude must be <= 1000000 ppm (a 2x peak)".into());
                }
                Ok(())
            }
            TrafficModel::Replay { gaps, repeat } => {
                if gaps.is_empty() {
                    return Err("replay needs at least one inter-arrival gap".into());
                }
                if *repeat == 0 {
                    return Err("replay repeat count must be >= 1".into());
                }
                Ok(())
            }
        }
    }
}

/// Stateful applier of a [`TrafficModel`] to a monotone arrival stream.
struct Shaper {
    model: TrafficModel,
    /// Last shaped arrival emitted (shaped times are clamped monotone).
    last_out: Cycle,
    /// Bursty window-duration generator (seeded by the model alone).
    rng: SplitMix64,
    /// Current bursty ON window `[on_start, on_end)`.
    on_start: Cycle,
    on_end: Cycle,
    /// Replay position (arrivals already scheduled) and running clock.
    replay_pos: u64,
    replay_clock: Cycle,
    /// Set once a replay schedule is exhausted: the frontend is done.
    done: bool,
}

impl Shaper {
    fn new(model: TrafficModel) -> Self {
        let seed = match &model {
            TrafficModel::Bursty { seed, .. } => *seed,
            _ => 0,
        };
        let mut s = Self {
            model,
            last_out: 0,
            rng: SplitMix64::new(seed),
            on_start: 0,
            on_end: 0,
            replay_pos: 0,
            replay_clock: 0,
            done: false,
        };
        if let TrafficModel::Bursty { mean_on, .. } = s.model {
            s.on_end = Self::draw(&mut s.rng, mean_on);
        }
        s
    }

    /// Exponentially distributed duration with the given mean, ≥ 1.
    /// `f64` here is fine for determinism: the same binary computes the
    /// same bits, which is all byte-replayability needs.
    fn draw(rng: &mut SplitMix64, mean: Cycle) -> Cycle {
        let u = ((rng.next_u64() >> 11) as f64) / ((1u64 << 53) as f64);
        let d = -(mean as f64) * (1.0 - u).ln();
        (d.ceil() as Cycle).max(1)
    }

    /// Maps one unshaped arrival time to its shaped time, or `None`
    /// when a replay schedule has run dry.
    fn shape(&mut self, at: Cycle) -> Option<Cycle> {
        if self.done {
            return None;
        }
        let out = match &self.model {
            TrafficModel::Workload => at,
            TrafficModel::Bursty {
                mean_on, mean_off, ..
            } => {
                let (mean_on, mean_off) = (*mean_on, *mean_off);
                // Saturating: a window bound past the end of time parks
                // every later arrival there, and ends the loop.
                while at >= self.on_end && self.on_end < Cycle::MAX {
                    let off = Self::draw(&mut self.rng, mean_off);
                    self.on_start = self.on_end.saturating_add(off);
                    self.on_end = self
                        .on_start
                        .saturating_add(Self::draw(&mut self.rng, mean_on));
                }
                at.max(self.on_start)
            }
            TrafficModel::Diurnal {
                period,
                amplitude_ppm,
                phase_ppm,
            } => {
                // Stateless time-warp of the absolute tenant-local
                // clock: the delay is bounded by amplitude·period/4 and
                // the warp's slope stays positive, so it neither breaks
                // monotonicity nor compounds through the closed-loop
                // feedback path (a gap-stretching formulation would:
                // stretched delay re-enters the input clock via
                // `complete` and diverges geometrically).
                let frac =
                    (at % period) as f64 / *period as f64 + f64::from(*phase_ppm) / 1_000_000.0;
                let wave = (std::f64::consts::TAU * frac).sin();
                let amp = f64::from(*amplitude_ppm) / 1_000_000.0;
                let delay = amp * (*period as f64 / 4.0) * (1.0 + wave) / 2.0;
                at + delay.round() as Cycle
            }
            TrafficModel::Replay { gaps, repeat } => {
                if self.replay_pos >= gaps.len() as u64 * u64::from(*repeat) {
                    self.done = true;
                    return None;
                }
                // Saturating: a gap past the end of time parks the rest
                // of the schedule there.
                self.replay_clock = self
                    .replay_clock
                    .saturating_add(gaps[(self.replay_pos % gaps.len() as u64) as usize]);
                self.replay_pos += 1;
                // Replay replaces program timing wholesale (open-loop
                // only), so it skips the delay-only clamp below: the
                // schedule is already monotone by construction.
                let _ = at;
                self.last_out = self.replay_clock;
                return Some(self.replay_clock);
            }
        };
        // Delay-only and monotone: never behind the input or the
        // previous shaped arrival.
        self.last_out = out.max(at).max(self.last_out);
        Some(self.last_out)
    }
}

/// What pulling on a tenant frontend produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPull {
    /// The next LLC-level request.
    Request(Request),
    /// Closed-loop only: the core is suspended on a demand read already
    /// handed out; no further requests until [`TenantTraffic::complete`]
    /// supplies the observed service completion.
    AwaitingService,
    /// The program retired its whole budget (or finished on its own).
    Exhausted,
}

/// Steppable instruction-to-miss frontend for one tenant (open- or
/// closed-loop; see the module docs for the discipline trade-off),
/// optionally shaped by a [`TrafficModel`].
pub struct TenantTraffic {
    mode: Mode,
    /// Present iff the model is not [`TrafficModel::Workload`].
    shaper: Option<Box<Shaper>>,
}

enum Mode {
    Open(Box<OpenLoop>),
    Closed(Box<ClosedLoop>),
}

/// The open-loop frontend: caches only, fixed per-miss stall.
struct OpenLoop {
    workload: SyntheticWorkload,
    core: CoreConfig,
    caches: WarmState,
    cycle: Cycle,
    pc: u64,
    budget: u64,
    retired: u64,
    // One miss can yield several requests (demand fill, the L2 victim's
    // writeback, an L1 dirty victim pushed down to a missing L2 line);
    // extras beyond the first are buffered here.
    queued: std::collections::VecDeque<Request>,
}

/// The closed-loop frontend: the full stepped core, fed actual service
/// completions by the host.
struct ClosedLoop {
    workload: SyntheticWorkload,
    core: SteppedSim,
    budget: u64,
    /// Arrival cycle of the outstanding demand read, while the core is
    /// suspended on it.
    outstanding: Option<Cycle>,
    finished: bool,
    /// Total backend cycles fed back so far: Σ (service completion −
    /// request arrival) over completed demand reads.
    feedback_cycles: Cycle,
}

impl std::fmt::Debug for TenantTraffic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantTraffic")
            .field(
                "loop",
                &if self.is_closed_loop() {
                    "closed"
                } else {
                    "open"
                },
            )
            .field("model", &self.model().label())
            .field("retired", &self.retired())
            .field("cycle", &self.cycle())
            .finish()
    }
}

impl TenantTraffic {
    /// Open-loop assumed stall per LLC miss, standing in for the
    /// rate-dependent service time a closed-loop core would observe. The
    /// unit test `default_miss_stall_tracks_paper_olat` pins the relation
    /// to the paper geometry's derived `OLAT` (within 1%); if either side
    /// moves, the test — not this sentence — is the authority.
    pub const DEFAULT_MISS_STALL: Cycle = 1_500;

    /// Builds the frontend for `bench` in the given [`LoopMode`],
    /// retiring at most `instructions`. Open loop, it is the cache-only
    /// replica with a fixed per-miss stall; closed loop, a full
    /// [`SteppedSim`] whose every LLC demand read suspends until the
    /// host feeds back the observed shard service completion via
    /// [`TenantTraffic::complete`].
    pub fn with_mode(bench: SpecBenchmark, instructions: u64, mode: LoopMode) -> Self {
        let cfg = SimConfig::default();
        let workload = bench.workload(instructions);
        let mode = match mode {
            LoopMode::Open => Mode::Open(Box::new(OpenLoop {
                workload,
                core: cfg.core,
                caches: WarmState::cold(&cfg),
                cycle: 0,
                pc: 0x1000,
                budget: instructions,
                retired: 0,
                queued: std::collections::VecDeque::new(),
            })),
            LoopMode::Closed => Mode::Closed(Box::new(ClosedLoop {
                workload,
                core: SteppedSim::new(cfg),
                budget: instructions,
                outstanding: None,
                finished: false,
                feedback_cycles: 0,
            })),
        };
        Self { mode, shaper: None }
    }

    /// Builds the frontend for `bench` in the given [`LoopMode`], shaped
    /// by `model` (see the module docs' "Traffic models" section).
    ///
    /// # Panics
    ///
    /// Panics if the model fails [`TrafficModel::validate`] or pairs a
    /// replay model with a closed-loop frontend — callers that accept
    /// external input (scenario files, `admit_with_traffic`) validate
    /// first and surface a typed error instead.
    pub fn with_model(
        bench: SpecBenchmark,
        instructions: u64,
        mode: LoopMode,
        model: TrafficModel,
    ) -> Self {
        if let Err(why) = model.validate() {
            panic!("invalid traffic model: {why}");
        }
        assert!(
            !(model.requires_open_loop() && mode == LoopMode::Closed),
            "{} traffic requires an open-loop frontend",
            model.label()
        );
        let mut t = Self::with_mode(bench, instructions, mode);
        if model != TrafficModel::Workload {
            t.shaper = Some(Box::new(Shaper::new(model)));
        }
        t
    }

    /// The traffic model shaping this frontend.
    pub fn model(&self) -> &TrafficModel {
        const WORKLOAD: TrafficModel = TrafficModel::Workload;
        match &self.shaper {
            Some(s) => &s.model,
            None => &WORKLOAD,
        }
    }

    /// Whether this frontend feeds observed service times back into its
    /// clock.
    pub fn is_closed_loop(&self) -> bool {
        matches!(self.mode, Mode::Closed(_))
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        match &self.mode {
            Mode::Open(o) => o.retired,
            Mode::Closed(c) => c.core.instructions(),
        }
    }

    /// Tenant-local cycle the frontend has reached.
    pub fn cycle(&self) -> Cycle {
        match &self.mode {
            Mode::Open(o) => o.cycle,
            Mode::Closed(c) => c.core.now(),
        }
    }

    /// Whether the program has exhausted its instruction budget (or a
    /// replay schedule has run dry).
    pub fn exhausted(&self) -> bool {
        if self.shaper.as_ref().is_some_and(|s| s.done) {
            return true;
        }
        match &self.mode {
            Mode::Open(o) => o.exhausted(),
            Mode::Closed(c) => c.finished,
        }
    }

    /// Closed-loop only: total backend cycles fed back so far
    /// (Σ service completion − request arrival). Zero for open-loop.
    pub fn feedback_cycles(&self) -> Cycle {
        match &self.mode {
            Mode::Open(_) => 0,
            Mode::Closed(c) => c.feedback_cycles,
        }
    }

    /// Whether a closed-loop core is currently suspended on a demand
    /// read it handed out (always `false` for open-loop). A frontend
    /// abandoned in this state — e.g. its tenant evicted mid-DemandRead —
    /// is simply never polled or completed again; the suspended core
    /// holds no host resources.
    pub fn awaiting_service(&self) -> bool {
        match &self.mode {
            Mode::Open(_) => false,
            Mode::Closed(c) => c.outstanding.is_some(),
        }
    }

    /// Pulls the next LLC-level request, or reports why none is
    /// available. Open-loop and shaped arrivals are non-decreasing; an
    /// unshaped closed-loop frontend's can step back (see the module
    /// docs' "Arrival order"), and the host serves them in pull order.
    pub fn poll(&mut self) -> TrafficPull {
        if self.shaper.as_ref().is_some_and(|s| s.done) {
            return TrafficPull::Exhausted;
        }
        let pull = match &mut self.mode {
            Mode::Open(o) => match o.next_request() {
                Some(r) => TrafficPull::Request(r),
                None => TrafficPull::Exhausted,
            },
            Mode::Closed(c) => c.poll(),
        };
        let Some(shaper) = &mut self.shaper else {
            return pull;
        };
        match pull {
            TrafficPull::Request(r) => match shaper.shape(r.at) {
                Some(at) => TrafficPull::Request(Request { at, ..r }),
                None => TrafficPull::Exhausted,
            },
            other => other,
        }
    }

    /// Open-loop convenience wrapper over [`TenantTraffic::poll`]: runs
    /// the program forward until the next LLC request (or program end).
    ///
    /// # Panics
    ///
    /// Panics on a closed-loop frontend that is awaiting service —
    /// drive those via `poll`/`complete`.
    pub fn next_request(&mut self) -> Option<Request> {
        match self.poll() {
            TrafficPull::Request(r) => Some(r),
            TrafficPull::Exhausted => None,
            TrafficPull::AwaitingService => {
                panic!("closed-loop frontend awaits complete(); drive it via poll()")
            }
        }
    }

    /// Closed-loop only: reports the observed service completion of the
    /// outstanding demand read, resuming the core.
    ///
    /// # Panics
    ///
    /// Panics on an open-loop frontend, if no read is outstanding, or if
    /// `completion` precedes the request's arrival.
    pub fn complete(&mut self, completion: Cycle) {
        let Mode::Closed(c) = &mut self.mode else {
            panic!("complete() on an open-loop frontend");
        };
        let arrival = c
            .outstanding
            .take()
            .expect("complete() without an outstanding demand read");
        assert!(
            completion >= arrival,
            "service completion {completion} precedes arrival {arrival}"
        );
        c.feedback_cycles += completion - arrival;
        c.core.resume(completion);
    }
}

impl ClosedLoop {
    fn poll(&mut self) -> TrafficPull {
        if self.outstanding.is_some() {
            return TrafficPull::AwaitingService;
        }
        if self.finished {
            return TrafficPull::Exhausted;
        }
        match self.core.next_event(&mut self.workload, self.budget) {
            StepEvent::DemandRead { line_addr, at } => {
                self.outstanding = Some(at);
                TrafficPull::Request(Request {
                    at,
                    line_addr,
                    kind: AccessKind::Read,
                })
            }
            StepEvent::Writeback { line_addr, at } => TrafficPull::Request(Request {
                at,
                line_addr,
                kind: AccessKind::Write,
            }),
            StepEvent::Finished => {
                self.finished = true;
                TrafficPull::Exhausted
            }
        }
    }
}

impl OpenLoop {
    /// Queues a write-back of the line the inclusion rule (on
    /// [`WarmState`], shared with the stepped core) handed back, if any.
    fn write_back(&mut self, line: Option<u64>) {
        if let Some(line_addr) = line {
            self.queued.push_back(Request {
                at: self.cycle,
                line_addr,
                kind: AccessKind::Write,
            });
        }
    }

    fn exhausted(&self) -> bool {
        self.retired >= self.budget || self.workload.finished()
    }

    fn next_request(&mut self) -> Option<Request> {
        if let Some(r) = self.queued.pop_front() {
            return Some(r);
        }
        while !self.exhausted() {
            let instr = self.workload.next_instr();
            self.retired += 1;
            // I-side: sequential fetch touches the I-cache once per line;
            // model it on branch redirects where locality actually breaks.
            match instr {
                Instr::IntAlu => self.cycle += self.core.int_alu,
                Instr::IntMul => self.cycle += self.core.int_mul,
                Instr::IntDiv => self.cycle += self.core.int_div,
                Instr::FpAlu => self.cycle += self.core.fp_alu,
                Instr::FpMul => self.cycle += self.core.fp_mul,
                Instr::FpDiv => self.cycle += self.core.fp_div,
                Instr::Branch { taken, target } => {
                    self.cycle += self.core.int_alu;
                    if taken {
                        self.cycle += self.core.taken_branch_penalty;
                        self.pc = target;
                        let line = self.caches.l1i.line_of(self.pc);
                        let outcome = self.caches.l1i.access(line, false);
                        if !outcome.hit {
                            let l2 = self.caches.l2.access(line, false);
                            if l2.hit {
                                self.cycle += self.caches.l2.config().hit_latency;
                            } else {
                                self.cycle += TenantTraffic::DEFAULT_MISS_STALL;
                                let at = self.cycle;
                                self.queued.push_back(Request {
                                    at,
                                    line_addr: line,
                                    kind: AccessKind::Read,
                                });
                                let wb = self.caches.process_l2_eviction(&l2);
                                self.write_back(wb);
                                return self.queued.pop_front();
                            }
                        }
                    }
                }
                Instr::Load { addr } | Instr::Store { addr } => {
                    let write = matches!(instr, Instr::Store { .. });
                    self.cycle += self.caches.l1d.config().hit_latency;
                    let line = self.caches.l1d.line_of(addr);
                    let l1 = self.caches.l1d.access(line, write);
                    if let Some(victim) = l1.writeback {
                        let wb = self.caches.push_l1d_victim(victim);
                        self.write_back(wb);
                    }
                    if l1.hit {
                        if let Some(r) = self.queued.pop_front() {
                            return Some(r);
                        }
                        continue;
                    }
                    let l2 = self.caches.l2.access(line, write);
                    if l2.hit {
                        self.cycle += self.caches.l2.config().hit_latency;
                        if let Some(r) = self.queued.pop_front() {
                            return Some(r);
                        }
                        continue;
                    }
                    self.cycle += TenantTraffic::DEFAULT_MISS_STALL;
                    let at = self.cycle;
                    self.queued.push_back(Request {
                        at,
                        line_addr: line,
                        kind: AccessKind::Read,
                    });
                    let wb = self.caches.process_l2_eviction(&l2);
                    self.write_back(wb);
                    return self.queued.pop_front();
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_bound_tenant_generates_misses() {
        let mut t = TenantTraffic::with_mode(SpecBenchmark::Mcf, 50_000, LoopMode::Open);
        let mut n = 0u64;
        let mut last = 0;
        while let Some(r) = t.next_request() {
            assert!(r.at >= last, "arrivals must be monotone");
            last = r.at;
            n += 1;
        }
        assert!(n > 100, "mcf produced only {n} misses");
        assert!(t.retired() >= 50_000 || t.exhausted());
    }

    #[test]
    fn compute_bound_tenant_generates_few_misses() {
        // Long enough that cold-start fills stop dominating hmmer's count.
        let mut heavy = TenantTraffic::with_mode(SpecBenchmark::Mcf, 200_000, LoopMode::Open);
        let mut light = TenantTraffic::with_mode(SpecBenchmark::Hmmer, 200_000, LoopMode::Open);
        let count = |t: &mut TenantTraffic| {
            let mut n = 0u64;
            while t.next_request().is_some() {
                n += 1;
            }
            n
        };
        let h = count(&mut heavy);
        let l = count(&mut light);
        // The open-loop frontend starts cold (no fast-forward pass), so
        // the gap is smaller than the warmed closed-loop simulator's, but
        // the pressure ordering must be unmistakable.
        assert!(
            h > 3 * l,
            "expected mcf ({h}) to out-miss hmmer ({l}) by >3x"
        );
    }

    #[test]
    fn deterministic_across_rebuilds() {
        let collect = || {
            let mut t = TenantTraffic::with_mode(SpecBenchmark::Gobmk, 20_000, LoopMode::Open);
            let mut v = Vec::new();
            while let Some(r) = t.next_request() {
                v.push(r);
            }
            v
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn default_miss_stall_tracks_paper_olat() {
        // The open-loop constant stands in for the closed-loop service
        // time; pin it to the paper geometry's derived OLAT (§9.1.2:
        // 1488 CPU cycles) within 1% so neither drifts silently.
        let olat = otc_oram::OramTiming::derive(
            &otc_oram::OramConfig::paper(),
            &otc_dram::DdrConfig::default(),
        )
        .latency;
        let diff = TenantTraffic::DEFAULT_MISS_STALL.abs_diff(olat);
        assert!(
            diff * 100 <= olat,
            "DEFAULT_MISS_STALL ({}) drifted more than 1% from the paper OLAT ({olat})",
            TenantTraffic::DEFAULT_MISS_STALL
        );
    }

    #[test]
    fn closed_loop_blocks_on_reads_until_completed() {
        // Budget sized so the 1 MB LLC fills and dirty lines start
        // spilling (mcf misses every ~20 instructions; the LLC holds
        // 16k lines).
        let mut t = TenantTraffic::with_mode(SpecBenchmark::Mcf, 400_000, LoopMode::Closed);
        let mut reads = 0u64;
        let mut writes = 0u64;
        loop {
            match t.poll() {
                TrafficPull::Request(r) => match r.kind {
                    AccessKind::Read => {
                        reads += 1;
                        // While the read is outstanding the frontend must
                        // not produce more traffic.
                        assert!(t.awaiting_service());
                        assert_eq!(t.poll(), TrafficPull::AwaitingService);
                        t.complete(r.at + 2_000);
                        assert!(!t.awaiting_service());
                    }
                    AccessKind::Write => writes += 1,
                },
                TrafficPull::AwaitingService => unreachable!("completed above"),
                TrafficPull::Exhausted => break,
            }
        }
        assert!(reads > 100, "mcf produced only {reads} demand reads");
        assert!(writes > 0, "expected dirty writebacks");
        assert_eq!(t.retired(), 400_000);
        // Every completed read fed exactly 2000 backend cycles into the
        // core (load misses stall the clock; store-drain misses land in
        // write-buffer background time instead).
        assert_eq!(t.feedback_cycles(), reads * 2_000);
        assert!(t.cycle() > 0);
    }

    /// Drains `t`, completing each closed-loop read 1,500 cycles after
    /// it arrives, and counts the requests that arrive earlier than one
    /// pulled before them.
    fn step_backs(mut t: TenantTraffic) -> usize {
        let (mut latest, mut back) = (0, 0);
        loop {
            match t.poll() {
                TrafficPull::Request(r) => {
                    back += usize::from(r.at < latest);
                    latest = latest.max(r.at);
                    if r.kind == AccessKind::Read && t.is_closed_loop() {
                        t.complete(r.at + 1_500);
                    }
                }
                TrafficPull::AwaitingService => unreachable!("completed above"),
                TrafficPull::Exhausted => return back,
            }
        }
    }

    #[test]
    fn only_an_unshaped_closed_loop_steps_back() {
        // The stepped core stamps a store drain ahead of its own clock,
        // so a later pull can arrive earlier; the open-loop core and the
        // shaper never go back. The host serves in pull order either way.
        let bursty = TrafficModel::Bursty {
            mean_on: 20_000,
            mean_off: 60_000,
            seed: 7,
        };
        let (mcf, n) = (SpecBenchmark::Mcf, 50_000);
        assert_eq!(
            step_backs(TenantTraffic::with_mode(mcf, n, LoopMode::Open)),
            0
        );
        let shaped = TenantTraffic::with_model(mcf, n, LoopMode::Closed, bursty);
        assert_eq!(step_backs(shaped), 0);
        assert!(step_backs(TenantTraffic::with_mode(mcf, n, LoopMode::Closed)) > 0);
    }

    fn collect_shaped(model: TrafficModel) -> Vec<Request> {
        let mut t = TenantTraffic::with_model(SpecBenchmark::Mcf, 30_000, LoopMode::Open, model);
        let mut v = Vec::new();
        while let Some(r) = t.next_request() {
            v.push(r);
        }
        v
    }

    #[test]
    fn shaped_arrivals_are_monotone_and_delay_only() {
        let plain = collect_shaped(TrafficModel::Workload);
        for model in [
            TrafficModel::Bursty {
                mean_on: 20_000,
                mean_off: 60_000,
                seed: 7,
            },
            TrafficModel::Diurnal {
                period: 100_000,
                amplitude_ppm: 800_000,
                phase_ppm: 250_000,
            },
        ] {
            let shaped = collect_shaped(model.clone());
            assert_eq!(
                shaped.len(),
                plain.len(),
                "{} dropped requests",
                model.label()
            );
            let mut last = 0;
            for (s, p) in shaped.iter().zip(&plain) {
                assert!(s.at >= last, "{} broke monotonicity", model.label());
                assert!(s.at >= p.at, "{} advanced an arrival", model.label());
                assert_eq!((s.line_addr, s.kind), (p.line_addr, p.kind));
                last = s.at;
            }
            assert!(
                shaped.last().unwrap().at > plain.last().unwrap().at,
                "{} never delayed anything",
                model.label()
            );
        }
    }

    #[test]
    fn bursty_shaping_leaves_off_window_gaps() {
        let shaped = collect_shaped(TrafficModel::Bursty {
            mean_on: 10_000,
            mean_off: 200_000,
            seed: 3,
        });
        let max_gap = shaped.windows(2).map(|w| w[1].at - w[0].at).max().unwrap();
        let plain = collect_shaped(TrafficModel::Workload);
        let plain_max = plain.windows(2).map(|w| w[1].at - w[0].at).max().unwrap();
        assert!(
            max_gap > plain_max * 4,
            "expected off-window gaps ({max_gap}) to dwarf the workload's own ({plain_max})"
        );
    }

    #[test]
    fn replay_overrides_workload_timing_and_exhausts() {
        let model = TrafficModel::Replay {
            gaps: vec![100, 250, 650],
            repeat: 2,
        };
        let shaped = collect_shaped(model);
        let at: Vec<Cycle> = shaped.iter().map(|r| r.at).collect();
        assert_eq!(at, vec![100, 350, 1_000, 1_100, 1_350, 2_000]);
        // Addresses still come from the program, in program order.
        let plain = collect_shaped(TrafficModel::Workload);
        assert!(plain.len() > shaped.len());
        for (s, p) in shaped.iter().zip(&plain) {
            assert_eq!(s.line_addr, p.line_addr);
        }
    }

    #[test]
    fn shaping_parks_arrivals_at_the_end_of_time() {
        // A replay gap or a bursty OFF window that overruns the clock
        // saturates instead of wrapping back towards cycle 0.
        let replay = collect_shaped(TrafficModel::Replay {
            gaps: vec![1, Cycle::MAX],
            repeat: 2,
        });
        let at: Vec<Cycle> = replay.iter().map(|r| r.at).collect();
        assert_eq!(at, [1, Cycle::MAX, Cycle::MAX, Cycle::MAX]);
        let bursty = collect_shaped(TrafficModel::Bursty {
            mean_on: 1,
            mean_off: Cycle::MAX,
            seed: 1,
        });
        assert_eq!(bursty.len(), collect_shaped(TrafficModel::Workload).len());
        assert!(bursty.iter().all(|r| r.at == Cycle::MAX), "{bursty:?}");
    }

    #[test]
    fn shaped_traffic_is_deterministic_across_rebuilds() {
        let model = TrafficModel::Bursty {
            mean_on: 30_000,
            mean_off: 90_000,
            seed: 11,
        };
        assert_eq!(collect_shaped(model.clone()), collect_shaped(model));
    }

    #[test]
    fn traffic_model_validation_rejects_bad_parameters() {
        assert!(TrafficModel::Bursty {
            mean_on: 0,
            mean_off: 1,
            seed: 0
        }
        .validate()
        .is_err());
        assert!(TrafficModel::Diurnal {
            period: 0,
            amplitude_ppm: 1,
            phase_ppm: 0
        }
        .validate()
        .is_err());
        assert!(TrafficModel::Diurnal {
            period: 10,
            amplitude_ppm: 1_000_001,
            phase_ppm: 0
        }
        .validate()
        .is_err());
        assert!(TrafficModel::Replay {
            gaps: vec![],
            repeat: 1
        }
        .validate()
        .is_err());
        assert!(TrafficModel::Replay {
            gaps: vec![1],
            repeat: 0
        }
        .validate()
        .is_err());
        assert!(TrafficModel::Workload.validate().is_ok());
    }

    #[test]
    fn closed_loop_accepts_delay_only_models() {
        let mut t = TenantTraffic::with_model(
            SpecBenchmark::Libquantum,
            20_000,
            LoopMode::Closed,
            TrafficModel::Diurnal {
                period: 50_000,
                amplitude_ppm: 500_000,
                phase_ppm: 0,
            },
        );
        let mut n = 0u64;
        loop {
            match t.poll() {
                TrafficPull::Request(r) => {
                    n += 1;
                    if r.kind == AccessKind::Read {
                        // Completion relative to the *shaped* arrival —
                        // the delay-only guarantee makes this legal.
                        t.complete(r.at + 2_000);
                    }
                }
                TrafficPull::AwaitingService => unreachable!(),
                TrafficPull::Exhausted => break,
            }
        }
        assert!(n > 10);
    }

    #[test]
    fn closed_loop_feels_service_time_open_loop_does_not() {
        // Same program, same number of misses; the closed-loop clock
        // stretches with the supplied latency, the open-loop clock is a
        // pure function of the program.
        let run_closed = |latency: Cycle| {
            let mut t =
                TenantTraffic::with_mode(SpecBenchmark::Libquantum, 20_000, LoopMode::Closed);
            loop {
                match t.poll() {
                    TrafficPull::Request(r) => {
                        if r.kind == AccessKind::Read {
                            t.complete(r.at + latency);
                        }
                    }
                    TrafficPull::AwaitingService => unreachable!(),
                    TrafficPull::Exhausted => break,
                }
            }
            t.cycle()
        };
        assert!(run_closed(6_000) > run_closed(300));

        let run_open = || {
            let mut t = TenantTraffic::with_mode(SpecBenchmark::Libquantum, 20_000, LoopMode::Open);
            while t.next_request().is_some() {}
            t.cycle()
        };
        assert_eq!(run_open(), run_open());
    }
}
