//! The in-order, single-issue core and its memory hierarchy — the
//! steppable simulation core and its blocking driver.
//!
//! Timing semantics (matching Table 1 and §9.1.2's simple core):
//!
//! * One instruction issues at a time; its latency is its class latency
//!   plus any memory stall.
//! * Instruction fetch is modeled at cache-line granularity: crossing into
//!   a new 64 B line (sequentially or via a taken branch) performs an L1 I
//!   access. L1 I hits overlap with execution (no added stall); misses
//!   stall the core for the L2/backend round trip.
//! * Loads are blocking: L1 D hit costs its hit latency; misses walk to L2
//!   and (on LLC miss) to the memory backend. The paper's store-to-load
//!   overlap is captured by the write buffer (below).
//! * Stores retire into the 8-entry non-blocking write buffer and drain in
//!   the background, generating concurrent outstanding LLC misses
//!   (Fig. 4, Req 3). A full buffer stalls the core.
//! * The L2 is inclusive: L2 evictions back-invalidate L1; dirty LLC
//!   evictions issue write-backs to the backend (ORAM is invoked "on LLC
//!   misses and evictions", §3.1).
//!
//! # Stepped vs. blocking execution
//!
//! The core itself is [`SteppedSim`]: it advances the pipeline, caches and
//! write buffer up to the next LLC-level memory event, *suspends*, and
//! resumes when the caller supplies the observed service latency. The
//! classic blocking [`Simulator::run`] is a thin driver over the stepped
//! core — one code path — that forwards each event to a synchronous
//! [`MemoryBackend`]. External schedulers (notably the closed-loop tenant
//! frontends in `otc-host`) drive [`SteppedSim`] directly, feeding back
//! per-request service times that may depend on shared-backend load.

use crate::cache::{AccessOutcome, Cache};
use crate::config::SimConfig;
use crate::instr::{Instr, InstructionStream};
use crate::memory::{AccessKind, MemoryBackend};
use crate::stats::{SimStats, WindowSample};
use crate::write_buffer::WriteBuffer;
use otc_dram::Cycle;
use std::collections::VecDeque;

/// Outcome of one simulation run.
pub type SimResult = SimStats;

/// The simulator: drives an [`InstructionStream`] through the Table 1
/// microarchitecture over an arbitrary [`MemoryBackend`].
///
/// # Example
///
/// ```
/// use otc_sim::{DramBackend, SimConfig, Simulator};
/// use otc_sim::instr::{Instr, InstructionStream};
///
/// /// Fifteen ALU ops then a loop-back branch, forever.
/// struct Loop(u32);
/// impl InstructionStream for Loop {
///     fn next_instr(&mut self) -> Instr {
///         self.0 = (self.0 + 1) % 16;
///         if self.0 == 0 {
///             Instr::Branch { taken: true, target: 0x1000 }
///         } else {
///             Instr::IntAlu
///         }
///     }
/// }
///
/// let mut backend = DramBackend::new();
/// let stats = Simulator::new(SimConfig::default())
///     .run(&mut Loop(0), &mut backend, 1_600);
/// assert_eq!(stats.instructions, 1_600);
/// assert!(stats.ipc() > 0.8); // tight ALU loop retires near 1 per cycle
/// ```
#[derive(Debug)]
pub struct Simulator {
    config: SimConfig,
}

/// The inclusive three-cache hierarchy (L1 I, L1 D, unified L2) and the
/// one copy of its inclusion rule, shared by [`SteppedSim`] and the
/// open-loop tenant frontends in `otc-host`. It is also the warm state a
/// fast-forward pass carries into a measured run (the paper
/// fast-forwards 1–20 billion instructions before measuring, §9.1.1;
/// this is the scaled equivalent).
///
/// The two rule methods return the line to write back below the LLC, if
/// any; each caller emits it and counts its own stats.
#[derive(Debug)]
pub struct WarmState {
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Unified L2, the LLC; inclusive of both L1s.
    pub l2: Cache,
}

impl WarmState {
    /// Empty caches shaped by `config`.
    pub fn cold(config: &SimConfig) -> Self {
        Self {
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
        }
    }

    /// Drains a dirty L1 D victim into L2 (eviction buffers, Table 1).
    /// The inclusive L2 normally still holds the line and just turns
    /// dirty; if it was evicted concurrently, the drain re-installs it
    /// and the line that fill evicts goes through
    /// [`WarmState::process_l2_eviction`].
    pub fn push_l1d_victim(&mut self, victim: u64) -> Option<u64> {
        let outcome = self.l2.access(victim, true);
        self.process_l2_eviction(&outcome)
    }

    /// Inclusion bookkeeping after an L2 fill: back-invalidates both L1
    /// copies of the line L2 evicted, and returns it for write-back if
    /// either L2's copy or the L1 D copy was dirty.
    pub fn process_l2_eviction(&mut self, outcome: &AccessOutcome) -> Option<u64> {
        let evicted = outcome.evicted?;
        self.l1i.invalidate(evicted);
        let l1d_dirty = self.l1d.invalidate(evicted) == Some(true);
        (outcome.writeback.is_some() || l1d_dirty).then_some(evicted)
    }
}

impl Simulator {
    /// Creates a simulator with `config`.
    pub fn new(config: SimConfig) -> Self {
        Self { config }
    }

    /// Runs `workload` over `backend` for at most `max_instructions`
    /// (stopping earlier if the stream reports
    /// [`InstructionStream::finished`]).
    pub fn run<S, B>(&self, workload: &mut S, backend: &mut B, max_instructions: u64) -> SimResult
    where
        S: InstructionStream + ?Sized,
        B: MemoryBackend + ?Sized,
    {
        let mut core = SteppedSim::new(self.config);
        core.drive(workload, backend, max_instructions);
        core.into_result(backend)
    }

    /// Fast-forward pass: advances `workload` by `instructions` over a
    /// throwaway flat-DRAM backend, returning the warmed cache state.
    /// Timing of this pass is discarded — it exists to populate the
    /// caches, exactly like the paper's SESC fast-forward.
    pub fn warm_caches<S>(&self, workload: &mut S, instructions: u64) -> WarmState
    where
        S: InstructionStream + ?Sized,
    {
        let mut backend = crate::memory::DramBackend::new();
        let mut core = SteppedSim::new(self.config);
        core.drive(workload, &mut backend, instructions);
        core.into_warm_state()
    }

    /// Measured run starting from [`WarmState`]: cache contents persist,
    /// cycle counting starts at zero, and the backend sees a fresh
    /// timeline (epoch schedules begin with the measurement, as they
    /// would when a secure processor starts timing at program start).
    pub fn run_warm<S, B>(
        &self,
        workload: &mut S,
        backend: &mut B,
        max_instructions: u64,
        warm: WarmState,
    ) -> SimResult
    where
        S: InstructionStream + ?Sized,
        B: MemoryBackend + ?Sized,
    {
        let mut core = SteppedSim::warmed(self.config, warm);
        core.drive(workload, backend, max_instructions);
        core.into_result(backend)
    }
}

/// One LLC-level memory event produced by [`SteppedSim::next_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// A demand read below the LLC. The core is suspended on it: supply
    /// the observed completion time via [`SteppedSim::resume`] before the
    /// next [`SteppedSim::next_event`] call.
    DemandRead {
        /// Cache-line address (byte address / line size).
        line_addr: u64,
        /// Cycle the request leaves the LLC.
        at: Cycle,
    },
    /// A dirty write-back below the LLC. Fire-and-forget: hand it to the
    /// backend; the core never stalls on its completion.
    Writeback {
        /// Cache-line address.
        line_addr: u64,
        /// Cycle the write-back is issued.
        at: Cycle,
    },
    /// The run ended: the instruction budget was reached or the stream
    /// reported [`InstructionStream::finished`].
    Finished,
}

/// Where execution suspended, and what remains to be done once the
/// pending demand read's completion time is known.
#[derive(Debug)]
enum Cont {
    /// Ready to execute (fetch the next instruction).
    Ready,
    /// Suspended inside the fetch fill: on resume, advance `now` to the
    /// completion and execute `instr`.
    FetchFill { instr: Instr, l2out: AccessOutcome },
    /// Suspended inside a load fill: on resume, charge the stall and
    /// retire with latency `completion - start`.
    LoadFill {
        instr: Instr,
        start: Cycle,
        l2out: AccessOutcome,
    },
    /// Suspended inside a store drain: on resume, record the drain
    /// completion in the write buffer and retire.
    StoreFill {
        instr: Instr,
        issue: Cycle,
        l2out: AccessOutcome,
    },
}

/// Result of attempting an L2 fill without a synchronous backend.
enum Fill {
    /// L2 hit: completed at the contained cycle.
    Done(Cycle),
    /// LLC miss: a [`StepEvent::DemandRead`] was queued; the caller must
    /// suspend and finish via [`SteppedSim::resume`].
    Suspended(AccessOutcome),
}

/// The event-steppable simulator core.
///
/// `SteppedSim` owns the Table 1 microarchitecture (core, L1 I/D, L2,
/// write buffer) but **no memory backend**: it advances execution until
/// the next LLC-level event and hands control back to the caller.
///
/// # Protocol
///
/// Call [`SteppedSim::next_event`] in a loop:
///
/// * [`StepEvent::Writeback`] — forward to the backend (or shard); no
///   response needed.
/// * [`StepEvent::DemandRead`] — the core is stalled. Obtain the service
///   completion time (synchronously from a [`MemoryBackend`], or later
///   from a shared-shard scheduler) and call [`SteppedSim::resume`].
/// * [`StepEvent::Finished`] — call [`SteppedSim::into_result`] (or
///   [`SteppedSim::into_warm_state`] after a fast-forward pass).
///
/// Events are produced in exactly the order (and with exactly the
/// timestamps) the blocking [`Simulator::run`] would have issued backend
/// requests — `run` *is* this loop. The equivalence suite in
/// `tests/stepped_equivalence.rs` locks that down field-for-field.
///
/// # Example
///
/// ```
/// use otc_sim::{AccessKind, DramBackend, MemoryBackend, SimConfig, StepEvent, SteppedSim};
/// use otc_sim::instr::{Instr, InstructionStream};
///
/// struct Walk(u64);
/// impl InstructionStream for Walk {
///     fn next_instr(&mut self) -> Instr {
///         self.0 += 64;
///         Instr::Load { addr: self.0 * 331 }
///     }
/// }
///
/// let mut backend = DramBackend::new();
/// let mut core = SteppedSim::new(SimConfig::default());
/// let mut workload = Walk(0);
/// loop {
///     match core.next_event(&mut workload, 1_000) {
///         StepEvent::DemandRead { line_addr, at } => {
///             let done = backend.request(line_addr, AccessKind::Read, at);
///             core.resume(done);
///         }
///         StepEvent::Writeback { line_addr, at } => {
///             backend.request(line_addr, AccessKind::Write, at);
///         }
///         StepEvent::Finished => break,
///     }
/// }
/// let stats = core.into_result(&mut backend);
/// assert_eq!(stats.instructions, 1_000);
/// ```
#[derive(Debug)]
pub struct SteppedSim {
    config: SimConfig,
    caches: WarmState,
    wb: WriteBuffer,
    now: Cycle,
    pc: u64,
    current_fetch_line: u64,
    /// Completion time of the most recent drain through the shared L1D/L2
    /// port (store drains serialize behind each other).
    drain_port_free: Cycle,
    stats: SimStats,
    next_window: u64,
    /// Events generated but not yet handed to the caller.
    outbox: VecDeque<StepEvent>,
    cont: Cont,
    /// Set while a [`StepEvent::DemandRead`] has been handed out and
    /// [`SteppedSim::resume`] has not been called.
    awaiting_resume: bool,
    /// Issue time of the suspended demand read (`resume` enforces the
    /// supplied completion does not precede it).
    pending_read_at: Cycle,
}

impl SteppedSim {
    /// Creates a cold core with `config`.
    pub fn new(config: SimConfig) -> Self {
        Self::warmed(config, WarmState::cold(&config))
    }

    /// Creates a core whose caches start from `warm` (see
    /// [`Simulator::warm_caches`]).
    pub fn warmed(config: SimConfig, warm: WarmState) -> Self {
        let fetch_line = warm.l1i.line_of(0x1000);
        Self {
            config,
            caches: warm,
            wb: WriteBuffer::new(config.write_buffer_entries),
            now: 0,
            pc: 0x1000,
            current_fetch_line: fetch_line,
            drain_port_free: 0,
            stats: SimStats::default(),
            next_window: config.window_instructions.unwrap_or(u64::MAX),
            outbox: VecDeque::new(),
            cont: Cont::Ready,
            awaiting_resume: false,
            pending_read_at: 0,
        }
    }

    /// Cycle the core has reached.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.stats.instructions
    }

    /// Read access to the in-progress statistics (`cycles` and `backend`
    /// are only finalized by [`SteppedSim::into_result`]).
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Whether the core is suspended on a [`StepEvent::DemandRead`].
    pub fn awaiting_resume(&self) -> bool {
        self.awaiting_resume
    }

    /// Advances to the next LLC-level event (or run end).
    ///
    /// # Panics
    ///
    /// Panics if the previous event was a [`StepEvent::DemandRead`] and
    /// [`SteppedSim::resume`] has not been called.
    pub fn next_event<S>(&mut self, workload: &mut S, max_instructions: u64) -> StepEvent
    where
        S: InstructionStream + ?Sized,
    {
        loop {
            if let Some(ev) = self.outbox.pop_front() {
                if matches!(ev, StepEvent::DemandRead { .. }) {
                    self.awaiting_resume = true;
                }
                return ev;
            }
            assert!(
                !self.awaiting_resume,
                "next_event called while suspended on a DemandRead; call resume() first"
            );
            match self.cont {
                Cont::Ready => {
                    if self.stats.instructions >= max_instructions || workload.finished() {
                        return StepEvent::Finished;
                    }
                    let instr = workload.next_instr();
                    self.begin_instr(instr);
                }
                _ => unreachable!("suspended continuation without awaiting_resume"),
            }
        }
    }

    /// Supplies the completion time of the outstanding demand read and
    /// resumes execution up to the next suspension point (further events
    /// are delivered by subsequent [`SteppedSim::next_event`] calls).
    ///
    /// # Panics
    ///
    /// Panics if no demand read is outstanding, or if `completion`
    /// precedes the read's issue time (its event's `at` — service takes
    /// nonnegative time, so an earlier completion is a driver bug).
    pub fn resume(&mut self, completion: Cycle) {
        assert!(
            self.awaiting_resume,
            "resume() without an outstanding DemandRead"
        );
        assert!(
            completion >= self.pending_read_at,
            "completion {completion} precedes the demand read's issue time {}",
            self.pending_read_at
        );
        self.awaiting_resume = false;
        let cont = std::mem::replace(&mut self.cont, Cont::Ready);
        match cont {
            Cont::FetchFill { instr, l2out } => {
                self.process_l2_eviction(&l2out, completion);
                self.now = completion;
                self.execute_body(instr);
            }
            Cont::LoadFill {
                instr,
                start,
                l2out,
            } => {
                self.process_l2_eviction(&l2out, completion);
                // No underflow: the read issued at start + hit + miss
                // extras, and completion >= that issue time.
                self.stats.load_stall_cycles += completion - start - self.config.l1d.hit_latency;
                self.retire(instr, completion - start);
            }
            Cont::StoreFill {
                instr,
                issue,
                l2out,
            } => {
                self.process_l2_eviction(&l2out, completion);
                self.finish_store(instr, issue, completion);
            }
            Cont::Ready => unreachable!("awaiting_resume without a continuation"),
        }
    }

    /// Drives the core to completion over a synchronous backend — the
    /// single code path under [`Simulator::run`]/[`Simulator::run_warm`].
    pub fn drive<S, B>(&mut self, workload: &mut S, backend: &mut B, max_instructions: u64)
    where
        S: InstructionStream + ?Sized,
        B: MemoryBackend + ?Sized,
    {
        loop {
            match self.next_event(workload, max_instructions) {
                StepEvent::DemandRead { line_addr, at } => {
                    let done = backend.request(line_addr, AccessKind::Read, at);
                    self.resume(done);
                }
                StepEvent::Writeback { line_addr, at } => {
                    backend.request(line_addr, AccessKind::Write, at);
                }
                StepEvent::Finished => break,
            }
        }
    }

    /// Finalizes the run against the backend that served it: closes the
    /// backend's timeline and captures its energy profile.
    pub fn into_result<B>(mut self, backend: &mut B) -> SimResult
    where
        B: MemoryBackend + ?Sized,
    {
        backend.finish(self.now);
        self.stats.cycles = self.now;
        self.stats.backend = backend.energy_profile();
        self.stats
    }

    /// Extracts the warmed cache state (fast-forward pass).
    pub fn into_warm_state(self) -> WarmState {
        self.caches
    }

    // ----- execution (one instruction, possibly across suspensions) -----

    fn begin_instr(&mut self, instr: Instr) {
        // Models instruction delivery: an L1 I access per new fetch line.
        // One fetch-buffer read per 256-bit (32 B) group → every 8
        // instructions on average; modeled per line crossing for
        // simplicity (2 groups per 64 B line).
        let line = self.caches.l1i.line_of(self.pc);
        if line != self.current_fetch_line {
            self.current_fetch_line = line;
            self.stats.components.fetch_buffer_reads += 2;
            let outcome = self.caches.l1i.access(line, false);
            if outcome.hit {
                self.stats.components.l1i_hits += 1;
                // Overlapped with execute: no stall on a hit.
            } else {
                self.stats.components.l1i_refills += 1;
                match self.try_l2_fill(line, false, self.now + self.config.l1i.miss_extra) {
                    Fill::Done(done) => self.now = done,
                    Fill::Suspended(l2out) => {
                        self.cont = Cont::FetchFill { instr, l2out };
                        return;
                    }
                }
            }
        }
        self.execute_body(instr);
    }

    fn execute_body(&mut self, instr: Instr) {
        let c = &self.config.core;
        let latency = match instr {
            Instr::IntAlu => {
                self.stats.components.int_alu_ops += 1;
                c.int_alu
            }
            Instr::IntMul => {
                self.stats.components.int_mul_ops += 1;
                c.int_mul
            }
            Instr::IntDiv => {
                self.stats.components.int_div_ops += 1;
                c.int_div
            }
            Instr::FpAlu => {
                self.stats.components.fp_ops += 1;
                c.fp_alu
            }
            Instr::FpMul => {
                self.stats.components.fp_ops += 1;
                c.fp_mul
            }
            Instr::FpDiv => {
                self.stats.components.fp_ops += 1;
                c.fp_div
            }
            Instr::Load { addr } => {
                self.execute_load(instr, addr);
                return;
            }
            Instr::Store { addr } => {
                self.execute_store(instr, addr);
                return;
            }
            Instr::Branch { taken, target } => {
                self.stats.branches += 1;
                if taken {
                    self.stats.taken_branches += 1;
                    self.pc = target;
                    c.int_alu + c.taken_branch_penalty
                } else {
                    c.int_alu
                }
            }
        };
        self.retire(instr, latency);
    }

    fn execute_load(&mut self, instr: Instr, addr: u64) {
        self.stats.loads += 1;
        self.wb.retire_completed(self.now);
        let line = self.caches.l1d.line_of(addr);
        let start = self.now;
        let outcome = self.caches.l1d.access(line, false);
        if outcome.hit {
            self.stats.components.l1d_hits += 1;
            self.retire(instr, self.config.l1d.hit_latency);
            return;
        }
        self.stats.components.l1d_refills += 1;
        self.handle_l1d_victim(&outcome);
        match self.try_l2_fill(
            line,
            false,
            start + self.config.l1d.hit_latency + self.config.l1d.miss_extra,
        ) {
            Fill::Done(done) => {
                self.stats.load_stall_cycles += done - start - self.config.l1d.hit_latency;
                self.retire(instr, done - start);
            }
            Fill::Suspended(l2out) => {
                self.cont = Cont::LoadFill {
                    instr,
                    start,
                    l2out,
                };
            }
        }
    }

    /// Stores retire into the write buffer; the drain happens in
    /// "background time" but is pre-computed here (the backends queue
    /// internally, so chronology is preserved).
    fn execute_store(&mut self, instr: Instr, addr: u64) {
        self.stats.stores += 1;
        self.wb.retire_completed(self.now);
        let mut issue = self.now;
        if self.wb.is_full() {
            let free_at = self.wb.earliest_completion();
            self.stats.wb_stall_cycles += free_at - self.now;
            issue = free_at;
            self.wb.retire_completed(free_at);
        }
        let line = self.caches.l1d.line_of(addr);
        // The drain uses the cache port once the previous drain finished.
        let drain_start = issue.max(self.drain_port_free);
        let outcome = self.caches.l1d.access(line, true);
        if outcome.hit {
            self.stats.components.l1d_hits += 1;
            self.finish_store(instr, issue, drain_start + self.config.l1d.hit_latency);
            return;
        }
        self.stats.components.l1d_refills += 1;
        self.handle_l1d_victim(&outcome);
        match self.try_l2_fill(
            line,
            true,
            drain_start + self.config.l1d.hit_latency + self.config.l1d.miss_extra,
        ) {
            Fill::Done(drain_done) => self.finish_store(instr, issue, drain_done),
            Fill::Suspended(l2out) => {
                self.cont = Cont::StoreFill {
                    instr,
                    issue,
                    l2out,
                };
            }
        }
    }

    fn finish_store(&mut self, instr: Instr, issue: Cycle, drain_done: Cycle) {
        self.drain_port_free = drain_done;
        self.wb.push(drain_done);
        // Core-visible cost: one cycle to enqueue, plus any stall above.
        self.retire(instr, (issue - self.now) + self.config.core.int_alu);
    }

    /// Shared retire epilogue: regfile accounting, cycle advance, PC
    /// increment, windowed sampling.
    fn retire(&mut self, instr: Instr, latency: Cycle) {
        if instr.is_fp() {
            self.stats.components.fp_regfile_accesses += 1;
        } else {
            self.stats.components.int_regfile_accesses += 1;
        }
        self.now += latency;
        self.stats.instructions += 1;
        self.pc += 4; // fixed-width ISA (MIPS-like)
        if self.stats.instructions >= self.next_window {
            self.stats.windows.push(WindowSample {
                instructions: self.stats.instructions,
                cycle: self.now,
                backend_requests: self.stats.llc_demand_misses + self.stats.llc_writebacks,
            });
            self.next_window += self.config.window_instructions.expect("windows enabled");
        }
    }

    fn handle_l1d_victim(&mut self, outcome: &AccessOutcome) {
        // Dirty L1 victims drain into L2; charged as an L2 access for
        // energy, overlapped for timing.
        if let Some(victim) = outcome.writeback {
            self.stats.components.l2_accesses += 1;
            if let Some(line) = self.caches.push_l1d_victim(victim) {
                self.emit_writeback(line, self.now);
            }
        }
    }

    /// An access that missed L1 and proceeds to L2 (and possibly below)
    /// starting at time `t`. On an L2 hit, completes synchronously; on an
    /// LLC miss, emits a [`StepEvent::DemandRead`] and suspends (the
    /// post-fill eviction bookkeeping runs in [`SteppedSim::resume`],
    /// when the completion time is known).
    fn try_l2_fill(&mut self, line: u64, write: bool, t: Cycle) -> Fill {
        self.stats.components.l2_accesses += 1;
        let outcome = self.caches.l2.access(line, write);
        let t = t + self.config.l2.hit_latency;
        if outcome.hit {
            return Fill::Done(t);
        }
        // LLC miss → below-LLC event (ORAM or DRAM).
        self.stats.llc_demand_misses += 1;
        let t = t + self.config.l2.miss_extra;
        self.pending_read_at = t;
        self.outbox.push_back(StepEvent::DemandRead {
            line_addr: line,
            at: t,
        });
        Fill::Suspended(outcome)
    }

    fn process_l2_eviction(&mut self, outcome: &AccessOutcome, when: Cycle) {
        // Dirty LLC eviction → ORAM/DRAM write-back (§3.1). Queued after
        // the demand miss; does not stall the core.
        if let Some(line) = self.caches.process_l2_eviction(outcome) {
            self.emit_writeback(line, when);
        }
    }

    fn emit_writeback(&mut self, line_addr: u64, at: Cycle) {
        self.stats.llc_writebacks += 1;
        self.outbox
            .push_back(StepEvent::Writeback { line_addr, at });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::DramBackend;

    /// A stream with a fixed instruction vector, repeated.
    struct Script {
        instrs: Vec<Instr>,
        i: usize,
    }

    impl Script {
        fn new(instrs: Vec<Instr>) -> Self {
            Self { instrs, i: 0 }
        }
    }

    impl InstructionStream for Script {
        fn next_instr(&mut self) -> Instr {
            let instr = self.instrs[self.i % self.instrs.len()];
            self.i += 1;
            instr
        }
        fn name(&self) -> &str {
            "script"
        }
    }

    /// Appends a loop-back branch so the instruction footprint stays
    /// bounded (real programs loop; an unterminated straight-line PC walk
    /// would stream through the I-cache forever).
    fn looping(mut body: Vec<Instr>) -> Vec<Instr> {
        body.push(Instr::Branch {
            taken: true,
            target: 0x1000,
        });
        body
    }

    fn run(instrs: Vec<Instr>, n: u64) -> SimStats {
        let mut backend = DramBackend::new();
        Simulator::new(SimConfig::default()).run(&mut Script::new(instrs), &mut backend, n)
    }

    #[test]
    fn pure_alu_ipc_near_one() {
        // 31 single-cycle ops + a 3-cycle loop branch = 32 instr / 34 cyc.
        let s = run(looping(vec![Instr::IntAlu; 31]), 10_000);
        assert_eq!(s.instructions, 10_000);
        assert!(s.ipc() > 0.9, "ipc = {}", s.ipc());
    }

    #[test]
    fn div_heavy_is_slow() {
        let s = run(looping(vec![Instr::IntDiv; 31]), 1_000);
        assert!(s.ipc() < 0.1, "ipc = {}", s.ipc());
    }

    #[test]
    fn l1_resident_loads_cost_hit_latency() {
        // Loads over a 4 KB footprint fit in L1D: after warmup, each load
        // costs 2 cycles (plus the loop branch).
        let addrs: Vec<Instr> = (0..64).map(|i| Instr::Load { addr: i * 64 }).collect();
        let s = run(looping(addrs), 64_000);
        assert!(s.ipc() > 0.4 && s.ipc() < 0.6, "ipc = {}", s.ipc());
        assert!(s.components.l1d_hits > 60_000);
    }

    #[test]
    fn llc_misses_reach_backend() {
        // Stream over 4 MB (64k lines) — far beyond the 1 MB LLC.
        let addrs: Vec<Instr> = (0..65_536u64)
            .map(|i| Instr::Load { addr: i * 64 })
            .collect();
        let s = run(looping(addrs), 65_536);
        assert!(
            s.llc_demand_misses > 55_000,
            "misses = {}",
            s.llc_demand_misses
        );
        assert!(s.backend.dram_ctrl_lines > 0);
    }

    #[test]
    fn l1_resident_stores_drain_at_port_rate() {
        // Stores retire non-blocking, but the shared drain port sustains
        // one L1D hit per 2 cycles, so store-only code settles near 0.5
        // IPC — far better than blocking stores (2 cycles each + stall).
        let addrs: Vec<Instr> = (0..16).map(|i| Instr::Store { addr: i * 64 }).collect();
        let s = run(looping(addrs), 10_000);
        assert!(s.ipc() > 0.4, "ipc = {}", s.ipc());
        assert!(s.stores > 9_000);
    }

    #[test]
    fn store_bursts_to_memory_stall_on_full_buffer() {
        // Stores streaming over 8 MB miss everywhere; 8 entries fill up
        // and the core must stall on DRAM.
        let addrs: Vec<Instr> = (0..131_072u64)
            .map(|i| Instr::Store { addr: i * 64 })
            .collect();
        let s = run(looping(addrs), 50_000);
        assert!(s.wb_stall_cycles > 0, "no wb stalls recorded");
        assert!(s.ipc() < 0.9);
    }

    #[test]
    fn taken_branch_penalty_costs_cycles() {
        // Same instruction stream, penalty 2 vs penalty 0.
        let body = looping(vec![Instr::IntAlu; 7]);
        let mut backend = DramBackend::new();
        let base = Simulator::new(SimConfig::default()).run(
            &mut Script::new(body.clone()),
            &mut backend,
            8_000,
        );
        let mut cfg = SimConfig::default();
        cfg.core.taken_branch_penalty = 0;
        let mut backend2 = DramBackend::new();
        let fast = Simulator::new(cfg).run(&mut Script::new(body), &mut backend2, 8_000);
        assert!(base.cycles > fast.cycles);
        assert_eq!(base.taken_branches, 1_000);
    }

    #[test]
    fn windows_recorded_when_enabled() {
        let cfg = SimConfig {
            window_instructions: Some(1_000),
            ..SimConfig::default()
        };
        let mut backend = DramBackend::new();
        let s =
            Simulator::new(cfg).run(&mut Script::new(vec![Instr::IntAlu]), &mut backend, 10_000);
        assert_eq!(s.windows.len(), 10);
        assert_eq!(s.windows[0].instructions, 1_000);
        assert!(s.windows[9].cycle > s.windows[0].cycle);
        // Stores 1 MiB apart share every cache's set: each one misses and,
        // once the set is full, writes back a dirty victim. The last
        // window, taken at the run's last instruction, has seen every
        // request the backend served.
        let stores = looping((0..64).map(|i| Instr::Store { addr: i << 20 }).collect());
        let mut backend = DramBackend::new();
        let s = Simulator::new(cfg).run(&mut Script::new(stores), &mut backend, 10_000);
        let last = s.windows.last().expect("windows recorded");
        assert_eq!(last.instructions, s.instructions);
        assert!(s.llc_writebacks > 0);
        assert_eq!(last.backend_requests, backend.request_count());
    }

    #[test]
    fn finished_stream_stops_early() {
        struct Short(u32);
        impl InstructionStream for Short {
            fn next_instr(&mut self) -> Instr {
                self.0 += 1;
                Instr::IntAlu
            }
            fn finished(&self) -> bool {
                self.0 >= 10
            }
        }
        let mut backend = DramBackend::new();
        let s = Simulator::new(SimConfig::default()).run(&mut Short(0), &mut backend, 1_000);
        assert_eq!(s.instructions, 10);
    }

    #[test]
    fn warm_run_skips_compulsory_misses() {
        // Loads over a 512 KB footprint: cold run pays ~8k compulsory
        // misses; a warmed run over the same lines pays none.
        let body: Vec<Instr> = (0..8192u64).map(|i| Instr::Load { addr: i * 64 }).collect();
        let sim = Simulator::new(SimConfig::default());
        let mut cold_backend = DramBackend::new();
        let cold = sim.run(
            &mut Script::new(looping(body.clone())),
            &mut cold_backend,
            30_000,
        );
        let mut wl = Script::new(looping(body));
        let warm = sim.warm_caches(&mut wl, 20_000);
        let mut warm_backend = DramBackend::new();
        let warm_stats = sim.run_warm(&mut wl, &mut warm_backend, 30_000, warm);
        assert!(
            warm_stats.llc_demand_misses * 4 < cold.llc_demand_misses,
            "warm {} vs cold {}",
            warm_stats.llc_demand_misses,
            cold.llc_demand_misses
        );
        assert!(warm_stats.ipc() > cold.ipc());
    }

    #[test]
    fn deterministic_replay() {
        let mk = || {
            let addrs: Vec<Instr> = (0..4096u64)
                .map(|i| Instr::Load {
                    addr: (i * 7919) % (1 << 22) * 64,
                })
                .collect();
            run(addrs, 20_000)
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.llc_demand_misses, b.llc_demand_misses);
    }

    #[test]
    fn stepped_demand_read_suspends_until_resume() {
        // A single far load: the core must emit exactly one DemandRead,
        // refuse to proceed without resume(), and charge the supplied
        // latency into the load stall.
        let mut core = SteppedSim::new(SimConfig::default());
        let mut wl = Script::new(looping(vec![Instr::Load { addr: 64 << 20 }]));
        let ev = core.next_event(&mut wl, 1);
        let StepEvent::DemandRead { at, .. } = ev else {
            panic!("expected DemandRead, got {ev:?}");
        };
        assert!(core.awaiting_resume());
        core.resume(at + 1_234);
        assert!(!core.awaiting_resume());
        assert_eq!(core.next_event(&mut wl, 1), StepEvent::Finished);
        assert_eq!(core.instructions(), 1);
        assert!(core.stats().load_stall_cycles >= 1_234);
    }

    #[test]
    #[should_panic(expected = "precedes the demand read's issue time")]
    fn stepped_resume_before_issue_time_panics() {
        let mut core = SteppedSim::new(SimConfig::default());
        let mut wl = Script::new(looping(vec![Instr::Load { addr: 64 << 20 }]));
        let StepEvent::DemandRead { at, .. } = core.next_event(&mut wl, 1) else {
            panic!("expected DemandRead");
        };
        core.resume(at - 1); // service cannot finish before it started
    }

    #[test]
    #[should_panic(expected = "call resume() first")]
    fn stepped_next_event_without_resume_panics() {
        let mut core = SteppedSim::new(SimConfig::default());
        let mut wl = Script::new(looping(vec![Instr::Load { addr: 64 << 20 }]));
        let _ = core.next_event(&mut wl, 4);
        let _ = core.next_event(&mut wl, 4); // suspended: must panic
    }

    #[test]
    fn stepped_larger_latency_costs_more_cycles() {
        // Same script, two latency assignments: the slower backend can
        // never finish earlier (the monotonicity the closed-loop host
        // relies on; the property suite generalizes this).
        let script: Vec<Instr> = (0..256u64)
            .map(|i| Instr::Load {
                addr: (i * 131) % (1 << 20) * 64,
            })
            .collect();
        let total = |latency: Cycle| {
            let mut core = SteppedSim::new(SimConfig::default());
            let mut wl = Script::new(looping(script.clone()));
            loop {
                match core.next_event(&mut wl, 2_000) {
                    StepEvent::DemandRead { at, .. } => core.resume(at + latency),
                    StepEvent::Writeback { .. } => {}
                    StepEvent::Finished => break,
                }
            }
            core.now()
        };
        assert!(total(2_000) > total(40));
    }

    #[test]
    fn l2_eviction_drops_the_l1i_copy_of_a_line_dirty_in_l1d() {
        // One line in both L1s, dirty in L1 D and clean in L2. Evicting
        // it from L2 must write back the dirty L1 D copy and drop both
        // L1 copies: an L1 I copy left behind would break inclusion.
        let config = SimConfig::default();
        let mut caches = WarmState::cold(&config);
        let line = 0x40;
        caches.l1i.access(line, false);
        caches.l1d.access(line, true);
        caches.l2.access(line, false);
        let sets = config.l2.sets() as u64;
        let outcome = (1..)
            .map(|k| caches.l2.access(line + k * sets, false))
            .find(|o| o.evicted == Some(line))
            .expect("filling the set evicts the line");
        assert_eq!(outcome.writeback, None, "L2's copy was clean");
        assert_eq!(caches.process_l2_eviction(&outcome), Some(line));
        assert!(!caches.l1d.probe(line));
        assert!(!caches.l1i.probe(line), "L1 I kept a line L2 dropped");
    }
}
