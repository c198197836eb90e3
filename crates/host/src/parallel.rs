//! The shard executor: where the round loop's shard accesses run.
//!
//! The host runs one scheduling spine per round (calendar pops, tenant
//! PRNGs, slot-grid serves, the leakage ledger) and hands every shard
//! access to a [`ShardExecutor`] as a [`LaneRequest`]. The executor
//! decides only *where* the access runs:
//!
//! * inline, at post time, on the spine's own thread
//!   ([`ParallelKind::Serial`]);
//! * on a persistent pool of worker threads ([`ParallelKind::Threads`]),
//!   each owning a disjoint set of [`Lane`]s for the round and draining
//!   its request ring strictly FIFO.
//!
//! Because every lane belongs to exactly one worker, FIFO per ring
//! implies FIFO per lane — each shard sees its requests in posting
//! order under either executor, so the per-lane arithmetic (busy
//! clocks, stage pipelines, stash contents, histograms) is
//! bit-identical. The i-th request posted to a worker yields that
//! worker's i-th completion, and a [`Ticket`] `(worker, index)` names
//! it: the spine correlates completions back to slots without any
//! timestamps or thread identity leaking into results.
//!
//! # The handoff
//!
//! Each worker owns two bounded rings, allocated once when it spawns: a
//! request ring (the round's lanes, then its accesses, then an end
//! marker) and a completion ring (one completion per access, then the
//! lanes back). A post takes no lock, and wakes the worker only if it
//! has parked.
//!
//! * **Credit.** A worker may owe the spine at most [`CREDIT`]
//!   completions: before a post would exceed that, the spine redeems
//!   the worker's oldest one. Sizing the rings `CREDIT + 2` (accesses
//!   plus the round and end markers) and `CREDIT + 1` (completions plus
//!   the lanes) then means no send ever finds a ring full, so the spine
//!   and a worker can never wait on each other, and a round of any
//!   length runs in the rings' fixed allocation.
//! * **Poll, then park.** A receiver polls its ring for [`POLL`] before
//!   it blocks. Closed-loop cores stall on every read, so the spine
//!   waits on a completion mid-round for a large share of slots (about
//!   half in the closed-loop churn benchmark); a shard access takes a
//!   few microseconds, so the completion usually lands within the
//!   window and neither side sleeps. Between polls the receiver yields
//!   its core rather than spinning: when threads outnumber cores, a
//!   spinning receiver burns the time slice the thread it waits on
//!   needs.

use std::sync::mpsc::{self, Receiver, RecvError, SyncSender, TryRecvError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use otc_dram::Cycle;

use crate::host::ParallelKind;
use crate::shard::{Lane, LaneOp, ShardService};

/// Most completions a worker may owe the spine (see the module docs).
/// Small keeps the rings small; large enough that open-loop rounds,
/// which redeem nothing until the round ends, rarely hit it.
const CREDIT: usize = 1024;

/// How long a receiver polls before it parks. What matters is that the
/// window covers a shard access: on 2 vCPUs, windows of 10, 50 and
/// 200 µs all serve the closed-loop churn benchmark within 3% of each
/// other.
const POLL: Duration = Duration::from_micros(50);

/// One unit of shard work: which lane, at what slot time, doing what.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneRequest {
    /// Global lane (shard) index.
    pub(crate) lane: usize,
    /// Slot time the access is charged at.
    pub(crate) at: Cycle,
    /// The routed operation.
    pub(crate) op: LaneOp,
}

/// Names one posted request's completion: `(worker, index)`, the
/// index counting that worker's posts this round. Inline execution
/// counts as worker 0.
pub(crate) type Ticket = (usize, usize);

/// Spine → worker. A round is `Round`, any number of `Access`es, `End`.
enum Request {
    /// The lanes the worker owns this round; lane `i` sits at
    /// `lanes[i / stride]` (the executor deals lane `i` to worker
    /// `i % stride`).
    Round {
        lanes: Vec<Lane>,
        stride: usize,
    },
    Access(LaneRequest),
    End,
}

/// Worker → spine: one `Done` per `Access`, then `Lanes` for `End`.
enum Reply {
    Done(ShardService),
    Lanes(Vec<Lane>),
}

/// Receives from `rx`, polling (and yielding) for up to [`POLL`] before
/// parking. Errs once the other end is gone and the ring is drained.
fn poll_recv<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    let mut deadline = None;
    loop {
        match rx.try_recv() {
            Ok(msg) => return Ok(msg),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
            Err(TryRecvError::Empty) => {}
        }
        let now = Instant::now();
        if now >= *deadline.get_or_insert(now + POLL) {
            return rx.recv();
        }
        std::thread::yield_now();
    }
}

/// A worker's loop: runs each access on the lane it names and replies
/// in request order, until the spine drops its end of either ring.
fn work(requests: Receiver<Request>, replies: SyncSender<Reply>) {
    let (mut lanes, mut stride) = (Vec::new(), 1);
    while let Ok(request) = poll_recv(&requests) {
        let reply = match request {
            Request::Round {
                lanes: round,
                stride: s,
            } => {
                (lanes, stride) = (round, s);
                continue;
            }
            Request::Access(req) => Reply::Done(lanes[req.lane / stride].execute(req.op, req.at)),
            Request::End => Reply::Lanes(std::mem::take(&mut lanes)),
        };
        if replies.send(reply).is_err() {
            return;
        }
    }
}

/// One persistent worker thread and the spine's ends of its rings.
struct PoolWorker {
    requests: SyncSender<Request>,
    replies: Receiver<Reply>,
    handle: JoinHandle<()>,
    /// Accesses posted this round: the next ticket's index.
    posted: usize,
}

impl PoolWorker {
    fn spawn() -> Self {
        let (requests, request_rx) = mpsc::sync_channel(CREDIT + 2);
        let (reply_tx, replies) = mpsc::sync_channel(CREDIT + 1);
        Self {
            requests,
            replies,
            handle: std::thread::spawn(move || work(request_rx, reply_tx)),
            posted: 0,
        }
    }

    /// Queues `request`; the credit rule guarantees the ring has room.
    fn send(&self, request: Request) {
        self.requests
            .try_send(request)
            .expect("worker alive and its request ring within credit");
    }
}

/// Runs one round's shard accesses, inline or on worker threads (see
/// the module docs). A round is [`ShardExecutor::begin`] with the
/// pool's lanes, any number of [`ShardExecutor::post`]s, then
/// [`ShardExecutor::finish`], which hands the lanes back in index
/// order; every ticket of the round stays redeemable until the next
/// `begin`. Every buffer persists across rounds, and worker threads are
/// spawned on demand — never more than the shard count a round uses —
/// and reused for every round after.
pub(crate) struct ShardExecutor {
    /// Worker threads asked for; 0 runs every access inline.
    threads: usize,
    /// Inline: the lanes, held for the round. Pool: the emptied buffer
    /// the lanes are dealt out of and collected back into.
    lanes: Vec<Lane>,
    /// Per-worker completions in posting order: filled at post time
    /// inline, as the spine receives them for the pool.
    completions: Vec<Vec<ShardService>>,
    /// Spawned workers; the first `groups.len()` serve the round.
    workers: Vec<PoolWorker>,
    /// Per-worker lane deal-out buffers; the allocations round-trip
    /// through the workers and come back for the next round.
    groups: Vec<Vec<Lane>>,
}

impl ShardExecutor {
    /// An executor for `parallel`; spawns nothing until a round needs it.
    pub(crate) fn new(parallel: ParallelKind) -> Self {
        Self {
            threads: match parallel {
                ParallelKind::Serial => 0,
                ParallelKind::Threads(n) => n,
            },
            lanes: Vec::new(),
            completions: vec![Vec::new()],
            workers: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// Takes the pool's lanes for one round. The pool deals lane `i` to
    /// worker `i % w`, with `w` the thread count clamped to the lane
    /// count, spawning any of those `w` workers not yet running.
    pub(crate) fn begin(&mut self, lanes: Vec<Lane>) {
        self.completions.iter_mut().for_each(Vec::clear);
        self.lanes = lanes;
        if self.threads == 0 {
            return;
        }
        let active = self.threads.min(self.lanes.len());
        while self.workers.len() < active {
            self.workers.push(PoolWorker::spawn());
        }
        self.groups.resize_with(active, Vec::new);
        self.completions.resize_with(active, Vec::new);
        for (i, lane) in self.lanes.drain(..).enumerate() {
            self.groups[i % active].push(lane);
        }
        for (worker, group) in self.workers.iter_mut().zip(&mut self.groups) {
            worker.posted = 0;
            worker.send(Request::Round {
                lanes: std::mem::take(group),
                stride: active,
            });
        }
    }

    /// Runs `req` on its lane: now (inline) or on the lane's worker.
    pub(crate) fn post(&mut self, req: LaneRequest) -> Ticket {
        if self.threads == 0 {
            let done = &mut self.completions[0];
            done.push(self.lanes[req.lane].execute(req.op, req.at));
            return (0, done.len() - 1);
        }
        let w = req.lane % self.groups.len();
        let redeemed = self.completions[w].len();
        if self.workers[w].posted - redeemed >= CREDIT {
            // Out of credit: redeem the worker's oldest completion first.
            self.completion((w, redeemed));
        }
        let worker = &mut self.workers[w];
        worker.send(Request::Access(req));
        worker.posted += 1;
        (w, worker.posted - 1)
    }

    /// The completion `ticket` names, waiting until its worker has
    /// executed it — never circularly, since it was posted already.
    pub(crate) fn completion(&mut self, (w, i): Ticket) -> ShardService {
        while self.completions[w].len() <= i {
            let lanes = self.receive(w);
            debug_assert!(lanes.is_none(), "lanes back mid-round");
        }
        self.completions[w][i]
    }

    /// Receives worker `w`'s next reply: a completion goes to its
    /// buffer, the lanes (the round's last reply) to the caller.
    fn receive(&mut self, w: usize) -> Option<Vec<Lane>> {
        match poll_recv(&self.workers[w].replies).expect("worker thread alive") {
            Reply::Done(service) => {
                self.completions[w].push(service);
                None
            }
            Reply::Lanes(lanes) => Some(lanes),
        }
    }

    /// Ends the round: the workers drain their rings and hand their
    /// lanes back, which return to the caller in index order.
    pub(crate) fn finish(&mut self) -> Vec<Lane> {
        if self.threads > 0 {
            let active = self.groups.len();
            self.workers[..active]
                .iter()
                .for_each(|worker| worker.send(Request::End));
            for w in 0..active {
                // Worker w holds lanes w, w + active, w + 2·active, … in
                // order; reversed, `pop()` yields them front-first.
                self.groups[w] = loop {
                    if let Some(lanes) = self.receive(w) {
                        break lanes;
                    }
                };
                self.groups[w].reverse();
            }
            let n: usize = self.groups.iter().map(Vec::len).sum();
            for i in 0..n {
                let lane = self.groups[i % active].pop();
                self.lanes.push(lane.expect("lane count conserved"));
            }
        }
        std::mem::take(&mut self.lanes)
    }

    /// Worker threads spawned so far.
    #[cfg(test)]
    pub(crate) fn spawned_workers(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for ShardExecutor {
    fn drop(&mut self) {
        // With both of its rings' spine ends gone, a worker waiting
        // anywhere — parked between rounds, or mid-round under a spine
        // that panicked — sees the disconnect and exits.
        for PoolWorker {
            requests,
            replies,
            handle,
            ..
        } in self.workers.drain(..)
        {
            drop((requests, replies));
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{PipelineConfig, ShardClass, ShardedOram};
    use otc_dram::DdrConfig;
    use otc_oram::OramConfig;

    fn lanes(n: usize) -> Vec<Lane> {
        let class = ShardClass {
            oram: OramConfig::small(),
            pipeline: PipelineConfig::serial(),
        };
        ShardedOram::with_mix(&[class], &DdrConfig::default(), n)
            .expect("valid")
            .take_lanes()
    }

    /// Drops `executor` on another thread and fails unless the drop —
    /// which joins every worker — returns promptly.
    fn assert_drops_promptly(executor: ShardExecutor) {
        let (done, dropped) = mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(executor);
            let _ = done.send(());
        });
        dropped
            .recv_timeout(Duration::from_secs(30))
            .expect("dropping the executor joined its workers");
        dropper.join().expect("the drop did not panic");
    }

    fn request(i: usize, n_lanes: usize) -> LaneRequest {
        LaneRequest {
            lane: i % n_lanes,
            at: 1_000 * i as Cycle,
            op: if i.is_multiple_of(3) {
                LaneOp::Dummy
            } else {
                LaneOp::Read {
                    local: (i % 64) as u64,
                }
            },
        }
    }

    #[test]
    fn dropped_mid_round_joins_its_workers() {
        let mut executor = ShardExecutor::new(ParallelKind::Threads(2));
        executor.begin(lanes(2));
        for i in 0..40 {
            executor.post(request(i, 2));
        }
        assert_eq!(executor.spawned_workers(), 2);
        assert_drops_promptly(executor);
    }

    #[test]
    fn dropped_between_rounds_joins_its_parked_workers() {
        let mut executor = ShardExecutor::new(ParallelKind::Threads(2));
        executor.begin(lanes(2));
        for i in 0..10 {
            executor.post(request(i, 2));
        }
        let _pool = executor.finish();
        // Twenty poll windows on, both workers have almost surely parked
        // in `recv`; a drop must return from a polling worker too, so the
        // sleep cannot make the test fail, only skip the parked case.
        std::thread::sleep(POLL * 20);
        assert_drops_promptly(executor);
    }

    #[test]
    fn a_round_past_the_credit_matches_inline() {
        // More unredeemed posts to one worker than its credit allows:
        // the spine must redeem the oldest completions as it goes.
        let posts = 2 * CREDIT + 100;
        let run = |parallel| {
            let mut executor = ShardExecutor::new(parallel);
            executor.begin(lanes(1));
            let tickets: Vec<Ticket> = (0..posts).map(|i| executor.post(request(i, 1))).collect();
            assert_eq!(executor.finish().len(), 1, "the lane comes back");
            tickets
                .into_iter()
                .map(|t| executor.completion(t))
                .collect::<Vec<ShardService>>()
        };
        assert_eq!(run(ParallelKind::Threads(1)), run(ParallelKind::Serial));
    }
}
