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
//!   its request channel strictly FIFO.
//!
//! Because every lane belongs to exactly one worker, FIFO per channel
//! implies FIFO per lane — each shard sees its requests in posting
//! order under either executor, so the per-lane arithmetic (busy
//! clocks, stage pipelines, stash contents, histograms) is
//! bit-identical. The i-th request posted to a worker yields that
//! worker's i-th completion, and a [`Ticket`] `(worker, index)` names
//! it: the spine correlates completions back to slots without any
//! timestamps or thread identity leaking into results.

use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use otc_dram::Cycle;

use crate::host::ParallelKind;
use crate::shard::{Lane, LaneOp, ShardService};

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

struct ChannelState {
    queue: VecDeque<LaneRequest>,
    completions: Vec<ShardService>,
    posted: usize,
    closed: bool,
}

/// A single-producer single-consumer work queue between the spine and
/// one worker thread, with completion indexing: the i-th posted request
/// yields `completions[i]`.
struct WorkerChannel {
    state: Mutex<ChannelState>,
    work: Condvar,
    done: Condvar,
}

impl WorkerChannel {
    fn new() -> Self {
        Self {
            state: Mutex::new(ChannelState {
                queue: VecDeque::new(),
                completions: Vec::new(),
                posted: 0,
                closed: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        }
    }

    /// Posts one request; returns its completion index on this channel.
    fn post(&self, req: LaneRequest) -> usize {
        let mut s = self.state.lock().expect("channel poisoned");
        let index = s.posted;
        s.posted += 1;
        s.queue.push_back(req);
        drop(s);
        self.work.notify_one();
        index
    }

    /// Marks the channel closed: the worker drains the remaining queue
    /// and hands its lanes back.
    fn close(&self) {
        self.state.lock().expect("channel poisoned").closed = true;
        self.work.notify_all();
    }

    /// Worker side: blocks for the next request; `None` once the
    /// channel is closed and drained.
    fn next_request(&self) -> Option<LaneRequest> {
        let mut s = self.state.lock().expect("channel poisoned");
        loop {
            if let Some(req) = s.queue.pop_front() {
                return Some(req);
            }
            if s.closed {
                return None;
            }
            s = self.work.wait(s).expect("channel poisoned");
        }
    }

    /// Worker side: records one completion (strictly in request order).
    fn complete(&self, svc: ShardService) {
        self.state
            .lock()
            .expect("channel poisoned")
            .completions
            .push(svc);
        self.done.notify_all();
    }

    /// Spine side: blocks until completion `index` exists and returns it.
    fn wait_completion(&self, index: usize) -> ShardService {
        let mut s = self.state.lock().expect("channel poisoned");
        while s.completions.len() <= index {
            s = self.done.wait(s).expect("channel poisoned");
        }
        s.completions[index]
    }

    /// Spine side, after the worker handed its lanes back: copies every
    /// completion (in request order) into `out` and clears the
    /// channel's own buffer in place — both allocations survive for the
    /// next round.
    fn take_completions_into(&self, out: &mut Vec<ShardService>) {
        out.clear();
        let mut s = self.state.lock().expect("channel poisoned");
        out.extend_from_slice(&s.completions);
        s.completions.clear();
    }

    /// Reopens a drained channel for the next round. The queue must be
    /// empty (the worker drained it before returning its lanes) and the
    /// completions taken; only the `posted` counter and the closed flag
    /// need rewinding.
    fn reset(&self) {
        let mut s = self.state.lock().expect("channel poisoned");
        debug_assert!(s.queue.is_empty(), "reset with queued work");
        debug_assert!(s.completions.is_empty(), "reset with untaken completions");
        s.posted = 0;
        s.closed = false;
    }
}

/// One round's worth of work handed to a pool worker: the lanes it owns
/// for the round and the channel the spine posts requests on. `stride`
/// is the active worker count — lane `i` lives at position `i / stride`
/// in `lanes` (the executor deals lane `i` to worker `i % stride`).
struct RoundWork {
    lanes: Vec<Lane>,
    channel: Arc<WorkerChannel>,
    stride: usize,
}

/// One persistent worker thread. Between rounds it blocks on an empty
/// mpsc receiver; dropping `work` disconnects it and the thread exits.
struct PoolWorker {
    work: mpsc::Sender<RoundWork>,
    lanes_back: mpsc::Receiver<Vec<Lane>>,
    handle: JoinHandle<()>,
}

impl PoolWorker {
    fn spawn() -> Self {
        let (work, work_rx) = mpsc::channel::<RoundWork>();
        let (lanes_tx, lanes_back) = mpsc::channel::<Vec<Lane>>();
        let handle = std::thread::spawn(move || {
            while let Ok(mut round) = work_rx.recv() {
                while let Some(req) = round.channel.next_request() {
                    let svc = round.lanes[req.lane / round.stride].execute(req.op, req.at);
                    round.channel.complete(svc);
                }
                if lanes_tx.send(round.lanes).is_err() {
                    break;
                }
            }
        });
        Self {
            work,
            lanes_back,
            handle,
        }
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
    /// inline, at [`ShardExecutor::finish`] for the pool.
    completions: Vec<Vec<ShardService>>,
    /// Spawned workers; the first `channels.len()` serve the round.
    workers: Vec<PoolWorker>,
    /// Per-worker spine↔worker channels, reopened every round.
    channels: Vec<Arc<WorkerChannel>>,
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
            channels: Vec::new(),
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
        if self.channels.len() == active {
            self.channels.iter().for_each(|c| c.reset());
        } else {
            self.channels = (0..active)
                .map(|_| Arc::new(WorkerChannel::new()))
                .collect();
            self.groups.resize_with(active, Vec::new);
            self.completions.resize_with(active, Vec::new);
        }
        for (i, lane) in self.lanes.drain(..).enumerate() {
            self.groups[i % active].push(lane);
        }
        for (w, group) in self.groups.iter_mut().enumerate() {
            let round = RoundWork {
                lanes: std::mem::take(group),
                channel: self.channels[w].clone(),
                stride: active,
            };
            self.workers[w]
                .work
                .send(round)
                .expect("worker thread alive");
        }
    }

    /// Runs `req` on its lane: now (inline) or on the lane's worker.
    pub(crate) fn post(&mut self, req: LaneRequest) -> Ticket {
        if self.threads == 0 {
            let done = &mut self.completions[0];
            done.push(self.lanes[req.lane].execute(req.op, req.at));
            return (0, done.len() - 1);
        }
        let w = req.lane % self.channels.len();
        (w, self.channels[w].post(req))
    }

    /// The completion `ticket` names, blocking until its worker has
    /// executed it — never circularly, since it was posted already.
    pub(crate) fn completion(&self, (w, i): Ticket) -> ShardService {
        match self.completions[w].get(i) {
            Some(&service) => service,
            None => self.channels[w].wait_completion(i),
        }
    }

    /// Ends the round: the workers drain their channels and hand their
    /// lanes back, which return to the caller in index order.
    pub(crate) fn finish(&mut self) -> Vec<Lane> {
        if self.threads > 0 {
            let active = self.channels.len();
            self.channels.iter().for_each(|c| c.close());
            for (w, channel) in self.channels.iter().enumerate() {
                // Worker w holds lanes w, w + active, w + 2·active, … in
                // order; reversed, `pop()` yields them front-first.
                self.groups[w] = self.workers[w]
                    .lanes_back
                    .recv()
                    .expect("worker thread alive");
                self.groups[w].reverse();
                channel.take_completions_into(&mut self.completions[w]);
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
        // Closing first releases a worker still inside a round (a spine
        // that panicked mid-round); disconnecting `work` then ends it.
        self.channels.iter().for_each(|c| c.close());
        for PoolWorker { work, handle, .. } in self.workers.drain(..) {
            drop(work);
            let _ = handle.join();
        }
    }
}
