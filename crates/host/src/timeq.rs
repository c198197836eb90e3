//! A deterministic timed event queue for discrete-event simulation.
//!
//! [`TimeQ`] orders events by `(time, tie, insertion sequence)`: the
//! earliest simulated cycle first, an explicit caller-supplied tie key
//! second (e.g. `(shard, slot sequence)`, so a merge of out-of-order
//! producers is reproducible at any thread count), and insertion order
//! last so two events with equal time *and* tie still pop in a defined
//! order. The payload never participates in ordering — it needs no
//! `Ord` bound.
//!
//! The host's round loop does not use it: it commits shard completions
//! in posting order, which needs no queue. `TimeQ` stays a public
//! primitive for callers that merge producers running out of order (the
//! repo benchmark's `timeq.op_ns` probe measures it).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use otc_dram::Cycle;

/// One event popped from a [`TimeQ`]: its time, tie key, and payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent<T> {
    /// Simulated cycle the event is scheduled at.
    pub time: Cycle,
    /// Caller-supplied tie key breaking equal-time order.
    pub tie: (u64, u64),
    /// The event payload.
    pub payload: T,
}

struct HeapEnt<T> {
    time: Cycle,
    tie: (u64, u64),
    seq: u64,
    payload: T,
}

impl<T> PartialEq for HeapEnt<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.tie, self.seq) == (other.time, other.tie, other.seq)
    }
}

impl<T> Eq for HeapEnt<T> {}

impl<T> PartialOrd for HeapEnt<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for HeapEnt<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.tie, self.seq).cmp(&(other.time, other.tie, other.seq))
    }
}

/// A min-ordered timed event queue with deterministic tie-breaking.
///
/// Events pop in `(time, tie, insertion order)` order regardless of the
/// order they were pushed, so a producer running out of order (e.g.
/// parallel shard workers) can be merged back into the exact sequence a
/// serial producer would have emitted.
pub struct TimeQ<T> {
    heap: BinaryHeap<Reverse<HeapEnt<T>>>,
    seq: u64,
}

impl<T> Default for TimeQ<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimeQ<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` at `time`; `tie` breaks equal-time order
    /// (smaller pops first), and equal `(time, tie)` events pop in
    /// insertion order.
    pub fn push(&mut self, time: Cycle, tie: (u64, u64), payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(HeapEnt {
            time,
            tie,
            seq,
            payload,
        }));
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<TimedEvent<T>> {
        self.heap.pop().map(|Reverse(e)| TimedEvent {
            time: e.time,
            tie: e.tie,
            payload: e.payload,
        })
    }

    /// As [`TimeQ::pop`], but only if the earliest event is strictly
    /// before `frontier`.
    pub fn pop_due(&mut self, frontier: Cycle) -> Option<TimedEvent<T>> {
        if self.peek_time()? < frontier {
            self.pop()
        } else {
            None
        }
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Empties the queue in place, keeping its allocation, and resets
    /// the insertion sequence — equivalent to a fresh queue, so a
    /// per-round merge can reuse one `TimeQ` across rounds without its
    /// tie-breaking ever depending on prior rounds.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.seq = 0;
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_regardless_of_push_order() {
        let mut q = TimeQ::new();
        for t in [50u64, 10, 40, 10, 30] {
            q.push(t, (0, 0), t);
        }
        let times: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(times, [10, 10, 30, 40, 50]);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_break_on_tie_key_then_insertion_order() {
        let mut q = TimeQ::new();
        q.push(100, (2, 0), "c");
        q.push(100, (1, 5), "b2");
        q.push(100, (1, 3), "b1");
        q.push(100, (1, 3), "b1-later");
        q.push(100, (0, 9), "a");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, ["a", "b1", "b1-later", "b2", "c"]);
    }

    #[test]
    fn pop_due_respects_the_frontier() {
        let mut q = TimeQ::new();
        q.push(5, (0, 0), ());
        q.push(10, (0, 0), ());
        assert_eq!(q.peek_time(), Some(5));
        assert!(q.pop_due(10).is_some()); // 5 < 10
        assert!(q.pop_due(10).is_none()); // 10 is not strictly before 10
        assert_eq!(q.len(), 1);
        assert!(q.pop_due(11).is_some());
        assert!(q.pop_due(u64::MAX).is_none());
    }

    #[test]
    fn shard_worker_interleaving_merges_deterministically() {
        // Two "workers" push the same completions in different orders;
        // both queues must drain identically.
        let completions = [
            (1000u64, (0u64, 0u64)),
            (1000, (1, 1)),
            (1000, (0, 2)),
            (2000, (3, 3)),
            (1500, (2, 4)),
        ];
        let mut forward = TimeQ::new();
        let mut backward = TimeQ::new();
        for &(t, tie) in &completions {
            forward.push(t, tie, tie);
        }
        for &(t, tie) in completions.iter().rev() {
            backward.push(t, tie, tie);
        }
        let a: Vec<_> = std::iter::from_fn(|| forward.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| backward.pop()).collect();
        assert_eq!(a, b);
        let ties: Vec<_> = a.iter().map(|e| e.tie).collect();
        assert_eq!(ties, [(0, 0), (0, 2), (1, 1), (2, 4), (3, 3)]);
    }
}
