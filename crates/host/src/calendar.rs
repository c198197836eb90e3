//! A calendar-queue (bucketed timing-wheel) priority queue over tenant
//! slot times — the data structure that makes the host's scheduling
//! round cost O(slots due) instead of O(K tenants).
//!
//! # Why a calendar queue
//!
//! The scheduler's job each round is "serve every slot due before the
//! quantum frontier, in global slot-time order". A k-way merge answers
//! that with a linear scan over all K tenants **per served slot** —
//! O(K · slots) per round, the exact bottleneck the ROADMAP's scale
//! sweeps hit past dozens of tenants. A calendar queue instead hashes
//! each tenant's next slot time into a bucket of `width` cycles on a
//! ring of `n_buckets` slots. Because the frontier only moves forward,
//! a round visits exactly the buckets overlapping `[cursor, frontier)`
//! once, touching only the entries that are actually due: insertion and
//! removal are O(1) bucket ops, and a round costs O(slots due +
//! quantum/width), independent of K.
//!
//! # Geometry
//!
//! Each tenant has exactly one entry (its next slot time), and
//! reinsertions always move forward by one slot period (`rate + OLAT`).
//! The host's ring is fixed: [`BUCKETS`] buckets of [`BUCKET_WIDTH`]
//! cycles.
//!
//! * `width` too small → many empty buckets scanned per round (cost
//!   quantum/width); `width` too large → each bucket holds many due
//!   entries and the per-bucket min-scan degrades toward the k-way
//!   merge. 4,096 cycles is 16 empty-bucket visits per 65,536-cycle
//!   round, with buckets sparse for any fleet admission can accept.
//! * The ring span (`n_buckets × width`, 2^20 cycles for the host) is
//!   above every slot period the paper's schemes produce: the slowest
//!   candidate rate is 32,768 cycles (§9.2), the dynamic warm-up rate
//!   10,000, and the spine sweep's slowest static rate 192 OLAT =
//!   285,696 cycles. An entry beyond one span aliases onto the ring
//!   ("next year") and the pass check skips it at scan time until its
//!   own pass comes round. That is correct, and only the slow tenants
//!   pay. Measured on 1,024 tenants at staggered phases (release build,
//!   2 vCPUs), a pop and its re-insert cost ~80 ns at spine-like
//!   periods and ~200 ns with every period at 2^24–2^25 cycles, where
//!   each pass skips the aliased entries. Parking such entries in a
//!   second, overflow ring halves that far-future cost but slows every
//!   within-span pop (~110 ns at spine-like periods), and both figures
//!   are far below one shard access (several µs at paper geometry).
//!
//! Ties (two tenants due the same cycle) are broken by a caller-supplied
//! rank: the host passes the WDRR credit rank, settled by a rotating
//! round-robin rank, which reproduces the serve order of the k-way merge
//! this queue replaced, tie-breaks included (`tests/churn_props.rs` and
//! `tests/spine_equivalence.rs` hold digests recorded from the merge).

use otc_dram::Cycle;

/// Width in cycles of each bucket of the host's calendar.
pub(crate) const BUCKET_WIDTH: Cycle = 1 << 12;
/// Buckets on the host's calendar ring: a span of 2^20 cycles.
pub(crate) const BUCKETS: usize = 256;

/// Slots one scheduling round can sustainably serve: each entry of
/// `cadences` is one shard's service port initiating an access per that
/// many cycles, summed across a `quantum`-cycle round. In a
/// heterogeneous pool the shards contribute *different* per-slot costs,
/// so the figure is the sum of per-shard rates — not one cadence
/// multiplied by the shard count, which would mis-state any mixed pool.
///
/// This is the scheduler-side face of the capacity model: admission
/// keeps the fleet's worst-case due-slot demand per round below this
/// figure (times the utilization cap), which is what lets
/// `MultiTenantHost::step_round` serve *every* due slot each round
/// without the backlog growing round over round. Priced at `OLAT` the
/// figure under-states a staged pool (overlapped stages serve slots
/// faster than one per `OLAT`); priced at the pipeline's effective
/// cadence it matches the bandwidth the shards actually sustain.
///
/// Degenerate inputs are total, not panics: an empty pool sums to 0.0,
/// a zero cadence (a shard that cannot serve) contributes 0.0 instead
/// of dividing by zero, and a quantum shorter than a cadence yields the
/// honest fractional slot count.
pub fn round_slot_capacity(quantum: Cycle, cadences: &[Cycle]) -> f64 {
    // `+ 0.0` normalizes the -0.0 an empty f64 sum yields (a zero-shard
    // or all-degenerate pool) — same idiom as the ledger's fleet sums.
    cadences
        .iter()
        .filter(|&&c| c != 0)
        .map(|&c| quantum as f64 / c as f64)
        .sum::<f64>()
        + 0.0
}

/// One scheduled slot: the key is the host's dense tenant index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    time: Cycle,
    key: usize,
}

/// Calendar-queue priority queue mapping tenant keys to their next slot
/// time. At most one entry per key (enforced by the caller: a tenant is
/// reinserted only after its previous slot is popped or removed).
#[derive(Debug, Clone)]
pub struct CalendarQueue {
    buckets: Vec<Vec<Entry>>,
    width: Cycle,
    /// Absolute (non-wrapped) index of the earliest bucket that may hold
    /// an entry; advances monotonically except when an insert lands
    /// earlier.
    cursor: u64,
    len: usize,
}

impl CalendarQueue {
    /// Builds a queue with `n_buckets` buckets of `width` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0` or `n_buckets == 0`.
    pub fn new(width: Cycle, n_buckets: usize) -> Self {
        assert!(width > 0, "calendar bucket width must be positive");
        assert!(n_buckets > 0, "calendar needs at least one bucket");
        Self {
            buckets: vec![Vec::new(); n_buckets],
            width,
            cursor: 0,
            len: 0,
        }
    }

    /// Number of scheduled entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entry is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The ring bucket `time` hashes to.
    fn ring(&self, time: Cycle) -> usize {
        (time / self.width % self.buckets.len() as u64) as usize
    }

    /// Schedules `key` at `time`. O(1).
    pub fn insert(&mut self, key: usize, time: Cycle) {
        let abs = time / self.width;
        if self.is_empty() || abs < self.cursor {
            self.cursor = abs;
        }
        let ring = self.ring(time);
        self.buckets[ring].push(Entry { time, key });
        self.len += 1;
    }

    /// Removes the entry for `key` scheduled at `time` (both must match
    /// what was inserted). O(bucket size). Returns whether an entry was
    /// removed.
    pub fn remove(&mut self, key: usize, time: Cycle) -> bool {
        let ring = self.ring(time);
        let bucket = &mut self.buckets[ring];
        match bucket.iter().position(|e| e.key == key && e.time == time) {
            Some(i) => {
                bucket.swap_remove(i);
                self.len -= 1;
                true
            }
            None => false,
        }
    }

    /// Pops the earliest entry strictly before `frontier`; among entries
    /// due the same cycle, the one with the smallest `rank(key)` wins.
    /// The rank is any `Ord` value — the host passes the WDRR
    /// arbiter's `(credit, rotation)` pair, whose credit part is
    /// constant under uniform weights. Returns `None` when nothing is
    /// due.
    ///
    /// Amortized O(entries due + buckets crossed): the cursor never
    /// revisits a bucket it has drained unless an insert lands there.
    pub fn pop_due<R: Ord>(
        &mut self,
        frontier: Cycle,
        mut rank: impl FnMut(usize) -> R,
    ) -> Option<(usize, Cycle)> {
        if self.is_empty() {
            return None;
        }
        let n = self.buckets.len() as u64;
        loop {
            // Everything at or past the frontier is not due; the cursor
            // lower-bounds all entries, so once it reaches the frontier's
            // bucket and finds nothing due there, we are done.
            if self.cursor.saturating_mul(self.width) >= frontier {
                return None;
            }
            let ring = (self.cursor % n) as usize;
            let mut best: Option<(usize, Entry)> = None;
            for (i, e) in self.buckets[ring].iter().enumerate() {
                // Pass check: skip entries that alias from a later span.
                if e.time / self.width != self.cursor || e.time >= frontier {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((_, b)) => {
                        e.time < b.time || (e.time == b.time && rank(e.key) < rank(b.key))
                    }
                };
                if better {
                    best = Some((i, *e));
                }
            }
            match best {
                Some((i, e)) => {
                    self.buckets[ring].swap_remove(i);
                    self.len -= 1;
                    return Some((e.key, e.time));
                }
                None => {
                    // This bucket holds nothing due in the current pass;
                    // move on. Entries of this very bucket at or past the
                    // frontier stay for a later round (the cursor may
                    // then point at them again because inserts pull it
                    // back — see `insert`).
                    let holds_current_pass = self.buckets[ring]
                        .iter()
                        .any(|e| e.time / self.width == self.cursor);
                    if holds_current_pass {
                        // Due entries exhausted, rest are >= frontier in
                        // this same bucket: nothing else can be earlier.
                        return None;
                    }
                    // Cannot overflow: this branch only runs while
                    // cursor·width < frontier ≤ u64::MAX, so cursor is
                    // strictly below u64::MAX / width here and the loop
                    // terminates at the frontier check above — even for
                    // frontier == u64::MAX with width 1 (the wrap
                    // regression tests pin this).
                    self.cursor += 1;
                }
            }
        }
    }

    /// Iterates all scheduled `(key, time)` pairs in arbitrary order
    /// (diagnostics and tests).
    pub fn iter(&self) -> impl Iterator<Item = (usize, Cycle)> + '_ {
        self.buckets
            .iter()
            .flat_map(|b| b.iter().map(|e| (e.key, e.time)))
    }

    /// Bucket-occupancy statistics: `(entries, occupied buckets, max
    /// bucket length)`. A max bucket length creeping toward the entry
    /// count means the hash degraded to the k-way merge this structure
    /// replaces — the regression perf sessions watch for.
    pub fn occupancy(&self) -> (usize, usize, usize) {
        let occupied = self.buckets.iter().filter(|b| !b.is_empty()).count();
        let max_len = self.buckets.iter().map(Vec::len).max().unwrap_or(0);
        (self.len, occupied, max_len)
    }

    /// Writes the bucket statistics into a perf-session round sample.
    pub(crate) fn sample_into(&self, sample: &mut otc_perf::RoundSample) {
        let (entries, occupied, max_len) = self.occupancy();
        sample.calendar = otc_perf::CalendarSample {
            entries: entries as u32,
            occupied_buckets: occupied as u32,
            max_bucket_len: max_len as u32,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut CalendarQueue, frontier: Cycle) -> Vec<(usize, Cycle)> {
        let mut out = Vec::new();
        while let Some(x) = q.pop_due(frontier, |k| k) {
            out.push(x);
        }
        out
    }

    #[test]
    fn round_slot_capacity_scales_with_shards_and_cadence() {
        // 2 shards serving one slot per 400 cycles across a 65536-cycle
        // round sustain 327.68 slots/round.
        let quantum = 1u64 << 16;
        assert_eq!(round_slot_capacity(quantum, &[400, 400]), 327.68);
        // Halving the cadence doubles the round capacity; so does
        // doubling the shards.
        assert_eq!(
            round_slot_capacity(quantum, &[200, 200]),
            round_slot_capacity(quantum, &[400, 400, 400, 400])
        );
    }

    #[test]
    fn round_slot_capacity_sums_heterogeneous_cadences() {
        // A mixed pool is the sum of per-shard rates, not max-cadence ×
        // shard count (which would under-state it) or min-cadence ×
        // count (over-state).
        let quantum = 1_000u64;
        let mixed = round_slot_capacity(quantum, &[400, 200]);
        assert_eq!(mixed, 2.5 + 5.0);
        assert!(mixed > round_slot_capacity(quantum, &[400, 400]));
        assert!(mixed < round_slot_capacity(quantum, &[200, 200]));
    }

    #[test]
    fn round_slot_capacity_is_total_on_degenerate_inputs() {
        let quantum = 1u64 << 16;
        // Zero shards: an empty pool serves nothing.
        assert_eq!(round_slot_capacity(quantum, &[]), 0.0);
        // Zero cadence (degenerate shard) contributes zero rather than
        // dividing by it — alone or inside a mix.
        assert_eq!(round_slot_capacity(quantum, &[0]), 0.0);
        assert_eq!(
            round_slot_capacity(quantum, &[0, 400]),
            round_slot_capacity(quantum, &[400])
        );
        // Quantum shorter than the cadence: an honest fractional slot.
        assert_eq!(round_slot_capacity(100, &[400]), 0.25);
        // Zero quantum serves zero slots whatever the pool.
        assert_eq!(round_slot_capacity(0, &[400, 200]), 0.0);
        // Nothing here may produce NaN or a negative zero.
        let figure = round_slot_capacity(0, &[]);
        assert!(!figure.is_nan());
        assert!(figure.is_sign_positive());
    }

    #[test]
    fn pops_in_time_order_across_buckets() {
        let mut q = CalendarQueue::new(64, 8);
        q.insert(0, 500);
        q.insert(1, 10);
        q.insert(2, 300);
        q.insert(3, 65); // second bucket
        assert_eq!(
            drain(&mut q, 1_000),
            vec![(1, 10), (3, 65), (2, 300), (0, 500)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn frontier_is_exclusive() {
        let mut q = CalendarQueue::new(64, 8);
        q.insert(0, 100);
        q.insert(1, 200);
        assert_eq!(drain(&mut q, 200), vec![(0, 100)]);
        assert_eq!(q.len(), 1);
        assert_eq!(drain(&mut q, 201), vec![(1, 200)]);
    }

    #[test]
    fn ties_break_by_rank() {
        let mut q = CalendarQueue::new(64, 8);
        q.insert(5, 100);
        q.insert(2, 100);
        q.insert(9, 100);
        // rank = key: ascending keys pop first.
        assert_eq!(drain(&mut q, 1_000), vec![(2, 100), (5, 100), (9, 100)]);
        // Rotating rank: with rank (k + 10 - 5) % 10, key 5 ranks 0.
        q.insert(5, 100);
        q.insert(2, 100);
        q.insert(9, 100);
        let mut out = Vec::new();
        while let Some(x) = q.pop_due(1_000, |k| (k + 10 - 5) % 10) {
            out.push(x);
        }
        assert_eq!(out, vec![(5, 100), (9, 100), (2, 100)]);
    }

    #[test]
    fn entries_beyond_one_ring_span_alias_correctly() {
        // Span is 8 × 64 = 512 cycles; an entry a full span later lands
        // in the same ring slot but must not pop until its own pass.
        let mut q = CalendarQueue::new(64, 8);
        q.insert(0, 20);
        q.insert(1, 20 + 512);
        q.insert(2, 20 + 2 * 512);
        assert_eq!(drain(&mut q, 512), vec![(0, 20)]);
        assert_eq!(drain(&mut q, 2 * 512), vec![(1, 532)]);
        assert_eq!(drain(&mut q, 3 * 512), vec![(2, 1_044)]);
    }

    #[test]
    fn insert_behind_cursor_is_found() {
        let mut q = CalendarQueue::new(64, 8);
        q.insert(0, 400);
        assert_eq!(drain(&mut q, 500), vec![(0, 400)]);
        // Cursor has advanced past bucket 0; a new early entry must
        // still pop (reinsertion after a pop can land in an earlier
        // bucket than the cursor when the pop emptied the queue).
        q.insert(1, 30);
        assert_eq!(drain(&mut q, 500), vec![(1, 30)]);
    }

    #[test]
    fn remove_deletes_exactly_the_keyed_entry() {
        let mut q = CalendarQueue::new(64, 8);
        q.insert(0, 100);
        q.insert(1, 100);
        q.insert(2, 130);
        assert!(q.remove(1, 100));
        assert!(!q.remove(1, 100), "double remove must report false");
        assert!(!q.remove(0, 130), "time must match the insertion");
        assert_eq!(drain(&mut q, 1_000), vec![(0, 100), (2, 130)]);
    }

    #[test]
    fn occupancy_reports_entries_buckets_and_max() {
        let mut q = CalendarQueue::new(64, 8);
        assert_eq!(q.occupancy(), (0, 0, 0));
        q.insert(0, 10);
        q.insert(1, 20); // same bucket as key 0
        q.insert(2, 100); // its own bucket
        assert_eq!(q.occupancy(), (3, 2, 2));
        q.remove(1, 20);
        assert_eq!(q.occupancy(), (2, 2, 1));
    }

    #[test]
    fn single_bucket_ring_orders_across_passes() {
        // n_buckets == 1 is the degenerate ring: every entry hashes to
        // bucket 0 and only the pass check (time / width == cursor)
        // separates spans. Entries one and many passes apart must still
        // pop in time order, and ties within the lone bucket by rank.
        let mut q = CalendarQueue::new(10, 1);
        q.insert(0, 5);
        q.insert(1, 1_005);
        q.insert(2, 105);
        q.insert(3, 5); // ties with key 0 in the same pass
        assert_eq!(
            drain(&mut q, 2_000),
            vec![(0, 5), (3, 5), (2, 105), (1, 1_005)]
        );
        assert!(q.is_empty());
        // Reinsert behind the advanced cursor; still found.
        q.insert(4, 7);
        assert_eq!(drain(&mut q, 2_000), vec![(4, 7)]);
    }

    #[test]
    fn cursor_survives_entries_at_the_u64_boundary() {
        // width == 1 puts the cursor at the entry time itself; entries
        // next to u64::MAX drive cursor·width to the numeric edge. The
        // saturating frontier check must pop the due entry, hold the
        // at-frontier entry, and terminate rather than wrap.
        let mut q = CalendarQueue::new(1, 4);
        q.insert(0, u64::MAX - 1);
        q.insert(1, u64::MAX);
        assert_eq!(q.pop_due(u64::MAX, |k| k), Some((0, u64::MAX - 1)));
        // Key 1 sits exactly at the (exclusive) frontier: never due.
        assert_eq!(q.pop_due(u64::MAX, |k| k), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.iter().collect::<Vec<_>>(), vec![(1, u64::MAX)]);
    }

    #[test]
    fn huge_width_saturates_instead_of_overflowing() {
        // width == u64::MAX makes cursor·width overflow after a single
        // increment; saturating_mul must clamp it to u64::MAX, which
        // terminates every pop (even at the maximal frontier) once
        // bucket 0 is drained.
        let mut q = CalendarQueue::new(u64::MAX, 4);
        q.insert(0, 123);
        q.insert(1, u64::MAX - 1);
        assert_eq!(drain(&mut q, u64::MAX), vec![(0, 123), (1, u64::MAX - 1)]);
        assert_eq!(q.pop_due(u64::MAX, |k| k), None);
    }

    #[test]
    fn maximal_frontier_terminates_on_empty_and_sparse_rings() {
        // frontier == u64::MAX with an empty queue, then with one entry
        // far from the cursor: the scan must stop at the entry (or the
        // is_empty fast path), not walk the ring to the numeric horizon.
        let mut q = CalendarQueue::new(4_096, 256);
        assert_eq!(q.pop_due(u64::MAX, |k| k), None);
        q.insert(0, 1 << 40);
        assert_eq!(q.pop_due(u64::MAX, |k| k), Some((0, 1 << 40)));
        assert_eq!(q.pop_due(u64::MAX, |k| k), None);
    }

    #[test]
    fn within_span_entries_never_alias() {
        // Every period fits one ring span, so no entry ever aliases:
        // each round pops the four keys in slot-time order.
        let mut q = CalendarQueue::new(64, 8); // span = 512
        let mut t = 0u64;
        for round in 0..50u64 {
            for key in 0..4usize {
                q.insert(key, t + key as u64 * 7);
            }
            let want: Vec<_> = (0..4usize).map(|k| (k, t + k as u64 * 7)).collect();
            assert_eq!(drain(&mut q, t + 512), want, "round {round}");
            t += 300; // cursor advances, reinsertions stay within a span
        }
    }

    #[test]
    fn entries_whole_spans_ahead_pop_on_their_own_pass() {
        // Span is 8 × 64 = 512; entries whole spans ahead alias onto the
        // ring and must pop exactly when the cursor reaches their own
        // pass — in time order, ties by rank.
        let mut q = CalendarQueue::new(64, 8);
        q.insert(0, 20);
        q.insert(1, 20 + 512); // one span ahead
        q.insert(2, 40 + 3 * 512); // three spans ahead
        q.insert(3, 30 + 512); // same far span as key 1
        assert_eq!(q.len(), 4);
        assert_eq!(drain(&mut q, 512), vec![(0, 20)]);
        assert_eq!(drain(&mut q, 2 * 512), vec![(1, 532), (3, 542)]);
        assert_eq!(drain(&mut q, 4 * 512), vec![(2, 40 + 3 * 512)]);
        assert!(q.is_empty());
    }

    #[test]
    fn pass_check_holds_back_entries_sharing_a_ring_slot() {
        // Span 1 and span 9 share a ring slot with span 0's entries; the
        // pass check must hold each back until its own pass.
        let mut q = CalendarQueue::new(64, 8);
        q.insert(0, 100);
        q.insert(1, 100 + 512); // span 1
        q.insert(2, 100 + 512 + 8 * 512); // span 9
        assert_eq!(drain(&mut q, 2 * 512), vec![(0, 100), (1, 612)]);
        assert_eq!(drain(&mut q, 16 * 512), vec![(2, 100 + 9 * 512)]);
        assert!(q.is_empty());
    }

    #[test]
    fn remove_reaches_entries_whole_spans_ahead() {
        // An entry whole spans ahead of the cursor is removable by key
        // and time.
        let mut q = CalendarQueue::new(64, 8);
        q.insert(0, 100);
        q.insert(1, 100 + 2 * 512);
        assert!(q.remove(1, 100 + 2 * 512));
        assert!(!q.remove(1, 100 + 2 * 512), "double remove reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(drain(&mut q, 4 * 512), vec![(0, 100)]);
    }

    #[test]
    fn empty_queue_fast_forwards_the_cursor_to_a_far_insert() {
        // After the queue empties, an insert far ahead moves the cursor
        // straight to it rather than walking every intervening span.
        let mut q = CalendarQueue::new(64, 8);
        q.insert(0, 100);
        assert_eq!(drain(&mut q, 512), vec![(0, 100)]);
        q.insert(1, 1 << 40); // ~2^31 spans ahead of the old cursor
        assert_eq!(q.pop_due(u64::MAX, |k| k), Some((1, 1 << 40)));
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_insert_pop_matches_naive_merge_across_spans() {
        // Randomized mini-model with reinsertion jumps of up to several
        // ring spans, so entries continually alias onto later passes.
        let mut rng = otc_crypto::SplitMix64::new(0x2CA1E);
        for _ in 0..100 {
            let width = 1 + rng.next_below(64);
            let n_buckets = 1 + rng.next_below(12) as usize;
            let span = width * n_buckets as u64;
            let mut q = CalendarQueue::new(width, n_buckets);
            let mut model: Vec<(usize, Cycle)> = Vec::new();
            let mut frontier = 0u64;
            for key in 0..6usize {
                let t = rng.next_below(6 * span);
                q.insert(key, t);
                model.push((key, t));
            }
            for _ in 0..40 {
                frontier += rng.next_below(2 * span + 1);
                loop {
                    let got = q.pop_due(frontier, |k| k);
                    let want = model
                        .iter()
                        .filter(|&&(_, t)| t < frontier)
                        .min_by_key(|&&(k, t)| (t, k))
                        .copied();
                    assert_eq!(got, want, "width {width} buckets {n_buckets}");
                    match got {
                        Some((k, t)) => {
                            model.retain(|&e| e != (k, t));
                            let nt = t + 1 + rng.next_below(4 * span);
                            q.insert(k, nt);
                            model.push((k, nt));
                        }
                        None => break,
                    }
                }
            }
            assert_eq!(q.len(), model.len());
        }
    }

    #[test]
    fn interleaved_insert_pop_matches_naive_merge() {
        // Randomized mini-model: a naive sorted vec against the calendar
        // queue under interleaved inserts/pops with a moving frontier.
        let mut rng = otc_crypto::SplitMix64::new(0xCA1E);
        for _ in 0..200 {
            let width = 1 + rng.next_below(200);
            let n_buckets = 1 + rng.next_below(32) as usize;
            let mut q = CalendarQueue::new(width, n_buckets);
            let mut model: Vec<(usize, Cycle)> = Vec::new();
            let mut frontier = 0u64;
            for key in 0..8usize {
                let t = rng.next_below(4_000);
                q.insert(key, t);
                model.push((key, t));
            }
            for _ in 0..40 {
                frontier += rng.next_below(800);
                loop {
                    let got = q.pop_due(frontier, |k| k);
                    // Model: earliest time, then smallest key.
                    let want = model
                        .iter()
                        .filter(|&&(_, t)| t < frontier)
                        .min_by_key(|&&(k, t)| (t, k))
                        .copied();
                    assert_eq!(got, want, "width {width} buckets {n_buckets}");
                    match got {
                        Some((k, t)) => {
                            model.retain(|&e| e != (k, t));
                            // Reinsert like the scheduler: one period on.
                            let nt = t + 1 + rng.next_below(1_500);
                            q.insert(k, nt);
                            model.push((k, nt));
                        }
                        None => break,
                    }
                }
            }
            assert_eq!(q.len(), model.len());
        }
    }
}
