//! The non-blocking write buffer (Table 1: 8 entries).
//!
//! Stores retire into the buffer without stalling the core; entries drain
//! through the cache hierarchy in the background. Because several drains
//! can be outstanding at once, the buffer is what generates the
//! *concurrent* LLC misses the paper's `Waste` counter must account for
//! (Req 3 in Fig. 4 / §7.1.1).

use otc_dram::Cycle;

/// Occupancy tracker for the write buffer.
///
/// The buffer holds completion times: an entry is live until the cycle at
/// which its drain (possibly an ORAM access) finishes.
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    completions: Vec<Cycle>,
    /// The smallest live completion (`Cycle::MAX` when empty): the core
    /// retires on every load and store, and before this cycle nothing
    /// can retire.
    earliest: Cycle,
    capacity: usize,
    peak: usize,
}

impl WriteBuffer {
    /// Creates a buffer with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "write buffer needs at least one entry");
        Self {
            completions: Vec::with_capacity(capacity),
            earliest: Cycle::MAX,
            capacity,
            peak: 0,
        }
    }

    /// Drops entries whose drains completed by `now`.
    pub fn retire_completed(&mut self, now: Cycle) {
        if now < self.earliest {
            return;
        }
        self.completions.retain(|&c| c > now);
        self.earliest = self.completions.iter().copied().min().unwrap_or(Cycle::MAX);
    }

    /// The earliest cycle at which an entry frees up (call only when
    /// full). Used to compute how long the core must stall.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    pub fn earliest_completion(&self) -> Cycle {
        assert!(!self.is_empty(), "earliest_completion on empty buffer");
        self.earliest
    }

    /// Whether all entries are occupied at the current instant.
    pub fn is_full(&self) -> bool {
        self.completions.len() >= self.capacity
    }

    /// Records a new drain completing at `completion`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full — call [`WriteBuffer::retire_completed`]
    /// (and stall past [`WriteBuffer::earliest_completion`]) first.
    pub fn push(&mut self, completion: Cycle) {
        assert!(!self.is_full(), "push into full write buffer");
        self.completions.push(completion);
        self.earliest = self.earliest.min(completion);
        self.peak = self.peak.max(self.completions.len());
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.completions.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.completions.is_empty()
    }

    /// High-water mark.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fill_then_drain() {
        let mut wb = WriteBuffer::new(2);
        wb.push(10);
        wb.push(20);
        assert!(wb.is_full());
        wb.retire_completed(10);
        assert_eq!(wb.len(), 1);
        wb.retire_completed(25);
        assert!(wb.is_empty());
        assert_eq!(wb.peak(), 2);
    }

    #[test]
    fn earliest_completion_is_min() {
        let mut wb = WriteBuffer::new(3);
        wb.push(30);
        wb.push(10);
        wb.push(20);
        assert_eq!(wb.earliest_completion(), 10);
    }

    #[test]
    #[should_panic(expected = "push into full")]
    fn overfill_panics() {
        let mut wb = WriteBuffer::new(1);
        wb.push(5);
        wb.push(6);
    }

    #[test]
    fn retire_is_exclusive_of_now() {
        let mut wb = WriteBuffer::new(1);
        wb.push(10);
        wb.retire_completed(9);
        assert!(wb.is_full());
        wb.retire_completed(10); // completes *at* 10 → free at 10
        assert!(wb.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The buffer against a plain vector of completions: every
        /// observable agrees after any mix of pushes and retires.
        #[test]
        fn prop_matches_a_plain_vector(
            capacity in 1usize..10,
            ops in collection::vec((any::<bool>(), 0u64..200), 0..120),
        ) {
            let mut wb = WriteBuffer::new(capacity);
            let mut model: Vec<Cycle> = Vec::new();
            let mut peak = 0;
            for (push, at) in ops {
                if push && model.len() < capacity {
                    wb.push(at);
                    model.push(at);
                    peak = peak.max(model.len());
                } else {
                    wb.retire_completed(at);
                    model.retain(|&c| c > at);
                }
                prop_assert_eq!(wb.len(), model.len());
                prop_assert_eq!(wb.is_full(), model.len() >= capacity);
                prop_assert_eq!(wb.peak(), peak);
                if let Some(&min) = model.iter().min() {
                    prop_assert_eq!(wb.earliest_completion(), min);
                }
            }
        }
    }
}
