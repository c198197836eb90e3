//! A set-associative, write-back cache with LRU replacement.
//!
//! Used for the L1 I, L1 D and unified L2 of Table 1. The model is
//! timing-level: tags, valid/dirty bits and LRU state are tracked, data
//! values are not (functional data lives in the ORAM backend).

use crate::config::CacheConfig;
use std::ops::Range;

/// Result of a cache lookup-with-fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// A dirty victim line's address, if the fill evicted one.
    pub writeback: Option<u64>,
    /// A clean or dirty victim's address (for inclusive back-invalidation
    /// bookkeeping at the level above).
    pub evicted: Option<u64>,
}

/// One cache level.
///
/// The ways live set-major in three flat arrays — way `w` of set `s` is
/// index `s * ways + w` of each — so a cache is three zeroed allocations
/// whatever its size. The set count is a power of two: a line's set is
/// its low bits, its tag the rest. So is the line size: a byte address's
/// line is a shift away. A cache counts no hits or misses: each
/// [`Cache::access`] says whether it hit, and the simulator's counts
/// live in [`crate::SimStats`].
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `log2(line_bytes)`: a byte address's line is `addr >> line_shift`.
    line_shift: u32,
    /// `sets - 1`: a line's set is `line_addr & set_mask`.
    set_mask: u64,
    /// `log2(sets)`: a line's tag is `line_addr >> set_bits`.
    set_bits: u32,
    tags: Vec<u64>,
    /// The tick of each way's last access; 0 marks an invalid way. Valid
    /// stamps are distinct and nonzero.
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    tick: u64,
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero sets or ways, or a set
    /// count or line size that is not a power of two.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.line_bytes.is_power_of_two(),
            "cache line size {} is not a power of two",
            config.line_bytes
        );
        let sets = config.sets();
        assert!(sets > 0 && config.ways > 0, "degenerate cache geometry");
        assert!(
            sets.is_power_of_two(),
            "cache set count {sets} is not a power of two"
        );
        let n = sets * config.ways;
        Self {
            config,
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets as u64 - 1,
            set_bits: sets.trailing_zeros(),
            tags: vec![0; n],
            stamps: vec![0; n],
            dirty: vec![false; n],
            tick: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The line holding byte address `addr` (`addr / line_bytes`): the
    /// line address [`Cache::access`] takes.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    /// The indices of `line_addr`'s set's ways, and its tag.
    fn locate(&self, line_addr: u64) -> (Range<usize>, u64) {
        let base = (line_addr & self.set_mask) as usize * self.config.ways;
        (base..base + self.config.ways, line_addr >> self.set_bits)
    }

    /// The index of the valid way of `set` that holds `tag`.
    fn find(&self, set: Range<usize>, tag: u64) -> Option<usize> {
        let base = set.start;
        self.tags[set.clone()]
            .iter()
            .zip(&self.stamps[set])
            .position(|(&t, &s)| t == tag && s != 0)
            .map(|w| base + w)
    }

    /// Looks up `line_addr` (a *line* address, i.e. byte address / line
    /// size). On a miss, fills the line, evicting the LRU way. Marks the
    /// line dirty when `write` is set.
    #[inline]
    pub fn access(&mut self, line_addr: u64, write: bool) -> AccessOutcome {
        self.tick += 1;
        let (set, tag) = self.locate(line_addr);

        if let Some(i) = self.find(set.clone(), tag) {
            self.stamps[i] = self.tick;
            self.dirty[i] |= write;
            return AccessOutcome {
                hit: true,
                writeback: None,
                evicted: None,
            };
        }

        // Victim: the first invalid way if any, else the LRU one. Invalid
        // ways have stamp 0 and valid stamps are distinct, so that is the
        // first way with the smallest stamp.
        let victim = set.min_by_key(|&i| self.stamps[i]).expect("non-empty set");
        let (writeback, evicted) = if self.stamps[victim] != 0 {
            let victim_addr = (self.tags[victim] << self.set_bits) | (line_addr & self.set_mask);
            (self.dirty[victim].then_some(victim_addr), Some(victim_addr))
        } else {
            (None, None)
        };
        self.tags[victim] = tag;
        self.stamps[victim] = self.tick;
        self.dirty[victim] = write;
        AccessOutcome {
            hit: false,
            writeback,
            evicted,
        }
    }

    /// Probes for presence without updating LRU or filling.
    pub fn probe(&self, line_addr: u64) -> bool {
        let (set, tag) = self.locate(line_addr);
        self.find(set, tag).is_some()
    }

    /// Invalidates `line_addr` if present; returns whether the dropped
    /// line was dirty (inclusive-hierarchy back-invalidation).
    pub fn invalidate(&mut self, line_addr: u64) -> Option<bool> {
        let (set, tag) = self.locate(line_addr);
        let i = self.find(set, tag)?;
        self.stamps[i] = 0;
        Some(self.dirty[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The cache as it was first written — a `Vec` of ways per set, sets
    /// found by `%` and `/` — kept as the oracle the flat layout must
    /// match outcome for outcome.
    mod reference {
        use super::{AccessOutcome, CacheConfig};

        #[derive(Debug, Clone, Copy, Default)]
        struct Way {
            tag: u64,
            valid: bool,
            dirty: bool,
            lru: u64,
        }

        pub struct RefCache {
            sets: Vec<Vec<Way>>,
            tick: u64,
        }

        impl RefCache {
            pub fn new(config: CacheConfig) -> Self {
                Self {
                    sets: vec![vec![Way::default(); config.ways]; config.sets()],
                    tick: 0,
                }
            }

            fn index_tag(&self, line_addr: u64) -> (usize, u64) {
                let sets = self.sets.len() as u64;
                ((line_addr % sets) as usize, line_addr / sets)
            }

            pub fn access(&mut self, line_addr: u64, write: bool) -> AccessOutcome {
                self.tick += 1;
                let (set_idx, tag) = self.index_tag(line_addr);
                let sets = self.sets.len() as u64;
                let set = &mut self.sets[set_idx];

                if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == tag) {
                    way.lru = self.tick;
                    way.dirty |= write;
                    return AccessOutcome {
                        hit: true,
                        writeback: None,
                        evicted: None,
                    };
                }

                let victim_idx = set.iter().position(|w| !w.valid).unwrap_or_else(|| {
                    set.iter()
                        .enumerate()
                        .min_by_key(|(_, w)| w.lru)
                        .map(|(i, _)| i)
                        .expect("non-empty set")
                });
                let victim = set[victim_idx];
                let (writeback, evicted) = if victim.valid {
                    let victim_addr = victim.tag * sets + set_idx as u64;
                    (victim.dirty.then_some(victim_addr), Some(victim_addr))
                } else {
                    (None, None)
                };
                set[victim_idx] = Way {
                    tag,
                    valid: true,
                    dirty: write,
                    lru: self.tick,
                };
                AccessOutcome {
                    hit: false,
                    writeback,
                    evicted,
                }
            }

            pub fn probe(&self, line_addr: u64) -> bool {
                let (set_idx, tag) = self.index_tag(line_addr);
                self.sets[set_idx].iter().any(|w| w.valid && w.tag == tag)
            }

            pub fn invalidate(&mut self, line_addr: u64) -> Option<bool> {
                let (set_idx, tag) = self.index_tag(line_addr);
                for way in &mut self.sets[set_idx] {
                    if way.valid && way.tag == tag {
                        way.valid = false;
                        return Some(way.dirty);
                    }
                }
                None
            }
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Read(u64),
        Write(u64),
        Probe(u64),
        Invalidate(u64),
    }

    /// A geometry (ways, log2 sets) and an op sequence over it. Most
    /// lines are `tag * sets + set` with up to `ways + 2` tags in four
    /// sets (the first, second, middle and last), so sets fill, evict
    /// and re-hit; the rest are huge addresses, two of them in one set.
    fn geometry_and_ops() -> impl Strategy<Value = (usize, u32, Vec<Op>)> {
        (1usize..=16, 0u32..=8).prop_flat_map(|(ways, log2_sets)| {
            let sets = 1u64 << log2_sets;
            let crowded = (
                0..ways as u64 + 2,
                sample::select(vec![0, 1 % sets, sets / 2, sets - 1]),
            )
                .prop_map(move |(tag, set)| tag * sets + set);
            let huge = sample::select(vec![u64::MAX, u64::MAX - sets, 1 << 63, (1 << 63) | 1]);
            let line = prop_oneof![7 => crowded, 1 => huge];
            let op = (0u8..8, line).prop_map(|(kind, l)| match kind {
                0..=2 => Op::Read(l),
                3..=5 => Op::Write(l),
                6 => Op::Probe(l),
                _ => Op::Invalidate(l),
            });
            (
                Just(ways),
                Just(log2_sets),
                proptest::collection::vec(op, 1..400),
            )
        })
    }

    fn tiny(ways: usize, sets_times_ways_lines: u64) -> Cache {
        // line 64 B; capacity chosen to produce the requested geometry.
        Cache::new(CacheConfig {
            capacity_bytes: sets_times_ways_lines * 64,
            ways,
            line_bytes: 64,
            hit_latency: 1,
            miss_extra: 0,
        })
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = tiny(2, 8);
        assert!(!c.access(5, false).hit);
        assert!(c.access(5, false).hit);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny(2, 2); // 1 set, 2 ways
        assert_eq!(c.config().sets(), 1);
        c.access(0, false);
        c.access(1, false);
        c.access(0, false); // touch 0: now 1 is LRU
        let out = c.access(2, false); // evicts 1
        assert_eq!(out.evicted, Some(1));
        assert!(c.probe(0));
        assert!(!c.probe(1));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny(1, 1); // direct-mapped single line
        c.access(3, true);
        let out = c.access(4, false);
        assert_eq!(out.writeback, Some(3));
        assert_eq!(out.evicted, Some(3));
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = tiny(1, 1);
        c.access(3, false);
        let out = c.access(4, false);
        assert_eq!(out.writeback, None);
        assert_eq!(out.evicted, Some(3));
    }

    #[test]
    fn write_hit_sets_dirty() {
        let mut c = tiny(1, 1);
        c.access(3, false);
        c.access(3, true); // hit, marks dirty
        let out = c.access(4, false);
        assert_eq!(out.writeback, Some(3));
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny(2, 4);
        c.access(1, true);
        c.access(2, false);
        assert_eq!(c.invalidate(1), Some(true));
        assert_eq!(c.invalidate(2), Some(false));
        assert_eq!(c.invalidate(9), None);
        assert!(!c.probe(1));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny(1, 4); // 4 sets, direct-mapped
        for a in 0..4 {
            c.access(a, false);
        }
        for a in 0..4 {
            assert!(c.probe(a), "line {a} evicted by non-conflicting line");
        }
    }

    proptest! {
        /// A cache with S sets and W ways never holds more than W lines
        /// that map to the same set, and a re-access within the last W
        /// distinct same-set lines always hits (LRU property).
        #[test]
        fn prop_lru_within_ways(ways in 1usize..5, addrs in proptest::collection::vec(0u64..64, 1..200)) {
            let mut c = tiny(ways, ways as u64); // single set
            let mut recent: Vec<u64> = Vec::new(); // most recent last, distinct
            for &a in &addrs {
                let hit = c.access(a, false).hit;
                let expect_hit = recent.iter().rev().take(ways).any(|&r| r == a);
                prop_assert_eq!(hit, expect_hit, "addr {} recent {:?}", a, recent);
                recent.retain(|&r| r != a);
                recent.push(a);
            }
        }

        /// Over random power-of-two geometries, every outcome, probe and
        /// invalidate result matches the reference.
        #[test]
        fn prop_matches_the_nested_vec_reference(
            (ways, log2_sets, ops) in geometry_and_ops()
        ) {
            let config = CacheConfig {
                capacity_bytes: (ways as u64) << log2_sets << 6,
                ways,
                line_bytes: 64,
                hit_latency: 1,
                miss_extra: 0,
            };
            let mut flat = Cache::new(config);
            let mut oracle = reference::RefCache::new(config);
            for (step, &op) in ops.iter().enumerate() {
                match op {
                    Op::Read(l) | Op::Write(l) => {
                        let write = matches!(op, Op::Write(_));
                        let (got, want) = (flat.access(l, write), oracle.access(l, write));
                        prop_assert_eq!(got, want, "step {} {:?}", step, op);
                    }
                    Op::Probe(l) => {
                        prop_assert_eq!(flat.probe(l), oracle.probe(l), "step {} {:?}", step, op);
                    }
                    Op::Invalidate(l) => {
                        let (got, want) = (flat.invalidate(l), oracle.invalidate(l));
                        prop_assert_eq!(got, want, "step {} {:?}", step, op);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn non_power_of_two_set_count_panics() {
        tiny(1, 3);
    }

    #[test]
    #[should_panic(expected = "line size 48 is not a power of two")]
    fn non_power_of_two_line_size_panics() {
        Cache::new(CacheConfig {
            capacity_bytes: 48 * 4,
            ways: 1,
            line_bytes: 48,
            hit_latency: 1,
            miss_extra: 0,
        });
    }

    #[test]
    fn line_of_divides_by_the_line_size() {
        let c = tiny(2, 8);
        for addr in [0u64, 63, 64, 0x1000, 0x1234_5678, u64::MAX] {
            assert_eq!(c.line_of(addr), addr / 64);
        }
    }
}
