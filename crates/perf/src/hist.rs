//! Fixed-width service-time histogram with an exact nearest-rank
//! percentile helper.
//!
//! The shard pool keeps one of these per shard and merges them into the
//! fleet-wide distribution behind `p50`/`p99` reporting. Buckets have a
//! fixed `width` in cycles; the last bucket absorbs the overflow tail, so
//! reported percentiles are conservative (never under-reporting).

/// A fixed-bucket-width counting histogram over `u64` values (cycles).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    width: u64,
    counts: Vec<u64>,
    /// Σ `counts`, kept so a percentile's rank needs no bucket walk.
    total: u64,
}

impl Histogram {
    /// An empty histogram of `buckets` buckets, each `width` wide.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `buckets` is zero.
    pub fn new(width: u64, buckets: usize) -> Self {
        assert!(width > 0, "histogram bucket width must be positive");
        assert!(buckets > 0, "histogram needs at least one bucket");
        Self {
            width,
            counts: vec![0; buckets],
            total: 0,
        }
    }

    /// Rebuilds a histogram from its stored parts (codec decode path).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or `counts` is empty.
    pub fn from_parts(width: u64, counts: Vec<u64>) -> Self {
        assert!(width > 0, "histogram bucket width must be positive");
        assert!(!counts.is_empty(), "histogram needs at least one bucket");
        // Saturating: decoded (untrusted) counts must not wrap the
        // total and corrupt every percentile rank computed from it.
        let total = counts.iter().fold(0u64, |a, &b| a.saturating_add(b));
        Self {
            width,
            counts,
            total,
        }
    }

    /// Records one value; values past the last bucket land in it.
    pub fn record(&mut self, value: u64) {
        let bucket = ((value / self.width) as usize).min(self.counts.len() - 1);
        self.counts[bucket] += 1;
        self.total += 1;
    }

    /// Adds every count of `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the histograms disagree on width or bucket count —
    /// merging across shapes would silently misplace counts.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.width, other.width, "histogram widths must match");
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "histogram bucket counts must match"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Nearest-rank percentile (`1 ..= 100`), reported as the **upper
    /// edge** of the bucket holding the rank-`⌈p/100·total⌉` value — a
    /// conservative figure at bucket-width resolution. Returns 0 when
    /// empty.
    ///
    /// For `p = 99` the rank is computed as `total − total/100`, the
    /// exact expression the pre-existing pool-global p99 used, so the
    /// merged per-shard histograms reproduce it bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `1 ..= 100`.
    pub fn percentile(&self, p: u32) -> u64 {
        assert!((1..=100).contains(&p), "percentile must be in 1..=100");
        if self.total == 0 {
            return 0;
        }
        // ⌈p/100 · total⌉ == total − ⌊(100−p)/100 · total⌋, kept in
        // integer arithmetic so no rank is ever off by a ULP.
        let rank = self.total
            - self.total / 100 * u64::from(100 - p)
            - self.total % 100 * u64::from(100 - p) / 100;
        // ⌈p/100·total⌉ with 1 ≤ p ≤ 100 and total ≥ 1 always lands in
        // 1..=total, so the scan below cannot fall through to the
        // overflow edge for an in-range rank.
        debug_assert!(
            (1..=self.total).contains(&rank),
            "rank {rank} out of bounds for total {}",
            self.total
        );
        // Saturating: a decoded histogram's counts and width can be
        // anywhere in u64.
        let mut seen = 0u64;
        for (b, &count) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(count);
            if seen >= rank {
                return (b as u64 + 1).saturating_mul(self.width);
            }
        }
        (self.counts.len() as u64).saturating_mul(self.width)
    }

    /// Bucket width in cycles.
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Per-bucket counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total recorded values.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference nearest-rank percentile over raw samples.
    fn naive_percentile(samples: &mut [u64], p: u64) -> u64 {
        samples.sort_unstable();
        let n = samples.len() as u64;
        let rank = (p * n).div_ceil(100).max(1);
        samples[(rank - 1) as usize]
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::new(10, 8);
        assert!(h.is_empty());
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.percentile(99), 0);
    }

    #[test]
    fn unit_width_matches_naive_nearest_rank_exactly() {
        // width == 1 puts every value in its own bucket, so the bucket
        // upper edge (b+1)·1 equals value+1: the histogram percentile is
        // the naive nearest-rank answer rounded up to the bucket edge.
        let mut samples: Vec<u64> = (0..500).map(|i| (i * 7919) % 400).collect();
        let mut h = Histogram::new(1, 512);
        for &s in &samples {
            h.record(s);
        }
        for p in [1, 10, 25, 50, 75, 90, 95, 99, 100] {
            let exact = naive_percentile(&mut samples, p);
            assert_eq!(
                h.percentile(p as u32),
                exact + 1,
                "p{p}: histogram must sit on the bucket upper edge of the exact rank"
            );
        }
    }

    #[test]
    fn p99_reproduces_the_pool_global_formula() {
        // The pre-existing pool-global p99 used: rank = total − total/100,
        // then the upper edge of the first bucket with cumulative ≥ rank.
        // percentile(99) must agree for totals on both sides of %100.
        for total in [1u64, 50, 99, 100, 101, 997, 10_000] {
            let mut h = Histogram::new(8, 64);
            for i in 0..total {
                h.record(i % 512);
            }
            let rank = h.total() - h.total() / 100;
            let mut seen = 0;
            let mut expect = 64 * 8;
            for (b, &c) in h.counts().iter().enumerate() {
                seen += c;
                if seen >= rank {
                    expect = (b as u64 + 1) * 8;
                    break;
                }
            }
            assert_eq!(h.percentile(99), expect, "total={total}");
        }
    }

    #[test]
    fn boundary_totals_match_naive_nearest_rank() {
        // The edge-case audit from the parallel-host PR: totals straddling
        // the %100 boundary (0, 1, 99, 100, 101) across the percentile
        // extremes, pinned against the raw-sample nearest-rank reference.
        // total == 0 is the empty histogram: every percentile reports 0.
        let empty = Histogram::new(1, 256);
        for p in [1u64, 50, 99, 100] {
            assert_eq!(empty.percentile(p as u32), 0, "empty, p{p}");
        }
        for total in [1u64, 99, 100, 101] {
            let mut samples: Vec<u64> = (0..total).map(|i| (i * 13) % 200).collect();
            let mut h = Histogram::new(1, 256);
            for &s in &samples {
                h.record(s);
            }
            for p in [1u64, 50, 99, 100] {
                // width == 1: bucket upper edge == exact value + 1.
                assert_eq!(
                    h.percentile(p as u32),
                    naive_percentile(&mut samples, p) + 1,
                    "total={total}, p{p}"
                );
            }
        }
    }

    #[test]
    fn single_sample_is_every_percentile() {
        // total == 1: rank must collapse to 1 for every p, not 0 — a
        // rank-0 bug would return the first bucket regardless of where
        // the one sample lives.
        let mut h = Histogram::new(10, 16);
        h.record(57);
        for p in [1, 50, 99, 100] {
            assert_eq!(h.percentile(p), 60, "p{p} of a single sample at 57");
        }
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let mut h = Histogram::new(16, 128);
        for i in 0..1000u64 {
            h.record(i * 3 % 2048);
        }
        let mut last = 0;
        for p in 1..=100 {
            let v = h.percentile(p);
            assert!(v >= last, "p{p} went backwards");
            assert!(v <= 128 * 16);
            last = v;
        }
    }

    #[test]
    fn overflow_tail_lands_in_last_bucket() {
        let mut h = Histogram::new(10, 4);
        h.record(1_000_000);
        assert_eq!(h.counts()[3], 1);
        assert_eq!(h.percentile(99), 40);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let values_a = [3u64, 17, 42, 99, 512];
        let values_b = [7u64, 7, 7, 300];
        let mut a = Histogram::new(8, 64);
        let mut b = Histogram::new(8, 64);
        let mut one = Histogram::new(8, 64);
        for &v in &values_a {
            a.record(v);
            one.record(v);
        }
        for &v in &values_b {
            b.record(v);
            one.record(v);
        }
        a.merge(&b);
        assert_eq!(a, one);
        assert_eq!(a.total(), 9);
    }

    #[test]
    fn from_parts_round_trips() {
        let mut h = Histogram::new(4, 16);
        for v in [1u64, 5, 9, 63, 200] {
            h.record(v);
        }
        let rebuilt = Histogram::from_parts(h.width(), h.counts().to_vec());
        assert_eq!(rebuilt, h);
    }

    #[test]
    #[should_panic(expected = "widths must match")]
    fn merge_rejects_mismatched_width() {
        let mut a = Histogram::new(8, 64);
        a.merge(&Histogram::new(16, 64));
    }
}
