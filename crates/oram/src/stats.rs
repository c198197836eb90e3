//! Aggregate ORAM statistics.

/// Counters reported by [`crate::RecursivePathOram::stats`].
///
/// These drive the power model (bytes moved × per-chunk AES/stash energy,
/// §9.1.4) and the paper's dummy-access fraction statistic (§10 footnote:
/// "an average of 34% of ORAM accesses made by our dynamic scheme are
/// dummy accesses").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OramStats {
    /// Real (program-initiated) accesses.
    pub real_accesses: u64,
    /// Dummy (rate-enforced filler) accesses.
    pub dummy_accesses: u64,
    /// Total bytes moved through the chip pins.
    pub bytes_moved: u64,
    /// Peak stash occupancy across all trees.
    pub stash_peak: usize,
    /// Data-tree evictions deferred into the background queue (pipelined
    /// controllers only; serial accesses evict inline and count 0).
    pub deferred_evictions: u64,
    /// Deferred evictions completed by a background drain. Pending =
    /// `deferred_evictions - eviction_drains`.
    pub eviction_drains: u64,
}

impl OramStats {
    /// Total accesses of either kind.
    pub fn total_accesses(&self) -> u64 {
        self.real_accesses + self.dummy_accesses
    }

    /// Deferred evictions still waiting for a background drain.
    pub fn pending_evictions(&self) -> u64 {
        self.deferred_evictions - self.eviction_drains
    }

    /// Fraction of accesses that were dummies (0.0 when idle).
    pub fn dummy_fraction(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            0.0
        } else {
            self.dummy_accesses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dummy_fraction_handles_zero() {
        assert_eq!(OramStats::default().dummy_fraction(), 0.0);
    }

    #[test]
    fn dummy_fraction_math() {
        let s = OramStats {
            real_accesses: 66,
            dummy_accesses: 34,
            ..Default::default()
        };
        assert!((s.dummy_fraction() - 0.34).abs() < 1e-12);
        assert_eq!(s.total_accesses(), 100);
    }
}
