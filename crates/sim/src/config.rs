//! Simulator configuration — Table 1 of the paper.

/// Per-class instruction latencies (Table 1, "Pipeline stages per …").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Integer arithmetic (1 stage).
    pub int_alu: u64,
    /// Integer multiply (4 stages).
    pub int_mul: u64,
    /// Integer divide (12 stages).
    pub int_div: u64,
    /// FP arithmetic (2 stages).
    pub fp_alu: u64,
    /// FP multiply (4 stages).
    pub fp_mul: u64,
    /// FP divide (10 stages).
    pub fp_div: u64,
    /// Extra cycles charged for a taken branch (pipeline redirect). The
    /// paper's SESC core model does not document this; 2 cycles is a
    /// conventional in-order redirect cost and applies uniformly to all
    /// schemes, so overhead *ratios* are insensitive to it.
    pub taken_branch_penalty: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            int_alu: 1,
            int_mul: 4,
            int_div: 12,
            fp_alu: 2,
            fp_mul: 4,
            fp_div: 10,
            taken_branch_penalty: 2,
        }
    }
}

/// One cache's parameters.
///
/// The set count, `capacity_bytes / (ways * line_bytes)`, must be a power
/// of two: [`crate::Cache::new`] panics otherwise. Table 1's caches have
/// 128 (L1) and 1,024 (L2) sets, and the paper's 512 KB–4 MB LLC sweeps
/// keep 16 ways, so all of them qualify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (64 throughout the paper).
    pub line_bytes: u64,
    /// Cycles for a hit.
    pub hit_latency: u64,
    /// Extra cycles added on a miss before the next level is consulted.
    pub miss_extra: u64,
}

impl CacheConfig {
    /// Number of sets (a power of two in any cache that can be built).
    pub fn sets(&self) -> usize {
        (self.capacity_bytes / (self.ways as u64 * self.line_bytes)) as usize
    }
}

/// The full memory-hierarchy + core configuration (defaults = Table 1).
///
/// Each cache's set count must be a power of two (see [`CacheConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Core latencies.
    pub core: CoreConfig,
    /// L1 instruction cache: 32 KB, 4-way, hit 1, miss +0.
    pub l1i: CacheConfig,
    /// L1 data cache: 32 KB, 4-way, hit 2, miss +1.
    pub l1d: CacheConfig,
    /// Unified, inclusive L2 (the LLC): 1 MB, 16-way, hit 10, miss +4.
    pub l2: CacheConfig,
    /// Non-blocking write buffer entries (8).
    pub write_buffer_entries: usize,
    /// If set, record a [`crate::WindowSample`] every this many retired
    /// instructions (used by Fig. 2 and Fig. 7).
    pub window_instructions: Option<u64>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            core: CoreConfig::default(),
            l1i: CacheConfig {
                capacity_bytes: 32 << 10,
                ways: 4,
                line_bytes: 64,
                hit_latency: 1,
                miss_extra: 0,
            },
            l1d: CacheConfig {
                capacity_bytes: 32 << 10,
                ways: 4,
                line_bytes: 64,
                hit_latency: 2,
                miss_extra: 1,
            },
            l2: CacheConfig {
                capacity_bytes: 1 << 20,
                ways: 16,
                line_bytes: 64,
                hit_latency: 10,
                miss_extra: 4,
            },
            write_buffer_entries: 8,
            window_instructions: None,
        }
    }
}

impl SimConfig {
    /// The paper's configuration with a different LLC capacity (the paper
    /// also ran 512 KB–4 MB sweeps, §9.1.2). The LLC's set count,
    /// `bytes / (ways * line_bytes)`, must be a power of two.
    pub fn with_llc_capacity(mut self, bytes: u64) -> Self {
        self.l2.capacity_bytes = bytes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_defaults() {
        let c = SimConfig::default();
        assert_eq!(c.core.int_div, 12);
        assert_eq!(c.core.fp_div, 10);
        assert_eq!(c.l1i.sets(), 128); // 32 KB / (4 * 64)
        assert_eq!(c.l1d.sets(), 128);
        assert_eq!(c.l2.sets(), 1024); // 1 MB / (16 * 64)
        assert_eq!(c.write_buffer_entries, 8);
    }

    #[test]
    fn llc_capacity_override() {
        let c = SimConfig::default().with_llc_capacity(4 << 20);
        assert_eq!(c.l2.sets(), 4096);
    }
}
