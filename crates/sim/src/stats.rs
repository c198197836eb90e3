//! Simulation statistics: everything the performance *and* power models
//! consume.

use otc_dram::Cycle;

/// Per-component access counts the Table 2 power model multiplies by
/// energy coefficients.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComponentCounts {
    /// Integer ALU operations.
    pub int_alu_ops: u64,
    /// Integer multiply operations.
    pub int_mul_ops: u64,
    /// Integer divide operations.
    pub int_div_ops: u64,
    /// FP operations (all classes; FPU energy coefficient is per-op).
    pub fp_ops: u64,
    /// Integer register-file accesses (paper charges per instruction).
    pub int_regfile_accesses: u64,
    /// FP register-file accesses.
    pub fp_regfile_accesses: u64,
    /// Fetch-buffer reads (one per 256-bit fetch group).
    pub fetch_buffer_reads: u64,
    /// L1 I hits (charged as full-line accesses in Table 2).
    pub l1i_hits: u64,
    /// L1 I refills.
    pub l1i_refills: u64,
    /// L1 D hits (charged per 64-bit access).
    pub l1d_hits: u64,
    /// L1 D refills (full line).
    pub l1d_refills: u64,
    /// L2 hits + refills (same coefficient in Table 2).
    pub l2_accesses: u64,
}

/// What the memory backend did, for energy accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendEnergyProfile {
    /// Cache lines moved by the plain DRAM controller (base_dram).
    pub dram_ctrl_lines: u64,
    /// Total ORAM accesses (real + dummy) — each costs the paper's
    /// 984 nJ (§9.1.4).
    pub oram_accesses: u64,
    /// The dummy subset (reported separately; §10 notes a 34% average
    /// dummy fraction for the dynamic scheme).
    pub oram_dummy_accesses: u64,
}

/// One periodic sample for time-series figures (Fig. 2, Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSample {
    /// Retired instructions at the sample point.
    pub instructions: u64,
    /// Cycle at the sample point.
    pub cycle: Cycle,
    /// Backend requests issued so far: the run's `llc_demand_misses +
    /// llc_writebacks` at the sample point, which is what the backend's
    /// `request_count()` reads under the blocking driver.
    pub backend_requests: u64,
}

/// Full result of one simulation.
///
/// `PartialEq`/`Eq` compare every field — the stepped-vs-blocking
/// equivalence suite relies on exact equality. Every field is a reported
/// result (the figures print them, `tests/sim_golden.rs` pins each one),
/// so figures that follow from them, like a window's backend requests,
/// are derived rather than counted twice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total cycles elapsed.
    pub cycles: Cycle,
    /// Instructions retired.
    pub instructions: u64,
    /// Loads retired.
    pub loads: u64,
    /// Stores retired.
    pub stores: u64,
    /// Branches retired.
    pub branches: u64,
    /// Taken branches.
    pub taken_branches: u64,
    /// Cycles the core spent stalled waiting on loads below L1 (includes
    /// backend time).
    pub load_stall_cycles: Cycle,
    /// Cycles the core spent stalled on a full write buffer.
    pub wb_stall_cycles: Cycle,
    /// LLC (L2) demand misses that went to the backend.
    pub llc_demand_misses: u64,
    /// Dirty LLC evictions written back to the backend.
    pub llc_writebacks: u64,
    /// Component access counts for the power model.
    pub components: ComponentCounts,
    /// Backend energy counts, captured at end of run.
    pub backend: BackendEnergyProfile,
    /// Periodic samples (empty unless `SimConfig::window_instructions`).
    pub windows: Vec<WindowSample>,
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Average instructions between two backend accesses (the Fig. 2
    /// y-axis), over the whole run.
    pub fn instructions_per_backend_access(&self) -> f64 {
        let reqs = self.llc_demand_misses + self.llc_writebacks;
        if reqs == 0 {
            self.instructions as f64
        } else {
            self.instructions as f64 / reqs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_zero_cycles() {
        assert_eq!(SimStats::default().ipc(), 0.0);
    }

    #[test]
    fn ipc_math() {
        let s = SimStats {
            cycles: 200,
            instructions: 50,
            ..Default::default()
        };
        assert!((s.ipc() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn instr_per_access_with_no_accesses() {
        let s = SimStats {
            instructions: 1000,
            ..Default::default()
        };
        assert_eq!(s.instructions_per_backend_access(), 1000.0);
    }
}
