//! DRAM timing models for the `oram-timing` secure-processor simulator.
//!
//! The paper (§9.1.2, Table 1) models two memory systems:
//!
//! * **Insecure baseline (`base_dram`)** — main memory with a flat
//!   40-cycle latency per cache line, DDR3-1333 over 2 channels,
//!   16 B of pin bandwidth per DRAM cycle.
//! * **Path ORAM backend** — the same DRAM, but each ORAM access streams
//!   an entire tree path (24.2 KB) through the pins, taking 1488 CPU
//!   cycles (= 1984 DRAM cycles at the 1.334 GHz SDR-equivalent clock).
//!
//! The authors used DRAMSim2. The figures need only two numbers from it,
//! the flat per-line latency and the per-access path transfer time, so we
//! substitute a calibrated analytical model: pin-bandwidth-bound
//! streaming plus per-row-activation and bus-turnaround overheads. With
//! the default parameters and the default ORAM geometry, the model
//! reproduces the paper's 1984-DRAM-cycle access exactly (asserted in
//! tests here and in the `tab1_timing` bench).
//!
//! # Example
//!
//! ```
//! use otc_dram::{DdrConfig, TransferSpec};
//!
//! let ddr = DdrConfig::default();
//! // One full Path ORAM access with the default geometry: 24,256 bytes,
//! // 86 row activations (one per bucket), 2 bus turnarounds.
//! let spec = TransferSpec { bytes: 24_256, row_activations: 86, direction_switches: 2 };
//! assert_eq!(ddr.busy_dram_cycles(&spec), 1984);
//! assert_eq!(ddr.busy_cpu_cycles(&spec), 1488);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ddr;
mod flat;

pub use ddr::{DdrConfig, TransferSpec};
pub use flat::FlatDram;

/// A point in simulated time, measured in CPU cycles at the 1 GHz clock of
/// Table 1.
///
/// The whole stack uses CPU cycles as the common currency; DRAM-cycle
/// quantities are converted at the boundary.
pub type Cycle = u64;

/// Processor clock (Table 1): 1 GHz.
pub const CPU_HZ: u64 = 1_000_000_000;

/// SDR-equivalent DRAM clock needed to rate-match DDR3-1333 ×2 channels
/// (§9.1.2): 2 × 667 MHz.
pub const DRAM_HZ: u64 = 1_334_000_000;

/// Converts DRAM cycles to CPU cycles, rounding up.
///
/// # Example
///
/// ```
/// // §9.1.4: 1984 DRAM cycles is 1488 processor cycles.
/// assert_eq!(otc_dram::dram_to_cpu_cycles(1984), 1488);
/// ```
pub fn dram_to_cpu_cycles(dram_cycles: u64) -> Cycle {
    (dram_cycles * CPU_HZ).div_ceil(DRAM_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cycle_conversion() {
        assert_eq!(dram_to_cpu_cycles(1984), 1488);
    }
}
