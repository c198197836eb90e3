//! The memory-backend abstraction and the insecure DRAM backend.
//!
//! The core/cache model is agnostic to what sits below the LLC. The paper
//! evaluates five backends (§9.1.6): plain DRAM (`base_dram`), unprotected
//! ORAM (`base_oram`), three static-rate ORAMs, and the dynamic scheme.
//! `base_dram` lives here; every ORAM-based backend is provided by
//! `otc-core` (rate enforcement is the paper's contribution, so it sits in
//! the core crate).

use crate::stats::BackendEnergyProfile;
use otc_dram::{Cycle, FlatDram};

/// Read or write, as seen below the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Demand fill (LLC read miss).
    Read,
    /// Dirty eviction write-back.
    Write,
}

/// Something that can serve LLC miss/eviction traffic.
///
/// Implementations are *event-driven*: `request` is called with the
/// current time and returns the completion time; any internal queueing
/// (channel occupancy, ORAM serialization, rate slotting) is the
/// implementation's business. Calls arrive in non-decreasing `now` order.
pub trait MemoryBackend {
    /// Issues a cache-line request at time `now`; returns when the data
    /// is available (reads) or the write is accepted (writes).
    fn request(&mut self, line_addr: u64, kind: AccessKind, now: Cycle) -> Cycle;

    /// Total requests served so far (used for windowed rate reporting,
    /// Fig. 2).
    fn request_count(&self) -> u64;

    /// Informs the backend that simulation ended at `now` (lets
    /// epoch-based backends close out their final epoch's accounting).
    /// A backend that works in the background — the ORAM backends of
    /// `otc-core` run their ORAM on a companion thread — returns only
    /// once that work is done, so everything a run caused has happened
    /// by the end of [`crate::Simulator::run`].
    fn finish(&mut self, _now: Cycle) {}

    /// Access counts the power model needs (Table 2 energy coefficients).
    fn energy_profile(&self) -> BackendEnergyProfile;

    /// Backend label for reports (e.g. `base_dram`, `static_300`,
    /// `dynamic_R4_E4`).
    fn label(&self) -> String;
}

/// The insecure baseline: flat-latency DRAM (§9.1.2), no protection.
#[derive(Debug)]
pub struct DramBackend {
    dram: FlatDram,
    requests: u64,
}

impl DramBackend {
    /// Paper-default DRAM: 40-cycle latency, 64 B lines, 2 channels.
    pub fn new() -> Self {
        Self {
            dram: FlatDram::paper_default(),
            requests: 0,
        }
    }
}

impl Default for DramBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl MemoryBackend for DramBackend {
    fn request(&mut self, _line_addr: u64, _kind: AccessKind, now: Cycle) -> Cycle {
        self.requests += 1;
        self.dram.access(now)
    }

    fn request_count(&self) -> u64 {
        self.requests
    }

    fn energy_profile(&self) -> BackendEnergyProfile {
        BackendEnergyProfile {
            dram_ctrl_lines: self.requests,
            oram_accesses: 0,
            oram_dummy_accesses: 0,
        }
    }

    fn label(&self) -> String {
        "base_dram".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_backend_flat_latency() {
        let mut b = DramBackend::new();
        assert_eq!(b.request(0, AccessKind::Read, 100), 140);
        assert_eq!(b.request_count(), 1);
        assert_eq!(b.energy_profile().dram_ctrl_lines, 1);
        assert_eq!(b.label(), "base_dram");
    }

    #[test]
    fn writes_also_counted() {
        let mut b = DramBackend::new();
        b.request(0, AccessKind::Write, 0);
        b.request(1, AccessKind::Read, 0);
        assert_eq!(b.request_count(), 2);
    }
}
