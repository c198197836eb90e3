//! Adversaries as live tenants.
//!
//! The `otc-attacks` crate models what an adversary *does*; this module
//! gives one a seat on the host. An adversary tenant is admitted through
//! the same front door as everyone else — capacity check, leakage
//! authorization against the host's processor, a slot stream on its own
//! grid — and its entire view of the fleet is what any tenant can
//! measure for free: when its own slots started and how long its own
//! accesses sat queued behind busy shards ([`ObservedSlot`]). The
//! host's round loop appends those observations when it commits the
//! round's completions, in posting order — the adversary's own slot
//! order under every shard executor — so an adversary's observation
//! log is byte-identical at any thread count, which is what lets the
//! isolation tests assert *measured* leakage against the ledger's
//! per-tenant budget instead of arguing from properties.
//!
//! Two adversary roles exist today:
//!
//! * [`AdversaryKind::Probe`] — runs the attacks crate's
//!   [`QueueingProbe`](otc_attacks::QueueingProbe) over its log to
//!   estimate a co-tenant's rate and phase (the §3.2 probe reborn as a
//!   tenant, folding busy samples modulo candidate periods).
//! * [`AdversaryKind::Distinguisher`] — keeps the raw log so a test
//!   harness can count observation classes across candidate secrets
//!   ([`observation_classes`](otc_attacks::observation_classes)) and
//!   compare `lg(classes)` against the victim's budget bits.
//!
//! Both are *passive* in their traffic: `MultiTenantHost::admit_adversary`
//! pins a saturating [`TrafficModel::Replay`](crate::TrafficModel) whose
//! gap equals the adversary's own slot period, so nearly every slot
//! carries a real, timeable access — the strongest probe a tenant can
//! field without breaking any protocol rule.

use otc_attacks::{QueueingProbe, RateEstimate};
use otc_dram::Cycle;

/// Which attacks-crate adversary a tenant seat is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryKind {
    /// Rate/phase estimation from the tenant's own queueing timeline.
    Probe,
    /// Raw observation logging for observation-class counting across
    /// candidate secrets.
    Distinguisher,
}

impl AdversaryKind {
    /// Short stable label used by reports and scenario rendering.
    pub fn label(&self) -> &'static str {
        match self {
            AdversaryKind::Probe => "probe",
            AdversaryKind::Distinguisher => "distinguisher",
        }
    }

    /// Perf-session tag (continues the `TrafficModel::tag` space: 0–3
    /// are traffic models, 4–5 adversaries).
    pub fn tag(&self) -> u8 {
        match self {
            AdversaryKind::Probe => 4,
            AdversaryKind::Distinguisher => 5,
        }
    }
}

/// One slot's worth of tenant-observable timing: everything an adversary
/// tenant learns per served slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedSlot {
    /// Global cycle the adversary's slot started (public: the slot grid
    /// is observable stream state).
    pub start: Cycle,
    /// Cycles the slot's access waited behind a busy shard port — the
    /// side channel carrying co-tenant pressure.
    pub queued: Cycle,
    /// Whether the slot carried the adversary's own real request (the
    /// adversary knows its own traffic).
    pub real: bool,
}

/// Per-tenant adversary state carried by the host runtime.
#[derive(Debug, Clone)]
pub(crate) struct AdversaryState {
    pub(crate) kind: AdversaryKind,
    pub(crate) log: Vec<ObservedSlot>,
}

/// Cap on recorded observations (memory guard, mirroring the host's
/// serve-log cap).
pub(crate) const ADVERSARY_LOG_CAP: usize = 1 << 20;

impl AdversaryState {
    pub(crate) fn new(kind: AdversaryKind) -> Self {
        Self {
            kind,
            log: Vec::new(),
        }
    }

    pub(crate) fn record(&mut self, slot: ObservedSlot) {
        if self.log.len() < ADVERSARY_LOG_CAP {
            self.log.push(slot);
        }
    }

    /// Runs the attacks crate's queueing probe over the log.
    pub(crate) fn estimate(&self, olat: Cycle, candidate_rates: &[Cycle]) -> Option<RateEstimate> {
        let mut probe = QueueingProbe::new();
        for s in &self.log {
            probe.observe(s.start, s.queued);
        }
        probe.estimate(olat, candidate_rates)
    }
}
