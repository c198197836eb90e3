//! Weighted deficit round-robin (WDRR) arbitration of the shared shard
//! port.
//!
//! # What the arbiter decides — and what it cannot touch
//!
//! Every tenant's observable timeline is its own slot grid (pure stream
//! state — see `otc-core`); the scheduler serves *every* due slot each
//! round, so no arbiter can add or remove service. What remains genuinely
//! up for grabs is the **port order under contention**: when several
//! tenants' slots are due at the same cycle, someone's access hits the
//! shard first and everyone behind it absorbs the queueing. The legacy
//! tie-break was a rotating round-robin — fair only when every tenant
//! deserves the same share. A heterogeneous fleet does not: a tenant
//! admitted for 3× the capacity share of another should also win 3× the
//! contended-port ties.
//!
//! [`WdrrArbiter`] implements the classic deficit round-robin scheme
//! with per-tenant weights: each round every active tenant's credit
//! grows by `weight × quantum`; each served slot spends the serving
//! shard's per-slot cost. Among same-cycle ties the richest credit wins
//! (the under-served tenant), with the legacy rotation rank as the
//! deterministic final tie-break. Credits are integers (cycle·ppm), so
//! the arbiter is exactly reproducible across runs and thread counts.
//!
//! # Equal weights replay the legacy order bit-for-bit
//!
//! When every active tenant carries the same weight, weighted fairness
//! *is* round-robin fairness — so the arbiter short-circuits its credit
//! rank to a constant and the composite rank collapses to exactly the
//! legacy rotation rank. `tests/fairness_replay.rs` pins byte-identical
//! serve logs for that case, as `SchedulerKind::Merge` is kept as a
//! bit-exact reference for the calendar scheduler.

use otc_dram::Cycle;

/// Parts-per-million scale for integer credit arithmetic: weights are
/// capacity shares (fractions of one shard), stored ×10⁶ so credits
/// stay exact integers.
const PPM: i64 = 1_000_000;

/// Rounds of unspent replenishment a tenant may bank. An idle tenant's
/// credit stops growing here instead of climbing without bound (classic
/// DRR zeroes the deficit of an empty flow; a bounded bank is the
/// deterministic equivalent for slot grids, which are never "empty" but
/// can be slow).
const BANK_ROUNDS: i64 = 4;

/// Which contended-port tie-break the host runs. The two produce
/// identical serve logs whenever all active tenants carry equal weights
/// (pinned by the replay suite); they differ only when a mixed-weight
/// fleet contends for the port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ArbiterKind {
    /// The legacy rotating round-robin tie-break — the bit-exact
    /// pre-WDRR reference (mirroring `SchedulerKind::Merge` and
    /// `PipelineKind::Serial` as equivalence anchors).
    Rotation,
    /// Weighted deficit round-robin: same-cycle ties go to the tenant
    /// with the largest unspent credit (weight = admitted capacity
    /// share), rotation rank as the final deterministic tie-break.
    #[default]
    Wdrr,
}

/// Deterministic WDRR credit state, indexed by dense tenant id.
///
/// The host owns one of these; admission registers a tenant's weight
/// (its admitted capacity share), eviction clears it, a resize
/// re-registers every active tenant at its re-priced share. Each
/// scheduling round calls [`WdrrArbiter::replenish`] once, then
/// [`WdrrArbiter::charge`]s every served slot with the serving shard's
/// per-slot cost.
#[derive(Debug, Clone)]
pub(crate) struct WdrrArbiter {
    kind: ArbiterKind,
    /// Per-tenant weight in ppm of one shard (0 = inactive).
    weight_ppm: Vec<i64>,
    /// Per-tenant unspent credit in cycle·ppm. Positive = under-served
    /// relative to weight, negative = over-served.
    credit: Vec<i64>,
    /// Whether all active weights are equal (recomputed on weight
    /// changes): the equal-weight fleet must replay the legacy rotation
    /// order bit-for-bit, so the credit rank short-circuits to 0.
    uniform: bool,
}

impl WdrrArbiter {
    /// An empty arbiter running `kind`.
    pub(crate) fn new(kind: ArbiterKind) -> Self {
        Self {
            kind,
            weight_ppm: Vec::new(),
            credit: Vec::new(),
            uniform: true,
        }
    }

    fn ensure(&mut self, tenant: usize) {
        if tenant >= self.weight_ppm.len() {
            self.weight_ppm.resize(tenant + 1, 0);
            self.credit.resize(tenant + 1, 0);
        }
    }

    fn recompute_uniform(&mut self) {
        let mut active = self.weight_ppm.iter().filter(|&&w| w > 0);
        let first = active.next().copied();
        self.uniform = match first {
            None => true,
            Some(w) => active.all(|&x| x == w),
        };
    }

    /// Registers (or re-prices) `tenant` at capacity share `share`
    /// (fraction of one shard, the admission controller's
    /// `worst_case_util`). Credit is preserved across a re-price so a
    /// mid-run resize does not hand anyone a fresh bank.
    pub(crate) fn set_weight(&mut self, tenant: usize, share: f64) {
        self.ensure(tenant);
        self.weight_ppm[tenant] = (share * PPM as f64).round().max(0.0) as i64;
        self.recompute_uniform();
    }

    /// Clears an evicted tenant: zero weight, zero credit (its unspent
    /// bank leaves with it — credits never transfer between tenants).
    pub(crate) fn clear(&mut self, tenant: usize) {
        if tenant < self.weight_ppm.len() {
            self.weight_ppm[tenant] = 0;
            self.credit[tenant] = 0;
            self.recompute_uniform();
        }
    }

    /// Start-of-round replenishment: every active tenant banks
    /// `weight × quantum` cycle·ppm of credit, capped at
    /// [`BANK_ROUNDS`] rounds' worth so an idle tenant cannot hoard
    /// priority without bound.
    pub(crate) fn replenish(&mut self, quantum: Cycle) {
        let quantum = i64::try_from(quantum).unwrap_or(i64::MAX);
        for (w, c) in self.weight_ppm.iter().zip(self.credit.iter_mut()) {
            if *w == 0 {
                continue;
            }
            let grant = w.saturating_mul(quantum);
            let cap = grant.saturating_mul(BANK_ROUNDS);
            *c = c.saturating_add(grant).min(cap);
        }
    }

    /// Charges one served slot: `cadence` cycles of the serving shard's
    /// port (its pricing cadence — heterogeneous shards cost
    /// differently), spent from the tenant's credit.
    pub(crate) fn charge(&mut self, tenant: usize, cadence: Cycle) {
        self.ensure(tenant);
        let cost = i64::try_from(cadence)
            .unwrap_or(i64::MAX)
            .saturating_mul(PPM);
        self.credit[tenant] = self.credit[tenant].saturating_sub(cost);
    }

    /// The credit component of the scheduling rank for `tenant`. The
    /// host composes `(Reverse(credit_rank), rotation_rank)`: the
    /// largest credit wins a same-cycle tie, rotation order settles
    /// exact credit ties. Constant (0) under [`ArbiterKind::Rotation`]
    /// or a uniform-weight fleet, which collapses the composite rank to
    /// exactly the legacy rotation order.
    pub(crate) fn credit_rank(&self, tenant: usize) -> i64 {
        if self.kind == ArbiterKind::Rotation || self.uniform {
            return 0;
        }
        self.credit.get(tenant).copied().unwrap_or(0)
    }

    /// Per-tenant weights in ppm (diagnostics/reporting; 0 = inactive).
    pub(crate) fn weights_ppm(&self) -> &[i64] {
        &self.weight_ppm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_kind_always_ranks_flat() {
        let mut a = WdrrArbiter::new(ArbiterKind::Rotation);
        a.set_weight(0, 0.8);
        a.set_weight(1, 0.1);
        a.replenish(1_000);
        a.charge(1, 5_000);
        assert_eq!(a.credit_rank(0), 0);
        assert_eq!(a.credit_rank(1), 0);
    }

    #[test]
    fn uniform_weights_short_circuit_to_the_legacy_rank() {
        let mut a = WdrrArbiter::new(ArbiterKind::Wdrr);
        a.set_weight(0, 0.25);
        a.set_weight(1, 0.25);
        a.replenish(1_000);
        a.charge(0, 400);
        // Credits differ, but equal weights must replay rotation order.
        assert_eq!(a.credit_rank(0), 0);
        assert_eq!(a.credit_rank(1), 0);
        // A third, heavier tenant breaks uniformity: credits surface.
        a.set_weight(2, 0.5);
        assert_ne!(a.credit_rank(0), a.credit_rank(1));
        // Evicting it restores the uniform short-circuit.
        a.clear(2);
        assert_eq!(a.credit_rank(0), 0);
        assert_eq!(a.credit_rank(1), 0);
    }

    #[test]
    fn credits_accrue_by_weight_and_spend_by_cadence() {
        let mut a = WdrrArbiter::new(ArbiterKind::Wdrr);
        a.set_weight(0, 0.6);
        a.set_weight(1, 0.2);
        a.replenish(10_000);
        // 0.6 × 10_000 = 6_000 cycles of credit vs 2_000.
        assert_eq!(a.credit_rank(0), 6_000 * PPM);
        assert_eq!(a.credit_rank(1), 2_000 * PPM);
        // Serving tenant 0 twice on a 1_488-cycle shard drains it below
        // tenant 1; the under-served tenant now outranks it.
        a.charge(0, 1_488);
        a.charge(0, 1_488);
        assert!(a.credit_rank(0) > a.credit_rank(1));
        a.charge(0, 1_488);
        assert!(a.credit_rank(0) < a.credit_rank(1));
    }

    #[test]
    fn bank_is_capped_and_eviction_forfeits_it() {
        let mut a = WdrrArbiter::new(ArbiterKind::Wdrr);
        a.set_weight(0, 0.5);
        a.set_weight(1, 0.1);
        for _ in 0..100 {
            a.replenish(1_000);
        }
        let cap = (0.5f64 * PPM as f64) as i64 * 1_000 * BANK_ROUNDS;
        assert_eq!(a.credit_rank(0), cap);
        a.clear(0);
        a.set_weight(0, 0.5);
        assert_eq!(a.credit_rank(0), 0, "re-admission starts from zero");
    }

    #[test]
    fn charge_saturates_instead_of_overflowing() {
        let mut a = WdrrArbiter::new(ArbiterKind::Wdrr);
        a.set_weight(0, 0.9);
        a.set_weight(1, 0.1);
        for _ in 0..1_000 {
            a.charge(0, u64::MAX >> 22);
        }
        assert_eq!(a.credit_rank(0), i64::MIN);
        a.replenish(u64::MAX);
        assert!(a.credit_rank(0) > i64::MIN, "replenish recovers");
    }

    #[test]
    fn re_price_keeps_the_credit_balance() {
        let mut a = WdrrArbiter::new(ArbiterKind::Wdrr);
        a.set_weight(0, 0.3);
        a.set_weight(1, 0.6);
        a.replenish(1_000);
        let before = a.credit_rank(0);
        assert!(before > 0);
        // Resize re-prices the share; unspent credit must carry over.
        a.set_weight(0, 0.4);
        assert_eq!(a.credit_rank(0), before);
    }
}
