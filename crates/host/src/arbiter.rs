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
//! with per-tenant weights, each the tenant's admitted capacity share
//! as its [`LeakageLedger`] row holds it: each round every active
//! tenant's credit grows by `weight × quantum`; each served slot spends
//! the serving shard's per-slot cost. Among same-cycle ties the richest
//! credit wins (the under-served tenant), with the legacy rotation rank
//! as the deterministic final tie-break. Credits are integers
//! (cycle·ppm), so the arbiter is exactly reproducible across runs and
//! thread counts.
//!
//! # Equal weights replay the legacy order bit-for-bit
//!
//! When every active tenant carries the same weight, weighted fairness
//! *is* round-robin fairness — so the arbiter short-circuits its credit
//! rank to a constant and the composite rank collapses to exactly the
//! legacy rotation rank. `tests/fairness_replay.rs` pins the serve log,
//! traces and ledger for that case against digests recorded from the
//! pre-WDRR rotation arbiter.

use crate::ledger::LeakageLedger;
use otc_dram::Cycle;

/// Parts-per-million scale for integer credit arithmetic: weights are
/// capacity shares (fractions of one shard), taken ×10⁶ so credits
/// stay exact integers.
const PPM: i64 = 1_000_000;

/// Rounds of unspent replenishment a tenant may bank. An idle tenant's
/// credit stops growing here instead of climbing without bound (classic
/// DRR zeroes the deficit of an empty flow; a bounded bank is the
/// deterministic equivalent for slot grids, which are never "empty" but
/// can be slow).
const BANK_ROUNDS: i64 = 4;

/// Deterministic WDRR credit state, indexed by dense tenant id.
///
/// A tenant's weight is its ledger row's admitted capacity share, so
/// admission, eviction and resize touch only the ledger; they run
/// between rounds, and each scheduling round calls
/// [`WdrrArbiter::replenish`] once, before any rank is read, then
/// [`WdrrArbiter::charge`]s every served slot with the serving shard's
/// per-slot cost.
#[derive(Debug, Clone, Default)]
pub(crate) struct WdrrArbiter {
    /// Per-tenant unspent credit in cycle·ppm. Positive = under-served
    /// relative to weight, negative = over-served.
    credit: Vec<i64>,
    /// Whether all active weights were equal at the last replenish: the
    /// equal-weight fleet must replay the legacy rotation order
    /// bit-for-bit, so the credit rank short-circuits to 0.
    uniform: bool,
}

impl WdrrArbiter {
    /// Start-of-round replenishment from the ledger's rows: every
    /// active tenant banks `weight × quantum` cycle·ppm of credit,
    /// capped at [`BANK_ROUNDS`] rounds' worth so an idle tenant cannot
    /// hoard priority without bound. A frozen (evicted) row's credit is
    /// zeroed — its unspent bank leaves with it, credits never transfer
    /// between tenants — and a re-priced row keeps its balance, so a
    /// mid-run resize hands nobody a fresh bank.
    pub(crate) fn replenish(&mut self, quantum: Cycle, ledger: &LeakageLedger) {
        let quantum = i64::try_from(quantum).unwrap_or(i64::MAX);
        let rows = ledger.entries();
        self.credit.resize(rows.len(), 0);
        let mut first = None;
        self.uniform = true;
        for (row, c) in rows.iter().zip(self.credit.iter_mut()) {
            if row.frozen {
                *c = 0;
                continue;
            }
            let w = (row.capacity_share * PPM as f64).round().max(0.0) as i64;
            if w == 0 {
                continue;
            }
            self.uniform &= *first.get_or_insert(w) == w;
            let grant = w.saturating_mul(quantum);
            let cap = grant.saturating_mul(BANK_ROUNDS);
            *c = c.saturating_add(grant).min(cap);
        }
    }

    /// Charges one served slot: `cadence` cycles of the serving shard's
    /// port (its pricing cadence — heterogeneous shards cost
    /// differently), spent from the tenant's credit.
    pub(crate) fn charge(&mut self, tenant: usize, cadence: Cycle) {
        let cost = i64::try_from(cadence)
            .unwrap_or(i64::MAX)
            .saturating_mul(PPM);
        self.credit[tenant] = self.credit[tenant].saturating_sub(cost);
    }

    /// The credit component of the scheduling rank for `tenant`. The
    /// host composes `(Reverse(credit_rank), rotation_rank)`: the
    /// largest credit wins a same-cycle tie, rotation order settles
    /// exact credit ties. Constant (0) under a uniform-weight fleet,
    /// which collapses the composite rank to exactly the legacy
    /// rotation order.
    pub(crate) fn credit_rank(&self, tenant: usize) -> i64 {
        if self.uniform {
            return 0;
        }
        self.credit.get(tenant).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otc_core::EpochSchedule;

    /// A ledger with one active row per share, in id order: the
    /// arbiter's view of admission.
    fn ledger(shares: &[f64]) -> LeakageLedger {
        let mut l = LeakageLedger::new();
        for &share in shares {
            add(&mut l, share);
        }
        l
    }

    /// Admits one more row at `share`.
    fn add(l: &mut LeakageLedger, share: f64) {
        let id = l.entries().len();
        l.add_tenant(id, 1, EpochSchedule::scaled(4), share);
    }

    #[test]
    fn uniform_weights_short_circuit_to_the_legacy_rank() {
        let mut l = ledger(&[0.25, 0.25]);
        let mut a = WdrrArbiter::default();
        a.replenish(1_000, &l);
        a.charge(0, 400);
        // Credits differ, but equal weights must replay rotation order.
        assert_eq!(a.credit_rank(0), 0);
        assert_eq!(a.credit_rank(1), 0);
        // A third, heavier tenant breaks uniformity: credits surface.
        add(&mut l, 0.5);
        a.replenish(1_000, &l);
        assert_ne!(a.credit_rank(0), a.credit_rank(1));
        // Evicting it restores the uniform short-circuit: a frozen row
        // does not count toward uniformity.
        l.freeze(2);
        a.replenish(1_000, &l);
        assert_eq!(a.credit_rank(0), 0);
        assert_eq!(a.credit_rank(1), 0);
    }

    #[test]
    fn credits_accrue_by_weight_and_spend_by_cadence() {
        let l = ledger(&[0.6, 0.2]);
        let mut a = WdrrArbiter::default();
        a.replenish(10_000, &l);
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
        let mut l = ledger(&[0.5, 0.1]);
        let mut a = WdrrArbiter::default();
        for _ in 0..100 {
            a.replenish(1_000, &l);
        }
        let grant = (0.5f64 * PPM as f64) as i64 * 1_000;
        assert_eq!(a.credit_rank(0), grant * BANK_ROUNDS);
        // Evicted, then re-admitted under a fresh id: the frozen row's
        // bank is gone and the new row starts from one round's grant.
        l.freeze(0);
        add(&mut l, 0.5);
        a.replenish(1_000, &l);
        assert_eq!(a.credit_rank(0), 0, "eviction forfeits the bank");
        assert_eq!(a.credit_rank(2), grant, "re-admission starts fresh");
    }

    #[test]
    fn charge_saturates_instead_of_overflowing() {
        let l = ledger(&[0.9, 0.1]);
        let mut a = WdrrArbiter::default();
        // A zero quantum grants nothing; it only sizes the credit rows.
        a.replenish(0, &l);
        for _ in 0..1_000 {
            a.charge(0, u64::MAX >> 22);
        }
        assert_eq!(a.credit_rank(0), i64::MIN);
        a.replenish(u64::MAX, &l);
        assert!(a.credit_rank(0) > i64::MIN, "replenish recovers");
    }

    #[test]
    fn re_price_keeps_the_credit_balance() {
        let mut l = ledger(&[0.3, 0.6]);
        let mut a = WdrrArbiter::default();
        a.replenish(1_000, &l);
        let before = a.credit_rank(0);
        assert!(before > 0);
        // Resize re-prices the share; unspent credit must carry over,
        // and the next round grants at the new weight.
        l.reprice(0, 0.4);
        a.replenish(1_000, &l);
        assert_eq!(a.credit_rank(0), before + 400_000 * 1_000);
    }
}
