//! Fleet-wide leakage accounting.
//!
//! The paper bounds one session's ORAM-timing leakage by `|E| · lg |R|`
//! bits. An appliance serving many tenants needs the *aggregate* view:
//! per-tenant budgets (from each tenant's authorized [`LeakageModel`]),
//! per-tenant bits actually revealed so far (one rate choice per epoch
//! transition taken), and fleet totals. Because tenants' slot streams are
//! mutually independent (enforced by the scheduler, tested in
//! `tests/tenant_isolation.rs`), channels combine additively (§10): the
//! fleet-wide bound is exactly the sum of per-tenant bounds.

use otc_core::{combine_channels, EpochSchedule, LeakageModel};

/// One tenant's row in the ledger.
#[derive(Debug, Clone)]
pub struct LedgerEntry {
    /// Tenant id (the host's dense tenant index, equal to the row index).
    pub tenant: usize,
    /// The model this tenant was authorized under.
    pub model: LeakageModel,
    /// Worst-case ORAM-timing budget for a full `Tmax` run, in bits.
    pub budget_bits: f64,
    /// Bits revealed so far: epoch transitions taken × `lg |R|`.
    pub spent_bits: f64,
    /// Epoch transitions observed so far: the tenant stream's own count,
    /// copied in by [`LeakageLedger::record_transitions`]. The copy stays
    /// because perfbench's `ledger.record_ns` probe times that call.
    pub transitions: u64,
    /// Shard-equivalents this tenant's admission charged against the
    /// pool: worst-case slots at its fastest candidate rate, each priced
    /// at the pool's effective cadence (`OLAT` under olat pricing, the
    /// pipeline's steady-state initiation interval under cadence
    /// pricing). Unlike the leakage columns this is *occupancy*, not
    /// spend: a frozen row's share is excluded from
    /// [`LeakageLedger::fleet_capacity_share`] because eviction returns
    /// its capacity to the pool.
    pub capacity_share: f64,
    /// Whether the row is frozen (the tenant was evicted). A frozen row
    /// stays in every fleet sum — eviction never un-spends bits — but
    /// accepts no further spending.
    pub frozen: bool,
}

/// The single budget predicate used everywhere bits are compared. The
/// epsilon absorbs float accumulation in `lg |R|` multiples and scales
/// *relatively* with the budget: a large-`Tmax` schedule accumulates
/// thousands of `transitions × lg |R|` products whose rounding error
/// grows with the magnitude, so a fixed absolute `1e-9` would flag
/// exact-budget spends as violations once budgets reach ~10⁷ bits
/// (f64 ulp at 2²³ is ≈ 1e-9; beyond that the old epsilon was under
/// one ulp and the predicate was effectively `<=`). The `max(1.0)`
/// floor keeps tiny and zero budgets on the old absolute tolerance.
pub fn within_budget_bits(spent_bits: f64, budget_bits: f64) -> bool {
    spent_bits <= budget_bits + 1e-9 * budget_bits.abs().max(1.0)
}

impl LedgerEntry {
    /// Whether the tenant is within its authorized budget.
    pub fn within_budget(&self) -> bool {
        within_budget_bits(self.spent_bits, self.budget_bits)
    }
}

/// Aggregate leakage ledger over all tenants of one host.
#[derive(Debug, Clone, Default)]
pub struct LeakageLedger {
    entries: Vec<LedgerEntry>,
}

impl LeakageLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a tenant authorized for `rate_count` candidate rates over
    /// `schedule`, occupying `capacity_share` shard-equivalents at the
    /// pool's admission pricing; returns its row index (== tenant id
    /// when rows are added in registration order).
    pub fn add_tenant(
        &mut self,
        tenant: usize,
        rate_count: usize,
        schedule: EpochSchedule,
        capacity_share: f64,
    ) -> usize {
        let model = LeakageModel::new(rate_count, schedule);
        let budget_bits = model.oram_timing_bits();
        self.entries.push(LedgerEntry {
            tenant,
            model,
            budget_bits,
            spent_bits: 0.0,
            transitions: 0,
            capacity_share,
            frozen: false,
        });
        self.entries.len() - 1
    }

    /// Records that `tenant` has taken `transitions` epoch transitions in
    /// total (idempotent: pass the running total, not a delta). A frozen
    /// row ignores the update — an evicted tenant's spend is final.
    pub fn record_transitions(&mut self, tenant: usize, transitions: u64) {
        let e = &mut self.entries[tenant];
        if e.frozen {
            return;
        }
        e.transitions = transitions;
        e.spent_bits = transitions as f64 * (e.model.rate_count() as f64).log2();
    }

    /// Freezes `tenant`'s row at its current spend (called at eviction).
    /// The row keeps contributing to every fleet sum.
    pub fn freeze(&mut self, tenant: usize) {
        self.entries[tenant].frozen = true;
    }

    /// Re-prices an active tenant's occupancy to `capacity_share`
    /// (called when a resize changes the pool's pricing cadence — rows
    /// admitted before the resize would otherwise keep old-geometry
    /// shares, and [`LeakageLedger::fleet_capacity_share`] would price
    /// the new pool on the old one's terms). Frozen rows are left
    /// untouched: an evicted tenant occupies nothing and its historical
    /// record stays as admitted.
    pub fn reprice(&mut self, tenant: usize, capacity_share: f64) {
        let e = &mut self.entries[tenant];
        if e.frozen {
            return;
        }
        e.capacity_share = capacity_share;
    }

    /// Per-tenant rows.
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// One row.
    pub fn entry(&self, tenant: usize) -> &LedgerEntry {
        &self.entries[tenant]
    }

    /// Fleet-wide worst-case budget: the sum of per-tenant bounds
    /// (channels are additive across independent tenants, §10).
    pub fn fleet_budget_bits(&self) -> f64 {
        combine_channels(
            &self
                .entries
                .iter()
                .map(|e| e.budget_bits)
                .collect::<Vec<_>>(),
        )
    }

    /// Shard-equivalents the *active* fleet occupies at the admission
    /// pricing each row was admitted under (frozen rows excluded —
    /// eviction returns capacity to the pool, unlike leakage spend,
    /// which is forever). `MultiTenantHost::fleet_demand` reads it.
    pub fn fleet_capacity_share(&self) -> f64 {
        // `+ 0.0` normalizes the -0.0 an empty f64 sum yields (a fully
        // frozen fleet) so reports, JSON and samples never print "-0.0"
        // — IEEE 754 fixes the sign of `-0.0 + +0.0`, unlike `max`.
        self.entries
            .iter()
            .filter(|e| !e.frozen)
            .map(|e| e.capacity_share)
            .sum::<f64>()
            + 0.0
    }

    /// Fleet-wide bits revealed so far.
    pub fn fleet_spent_bits(&self) -> f64 {
        combine_channels(
            &self
                .entries
                .iter()
                .map(|e| e.spent_bits)
                .collect::<Vec<_>>(),
        )
    }

    /// Whether every tenant is within its budget.
    pub fn all_within_budget(&self) -> bool {
        self.entries.iter().all(LedgerEntry::within_budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_budget_is_sum_of_tenant_bounds() {
        let mut l = LeakageLedger::new();
        l.add_tenant(0, 4, EpochSchedule::scaled(4), 0.5); // 32 bits
        l.add_tenant(1, 4, EpochSchedule::scaled(16), 0.25); // 16 bits
        l.add_tenant(2, 1, EpochSchedule::scaled(4), 0.25); // static: 0 bits
        assert_eq!(l.fleet_budget_bits(), 48.0);
    }

    #[test]
    fn spending_tracks_transitions() {
        let mut l = LeakageLedger::new();
        l.add_tenant(0, 4, EpochSchedule::scaled(4), 0.4);
        assert_eq!(l.fleet_spent_bits(), 0.0);
        l.record_transitions(0, 5);
        assert_eq!(l.entry(0).spent_bits, 10.0); // 5 × lg 4
        assert!(l.all_within_budget());
        // A full run spends exactly the budget, never more.
        let total = l.entry(0).model.schedule().total_epochs() as u64;
        l.record_transitions(0, total);
        assert_eq!(l.entry(0).spent_bits, l.entry(0).budget_bits);
        assert!(l.all_within_budget());
    }

    #[test]
    fn capacity_shares_sum_over_active_rows_only() {
        let mut l = LeakageLedger::new();
        l.add_tenant(0, 4, EpochSchedule::scaled(4), 0.5);
        l.add_tenant(1, 1, EpochSchedule::scaled(4), 0.25);
        assert_eq!(l.fleet_capacity_share(), 0.75);
        // Eviction returns capacity to the pool (unlike leakage spend,
        // which the frozen row keeps contributing forever).
        l.freeze(0);
        assert_eq!(l.fleet_capacity_share(), 0.25);
        assert_eq!(l.entry(0).capacity_share, 0.5, "row keeps its record");
    }

    #[test]
    fn reprice_moves_active_rows_and_skips_frozen_ones() {
        let mut l = LeakageLedger::new();
        l.add_tenant(0, 4, EpochSchedule::scaled(4), 0.5);
        l.add_tenant(1, 4, EpochSchedule::scaled(4), 0.3);
        l.freeze(1);
        l.reprice(0, 0.125);
        l.reprice(1, 0.999);
        assert_eq!(l.entry(0).capacity_share, 0.125);
        assert_eq!(l.entry(1).capacity_share, 0.3, "frozen row untouched");
        assert_eq!(l.fleet_capacity_share(), 0.125);
    }

    #[test]
    fn budget_boundary_scales_with_the_budget_magnitude() {
        // At a 2^24-bit budget one ulp is ≈ 3.7e-9 — already past the
        // old absolute 1e-9, so an exact-budget spend whose last
        // rounding step landed one ulp high would have been flagged as
        // a violation. The relative epsilon admits float noise scaled
        // to the budget while still rejecting any real overspend.
        let budget = 16_777_216.0f64; // 2^24
        let one_ulp_over = f64::from_bits(budget.to_bits() + 1);
        assert!(
            one_ulp_over > budget + 1e-9,
            "one ulp at this magnitude exceeds the old absolute epsilon"
        );
        assert!(within_budget_bits(budget, budget));
        assert!(within_budget_bits(one_ulp_over, budget));
        // A real overspend — a fraction of one transition's lg |R| —
        // still trips the predicate.
        assert!(!within_budget_bits(budget + 0.1, budget));
        // Exact-budget spends through the ledger stay exact: the same
        // `transitions × lg |R|` product computes both sides.
        let mut l = LeakageLedger::new();
        l.add_tenant(0, 4, EpochSchedule::scaled(2), 0.5);
        let total = l.entry(0).model.schedule().total_epochs() as u64;
        l.record_transitions(0, total);
        assert_eq!(l.entry(0).spent_bits, l.entry(0).budget_bits);
        assert!(l.all_within_budget());
        // Tiny and zero budgets keep the old absolute tolerance.
        assert!(within_budget_bits(1e-10, 0.0));
        assert!(!within_budget_bits(1e-3, 0.0));
    }

    #[test]
    fn frozen_rows_keep_contributing_but_stop_spending() {
        let mut l = LeakageLedger::new();
        l.add_tenant(0, 4, EpochSchedule::scaled(4), 0.3); // 32-bit budget
        l.add_tenant(1, 4, EpochSchedule::scaled(4), 0.2);
        l.record_transitions(0, 3); // 6 bits
        let fleet_budget = l.fleet_budget_bits();
        let fleet_spent = l.fleet_spent_bits();
        l.freeze(0);
        // Further spending on the frozen row is ignored...
        l.record_transitions(0, 10);
        assert_eq!(l.entry(0).spent_bits, 6.0);
        assert_eq!(l.entry(0).transitions, 3);
        assert!(l.entry(0).frozen);
        // ...and the fleet sums are conserved, not shrunk.
        assert_eq!(l.fleet_budget_bits(), fleet_budget);
        assert_eq!(l.fleet_spent_bits(), fleet_spent);
        // Live rows keep spending normally.
        l.record_transitions(1, 2);
        assert_eq!(l.fleet_spent_bits(), 6.0 + 4.0);
    }
}
