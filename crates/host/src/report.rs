//! Plain-text rendering of [`HostReport`]s for the `otc` CLI.

use crate::host::HostReport;

fn fmt_f(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// Renders the per-tenant table: lifecycle, throughput, waste, queueing,
/// leakage. Evicted tenants keep their (frozen) rows.
pub fn tenant_table(report: &HostReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10}{:<20}{:<16}{:<14}{:>6}{:>9}{:>10}{:>10}{:>8}{:>12}{:>12}{:>8}{:>11}{:>11}{:>18}\n",
        "tenant",
        "benchmark",
        "policy",
        "traffic",
        "loop",
        "state",
        "slots",
        "real",
        "dummy%",
        "acc/Mcyc",
        "waste/real",
        "rate",
        "queue cyc",
        "fb cyc",
        "leak(bits)"
    ));
    for t in &report.tenants {
        out.push_str(&format!(
            "{:<10}{:<20}{:<16}{:<14}{:>6}{:>9}{:>10}{:>10}{:>8}{:>12}{:>12}{:>8}{:>11}{:>11}{:>18}\n",
            t.name,
            t.benchmark,
            t.policy,
            t.traffic,
            if t.closed_loop { "closed" } else { "open" },
            if t.is_active() { "active" } else { "evicted" },
            t.slots_served,
            t.real_served,
            format!("{:.1}", t.dummy_fraction * 100.0),
            fmt_f(t.throughput_per_mcycle),
            fmt_f(t.waste_per_real),
            t.final_rate,
            t.queueing_cycles,
            t.feedback_cycles,
            format!(
                "{}/{} {}",
                fmt_f(t.spent_bits),
                fmt_f(t.budget_bits),
                if t.within_budget() { "ok" } else { "OVER" }
            ),
        ));
    }
    out
}

/// Renders the per-tenant fairness table: each tenant's admitted
/// capacity share (its WDRR weight), that weight as a fraction of the
/// active fleet's total, its served-slot share of the fleet, and the
/// attainment ratio between the two. Slot grids are rate-periodic, so
/// in a saturating steady state an active tenant's slot share tracks
/// its weight share — attainment near 1.00 is the fairness the arbiter
/// is gated on (`tests/fairness_replay.rs`). Evicted tenants keep their
/// frozen share but show no attainment: their slot counts stopped at
/// eviction while the fleet's kept growing.
pub fn fairness_table(report: &HostReport) -> String {
    let active_weight: f64 = report
        .tenants
        .iter()
        .filter(|t| t.is_active())
        .map(|t| t.capacity_share)
        .sum::<f64>()
        + 0.0;
    let fleet_slots: u64 = report.tenants.iter().map(|t| t.slots_served).sum();
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10}{:>9}{:>10}{:>10}{:>12}{:>10}{:>9}\n",
        "tenant", "state", "share", "weight%", "slots", "slot%", "attain"
    ));
    for t in &report.tenants {
        let weight_pct = if t.is_active() && active_weight > 0.0 {
            t.capacity_share / active_weight * 100.0
        } else {
            0.0
        };
        let slot_pct = if fleet_slots > 0 {
            t.slots_served as f64 / fleet_slots as f64 * 100.0
        } else {
            0.0
        };
        let attain = if t.is_active() && weight_pct > 0.0 {
            format!("{:.2}", slot_pct / weight_pct)
        } else {
            "-".into()
        };
        out.push_str(&format!(
            "{:<10}{:>9}{:>10}{:>10}{:>12}{:>10}{:>9}\n",
            t.name,
            if t.is_active() { "active" } else { "evicted" },
            format!("{:.4}", t.capacity_share),
            format!("{weight_pct:.1}"),
            t.slots_served,
            format!("{slot_pct:.1}"),
            attain,
        ));
    }
    out
}

/// Renders the shard utilization line, including the pipeline
/// discipline and the mean per-access service time it governs.
pub fn shard_summary(report: &HostReport) -> String {
    let utils: Vec<String> = report
        .shard_utilization
        .iter()
        .map(|u| format!("{:.0}%", u * 100.0))
        .collect();
    let retired = if report.retired_shard_accesses > 0 {
        format!(" (+{} on retired shards)", report.retired_shard_accesses)
    } else {
        String::new()
    };
    let drains = if report.background_eviction_drains > 0 {
        format!(
            " | background evictions {}",
            report.background_eviction_drains
        )
    } else {
        String::new()
    };
    format!(
        "shards: {} ({} pipeline) | per-shard accesses {:?}{} | utilization [{}] | \
         mean service {:.1} cycles | p50 service {} cycles | p99 service {} cycles | \
         queueing {} cycles{}",
        report.shard_accesses.len(),
        report.pipeline_label,
        report.shard_accesses,
        retired,
        utils.join(" "),
        report.mean_service_cycles,
        report.p50_service_cycles,
        report.p99_service_cycles,
        report.shard_queueing_cycles,
        drains
    )
}

/// Renders the capacity line: what admission priced one slot at, how
/// much of the pool the active fleet's worst case claims, and the
/// per-round slot budget that pricing implies for the scheduler.
pub fn capacity_summary(report: &HostReport) -> String {
    format!(
        "capacity: {} pricing at {} cycles/slot | fleet demand {:.2} of {:.2} \
         shard-equivalents | round capacity {:.1} slots",
        report.capacity,
        report.effective_cadence,
        report.fleet_demand,
        report.fleet_capacity,
        report.round_slot_capacity
    )
}

/// Renders the aggregate leakage line (evicted tenants' frozen rows
/// stay in the sums — churn conserves fleet accounting).
pub fn leakage_summary(report: &HostReport) -> String {
    format!(
        "fleet leakage: {:.1} bits revealed of {:.1} budgeted across {} tenants ({} active; {})",
        report.fleet_spent_bits,
        report.fleet_budget_bits,
        report.tenants.len(),
        report.active_tenants(),
        if report.all_within_budget() {
            "all tenants within budget"
        } else {
            "BUDGET VIOLATION"
        }
    )
}

/// Full report: tenant table + fairness table + shard + capacity +
/// leakage summaries.
pub fn render(report: &HostReport) -> String {
    format!(
        "horizon: {} cycles\n{}\n{}\n{}\n{}\n{}\n",
        report.horizon,
        tenant_table(report),
        fairness_table(report),
        shard_summary(report),
        capacity_summary(report),
        leakage_summary(report)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::{HostConfig, MultiTenantHost, TenantSpec};
    use otc_core::RatePolicy;
    use otc_workloads::SpecBenchmark;

    #[test]
    fn render_mentions_every_tenant() {
        let mut host = MultiTenantHost::new(HostConfig::small()).expect("builds");
        for (i, name) in ["alpha", "beta"].iter().enumerate() {
            host.add_tenant(&TenantSpec {
                name: name.to_string(),
                benchmark: SpecBenchmark::Mcf,
                policy: RatePolicy::Static {
                    rate: 1_000 + i as u64 * 500,
                },
                instructions: 20_000,
            })
            .expect("admit");
        }
        let report = host.run_until_slots(50);
        let text = render(&report);
        assert!(text.contains("alpha") && text.contains("beta"));
        assert!(text.contains("traffic") && text.contains("workload"));
        assert!(text.contains("fleet leakage"));
        assert!(text.contains("within budget"));
        assert!(text.contains("serial pipeline"));
        assert!(text.contains("attain"));
        assert!(text.contains("mean service"));
        assert!(text.contains("p50 service"));
        assert!(text.contains("p99 service"));
        assert!(text.contains("capacity: olat pricing"));
        assert!(text.contains("round capacity"));
    }

    #[test]
    fn render_handles_a_zero_round_fleet() {
        // A fleet reported before any round ran: clock 0, zero slots
        // served, zero real accesses. Every derived rate (dummy%,
        // acc/Mcyc, waste/real, utilization, mean/p50/p99 service) must
        // come out 0 through its guard, not NaN or a panic.
        let mut host = MultiTenantHost::new(HostConfig::small()).expect("builds");
        host.add_tenant(&TenantSpec {
            name: "idle".into(),
            benchmark: SpecBenchmark::Mcf,
            policy: RatePolicy::Static { rate: 1_000 },
            instructions: 20_000,
        })
        .expect("admit");
        let report = host.report();
        let text = render(&report);
        assert!(text.starts_with("horizon: 0 cycles"));
        assert!(text.contains("idle"));
        assert!(text.contains("mean service 0.0 cycles"));
        assert!(!text.contains("NaN"), "unguarded division leaked: {text}");
        // The empty fleet degenerates the same way — including the
        // empty f64 sums behind fleet demand and the leakage totals,
        // which yield -0.0 unless normalized.
        let empty = MultiTenantHost::new(HostConfig::small()).expect("builds");
        let text = render(&empty.report());
        assert!(text.contains("fleet leakage: 0.0 bits revealed of 0.0 budgeted"));
        assert!(text.contains("fleet demand 0.00"));
        assert!(!text.contains("NaN"), "unguarded division leaked: {text}");
        assert!(!text.contains("-0.0"), "negative zero leaked: {text}");
    }
}
