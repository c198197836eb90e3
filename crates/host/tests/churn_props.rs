//! Property tests for the calendar-queue slot scheduler and online
//! churn (proptest shim; deterministic per-test seeds, no shrinking).
//!
//! 1. **Recorded merge order** — for 72 random fleet mixes (sizes, rate
//!    policies, WDRR weights, loop modes, seeds) *and* random mid-run
//!    churn, the calendar queue serves the exact global slot order the
//!    k-way merge it replaced served, tie-breaks included. The merge
//!    scanned every tenant per served slot; its serve logs, tenant
//!    traces, slot counts and shard accounting, digested per case, are
//!    `golden/merge_order.golden`. The serve log is the witness:
//!    per-tenant traces alone cannot see cross-tenant ordering.
//! 2. **Churn safety** — random admit/evict scripts never deadlock,
//!    never serve a slot for an evicted tenant, and never skip a due
//!    slot of an active tenant (every static grid is served to the
//!    closed-form count; every stream, dynamic included, reconstructs
//!    exactly from its public rate choices anchored at its origin).

use otc_core::RatePolicy;
use otc_dram::Cycle;
use otc_host::{HostConfig, LoopMode, MultiTenantHost, TenantSpec};
use otc_workloads::SpecBenchmark;
use proptest::prelude::*;
use proptest::TestRng;
use std::fmt::Write as _;
use util::static_slots_before;

mod util;

const QUANTUM: Cycle = 1 << 16;

fn traced() -> HostConfig {
    HostConfig {
        record_traces: true,
        ..HostConfig::small()
    }
}

fn bench_for(i: u64) -> SpecBenchmark {
    const ROTATION: [SpecBenchmark; 5] = [
        SpecBenchmark::Mcf,
        SpecBenchmark::Hmmer,
        SpecBenchmark::Libquantum,
        SpecBenchmark::Sjeng,
        SpecBenchmark::Gobmk,
    ];
    ROTATION[(i % ROTATION.len() as u64) as usize]
}

/// Derives a deterministic tenant spec + mode from a per-case RNG.
fn draw_spec(rng: &mut otc_crypto::SplitMix64, name: String) -> (TenantSpec, LoopMode) {
    let policy = match rng.next_below(4) {
        0 => RatePolicy::dynamic_paper(4, 4),
        1 => RatePolicy::dynamic_paper(2, 2),
        _ => RatePolicy::Static {
            rate: 1_200 + rng.next_below(3_800),
        },
    };
    // Closed-loop cores are expensive; sample them, don't default them.
    let mode = if rng.next_below(4) == 0 {
        LoopMode::Closed
    } else {
        LoopMode::Open
    };
    (
        TenantSpec {
            name,
            benchmark: bench_for(rng.next_below(64)),
            policy,
            instructions: 25_000,
        },
        mode,
    )
}

/// The random fleets of `golden/merge_order.golden`: each case's seed,
/// tenant count and churn flag, drawn as the property test that
/// compared the calendar with the live merge drew them (the shim's
/// deterministic stream for this test's name).
fn random_fleets() -> Vec<(u64, usize, bool)> {
    let mut rng = TestRng::deterministic(concat!(
        module_path!(),
        "::calendar_matches_merge_for_random_fleets"
    ));
    (0..72)
        .map(|_| {
            (
                any::<u64>().generate(&mut rng),
                (1usize..5).generate(&mut rng),
                any::<bool>().generate(&mut rng),
            )
        })
        .collect()
}

/// Serves one random fleet: up to `k` drawn tenants (saturation skips
/// a seat), and with `churn` a mid-run admission and an eviction.
fn serve_fleet(seed: u64, k: usize, churn: bool) -> MultiTenantHost {
    let mut rng = otc_crypto::SplitMix64::new(seed);
    let mut host = MultiTenantHost::new(traced()).expect("builds");
    let mut admitted = Vec::new();
    for i in 0..k {
        let (spec, mode) = draw_spec(&mut rng, format!("t{i}"));
        if let Ok(id) = host.admit(&spec, mode) {
            admitted.push(id);
        }
    }
    host.run_for(4 * QUANTUM);
    if churn {
        let (spec, mode) = draw_spec(&mut rng, "late".into());
        let _ = host.admit(&spec, mode);
        host.run_for(4 * QUANTUM);
        if let Some(&victim) = admitted.first() {
            host.evict(victim).expect("evict admitted tenant");
        }
    }
    host.run_for(4 * QUANTUM);
    host
}

/// One fleet's line of `golden/merge_order.golden`: the global serve
/// order, each tenant's slot count and trace, and the shard accounting
/// (same order, same queueing).
fn fleet_line(host: &MultiTenantHost) -> String {
    let log = host.serve_log();
    let tenants: Vec<String> = (0..host.tenant_count())
        .map(|id| {
            let trace = host.tenant_trace(id);
            format!(
                "{} {:016x}",
                host.tenant_stream(id).slots_served(),
                util::trace_digest(trace)
            )
        })
        .collect();
    let report = host.report();
    format!(
        "log {} {:016x}, tenants [{}], shards {:?} queued {}",
        log.len(),
        util::serve_log_digest(log),
        tenants.join(", "),
        report.shard_accesses,
        report.shard_queueing_cycles
    )
}

/// 72 random fleets, churn included: the calendar serves each one in
/// the order the merge served it.
#[test]
fn calendar_matches_merge_for_random_fleets() {
    let mut got = String::new();
    for (seed, k, churn) in random_fleets() {
        let host = serve_fleet(seed, k, churn);
        assert!(
            !host.serve_log().is_empty(),
            "degenerate case served nothing (seed {seed:#x} k {k})"
        );
        writeln!(
            got,
            "seed {seed:016x} k {k} churn {churn}: {}",
            fleet_line(&host)
        )
        .unwrap();
    }
    util::assert_text_eq(
        "golden/merge_order.golden",
        &got,
        include_str!("golden/merge_order.golden"),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random admit/evict scripts terminate (no deadlock), never serve
    /// an evicted tenant, and never skip a due slot.
    #[test]
    fn random_churn_scripts_preserve_grids(
        seed in any::<u64>(),
        rounds in 8u64..24,
    ) {
        let mut rng = otc_crypto::SplitMix64::new(seed);
        let mut host = MultiTenantHost::new(traced()).expect("builds");
        // Start with one tenant so the host is never trivially idle.
        let (spec, mode) = draw_spec(&mut rng, "t0".into());
        host.admit(&spec, mode).expect("first admit fits");
        let mut evicted_at: Vec<(usize, Cycle)> = Vec::new();
        for r in 0..rounds {
            match rng.next_below(4) {
                0 => {
                    let (spec, mode) = draw_spec(&mut rng, format!("r{r}"));
                    let _ = host.admit(&spec, mode); // saturation is fine
                }
                1 => {
                    let active: Vec<usize> = (0..host.tenant_count())
                        .filter(|&id| host.tenant_active(id))
                        .collect();
                    // Keep at least one tenant serving.
                    if active.len() > 1 {
                        let id = active[rng.next_below(active.len() as u64) as usize];
                        prop_assert!(
                            host.tenant_stream(id).next_slot() >= host.clock(),
                            "between rounds nothing is due"
                        );
                        host.evict(id).expect("evict active tenant");
                        evicted_at.push((id, host.clock()));
                    }
                }
                _ => {}
            }
            host.step_round();
        }
        let clock = host.clock();
        prop_assert_eq!(clock, rounds * QUANTUM, "clock advanced exactly per round");

        // Never a slot for an evicted tenant at or after its eviction.
        for &(id, at) in &evicted_at {
            prop_assert!(
                !host
                    .serve_log()
                    .iter()
                    .any(|s| s.tenant == id && s.start >= at),
                "evicted tenant {id} served after {at}"
            );
        }

        for id in 0..host.tenant_count() {
            let stream = host.tenant_stream(id);
            let end = host.evicted_at(id).unwrap_or(clock);
            // Never skip a due slot: the stream is caught up to its
            // lifecycle end...
            prop_assert!(
                stream.next_slot() >= end,
                "tenant {id} left a due slot unserved ({} < {end})",
                stream.next_slot()
            );
            // ...and for static policies the closed-form count matches
            // exactly (dummies filled every gap — admission/eviction of
            // co-tenants never dropped a slot).
            if let RatePolicy::Static { rate } = *stream.policy() {
                let expect = static_slots_before(end, stream.origin(), rate, stream.olat());
                prop_assert_eq!(
                    stream.slots_served(),
                    expect,
                    "tenant {id}: static grid count (origin {}, rate {rate}, end {end})",
                    stream.origin()
                );
            }
            // Every stream (dynamic included) reconstructs from its
            // public rate choices alone, anchored at its origin.
            let olat = stream.olat();
            let transitions = stream.transitions();
            let mut rate = match *stream.policy() {
                RatePolicy::Static { rate } => rate,
                RatePolicy::Dynamic { initial_rate, .. } => initial_rate,
            };
            let mut next = stream.origin() + rate;
            let mut ti = 0;
            for (kth, slot) in stream.trace().iter().enumerate() {
                prop_assert_eq!(
                    slot.start, next,
                    "tenant {id} slot {kth} off its reconstructed grid"
                );
                let completion = next + olat;
                while ti < transitions.len() && completion >= transitions[ti].at {
                    rate = transitions[ti].new_rate;
                    ti += 1;
                }
                next = completion + rate;
            }
        }

        // Ledger conservation: fleet sums are the sum of every row,
        // frozen rows included, and nobody overspent.
        let report = host.report();
        let budget_sum: f64 = report.tenants.iter().map(|t| t.budget_bits).sum();
        let spent_sum: f64 = report.tenants.iter().map(|t| t.spent_bits).sum();
        prop_assert!((report.fleet_budget_bits - budget_sum).abs() < 1e-9);
        prop_assert!((report.fleet_spent_bits - spent_sum).abs() < 1e-9);
        prop_assert!(report.all_within_budget());
    }
}
