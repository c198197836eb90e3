//! Replay + property suite for the WDRR port arbiter (the fairness
//! analogue of the pipeline and capacity replay suites):
//!
//! 1. **Equal weights replay the legacy arbiter bit for bit** — a
//!    fleet of identically-priced tenants under WDRR produces the serve
//!    log, slot traces, and ledger sums of the pre-WDRR rotating
//!    round-robin arbiter (digests recorded from it), across a mixed
//!    pool, churn, and static and dynamic seats. Uniform weighted
//!    fairness *is* round-robin fairness, so the arbiter must vanish
//!    from the observables.
//! 2. **The arbiter reorders, never re-serves** — whatever the weights,
//!    every tenant's slot grid (and hence its served-slot count) is
//!    pure stream state, equal to a stream served alone; mixed weights
//!    may permute same-cycle port ties but cannot add or remove service.
//! 3. **64-case saturating property sweep** — random tenant mixes
//!    admitted to saturation on random (including heterogeneous) pools:
//!    every tenant's served-slot share stays within one scheduling
//!    quantum's worth of its slots of its admitted weight share.
//! 4. **The fairness gate** — the same bound on `BENCH_fairness.json`'s
//!    mixed pool, filled with unequal-rate tenants; the record, rendered
//!    afresh, must match the checked-in file byte for byte.
//!
//! CI replays this suite with fixed seeds; nondeterminism in the credit
//! arithmetic would show up as a diff between runs.

use otc_core::{RatePolicy, SlotRecord, SlotStream};
use otc_dram::Cycle;
use otc_host::{
    CapacityKind, HostConfig, HostError, HostReport, LoopMode, MultiTenantHost, PipelineConfig,
    ShardClass, TenantSpec,
};
use otc_oram::{OramConfig, TreeGeometry};

mod util;

/// The fairness gate's floor, in scheduling quanta of a tenant's own
/// slots (see [`share_deviations`]).
const FLOOR_QUANTA: f64 = 1.0;

fn spec(name: &str, policy: RatePolicy) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        benchmark: otc_workloads::SpecBenchmark::Mcf,
        policy,
        instructions: 50_000,
    }
}

/// The small geometry's little sibling (one level shallower at every
/// tree) — cheap enough that a staged lane of it prices well under a
/// serial small lane, which is what makes a mix heterogeneous in the
/// ways that matter here.
fn tiny() -> OramConfig {
    OramConfig {
        data: TreeGeometry::new(7, 3, 64, 16),
        posmaps: vec![
            TreeGeometry::new(4, 3, 32, 16),
            TreeGeometry::new(3, 3, 32, 16),
        ],
        seed: 0x717E_5EED,
    }
}

fn mixed_classes() -> Vec<ShardClass> {
    vec![
        ShardClass {
            oram: OramConfig::small(),
            pipeline: PipelineConfig::serial(),
        },
        ShardClass {
            oram: tiny(),
            pipeline: PipelineConfig::staged(),
        },
    ]
}

/// Each tenant's `(weight share, served-slot share, deviation)`, the
/// deviation being the distance of its served slots from its weight's
/// entitlement in scheduling quanta of its own slots, plus the grid's
/// ±1 quantization. One quantum is the structural slack: rounds serve
/// whole batches, so a share can lag by at most one round of service.
fn share_deviations(report: &HostReport, quantum: Cycle, olat: Cycle) -> Vec<(f64, f64, f64)> {
    let total_weight: f64 = report.tenants.iter().map(|t| t.capacity_share).sum();
    let total_slots: u64 = report.tenants.iter().map(|t| t.slots_served).sum();
    report
        .tenants
        .iter()
        .map(|t| {
            let weight_share = t.capacity_share / total_weight;
            let expected = weight_share * total_slots as f64;
            let quantum_slots = quantum as f64 / (t.final_rate + olat) as f64 + 1.0;
            (
                weight_share,
                t.slots_served as f64 / total_slots as f64,
                (t.slots_served as f64 - expected).abs() / quantum_slots,
            )
        })
        .collect()
}

/// What an arbiter can touch, digested: the serve log (cross-tenant
/// order), each tenant's slot trace, and the ledger's bits. FNV-1a over
/// the same serve-log bytes `golden/mixed_pool.golden` digests.
fn observables(host: &MultiTenantHost) -> String {
    let report = host.report();
    let log = host.serve_log();
    let traces: Vec<String> = report
        .tenants
        .iter()
        .map(|t| {
            let trace = host.tenant_trace(t.id);
            format!("{} {:016x}", trace.len(), util::trace_digest(trace))
        })
        .collect();
    format!(
        "log {} {:016x}, traces [{}], spent {:016x}, budget {:016x}",
        log.len(),
        util::serve_log_digest(log),
        traces.join(", "),
        report.fleet_spent_bits.to_bits(),
        report.fleet_budget_bits.to_bits()
    )
}

/// [`observables`] of the equal-weight fleet below, served by the
/// pre-WDRR rotating round-robin arbiter (under the calendar and under
/// the k-way merge alike). Recorded before that arbiter was removed; it
/// was the bit-exact reference.
const ROTATION_OBSERVABLES: &str = "log 1007 b1970c5d5af7b081, \
    traces [403 68f871537b303e5b, 201 28cd5cae31786518, 403 68f871537b303e5b], \
    spent 0000000000000000, budget 0000000000000000";

/// As [`ROTATION_OBSERVABLES`], for the fleet of three `dynamic_R4_E4`
/// seats below. They are served past their first epoch, so each
/// learner picks a rate and the ledger's spent bits (6 of a 96-bit
/// budget) are not zero. Recorded from the rotation arbiter, with the
/// same fleet and [`observables`], before that arbiter was removed.
const ROTATION_DYNAMIC_OBSERVABLES: &str = "log 11485 bbadee127a3c0d3c, \
    traces [4894 cfe3961f4da6c243, 1697 ba63919b162c3627, 4894 cfe3961f4da6c243], \
    spent 4018000000000000, budget 4058000000000000";

#[test]
fn equal_weight_wdrr_replays_the_rotation_arbiter_bit_for_bit() {
    // With every tenant priced identically the WDRR credit rank must
    // short-circuit, so the serve log — cross-tenant *order*, the one
    // thing the arbiter can touch — matches the rotation arbiter's byte
    // for byte. Exercised over a heterogeneous pool,
    // with an eviction mid-run (the survivor fleet is still uniform),
    // for a static fleet and for a dynamic one on a larger pool whose
    // rate changes give the ledger bits to compare.
    let fleets = [
        (
            RatePolicy::Static { rate: 900 },
            2,
            1 << 18,
            ROTATION_OBSERVABLES,
        ),
        (
            RatePolicy::dynamic_paper(4, 4),
            4,
            1 << 21,
            ROTATION_DYNAMIC_OBSERVABLES,
        ),
    ];
    for (policy, n_shards, run, recorded) in fleets {
        let cfg = HostConfig {
            record_traces: true,
            shard_mix: mixed_classes(),
            n_shards,
            capacity: CapacityKind::Cadence,
            ..HostConfig::small()
        };
        let mut host = MultiTenantHost::new(cfg).expect("builds");
        for i in 0..3 {
            // Identical policies => identical worst-case shares.
            host.admit(&spec(&format!("t{i}"), policy.clone()), LoopMode::Open)
                .expect("admit");
        }
        host.run_for(run);
        host.evict(1).expect("evict");
        host.run_for(run);
        assert_eq!(
            observables(&host),
            recorded,
            "{}: equal weights must replay the rotation order",
            policy.label()
        );
    }
}

#[test]
fn arbiter_reorders_ties_but_never_moves_a_grid() {
    // Mixed weights on a contended pool: the arbiter may permute
    // same-cycle port ties, but every tenant's slot trace is pure
    // stream state: the starts and the count of a stream on the same
    // policy and origin, served alone up to the host's clock.
    let cfg = HostConfig {
        record_traces: true,
        n_shards: 1, // one port: every same-cycle tie contends
        capacity: CapacityKind::Cadence,
        ..HostConfig::small()
    };
    let mut host = MultiTenantHost::new(cfg).expect("builds");
    for (i, rate) in [400u64, 1_300, 2_600].into_iter().enumerate() {
        host.admit(
            &spec(&format!("t{i}"), RatePolicy::Static { rate }),
            LoopMode::Open,
        )
        .expect("admit");
    }
    let report = host.run_for(1 << 19);
    let starts = |trace: &[SlotRecord]| trace.iter().map(|s| s.start).collect::<Vec<_>>();
    for t in &report.tenants {
        let stream = host.tenant_stream(t.id);
        let mut alone =
            SlotStream::starting_at(stream.olat(), stream.policy().clone(), stream.origin());
        while alone.next_slot() < host.clock() {
            alone.serve(None);
        }
        assert_eq!(t.slots_served, alone.slots_served(), "{}", t.name);
        assert!(t.slots_served > 50, "{} barely served — weak test", t.name);
        assert_eq!(
            starts(host.tenant_trace(t.id)),
            starts(alone.trace()),
            "{}",
            t.name
        );
    }
    // The weights really were mixed: shares differ tenant to tenant.
    let shares: Vec<f64> = report.tenants.iter().map(|t| t.capacity_share).collect();
    assert!(shares.windows(2).any(|p| p[0] != p[1]));
}

#[test]
fn served_slot_shares_track_weight_shares_across_64_saturating_fleets() {
    // The fairness gate as a seeded property sweep: random pools (shard
    // count, class mix, pricing), random static-rate tenants
    // admitted until the pool saturates, a multi-round run — then every
    // tenant's served-slot share must sit within one quantum's worth of
    // its own slots of its admitted weight share.
    let mut rng = otc_crypto::SplitMix64::new(0xFA1_12E55);
    for case in 0..64u64 {
        let n_shards = 1 + rng.next_below(4) as usize;
        // Once the choice between the calendar and the k-way merge; still
        // drawn, so every case keeps the pool and fleet it always had.
        let _scheduler_coin = rng.next_below(2);
        let capacity = if rng.next_below(2) == 0 {
            CapacityKind::Olat
        } else {
            CapacityKind::Cadence
        };
        let shard_mix = match rng.next_below(3) {
            0 => Vec::new(), // homogeneous small/serial
            1 => mixed_classes(),
            _ => mixed_classes().into_iter().rev().collect(),
        };
        let cfg = HostConfig {
            n_shards,
            capacity,
            shard_mix,
            ..HostConfig::small()
        };
        let quantum = cfg.quantum;
        let mut host = MultiTenantHost::new(cfg).expect("builds");
        let mut rates: Vec<u64> = Vec::new();
        loop {
            let rate = 400 + rng.next_below(4_000);
            match host.admit(
                &spec(&format!("t{}", rates.len()), RatePolicy::Static { rate }),
                LoopMode::Open,
            ) {
                Ok(_) => rates.push(rate),
                Err(HostError::Saturated { .. }) => break,
                Err(e) => panic!("case {case}: unexpected admission error: {e}"),
            }
        }
        if rates.len() < 2 {
            continue; // a one-tenant pool has nothing to arbitrate
        }
        let report = host.run_for(1 << 19);
        assert!(
            report.tenants.iter().any(|t| t.slots_served > 0),
            "case {case}: fleet never served"
        );
        let olat = host.capacity_model().olat();
        let rows = share_deviations(&report, quantum, olat);
        for (t, (weight_share, slot_share, deviation)) in report.tenants.iter().zip(rows) {
            assert!(
                deviation <= FLOOR_QUANTA,
                "case {case} tenant {}: slot share {slot_share:.4} vs weight share \
                 {weight_share:.4} is {deviation:.3} quanta off",
                t.name,
            );
        }
    }
}

#[test]
fn mixed_pool_filled_to_saturation_meets_the_fairness_floor() {
    // The fairness gate on `BENCH_fairness.json`'s fleet: a four-shard
    // small:serial,small:staged pool at cadence pricing (seed 7, 3000
    // slots per tenant), filled with open-loop tenants whose static
    // rates spread weight shares over an order of magnitude.
    const RATES: [u64; 4] = [500, 900, 1_600, 2_800];
    let keys =
        "shards=4 oram=small mix=small:serial,small:staged capacity=cadence seed=7 slots=3000";
    let mut spec = util::flag_spec(keys, util::FILL, 4, false, |i| {
        format!("static_{}", RATES[i % RATES.len()])
    });
    let (mut host, refused) = util::admit(&mut spec);
    assert!(refused.is_some(), "the pool never saturated");
    let report = util::serve(&spec, &mut host);
    let rows = share_deviations(&report, spec.host.quantum, host.capacity_model().olat());
    let worst = rows.iter().map(|r| r.2).fold(0.0f64, f64::max);
    assert!(
        worst <= FLOOR_QUANTA,
        "worst served-vs-weight share deviation {worst:.3} quanta exceeds the \
         {FLOOR_QUANTA}-quantum floor"
    );
    let h = &spec.host;
    let tenants: Vec<String> = report
        .tenants
        .iter()
        .zip(&rows)
        .map(|(t, (weight_share, slot_share, deviation))| {
            format!(
                "    {{\"name\": \"{}\", \"rate\": {}, \"weight_share\": {weight_share:.6}, \
                 \"slot_share\": {slot_share:.6}, \"slots\": {}, \
                 \"deviation_quanta\": {deviation:.4}}}",
                t.name, t.final_rate, t.slots_served
            )
        })
        .collect();
    let record = format!(
        "{{\n  \"bench\": \"fairness_sweep\",\n  \"config\": {{\"seed\": {}, \"shards\": {}, \
         \"oram\": \"{}\", \"shard_mix\": \"{}\", \"capacity_pricing\": \"{}\", \
         \"quantum\": {}, \"slots_per_tenant\": {}}},\n  \"pipeline\": \"{}\",\n  \
         \"tenants_admitted\": {},\n  \"total_slots\": {},\n  \"tenants\": [\n{}\n  ],\n  \
         \"max_deviation_quanta\": {worst:.4},\n  \"gate_quanta\": {FLOOR_QUANTA:.2},\n  \
         \"gate_passed\": {}\n}}\n",
        h.seed,
        h.shards,
        h.oram.label(),
        h.mix_label(),
        report.capacity,
        h.quantum,
        h.slots,
        report.pipeline_label,
        spec.tenants.len(),
        report.tenants.iter().map(|t| t.slots_served).sum::<u64>(),
        tenants.join(",\n"),
        worst <= FLOOR_QUANTA
    );
    util::assert_text_eq(
        "BENCH_fairness.json",
        &record,
        include_str!("../../../BENCH_fairness.json"),
    );
}
