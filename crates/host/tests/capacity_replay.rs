//! Replay + equivalence suite for the capacity model (the admission
//! analogue of the Serial-vs-Staged pipeline suite):
//!
//! 1. **Serial/olat is the pre-refactor reference, bit for bit** — the
//!    historical admission arithmetic (`util = OLAT / (fastest + OLAT)`
//!    per tenant, `Σ active utils > shards × cap` to deny) is replayed
//!    by hand against `MultiTenantHost::admit`/`evict` under the
//!    default `CapacityKind::Olat` over a seeded admit/evict script and
//!    must match decision for decision, with the denial's
//!    demanded/available floats equal to the bit.
//! 2. **Capacity pricing never moves observables** — the same staged
//!    fleet under olat vs cadence pricing produces bit-identical
//!    open-loop serve logs, slot traces, and ledger fleet sums: the
//!    pricing moves the admission ceiling, never a slot.
//! 3. **The payoff, the admission gate** — a cadence-priced staged pool
//!    admits ≥1.5× the tenants of an olat-priced serial pool on the same
//!    shards and both still meet the same p99 service-time SLO; the
//!    record of those two fills, `BENCH_admission.json`, is rendered
//!    afresh and must match the checked-in file byte for byte. Under
//!    olat pricing a staged pool admits exactly the serial pool's fleet.
//!
//! CI runs this suite twice with fixed seeds: nondeterminism in the
//! capacity math would show up as a diff between runs.

use otc_core::RatePolicy;
use otc_host::{
    CapacityKind, HostConfig, HostError, HostReport, LoopMode, MultiTenantHost, PipelineConfig,
    ScenarioSpec, TenantSpec, MAX_SHARD_UTILIZATION,
};
use otc_oram::{AccessPlan, OramConfig, OramTiming};

mod util;

/// The admission gate's floor: the staged/cadence pool admits at least
/// this many times the serial/olat pool's tenants.
const FLOOR_RATIO: f64 = 1.5;

fn spec(name: &str, policy: RatePolicy) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        benchmark: otc_workloads::SpecBenchmark::Mcf,
        policy,
        instructions: 50_000,
    }
}

#[test]
fn serial_olat_admission_decisions_bit_identical_to_pre_refactor() {
    // Hand-rolled model of the pre-CapacityModel admission control:
    // worst-case utilization olat/(fastest + olat) per tenant, fleet
    // demand summed over *active* tenants, denial iff demand exceeds
    // n_shards × MAX_SHARD_UTILIZATION. Replayed over a seeded
    // admit/evict script against the default (serial pipeline, olat
    // pricing) host; every decision and every denial float must match
    // exactly.
    let cfg = HostConfig::small();
    let n_shards = cfg.n_shards;
    let mut host = MultiTenantHost::new(cfg).expect("builds");
    let olat = OramTiming::derive(&OramConfig::small(), &otc_dram::DdrConfig::default()).latency;
    let mut rng = otc_crypto::SplitMix64::new(0x0CAD_ECE5);
    let mut model_utils: Vec<Option<f64>> = Vec::new(); // None = evicted
    let mut decisions = 0usize;
    for step in 0..200u64 {
        let evict_candidates: Vec<usize> = model_utils
            .iter()
            .enumerate()
            .filter_map(|(i, u)| u.map(|_| i))
            .collect();
        if !evict_candidates.is_empty() && rng.next_below(4) == 0 {
            let id = evict_candidates[rng.next_below(evict_candidates.len() as u64) as usize];
            host.evict(id).expect("evict active tenant");
            model_utils[id] = None;
            continue;
        }
        let policy = match rng.next_below(3) {
            0 => RatePolicy::Static {
                rate: 300 + rng.next_below(4_000),
            },
            1 => RatePolicy::dynamic_paper(4, 4),
            _ => RatePolicy::Static {
                rate: 2_000 + rng.next_below(20_000),
            },
        };
        let fastest = policy.fastest_rate();
        let util = olat as f64 / (fastest + olat) as f64;
        let model_demanded: f64 = model_utils.iter().flatten().sum::<f64>() + util;
        let model_available = n_shards as f64 * MAX_SHARD_UTILIZATION;
        let outcome = host.admit(&spec(&format!("t{step}"), policy), LoopMode::Open);
        decisions += 1;
        if model_demanded > model_available {
            match outcome {
                Err(HostError::Saturated {
                    demanded,
                    available,
                    cadence,
                    pricing,
                }) => {
                    // Bit-for-bit: the f64s, not approximations.
                    assert_eq!(demanded.to_bits(), model_demanded.to_bits(), "step {step}");
                    assert_eq!(
                        available.to_bits(),
                        model_available.to_bits(),
                        "step {step}"
                    );
                    assert_eq!(cadence, olat, "olat pricing charges OLAT");
                    assert_eq!(pricing, CapacityKind::Olat);
                }
                other => panic!("step {step}: model denies, host said {other:?}"),
            }
        } else {
            let id = outcome.unwrap_or_else(|e| panic!("step {step}: model admits, host: {e}"));
            assert_eq!(id, model_utils.len(), "ids stay dense");
            model_utils.push(Some(util));
        }
    }
    assert!(decisions >= 120, "script too short to be meaningful");
    assert!(
        model_utils.iter().flatten().count() > 0,
        "fleet ended empty — the script never exercised a full pool"
    );
}

#[test]
fn serial_pricings_coincide() {
    // A serial shard's pipeline cadence IS its OLAT, so olat and
    // cadence pricing admit exactly the same fleet.
    let fill = |capacity: CapacityKind| -> (usize, f64, f64) {
        let cfg = HostConfig {
            capacity,
            ..HostConfig::small()
        };
        let mut host = MultiTenantHost::new(cfg).expect("builds");
        let mut k = 0usize;
        loop {
            match host.admit(
                &spec(&format!("t{k}"), RatePolicy::Static { rate: 600 }),
                LoopMode::Open,
            ) {
                Ok(_) => k += 1,
                Err(HostError::Saturated {
                    demanded,
                    available,
                    ..
                }) => return (k, demanded, available),
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
    };
    let (k_olat, d_olat, a_olat) = fill(CapacityKind::Olat);
    let (k_cadence, d_cadence, a_cadence) = fill(CapacityKind::Cadence);
    assert_eq!(k_olat, k_cadence);
    assert_eq!(d_olat.to_bits(), d_cadence.to_bits());
    assert_eq!(a_olat.to_bits(), a_cadence.to_bits());
}

#[test]
fn capacity_pricing_never_moves_observables() {
    // Same staged fleet admitted under both pricings (sized to fit
    // under the tighter olat pricing): open-loop serve logs, slot
    // traces, and ledger fleet sums are bit-identical. The pricing
    // moves the admission ceiling and nothing else — which is why the
    // leakage story is unchanged by this refactor.
    let build = |capacity: CapacityKind| {
        let cfg = HostConfig {
            record_traces: true,
            pipeline: PipelineConfig::staged(),
            capacity,
            ..HostConfig::small()
        };
        let mut host = MultiTenantHost::new(cfg).expect("builds");
        for (i, rate) in [700u64, 1_100, 1_900].into_iter().enumerate() {
            host.admit(
                &spec(&format!("t{i}"), RatePolicy::Static { rate }),
                LoopMode::Open,
            )
            .expect("fits under both pricings");
        }
        host.run_for(1 << 20);
        host
    };
    let olat = build(CapacityKind::Olat);
    let cadence = build(CapacityKind::Cadence);
    assert!(!olat.serve_log().is_empty());
    assert_eq!(olat.serve_log(), cadence.serve_log());
    for id in 0..3 {
        assert_eq!(
            olat.tenant_trace(id),
            cadence.tenant_trace(id),
            "tenant {id}"
        );
    }
    let (ro, rc) = (olat.report(), cadence.report());
    assert_eq!(
        ro.fleet_budget_bits.to_bits(),
        rc.fleet_budget_bits.to_bits()
    );
    assert_eq!(ro.fleet_spent_bits.to_bits(), rc.fleet_spent_bits.to_bits());
    // What *did* change: the cadence host prices each slot cheaper, so
    // the same fleet claims less of the pool.
    assert_eq!(ro.capacity, CapacityKind::Olat);
    assert_eq!(rc.capacity, CapacityKind::Cadence);
    assert!(rc.effective_cadence < ro.effective_cadence);
    assert!(rc.fleet_demand < ro.fleet_demand);
    assert!(rc.round_slot_capacity > ro.round_slot_capacity);
}

/// Offers the pool the `host` line `keys` describes closed-loop
/// `static_600` seats cycling `tenant_mix(mix)` until it refuses one as
/// saturated. Returns the admitted fleet's spec and its host.
fn fill(keys: &str, mix: usize) -> (ScenarioSpec, MultiTenantHost) {
    let mut spec = util::flag_spec(keys, util::FILL, mix, true, |_| "static_600".into());
    let (host, refused) = util::admit(&mut spec);
    assert!(refused.is_some(), "the pool never saturated");
    (spec, host)
}

/// One of `BENCH_admission.json`'s pools, two small shards (seed 7,
/// 3000 slots per tenant) priced as `pricing` says, filled and served.
fn serve_record_pool(pricing: &str) -> (ScenarioSpec, HostReport) {
    let (spec, mut host) = fill(
        &format!("shards=2 oram=small {pricing} seed=7 slots=3000"),
        4,
    );
    let report = util::serve(&spec, &mut host);
    (spec, report)
}

/// Renders `BENCH_admission.json` from the two pools.
fn admission_record(
    serial: &(ScenarioSpec, HostReport),
    staged: &(ScenarioSpec, HostReport),
    slo: u64,
) -> String {
    let pool = |(spec, r): &(ScenarioSpec, HostReport)| {
        format!(
            "{{\"tenants_admitted\": {}, \"capacity_pricing\": \"{}\", \
             \"effective_cadence\": {}, \"fleet_demand\": {:.4}, \"fleet_capacity\": {:.4}, \
             \"p50_service_cycles\": {}, \"p99_service_cycles\": {}, \
             \"mean_service_cycles\": {:.3}, \"queueing_cycles\": {}}}",
            spec.tenants.len(),
            r.capacity,
            r.effective_cadence,
            r.fleet_demand,
            r.fleet_capacity,
            r.p50_service_cycles,
            r.p99_service_cycles,
            r.mean_service_cycles,
            r.shard_queueing_cycles
        )
    };
    let (spec, h) = (&serial.0, &serial.0.host);
    let ratio = staged.0.tenants.len() as f64 / spec.tenants.len() as f64;
    let slo_met = serial.1.p99_service_cycles <= slo && staged.1.p99_service_cycles <= slo;
    format!(
        "{{\n  \"bench\": \"admission_sweep\",\n  \"config\": {{\"seed\": {}, \"shards\": {}, \
         \"oram\": \"{}\", \"scheme\": \"{}\", \"slots_per_tenant\": {}, \
         \"closed_loop\": true, \"slo_cycles\": {slo}}},\n  \"serial_olat\": {},\n  \
         \"staged_cadence\": {},\n  \"admission_ratio\": {ratio:.3},\n  \"slo_met\": {slo_met},\n  \
         \"gate_ratio\": {FLOOR_RATIO:.2},\n  \"gate_passed\": {}\n}}\n",
        h.seed,
        h.shards,
        h.oram.label(),
        spec.tenants[0].scheme,
        h.slots,
        pool(serial),
        pool(staged),
        slo_met && ratio >= FLOOR_RATIO
    )
}

#[test]
fn cadence_pricing_admits_1_5x_at_the_same_p99_slo() {
    // The admission gate: fill serial/olat and staged/cadence pools on
    // identical shards until saturation, serve both closed-loop, and the
    // staged pool must hold ≥1.5× the tenants while both meet the same
    // p99 service-time SLO of 8 OLATs (the one `otc report` states
    // attainment against).
    let olat = OramTiming::derive(&OramConfig::small(), &otc_dram::DdrConfig::default()).latency;
    let slo = 8 * olat;
    let serial = serve_record_pool("pipeline=serial capacity=olat");
    let staged = serve_record_pool("pipeline=staged capacity=cadence");
    let (serial_k, staged_k) = (serial.0.tenants.len(), staged.0.tenants.len());
    assert!(
        staged_k as f64 >= FLOOR_RATIO * serial_k as f64,
        "staged/cadence admitted {staged_k} vs serial/olat {serial_k}: below the \
         {FLOOR_RATIO}x floor"
    );
    let (serial_p99, staged_p99) = (serial.1.p99_service_cycles, staged.1.p99_service_cycles);
    assert!(
        serial_p99 <= slo && staged_p99 <= slo,
        "p99 SLO {slo} missed: serial {serial_p99} / staged {staged_p99}"
    );
    // The bigger fleet is real work, not accounting: it served more
    // slots over the same per-tenant target, and the pool stayed under
    // its utilization cap.
    let slots = |r: &HostReport| -> u64 { r.tenants.iter().map(|t| t.slots_served).sum() };
    assert!(slots(&staged.1) > slots(&serial.1));
    assert!(staged.1.fleet_demand <= staged.1.fleet_capacity);
    util::assert_text_eq(
        "BENCH_admission.json",
        &admission_record(&serial, &staged, slo),
        include_str!("../../../BENCH_admission.json"),
    );
}

#[test]
fn olat_pricing_admits_staged_shards_like_serial_ones() {
    // Olat pricing charges every slot a full OLAT whatever the
    // pipeline, so a staged pool admits exactly the serial pool's
    // fleet: its extra bandwidth goes unpriced until cadence pricing
    // counts it. Admission only, at the paper geometry.
    let admitted = |pool: &str| fill(&format!("shards=2 {pool}"), 8).0.tenants.len();
    let serial = admitted("pipeline=serial capacity=olat");
    assert_eq!(admitted("pipeline=staged capacity=olat"), serial);
    assert!(admitted("pipeline=staged capacity=cadence") > serial);
}

#[test]
fn eviction_returns_cadence_priced_capacity() {
    // Admission, eviction, and re-admission all price against the same
    // model: a cadence-priced pool filled to the brim re-opens exactly
    // one tenant's worth of headroom per eviction.
    let cfg = HostConfig {
        pipeline: PipelineConfig::staged(),
        capacity: CapacityKind::Cadence,
        ..HostConfig::small()
    };
    let mut host = MultiTenantHost::new(cfg).expect("builds");
    let mut k = 0usize;
    loop {
        match host.admit(
            &spec(&format!("t{k}"), RatePolicy::Static { rate: 600 }),
            LoopMode::Open,
        ) {
            Ok(_) => k += 1,
            Err(HostError::Saturated {
                cadence, pricing, ..
            }) => {
                assert_eq!(pricing, CapacityKind::Cadence);
                assert_eq!(cadence, host.capacity_model().effective_cadence());
                break;
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    assert!(k >= 2, "pool too small for the eviction round-trip");
    let demand_full = host.fleet_demand();
    host.evict(0).expect("evict");
    assert!(host.fleet_demand() < demand_full);
    host.admit(
        &spec("refill", RatePolicy::Static { rate: 600 }),
        LoopMode::Open,
    )
    .expect("eviction must return exactly one tenant's cadence-priced share");
    assert!(
        matches!(
            host.admit(
                &spec("over", RatePolicy::Static { rate: 600 }),
                LoopMode::Open
            ),
            Err(HostError::Saturated { .. })
        ),
        "the refill must have consumed the freed share"
    );
}

#[test]
fn staged_cadence_is_the_plan_figure() {
    // The cadence admission prices at is exactly the AccessPlan's
    // steady-state initiation interval — no second derivation hides in
    // the host layer.
    let plan = AccessPlan::derive(&OramConfig::small(), &otc_dram::DdrConfig::default());
    let cfg = HostConfig {
        pipeline: PipelineConfig::staged(),
        capacity: CapacityKind::Cadence,
        ..HostConfig::small()
    };
    let host = MultiTenantHost::new(cfg).expect("builds");
    assert_eq!(
        host.capacity_model().effective_cadence(),
        plan.staged_cadence()
    );
    assert_eq!(host.capacity_model().olat(), plan.total());
}
