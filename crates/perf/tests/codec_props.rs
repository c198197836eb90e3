//! Property tests over the perf-session codec and the exact-percentile
//! helper, driven by the offline proptest shim. Sessions here are
//! *generated*, not recorded — the round-trip must hold for any
//! schema-shaped value, not just the ones the host happens to emit.

use otc_perf::{
    CalendarSample, Histogram, PerfSession, RoundSample, SessionMeta, SessionSummary, ShardSample,
    TenantSample,
};
use proptest::prelude::*;

/// Strategy for one shard's counters with `units` pipeline stages.
fn shard_sample(units: usize) -> impl Strategy<Value = ShardSample> {
    (
        any::<u64>(),
        0u32..100,
        0u32..50,
        proptest::collection::vec(0u64..1 << 40, units..units + 1),
    )
        .prop_map(
            |(accesses, queue_depth, stash_len, stage_busy)| ShardSample {
                accesses,
                queue_depth,
                stash_len,
                stage_busy,
            },
        )
}

/// Strategy for one tenant row (id fixed up after generation).
fn tenant_sample() -> impl Strategy<Value = TenantSample> {
    (
        any::<bool>(),
        0u64..1 << 30,
        0u64..1 << 30,
        (0u64..1 << 40, 0u64..16, 0u64..6),
    )
        .prop_map(
            |(active, slots, real, (queued_cycles, denied, traffic))| TenantSample {
                id: 0,
                active,
                slots,
                real,
                queued_cycles,
                denied,
                traffic: traffic as u8,
            },
        )
}

/// Strategy for a full round sample: draw shard/tenant/unit counts
/// first, then the dependent per-shard and per-tenant vectors — the
/// `Just` + `prop_flat_map` pipeline the shim grew for these tests.
fn round_sample() -> impl Strategy<Value = RoundSample> {
    (1usize..4, 1usize..4, 1usize..5).prop_flat_map(|(shards, tenants, units)| {
        (
            Just(units),
            (any::<u64>(), 0u64..1 << 20, any::<u64>(), 0.0f64..4.0),
            (0u32..64, 0u32..16, 0u32..16),
            proptest::collection::vec(shard_sample(units), shards..shards + 1),
            proptest::collection::vec(tenant_sample(), tenants..tenants + 1),
        )
            .prop_map(
                |(
                    _units,
                    (clock, admissions_denied, retired_accesses, fleet_capacity_share),
                    (entries, occupied_buckets, max_bucket_len),
                    shards,
                    mut tenants,
                )| {
                    for (i, t) in tenants.iter_mut().enumerate() {
                        t.id = i as u32;
                    }
                    RoundSample {
                        round: 0, // fixed up to a consecutive ordinal below
                        clock,
                        admissions_denied,
                        retired_accesses,
                        fleet_capacity_share,
                        calendar: CalendarSample {
                            entries,
                            occupied_buckets,
                            max_bucket_len,
                        },
                        shards,
                        tenants,
                    }
                },
            )
    })
}

/// Strategy for a whole session: meta drawn from the real mode vocab,
/// rounds renumbered 1..=n and the summary counting n rounds, so the
/// decoder's sequence check holds by construction.
fn session() -> impl Strategy<Value = PerfSession> {
    (
        (
            proptest::sample::select(vec!["serial", "staged"]),
            proptest::sample::select(vec!["olat", "cadence"]),
            any::<u64>(),
        ),
        proptest::collection::vec(round_sample(), 1..6),
        (1u64..1 << 20, proptest::collection::vec(0u64..50, 4..12)),
    )
        .prop_map(|((pipeline, capacity, seed), rounds, (width, counts))| {
            let meta = SessionMeta {
                label: format!("prop {pipeline}/{capacity}"),
                seed,
                olat: 400,
                quantum: 1 << 16,
                initial_shards: rounds[0].shards.len() as u32,
                stage_units: rounds[0].shards[0].stage_busy.len() as u32,
                pipeline: pipeline.into(),
                capacity: capacity.into(),
            };
            let accesses: u64 = counts.iter().sum();
            let n = rounds.len() as u64;
            let rounds = rounds
                .into_iter()
                .zip(1..)
                .map(|(r, round)| RoundSample { round, ..r })
                .collect();
            PerfSession {
                meta,
                rounds,
                summary: SessionSummary {
                    rounds: n,
                    clock: n << 16,
                    accesses,
                    service_cycles: accesses * 500,
                    queueing_cycles: accesses * 100,
                    eviction_drains: accesses / 7,
                    service_hist: Histogram::from_parts(width, counts),
                },
            }
        })
}

proptest::proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn encode_decode_round_trips(s in session()) {
        let bytes = s.to_bytes();
        let back = PerfSession::from_bytes(&bytes).expect("decodes");
        prop_assert_eq!(&back, &s);
        // Re-encoding is byte-identical: the format has one canonical
        // serialization per value.
        prop_assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn truncated_files_never_decode(s in session(), cut in 1usize..64) {
        let bytes = s.to_bytes();
        prop_assume!(cut < bytes.len());
        let truncated = &bytes[..bytes.len() - cut];
        prop_assert!(PerfSession::from_bytes(truncated).is_err());
    }

    #[test]
    fn percentile_matches_naive_nearest_rank(
        samples in proptest::collection::vec(0u64..200, 1..80),
        p in 1u32..101,
    ) {
        // Unit-width buckets spanning the domain make the histogram
        // exact, so percentile() must agree with the sorted
        // nearest-rank definition (bucket upper edge = value + 1).
        let mut h = Histogram::new(1, 256);
        for &v in &samples {
            h.record(v);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = (p as usize * sorted.len()).div_ceil(100); // ceil(p·n/100)
        let want = sorted[rank - 1] + 1;
        prop_assert_eq!(h.percentile(p), want);
    }

    #[test]
    fn merged_histogram_percentiles_match_pooled(
        a in proptest::collection::vec(0u64..300, 1..40),
        b in proptest::collection::vec(0u64..300, 1..40),
    ) {
        let mut ha = Histogram::new(4, 128);
        let mut hb = Histogram::new(4, 128);
        let mut pooled = Histogram::new(4, 128);
        for &v in &a {
            ha.record(v);
            pooled.record(v);
        }
        for &v in &b {
            hb.record(v);
            pooled.record(v);
        }
        ha.merge(&hb);
        prop_assert_eq!(ha.total(), pooled.total());
        for p in [1, 25, 50, 75, 99, 100] {
            prop_assert_eq!(ha.percentile(p), pooled.percentile(p));
        }
    }
}
