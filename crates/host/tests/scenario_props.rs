//! Property tests for the scenario grammar (proptest shim;
//! deterministic per-test seeds, no shrinking).
//!
//! 1. **Round-trip** — for random well-formed [`ScenarioSpec`]s (host
//!    knobs, tenant rows across every traffic model and adversary kind,
//!    churn events), `parse_scenario(spec.render())` reproduces the
//!    spec exactly, and the canonical render is a parse fixed point.
//! 2. **Totality** — the parser never panics, whatever the input:
//!    random bytes, and single-byte mutations / truncations of the
//!    shipped example scenario (the adversarial neighborhood of real
//!    input).
//! 3. **Golden churn shim** — the legacy `--churn-script` grammar,
//!    now a shim over the scenario event parser, still interprets a
//!    pinned legacy script exactly as the pre-shim parser did
//!    (`tests/golden/churn_script.golden`).
//! 4. **Accepted schemes are sound** — every scheme `parse_scheme`
//!    accepts builds a `SlotStream` and its leakage parameters, prices
//!    at admission without panicking, and labels its policy with the
//!    string it was parsed from (so `|R|` is what the name says),
//!    including near the
//!    grammar's edges (|R| of 0..3, epoch growths that are not powers
//!    of two, rate 0, rates at and past `MAX_STATIC_RATE` and at the
//!    top of `u64`).

use otc_host::{
    parse_churn_script, parse_scenario, parse_scheme, AdversaryKind, CapacityKind, CapacityModel,
    OramChoice, PipelineKind, ScenarioAction, ScenarioEvent, ScenarioHost, ScenarioSpec,
    ScenarioTenant, SchedulerKind, SlotStream, TenantSpec, TrafficModel, MAX_STATIC_RATE,
};
use otc_workloads::SpecBenchmark;
use proptest::prelude::*;

fn bench_strategy() -> BoxedStrategy<SpecBenchmark> {
    sample::select(vec![
        SpecBenchmark::Mcf,
        SpecBenchmark::Hmmer,
        SpecBenchmark::Libquantum,
        SpecBenchmark::Sjeng,
        SpecBenchmark::Gobmk,
        SpecBenchmark::AstarRivers,
        SpecBenchmark::PerlbenchSplitmail,
    ])
    .boxed()
}

fn scheme_strategy() -> BoxedStrategy<String> {
    sample::select(vec![
        "static_800",
        "static_1000",
        "static_1300",
        "dynamic_R4_E4",
        "dynamic_R2_E2",
    ])
    .prop_map(String::from)
    .boxed()
}

/// Every traffic model, drawn within its `validate()` envelope (bursty
/// means ≥ 1; diurnal period ≥ 1, amplitude ≤ 1e6 ppm; replay gaps
/// non-empty, repeat ≥ 1).
fn traffic_strategy() -> BoxedStrategy<TrafficModel> {
    prop_oneof![
        3 => Just(TrafficModel::Workload),
        3 => (1u64..200_000, 1u64..200_000, any::<u64>()).prop_map(|(on, off, seed)| {
            TrafficModel::Bursty { mean_on: on, mean_off: off, seed }
        }),
        3 => (1u64..500_000, 0u32..=1_000_000, 0u32..1_000_000).prop_map(|(p, a, ph)| {
            TrafficModel::Diurnal { period: p, amplitude_ppm: a, phase_ppm: ph }
        }),
        2 => (collection::vec(1u64..50_000, 1..6), 1u32..4).prop_map(|(gaps, repeat)| {
            TrafficModel::Replay { gaps, repeat }
        }),
    ]
    .boxed()
}

fn host_strategy() -> BoxedStrategy<ScenarioHost> {
    let knobs = (
        1usize..6,
        sample::select(vec![OramChoice::Small, OramChoice::Paper]),
        sample::select(vec![PipelineKind::Serial, PipelineKind::Staged]),
        sample::select(vec![CapacityKind::Olat, CapacityKind::Cadence]),
    );
    let rest = (
        0usize..5,
        (1u64 << 14)..(1u64 << 18),
        1u64..64,
        any::<u64>(),
        1u64..100_000,
    );
    let mix = collection::vec(
        (
            sample::select(vec![OramChoice::Small, OramChoice::Paper]),
            sample::select(vec![PipelineKind::Serial, PipelineKind::Staged]),
        ),
        0..4,
    );
    (knobs, rest, mix)
        .prop_map(
            |(
                (shards, oram, pipeline, capacity),
                (threads, quantum, limit_bits, seed, slots),
                mix,
            )| ScenarioHost {
                shards,
                oram,
                pipeline,
                capacity,
                scheduler: SchedulerKind::Calendar,
                threads,
                quantum,
                limit_bits,
                seed,
                slots,
                mix,
            },
        )
        .boxed()
}

/// One tenant row sans name (assembly assigns unique names). The
/// contradictions the grammar rejects are resolved here the same way a
/// valid file must: adversary seats drop traffic/closed, replay is
/// open-loop only.
fn tenant_strategy() -> BoxedStrategy<ScenarioTenant> {
    let core = (
        bench_strategy(),
        scheme_strategy(),
        any::<bool>(),
        traffic_strategy(),
    );
    let extras = (
        prop_oneof![
            4 => Just(None),
            1 => Just(Some(AdversaryKind::Probe)),
            1 => Just(Some(AdversaryKind::Distinguisher)),
        ],
        prop_oneof![
            2 => Just(None),
            1 => (1_000u64..1_000_000).prop_map(Some),
        ],
    );
    (core, extras)
        .prop_map(
            |((bench, scheme, closed, traffic), (adversary, instructions))| {
                let traffic = if adversary.is_some() {
                    TrafficModel::Workload
                } else {
                    traffic
                };
                let closed = closed
                    && adversary.is_none()
                    && !matches!(traffic, TrafficModel::Replay { .. });
                ScenarioTenant {
                    name: String::new(),
                    bench,
                    scheme,
                    closed,
                    traffic,
                    adversary,
                    instructions,
                }
            },
        )
        .boxed()
}

fn action_strategy() -> BoxedStrategy<ScenarioAction> {
    prop_oneof![
        2 => (bench_strategy(), scheme_strategy(), any::<bool>()).prop_map(|(b, s, c)| {
            ScenarioAction::Admit { bench: b, scheme: s, closed: c }
        }),
        1 => (0usize..6).prop_map(|id| ScenarioAction::Evict { id }),
        1 => (1usize..6).prop_map(|n| ScenarioAction::Shards { n }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// parse ∘ render = identity on well-formed specs, and render is a
    /// fixed point of the round trip.
    #[test]
    fn scenario_specs_round_trip_through_render(
        host in host_strategy(),
        cores in collection::vec(tenant_strategy(), 1..5),
        actions in collection::vec((1u64..64, action_strategy()), 0..5),
    ) {
        let tenants: Vec<ScenarioTenant> = cores
            .into_iter()
            .enumerate()
            .map(|(i, mut t)| {
                t.name = format!("t{i}");
                t
            })
            .collect();
        let mut events: Vec<ScenarioEvent> = actions
            .into_iter()
            .map(|(round, action)| ScenarioEvent { round, action })
            .collect();
        // The parser returns events round-sorted (stably); a spec is in
        // canonical order iff it is too.
        events.sort_by_key(|e| e.round);
        let spec = ScenarioSpec { host, tenants, events };
        let text = spec.render();
        let reparsed = parse_scenario(&text);
        prop_assert!(
            reparsed.is_ok(),
            "canonical render failed to reparse: {:?}\n{}",
            reparsed.err(),
            text
        );
        let reparsed = reparsed.unwrap();
        prop_assert_eq!(&reparsed, &spec, "round trip changed the spec\n{}", text);
        prop_assert_eq!(reparsed.render(), text, "render is not a fixed point");
    }

    /// Arbitrary bytes never panic the parsers — errors only.
    #[test]
    fn garbage_scenarios_never_panic(bytes in collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_scenario(&text);
        let _ = parse_churn_script(&text);
    }

    /// Whatever `parse_scheme` accepts, otc-core can run and admission
    /// can price: the stream and the leakage parameters build, and the
    /// worst-case share of a shard is a finite fraction, without a panic.
    /// The policy is served under the name it was parsed from.
    #[test]
    fn accepted_schemes_build_streams_and_leakage_params(
        scheme in prop_oneof![
            1 => prop_oneof![
                0u64..4,
                any::<u64>(),
                MAX_STATIC_RATE - 2..MAX_STATIC_RATE + 3,
                u64::MAX - 3..=u64::MAX,
            ]
            .prop_map(|r| format!("static_{r}")),
            3 => (
                prop_oneof![0usize..4, 4usize..40_000],
                prop_oneof![0u32..20, any::<u32>()],
            )
                .prop_map(|(n, g)| format!("dynamic_R{n}_E{g}")),
            // Non-canonical spellings integer parsing would take.
            1 => (0u8..3, sample::select(vec!["0", "+"]), 1u32..40)
                .prop_map(|(field, pad, n)| match field {
                    0 => format!("static_{pad}{n}"),
                    1 => format!("dynamic_R{pad}{n}_E4"),
                    _ => format!("dynamic_R4_E{pad}{n}"),
                }),
        ],
    ) {
        if let Some(policy) = parse_scheme(&scheme) {
            let spec = TenantSpec {
                name: scheme.clone(),
                benchmark: SpecBenchmark::Mcf,
                policy: policy.clone(),
                instructions: 1_000,
            };
            prop_assert_eq!(policy.label(), scheme.clone());
            prop_assert!(policy.leakage_params().rate_count >= 1, "{}", scheme);
            for kind in [CapacityKind::Olat, CapacityKind::Cadence] {
                let pool = CapacityModel::from_parts(kind, 1_300, 700);
                let share = spec.worst_case_utilization(&pool);
                prop_assert!(share > 0.0 && share <= 1.0, "{} prices at {}", scheme, share);
            }
            let stream = SlotStream::new(1_300, policy);
            prop_assert!(stream.next_slot() > 0, "{}", scheme);
        }
    }

    /// Single-byte mutations and truncations of the shipped example —
    /// the adversarial neighborhood of real input — never panic either.
    /// (A mutation may still parse; only totality is asserted.)
    #[test]
    fn mutated_example_never_panics(
        pos in 0usize..4096,
        delta in 1u8..255,
        cut in 0usize..4096,
    ) {
        const EXAMPLE: &str = include_str!("../../../examples/mixed_pool.scenario");
        let mut bytes = EXAMPLE.as_bytes().to_vec();
        let p = pos % bytes.len();
        bytes[p] = bytes[p].wrapping_add(delta);
        let cut = cut % (bytes.len() + 1);
        let text = String::from_utf8_lossy(&bytes[..cut]);
        let _ = parse_scenario(&text);
    }
}

/// The `--churn-script` shim interprets the pinned legacy script
/// exactly as the pre-shim parser did: same events, same round-sorting,
/// benches normalized to full names, blank segments skipped.
#[test]
fn churn_script_shim_matches_the_golden_file() {
    let golden = include_str!("golden/churn_script.golden");
    let mut input = None;
    let mut expect = Vec::new();
    let mut section = "";
    for line in golden.lines() {
        match line.trim() {
            "# input" => section = "input",
            "# expect" => section = "expect",
            l if l.starts_with('#') || l.is_empty() => {}
            l => match section {
                "input" => {
                    assert!(input.is_none(), "golden file has two input lines");
                    input = Some(l.to_string());
                }
                "expect" => expect.push(l.to_string()),
                _ => panic!("golden line {l:?} outside any section"),
            },
        }
    }
    let input = input.expect("golden file has an input section");
    let events = parse_churn_script(&input).expect("golden script parses");
    let spec = ScenarioSpec {
        events,
        ..ScenarioSpec::default()
    };
    let canonical: Vec<String> = spec
        .render()
        .lines()
        .filter(|l| l.starts_with('@'))
        .map(String::from)
        .collect();
    assert_eq!(
        canonical, expect,
        "churn-script shim drifted from the golden interpretation"
    );
}
