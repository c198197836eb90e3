//! Property tests for staged-pipeline safety (proptest shim;
//! deterministic per-test seeds, no shrinking).
//!
//! Random access/churn scripts — reads, writes, dummies, and online
//! shard-pool resizes — run against a `Staged` backend with background
//! eviction, and in lockstep against a `Serial` reference:
//!
//! 1. **Stash-bound safety** — the deferred-eviction queue never grows
//!    past [`MAX_DEFERRED`] and no shard's data-tree stash ever exceeds
//!    `MAX_DEFERRED + 2` paths' blocks; the forced-drain machinery, not
//!    luck, is what holds the line at saturation arrival rates.
//! 2. **Ciphertext equivalence after drain** — once the staged backend
//!    flushes its queues, every live shard's root fingerprint (the §3.2
//!    probe observable) matches the serial reference bit for bit:
//!    deferral reorders write-backs but never skips or invents one.
//! 3. **Functional equivalence** — reads return identical payloads in
//!    both modes throughout, and `check_invariants` holds with
//!    evictions still pending (stash residency is always legal).
//!
//! A second family of properties covers the capacity model the staged
//! cadence feeds (admission pricing): over randomized tree geometries,
//! [`AccessPlan::bottleneck`] is exactly the max stage cost and the
//! stage algebra orders as `bottleneck ≤ critical_path ≤ total` with
//! the staged cadence inside `[bottleneck, total]`; and over directly
//! constructed stage vectors, every cadence figure is monotone in every
//! stage cost — growing any stage can never make a pool look cheaper.

use otc_dram::{Cycle, DdrConfig};
use otc_host::{PipelineConfig, ShardClass, ShardedOram, MAX_DEFERRED};
use otc_oram::{AccessPlan, CapacityKind, CapacityModel, OramConfig, OramTiming, TreeGeometry};
use proptest::prelude::*;

/// One scripted step against both backends, advancing `at` by `gap`.
#[derive(Debug, Clone, Copy)]
enum Op {
    Read { addr: u64 },
    Write { addr: u64 },
    Dummy { shard_draw: u64 },
    Resize { shards_draw: u64 },
}

fn run_script(seed: u64, ops: usize, saturate: bool) {
    let base = OramConfig::small();
    let ddr = DdrConfig::default();
    let pool = |pipeline| {
        let class = ShardClass {
            oram: base.clone(),
            pipeline,
        };
        ShardedOram::with_mix(&[class], &ddr, 2).expect("valid")
    };
    let mut serial = pool(PipelineConfig::serial());
    let mut staged = pool(PipelineConfig::staged());
    let stash_bound = (MAX_DEFERRED + 2) * base.data.levels() as usize * base.data.z();
    let olat = serial.olat();
    let mut rng = otc_crypto::SplitMix64::new(seed);
    let mut at: Cycle = 0;
    let payload = vec![0xA5u8; 64];
    for step in 0..ops {
        // Saturating scripts arrive faster than the serial backend can
        // serve (stressing the queue bound); relaxed ones leave idle
        // windows (stressing the opportunistic drains).
        at += if saturate {
            rng.next_below(olat / 2)
        } else {
            rng.next_below(olat * 3)
        };
        let op = match rng.next_below(8) {
            0..=2 => Op::Read {
                addr: rng.next_below(400),
            },
            3..=5 => Op::Write {
                addr: rng.next_below(400),
            },
            6 => Op::Dummy {
                shard_draw: rng.next_below(64),
            },
            _ => Op::Resize {
                shards_draw: rng.next_below(3),
            },
        };
        match op {
            Op::Read { addr } => {
                let (a, _) = serial.read(addr, at);
                let (b, _) = staged.read(addr, at);
                assert_eq!(a, b, "step {step}: payload diverged");
            }
            Op::Write { addr } => {
                serial.write(addr, &payload, at);
                staged.write(addr, &payload, at);
            }
            Op::Dummy { shard_draw } => {
                let shard = (shard_draw % serial.n_shards() as u64) as usize;
                serial.dummy_access(shard, at);
                staged.dummy_access(shard, at);
            }
            Op::Resize { shards_draw } => {
                // Online churn of the pool itself: grow/shrink between
                // 1 and 3 shards, identically on both sides.
                let n = 1 + shards_draw as usize;
                serial.resize(n).expect("resize");
                staged.resize(n).expect("resize");
            }
        }
        // 1. Bounds hold after every step, not just at the end.
        assert!(
            staged.pending_evictions() <= MAX_DEFERRED * staged.n_shards(),
            "step {step}: {} pending across {} shards (bound {MAX_DEFERRED}/shard)",
            staged.pending_evictions(),
            staged.n_shards()
        );
        for s in 0..staged.n_shards() {
            assert!(
                staged.shard(s).pending_evictions() <= MAX_DEFERRED,
                "step {step}: shard {s} queue over bound"
            );
            assert!(
                staged.shard(s).data_stash_len() <= stash_bound,
                "step {step}: shard {s} stash {} over bound {stash_bound}",
                staged.shard(s).data_stash_len()
            );
        }
    }
    // 3. Invariants hold with evictions still pending…
    for s in 0..staged.n_shards() {
        staged.shard(s).check_invariants();
    }
    // …and 2. after the flush the ciphertext observable matches serial.
    staged.drain_evictions();
    assert_eq!(staged.pending_evictions(), 0);
    for s in 0..staged.n_shards() {
        assert_eq!(
            serial.shard(s).root_fingerprint(),
            staged.shard(s).root_fingerprint(),
            "shard {s}: root fingerprint diverged after drain"
        );
        staged.shard(s).check_invariants();
    }
    // The two modes served identical work.
    assert_eq!(serial.accesses(), staged.accesses());
    assert_eq!(serial.retired_accesses(), staged.retired_accesses());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Saturating random scripts: arrivals outpace serial service, so
    /// the queue bound and forced drains are continuously exercised.
    #[test]
    fn saturating_scripts_stay_bounded_and_equivalent(
        seed in any::<u64>(),
        ops in 40usize..160,
    ) {
        run_script(seed, ops, true);
    }

    /// Relaxed random scripts: idle windows between arrivals exercise
    /// the opportunistic (free) drain path instead.
    #[test]
    fn relaxed_scripts_stay_bounded_and_equivalent(
        seed in any::<u64>(),
        ops in 40usize..160,
    ) {
        run_script(seed, ops, false);
    }

    /// Stage algebra across randomized geometries: the bottleneck is
    /// exactly the max stage cost, the chain `bottleneck ≤
    /// critical_path ≤ total` holds, the stage sum telescopes to OLAT,
    /// and the staged cadence sits in `[bottleneck, total]`.
    #[test]
    fn plan_stage_algebra_over_random_geometries(
        data_levels in 5u32..13,
        posmap_levels in collection::vec(2u32..12, 1..4),
    ) {
        let cfg = OramConfig {
            data: TreeGeometry::new(data_levels, 3, 64, 16),
            // Largest-first, as OramConfig stores them; the level caps
            // only shape costs — AccessPlan::derive is pure timing.
            posmaps: {
                let mut pm: Vec<TreeGeometry> = posmap_levels
                    .iter()
                    .map(|&l| TreeGeometry::new(l.min(data_levels), 3, 32, 16))
                    .collect();
                pm.sort_by_key(|g| std::cmp::Reverse(g.levels()));
                pm
            },
            seed: 0x5EED,
        };
        let ddr = DdrConfig::default();
        let plan = AccessPlan::derive(&cfg, &ddr);
        let max_stage = plan
            .posmap_levels
            .iter()
            .copied()
            .chain([plan.data_read, plan.eviction])
            .max()
            .unwrap();
        prop_assert_eq!(plan.bottleneck(), max_stage);
        prop_assert!(plan.bottleneck() <= plan.critical_path());
        prop_assert!(plan.critical_path() <= plan.total());
        prop_assert_eq!(plan.total(), OramTiming::derive(&cfg, &ddr).latency);
        let cadence = plan.staged_cadence();
        prop_assert!(plan.bottleneck() <= cadence && cadence <= plan.total());
        // The model prices serial pools at OLAT under either kind, and
        // staged pools at OLAT/cadence per kind.
        let serial = |kind| CapacityModel::from_parts(kind, plan.total(), plan.total());
        let staged = |kind| CapacityModel::from_parts(kind, plan.total(), cadence);
        for kind in [CapacityKind::Olat, CapacityKind::Cadence] {
            prop_assert_eq!(serial(kind).effective_cadence(), plan.total());
        }
        prop_assert_eq!(staged(CapacityKind::Olat).effective_cadence(), plan.total());
        prop_assert_eq!(staged(CapacityKind::Cadence).effective_cadence(), cadence);
    }

    /// Cadence monotonicity over directly constructed stage vectors:
    /// growing any single stage cost never lowers the staged cadence,
    /// the OLAT total, or the per-slot utilization either pricing
    /// charges — so a costlier access can never make a tenant look
    /// cheaper to admission.
    #[test]
    fn capacity_cadence_monotone_in_every_stage_cost(
        posmaps in collection::vec(1u64..2_000, 1..5),
        data_read in 1u64..2_000,
        eviction in 1u64..2_000,
        bump_stage in 0usize..6,
        delta in 1u64..1_000,
        rate in 100u64..50_000,
    ) {
        let base = AccessPlan { posmap_levels: posmaps.clone(), data_read, eviction };
        let mut grown = base.clone();
        match bump_stage {
            0 => grown.data_read += delta,
            1 => grown.eviction += delta,
            i => {
                let j = (i - 2) % grown.posmap_levels.len();
                grown.posmap_levels[j] += delta;
            }
        }
        prop_assert!(grown.staged_cadence() >= base.staged_cadence());
        prop_assert!(grown.total() >= base.total());
        prop_assert!(grown.bottleneck() >= base.bottleneck());
        let staged = |kind, plan: &AccessPlan| {
            CapacityModel::from_parts(kind, plan.total(), plan.staged_cadence())
        };
        for kind in [CapacityKind::Olat, CapacityKind::Cadence] {
            let m_base = staged(kind, &base);
            let m_grown = staged(kind, &grown);
            prop_assert!(m_grown.effective_cadence() >= m_base.effective_cadence());
        }
        // Utilization: under one model, a faster grid (smaller rate)
        // costs at least as much as a slower one.
        let m = staged(CapacityKind::Cadence, &base);
        prop_assert!(m.slot_utilization(rate) >= m.slot_utilization(rate + delta));
    }
}
