//! Probes: standalone calls into one layer each, replayed at a
//! workload's shape (geometry, pool, fleet size, rates), timed in
//! nanoseconds per call. Multiplied by the number of calls a workload
//! made, they attribute its step time to layers.

use std::time::Instant;

use otc_core::{EpochSchedule, RatePolicy, SlotStream};
use otc_dram::DdrConfig;
use otc_host::{CalendarQueue, LeakageLedger, ShardClass, ShardedOram, TenantTraffic, TimeQ};
use otc_host::{LoopMode, TrafficPull};
use otc_oram::{OramConfig, RecursivePathOram};
use otc_workloads::SpecBenchmark;

use crate::metrics::Values;
use crate::stats::median;

/// The shape a probe set replays.
pub struct Shape {
    /// Geometry of one ORAM tree.
    pub oram: OramConfig,
    /// The shard pool's classes and size.
    pub pool: Vec<ShardClass>,
    /// Shards in the pool.
    pub shards: usize,
    /// Slot periods (rate + OLAT) of the fleet, one per tenant.
    pub periods: Vec<u64>,
    /// Rate policy of a typical tenant stream.
    pub policy: RatePolicy,
    /// Benchmarks the fleet's frontends run.
    pub benches: Vec<SpecBenchmark>,
    /// Instruction budget of one frontend.
    pub instructions: u64,
    /// Accesses one shard pool serves in one repetition of the workload
    /// (its trees grow as they are touched, so cost per access depends
    /// on how many came before).
    pub pool_accesses: u64,
    /// Access latency of the geometry, used as the closed-loop service
    /// time.
    pub olat: u64,
    /// Round quantum in cycles.
    pub quantum: u64,
}

/// SplitMix64: a tiny deterministic generator for probe addresses.
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64-bit output.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw below `n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Batches per probe; the reported figure is the median batch.
const BATCHES: usize = 5;

/// Median over [`BATCHES`] of `op`'s cost per call in ns, each batch
/// running `calls` calls.
fn time_ns(calls: u64, mut op: impl FnMut()) -> f64 {
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t = Instant::now();
        for _ in 0..calls {
            op();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / calls as f64);
    }
    median(&per_call)
}

/// Runs every probe at `shape`, scaling call counts by `scale` (1.0 =
/// full size), and stores the `*_ns` per-layer metrics.
pub fn run_all(shape: &Shape, seed: u64, scale: f64, out: &mut Values) {
    let n = |full: u64| ((full as f64 * scale) as u64).max(8);
    let mut rng = SplitMix(seed ^ 0x0BE5_C0DE);
    let small = shape.oram.data_block_capacity() < (1 << 16);
    let oram_calls = n(if small { 4000 } else { 400 });

    // Recursive Path ORAM at the workload's geometry, first given as many
    // accesses as one of the workload's shards sees, so the sparse deep
    // levels hold the population the workload's accesses find.
    let mut oram = RecursivePathOram::new(shape.oram.clone().with_seed(seed)).expect("geometry");
    let blocks = shape.oram.data_block_capacity();
    let payload = vec![0xA5u8; shape.oram.data.block_bytes()];
    let per_shard = (shape.pool_accesses as f64 * scale) as u64 / shape.shards as u64;
    for _ in 0..per_shard.max(oram_calls) {
        oram.write(rng.below(blocks), &payload);
    }
    out.set("oram.dummy_ns", time_ns(oram_calls, || oram.dummy_access()));
    out.set(
        "oram.read_ns",
        time_ns(oram_calls, || oram.read_discard(rng.below(blocks))),
    );
    out.set(
        "oram.write_ns",
        time_ns(oram_calls, || oram.write(rng.below(blocks), &payload)),
    );
    drop(oram);

    // The workload's own shard pool, fresh, replaying one repetition's
    // worth of reads at advancing slot times: the mean over the whole
    // replay is the cost per access the workload paid.
    let ddr = DdrConfig::default();
    let mut pool = ShardedOram::with_mix(&shape.pool, &ddr, shape.shards).expect("pool");
    let capacity = pool.capacity();
    let gap = shape.olat / shape.shards as u64 + 1;
    let replay = ((shape.pool_accesses as f64 * scale) as u64).max(oram_calls);
    let t = Instant::now();
    for k in 1..=replay {
        pool.read_discard(rng.below(capacity), k * gap);
    }
    out.set(
        "shard.access_ns",
        t.elapsed().as_nanos() as f64 / replay as f64,
    );
    drop(pool);

    // Calendar: every tenant's next slot due, popped and re-inserted one
    // period later, one quantum at a time.
    let mut cal = CalendarQueue::new(1 << 12, 256);
    for (k, p) in shape.periods.iter().enumerate() {
        cal.insert(k, *p);
    }
    let mut frontier = 0u64;
    let mut ops = 0u64;
    let cal_target = n(200_000);
    let mut per_op = Vec::new();
    for _ in 0..BATCHES {
        let t = Instant::now();
        let start_ops = ops;
        while ops - start_ops < cal_target / BATCHES as u64 {
            frontier += shape.quantum;
            while let Some((k, due)) = cal.pop_due(frontier, |k| k) {
                cal.insert(k, due + shape.periods[k]);
                ops += 1;
            }
        }
        per_op.push(t.elapsed().as_nanos() as f64 / (ops - start_ops) as f64);
    }
    out.set("calendar.op_ns", median(&per_op));

    // One slot stream serving a slot whose request arrived on time.
    let mut stream = SlotStream::new(shape.olat, shape.policy.clone());
    out.set(
        "stream.serve_ns",
        time_ns(n(200_000), || {
            let due = stream.next_slot();
            std::hint::black_box(stream.serve(Some(due)));
        }),
    );

    // Frontends at the workload's benchmarks and budget: open loop pulls
    // requests; closed loop also reports each demand read's completion
    // one OLAT after it arrived. A frontend that runs out is replaced.
    // Compute-bound programs can run long between requests, so each
    // batch is also cut off by time.
    let olat = shape.olat;
    for (metric, mode) in [
        ("traffic.open_ns", LoopMode::Open),
        ("traffic.closed_ns", LoopMode::Closed),
    ] {
        let fresh =
            |b: SpecBenchmark| (TenantTraffic::with_mode(b, shape.instructions, mode), 0u64);
        let mut fronts: Vec<(TenantTraffic, u64)> =
            shape.benches.iter().map(|b| fresh(*b)).collect();
        let mut i = 0usize;
        let per_batch = n(8_000);
        let mut per_call = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let t = Instant::now();
            let mut requests = 0u64;
            while requests < per_batch && t.elapsed().as_millis() < 200 {
                i = (i + 1) % fronts.len();
                let (front, last) = &mut fronts[i];
                match front.poll() {
                    TrafficPull::Request(r) => {
                        *last = r.at;
                        requests += 1;
                    }
                    TrafficPull::AwaitingService => front.complete(*last + olat),
                    TrafficPull::Exhausted => fronts[i] = fresh(shape.benches[i]),
                }
            }
            per_call.push(t.elapsed().as_nanos() as f64 / requests.max(1) as f64);
        }
        out.set(metric, median(&per_call));
    }

    // Ledger: a fleet-sized ledger synced one tenant at a time.
    let mut ledger = LeakageLedger::new();
    let k = shape.periods.len().max(1);
    for t in 0..k {
        ledger.add_tenant(t, 4, EpochSchedule::scaled(4), 1.0 / k as f64);
    }
    let mut j = 0u64;
    out.set(
        "ledger.record_ns",
        time_ns(n(400_000), || {
            j += 1;
            ledger.record_transitions((j % k as u64) as usize, j / k as u64);
        }),
    );

    // TimeQ: one completion per tenant in flight, popped and re-posted.
    let mut q: TimeQ<u64> = TimeQ::new();
    for (t, p) in shape.periods.iter().enumerate() {
        q.push(*p, (t as u64, 0), t as u64);
    }
    out.set(
        "timeq.op_ns",
        time_ns(n(200_000), || {
            let ev = q.pop().expect("queue never drains");
            let t = ev.payload;
            q.push(ev.time + shape.periods[t as usize], ev.tie, t);
        }),
    );
}
