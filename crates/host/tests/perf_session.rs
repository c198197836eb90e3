//! Perf-session integration tests against the live host: seeded
//! double-records are byte-identical (the CI artifact diff relies on
//! this), the file decodes back to every record, per-round samples
//! conserve fleet accounting across churn, and recording never
//! perturbs the run it observes.

use otc_core::RatePolicy;
use otc_host::{
    HostConfig, LoopMode, MultiTenantHost, ParallelKind, PerfSession, PipelineConfig, TenantSpec,
};
use otc_workloads::SpecBenchmark;

fn spec(name: &str, rate: u64) -> TenantSpec {
    TenantSpec {
        name: name.into(),
        benchmark: SpecBenchmark::Mcf,
        policy: RatePolicy::Static { rate },
        instructions: 200_000,
    }
}

fn staged_config() -> HostConfig {
    HostConfig {
        pipeline: PipelineConfig::staged(),
        ..HostConfig::small()
    }
}

/// One seeded run with online churn mid-recording: a third tenant
/// admitted, the first evicted, and the shard pool shrunk (folding a
/// live shard's counters into the retired totals) — the shapes that
/// stress the sampler most.
fn churn_run(cfg: HostConfig) -> (MultiTenantHost, PerfSession) {
    let mut host = MultiTenantHost::new(cfg).expect("builds");
    host.add_tenant(&spec("a", 2_400)).expect("admit a");
    host.add_tenant(&spec("b", 3_000)).expect("admit b");
    host.record_perf_session("perf_session churn run");
    for _ in 0..4 {
        host.step_round();
    }
    host.admit(&spec("c", 2_800), LoopMode::Open)
        .expect("admit c");
    for _ in 0..4 {
        host.step_round();
    }
    host.evict(0).expect("evict a");
    for _ in 0..2 {
        host.step_round();
    }
    host.resize_shards(1).expect("shrink pool");
    for _ in 0..4 {
        host.step_round();
    }
    let session = host.take_perf_session().expect("recording was on");
    (host, session)
}

#[test]
fn double_record_is_byte_identical() {
    for cfg in [HostConfig::small(), staged_config()] {
        let (_, first) = churn_run(cfg.clone());
        let (_, second) = churn_run(cfg);
        assert_eq!(
            first.to_bytes(),
            second.to_bytes(),
            "seeded re-record must produce identical session bytes"
        );
    }
}

#[test]
fn threaded_churn_sessions_are_byte_identical_to_serial() {
    // The determinism guarantee the parallel host ships with: the same
    // churn script recorded under Threads(n) produces cmp-equal .otcp
    // bytes for n ∈ {2, 4} — sessions carry no parallelism label, no
    // wall-clock, no thread identity. Serial and staged pipelines both.
    for base in [HostConfig::small(), staged_config()] {
        let (_, reference) = churn_run(base.clone());
        for threads in [2usize, 4] {
            let cfg = HostConfig {
                parallel: ParallelKind::Threads(threads),
                ..base.clone()
            };
            let (_, threaded) = churn_run(cfg);
            assert_eq!(
                threaded.to_bytes(),
                reference.to_bytes(),
                "Threads({threads}) session bytes diverged from Serial"
            );
        }
    }
}

#[test]
fn zero_round_session_renders_and_exports_safely() {
    // Recording switched on and taken before a single round ran: the
    // session has meta + summary but zero round samples. Every consumer
    // — the framed file, the timeline renderer, the JSONL export — must
    // degrade to the header-only form instead of dividing by the empty
    // round count (`otc report --session` on such a file hits exactly
    // this path).
    let mut host = MultiTenantHost::new(HostConfig::small()).expect("builds");
    host.add_tenant(&spec("a", 2_400)).expect("admit a");
    host.record_perf_session("zero rounds");
    let session = host.take_perf_session().expect("recording was on");
    assert!(session.rounds.is_empty());
    assert_eq!(session.summary.rounds, 0);
    let back = PerfSession::from_bytes(&session.to_bytes()).expect("decodes");
    assert_eq!(back, session);
    let text = otc_perf::report::render_session(&session, 64, 8 * session.meta.olat);
    assert!(text.contains("(no rounds recorded)"));
    assert_eq!(session.export_jsonl().lines().count(), 2, "meta + summary");
}

#[test]
fn file_round_trip_preserves_every_record() {
    let (_, session) = churn_run(staged_config());
    assert!(!session.rounds.is_empty());
    let back = PerfSession::from_bytes(&session.to_bytes()).expect("decodes");
    assert_eq!(back, session);
}

#[test]
fn round_samples_conserve_accesses_across_churn() {
    for cfg in [HostConfig::small(), staged_config()] {
        let (_, session) = churn_run(cfg);
        for r in &session.rounds {
            let shard_accesses: u64 = r.shards.iter().map(|s| s.accesses).sum();
            let tenant_slots: u64 = r.tenants.iter().map(|t| t.slots).sum();
            assert_eq!(
                shard_accesses + r.retired_accesses,
                tenant_slots,
                "round {}: live + retired shard accesses must equal slots served",
                r.round
            );
        }
        // The summary histogram covers every access, retired shards
        // included, and its count matches the final round's totals.
        let last = session.rounds.last().expect("nonempty");
        let final_total: u64 =
            last.shards.iter().map(|s| s.accesses).sum::<u64>() + last.retired_accesses;
        assert_eq!(session.summary.service_hist.total(), final_total);
        assert_eq!(session.summary.accesses, final_total);
    }
}

#[test]
fn rounds_are_contiguous_and_clock_advances() {
    let (host, session) = churn_run(HostConfig::small());
    assert_eq!(session.summary.rounds, host.rounds());
    for (i, r) in session.rounds.iter().enumerate() {
        assert_eq!(r.round, i as u64 + 1, "rounds are 1-based and gapless");
    }
    for pair in session.rounds.windows(2) {
        assert!(pair[0].clock < pair[1].clock, "clock strictly advances");
    }
}

#[test]
fn recording_does_not_perturb_the_serve_log() {
    let run = |record: bool| -> (Vec<otc_host::ServedSlot>, u64) {
        let cfg = HostConfig {
            record_traces: true,
            ..staged_config()
        };
        let mut host = MultiTenantHost::new(cfg).expect("builds");
        host.add_tenant(&spec("a", 2_400)).expect("admit a");
        host.add_tenant(&spec("b", 3_000)).expect("admit b");
        if record {
            host.record_perf_session("observer");
        }
        for _ in 0..8 {
            host.step_round();
        }
        (host.serve_log().to_vec(), host.clock())
    };
    let (observed_log, observed_clock) = run(true);
    let (bare_log, bare_clock) = run(false);
    assert_eq!(observed_clock, bare_clock);
    assert_eq!(observed_log, bare_log, "sampling must be read-only");
}
