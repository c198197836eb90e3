//! What the two fleet workloads share: one timed host instance, its
//! digest and conservation checks, and the metrics read off its report
//! and recorded perf session.

use std::time::Instant;

use otc_host::{HostReport, MultiTenantHost, PerfSession, RoundSample, SessionFile};

use crate::metrics::{peak_rss_mb, Checks, Values};
use crate::stats::{median, tail, LayerCost};
use crate::trace::Tracer;

/// One timed host instance: set-up, serve loop, and what it produced.
pub struct FleetRun {
    /// Host construction + initial admissions, seconds.
    pub setup_s: f64,
    /// The serve loop (rounds plus churn events), seconds.
    pub serve_s: f64,
    /// Each `step_round`, milliseconds, in order.
    pub round_ms: Vec<f64>,
    /// The host's report after the last round.
    pub report: HostReport,
    /// Rounds stepped.
    pub rounds: u64,
    /// Admissions and resizes the host refused.
    pub admissions_denied: u64,
    /// Tenants admitted from the offered roster (initial + churn).
    pub admitted: u64,
    /// The recorded perf session, decoded back from its bytes.
    pub session: Option<PerfSession>,
    /// Encoded size of the recorded session.
    pub session_bytes: usize,
}

impl FleetRun {
    /// Slots served, real and dummy.
    pub fn slots(&self) -> u64 {
        self.report.tenants.iter().map(|t| t.slots_served).sum()
    }

    /// Real (non-dummy) slots served.
    pub fn real(&self) -> u64 {
        self.report.tenants.iter().map(|t| t.real_served).sum()
    }

    /// Instructions retired by every tenant frontend.
    pub fn instructions(&self) -> u64 {
        self.report
            .tenants
            .iter()
            .map(|t| t.instructions_retired)
            .sum()
    }

    /// The seeded digest every repetition must reproduce exactly.
    pub fn digest(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("slots", self.slots()),
            ("real", self.real()),
            ("clock", self.report.horizon),
            (
                "spent_bits_milli",
                (self.report.fleet_spent_bits * 1000.0).round() as u64,
            ),
            ("instructions", self.instructions()),
            ("p99_service_cycles", self.report.p99_service_cycles),
        ]
    }
}

/// Serves `rounds` rounds on `host`, calling `between` (churn events)
/// before each round; returns the per-round times in ms and the
/// serve-loop seconds.
pub fn serve(
    host: &mut MultiTenantHost,
    rounds: u64,
    tracer: &mut Tracer,
    mut between: impl FnMut(u64, &mut MultiTenantHost, &mut Tracer),
) -> (Vec<f64>, f64) {
    let mut round_ms = Vec::with_capacity(rounds as usize);
    let start = Instant::now();
    for r in 0..rounds {
        between(r, host, tracer);
        let t = Instant::now();
        tracer.span("host.step_round", || host.step_round());
        round_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    (round_ms, start.elapsed().as_secs_f64())
}

/// Takes the recorded session, encodes it, decodes it back through the
/// indexed reader and checks it: the decode succeeds, holds one sample
/// per round stepped, and every sample conserves accesses.
pub fn finish_session(
    host: &mut MultiTenantHost,
    rounds: u64,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> (Option<PerfSession>, usize) {
    let bytes = tracer.span("perf.finish", || {
        host.take_perf_session().map(|s| s.to_bytes())
    });
    checks.check(bytes.is_some(), || "no perf session was recorded".into());
    let Some(bytes) = bytes else {
        return (None, 0);
    };
    let size = bytes.len();
    let decoded = tracer.span("perf.open", || {
        SessionFile::from_bytes(bytes).and_then(SessionFile::into_session)
    });
    checks.check(decoded.is_ok(), || {
        format!(
            "recorded session fails to decode: {:?}",
            decoded.as_ref().err()
        )
    });
    let Ok(session) = decoded else {
        return (None, size);
    };
    checks.check(session.rounds.len() as u64 == rounds, || {
        format!(
            "session decodes to {} rounds, {rounds} were stepped",
            session.rounds.len()
        )
    });
    let unbalanced = session.rounds.iter().find(|s| !sample_conserves(s));
    checks.check(unbalanced.is_none(), || {
        format!(
            "round {}: shard accesses + retired != tenant slots",
            unbalanced.map_or(0, |s| s.round)
        )
    });
    (Some(session), size)
}

/// Σ shard accesses + retired accesses == Σ tenant slots in one sample.
pub fn sample_conserves(s: &RoundSample) -> bool {
    let shard: u64 = s.shards.iter().map(|x| x.accesses).sum();
    let slots: u64 = s.tenants.iter().map(|t| t.slots).sum();
    shard + s.retired_accesses == slots
}

/// The checks every fleet instance passes: accesses are conserved and
/// every tenant stays within its leakage budget.
pub fn check_report(report: &HostReport, checks: &mut Checks) {
    let shard: u64 = report.shard_accesses.iter().sum::<u64>() + report.retired_shard_accesses;
    let slots: u64 = report.tenants.iter().map(|t| t.slots_served).sum();
    checks.check(shard == slots, || {
        format!("shard accesses + retired = {shard}, tenant slots = {slots}")
    });
    checks.check(report.all_within_budget(), || {
        "a tenant spent more bits than its leakage budget".into()
    });
}

/// Checks that every repetition reproduced the first one's digest.
pub fn check_repeatable(runs: &[FleetRun], checks: &mut Checks) {
    let first = runs[0].digest();
    for (i, r) in runs.iter().enumerate().skip(1) {
        let diff = crate::stats::digest_mismatches(&first, &r.digest());
        checks.check(diff.is_empty(), || {
            format!(
                "repetition {i} diverged from the first: {}",
                diff.join(", ")
            )
        });
    }
}

/// End-to-end metrics over the timed repetitions: medians of the host
/// times; the simulated figures come from the first repetition (all
/// repetitions are checked identical).
pub fn end_to_end(runs: &[FleetRun]) -> Values {
    let mut v = Values::default();
    let per = |f: &dyn Fn(&FleetRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    v.set("setup_s", per(&|r| r.setup_s));
    v.set("slots_per_s", per(&|r| r.slots() as f64 / r.serve_s));
    v.set(
        "sim_minstr_per_s",
        per(&|r| r.instructions() as f64 / r.serve_s / 1e6),
    );
    v.set("peak_rss_mb", peak_rss_mb());
    let r = &runs[0];
    v.set(
        "real_per_mcycle",
        r.real() as f64 / (r.report.horizon as f64 / 1e6),
    );
    v.set("real_fraction", r.real() as f64 / r.slots() as f64);
    v
}

/// One line on run-to-run variation inside this invocation: serve-loop
/// throughput and set-up time of every repetition.
pub fn repetition_note(runs: &[FleetRun]) -> String {
    let rates: Vec<f64> = runs.iter().map(|r| r.slots() as f64 / r.serve_s).collect();
    let setups: Vec<f64> = runs.iter().map(|r| r.setup_s * 1e3).collect();
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    format!(
        "slots/s by repetition: {} (quartile spread {:.3}); set-up ms: {} (spread {:.3})",
        list(&rates),
        crate::stats::quartile_spread(&rates),
        setups
            .iter()
            .map(|x| format!("{x:.1}"))
            .collect::<Vec<_>>()
            .join(" "),
        crate::stats::quartile_spread(&setups),
    )
}

/// Span-derived step metrics: one step is one `step_round`.
pub fn step_metrics(runs: &[FleetRun], out: &mut Values) {
    let all: Vec<f64> = runs.iter().flat_map(|r| r.round_ms.clone()).collect();
    let (tail_pct, tail_ms) = tail(&all);
    let p50 = median(&all);
    out.set(
        "setup_ms.p50",
        median(&runs.iter().map(|r| r.setup_s * 1e3).collect::<Vec<_>>()),
    );
    out.set("step_ms.p50", p50);
    out.set("step_ms.tail", tail_ms);
    out.set("step_ms.tail_pct", tail_pct);
    out.set("step_ms.n", all.len() as f64);
    let first16: Vec<f64> = runs
        .iter()
        .map(|r| crate::stats::mean(&r.round_ms[..r.round_ms.len().min(16)]))
        .collect();
    out.set("step_ms.first16_ratio", median(&first16) / p50);
}

/// Exact counts from one instance's report and recorded session.
pub fn layer_counts(run: &FleetRun, out: &mut Values) {
    let rep = &run.report;
    out.set("host.rounds", run.rounds as f64);
    out.set("host.slots", run.slots() as f64);
    out.set("host.real", run.real() as f64);
    out.set("host.admissions_denied", run.admissions_denied as f64);
    out.set("host.tenants_admitted", run.admitted as f64);
    let total: u64 = rep.shard_accesses.iter().sum();
    let max_shard = rep.shard_accesses.iter().copied().max().unwrap_or(0);
    out.set(
        "shard.accesses.max_share",
        if total > 0 {
            max_shard as f64 / total as f64
        } else {
            0.0
        },
    );
    out.set(
        "shard.util.max",
        rep.shard_utilization.iter().copied().fold(0.0, f64::max),
    );
    out.set("shard.queueing_cycles", rep.shard_queueing_cycles as f64);
    out.set("shard.mean_service_cycles", rep.mean_service_cycles);
    out.set("shard.p50_service_cycles", rep.p50_service_cycles as f64);
    out.set("shard.p99_service_cycles", rep.p99_service_cycles as f64);
    out.set(
        "shard.background_drains",
        rep.background_eviction_drains as f64,
    );
    out.set("ledger.spent_bits", rep.fleet_spent_bits);
    out.set("ledger.budget_bits", rep.fleet_budget_bits);
    out.set(
        "core.transitions",
        rep.tenants.iter().map(|t| t.transitions).sum::<u64>() as f64,
    );
    out.set("traffic.instr_retired", run.instructions() as f64);
    out.set(
        "traffic.feedback_cycles",
        rep.tenants.iter().map(|t| t.feedback_cycles).sum::<u64>() as f64,
    );
    out.set(
        "sim.oram_accesses",
        total as f64 + rep.retired_shard_accesses as f64,
    );
    out.set("perf.session_kb", run.session_bytes as f64 / 1024.0);
    if let Some(s) = &run.session {
        let mut per_round = Vec::with_capacity(s.rounds.len());
        let mut prev = 0u64;
        for r in &s.rounds {
            let slots: u64 = r.tenants.iter().map(|t| t.slots).sum();
            per_round.push(slots.saturating_sub(prev) as f64);
            prev = slots;
        }
        out.set("host.slots_per_round.p50", median(&per_round));
        out.set(
            "host.slots_per_round.max",
            per_round.iter().copied().fold(0.0, f64::max),
        );
        let max_of =
            |f: &dyn Fn(&RoundSample) -> u32| s.rounds.iter().map(f).max().unwrap_or(0) as f64;
        out.set("calendar.entries.max", max_of(&|r| r.calendar.entries));
        out.set(
            "calendar.max_bucket_len.max",
            max_of(&|r| r.calendar.max_bucket_len),
        );
        out.set(
            "shard.queue_depth.max",
            max_of(&|r| r.shards.iter().map(|x| x.queue_depth).max().unwrap_or(0)),
        );
        out.set(
            "oram.stash.max",
            max_of(&|r| r.shards.iter().map(|x| x.stash_len).max().unwrap_or(0)),
        );
    }
}

/// Calls each fleet layer received during `run`, for attribution: every
/// slot is one shard access, one calendar pop + insert, one stream
/// serve and one ledger sync; every real slot is one frontend request;
/// on a threaded executor every slot's completion passes the TimeQ.
pub fn layer_costs(
    run: &FleetRun,
    probes: &Values,
    closed: bool,
    threaded: bool,
) -> Vec<LayerCost> {
    let slots = run.slots() as f64;
    let real = run.real() as f64;
    let ns = |m: &str| probes.get(m).unwrap_or(0.0);
    vec![
        LayerCost {
            layer: "attrib.shard",
            calls: slots,
            ns_per_call: ns("shard.access_ns"),
        },
        LayerCost {
            layer: "attrib.calendar",
            calls: slots,
            ns_per_call: ns("calendar.op_ns"),
        },
        LayerCost {
            layer: "attrib.stream",
            calls: slots,
            ns_per_call: ns("stream.serve_ns"),
        },
        LayerCost {
            layer: "attrib.traffic",
            calls: real,
            ns_per_call: ns(if closed {
                "traffic.closed_ns"
            } else {
                "traffic.open_ns"
            }),
        },
        LayerCost {
            layer: "attrib.ledger",
            calls: slots,
            ns_per_call: ns("ledger.record_ns"),
        },
        LayerCost {
            layer: "attrib.timeq",
            calls: if threaded { slots } else { 0.0 },
            ns_per_call: ns("timeq.op_ns"),
        },
    ]
}
