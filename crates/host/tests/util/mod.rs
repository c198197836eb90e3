//! Shared helpers for the host test suites; each suite uses a subset.
#![allow(dead_code)]

use otc_dram::Cycle;
use otc_host::{parse_scenario, HostError, HostReport, MultiTenantHost, ScenarioSpec, ServeEnd};
use otc_workloads::SpecBenchmark;

/// Closed-form slot count for a static grid anchored at `origin`: slots
/// fall at `origin + rate + k·(rate + olat)`, so this counts those
/// strictly before `t`. The single source of truth for "how many slots
/// was this tenant owed" — both churn suites assert against it.
pub fn static_slots_before(t: Cycle, origin: Cycle, rate: Cycle, olat: Cycle) -> u64 {
    let local = t.saturating_sub(origin);
    if local <= rate {
        0
    } else {
        (local - rate - 1) / (rate + olat) + 1
    }
}

/// FNV-1a (64-bit) over `bytes`: the digest the golden transcripts
/// record for long logs and session bytes.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Asserts that `got` is `want` byte for byte. On a mismatch it names
/// `name` and the first line that differs, and prints `got` in full so
/// a change meant to move the text can re-record it from the failure.
#[track_caller]
pub fn assert_text_eq(name: &str, got: &str, want: &str) {
    let first_diff = got
        .lines()
        .zip(want.lines())
        .position(|(a, b)| a != b)
        .unwrap_or(got.lines().count().min(want.lines().count()));
    assert!(
        got == want,
        "{name} diverged at line {}:\n{got}",
        first_diff + 1
    );
}

/// Seats a fill roster offers: a runaway guard, since the stock
/// geometries saturate well below it.
pub const FILL: usize = 64;

/// The spec `otc`'s fleet flags compile to: the `host` line `keys`
/// (`shards=2 oram=small ..`, the host flags under their scenario
/// names) and `k` seats `t0..` cycling `SpecBenchmark::tenant_mix(mix)`,
/// seat `i` on `scheme(i)`. `otc`'s default `--tenants 4` makes `mix`
/// 4 whatever `k` is.
pub fn flag_spec(
    keys: &str,
    k: usize,
    mix: usize,
    closed: bool,
    scheme: impl Fn(usize) -> String,
) -> ScenarioSpec {
    let benches = SpecBenchmark::tenant_mix(mix);
    let closed = if closed { " closed" } else { "" };
    let mut text = format!("host {keys}\n");
    for i in 0..k {
        let bench = benches[i % benches.len()].full_name();
        text += &format!("tenant t{i} bench={bench} scheme={}{closed}\n", scheme(i));
    }
    parse_scenario(&text).expect("a valid scenario")
}

/// The driver's default budget, as `otc` gives it: 50 instructions per
/// slot of the serve target.
fn budget(spec: &ScenarioSpec) -> u64 {
    spec.host.slots * 50
}

/// Builds `spec`'s host and offers it the roster in order. Returns the
/// host and the first seat refused as saturated, if any; `spec` then
/// keeps only the seats before it. Any other refusal panics.
pub fn admit(spec: &mut ScenarioSpec) -> (MultiTenantHost, Option<usize>) {
    let cfg = spec.host_config().expect("the scenario's host is valid");
    let mut host = MultiTenantHost::new(cfg).expect("the host builds");
    match spec.admit_roster(&mut host, budget(spec)) {
        Ok(()) => (host, None),
        Err((seat, HostError::Saturated { .. })) => {
            spec.tenants.truncate(seat);
            (host, Some(seat))
        }
        Err((seat, e)) => panic!("seat {seat} refused: {e}"),
    }
}

/// Serves `spec` on `host` until every tenant has served the slot
/// target, and reports.
pub fn serve(spec: &ScenarioSpec, host: &mut MultiTenantHost) -> HostReport {
    let end = spec.serve(host, budget(spec), |_, _, _| {});
    assert_eq!(end, ServeEnd::Complete);
    host.report()
}
