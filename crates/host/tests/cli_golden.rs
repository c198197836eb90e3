//! The `otc` CLI's absolute output, pinned. Each case runs the built
//! binary on a small seeded invocation and compares its stdout byte for
//! byte with a file under `golden/`. Run-vs-run diffs (a doubled run,
//! serial against threaded) cannot see a change that both runs share,
//! such as one to the scenario driver every serving subcommand uses;
//! these can. A change meant to move the output re-records the file and
//! says why.
//!
//! The degenerate-scheme, bench-flag and subcommand cases pin that bad
//! external input is a usage error (exit 2) with a message, never a
//! panic (101), an aborting allocation (134) or a run that means
//! nothing.

use std::path::Path;
use std::process::{Command, Output};

use otc_host::PerfSession;

mod util;

/// Runs `otc` from the repo root, where CI runs it (the scenario case
/// names its file relative to that root).
fn otc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_otc"))
        .args(args)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("the otc binary runs")
}

fn assert_golden(args: &[&str], name: &str, golden: &str) {
    let out = otc(args);
    assert!(
        out.status.success(),
        "otc {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let got = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    util::assert_text_eq(&format!("otc {args:?} vs golden/{name}"), &got, golden);
}

#[test]
fn closed_loop_run_with_traces() {
    assert_golden(
        &[
            "run",
            "--tenants",
            "2",
            "--accesses",
            "200",
            "--oram",
            "small",
            "--seed",
            "7",
            "--closed-loop",
            "--trace",
            "20",
        ],
        "cli_run.golden",
        include_str!("golden/cli_run.golden"),
    );
}

#[test]
fn churn_script_with_a_rejected_event() {
    assert_golden(
        &[
            "run",
            "--tenants",
            "2",
            "--accesses",
            "200",
            "--oram",
            "small",
            "--seed",
            "7",
            "--churn-script",
            "@2 admit mcf static_900; @3 evict 7; @4 shards 3",
        ],
        "cli_churn.golden",
        include_str!("golden/cli_churn.golden"),
    );
}

#[test]
fn tenants_sweep_under_churn_up_to_saturation() {
    assert_golden(
        &[
            "tenants",
            "--tenants",
            "8",
            "--accesses",
            "100",
            "--oram",
            "small",
            "--shards",
            "1",
            "--scheme",
            "static_600",
            "--seed",
            "7",
            "--churn-script",
            "@1 admit hmmer static_5000; @2 evict 0",
        ],
        "cli_tenants.golden",
        include_str!("golden/cli_tenants.golden"),
    );
}

#[test]
fn example_scenario_with_traces() {
    assert_golden(
        &[
            "run",
            "--scenario",
            "examples/mixed_pool.scenario",
            "--trace",
            "10",
        ],
        "cli_scenario.golden",
        include_str!("golden/cli_scenario.golden"),
    );
}

#[test]
fn degenerate_schemes_are_usage_errors() {
    // The two huge static rates once hung `otc run` (the serve bound
    // saturated) or overflowed admission pricing; dynamic_R1246_E4 was
    // served with only 1245 candidate rates, and the last two under
    // their labels `dynamic_R4_E4` and `static_300`.
    for scheme in [
        "static_0",
        "static_10000000000000000000",
        "static_18446744073709551615",
        "dynamic_R0_E4",
        "dynamic_R1_E4",
        "dynamic_R4_E3",
        "dynamic_R1246_E4",
        "dynamic_R100000000000_E4",
        "dynamic_R04_E4",
        "static_+300",
    ] {
        let script = format!("@1 admit mcf {scheme}");
        for args in [
            &[
                "run",
                "--oram",
                "small",
                "--tenants",
                "1",
                "--scheme",
                scheme,
            ][..],
            &["leakage", "--scheme", scheme][..],
            &["run", "--oram", "small", "--churn-script", &script][..],
        ] {
            let out = otc(args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "otc {args:?}: {stderr}");
            assert!(
                stderr.contains(scheme),
                "otc {args:?} names no scheme: {stderr}"
            );
        }
    }
}

#[test]
fn meaningless_bench_flags_are_usage_errors() {
    // Each row exits before any fleet serves. `--perf-session` is
    // ignored with a warning, as on `report` and `leakage`, so that row
    // still fails on the missing sweep.
    for (args, needle) in [
        (&["bench"][..], "exactly one of --spine and --wallclock"),
        (&["bench", "--spine", "--wallclock"][..], "exactly one of"),
        (
            &["bench", "--wallclock", "--gate", "-5"][..],
            "--gate \"-5\"",
        ),
        (
            &["bench", "--wallclock", "--gate", "nan"][..],
            "--gate \"nan\"",
        ),
        (&["bench", "--spine", "--gate", "inf"][..], "--gate \"inf\""),
        (&["bench", "--admission"][..], "unknown option: --admission"),
        (&["bench", "--fairness"][..], "unknown option: --fairness"),
        (
            &["bench", "--wallclock", "--json"][..],
            "unknown option: --json",
        ),
        (
            &["bench", "--perf-session", "unused.otcp"][..],
            "--perf-session does not apply to `otc bench`",
        ),
    ] {
        let out = otc(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "otc {args:?}: {stderr}");
        assert!(stderr.contains(needle), "otc {args:?}: {stderr}");
    }
}

#[test]
fn unknown_subcommands_are_usage_errors() {
    // Online churn is `otc run --churn-script`; `churn` is no subcommand.
    for args in [
        &["churn", "--tenants", "2", "--oram", "small"][..],
        &["churn", "--churn-script", "@1 shards 2"][..],
        &["serve"][..],
    ] {
        let out = otc(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "otc {args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("otc: unknown subcommand {:?}\n", args[0])),
            "otc {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "otc {args:?} printed to stdout");
    }
}

#[test]
fn tenants_sweep_that_serves_no_fleet_writes_no_session() {
    // K=1 saturates, so no fleet serves and nothing is sampled: the
    // sweep must say that it wrote no session and fail, as a failed
    // write does, rather than exit 0 with no file.
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_saturated.otcp");
    let _ = std::fs::remove_file(&path);
    let path_str = path.to_str().expect("UTF-8 path");
    let out = otc(&[
        "tenants",
        "--tenants",
        "2",
        "--shards",
        "1",
        "--scheme",
        "static_1",
        "--perf-session",
        path_str,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("SATURATED"),
        "the K=1 row reports the saturation"
    );
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.starts_with(&format!("otc: failed to write perf session {path_str}: ")),
        "{stderr}"
    );
    assert!(!path.exists(), "a session file was written");
}

#[test]
fn leakage_verdict_and_admission_agree_at_the_limit() {
    // dynamic_R4_E4 (the default scheme) leaks 32 bits: a 32-bit limit
    // admits it, a 31-bit one refuses it, and `otc leakage` reports the
    // verdict admission reaches.
    for (limit, verdict, admitted) in [("32", "(admissible)", true), ("31", "REJECTED", false)] {
        let out = otc(&["leakage", "--scheme", "dynamic_R4_E4", "--limit", limit]);
        assert!(out.status.success(), "otc leakage --limit {limit}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().expect("a verdict line");
        assert!(
            line.starts_with("  processor limit L") && line.contains(verdict),
            "--limit {limit}: {line}"
        );
        let out = otc(&[
            "run",
            "--tenants",
            "1",
            "--oram",
            "small",
            "--accesses",
            "20",
            "--limit",
            limit,
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        if admitted {
            assert_eq!(out.status.code(), Some(0), "--limit {limit}: {stderr}");
        } else {
            assert_eq!(out.status.code(), Some(1), "--limit {limit}: {stderr}");
            assert!(
                stderr.contains("leakage parameters allow 32 bits, limit is 31"),
                "{stderr}"
            );
        }
    }
}

#[test]
fn report_renders_each_shard_with_its_own_stage_units() {
    // The mixed pool alternates serial shards (one stage unit) with
    // staged ones (four): every stage row `otc report` prints belongs
    // to a unit its shard has, so none is blank from end to end.
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_mixed_pool.otcp");
    let path = path.to_str().expect("UTF-8 path");
    let out = otc(&[
        "run",
        "--scenario",
        "examples/mixed_pool.scenario",
        "--perf-session",
        path,
    ]);
    assert!(out.status.success(), "recording failed: {out:?}");
    let out = otc(&["report", "--session", path]);
    assert!(out.status.success(), "otc report: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("  shard ") && l.contains(" unit "))
        .collect();
    for row in &rows {
        let cells = row.split('|').nth(1).expect("a timeline");
        assert!(!cells.trim().is_empty(), "all-blank stage row: {row}");
    }
    // Shards 0 and 2 are serial, 1 and 3 (the regrown pool) staged.
    let units = |shard: usize| {
        let prefix = format!("  shard {shard} unit ");
        rows.iter().filter(|l| l.starts_with(&prefix)).count()
    };
    assert_eq!((units(0), units(1), units(2), units(3)), (1, 4, 1, 4));
}

/// Records `otc run --tenants 2 --accesses 200 --oram small --seed 7`
/// into `name` under the test scratch directory and decodes it.
fn recorded_session(name: &str) -> PerfSession {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let out = otc(&[
        "run",
        "--tenants",
        "2",
        "--accesses",
        "200",
        "--oram",
        "small",
        "--seed",
        "7",
        "--perf-session",
        path.to_str().expect("UTF-8 path"),
    ]);
    assert!(out.status.success(), "recording failed: {out:?}");
    let bytes = std::fs::read(&path).expect("the session was written");
    PerfSession::from_bytes(&bytes).expect("the session decodes")
}

/// Writes `bytes` to `name` under the test scratch directory and runs
/// `otc report` on it, with `--jsonl` when `jsonl` is set.
fn report(name: &str, bytes: &[u8], jsonl: bool) -> (String, Output) {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, bytes).expect("writes");
    let path = path.to_str().expect("UTF-8 path").to_string();
    let mut args = vec!["report", "--session", &path];
    if jsonl {
        args.push("--jsonl");
    }
    let out = otc(&args);
    (path, out)
}

#[test]
fn report_refuses_corrupt_sessions() {
    // A session recorded by the binary, then corrupt copies: one byte
    // short, one byte long, round frames 2 and 3 swapped, the last round
    // frame dropped, a summary histogram of zero width, and a round
    // whose capacity share is NaN or infinite. Each, rendered or
    // exported, is a runtime error: exit 1, one line naming the file and
    // what is wrong, nothing printed.
    let good = recorded_session("cli_report_good.otcp");
    assert!(good.rounds.len() >= 3, "too few rounds to corrupt");
    let bytes = good.to_bytes();
    let n = bytes.len();
    let reencoded = |corrupt: fn(&mut PerfSession)| {
        let mut s = good.clone();
        corrupt(&mut s);
        s.to_bytes()
    };
    // The summary frame ends the file: its histogram's u64 width, the
    // u32 bucket count, then one u64 per bucket.
    let width = n - 8 * good.summary.service_hist.counts().len() - 4 - 8;
    let mut widthless = bytes.clone();
    widthless[width..width + 8].fill(0);
    let mut appended = bytes.clone();
    appended.push(0);
    let sequence = "corrupt session frame: round ordinals out of sequence";
    let non_finite = "corrupt session frame: non-finite capacity share";
    for (name, corrupt, what) in [
        (
            "truncated",
            bytes[..n - 1].to_vec(),
            "session file truncated",
        ),
        ("appended", appended, "trailing bytes"),
        ("swapped", reencoded(|s| s.rounds.swap(1, 2)), sequence),
        (
            "last_dropped",
            reencoded(|s| {
                s.rounds.pop();
            }),
            sequence,
        ),
        (
            "widthless",
            widthless,
            "corrupt session frame: summary histogram shape",
        ),
        (
            "nan_share",
            reencoded(|s| s.rounds[0].fleet_capacity_share = f64::NAN),
            non_finite,
        ),
        (
            "inf_share",
            reencoded(|s| s.rounds[1].fleet_capacity_share = f64::INFINITY),
            non_finite,
        ),
    ] {
        for jsonl in [false, true] {
            let (path, out) = report(&format!("cli_report_{name}.otcp"), &corrupt, jsonl);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{name} {jsonl}: {stderr}");
            assert!(out.stdout.is_empty(), "{name} {jsonl} printed to stdout");
            assert_eq!(stderr.lines().count(), 1, "{name} {jsonl}: {stderr}");
            assert!(
                stderr.starts_with(&format!("otc report: {path}: ")) && stderr.contains(what),
                "{name} {jsonl}: {stderr}"
            );
        }
    }
}

#[test]
fn report_renders_sessions_with_extreme_counters() {
    // The decoder checks a session's structure, not its values. A
    // recorded session re-encoded with an OLAT of u64::MAX still
    // decodes, and `otc report` must render it rather than overflow
    // pricing its SLO at 8 OLATs.
    let mut session = recorded_session("cli_report_recorded.otcp");
    session.meta.olat = u64::MAX;
    let (_, out) = report("cli_report_olat_max.otcp", &session.to_bytes(), false);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "otc report: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&format!("olat {}", u64::MAX)), "{stdout}");
    assert!(stdout.contains("tenant SLO attainment"), "{stdout}");
}

#[test]
fn report_escapes_the_meta_strings_it_exports() {
    // A decodable session whose pipeline name holds a quote: the JSONL
    // export escapes it, so the meta line stays one JSON object.
    let mut session = recorded_session("cli_report_unquoted.otcp");
    session.meta.pipeline = "ser\"al".into();
    let (_, out) = report("cli_report_quoted.otcp", &session.to_bytes(), true);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "otc report --jsonl: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let meta = stdout.lines().next().expect("a meta line");
    assert!(
        meta.contains(r#","pipeline":"ser\"al","capacity":""#),
        "{meta}"
    );
}
