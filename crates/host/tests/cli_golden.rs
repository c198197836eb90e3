//! The `otc` CLI's absolute output, pinned. Each case runs the built
//! binary on a small seeded invocation and compares its stdout byte for
//! byte with a file under `golden/`. Run-vs-run diffs (a doubled run,
//! serial against threaded) cannot see a change that both runs share,
//! such as one to the scenario driver every serving subcommand uses;
//! these can. A change meant to move the output re-records the file and
//! says why.
//!
//! The degenerate-scheme and bench-flag cases pin that bad external
//! input is a usage error (exit 2) with a message, never a panic (101),
//! an aborting allocation (134) or a run that means nothing.

use std::process::{Command, Output};

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
            "churn",
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
    // saturated) or overflowed admission pricing.
    for scheme in [
        "static_0",
        "static_10000000000000000000",
        "static_18446744073709551615",
        "dynamic_R0_E4",
        "dynamic_R1_E4",
        "dynamic_R4_E3",
        "dynamic_R100000000000_E4",
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
            &["churn", "--oram", "small", "--churn-script", &script][..],
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
