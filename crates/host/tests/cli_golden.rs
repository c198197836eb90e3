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
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_saturated.otcp");
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
fn report_refuses_corrupt_sessions() {
    // A session recorded by the binary, then four corrupt copies: one
    // byte short, two round entries of the footer index trading offsets
    // (their ordinals still sorted), a trailer pointing at a round
    // frame instead of the index, and a summary frame whose histogram
    // width is zeroed. Each, rendered or exported, is a runtime error:
    // exit 1, one line naming the file, nothing printed. The summary's
    // line names the frame, not the index.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let good = dir.join("cli_report_good.otcp");
    let good_path = good.to_str().expect("UTF-8 path");
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
        good_path,
    ]);
    assert!(out.status.success(), "recording failed: {out:?}");
    let bytes = std::fs::read(&good).expect("the session was written");
    let n = bytes.len();
    let trailer = n - 16; // index offset u64, then an 8-byte magic
    let read_u64 = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    // Index payload: meta and summary offsets, entry count, then
    // entries of round u64, offset u64, len u32.
    let index = read_u64(trailer) as usize + 5;
    assert!(read_u64(index + 16) >= 3, "too few rounds to corrupt");
    let entry = |i: usize| index + 24 + 20 * i;
    let mut swapped = bytes.clone();
    let (a, b) = (entry(1) + 8, entry(2) + 8);
    swapped[a..a + 12].copy_from_slice(&bytes[b..b + 12]);
    swapped[b..b + 12].copy_from_slice(&bytes[a..a + 12]);
    let mut misdirected = bytes.clone();
    misdirected[trailer..trailer + 8].copy_from_slice(&bytes[entry(1) + 8..entry(1) + 16]);
    // Summary payload: six u64 counters, then the histogram's width.
    let width = read_u64(index + 8) as usize + 5 + 48;
    let mut widthless = bytes.clone();
    widthless[width..width + 8].fill(0);
    for (name, corrupt, names) in [
        ("truncated", bytes[..n - 1].to_vec(), None),
        ("swapped", swapped, None),
        ("misdirected", misdirected, None),
        (
            "widthless",
            widthless,
            Some("corrupt session frame: summary histogram shape"),
        ),
    ] {
        let path = dir.join(format!("cli_report_{name}.otcp"));
        std::fs::write(&path, corrupt).expect("writes");
        let path = path.to_str().expect("UTF-8 path");
        for jsonl in [false, true] {
            let mut args = vec!["report", "--session", path];
            if jsonl {
                args.push("--jsonl");
            }
            let out = otc(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "otc {args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "otc {args:?} printed to stdout");
            assert_eq!(stderr.lines().count(), 1, "otc {args:?}: {stderr}");
            assert!(
                stderr.starts_with(&format!("otc report: {path}: ")),
                "otc {args:?}: {stderr}"
            );
            if let Some(what) = names {
                assert!(stderr.contains(what), "otc {args:?}: {stderr}");
            }
        }
    }
}
