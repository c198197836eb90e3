#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The workloads are spine_k1024,
closed_churn and paper_fig6 (see perfbench/README.md); --smoke shrinks
them to a few seconds and --workload all runs the three in turn.

The build goes to $CARGO_TARGET_DIR (default .bench_build). Build output
goes to standard error; the last line of standard output is the JSON
result. The exit code is non-zero when the build or any correctness check
fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# What the benchmark builds from; hashed so a result names its sources
# even where there is no git checkout.
SOURCES = ("Cargo.toml", "Cargo.lock", "rust-toolchain.toml", "crates", "src", "perfbench")


def source_sha256():
    files = []
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(path)
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files.extend(os.path.join(d, n) for n in names)
    h = hashlib.sha256()
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: the build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_RUSTC"] = command_output(["rustc", "--version"])
    # Only this repository's own history names the commit; a checkout
    # nested in some other repository must not borrow that one's.
    has_git = os.path.exists(os.path.join(ROOT, ".git"))
    env["PERFBENCH_COMMIT"] = command_output(["git", "rev-parse", "HEAD"]) if has_git else "unknown"
    env["PERFBENCH_SOURCE_SHA256"] = source_sha256()
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
