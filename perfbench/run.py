#!/usr/bin/env python3
"""Builds the qosrm binaries and the perfbench harness, then runs one workload.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds go to $CARGO_TARGET_DIR (default
.bench_build); scratch files go to .perfbench/ and spans of traced runs to
.perfbench/traces/. The last stdout line is the result JSON (see
perfbench/GLOSSARY.md).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo(args, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Build chatter goes to stderr: stdout carries only the result.
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        check=True,
    )


def main():
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml")) and os.path.isdir(os.path.join(ROOT, "crates"))):
        print("perfbench: the repository sources (Cargo.toml, crates/) are missing", file=sys.stderr)
        return 2
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    try:
        cargo(["-p", "experiments", "-p", "qosrm-serve", "--bins"], target_dir)
        cargo(["--manifest-path", os.path.join(HERE, "Cargo.toml")], target_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    bin_dir = os.path.join(target_dir, "release")
    harness = [
        os.path.join(bin_dir, "perfbench"),
        *sys.argv[1:],
        "--bin-dir",
        bin_dir,
        "--work-dir",
        os.path.join(ROOT, ".perfbench"),
    ]
    return subprocess.run(harness, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
