#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload regen_paper --seed 1 --seconds 10 --trace 0

Build output goes to stderr; the last line of stdout is the JSON result.
The build directory is CARGO_TARGET_DIR (default: .bench_build in the
repository root). Exits non-zero, printing no result, when the program's
sources are not next to the benchmark or a build fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        print("perfbench: no program sources next to the benchmark", file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        # The program under test: one fresh process per regen_paper op.
        ["--manifest-path", str(ROOT / "Cargo.toml"), "-p", "bfpp-bench", "--bin", "reproduce_all"],
        # The benchmark harness itself.
        ["--manifest-path", str(HERE / "Cargo.toml")],
    ]
    for args in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 3
    release = target / "release"
    cmd = [
        str(release / "perfbench"),
        *sys.argv[1:],
        "--root", str(ROOT),
        "--reproduce-all", str(release / "reproduce_all"),
        "--spans", str(target / "perfbench-spans"),
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
