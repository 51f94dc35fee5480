#!/usr/bin/env python3
"""End-to-end benchmark of the solve service (see service_bench.cpp).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload burst --seed 1 --seconds 10 --trace 0

Builds the library and the benchmark driver from source into the build
directory named by CARGO_TARGET_DIR (default .bench_build, relative to the
checkout root), runs the workload, and prints one JSON object as the last
line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics and writes the span log to .bench_out/trace-<workload>-<seed>.json.
Build output and progress go to standard error.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("burst", "batch", "timestep")
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run_checked(cmd, timeout, cwd, env=None):
    """Run cmd, relaying its stderr; return stdout. Fail on error/timeout."""
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"exit code {proc.returncode}: {' '.join(cmd)}")
    return proc.stdout


def build(root, build_dir):
    bench_dir = Path(__file__).resolve().parent
    if not (root / "src" / "solve" / "service.hpp").is_file():
        fail(f"library sources not found under {root / 'src'}")
    # The compiler's scratch files stay inside the build directory too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    # Release on purpose: timings come from an optimized build only.
    run_checked(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, root, env)
    run_checked(["cmake", "--build", str(build_dir), "-j", "4",
                 "--target", "perfbench_service"], BUILD_TIMEOUT_S, root, env)
    exe = build_dir / "perfbench_service"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be >= 1")

    root = Path(__file__).resolve().parent.parent
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = root / build_dir
    exe = build(root, build_dir)

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--trace-file",
                str(out_dir / f"trace-{args.workload}-{args.seed}.json")]
    out = run_checked(cmd, args.seconds + 150, root)
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if not lines:
        fail("benchmark run printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"benchmark run did not end with a JSON line: {lines[-1]!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
