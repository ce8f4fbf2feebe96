#!/usr/bin/env python3
"""Builds and runs the GMT kernel benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <bfs|grw|chma> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark is built from source
with `cargo build --release` into `$CARGO_TARGET_DIR` (default
`.bench_build`). The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 1` the
benchmark's spans are also written as a Chrome trace to
`perfbench/out/<workload>.trace.json` (opens in Perfetto).

Exits non-zero, printing no result, if the build, the run or the check
of its output fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
# A run measures for --seconds, plus set-up, probes and references.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["bfs", "grw", "chma"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    # The runtime reads GMT_* variables (transport, tracing, ring sizes);
    # the benchmark pins its own settings, so none may leak in.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GMT_")}
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)

    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")

    trace_file = HERE / "out" / f"{args.workload}.trace.json"
    cmd = [
        str(target / "release" / "gmt-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
    ]
    if args.trace == "1":
        if trace_file.exists():
            trace_file.unlink()
        cmd += ["--trace-out", str(trace_file)]
    try:
        run = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    if run.returncode != 0:
        fail(f"run failed with exit code {run.returncode}")

    lines = run.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError) as e:
        fail(f"the run printed no JSON result: {e}")
    if set(result) != RESULT_KEYS or result["attempted"] < 1 or not result["metrics"]:
        fail(f"malformed result: {lines[-1]}")
    if args.trace == "1":
        try:
            with open(trace_file) as f:
                events = json.load(f)["traceEvents"]
        except (OSError, ValueError, KeyError) as e:
            fail(f"the Chrome trace {trace_file} does not load: {e}")
        if not events:
            fail(f"the Chrome trace {trace_file} is empty")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
