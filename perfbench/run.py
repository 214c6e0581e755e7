#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench binary from source, runs one
workload, checks its outputs and prints every metric with its unit.

    python3 perfbench/run.py --workload fullbatch-products --seed 1 \
        --seconds 15 --trace 0

Run it from the repository root. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer metrics
with --trace 1. The full result (every metric, timing summaries, run
manifest, output checks) goes to <build>/perfbench-out/. The exit code is 0
only when every operation and output check succeeded.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build; the
first run configures and builds it (CMake, RelWithDebInfo, 4 jobs).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def run_logged(cmd, timeout):
    """Runs a build step; its output goes to stderr only when it fails."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd), 3)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        fail("failed: " + " ".join(cmd), 3)


def build():
    out = build_dir()
    started = time.monotonic()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    remaining = BUILD_TIMEOUT_S - (time.monotonic() - started)
    run_logged(["cmake", "--build", out, "-j", "4", "--target", "perfbench"],
               remaining)
    return os.path.join(out, "perfbench")


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout may not
    be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def print_report(result, error_rate):
    print("== manifest")
    for key, value in result["manifest"].items():
        print(f"  {key} = {value}")
    print("== output checks")
    for check in result["checks"]:
        print(f"  [{'ok' if check['ok'] else 'FAIL'}] {check['name']}: "
              f"{check['detail']}")
    print("== timings (median over samples; highest percentile with >= 10 "
          "samples beyond it)")
    for name, t in result["timings"].items():
        pct = (f", p{t['percentile']:g} {t['percentile_value']:.6g}"
               if t["percentile"] else "")
        print(f"  {name}: median {t['median']:.6g} {t['unit']} "
              f"(n={t['count']}{pct})")
    print("== metrics")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']!r:>24} {m['unit']}")
    print(f"  {'error_rate':34s} {error_rate!r:>24} ratio")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny replicas, one set-up (self-test mode)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)

    binary = build()
    out_dir = os.path.join(build_dir(), "perfbench-out")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tiny", "1" if args.tiny else "0", "--out", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"perfbench exited with {proc.returncode} and no result", 4)
    result = json.loads(lines[-1])
    result["manifest"]["commit"] = commit()
    result["manifest"]["source_sha256"] = source_digest()

    # Exactly the metrics BENCHMARK.json names for this mode, with their
    # units; a missing metric or a unit mismatch fails the run.
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    correct = result["correct"] and proc.returncode == 0
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            result["checks"].append({"name": "metric " + m["name"], "ok": False,
                                     "detail": f"emitted as {got!r}"})
            correct = False
            continue
        metrics[m["name"]] = got
    failed = result["failed"] + (0 if correct else 1)
    error_rate = failed / max(1, result["attempted"])

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    print_report(result, error_rate)
    print(f"== full result: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct and failed == 0 else 1)


if __name__ == "__main__":
    main()
