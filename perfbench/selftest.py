#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Runs every workload of BENCHMARK.json at tiny scale (--tiny, one second)
untraced and traced, and checks the contract of each run: exit code 0, a
last line that is one JSON object with exactly the keys correct, attempted,
failed and metrics, correct == true, failed == 0, and every metric that
BENCHMARK.json names for the mode emitted with its unit.

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload, trace, spec):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return problems + ["last line is not a JSON object"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    emitted = result.get("metrics", {})
    for m in wanted:
        got = emitted.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"] or not isinstance(
                got.get("value"), (int, float)):
            problems.append(f"metric {m['name']} emitted as {got}")
    extra = set(emitted) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems = check_run(workload, trace, spec)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{workload} --trace {trace}: {status}", flush=True)
            failures += bool(problems)
    print("selftest " + ("passed" if failures == 0 else f"failed ({failures})"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
