#!/usr/bin/env python3
"""CI perf gates over bench_kernels and bench --json output.

The positional argument is a google-benchmark JSON from ``bench_kernels
--benchmark_format=json --benchmark_out=kernels.json``; it is checked for
throughput regressions against the committed baseline
(``scripts/perf_baseline.json``) and for the same-run kernel speedup
floors. Each of ``--comm``, ``--plan``, ``--part``, ``--cache``,
``--serve`` and ``--mem`` names one bench's ``--json`` output and runs
that bench's gate (the ``GATES`` table below; each check function says
what it enforces and why). A gate whose section is in the baseline also
checks its headline ratio against the recorded one with the
``MAX_REGRESSION`` allowance. Any combination may be passed in one call;
every failure is reported.

The bench gates run on phantom-mode (or ledger) numbers, which are
deterministic, so their ratios are exact. The kernel floors compare two
rows of the same run on the same host, so they are machine-independent
but noise-sensitive: CI runs the bench with
``--benchmark_enable_random_interleaving=true`` and
``--benchmark_repetitions=5``, and this script prefers the ``median``
aggregate over per-iteration rows when repetitions are present.

Refresh the baseline after an intentional perf change with::

    ./build/bench/bench_kernels --benchmark_format=json \\
        --benchmark_out=kernels.json
    python3 scripts/check_perf.py kernels.json --update

(``--update`` also rewrites the section of every bench JSON passed.)

Exit status is 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Callable

DEFAULT_BASELINE = Path(__file__).resolve().parent / "perf_baseline.json"
COUNTER = "flops_per_s"

# Allowed fractional drop of every gated ratio (and kernel throughput)
# below its recorded baseline. The kernel baseline is machine-specific, so
# on other hosts the throughput half of this check is advisory.
MAX_REGRESSION = 0.25

Check = tuple[list[str], list[str], dict[str, float]]


# --- bench_kernels ------------------------------------------------------


def load_throughputs(path: Path) -> dict[str, float]:
    """Maps benchmark name -> flops_per_s for every benchmark reporting it.

    Aggregate rows (mean/median/stddev from --benchmark_repetitions) are
    skipped except the median, which replaces the per-iteration rows.
    """
    with open(path) as f:
        doc = json.load(f)
    plain: dict[str, float] = {}
    medians: dict[str, float] = {}
    for bench in doc.get("benchmarks", []):
        if COUNTER not in bench:
            continue
        value = float(bench[COUNTER])
        run_type = bench.get("run_type", "iteration")
        if run_type == "aggregate":
            if bench.get("aggregate_name") == "median":
                medians[bench.get("run_name", bench["name"])] = value
            continue
        plain[bench["name"]] = value
    plain.update(medians)
    return plain


def check_regressions(current: dict[str, float],
                      baseline: dict[str, float]) -> list[str]:
    """No throughput regression: every baseline benchmark present in this
    run must reach (1 - MAX_REGRESSION) of its recorded throughput.

    Baseline entries missing from the run (a filtered invocation, a
    renamed benchmark) warn rather than fail.
    """
    failures = []
    compared = 0
    for name, base in sorted(baseline.items()):
        if name not in current:
            # A filtered run or a renamed benchmark, not a perf problem:
            # warn so the gap is visible, but do not fail the gate.
            print(f"warning: baseline benchmark not in current run: {name}",
                  file=sys.stderr)
            continue
        compared += 1
        floor = base * (1.0 - MAX_REGRESSION)
        if current[name] < floor:
            failures.append(
                f"regression: {name}: {current[name]:.3e} {COUNTER} < "
                f"{floor:.3e} (baseline {base:.3e}, allowed -"
                f"{MAX_REGRESSION:.0%})")
    if baseline and compared == 0:
        print("warning: no overlap between baseline and current benchmark "
              "names; regression check skipped", file=sys.stderr)
    return failures


MIN_SPEEDUP = 1.2  # tiled over naive, every /naive/ row with a twin


def check_speedups(current: dict[str, float]) -> tuple[list[str],
                                                       list[str]]:
    """Tiled beats naive on every twin pair by MIN_SPEEDUP."""
    failures, report = [], []
    for name, naive in sorted(current.items()):
        if "/naive/" not in name:
            continue
        twin = name.replace("/naive/", "/tiled/")
        if twin not in current:
            continue
        speedup = current[twin] / naive if naive > 0 else float("inf")
        report.append(f"{twin}: {speedup:.2f}x over naive")
        if speedup < MIN_SPEEDUP:
            failures.append(
                f"speedup below floor: {twin} is {speedup:.2f}x over naive "
                f"(required {MIN_SPEEDUP:.2f}x)")
    return failures, report


LARGE_N = 16384  # row count of the large Spmm/SpmmSkew cases
MIN_PLANNED_SPEEDUP = 1.0  # planned over tiled, every large case
MIN_SKEW_SPEEDUP = 1.2  # planned over tiled, best large SpmmSkew case


def check_planned(current: dict[str, float]) -> tuple[list[str],
                                                      list[str]]:
    """The inspector-executor gate: planned vs tiled on large SpMM cases.

    The planned policy must never lose to tiled on a large graph, and must
    pay off on the heavy-tailed degree distributions it targets.
    """
    failures, report = [], []
    marker = f"/n:{LARGE_N}/"
    best_skew: tuple[float, str] | None = None
    for name, tiled in sorted(current.items()):
        family = name.split("/", 1)[0]
        if family not in ("Spmm", "SpmmSkew"):
            continue
        if "/tiled/" not in name or marker not in name:
            continue
        twin = name.replace("/tiled/", "/planned/")
        if twin not in current:
            print(f"warning: no planned twin for {name}; skipping",
                  file=sys.stderr)
            continue
        speedup = current[twin] / tiled if tiled > 0 else float("inf")
        report.append(f"{twin}: {speedup:.2f}x over tiled")
        if speedup < MIN_PLANNED_SPEEDUP:
            failures.append(
                f"planned below floor: {twin} is {speedup:.2f}x over tiled "
                f"(required {MIN_PLANNED_SPEEDUP:.2f}x)")
        if family == "SpmmSkew":
            if best_skew is None or speedup > best_skew[0]:
                best_skew = (speedup, twin)
    if best_skew is None:
        if report:
            print("warning: no large SpmmSkew planned/tiled pair; skew gate "
                  "skipped", file=sys.stderr)
    elif best_skew[0] < MIN_SKEW_SPEEDUP:
        failures.append(
            f"skew gate: best skewed-degree planned speedup is "
            f"{best_skew[0]:.2f}x ({best_skew[1]}); at least one case must "
            f"reach {MIN_SKEW_SPEEDUP:.2f}x over tiled")
    return failures, report


# --- bench --json gates -------------------------------------------------


def group_rows(rows: list[dict], key_fields: tuple[str, ...],
               *mode_fields: str) -> dict:
    """key -> mode -> row, keyed by the values of key_fields and
    mode_fields (a tuple mode for several fields), or key -> rows in input
    order when no mode field is given."""
    mode = itemgetter(*mode_fields) if mode_fields else None
    groups: dict[tuple, dict | list] = {}
    for row in rows:
        key = tuple(row[f] for f in key_fields)
        if mode is None:
            groups.setdefault(key, []).append(row)
        else:
            groups.setdefault(key, {})[mode(row)] = row
    return groups


COMM_MIN_SPEEDUP = 0.999  # auto over dense, every config
COMM_GATE_GPUS = 2  # low-bandwidth rows: cube-mesh pairs see 2 of 6 links
COMM_GATE_MAX_DEGREE = 2  # ... at this avg degree or below
COMM_GATE_SPEEDUP = 1.2  # auto over dense on those rows


def check_comm(rows: list[dict]) -> Check:
    """The auto-vs-dense exchange gate over bench_comm_volume rows.

    The cost-model selector must never regress a dense-friendly graph, and
    on the low-density low-bandwidth configs the compacted exchange must
    win with strictly fewer wire bytes than the dense broadcast.
    """
    failures, report = [], []
    speedups: dict[str, float] = {}
    gate_rows = 0
    groups = group_rows(rows, ("machine", "gpus", "avg_degree", "permute"),
                        "mode")
    for key, modes in sorted(groups.items()):
        machine, gpus, degree, permute = key
        dense, auto = modes.get("dense"), modes.get("auto")
        if dense is None or auto is None:
            continue
        if auto["epoch_seconds"] <= 0 or dense["epoch_seconds"] <= 0:
            continue
        speedup = dense["epoch_seconds"] / auto["epoch_seconds"]
        name = (f"{machine}/gpus:{gpus}/deg:{degree}/"
                f"perm:{'on' if permute else 'off'}")
        speedups[name] = speedup
        report.append(f"comm {name}: auto {speedup:.2f}x over dense")
        if speedup < COMM_MIN_SPEEDUP:
            failures.append(
                f"comm: auto slower than dense on {name}: {speedup:.3f}x "
                f"(required >= {COMM_MIN_SPEEDUP:.3f}x everywhere)")
        if gpus == COMM_GATE_GPUS and degree <= COMM_GATE_MAX_DEGREE:
            gate_rows += 1
            if speedup < COMM_GATE_SPEEDUP:
                failures.append(
                    f"comm gate: {name} is {speedup:.2f}x over dense "
                    f"(the low-density low-bandwidth config must reach "
                    f"{COMM_GATE_SPEEDUP:.2f}x)")
            if auto["wire_bytes"] >= dense["wire_bytes"]:
                failures.append(
                    f"comm gate: {name} moved {auto['wire_bytes']} wire "
                    f"bytes, not fewer than dense's {dense['wire_bytes']}")
    if gate_rows == 0:
        failures.append(
            f"comm gate: no rows at gpus={COMM_GATE_GPUS} with avg_degree "
            f"<= {COMM_GATE_MAX_DEGREE}; the low-bandwidth gate did not run")
    return failures, report, speedups


PLAN_MIN_SPEEDUP = 0.999  # auto over every fixed strategy
PLAN_WIN_SPEEDUP = 1.15  # auto over 1d, best non-1d-routed config


def check_plan(rows: list[dict]) -> Check:
    """The auto-vs-fixed-strategy planner gate over bench_planner rows.

    The cost-model argmin must never lose to a strategy it could have
    chosen (1d / 15d / replicated), and the mixture-of-parallelism payoff
    regimes the planner targets, where it routes products off the 1d path
    and wins, must still exist.
    """
    failures, report = [], []
    speedups: dict[str, float] = {}
    non_1d_wins = 0
    groups = group_rows(rows, ("machine", "gpus", "n", "avg_degree", "d"),
                        "plan")
    for key, modes in sorted(groups.items()):
        machine, gpus, n, degree, d = key
        auto = modes.get("auto")
        if auto is None or auto["epoch_seconds"] <= 0:
            continue
        name = f"{machine}/gpus:{gpus}/n:{n}/deg:{degree}/d:{d}"
        fixed = {mode: row for mode, row in modes.items()
                 if mode != "auto" and row["epoch_seconds"] > 0}
        for mode, row in sorted(fixed.items()):
            ratio = row["epoch_seconds"] / auto["epoch_seconds"]
            if ratio < PLAN_MIN_SPEEDUP:
                failures.append(
                    f"plan: auto slower than forced {mode} on {name}: "
                    f"{ratio:.3f}x (required >= {PLAN_MIN_SPEEDUP:.3f}x "
                    f"against every fixed strategy)")
        if "1d" in fixed:
            vs_1d = fixed["1d"]["epoch_seconds"] / auto["epoch_seconds"]
            speedups[name] = vs_1d
            plan = auto.get("plan_counters", {})
            routed = (plan.get("products_15d", 0) +
                      plan.get("products_replicated", 0))
            report.append(
                f"plan {name}: auto {vs_1d:.2f}x over 1d "
                f"(products 1d/15d/rep = {plan.get('products_1d', 0)}/"
                f"{plan.get('products_15d', 0)}/"
                f"{plan.get('products_replicated', 0)})")
            if routed > 0 and vs_1d >= PLAN_WIN_SPEEDUP:
                non_1d_wins += 1
    if not speedups:
        failures.append("plan gate: no (auto, 1d) row pairs found; the "
                        "planner gate did not run")
    elif non_1d_wins == 0:
        failures.append(
            f"plan gate: no config where auto routes products off the 1d "
            f"path and beats forced 1d by {PLAN_WIN_SPEEDUP:.2f}x; the "
            f"mixture-of-parallelism payoff regimes are gone")
    return failures, report, speedups


PART_GATE_MIN_GPUS = 8  # the gate applies from this device count up
PART_MIN_SPEEDUP = 0.999  # auto over random
PART_MAX_IMBALANCE = 1.15  # nnz imbalance of every gated partition
PART_WIN_NODES = 8  # node count of the cluster scale-out rows
PART_WIN_SPEEDUP = 1.2  # locality/hier over random, best such row


def check_part(rows: list[dict]) -> Check:
    """The partitioner gate over bench_multinode_scaling rows.

    The locality and hier partitioners must move strictly fewer wire bytes
    than the §5.2 random permutation within the balance contract, auto
    must never lose to random, and the cut-priced cluster scale-out must
    still pay off at the largest node count.
    """
    failures, report = [], []
    speedups: dict[str, float] = {}
    best_win: tuple[float, str] | None = None
    win_groups = 0
    groups = group_rows(rows, ("machine", "gpus", "nodes"), "part")
    for key, modes in sorted(groups.items()):
        machine, gpus, nodes = key
        random = modes.get("random")
        if random is None or random["epoch_seconds"] <= 0:
            continue
        name = f"{machine}/gpus:{gpus}/nodes:{nodes}"
        gated = gpus >= PART_GATE_MIN_GPUS
        for mode in ("locality", "hier", "auto"):
            row = modes.get(mode)
            if row is None or row["epoch_seconds"] <= 0:
                continue
            speedup = random["epoch_seconds"] / row["epoch_seconds"]
            report.append(f"part {name}/{mode}: {speedup:.2f}x over random, "
                          f"wire {row['wire_bytes']} vs "
                          f"{random['wire_bytes']}, imbalance "
                          f"{row['imbalance']:.3f}")
            if mode == "locality":
                speedups[name] = speedup
            if not gated:
                continue
            if row["imbalance"] > PART_MAX_IMBALANCE:
                failures.append(
                    f"part gate: {name}/{mode} imbalance "
                    f"{row['imbalance']:.3f} exceeds the "
                    f"{PART_MAX_IMBALANCE:.2f} balance contract")
            if mode in ("locality", "hier"):
                if row["wire_bytes"] >= random["wire_bytes"]:
                    failures.append(
                        f"part gate: {name}/{mode} moved "
                        f"{row['wire_bytes']} wire bytes, not fewer than "
                        f"random's {random['wire_bytes']}")
                if nodes == PART_WIN_NODES:
                    win_groups += 1
                    if best_win is None or speedup > best_win[0]:
                        best_win = (speedup, f"{name}/{mode}")
            if mode == "auto" and speedup < PART_MIN_SPEEDUP:
                failures.append(
                    f"part gate: auto slower than random on {name}: "
                    f"{speedup:.3f}x (required >= {PART_MIN_SPEEDUP:.3f}x; "
                    f"the cost-model selector must never lose)")
    if win_groups == 0:
        failures.append(
            f"part gate: no locality/hier rows at nodes={PART_WIN_NODES} "
            f"with gpus >= {PART_GATE_MIN_GPUS}; the cluster scale-out gate "
            f"did not run")
    elif best_win is not None and best_win[0] < PART_WIN_SPEEDUP:
        failures.append(
            f"part gate: best locality/hier epoch win at "
            f"nodes={PART_WIN_NODES} is {best_win[0]:.2f}x ({best_win[1]}); "
            f"at least one must reach {PART_WIN_SPEEDUP:.2f}x over random")
    return failures, report, speedups


CACHE_GATE_MIN_GPUS = 4  # the overlap gate applies from here up
CACHE_PIPE_SPEEDUP = 1.3  # pipelined+auto over serialized cache-off
CACHE_MIN_SPEEDUP = 0.999  # auto over pipelined cache-off, every group
CACHE_MONOTONE_EPS = 0.005  # allowed freq hit-rate dip as capacity grows


def check_cache(rows: list[dict]) -> Check:
    """The sampled-pipeline gate over bench_sampled_pipeline rows.

    Overlapping next-batch extraction with training must pay off against
    the serialized DistDGL-style baseline, the cost-model cache selector
    must never lose to running without a cache, and a bigger freq cache
    must never hit less.
    """
    failures, report = [], []
    speedups: dict[str, float] = {}
    gate_groups = 0
    for key, group in sorted(group_rows(rows, ("dataset", "gpus")).items()):
        dataset, gpus = key
        name = f"{dataset}/gpus:{gpus}"

        def pick(engine: str, mode: str) -> dict | None:
            rows_ = [r for r in group if r["engine"] == engine
                     and r["cache_mode"] == mode and r["seconds"] > 0]
            return rows_[0] if rows_ else None

        serial = pick("serialized", "off")
        pipe_off = pick("pipelined", "off")
        pipe_auto = pick("pipelined", "auto")
        if serial is None or pipe_off is None or pipe_auto is None:
            print(f"warning: cache group {name} lacks a serialized/off/auto "
                  f"row; skipped", file=sys.stderr)
            continue

        speedup = serial["seconds"] / pipe_auto["seconds"]
        speedups[name] = speedup
        vs_off = pipe_off["seconds"] / pipe_auto["seconds"]
        report.append(
            f"cache {name}: pipelined+auto {speedup:.2f}x over serialized "
            f"({vs_off:.2f}x over cache-off, hit rate "
            f"{pipe_auto['hit_rate']:.3f}, resolved "
            f"{pipe_auto.get('resolved_mode', '?')})")

        if vs_off < CACHE_MIN_SPEEDUP:
            failures.append(
                f"cache: auto slower than cache-off on {name}: "
                f"{vs_off:.3f}x (required >= {CACHE_MIN_SPEEDUP:.3f}x; the "
                f"cost-model selector must never lose)")

        freq = sorted((r for r in group if r["engine"] == "pipelined"
                       and r["cache_mode"] == "freq"),
                      key=lambda r: r["capacity_fraction"])
        for lo, hi in zip(freq, freq[1:]):
            if hi["hit_rate"] < lo["hit_rate"] - CACHE_MONOTONE_EPS:
                failures.append(
                    f"cache: hit rate not monotone in capacity on {name}: "
                    f"{lo['hit_rate']:.3f} @ {lo['capacity_fraction']} -> "
                    f"{hi['hit_rate']:.3f} @ {hi['capacity_fraction']}")

        if gpus >= CACHE_GATE_MIN_GPUS:
            gate_groups += 1
            if speedup < CACHE_PIPE_SPEEDUP:
                failures.append(
                    f"cache gate: {name} pipelined+auto is {speedup:.2f}x "
                    f"over serialized (required {CACHE_PIPE_SPEEDUP:.2f}x)")
    if gate_groups == 0:
        failures.append(
            f"cache gate: no groups at gpus >= {CACHE_GATE_MIN_GPUS}; the "
            f"pipeline-overlap gate did not run")
    return failures, report, speedups


SERVE_MIN_SPEEDUP = 0.999  # auto cache over off QPS, every policy
SERVE_GATE_MIN_GPUS = 4  # the batching gate applies from here up
SERVE_BATCH_SPEEDUP = 1.2  # deadline over per-request QPS, best group


def check_serve(rows: list[dict]) -> Check:
    """The serving gate over bench_serving rows.

    The cache planner must never lose QPS, and the batching payoff under
    saturating open-loop load must hold without buying it with tail
    latency.
    """
    failures, report = [], []
    speedups: dict[str, float] = {}
    gate_groups = 0
    best_win: tuple[float, str] | None = None
    groups = group_rows(rows, ("dataset", "gpus", "load_qps", "skew"),
                        "policy", "cache_mode")
    for key, cells in sorted(groups.items()):
        dataset, gpus, load, skew = key
        name = f"{dataset}/gpus:{gpus}/load:{load}/skew:{skew}"

        # The auto cache must never lose QPS to off under the same policy.
        for policy in ("per-request", "fixed", "deadline"):
            off = cells.get((policy, "off"))
            auto = cells.get((policy, "auto"))
            if off is None or auto is None or off["qps"] <= 0:
                continue
            ratio = auto["qps"] / off["qps"]
            if ratio < SERVE_MIN_SPEEDUP:
                failures.append(
                    f"serve: auto cache slower than off on {name}/{policy}: "
                    f"{ratio:.3f}x (required >= {SERVE_MIN_SPEEDUP:.3f}x; "
                    f"the cache planner must never lose)")

        per_request = cells.get(("per-request", "off"))
        deadline = cells.get(("deadline", "off"))
        if per_request is None or deadline is None or \
                per_request["qps"] <= 0:
            continue
        speedup = deadline["qps"] / per_request["qps"]
        speedups[name] = speedup
        p99_ok = deadline["p99"] <= per_request["p99"]
        report.append(
            f"serve {name}: deadline {speedup:.2f}x QPS over per-request "
            f"(p99 {deadline['p99'] * 1e6:.1f}us vs "
            f"{per_request['p99'] * 1e6:.1f}us, mean batch "
            f"{deadline['mean_batch']:.1f})")
        if gpus >= SERVE_GATE_MIN_GPUS:
            gate_groups += 1
            if p99_ok and (best_win is None or speedup > best_win[0]):
                best_win = (speedup, name)
    if gate_groups == 0:
        failures.append(
            f"serve gate: no groups at gpus >= {SERVE_GATE_MIN_GPUS}; the "
            f"micro-batching gate did not run")
    elif best_win is None or best_win[0] < SERVE_BATCH_SPEEDUP:
        where = f" (best: {best_win[1]} at {best_win[0]:.2f}x)" \
            if best_win else ""
        failures.append(
            f"serve gate: no group where deadline batching reaches "
            f"{SERVE_BATCH_SPEEDUP:.2f}x per-request QPS at equal-or-better "
            f"p99{where}")
    return failures, report, speedups


MEM_GATE_MIN_GPUS = 4  # the reuse gate applies from here up
MEM_COMBINED_REDUCTION = 1.2  # static over pooled peak, best combined cell


def check_mem(rows: list[dict]) -> Check:
    """The workspace-pool gate over bench_memory_pool rows.

    Ledger peaks are deterministic. The stream-ordered pool must never
    cost memory on any cell, recycling must leave numerics bit-identical
    across MGGCN_POOL modes and sched-fuzz seeds with a silent hazard
    audit, and sharing one pool budget across co-resident components must
    pay off.
    """
    failures, report = [], []
    reductions: dict[str, float] = {}
    best_combined: tuple[float, str] | None = None
    combined_gate_rows = 0
    for row in rows:
        name = (f"{row['workload']}/{row['dataset']}/gpus:{row['gpus']}"
                f"/layers:{row['layers']}")
        reduction = row.get("reduction", 0.0)
        reductions[name] = reduction
        report.append(
            f"mem {name}: pooled {row['pooled_peak_bytes']} B vs static "
            f"{row['static_peak_bytes']} B ({reduction:.2f}x, "
            f"{row.get('reuse_hits', 0)} reuse hits)")

        # The pool must never cost memory: exact-size slabs, the
        # split-waste cap, and trim-before-grow keep the pooled ledger at
        # or below the static scheme's on every workload.
        if row["pooled_peak_bytes"] > row["static_peak_bytes"]:
            failures.append(
                f"mem: pooled peak exceeds static on {name}: "
                f"{row['pooled_peak_bytes']} B > "
                f"{row['static_peak_bytes']} B")
        # Recycling changes where scratch lives, never what it holds.
        if not row.get("parity", False):
            failures.append(
                f"mem: numerics not bit-identical across MGGCN_POOL modes "
                f"x sched-fuzz seeds on {name}")
        if not row.get("hazard_clean", False):
            failures.append(
                f"mem: hazard checker flagged the recycling on {name}")

        if (row["workload"] == "combined"
                and row["gpus"] >= MEM_GATE_MIN_GPUS):
            combined_gate_rows += 1
            if best_combined is None or reduction > best_combined[0]:
                best_combined = (reduction, name)
    if combined_gate_rows == 0:
        failures.append(
            f"mem gate: no combined pipeline+serving cell at gpus >= "
            f"{MEM_GATE_MIN_GPUS}; the cross-component reuse gate did not "
            f"run")
    elif best_combined is None or best_combined[0] < MEM_COMBINED_REDUCTION:
        where = (f" (best: {best_combined[1]} at {best_combined[0]:.2f}x)"
                 if best_combined else "")
        failures.append(
            f"mem gate: no combined cell reaches a "
            f"{MEM_COMBINED_REDUCTION:.2f}x reuse-driven footprint "
            f"reduction{where}")
    return failures, report, reductions


@dataclass(frozen=True)
class Gate:
    flag: str  # --<flag> <json>; also the tag of its failure lines
    bench: str  # the JSON's "bench" field
    keep: Callable[[dict], bool]  # which rows the check sees
    check: Callable[[list[dict]], Check]
    section: str  # baseline section of the ratios check() returns
    ratio: str  # how a regression message words one ratio
    noun: str = "configs"  # what the summary counts


def not_oom(row: dict) -> bool:
    return not row.get("oom")


GATES = (
    Gate("comm", "comm_volume", not_oom, check_comm, "comm_volume",
         "auto is {:.2f}x over dense"),
    Gate("plan", "planner", not_oom, check_plan, "plan",
         "auto is {:.2f}x over 1d"),
    Gate("part", "multinode_scaling", not_oom, check_part, "part",
         "locality is {:.2f}x over random"),
    Gate("cache", "sampled_pipeline", not_oom, check_cache, "cache",
         "pipelined+auto is {:.2f}x over serialized"),
    Gate("serve", "serving", lambda row: row.get("qps", 0) > 0, check_serve,
         "serve", "deadline is {:.2f}x over per-request"),
    Gate("mem", "memory-pool", lambda row: True, check_mem, "mem",
         "footprint reduction is {:.2f}x", noun="cells"),
)


def load_rows(gate: Gate, path: Path) -> list[dict]:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("bench") != gate.bench:
        binary = "bench_" + gate.bench.replace("-", "_")
        raise ValueError(f"{path} is not a {binary} JSON "
                         f"(bench = {doc.get('bench')!r})")
    return [row for row in doc.get("rows", []) if gate.keep(row)]


def check_baseline(gate: Gate, ratios: dict[str, float],
                   baseline: dict[str, float]) -> list[str]:
    """Each recorded ratio must reach (1 - MAX_REGRESSION) of its baseline.

    Configs missing from the run warn; a section none of whose configs is
    in the run fails, because then nothing was compared at all.
    """
    failures = []
    compared = 0
    for name, base in sorted(baseline.items()):
        if name not in ratios:
            print(f"warning: baseline {gate.flag} config not in current "
                  f"run: {name}", file=sys.stderr)
            continue
        compared += 1
        floor = base * (1.0 - MAX_REGRESSION)
        if ratios[name] < floor:
            failures.append(
                f"{gate.flag} regression: {name}: "
                f"{gate.ratio.format(ratios[name])} < {floor:.2f}x "
                f"(baseline {base:.2f}x, allowed -{MAX_REGRESSION:.0%})")
    if compared == 0:
        failures.append(
            f"{gate.flag} baseline: none of the {len(baseline)} configs in "
            f"section '{gate.section}' is in this run; the {gate.flag} "
            f"regression check did not run")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", type=Path, nargs="?", default=None,
                        help="bench_kernels JSON from this run")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="committed baseline JSON (default: %(default)s)")
    for gate in GATES:
        parser.add_argument(f"--{gate.flag}", type=Path, default=None,
                            help=f"bench_{gate.bench.replace('-', '_')} "
                            f"JSON to gate")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from the current run "
                        "instead of checking against it")
    args = parser.parse_args(argv)

    paths = {gate: getattr(args, gate.flag) for gate in GATES}
    if args.current is None and not any(paths.values()):
        flags = ", ".join(f"--{gate.flag} <json>" for gate in GATES)
        print(f"error: pass a bench_kernels JSON, {flags}, or a combination",
              file=sys.stderr)
        return 1

    current: dict[str, float] = {}
    if args.current is not None:
        current = load_throughputs(args.current)
        if not current:
            print(f"error: no '{COUNTER}' counters in {args.current}",
                  file=sys.stderr)
            return 1

    rows = {gate: load_rows(gate, path)
            for gate, path in paths.items() if path is not None}

    if args.update:
        payload = {}
        if args.baseline.exists():
            payload = json.loads(args.baseline.read_text())
        payload.setdefault(
            "_comment",
            "Recorded bench_kernels throughput; refresh with "
            "scripts/check_perf.py <json> --update after an "
            "intentional perf change.")
        payload["counter"] = COUNTER
        if current:
            payload["benchmarks"] = {k: current[k] for k in sorted(current)}
        counts = []
        for gate in GATES:
            ratios = gate.check(rows[gate])[2] if gate in rows else {}
            if gate in rows:
                payload[gate.section] = {k: ratios[k] for k in sorted(ratios)}
            counts.append(f"{len(ratios)} {gate.flag} {gate.noun}")
        args.baseline.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"baseline updated: {args.baseline} ({len(current)} "
              f"benchmarks, {', '.join(counts)})")
        return 0

    failures: list[str] = []
    baseline_doc: dict = {}
    if args.baseline.exists():
        baseline_doc = json.loads(args.baseline.read_text())
        if current:
            failures += check_regressions(current,
                                          baseline_doc["benchmarks"])
    else:
        print(f"warning: baseline {args.baseline} not found; skipping the "
              f"regression check", file=sys.stderr)

    report: list[str] = []
    if current:
        speedup_failures, speedup_report = check_speedups(current)
        planned_failures, planned_report = check_planned(current)
        failures += speedup_failures + planned_failures
        report += speedup_report + planned_report

    counts = []
    for gate in GATES:
        ratios: dict[str, float] = {}
        if gate in rows:
            gate_failures, gate_report, ratios = gate.check(rows[gate])
            failures += gate_failures
            report += gate_report
            if gate.section in baseline_doc:
                failures += check_baseline(gate, ratios,
                                           baseline_doc[gate.section])
        counts.append(f"{len(ratios)} {gate.flag} {gate.noun}")
    for line in report:
        print(line)

    if failures:
        print(f"\ncheck_perf: {len(failures)} failure(s)", file=sys.stderr)
        for f in failures:
            print(f"  FAIL: {f}", file=sys.stderr)
        return 1
    print(f"check_perf: OK ({len(current)} benchmarks, {', '.join(counts)} "
          f"checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
