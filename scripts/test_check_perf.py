#!/usr/bin/env python3
"""Unit tests for the perf gates in check_perf.py.

Each gate gets a small in-memory bench doc that passes; every rule is then
broken once and must produce its own FAIL line. Needs no build:

    python3 scripts/test_check_perf.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import check_perf  # noqa: E402


def edit(doc: dict, match: dict, **values) -> dict:
    """Sets `values` on every row of `doc` whose fields include `match`."""
    for row in doc["rows"]:
        if all(row.get(k) == v for k, v in match.items()):
            row.update(values)
    return doc


def drop(doc: dict, match: dict) -> dict:
    doc["rows"] = [row for row in doc["rows"]
                   if not all(row.get(k) == v for k, v in match.items())]
    return doc


def comm_doc() -> dict:
    rows = []
    # (gpus, degree, dense s, auto s, dense wire, auto wire); the first
    # group is the low-bandwidth gate config.
    for gpus, degree, dense_s, auto_s, dense_w, auto_w in (
            (2, 2, 1.5, 1.0, 100, 50), (4, 8, 1.0, 1.0, 100, 100)):
        for mode, seconds, wire in (("dense", dense_s, dense_w),
                                    ("auto", auto_s, auto_w)):
            rows.append({"machine": "m", "gpus": gpus, "avg_degree": degree,
                         "permute": False, "mode": mode, "oom": False,
                         "epoch_seconds": seconds, "wire_bytes": wire})
    # Filtered out; kept, it would shadow the gate group's dense row.
    rows.append({"machine": "m", "gpus": 2, "avg_degree": 2,
                 "permute": False, "mode": "dense", "oom": True})
    return {"bench": "comm_volume", "rows": rows}


def plan_doc() -> dict:
    rows = []
    for plan, seconds in (("auto", 1.0), ("1d", 1.2), ("15d", 1.1),
                          ("replicated", 1.3)):
        rows.append({"machine": "m", "gpus": 4, "n": 1000, "avg_degree": 8,
                     "d": 64, "plan": plan, "oom": False,
                     "epoch_seconds": seconds,
                     "plan_counters": {"products_1d": 1, "products_15d": 2,
                                       "products_replicated": 0}})
    return {"bench": "planner", "rows": rows}


def part_doc() -> dict:
    rows = []
    for gpus, nodes in ((8, 8), (4, 1)):
        for part, seconds, wire, imbalance in (
                ("random", 1.5, 1000, 1.0), ("locality", 1.0, 500, 1.05),
                ("hier", 1.1, 600, 1.1), ("auto", 1.0, 500, 1.05)):
            rows.append({"machine": "m", "gpus": gpus, "nodes": nodes,
                         "part": part, "oom": False,
                         "epoch_seconds": seconds, "wire_bytes": wire,
                         "imbalance": imbalance})
    return {"bench": "multinode_scaling", "rows": rows}


def cache_doc() -> dict:
    rows = []
    for engine, mode, fraction, seconds, hit_rate in (
            ("serialized", "off", 0.0, 2.0, 0.0),
            ("pipelined", "off", 0.0, 1.4, 0.0),
            ("pipelined", "freq", 0.01, 1.3, 0.2),
            ("pipelined", "freq", 0.05, 1.2, 0.4),
            ("pipelined", "auto", 0.05, 1.2, 0.4)):
        rows.append({"dataset": "D", "gpus": 4, "engine": engine,
                     "cache_mode": mode, "resolved_mode": "freq",
                     "capacity_fraction": fraction, "seconds": seconds,
                     "hit_rate": hit_rate})
    return {"bench": "sampled_pipeline", "rows": rows}


def serve_doc() -> dict:
    rows = []
    for policy, mode, qps, p99 in (
            ("per-request", "off", 100.0, 2e-3),
            ("per-request", "auto", 100.0, 2e-3),
            ("deadline", "off", 150.0, 1e-3),
            ("deadline", "auto", 150.0, 1e-3),
            # qps 0 is filtered out; kept, it would shadow the row above.
            ("per-request", "off", 0.0, 0.0)):
        rows.append({"dataset": "D", "gpus": 4, "load_qps": 1000,
                     "skew": 1.0, "policy": policy, "cache_mode": mode,
                     "qps": qps, "p99": p99, "mean_batch": 4.0})
    return {"bench": "serving", "rows": rows}


def mem_doc() -> dict:
    rows = []
    for workload, pooled, static in (("trainer", 100, 100),
                                     ("combined", 100, 150)):
        rows.append({"workload": workload, "dataset": "Cora", "gpus": 4,
                     "layers": 3, "pooled_peak_bytes": pooled,
                     "static_peak_bytes": static,
                     "reduction": static / pooled, "reuse_hits": 3,
                     "parity": True, "hazard_clean": True})
    return {"bench": "memory-pool", "rows": rows}


def kernels_doc() -> dict:
    rates = {"Gemm/naive/n:64": 5e9, "Gemm/tiled/n:64": 2e9,
             "Spmm/tiled/n:16384/d:64": 1e9,
             "Spmm/planned/n:16384/d:64": 1.1e9,
             "SpmmSkew/tiled/n:16384/d:64": 1e9,
             "SpmmSkew/planned/n:16384/d:64": 1.5e9}
    benchmarks = [{"name": name, "run_type": "iteration",
                   "flops_per_s": rate} for name, rate in rates.items()]
    # Repetition aggregates: the median replaces the (noisy) iteration row.
    benchmarks.append({"name": "Gemm/naive/n:64_median",
                       "run_name": "Gemm/naive/n:64",
                       "run_type": "aggregate", "aggregate_name": "median",
                       "flops_per_s": 1e9})
    benchmarks.append({"name": "Gemm/naive/n:64_mean",
                       "run_name": "Gemm/naive/n:64",
                       "run_type": "aggregate", "aggregate_name": "mean",
                       "flops_per_s": 9e9})
    return {"benchmarks": benchmarks}


DOCS = {"comm": comm_doc, "plan": plan_doc, "part": part_doc,
        "cache": cache_doc, "serve": serve_doc, "mem": mem_doc}

GATE_NAME = {"comm": "m/gpus:2/deg:2/perm:off",
             "plan": "m/gpus:4/n:1000/deg:8/d:64",
             "part": "m/gpus:8/nodes:8",
             "cache": "D/gpus:4",
             "serve": "D/gpus:4/load:1000/skew:1.0",
             "mem": "combined/Cora/gpus:4/layers:3"}

# gate -> [(rule, mutation, the FAIL line it must produce)]
BROKEN = {
    "comm": [
        ("auto never loses",
         lambda d: edit(d, {"gpus": 4, "mode": "auto"}, epoch_seconds=1.1),
         "comm: auto slower than dense on m/gpus:4/deg:8/perm:off: 0.909x"),
        ("gate speedup",
         lambda d: edit(d, {"gpus": 2, "mode": "auto"}, epoch_seconds=1.4),
         "comm gate: m/gpus:2/deg:2/perm:off is 1.07x over dense (the "
         "low-density low-bandwidth config must reach 1.20x)"),
        ("gate wire bytes",
         lambda d: edit(d, {"gpus": 2, "mode": "auto"}, wire_bytes=100),
         "comm gate: m/gpus:2/deg:2/perm:off moved 100 wire bytes, not "
         "fewer than dense's 100"),
        ("gate did not run", lambda d: drop(d, {"gpus": 2}),
         "comm gate: no rows at gpus=2 with avg_degree <= 2; the "
         "low-bandwidth gate did not run"),
    ],
    "plan": [
        ("auto never loses",
         lambda d: edit(d, {"plan": "15d"}, epoch_seconds=0.9),
         "plan: auto slower than forced 15d on m/gpus:4/n:1000/deg:8/d:64: "
         "0.900x"),
        ("non-1d win speedup",
         lambda d: edit(d, {"plan": "1d"}, epoch_seconds=1.1),
         "plan gate: no config where auto routes products off the 1d path "
         "and beats forced 1d by 1.15x"),
        ("non-1d win routing",
         lambda d: edit(d, {"plan": "auto"}, plan_counters={}),
         "plan gate: no config where auto routes products off the 1d path"),
        ("gate did not run", lambda d: drop(d, {"plan": "1d"}),
         "plan gate: no (auto, 1d) row pairs found; the planner gate did "
         "not run"),
    ],
    "part": [
        ("balance contract",
         lambda d: edit(d, {"gpus": 8, "part": "locality"}, imbalance=1.2),
         "part gate: m/gpus:8/nodes:8/locality imbalance 1.200 exceeds the "
         "1.15 balance contract"),
        ("fewer wire bytes",
         lambda d: edit(d, {"gpus": 8, "part": "hier"}, wire_bytes=1000),
         "part gate: m/gpus:8/nodes:8/hier moved 1000 wire bytes, not fewer "
         "than random's 1000"),
        ("auto never loses",
         lambda d: edit(d, {"gpus": 8, "part": "auto"}, epoch_seconds=1.6),
         "part gate: auto slower than random on m/gpus:8/nodes:8: 0.938x"),
        ("scale-out win",
         lambda d: edit(edit(d, {"part": "locality"}, epoch_seconds=1.4),
                        {"part": "hier"}, epoch_seconds=1.4),
         "part gate: best locality/hier epoch win at nodes=8 is 1.07x "
         "(m/gpus:8/nodes:8/locality); at least one must reach 1.20x"),
        ("gate did not run", lambda d: edit(d, {"nodes": 8}, nodes=4),
         "part gate: no locality/hier rows at nodes=8 with gpus >= 8; the "
         "cluster scale-out gate did not run"),
    ],
    "cache": [
        ("auto never loses",
         lambda d: edit(d, {"cache_mode": "auto"}, seconds=1.5),
         "cache: auto slower than cache-off on D/gpus:4: 0.933x"),
        ("monotone hit rate",
         lambda d: edit(d, {"cache_mode": "freq", "capacity_fraction": 0.05},
                        hit_rate=0.1),
         "cache: hit rate not monotone in capacity on D/gpus:4: 0.200 @ "
         "0.01 -> 0.100 @ 0.05"),
        ("overlap speedup",
         lambda d: edit(d, {"engine": "serialized"}, seconds=1.5),
         "cache gate: D/gpus:4 pipelined+auto is 1.25x over serialized "
         "(required 1.30x)"),
        ("gate did not run", lambda d: edit(d, {}, gpus=2),
         "cache gate: no groups at gpus >= 4; the pipeline-overlap gate did "
         "not run"),
        ("group lacks a baseline row",
         lambda d: drop(d, {"engine": "serialized"}),
         "cache gate: no groups at gpus >= 4"),
    ],
    "serve": [
        ("auto cache never loses",
         lambda d: edit(d, {"policy": "deadline", "cache_mode": "auto"},
                        qps=140.0),
         "serve: auto cache slower than off on "
         "D/gpus:4/load:1000/skew:1.0/deadline: 0.933x"),
        ("batching speedup",
         lambda d: edit(d, {"policy": "deadline"}, qps=110.0),
         "serve gate: no group where deadline batching reaches 1.20x "
         "per-request QPS at equal-or-better p99 (best: "
         "D/gpus:4/load:1000/skew:1.0 at 1.10x)"),
        ("batching p99",
         lambda d: edit(d, {"policy": "deadline"}, p99=3e-3),
         "serve gate: no group where deadline batching reaches 1.20x "
         "per-request QPS at equal-or-better p99"),
        ("gate did not run", lambda d: edit(d, {}, gpus=2),
         "serve gate: no groups at gpus >= 4; the micro-batching gate did "
         "not run"),
    ],
    "mem": [
        ("pool never costs memory",
         lambda d: edit(d, {"workload": "trainer"}, pooled_peak_bytes=101),
         "mem: pooled peak exceeds static on trainer/Cora/gpus:4/layers:3: "
         "101 B > 100 B"),
        ("parity", lambda d: edit(d, {"workload": "trainer"}, parity=False),
         "mem: numerics not bit-identical across MGGCN_POOL modes x "
         "sched-fuzz seeds on trainer/Cora/gpus:4/layers:3"),
        ("hazard audit",
         lambda d: edit(d, {"workload": "trainer"}, hazard_clean=False),
         "mem: hazard checker flagged the recycling on "
         "trainer/Cora/gpus:4/layers:3"),
        ("combined reduction",
         lambda d: edit(d, {"workload": "combined"}, reduction=1.1),
         "mem gate: no combined cell reaches a 1.20x reuse-driven footprint "
         "reduction (best: combined/Cora/gpus:4/layers:3 at 1.10x)"),
        ("gate did not run",
         lambda d: edit(d, {"workload": "combined"}, gpus=2),
         "mem gate: no combined pipeline+serving cell at gpus >= 4; the "
         "cross-component reuse gate did not run"),
    ],
}

# Regression wording of each gate's headline ratio, at a baseline twice
# the passing doc's ratio.
REGRESSION = {
    "comm": "comm regression: m/gpus:2/deg:2/perm:off: auto is 1.50x over "
            "dense < 2.25x (baseline 3.00x, allowed -25%)",
    "plan": "plan regression: m/gpus:4/n:1000/deg:8/d:64: auto is 1.20x "
            "over 1d < 1.80x (baseline 2.40x, allowed -25%)",
    "part": "part regression: m/gpus:8/nodes:8: locality is 1.50x over "
            "random < 2.25x (baseline 3.00x, allowed -25%)",
    "cache": "cache regression: D/gpus:4: pipelined+auto is 1.67x over "
             "serialized < 2.50x (baseline 3.33x, allowed -25%)",
    "serve": "serve regression: D/gpus:4/load:1000/skew:1.0: deadline is "
             "1.50x over per-request < 2.25x (baseline 3.00x, allowed -25%)",
    "mem": "mem regression: combined/Cora/gpus:4/layers:3: footprint "
           "reduction is 1.50x < 2.25x (baseline 3.00x, allowed -25%)",
}

GATES = {gate.flag: gate for gate in check_perf.GATES}


def ratios(flag: str, doc: dict) -> dict[str, float]:
    """The headline ratios the gate records for `doc`."""
    gate = GATES[flag]
    return gate.check([row for row in doc["rows"] if gate.keep(row)])[2]


class GateTest(unittest.TestCase):
    def setUp(self) -> None:
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        self.baseline = self.dir / "baseline.json"

    def tearDown(self) -> None:
        self.tmp.cleanup()

    def run_gates(self, docs: dict[str, dict], kernels: dict | None = None,
                  baseline: dict | None = None,
                  update: bool = False) -> tuple[int, str, str]:
        """Runs check_perf.main on the docs; returns (code, out, err)."""
        if baseline is not None:
            self.baseline.write_text(json.dumps(baseline))
        argv = ["--baseline", str(self.baseline)]
        if kernels is not None:
            path = self.dir / "kernels.json"
            path.write_text(json.dumps(kernels))
            argv.append(str(path))
        for flag, doc in docs.items():
            path = self.dir / f"{flag}.json"
            path.write_text(json.dumps(doc))
            argv += [f"--{flag}", str(path)]
        if update:
            argv.append("--update")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = check_perf.main(argv)
        return code, out.getvalue(), err.getvalue()

    def assert_fails_with(self, result: tuple[int, str, str],
                          line: str) -> None:
        code, _, err = result
        self.assertEqual(code, 1, err)
        fails = [l for l in err.splitlines() if l.startswith("  FAIL: ")]
        self.assertTrue(any(line in l for l in fails),
                        f"no FAIL line contains {line!r}:\n{err}")

    def test_passing_docs_pass(self) -> None:
        for flag, make in DOCS.items():
            with self.subTest(gate=flag):
                code, out, err = self.run_gates({flag: make()})
                self.assertEqual(code, 0, err)
                self.assertIn("check_perf: OK", out)
                self.assertRegex(out, rf"[1-9]\d* {flag} ")

    def test_all_gates_in_one_call(self) -> None:
        code, out, err = self.run_gates({f: make() for f, make in
                                         DOCS.items()}, kernels_doc())
        self.assertEqual(code, 0, err)
        self.assertIn("check_perf: OK (6 benchmarks, 2 comm configs, 1 plan "
                      "configs, 2 part configs, 1 cache configs, 1 serve "
                      "configs, 2 mem cells checked)", out)

    def test_each_broken_rule_fails(self) -> None:
        for flag, rules in BROKEN.items():
            for rule, mutate, line in rules:
                with self.subTest(gate=flag, rule=rule):
                    self.assert_fails_with(
                        self.run_gates({flag: mutate(DOCS[flag]())}), line)

    def test_wrong_bench_is_rejected(self) -> None:
        for flag, make in DOCS.items():
            with self.subTest(gate=flag):
                doc = make()
                doc["bench"] = "other"
                with self.assertRaisesRegex(ValueError, "is not a bench_"):
                    self.run_gates({flag: doc})

    def test_baseline_regression_fails(self) -> None:
        for flag, make in DOCS.items():
            with self.subTest(gate=flag):
                ratio = ratios(flag, make())[GATE_NAME[flag]]
                baseline = {GATES[flag].section: {GATE_NAME[flag]: 2 * ratio}}
                self.assert_fails_with(
                    self.run_gates({flag: make()}, baseline=baseline),
                    REGRESSION[flag])

    def test_baseline_within_allowance_passes(self) -> None:
        for flag, make in DOCS.items():
            with self.subTest(gate=flag):
                baseline = {GATES[flag].section: {GATE_NAME[flag]: 1.0,
                                            "elsewhere": 1.0}}
                code, _, err = self.run_gates({flag: make()},
                                              baseline=baseline)
                self.assertEqual(code, 0, err)
                self.assertIn(f"warning: baseline {flag} config not in "
                              f"current run: elsewhere", err)

    def test_baseline_matching_nothing_fails(self) -> None:
        for flag, make in DOCS.items():
            with self.subTest(gate=flag):
                baseline = {GATES[flag].section: {"elsewhere": 1.0}}
                self.assert_fails_with(
                    self.run_gates({flag: make()}, baseline=baseline),
                    f"{flag} baseline: none of the 1 configs in section "
                    f"'{GATES[flag].section}' is in this run; the {flag} "
                    f"regression check did not run")

    def test_kernels_pass(self) -> None:
        code, out, err = self.run_gates({}, kernels_doc())
        self.assertEqual(code, 0, err)
        self.assertIn("Gemm/tiled/n:64: 2.00x over naive", out)
        self.assertIn("SpmmSkew/planned/n:16384/d:64: 1.50x over tiled", out)

    def test_kernel_floors(self) -> None:
        def with_rate(name: str, rate: float) -> dict:
            doc = kernels_doc()
            for bench in doc["benchmarks"]:
                if bench["name"] == name:
                    bench["flops_per_s"] = rate
            return doc

        cases = [
            (with_rate("Gemm/tiled/n:64", 1.1e9),
             "speedup below floor: Gemm/tiled/n:64 is 1.10x over naive "
             "(required 1.20x)"),
            (with_rate("Spmm/planned/n:16384/d:64", 0.9e9),
             "planned below floor: Spmm/planned/n:16384/d:64 is 0.90x over "
             "tiled (required 1.00x)"),
            (with_rate("SpmmSkew/planned/n:16384/d:64", 1.1e9),
             "skew gate: best skewed-degree planned speedup is 1.10x "
             "(SpmmSkew/planned/n:16384/d:64); at least one case must reach "
             "1.20x over tiled"),
        ]
        for doc, line in cases:
            with self.subTest(line=line):
                self.assert_fails_with(self.run_gates({}, doc), line)

    def test_relu_twin_floor(self) -> None:
        # The ReLU rows have no policy of their own; their naive/tiled twins
        # fall under the same tiled-over-naive floor as the GeMMs.
        doc = kernels_doc()
        doc["benchmarks"] += [
            {"name": f"ReluForward/{tag}/m:13056/d:512",
             "run_type": "iteration", "flops_per_s": rate}
            for tag, rate in (("naive", 1e9), ("tiled", 1.1e9))]
        self.assert_fails_with(
            self.run_gates({}, doc),
            "speedup below floor: ReluForward/tiled/m:13056/d:512 is 1.10x "
            "over naive (required 1.20x)")

    def test_kernel_regression(self) -> None:
        baseline = {"benchmarks": {"Gemm/tiled/n:64": 4e9,
                                   "Gone/naive/n:1": 1e9}}
        result = self.run_gates({}, kernels_doc(), baseline=baseline)
        self.assert_fails_with(
            result, "regression: Gemm/tiled/n:64: 2.000e+09 flops_per_s < "
            "3.000e+09 (baseline 4.000e+09, allowed -25%)")
        self.assertIn("warning: baseline benchmark not in current run: "
                      "Gone/naive/n:1", result[2])

    def test_no_input_is_an_error(self) -> None:
        code, _, err = self.run_gates({})
        self.assertEqual(code, 1)
        self.assertIn("error: pass a bench_kernels JSON, --comm <json>, "
                      "--plan <json>, --part <json>, --cache <json>, "
                      "--serve <json>, --mem <json>, or a combination", err)

    def test_update_writes_every_section(self) -> None:
        docs = {flag: make() for flag, make in DOCS.items()}
        code, out, err = self.run_gates(docs, kernels_doc(),
                                        baseline={"keep": {"a": 1.0}},
                                        update=True)
        self.assertEqual(code, 0, err)
        self.assertIn("(6 benchmarks, 2 comm configs, 1 plan configs, 2 part "
                      "configs, 1 cache configs, 1 serve configs, 2 mem "
                      "cells)", out)
        written = json.loads(self.baseline.read_text())
        self.assertEqual(written["keep"], {"a": 1.0})
        self.assertEqual(written["counter"], "flops_per_s")
        self.assertEqual(written["benchmarks"]["Gemm/naive/n:64"], 1e9)
        for flag, gate in GATES.items():
            expected = ratios(flag, docs[flag])
            self.assertEqual(written[gate.section], expected)
            self.assertEqual(list(written[gate.section]), sorted(expected))
        # The rewritten baseline passes its own run.
        code, _, err = self.run_gates(docs, kernels_doc())
        self.assertEqual(code, 0, err)

    def test_update_leaves_other_sections(self) -> None:
        code, _, err = self.run_gates({"comm": comm_doc()},
                                      baseline={"mem": {"x": 2.0}},
                                      update=True)
        self.assertEqual(code, 0, err)
        written = json.loads(self.baseline.read_text())
        self.assertEqual(written["mem"], {"x": 2.0})
        self.assertEqual(written["comm_volume"],
                         {"m/gpus:2/deg:2/perm:off": 1.5,
                          "m/gpus:4/deg:8/perm:off": 1.0})
        self.assertNotIn("benchmarks", written)


if __name__ == "__main__":
    unittest.main()
