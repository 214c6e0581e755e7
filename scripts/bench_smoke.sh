#!/usr/bin/env bash
# Bench smoke: runs the ten smoke benches at their small CI sizes, writes
# one --json artifact per bench into OUT_DIR, and checks the six gated ones
# with a single scripts/check_perf.py call. CI and README's "Running CI
# locally" both run this script; it is the one list of smoke invocations.
#
#   scripts/bench_smoke.sh BUILD_DIR OUT_DIR [--compare OTHER_DIR]
#
# --compare OTHER_DIR then byte-compares (cmp) each JSON with the
# same-named file in OTHER_DIR, e.g. the OUT_DIR of a run on the parent
# commit's build, and fails on any difference. The smoke JSONs hold only
# seeded and simulated numbers, so a change that claims bit-identical
# results must leave all ten unchanged.
set -euo pipefail

if [[ ! ($# -eq 2 || ($# -eq 4 && $3 == --compare)) ]]; then
  echo "usage: $0 BUILD_DIR OUT_DIR [--compare OTHER_DIR]" >&2
  exit 2
fi
build=$1
out=$2
other=${4:-}
scripts=$(cd "$(dirname "$0")" && pwd)
names=()

# run NAME BENCH [ARGS...]: runs build/bench/BENCH, writing OUT_DIR/NAME.json.
run() {
  local name=$1 bench=$2
  shift 2
  "$build/bench/$bench" "$@" --json "$out/$name.json"
  names+=("$name")
}

mkdir -p "$out"
run fig5_breakdown bench_fig5_breakdown --datasets Cora,Arxiv --gpus 1,4
run fault_recovery bench_fault_recovery --epochs 30
run comm_volume bench_comm_volume
run planner bench_planner
run multinode_scaling bench_multinode_scaling
run sampled_pipeline bench_sampled_pipeline
run minibatch_explosion bench_minibatch_explosion
run serving bench_serving
run memory_pool bench_memory_pool --datasets Cora --gpus 4 --layers 3,4 \
  --epochs 1 --requests 128 --fuzz-seeds 1,2
run ablation_15d bench_ablation_15d

# The gates read phantom-mode epoch times and ledger peaks, which are
# deterministic, so every ratio is exact. What each gate enforces is
# documented on its check function in check_perf.py; one call reports
# every failure across the six files.
python3 "$scripts/check_perf.py" \
  --comm "$out/comm_volume.json" \
  --plan "$out/planner.json" \
  --part "$out/multinode_scaling.json" \
  --cache "$out/sampled_pipeline.json" \
  --serve "$out/serving.json" \
  --mem "$out/memory_pool.json"

if [[ -n $other ]]; then
  status=0
  for name in "${names[@]}"; do
    cmp "$out/$name.json" "$other/$name.json" || status=1
  done
  if [[ $status -ne 0 ]]; then
    echo "bench_smoke: JSON differs from $other" >&2
    exit 1
  fi
  echo "bench_smoke: all ${#names[@]} JSONs byte-identical to $other"
fi
