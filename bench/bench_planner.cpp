// Mixture-of-parallelism planner study: steady-state epoch time for
// MGGCN_PLAN=1d|15d|replicated|auto across regimes chosen to flip the
// cheapest strategy, plus the planner's decision counters.
//
// Landmarks: on small graphs the staged 1D pipeline is launch-bound (P
// broadcasts and P^2 tile kernels per product), so gathering the operand
// once and running ONE fused SpMM wins — the replicated regime. On a
// multi-node cluster the 1D broadcast crosses the NIC every stage, while
// the chained 1.5D schedule keeps its group broadcasts inside a node and
// pays the NIC only for the three pair hand-off transfers — the 15d
// regime. On a single fat node with a wide hidden layer, the paper's 1D
// pipeline (overlapped, compact-capable) stays the cheapest. `auto` must
// match the best fixed strategy everywhere; scripts/check_perf.py --plan
// gates exactly that on this bench's JSON.
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench/common.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

using namespace mggcn;

namespace {

/// One sweep point: a machine/graph/width regime the strategies disagree on.
struct Scenario {
  const char* machine;  ///< profile name ("-cN" suffix = N-node A100 cluster)
  int gpus;
  std::int64_t n;
  int avg_degree;
  std::int64_t d;  ///< feature width and the single hidden width
  double scale;    ///< replica scale
};

sim::MachineProfile machine_by_bench_name(const std::string& name) {
  if (name == "dgx-a100-c2") return sim::dgx_a100_cluster(2);
  if (name == "dgx-a100-c4") return sim::dgx_a100_cluster(4);
  return sim::machine_by_name(name);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "Per-layer planner strategy sweep (1d / 15d / replicated / auto)");
  cli.option("json", "", "write results to this JSON file");
  cli.option("sigma", "1.5", "degree-distribution skew (lognormal sigma)");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  // The three landmark regimes plus a mid-size control point. Replica
  // scales keep the smoke run under a few seconds.
  const std::vector<Scenario> scenarios = {
      // Launch-bound small graph: replicated should win.
      {"dgx-v100", 8, 16384, 8, 16, 1.0},
      // Two-node cluster, NIC-bound broadcasts: chained 1.5d should win.
      {"dgx-a100-c2", 16, 262144, 16, 256, 8.0},
      // Single fat node, wide hidden: the paper's 1D pipeline should win.
      {"dgx-v100", 8, 262144, 16, 512, 8.0},
      // Mid-size control point on A100.
      {"dgx-a100", 8, 262144, 8, 128, 8.0},
  };

  std::cout << "=== planner: mixture-of-parallelism strategy sweep ===\n"
            << "epoch time per forced strategy vs the auto planner; "
               "timings extrapolated to full scale\n\n";

  util::Table table({"machine", "gpus", "n", "deg", "d", "plan", "epoch(s)",
                     "products 1d/15d/rep", "fallbacks", "vs 1d"});
  std::ostringstream json_rows;
  bool first_row = true;

  for (const Scenario& sc : scenarios) {
    graph::DatasetSpec spec;
    spec.name = "PlanSweep-" + std::string(sc.machine) + "-d" +
                std::to_string(sc.d);
    spec.n = sc.n;
    spec.m = sc.n * sc.avg_degree;
    spec.feature_dim = sc.d;
    spec.num_classes = 32;
    spec.avg_degree = static_cast<double>(sc.avg_degree);
    spec.degree_sigma = cli.get_double("sigma");
    const graph::Dataset ds = bench::load_replica(spec, sc.scale);
    std::cout << "  [" << spec.name << " replica: n=" << ds.n()
              << " nnz=" << ds.nnz() << " scale=1/" << ds.scale << "]\n";

    const sim::MachineProfile profile = machine_by_bench_name(sc.machine);
    double seconds_1d = 0.0;
    for (const core::PlanMode mode :
         {core::PlanMode::k1D, core::PlanMode::k15D,
          core::PlanMode::kReplicated, core::PlanMode::kAuto}) {
      core::TrainConfig config;
      config.hidden_dims = {sc.d};
      config.plan_mode = mode;
      const bench::EpochResult r =
          bench::run_epoch(bench::System::kMgGcn, profile, sc.gpus, ds,
                           config);
      if (mode == core::PlanMode::k1D) seconds_1d = r.stats.sim_seconds;

      if (!first_row) json_rows << ",\n";
      first_row = false;
      const std::string products =
          std::to_string(r.stats.plan_products_1d) + "/" +
          std::to_string(r.stats.plan_products_15d) + "/" +
          std::to_string(r.stats.plan_products_replicated);
      if (r.oom) {
        table.add_row({sc.machine, std::to_string(sc.gpus),
                       std::to_string(sc.n), std::to_string(sc.avg_degree),
                       std::to_string(sc.d), core::plan_mode_name(mode),
                       "OOM", "-", "-", "-"});
        json_rows << "    {\"machine\": \"" << sc.machine
                  << "\", \"gpus\": " << sc.gpus << ", \"n\": " << sc.n
                  << ", \"avg_degree\": " << sc.avg_degree
                  << ", \"d\": " << sc.d << ", \"plan\": \""
                  << core::plan_mode_name(mode) << "\", \"oom\": true}";
        continue;
      }
      const core::EpochStats& s = r.stats;
      const double vs_1d =
          s.sim_seconds > 0.0 ? seconds_1d / s.sim_seconds : 0.0;
      table.add_row({sc.machine, std::to_string(sc.gpus),
                     std::to_string(sc.n), std::to_string(sc.avg_degree),
                     std::to_string(sc.d), core::plan_mode_name(mode),
                     util::format_double(s.sim_seconds, 4), products,
                     std::to_string(s.plan_fallbacks),
                     util::format_speedup(vs_1d)});
      json_rows << "    {\"machine\": \"" << sc.machine
                << "\", \"gpus\": " << sc.gpus << ", \"n\": " << sc.n
                << ", \"avg_degree\": " << sc.avg_degree << ", \"d\": "
                << sc.d << ", \"plan\": \"" << core::plan_mode_name(mode)
                << "\", \"oom\": false, \"epoch_seconds\": " << s.sim_seconds
                << ", " << bench::plan_json_fragment(s) << "}";
    }
  }

  std::cout << '\n'
            << table.to_string()
            << "\n(auto must match the best fixed strategy in every regime; "
               "the non-1d wins concentrate on small launch-bound graphs "
               "and NIC-bound clusters)\n";

  return bench::write_json(cli, "planner", json_rows.str()) ? 0 : 1;
}
