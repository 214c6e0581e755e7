// Beyond one machine: MG-GCN's 1D algorithm on a multi-node DGX-A100
// cluster (the paper's future work, §7), reproducing the phenomenon that
// frames the whole paper — "communication becomes a bottleneck, and
// scaling is blocked outside of the single machine regime" (abstract),
// previously observed by CAGNET, which "fails to scale beyond a single
// node (4 GPUs)".
//
// The cluster model keeps NVSwitch bandwidth inside each 8-GPU node but
// funnels cross-node collectives through one HDR NIC per node; the staged
// broadcast's bandwidth collapses as soon as the group spans two nodes.
// This bench sweeps the MGGCN_PART partitioner modes against that wall on
// a community-structured (BTER) graph: `random` pays the full ghost bill,
// `locality` prices the cut down, `hier` additionally folds the cut onto
// the cheap intra-node links, and `auto` must match the best candidate.
// scripts/check_perf.py --part gates this bench's --json output.
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench/common.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

using namespace mggcn;

namespace {

std::string gigabytes(std::uint64_t bytes) {
  return util::format_double(static_cast<double>(bytes) / 1e9, 3);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "Future work (§7): partitioner modes vs DGX-A100 cluster scaling");
  cli.option("gpus", "8,16,32,64", "GPU counts (8 per node)");
  cli.option("part", "random,locality,hier,auto", "partitioner modes");
  cli.option("n", "786432", "full-scale vertices");
  cli.option("d", "128", "feature width");
  cli.option("hidden", "512", "hidden width");
  cli.option("degree", "8", "average degree");
  cli.option("sigma", "0.6", "degree-distribution skew (lognormal sigma)");
  cli.option("clustering", "0.9", "community density (BTER rho)");
  cli.option("scale", "8", "replica scale");
  cli.option("json", "", "write results to this JSON file");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  graph::DatasetSpec spec;
  spec.name = "PartSweep-k" + cli.get("degree") + "-s" +
              std::to_string(static_cast<int>(
                  cli.get_double("sigma") * 100.0)) +
              "-c" +
              std::to_string(static_cast<int>(
                  cli.get_double("clustering") * 100.0));
  spec.n = cli.get_int("n");
  spec.m = spec.n * cli.get_int("degree");
  spec.feature_dim = cli.get_int("d");
  spec.num_classes = 40;
  spec.avg_degree = cli.get_double("degree");
  spec.degree_sigma = cli.get_double("sigma");
  spec.clustering = cli.get_double("clustering");
  const graph::Dataset ds = bench::load_replica(spec, cli.get_double("scale"));

  bench::print_header(
      "§7 / abstract",
      "partitioner modes vs cluster scaling (8 GPUs/node, HDR inter-node "
      "fabric), 2-layer GCN hidden=" + cli.get("hidden"),
      spec, ds.scale);
  std::cout << "  [replica: n=" << ds.n() << " nnz=" << ds.nnz()
            << " scale=1/" << ds.scale << "]\n\n";

  util::Table table({"GPUs", "nodes", "part", "epoch(s)", "vs random",
                     "wire GB", "inter GB", "ghosts", "inter ghosts",
                     "imbal"});
  std::ostringstream json_rows;
  bool first_row = true;

  for (const auto gpus64 : cli.get_int_list("gpus")) {
    const int gpus = static_cast<int>(gpus64);
    const int nodes = (gpus + 7) / 8;
    const sim::MachineProfile profile = sim::dgx_a100_cluster(nodes);
    double random_seconds = 0.0;

    for (const std::string& part : cli.get_list("part")) {
      core::TrainConfig config;
      config.hidden_dims = {cli.get_int("hidden")};
      config.part_mode = core::part_mode_knob.parse_or_throw(part, "--part");
      // The sweep is about the 1D staged exchange's wire bill; pin the
      // strategy so the auto-planner cannot reroute products and dilute
      // the partitioner comparison.
      config.plan_mode = core::PlanMode::k1D;
      const bench::EpochResult r = bench::run_epoch(
          bench::System::kMgGcn, profile, gpus, ds, config);
      if (part == "random") random_seconds = r.oom ? 0.0 : r.stats.sim_seconds;

      if (!first_row) json_rows << ",\n";
      first_row = false;
      if (r.oom) {
        table.add_row({std::to_string(gpus), std::to_string(nodes), part,
                       "OOM", "-", "-", "-", "-", "-", "-"});
        json_rows << "    {\"machine\": \"dgx-a100-cluster\", \"gpus\": "
                  << gpus << ", \"nodes\": " << nodes << ", \"part\": \""
                  << part << "\", \"oom\": true}";
        continue;
      }

      const core::EpochStats& s = r.stats;
      const double vs_random =
          (random_seconds > 0.0 && s.sim_seconds > 0.0)
              ? random_seconds / s.sim_seconds
              : 0.0;
      table.add_row(
          {std::to_string(gpus), std::to_string(nodes), part,
           bench::cell_seconds(r), util::format_speedup(vs_random),
           gigabytes(s.comm_wire_bytes), gigabytes(s.comm_wire_bytes_inter),
           std::to_string(s.part_ghost_rows),
           std::to_string(s.part_inter_node_ghost_rows),
           util::format_double(s.part_imbalance, 3)});
      json_rows << "    {\"machine\": \"dgx-a100-cluster\", \"gpus\": "
                << gpus << ", \"nodes\": " << nodes << ", \"part\": \""
                << part << "\", \"oom\": false, \"epoch_seconds\": "
                << s.sim_seconds << ", \"wire_bytes\": " << s.comm_wire_bytes
                << ", \"wire_bytes_inter\": " << s.comm_wire_bytes_inter
                << ", \"imbalance\": " << s.part_imbalance << ", "
                << bench::part_json_fragment(s) << ", "
                << bench::comm_json_fragment(s) << ", "
                << bench::plan_json_fragment(s) << "}";
    }
  }

  std::cout << table.to_string()
            << "\n(random stalls across nodes; locality cuts the wire "
               "bytes, hier folds the remaining cut onto intra-node links, "
               "and auto must match the winner.)\n";

  return bench::write_json(cli, "multinode_scaling", json_rows.str()) ? 0 : 1;
}
