// Communication-volume study for the compacted (ghost-row) exchange: epoch
// time and wire bytes for MGGCN_COMM=dense|compact|auto across a density
// sweep, with and without the §5.2 random permutation, on the DGX-1-class
// cube-mesh interconnect where bandwidth is scarcest.
//
// Landmarks: at low average degree each stage's consumers need only a small
// fraction of the broadcast block, so the compacted sendv wins despite its
// per-destination latency and pack cost; as density grows the ghost sets
// approach the full block and the auto-selector falls back to the dense
// multicast — auto must therefore match the better of the two everywhere.
// scripts/check_perf.py --comm gates exactly that on this bench's JSON.
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
      "Compacted-exchange communication volume and epoch time sweep");
  cli.option("degrees", "1,2,4,8,16", "average degrees to sweep");
  cli.option("n", "262144", "full-scale vertices");
  cli.option("d", "128", "feature/hidden width");
  cli.option("sigma", "1.5", "degree-distribution skew (lognormal sigma)");
  cli.option("gpus", "2,8", "GPU counts");
  cli.option("machine", "dgx-v100", "machine profile name");
  cli.option("scale", "8", "replica scale");
  cli.option("json", "", "write results to this JSON file");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  const sim::MachineProfile profile =
      sim::machine_by_name(cli.get("machine"));
  const std::int64_t d = cli.get_int("d");

  bench::print_header(
      "comm-volume",
      "staged-exchange path comparison (dense broadcast vs compacted "
      "ghost-row sendv vs cost-model auto), " +
          cli.get("machine") + ", gpus=" + cli.get("gpus") +
          "; small cube-mesh groups see the fewest usable links (§5.1), so "
          "they are the low-bandwidth gate configs");

  util::Table table({"gpus", "avg deg", "permute", "mode", "epoch(s)",
                     "wire GB", "saved GB", "packs", "stages c/d",
                     "vs dense"});
  std::ostringstream json_rows;
  bool first_row = true;

  for (const auto deg : cli.get_int_list("degrees")) {
    graph::DatasetSpec spec;
    spec.name = "CommSweep-k" + std::to_string(deg);
    spec.n = cli.get_int("n");
    spec.m = spec.n * deg;
    spec.feature_dim = d;
    spec.num_classes = 32;
    spec.avg_degree = static_cast<double>(deg);
    spec.degree_sigma = cli.get_double("sigma");
    const graph::Dataset ds =
        bench::load_replica(spec, cli.get_double("scale"));
    std::cout << "  [" << spec.name << " replica: n=" << ds.n()
              << " nnz=" << ds.nnz() << " scale=1/" << ds.scale << "]\n";

    for (const auto gpus64 : cli.get_int_list("gpus")) {
      const int gpus = static_cast<int>(gpus64);
      for (const bool permute : {false, true}) {
        double dense_seconds = 0.0;
        for (const comm::CommMode mode :
             {comm::CommMode::kDense, comm::CommMode::kCompact,
              comm::CommMode::kAuto}) {
          core::TrainConfig config;
          config.hidden_dims = {d};
          config.permute = permute;
          config.comm_mode = mode;
          // The dense/compact comparison is about the 1D staged exchange;
          // pin the strategy so the auto-planner cannot reroute products.
          config.plan_mode = core::PlanMode::k1D;
          const bench::EpochResult r = bench::run_epoch(
              bench::System::kMgGcn, profile, gpus, ds, config);
          if (mode == comm::CommMode::kDense) {
            dense_seconds = r.stats.sim_seconds;
          }

          if (!first_row) json_rows << ",\n";
          first_row = false;
          if (r.oom) {
            table.add_row({std::to_string(gpus), std::to_string(deg),
                           permute ? "on" : "off", comm::comm_mode_name(mode),
                           "OOM", "-", "-", "-", "-", "-"});
            json_rows << "    {\"machine\": \"" << cli.get("machine")
                      << "\", \"gpus\": " << gpus
                      << ", \"avg_degree\": " << deg << ", \"permute\": "
                      << (permute ? "true" : "false") << ", \"mode\": \""
                      << comm::comm_mode_name(mode) << "\", \"oom\": true}";
            continue;
          }

          const core::EpochStats& s = r.stats;
          const double vs_dense =
              s.sim_seconds > 0.0 ? dense_seconds / s.sim_seconds : 0.0;
          table.add_row({std::to_string(gpus), std::to_string(deg),
                         permute ? "on" : "off", comm::comm_mode_name(mode),
                         util::format_double(s.sim_seconds, 4),
                         gigabytes(s.comm_wire_bytes),
                         gigabytes(s.comm_bytes_saved),
                         std::to_string(s.comm_packs),
                         std::to_string(s.comm_compact_stages) + "/" +
                             std::to_string(s.comm_dense_stages),
                         util::format_speedup(vs_dense)});
          json_rows << "    {\"machine\": \"" << cli.get("machine")
                    << "\", \"gpus\": " << gpus << ", \"avg_degree\": " << deg
                    << ", \"permute\": " << (permute ? "true" : "false")
                    << ", \"mode\": \"" << comm::comm_mode_name(mode)
                    << "\", \"oom\": false, \"epoch_seconds\": "
                    << s.sim_seconds
                    << ", \"wire_bytes\": " << s.comm_wire_bytes
                    << ", \"bytes_saved\": " << s.comm_bytes_saved
                    << ", \"packs\": " << s.comm_packs
                    << ", \"compact_stages\": " << s.comm_compact_stages
                    << ", \"dense_stages\": " << s.comm_dense_stages << "}";
        }
      }
    }
  }

  std::cout << '\n'
            << table.to_string()
            << "\n(auto must match the better path everywhere; the compact "
               "win concentrates at low density, where ghost sets are a "
               "small fraction of the block)\n";

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << "{\n  \"bench\": \"comm_volume\",\n  \"rows\": [\n"
       << json_rows.str() << "\n  ]\n}\n";
    if (!os.good()) {
      std::cerr << "error: could not write " << json_path << '\n';
      return 1;
    }
    std::cout << "wrote " << json_path << '\n';
  }
  return 0;
}
