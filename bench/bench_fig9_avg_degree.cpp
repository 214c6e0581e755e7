// Fig. 9: speedup over the single-GPU runtime as the average degree grows —
// the §6.4 BTER study. Arxiv-shaped synthetic graphs with the average
// degree scaled 1x..128x, 512 features, 40 classes, DGX-V100.
//
// Paper landmark: super-linear speedup appears for 2 and 4 GPUs from ~32x
// scaling and for 8 GPUs from ~64x — denser adjacency means the gather
// working set dominates, and narrower per-GPU tiles fit the L2 (the
// "blocking effect of partitioning").
#include <iostream>

#include "bench/common.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

using namespace mggcn;

int main(int argc, char** argv) {
  util::CliParser cli("Fig. 9 reproduction: average-degree scaling study");
  cli.option("degrees", "1,2,4,8,16,32,64,128", "degree scale factors");
  cli.option("gpus", "1,2,4,8", "GPU counts");
  cli.option("scale", "16", "replica scale");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  bench::print_header(
      "Fig. 9",
      "speedup w.r.t. 1-GPU MG-GCN on BTER-scaled Arxiv (512 features), "
      "DGX-V100");

  const auto gpu_list = cli.get_int_list("gpus");
  std::vector<std::string> header = {"Degree scale", "avg deg", "1 GPU(s)"};
  for (std::size_t i = 1; i < gpu_list.size(); ++i) {
    header.push_back(std::to_string(gpu_list[i]) + " GPUs speedup");
  }
  util::Table table(std::move(header));

  for (const auto deg : cli.get_int_list("degrees")) {
    const graph::DatasetSpec spec =
        graph::scaled_arxiv_spec(static_cast<double>(deg));
    const graph::Dataset ds =
        bench::load_replica(spec, cli.get_double("scale"));
    const sim::MachineProfile profile = sim::dgx_v100();

    std::vector<double> seconds;
    for (const auto gpus : gpu_list) {
      const auto r = bench::run_epoch(bench::System::kMgGcn, profile,
                                      static_cast<int>(gpus), ds,
                                      core::model_hidden512());
      seconds.push_back(r.oom ? -1.0 : r.stats.sim_seconds);
    }

    std::vector<std::string> row = {
        std::to_string(deg) + "x",
        util::format_double(static_cast<double>(ds.nnz()) /
                                static_cast<double>(ds.n()),
                            1),
        seconds[0] > 0 ? util::format_double(seconds[0], 4) : "OOM"};
    for (std::size_t i = 1; i < gpu_list.size(); ++i) {
      row.push_back(seconds[i] > 0 && seconds[0] > 0
                        ? util::format_speedup(seconds[0] / seconds[i])
                        : "OOM");
    }
    table.add_row(std::move(row));
  }

  std::cout << table.to_string()
            << "\n(speedup > #GPUs = super-linear, the paper's §6.4 "
               "cache-blocking effect)\n";
  return 0;
}
