// Figs. 13 + 14: epoch runtime on DGX-A100 (DGL vs MG-GCN, Fig. 13) and
// speedup over single-GPU DGL (Fig. 14). CAGNET is absent, as in the paper
// (it does not build against CUDA 11).
//
// Paper landmarks: MG-GCN single-GPU beats DGL by 2.2x (Cora), 1.8x
// (Arxiv), 1.5x (Products), 1.5x (Reddit); with 8 GPUs it reaches 8.5x
// (Products) and 8.3x (Reddit) over single-GPU DGL.
#include <iostream>
#include <map>

#include "bench/common.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

using namespace mggcn;

int main(int argc, char** argv) {
  util::CliParser cli("Figs. 13-14 reproduction: DGX-A100 comparison");
  cli.option("datasets", "Cora,Arxiv,Products,Proteins,Reddit", "datasets");
  cli.option("gpus", "1,2,4,8", "GPU counts");
  cli.option("scale", "0", "replica scale override (0 = default)");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  bench::print_header(
      "Figs. 13-14",
      "epoch runtime and speedup vs DGL, 2-layer GCN hidden=512, DGX-A100");

  util::Table runtime(
      {"Dataset", "System", "1 GPU", "2 GPUs", "4 GPUs", "8 GPUs"});
  util::Table speedup(
      {"Dataset", "System", "1 GPU", "2 GPUs", "4 GPUs", "8 GPUs"});

  const auto gpu_list = cli.get_int_list("gpus");
  for (const auto& name : cli.get_list("datasets")) {
    const graph::DatasetSpec spec = graph::dataset_by_name(name);
    const double scale = cli.get_double("scale") > 0 ? cli.get_double("scale")
                                                     : bench::default_scale(spec);
    const graph::Dataset ds = bench::load_replica(spec, scale);
    const sim::MachineProfile profile = sim::dgx_a100();

    std::map<std::pair<bench::System, int>, bench::EpochResult> results;
    for (const bench::System system :
         {bench::System::kDgl, bench::System::kMgGcn}) {
      for (const auto gpus : gpu_list) {
        if (system == bench::System::kDgl && gpus != 1) continue;
        results[{system, static_cast<int>(gpus)}] =
            bench::run_epoch(system, profile, static_cast<int>(gpus), ds,
                             core::model_hidden512());
      }
    }

    const bench::EpochResult& dgl1 = results[{bench::System::kDgl, 1}];
    for (const bench::System system :
         {bench::System::kDgl, bench::System::kMgGcn}) {
      std::vector<std::string> rt_row = {spec.name,
                                         bench::system_name(system)};
      std::vector<std::string> sp_row = rt_row;
      for (const auto gpus : gpu_list) {
        const auto it = results.find({system, static_cast<int>(gpus)});
        if (it == results.end()) {
          rt_row.push_back("-");
          sp_row.push_back("-");
          continue;
        }
        rt_row.push_back(bench::cell_seconds(it->second));
        if (it->second.oom || dgl1.oom || dgl1.stats.sim_seconds <= 0.0) {
          sp_row.push_back(it->second.oom ? "OOM" : "-");
        } else {
          sp_row.push_back(util::format_speedup(
              dgl1.stats.sim_seconds / it->second.stats.sim_seconds));
        }
      }
      runtime.add_row(std::move(rt_row));
      speedup.add_row(std::move(sp_row));
    }
  }

  std::cout << "Fig. 13 — epoch runtime (seconds):\n"
            << runtime.to_string() << '\n'
            << "Fig. 14 — speedup w.r.t. single-GPU DGL:\n"
            << speedup.to_string() << '\n';
  return 0;
}
