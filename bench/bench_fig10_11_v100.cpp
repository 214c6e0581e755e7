// Figs. 10 + 11: epoch runtime on DGX-V100 for CAGNET / DGL / MG-GCN across
// datasets and GPU counts (Fig. 10), and the same runs expressed as speedup
// over single-GPU DGL (Fig. 11).
//
// Paper landmarks: MG-GCN single-GPU beats DGL by 2.72x (Reddit), 1.42x
// (Products), 1.76x (Arxiv), 3.1x (Cora); at 8 GPUs it beats CAGNET by
// 2.66x / 8.6x / 2.35x on Reddit / Products / Arxiv; Proteins OOMs for
// DGL and CAGNET everywhere and for MG-GCN below 4 GPUs; Cora is too small
// for anyone to scale.
#include <iostream>
#include <map>

#include "bench/common.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

using namespace mggcn;

int main(int argc, char** argv) {
  util::CliParser cli("Figs. 10-11 reproduction: DGX-V100 comparison");
  bench::add_dataset_options(cli, "Cora,Arxiv,Products,Proteins,Reddit");
  cli.option("gpus", "1,2,4,8", "GPU counts");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  bench::print_header(
      "Figs. 10-11",
      "epoch runtime and speedup vs DGL, 2-layer GCN hidden=512, DGX-V100");

  util::Table runtime(
      {"Dataset", "System", "1 GPU", "2 GPUs", "4 GPUs", "8 GPUs"});
  util::Table speedup(
      {"Dataset", "System", "1 GPU", "2 GPUs", "4 GPUs", "8 GPUs"});

  const auto gpu_list = cli.get_int_list("gpus");
  for (const auto& name : cli.get_list("datasets")) {
    const graph::Dataset ds = bench::load_cli_replica(cli, name);
    const graph::DatasetSpec& spec = ds.spec;
    const sim::MachineProfile profile = sim::dgx_v100();

    std::map<std::pair<bench::System, int>, bench::EpochResult> results;
    for (const bench::System system :
         {bench::System::kCagnet, bench::System::kDgl, bench::System::kMgGcn}) {
      for (const auto gpus : gpu_list) {
        if (system == bench::System::kDgl && gpus != 1) continue;  // no MG DGL
        results[{system, static_cast<int>(gpus)}] =
            bench::run_epoch(system, profile, static_cast<int>(gpus), ds,
                             core::model_hidden512());
      }
    }

    const bench::EpochResult& dgl1 = results[{bench::System::kDgl, 1}];
    for (const bench::System system :
         {bench::System::kCagnet, bench::System::kDgl, bench::System::kMgGcn}) {
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

  std::cout << "Fig. 10 — epoch runtime (seconds):\n"
            << runtime.to_string() << '\n'
            << "Fig. 11 — speedup w.r.t. single-GPU DGL:\n"
            << speedup.to_string() << '\n';
  return 0;
}
