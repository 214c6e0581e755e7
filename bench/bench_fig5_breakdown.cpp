// Fig. 5: runtime decomposition of the operations in one training epoch
// (Activation / Adam / GeMM / Loss-Layer / SpMM percentages) per dataset and
// GPU count on DGX-V100, 2-layer model with hidden 512.
//
// The paper's headline from this figure: SpMM takes 60-94% on the large
// datasets (Proteins, Products, Reddit) and GeMM dominates the small ones
// (Cora); Proteins OOMs below 4 GPUs.
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench/common.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

using namespace mggcn;

int main(int argc, char** argv) {
  util::CliParser cli(
      "Fig. 5 reproduction: per-operation runtime breakdown (DGX-V100)");
  bench::add_dataset_options(cli, "Cora,Arxiv,Products,Proteins,Reddit");
  cli.option("gpus", "1,2,4,8", "GPU counts");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  bench::print_header("Fig. 5",
                      "operation breakdown of a training epoch, 2-layer GCN "
                      "hidden=512, DGX-V100");

  util::Table table({"Dataset", "GPUs", "SpMM%", "GeMM%", "Activation%",
                     "Loss-Layer%", "Adam%", "epoch(s)"});
  std::ostringstream json_rows;
  bool first_row = true;

  for (const auto& name : cli.get_list("datasets")) {
    const graph::Dataset ds = bench::load_cli_replica(cli, name);
    const graph::DatasetSpec& spec = ds.spec;
    const sim::MachineProfile profile = sim::dgx_v100();
    std::cout << "  [" << spec.name << " replica: n=" << ds.n()
              << " nnz=" << ds.nnz() << " scale=1/" << ds.scale << "]\n";

    for (const auto gpus : cli.get_int_list("gpus")) {
      const bench::EpochResult r = bench::run_epoch(
          bench::System::kMgGcn, profile, static_cast<int>(gpus), ds,
          core::model_hidden512());
      if (!first_row) json_rows << ",\n";
      first_row = false;
      if (r.oom) {
        table.add_row({spec.name, std::to_string(gpus), "OOM", "OOM", "OOM",
                       "OOM", "OOM", "OOM"});
        json_rows << "    {\"dataset\": \"" << spec.name << "\", \"gpus\": "
                  << gpus << ", \"oom\": true}";
        continue;
      }

      auto busy = [&](sim::TaskKind kind) {
        const auto it = r.stats.busy_by_kind.find(kind);
        return it == r.stats.busy_by_kind.end() ? 0.0 : it->second;
      };
      // The paper attributes the broadcast wait to the SpMM stage.
      const double spmm = busy(sim::TaskKind::kSpMM) + busy(sim::TaskKind::kComm);
      const double gemm = busy(sim::TaskKind::kGeMM);
      const double act = busy(sim::TaskKind::kActivation);
      const double loss = busy(sim::TaskKind::kLoss);
      const double adam = busy(sim::TaskKind::kOptimizer);
      const double total = spmm + gemm + act + loss + adam;
      auto pct = [&](double x) {
        return util::format_double(total > 0 ? 100.0 * x / total : 0.0, 1);
      };
      table.add_row({spec.name, std::to_string(gpus), pct(spmm), pct(gemm),
                     pct(act), pct(loss), pct(adam),
                     util::format_double(r.stats.sim_seconds, 4)});
      json_rows << "    {\"dataset\": \"" << spec.name << "\", \"gpus\": "
                << gpus << ", \"oom\": false, \"epoch_seconds\": "
                << r.stats.sim_seconds
                << ", \"busy_seconds\": {\"spmm\": " << spmm
                << ", \"gemm\": " << gemm << ", \"activation\": " << act
                << ", \"loss\": " << loss << ", \"adam\": " << adam << "}, "
                << bench::comm_json_fragment(r.stats) << "}";
    }
  }

  std::cout << '\n' << table.to_string() << '\n';

  return bench::write_json(cli, "fig5_breakdown", json_rows.str()) ? 0 : 1;
}
