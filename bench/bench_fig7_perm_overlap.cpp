// Fig. 7: effect of the §5.2 random permutation and the §4.3
// communication/computation overlap on epoch runtime, per dataset and GPU
// count on DGX-V100, normalized to the original-ordering run.
//
// Paper landmarks: permutation can be slightly slower at low GPU counts but
// reaches ~1.5x at 8 GPUs on Products/Reddit; overlap adds a further
// ~1.15x at 8 GPUs.
#include <iostream>

#include "bench/common.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

using namespace mggcn;

int main(int argc, char** argv) {
  util::CliParser cli("Fig. 7 reproduction: permutation + overlap speedups");
  cli.option("datasets", "Cora,Arxiv,Products,Proteins,Reddit", "datasets");
  cli.option("gpus", "1,2,4,8", "GPU counts");
  cli.option("scale", "0", "replica scale override (0 = default)");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  bench::print_header(
      "Fig. 7",
      "speedup of permuted and permuted+overlapped execution w.r.t. the "
      "original ordering, 2-layer GCN hidden=512, DGX-V100");

  util::Table table({"Dataset", "GPUs", "orig(s)", "perm(s)", "perm+ovlp(s)",
                     "perm speedup", "perm+ovlp speedup", "imbalance orig"});

  for (const auto& name : cli.get_list("datasets")) {
    const graph::DatasetSpec spec = graph::dataset_by_name(name);
    const double scale = cli.get_double("scale") > 0 ? cli.get_double("scale")
                                                     : bench::default_scale(spec);
    const graph::Dataset ds = bench::load_replica(spec, scale);
    const sim::MachineProfile profile = sim::dgx_v100();

    for (const auto gpus : cli.get_int_list("gpus")) {
      core::TrainConfig orig = core::model_hidden512();
      orig.permute = false;
      orig.overlap = false;
      core::TrainConfig perm = orig;
      perm.permute = true;
      core::TrainConfig perm_ovlp = perm;
      perm_ovlp.overlap = true;

      const auto g = static_cast<int>(gpus);
      const auto r_orig =
          bench::run_epoch(bench::System::kMgGcn, profile, g, ds, orig);
      const auto r_perm =
          bench::run_epoch(bench::System::kMgGcn, profile, g, ds, perm);
      const auto r_both =
          bench::run_epoch(bench::System::kMgGcn, profile, g, ds, perm_ovlp);

      if (r_orig.oom || r_perm.oom || r_both.oom) {
        table.add_row({spec.name, std::to_string(gpus), "OOM", "OOM", "OOM",
                       "-", "-", "-"});
        continue;
      }
      const double orig_seconds = r_orig.stats.sim_seconds;
      table.add_row(
          {spec.name, std::to_string(gpus), bench::cell_seconds(r_orig),
           bench::cell_seconds(r_perm), bench::cell_seconds(r_both),
           util::format_speedup(orig_seconds / r_perm.stats.sim_seconds),
           util::format_speedup(orig_seconds / r_both.stats.sim_seconds),
           util::format_double(r_orig.imbalance, 2)});
    }
  }

  std::cout << table.to_string() << '\n';
  return 0;
}
