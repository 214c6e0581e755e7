// Ablation study over MG-GCN's design choices (DESIGN.md §5): starting
// from the full configuration, disable one optimization at a time and
// measure the epoch-time regression, plus the nnz-balanced-partition
// alternative to the §5.2 permutation.
//
// Not a paper figure — this bench quantifies the individual contribution
// of each §4/§5 mechanism on the same workloads the paper evaluates.
#include <iostream>

#include "bench/common.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

using namespace mggcn;

namespace {

struct Variant {
  const char* name;
  core::TrainConfig (*apply)(core::TrainConfig);
};

core::TrainConfig full(core::TrainConfig c) { return c; }
core::TrainConfig no_permute(core::TrainConfig c) {
  c.permute = false;
  return c;
}
core::TrainConfig no_overlap(core::TrainConfig c) {
  c.overlap = false;
  return c;
}
core::TrainConfig no_reorder(core::TrainConfig c) {
  c.reorder_gemm_spmm = false;
  return c;
}
core::TrainConfig no_skip(core::TrainConfig c) {
  c.skip_first_backward_spmm = false;
  return c;
}
core::TrainConfig no_reuse(core::TrainConfig c) {
  c.reuse_buffers = false;
  return c;
}
core::TrainConfig balanced_cuts(core::TrainConfig c) {
  // The alternative load-balancing strategy: keep the natural order but
  // cut at nnz-balanced points instead of permuting.
  c.permute = false;
  c.part_mode = core::PartMode::kBalanced;
  return c;
}

constexpr Variant kVariants[] = {
    {"full MG-GCN", full},
    {"- permutation (5.2)", no_permute},
    {"  ~ balanced-nnz cuts instead", balanced_cuts},
    {"- overlap (4.3)", no_overlap},
    {"- order switch (4.4)", no_reorder},
    {"- first-layer skip (4.4)", no_skip},
    {"- buffer reuse (4.2, memory only)", no_reuse},
};

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("Ablation: per-optimization epoch-time contribution");
  cli.option("datasets", "Products,Reddit", "datasets");
  cli.option("gpus", "8", "GPU count");
  cli.option("scale", "0", "replica scale override (0 = default)");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  bench::print_header(
      "Ablation", "epoch time with each optimization disabled in isolation "
                  "(2-layer GCN hidden=512, DGX-V100)");

  const int gpus = static_cast<int>(cli.get_int("gpus"));
  util::Table table(
      {"Dataset", "Variant", "epoch(s)", "vs full", "peak GiB/GPU"});

  for (const auto& name : cli.get_list("datasets")) {
    const graph::DatasetSpec spec = graph::dataset_by_name(name);
    const double scale = cli.get_double("scale") > 0 ? cli.get_double("scale")
                                                     : bench::default_scale(spec);
    const graph::Dataset ds = bench::load_replica(spec, scale);

    double full_seconds = 0.0;
    for (const auto& variant : kVariants) {
      const bench::EpochResult r =
          bench::run_epoch(bench::System::kMgGcn, sim::dgx_v100(), gpus, ds,
                           variant.apply(core::model_hidden512()));
      if (r.oom) {
        table.add_row({spec.name, variant.name, "OOM", "-", "-"});
        continue;
      }
      const double seconds = r.stats.sim_seconds;
      if (variant.apply == full) full_seconds = seconds;
      table.add_row(
          {spec.name, variant.name, bench::cell_seconds(r),
           full_seconds > 0
               ? util::format_double(seconds / full_seconds, 2) + "x"
               : "-",
           util::format_double(
               static_cast<double>(r.stats.peak_memory_bytes) / (1ULL << 30),
               2)});
    }
  }

  std::cout << table.to_string()
            << "\n(>1.00x = slower without that optimization; buffer reuse "
               "shows up in the memory column.)\n";
  return 0;
}
