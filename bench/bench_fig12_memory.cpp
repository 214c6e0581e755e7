// Fig. 12: per-GPU memory consumption on Reddit (hidden 512) as a function
// of the number of layers — DGL vs MG-GCN on 1 GPU, CAGNET vs MG-GCN on 8
// GPUs. Memory grows linearly in the layer count; the slopes differ by the
// §4.2 buffer-reuse scheme (1 big buffer per layer vs ~3).
//
// Paper landmarks at a 30 GiB budget: DGL fits ~20 layers where MG-GCN fits
// ~50 (1 GPU); CAGNET fits ~150 where MG-GCN fits ~450 (8 GPUs).
#include <iostream>

#include "baselines/cagnet.hpp"
#include "baselines/dgl_like.hpp"
#include "bench/common.hpp"
#include "comm/comm_mode.hpp"
#include "core/trainer.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

using namespace mggcn;

namespace {

constexpr double kBudgetGiB = 30.0;

/// Peak per-GPU bytes (full-scale extrapolated) for an L-layer model, or
/// -1 when construction itself OOMs against the (scaled) 32 GiB V100.
double peak_gib(bench::System system, const sim::MachineProfile& profile,
                int gpus, const graph::Dataset& ds, int layers,
                comm::CommMode mode = comm::CommMode::kDense) {
  core::TrainConfig config = core::model_hidden512();
  config.hidden_dims.assign(static_cast<std::size_t>(layers - 1), 512);
  config.comm_mode = mode;
  const bench::EpochResult r =
      bench::run_epoch(system, profile, gpus, ds, config);
  if (r.oom) return -1.0;
  return static_cast<double>(r.stats.peak_memory_bytes) /
         (1024.0 * 1024.0 * 1024.0);
}

/// Largest layer count whose peak memory fits the 30 GiB budget.
int max_layers(bench::System system, const sim::MachineProfile& profile,
               int gpus, const graph::Dataset& ds,
               comm::CommMode mode = comm::CommMode::kDense) {
  int lo = 1, hi = 2;
  while (true) {
    const double gib = peak_gib(system, profile, gpus, ds, hi, mode);
    if (gib < 0 || gib > kBudgetGiB) break;
    lo = hi;
    hi *= 2;
    if (hi > 4096) return lo;
  }
  while (lo + 1 < hi) {
    const int mid = (lo + hi) / 2;
    const double gib = peak_gib(system, profile, gpus, ds, mid, mode);
    if (gib >= 0 && gib <= kBudgetGiB) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("Fig. 12 reproduction: memory vs number of layers");
  cli.option("scale", "96", "replica scale for Reddit");
  cli.option("layers", "2,5,10,20,50,100,150,300,450", "layer counts");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  const graph::DatasetSpec spec = graph::reddit();
  const graph::Dataset ds =
      bench::load_replica(spec, cli.get_double("scale"));
  // Remove the capacity ceiling so the sweep can exceed 32 GiB like the
  // figure's y-axis does; the budget line is applied afterwards.
  sim::MachineProfile profile = sim::dgx_v100();
  profile.device.memory_bytes *= 64;

  bench::print_header("Fig. 12",
                      "per-GPU memory vs layers, Reddit hidden=512", spec,
                      ds.scale);

  util::Table table({"Layers", "DGL 1GPU (GiB)", "MG-GCN 1GPU (GiB)",
                     "CAGNET 8GPU (GiB)", "MG-GCN 8GPU (GiB)",
                     "MG-GCN 8GPU compact (GiB)"});
  for (const auto layers : cli.get_int_list("layers")) {
    const int l = static_cast<int>(layers);
    auto cell = [&](bench::System system, int gpus,
                    comm::CommMode mode = comm::CommMode::kDense) {
      const double gib = peak_gib(system, profile, gpus, ds, l, mode);
      return gib < 0 ? std::string("OOM") : util::format_double(gib, 2);
    };
    table.add_row({std::to_string(l), cell(bench::System::kDgl, 1),
                   cell(bench::System::kMgGcn, 1),
                   cell(bench::System::kCagnet, 8),
                   cell(bench::System::kMgGcn, 8),
                   cell(bench::System::kMgGcn, 8,
                        comm::CommMode::kCompact)});
  }
  std::cout << table.to_string()
            << "(compact adds only the layer-count-independent ghost maps, "
               "so the L+3 slope is unchanged)\n\n";

  util::Table fits({"Setting", "System", "max layers under 30 GiB"});
  fits.add_row({"1 GPU", "DGL",
                std::to_string(max_layers(bench::System::kDgl, profile, 1, ds))});
  fits.add_row({"1 GPU", "MG-GCN",
                std::to_string(max_layers(bench::System::kMgGcn, profile, 1, ds))});
  fits.add_row({"8 GPUs", "CAGNET",
                std::to_string(max_layers(bench::System::kCagnet, profile, 8, ds))});
  fits.add_row({"8 GPUs", "MG-GCN",
                std::to_string(max_layers(bench::System::kMgGcn, profile, 8, ds))});
  fits.add_row({"8 GPUs", "MG-GCN compact",
                std::to_string(max_layers(bench::System::kMgGcn, profile, 8,
                                          ds, comm::CommMode::kCompact))});
  std::cout << fits.to_string()
            << "\n(paper: ~20 vs ~50 on 1 GPU; ~150 vs ~450 on 8 GPUs)\n";
  return 0;
}
