// Workspace-pool footprint sweep: MGGCN_POOL=off (static allocation) vs
// the stream-ordered pool, per tenant and on a combined co-resident
// pipeline + serving workload sharing one mem::PoolSet budget.
//
// Every cell runs the same workload twice on real-mode, hazard-checked
// machines — once with static buffers, once leased from the pool — and
// reports the device-ledger high-water mark of each. A parity pass
// re-runs the pooled mode under MGGCN_SCHED_FUZZ seeds and checks that
// losses (and served predictions on the combined cell) stay bit-identical
// to the static baseline: recycling changes where scratch lives, never
// what it holds.
//
// scripts/check_perf.py --mem gates the --json output: pooled peak <=
// static peak on every cell, the combined pipeline+serving cell must cut
// the footprint by the locked factor (reuse of recycled training scratch
// by the serving tier), and every cell must report parity and a clean
// hazard ledger.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/config.hpp"
#include "core/inference_server.hpp"
#include "core/sampled_pipeline.hpp"
#include "core/trainer.hpp"
#include "core/workload.hpp"
#include "dense/matrix.hpp"
#include "mem/pool_mode.hpp"
#include "mem/workspace_pool.hpp"
#include "sim/machine.hpp"
#include "sim/profile.hpp"
#include "tests/scoped_env.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

using namespace mggcn;

namespace {

/// One workload execution's footprint + numerics.
struct RunResult {
  std::uint64_t peak = 0;  ///< max device-ledger high water (replica scale)
  std::vector<double> losses;
  dense::HostMatrix predictions;  ///< combined cells only
  mem::PoolStats pool;            ///< the cell's pools (zero when static)
  bool hazard_clean = true;
};

struct CellParams {
  int gpus = 4;
  int layers = 3;  ///< total GCN layers (hidden count = layers - 1)
  std::int64_t hidden = 32;
  std::int64_t batch = 256;
  std::int64_t requests = 512;
  int epochs = 2;
};

/// A tenant cell's pools: kOn cells build the set and pass it in, like
/// run_combined; kOff/kAuto cells keep none, so the tenant resolves exactly
/// as a default-wired engine would (static allocation).
std::shared_ptr<mem::PoolSet> cell_pools(sim::Machine& machine,
                                         mem::PoolMode mode) {
  return mode == mem::PoolMode::kOn ? mem::PoolSet::create(machine) : nullptr;
}

void finish(sim::Machine& machine, const mem::PoolSet* pools,
            RunResult* out) {
  out->peak = machine.max_memory_peak();
  if (pools != nullptr) out->pool = pools->stats();
  out->hazard_clean = machine.trace().hazard_count() == 0;
}

RunResult run_trainer(const graph::Dataset& ds,
                      const sim::MachineProfile& profile,
                      const CellParams& p, mem::PoolMode mode) {
  RunResult out;
  sim::Machine machine(profile, p.gpus, sim::ExecutionMode::kReal,
                       /*hazard_check=*/true);
  const std::shared_ptr<mem::PoolSet> pools = cell_pools(machine, mode);
  core::TrainConfig config;
  config.hidden_dims.assign(static_cast<std::size_t>(p.layers - 1), p.hidden);
  config.seed = 7;
  config.pool_mode = mode;
  config.pool = pools;
  core::MgGcnTrainer trainer(machine, ds, config);
  for (const auto& stats : trainer.train(p.epochs)) {
    out.losses.push_back(stats.loss);
  }
  finish(machine, pools.get(), &out);
  return out;
}

RunResult run_pipeline(const graph::Dataset& ds,
                       const sim::MachineProfile& profile,
                       const CellParams& p, mem::PoolMode mode) {
  RunResult out;
  sim::Machine machine(profile, p.gpus, sim::ExecutionMode::kReal,
                       /*hazard_check=*/true);
  const std::shared_ptr<mem::PoolSet> pools = cell_pools(machine, mode);
  core::SampledPipeline::Options options;
  options.hidden_dims.assign(static_cast<std::size_t>(p.layers - 1), p.hidden);
  options.fanout.assign(static_cast<std::size_t>(p.layers), 10);
  options.batch_size = p.batch;
  options.seed = 3;
  options.pool_mode = mode;
  options.pool = pools;
  core::SampledPipeline pipeline(machine, ds, options);
  for (const auto& stats : pipeline.train(p.epochs)) {
    out.losses.push_back(stats.loss);
  }
  finish(machine, pools.get(), &out);
  return out;
}

/// The cross-component cell: a full-batch trainer (store producer), the
/// sampled pipeline, and the inference server co-resident on one machine.
/// Pooled runs share one mem::PoolSet, so the serving tier's shards and
/// gather scratch reuse the blocks the pipeline's rounds recycled, and the
/// second training epoch reuses the serve scratch recycled between calls.
RunResult run_combined(const graph::Dataset& ds,
                       const sim::MachineProfile& profile,
                       const CellParams& p, mem::PoolMode mode) {
  RunResult out;
  sim::Machine machine(profile, p.gpus, sim::ExecutionMode::kReal,
                       /*hazard_check=*/true);
  std::shared_ptr<mem::PoolSet> pools;
  const bool pooled = mode != mem::PoolMode::kOff;
  if (pooled) pools = mem::PoolSet::create(machine);
  const mem::PoolMode tenant_mode =
      pooled ? mem::PoolMode::kAuto : mem::PoolMode::kOff;

  core::TrainConfig config;
  config.hidden_dims = {p.hidden};
  config.seed = 7;
  config.pool_mode = tenant_mode;
  config.pool = pools;
  core::MgGcnTrainer trainer(machine, ds, config);
  trainer.train(1);
  trainer.run_forward();

  core::SampledPipeline::Options popt;
  popt.hidden_dims.assign(static_cast<std::size_t>(p.layers - 1), p.hidden);
  popt.fanout.assign(static_cast<std::size_t>(p.layers), 10);
  popt.batch_size = p.batch;
  popt.seed = 3;
  popt.pool_mode = tenant_mode;
  popt.pool = pools;
  core::SampledPipeline pipeline(machine, ds, popt);
  out.losses.push_back(pipeline.train_epoch().loss);

  serve::WorkloadOptions wl;
  wl.rate_qps = 100000.0;
  wl.seed = 11;
  serve::WorkloadGen gen(ds.n(), wl);
  const auto requests = gen.generate(p.requests);

  core::ServeOptions sopt;
  sopt.max_batch = 32;
  sopt.pool_mode = tenant_mode;
  sopt.pool = pools;
  core::InferenceServer server(machine, trainer, ds, sopt);
  server.serve(requests);
  // Second epoch with the server resident: statically its gather scratch
  // stays allocated for the server's lifetime; pooled, it was recycled at
  // the end of serve() and the pipeline's rounds lease it back.
  out.losses.push_back(pipeline.train_epoch().loss);
  server.serve(requests);
  out.predictions = server.predictions();

  machine.synchronize();
  finish(machine, pools.get(), &out);
  return out;
}

bool same_losses(const std::vector<double>& a, const std::vector<double>& b) {
  return a == b;  // bit-exact, no tolerance
}

bool same_predictions(const dense::HostMatrix& a, const dense::HostMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t c = 0; c < a.cols(); ++c) {
      if (a.at(i, c) != b.at(i, c)) return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "Workspace-pool footprint: static vs pooled peak bytes per tenant and "
      "on the combined pipeline+serving workload");
  bench::add_dataset_options(cli, "Arxiv");
  cli.option("gpus", "4", "device counts");
  cli.option("layers", "3,4", "total GCN layers per tenant cell");
  cli.option("hidden", "32", "hidden width");
  cli.option("batch", "256", "pipeline seeds per device per round");
  cli.option("requests", "512", "serving trace length (combined cell)");
  cli.option("epochs", "2", "training epochs per cell");
  cli.option("fuzz-seeds", "1,2,3", "MGGCN_SCHED_FUZZ parity seeds");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  bench::print_header(
      "memory-pool",
      "stream-ordered workspace pool vs static allocation, DGX-V100");

  const auto fuzz_seeds = cli.get_list("fuzz-seeds");
  CellParams base;
  base.hidden = cli.get_int("hidden");
  base.batch = cli.get_int("batch");
  base.requests = cli.get_int("requests");
  base.epochs = static_cast<int>(cli.get_int("epochs"));

  util::Table table({"Workload", "Dataset", "GPUs", "L", "static peak",
                     "pooled peak", "gain", "reuse", "parity", "hazards"});
  std::ostringstream json_rows;
  bool first_row = true;

  for (const auto& name : cli.get_list("datasets")) {
    const graph::Dataset ds = bench::load_cli_featured_replica(cli, name);
    std::cout << "  [" << ds.spec.name << " replica: n=" << ds.n()
              << " nnz=" << ds.nnz() << " scale=1/" << ds.scale << "]\n";

    core::TrainConfig invariant_probe;
    invariant_probe.hidden_dims.assign(2, base.hidden);
    const std::uint64_t invariant = core::replicated_state_bytes(
        core::layer_dims(ds, invariant_probe));
    const sim::MachineProfile profile =
        sim::scale_profile(sim::dgx_v100(), ds.scale, invariant);
    const double x = ds.extrapolation();

    for (const auto gpus : cli.get_int_list("gpus")) {
      const auto layer_list = cli.get_int_list("layers");
      for (std::size_t w = 0; w < 3; ++w) {
        const std::string workload =
            w == 0 ? "trainer" : (w == 1 ? "pipeline" : "combined");
        // The combined cell runs once per GPU count at the deepest model;
        // the tenant cells sweep the layer axis.
        std::vector<std::int64_t> layers_axis(layer_list);
        if (w == 2) {
          layers_axis = {*std::max_element(layer_list.begin(),
                                           layer_list.end())};
        }
        for (const auto layers : layers_axis) {
          CellParams p = base;
          p.gpus = static_cast<int>(gpus);
          p.layers = static_cast<int>(layers);
          const auto run = [&](mem::PoolMode mode) {
            switch (w) {
              case 0: return run_trainer(ds, profile, p, mode);
              case 1: return run_pipeline(ds, profile, p, mode);
              default: return run_combined(ds, profile, p, mode);
            }
          };

          const RunResult off = run(mem::PoolMode::kOff);
          const RunResult on = run(mem::PoolMode::kOn);
          const RunResult aut = run(mem::PoolMode::kAuto);

          bool parity = same_losses(on.losses, off.losses) &&
                        same_losses(aut.losses, off.losses);
          if (w == 2) {
            parity = parity && same_predictions(on.predictions,
                                                off.predictions) &&
                     same_predictions(aut.predictions, off.predictions);
          }
          bool hazard_clean =
              off.hazard_clean && on.hazard_clean && aut.hazard_clean;
          // Sched-fuzz axis: the pooled recycling must stay bit-identical
          // and hazard-clean under perturbed schedules.
          for (const auto& seed : fuzz_seeds) {
            ScopedEnv fuzz("MGGCN_SCHED_FUZZ", seed.c_str());
            const RunResult fuzzed = run(mem::PoolMode::kOn);
            parity = parity && same_losses(fuzzed.losses, off.losses);
            if (w == 2) {
              parity = parity &&
                       same_predictions(fuzzed.predictions, off.predictions);
            }
            hazard_clean = hazard_clean && fuzzed.hazard_clean;
          }

          const auto extrapolate = [x](std::uint64_t bytes) {
            return static_cast<std::uint64_t>(static_cast<double>(bytes) * x);
          };
          const std::uint64_t static_peak = extrapolate(off.peak);
          const std::uint64_t pooled_peak = extrapolate(on.peak);
          const double reduction =
              pooled_peak > 0 ? static_cast<double>(static_peak) /
                                    static_cast<double>(pooled_peak)
                              : 1.0;

          table.add_row({workload, ds.spec.name, std::to_string(gpus),
                         std::to_string(layers),
                         util::format_bytes(static_peak),
                         util::format_bytes(pooled_peak),
                         util::format_double(reduction, 2) + "x",
                         std::to_string(on.pool.reuse_hits),
                         parity ? "yes" : "NO",
                         hazard_clean ? "clean" : "DIRTY"});

          if (!first_row) json_rows << ",\n";
          first_row = false;
          json_rows << "    {\"workload\": \"" << workload
                    << "\", \"dataset\": \"" << ds.spec.name
                    << "\", \"gpus\": " << gpus << ", \"layers\": " << layers
                    << ", \"static_peak_bytes\": " << static_peak
                    << ", \"pooled_peak_bytes\": " << pooled_peak
                    << ", \"reduction\": " << reduction
                    << ", \"reuse_hits\": " << on.pool.reuse_hits
                    << ", \"fragmentation\": " << on.pool.fragmentation_peak
                    << ", \"fuzz_seeds\": " << fuzz_seeds.size()
                    << ", \"parity\": " << (parity ? "true" : "false")
                    << ", \"hazard_clean\": "
                    << (hazard_clean ? "true" : "false") << "}";
        }
      }
    }
  }

  std::cout << '\n'
            << table.to_string()
            << "\n(the trainer's L+3 buffers are live for the engine's "
               "lifetime, so pooling matches but cannot beat its static "
               "peak; the pipeline's round scratch recycles at each level's "
               "last consumer; the combined cell time-multiplexes one "
               "budget between training rounds and serving gathers.)\n";
  return bench::write_json(cli, "memory-pool", json_rows.str()) ? 0 : 1;
}
