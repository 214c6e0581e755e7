// Sampled-pipeline sweep: the pipelined distributed mini-batch engine vs
// the serialized baseline, and the frequency-aware feature cache across
// capacity fractions.
//
// For each dataset replica and device count the bench measures one warm
// steady-state epoch (phantom mode; the first epoch absorbs cold-cache
// admissions) for:
//
//   - the serialized engine, cache off   (the DistDGL-style baseline);
//   - the pipelined engine, cache off    (overlap win in isolation);
//   - the pipelined engine with the static (degree) and freq (LFU) caches
//     at each requested capacity fraction;
//   - the pipelined engine under MGGCN_CACHE=auto pricing.
//
// scripts/check_perf.py --cache gates the --json output: the pipelined
// engine must beat the serialized baseline by the locked factor on >= 4
// devices, auto must never lose to off, and the freq hit rate must be
// monotone in capacity.
#include <iostream>
#include <sstream>
#include <string>

#include "bench/common.hpp"
#include "core/sampled_pipeline.hpp"
#include "core/trainer.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

using namespace mggcn;

namespace {

struct RunResult {
  /// The steady-state epoch, extrapolated to full scale.
  core::EpochStats stats;
  std::string resolved_mode;
};

RunResult run_config(const graph::Dataset& ds,
                     const sim::MachineProfile& profile, int gpus,
                     core::SampledPipeline::Options options) {
  const std::vector<std::int64_t> dims = [&] {
    std::vector<std::int64_t> d;
    d.push_back(ds.spec.feature_dim);
    d.insert(d.end(), options.hidden_dims.begin(), options.hidden_dims.end());
    d.push_back(ds.spec.num_classes);
    return d;
  }();
  const std::uint64_t invariant = core::replicated_state_bytes(dims);
  sim::Machine machine(sim::scale_profile(profile, ds.scale, invariant),
                       gpus, sim::ExecutionMode::kPhantom);
  core::SampledPipeline pipeline(machine, ds, options);

  pipeline.train_epoch();  // cold epoch: prefill + admission churn
  return {bench::extrapolate(pipeline.train_epoch(), ds.extrapolation(),
                             invariant),
          core::cache_mode_name(pipeline.resolved_cache_mode())};
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "Sampled pipeline: stage overlap and feature-cache capacity sweep");
  bench::add_dataset_options(cli, "Arxiv,Products");
  cli.option("gpus", "4,8", "device counts");
  cli.option("fanout", "10,10", "per-hop fanout (also fixes model depth)");
  cli.option("batch", "256", "seeds per device per round");
  cli.option("hidden", "64", "hidden width");
  cli.option("caps", "0.01,0.05,0.1", "cache capacity fractions");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help();
    return 0;
  }

  bench::print_header(
      "sampled pipeline",
      "pipelined mini-batch engine vs serialized + feature-cache sweep, "
      "fanout " + cli.get("fanout") + ", batch " + cli.get("batch") +
      "/device, DGX-V100");

  core::SampledPipeline::Options base;
  base.fanout = cli.get_int_list("fanout");
  base.hidden_dims.assign(base.fanout.size() - 1, cli.get_int("hidden"));
  base.batch_size = cli.get_int("batch");
  base.seed = 7;

  const std::vector<std::string> caps = cli.get_list("caps");
  util::Table table({"Dataset", "GPUs", "engine", "cache", "cap", "epoch(s)",
                     "vs serial", "hit rate", "wire GB", "occupancy"});
  std::ostringstream json_rows;
  bool first_row = true;

  for (const auto& name : cli.get_list("datasets")) {
    const graph::Dataset ds = bench::load_cli_replica(cli, name);
    const sim::MachineProfile profile = sim::dgx_v100();
    std::cout << "  [" << ds.spec.name << " replica: n=" << ds.n()
              << " nnz=" << ds.nnz() << " scale=1/" << ds.scale << "]\n";

    for (const auto gpus : cli.get_int_list("gpus")) {
      struct Config {
        const char* engine;
        bool pipeline;
        core::CacheMode mode;
        double fraction;
      };
      std::vector<Config> configs = {
          {"serialized", false, core::CacheMode::kOff, 0.0},
          {"pipelined", true, core::CacheMode::kOff, 0.0},
      };
      for (const auto& cap : caps) {
        configs.push_back(
            {"pipelined", true, core::CacheMode::kStatic, std::stod(cap)});
        configs.push_back(
            {"pipelined", true, core::CacheMode::kFreq, std::stod(cap)});
      }
      configs.push_back({"pipelined", true, core::CacheMode::kAuto,
                         core::cache_capacity_fraction()});

      double serial_seconds = 0.0;
      for (const Config& config : configs) {
        core::SampledPipeline::Options options = base;
        options.pipeline = config.pipeline;
        options.cache_mode = config.mode;
        options.cache_capacity_fraction = config.fraction;
        const RunResult r =
            run_config(ds, profile, static_cast<int>(gpus), options);
        const double seconds = r.stats.sim_seconds;
        if (!config.pipeline) serial_seconds = seconds;

        table.add_row(
            {ds.spec.name, std::to_string(gpus), config.engine,
             core::cache_mode_name(config.mode),
             util::format_double(config.fraction, 3),
             util::format_double(seconds, 4),
             serial_seconds > 0
                 ? util::format_double(serial_seconds / seconds, 2) + "x"
                 : "-",
             util::format_double(r.stats.cache_hit_rate, 3),
             util::format_double(
                 static_cast<double>(r.stats.comm_wire_bytes) / 1e9, 3),
             util::format_double(r.stats.pipe_occupancy, 3)});

        if (!first_row) json_rows << ",\n";
        first_row = false;
        json_rows << "    {\"dataset\": \"" << ds.spec.name
                  << "\", \"gpus\": " << gpus << ", \"engine\": \""
                  << config.engine << "\", \"cache_mode\": \""
                  << core::cache_mode_name(config.mode)
                  << "\", \"resolved_mode\": \"" << r.resolved_mode
                  << "\", \"capacity_fraction\": " << config.fraction
                  << ", \"fanout\": \"" << cli.get("fanout")
                  << "\", \"seconds\": " << seconds
                  << ", \"hit_rate\": " << r.stats.cache_hit_rate
                  << ", \"wire_bytes\": " << r.stats.comm_wire_bytes
                  << ", \"occupancy\": " << r.stats.pipe_occupancy << ", "
                  << bench::pipeline_json_fragment(r.stats) << "}";
      }
    }
  }

  std::cout << '\n'
            << table.to_string()
            << "\n(the pipelined engine hides next-batch extraction behind "
               "training; the cache converts remote feature reads into HBM "
               "hits — hit rate grows with capacity, wire bytes shrink.)\n";
  return bench::write_json(cli, "sampled_pipeline", json_rows.str()) ? 0 : 1;
}
