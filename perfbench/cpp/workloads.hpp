// The benchmark's three workloads and the run protocol they share.
//
//   fullbatch-products  MgGcnTrainer, Products replica 1/48, Model 1
//   minibatch-products  SampledPipeline on the same replica
//   serve-arxiv         InferenceServer behind a briefly trained trainer,
//                       Arxiv replica 1/4, open-loop Poisson/Zipf trace
//
// One run: generate the inputs from the seed (not timed), set the engine up
// several times (setup_s is the median), run steady operations for the
// requested seconds with tracing off, check the outputs, and — in the traced
// run — repeat the same operations with spans on, read the per-layer
// counters, replay each layer on the workload's inputs and write the
// timelines. Every run ends with a short hazard-audited pass.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  /// Tiny replicas and one setup: the self-test mode.
  bool tiny = false;
  /// Directory for span and timeline files (traced run only).
  std::string out_dir = ".";
};

/// Names accepted by run_workload, in BENCHMARK.json order.
[[nodiscard]] const char* const* workload_names();

/// Runs one workload and fills `report`. Throws InvalidArgumentError for an
/// unknown workload name.
void run_workload(const RunOptions& options, Report& report);

}  // namespace perfbench
