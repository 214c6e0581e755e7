// Analytic kernel cost model.
//
// Every task enqueued on a simulated stream carries a KernelCost descriptor;
// the cost model converts it into simulated seconds for the device profile.
// The model is a roofline with three refinements that the paper's evaluation
// depends on:
//
//   1. a gather term with an L2-reuse factor — SpMM reads nnz*d*4 bytes of
//      feature rows at random; when the tile's source working set fits in L2
//      most of that traffic hits cache. Narrower tiles (more GPUs) shrink
//      the working set, producing the super-linear speedups of Fig. 9;
//   2. per-kernel launch overhead — dominates tiny graphs (Cora, Fig. 5);
//   3. a memory-bandwidth scale < 1 applied while communication overlaps
//      compute, reflecting that NVLink traffic steals HBM bandwidth
//      (the paper measures a ~1/6 loss on V100, §6.3).
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/profile.hpp"

namespace mggcn::sim {

/// Cost descriptor for one kernel launch.
struct KernelCost {
  /// Bytes streamed sequentially (reads + writes at full bandwidth).
  double stream_bytes = 0.0;

  /// Bytes gathered at random from a region of `gather_working_set` bytes
  /// (SpMM feature-row loads).
  double gather_bytes = 0.0;
  double gather_working_set = 0.0;

  /// Floating-point operations.
  double flops = 0.0;

  /// Number of underlying kernel launches (eager frameworks pay several).
  int launches = 1;

  KernelCost& operator+=(const KernelCost& o) {
    stream_bytes += o.stream_bytes;
    gather_bytes += o.gather_bytes;
    gather_working_set = std::max(gather_working_set, o.gather_working_set);
    flops += o.flops;
    launches += o.launches;
    return *this;
  }
};

/// `cost` with its launch count times `multiplier`, rounded to the nearest
/// count: how a baseline's per-op dispatch overhead is charged (an eager
/// framework pays several launches where MG-GCN pays one).
[[nodiscard]] inline KernelCost scale_launches(KernelCost cost,
                                               double multiplier) {
  cost.launches = static_cast<int>(cost.launches * multiplier + 0.5);
  return cost;
}

class CostModel {
 public:
  /// Residual miss cost for gathers that hit L2 (L2 is fast, not free).
  static constexpr double kL2HitCost = 0.08;

  /// Simulated duration of a kernel described by `cost` on `device`.
  /// `memory_bandwidth_scale` in (0,1] models HBM contention from
  /// concurrent communication.
  [[nodiscard]] static double seconds(const KernelCost& cost,
                                      const DeviceProfile& device,
                                      double memory_bandwidth_scale = 1.0);

  /// The gather traffic that actually reaches HBM after L2 reuse.
  [[nodiscard]] static double effective_gather_bytes(
      double gather_bytes, double working_set, double l2_bytes);
};

}  // namespace mggcn::sim
