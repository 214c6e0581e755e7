// Per-layer mixture-of-parallelism auto-planner.
//
// The paper fixes the 1D staged broadcast for every layer, but which
// distribution strategy is cheapest depends on the dense width d(l), the
// tile structure, the device count, and the topology (the
// mixture-of-parallelism argument, PAPERS.md). The Planner owns one
// operator's distributed product and, per (width, overlap) combination,
// asks three interchangeable executors what their schedule costs
// (DistExecutor::estimate) and runs the cheapest:
//
//   - 1d          DistSpmm            staged broadcast, dense/compact
//                                     exchange composing via MGGCN_COMM
//   - 15d         DistSpmm15DChained  order-preserving chained 1.5D: half
//                                     the per-rank broadcast traffic (and
//                                     intra-node groups on clusters) for
//                                     ~2x the per-rank compute
//   - replicated  ReplicatedSpmm      allgather the whole dense operand,
//                                     then ONE fused local SpMM — a single
//                                     collective and a single launch, the
//                                     launch-overhead-bound regime of
//                                     small graphs (§6.1)
//
// Each executor prices with the cost code its run() charges: the same
// kernel costs, its own communicators' topologies and duration_scale, and
// (1D) the same stage choices and overlap-contention dilation — so
// `auto`'s argmin is taken over the very quantities the simulated clock
// will accumulate, which is what backs the invariant that auto never
// exceeds the best fixed strategy's steady-state epoch time.
//
// Decisions are cached per (d, overlap), counted into sim::Trace's
// PlanCounters (plan_* fields of EpochStats and the bench --json), and an
// infeasible choice (odd rank count, replica or partner tiles would not
// fit in device memory) falls back to 1d and counts as plan_fallbacks.
//
// All three executors accumulate every output element in ascending stage
// order, so losses are bit-identical across MGGCN_PLAN values.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "comm/comm_mode.hpp"
#include "comm/communicator.hpp"
#include "core/dist_executor.hpp"
#include "core/dist_spmm.hpp"
#include "core/dist_spmm_15d.hpp"
#include "core/partition.hpp"
#include "core/plan_mode.hpp"
#include "sim/machine.hpp"

namespace mggcn::core {

/// Replicated-operand executor: every rank gathers the full dense input
/// (rank order = global row order), then computes its whole output row
/// block in ONE fused kernel that sweeps the stage tiles left to right.
/// No extra adjacency memory (rank r already owns tile row r under the 1D
/// distribution); the replica buffer costs n x d floats per device.
class ReplicatedSpmm : public DistExecutor {
 public:
  /// `grid` is caller-owned and must outlive this executor.
  ReplicatedSpmm(sim::Machine& machine, comm::Communicator& comm,
                 const TileGrid& grid);

  ReplicatedSpmm(const ReplicatedSpmm&) = delete;
  ReplicatedSpmm& operator=(const ReplicatedSpmm&) = delete;

  /// Uses input/output/d/input_ready/traffic_factor/launch_multiplier;
  /// bc1/bc2/overlap/slot_readers are ignored (nothing is staged, so
  /// there is no broadcast-buffer hazard and no contention window).
  DistResult run(const DistIo& io) override;

  /// The largest block's pack, the allgather, and the slowest rank's
  /// fused SpMM, in sequence.
  [[nodiscard]] double estimate(const DistIo& io) const override;

  /// Bytes rank `rank` additionally needs at width `d` (replica growth).
  [[nodiscard]] std::uint64_t extra_bytes(int rank,
                                          std::int64_t d) const override;

 private:
  void ensure_replicas(std::int64_t d);
  /// Rank r's fused SpMM over its whole tile row against the replica.
  [[nodiscard]] sim::KernelCost fused_cost(int r, const DistIo& io) const;

  sim::Machine& machine_;
  comm::Communicator& comm_;
  const TileGrid& grid_;
  /// replica_[r]: the gathered full dense operand (n x d) on rank r.
  std::vector<std::unique_ptr<sim::DeviceBuffer>> replica_;
  std::int64_t replica_width_ = 0;
  /// Last task to touch replica_[r] in the previous product.
  std::vector<sim::Event> replica_last_use_;
};

class Planner {
 public:
  /// Steady-state estimate of one product per strategy, in simulated
  /// seconds; infeasible strategies price as +infinity.
  struct Estimate {
    double seconds_1d = 0.0;
    double seconds_15d = 0.0;
    double seconds_replicated = 0.0;
    PlanMode choice = PlanMode::k1D;  ///< argmin (1d wins ties)
  };

  /// Takes ownership of `grid` (the Planner's DistSpmm holds it; the other
  /// executors reference it). `mode`/`comm_mode` default to the
  /// process-wide MGGCN_PLAN / MGGCN_COMM settings.
  Planner(sim::Machine& machine, comm::Communicator& comm, TileGrid grid,
          PlanMode mode = plan_mode(),
          comm::CommMode comm_mode = comm::comm_mode());

  Planner(const Planner&) = delete;
  Planner& operator=(const Planner&) = delete;

  /// Registers the 1D tile rows (+ ghost maps under compact/auto comm
  /// modes). Strategy-specific extras (partner tiles, partial / replica
  /// buffers) are accounted lazily when a strategy is first selected.
  void account_memory() { spmm_1d_->account_memory(); }

  /// Decides the strategy for this product (cached per (d, overlap)),
  /// records the plan_* counters, and runs the chosen executor.
  DistResult run(const DistIo& io);

  /// Prices one product at width `d` without running anything. Public so
  /// tests and bench_planner can audit the decision surface.
  [[nodiscard]] Estimate price(std::int64_t d, bool overlap,
                               double compute_bandwidth_scale = 1.0,
                               double traffic_factor = 1.0,
                               double launch_multiplier = 1.0) const;

  [[nodiscard]] const TileGrid& grid() const { return spmm_1d_->grid(); }
  [[nodiscard]] const PartitionVector& partition() const {
    return spmm_1d_->partition();
  }
  [[nodiscard]] int parts() const { return spmm_1d_->parts(); }
  [[nodiscard]] PlanMode mode() const { return mode_; }

 private:
  /// The strategy's executor; null when it cannot run on this rank count.
  [[nodiscard]] DistExecutor* executor(PlanMode strategy) const;
  /// Whether the strategy's executor exists and its extra footprint at
  /// width d fits in free device memory.
  [[nodiscard]] bool fits(PlanMode strategy, std::int64_t d) const;
  PlanMode decide(const DistIo& io);

  sim::Machine& machine_;
  PlanMode mode_;
  std::unique_ptr<DistSpmm> spmm_1d_;  // owns the grid; always feasible
  std::unique_ptr<DistSpmm15DChained> exec_15d_;       // when feasible(p)
  std::unique_ptr<ReplicatedSpmm> exec_replicated_;    // when p > 1
  bool accounted_15d_ = false;
  std::map<std::pair<std::int64_t, bool>, PlanMode> decisions_;
};

}  // namespace mggcn::core
