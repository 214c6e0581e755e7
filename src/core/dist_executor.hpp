// The shared contract of the distributed SpMM executors.
//
// A distributed product computes, for the 1D-partitioned operator A and a
// row-distributed dense matrix H, the row-distributed C = A * H. Three
// executors implement this contract (see core/plan_mode.hpp for the
// strategy registry and core/planner.hpp for the chooser):
//
//   - DistSpmm           (1D staged broadcast, §4.1; dense/compact exchange)
//   - DistSpmm15DChained (order-preserving 1.5D, c = 2)
//   - ReplicatedSpmm     (allgather the whole H, one fused local SpMM)
//
// Each one runs a product (run) and prices the schedule it would run
// (estimate, extra_bytes), so the Planner's argmin reads the same cost
// code the simulated clock is charged by.
//
// Every executor accumulates each output element in ascending global
// column order — the 1D stage order — which is what makes trainer losses
// bit-identical across strategies (fp addition is not associative; only
// the ORDER is contractual, not the partitioning of the work). The §5.1
// partial-sum DistSpmm15D (core/dist_spmm_15d.hpp) sums the two halves of
// each output row in one pair allreduce instead, so it is not an executor
// here: it is an ablation subject that takes a DistIo of its own layout.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/device.hpp"
#include "sim/machine.hpp"

namespace mggcn::core {

/// One distributed product's inputs. Field semantics follow the 1D staged
/// broadcast (the common denominator); executors that need less simply
/// ignore fields (e.g. bc2 without overlap support).
struct DistIo {
  /// Per-rank dense input blocks (part_size(r) x d each).
  std::vector<sim::DeviceBuffer*> input;
  /// Per-rank outputs (part_size(r) x d); overwritten (beta = 0).
  std::vector<sim::DeviceBuffer*> output;
  /// Per-rank broadcast buffers (max_part_size x d capacity).
  std::vector<sim::DeviceBuffer*> bc1;
  /// Second broadcast buffer; required iff overlap (1D executor only).
  std::vector<sim::DeviceBuffer*> bc2;
  /// Dense width.
  std::int64_t d = 0;
  /// Per-rank events that must complete before that rank's input block
  /// may be read (i.e. before its broadcast stage).
  std::vector<sim::Event> input_ready;

  bool overlap = false;
  /// HBM bandwidth share for SpMM kernels while overlapped. The matching
  /// comm-side dilation is configured on the Communicator
  /// (CommOptions::duration_scale).
  double compute_bandwidth_scale = 1.0;
  /// Baseline-emulation: multiplies SpMM memory traffic and the kernel
  /// launch count (see TrainConfig).
  double traffic_factor = 1.0;
  double launch_multiplier = 1.0;

  /// Per-rank, per-slot events of the last SpMM that READ each broadcast
  /// buffer ([rank][0] = BC1, [rank][1] = BC2). The buffers outlive any
  /// single staged product (they are shared across layers and between the
  /// forward and backward operators, §4.2), so this write-after-read
  /// hazard state must too: it is owned by the caller and updated here.
  std::vector<std::array<sim::Event, 2>>* slot_readers = nullptr;
};

/// Contract: done[r] must be an event ORDERED WITH rank r's compute
/// stream (on it, or fenced onto it) — the trainer enqueues downstream
/// consumers of the output block on that stream with no explicit waits,
/// exactly as the 1D executor's same-stream schedule allows.
struct DistResult {
  /// Per-rank completion of the rank's output block.
  std::vector<sim::Event> done;
  /// Per-rank release of the rank's *input* block (every reader of it has
  /// finished; the buffer may be overwritten).
  std::vector<sim::Event> input_released;
};

/// A kernel cost under the baseline-emulation knobs of `io`: memory traffic
/// times traffic_factor, the launch count times launch_multiplier (rounded).
inline sim::KernelCost scaled(sim::KernelCost cost, const DistIo& io) {
  cost.stream_bytes *= io.traffic_factor;
  cost.gather_bytes *= io.traffic_factor;
  return sim::scale_launches(cost, io.launch_multiplier);
}

class DistExecutor {
 public:
  virtual ~DistExecutor() = default;

  /// Enqueues the whole distributed product; returns immediately.
  virtual DistResult run(const DistIo& io) = 0;

  /// Steady-state simulated seconds of one product (plans built, buffers
  /// sized), priced from io's d, overlap, compute_bandwidth_scale,
  /// traffic_factor and launch_multiplier with the costs run() charges.
  /// Buffers and events are not read.
  [[nodiscard]] virtual double estimate(const DistIo& io) const = 0;

  /// Device bytes rank `rank` still needs to run at width `d`, beyond what
  /// is already reserved (the Planner's feasibility check).
  [[nodiscard]] virtual std::uint64_t extra_bytes(int rank,
                                                  std::int64_t d) const = 0;
};

}  // namespace mggcn::core
