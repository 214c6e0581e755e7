// A simulated multi-GPU machine: N identical devices sharing a trace and an
// interconnect profile.
#pragma once

#include <memory>
#include <vector>

#include "sim/device.hpp"
#include "sim/executor.hpp"
#include "sim/fault.hpp"
#include "sim/hazard.hpp"
#include "sim/profile.hpp"
#include "sim/trace.hpp"

namespace mggcn::sim {

/// Owns the devices and the one Executor that runs all their streams.
class Machine {
 public:
  /// `hazard_check` enables the happens-before hazard audit (one
  /// HazardChecker shared by every stream); it defaults to the
  /// MGGCN_HAZARD_CHECK environment variable so CI can switch the whole
  /// test suite on without code changes.
  Machine(MachineProfile profile, int num_devices,
          ExecutionMode mode = ExecutionMode::kReal,
          bool hazard_check = hazard_check_env());

  [[nodiscard]] int num_devices() const {
    return static_cast<int>(devices_.size());
  }
  [[nodiscard]] Device& device(int rank) {
    MGGCN_CHECK_MSG(rank >= 0 && rank < num_devices(), "bad device rank");
    return *devices_[rank];
  }
  [[nodiscard]] const MachineProfile& profile() const { return profile_; }
  [[nodiscard]] ExecutionMode mode() const { return mode_; }
  [[nodiscard]] Trace& trace() { return trace_; }

  /// Null when hazard checking is off.
  [[nodiscard]] HazardChecker* hazard_checker() const { return hazard_.get(); }

  /// Drains every stream of every device.
  void synchronize();

  /// Synchronizes, then advances every stream's simulated clock to the
  /// machine-wide maximum. Returns that time. Use at phase boundaries
  /// (epochs) so per-phase trace queries see a clean cut.
  double align_clocks();

  /// Max simulated time across devices (exact after synchronize()).
  [[nodiscard]] double sim_time() const;

  /// Peak device-memory use across ranks.
  [[nodiscard]] std::uint64_t max_memory_peak() const;
  void reset_memory_peaks();

  /// Attaches a fault-injection schedule (shared so an elastic trainer can
  /// carry consumed-fault state across machine rebuilds). Null = fault-free.
  void set_fault_plan(std::shared_ptr<FaultPlan> plan) {
    fault_plan_ = std::move(plan);
  }
  [[nodiscard]] FaultPlan* fault_plan() const { return fault_plan_.get(); }

  /// Epoch-boundary fault hook, called by the trainer before enqueuing an
  /// epoch: advances the plan clock, marks scheduled device failures (so
  /// the next traced enqueue surfaces DeviceLostError), and records trace
  /// fault events for failures and newly active link degradations.
  void begin_epoch(int epoch);

 private:
  MachineProfile profile_;
  ExecutionMode mode_;
  Trace trace_;
  std::shared_ptr<FaultPlan> fault_plan_;
  std::unique_ptr<HazardChecker> hazard_;  ///< must outlive devices_
  std::vector<std::unique_ptr<Device>> devices_;
  /// Runs every stream's tasks. Declared after devices_, so its destructor
  /// retires every enqueued task before any stream goes away.
  Executor executor_;
};

}  // namespace mggcn::sim
