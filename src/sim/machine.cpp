#include "sim/machine.hpp"

#include <algorithm>

namespace mggcn::sim {

Machine::Machine(MachineProfile profile, int num_devices, ExecutionMode mode,
                 bool hazard_check)
    : profile_(std::move(profile)),
      mode_(mode),
      executor_(mode, num_devices) {
  MGGCN_CHECK_MSG(num_devices > 0, "machine needs at least one device");
  MGGCN_CHECK_MSG(num_devices <= profile_.max_devices,
                  "machine profile does not have that many devices");
  if (hazard_check) hazard_ = std::make_unique<HazardChecker>(&trace_);
  devices_.reserve(static_cast<std::size_t>(num_devices));
  for (int rank = 0; rank < num_devices; ++rank) {
    devices_.push_back(std::make_unique<Device>(
        rank, profile_.device, mode, &trace_, hazard_.get(), executor_));
  }
}

void Machine::synchronize() {
  for (auto& device : devices_) device->synchronize();
}

void Machine::begin_epoch(int epoch) {
  if (!fault_plan_) return;
  fault_plan_->begin_epoch(epoch);
  for (int rank = 0; (rank = fault_plan_->take_device_failure()) >= 0;) {
    if (rank >= num_devices()) continue;  // already shrunk past this rank
    if (devices_[static_cast<std::size_t>(rank)]->is_failed()) continue;
    devices_[static_cast<std::size_t>(rank)]->mark_failed();
    trace_.record_fault(FaultRecord{
        .kind = FaultEventKind::kDeviceFailure,
        .epoch = epoch,
        .device = rank,
        .detail = "injected permanent device failure",
    });
  }
  for (const FaultSpec& spec : fault_plan_->take_newly_degraded()) {
    trace_.record_fault(FaultRecord{
        .kind = FaultEventKind::kLinkDegrade,
        .epoch = epoch,
        .device = -1,
        .value = spec.severity,
        .detail = "link bandwidth x" + std::to_string(spec.severity) + " for " +
                  std::to_string(spec.count) + " epoch(s)",
    });
  }
}

double Machine::align_clocks() {
  synchronize();
  const double t = sim_time();
  const Event aligned = Event::signaled(t);
  for (auto& device : devices_) {
    device->compute_stream().wait_event(aligned);
    device->comm_stream().wait_event(aligned);
  }
  synchronize();
  return t;
}

double Machine::sim_time() const {
  double t = 0.0;
  for (const auto& device : devices_) t = std::max(t, device->sim_time());
  return t;
}

std::uint64_t Machine::max_memory_peak() const {
  std::uint64_t peak = 0;
  for (const auto& device : devices_) {
    peak = std::max(peak, device->memory_peak());
  }
  return peak;
}

void Machine::reset_memory_peaks() {
  for (auto& device : devices_) device->reset_memory_peak();
}

}  // namespace mggcn::sim
