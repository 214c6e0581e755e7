#include "sim/hazard.hpp"

#include <algorithm>

#include "sim/trace.hpp"
#include "util/knob.hpp"
#include "util/logging.hpp"

namespace mggcn::sim {

bool clock_leq(const HbClock& a, const HbClock& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::uint64_t bi = i < b.size() ? b[i] : 0;
    if (a[i] > bi) return false;
  }
  return true;
}

void clock_join(HbClock& into, const HbClock& other) {
  if (other.size() > into.size()) into.resize(other.size(), 0);
  for (std::size_t i = 0; i < other.size(); ++i) {
    into[i] = std::max(into[i], other[i]);
  }
}

namespace {

/// Re-read per Machine (not cached) so tests can flip the variable between
/// machines.
constinit const util::Knob<bool> hazard_check_knob{"MGGCN_HAZARD_CHECK",
                                                   false, false, true};

}  // namespace

bool hazard_check_env() {
  return hazard_check_knob.read_env().value_or(false);
}

int HazardChecker::register_stream() {
  std::lock_guard lock(mutex_);
  return next_slot_++;
}

HbClock HazardChecker::host_clock() const {
  std::lock_guard lock(mutex_);
  return host_clock_;
}

void HazardChecker::join_host_clock(const HbClock& clock) {
  std::lock_guard lock(mutex_);
  clock_join(host_clock_, clock);
}

std::size_t HazardChecker::violation_count() const {
  std::lock_guard lock(mutex_);
  return violations_;
}

void HazardChecker::report(HazardKind kind, const std::string& buffer,
                           const std::string& earlier,
                           const std::string& later) {
  ++violations_;
  MGGCN_LOG(kError) << "hazard: " << hazard_kind_name(kind) << " on '"
                    << buffer << "': '" << later << "' is unordered with '"
                    << earlier << "'";
  if (trace_ != nullptr) {
    trace_->record_hazard(HazardRecord{
        .kind = kind,
        .buffer = buffer,
        .earlier = earlier,
        .later = later,
    });
  }
}

namespace {

/// Two accesses race iff their clocks are incomparable. Checking both
/// directions keeps the verdict independent of the order the executor's
/// workers happen to deliver tasks to the checker: under schedule fuzzing a
/// collective part can be reported after a task that causally follows it,
/// and a one-directional "ordered after the last write" test would flag
/// that legal schedule.
bool unordered(const HbClock& a, const HbClock& b) {
  return !clock_leq(a, b) && !clock_leq(b, a);
}

}  // namespace

void HazardChecker::on_task(const std::string& label, const HbClock& clock,
                            const std::vector<BufferAccess>& reads,
                            const std::vector<BufferAccess>& writes) {
  std::lock_guard lock(mutex_);
  for (const BufferAccess& access : reads) {
    if (access.buffer == 0) continue;
    BufferState& state = buffers_[access.buffer];
    if (state.name.empty()) state.name = access.name;
    if (state.written && unordered(state.last_write.clock, clock)) {
      report(HazardKind::kReadAfterWrite, state.name, state.last_write.label,
             label);
    }
    state.readers.push_back(Access{clock, label});
  }
  for (const BufferAccess& access : writes) {
    if (access.buffer == 0) continue;
    BufferState& state = buffers_[access.buffer];
    if (state.name.empty()) state.name = access.name;
    if (state.written && unordered(state.last_write.clock, clock)) {
      report(HazardKind::kWriteAfterWrite, state.name, state.last_write.label,
             label);
    }
    for (const Access& reader : state.readers) {
      // A task's own read of a buffer it also writes (in-place kernels)
      // carries the same clock, and equal clocks are ordered.
      if (unordered(reader.clock, clock)) {
        report(HazardKind::kWriteAfterRead, state.name, reader.label, label);
      }
    }
    state.written = true;
    state.last_write = Access{clock, label};
    state.readers.clear();
  }
}

}  // namespace mggcn::sim
