// Happens-before hazard auditing for the simulated runtime.
//
// Tasks declare the DeviceBuffers they read and write (TaskDesc::reads /
// TaskDesc::writes); the stream workers maintain vector clocks — one slot
// per stream, joined across event edges, collective rendezvous, and
// host-side synchronization — and feed every completed task into the
// HazardChecker. The checker keeps, per buffer, the last write and the
// reads since that write, and reports any conflicting pair of accesses
// whose clocks are incomparable (neither happens-before the other).
// This is the validation layer CAGNET/LBANN-style pipelines ship
// for their hand-threaded broadcast/SpMM dependencies (§4.2–4.3).
//
// Enable machine-wide with MGGCN_HAZARD_CHECK=1 (any non-empty value other
// than "0"), or explicitly via the Machine constructor. Violations are
// recorded into the machine's Trace so tests and CI can assert zero.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace mggcn::sim {

class Trace;
enum class HazardKind;

/// A vector clock: one monotonically increasing component per stream,
/// plus the implicit host component carried by HazardChecker::host_clock.
/// Missing trailing components are zero.
using HbClock = std::vector<std::uint64_t>;

/// True when every component of `a` is <= the matching component of `b`,
/// i.e. the event stamped `a` happens-before (or equals) the one stamped
/// `b`.
[[nodiscard]] bool clock_leq(const HbClock& a, const HbClock& b);

/// Componentwise max: `into = max(into, other)`.
void clock_join(HbClock& into, const HbClock& other);

/// One declared access to a DeviceBuffer. `buffer` is the buffer's unique
/// identity (DeviceBuffer::id()); 0 means "no buffer" and is ignored by
/// the checker, so declarations stay valid for empty/moved-from buffers.
struct BufferAccess {
  std::uint64_t buffer = 0;
  std::string name;
};

/// True when the MGGCN_HAZARD_CHECK environment variable asks for
/// machine-wide hazard checking: unset or empty means off, otherwise one of
/// true/1/yes/on | false/0/no/off; any other value throws
/// InvalidArgumentError naming the variable.
[[nodiscard]] bool hazard_check_env();

/// Thread-safe happens-before race detector over declared buffer accesses.
/// One instance is shared by all streams of a Machine.
class HazardChecker {
 public:
  explicit HazardChecker(Trace* trace) : trace_(trace) {}

  HazardChecker(const HazardChecker&) = delete;
  HazardChecker& operator=(const HazardChecker&) = delete;

  /// Assigns the next vector-clock slot to a stream (called once per
  /// Stream at construction).
  int register_stream();

  /// Checks one completed task's declared accesses against the per-buffer
  /// history. `clock` is the task's vector clock *after* ticking its own
  /// stream slot, so it uniquely identifies the task.
  void on_task(const std::string& label, const HbClock& clock,
               const std::vector<BufferAccess>& reads,
               const std::vector<BufferAccess>& writes);

  /// The host thread's clock: everything the host has observed complete
  /// (via stream synchronization). Snapshot into each task at enqueue so
  /// host program order counts as a happens-before edge.
  [[nodiscard]] HbClock host_clock() const;
  void join_host_clock(const HbClock& clock);

  /// Number of violations reported so far (also mirrored into the Trace).
  [[nodiscard]] std::size_t violation_count() const;

 private:
  struct Access {
    HbClock clock;
    std::string label;
  };
  struct BufferState {
    std::string name;
    bool written = false;
    Access last_write;
    std::vector<Access> readers;  ///< reads since `last_write`
  };

  void report(HazardKind kind, const std::string& buffer,
              const std::string& earlier, const std::string& later);

  Trace* trace_;
  mutable std::mutex mutex_;
  HbClock host_clock_;
  int next_slot_ = 0;
  std::map<std::uint64_t, BufferState> buffers_;
  std::size_t violations_ = 0;
};

}  // namespace mggcn::sim
