// Execution trace: per-task records on the simulated timeline.
//
// Figs. 5 (operation breakdown), 6 and 8 (per-stage comm/comp timelines) are
// rendered straight from these records.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mggcn::sim {

enum class TaskKind {
  kSpMM,
  kGeMM,
  kActivation,
  kLoss,
  kOptimizer,
  kComm,
  kMemory,   // memsets / copies
  kInspect,  // one-time SpMM plan construction (inspector-executor)
  kSample,   // neighborhood sampling (mini-batch pipeline stage)
  kOther,
};

const char* task_kind_name(TaskKind kind);

/// What a fault-plan event did when it fired (injected fault, retry taken
/// to survive one, or a recovery performed by the elastic trainer).
enum class FaultEventKind {
  kDeviceFailure,    ///< a rank was marked permanently lost
  kTransientComm,    ///< one injected collective failure
  kCommRetry,        ///< one retry a communicator paid to absorb it
  kLinkDegrade,      ///< a bandwidth degradation became active
  kRecovery,         ///< the elastic trainer recovered from a checkpoint
};

const char* fault_event_kind_name(FaultEventKind kind);

/// One fault/recovery event on the simulated timeline. Separate from
/// TraceRecord so the busy-time accounting the figures are built on is not
/// polluted by zero-duration markers.
struct FaultRecord {
  FaultEventKind kind = FaultEventKind::kTransientComm;
  int epoch = 0;
  int device = -1;       ///< affected rank, -1 when machine-wide
  double value = 0.0;    ///< retry backoff seconds / degradation factor
  std::string detail;
};

/// How two unordered accesses to the same buffer conflict.
enum class HazardKind {
  kReadAfterWrite,   ///< a read not ordered after the last write
  kWriteAfterWrite,  ///< a write not ordered after the last write
  kWriteAfterRead,   ///< a write not ordered after a read since that write
};

const char* hazard_kind_name(HazardKind kind);

/// One data-hazard detected by sim::HazardChecker: task `later` accessed
/// `buffer` without a happens-before edge from `earlier`'s conflicting
/// access.
struct HazardRecord {
  HazardKind kind = HazardKind::kReadAfterWrite;
  std::string buffer;
  std::string earlier;
  std::string later;
};

/// Aggregate communication-volume counters for the staged exchanges
/// (core::DistSpmm records one delta per stage at enqueue time, so the
/// counters are deterministic regardless of worker scheduling). Figures
/// and the bench --json artifacts report these alongside the timings.
struct CommVolume {
  /// Bytes actually moved over the interconnect.
  std::uint64_t wire_bytes = 0;
  /// Portion of wire_bytes that crossed a node boundary (0 on single-node
  /// machines).
  std::uint64_t wire_bytes_inter = 0;
  /// Bytes the same stages would have moved as full-block broadcasts.
  std::uint64_t dense_bytes = 0;
  /// Per-destination pack operations performed by compacted exchanges.
  std::uint64_t packs = 0;
  /// Stage counts by chosen exchange path.
  std::uint64_t compact_stages = 0;
  std::uint64_t dense_stages = 0;

  /// Wire bytes avoided relative to all-dense broadcasts.
  [[nodiscard]] std::uint64_t bytes_saved() const {
    return dense_bytes - wire_bytes;
  }

  CommVolume& operator+=(const CommVolume& o) {
    wire_bytes += o.wire_bytes;
    wire_bytes_inter += o.wire_bytes_inter;
    dense_bytes += o.dense_bytes;
    packs += o.packs;
    compact_stages += o.compact_stages;
    dense_stages += o.dense_stages;
    return *this;
  }
};

/// Aggregate strategy-selection counters for the distributed products
/// (core::Planner records one delta per product at enqueue time, like
/// CommVolume). `products_*` count executed products by strategy;
/// `decisions` counts fresh auto-mode pricings (cache misses);
/// `fallbacks` counts products where the requested/chosen strategy was
/// infeasible (odd rank count, replica would not fit) and 1D ran instead.
struct PlanCounters {
  std::uint64_t products_1d = 0;
  std::uint64_t products_15d = 0;
  std::uint64_t products_replicated = 0;
  std::uint64_t decisions = 0;
  std::uint64_t fallbacks = 0;

  PlanCounters& operator+=(const PlanCounters& o) {
    products_1d += o.products_1d;
    products_15d += o.products_15d;
    products_replicated += o.products_replicated;
    decisions += o.decisions;
    fallbacks += o.fallbacks;
    return *this;
  }
};

struct TraceRecord {
  int device = 0;
  int stream = 0;
  TaskKind kind = TaskKind::kOther;
  std::string label;
  /// Stage index for staged SpMM (-1 when not applicable).
  int stage = -1;
  /// Simulated begin/end in seconds.
  double t_begin = 0.0;
  double t_end = 0.0;

  [[nodiscard]] double duration() const { return t_end - t_begin; }
};

/// Thread-safe append-only trace.
class Trace {
 public:
  void record(TraceRecord rec);
  void record_fault(FaultRecord rec);
  void record_hazard(HazardRecord rec);
  /// Accumulates one stage's communication volume.
  void record_comm_volume(const CommVolume& delta);
  /// Accumulates one distributed product's strategy-selection counters.
  void record_plan(const PlanCounters& delta);
  void clear();

  [[nodiscard]] std::vector<TraceRecord> records() const;

  /// Hazards reported by the machine's HazardChecker, in detection order.
  [[nodiscard]] std::vector<HazardRecord> hazard_records() const;
  [[nodiscard]] std::size_t hazard_count() const;

  /// Running communication-volume totals (snapshot; per-epoch figures
  /// difference two snapshots).
  [[nodiscard]] CommVolume comm_volume() const;

  /// Running strategy-selection totals (snapshot; per-epoch figures
  /// difference two snapshots).
  [[nodiscard]] PlanCounters plan_counters() const;

  /// Number of fault events of `kind` (optionally restricted to one epoch).
  [[nodiscard]] std::size_t fault_count(FaultEventKind kind,
                                        int epoch = -1) const;

  /// Total simulated busy time per kind, over records with t_begin >= since.
  /// Bit-identical across runs whatever the worker interleaving.
  [[nodiscard]] std::map<TaskKind, double> busy_by_kind(
      double since = 0.0) const;

  /// Records of a single device, sorted by t_begin.
  [[nodiscard]] std::vector<TraceRecord> device_records(
      int device, double since = 0.0) const;

  /// Renders an ASCII Gantt chart of [t0, t1] per device, one row per
  /// (device, stream); used by the Fig. 6 / Fig. 8 benches.
  [[nodiscard]] std::string render_timeline(double t0, double t1,
                                            int width = 96) const;

  /// Writes the trace as a Chrome-tracing ("catapult") JSON file; open it
  /// at chrome://tracing or in Perfetto. Devices map to processes, streams
  /// to threads, simulated microseconds to timestamps.
  void export_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<TraceRecord> records_;
  std::vector<FaultRecord> fault_records_;
  std::vector<HazardRecord> hazard_records_;
  CommVolume comm_volume_;
  PlanCounters plan_counters_;
};

/// Escapes `s` for embedding inside a JSON string literal: quotes,
/// backslashes, and control characters (the latter as \uXXXX).
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace mggcn::sim
