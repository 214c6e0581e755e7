// Simulated GPU devices, streams, and events.
//
// Programming model = CUDA's: a Device owns in-order Streams; work is
// enqueued asynchronously; Events provide cross-stream and host
// synchronization. Execution is real (each stream is a host worker thread
// that runs the task bodies, so data hazards and ordering bugs are real
// bugs), while *time* is simulated: every task carries a KernelCost and the
// stream advances a simulated clock by the cost model's duration. Event
// timestamps propagate simulated time through the dependency DAG, so the
// resulting timeline is deterministic regardless of host thread scheduling.
//
// MG-GCN uses exactly two streams per device (§4.3): stream 0 for compute,
// stream 1 for communication.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "sim/cost_model.hpp"
#include "sim/hazard.hpp"
#include "sim/profile.hpp"
#include "sim/trace.hpp"
#include "util/blocking_queue.hpp"
#include "util/error.hpp"

namespace mggcn::sim {

class Device;

/// Whether task bodies actually execute.
enum class ExecutionMode {
  kReal,     ///< run kernel bodies (numerics are real)
  kPhantom,  ///< skip bodies; scheduling/cost/memory accounting only
};

/// A completion marker with a simulated timestamp. Copyable handle to
/// shared state; signaled exactly once by the owning stream.
class Event {
 public:
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    double sim_time = 0.0;
    /// Completing task's vector clock (empty unless hazard checking is on);
    /// waiting tasks join it so event edges count as happens-before edges.
    HbClock hb_clock;
  };

  Event() = default;
  explicit Event(std::shared_ptr<State> state) : state_(std::move(state)) {}

  /// An already-complete event carrying the given simulated timestamp
  /// (used to align stream clocks at epoch boundaries).
  static Event signaled(double sim_time);

  [[nodiscard]] bool valid() const { return state_ != nullptr; }

  /// Host-blocks until signaled; returns the simulated completion time.
  double wait() const;

  [[nodiscard]] bool is_complete() const;

  [[nodiscard]] const std::shared_ptr<State>& state() const { return state_; }

 private:
  std::shared_ptr<State> state_;
};

/// Rendezvous shared by the per-rank tasks of one collective operation.
/// All participating streams synchronize their simulated start times (a
/// collective begins when the last rank arrives), one designated rank
/// performs the data movement, and all ranks complete at start + duration.
struct CollectiveGroup {
  explicit CollectiveGroup(int nranks) : nranks(nranks) {}

  int nranks;
  /// Simulated duration of the collective (set by the communicator).
  double duration = 0.0;
  /// Executed once (by the executor rank) after all ranks arrive;
  /// may be empty in phantom mode.
  std::function<void()> action;

  std::mutex mutex;
  std::condition_variable cv;
  int arrived = 0;
  double start_max = 0.0;
  bool action_done = false;
  /// Join of every participant's clock; a collective orders all ranks'
  /// prior work before all ranks' subsequent work (hazard checking only).
  HbClock hb_join;
};

/// One task enqueued on a stream.
struct TaskDesc {
  std::string label;
  TaskKind kind = TaskKind::kOther;
  int stage = -1;
  KernelCost cost;
  /// HBM bandwidth share available to this task (overlap contention).
  double bandwidth_scale = 1.0;
  /// The kernel body (skipped in phantom mode); may be empty.
  std::function<void()> body;
  /// Events this task waits on before starting.
  std::vector<Event> waits;
  /// Declared buffer accesses, audited by the machine's HazardChecker
  /// (see DeviceBuffer::access()). Empty lists opt the task out.
  std::vector<BufferAccess> reads;
  std::vector<BufferAccess> writes;
  /// Record in the trace (markers/syncs are not traced).
  bool traced = true;

  /// Collective participation: when set, cost/body are ignored and the
  /// group protocol above runs instead. `collective_executor` marks the
  /// single rank that runs group->action.
  std::shared_ptr<CollectiveGroup> collective;
  bool collective_executor = false;
};

/// In-order asynchronous work queue backed by one host worker thread.
class Stream {
 public:
  Stream(Device& device, int id);
  ~Stream();

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  /// Enqueues a task; returns its completion event.
  Event enqueue(TaskDesc desc);

  /// Records a marker event at the current tail of the stream.
  Event record_event();

  /// Makes all *subsequent* tasks on this stream wait for `event`
  /// (cudaStreamWaitEvent semantics).
  void wait_event(const Event& event);

  /// Host-blocks until every task enqueued so far has retired.
  void synchronize();

  /// Simulated time at which the last retired task finished.
  [[nodiscard]] double sim_time() const;

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] Device& device() const { return device_; }

 private:
  struct PendingTask {
    TaskDesc desc;
    std::shared_ptr<Event::State> signal;
    /// Host clock at enqueue time: host program order (enqueue after a
    /// synchronize) is a happens-before edge (hazard checking only).
    HbClock enqueue_clock;
  };

  void worker_loop();
  void run_task(PendingTask& task);

  Device& device_;
  int id_;
  util::BlockingQueue<PendingTask> queue_;
  mutable std::mutex time_mutex_;
  double sim_time_ = 0.0;
  /// Hazard-checking state, touched only by the worker thread after
  /// construction: this stream's clock slot and running vector clock.
  int hb_slot_ = -1;
  HbClock clock_;
  /// MGGCN_SCHED_FUZZ: deterministic per-stream delay injection.
  bool fuzz_ = false;
  std::uint64_t fuzz_state_ = 0;
  std::thread worker_;
};

/// A simulated GPU: memory accounting + two streams + its half of the
/// machine profile.
class Device {
 public:
  static constexpr int kComputeStream = 0;
  static constexpr int kCommStream = 1;

  Device(int rank, DeviceProfile profile, ExecutionMode mode, Trace* trace,
         HazardChecker* hazard = nullptr);
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] const DeviceProfile& profile() const { return profile_; }
  [[nodiscard]] ExecutionMode mode() const { return mode_; }
  [[nodiscard]] Trace* trace() const { return trace_; }
  [[nodiscard]] HazardChecker* hazard() const { return hazard_; }

  [[nodiscard]] Stream& compute_stream() { return *streams_[kComputeStream]; }
  [[nodiscard]] Stream& comm_stream() { return *streams_[kCommStream]; }

  /// Fault injection: marks the device permanently lost. Work already
  /// enqueued keeps draining (so pending collectives complete and
  /// synchronize() stays safe), but submitting new *traced* work throws
  /// DeviceLostError — untraced markers/syncs still pass, modeling a dead
  /// accelerator whose host-side control path still answers.
  void mark_failed();
  [[nodiscard]] bool is_failed() const {
    return failed_.load(std::memory_order_acquire);
  }

  /// Memory accounting. reserve() throws OutOfMemoryError when the
  /// allocation would exceed the profile's capacity.
  void reserve_memory(std::uint64_t bytes, const std::string& what);
  void release_memory(std::uint64_t bytes) noexcept;
  [[nodiscard]] std::uint64_t memory_used() const;
  [[nodiscard]] std::uint64_t memory_peak() const;
  void reset_memory_peak();
  /// release_memory calls that released more than was in use (a double
  /// release or a leaked ledger); benches and tests assert it stays 0.
  [[nodiscard]] std::uint64_t release_underflows() const;

  /// Drains both streams.
  void synchronize();

  /// Max simulated time across streams; exact once synchronized.
  [[nodiscard]] double sim_time() const;

 private:
  int rank_;
  DeviceProfile profile_;
  ExecutionMode mode_;
  Trace* trace_;
  HazardChecker* hazard_;
  std::atomic<bool> failed_{false};

  mutable std::mutex memory_mutex_;
  std::uint64_t memory_used_ = 0;
  std::uint64_t memory_peak_ = 0;
  std::uint64_t release_underflows_ = 0;

  std::vector<std::unique_ptr<Stream>> streams_;
};

/// Draws the next identity from the process-wide DeviceBuffer id space
/// (mem::WorkspacePool stamps its blocks from the same source so pooled and
/// owned buffers share one hazard-audit namespace).
[[nodiscard]] std::uint64_t next_buffer_identity();

/// What a buffer holds before its first writer runs.
enum class Fill {
  /// All zeros, like cudaMemset after cudaMalloc. The default: gradient
  /// accumulators, optimizer moments and partial sums rely on it.
  kZero,
  /// Unspecified: the caller promises its first task overwrites every
  /// element, so fresh storage pays for no zeros nobody reads (a recycled
  /// WorkspacePool block is still re-zeroed). On a machine with
  /// a HazardChecker the storage is filled with quiet NaN instead, so a
  /// read-before-write changes the numerics of a hazard-checked run.
  kNone,
};

/// Fills `data` with quiet NaN: the poison Fill::kNone storage carries
/// under hazard checking.
void fill_poison(std::span<float> data);

/// RAII simulated-device memory. In real mode it owns host storage for the
/// floats, initialized per `fill` (zeroed by default); in phantom mode only
/// the accounting happens. Element type is float throughout (the paper
/// trains fp32).
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(Device& device, std::size_t elements, std::string name = {},
               Fill fill = Fill::kZero);
  ~DeviceBuffer();

  /// A non-owning view over externally managed storage (a workspace-pool
  /// slab): no device-ledger reservation happens, `data` must outlive the
  /// view, and `id` carries the underlying block's stable hazard identity
  /// across reuse. `data` may be null in phantom mode.
  static DeviceBuffer view(Device& device, std::size_t elements, float* data,
                           std::string name, std::uint64_t id);

  DeviceBuffer(DeviceBuffer&& other) noexcept;
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept;
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  [[nodiscard]] std::size_t size() const { return elements_; }
  [[nodiscard]] std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(elements_) * sizeof(float);
  }
  [[nodiscard]] bool empty() const { return elements_ == 0; }
  [[nodiscard]] Device* device() const { return device_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Stable identity for hazard auditing: unique per allocation, carried
  /// across moves, 0 for a default-constructed/released buffer.
  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// This buffer's declared-access record for TaskDesc::reads/writes. The
  /// `name@gpuN` label is filled only when the device has a hazard checker
  /// (its only reader); otherwise it is empty.
  [[nodiscard]] BufferAccess access() const;

  /// Host storage view; empty span in phantom mode.
  [[nodiscard]] std::span<float> span();
  [[nodiscard]] std::span<const float> span() const;
  [[nodiscard]] float* data() { return data_; }
  [[nodiscard]] const float* data() const { return data_; }

  /// Whether this buffer owns its reservation (false for view()s).
  [[nodiscard]] bool owned() const { return owned_; }

  void release();

 private:
  Device* device_ = nullptr;
  std::size_t elements_ = 0;
  std::unique_ptr<float[]> storage_;  ///< owned allocations only
  float* data_ = nullptr;             ///< storage_.get() or the viewed slab
  bool owned_ = true;                 ///< views skip the device ledger
  std::string name_;
  std::uint64_t id_ = 0;
};

}  // namespace mggcn::sim
