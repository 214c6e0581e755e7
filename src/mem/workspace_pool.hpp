// Stream-ordered per-device workspace pool with cross-component reuse.
//
// MG-GCN's §4.2 contribution is buffer reuse *within* the trainer (the L+3
// scheme); this pool generalizes it *across* components: the full-batch
// trainer, the sampled pipeline's round scratch, the feature caches, and
// the inference server's serving buffers all draw from one bounded
// per-device budget (the samgraph workspace_pool / LBANN backend-allocator
// design, with CaPGNN's joint-budget pricing for the caches). Blocks are
// recycled instead of re-reserved, so footprint drops wherever lifetimes do
// not overlap — and the ledger peak never exceeds the static scheme's,
// because slabs are sized exactly to the requests and wholly-free slabs are
// returned to the device before the pool ever grows (trim-before-grow).
//
// Design:
//
//   - Allocation is a caching best-fit over size-binned free lists; blocks
//     split when a smaller request lands on a larger free block and
//     coalesce with free neighbors on release, all inside exact-size slabs
//     (one sim::DeviceBuffer reservation each).
//   - All pool operations run on the enqueueing host thread (like every
//     existing buffer decision), so placement is deterministic and
//     independent of worker scheduling; the pool never consults
//     Event::is_complete().
//   - Stream-ordered reuse: a tenant records its last consumer's completion
//     event when recycling (PooledBuffer::recycle(event)); the handle of
//     the next tenant exposes the events as ready(), and that tenant must
//     put them in its first task's TaskDesc::waits. The block's hazard
//     identity (BufferAccess id) is stable across reuse, so a consumer
//     that skips the wait is flagged by MGGCN_HAZARD_CHECK — the recycling
//     itself is audited, under schedule fuzzing like any other dependency.
//   - Fill contract (sim::Fill): the pool joins a recycled block's pending
//     events on the host before re-issuing its data (and before trimming
//     its slab), then re-zeroes it, so a lease starts life bit-identical
//     to a fresh zeroed DeviceBuffer. A Fill::kNone lease (scratch its
//     first writer overwrites whole) differs only in its fill: a fresh
//     slab is left uninitialized, and under hazard checking its storage,
//     fresh or recycled, is quiet NaN instead of zeros, so a
//     read-before-write changes the numerics.
//   - Loud OOM: exceeding the per-device budget (MGGCN_POOL_BUDGET, default
//     the device capacity) throws OutOfMemoryError carrying the full pool
//     ledger, after trimming.
//
// Ownership contract: a PooledBuffer is a lease. Its storage stays readable
// after recycle() until the recorded last-use event completes (consumers
// enqueued before the recycle hold raw pointers into the slab), but the
// handle itself must not be used to declare new work. Recycling without a
// recorded event is only safe when the owning engine has synchronized the
// machine first (engine destructors do). A WorkspacePool must outlive its
// leases and die before its Device.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/pool_mode.hpp"
#include "sim/device.hpp"

namespace mggcn::sim {
class Machine;
}

namespace mggcn::mem {

class WorkspacePool;

/// Snapshot of one pool's ledger and lifetime counters.
struct PoolStats {
  std::uint64_t reserved_bytes = 0;  ///< device bytes held by slabs now
  std::uint64_t in_use_bytes = 0;    ///< bytes inside live leases now
  std::uint64_t free_bytes = 0;      ///< reserved - in_use (retained blocks)
  std::uint64_t reserved_peak_bytes = 0;
  std::uint64_t in_use_peak_bytes = 0;
  std::uint64_t reuse_hits = 0;   ///< acquires served from the free lists
  std::uint64_t slab_allocs = 0;  ///< fresh device reservations
  std::uint64_t splits = 0;
  std::uint64_t coalesces = 0;
  std::uint64_t trims = 0;          ///< slabs returned before a grow
  std::uint64_t live_buffers = 0;   ///< outstanding leases
  double fragmentation_peak = 0.0;  ///< high-water unusable-free fraction
};

/// RAII lease on device memory. Two flavours behind one type so engines
/// migrate with a single code path:
///
///   - pooled (from WorkspacePool::acquire): a view into a pool slab; the
///     destructor or recycle() returns the block for stream-ordered reuse;
///   - owning (from the Device ctor / acquire_or_alloc with a null pool):
///     a plain DeviceBuffer with exactly the pre-pool allocation behaviour
///     — the MGGCN_POOL=off parity axis. recycle() is a no-op here, so the
///     static path also keeps its original buffer *lifetimes*.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  /// Owning fallback: reserves `elements` floats directly on `device`.
  PooledBuffer(sim::Device& device, std::size_t elements, std::string name,
               sim::Fill fill = sim::Fill::kZero);
  ~PooledBuffer();

  PooledBuffer(PooledBuffer&& other) noexcept;
  PooledBuffer& operator=(PooledBuffer&& other) noexcept;
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;

  /// The DeviceBuffer face of the lease (a non-owning view for pooled
  /// blocks) — what DistSpmm Io lists, comm::RankPart and task bodies take.
  [[nodiscard]] sim::DeviceBuffer& buffer() { return view_; }
  [[nodiscard]] const sim::DeviceBuffer& buffer() const { return view_; }

  [[nodiscard]] std::size_t size() const { return view_.size(); }
  [[nodiscard]] std::uint64_t bytes() const { return view_.bytes(); }
  [[nodiscard]] bool empty() const { return view_.empty(); }
  [[nodiscard]] const std::string& name() const { return view_.name(); }
  [[nodiscard]] float* data() { return view_.data(); }
  [[nodiscard]] const float* data() const { return view_.data(); }
  [[nodiscard]] std::span<float> span() { return view_.span(); }
  [[nodiscard]] std::span<const float> span() const { return view_.span(); }
  /// Declared-access record; pooled leases carry the block's stable
  /// identity across reuse (that stability is what lets the hazard checker
  /// audit recycling).
  [[nodiscard]] sim::BufferAccess access() const { return view_.access(); }

  [[nodiscard]] bool pooled() const { return pool_ != nullptr; }

  /// Completion events of the block's previous tenants (empty for fresh
  /// blocks and owning leases). The first task touching this lease MUST
  /// carry them in TaskDesc::waits — the pool already joined them for data
  /// safety, but only the declared wait gives the hazard checker the
  /// happens-before edge that proves the recycling ordered.
  [[nodiscard]] const std::vector<sim::Event>& ready() const { return ready_; }

  /// Records the completion event of this lease's last consumer; joined by
  /// the pool before the block's data is re-issued or its slab trimmed.
  void record_last_use(sim::Event event) { last_use_ = std::move(event); }

  /// Returns a pooled block to its pool now (early release — the refined
  /// lifetime the pool exists for); a no-op for owning leases so
  /// MGGCN_POOL=off keeps today's lifetimes bit for bit. The overload
  /// records `last_use` first.
  void recycle();
  void recycle(sim::Event last_use);

 private:
  friend class WorkspacePool;

  void reset();

  WorkspacePool* pool_ = nullptr;
  void* block_ = nullptr;  ///< WorkspacePool::Block
  sim::DeviceBuffer view_;
  std::vector<sim::Event> ready_;
  sim::Event last_use_;
};

/// Per-device stream-ordered caching allocator. Not thread-safe by design:
/// acquire/recycle on the enqueueing thread only, like every other
/// allocation decision in the simulator (this is what keeps placement —
/// and therefore the audited schedule — deterministic).
class WorkspacePool {
 public:
  /// `budget_bytes` caps the pool's device reservation; 0 means the
  /// device's full memory capacity.
  explicit WorkspacePool(sim::Device& device, std::uint64_t budget_bytes = 0);
  ~WorkspacePool();

  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;

  /// Leases `elements` floats. Served best-fit from the free lists
  /// (splitting larger blocks), else from a fresh exact-size slab after
  /// trimming wholly-free slabs; throws OutOfMemoryError (with the full
  /// pool ledger in the message) when the budget cannot fit the request.
  /// Zero elements returns an empty lease that reserves nothing. `fill`
  /// follows the contract in the header comment.
  [[nodiscard]] PooledBuffer acquire(std::size_t elements, std::string name,
                                     sim::Fill fill = sim::Fill::kZero);

  [[nodiscard]] sim::Device& device() const { return device_; }
  [[nodiscard]] std::uint64_t budget_bytes() const { return budget_bytes_; }
  /// Bytes an acquire could still obtain without exceeding the budget
  /// (free blocks are reusable, so only in-use bytes count against it).
  [[nodiscard]] std::uint64_t available_bytes() const;
  [[nodiscard]] const PoolStats& stats() const { return stats_; }

 private:
  friend class PooledBuffer;

  struct Slab;
  struct Block;

  Block* find_fit(std::size_t elements);
  void bin_insert(Block* block);
  void bin_remove(Block* block);
  Block* split(Block* block, std::size_t elements);
  void release_block(Block* block, sim::Event last_use);
  /// Returns every wholly-free slab to the device ledger (joining pending
  /// events first), so growth never lifts the ledger peak above what the
  /// static scheme would have reserved.
  void trim_free_slabs();
  void note_extremes();
  void publish(const sim::PoolCounters& delta);
  [[nodiscard]] std::string ledger_string() const;

  sim::Device& device_;
  std::uint64_t budget_bytes_ = 0;
  std::uint64_t next_slab_seq_ = 0;
  std::vector<std::unique_ptr<Slab>> slabs_;
  /// free lists binned by bit_width(elements); deterministic best-fit.
  std::vector<std::vector<Block*>> bins_;
  PoolStats stats_;
};

/// The per-device pools of one machine, shared between tenants (trainer,
/// sampled pipeline, inference server) so freed blocks cross component
/// boundaries. Keep the owning Machine alive for the set's lifetime.
class PoolSet {
 public:
  [[nodiscard]] static std::shared_ptr<PoolSet> create(
      sim::Machine& machine, std::uint64_t budget_bytes = pool_budget_bytes());

  [[nodiscard]] WorkspacePool& pool(int rank);
  [[nodiscard]] sim::Machine* machine() const { return machine_; }
  [[nodiscard]] int size() const { return static_cast<int>(pools_.size()); }

 private:
  sim::Machine* machine_ = nullptr;
  std::vector<std::unique_ptr<WorkspacePool>> pools_;
};

/// Resolves an engine's pooling decision against the MGGCN_POOL registry:
/// a shared set built for `machine` wins; otherwise kOn self-creates a
/// private set and kOff/kAuto return null (static allocation). A shared
/// set built for a *different* machine (an elastic rebuild) is ignored —
/// its pools reference dead devices.
[[nodiscard]] std::shared_ptr<PoolSet> resolve_pool(
    std::shared_ptr<PoolSet> shared, sim::Machine& machine);
/// Same, but with the engine's own mode (e.g. TrainConfig::pool_mode)
/// instead of the process-wide registry value.
[[nodiscard]] std::shared_ptr<PoolSet> resolve_pool(
    std::shared_ptr<PoolSet> shared, sim::Machine& machine, PoolMode mode);

/// The engines' one-line migration shim: leases from `pool` when non-null,
/// else allocates an owning DeviceBuffer exactly as the pre-pool code did.
[[nodiscard]] PooledBuffer acquire_or_alloc(
    WorkspacePool* pool, sim::Device& device, std::size_t elements,
    std::string name, sim::Fill fill = sim::Fill::kZero);

/// Appends `lease.ready()` to `waits` — sugar for declaring the reuse edge
/// on the first task that touches a freshly acquired lease.
void append_ready(std::vector<sim::Event>* waits, const PooledBuffer& lease);

}  // namespace mggcn::mem
