// Per-device frequency-aware feature cache for the sampled pipeline.
//
// Sampled mini-batch training gathers the input rows of every batch's
// deepest frontier; rows owned by other devices travel over the
// interconnect (Communicator::sendv_rows). The access distribution is
// heavily skewed — high-degree vertices appear in almost every batch — so a
// small cache of hot remote rows pinned in device memory (the samgraph /
// CaPGNN design) converts most of that wire traffic into HBM reads.
//
// The cache is split into host-side bookkeeping (lookup / admission /
// eviction, run at enqueue time on the main thread so decisions are
// deterministic and independent of worker scheduling) and a DeviceBuffer
// holding the pinned rows (so cache memory is charged against the device
// and audited by the hazard checker like any other buffer). Scoring:
//
//   - kStatic: degree-scored; prefill() pins the top-degree vertices and
//     lookups never change the contents (no eviction, zero bookkeeping).
//   - kFreq:   access-frequency scored (LFU with frequency-aware admission):
//     every lookup counts, and a missed row is admitted only by displacing a
//     pinned row with a strictly lower score.
//
// kAuto resolves to one of the above (or kOff) via plan_auto(), which
// prices a cached-row read against its sendv extraction with the
// simulator's own cost model and clamps capacity to the memory actually
// available — so auto never loses to off under the model.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "core/cache_mode.hpp"
#include "mem/workspace_pool.hpp"
#include "sim/device.hpp"

namespace mggcn::core {

class FeatureCache {
 public:
  /// Monotone counters over the cache's lifetime. hits + misses equals the
  /// total rows looked up; occupancy() == prefilled + inserts - evictions.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
  };

  /// The outcome of plan_auto: the resolved concrete mode (never kAuto) and
  /// the capacity after the memory clamp, plus the per-row prices the
  /// decision compared (for logging/tests).
  struct AutoDecision {
    CacheMode mode = CacheMode::kOff;
    std::int64_t capacity_rows = 0;
    double hit_seconds_per_row = 0.0;
    double miss_seconds_per_row = 0.0;
  };

  /// An inactive cache (mode off or capacity 0): lookups miss everything
  /// and reserve no memory.
  FeatureCache() = default;

  /// `mode` must be a concrete policy (kOff / kStatic / kFreq — resolve
  /// kAuto through plan_auto first). A capacity of 0 degenerates to kOff.
  /// The backing buffer (capacity_rows x d floats) is reserved against
  /// `device` immediately.
  FeatureCache(sim::Device& device, std::int64_t d, std::int64_t capacity_rows,
               CacheMode mode);

  /// Same, but the backing rows are leased from `pool` (null falls back to
  /// a static DeviceBuffer) so the cache's capacity counts against the one
  /// pooled budget it shares with the engines — the CaPGNN joint-budget
  /// pricing. Pass the pool's headroom (WorkspacePool::available_bytes) as
  /// plan_auto's available_bytes when sizing a pooled cache.
  FeatureCache(mem::WorkspacePool* pool, sim::Device& device, std::int64_t d,
               std::int64_t capacity_rows, CacheMode mode);

  /// Resolves the requested mode against the cost model: a cached-row read
  /// costs a d-wide HBM gather; the same row uncached costs a sendv message
  /// share over the interconnect. Keeps the cache only when the hit price
  /// beats the miss price, and clamps capacity_rows so the buffer fits in
  /// `available_bytes`. kOff/kStatic/kFreq pass through (capacity still
  /// clamped); kAuto resolves to degree-prefilled kFreq when it wins.
  [[nodiscard]] static AutoDecision plan_auto(
      CacheMode requested, std::int64_t capacity_rows, std::int64_t d,
      const comm::Communicator& comm, const sim::DeviceProfile& device,
      std::uint64_t available_bytes);

  /// Pins the highest-scored vertices up to capacity. `vertices[i]` is
  /// scored by `scores[i]` (vertex degree for the static/auto policies);
  /// under kFreq the scores also seed the frequency counters so the LFU
  /// starts from the degree prior instead of cold. No-op when inactive.
  void prefill(std::span<const std::uint32_t> vertices,
               std::span<const std::int64_t> scores);

  /// One lookup batch, split into hits and misses. Under kFreq every
  /// requested vertex's frequency counter is incremented. `vertices` must
  /// be ascending and duplicate-free (a sampled layer's remote slice);
  /// miss_vertices preserves that order.
  struct Partition {
    std::vector<std::uint32_t> hit_vertices;
    /// Cache slot of hit_vertices[i] (row index into buffer()).
    std::vector<std::int64_t> hit_slots;
    std::vector<std::uint32_t> miss_vertices;
  };
  [[nodiscard]] Partition lookup(std::span<const std::uint32_t> vertices);

  /// Frequency-aware admission of this round's missed rows (kFreq only;
  /// returns empty otherwise): fills free slots with the highest-frequency
  /// misses, then displaces pinned rows whose frequency is strictly lower.
  /// Returns the (vertex, slot) placements so the caller can enqueue the
  /// row copies; bookkeeping (inserts/evictions counters, slot tables) is
  /// updated immediately. Host cost is O(m log m) in the m misses plus
  /// O(log capacity) per displaced row and per stale victim-heap entry
  /// surfaced (amortized over the lookups that made it stale) — never a
  /// pass over every pinned row.
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::int64_t>> admit(
      std::span<const std::uint32_t> missed);

  /// A surviving row whose backing slot changed during invalidate():
  /// the caller must copy row from_slot -> to_slot in buffer().
  struct Relocation {
    std::uint32_t vertex = 0;
    std::int64_t from_slot = 0;
    std::int64_t to_slot = 0;
  };

  /// Drops any pinned rows among `vertices` (a simulated graph-update's
  /// touched set): their cached contents are stale, so subsequent lookups
  /// miss and re-fetch. Slots stay densely packed — the last pinned row
  /// moves into each vacated slot, and the returned relocations tell the
  /// caller which buffer rows to move. `dropped` (optional) receives the
  /// number of rows evicted; frequency counters are kept so hot rows are
  /// re-admitted quickly.
  [[nodiscard]] std::vector<Relocation> invalidate(
      std::span<const std::uint32_t> vertices, std::size_t* dropped = nullptr);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] CacheMode mode() const { return mode_; }
  [[nodiscard]] bool enabled() const { return capacity_rows_ > 0; }
  [[nodiscard]] std::int64_t capacity_rows() const { return capacity_rows_; }
  [[nodiscard]] std::int64_t occupancy() const {
    return static_cast<std::int64_t>(slot_vertex_.size());
  }
  /// slot -> pinned vertex (so callers can fill the backing rows).
  [[nodiscard]] std::span<const std::uint32_t> pinned() const {
    return slot_vertex_;
  }
  [[nodiscard]] std::int64_t row_width() const { return d_; }
  /// Device bytes pinned by the cache (0 when inactive).
  [[nodiscard]] std::uint64_t bytes() const { return buffer_.bytes(); }
  [[nodiscard]] sim::DeviceBuffer& buffer() { return buffer_.buffer(); }
  /// The lease itself (ready() events, recycling) for pooled setups.
  [[nodiscard]] mem::PooledBuffer& lease() { return buffer_; }

 private:
  static constexpr std::int64_t kNoSlot = -1;

  /// A victim-heap entry: a pinned vertex under its frequency when pushed.
  struct Victim {
    std::uint64_t freq = 0;
    std::uint32_t vertex = 0;
  };

  /// Victim-heap order for the std heap algorithms: "less" is hotter, so
  /// the coldest entry (lowest frequency, ties: higher id) sits on top.
  static bool hotter(const Victim& a, const Victim& b);

  /// Sizes the per-vertex tables to cover every id in `vertices`.
  void cover(std::span<const std::uint32_t> vertices);
  void push_victim(std::uint32_t v);
  /// Settles the victim heap until its top is a pinned vertex under its
  /// live frequency, and returns that vertex (the coldest pinned row).
  /// Requires at least one pinned row.
  [[nodiscard]] std::uint32_t coldest_pinned();
  /// Rebuilds the victim heap from the pinned rows under their live keys.
  void rebuild_victims();

  CacheMode mode_ = CacheMode::kOff;
  std::int64_t d_ = 0;
  std::int64_t capacity_rows_ = 0;
  mem::PooledBuffer buffer_;
  Stats stats_;
  // The per-vertex tables are dense over vertex ids and grown on first
  // sight of a larger id, so lookup and admission never hash.
  /// vertex -> cache slot of its pinned row, or kNoSlot.
  std::vector<std::int64_t> slot_of_;
  /// slot -> vertex (defines occupancy; slots are filled densely).
  std::vector<std::uint32_t> slot_vertex_;
  /// kFreq: lookup counts per vertex (seeded by prefill scores; empty
  /// under the other modes).
  std::vector<std::uint64_t> freq_;
  /// kFreq: persistent lazy min-heap of eviction candidates, coldest on top
  /// (by frequency, ties: higher id first). Every pinned vertex has at
  /// least one entry; frequencies only grow, so an entry's key never
  /// exceeds its vertex's live frequency. Entries of unpinned vertices are
  /// dropped and stale keys re-pushed when they surface.
  std::vector<Victim> victims_;
};

}  // namespace mggcn::core
