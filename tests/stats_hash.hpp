// FNV-1a over the bit patterns of values, for the *ArePinned tests, and
// over every core::EpochStats field for the EpochStatsArePinned tests,
// which pin the whole per-epoch stats record (timings, busy split,
// comm/plan/pipeline/cache/pool counters, partition quality, loss bits) of
// the two training engines.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/metrics.hpp"

namespace mggcn::testing {

class Fnv1a {
 public:
  /// Mixes the object representation of `value`, lowest address first.
  template <typename T>
  void mix(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char byte : bytes) {
      hash_ = (hash_ ^ byte) * 1099511628211ULL;
    }
  }

  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ULL;
};

inline std::uint64_t hash_epoch_stats(
    const std::vector<core::EpochStats>& epochs) {
  Fnv1a h;
  for (const core::EpochStats& s : epochs) {
    h.mix(s.epoch);
    h.mix(s.loss);
    h.mix(s.train_accuracy);
    h.mix(s.sim_seconds);
    for (const auto& [kind, seconds] : s.busy_by_kind) {
      h.mix(static_cast<int>(kind));
      h.mix(seconds);
    }
    h.mix(s.peak_memory_bytes);
    h.mix(s.comm_retries);
    h.mix(s.comm_wire_bytes);
    h.mix(s.comm_bytes_saved);
    h.mix(s.comm_packs);
    h.mix(s.comm_wire_bytes_inter);
    h.mix(s.comm_compact_stages);
    h.mix(s.comm_dense_stages);
    h.mix(s.plan_products_1d);
    h.mix(s.plan_products_15d);
    h.mix(s.plan_products_replicated);
    h.mix(s.plan_decisions);
    h.mix(s.plan_fallbacks);
    h.mix(s.cache_hits);
    h.mix(s.cache_misses);
    h.mix(s.cache_evictions);
    h.mix(s.cache_hit_rate);
    h.mix(s.pipe_rounds);
    h.mix(s.pipe_sample_seconds);
    h.mix(s.pipe_extract_seconds);
    h.mix(s.pipe_train_seconds);
    h.mix(s.pipe_occupancy);
    h.mix(s.pool_peak_bytes);
    h.mix(s.pool_reuse_hits);
    h.mix(s.pool_fragmentation);
    h.mix(s.part_cut_edges);
    h.mix(s.part_inter_node_cut_edges);
    h.mix(s.part_ghost_rows);
    h.mix(s.part_inter_node_ghost_rows);
    h.mix(s.part_avg_ghost_density);
    h.mix(s.part_imbalance);
  }
  return h.value();
}

}  // namespace mggcn::testing
