// Per-epoch training metrics: loss/accuracy (real mode) plus the simulated
// timing breakdown the paper's figures report.
#pragma once

#include <cstdint>
#include <map>

#include "sim/trace.hpp"

namespace mggcn::sim {
class Machine;
}

namespace mggcn::mem {
class PoolSet;
}

namespace mggcn::core {

struct EpochStats {
  int epoch = 0;

  // Valid in real execution mode only.
  double loss = 0.0;
  double train_accuracy = 0.0;

  /// Simulated wall-clock of the epoch (max over devices).
  double sim_seconds = 0.0;

  /// Simulated busy seconds per operation kind, summed over devices
  /// (Fig. 5's Activation / Adam / GeMM / Loss-Layer / SpMM split; SpMM
  /// includes the broadcast wait the paper attributes to it).
  std::map<sim::TaskKind, double> busy_by_kind;

  /// Peak device memory over ranks at the end of the epoch.
  std::uint64_t peak_memory_bytes = 0;

  /// Collective retries paid this epoch to absorb injected transient
  /// communication faults (0 on fault-free runs).
  int comm_retries = 0;

  /// Staged-exchange communication volume this epoch (sim::CommVolume
  /// deltas): bytes actually on the wire, bytes avoided vs all-dense
  /// broadcasts, per-destination packs, and the per-path stage counts.
  std::uint64_t comm_wire_bytes = 0;
  std::uint64_t comm_bytes_saved = 0;
  std::uint64_t comm_packs = 0;
  /// Portion of comm_wire_bytes that crossed a node boundary (0 on
  /// single-node machines) — the NIC traffic the hierarchical partitioner
  /// minimizes first.
  std::uint64_t comm_wire_bytes_inter = 0;
  int comm_compact_stages = 0;
  int comm_dense_stages = 0;

  /// Planner strategy-selection counters this epoch (sim::PlanCounters
  /// deltas): distributed products executed per strategy, fresh auto-mode
  /// pricings, and infeasible-choice fallbacks onto 1d.
  int plan_products_1d = 0;
  int plan_products_15d = 0;
  int plan_products_replicated = 0;
  int plan_decisions = 0;
  int plan_fallbacks = 0;

  /// Sampled-pipeline counters this epoch (counted by SampledPipeline;
  /// zero for the full-batch trainer). cache_* are the per-device feature
  /// caches' extraction outcomes; pipe_*_seconds are the cost-model-priced
  /// busy seconds per stage summed over devices; pipe_occupancy is the
  /// mean stage-busy fraction of the epoch's device-seconds, the headline
  /// overlap metric of the pipelined engine.
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_evictions = 0;
  /// hits / (hits + misses); 0 when the extraction stage saw no lookups.
  double cache_hit_rate = 0.0;
  int pipe_rounds = 0;
  double pipe_sample_seconds = 0.0;
  double pipe_extract_seconds = 0.0;
  double pipe_train_seconds = 0.0;
  double pipe_occupancy = 0.0;

  /// The engine's workspace-pool counters (mem::PoolSet::stats of its
  /// pools; all zero when MGGCN_POOL resolves to the static path).
  /// pool_peak_bytes is the high-water pooled reservation over devices (an
  /// absolute snapshot, not a delta); pool_reuse_hits counts this epoch's
  /// acquires served by recycling instead of a fresh device reservation;
  /// pool_fragmentation is the high-water unusable-free fraction of the
  /// reservation.
  std::uint64_t pool_peak_bytes = 0;
  std::uint64_t pool_reuse_hits = 0;
  double pool_fragmentation = 0.0;

  /// Cut quality of the active vertex ordering (core::PartitionCutStats of
  /// the forward tiling, measured once at preprocessing and repeated in
  /// every epoch's stats so bench rows stay self-contained).
  std::int64_t part_cut_edges = 0;
  std::int64_t part_inter_node_cut_edges = 0;
  std::int64_t part_ghost_rows = 0;
  std::int64_t part_inter_node_ghost_rows = 0;
  double part_avg_ghost_density = 0.0;
  double part_imbalance = 1.0;
};

/// The machine-wide counters at an epoch's start, which fill_epoch_stats
/// reports the epoch's deltas against.
struct EpochMark {
  double sim_time = 0.0;
  sim::CommVolume comm;
  std::uint64_t pool_reuse_hits = 0;
};

/// Aligns the machine's clocks and takes the epoch's start marks; `pools`
/// is the engine's pool set (null on the static path).
[[nodiscard]] EpochMark mark_epoch(sim::Machine& machine,
                                   const mem::PoolSet* pools);

/// Fills the fields both training engines share from the synchronized
/// machine: simulated seconds and busy split since `mark`, peak device
/// memory, comm retries of `stats->epoch`, the comm volume deltas and the
/// pool_* counters of `pools`.
void fill_epoch_stats(sim::Machine& machine, const EpochMark& mark,
                      const mem::PoolSet* pools, EpochStats* stats);

}  // namespace mggcn::core
