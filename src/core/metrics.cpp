#include "core/metrics.hpp"

#include "mem/workspace_pool.hpp"
#include "sim/machine.hpp"

namespace mggcn::core {

EpochMark mark_epoch(sim::Machine& machine, const mem::PoolSet* pools) {
  EpochMark mark;
  mark.sim_time = machine.align_clocks();
  mark.comm = machine.trace().comm_volume();
  if (pools != nullptr) mark.pool_reuse_hits = pools->stats().reuse_hits;
  return mark;
}

void fill_epoch_stats(sim::Machine& machine, const EpochMark& mark,
                      const mem::PoolSet* pools, EpochStats* stats) {
  sim::Trace& trace = machine.trace();
  stats->sim_seconds = machine.sim_time() - mark.sim_time;
  stats->busy_by_kind = trace.busy_by_kind(mark.sim_time);
  stats->peak_memory_bytes = machine.max_memory_peak();
  stats->comm_retries = static_cast<int>(
      trace.fault_count(sim::FaultEventKind::kCommRetry, stats->epoch));
  const sim::CommVolume volume = trace.comm_volume();
  stats->comm_wire_bytes = volume.wire_bytes - mark.comm.wire_bytes;
  stats->comm_wire_bytes_inter =
      volume.wire_bytes_inter - mark.comm.wire_bytes_inter;
  stats->comm_bytes_saved = volume.bytes_saved() - mark.comm.bytes_saved();
  stats->comm_packs = volume.packs - mark.comm.packs;
  stats->comm_compact_stages =
      static_cast<int>(volume.compact_stages - mark.comm.compact_stages);
  stats->comm_dense_stages =
      static_cast<int>(volume.dense_stages - mark.comm.dense_stages);
  const mem::PoolStats pool = pools ? pools->stats() : mem::PoolStats{};
  stats->pool_peak_bytes = pool.reserved_peak_bytes;
  stats->pool_reuse_hits = pool.reuse_hits - mark.pool_reuse_hits;
  stats->pool_fragmentation = pool.fragmentation_peak;
}

}  // namespace mggcn::core
