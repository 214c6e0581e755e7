// 1.5D distributed SpMM, in two flavors.
//
// DistSpmm15D — replication factor c = 2, the alternative algorithm §5.1
// analyzes (and rejects) for MG-GCN:
//
//   - rank r = g*G + j belongs to replica group g ∈ {0, 1} and holds a
//     copy of the dense block H^j  (H is replicated c times -> 2x memory);
//   - the adjacency tile A^{js} lives only on rank (s mod c, j): each
//     group covers the stages congruent to its id, so the G stages run in
//     G/c rounds with both groups broadcasting concurrently;
//   - a final reduction combines the two partial C^j blocks across the
//     paired ranks (0, j) and (1, j) — on DGX-1's cube mesh that pair has
//     only 2 links, which is exactly why §5.1 finds 1.5D slower there.
//
// Because that pair allreduce adds the two stage-halves of each output row
// in ONE step instead of chaining them in stage order, DistSpmm15D is NOT
// bit-identical to the 1D product. It is an ablation subject
// (bench_ablation_15d), not a DistExecutor and never a Planner candidate.
//
// DistSpmm15DChained — the order-preserving variant the Planner *can*
// select (MGGCN_PLAN=15d / auto). Same pairing (j, j+G), same P-way 1D
// tile grid, NO input replication:
//
//   - phase 1: the low group {0..G-1} broadcasts blocks 0..G-1 among
//     itself; low rank j runs two SpMMs per stage — tile (j, s) into its
//     own output and tile (j+G, s) into a private partial buffer (the
//     partner row's stage-prefix);
//   - handoff: pair (j, j+G) swaps the two prefixes — C_j's prefix moves
//     into the partner's partial buffer, C_{j+G}'s prefix into the
//     partner's output;
//   - phase 2: the high group {G..P-1} broadcasts blocks G..P-1; high
//     rank j+G *continues* both accumulations (beta = 1) in stage order;
//   - return: the finished C_j travels back to rank j's output.
//
// Every output element is accumulated in ascending stage order, so losses
// stay bit-identical with 1D. Each rank receives G-1 group blocks instead
// of P-1 — on a two-node cluster the group broadcasts stay intra-node and
// only the thin pair handoffs cross the NIC, which is where this executor
// wins. The price: every tile is multiplied on both pair ranks' path
// (compute roughly doubles per rank) and the partner-row tiles plus the
// partial buffers cost extra memory (the "1.5" in 1.5D).
//
// Both build their group and pair communicators the same way: one whose
// ranks straddle nodes pays the NIC for every collective.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "comm/communicator.hpp"
#include "core/dist_executor.hpp"
#include "core/partition.hpp"
#include "sim/machine.hpp"
#include "sparse/csr.hpp"

namespace mggcn::core {

class DistSpmm15D {
 public:
  static constexpr int kReplication = 2;  // c

  /// `op` is the full (already normalized/transposed) operator; the
  /// machine must have an even device count >= 4.
  DistSpmm15D(sim::Machine& machine, const sparse::Csr& op);
  ~DistSpmm15D();

  DistSpmm15D(const DistSpmm15D&) = delete;
  DistSpmm15D& operator=(const DistSpmm15D&) = delete;

  [[nodiscard]] int groups() const { return groups_; }
  [[nodiscard]] const PartitionVector& partition() const { return partition_; }
  /// The row block held by a rank (its index within its group).
  [[nodiscard]] int block_of(int rank) const { return rank % groups_; }
  [[nodiscard]] int group_of(int rank) const { return rank / groups_; }

  /// DistIo field mapping: `input[r]` is the *replicated* H^{block_of(r)}
  /// (size(block) x d), `output[r]` the partial C block (after run() the
  /// pair allreduce leaves the final C on both replicas), `bc1[r]` the
  /// broadcast buffer (max_part x d). bc2 / overlap / slot_readers are
  /// unused — the single-slot write-after-read chain is internal.
  using Io = DistIo;
  using Result = DistResult;

  Result run(const Io& io);

  /// Registers tile footprints with the owning devices.
  void account_memory();

 private:
  sim::Machine& machine_;
  int groups_ = 0;
  PartitionVector partition_;
  /// tiles_[rank] = the A^{j,s} tiles this rank multiplies, keyed by its
  /// local round index t (stage s = t * c + group_of(rank)).
  std::vector<std::vector<sparse::Csr>> tiles_;
  std::vector<std::unique_ptr<comm::Communicator>> group_comms_;  // per group
  std::vector<std::unique_ptr<comm::Communicator>> pair_comms_;   // per block
  bool memory_accounted_ = false;
};

class DistSpmm15DChained : public DistExecutor {
 public:
  /// The schedule needs pairs over an even rank count, and below 4 ranks a
  /// "group" broadcast degenerates to nothing the 1D path doesn't already
  /// do. The Planner falls back to 1d when this is false.
  [[nodiscard]] static bool feasible(int parts) {
    return parts >= 4 && parts % 2 == 0;
  }

  /// `grid` is the *caller-owned* P-way tile grid (the same one DistSpmm
  /// runs on — the Planner guarantees it outlives this executor). Only
  /// device-memory accounting is added here: rank j must also hold its
  /// partner row's tiles for the stages it covers. `options` apply to the
  /// group and pair collectives (the trainer passes its communicator's).
  DistSpmm15DChained(sim::Machine& machine, const TileGrid& grid,
                     comm::CommOptions options = {});
  ~DistSpmm15DChained() override;

  DistSpmm15DChained(const DistSpmm15DChained&) = delete;
  DistSpmm15DChained& operator=(const DistSpmm15DChained&) = delete;

  [[nodiscard]] int groups() const { return groups_; }
  [[nodiscard]] int pair_of(int rank) const {
    return rank < groups_ ? rank + groups_ : rank - groups_;
  }

  /// Uses input/output/bc1/d/input_ready/slot_readers (slot 0 only — the
  /// chained schedule is single-buffered; bc2/overlap are ignored, so
  /// there is no overlap-contention window to dilate compute for).
  DistResult run(const DistIo& io) override;

  /// Per phase, each group broadcast followed by the slowest rank's two
  /// SpMMs (single-buffered, so nothing overlaps), then the slowest pair's
  /// two hand-offs and return transfer, each on that pair's communicator.
  [[nodiscard]] double estimate(const DistIo& io) const override;

  /// Reserves the partner-row tile footprints (the grid's own tiles are
  /// accounted by the owning DistSpmm). Call once; released on
  /// destruction. The per-rank partial buffers account themselves lazily
  /// at first run (they are width-dependent).
  void account_memory();

  /// Extra bytes rank `rank` needs at dense width `d` beyond what the 1D
  /// path uses: the partner-half tiles plus the partial buffer. The
  /// Planner's feasibility check prices this against free device memory.
  [[nodiscard]] std::uint64_t extra_bytes(int rank,
                                          std::int64_t d) const override;

 private:
  void ensure_partials(std::int64_t d);
  /// Tile (row, s)'s SpMM, as run() charges it and estimate() prices it.
  [[nodiscard]] sim::KernelCost spmm_cost(int row, int s,
                                          const DistIo& io) const;
  [[nodiscard]] std::uint64_t partner_tile_bytes(int rank) const;

  sim::Machine& machine_;
  const TileGrid& grid_;
  int groups_ = 0;
  std::vector<std::unique_ptr<comm::Communicator>> group_comms_;  // [2]
  std::vector<std::unique_ptr<comm::Communicator>> pair_comms_;   // [G]
  /// partial_[r]: rank r's stage-prefix/suffix accumulator for its PAIR
  /// rank's output row block (capacity size(pair_of(r)) x d).
  std::vector<std::unique_ptr<sim::DeviceBuffer>> partial_;
  std::int64_t partial_width_ = 0;
  /// Last task to touch partial_[r] in the previous product (the buffers
  /// outlive a product, so this write-after-read/write chain must too).
  std::vector<sim::Event> partial_last_use_;
  bool memory_accounted_ = false;
};

}  // namespace mggcn::core
