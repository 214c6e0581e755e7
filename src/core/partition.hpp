// 1D partition vectors (eqs. (13)-(15) of the paper) and the symmetric
// row/column tiling of the adjacency matrix used by MG-GCN's distributed
// SpMM (§4.1, Fig. 2).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "sparse/spmm_plan.hpp"

namespace mggcn::core {

/// A partition vector p with P parts: monotone offsets
/// 0 = p(0) <= ... <= p(P) = n.
class PartitionVector {
 public:
  PartitionVector() = default;
  explicit PartitionVector(std::vector<std::int64_t> offsets);

  /// Uniform partition of [0, n) into `parts` parts (sizes differ by at
  /// most one) — MG-GCN partitions uniformly and relies on the random
  /// permutation for balance (§5.2).
  static PartitionVector uniform(std::int64_t n, int parts);

  /// Alternative to §5.2's permutation: keep the vertex order but choose
  /// the cut points so each part holds ~nnz/P nonzeros (greedy prefix
  /// scan over row degrees). Balances the *row* nnz exactly, but — unlike
  /// the permutation — cannot fix the per-tile (column) imbalance of a
  /// community-ordered matrix, and makes the broadcast blocks uneven.
  /// bench_ablation_optimizations compares the two.
  static PartitionVector balanced_nnz(const sparse::Csr& matrix, int parts);

  [[nodiscard]] int parts() const {
    return static_cast<int>(offsets_.size()) - 1;
  }
  [[nodiscard]] std::int64_t total() const { return offsets_.back(); }
  [[nodiscard]] std::int64_t begin(int part) const {
    return offsets_[static_cast<std::size_t>(part)];
  }
  [[nodiscard]] std::int64_t end(int part) const {
    return offsets_[static_cast<std::size_t>(part) + 1];
  }
  [[nodiscard]] std::int64_t size(int part) const {
    return end(part) - begin(part);
  }
  [[nodiscard]] std::int64_t max_part_size() const;
  [[nodiscard]] std::span<const std::int64_t> offsets() const {
    return offsets_;
  }

  /// The part containing global index v.
  [[nodiscard]] int part_of(std::int64_t v) const;

 private:
  std::vector<std::int64_t> offsets_ = {0};
};

/// The (i, j) tile grid of a square matrix under symmetric partitioning
/// p = q: tiles[i][j] = A^{ij} with local indices.
struct TileGrid {
  PartitionVector partition;
  std::vector<std::vector<sparse::Csr>> tiles;  // [row_part][col_part]

  [[nodiscard]] int parts() const { return partition.parts(); }
  [[nodiscard]] const sparse::Csr& tile(int i, int j) const {
    return tiles[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  }

  /// The tiles are static for an entire training run, so the grid owns one
  /// lazily-built SpmmPlan per tile: plan(i, j) inspects tile (i, j) on
  /// first call and returns the cached plan thereafter. The cache itself
  /// lives behind a shared_ptr created at construction, so *every* copy of
  /// a grid — whenever it was made — sees plans built through any other
  /// copy (a deep copy's fresh tile storage rebuilds them on first use).
  /// plan(), build_plans() and claim_inspect_charge() must be called from
  /// one thread at a time — DistSpmm resolves plans on the enqueue thread,
  /// never inside task bodies.
  [[nodiscard]] const sparse::SpmmPlan& plan(int i, int j) const;
  /// Whether plan(i, j) has already been built (i.e. whether the next
  /// plan(i, j) call is free).
  [[nodiscard]] bool plan_ready(int i, int j) const;
  /// Builds every missing (or stale) plan at once, in parallel over tiles.
  /// The plans are those plan(i, j) would build one by one.
  void build_plans() const;
  /// True exactly once per tile over this grid and all its copies: the
  /// caller then charges the tile's one-time kInspect task. The flag lives
  /// in the shared cache, apart from the plans, so building a plan early
  /// (pricing reads ghost sets) or rebuilding it in a deep copy moves no
  /// charge.
  [[nodiscard]] bool claim_inspect_charge(int i, int j) const;

  /// Nonzeros of tile row i (the work assigned to GPU i).
  [[nodiscard]] std::int64_t row_nnz(int i) const;
  /// max_i row_nnz / mean row_nnz: the load-imbalance ratio Fig. 6 is about.
  [[nodiscard]] double imbalance() const;

 private:
  struct PlanCache {
    /// [row_part][col_part], sized on first use; null until built.
    std::vector<std::vector<std::shared_ptr<const sparse::SpmmPlan>>> slots;
    /// [row_part][col_part]: the tile's kInspect task has been charged.
    std::vector<std::vector<bool>> inspect_charged;
  };
  void size_plan_slots() const;

  /// Shared (not deep-copied) between copies of the grid — see plan().
  std::shared_ptr<PlanCache> plans_ = std::make_shared<PlanCache>();
};

/// Cuts `matrix` into parts x parts tiles with the symmetric partition, in
/// one count-then-fill pass per row block (row blocks in parallel). Rows
/// must be column-sorted, as every Csr built by this library is.
TileGrid make_tile_grid(const sparse::Csr& matrix,
                        const PartitionVector& partition);

/// The tile grid of the transposed matrix: tile (i, j) is the transpose of
/// `grid`'s tile (j, i), built per tile in parallel. Equals
/// make_tile_grid(A.transpose(), partition) without materializing Aᵀ.
TileGrid transpose_tile_grid(const TileGrid& grid);

/// The whole matrix a grid tiles, rebuilt by placing each tile row's tiles
/// side by side. Inverse of make_tile_grid.
sparse::Csr assemble_tile_grid(const TileGrid& grid);

}  // namespace mggcn::core
