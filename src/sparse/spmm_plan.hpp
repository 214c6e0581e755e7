// Inspector–executor SpMM (the `planned` kernel policy).
//
// The adjacency tiles are static for an entire training run, yet the
// generic kernels re-derive each row's shape from raw CSR on every one of
// the ~2·L·P²·epochs launches. SpmmPlan splits that work: an *inspector*
// analyzes a CSR matrix once and emits a degree-binned execution plan —
// empty rows elided into a bulk zero/scale pass, and the remaining rows
// recorded as a natural-order sweep list the *executor* walks with a
// degree-dispatched inner loop (the edge-batched panel path for ordinary
// rows, a deep-prefetch variant for hub rows at or above kLongDegree).
// The bin-sorted row list is also retained — it drives the empty-row
// elision, per-bin stats, and tests — but execution deliberately stays in
// natural row order: bin-partitioned multi-sweep execution was measured
// consistently slower here because splitting one pass over B's gather
// working set into several destroys the cache locality between
// consecutive rows' neighborhoods. The plan captures structure only
// (row → bin assignment and the sweep order); the executor re-reads
// `values()` on every call, so value mutation (e.g. `edge_softmax`
// refreshing attention weights) never invalidates a plan.
//
// Numerical contract: every executor sub-kernel performs the same IEEE
// operation sequence per output element as `naive::spmm` (first-nonzero
// beta fusion, edges accumulated one at a time in CSR order), so the
// planned policy is bit-identical to the naive and tiled policies at
// beta == 0 — the plan only reorders *rows*, never the per-element math.
//
// Amortization surfaces:
//   - `core::TileGrid` lazily owns one plan per tile; `core::DistSpmm`
//     executes through them and charges a one-time `sim::TaskKind::kInspect`
//     task per tile so simulated timelines show the preprocessing honestly.
//   - The dispatched `sparse::spmm` entry point under the `planned` policy
//     consults a process-wide structure-keyed plan cache, so serial users
//     (reference trainer, GAT, minibatch baselines) amortize across calls
//     without holding a plan themselves.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "dense/matrix.hpp"
#include "sim/cost_model.hpp"
#include "sparse/csr.hpp"

namespace mggcn::sparse {

class SpmmPlan {
 public:
  /// Degree bins, ordered. kEmpty rows are elided from the sweep into a
  /// bulk zero/scale pass; kDeg1..kMedium run the standard edge-batched
  /// panel path; kLong (>= 256) marks hub rows, which the executor hands
  /// to a deep-prefetch inner loop for memory-level parallelism.
  enum Bin {
    kEmpty = 0,
    kDeg1,
    kDeg2,
    kDeg3,
    kShort,
    kMedium,
    kLong,
    kNumBins,
  };

  /// First degree of the kMedium bin.
  static constexpr std::int64_t kMediumDegree = 8;
  /// First degree of the kLong bin.
  static constexpr std::int64_t kLongDegree = 256;

  SpmmPlan() = default;

  /// The inspector: one O(rows) pass over the row pointers. Safe to call
  /// on any CSR matrix, including all-empty and zero-row ones.
  [[nodiscard]] static SpmmPlan inspect(const Csr& a);

  /// Which bin a row of this degree lands in.
  [[nodiscard]] static Bin bin_of_degree(std::int64_t degree);

  /// The executor: C = alpha * A * B + beta * C. `a` must be the matrix
  /// (or a structural twin of the matrix) this plan was built from —
  /// checked via matches(); throws InvalidArgumentError otherwise.
  void execute(const Csr& a, dense::ConstMatrixView b, dense::MatrixView c,
               float alpha, float beta) const;

  /// O(1) structural-compatibility check: shape, nnz, the CSR arrays'
  /// identity, and strided row-pointer probes. Value changes pass (the
  /// executor re-reads values); structural changes are rejected.
  [[nodiscard]] bool matches(const Csr& a) const;

  [[nodiscard]] bool empty() const { return rows_ == 0 && cols_ == 0; }
  [[nodiscard]] std::int64_t rows() const { return rows_; }
  [[nodiscard]] std::int64_t cols() const { return cols_; }
  [[nodiscard]] std::int64_t nnz() const { return nnz_; }

  /// Rows assigned to `bin`, ascending (contiguous slice of the sorted
  /// row list).
  [[nodiscard]] std::span<const std::uint32_t> bin_rows(int bin) const;
  [[nodiscard]] std::int64_t bin_count(int bin) const {
    return static_cast<std::int64_t>(bin_rows(bin).size());
  }

  /// The non-empty rows in natural (ascending) order — the list the
  /// executor sweeps. Empty rows are handled by the bulk pass instead.
  [[nodiscard]] std::span<const std::uint32_t> sweep_rows() const {
    return sweep_rows_;
  }

  // --- Ghost set (compacted-exchange support) ---------------------------
  // The inspector also records which columns of B the tile actually
  // gathers: the sorted distinct column list ("ghost rows" of the source
  // block) plus a per-nonzero remap of col_idx into positions of that
  // list. A producer rank packs exactly ghost_rows() of its block for this
  // consumer, and execute_compact() indexes the packed buffer through the
  // remap — same math, ghost_count()/cols() of the communication volume.

  /// Sorted distinct columns with at least one nonzero — the rows of the
  /// source block this tile needs.
  [[nodiscard]] std::span<const std::uint32_t> ghost_rows() const {
    return required_cols_;
  }
  [[nodiscard]] std::int64_t ghost_count() const {
    return static_cast<std::int64_t>(required_cols_.size());
  }
  /// Required-row density in [0, 1]: ghost_count() / cols().
  [[nodiscard]] double ghost_density() const {
    return cols_ > 0 ? static_cast<double>(ghost_count()) /
                           static_cast<double>(cols_)
                     : 0.0;
  }
  /// O(1) identity of the ghost set (hash of the sorted list + its size);
  /// two tiles with equal fingerprints need the same source rows with
  /// overwhelming probability.
  [[nodiscard]] std::uint64_t ghost_fingerprint() const {
    return ghost_fingerprint_;
  }

  /// The executor over a *packed* B: `b` holds only the ghost rows, in
  /// ghost_rows() order (b.rows == ghost_count()). Bit-identical to
  /// execute() fed the full source block — the remap changes which buffer
  /// row an edge gathers, never the per-element operation sequence.
  void execute_compact(const Csr& a, dense::ConstMatrixView b,
                       dense::MatrixView c, float alpha, float beta) const;

  /// Host-side bytes the plan itself occupies (row lists + ghost map).
  [[nodiscard]] std::uint64_t plan_bytes() const {
    return (static_cast<std::uint64_t>(rows_by_bin_.size()) +
            static_cast<std::uint64_t>(sweep_rows_.size()) +
            static_cast<std::uint64_t>(required_cols_.size()) +
            static_cast<std::uint64_t>(compact_col_idx_.size())) * 4;
  }

  /// Bytes of the ghost-map structures alone (device-memory accounting of
  /// the compacted exchange: the ghost list + the remapped column indices).
  [[nodiscard]] std::uint64_t ghost_bytes() const {
    return (static_cast<std::uint64_t>(required_cols_.size()) +
            static_cast<std::uint64_t>(compact_col_idx_.size())) * 4;
  }

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::int64_t nnz_ = 0;
  /// Identity + probe fingerprint of the CSR arrays the plan was built
  /// from; see matches().
  const void* row_ptr_id_ = nullptr;
  const void* col_idx_id_ = nullptr;
  std::uint64_t probe_sum_ = 0;
  /// Rows sorted by bin; bin b occupies [bin_offsets_[b], bin_offsets_[b+1]).
  std::array<std::int64_t, kNumBins + 1> bin_offsets_{};
  std::vector<std::uint32_t> rows_by_bin_;
  /// Non-empty rows in natural order (the executor's sweep schedule).
  std::vector<std::uint32_t> sweep_rows_;
  /// Sorted distinct columns (the ghost-row list) and the per-nonzero
  /// remap of col_idx into positions of that list, in CSR edge order.
  std::vector<std::uint32_t> required_cols_;
  std::vector<std::uint32_t> compact_col_idx_;
  std::uint64_t ghost_fingerprint_ = 0;

  [[nodiscard]] static std::uint64_t probe_row_ptr(
      std::span<const std::int64_t> row_ptr);
};

/// The `planned` policy backend registered in the sparse::spmm dispatch
/// table: looks `a` up in a process-wide plan cache (building on miss) and
/// executes through the cached plan. Callers that own their matrices for
/// many calls (TileGrid) hold plans directly and skip the cache.
namespace planned {
void spmm(const Csr& a, dense::ConstMatrixView b, dense::MatrixView c,
          float alpha, float beta);
}  // namespace planned

/// Cache bookkeeping, exposed for tests and benches.
struct SpmmPlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t entries = 0;
};
[[nodiscard]] SpmmPlanCacheStats spmm_plan_cache_stats();
void clear_spmm_plan_cache();

/// Drops the cached plan of `a`, if any. Owners of short-lived matrices
/// (a mini-batch's sampled blocks) call it before destroying them, so the
/// cache does not hold dead plans until its next wholesale reset.
void forget_spmm_plan(const Csr& a);

/// Cost of the one-time inspection of a tile: a sequential sweep over the
/// row pointers (counting pass + scatter of the sorted row list), plus the
/// ghost-set construction (mark pass over col_idx, scan over the mark
/// array, remap scatter) when `nnz`/`cols` are given. No feature traffic.
/// Charged once per tile as sim::TaskKind::kInspect.
[[nodiscard]] sim::KernelCost spmm_inspect_cost(std::int64_t rows,
                                                std::int64_t nnz = 0,
                                                std::int64_t cols = 0);

/// Number of distinct column indices of `a` (the size of its ghost set),
/// without building a plan: one O(nnz + cols) mark-and-count pass. Used by
/// memory accounting, which must not trigger the lazy plan build (plans
/// are charged as kInspect tasks on the simulated timeline).
[[nodiscard]] std::int64_t count_distinct_cols(const Csr& a);

}  // namespace mggcn::sparse
