// Compressed Sparse Row matrices — the compute format (the paper uses
// cuSPARSE CSR SpMM, §6).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/coo.hpp"

namespace mggcn::sparse {

class Csr {
 public:
  Csr() = default;
  Csr(std::int64_t rows, std::int64_t cols, std::vector<std::int64_t> row_ptr,
      std::vector<std::uint32_t> col_idx, std::vector<float> values);

  /// Builds from COO via counting sort; duplicates are summed.
  static Csr from_coo(const Coo& coo);

  /// Identity matrix (used by tests and by the first-layer backward skip
  /// reasoning of §4.4).
  static Csr identity(std::int64_t n);

  [[nodiscard]] std::int64_t rows() const { return rows_; }
  [[nodiscard]] std::int64_t cols() const { return cols_; }
  [[nodiscard]] std::int64_t nnz() const {
    return static_cast<std::int64_t>(col_idx_.size());
  }

  [[nodiscard]] std::span<const std::int64_t> row_ptr() const {
    return row_ptr_;
  }
  [[nodiscard]] std::span<const std::uint32_t> col_idx() const {
    return col_idx_;
  }
  [[nodiscard]] std::span<const float> values() const { return values_; }
  [[nodiscard]] std::span<float> values_mutable() {
    return values_;
  }

  [[nodiscard]] std::int64_t row_nnz(std::int64_t r) const {
    return row_ptr_[static_cast<std::size_t>(r + 1)] -
           row_ptr_[static_cast<std::size_t>(r)];
  }

  /// A^T, via counting sort over columns.
  [[nodiscard]] Csr transpose() const;
  /// transpose() into caller-owned arrays of cols() + 1 row pointers and
  /// nnz() entries (for callers that fill many transposes in parallel).
  void transpose_into(std::span<std::int64_t> t_ptr,
                      std::span<std::uint32_t> t_cols,
                      std::span<float> t_vals) const;

  /// Submatrix of rows [rb, re) x cols [cb, ce); indices are re-based to the
  /// tile's local coordinate system (eq. (15) of the paper).
  [[nodiscard]] Csr tile(std::int64_t rb, std::int64_t re, std::int64_t cb,
                         std::int64_t ce) const;

  /// Relabels vertices of a square matrix: entry (u, v) moves to
  /// (perm[u], perm[v]). This is §5.2's random-permutation load balancing.
  /// `perm` must be a bijection of [0, rows) (throws otherwise). Built
  /// directly in O(nnz), in parallel over rows, bit-identical to
  /// from_coo() of the relabelled entries: rows come out column-sorted and
  /// duplicate columns sum.
  [[nodiscard]] Csr permute_symmetric(
      std::span<const std::uint32_t> perm) const;

  /// GCN normalization (eq. (2)): divides A(u, v) by the v-th column sum
  /// (the in-degree weight of v). Returns Â. The rvalue overload
  /// normalizes in place instead of copying.
  [[nodiscard]] Csr normalize_gcn() const&;
  [[nodiscard]] Csr normalize_gcn() &&;

  /// Column sums (in-degrees for a 0/1 matrix).
  [[nodiscard]] std::vector<double> column_sums() const;

  /// Device-memory footprint of this matrix when shipped to a GPU as a
  /// partition tile: 32-bit local row offsets (tile nnz always fits),
  /// 4-byte column indices, 4-byte values. The host-side arrays use 64-bit
  /// offsets; the accounting charges what the device copy costs — this is
  /// what lets the hidden-208 Papers model squeeze into 8 GPUs (§6.5).
  [[nodiscard]] std::uint64_t footprint_bytes() const {
    return static_cast<std::uint64_t>(rows_ + 1) * 4 +
           static_cast<std::uint64_t>(nnz()) * 8;
  }

  [[nodiscard]] Coo to_coo() const;

  bool operator==(const Csr& other) const = default;

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<std::int64_t> row_ptr_ = {0};
  std::vector<std::uint32_t> col_idx_;
  std::vector<float> values_;
};

}  // namespace mggcn::sparse
