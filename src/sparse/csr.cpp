#include "sparse/csr.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mggcn::sparse {

Csr::Csr(std::int64_t rows, std::int64_t cols,
         std::vector<std::int64_t> row_ptr, std::vector<std::uint32_t> col_idx,
         std::vector<float> values)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  MGGCN_CHECK(rows_ >= 0 && cols_ >= 0);
  MGGCN_CHECK(row_ptr_.size() == static_cast<std::size_t>(rows_) + 1);
  MGGCN_CHECK(col_idx_.size() == values_.size());
  MGGCN_CHECK(row_ptr_.front() == 0 &&
              row_ptr_.back() == static_cast<std::int64_t>(col_idx_.size()));
}

Csr Csr::from_coo(const Coo& coo) {
  const auto n = static_cast<std::size_t>(coo.nnz());
  std::vector<std::int64_t> row_ptr(static_cast<std::size_t>(coo.rows) + 1, 0);
  for (std::size_t e = 0; e < n; ++e) {
    MGGCN_CHECK(coo.row_idx[e] < coo.rows && coo.col_idx[e] < coo.cols);
    ++row_ptr[coo.row_idx[e] + 1];
  }
  std::partial_sum(row_ptr.begin(), row_ptr.end(), row_ptr.begin());

  std::vector<std::uint32_t> col_idx(n);
  std::vector<float> values(n);
  std::vector<std::int64_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (std::size_t e = 0; e < n; ++e) {
    const auto slot = static_cast<std::size_t>(cursor[coo.row_idx[e]]++);
    col_idx[slot] = coo.col_idx[e];
    values[slot] = coo.values[e];
  }

  // Sort each row by column and merge duplicates.
  std::vector<std::uint32_t> merged_cols;
  std::vector<float> merged_vals;
  merged_cols.reserve(n);
  merged_vals.reserve(n);
  std::vector<std::int64_t> merged_ptr(row_ptr.size(), 0);
  std::vector<std::size_t> order;
  for (std::int64_t r = 0; r < coo.rows; ++r) {
    const auto b = static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(r)]);
    const auto e =
        static_cast<std::size_t>(row_ptr[static_cast<std::size_t>(r) + 1]);
    order.resize(e - b);
    std::iota(order.begin(), order.end(), b);
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) { return col_idx[x] < col_idx[y]; });
    const auto row_start = static_cast<std::int64_t>(merged_cols.size());
    for (std::size_t idx : order) {
      const bool duplicate =
          static_cast<std::int64_t>(merged_cols.size()) > row_start &&
          merged_cols.back() == col_idx[idx];
      if (duplicate) {
        merged_vals.back() += values[idx];
      } else {
        merged_cols.push_back(col_idx[idx]);
        merged_vals.push_back(values[idx]);
      }
    }
    merged_ptr[static_cast<std::size_t>(r) + 1] =
        static_cast<std::int64_t>(merged_cols.size());
  }

  return Csr(coo.rows, coo.cols, std::move(merged_ptr),
             std::move(merged_cols), std::move(merged_vals));
}

Csr Csr::identity(std::int64_t n) {
  std::vector<std::int64_t> row_ptr(static_cast<std::size_t>(n) + 1);
  std::iota(row_ptr.begin(), row_ptr.end(), std::int64_t{0});
  std::vector<std::uint32_t> col_idx(static_cast<std::size_t>(n));
  std::iota(col_idx.begin(), col_idx.end(), std::uint32_t{0});
  std::vector<float> values(static_cast<std::size_t>(n), 1.0f);
  return Csr(n, n, std::move(row_ptr), std::move(col_idx), std::move(values));
}

Csr Csr::transpose() const {
  std::vector<std::int64_t> t_ptr(static_cast<std::size_t>(cols_) + 1);
  std::vector<std::uint32_t> t_cols(col_idx_.size());
  std::vector<float> t_vals(values_.size());
  transpose_into(t_ptr, t_cols, t_vals);
  return Csr(cols_, rows_, std::move(t_ptr), std::move(t_cols),
             std::move(t_vals));
}

void Csr::transpose_into(std::span<std::int64_t> t_ptr,
                         std::span<std::uint32_t> t_cols,
                         std::span<float> t_vals) const {
  MGGCN_CHECK(t_ptr.size() == static_cast<std::size_t>(cols_) + 1 &&
              t_cols.size() == col_idx_.size() &&
              t_vals.size() == values_.size());
  std::fill(t_ptr.begin(), t_ptr.end(), 0);
  for (std::uint32_t c : col_idx_) ++t_ptr[c + 1];
  std::partial_sum(t_ptr.begin(), t_ptr.end(), t_ptr.begin());

  std::vector<std::int64_t> cursor(t_ptr.begin(), t_ptr.end() - 1);
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t e = row_ptr_[static_cast<std::size_t>(r)];
         e < row_ptr_[static_cast<std::size_t>(r) + 1]; ++e) {
      const auto c = col_idx_[static_cast<std::size_t>(e)];
      const auto slot = static_cast<std::size_t>(cursor[c]++);
      t_cols[slot] = static_cast<std::uint32_t>(r);
      t_vals[slot] = values_[static_cast<std::size_t>(e)];
    }
  }
}

Csr Csr::tile(std::int64_t rb, std::int64_t re, std::int64_t cb,
              std::int64_t ce) const {
  MGGCN_CHECK(0 <= rb && rb <= re && re <= rows_);
  MGGCN_CHECK(0 <= cb && cb <= ce && ce <= cols_);

  std::vector<std::int64_t> t_ptr;
  t_ptr.reserve(static_cast<std::size_t>(re - rb) + 1);
  t_ptr.push_back(0);
  std::vector<std::uint32_t> t_cols;
  std::vector<float> t_vals;

  for (std::int64_t r = rb; r < re; ++r) {
    const auto b = row_ptr_[static_cast<std::size_t>(r)];
    const auto e = row_ptr_[static_cast<std::size_t>(r) + 1];
    // Rows are column-sorted, so the tile's entries form a contiguous run.
    const auto* cols_begin = col_idx_.data() + b;
    const auto* cols_end = col_idx_.data() + e;
    const auto lo = std::lower_bound(cols_begin, cols_end,
                                     static_cast<std::uint32_t>(cb));
    const auto hi = std::lower_bound(lo, cols_end,
                                     static_cast<std::uint32_t>(ce));
    for (const auto* it = lo; it != hi; ++it) {
      t_cols.push_back(static_cast<std::uint32_t>(*it - cb));
      t_vals.push_back(values_[static_cast<std::size_t>(it - col_idx_.data())]);
    }
    t_ptr.push_back(static_cast<std::int64_t>(t_cols.size()));
  }
  return Csr(re - rb, ce - cb, std::move(t_ptr), std::move(t_cols),
             std::move(t_vals));
}

Csr Csr::permute_symmetric(std::span<const std::uint32_t> perm) const {
  MGGCN_CHECK_MSG(rows_ == cols_, "symmetric permutation needs a square matrix");
  MGGCN_CHECK_MSG(perm.size() == static_cast<std::size_t>(rows_),
                  "permutation length must equal the matrix order");
  const auto n = static_cast<std::size_t>(rows_);

  // New row v is old row inverse[v]. A repeated entry would merge two rows
  // and leave another one empty, so perm must be a bijection.
  std::vector<std::uint32_t> inverse(n, 0);
  for (std::size_t u = 0; u < n; ++u) {
    MGGCN_CHECK_MSG(perm[u] < n, "permutation entry " +
                                     std::to_string(perm[u]) +
                                     " is out of range [0, " +
                                     std::to_string(n) + ")");
    inverse[perm[u]] = static_cast<std::uint32_t>(u);
  }
  for (std::size_t v = 0; v < n; ++v) {
    MGGCN_CHECK_MSG(perm[inverse[v]] == v,
                    "permutation is not a bijection: no entry maps to " +
                        std::to_string(v));
  }

  // Each new row starts where its old row's entries would all fit; rows
  // that merge duplicate columns are compacted afterwards.
  std::vector<std::int64_t> row_ptr(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    row_ptr[v + 1] = row_ptr[v] + row_nnz(inverse[v]);
  }
  std::vector<std::uint32_t> cols(col_idx_.size());
  std::vector<float> vals(values_.size());
  std::vector<std::int64_t> kept(n);

  // Rows are independent; chunks of ~kChunkNnz nonzeros keep the cores
  // busy despite hub rows.
  constexpr std::int64_t kChunkNnz = 1 << 15;
  const std::int64_t chunks = std::clamp<std::int64_t>(
      nnz() / kChunkNnz, 1, std::max<std::int64_t>(rows_, 1));
  util::parallel_for(chunks, [&](std::int64_t chunk) {
    std::vector<std::pair<std::uint32_t, float>> entries;
    const std::int64_t vb = rows_ * chunk / chunks;
    const std::int64_t ve = rows_ * (chunk + 1) / chunks;
    for (std::int64_t v = vb; v < ve; ++v) {
      const auto vv = static_cast<std::size_t>(v);
      const std::uint32_t u = inverse[vv];
      entries.clear();
      for (std::int64_t e = row_ptr_[u]; e < row_ptr_[u + 1]; ++e) {
        const auto ee = static_cast<std::size_t>(e);
        entries.emplace_back(perm[col_idx_[ee]], values_[ee]);
      }
      // The same sort over the same column sequence as from_coo's index
      // sort of the relabelled COO, so equal columns meet, and sum, in
      // the same order.
      std::sort(entries.begin(), entries.end(),
                [](const auto& x, const auto& y) { return x.first < y.first; });
      auto out = static_cast<std::size_t>(row_ptr[vv]);
      const std::size_t row_start = out;
      for (const auto& [c, value] : entries) {
        if (out > row_start && cols[out - 1] == c) {
          vals[out - 1] += value;
        } else {
          cols[out] = c;
          vals[out] = value;
          ++out;
        }
      }
      kept[vv] = static_cast<std::int64_t>(out - row_start);
    }
  });

  if (std::accumulate(kept.begin(), kept.end(), std::int64_t{0}) < nnz()) {
    std::size_t out = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const auto b = static_cast<std::size_t>(row_ptr[v]);
      const auto k = static_cast<std::size_t>(kept[v]);
      if (out != b) {
        std::copy_n(cols.begin() + static_cast<std::ptrdiff_t>(b), k,
                    cols.begin() + static_cast<std::ptrdiff_t>(out));
        std::copy_n(vals.begin() + static_cast<std::ptrdiff_t>(b), k,
                    vals.begin() + static_cast<std::ptrdiff_t>(out));
      }
      row_ptr[v] = static_cast<std::int64_t>(out);
      out += k;
    }
    row_ptr[n] = static_cast<std::int64_t>(out);
    cols.resize(out);
    vals.resize(out);
  }
  return Csr(rows_, cols_, std::move(row_ptr), std::move(cols),
             std::move(vals));
}

std::vector<double> Csr::column_sums() const {
  std::vector<double> sums(static_cast<std::size_t>(cols_), 0.0);
  for (std::size_t e = 0; e < col_idx_.size(); ++e) {
    sums[col_idx_[e]] += values_[e];
  }
  return sums;
}

Csr Csr::normalize_gcn() const& { return Csr(*this).normalize_gcn(); }

Csr Csr::normalize_gcn() && {
  const std::vector<double> sums = column_sums();
  for (std::size_t e = 0; e < col_idx_.size(); ++e) {
    const double s = sums[col_idx_[e]];
    values_[e] = s > 0.0 ? static_cast<float>(values_[e] / s) : 0.0f;
  }
  return std::move(*this);
}

Coo Csr::to_coo() const {
  Coo coo(rows_, cols_);
  coo.reserve(static_cast<std::size_t>(nnz()));
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t e = row_ptr_[static_cast<std::size_t>(r)];
         e < row_ptr_[static_cast<std::size_t>(r) + 1]; ++e) {
      coo.add(static_cast<std::uint32_t>(r),
              col_idx_[static_cast<std::size_t>(e)],
              values_[static_cast<std::size_t>(e)]);
    }
  }
  return coo;
}

}  // namespace mggcn::sparse
