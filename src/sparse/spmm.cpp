#include "sparse/spmm.hpp"

#include "sparse/spmm_plan.hpp"
#include "util/error.hpp"

namespace mggcn::sparse {

namespace {

void check_spmm_shapes(const Csr& a, dense::ConstMatrixView b,
                       dense::MatrixView c) {
  MGGCN_CHECK_MSG(a.cols() == b.rows, "spmm inner dimensions must agree");
  MGGCN_CHECK_MSG(a.rows() == c.rows && b.cols == c.cols,
                  "spmm output shape mismatch");
}

}  // namespace

namespace naive {

void spmm(const Csr& a, dense::ConstMatrixView b, dense::MatrixView c,
          float alpha, float beta) {
  check_spmm_shapes(a, b, c);
  const std::int64_t d = b.cols;
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();

  for (std::int64_t r = 0; r < a.rows(); ++r) {
    float* out = c.row(r);
    std::int64_t e = row_ptr[static_cast<std::size_t>(r)];
    const std::int64_t e_end = row_ptr[static_cast<std::size_t>(r) + 1];
    if (beta == 0.0f) {
      if (e == e_end) {
        for (std::int64_t j = 0; j < d; ++j) out[j] = 0.0f;
        continue;
      }
      // Initialize the output row from the first nonzero instead of a
      // separate zeroing pass (bit-identical to the tiled path).
      const float w = alpha * values[static_cast<std::size_t>(e)];
      const float* src = b.row(col_idx[static_cast<std::size_t>(e)]);
      for (std::int64_t j = 0; j < d; ++j) out[j] = w * src[j];
      ++e;
    } else if (beta != 1.0f) {
      for (std::int64_t j = 0; j < d; ++j) out[j] *= beta;
    }
    for (; e < e_end; ++e) {
      const float w = alpha * values[static_cast<std::size_t>(e)];
      const float* src = b.row(col_idx[static_cast<std::size_t>(e)]);
      for (std::int64_t j = 0; j < d; ++j) {
        out[j] += w * src[j];
      }
    }
  }
}

}  // namespace naive

// tiled::spmm lives in spmm_tiled.cpp and planned::spmm (the cache-backed
// inspector-executor wrapper) in spmm_plan.cpp / spmm_planned.cpp.

namespace {

using SpmmFn = void (*)(const Csr&, dense::ConstMatrixView, dense::MatrixView,
                        float, float);

/// Indexed by dense::KernelPolicy.
constexpr SpmmFn kSpmm[] = {&naive::spmm, &tiled::spmm, &planned::spmm};

}  // namespace

void spmm(const Csr& a, dense::ConstMatrixView b, dense::MatrixView c,
          float alpha, float beta) {
  kSpmm[static_cast<int>(dense::kernel_policy())](a, b, c, alpha, beta);
}

sim::KernelCost spmm_cost(std::int64_t nnz, std::int64_t out_rows,
                          std::int64_t src_rows, std::int64_t d) {
  sim::KernelCost cost;
  // CSR structure: 4B column index + 4B value per nonzero, 8B per row offset.
  cost.stream_bytes = 8.0 * static_cast<double>(nnz) +
                      8.0 * static_cast<double>(out_rows) +
                      // output rows written (and read for the += update).
                      8.0 * static_cast<double>(out_rows) *
                          static_cast<double>(d);
  // Feature rows gathered at random from the source tile.
  cost.gather_bytes =
      4.0 * static_cast<double>(nnz) * static_cast<double>(d);
  cost.gather_working_set =
      4.0 * static_cast<double>(src_rows) * static_cast<double>(d);
  cost.flops = 2.0 * static_cast<double>(nnz) * static_cast<double>(d);
  cost.launches = 1;
  return cost;
}

sim::KernelCost spmm_cost(const Csr& a, std::int64_t d) {
  return spmm_cost(a.nnz(), a.rows(), a.cols(), d);
}

}  // namespace mggcn::sparse
