#include "dense/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace mggcn::dense {

namespace {

/// Cache-blocking tile for the k dimension; keeps a B panel resident.
constexpr std::int64_t kBlockK = 64;

void check_gemm_shapes(std::int64_t am, std::int64_t ak, std::int64_t bk,
                       std::int64_t bn, std::int64_t cm, std::int64_t cn) {
  MGGCN_CHECK_MSG(ak == bk, "gemm inner dimensions must agree");
  MGGCN_CHECK_MSG(am == cm && bn == cn, "gemm output shape mismatch");
}

}  // namespace

double max_abs_diff(ConstMatrixView a, ConstMatrixView b) {
  MGGCN_CHECK(a.rows == b.rows && a.cols == b.cols);
  double m = 0.0;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    m = std::max(m, static_cast<double>(std::fabs(a.data[i] - b.data[i])));
  }
  return m;
}

namespace naive {

void gemm(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
          float beta) {
  check_gemm_shapes(a.rows, a.cols, b.rows, b.cols, c.rows, c.cols);
  const std::int64_t m = a.rows, k = a.cols, n = b.cols;

  if (beta == 0.0f) {
    fill(c.data, c.size(), 0.0f);
  } else if (beta != 1.0f) {
    for (std::int64_t i = 0; i < c.size(); ++i) c.data[i] *= beta;
  }

  // i-kk-k-j ordering: unit-stride inner loop over C/B rows, with a k-panel
  // block so the B panel stays cache resident.
  for (std::int64_t kk = 0; kk < k; kk += kBlockK) {
    const std::int64_t k_end = std::min(k, kk + kBlockK);
    for (std::int64_t i = 0; i < m; ++i) {
      float* ci = c.row(i);
      const float* ai = a.row(i);
      for (std::int64_t p = kk; p < k_end; ++p) {
        const float aip = alpha * ai[p];
        if (aip == 0.0f) continue;
        const float* bp = b.row(p);
        for (std::int64_t j = 0; j < n; ++j) {
          ci[j] += aip * bp[j];
        }
      }
    }
  }
}

void gemm_at_b(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
               float beta) {
  // A is (k x m) and participates transposed: C(m x n) = A^T B.
  check_gemm_shapes(a.cols, a.rows, b.rows, b.cols, c.rows, c.cols);
  const std::int64_t k = a.rows, m = a.cols, n = b.cols;

  if (beta == 0.0f) {
    fill(c.data, c.size(), 0.0f);
  } else if (beta != 1.0f) {
    for (std::int64_t i = 0; i < c.size(); ++i) c.data[i] *= beta;
  }

  for (std::int64_t p = 0; p < k; ++p) {
    const float* ap = a.row(p);
    const float* bp = b.row(p);
    for (std::int64_t i = 0; i < m; ++i) {
      const float api = alpha * ap[i];
      if (api == 0.0f) continue;
      float* ci = c.row(i);
      for (std::int64_t j = 0; j < n; ++j) {
        ci[j] += api * bp[j];
      }
    }
  }
}

void gemm_a_bt(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
               float beta) {
  // B is (n x k) and participates transposed: C(m x n) = A B^T.
  check_gemm_shapes(a.rows, a.cols, b.cols, b.rows, c.rows, c.cols);
  const std::int64_t m = a.rows, k = a.cols, n = b.rows;

  for (std::int64_t i = 0; i < m; ++i) {
    const float* ai = a.row(i);
    float* ci = c.row(i);
    for (std::int64_t j = 0; j < n; ++j) {
      const float* bj = b.row(j);
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += ai[p] * bj[p];
      }
      ci[j] = alpha * acc + (beta == 0.0f ? 0.0f : beta * ci[j]);
    }
  }
}

void gemm_a_bt_relu_masked(ConstMatrixView a, ConstMatrixView b,
                           MatrixView c) {
  check_gemm_shapes(a.rows, a.cols, b.cols, b.rows, c.rows, c.cols);
  const std::int64_t m = a.rows, k = a.cols, n = b.rows;

  for (std::int64_t i = 0; i < m; ++i) {
    const float* ai = a.row(i);
    float* ci = c.row(i);
    for (std::int64_t j = 0; j < n; ++j) {
      if (ci[j] <= 0.0f) {
        ci[j] = 0.0f;
        continue;
      }
      const float* bj = b.row(j);
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += ai[p] * bj[p];
      }
      ci[j] = acc;
    }
  }
}

}  // namespace naive

void gemm(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
          float beta) {
  dense_kernels(kernel_policy()).gemm(a, b, c, alpha, beta);
}

void gemm_at_b(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
               float beta) {
  dense_kernels(kernel_policy()).gemm_at_b(a, b, c, alpha, beta);
}

void gemm_a_bt(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
               float beta) {
  dense_kernels(kernel_policy()).gemm_a_bt(a, b, c, alpha, beta);
}

void gemm_a_bt_relu_masked(ConstMatrixView a, ConstMatrixView b,
                           MatrixView c) {
  dense_kernels(kernel_policy()).gemm_a_bt_relu_masked(a, b, c);
}

void fill(float* dst, std::int64_t n, float value) {
  std::fill(dst, dst + n, value);
}

void copy(const float* src, float* dst, std::int64_t n) {
  std::memcpy(dst, src, static_cast<std::size_t>(n) * sizeof(float));
}

void axpy(const float* x, float* y, std::int64_t n, float alpha) {
  for (std::int64_t i = 0; i < n; ++i) {
    y[i] += alpha * x[i];
  }
}

void gather_rows(ConstMatrixView src, const std::uint32_t* idx,
                 MatrixView out) {
  MGGCN_CHECK_MSG(src.cols == out.cols, "gather_rows width mismatch");
  const std::size_t row_bytes =
      static_cast<std::size_t>(src.cols) * sizeof(float);
  for (std::int64_t i = 0; i < out.rows; ++i) {
    const std::int64_t r = static_cast<std::int64_t>(idx[i]);
    MGGCN_CHECK_MSG(r < src.rows, "gather_rows index out of range");
    std::memcpy(out.row(i), src.row(r), row_bytes);
  }
}

sim::KernelCost gemm_cost(std::int64_t m, std::int64_t n, std::int64_t k) {
  sim::KernelCost cost;
  cost.flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
               static_cast<double>(k);
  cost.stream_bytes =
      4.0 * (static_cast<double>(m) * k + static_cast<double>(k) * n +
             2.0 * static_cast<double>(m) * n);
  cost.launches = 1;
  return cost;
}

sim::KernelCost elementwise_cost(std::int64_t n, int reads, int writes) {
  sim::KernelCost cost;
  cost.stream_bytes = 4.0 * static_cast<double>(n) * (reads + writes);
  cost.flops = static_cast<double>(n);
  cost.launches = 1;
  return cost;
}

}  // namespace mggcn::dense
