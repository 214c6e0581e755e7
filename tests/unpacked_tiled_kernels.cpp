// Bit-parity oracle for tests/test_kernel_policy.cpp: the register-tiled
// GeMM kernels as they were before B packing (unpacked B walked at a stride
// of ldb, scalar tail tiles, per-element A * B^T dot products), verbatim
// apart from this header and the namespace. Built with the same flags as
// src/dense/kernels_tiled.cpp (see tests/CMakeLists.txt), so the packed
// kernels must reproduce its output bit for bit.
//
// Register-tiled, cache-blocked GeMM variants (the `tiled` kernel policy).
//
// Structure (what cuBLAS does on a GPU, translated to one host core):
//   - an i x j register tile of C (kMr x kNr accumulators) lives entirely in
//     vector registers across the k loop, so the inner loop does one B-row
//     load + kMr broadcast-FMAs per k step instead of a C-row read-modify-
//     write per step;
//   - the k dimension is blocked into kKc panels so the B panel a register
//     tile streams (kKc x kNr floats = 16 KiB) stays L1-resident while the
//     i0 loop sweeps down the A panel;
//   - beta is folded into the first k panel's store (no separate zeroing or
//     scaling pass over C);
//   - ragged shapes fall back to a bounds-checked tail micro-kernel, so any
//     (m, k, n) is handled.
//
// Everything is plain scalar C++ with __restrict and fixed trip counts —
// the compiler's auto-vectorizer turns the kNr-wide inner loops into SIMD;
// no intrinsics, so the kernels are portable across ISAs.
#include "dense/kernels.hpp"

#include <algorithm>

namespace mggcn::dense::unpacked_tiled {

namespace {

/// Register-tile rows of C.
constexpr std::int64_t kMr = 4;
/// Register-tile columns of C (SIMD width times unroll).
constexpr std::int64_t kNr = 16;
/// k cache panel: a kKc x kNr B panel is 16 KiB, safely L1-resident.
constexpr std::int64_t kKc = 256;

/// p-strip width for the dot-product (A * B^T) kernels: 32 floats = four
/// independent 8-wide accumulator vectors, enough to hide the FP add
/// latency within a single stream.
constexpr std::int64_t kPr = 32;
/// Columns of C per dot-product register tile.
constexpr std::int64_t kJr = 4;
/// Cache block (A rows x B rows) for the dot-product kernels. Without it
/// every output row re-streams all of B from L3 and the kernels are
/// bandwidth-bound; a 64-row B block (<= 128 KiB at k = 512) stays
/// L2-resident across the i sweep. Must be a multiple of kJr.
constexpr std::int64_t kIb = 64;
constexpr std::int64_t kJb = 64;
static_assert(kJb % kJr == 0);

void scale_output(MatrixView c, float beta) {
  if (beta == 0.0f) {
    fill(c.data, c.size(), 0.0f);
  } else if (beta != 1.0f) {
    for (std::int64_t i = 0; i < c.size(); ++i) c.data[i] *= beta;
  }
}

/// Full kMr x kNr register tile over a k panel of length kc. A is accessed
/// as a[r * a_r_stride + p * a_p_stride] so the same kernel serves both the
/// A and A^T layouts. `first_panel` folds the alpha/beta epilogue into the
/// store of the first panel; later panels accumulate.
inline void micro_full(const float* __restrict a, std::int64_t a_r_stride,
                       std::int64_t a_p_stride, const float* __restrict b,
                       std::int64_t ldb, float* __restrict c, std::int64_t ldc,
                       std::int64_t kc, float alpha, float beta,
                       bool first_panel) {
  // One named accumulator array per C row, not acc[kMr][kNr]: indexing the
  // tile by a loop-variant row keeps it in stack memory (a read-modify-write
  // per k step, ~10x slower), while distinct fixed-size arrays are promoted
  // to vector registers after the j loops vectorize.
  float acc0[kNr] = {}, acc1[kNr] = {}, acc2[kNr] = {}, acc3[kNr] = {};
  static_assert(kMr == 4, "micro_full hand-unrolls the kMr accumulator rows");
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* bp = b + p * ldb;
    const float* ap = a + p * a_p_stride;
    const float av0 = ap[0];
    const float av1 = ap[a_r_stride];
    const float av2 = ap[2 * a_r_stride];
    const float av3 = ap[3 * a_r_stride];
    for (std::int64_t j = 0; j < kNr; ++j) {
      acc0[j] += av0 * bp[j];
      acc1[j] += av1 * bp[j];
      acc2[j] += av2 * bp[j];
      acc3[j] += av3 * bp[j];
    }
  }
  float acc[kMr][kNr];
  for (std::int64_t j = 0; j < kNr; ++j) {
    acc[0][j] = acc0[j];
    acc[1][j] = acc1[j];
    acc[2][j] = acc2[j];
    acc[3][j] = acc3[j];
  }
  if (first_panel) {
    if (beta == 0.0f) {
      for (std::int64_t r = 0; r < kMr; ++r) {
        float* cr = c + r * ldc;
        for (std::int64_t j = 0; j < kNr; ++j) cr[j] = alpha * acc[r][j];
      }
    } else {
      for (std::int64_t r = 0; r < kMr; ++r) {
        float* cr = c + r * ldc;
        for (std::int64_t j = 0; j < kNr; ++j) {
          cr[j] = alpha * acc[r][j] + beta * cr[j];
        }
      }
    }
  } else {
    for (std::int64_t r = 0; r < kMr; ++r) {
      float* cr = c + r * ldc;
      for (std::int64_t j = 0; j < kNr; ++j) cr[j] += alpha * acc[r][j];
    }
  }
}

/// Bounds-checked tail tile (mr <= kMr rows, nr <= kNr columns).
inline void micro_tail(const float* __restrict a, std::int64_t a_r_stride,
                       std::int64_t a_p_stride, const float* __restrict b,
                       std::int64_t ldb, float* __restrict c, std::int64_t ldc,
                       std::int64_t mr, std::int64_t nr, std::int64_t kc,
                       float alpha, float beta, bool first_panel) {
  float acc[kMr][kNr] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* bp = b + p * ldb;
    for (std::int64_t r = 0; r < mr; ++r) {
      const float av = a[r * a_r_stride + p * a_p_stride];
      float* accr = acc[r];
      for (std::int64_t j = 0; j < nr; ++j) {
        accr[j] += av * bp[j];
      }
    }
  }
  for (std::int64_t r = 0; r < mr; ++r) {
    float* cr = c + r * ldc;
    for (std::int64_t j = 0; j < nr; ++j) {
      if (first_panel) {
        cr[j] = alpha * acc[r][j] +
                (beta == 0.0f ? 0.0f : beta * cr[j]);
      } else {
        cr[j] += alpha * acc[r][j];
      }
    }
  }
}

/// Shared driver for C = alpha * op(A) * B + beta * C with op(A) either A
/// (a_trans = false, A is m x k) or A^T (a_trans = true, A is k x m).
void gemm_driver(const float* a, std::int64_t lda, bool a_trans,
                 const float* b, std::int64_t ldb, float* c, std::int64_t ldc,
                 std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 float beta) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    scale_output({c, m, n}, beta);
    return;
  }
  const std::int64_t a_r_stride = a_trans ? 1 : lda;
  const std::int64_t a_p_stride = a_trans ? lda : 1;

  for (std::int64_t kk = 0; kk < k; kk += kKc) {
    const std::int64_t kc = std::min(kKc, k - kk);
    const bool first_panel = kk == 0;
    const float* bk = b + kk * ldb;
    for (std::int64_t i0 = 0; i0 < m; i0 += kMr) {
      const std::int64_t mr = std::min(kMr, m - i0);
      const float* ab =
          a_trans ? a + kk * lda + i0 : a + i0 * lda + kk;
      float* cb = c + i0 * ldc;
      std::int64_t j0 = 0;
      if (mr == kMr) {
        for (; j0 + kNr <= n; j0 += kNr) {
          micro_full(ab, a_r_stride, a_p_stride, bk + j0, ldb, cb + j0, ldc,
                     kc, alpha, beta, first_panel);
        }
      }
      for (; j0 < n; j0 += kNr) {
        micro_tail(ab, a_r_stride, a_p_stride, bk + j0, ldb, cb + j0, ldc, mr,
                   std::min(kNr, n - j0), kc, alpha, beta, first_panel);
      }
    }
  }
}

void check_gemm_shapes(std::int64_t am, std::int64_t ak, std::int64_t bk,
                       std::int64_t bn, std::int64_t cm, std::int64_t cn) {
  MGGCN_CHECK_MSG(ak == bk, "gemm inner dimensions must agree");
  MGGCN_CHECK_MSG(am == cm && bn == cn, "gemm output shape mismatch");
}

/// Short-vector dot product. The final partial-sum reduction cannot be
/// reassociated (no -ffast-math), so it runs as ordered scalar adds; for
/// small k an 8-wide strip keeps that epilogue from dominating the dot.
inline float dot1_short(const float* __restrict ai,
                        const float* __restrict bj, std::int64_t k,
                        float alpha) {
  constexpr std::int64_t kW = 8;
  float acc[kW] = {};
  std::int64_t p = 0;
  for (; p + kW <= k; p += kW) {
    for (std::int64_t l = 0; l < kW; ++l) {
      acc[l] += ai[p + l] * bj[p + l];
    }
  }
  float sum = 0.0f;
  for (; p < k; ++p) sum += ai[p] * bj[p];
  for (std::int64_t l = 0; l < kW; ++l) sum += acc[l];
  return alpha * sum;
}

/// One dot product with a kPr-wide strip of explicit partial accumulators,
/// so the reduction vectorizes without reassociation license. Returns
/// alpha * (a . b_j).
inline float dot1(const float* __restrict ai, const float* __restrict bj,
                  std::int64_t k, float alpha) {
  if (k < 4 * kPr) return dot1_short(ai, bj, k, alpha);
  float acc[kPr] = {};
  std::int64_t p = 0;
  for (; p + kPr <= k; p += kPr) {
    for (std::int64_t l = 0; l < kPr; ++l) {
      acc[l] += ai[p + l] * bj[p + l];
    }
  }
  float sum = 0.0f;
  for (; p < k; ++p) sum += ai[p] * bj[p];
  for (std::int64_t l = 0; l < kPr; ++l) sum += acc[l];
  return alpha * sum;
}

/// kJr dot products: one A row against kJr B rows. Deliberately four
/// independent dot1 loops, NOT one loop with four interleaved accumulator
/// statements — GCC's SLP vectorizer turns the interleaved form into a
/// vpermd/vblendps shuffle storm that runs ~5x slower than these plain
/// strip loops. The extra ai re-reads all hit L1.
inline void dot4(const float* __restrict ai, const float* __restrict b0,
                 const float* __restrict b1, const float* __restrict b2,
                 const float* __restrict b3, std::int64_t k, float alpha,
                 float out[kJr]) {
  out[0] = dot1(ai, b0, k, alpha);
  out[1] = dot1(ai, b1, k, alpha);
  out[2] = dot1(ai, b2, k, alpha);
  out[3] = dot1(ai, b3, k, alpha);
}

}  // namespace

void gemm(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
          float beta) {
  check_gemm_shapes(a.rows, a.cols, b.rows, b.cols, c.rows, c.cols);
  gemm_driver(a.data, a.cols, /*a_trans=*/false, b.data, b.cols, c.data,
              c.cols, a.rows, b.cols, a.cols, alpha, beta);
}

void gemm_at_b(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
               float beta) {
  // A is (k x m) and participates transposed: C(m x n) = A^T B. The driver
  // reads the tile's A elements contiguously (a_r_stride = 1), so this
  // layout is actually the friendlier one.
  check_gemm_shapes(a.cols, a.rows, b.rows, b.cols, c.rows, c.cols);
  gemm_driver(a.data, a.cols, /*a_trans=*/true, b.data, b.cols, c.data,
              c.cols, a.cols, b.cols, a.rows, alpha, beta);
}

void gemm_a_bt(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
               float beta) {
  // B is (n x k) and participates transposed: C(m x n) = A B^T. Both the A
  // row and the B rows are walked with unit stride, so the k loop is the
  // vectorized one (dot-product form with strip-mined accumulators).
  check_gemm_shapes(a.rows, a.cols, b.cols, b.rows, c.rows, c.cols);
  const std::int64_t m = a.rows, k = a.cols, n = b.rows;

  for (std::int64_t i0 = 0; i0 < m; i0 += kIb) {
    const std::int64_t i_end = std::min(i0 + kIb, m);
    for (std::int64_t j0 = 0; j0 < n; j0 += kJb) {
      const std::int64_t j_end = std::min(j0 + kJb, n);
      for (std::int64_t i = i0; i < i_end; ++i) {
        const float* ai = a.row(i);
        float* ci = c.row(i);
        std::int64_t j = j0;
        for (; j + kJr <= j_end; j += kJr) {
          float dots[kJr];
          dot4(ai, b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3), k,
               alpha, dots);
          for (std::int64_t jj = 0; jj < kJr; ++jj) {
            ci[j + jj] =
                dots[jj] + (beta == 0.0f ? 0.0f : beta * ci[j + jj]);
          }
        }
        for (; j < j_end; ++j) {
          ci[j] = dot1(ai, b.row(j), k, alpha) +
                  (beta == 0.0f ? 0.0f : beta * ci[j]);
        }
      }
    }
  }
}

void gemm_a_bt_relu_masked(ConstMatrixView a, ConstMatrixView b,
                           MatrixView c) {
  check_gemm_shapes(a.rows, a.cols, b.cols, b.rows, c.rows, c.cols);
  const std::int64_t m = a.rows, k = a.cols, n = b.rows;

  for (std::int64_t i0 = 0; i0 < m; i0 += kIb) {
    const std::int64_t i_end = std::min(i0 + kIb, m);
    for (std::int64_t j0 = 0; j0 < n; j0 += kJb) {
      const std::int64_t j_end = std::min(j0 + kJb, n);
      for (std::int64_t i = i0; i < i_end; ++i) {
        const float* ai = a.row(i);
        float* ci = c.row(i);
        // The ReLU mask comes from the activation already in C. Skip
        // per element, like the naive kernel: at ReLU sparsity p that
        // drops a fraction p of the dot products outright, which beats
        // any tile-granular skip.
        for (std::int64_t j = j0; j < j_end; ++j) {
          ci[j] = ci[j] > 0.0f ? dot1(ai, b.row(j), k, 1.0f) : 0.0f;
        }
      }
    }
  }
}

}  // namespace mggcn::dense::unpacked_tiled
