// Register-tiled, cache-blocked GeMM variants (the `tiled` kernel policy).
//
// Structure (what cuBLAS does on a GPU, translated to one host core):
//   - A * B and A^T * B: the k dimension is blocked into kKc panels, and each
//     B panel is packed into kNr-wide column strips (kKc x kNr floats =
//     16 KiB, L1-resident), zero-padded past n, in a per-thread scratch
//     buffer reused across calls. Every strip, the ragged last one included,
//     runs the full kMr x kNr register tile: the accumulators live in vector
//     registers across the panel, so the inner loop is one contiguous strip
//     load + kMr broadcast-FMAs per k step. Only the m-tail rows (m % kMr)
//     take a bounds-checked kernel; the last strip stores only its real
//     columns. Packing also replaces the ldb-strided B walk, whose stride
//     aliases L1 sets at power-of-two n;
//   - beta is folded into the first k panel's store (no separate zeroing or
//     scaling pass over C);
//   - A * B^T with short k (k < 4 * kPr): B^T is packed into kW-column strips
//     and each A row runs against one strip at a time, vectorized across the
//     strip's kW output columns; rows are blocked so a strip stays in L1. The
//     fused ReLU-masked variant skips a strip whose kW mask entries are all
//     inactive. Longer k keeps the dot-product form (strip-mined partial
//     sums along k) with A/B row blocks sized for L2.
//
// Every output element sees the same sequence of IEEE operations as the
// unpacked kernels these replaced (same k order, same partial sums, same
// epilogue), so results are bit-identical to them; only the loop order
// across independent elements changed.
//
// Everything is plain scalar C++ with __restrict and fixed trip counts —
// the compiler's auto-vectorizer turns the fixed-width inner loops into
// SIMD; no intrinsics and no alignment assumptions, so the kernels are
// portable across ISAs.
#include "dense/kernels.hpp"

#include <algorithm>
#include <vector>

namespace mggcn::dense::tiled {

namespace {

/// Register-tile rows of C.
constexpr std::int64_t kMr = 4;
/// Register-tile columns of C (SIMD width times unroll); the packed B strip
/// width.
constexpr std::int64_t kNr = 16;
/// k cache panel: a kKc x kNr packed B strip is 16 KiB, safely L1-resident.
constexpr std::int64_t kKc = 256;

/// p-strip width for the long-k dot-product (A * B^T) kernel: 32 floats =
/// four independent 8-wide accumulator vectors, enough to hide the FP add
/// latency within a single stream. Below k = 4 * kPr the short form runs.
constexpr std::int64_t kPr = 32;
/// Partial sums of the short-k dot product, and columns per packed B^T
/// strip (one 8-wide vector of outputs).
constexpr std::int64_t kW = 8;
/// Row block of A swept against one packed strip (A * B, A^T * B, short-k
/// A * B^T), so the strip stays L1-resident across the block. The long-k
/// A * B^T kernel blocks kIb A rows x kJb B rows instead: without it every
/// output row re-streams all of B from L3, while a 64-row B block
/// (<= 128 KiB at k = 512) stays L2-resident across the i sweep.
constexpr std::int64_t kIb = 64;
constexpr std::int64_t kJb = 64;
static_assert(kIb % kMr == 0);
/// Columns of C per step of the long-k A * B^T kernel.
constexpr std::int64_t kJr = 4;

/// Per-thread packing buffer of at least `floats` floats, reused across
/// calls (it only grows). Its contents are scratch: callers pack before
/// they read.
float* pack_scratch(std::int64_t floats) {
  thread_local std::vector<float> buffer;
  const auto size =
      static_cast<std::size_t>(std::max<std::int64_t>(floats, 1));
  if (buffer.size() < size) {
    buffer.clear();
    buffer.resize(size);
  }
  return buffer.data();
}

void scale_output(MatrixView c, float beta) {
  if (beta == 0.0f) {
    fill(c.data, c.size(), 0.0f);
  } else if (beta != 1.0f) {
    for (std::int64_t i = 0; i < c.size(); ++i) c.data[i] *= beta;
  }
}

// --- A * B and A^T * B --------------------------------------------------

/// Packs the kc x n panel `b` (row stride ldb) into ceil(n / kNr) strips of
/// kc x kNr floats, strip-major: out[s * kc * kNr + p * kNr + j] =
/// b[p * ldb + s * kNr + j], zero past column n.
void pack_b_panel(const float* __restrict b, std::int64_t ldb,
                  std::int64_t kc, std::int64_t n, float* __restrict out) {
  for (std::int64_t j0 = 0; j0 < n; j0 += kNr) {
    const std::int64_t nr = std::min(kNr, n - j0);
    for (std::int64_t p = 0; p < kc; ++p) {
      const float* src = b + p * ldb + j0;
      float* dst = out + p * kNr;
      if (nr == kNr) {
        for (std::int64_t j = 0; j < kNr; ++j) dst[j] = src[j];
      } else {
        for (std::int64_t j = 0; j < nr; ++j) dst[j] = src[j];
        for (std::int64_t j = nr; j < kNr; ++j) dst[j] = 0.0f;
      }
    }
    out += kc * kNr;
  }
}

/// Writes the first nr columns of one accumulator row into C row `cr`.
/// `first_panel` folds the alpha/beta epilogue into the store; later panels
/// accumulate. `edge` selects the edge-tile beta == 0 store
/// alpha * acc + 0.0f (a -0.0 product lands as +0.0) over the interior
/// tile's alpha * acc: the two stores of the unpacked kernels, kept so every
/// output bit is unchanged.
inline void store_row(const float (&acc)[kNr], float* __restrict cr,
                      std::int64_t nr, float alpha, float beta,
                      bool first_panel, bool edge) {
  if (!first_panel) {
    for (std::int64_t j = 0; j < nr; ++j) cr[j] += alpha * acc[j];
  } else if (beta != 0.0f) {
    for (std::int64_t j = 0; j < nr; ++j) {
      cr[j] = alpha * acc[j] + beta * cr[j];
    }
  } else if (edge) {
    for (std::int64_t j = 0; j < nr; ++j) cr[j] = alpha * acc[j] + 0.0f;
  } else {
    for (std::int64_t j = 0; j < nr; ++j) cr[j] = alpha * acc[j];
  }
}

/// Full kMr-row register tile against one packed strip over a k panel of
/// length kc, storing the strip's first nr columns. A is accessed as
/// a[r * a_r_stride + p * a_p_stride] so the same kernel serves both the A
/// and A^T layouts. Kept out of line: inlined into the driver loops, GCC
/// allocates the tile's registers worse.
[[gnu::noinline]] void micro_full(const float* __restrict a,
                                  std::int64_t a_r_stride,
                                  std::int64_t a_p_stride,
                                  const float* __restrict bs,
                                  float* __restrict c, std::int64_t ldc,
                                  std::int64_t kc, std::int64_t nr,
                                  float alpha, float beta, bool first_panel) {
  // One named accumulator array per C row, not acc[kMr][kNr]: indexing the
  // tile by a loop-variant row keeps it in stack memory (a read-modify-write
  // per k step, ~10x slower), while distinct fixed-size arrays are promoted
  // to vector registers after the j loops vectorize.
  float acc0[kNr] = {}, acc1[kNr] = {}, acc2[kNr] = {}, acc3[kNr] = {};
  static_assert(kMr == 4, "micro_full hand-unrolls the kMr accumulator rows");
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* bp = bs + p * kNr;
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
  const bool edge = nr < kNr;
  store_row(acc0, c, nr, alpha, beta, first_panel, edge);
  store_row(acc1, c + ldc, nr, alpha, beta, first_panel, edge);
  store_row(acc2, c + 2 * ldc, nr, alpha, beta, first_panel, edge);
  store_row(acc3, c + 3 * ldc, nr, alpha, beta, first_panel, edge);
}

/// Bounds-checked m-tail tile (mr < kMr rows) against one packed strip.
inline void micro_rows(const float* __restrict a, std::int64_t a_r_stride,
                       std::int64_t a_p_stride, const float* __restrict bs,
                       float* __restrict c, std::int64_t ldc, std::int64_t mr,
                       std::int64_t kc, std::int64_t nr, float alpha,
                       float beta, bool first_panel) {
  float acc[kMr][kNr] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* bp = bs + p * kNr;
    for (std::int64_t r = 0; r < mr; ++r) {
      const float av = a[r * a_r_stride + p * a_p_stride];
      float* accr = acc[r];
      for (std::int64_t j = 0; j < kNr; ++j) accr[j] += av * bp[j];
    }
  }
  for (std::int64_t r = 0; r < mr; ++r) {
    store_row(acc[r], c + r * ldc, nr, alpha, beta, first_panel,
              /*edge=*/true);
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
  const std::int64_t strips = (n + kNr - 1) / kNr;
  float* packed = pack_scratch(std::min(k, kKc) * strips * kNr);

  for (std::int64_t kk = 0; kk < k; kk += kKc) {
    const std::int64_t kc = std::min(kKc, k - kk);
    const bool first_panel = kk == 0;
    pack_b_panel(b + kk * ldb, ldb, kc, n, packed);
    for (std::int64_t ib = 0; ib < m; ib += kIb) {
      const std::int64_t ib_end = std::min(ib + kIb, m);
      for (std::int64_t s = 0; s < strips; ++s) {
        const std::int64_t j0 = s * kNr;
        const std::int64_t nr = std::min(kNr, n - j0);
        const float* bs = packed + s * kc * kNr;
        for (std::int64_t i0 = ib; i0 < ib_end; i0 += kMr) {
          const std::int64_t mr = std::min(kMr, m - i0);
          const float* ab = a_trans ? a + kk * lda + i0 : a + i0 * lda + kk;
          float* cb = c + i0 * ldc + j0;
          if (mr == kMr) {
            micro_full(ab, a_r_stride, a_p_stride, bs, cb, ldc, kc, nr, alpha,
                       beta, first_panel);
          } else {
            micro_rows(ab, a_r_stride, a_p_stride, bs, cb, ldc, mr, kc, nr,
                       alpha, beta, first_panel);
          }
        }
      }
    }
  }
}

void check_gemm_shapes(std::int64_t am, std::int64_t ak, std::int64_t bk,
                       std::int64_t bn, std::int64_t cm, std::int64_t cn) {
  MGGCN_CHECK_MSG(ak == bk, "gemm inner dimensions must agree");
  MGGCN_CHECK_MSG(am == cm && bn == cn, "gemm output shape mismatch");
}

// --- A * B^T -------------------------------------------------------------

/// One dot product with a kPr-wide strip of explicit partial accumulators,
/// so the reduction vectorizes without reassociation license. The final
/// partial-sum reduction cannot be reassociated (no -ffast-math), so it
/// runs as ordered scalar adds. Returns alpha * (a . b_j). Only for
/// k >= 4 * kPr; shorter dots run dot8_short.
inline float dot1(const float* __restrict ai, const float* __restrict bj,
                  std::int64_t k, float alpha) {
  // acc0..acc3 are the kPr partial sums in order, one named 8-wide array
  // each (see micro_full) so they stay in vector registers.
  float acc0[kW] = {}, acc1[kW] = {}, acc2[kW] = {}, acc3[kW] = {};
  static_assert(kPr == 4 * kW, "dot1 hand-unrolls kPr / kW partial sums");
  std::int64_t p = 0;
  for (; p + kPr <= k; p += kPr) {
    const float* ap = ai + p;
    const float* bp = bj + p;
    for (std::int64_t l = 0; l < kW; ++l) {
      acc0[l] += ap[l] * bp[l];
      acc1[l] += ap[kW + l] * bp[kW + l];
      acc2[l] += ap[2 * kW + l] * bp[2 * kW + l];
      acc3[l] += ap[3 * kW + l] * bp[3 * kW + l];
    }
  }
  float sum = 0.0f;
  for (; p < k; ++p) sum += ai[p] * bj[p];
  for (std::int64_t l = 0; l < kW; ++l) sum += acc0[l];
  for (std::int64_t l = 0; l < kW; ++l) sum += acc1[l];
  for (std::int64_t l = 0; l < kW; ++l) sum += acc2[l];
  for (std::int64_t l = 0; l < kW; ++l) sum += acc3[l];
  return alpha * sum;
}

/// Packs B^T (B is n x k, row-major) into ceil(n / kW) strips of k x kW
/// floats: out[s * k * kW + p * kW + j] = b[(s * kW + j) * k + p], zero past
/// row n.
void pack_bt(const float* __restrict b, std::int64_t k, std::int64_t n,
             float* __restrict out) {
  for (std::int64_t j0 = 0; j0 < n; j0 += kW) {
    const std::int64_t nr = std::min(kW, n - j0);
    for (std::int64_t p = 0; p < k; ++p) {
      float* dst = out + p * kW;
      for (std::int64_t j = 0; j < nr; ++j) dst[j] = b[(j0 + j) * k + p];
      for (std::int64_t j = nr; j < kW; ++j) dst[j] = 0.0f;
    }
    out += k * kW;
  }
}

/// kW short dot products of A row `ai` against one packed B^T strip,
/// vectorized across the strip's columns. Each output keeps the per-element
/// operation order of a kW-wide strip-mined dot: kW stride-kW partial sums
/// over the whole kW blocks, then the k % kW tail summed in order from 0,
/// then the partial sums added in order. out[j] = alpha * (a . b_j).
inline void dot8_short(const float* __restrict ai, const float* __restrict bs,
                       std::int64_t k, float alpha, float (&out)[kW]) {
  // One named array per partial sum (see micro_full): each is one vector
  // register across the k loop.
  float acc0[kW] = {}, acc1[kW] = {}, acc2[kW] = {}, acc3[kW] = {};
  float acc4[kW] = {}, acc5[kW] = {}, acc6[kW] = {}, acc7[kW] = {};
  static_assert(kW == 8, "dot8_short hand-unrolls the kW partial sums");
  std::int64_t p = 0;
  for (; p + kW <= k; p += kW) {
    const float a0 = ai[p], a1 = ai[p + 1], a2 = ai[p + 2], a3 = ai[p + 3];
    const float a4 = ai[p + 4], a5 = ai[p + 5], a6 = ai[p + 6], a7 = ai[p + 7];
    const float* bp = bs + p * kW;
    for (std::int64_t j = 0; j < kW; ++j) {
      acc0[j] += a0 * bp[j];
      acc1[j] += a1 * bp[kW + j];
      acc2[j] += a2 * bp[2 * kW + j];
      acc3[j] += a3 * bp[3 * kW + j];
      acc4[j] += a4 * bp[4 * kW + j];
      acc5[j] += a5 * bp[5 * kW + j];
      acc6[j] += a6 * bp[6 * kW + j];
      acc7[j] += a7 * bp[7 * kW + j];
    }
  }
  float sum[kW] = {};
  // The tail has fewer than kW steps; saying so (the early-exit form) keeps
  // the vectorizer from transposing it into a p-vectorized shuffle loop.
  for (std::int64_t t = 0; t < kW - 1 && p < k; ++t, ++p) {
    const float av = ai[p];
    const float* bp = bs + p * kW;
    for (std::int64_t j = 0; j < kW; ++j) sum[j] += av * bp[j];
  }
  for (std::int64_t j = 0; j < kW; ++j) {
    sum[j] += acc0[j];
    sum[j] += acc1[j];
    sum[j] += acc2[j];
    sum[j] += acc3[j];
    sum[j] += acc4[j];
    sum[j] += acc5[j];
    sum[j] += acc6[j];
    sum[j] += acc7[j];
  }
  for (std::int64_t j = 0; j < kW; ++j) out[j] = alpha * sum[j];
}

/// Writes one A * B^T output from its dot product `dot` (alpha applied).
/// Unmasked: C = dot + beta * C. Masked: C = C > 0 ? dot : 0, the ReLU mask
/// read from the activation in C.
template <bool kReluMask>
inline void store_dot(float* cj, float dot, float beta) {
  if constexpr (kReluMask) {
    *cj = *cj > 0.0f ? dot : 0.0f;
  } else {
    *cj = dot + (beta == 0.0f ? 0.0f : beta * *cj);
  }
}

/// A * B^T for k >= 4 * kPr: one dot1 per output over kIb x kJb blocks.
/// This and a_bt_short stay out of line: inlined side by side into one
/// entry point, GCC spills the dot-product accumulators.
template <bool kReluMask>
[[gnu::noinline]] void a_bt_long(ConstMatrixView a, ConstMatrixView b,
                                 MatrixView c, float alpha, float beta) {
  const std::int64_t m = a.rows, k = a.cols, n = b.rows;
  for (std::int64_t i0 = 0; i0 < m; i0 += kIb) {
    const std::int64_t i_end = std::min(i0 + kIb, m);
    for (std::int64_t j0 = 0; j0 < n; j0 += kJb) {
      const std::int64_t j_end = std::min(j0 + kJb, n);
      for (std::int64_t i = i0; i < i_end; ++i) {
        const float* ai = a.row(i);
        float* ci = c.row(i);
        std::int64_t j = j0;
        if constexpr (!kReluMask) {
          // kJr independent dots per step, written out: their ordered
          // scalar epilogues overlap instead of running back to back.
          static_assert(kJr == 4, "a_bt_long hand-unrolls kJr dots");
          for (; j + kJr <= j_end; j += kJr) {
            const float d0 = dot1(ai, b.row(j), k, alpha);
            const float d1 = dot1(ai, b.row(j + 1), k, alpha);
            const float d2 = dot1(ai, b.row(j + 2), k, alpha);
            const float d3 = dot1(ai, b.row(j + 3), k, alpha);
            store_dot<kReluMask>(ci + j, d0, beta);
            store_dot<kReluMask>(ci + j + 1, d1, beta);
            store_dot<kReluMask>(ci + j + 2, d2, beta);
            store_dot<kReluMask>(ci + j + 3, d3, beta);
          }
        }
        for (; j < j_end; ++j) {
          // The masked kernel skips per element: at ReLU sparsity p that
          // drops a fraction p of the dot products outright.
          if (kReluMask && !(ci[j] > 0.0f)) {
            ci[j] = 0.0f;
          } else {
            store_dot<kReluMask>(ci + j, dot1(ai, b.row(j), k, alpha), beta);
          }
        }
      }
    }
  }
}

/// A * B^T for k < 4 * kPr: B^T packed into kW-column strips, kIb A rows
/// swept against one strip at a time.
template <bool kReluMask>
[[gnu::noinline]] void a_bt_short(ConstMatrixView a, ConstMatrixView b,
                                  MatrixView c, float alpha, float beta) {
  const std::int64_t m = a.rows, k = a.cols, n = b.rows;
  const std::int64_t strips = (n + kW - 1) / kW;
  float* packed = pack_scratch(strips * kW * k);
  pack_bt(b.data, k, n, packed);
  for (std::int64_t i0 = 0; i0 < m; i0 += kIb) {
    const std::int64_t i_end = std::min(i0 + kIb, m);
    for (std::int64_t s = 0; s < strips; ++s) {
      const std::int64_t j0 = s * kW;
      const std::int64_t nr = std::min(kW, n - j0);
      const float* bs = packed + s * k * kW;
      for (std::int64_t i = i0; i < i_end; ++i) {
        float* ci = c.row(i) + j0;
        if (kReluMask &&
            std::none_of(ci, ci + nr, [](float v) { return v > 0.0f; })) {
          std::fill(ci, ci + nr, 0.0f);
          continue;
        }
        float dots[kW];
        dot8_short(a.row(i), bs, k, alpha, dots);
        if (nr == kW) {
          for (std::int64_t j = 0; j < kW; ++j) {
            store_dot<kReluMask>(ci + j, dots[j], beta);
          }
        } else {
          for (std::int64_t j = 0; j < nr; ++j) {
            store_dot<kReluMask>(ci + j, dots[j], beta);
          }
        }
      }
    }
  }
}

/// The one A * B^T routine. Unmasked: C = alpha * A B^T + beta * C. With
/// kReluMask: C[i,j] = C[i,j] > 0 ? alpha * (A B^T)[i,j] : 0, the mask read
/// from the activation in C (beta unused).
template <bool kReluMask>
void a_bt(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
          float beta) {
  check_gemm_shapes(a.rows, a.cols, b.cols, b.rows, c.rows, c.cols);
  if (a.cols >= 4 * kPr) {
    a_bt_long<kReluMask>(a, b, c, alpha, beta);
  } else {
    a_bt_short<kReluMask>(a, b, c, alpha, beta);
  }
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
  a_bt</*kReluMask=*/false>(a, b, c, alpha, beta);
}

void gemm_a_bt_relu_masked(ConstMatrixView a, ConstMatrixView b,
                           MatrixView c) {
  a_bt</*kReluMask=*/true>(a, b, c, 1.0f, 0.0f);
}

}  // namespace mggcn::dense::tiled
