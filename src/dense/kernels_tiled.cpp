// Register-tiled, cache-blocked GeMM variants (the `tiled` kernel policy).
//
// Structure (the Goto/BLIS layering cuBLAS also follows, translated to one
// host core):
//   - A * B and A^T * B: the k dimension is blocked into kKc panels. Each B
//     panel is packed into kNr-wide column strips (kc x kNr floats, L1-
//     resident), zero-padded past n. Each kMr-row sliver of the A panel is
//     packed (kc x kMr, zero-padded past m) into a stack buffer by the
//     micro-kernel call of the panel's first strip, which reads A in place
//     and prefetches ahead; the other strips read the sliver. Both layouts
//     of A thus reach the inner loop as one contiguous stream, and A's
//     memory traffic overlaps compute.
//     The micro-kernel keeps its kMr x kNr tile of C in 2 * kMr vector
//     registers across the whole panel: per k step it does two strip loads,
//     kMr broadcasts and 2 * kMr multiplies and adds, and touches no memory
//     for the accumulators. Every sliver and strip, the ragged ones
//     included, runs this one kernel; only the stores skip the padding.
//     Packing also replaces the ldb-strided B walk, whose stride aliases L1
//     sets at power-of-two n;
//   - beta is folded into the first k panel's store (no separate zeroing or
//     scaling pass over C);
//   - A * B^T with short k (k < 4 * kPr): B^T is packed into kW-column
//     strips and kRows A rows at a time run against one strip, vectorized
//     across the strip's kW output columns. The rows are independent, so
//     their ordered tails and partial-sum reductions (serial add chains)
//     overlap. The fused ReLU-masked variant skips a group of rows whose
//     mask entries on the strip are all inactive. Longer k keeps the
//     dot-product form (strip-mined partial sums along k) with A/B row
//     blocks sized for L2.
//
// Every output element sees the same sequence of IEEE operations as the
// unpacked kernels these replaced (same k order, same partial sums, same
// epilogue), so results are bit-identical to them; only the loop order
// across independent elements changed.
//
// The register tiles and the short dot products use GCC/Clang vector-
// extension locals (`vf`, one register of floats): plain element-wise
// arithmetic, not intrinsics, sized to the target ISA (ymm at x86-64-v3,
// xmm on the baseline). The rest is scalar C++ with __restrict and fixed
// trip counts that the auto-vectorizer handles; no alignment assumptions
// anywhere.
#include "dense/kernels.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

namespace mggcn::dense::tiled {

namespace {

/// One vector register of floats: 8 (ymm) when the build targets AVX,
/// else 4 (xmm). A vector type wider than the target's registers would be
/// lowered through memory. Only ever a local: passed by value across a
/// call it would change the psABI.
#if defined(__AVX__)
using vf = float __attribute__((vector_size(32)));
#else
using vf = float __attribute__((vector_size(16)));
#endif
/// Floats per vf.
constexpr std::int64_t kV = sizeof(vf) / sizeof(float);

inline void load(vf& v, const float* p) { std::memcpy(&v, p, sizeof v); }
inline void store(float* p, const vf& v) { std::memcpy(p, &v, sizeof v); }

/// Hints the cache line `ahead` floats past p into cache. The address is
/// formed as an integer: it may lie past the end of the array, and a
/// prefetch never faults.
inline void prefetch(const float* p, std::int64_t ahead) {
  __builtin_prefetch(reinterpret_cast<const void*>(
      reinterpret_cast<std::uintptr_t>(p) +
      static_cast<std::uintptr_t>(ahead) * sizeof(float)));
}

/// Register-tile rows of C: 2 * kMr accumulators + 2 strip vectors + 1
/// broadcast fill the 16 vector registers.
constexpr std::int64_t kMr = 6;
/// Register-tile columns of C (two vectors); the packed B strip width.
constexpr std::int64_t kNr = 2 * kV;
/// k cache panel: a kKc x kNr packed B strip is at most 16 KiB, safely
/// L1-resident.
constexpr std::int64_t kKc = 256;
/// k steps ahead that the packing micro-kernel prefetches A. Its loads
/// would otherwise wait on memory with no other work in flight: at n = 47
/// the whole product streams A (26.7 MB at Products scale) through three
/// strips of compute.
constexpr std::int64_t kPrefetchSteps = 32;
/// The register tile of the unpacked kernels. Their m % kEdgeMr tail rows
/// and n % kEdgeNr tail columns took the edge store (see store_row), so
/// those elements still do. A strip is all edge or all interior.
constexpr std::int64_t kEdgeMr = 4;
constexpr std::int64_t kEdgeNr = 16;
static_assert(kEdgeNr % kNr == 0);

/// p-strip width for the long-k dot-product (A * B^T) kernel: 32 floats =
/// four independent 8-wide accumulator vectors, enough to hide the FP add
/// latency within a single stream. Below k = 4 * kPr the short form runs.
constexpr std::int64_t kPr = 32;
/// Partial sums of the short-k dot product (part of its rounding), and
/// columns per packed B^T strip.
constexpr std::int64_t kW = 8;
static_assert(kW % kV == 0);
/// A rows the short-k A * B^T kernel interleaves against one strip.
constexpr std::int64_t kRows = 4;
/// Row block of A swept against one packed strip (short-k A * B^T), so the
/// strip stays L1-resident across the block. The long-k A * B^T kernel
/// blocks kIb A rows x kJb B rows instead: without it every output row
/// re-streams all of B from L3, while a 64-row B block (<= 128 KiB at
/// k = 512) stays L2-resident across the i sweep.
constexpr std::int64_t kIb = 64;
constexpr std::int64_t kJb = 64;
/// Columns of C per step of the long-k A * B^T kernel.
constexpr std::int64_t kJr = 4;

/// Per-thread packing buffer for B of at least `floats` floats, reused
/// across calls (it only grows). Its contents are scratch: callers pack
/// before they read. A packed A sliver (kKc x kMr floats) lives on the
/// stack.
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
/// b[p * ldb + s * kNr + j], zero past column n. Reads b row by row, so
/// the hardware prefetcher streams it.
void pack_b_panel(const float* __restrict b, std::int64_t ldb,
                  std::int64_t kc, std::int64_t n, float* __restrict out) {
  const std::int64_t n_full = n - n % kNr;
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* src = b + p * ldb;
    float* dst = out + p * kNr;
    for (std::int64_t j0 = 0; j0 < n_full; j0 += kNr) {
      for (std::int64_t j = 0; j < kNr; ++j) dst[j0 * kc + j] = src[j0 + j];
    }
    if (n_full < n) {
      float* tail = dst + n_full * kc;
      for (std::int64_t j = 0; j < n - n_full; ++j) tail[j] = src[n_full + j];
      for (std::int64_t j = n - n_full; j < kNr; ++j) tail[j] = 0.0f;
    }
  }
}

/// Packs mr < kMr rows x kc columns of op(A), element (r, p) at
/// a[r * a_r_stride + p * a_p_stride], into one kc x kMr sliver:
/// out[p * kMr + r], zero past row mr. Full slivers are packed by the
/// micro-kernel itself (kPackA).
void pack_a_tail(const float* __restrict a, std::int64_t a_r_stride,
                 std::int64_t a_p_stride, std::int64_t mr, std::int64_t kc,
                 float* __restrict out) {
  for (std::int64_t p = 0; p < kc; ++p) {
    for (std::int64_t r = 0; r < kMr; ++r) {
      out[p * kMr + r] = r < mr ? a[r * a_r_stride + p * a_p_stride] : 0.0f;
    }
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

/// The kMr x kNr register tile against one packed B strip over a k panel of
/// length kc, written to `tile`. With kPackA the kMr rows of op(A) are read
/// in place, element (r, p) at a[r * a_r_stride + p * a_p_stride], and
/// packed into the sliver `as` (as[p * kMr + r]) on the way: that is the
/// panel's first strip, whose compute hides the loads of A. Later strips
/// read the packed sliver. Kept out of line so the register allocator sees
/// the accumulators alone.
template <bool kPackA>
[[gnu::noinline]] void micro_kernel(const float* __restrict a,
                                    std::int64_t a_r_stride,
                                    std::int64_t a_p_stride,
                                    float* __restrict as,
                                    const float* __restrict bs,
                                    std::int64_t kc,
                                    float (&tile)[kMr][kNr]) {
  static_assert(kNr == 2 * kV, "micro_kernel holds two vectors per row");
  vf acc[kMr][2] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    vf b0, b1;
    load(b0, bs);
    load(b1, bs + kV);
#pragma GCC unroll 16
    for (std::int64_t r = 0; r < kMr; ++r) {
      float av;
      if constexpr (kPackA) {
        const float* ar = a + r * a_r_stride + p * a_p_stride;
        av = *ar;
        as[r] = av;
        prefetch(ar, kPrefetchSteps * a_p_stride);
      } else {
        av = as[r];
      }
      acc[r][0] += av * b0;
      acc[r][1] += av * b1;
    }
    as += kMr;
    bs += kNr;
  }
#pragma GCC unroll 16
  for (std::int64_t r = 0; r < kMr; ++r) {
    store(tile[r], acc[r][0]);
    store(tile[r] + kV, acc[r][1]);
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
  float* packed_b = pack_scratch(std::min(k, kKc) * strips * kNr);
  float sliver[kKc * kMr];
  const std::int64_t edge_rows_from = m - m % kEdgeMr;
  const std::int64_t edge_cols_from = n - n % kEdgeNr;

  for (std::int64_t kk = 0; kk < k; kk += kKc) {
    const std::int64_t kc = std::min(kKc, k - kk);
    const bool first_panel = kk == 0;
    pack_b_panel(b + kk * ldb, ldb, kc, n, packed_b);
    for (std::int64_t i0 = 0; i0 < m; i0 += kMr) {
      const std::int64_t mr = std::min(kMr, m - i0);
      const float* ab = a + i0 * a_r_stride + kk * a_p_stride;
      if (mr < kMr) pack_a_tail(ab, a_r_stride, a_p_stride, mr, kc, sliver);
      for (std::int64_t s = 0; s < strips; ++s) {
        const std::int64_t j0 = s * kNr;
        const std::int64_t nr = std::min(kNr, n - j0);
        const float* bs = packed_b + s * kc * kNr;
        float tile[kMr][kNr];
        if (s == 0 && mr == kMr) {
          micro_kernel<true>(ab, a_r_stride, a_p_stride, sliver, bs, kc,
                             tile);
        } else {
          micro_kernel<false>(nullptr, 0, 0, sliver, bs, kc, tile);
        }
        for (std::int64_t r = 0; r < mr; ++r) {
          store_row(tile[r], c + (i0 + r) * ldc + j0, nr, alpha, beta,
                    first_panel,
                    j0 >= edge_cols_from || i0 + r >= edge_rows_from);
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
/// k >= 4 * kPr; shorter dots run dots_short.
inline float dot1(const float* __restrict ai, const float* __restrict bj,
                  std::int64_t k, float alpha) {
  // acc0..acc3 are the kPr partial sums in order, one named 8-wide array
  // each, so they stay in vector registers.
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

/// kW short dot products for each of kRows A rows against one packed B^T
/// strip, vectorized across the strip's columns: dots[r][j] =
/// alpha * (rows[r] . b_j). Each output keeps the per-element operation
/// order of a kW-wide strip-mined dot: partial sum l accumulates
/// p = l, l + kW, ... over the whole kW blocks from 0.0f; the k % kW tail is
/// summed in order from 0.0f; then partial sums 0..kW-1 are added to it in
/// order. Partial sum l is built just before it is added, so only two
/// vectors per row are live.
[[gnu::noinline]] void dots_short(const float* const (&rows)[kRows],
                                  const float* __restrict bs, std::int64_t k,
                                  float alpha, float (&dots)[kRows][kW]) {
  constexpr std::int64_t kH = kW / kV;  // vectors per row of outputs
  const std::int64_t whole = k - k % kW;
  vf sum[kRows][kH] = {};
  for (std::int64_t p = whole; p < k; ++p) {
#pragma GCC unroll 16
    for (std::int64_t h = 0; h < kH; ++h) {
      vf bp;
      load(bp, bs + p * kW + h * kV);
#pragma GCC unroll 16
      for (std::int64_t r = 0; r < kRows; ++r) sum[r][h] += rows[r][p] * bp;
    }
  }
  for (std::int64_t l = 0; l < kW; ++l) {
    vf part[kRows][kH] = {};
    for (std::int64_t p = l; p < whole; p += kW) {
#pragma GCC unroll 16
      for (std::int64_t h = 0; h < kH; ++h) {
        vf bp;
        load(bp, bs + p * kW + h * kV);
#pragma GCC unroll 16
        for (std::int64_t r = 0; r < kRows; ++r) {
          part[r][h] += rows[r][p] * bp;
        }
      }
    }
#pragma GCC unroll 16
    for (std::int64_t r = 0; r < kRows; ++r) {
#pragma GCC unroll 16
      for (std::int64_t h = 0; h < kH; ++h) sum[r][h] += part[r][h];
    }
  }
#pragma GCC unroll 16
  for (std::int64_t r = 0; r < kRows; ++r) {
#pragma GCC unroll 16
    for (std::int64_t h = 0; h < kH; ++h) {
      store(dots[r] + h * kV, alpha * sum[r][h]);
    }
  }
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

/// Writes one row's kW A * B^T outputs from their dot products (alpha
/// applied) into C row segment `ci` of nr columns, as store_dot does per
/// element; a full segment as one vector.
template <bool kReluMask>
inline void store_dots(float* ci, const float (&dots)[kW], std::int64_t nr,
                       float beta) {
  if (nr < kW) {
    for (std::int64_t j = 0; j < nr; ++j) {
      store_dot<kReluMask>(ci + j, dots[j], beta);
    }
    return;
  }
  for (std::int64_t h = 0; h < kW; h += kV) {
    vf dot, cv{}, out;
    load(dot, dots + h);
    if (kReluMask || beta != 0.0f) load(cv, ci + h);
    if constexpr (kReluMask) {
      out = cv > 0.0f ? dot : vf{};
    } else {
      out = beta == 0.0f ? dot + vf{} : dot + beta * cv;
    }
    store(ci + h, out);
  }
}

/// Whether any of the ReLU mask entries in C rows `ci` (nr columns each)
/// is active (> 0). A full segment is tested without branches: on
/// sign-random activations an early-exit scan mispredicts.
inline bool any_active(float* const (&ci)[kRows], std::int64_t rows,
                       std::int64_t nr) {
  int any = 0;
  if (nr == kW) {
    using vi = std::int32_t __attribute__((vector_size(sizeof(vf))));
    vi active{};
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t h = 0; h < kW; h += kV) {
        vf cv;
        load(cv, ci[r] + h);
        active |= cv > 0.0f;
      }
    }
    for (std::int64_t j = 0; j < kV; ++j) any |= active[j];
  } else {
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t j = 0; j < nr; ++j) any |= ci[r][j] > 0.0f;
    }
  }
  return any != 0;
}

/// A * B^T for k < 4 * kPr: B^T packed into kW-column strips, the kIb A
/// rows of a block swept against one strip at a time, kRows rows per
/// dots_short call. The masked kernel skips a group of rows whose mask
/// entries on the strip are all inactive.
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
      for (std::int64_t g = i0; g < i_end; g += kRows) {
        // A short last group repeats its final row; the repeats are
        // computed and dropped.
        const std::int64_t rows = std::min(kRows, i_end - g);
        const float* a_rows[kRows];
        float* c_rows[kRows];
        for (std::int64_t r = 0; r < kRows; ++r) {
          a_rows[r] = a.row(g + std::min(r, rows - 1));
          c_rows[r] = c.row(g + std::min(r, rows - 1)) + j0;
        }
        if (kReluMask && !any_active(c_rows, rows, nr)) {
          for (std::int64_t r = 0; r < rows; ++r) {
            std::fill(c_rows[r], c_rows[r] + nr, 0.0f);
          }
          continue;
        }
        float dots[kRows][kW];
        dots_short(a_rows, bs, k, alpha, dots);
        for (std::int64_t r = 0; r < rows; ++r) {
          store_dots<kReluMask>(c_rows[r], dots[r], nr, beta);
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
  // A is (k x m) and participates transposed: C(m x n) = A^T B. Packing
  // reads its sliver rows contiguously (a_r_stride = 1).
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
