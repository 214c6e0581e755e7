// Dense kernels (host implementations of what cuBLAS + fused elementwise
// kernels do in the paper's system) and their cost descriptors.
//
// The GeMM entry points below dispatch through the kernel-policy registry
// (kernel_policy.hpp): `naive::` holds the original reference loops and
// `tiled::` the register-tiled, cache-blocked implementations; the
// unqualified functions route to whichever policy is active. Call the
// namespaced variants directly only to diff the two paths.
//
// The cost functions return KernelCost records for the simulated timeline;
// they are pure functions of the shapes so phantom-mode runs produce the
// same schedule as real runs — the kernel policy changes wall-clock time
// only, never the simulated timeline.
#pragma once

#include <cstdint>

#include "dense/kernel_policy.hpp"
#include "dense/matrix.hpp"
#include "sim/cost_model.hpp"

namespace mggcn::dense {

/// Reference implementations (the correctness oracle for the tiled path).
namespace naive {
void gemm(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
          float beta);
void gemm_at_b(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
               float beta);
void gemm_a_bt(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
               float beta);
void gemm_a_bt_relu_masked(ConstMatrixView a, ConstMatrixView b, MatrixView c);
}  // namespace naive

/// Register-tiled, k-panel cache-blocked, packed implementations.
namespace tiled {
void gemm(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
          float beta);
void gemm_at_b(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
               float beta);
void gemm_a_bt(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
               float beta);
void gemm_a_bt_relu_masked(ConstMatrixView a, ConstMatrixView b, MatrixView c);
}  // namespace tiled

/// C = alpha * A(m x k) * B(k x n) + beta * C.
void gemm(ConstMatrixView a, ConstMatrixView b, MatrixView c,
          float alpha = 1.0f, float beta = 0.0f);

/// C = alpha * A^T * B + beta * C, with A (k x m), B (k x n), C (m x n).
/// (The weight-gradient GeMM HW_G^T * H of eq. (10).)
void gemm_at_b(ConstMatrixView a, ConstMatrixView b, MatrixView c,
               float alpha = 1.0f, float beta = 0.0f);

/// C = alpha * A * B^T + beta * C, with A (m x k), B (n x k), C (m x n).
/// (The input-gradient GeMM HW_G * W^T of eq. (11).)
void gemm_a_bt(ConstMatrixView a, ConstMatrixView b, MatrixView c,
               float alpha = 1.0f, float beta = 0.0f);

/// Fused eq. (11) + eq. (8): C[i,j] = C[i,j] > 0 ? (A * B^T)[i,j] : 0.
/// On entry C holds the *activation* of the downstream layer; it is
/// consumed for the ReLU mask and overwritten with the masked input
/// gradient in place — this is what lets MG-GCN's backward pass hand the
/// gradient to the next layer inside that layer's own output buffer
/// without any extra allocation (§4.2, eq. (21)).
void gemm_a_bt_relu_masked(ConstMatrixView a, ConstMatrixView b,
                           MatrixView c);

/// out[i] = in[i] > 0 ? in[i] : +0.0, elementwise over n values (eq. (7)):
/// max(in, 0), except that NaN (of either sign, any payload) and -0.0 both
/// map to +0.0, and a positive input passes through with its exact bits.
/// `out` may equal `in`.
void relu_forward(const float* in, float* out, std::int64_t n);

/// grad_in[i] = pre_activation[i] > 0 ? grad_out[i] : +0.0 (eq. (8)): the
/// gradient's exact bits (NaN payloads included) where the pre-activation
/// is positive, +0.0 where it is not (NaN, +-0.0 and negatives).
/// `grad_in` may equal `grad_out`.
void relu_backward(const float* grad_out, const float* pre_activation,
                   float* grad_in, std::int64_t n);

void fill(float* dst, std::int64_t n, float value);
void copy(const float* src, float* dst, std::int64_t n);
/// y += alpha * x.
void axpy(const float* x, float* y, std::int64_t n, float alpha);

/// out.row(i) = src.row(idx[i]) for i in [0, out.rows): the batched feature
/// gather that assembles a sampled frontier's input block (one memcpy per
/// row beats per-row copy() calls in the minibatch baselines).
void gather_rows(ConstMatrixView src, const std::uint32_t* idx,
                 MatrixView out);

/// Cost of a GeMM of the given shape (counts one kernel launch).
[[nodiscard]] sim::KernelCost gemm_cost(std::int64_t m, std::int64_t n,
                                        std::int64_t k);

/// Cost of an elementwise pass reading `reads` and writing `writes` arrays
/// of n floats.
[[nodiscard]] sim::KernelCost elementwise_cost(std::int64_t n, int reads,
                                               int writes);

}  // namespace mggcn::dense
