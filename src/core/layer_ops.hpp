// Task builders for the dense steps of a GCN layer (eqs. (5)–(11)) and the
// local CSR SpMM of the sampled pipeline.
//
// Each builder returns a sim::TaskDesc whose kind, cost, declared
// reads/writes and body all come from the same Operands, so the shape a
// task is charged for is the shape its body runs. Its launch count is
// scaled by `launch_multiplier` (sim::scale_launches: a baseline's per-op
// dispatch overhead; MG-GCN's own engines pass 1). The caller adds the
// stage, waits and lease recycling, and picks the stream.
#pragma once

#include <cstdint>
#include <string>

#include "core/gcn_kernels.hpp"
#include "sim/device.hpp"
#include "sparse/csr.hpp"

namespace mggcn::core {

/// A row-major rows x cols matrix at the front of a device buffer.
struct Operand {
  sim::DeviceBuffer* buffer = nullptr;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
};

/// C = A * B (the forward GeMM, eq. (5)).
[[nodiscard]] sim::TaskDesc gemm_task(std::string label, Operand a, Operand b,
                                      Operand c, double launch_multiplier = 1);
/// C = A^T * B (the weight gradient, eq. (10)).
[[nodiscard]] sim::TaskDesc gemm_at_b_task(std::string label, Operand a,
                                           Operand b, Operand c,
                                           double launch_multiplier = 1);
/// C = A * B^T (the input gradient, eq. (11)).
[[nodiscard]] sim::TaskDesc gemm_a_bt_task(std::string label, Operand a,
                                           Operand b, Operand c,
                                           double launch_multiplier = 1);
/// C = A * B^T where C > 0, else 0, in place (eqs. (11) and (8)): C holds
/// the downstream activation on entry and the masked gradient on exit
/// (§4.2, eq. (21)). Charged as the GeMM plus an unscaled pass over C.
[[nodiscard]] sim::TaskDesc gemm_a_bt_masked_task(
    std::string label, Operand a, Operand b, Operand c,
    double launch_multiplier = 1);

/// x = max(x, 0) in place (eq. (7)).
[[nodiscard]] sim::TaskDesc relu_task(std::string label, Operand x,
                                      double launch_multiplier = 1);
/// grad = grad where act > 0, else 0, in place (eq. (8)).
[[nodiscard]] sim::TaskDesc relu_mask_task(std::string label, Operand grad,
                                           Operand act,
                                           double launch_multiplier = 1);

/// Fused softmax cross-entropy (softmax_cross_entropy_inplace): the logits'
/// gradient in place, the loss sums into *result.
[[nodiscard]] sim::TaskDesc loss_task(std::string label, Operand logits,
                                      const std::int32_t* labels,
                                      const std::uint8_t* mask,
                                      std::int64_t total, LossResult* result,
                                      double launch_multiplier = 1);

/// Adam step number `step` on `w` from `grad`, updating the moments `m`
/// and `v` (all four of one shape).
[[nodiscard]] sim::TaskDesc adam_task(std::string label, Operand w,
                                      Operand grad, Operand m, Operand v,
                                      int step, double learning_rate,
                                      double beta1, double beta2,
                                      double epsilon,
                                      double launch_multiplier = 1);

/// C = A * B for a local CSR A, which must outlive the task.
[[nodiscard]] sim::TaskDesc spmm_task(std::string label, const sparse::Csr& a,
                                      Operand b, Operand c,
                                      double launch_multiplier = 1);

}  // namespace mggcn::core
