#include "core/layer_ops.hpp"

#include <initializer_list>
#include <utility>

#include "dense/kernels.hpp"
#include "sparse/spmm.hpp"
#include "util/error.hpp"

namespace mggcn::core {

namespace {

/// The operand's matrix, after checking that its buffer holds it.
dense::MatrixView view(const Operand& op) {
  MGGCN_CHECK_MSG(op.rows >= 0 && op.cols >= 0 &&
                      op.rows * op.cols <=
                          static_cast<std::int64_t>(op.buffer->size()),
                  "layer operand does not fit its buffer");
  return {op.buffer->data(), op.rows, op.cols};
}

bool same_shape(const Operand& x, const Operand& y) {
  return x.rows == y.rows && x.cols == y.cols;
}

/// A task charged `cost` with its launches scaled, reading and writing the
/// buffers of the given operands; the caller adds the body.
sim::TaskDesc task(std::string label, sim::TaskKind kind,
                   sim::KernelCost cost, double launch_multiplier,
                   std::initializer_list<Operand> reads,
                   std::initializer_list<Operand> writes) {
  sim::TaskDesc desc;
  desc.label = std::move(label);
  desc.kind = kind;
  desc.cost = sim::scale_launches(cost, launch_multiplier);
  for (const Operand& op : reads) desc.reads.push_back(op.buffer->access());
  for (const Operand& op : writes) desc.writes.push_back(op.buffer->access());
  return desc;
}

}  // namespace

sim::TaskDesc gemm_task(std::string label, Operand a, Operand b, Operand c,
                        double launch_multiplier) {
  MGGCN_CHECK_MSG(a.cols == b.rows && c.rows == a.rows && c.cols == b.cols,
                  "A * B: shapes do not agree");
  sim::TaskDesc desc = task(std::move(label), sim::TaskKind::kGeMM,
                            dense::gemm_cost(a.rows, b.cols, a.cols),
                            launch_multiplier, {a, b}, {c});
  desc.body = [a = view(a), b = view(b), c = view(c)] { dense::gemm(a, b, c); };
  return desc;
}

sim::TaskDesc gemm_at_b_task(std::string label, Operand a, Operand b,
                             Operand c, double launch_multiplier) {
  MGGCN_CHECK_MSG(a.rows == b.rows && c.rows == a.cols && c.cols == b.cols,
                  "A^T * B: shapes do not agree");
  sim::TaskDesc desc = task(std::move(label), sim::TaskKind::kGeMM,
                            dense::gemm_cost(a.cols, b.cols, a.rows),
                            launch_multiplier, {a, b}, {c});
  desc.body = [a = view(a), b = view(b), c = view(c)] {
    dense::gemm_at_b(a, b, c);
  };
  return desc;
}

sim::TaskDesc gemm_a_bt_task(std::string label, Operand a, Operand b,
                             Operand c, double launch_multiplier) {
  MGGCN_CHECK_MSG(a.cols == b.cols && c.rows == a.rows && c.cols == b.rows,
                  "A * B^T: shapes do not agree");
  sim::TaskDesc desc = task(std::move(label), sim::TaskKind::kGeMM,
                            dense::gemm_cost(a.rows, b.rows, a.cols),
                            launch_multiplier, {a, b}, {c});
  desc.body = [a = view(a), b = view(b), c = view(c)] {
    dense::gemm_a_bt(a, b, c);
  };
  return desc;
}

sim::TaskDesc gemm_a_bt_masked_task(std::string label, Operand a, Operand b,
                                    Operand c, double launch_multiplier) {
  sim::TaskDesc desc =
      gemm_a_bt_task(std::move(label), a, b, c, launch_multiplier);
  desc.cost += dense::elementwise_cost(c.rows * c.cols, 1, 0);
  desc.reads.push_back(c.buffer->access());
  desc.body = [a = view(a), b = view(b), c = view(c)] {
    dense::gemm_a_bt_relu_masked(a, b, c);
  };
  return desc;
}

sim::TaskDesc relu_task(std::string label, Operand x,
                        double launch_multiplier) {
  const std::int64_t n = x.rows * x.cols;
  sim::TaskDesc desc =
      task(std::move(label), sim::TaskKind::kActivation,
           dense::elementwise_cost(n, 1, 1), launch_multiplier, {x}, {x});
  desc.body = [x = view(x).data, n] { dense::relu_forward(x, x, n); };
  return desc;
}

sim::TaskDesc relu_mask_task(std::string label, Operand grad, Operand act,
                             double launch_multiplier) {
  MGGCN_CHECK_MSG(same_shape(grad, act), "ReLU mask: shapes differ");
  const std::int64_t n = grad.rows * grad.cols;
  sim::TaskDesc desc = task(std::move(label), sim::TaskKind::kActivation,
                            dense::elementwise_cost(n, 2, 1),
                            launch_multiplier, {grad, act}, {grad});
  desc.body = [g = view(grad).data, act = view(act).data, n] {
    dense::relu_backward(g, act, g, n);
  };
  return desc;
}

sim::TaskDesc loss_task(std::string label, Operand logits,
                        const std::int32_t* labels, const std::uint8_t* mask,
                        std::int64_t total, LossResult* result,
                        double launch_multiplier) {
  sim::TaskDesc desc = task(std::move(label), sim::TaskKind::kLoss,
                            loss_cost(logits.rows, logits.cols),
                            launch_multiplier, {logits}, {logits});
  desc.body = [logits = view(logits), labels, mask, total, result] {
    *result = softmax_cross_entropy_inplace(logits, labels, mask, total);
  };
  return desc;
}

sim::TaskDesc adam_task(std::string label, Operand w, Operand grad,
                        Operand m, Operand v, int step, double learning_rate,
                        double beta1, double beta2, double epsilon,
                        double launch_multiplier) {
  MGGCN_CHECK_MSG(same_shape(w, grad) && same_shape(w, m) && same_shape(w, v),
                  "Adam: shapes differ");
  const std::int64_t n = w.rows * w.cols;
  sim::TaskDesc desc =
      task(std::move(label), sim::TaskKind::kOptimizer, adam_cost(n),
           launch_multiplier, {grad, w, m, v}, {w, m, v});
  desc.body = [w = view(w).data, g = view(grad).data, m = view(m).data,
               v = view(v).data, n, step, learning_rate, beta1, beta2,
               epsilon] {
    adam_update(w, g, m, v, n, step, learning_rate, beta1, beta2, epsilon);
  };
  return desc;
}

sim::TaskDesc spmm_task(std::string label, const sparse::Csr& a, Operand b,
                        Operand c, double launch_multiplier) {
  MGGCN_CHECK_MSG(a.cols() == b.rows && c.rows == a.rows() && c.cols == b.cols,
                  "local SpMM: shapes do not agree");
  sim::TaskDesc desc = task(std::move(label), sim::TaskKind::kSpMM,
                            sparse::spmm_cost(a, b.cols), launch_multiplier,
                            {b}, {c});
  desc.body = [a = &a, b = view(b), c = view(c)] { sparse::spmm(*a, b, c); };
  return desc;
}

}  // namespace mggcn::core
