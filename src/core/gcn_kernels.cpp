#include "core/gcn_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace mggcn::core {

LossResult softmax_cross_entropy_inplace(dense::MatrixView logits,
                                         const std::int32_t* labels,
                                         const std::uint8_t* mask,
                                         std::int64_t total_train) {
  MGGCN_CHECK(total_train > 0);
  LossResult result;
  const std::int64_t n = logits.rows;
  const std::int64_t c = logits.cols;
  const float inv_total = 1.0f / static_cast<float>(total_train);
  // A row's exponentials, computed once for the denominator and reused for
  // the gradient. Per thread: device streams run losses concurrently.
  thread_local std::vector<double> exps;
  exps.resize(static_cast<std::size_t>(c));

  for (std::int64_t r = 0; r < n; ++r) {
    float* row = logits.row(r);
    if (mask != nullptr && mask[r] == 0) {
      std::fill(row, row + c, 0.0f);
      continue;
    }
    const std::int32_t label = labels[r];
    MGGCN_CHECK(label >= 0 && label < c);

    // Numerically stable softmax.
    float max_logit = row[0];
    std::int64_t argmax = 0;
    for (std::int64_t j = 1; j < c; ++j) {
      if (row[j] > max_logit) {
        max_logit = row[j];
        argmax = j;
      }
    }
    double denom = 0.0;
    for (std::int64_t j = 0; j < c; ++j) {
      const double e = std::exp(static_cast<double>(row[j] - max_logit));
      exps[static_cast<std::size_t>(j)] = e;
      denom += e;
    }
    const double log_denom = std::log(denom);
    result.loss_sum +=
        log_denom - static_cast<double>(row[label] - max_logit);
    result.correct += argmax == label ? 1 : 0;
    ++result.counted;

    // Gradient: softmax(row) - onehot(label), scaled.
    for (std::int64_t j = 0; j < c; ++j) {
      const double p = exps[static_cast<std::size_t>(j)] / denom;
      row[j] = static_cast<float>(p) * inv_total;
    }
    row[label] -= inv_total;
  }
  return result;
}

LossResult evaluate_accuracy(dense::ConstMatrixView logits,
                             const std::int32_t* labels,
                             const std::uint8_t* mask) {
  LossResult result;
  for (std::int64_t r = 0; r < logits.rows; ++r) {
    if (mask != nullptr && mask[r] == 0) continue;
    const float* row = logits.row(r);
    std::int64_t argmax = 0;
    for (std::int64_t j = 1; j < logits.cols; ++j) {
      if (row[j] > row[argmax]) argmax = j;
    }
    result.correct += argmax == labels[r] ? 1 : 0;
    ++result.counted;
  }
  return result;
}

void adam_update(float* __restrict weights, const float* __restrict gradient,
                 float* __restrict m, float* __restrict v, std::int64_t n,
                 int step, double learning_rate, double beta1, double beta2,
                 double epsilon) {
  // The __restrict qualifiers are what let the loop below vectorize: the
  // stores to weights/m/v would otherwise force an aliasing check against
  // every load. The arithmetic is unchanged from the reference (double
  // internally, same operation order), so results are bit-identical.
  MGGCN_CHECK(step >= 1);
  const double bias1 = 1.0 - std::pow(beta1, step);
  const double bias2 = 1.0 - std::pow(beta2, step);
  for (std::int64_t i = 0; i < n; ++i) {
    const double g = gradient[i];
    const double mi = beta1 * m[i] + (1.0 - beta1) * g;
    const double vi = beta2 * v[i] + (1.0 - beta2) * g * g;
    m[i] = static_cast<float>(mi);
    v[i] = static_cast<float>(vi);
    const double m_hat = mi / bias1;
    const double v_hat = vi / bias2;
    weights[i] -= static_cast<float>(learning_rate * m_hat /
                                     (std::sqrt(v_hat) + epsilon));
  }
}

sim::KernelCost loss_cost(std::int64_t n, std::int64_t classes) {
  sim::KernelCost cost;
  // Read logits + write gradient, plus exp/log work (~8 flops per element).
  cost.stream_bytes = 8.0 * static_cast<double>(n) * classes;
  cost.flops = 8.0 * static_cast<double>(n) * classes;
  cost.launches = 2;  // loss forward + gradient
  return cost;
}

sim::KernelCost adam_cost(std::int64_t n) {
  sim::KernelCost cost;
  cost.stream_bytes = 4.0 * static_cast<double>(n) * 7.0;  // r: w,g,m,v  w: w,m,v
  cost.flops = 10.0 * static_cast<double>(n);
  cost.launches = 1;
  return cost;
}

}  // namespace mggcn::core
