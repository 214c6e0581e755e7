// Property tests for the kernel-policy registry: the tiled kernels against
// the naive reference across alpha/beta combinations, ragged shapes (rows,
// columns, and inner dimensions that are not multiples of the register
// tile), and CSR inputs with empty and high-degree rows; plus the
// bit-for-bit beta == 0 SpMM agreement all three policies promise, and the
// planned policy's one-time inspector accounting in the distributed
// trainer's trace. The knob itself is covered by tests/test_util.cpp.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "core/reference.hpp"
#include "core/trainer.hpp"
#include "dense/kernel_policy.hpp"
#include "dense/kernels.hpp"
#include "graph/datasets.hpp"
#include "sim/machine.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmm_plan.hpp"
#include "util/rng.hpp"

namespace mggcn {
namespace {

constexpr float kAlphas[] = {0.0f, 1.0f, 0.5f};
constexpr float kBetas[] = {0.0f, 1.0f, 0.5f};

dense::HostMatrix random_matrix(std::int64_t rows, std::int64_t cols,
                                std::uint64_t seed) {
  util::Rng rng(seed);
  dense::HostMatrix m(rows, cols);
  m.init_gaussian(rng);
  return m;
}

/// max|a - b| <= tol * max(1, max|a|): a relative tolerance on the scale of
/// the result, robust to near-zero entries.
void expect_close(dense::ConstMatrixView a, dense::ConstMatrixView b,
                  double tol, const std::string& what) {
  double scale = 1.0;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    scale = std::max(scale, static_cast<double>(std::fabs(a.data[i])));
  }
  EXPECT_LE(dense::max_abs_diff(a, b), tol * scale) << what;
}

std::string case_name(const char* kernel, std::int64_t m, std::int64_t k,
                      std::int64_t n, float alpha, float beta) {
  std::ostringstream os;
  os << kernel << " m=" << m << " k=" << k << " n=" << n << " alpha=" << alpha
     << " beta=" << beta;
  return os.str();
}

/// Shapes chosen to exercise every tail path of the tiled kernels: single
/// elements, tiles narrower than kNr, dimensions straddling the register
/// tile (4 x 16) and the k panel (256).
const std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>>
    kRaggedShapes = {
        {1, 1, 1},    {3, 5, 7},     {4, 16, 16},   {7, 300, 19},
        {17, 33, 9},  {33, 17, 65},  {64, 64, 64},  {130, 70, 40},
        {5, 513, 33}, {61, 127, 129}};

TEST(KernelPolicyProperty, TiledGemmMatchesNaive) {
  for (const auto& [m, k, n] : kRaggedShapes) {
    const dense::HostMatrix a = random_matrix(m, k, 1);
    const dense::HostMatrix b = random_matrix(k, n, 2);
    const dense::HostMatrix c0 = random_matrix(m, n, 3);
    for (float alpha : kAlphas) {
      for (float beta : kBetas) {
        dense::HostMatrix c_naive = c0;
        dense::HostMatrix c_tiled = c0;
        dense::naive::gemm(a.view(), b.view(), c_naive.view(), alpha, beta);
        dense::tiled::gemm(a.view(), b.view(), c_tiled.view(), alpha, beta);
        expect_close(c_naive.view(), c_tiled.view(), 1e-5,
                     case_name("gemm", m, k, n, alpha, beta));
      }
    }
  }
}

TEST(KernelPolicyProperty, TiledGemmAtBMatchesNaive) {
  for (const auto& [m, k, n] : kRaggedShapes) {
    const dense::HostMatrix a = random_matrix(k, m, 4);  // participates as A^T
    const dense::HostMatrix b = random_matrix(k, n, 5);
    const dense::HostMatrix c0 = random_matrix(m, n, 6);
    for (float alpha : kAlphas) {
      for (float beta : kBetas) {
        dense::HostMatrix c_naive = c0;
        dense::HostMatrix c_tiled = c0;
        dense::naive::gemm_at_b(a.view(), b.view(), c_naive.view(), alpha,
                                beta);
        dense::tiled::gemm_at_b(a.view(), b.view(), c_tiled.view(), alpha,
                                beta);
        expect_close(c_naive.view(), c_tiled.view(), 1e-5,
                     case_name("gemm_at_b", m, k, n, alpha, beta));
      }
    }
  }
}

TEST(KernelPolicyProperty, TiledGemmABtMatchesNaive) {
  for (const auto& [m, k, n] : kRaggedShapes) {
    const dense::HostMatrix a = random_matrix(m, k, 7);
    const dense::HostMatrix b = random_matrix(n, k, 8);  // participates as B^T
    const dense::HostMatrix c0 = random_matrix(m, n, 9);
    for (float alpha : kAlphas) {
      for (float beta : kBetas) {
        dense::HostMatrix c_naive = c0;
        dense::HostMatrix c_tiled = c0;
        dense::naive::gemm_a_bt(a.view(), b.view(), c_naive.view(), alpha,
                                beta);
        dense::tiled::gemm_a_bt(a.view(), b.view(), c_tiled.view(), alpha,
                                beta);
        expect_close(c_naive.view(), c_tiled.view(), 1e-5,
                     case_name("gemm_a_bt", m, k, n, alpha, beta));
      }
    }
  }
}

TEST(KernelPolicyProperty, TiledMaskedGemmMatchesNaive) {
  for (const auto& [m, k, n] : kRaggedShapes) {
    const dense::HostMatrix a = random_matrix(m, k, 10);
    const dense::HostMatrix b = random_matrix(n, k, 11);
    // The activation consumed for the ReLU mask: roughly half the entries
    // are positive, so both the masked and active tile paths run.
    const dense::HostMatrix c0 = random_matrix(m, n, 12);
    dense::HostMatrix c_naive = c0;
    dense::HostMatrix c_tiled = c0;
    dense::naive::gemm_a_bt_relu_masked(a.view(), b.view(), c_naive.view());
    dense::tiled::gemm_a_bt_relu_masked(a.view(), b.view(), c_tiled.view());
    expect_close(c_naive.view(), c_tiled.view(), 1e-5,
                 case_name("masked", m, k, n, 1.0f, 0.0f));
  }
}

/// CSR with forced empty rows, one dense (high-degree) row to exercise the
/// edge-batched path, and otherwise random structure.
sparse::Csr ragged_csr(std::int64_t rows, std::int64_t cols, double density,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::int64_t> row_ptr{0};
  std::vector<std::uint32_t> col_idx;
  std::vector<float> values;
  for (std::int64_t r = 0; r < rows; ++r) {
    const bool force_empty = r % 5 == 2 || r == rows - 1;
    const bool force_dense = r == rows / 2;
    if (!force_empty) {
      for (std::int64_t c = 0; c < cols; ++c) {
        if (force_dense || rng.bernoulli(density)) {
          col_idx.push_back(static_cast<std::uint32_t>(c));
          values.push_back(static_cast<float>(rng.gaussian()));
        }
      }
    }
    row_ptr.push_back(static_cast<std::int64_t>(col_idx.size()));
  }
  return {rows, cols, std::move(row_ptr), std::move(col_idx),
          std::move(values)};
}

TEST(KernelPolicyProperty, TiledSpmmMatchesNaive) {
  for (const auto& [rows, cols, d] :
       std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>>{
           {1, 1, 1}, {9, 7, 5}, {40, 31, 33}, {64, 64, 130}, {33, 50, 257}}) {
    const sparse::Csr a = ragged_csr(rows, cols, 0.2, 13);
    const dense::HostMatrix b = random_matrix(cols, d, 14);
    const dense::HostMatrix c0 = random_matrix(rows, d, 15);
    for (float alpha : kAlphas) {
      for (float beta : kBetas) {
        dense::HostMatrix c_naive = c0;
        dense::HostMatrix c_tiled = c0;
        sparse::naive::spmm(a, b.view(), c_naive.view(), alpha, beta);
        sparse::tiled::spmm(a, b.view(), c_tiled.view(), alpha, beta);
        expect_close(c_naive.view(), c_tiled.view(), 1e-5,
                     case_name("spmm", rows, cols, d, alpha, beta));
      }
    }
  }
}

TEST(KernelPolicyProperty, SpmmPoliciesBitIdenticalAtBetaZero) {
  // All three policies initialize the output row from the first nonzero and
  // accumulate edges in CSR order per element, so at beta == 0 they must
  // agree bit-for-bit — not just within tolerance.
  for (std::int64_t d : {1, 33, 64, 130, 257}) {
    const sparse::Csr a = ragged_csr(50, 41, 0.3, 16);
    const dense::HostMatrix b = random_matrix(41, d, 17);
    for (float alpha : {1.0f, 0.5f}) {
      dense::HostMatrix c_naive(50, d);
      dense::HostMatrix c_tiled(50, d);
      dense::HostMatrix c_planned(50, d);
      c_naive.fill(7.0f);  // stale contents that beta == 0 must ignore
      c_tiled.fill(-3.0f);
      c_planned.fill(11.0f);
      sparse::naive::spmm(a, b.view(), c_naive.view(), alpha, 0.0f);
      sparse::tiled::spmm(a, b.view(), c_tiled.view(), alpha, 0.0f);
      sparse::planned::spmm(a, b.view(), c_planned.view(), alpha, 0.0f);
      const auto bytes =
          static_cast<std::size_t>(c_naive.size()) * sizeof(float);
      EXPECT_EQ(std::memcmp(c_naive.data(), c_tiled.data(), bytes), 0)
          << "tiled d=" << d << " alpha=" << alpha;
      EXPECT_EQ(std::memcmp(c_naive.data(), c_planned.data(), bytes), 0)
          << "planned d=" << d << " alpha=" << alpha;
    }
  }
}

TEST(KernelPolicy, TrainerNumericsMatchAcrossPolicies) {
  // End-to-end guard for the acceptance bar: the serial reference trainer's
  // logits under the tiled and planned policies match the naive policy
  // within 1e-4.
  graph::DatasetSpec spec = graph::cora();
  spec.n = 200;
  spec.feature_dim = 24;
  spec.num_classes = 5;
  spec.avg_degree = 8.0;
  graph::DatasetOptions options;
  options.seed = 11;
  const graph::Dataset ds = graph::make_dataset(spec, options);

  core::TrainConfig config;
  config.hidden_dims = {16};
  config.seed = 3;

  auto run = [&](dense::KernelPolicy policy) {
    util::Knob<dense::KernelPolicy>::Scoped scope(dense::kernel_policy_knob,
                                                  policy);
    core::ReferenceTrainer trainer(ds, config);
    for (int epoch = 0; epoch < 3; ++epoch) trainer.train_epoch();
    return trainer.forward();
  };
  const dense::HostMatrix logits_naive = run(dense::KernelPolicy::kNaive);
  const dense::HostMatrix logits_tiled = run(dense::KernelPolicy::kTiled);
  const dense::HostMatrix logits_planned = run(dense::KernelPolicy::kPlanned);
  EXPECT_LT(dense::max_abs_diff(logits_naive.view(), logits_tiled.view()),
            1e-4);
  EXPECT_LT(dense::max_abs_diff(logits_naive.view(), logits_planned.view()),
            1e-4);
}

TEST(KernelPolicy, DistributedTrainerChargesInspectOncePerTile) {
  // Under the planned policy the distributed trainer must trace exactly one
  // kInspect task per distinct adjacency tile — 2 * P^2 across the forward
  // (A_hat^T) and backward (A_hat) grids — on the first epoch, and none
  // afterwards: the whole point of the plan is amortization.
  graph::DatasetSpec spec = graph::cora();
  spec.n = 300;
  spec.feature_dim = 24;
  spec.num_classes = 5;
  spec.avg_degree = 8.0;
  graph::DatasetOptions options;
  options.seed = 13;
  const graph::Dataset ds = graph::make_dataset(spec, options);

  for (const int gpus : {1, 2, 4}) {
    util::Knob<dense::KernelPolicy>::Scoped scope(dense::kernel_policy_knob,
                                                  dense::KernelPolicy::kPlanned);
    core::TrainConfig config;
    config.hidden_dims = {16};
    config.seed = 3;
    // The inspect-count contract below is specific to the 1D staged
    // executor; pin the strategy so auto cannot reroute these products.
    config.plan_mode = core::PlanMode::k1D;

    sim::Machine machine(sim::dgx_v100(), gpus, sim::ExecutionMode::kReal);
    core::MgGcnTrainer trainer(machine, ds, config);

    auto inspect_count = [&] {
      std::size_t count = 0;
      for (const auto& rec : machine.trace().records()) {
        if (rec.kind == sim::TaskKind::kInspect) ++count;
      }
      return count;
    };

    trainer.train_epoch();
    const std::size_t expected =
        2 * static_cast<std::size_t>(gpus) * static_cast<std::size_t>(gpus);
    EXPECT_EQ(inspect_count(), expected) << gpus << " gpus, epoch 0";
    trainer.train_epoch();
    trainer.train_epoch();
    EXPECT_EQ(inspect_count(), expected)
        << gpus << " gpus: plans must be reused, not rebuilt";
  }
}

TEST(KernelPolicy, MultiDeviceTrainerMatchesReferenceUnderAllPolicies) {
  // The acceptance bar: the multi-device trainer equals the serial
  // reference under every registered kernel policy.
  graph::DatasetSpec spec = graph::cora();
  spec.n = 300;
  spec.feature_dim = 24;
  spec.num_classes = 5;
  spec.avg_degree = 8.0;
  graph::DatasetOptions options;
  options.seed = 17;
  const graph::Dataset ds = graph::make_dataset(spec, options);

  for (const dense::KernelPolicy policy :
       {dense::KernelPolicy::kNaive, dense::KernelPolicy::kTiled,
        dense::KernelPolicy::kPlanned}) {
    util::Knob<dense::KernelPolicy>::Scoped scope(dense::kernel_policy_knob,
                                                  policy);
    core::TrainConfig config;
    config.hidden_dims = {16};
    config.seed = 3;
    config.permute = false;

    sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
    core::MgGcnTrainer trainer(machine, ds, config);
    core::ReferenceTrainer reference(ds, config);
    for (int epoch = 0; epoch < 3; ++epoch) {
      const auto dist = trainer.train_epoch();
      const auto ref = reference.train_epoch();
      EXPECT_NEAR(dist.loss, ref.loss, 1e-3 * std::max(1.0, ref.loss))
          << dense::kernel_policy_name(policy) << ", epoch " << epoch;
    }
  }
}

}  // namespace
}  // namespace mggcn
