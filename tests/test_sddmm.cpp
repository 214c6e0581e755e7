// Tests for the SDDMM/edge-softmax kernels and the graph-attention layer
// prototype (the paper's §7 future-work direction).
#include <gtest/gtest.h>

#include <cmath>

#include "core/gat_layer.hpp"
#include "dense/kernels.hpp"
#include "graph/generators.hpp"
#include "sparse/sddmm.hpp"
#include "sparse/spmm.hpp"
#include "util/rng.hpp"

namespace mggcn::sparse {
namespace {

Csr random_pattern(std::int64_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  graph::BterParams params{.n = n, .avg_degree = 8.0, .degree_sigma = 1.0,
                           .clustering = 0.4};
  return Csr::from_coo(graph::bter_like(params, rng).edges);
}

TEST(Sddmm, MatchesDenseOracle) {
  const Csr pattern = random_pattern(60, 1);
  util::Rng rng(2);
  dense::HostMatrix u(60, 7), v(60, 7);
  u.init_gaussian(rng);
  v.init_gaussian(rng);

  const Csr out = sddmm(pattern, u.view(), v.view());
  EXPECT_EQ(out.nnz(), pattern.nnz());

  const auto row_ptr = out.row_ptr();
  const auto col_idx = out.col_idx();
  const auto values = out.values();
  for (std::int64_t r = 0; r < out.rows(); ++r) {
    for (std::int64_t e = row_ptr[static_cast<std::size_t>(r)];
         e < row_ptr[static_cast<std::size_t>(r) + 1]; ++e) {
      const auto c = col_idx[static_cast<std::size_t>(e)];
      double expected = 0.0;
      for (std::int64_t j = 0; j < 7; ++j) {
        expected += static_cast<double>(u.at(r, j)) * v.at(c, j);
      }
      ASSERT_NEAR(values[static_cast<std::size_t>(e)], expected, 1e-4);
    }
  }
}

TEST(Sddmm, RespectsPatternValues) {
  // The pattern's own values scale the sampled dot products.
  Coo coo(2, 2);
  coo.add(0, 1, 3.0f);
  const Csr pattern = Csr::from_coo(coo);
  dense::HostMatrix u(2, 1), v(2, 1);
  u.at(0, 0) = 2.0f;
  v.at(1, 0) = 5.0f;
  const Csr out = sddmm(pattern, u.view(), v.view());
  EXPECT_NEAR(out.values()[0], 3.0f * 2.0f * 5.0f, 1e-6);
}

TEST(EdgeSoftmax, RowsSumToOne) {
  Csr m = random_pattern(80, 3);
  util::Rng rng(4);
  for (auto& v : m.values_mutable()) {
    v = static_cast<float>(rng.gaussian(0.0, 2.0));
  }
  edge_softmax(m);
  const auto row_ptr = m.row_ptr();
  const auto values = m.values();
  for (std::int64_t r = 0; r < m.rows(); ++r) {
    const auto b = row_ptr[static_cast<std::size_t>(r)];
    const auto e = row_ptr[static_cast<std::size_t>(r) + 1];
    if (b == e) continue;
    double sum = 0.0;
    for (auto i = b; i < e; ++i) {
      const float value = values[static_cast<std::size_t>(i)];
      ASSERT_GT(value, 0.0f);
      sum += value;
    }
    ASSERT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(EdgeSoftmax, StableUnderLargeScores) {
  Coo coo(1, 3);
  coo.add(0, 0, 1000.0f);
  coo.add(0, 1, 999.0f);
  coo.add(0, 2, -1000.0f);
  Csr m = Csr::from_coo(coo);
  edge_softmax(m);
  EXPECT_NEAR(m.values()[0] + m.values()[1] + m.values()[2], 1.0f, 1e-6);
  EXPECT_GT(m.values()[0], m.values()[1]);
  EXPECT_NEAR(m.values()[2], 0.0f, 1e-6);
}

TEST(LeakyRelu, ScalesNegativeValues) {
  Coo coo(1, 2);
  coo.add(0, 0, -2.0f);
  coo.add(0, 1, 3.0f);
  Csr m = Csr::from_coo(coo);
  leaky_relu_values(m, 0.1f);
  EXPECT_NEAR(m.values()[0], -0.2f, 1e-6);
  EXPECT_EQ(m.values()[1], 3.0f);
}

TEST(SddmmCost, ScalesWithNnzAndWidth) {
  const auto a = sddmm_cost(100, 50, 50, 8);
  const auto b = sddmm_cost(100, 50, 50, 32);
  EXPECT_GT(b.gather_bytes, a.gather_bytes);
  EXPECT_DOUBLE_EQ(a.flops, 2.0 * 100 * 8);
}

}  // namespace
}  // namespace mggcn::sparse

namespace mggcn::core {
namespace {

TEST(GraphAttention, ForwardProducesRowStochasticOperator) {
  util::Rng rng(6);
  graph::BterParams params{.n = 120, .avg_degree = 10.0,
                           .degree_sigma = 1.0, .clustering = 0.5};
  const sparse::Csr adj =
      sparse::Csr::from_coo(graph::bter_like(params, rng).edges);

  for (const auto kind :
       {AttentionKind::kAdditive, AttentionKind::kDotProduct}) {
    GraphAttentionLayer layer(adj, 16, 8, kind, 11);
    dense::HostMatrix x(120, 16);
    x.init_gaussian(rng);
    const dense::HostMatrix out = layer.forward(x.view());
    EXPECT_EQ(out.rows(), 120);
    EXPECT_EQ(out.cols(), 8);

    const sparse::Csr& attention = layer.last_attention();
    const auto row_ptr = attention.row_ptr();
    const auto values = attention.values();
    for (std::int64_t r = 0; r < attention.rows(); ++r) {
      const auto b = row_ptr[static_cast<std::size_t>(r)];
      const auto e = row_ptr[static_cast<std::size_t>(r) + 1];
      if (b == e) continue;
      double sum = 0.0;
      for (auto i = b; i < e; ++i) sum += values[static_cast<std::size_t>(i)];
      ASSERT_NEAR(sum, 1.0, 1e-5);
    }
  }
}

TEST(GraphAttention, AttentionDiffersFromUniformGcnWeights) {
  // The whole point of attention: the operator's weights are data
  // dependent, not the fixed 1/deg of eq. (2).
  util::Rng rng(7);
  graph::BterParams params{.n = 100, .avg_degree = 12.0,
                           .degree_sigma = 1.0, .clustering = 0.5};
  const sparse::Csr adj =
      sparse::Csr::from_coo(graph::bter_like(params, rng).edges);
  GraphAttentionLayer layer(adj, 12, 6, AttentionKind::kAdditive, 13);
  dense::HostMatrix x(100, 12);
  x.init_gaussian(rng);
  (void)layer.forward(x.view());

  const sparse::Csr& attention = layer.last_attention();
  const auto row_ptr = attention.row_ptr();
  const auto values = attention.values();
  double max_spread = 0.0;
  for (std::int64_t r = 0; r < attention.rows(); ++r) {
    const auto b = row_ptr[static_cast<std::size_t>(r)];
    const auto e = row_ptr[static_cast<std::size_t>(r) + 1];
    if (e - b < 2) continue;
    float lo = values[static_cast<std::size_t>(b)];
    float hi = lo;
    for (auto i = b; i < e; ++i) {
      lo = std::min(lo, values[static_cast<std::size_t>(i)]);
      hi = std::max(hi, values[static_cast<std::size_t>(i)]);
    }
    max_spread = std::max(max_spread, static_cast<double>(hi - lo));
  }
  EXPECT_GT(max_spread, 0.01);
}

TEST(GraphAttention, RejectsBadShapes) {
  util::Rng rng(8);
  const sparse::Coo coo = graph::erdos_renyi(20, 4.0, rng);
  const sparse::Csr adj = sparse::Csr::from_coo(coo);
  GraphAttentionLayer layer(adj, 8, 4, AttentionKind::kAdditive, 1);
  dense::HostMatrix wrong(20, 9);
  EXPECT_THROW(layer.forward(wrong.view()), InvalidArgumentError);
}

}  // namespace
}  // namespace mggcn::core
