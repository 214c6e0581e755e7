// Inspector-executor SpMM: bin assignment, the inspector on degenerate
// inputs (all-empty tiles, duplicate-summed COO, d == 1), the bit-for-bit
// beta == 0 agreement with naive::spmm across every degree bin, plan
// invalidation via matches(), and the process-wide plan cache behind the
// dispatched planned policy.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "sparse/spmm.hpp"
#include "sparse/spmm_plan.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mggcn {
namespace {

dense::HostMatrix random_matrix(std::int64_t rows, std::int64_t cols,
                                std::uint64_t seed) {
  util::Rng rng(seed);
  dense::HostMatrix m(rows, cols);
  m.init_gaussian(rng);
  return m;
}

/// One row per degree in `degrees` (column indices drawn from [0, cols)).
sparse::Csr csr_with_degrees(const std::vector<std::int64_t>& degrees,
                             std::int64_t cols, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::int64_t> row_ptr{0};
  std::vector<std::uint32_t> col_idx;
  std::vector<float> values;
  for (const std::int64_t deg : degrees) {
    for (std::int64_t e = 0; e < deg; ++e) {
      col_idx.push_back(static_cast<std::uint32_t>(
          rng.uniform_index(static_cast<std::uint64_t>(cols))));
      values.push_back(static_cast<float>(rng.gaussian()));
    }
    row_ptr.push_back(static_cast<std::int64_t>(col_idx.size()));
  }
  return {static_cast<std::int64_t>(degrees.size()), cols, std::move(row_ptr),
          std::move(col_idx), std::move(values)};
}

void expect_bitwise_equal(const dense::HostMatrix& a,
                          const dense::HostMatrix& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.size()) * sizeof(float)),
            0)
      << what;
}

TEST(SpmmPlan, BinOfDegreeBoundaries) {
  using Plan = sparse::SpmmPlan;
  EXPECT_EQ(Plan::bin_of_degree(0), Plan::kEmpty);
  EXPECT_EQ(Plan::bin_of_degree(1), Plan::kDeg1);
  EXPECT_EQ(Plan::bin_of_degree(2), Plan::kDeg2);
  EXPECT_EQ(Plan::bin_of_degree(3), Plan::kDeg3);
  EXPECT_EQ(Plan::bin_of_degree(4), Plan::kShort);
  EXPECT_EQ(Plan::bin_of_degree(Plan::kMediumDegree - 1), Plan::kShort);
  EXPECT_EQ(Plan::bin_of_degree(Plan::kMediumDegree), Plan::kMedium);
  EXPECT_EQ(Plan::bin_of_degree(Plan::kLongDegree - 1), Plan::kMedium);
  EXPECT_EQ(Plan::bin_of_degree(Plan::kLongDegree), Plan::kLong);
  EXPECT_EQ(Plan::bin_of_degree(1 << 20), Plan::kLong);
}

TEST(SpmmPlan, InspectorBinsAndSortsRows) {
  // Degrees chosen to populate every bin; rows within a bin must come back
  // ascending (the executors rely on contiguous, sorted row lists).
  const std::vector<std::int64_t> degrees = {0, 1,   2, 3,  4,  7, 8,
                                             0, 255, 1, 300, 2, 0};
  const sparse::Csr a = csr_with_degrees(degrees, 32, 21);
  const sparse::SpmmPlan plan = sparse::SpmmPlan::inspect(a);

  EXPECT_EQ(plan.rows(), a.rows());
  EXPECT_EQ(plan.cols(), a.cols());
  EXPECT_EQ(plan.nnz(), a.nnz());
  EXPECT_EQ(plan.bin_count(sparse::SpmmPlan::kEmpty), 3);
  EXPECT_EQ(plan.bin_count(sparse::SpmmPlan::kDeg1), 2);
  EXPECT_EQ(plan.bin_count(sparse::SpmmPlan::kDeg2), 2);
  EXPECT_EQ(plan.bin_count(sparse::SpmmPlan::kDeg3), 1);
  EXPECT_EQ(plan.bin_count(sparse::SpmmPlan::kShort), 2);
  EXPECT_EQ(plan.bin_count(sparse::SpmmPlan::kMedium), 2);
  EXPECT_EQ(plan.bin_count(sparse::SpmmPlan::kLong), 1);

  std::int64_t total = 0;
  for (int bin = 0; bin < sparse::SpmmPlan::kNumBins; ++bin) {
    const auto rows = plan.bin_rows(bin);
    total += static_cast<std::int64_t>(rows.size());
    for (std::size_t i = 0; i + 1 < rows.size(); ++i) {
      EXPECT_LT(rows[i], rows[i + 1]) << "bin " << bin;
    }
    for (const std::uint32_t r : rows) {
      EXPECT_EQ(sparse::SpmmPlan::bin_of_degree(a.row_nnz(r)), bin);
    }
  }
  EXPECT_EQ(total, a.rows());
}

TEST(SpmmPlan, AllEmptyTile) {
  // Partition tiles of sparse regions are frequently all-empty; the plan
  // must handle nnz == 0 (and the executor must still apply beta).
  sparse::Csr a(6, 5, {0, 0, 0, 0, 0, 0, 0}, {}, {});
  const sparse::SpmmPlan plan = sparse::SpmmPlan::inspect(a);
  EXPECT_EQ(plan.bin_count(sparse::SpmmPlan::kEmpty), 6);
  EXPECT_EQ(plan.nnz(), 0);
  EXPECT_TRUE(plan.matches(a));

  const dense::HostMatrix b = random_matrix(5, 9, 22);
  dense::HostMatrix c(6, 9);
  c.fill(4.0f);
  plan.execute(a, b.view(), c.view(), 1.0f, 0.5f);
  for (std::int64_t i = 0; i < c.size(); ++i) EXPECT_EQ(c.data()[i], 2.0f);
  plan.execute(a, b.view(), c.view(), 1.0f, 0.0f);
  for (std::int64_t i = 0; i < c.size(); ++i) EXPECT_EQ(c.data()[i], 0.0f);
}

TEST(SpmmPlan, ZeroRowMatrix) {
  sparse::Csr a(0, 4, {0}, {}, {});
  const sparse::SpmmPlan plan = sparse::SpmmPlan::inspect(a);
  EXPECT_EQ(plan.rows(), 0);
  EXPECT_TRUE(plan.matches(a));
  const dense::HostMatrix b = random_matrix(4, 3, 23);
  dense::HostMatrix c(0, 3);
  plan.execute(a, b.view(), c.view(), 1.0f, 0.0f);  // must not touch anything
}

TEST(SpmmPlan, DuplicateSummedCooRoundTrip) {
  // Duplicate COO entries are summed by from_coo; the plan sees the merged
  // structure and the executor must reproduce naive exactly on it.
  sparse::Coo coo(8, 8);
  coo.add(0, 1, 1.0f);
  coo.add(0, 1, 2.5f);   // duplicate of (0, 1): merges to 3.5
  coo.add(0, 3, -1.0f);
  coo.add(2, 2, 0.5f);
  coo.add(2, 2, 0.5f);   // duplicate of (2, 2)
  coo.add(5, 0, 1.0f);
  coo.add(5, 7, 2.0f);
  coo.add(5, 7, -2.0f);  // merges to exact 0.0 — stays a structural nonzero
  const sparse::Csr a = sparse::Csr::from_coo(coo);
  ASSERT_EQ(a.nnz(), 5);

  const sparse::SpmmPlan plan = sparse::SpmmPlan::inspect(a);
  EXPECT_EQ(plan.bin_count(sparse::SpmmPlan::kEmpty), 5);
  EXPECT_EQ(plan.bin_count(sparse::SpmmPlan::kDeg1), 1);
  EXPECT_EQ(plan.bin_count(sparse::SpmmPlan::kDeg2), 2);

  const dense::HostMatrix b = random_matrix(8, 6, 24);
  dense::HostMatrix c_naive(8, 6), c_plan(8, 6);
  c_naive.fill(9.0f);
  c_plan.fill(-9.0f);
  sparse::naive::spmm(a, b.view(), c_naive.view(), 1.0f, 0.0f);
  plan.execute(a, b.view(), c_plan.view(), 1.0f, 0.0f);
  expect_bitwise_equal(c_naive, c_plan, "duplicate-summed COO");
}

TEST(SpmmPlan, BitIdenticalToNaiveAtBetaZeroAcrossBins) {
  // Degrees spanning every bin, including boundary degrees; d == 1 is the
  // degenerate feature width (single-column panels), the others exercise
  // panel tails and multi-panel loops.
  std::vector<std::int64_t> degrees;
  for (const std::int64_t deg :
       {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 254, 255, 256, 257, 600}) {
    degrees.push_back(deg);
    degrees.push_back(deg);  // at least two rows per bin: block paths run
  }
  const sparse::Csr a = csr_with_degrees(degrees, 100, 25);
  for (const std::int64_t d : {std::int64_t{1}, std::int64_t{17},
                               std::int64_t{512}, std::int64_t{513}}) {
    const dense::HostMatrix b = random_matrix(100, d, 26 + d);
    const sparse::SpmmPlan plan = sparse::SpmmPlan::inspect(a);
    for (const float alpha : {1.0f, 0.5f}) {
      dense::HostMatrix c_naive(a.rows(), d), c_plan(a.rows(), d);
      c_naive.fill(7.0f);  // stale contents beta == 0 must ignore
      c_plan.fill(-3.0f);
      sparse::naive::spmm(a, b.view(), c_naive.view(), alpha, 0.0f);
      plan.execute(a, b.view(), c_plan.view(), alpha, 0.0f);
      expect_bitwise_equal(c_naive, c_plan,
                           "d=" + std::to_string(d) +
                               " alpha=" + std::to_string(alpha));
    }
  }
}

TEST(SpmmPlan, NonzeroBetaMatchesNaive) {
  const sparse::Csr a = csr_with_degrees({0, 1, 3, 8, 40, 256, 2, 0}, 64, 27);
  const dense::HostMatrix b = random_matrix(64, 33, 28);
  const dense::HostMatrix c0 = random_matrix(8, 33, 29);
  const sparse::SpmmPlan plan = sparse::SpmmPlan::inspect(a);
  for (const float beta : {1.0f, 0.5f}) {
    dense::HostMatrix c_naive = c0;
    dense::HostMatrix c_plan = c0;
    sparse::naive::spmm(a, b.view(), c_naive.view(), 1.0f, beta);
    plan.execute(a, b.view(), c_plan.view(), 1.0f, beta);
    expect_bitwise_equal(c_naive, c_plan, "beta=" + std::to_string(beta));
  }
}

TEST(SpmmPlan, ValueMutationKeepsPlanValidStructureChangeDoesNot) {
  sparse::Csr a = csr_with_degrees({2, 0, 5, 9}, 16, 30);
  const sparse::SpmmPlan plan = sparse::SpmmPlan::inspect(a);
  ASSERT_TRUE(plan.matches(a));

  // Value updates (edge_softmax-style reweighting) keep the plan valid and
  // the executor must read the *new* values.
  for (float& v : a.values_mutable()) v *= 2.0f;
  EXPECT_TRUE(plan.matches(a));
  const dense::HostMatrix b = random_matrix(16, 8, 31);
  dense::HostMatrix c_naive(4, 8), c_plan(4, 8);
  sparse::naive::spmm(a, b.view(), c_naive.view(), 1.0f, 0.0f);
  plan.execute(a, b.view(), c_plan.view(), 1.0f, 0.0f);
  expect_bitwise_equal(c_naive, c_plan, "after value mutation");

  // A structurally different matrix (same shape, different row layout) must
  // be rejected even though the executor would not crash on it.
  const sparse::Csr other = csr_with_degrees({9, 5, 0, 2}, 16, 32);
  EXPECT_FALSE(plan.matches(other));
  dense::HostMatrix c(4, 8);
  EXPECT_THROW(plan.execute(other, b.view(), c.view(), 1.0f, 0.0f),
               InvalidArgumentError);
}

TEST(SpmmPlan, DispatchedPlannedPolicyUsesCache) {
  sparse::clear_spmm_plan_cache();
  const sparse::Csr a = csr_with_degrees({1, 4, 0, 12, 300}, 40, 33);
  const dense::HostMatrix b = random_matrix(40, 16, 34);
  dense::HostMatrix c_naive(5, 16), c_plan(5, 16);

  sparse::naive::spmm(a, b.view(), c_naive.view(), 1.0f, 0.0f);
  const auto before = sparse::spmm_plan_cache_stats();
  sparse::planned::spmm(a, b.view(), c_plan.view(), 1.0f, 0.0f);
  sparse::planned::spmm(a, b.view(), c_plan.view(), 1.0f, 0.0f);
  const auto after = sparse::spmm_plan_cache_stats();

  expect_bitwise_equal(c_naive, c_plan, "dispatched planned policy");
  EXPECT_EQ(after.misses, before.misses + 1);  // built exactly once
  EXPECT_EQ(after.hits, before.hits + 1);      // second call reused it
  EXPECT_GE(after.entries, 1u);

  // Forgetting drops exactly this matrix's plan; the next call rebuilds it.
  sparse::forget_spmm_plan(a);
  EXPECT_EQ(sparse::spmm_plan_cache_stats().entries, after.entries - 1);
  sparse::planned::spmm(a, b.view(), c_plan.view(), 1.0f, 0.0f);
  EXPECT_EQ(sparse::spmm_plan_cache_stats().misses, after.misses + 1);
  expect_bitwise_equal(c_naive, c_plan, "rebuilt plan");

  sparse::clear_spmm_plan_cache();
  EXPECT_EQ(sparse::spmm_plan_cache_stats().entries, 0u);
}

TEST(SpmmPlan, PlanBytesAccountsRowListsAndGhostMap) {
  const sparse::Csr a = csr_with_degrees({0, 1, 2, 3}, 8, 35);
  const sparse::SpmmPlan plan = sparse::SpmmPlan::inspect(a);
  // Four rows in the bin-sorted list, the three non-empty rows of the
  // natural-order sweep list, plus the ghost map (required-column list +
  // one remapped index per nonzero).
  EXPECT_EQ(plan.plan_bytes(),
            (4u + 3u + static_cast<std::uint64_t>(plan.ghost_count()) +
             static_cast<std::uint64_t>(a.nnz())) *
                sizeof(std::uint32_t));
  EXPECT_EQ(plan.ghost_bytes(),
            (static_cast<std::uint64_t>(plan.ghost_count()) +
             static_cast<std::uint64_t>(a.nnz())) *
                sizeof(std::uint32_t));
  EXPECT_EQ(plan.sweep_rows().size(), 3u);
  EXPECT_EQ(plan.sweep_rows()[0], 1u);
  EXPECT_EQ(plan.sweep_rows()[2], 3u);
}

// --- Ghost sets (compacted exchange) ------------------------------------

/// Packs the ghost rows of `b` (in ghost_rows() order) into a compact
/// matrix, the way the sendv_rows producer does.
dense::HostMatrix pack_ghost_rows(const sparse::SpmmPlan& plan,
                                  const dense::HostMatrix& b) {
  dense::HostMatrix packed(plan.ghost_count(), b.cols());
  const auto ghosts = plan.ghost_rows();
  for (std::size_t i = 0; i < ghosts.size(); ++i) {
    std::memcpy(packed.data() + static_cast<std::int64_t>(i) * b.cols(),
                b.data() + static_cast<std::int64_t>(ghosts[i]) * b.cols(),
                static_cast<std::size_t>(b.cols()) * sizeof(float));
  }
  return packed;
}

TEST(SpmmPlan, GhostSetIsSortedDistinctAndRemapRoundTrips) {
  const sparse::Csr a = csr_with_degrees({0, 3, 1, 0, 17, 5}, 40, 36);
  const sparse::SpmmPlan plan = sparse::SpmmPlan::inspect(a);
  const auto ghosts = plan.ghost_rows();
  ASSERT_GT(plan.ghost_count(), 0);
  ASSERT_LE(plan.ghost_count(), std::min(a.nnz(), a.cols()));
  for (std::size_t i = 0; i + 1 < ghosts.size(); ++i) {
    EXPECT_LT(ghosts[i], ghosts[i + 1]);  // sorted, no duplicates
  }
  // Every ghost entry is an actually-used column, and the per-nonzero
  // remap maps each edge back to its original column.
  const dense::HostMatrix b = random_matrix(a.cols(), 4, 37);
  const dense::HostMatrix packed = pack_ghost_rows(plan, b);
  dense::HostMatrix c_dense(a.rows(), 4), c_compact(a.rows(), 4);
  plan.execute(a, b.view(), c_dense.view(), 1.0f, 0.0f);
  plan.execute_compact(a, packed.view(), c_compact.view(), 1.0f, 0.0f);
  expect_bitwise_equal(c_dense, c_compact, "remap round trip");
}

TEST(SpmmPlan, GhostSetEmptyTile) {
  // An all-empty tile needs nothing from its source block: the compact
  // executor runs with a zero-row B and must still apply beta.
  sparse::Csr a(5, 7, {0, 0, 0, 0, 0, 0}, {}, {});
  const sparse::SpmmPlan plan = sparse::SpmmPlan::inspect(a);
  EXPECT_EQ(plan.ghost_count(), 0);
  EXPECT_EQ(plan.ghost_bytes(), 0u);
  dense::HostMatrix empty_b(0, 3);
  dense::HostMatrix c(5, 3);
  c.fill(6.0f);
  plan.execute_compact(a, empty_b.view(), c.view(), 1.0f, 0.5f);
  for (std::int64_t i = 0; i < c.size(); ++i) EXPECT_EQ(c.data()[i], 3.0f);
  plan.execute_compact(a, empty_b.view(), c.view(), 1.0f, 0.0f);
  for (std::int64_t i = 0; i < c.size(); ++i) EXPECT_EQ(c.data()[i], 0.0f);
}

TEST(SpmmPlan, GhostSetFullDensityTile) {
  // Every column used: the ghost set is the identity and the packed input
  // equals the dense input, so compaction saves nothing but stays correct.
  const std::int64_t cols = 6;
  std::vector<std::int64_t> row_ptr{0};
  std::vector<std::uint32_t> col_idx;
  std::vector<float> values;
  for (std::int64_t r = 0; r < 3; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      col_idx.push_back(static_cast<std::uint32_t>(c));
      values.push_back(static_cast<float>(r * cols + c) * 0.25f - 1.0f);
    }
    row_ptr.push_back(static_cast<std::int64_t>(col_idx.size()));
  }
  const sparse::Csr a(3, cols, std::move(row_ptr), std::move(col_idx),
                      std::move(values));
  const sparse::SpmmPlan plan = sparse::SpmmPlan::inspect(a);
  ASSERT_EQ(plan.ghost_count(), cols);
  EXPECT_DOUBLE_EQ(plan.ghost_density(), 1.0);
  for (std::int64_t c = 0; c < cols; ++c) {
    EXPECT_EQ(plan.ghost_rows()[static_cast<std::size_t>(c)],
              static_cast<std::uint32_t>(c));
  }
  const dense::HostMatrix b = random_matrix(cols, 9, 38);
  dense::HostMatrix c_dense(3, 9), c_compact(3, 9);
  plan.execute(a, b.view(), c_dense.view(), 1.0f, 0.0f);
  plan.execute_compact(a, b.view(), c_compact.view(), 1.0f, 0.0f);
  expect_bitwise_equal(c_dense, c_compact, "full-density tile");
}

TEST(SpmmPlan, GhostSetSingleRowTile) {
  const sparse::Csr a = csr_with_degrees({5}, 50, 39);
  const sparse::SpmmPlan plan = sparse::SpmmPlan::inspect(a);
  ASSERT_GT(plan.ghost_count(), 0);
  ASSERT_LE(plan.ghost_count(), 5);
  const dense::HostMatrix b = random_matrix(50, 13, 40);
  const dense::HostMatrix packed = pack_ghost_rows(plan, b);
  for (const float beta : {0.0f, 1.0f, 0.5f}) {
    dense::HostMatrix c_dense = random_matrix(1, 13, 41);
    dense::HostMatrix c_compact = c_dense;
    plan.execute(a, b.view(), c_dense.view(), 1.0f, beta);
    plan.execute_compact(a, packed.view(), c_compact.view(), 1.0f, beta);
    expect_bitwise_equal(c_dense, c_compact,
                         "single-row beta=" + std::to_string(beta));
  }
}

TEST(SpmmPlan, ExecuteCompactBitIdenticalAcrossBinsAndBetas) {
  std::vector<std::int64_t> degrees;
  for (const std::int64_t deg : {0, 1, 2, 3, 7, 8, 255, 256, 600}) {
    degrees.push_back(deg);
    degrees.push_back(deg);
  }
  const sparse::Csr a = csr_with_degrees(degrees, 4096, 42);
  const sparse::SpmmPlan plan = sparse::SpmmPlan::inspect(a);
  ASSERT_LT(plan.ghost_count(), a.cols());  // actually compacts something
  const dense::HostMatrix b = random_matrix(4096, 33, 43);
  const dense::HostMatrix packed = pack_ghost_rows(plan, b);
  for (const float beta : {0.0f, 1.0f, 0.5f}) {
    dense::HostMatrix c_dense = random_matrix(a.rows(), 33, 44);
    dense::HostMatrix c_compact = c_dense;
    plan.execute(a, b.view(), c_dense.view(), 1.0f, beta);
    plan.execute_compact(a, packed.view(), c_compact.view(), 1.0f, beta);
    expect_bitwise_equal(c_dense, c_compact,
                         "beta=" + std::to_string(beta));
  }
  // Shape misuse fails loudly: a full-width B is not a packed input.
  dense::HostMatrix c(a.rows(), 33);
  EXPECT_THROW(plan.execute_compact(a, b.view(), c.view(), 1.0f, 0.0f),
               InvalidArgumentError);
}

TEST(SpmmPlan, GhostFingerprintTracksRequiredSet) {
  const sparse::Csr a = csr_with_degrees({4, 9, 0, 2}, 64, 45);
  const sparse::SpmmPlan plan_a = sparse::SpmmPlan::inspect(a);
  const sparse::SpmmPlan plan_a2 = sparse::SpmmPlan::inspect(a);
  EXPECT_EQ(plan_a.ghost_fingerprint(), plan_a2.ghost_fingerprint());

  const sparse::Csr other = csr_with_degrees({4, 9, 0, 2}, 64, 46);
  const sparse::SpmmPlan plan_other = sparse::SpmmPlan::inspect(other);
  ASSERT_NE(plan_a.ghost_rows().size(), 0u);
  // Different column draws → different required sets → different prints.
  EXPECT_NE(plan_a.ghost_fingerprint(), plan_other.ghost_fingerprint());

  EXPECT_EQ(sparse::count_distinct_cols(a), plan_a.ghost_count());
  EXPECT_EQ(sparse::count_distinct_cols(other), plan_other.ghost_count());
}

}  // namespace
}  // namespace mggcn
