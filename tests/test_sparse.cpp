// Tests for the sparse substrate: COO/CSR construction, transpose, tiling
// (eq. (15)), symmetric permutation (§5.2), GCN normalization (eq. (2)),
// SpMM against a dense oracle, and the binary IO (PIGO stand-in).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <filesystem>
#include <iterator>

#include "csr_reference.hpp"
#include "dense/kernels.hpp"
#include "graph/generators.hpp"
#include "sparse/csr.hpp"
#include "sparse/io.hpp"
#include "sparse/spmm.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mggcn::sparse {
namespace {

Csr random_csr(std::int64_t rows, std::int64_t cols, double density,
               std::uint64_t seed) {
  util::Rng rng(seed);
  Coo coo(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      if (rng.bernoulli(density)) {
        coo.add(static_cast<std::uint32_t>(r),
                static_cast<std::uint32_t>(c),
                static_cast<float>(rng.gaussian()));
      }
    }
  }
  return Csr::from_coo(coo);
}

dense::HostMatrix to_dense(const Csr& a) {
  dense::HostMatrix d(a.rows(), a.cols());
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const auto values = a.values();
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    for (std::int64_t e = row_ptr[static_cast<std::size_t>(r)];
         e < row_ptr[static_cast<std::size_t>(r) + 1]; ++e) {
      d.at(r, col_idx[static_cast<std::size_t>(e)]) +=
          values[static_cast<std::size_t>(e)];
    }
  }
  return d;
}

TEST(Coo, SymmetrizeAddsReverseEdges) {
  Coo coo(4, 4);
  coo.add(0, 1);
  coo.add(2, 3);
  coo.add(1, 1);  // self-loop stays single
  coo.symmetrize();
  EXPECT_EQ(coo.nnz(), 5);
}

TEST(Coo, SortAndMergeSumsDuplicates) {
  Coo coo(3, 3);
  coo.add(1, 2, 1.0f);
  coo.add(0, 0, 2.0f);
  coo.add(1, 2, 3.0f);
  coo.sort_and_merge();
  ASSERT_EQ(coo.nnz(), 2);
  EXPECT_EQ(coo.row_idx[0], 0u);
  EXPECT_EQ(coo.values[1], 4.0f);
}

TEST(Csr, FromCooSortsRowsAndMergesDuplicates) {
  Coo coo(2, 4);
  coo.add(0, 3, 1.0f);
  coo.add(0, 1, 2.0f);
  coo.add(0, 3, 0.5f);
  coo.add(1, 0, 1.0f);
  const Csr csr = Csr::from_coo(coo);
  EXPECT_EQ(csr.nnz(), 3);
  EXPECT_EQ(csr.col_idx()[0], 1u);
  EXPECT_EQ(csr.col_idx()[1], 3u);
  EXPECT_EQ(csr.values()[1], 1.5f);
  EXPECT_EQ(csr.row_nnz(0), 2);
  EXPECT_EQ(csr.row_nnz(1), 1);
}

TEST(Csr, IdentitySpmmIsIdentity) {
  const Csr eye = Csr::identity(6);
  util::Rng rng(3);
  dense::HostMatrix x(6, 4);
  x.init_gaussian(rng);
  dense::HostMatrix y(6, 4);
  spmm(eye, x.view(), y.view());
  EXPECT_EQ(dense::max_abs_diff(x.view(), y.view()), 0.0);
}

TEST(Csr, TransposeIsInvolution) {
  const Csr a = random_csr(17, 11, 0.2, 5);
  const Csr att = a.transpose().transpose();
  EXPECT_EQ(a, att);
}

TEST(Csr, TransposeMatchesDense) {
  const Csr a = random_csr(9, 13, 0.3, 6);
  const dense::HostMatrix da = to_dense(a);
  const dense::HostMatrix dt = to_dense(a.transpose());
  for (std::int64_t i = 0; i < 9; ++i) {
    for (std::int64_t j = 0; j < 13; ++j) {
      ASSERT_EQ(da.at(i, j), dt.at(j, i));
    }
  }
}

TEST(Csr, TileExtractsSubmatrix) {
  const Csr a = random_csr(20, 20, 0.25, 7);
  const dense::HostMatrix da = to_dense(a);
  const Csr t = a.tile(5, 12, 3, 17);
  EXPECT_EQ(t.rows(), 7);
  EXPECT_EQ(t.cols(), 14);
  const dense::HostMatrix dt = to_dense(t);
  for (std::int64_t i = 0; i < 7; ++i) {
    for (std::int64_t j = 0; j < 14; ++j) {
      ASSERT_EQ(dt.at(i, j), da.at(i + 5, j + 3));
    }
  }
}

TEST(Csr, TilesPartitionNnzExactly) {
  const Csr a = random_csr(30, 30, 0.2, 8);
  std::int64_t total = 0;
  const std::int64_t cuts[] = {0, 7, 19, 30};
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      total += a.tile(cuts[i], cuts[i + 1], cuts[j], cuts[j + 1]).nnz();
    }
  }
  EXPECT_EQ(total, a.nnz());
}

TEST(Csr, PermuteSymmetricRelabelsEntries) {
  const Csr a = random_csr(12, 12, 0.3, 9);
  util::Rng rng(10);
  const auto perm = rng.permutation<std::uint32_t>(12);
  const Csr p = a.permute_symmetric(perm);
  EXPECT_EQ(p.nnz(), a.nnz());
  const dense::HostMatrix da = to_dense(a);
  const dense::HostMatrix dp = to_dense(p);
  for (std::int64_t u = 0; u < 12; ++u) {
    for (std::int64_t v = 0; v < 12; ++v) {
      ASSERT_EQ(dp.at(perm[static_cast<std::size_t>(u)],
                      perm[static_cast<std::size_t>(v)]),
                da.at(u, v));
    }
  }
}

/// A square matrix built straight through the constructor, bypassing
/// from_coo: rows are unsorted, repeat columns, and include self loops;
/// about a quarter of the rows are empty and a few are long (> 16 entries,
/// past std::sort's insertion-sort cutoff). `exact` draws values that are
/// small multiples of 1/4, so any summation order gives the same sum.
Csr raw_square(std::int64_t n, std::uint64_t seed, bool exact) {
  util::Rng rng(seed);
  std::vector<std::int64_t> row_ptr = {0};
  std::vector<std::uint32_t> col_idx;
  std::vector<float> values;
  const auto draw = [&] {
    return exact ? static_cast<float>(rng.uniform_index(9)) * 0.25f - 1.0f
                 : static_cast<float>(rng.gaussian());
  };
  for (std::int64_t r = 0; r < n; ++r) {
    const std::uint64_t kind = rng.uniform_index(8);
    const std::uint64_t degree = kind < 2   ? 0
                                 : kind == 7 ? 17 + rng.uniform_index(24)
                                             : 1 + rng.uniform_index(6);
    for (std::uint64_t k = 0; k < degree; ++k) {
      // Narrow column ranges make repeats common.
      const std::uint64_t span = std::max<std::uint64_t>(1, n / 2);
      col_idx.push_back(static_cast<std::uint32_t>(
          rng.bernoulli(0.1) ? static_cast<std::uint64_t>(r)
                             : rng.uniform_index(span) * 2 % n));
      values.push_back(draw());
    }
    row_ptr.push_back(static_cast<std::int64_t>(col_idx.size()));
  }
  return Csr(n, n, std::move(row_ptr), std::move(col_idx), std::move(values));
}

TEST(Csr, PermuteSymmetricMatchesCooRoundTrip) {
  // Bitwise against the COO round trip (from_coo of the relabelled
  // entries): rows come out column-sorted and duplicates sum in the same
  // order, for exact and for inexact values alike.
  // 30000 rows hold ~170k entries: several parallel chunks, with rows
  // compacted after merging.
  for (const std::int64_t n : {1, 2, 7, 64, 301, 30000}) {
    for (const bool exact : {true, false}) {
      const std::uint64_t seed = static_cast<std::uint64_t>(n) * 2 + exact;
      const Csr a = raw_square(n, seed, exact);
      const auto perm = util::Rng(seed + 1).permutation<std::uint32_t>(
          static_cast<std::size_t>(n));
      EXPECT_TRUE(testing::csr_bits_equal(
          a.permute_symmetric(perm),
          testing::reference_permute_symmetric(a, perm)))
          << "n = " << n << (exact ? " exact" : " inexact");
    }
  }
  // A well-formed matrix large enough to be split across threads.
  const Csr big = random_csr(1200, 1200, 0.1, 41);
  const auto perm = util::Rng(42).permutation<std::uint32_t>(1200);
  EXPECT_TRUE(testing::csr_bits_equal(
      big.permute_symmetric(perm),
      testing::reference_permute_symmetric(big, perm)));
}

TEST(Csr, PermuteSymmetricRejectsNonBijection) {
  const Csr a = random_csr(5, 5, 0.5, 43);
  const std::vector<std::uint32_t> repeated = {0, 1, 2, 2, 4};
  const std::vector<std::uint32_t> out_of_range = {0, 1, 2, 3, 5};
  const std::vector<std::uint32_t> short_perm = {0, 1, 2, 3};
  EXPECT_THROW((void)a.permute_symmetric(repeated), InvalidArgumentError);
  EXPECT_THROW((void)a.permute_symmetric(out_of_range), InvalidArgumentError);
  EXPECT_THROW((void)a.permute_symmetric(short_perm), InvalidArgumentError);
  const std::vector<std::uint32_t> identity = {0, 1, 2, 3, 4};
  EXPECT_TRUE(testing::csr_bits_equal(a.permute_symmetric(identity), a));
}

TEST(Csr, TransposeIntoMatchesTranspose) {
  const Csr a = random_csr(31, 17, 0.2, 44);
  std::vector<std::int64_t> t_ptr(18, -1);
  std::vector<std::uint32_t> t_cols(static_cast<std::size_t>(a.nnz()));
  std::vector<float> t_vals(static_cast<std::size_t>(a.nnz()));
  a.transpose_into(t_ptr, t_cols, t_vals);
  EXPECT_TRUE(testing::csr_bits_equal(
      Csr(17, 31, std::move(t_ptr), std::move(t_cols), std::move(t_vals)),
      a.transpose()));
}

TEST(Csr, PermutationCommutesWithSpmm) {
  // (P A P^T)(P x) = P (A x): permuting the operator and the features gives
  // permuted outputs — the §5.2 trick does not change the training math.
  const Csr a = random_csr(15, 15, 0.3, 11);
  util::Rng rng(12);
  const auto perm = rng.permutation<std::uint32_t>(15);
  const Csr pa = a.permute_symmetric(perm);

  dense::HostMatrix x(15, 3);
  x.init_gaussian(rng);
  dense::HostMatrix px(15, 3);
  for (std::int64_t v = 0; v < 15; ++v) {
    dense::copy(x.view().row(v),
                px.view().row(perm[static_cast<std::size_t>(v)]), 3);
  }

  dense::HostMatrix ax(15, 3), pax(15, 3);
  spmm(a, x.view(), ax.view());
  spmm(pa, px.view(), pax.view());
  for (std::int64_t v = 0; v < 15; ++v) {
    for (std::int64_t j = 0; j < 3; ++j) {
      ASSERT_NEAR(pax.at(perm[static_cast<std::size_t>(v)], j), ax.at(v, j),
                  1e-5);
    }
  }
}

TEST(Csr, NormalizeGcnMakesColumnSumsOne) {
  util::Rng rng(13);
  graph::BterParams params{.n = 200, .avg_degree = 6.0, .degree_sigma = 0.8,
                           .clustering = 0.4};
  const Csr a = Csr::from_coo(graph::bter_like(params, rng).edges);
  const Csr norm = a.normalize_gcn();
  const auto sums = norm.column_sums();
  for (const double s : sums) {
    ASSERT_NEAR(s, 1.0, 1e-6);
  }
}

TEST(Csr, NormalizeMatchesEquationTwo) {
  Coo coo(3, 3);
  coo.add(0, 2, 1.0f);
  coo.add(1, 2, 3.0f);
  coo.add(2, 0, 5.0f);
  const Csr norm = Csr::from_coo(coo).normalize_gcn();
  // Column 2 sum = 4 -> entries 0.25 and 0.75; column 0 sum = 5 -> 1.0.
  EXPECT_NEAR(norm.values()[0], 0.25f, 1e-7);
  EXPECT_NEAR(norm.values()[1], 0.75f, 1e-7);
  EXPECT_NEAR(norm.values()[2], 1.0f, 1e-7);
}

class SpmmShapes
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::int64_t,
                                                 std::int64_t, double>> {};

TEST_P(SpmmShapes, MatchesDenseGemm) {
  const auto [m, k, d, density] = GetParam();
  const Csr a = random_csr(m, k, density, 14);
  util::Rng rng(15);
  dense::HostMatrix b(k, d);
  b.init_gaussian(rng);
  dense::HostMatrix c(m, d);
  spmm(a, b.view(), c.view());
  const dense::HostMatrix da = to_dense(a);
  dense::HostMatrix ref(m, d);
  dense::gemm(da.view(), b.view(), ref.view());
  EXPECT_LT(dense::max_abs_diff(c.view(), ref.view()), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpmmShapes,
    ::testing::Values(std::make_tuple(1, 1, 1, 1.0),
                      std::make_tuple(10, 10, 4, 0.3),
                      std::make_tuple(31, 17, 8, 0.2),
                      std::make_tuple(64, 64, 16, 0.05),
                      std::make_tuple(5, 40, 3, 0.5)));

TEST(Spmm, BetaAccumulates) {
  const Csr a = random_csr(8, 8, 0.4, 16);
  util::Rng rng(17);
  dense::HostMatrix b(8, 2);
  b.init_gaussian(rng);
  dense::HostMatrix c(8, 2);
  c.fill(1.0f);
  spmm(a, b.view(), c.view(), 1.0f, 1.0f);
  dense::HostMatrix pure(8, 2);
  spmm(a, b.view(), pure.view());
  for (std::int64_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c.data()[i], pure.data()[i] + 1.0f, 1e-5);
  }
}

TEST(Spmm, CostScalesWithNnzAndWidth) {
  const auto small = spmm_cost(100, 50, 50, 8);
  const auto wide = spmm_cost(100, 50, 50, 16);
  const auto dense_ = spmm_cost(200, 50, 50, 8);
  EXPECT_GT(wide.gather_bytes, small.gather_bytes);
  EXPECT_GT(dense_.gather_bytes, small.gather_bytes);
  EXPECT_DOUBLE_EQ(small.flops, 2.0 * 100 * 8);
}

TEST(Io, CsrRoundTrip) {
  const Csr a = random_csr(23, 19, 0.25, 18);
  const std::string path =
      (std::filesystem::temp_directory_path() / "mggcn_test_roundtrip.csr")
          .string();
  write_csr(a, path);
  const Csr b = read_csr(path);
  EXPECT_EQ(a, b);
  std::remove(path.c_str());
}

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), {}};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

template <typename T>
void patch(std::string& bytes, std::size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
}

TEST(Io, RejectsCorruptFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mggcn_test_bad.csr")
          .string();
  write_bytes(path, "not a csr file");
  EXPECT_THROW((void)read_csr(path), InvalidArgumentError);

  const Csr a = random_csr(23, 19, 0.25, 18);
  write_csr(a, path);
  const std::string good = read_bytes(path);
  // magic[8] | rows i64 | cols i64 | nnz i64 | row_ptr | col_idx | values
  constexpr std::size_t kCols = 16, kHeader = 32;

  for (std::size_t length = 0; length < good.size(); ++length) {
    write_bytes(path, good.substr(0, length));
    EXPECT_THROW((void)read_csr(path), InvalidArgumentError)
        << "truncated to " << length << " bytes";
  }
  for (std::size_t i = 0; i < kHeader; ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(~bad[i]);
    write_bytes(path, bad);
    if (i >= kCols && i < kCols + 4) {
      // Nothing else in the file pins cols: flipping one of its low four
      // bytes widens the matrix within the u32 index range, which is a
      // valid file with the same entries.
      const Csr b = read_csr(path);
      EXPECT_GT(b.cols(), a.cols());
      EXPECT_TRUE(std::ranges::equal(b.row_ptr(), a.row_ptr()) &&
                  std::ranges::equal(b.col_idx(), a.col_idx()) &&
                  std::ranges::equal(b.values(), a.values()));
      continue;
    }
    EXPECT_THROW((void)read_csr(path), InvalidArgumentError)
        << "header byte " << i << " flipped";
  }

  // Body corruption the size check cannot see.
  const std::size_t row_ptr = kHeader;
  const std::size_t col_idx =
      row_ptr + 8 * static_cast<std::size_t>(a.rows() + 1);
  std::string bad = good;
  patch(bad, row_ptr + 8, a.nnz() + 1);  // row_ptr no longer monotone
  write_bytes(path, bad);
  EXPECT_THROW((void)read_csr(path), InvalidArgumentError);
  bad = good;
  patch(bad, col_idx, static_cast<std::uint32_t>(a.cols()));
  write_bytes(path, bad);
  EXPECT_THROW((void)read_csr(path), InvalidArgumentError);
  std::remove(path.c_str());
}

TEST(Io, RejectsUnsortedRows) {
  // A row whose columns are out of order (or repeat) would silently lose
  // nonzeros in Csr::tile's binary search, so read_csr refuses it.
  const std::string path =
      (std::filesystem::temp_directory_path() / "mggcn_test_unsorted.csr")
          .string();
  for (const std::vector<std::uint32_t>& row1 :
       {std::vector<std::uint32_t>{3, 1}, std::vector<std::uint32_t>{2, 2}}) {
    const Csr a(3, 4, {0, 1, 3, 4}, {0, row1[0], row1[1], 3},
                {1.0f, 2.0f, 3.0f, 4.0f});
    write_csr(a, path);
    try {
      (void)read_csr(path);
      ADD_FAILURE() << "accepted row 1 = {" << row1[0] << ", " << row1[1]
                    << "}";
    } catch (const InvalidArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find("row 1"), std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(Io, MatrixMarketRoundTrip) {
  const Csr a = random_csr(14, 14, 0.3, 21);
  const std::string path =
      (std::filesystem::temp_directory_path() / "mggcn_test.mtx").string();
  write_matrix_market(a, path);
  Coo coo = read_matrix_market(path);
  const Csr b = Csr::from_coo(coo);
  std::remove(path.c_str());
  EXPECT_EQ(a.nnz(), b.nnz());
  EXPECT_LT(dense::max_abs_diff(to_dense(a).view(), to_dense(b).view()),
            1e-4);
}

TEST(Io, MatrixMarketSymmetricPatternExpansion) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mggcn_test_sym.mtx")
          .string();
  {
    std::ofstream os(path);
    os << "%%MatrixMarket matrix coordinate pattern symmetric\n"
       << "% a comment\n"
       << "3 3 2\n"
       << "2 1\n"
       << "3 3\n";
  }
  const Coo coo = read_matrix_market(path);
  std::remove(path.c_str());
  // (2,1) expands to (1,2) too; the (3,3) diagonal does not.
  EXPECT_EQ(coo.nnz(), 3);
  for (const float v : coo.values) EXPECT_EQ(v, 1.0f);
}

TEST(Io, MatrixMarketRejectsGarbage) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mggcn_test_bad.mtx")
          .string();
  {
    std::ofstream os(path);
    os << "not a banner\n1 1 0\n";
  }
  EXPECT_THROW(read_matrix_market(path), Error);
  std::remove(path.c_str());
}

TEST(Io, MatrixMarketRejectsBadSizes) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "mggcn_test_sizes.mtx")
          .string();
  auto read_with_sizes = [&](const std::string& sizes,
                             const std::string& entries) {
    {
      std::ofstream os(path, std::ios::trunc);
      os << "%%MatrixMarket matrix coordinate real general\n"
         << sizes << "\n"
         << entries;
    }
    return read_matrix_market(path);
  };
  EXPECT_THROW((void)read_with_sizes("-1 3 0", ""), InvalidArgumentError);
  EXPECT_THROW((void)read_with_sizes("3 -3 0", ""), InvalidArgumentError);
  EXPECT_THROW((void)read_with_sizes("3 3 -1", ""), InvalidArgumentError);
  EXPECT_THROW((void)read_with_sizes("3 3 10", ""), InvalidArgumentError);
  EXPECT_THROW((void)read_with_sizes("0 3 1", "1 1 1.0\n"),
               InvalidArgumentError);
  EXPECT_THROW((void)read_with_sizes("8589934592 1 1", "1 1 1.0\n"),
               InvalidArgumentError);
  // A header claiming 2^40 entries of a 2^20 x 2^20 matrix, followed by two:
  // the reader must not reserve for the claim, and fails as truncated.
  EXPECT_THROW((void)read_with_sizes("1048576 1048576 1099511627776",
                                     "1 2 1.0\n3 4 2.0\n"),
               InvalidArgumentError);
  // The boundary itself is legal: a full 2 x 2 matrix.
  const Coo full = read_with_sizes("2 2 4", "1 1 1\n1 2 2\n2 1 3\n2 2 4\n");
  EXPECT_EQ(full.nnz(), 4);
  std::remove(path.c_str());
}

TEST(Io, EdgeListRoundTrip) {
  const Csr a = random_csr(12, 12, 0.3, 19);
  const std::string path =
      (std::filesystem::temp_directory_path() / "mggcn_test_edges.txt")
          .string();
  write_edge_list(a, path);
  Coo coo = read_edge_list(path, 12);
  const Csr b = Csr::from_coo(coo);
  EXPECT_EQ(a.nnz(), b.nnz());
  EXPECT_EQ(a.row_ptr()[5], b.row_ptr()[5]);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mggcn::sparse
