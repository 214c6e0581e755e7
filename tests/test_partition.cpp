// Tests for partition vectors (eqs. (13)-(15)) and the symmetric tile grid
// used by the 1D distribution, including the §5.2 load-balance property.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/partition.hpp"
#include "csr_reference.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace mggcn::core {
namespace {

class UniformPartition
    : public ::testing::TestWithParam<std::tuple<std::int64_t, int>> {};

TEST_P(UniformPartition, CoversRangeWithBalancedParts) {
  const auto [n, parts] = GetParam();
  const PartitionVector p = PartitionVector::uniform(n, parts);
  EXPECT_EQ(p.parts(), parts);
  EXPECT_EQ(p.total(), n);
  EXPECT_EQ(p.begin(0), 0);
  std::int64_t covered = 0;
  for (int i = 0; i < parts; ++i) {
    EXPECT_LE(p.begin(i), p.end(i));
    covered += p.size(i);
    // Uniform: sizes differ by at most one.
    EXPECT_LE(p.max_part_size() - p.size(i), 1);
  }
  EXPECT_EQ(covered, n);
}

TEST_P(UniformPartition, PartOfIsConsistent) {
  const auto [n, parts] = GetParam();
  if (n == 0) return;
  const PartitionVector p = PartitionVector::uniform(n, parts);
  for (std::int64_t v = 0; v < n; v += std::max<std::int64_t>(1, n / 97)) {
    const int owner = p.part_of(v);
    EXPECT_GE(v, p.begin(owner));
    EXPECT_LT(v, p.end(owner));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, UniformPartition,
    ::testing::Values(std::make_tuple(std::int64_t{1}, 1),
                      std::make_tuple(std::int64_t{10}, 3),
                      std::make_tuple(std::int64_t{100}, 8),
                      std::make_tuple(std::int64_t{7}, 8),
                      std::make_tuple(std::int64_t{1000003}, 8)));

TEST(PartitionVector, RejectsBadOffsets) {
  EXPECT_THROW(PartitionVector({0}), InvalidArgumentError);
  EXPECT_THROW(PartitionVector({1, 5}), InvalidArgumentError);
  EXPECT_THROW(PartitionVector({0, 5, 3}), InvalidArgumentError);
}

TEST(BalancedNnz, CutsEqualizeRowNnz) {
  util::Rng rng(9);
  graph::BterParams params{.n = 2000, .avg_degree = 24.0,
                           .degree_sigma = 1.3, .clustering = 0.5};
  const sparse::Csr a =
      sparse::Csr::from_coo(graph::bter_like(params, rng).edges);
  const PartitionVector p = PartitionVector::balanced_nnz(a, 8);
  EXPECT_EQ(p.parts(), 8);
  EXPECT_EQ(p.total(), a.rows());

  const auto row_ptr = a.row_ptr();
  std::int64_t worst = 0;
  for (int i = 0; i < 8; ++i) {
    const std::int64_t nnz = row_ptr[static_cast<std::size_t>(p.end(i))] -
                             row_ptr[static_cast<std::size_t>(p.begin(i))];
    worst = std::max(worst, nnz);
  }
  // Row-nnz imbalance well below the uniform partition's on this skewed
  // ordering.
  const double balanced_ratio =
      static_cast<double>(worst) / (static_cast<double>(a.nnz()) / 8.0);
  const TileGrid uniform_grid =
      make_tile_grid(a, PartitionVector::uniform(a.rows(), 8));
  EXPECT_LT(balanced_ratio, uniform_grid.imbalance());
  EXPECT_LT(balanced_ratio, 1.35);
}

TEST(BalancedNnz, DegenerateGraphsStillCoverAllRows) {
  const sparse::Csr eye = sparse::Csr::identity(10);
  const PartitionVector p = PartitionVector::balanced_nnz(eye, 4);
  EXPECT_EQ(p.total(), 10);
  for (int i = 0; i < 4; ++i) EXPECT_GE(p.size(i), 1);
}

TEST(TileGrid, PartitionsNnzExactly) {
  util::Rng rng(1);
  graph::BterParams params{.n = 600, .avg_degree = 12.0,
                           .degree_sigma = 1.0, .clustering = 0.5};
  const sparse::Csr a =
      sparse::Csr::from_coo(graph::bter_like(params, rng).edges);
  const TileGrid grid =
      make_tile_grid(a, PartitionVector::uniform(a.rows(), 4));

  std::int64_t total = 0;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      const auto& tile = grid.tile(i, j);
      EXPECT_EQ(tile.rows(), grid.partition.size(i));
      EXPECT_EQ(tile.cols(), grid.partition.size(j));
      total += tile.nnz();
    }
  }
  EXPECT_EQ(total, a.nnz());
  EXPECT_GE(grid.imbalance(), 1.0);
}

TEST(TileGrid, RandomPermutationImprovesBalance) {
  // §5.2's central claim: on a skewed "natural" ordering, uniform 1D tiles
  // are imbalanced; a random vertex permutation fixes it.
  util::Rng rng(2);
  graph::BterParams params{.n = 4000, .avg_degree = 30.0,
                           .degree_sigma = 1.3, .clustering = 0.5};
  const sparse::Csr natural =
      sparse::Csr::from_coo(graph::bter_like(params, rng).edges);
  const auto perm = rng.permutation<std::uint32_t>(
      static_cast<std::size_t>(natural.rows()));
  const sparse::Csr permuted = natural.permute_symmetric(perm);

  const PartitionVector p = PartitionVector::uniform(natural.rows(), 8);
  const double imbalance_natural = make_tile_grid(natural, p).imbalance();
  const double imbalance_permuted = make_tile_grid(permuted, p).imbalance();
  EXPECT_GT(imbalance_natural, 1.15);
  EXPECT_LT(imbalance_permuted, imbalance_natural);
  EXPECT_LT(imbalance_permuted, 1.15);
}

TEST(TileGrid, RowNnzSumsTileRow) {
  util::Rng rng(3);
  const sparse::Coo coo = graph::erdos_renyi(200, 8.0, rng);
  const sparse::Csr a = sparse::Csr::from_coo(coo);
  const TileGrid grid =
      make_tile_grid(a, PartitionVector::uniform(a.rows(), 2));
  EXPECT_EQ(grid.row_nnz(0) + grid.row_nnz(1), a.nnz());
}

/// The tiling before the one-pass builder, kept as the reference: slice
/// each row block, then cut its column ranges with Csr::tile.
TileGrid reference_tile_grid(const sparse::Csr& a, const PartitionVector& p) {
  TileGrid grid;
  grid.partition = p;
  grid.tiles.resize(static_cast<std::size_t>(p.parts()));
  for (int i = 0; i < p.parts(); ++i) {
    const sparse::Csr row_block = a.tile(p.begin(i), p.end(i), 0, a.cols());
    for (int j = 0; j < p.parts(); ++j) {
      grid.tiles[static_cast<std::size_t>(i)].push_back(
          row_block.tile(0, row_block.rows(), p.begin(j), p.end(j)));
    }
  }
  return grid;
}

void expect_grid_bits_equal(const TileGrid& got, const TileGrid& want) {
  ASSERT_EQ(got.partition.offsets().size(), want.partition.offsets().size());
  EXPECT_TRUE(std::ranges::equal(got.partition.offsets(),
                                 want.partition.offsets()));
  for (int i = 0; i < want.parts(); ++i) {
    for (int j = 0; j < want.parts(); ++j) {
      EXPECT_TRUE(testing::csr_bits_equal(got.tile(i, j), want.tile(i, j)))
          << "tile (" << i << ", " << j << ")";
    }
  }
}

/// A normalized (so non-symmetric, distinct-valued) skewed graph with
/// empty rows, and partitions of it: P = 1, uniform 3 and 4, nnz-balanced,
/// and one with empty parts.
struct TilingCase {
  sparse::Csr a;
  std::vector<PartitionVector> partitions;
};

TilingCase tiling_case() {
  util::Rng rng(5);
  graph::BterParams params{.n = 600, .avg_degree = 12.0,
                           .degree_sigma = 1.2, .clustering = 0.5};
  sparse::Coo coo = graph::bter_like(params, rng).edges;
  // Vertices 590..599 keep no edges: empty rows and columns.
  sparse::Coo kept(600, 600);
  for (std::int64_t e = 0; e < coo.nnz(); ++e) {
    const auto u = coo.row_idx[static_cast<std::size_t>(e)];
    const auto v = coo.col_idx[static_cast<std::size_t>(e)];
    if (u < 590 && v < 590) kept.add(u, v);
  }
  TilingCase c;
  c.a = sparse::Csr::from_coo(kept).normalize_gcn();
  c.partitions = {PartitionVector::uniform(600, 1),
                  PartitionVector::uniform(600, 3),
                  PartitionVector::uniform(600, 4),
                  PartitionVector::balanced_nnz(c.a, 4),
                  PartitionVector({0, 0, 150, 150, 420, 600, 600})};
  return c;
}

TEST(TileGrid, OnePassTilingMatchesRowBlockSlicing) {
  const TilingCase c = tiling_case();
  for (const PartitionVector& p : c.partitions) {
    SCOPED_TRACE(::testing::Message() << p.parts() << " parts");
    expect_grid_bits_equal(make_tile_grid(c.a, p), reference_tile_grid(c.a, p));
  }
}

TEST(TileGrid, TransposedGridMatchesTilingTheTranspose) {
  const TilingCase c = tiling_case();
  const sparse::Csr a_t = c.a.transpose();
  for (const PartitionVector& p : c.partitions) {
    SCOPED_TRACE(::testing::Message() << p.parts() << " parts");
    expect_grid_bits_equal(transpose_tile_grid(make_tile_grid(c.a, p)),
                           make_tile_grid(a_t, p));
  }
}

TEST(TileGrid, AssembleInvertsTiling) {
  const TilingCase c = tiling_case();
  for (const PartitionVector& p : c.partitions) {
    EXPECT_TRUE(testing::csr_bits_equal(
        assemble_tile_grid(make_tile_grid(c.a, p)), c.a))
        << p.parts() << " parts";
  }
}

TEST(TileGrid, BuildPlansBuildsEveryMissingPlanOnce) {
  const TilingCase c = tiling_case();
  const TileGrid grid = make_tile_grid(c.a, c.partitions[2]);
  const sparse::SpmmPlan* built_before = &grid.plan(1, 2);
  grid.build_plans();
  for (int i = 0; i < grid.parts(); ++i) {
    for (int j = 0; j < grid.parts(); ++j) {
      ASSERT_TRUE(grid.plan_ready(i, j));
      const sparse::SpmmPlan want = sparse::SpmmPlan::inspect(grid.tile(i, j));
      const sparse::SpmmPlan& got = grid.plan(i, j);
      EXPECT_TRUE(std::ranges::equal(got.sweep_rows(), want.sweep_rows()));
      EXPECT_TRUE(std::ranges::equal(got.ghost_rows(), want.ghost_rows()));
    }
  }
  EXPECT_EQ(&grid.plan(1, 2), built_before) << "a ready plan was rebuilt";
}

TEST(TileGrid, RequiresSquareMatrix) {
  sparse::Coo coo(4, 5);
  coo.add(0, 1);
  const sparse::Csr a = sparse::Csr::from_coo(coo);
  EXPECT_THROW(make_tile_grid(a, PartitionVector::uniform(4, 2)),
               InvalidArgumentError);
}

}  // namespace
}  // namespace mggcn::core
