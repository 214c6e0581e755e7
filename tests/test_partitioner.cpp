// Locality-aware partitioner tests: the MGGCN_PART registry, cut/ghost
// accounting against a brute-force recount, the balance-slack contract,
// hierarchical (multi-node) behaviour, kAuto's pricing, and the trainer's
// bit-determinism within one mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/part_mode.hpp"
#include "core/partition.hpp"
#include "core/partitioner.hpp"
#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "sim/machine.hpp"
#include "sparse/csr.hpp"
#include "util/rng.hpp"

namespace mggcn::core {
namespace {

sparse::Csr clustered_graph(std::int64_t n = 1200, double clustering = 0.9,
                            double sigma = 0.6, std::uint64_t seed = 7) {
  util::Rng rng(seed);
  graph::BterParams params{.n = n,
                           .avg_degree = 10.0,
                           .degree_sigma = sigma,
                           .clustering = clustering};
  return sparse::Csr::from_coo(graph::bter_like(params, rng).edges);
}

/// Brute-force recount of PartitionCutStats straight from the original
/// adjacency + (perm, partition), with per-(r, s) distinct-column sets.
PartitionCutStats brute_force_stats(const sparse::Csr& a,
                                    const std::vector<std::uint32_t>& perm,
                                    const PartitionVector& partition,
                                    int devices_per_node) {
  const int k = partition.parts();
  const auto node_of = [&](int part) {
    return devices_per_node > 0 ? part / devices_per_node : 0;
  };
  PartitionCutStats stats;
  std::vector<std::unordered_set<std::uint32_t>> ghosts(
      static_cast<std::size_t>(k) * static_cast<std::size_t>(k));
  std::vector<std::int64_t> part_nnz(static_cast<std::size_t>(k), 0);
  for (std::int64_t u = 0; u < a.rows(); ++u) {
    const std::uint32_t nu = perm[static_cast<std::size_t>(u)];
    const int pu = partition.part_of(nu);
    for (std::int64_t e = a.row_ptr()[static_cast<std::size_t>(u)];
         e < a.row_ptr()[static_cast<std::size_t>(u) + 1]; ++e) {
      const std::uint32_t nv = perm[a.col_idx()[static_cast<std::size_t>(e)]];
      const int pv = partition.part_of(nv);
      ++part_nnz[static_cast<std::size_t>(pu)];
      if (pu == pv) continue;
      ++stats.cut_edges;
      if (node_of(pu) != node_of(pv)) ++stats.inter_node_cut_edges;
      ghosts[static_cast<std::size_t>(pu) * static_cast<std::size_t>(k) +
             static_cast<std::size_t>(pv)]
          .insert(nv);
    }
  }
  double density_sum = 0.0;
  for (int r = 0; r < k; ++r) {
    for (int s = 0; s < k; ++s) {
      if (r == s) continue;
      const auto count = static_cast<std::int64_t>(
          ghosts[static_cast<std::size_t>(r) * static_cast<std::size_t>(k) +
                 static_cast<std::size_t>(s)]
              .size());
      stats.ghost_rows += count;
      if (node_of(r) != node_of(s)) stats.inter_node_ghost_rows += count;
      if (partition.size(s) > 0) {
        density_sum +=
            static_cast<double>(count) / static_cast<double>(partition.size(s));
      }
    }
  }
  if (k > 1) density_sum /= static_cast<double>(k) * (k - 1);
  stats.avg_ghost_density = density_sum;
  const double mean =
      static_cast<double>(a.nnz()) / static_cast<double>(std::max(1, k));
  stats.imbalance =
      mean > 0.0
          ? static_cast<double>(
                *std::max_element(part_nnz.begin(), part_nnz.end())) /
                mean
          : 1.0;
  return stats;
}

TEST(Partitioner, PermIsBijectionAndPartitionCoversEveryMode) {
  const sparse::Csr a = clustered_graph(500);
  const PartMode modes[] = {PartMode::kRandom, PartMode::kBalanced,
                            PartMode::kLocality, PartMode::kHier,
                            PartMode::kAuto};
  for (const PartMode mode : modes) {
    PartitionerOptions opt;
    opt.parts = 4;
    opt.devices_per_node = 2;
    opt.seed = 3;
    const PartitionResult result = plan_partition(a, mode, opt);
    ASSERT_EQ(result.perm.size(), static_cast<std::size_t>(a.rows()))
        << part_mode_name(mode);
    std::vector<std::uint8_t> hit(result.perm.size(), 0);
    for (const std::uint32_t v : result.perm) {
      ASSERT_LT(v, hit.size());
      ASSERT_EQ(hit[v], 0) << "duplicate image " << v;
      hit[v] = 1;
    }
    EXPECT_EQ(result.partition.parts(), 4);
    EXPECT_EQ(result.partition.total(), a.rows());
    for (std::int64_t v = 0; v < a.rows(); ++v) {
      const int owner = result.partition.part_of(v);
      EXPECT_GE(v, result.partition.begin(owner));
      EXPECT_LT(v, result.partition.end(owner));
    }
    EXPECT_NE(result.mode, PartMode::kAuto) << "kAuto must resolve";
  }
}

TEST(Partitioner, LocalityCutsFewerEdgesAndGhostsThanRandom) {
  const sparse::Csr a = clustered_graph();
  PartitionerOptions opt;
  opt.parts = 8;
  opt.seed = 11;
  const PartitionResult random = plan_partition(a, PartMode::kRandom, opt);
  const PartitionResult locality = plan_partition(a, PartMode::kLocality, opt);
  const PartitionCutStats rs =
      partition_cut_stats(a, random.perm, random.partition, 0);
  const PartitionCutStats ls =
      partition_cut_stats(a, locality.perm, locality.partition, 0);
  EXPECT_LT(ls.cut_edges, rs.cut_edges);
  EXPECT_LT(ls.ghost_rows, rs.ghost_rows);
  EXPECT_LT(ls.avg_ghost_density, rs.avg_ghost_density);
}

TEST(Partitioner, SlackIsRespected) {
  const sparse::Csr a = clustered_graph(2000, 0.85, 1.0);
  for (const double slack : {1.05, 1.15, 1.3}) {
    PartitionerOptions opt;
    opt.parts = 8;
    opt.slack = slack;
    opt.seed = 5;
    const PartitionResult result = plan_partition(a, PartMode::kLocality, opt);
    const PartitionCutStats stats =
        partition_cut_stats(a, result.perm, result.partition, 0);
    EXPECT_LE(stats.imbalance, slack + 1e-9) << "slack " << slack;
  }
}

TEST(Partitioner, CutStatsMatchBruteForceAndGridRecount) {
  const sparse::Csr a = clustered_graph(700);
  PartitionerOptions opt;
  opt.parts = 4;
  opt.devices_per_node = 2;
  opt.seed = 17;
  for (const PartMode mode : {PartMode::kRandom, PartMode::kLocality,
                              PartMode::kHier}) {
    const PartitionResult result = plan_partition(a, mode, opt);
    const PartitionCutStats fast =
        partition_cut_stats(a, result.perm, result.partition, 2);
    const PartitionCutStats brute =
        brute_force_stats(a, result.perm, result.partition, 2);
    EXPECT_EQ(fast.cut_edges, brute.cut_edges) << part_mode_name(mode);
    EXPECT_EQ(fast.inter_node_cut_edges, brute.inter_node_cut_edges);
    EXPECT_EQ(fast.ghost_rows, brute.ghost_rows);
    EXPECT_EQ(fast.inter_node_ghost_rows, brute.inter_node_ghost_rows);
    EXPECT_NEAR(fast.avg_ghost_density, brute.avg_ghost_density, 1e-12);
    EXPECT_NEAR(fast.imbalance, brute.imbalance, 1e-12);

    const sparse::Csr permuted = a.permute_symmetric(result.perm);
    const TileGrid grid = make_tile_grid(permuted, result.partition);
    const PartitionCutStats from_grid = grid_cut_stats(grid, 2);
    EXPECT_EQ(from_grid.cut_edges, brute.cut_edges);
    EXPECT_EQ(from_grid.ghost_rows, brute.ghost_rows);
    EXPECT_EQ(from_grid.inter_node_ghost_rows, brute.inter_node_ghost_rows);
  }
}

TEST(Partitioner, BalancedModeMatchesBalancedNnzCuts) {
  const sparse::Csr a = clustered_graph(900);
  PartitionerOptions opt;
  opt.parts = 6;
  const PartitionResult result = plan_partition(a, PartMode::kBalanced, opt);
  EXPECT_TRUE(std::is_sorted(result.perm.begin(), result.perm.end()))
      << "balanced keeps the natural order";
  const PartitionVector expected = PartitionVector::balanced_nnz(a, 6);
  ASSERT_EQ(result.partition.parts(), expected.parts());
  for (int i = 0; i < expected.parts(); ++i) {
    EXPECT_EQ(result.partition.begin(i), expected.begin(i)) << "part " << i;
  }
}

TEST(Partitioner, HierReducesInterNodeGhostsVersusRandom) {
  const sparse::Csr a = clustered_graph();
  PartitionerOptions opt;
  opt.parts = 8;
  opt.devices_per_node = 4;
  opt.seed = 23;
  const PartitionResult random = plan_partition(a, PartMode::kRandom, opt);
  const PartitionResult hier = plan_partition(a, PartMode::kHier, opt);
  const PartitionCutStats rs =
      partition_cut_stats(a, random.perm, random.partition, 4);
  const PartitionCutStats hs =
      partition_cut_stats(a, hier.perm, hier.partition, 4);
  EXPECT_LT(hs.inter_node_ghost_rows, rs.inter_node_ghost_rows);
  EXPECT_LT(hs.inter_node_cut_edges, rs.inter_node_cut_edges);
}

TEST(Partitioner, AutoResolvesToOneOfItsCandidatesBitwise) {
  const sparse::Csr a = clustered_graph(800);
  PartitionerOptions opt;
  opt.parts = 8;
  opt.devices_per_node = 4;
  opt.inter_node_cost = 8.0;
  opt.seed = 29;
  const PartitionResult chosen = plan_partition(a, PartMode::kAuto, opt);
  ASSERT_TRUE(chosen.mode == PartMode::kRandom ||
              chosen.mode == PartMode::kLocality ||
              chosen.mode == PartMode::kHier);
  const PartitionResult direct = plan_partition(a, chosen.mode, opt);
  EXPECT_EQ(chosen.perm, direct.perm);
  for (int i = 0; i < chosen.partition.parts(); ++i) {
    EXPECT_EQ(chosen.partition.begin(i), direct.partition.begin(i));
  }
}

TEST(Partitioner, SameSeedIsBitwiseDeterministic) {
  const sparse::Csr a = clustered_graph(600);
  for (const PartMode mode : {PartMode::kRandom, PartMode::kLocality,
                              PartMode::kHier, PartMode::kAuto}) {
    PartitionerOptions opt;
    opt.parts = 8;
    opt.devices_per_node = 4;
    opt.seed = 31;
    const PartitionResult a1 = plan_partition(a, mode, opt);
    const PartitionResult a2 = plan_partition(a, mode, opt);
    EXPECT_EQ(a1.perm, a2.perm) << part_mode_name(mode);
    EXPECT_EQ(a1.mode, a2.mode);
  }
}

TEST(TileGridPlanCache, SurvivesMoveAndStaysConsistentAcrossCopies) {
  const sparse::Csr a = clustered_graph(300);
  TileGrid grid = make_tile_grid(a, PartitionVector::uniform(a.rows(), 3));
  EXPECT_FALSE(grid.plan_ready(0, 1));
  (void)grid.plan(0, 1);
  ASSERT_TRUE(grid.plan_ready(0, 1));

  // Moving (how DistSpmm takes ownership) keeps the tile storage, so plans
  // built before the move stay valid — no silent re-inspection.
  const TileGrid moved = std::move(grid);
  EXPECT_TRUE(moved.plan_ready(0, 1))
      << "plan built before the move must survive it";

  // A deep copy gets fresh tile storage; the shared cache must notice the
  // structural-identity mismatch (not serve the stale plan) and rebuild
  // consistently on first use.
  const TileGrid copy = moved;  // NOLINT(performance-unnecessary-copy)
  EXPECT_FALSE(copy.plan_ready(0, 1));
  (void)copy.plan(0, 1);
  EXPECT_TRUE(copy.plan_ready(0, 1));
}

graph::Dataset trainer_dataset() {
  graph::DatasetSpec spec = graph::arxiv();
  spec.n = 320;
  spec.feature_dim = 16;
  spec.num_classes = 4;
  spec.avg_degree = 8.0;
  spec.clustering = 0.85;
  graph::DatasetOptions options;
  options.seed = 37;
  return graph::make_dataset(spec, options);
}

TEST(TrainerPartitioner, SameModeIsBitwiseDeterministic) {
  const graph::Dataset ds = trainer_dataset();
  for (const PartMode mode : {PartMode::kRandom, PartMode::kLocality}) {
    std::vector<double> losses[2];
    for (int run = 0; run < 2; ++run) {
      TrainConfig config;
      config.hidden_dims = {16};
      config.seed = 13;
      config.part_mode = mode;
      sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
      MgGcnTrainer trainer(machine, ds, config);
      for (int epoch = 0; epoch < 2; ++epoch) {
        losses[run].push_back(trainer.train_epoch().loss);
      }
    }
    EXPECT_EQ(losses[0], losses[1]) << part_mode_name(mode);
  }
}

TEST(TrainerPartitioner, AutoMatchesItsResolvedModeBitwise) {
  const graph::Dataset ds = trainer_dataset();
  TrainConfig config;
  config.hidden_dims = {16};
  config.seed = 13;
  config.part_mode = PartMode::kAuto;
  sim::Machine machine(sim::dgx_a100_cluster(2), 16,
                       sim::ExecutionMode::kReal);
  MgGcnTrainer trainer(machine, ds, config);
  const double auto_loss = trainer.train_epoch().loss;
  const PartMode resolved = trainer.part_mode_used();
  ASSERT_NE(resolved, PartMode::kAuto);

  TrainConfig direct_config = config;
  direct_config.part_mode = resolved;
  sim::Machine direct_machine(sim::dgx_a100_cluster(2), 16,
                              sim::ExecutionMode::kReal);
  MgGcnTrainer direct(direct_machine, ds, direct_config);
  EXPECT_EQ(direct.train_epoch().loss, auto_loss);
  EXPECT_EQ(direct.part_mode_used(), resolved);

  const PartitionCutStats& stats = trainer.partition_stats();
  EXPECT_LE(stats.imbalance, config.partition_slack + 1e-9);
}

}  // namespace
}  // namespace mggcn::core
