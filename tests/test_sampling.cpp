// Tests for the neighbor sampler and the §1 neighborhood-explosion
// statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "graph/generators.hpp"
#include "graph/sampling.hpp"
#include "util/rng.hpp"

namespace mggcn::graph {
namespace {

sparse::Csr dense_community_graph(std::int64_t n, double degree,
                                  std::uint64_t seed) {
  util::Rng rng(seed);
  BterParams params{.n = n, .avg_degree = degree, .degree_sigma = 1.0,
                    .clustering = 0.5};
  return sparse::Csr::from_coo(bter_like(params, rng).edges);
}

TEST(NeighborSampler, RespectsFanoutCap) {
  const sparse::Csr adj = dense_community_graph(500, 20.0, 1);
  const NeighborSampler sampler(adj, {4});
  util::Rng rng(2);
  const auto seeds = sampler.random_batch(16, rng);
  const SampledSubgraph sub = sampler.sample(seeds, rng);
  ASSERT_EQ(sub.hops(), 1);
  // Every seed contributes at most 4 sampled edges.
  EXPECT_LE(sub.edges_per_hop[0], 4 * static_cast<std::int64_t>(seeds.size()));
  EXPECT_GT(sub.edges_per_hop[0], 0);
}

TEST(NeighborSampler, UncappedHopTakesAllNeighbors) {
  const sparse::Csr adj = dense_community_graph(300, 8.0, 3);
  const NeighborSampler sampler(adj, {0});  // 0 = no cap
  util::Rng rng(4);
  const std::vector<std::uint32_t> seeds = {7};
  const SampledSubgraph sub = sampler.sample(seeds, rng);
  EXPECT_EQ(sub.edges_per_hop[0], adj.row_nnz(7));
  EXPECT_EQ(static_cast<std::int64_t>(sub.layers[1].size()),
            adj.row_nnz(7));
}

TEST(NeighborSampler, LayersAreDeduplicatedAndSorted) {
  const sparse::Csr adj = dense_community_graph(400, 12.0, 5);
  const NeighborSampler sampler(adj, {6, 6});
  util::Rng rng(6);
  const SampledSubgraph sub =
      sampler.sample(sampler.random_batch(20, rng), rng);
  for (const auto& layer : sub.layers) {
    std::set<std::uint32_t> unique(layer.begin(), layer.end());
    EXPECT_EQ(unique.size(), layer.size());
    EXPECT_TRUE(std::is_sorted(layer.begin(), layer.end()));
  }
}

TEST(NeighborSampler, DeterministicGivenSeed) {
  const sparse::Csr adj = dense_community_graph(400, 12.0, 7);
  const NeighborSampler sampler(adj, {5, 5});
  util::Rng rng1(8), rng2(8);
  const auto a = sampler.sample(sampler.random_batch(10, rng1), rng1);
  const auto b = sampler.sample(sampler.random_batch(10, rng2), rng2);
  EXPECT_EQ(a.layers, b.layers);
  EXPECT_EQ(a.edges_per_hop, b.edges_per_hop);
}

TEST(NeighborSampler, RandomBatchIsDistinct) {
  const sparse::Csr adj = dense_community_graph(200, 6.0, 9);
  const NeighborSampler sampler(adj, {3});
  util::Rng rng(10);
  const auto batch = sampler.random_batch(50, rng);
  std::set<std::uint32_t> unique(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(), 50u);
}

TEST(Explosion, FrontierGrowsWithHops) {
  const sparse::Csr adj = dense_community_graph(2000, 30.0, 11);
  const NeighborSampler sampler(adj, {10, 10, 10});
  util::Rng rng(12);
  const SampledSubgraph sub =
      sampler.sample(sampler.random_batch(8, rng), rng);
  // Each hop's frontier should outgrow the previous one until saturation.
  EXPECT_GT(sub.layers[1].size(), sub.layers[0].size());
  EXPECT_GT(sub.layers[2].size(), sub.layers[1].size());
}

TEST(Explosion, WorkMultiplierGrowsWithDepth) {
  // The §1 claim: the per-epoch work of mini-batch training grows rapidly
  // with the number of hops, while full-batch work is constant per layer.
  const sparse::Csr adj = dense_community_graph(3000, 25.0, 13);
  util::Rng rng(14);
  const ExplosionStats one_hop =
      measure_neighborhood_explosion(adj, {10}, 32, 5, rng);
  const ExplosionStats three_hops =
      measure_neighborhood_explosion(adj, {10, 10, 10}, 32, 5, rng);
  EXPECT_GT(three_hops.mean_vertices, 3.0 * one_hop.mean_vertices);
  EXPECT_GT(three_hops.epoch_work_multiplier,
            one_hop.epoch_work_multiplier);
}

// A 4-vertex graph where vertex 0 has parallel edges: three copies of
// 0->1 plus 0->2 and 0->3 (5 edge slots, 3 distinct neighbors).
sparse::Csr multi_edge_graph() {
  return sparse::Csr(4, 4, {0, 5, 6, 7, 8}, {1, 1, 1, 2, 3, 0, 0, 0},
                     {1, 1, 1, 1, 1, 1, 1, 1});
}

TEST(NeighborSampler, UncappedHopDeduplicatesParallelEdges) {
  const sparse::Csr adj = multi_edge_graph();
  const NeighborSampler sampler(adj, {0});  // <= 0 = no cap
  util::Rng rng(17);
  const SampledSubgraph sub = sampler.sample({0}, rng);
  // Vertex 0 has 5 edge slots but only 3 distinct neighbors: the block
  // must hold one aggregation edge per neighbor, not one per slot.
  EXPECT_EQ(sub.edges_per_hop[0], 3);
  EXPECT_EQ(sub.layers[1], (std::vector<std::uint32_t>{1, 2, 3}));
  ASSERT_EQ(sub.blocks[0].nnz(), 3);
  for (const float w : sub.blocks[0].values()) {
    EXPECT_FLOAT_EQ(w, 1.0f / 3.0f);
  }
}

TEST(NeighborSampler, FanoutAboveDegreeDoesNotResampleDuplicates) {
  const sparse::Csr adj = multi_edge_graph();
  // Fanout 10 exceeds vertex 0's distinct degree (3) and its slot count
  // (5): the sampler must take each neighbor exactly once.
  const NeighborSampler sampler(adj, {10});
  util::Rng rng(18);
  const SampledSubgraph sub = sampler.sample({0}, rng);
  EXPECT_EQ(sub.edges_per_hop[0], 3);
  EXPECT_EQ(sub.blocks[0].nnz(), 3);
}

TEST(NeighborSampler, CappedHopOnParallelEdgesYieldsDistinctTargets) {
  const sparse::Csr adj = multi_edge_graph();
  // cap 2 < degree 5: Fisher-Yates picks edge slots, which may collide on
  // the duplicated target — sampled neighbors must still be distinct.
  const NeighborSampler sampler(adj, {2});
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    util::Rng rng(seed);
    const SampledSubgraph sub = sampler.sample({0}, rng);
    std::set<std::uint32_t> unique(sub.layers[1].begin(),
                                   sub.layers[1].end());
    EXPECT_EQ(unique.size(), sub.layers[1].size());
    EXPECT_EQ(sub.edges_per_hop[0],
              static_cast<std::int64_t>(sub.blocks[0].nnz()));
    EXPECT_LE(sub.edges_per_hop[0], 2);
  }
}

TEST(NeighborSampler, RandomBatchIsSortedAndSeedStable) {
  const sparse::Csr adj = dense_community_graph(500, 10.0, 19);
  const NeighborSampler sampler(adj, {4});
  util::Rng rng1(20), rng2(20);
  const auto a = sampler.random_batch(64, rng1);
  const auto b = sampler.random_batch(64, rng2);
  // Sorted output makes the batch independent of hash-set iteration
  // order, so a seed pins it bit-identically across runs and platforms.
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(a, b);
}

TEST(NeighborSampler, SeededSamplingBitIdenticalIncludingBlocks) {
  const sparse::Csr adj = dense_community_graph(600, 14.0, 21);
  const NeighborSampler sampler(adj, {7, 7});
  util::Rng rng1(22), rng2(22);
  const auto a = sampler.sample(sampler.random_batch(24, rng1), rng1);
  const auto b = sampler.sample(sampler.random_batch(24, rng2), rng2);
  ASSERT_EQ(a.layers, b.layers);
  ASSERT_EQ(a.edges_per_hop, b.edges_per_hop);
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (std::size_t k = 0; k < a.blocks.size(); ++k) {
    EXPECT_TRUE(std::equal(a.blocks[k].row_ptr().begin(),
                           a.blocks[k].row_ptr().end(),
                           b.blocks[k].row_ptr().begin()));
    EXPECT_TRUE(std::equal(a.blocks[k].col_idx().begin(),
                           a.blocks[k].col_idx().end(),
                           b.blocks[k].col_idx().begin()));
    EXPECT_TRUE(std::equal(a.blocks[k].values().begin(),
                           a.blocks[k].values().end(),
                           b.blocks[k].values().begin()));
  }
}

// The sampler as first written: hash-set dedup and a materialized O(degree)
// Fisher-Yates per capped vertex. The production sampler must reproduce it
// bit for bit (same RNG draws, same picks, same blocks).
SampledSubgraph reference_sample(const sparse::Csr& adj,
                                 const std::vector<std::int64_t>& fanout,
                                 const std::vector<std::uint32_t>& seeds,
                                 util::Rng& rng) {
  SampledSubgraph out;
  std::vector<std::uint32_t> frontier = seeds;
  std::sort(frontier.begin(), frontier.end());
  frontier.erase(std::unique(frontier.begin(), frontier.end()),
                 frontier.end());
  out.layers.push_back(frontier);
  const auto row_ptr = adj.row_ptr();
  const auto col_idx = adj.col_idx();
  for (const std::int64_t cap : fanout) {
    std::unordered_set<std::uint32_t> next;
    std::vector<std::vector<std::uint32_t>> sampled(frontier.size());
    std::int64_t edges = 0;
    for (std::size_t f = 0; f < frontier.size(); ++f) {
      const auto begin = row_ptr[frontier[f]];
      const auto end = row_ptr[frontier[f] + 1];
      const std::int64_t degree = end - begin;
      if (cap <= 0 || degree <= cap) {
        for (auto e = begin; e < end; ++e) {
          sampled[f].push_back(col_idx[static_cast<std::size_t>(e)]);
        }
      } else {
        std::vector<std::int64_t> offsets(static_cast<std::size_t>(degree));
        for (std::int64_t i = 0; i < degree; ++i) {
          offsets[static_cast<std::size_t>(i)] = begin + i;
        }
        for (std::int64_t i = 0; i < cap; ++i) {
          const auto pick =
              i + static_cast<std::int64_t>(rng.uniform_index(
                      static_cast<std::uint64_t>(degree - i)));
          std::swap(offsets[static_cast<std::size_t>(i)],
                    offsets[static_cast<std::size_t>(pick)]);
          sampled[f].push_back(col_idx[static_cast<std::size_t>(
              offsets[static_cast<std::size_t>(i)])]);
        }
      }
      std::sort(sampled[f].begin(), sampled[f].end());
      sampled[f].erase(std::unique(sampled[f].begin(), sampled[f].end()),
                       sampled[f].end());
      next.insert(sampled[f].begin(), sampled[f].end());
      edges += static_cast<std::int64_t>(sampled[f].size());
    }
    out.edges_per_hop.push_back(edges);
    std::vector<std::uint32_t> next_layer(next.begin(), next.end());
    std::sort(next_layer.begin(), next_layer.end());
    std::unordered_map<std::uint32_t, std::uint32_t> local;
    for (std::uint32_t i = 0; i < next_layer.size(); ++i) {
      local.emplace(next_layer[i], i);
    }
    sparse::Coo block(static_cast<std::int64_t>(frontier.size()),
                      static_cast<std::int64_t>(next_layer.size()));
    for (std::size_t f = 0; f < frontier.size(); ++f) {
      if (sampled[f].empty()) continue;
      const float w = 1.0f / static_cast<float>(sampled[f].size());
      for (const std::uint32_t u : sampled[f]) {
        block.add(static_cast<std::uint32_t>(f), local.at(u), w);
      }
    }
    out.blocks.push_back(sparse::Csr::from_coo(block));
    frontier = std::move(next_layer);
    out.layers.push_back(frontier);
  }
  return out;
}

std::vector<std::uint32_t> reference_random_batch(std::int64_t n,
                                                  std::int64_t batch_size,
                                                  util::Rng& rng) {
  std::unordered_set<std::uint32_t> picked;
  while (static_cast<std::int64_t>(picked.size()) < batch_size) {
    picked.insert(static_cast<std::uint32_t>(
        rng.uniform_index(static_cast<std::uint64_t>(n))));
  }
  std::vector<std::uint32_t> batch(picked.begin(), picked.end());
  std::sort(batch.begin(), batch.end());
  return batch;
}

void expect_identical(const SampledSubgraph& a, const SampledSubgraph& b) {
  ASSERT_EQ(a.layers, b.layers);
  ASSERT_EQ(a.edges_per_hop, b.edges_per_hop);
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (std::size_t k = 0; k < a.blocks.size(); ++k) {
    // Csr equality compares shape, offsets, columns and value bits.
    EXPECT_TRUE(a.blocks[k] == b.blocks[k]) << "block " << k;
  }
}

TEST(NeighborSampler, MatchesReferenceOverSeededSweep) {
  // Heavy-tailed degrees (hubs far above the cap), a parallel-edge graph,
  // uncapped hops, caps above and below the degrees, large and small
  // batches: every case must draw the same picks from the same stream.
  const std::vector<sparse::Csr> graphs = {
      dense_community_graph(2000, 30.0, 31),
      dense_community_graph(700, 6.0, 32),
      multi_edge_graph(),
  };
  const std::vector<std::vector<std::int64_t>> fanouts = {
      {10, 10}, {2, 25, 5}, {0, 3}, {1}, {40, 40}};
  for (const auto& adj : graphs) {
    for (const auto& fanout : fanouts) {
      const NeighborSampler sampler(adj, fanout);
      for (std::uint64_t seed = 0; seed < 6; ++seed) {
        const std::int64_t batch =
            std::min<std::int64_t>(adj.rows(), seed % 2 == 0 ? 3 : 64);
        util::Rng rng(seed), ref_rng(seed);
        for (int round = 0; round < 3; ++round) {
          const auto seeds = sampler.random_batch(batch, rng);
          ASSERT_EQ(seeds, reference_random_batch(adj.rows(), batch, ref_rng));
          const SampledSubgraph got = sampler.sample(seeds, rng);
          const SampledSubgraph want =
              reference_sample(adj, fanout, seeds, ref_rng);
          expect_identical(got, want);
          // Both streams must also end in the same state.
          ASSERT_EQ(rng(), ref_rng());
        }
      }
    }
  }
}

TEST(NeighborSampler, SamplersOfDifferentSizesShareThreadScratch) {
  // A small graph after a large one (and back) must not see stale marks.
  const sparse::Csr big = dense_community_graph(3000, 20.0, 33);
  const sparse::Csr small = dense_community_graph(90, 8.0, 34);
  for (const sparse::Csr* adj : {&big, &small, &big}) {
    const NeighborSampler sampler(*adj, {5, 5});
    util::Rng rng(35), ref_rng(35);
    const auto seeds = sampler.random_batch(30, rng);
    ASSERT_EQ(seeds, reference_random_batch(adj->rows(), 30, ref_rng));
    expect_identical(sampler.sample(seeds, rng),
                     reference_sample(*adj, {5, 5}, seeds, ref_rng));
  }
}

TEST(NeighborSampler, TotalVerticesCountsTheUnionOfLayers) {
  const sparse::Csr adj = dense_community_graph(800, 12.0, 36);
  const NeighborSampler sampler(adj, {6, 6, 6});
  util::Rng rng(37);
  const SampledSubgraph sub =
      sampler.sample(sampler.random_batch(25, rng), rng);
  std::set<std::uint32_t> unique;
  for (const auto& layer : sub.layers) {
    unique.insert(layer.begin(), layer.end());
  }
  EXPECT_EQ(sub.total_vertices(), static_cast<std::int64_t>(unique.size()));
  EXPECT_EQ(SampledSubgraph{}.total_vertices(), 0);
}

TEST(Explosion, SmallBatchesAreRedundantWork) {
  // With small batches and multiple hops, the summed mini-batch work per
  // epoch exceeds the full-batch epoch — the paper's argument for
  // full-batch multi-GPU training.
  const sparse::Csr adj = dense_community_graph(3000, 25.0, 15);
  util::Rng rng(16);
  const ExplosionStats stats =
      measure_neighborhood_explosion(adj, {15, 15, 15}, 16, 5, rng);
  EXPECT_GT(stats.epoch_work_multiplier, 1.0);
}

}  // namespace
}  // namespace mggcn::graph
