// Neighborhood sampling — the mini-batch alternative the paper argues
// against (§1: "starting from the mini-batch nodes, it is possible to reach
// almost every single node in the graph in just a few hops, also known as
// the neighborhood explosion phenomenon").
//
// NeighborSampler implements DistDGL-style fanout-capped k-hop expansion;
// the explosion statistics it produces drive bench_minibatch_explosion,
// which quantifies the per-epoch work multiplier of mini-batch training
// versus full-batch — the paper's motivating comparison.
#pragma once

#include <cstdint>
#include <vector>

#include "sparse/csr.hpp"
#include "util/rng.hpp"

namespace mggcn::graph {

/// One sampled computation graph for a batch of seed vertices.
struct SampledSubgraph {
  /// Frontier vertex ids per hop, each ascending and duplicate-free; layer 0
  /// is the seed set, layer k the vertices needed to compute layer k-1's
  /// aggregation.
  std::vector<std::vector<std::uint32_t>> layers;
  /// Sampled edges per hop (edges from layer k+1 into layer k).
  std::vector<std::int64_t> edges_per_hop;
  /// The sampled aggregation operators ("blocks"): blocks[k] is a
  /// layers[k].size() x layers[k+1].size() CSR in LOCAL indices whose row r
  /// holds the sampled in-neighbors of layers[k][r], with mean-aggregation
  /// weights (1/sampled-degree) — what a GraphSAGE/DistDGL step multiplies.
  std::vector<sparse::Csr> blocks;

  [[nodiscard]] int hops() const {
    return static_cast<int>(layers.size()) - 1;
  }
  [[nodiscard]] std::int64_t total_vertices() const;
  [[nodiscard]] std::int64_t total_edges() const;
};

class NeighborSampler {
 public:
  /// `fanout[k]` caps the neighbors sampled per vertex at hop k; a value
  /// <= 0 means "all neighbors" (no sampling at that hop).
  NeighborSampler(const sparse::Csr& adjacency,
                  std::vector<std::int64_t> fanout);

  /// Expands `seeds` over hops() hops.
  [[nodiscard]] SampledSubgraph sample(
      const std::vector<std::uint32_t>& seeds, util::Rng& rng) const;

  /// Uniformly random batch of `batch_size` distinct seeds.
  [[nodiscard]] std::vector<std::uint32_t> random_batch(
      std::int64_t batch_size, util::Rng& rng) const;

  [[nodiscard]] int hops() const { return static_cast<int>(fanout_.size()); }

 private:
  const sparse::Csr& adjacency_;
  std::vector<std::int64_t> fanout_;
};

/// Aggregate explosion statistics over `num_batches` random batches:
/// mean touched vertices/edges of a batch's computation graph, and the
/// per-epoch work multiplier relative to full-batch training (which
/// touches every edge exactly once per layer).
struct ExplosionStats {
  double mean_vertices = 0.0;
  double mean_edges = 0.0;
  /// (edges per mini-batch epoch) / (edges per full-batch epoch).
  double epoch_work_multiplier = 0.0;
};

ExplosionStats measure_neighborhood_explosion(
    const sparse::Csr& adjacency, const std::vector<std::int64_t>& fanout,
    std::int64_t batch_size, int num_batches, util::Rng& rng);

}  // namespace mggcn::graph
