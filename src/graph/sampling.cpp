#include "graph/sampling.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <memory>

#include "util/error.hpp"

namespace mggcn::graph {

namespace {

/// Per-thread scratch reused across sample()/random_batch() calls, sized to
/// the largest graph the thread has sampled. `seen` holds one bit per vertex
/// and is all-zero between calls (every user clears the bits it set);
/// `local` maps a next-layer vertex to its local id and is written before it
/// is read, so it is never initialized. Thread-local rather than per-sampler
/// so const samplers stay safe to share between threads.
struct Scratch {
  std::vector<std::uint64_t> seen;
  std::unique_ptr<std::uint32_t[]> local;
  std::size_t vertices = 0;

  /// Marks `v`; true when it was not marked before.
  bool mark(std::uint32_t v) {
    std::uint64_t& word = seen[v >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }

  /// Replaces `marked` (the vertices marked since the last drain) by the
  /// same set in ascending order and clears their bits. A sweep of the
  /// bitmap (n/64 words) yields them sorted, and for the batch sizes the
  /// engines sample it is cheaper than sorting the list.
  void drain_sorted(std::vector<std::uint32_t>& marked) {
    marked.clear();
    for (std::size_t w = 0; w < (vertices + 63) / 64; ++w) {
      for (std::uint64_t bits = seen[w]; bits != 0; bits &= bits - 1) {
        marked.push_back(static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
      }
      seen[w] = 0;
    }
  }
};

Scratch& scratch_for(std::int64_t n) {
  thread_local Scratch scratch;
  const auto vertices = static_cast<std::size_t>(n);
  if (scratch.vertices < vertices) {
    scratch.seen.assign((vertices + 63) / 64, 0);
    scratch.local = std::make_unique_for_overwrite<std::uint32_t[]>(vertices);
    scratch.vertices = vertices;
  }
  return scratch;
}

/// A partial Fisher-Yates shuffle of the positions [0, degree) that stores
/// only the displaced entries: every position holds its own index until a
/// swap moves another one in. draw(i) performs step i exactly as a
/// materialized offsets array would (swap position i with a uniform pick
/// in [i, degree), yield the picked entry), with the same RNG draws, so the
/// picks match the O(degree) shuffle in O(cap) time and space.
class SparseShuffle {
 public:
  /// Prepares for up to `cap` draws from a fresh identity permutation.
  void reset(std::int64_t cap) {
    const auto slots = std::bit_ceil(static_cast<std::size_t>(2 * cap));
    if (keys_.size() != slots) {
      keys_.assign(slots, 0);
      values_.assign(slots, 0);
      stamp_.assign(slots, 0);
      shift_ = 64 - std::countr_zero(slots);
      generation_ = 0;
    }
    if (++generation_ == 0) {  // wrapped: forget every stale stamp
      std::fill(stamp_.begin(), stamp_.end(), 0);
      generation_ = 1;
    }
  }

  std::int64_t draw(std::int64_t i, std::int64_t degree, util::Rng& rng) {
    const auto pick =
        i + static_cast<std::int64_t>(rng.uniform_index(
                static_cast<std::uint64_t>(degree - i)));
    const std::int64_t chosen = value(pick);
    // Position i is never read again (later picks are > i), so only the
    // pick's slot needs the swapped-out entry.
    const std::int64_t displaced = value(i);
    slot(pick) = displaced;
    return chosen;
  }

 private:
  std::size_t find(std::int64_t pos) const {
    const std::size_t mask = keys_.size() - 1;
    std::size_t h = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(pos) * 0x9e3779b97f4a7c15ULL) >> shift_);
    while (stamp_[h] == generation_ && keys_[h] != pos) h = (h + 1) & mask;
    return h;
  }
  std::int64_t value(std::int64_t pos) const {
    const std::size_t h = find(pos);
    return stamp_[h] == generation_ ? values_[h] : pos;
  }
  std::int64_t& slot(std::int64_t pos) {
    const std::size_t h = find(pos);
    stamp_[h] = generation_;
    keys_[h] = pos;
    return values_[h];
  }

  std::vector<std::int64_t> keys_;
  std::vector<std::int64_t> values_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t generation_ = 0;
  int shift_ = 63;
};

}  // namespace

std::int64_t SampledSubgraph::total_vertices() const {
  // Vertices appearing in several layers are counted once; the layers are
  // ascending, so their union is a running sorted merge.
  std::vector<std::uint32_t> merged;
  std::vector<std::uint32_t> next;
  for (const auto& layer : layers) {
    next.clear();
    std::set_union(merged.begin(), merged.end(), layer.begin(), layer.end(),
                   std::back_inserter(next));
    merged.swap(next);
  }
  return static_cast<std::int64_t>(merged.size());
}

std::int64_t SampledSubgraph::total_edges() const {
  std::int64_t total = 0;
  for (const auto e : edges_per_hop) total += e;
  return total;
}

NeighborSampler::NeighborSampler(const sparse::Csr& adjacency,
                                 std::vector<std::int64_t> fanout)
    : adjacency_(adjacency), fanout_(std::move(fanout)) {
  MGGCN_CHECK_MSG(!fanout_.empty(), "sampler needs at least one hop");
  MGGCN_CHECK_MSG(adjacency_.rows() == adjacency_.cols(),
                  "sampler needs a square adjacency");
}

std::vector<std::uint32_t> NeighborSampler::random_batch(
    std::int64_t batch_size, util::Rng& rng) const {
  const auto n = static_cast<std::uint64_t>(adjacency_.rows());
  MGGCN_CHECK(batch_size >= 1 &&
              batch_size <= static_cast<std::int64_t>(n));
  Scratch& scratch = scratch_for(adjacency_.rows());
  std::vector<std::uint32_t> batch;
  batch.reserve(static_cast<std::size_t>(batch_size));
  while (static_cast<std::int64_t>(batch.size()) < batch_size) {
    const auto v = static_cast<std::uint32_t>(rng.uniform_index(n));
    if (scratch.mark(v)) batch.push_back(v);
  }
  // Sorted, so a seeded batch is a set independent of draw order.
  scratch.drain_sorted(batch);
  return batch;
}

SampledSubgraph NeighborSampler::sample(
    const std::vector<std::uint32_t>& seeds, util::Rng& rng) const {
  SampledSubgraph out;
  std::vector<std::uint32_t> frontier = seeds;
  std::sort(frontier.begin(), frontier.end());
  frontier.erase(std::unique(frontier.begin(), frontier.end()),
                 frontier.end());
  out.layers.push_back(frontier);

  const auto adj_ptr = adjacency_.row_ptr();
  const auto adj_col = adjacency_.col_idx();
  Scratch& scratch = scratch_for(adjacency_.rows());
  SparseShuffle shuffle;

  for (const std::int64_t cap : fanout_) {
    // The sampled neighbors of frontier[f] are ids[row_ptr[f], row_ptr[f+1])
    // in global ids — already the block's CSR layout.
    std::vector<std::int64_t> row_ptr;
    row_ptr.reserve(frontier.size() + 1);
    row_ptr.push_back(0);
    std::vector<std::uint32_t> ids;
    std::vector<std::uint32_t> next_layer;
    for (const std::uint32_t v : frontier) {
      const auto begin = adj_ptr[v];
      const std::int64_t degree = adj_ptr[v + 1] - begin;
      const auto first = static_cast<std::ptrdiff_t>(ids.size());
      if (cap <= 0 || degree <= cap) {
        ids.insert(ids.end(), adj_col.begin() + begin,
                   adj_col.begin() + begin + degree);
      } else {
        // `cap` neighbors without replacement: the first `cap` steps of a
        // Fisher-Yates shuffle over the edge range.
        shuffle.reset(cap);
        for (std::int64_t i = 0; i < cap; ++i) {
          ids.push_back(adj_col[static_cast<std::size_t>(
              begin + shuffle.draw(i, degree, rng))]);
        }
      }
      // A CSR with parallel edges can yield the same target twice — once
      // per edge on the uncapped path, and once per *edge index* from the
      // Fisher-Yates pick. Deduplicate so a sampled neighbor contributes
      // one aggregation edge (and the fanout is not wasted re-sampling
      // it), then count the distinct edges.
      std::sort(ids.begin() + first, ids.end());
      ids.erase(std::unique(ids.begin() + first, ids.end()), ids.end());
      for (auto it = ids.begin() + first; it != ids.end(); ++it) {
        if (scratch.mark(*it)) next_layer.push_back(*it);
      }
      row_ptr.push_back(static_cast<std::int64_t>(ids.size()));
    }
    out.edges_per_hop.push_back(static_cast<std::int64_t>(ids.size()));
    scratch.drain_sorted(next_layer);

    // The aggregation block in local indices with mean-aggregation
    // weights. Each row's ids ascend and local ids follow the sorted next
    // layer, so the rows come out column-sorted.
    for (std::uint32_t i = 0; i < next_layer.size(); ++i) {
      scratch.local[next_layer[i]] = i;
    }
    std::vector<float> values(ids.size());
    for (std::size_t f = 0; f < frontier.size(); ++f) {
      const auto b = static_cast<std::size_t>(row_ptr[f]);
      const auto e = static_cast<std::size_t>(row_ptr[f + 1]);
      if (b == e) continue;
      const float w = 1.0f / static_cast<float>(e - b);
      for (std::size_t k = b; k < e; ++k) {
        ids[k] = scratch.local[ids[k]];
        values[k] = w;
      }
    }
    out.blocks.emplace_back(static_cast<std::int64_t>(frontier.size()),
                            static_cast<std::int64_t>(next_layer.size()),
                            std::move(row_ptr), std::move(ids),
                            std::move(values));

    frontier = std::move(next_layer);
    out.layers.push_back(frontier);
  }
  return out;
}

ExplosionStats measure_neighborhood_explosion(
    const sparse::Csr& adjacency, const std::vector<std::int64_t>& fanout,
    std::int64_t batch_size, int num_batches, util::Rng& rng) {
  MGGCN_CHECK(num_batches >= 1);
  const NeighborSampler sampler(adjacency, fanout);

  double vertices = 0.0;
  double edges = 0.0;
  for (int b = 0; b < num_batches; ++b) {
    const SampledSubgraph sub =
        sampler.sample(sampler.random_batch(batch_size, rng), rng);
    vertices += static_cast<double>(sub.total_vertices());
    edges += static_cast<double>(sub.total_edges());
  }
  ExplosionStats stats;
  stats.mean_vertices = vertices / num_batches;
  stats.mean_edges = edges / num_batches;

  // Per epoch: n/batch batches, each touching mean_edges sampled edges;
  // full batch touches every edge once per layer (hop).
  const double batches_per_epoch =
      static_cast<double>(adjacency.rows()) /
      static_cast<double>(batch_size);
  const double full_batch_edges =
      static_cast<double>(adjacency.nnz()) *
      static_cast<double>(fanout.size());
  stats.epoch_work_multiplier =
      batches_per_epoch * stats.mean_edges / full_batch_edges;
  return stats;
}

}  // namespace mggcn::graph
