#include "core/feature_cache.hpp"

#include <algorithm>
#include <numeric>
#include <queue>

#include "sim/cost_model.hpp"
#include "util/error.hpp"

namespace mggcn::core {

FeatureCache::FeatureCache(sim::Device& device, std::int64_t d,
                           std::int64_t capacity_rows, CacheMode mode)
    : FeatureCache(nullptr, device, d, capacity_rows, mode) {}

FeatureCache::FeatureCache(mem::WorkspacePool* pool, sim::Device& device,
                           std::int64_t d, std::int64_t capacity_rows,
                           CacheMode mode) {
  MGGCN_CHECK_MSG(mode != CacheMode::kAuto,
                  "resolve kAuto through FeatureCache::plan_auto first");
  MGGCN_CHECK(d > 0 && capacity_rows >= 0);
  if (mode == CacheMode::kOff || capacity_rows == 0) return;
  mode_ = mode;
  d_ = d;
  capacity_rows_ = capacity_rows;
  buffer_ = mem::acquire_or_alloc(
      pool, device, static_cast<std::size_t>(capacity_rows * d), "FCACHE");
  slot_vertex_.reserve(static_cast<std::size_t>(capacity_rows));
}

FeatureCache::AutoDecision FeatureCache::plan_auto(
    CacheMode requested, std::int64_t capacity_rows, std::int64_t d,
    const comm::Communicator& comm, const sim::DeviceProfile& device,
    std::uint64_t available_bytes) {
  AutoDecision decision;
  const double row_bytes = static_cast<double>(d) * sizeof(float);

  // A hit reads the pinned row and writes it into the gather block at HBM
  // bandwidth; a miss rides a sendv message over the interconnect (payload
  // + the root's pack traffic — sendv_rows_seconds is exactly what the
  // extraction stage will be charged). Amortize the per-message alpha over
  // a typical miss batch so tiny-alpha fabrics don't flip the decision.
  sim::KernelCost hit_cost;
  hit_cost.stream_bytes = 2.0 * row_bytes;
  hit_cost.launches = 0;
  decision.hit_seconds_per_row = sim::CostModel::seconds(hit_cost, device);
  constexpr int kAmortizedRowsPerMessage = 64;
  decision.miss_seconds_per_row =
      comm.sendv_rows_seconds(
          static_cast<std::uint64_t>(row_bytes) * kAmortizedRowsPerMessage,
          1) /
      kAmortizedRowsPerMessage;

  const auto fit = static_cast<std::int64_t>(
      available_bytes / static_cast<std::uint64_t>(row_bytes));
  decision.capacity_rows = std::max<std::int64_t>(
      0, std::min(capacity_rows, fit));
  decision.mode = requested;

  if (requested == CacheMode::kAuto) {
    // Keep the cache only when the model says a pinned row beats the wire
    // (it always should on a multi-device machine — this is the "auto
    // never loses to off" contract); single-rank communicators have no
    // remote rows to cache.
    const bool wins = comm.size() > 1 && decision.capacity_rows > 0 &&
                      decision.miss_seconds_per_row >
                          decision.hit_seconds_per_row;
    decision.mode = wins ? CacheMode::kFreq : CacheMode::kOff;
  }
  if (decision.mode == CacheMode::kOff) decision.capacity_rows = 0;
  return decision;
}

void FeatureCache::cover(std::span<const std::uint32_t> vertices) {
  if (vertices.empty()) return;
  const auto need =
      static_cast<std::size_t>(
          *std::max_element(vertices.begin(), vertices.end())) +
      1;
  if (slot_of_.size() < need) slot_of_.resize(need, kNoSlot);
  if (mode_ == CacheMode::kFreq && freq_.size() < need) freq_.resize(need, 0);
}

void FeatureCache::prefill(std::span<const std::uint32_t> vertices,
                           std::span<const std::int64_t> scores) {
  if (!enabled()) return;
  MGGCN_CHECK(vertices.size() == scores.size());
  MGGCN_CHECK_MSG(slot_vertex_.empty(), "prefill an empty cache");
  cover(vertices);

  // Only the top `take` are pinned; the order is total (ties: lower id), so
  // partially sorting selects exactly what a full sort would.
  std::vector<std::size_t> order(vertices.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto take = std::min<std::size_t>(
      order.size(), static_cast<std::size_t>(capacity_rows_));
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(take),
                    order.end(), [&](std::size_t a, std::size_t b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return vertices[a] < vertices[b];
                    });
  for (std::size_t i = 0; i < take; ++i) {
    const std::uint32_t v = vertices[order[i]];
    slot_of_[v] = static_cast<std::int64_t>(slot_vertex_.size());
    slot_vertex_.push_back(v);
  }
  if (mode_ == CacheMode::kFreq) {
    // Seed the LFU with the degree prior so admission starts informed
    // instead of cold (the CaPGNN degree-then-adapt policy).
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      freq_[vertices[i]] = static_cast<std::uint64_t>(
          std::max<std::int64_t>(scores[i], 0));
    }
    rebuild_victims();
  }
}

FeatureCache::Partition FeatureCache::lookup(
    std::span<const std::uint32_t> vertices) {
  Partition part;
  if (!enabled()) {
    part.miss_vertices.assign(vertices.begin(), vertices.end());
    stats_.misses += vertices.size();
    return part;
  }
  cover(vertices);
  for (const std::uint32_t v : vertices) {
    if (mode_ == CacheMode::kFreq) ++freq_[v];
    const std::int64_t slot = slot_of_[v];
    if (slot != kNoSlot) {
      part.hit_vertices.push_back(v);
      part.hit_slots.push_back(slot);
    } else {
      part.miss_vertices.push_back(v);
    }
  }
  stats_.hits += part.hit_vertices.size();
  stats_.misses += part.miss_vertices.size();
  return part;
}

bool FeatureCache::hotter(const Victim& a, const Victim& b) {
  if (a.freq != b.freq) return a.freq > b.freq;
  return a.vertex < b.vertex;
}

void FeatureCache::push_victim(std::uint32_t v) {
  victims_.push_back(Victim{freq_[v], v});
  std::push_heap(victims_.begin(), victims_.end(), hotter);
}

std::uint32_t FeatureCache::coldest_pinned() {
  for (;;) {
    MGGCN_CHECK_MSG(!victims_.empty(), "victim heap lost a pinned row");
    const Victim top = victims_.front();
    if (slot_of_[top.vertex] != kNoSlot && top.freq == freq_[top.vertex]) {
      // Every other entry's key is at or below its live frequency, so no
      // pinned vertex is colder than this one.
      return top.vertex;
    }
    std::pop_heap(victims_.begin(), victims_.end(), hotter);
    victims_.pop_back();
    // Unpinned: drop. Pinned under a stale key: re-push under the live one.
    if (slot_of_[top.vertex] != kNoSlot) push_victim(top.vertex);
  }
}

void FeatureCache::rebuild_victims() {
  victims_.clear();
  for (const std::uint32_t v : slot_vertex_) {
    victims_.push_back(Victim{freq_[v], v});
  }
  std::make_heap(victims_.begin(), victims_.end(), hotter);
}

std::vector<std::pair<std::uint32_t, std::int64_t>> FeatureCache::admit(
    std::span<const std::uint32_t> missed) {
  std::vector<std::pair<std::uint32_t, std::int64_t>> placements;
  if (!enabled() || mode_ != CacheMode::kFreq || missed.empty()) {
    return placements;
  }
  cover(missed);

  // The admission order is total: by frequency, ties broken by vertex id.
  // Misses are taken hottest first (ties: lower id) off a per-call heap, and
  // pinned rows are displaced coldest first (ties: higher id evicted first)
  // off the persistent victim heap (see hotter()).
  const auto colder = [this](std::uint32_t a, std::uint32_t b) {
    const auto fa = freq_[a], fb = freq_[b];
    if (fa != fb) return fa < fb;
    return a > b;
  };
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      decltype(colder)>
      hottest(colder, std::vector<std::uint32_t>(missed.begin(), missed.end()));

  while (!hottest.empty() && occupancy() < capacity_rows_) {
    const std::uint32_t v = hottest.top();
    hottest.pop();
    const std::int64_t slot = occupancy();
    slot_of_[v] = slot;
    slot_vertex_.push_back(v);
    push_victim(v);  // a fill placement may be displaced by this same call
    ++stats_.inserts;
    placements.emplace_back(v, slot);
  }

  // Cache full: displace pinned rows with strictly lower frequency. Only the
  // rows pinned when the loop starts are candidates (as with a heap built
  // over them), so the loop's placements are installed after it: until then
  // an incoming vertex looks unpinned, and any heap entry left from an
  // earlier pinning of it is dropped instead of offered as a victim.
  const std::size_t first = placements.size();
  const std::size_t candidates = slot_vertex_.size();
  while (!hottest.empty() && placements.size() - first < candidates) {
    const std::uint32_t incoming = hottest.top();
    const std::uint32_t outgoing = coldest_pinned();
    if (freq_[incoming] <= freq_[outgoing]) break;
    hottest.pop();
    std::pop_heap(victims_.begin(), victims_.end(), hotter);
    victims_.pop_back();
    const std::int64_t slot = slot_of_[outgoing];
    slot_of_[outgoing] = kNoSlot;
    ++stats_.evictions;
    ++stats_.inserts;
    placements.emplace_back(incoming, slot);
  }
  for (std::size_t i = first; i < placements.size(); ++i) {
    const auto [v, slot] = placements[i];
    slot_of_[v] = slot;
    slot_vertex_[static_cast<std::size_t>(slot)] = v;
    push_victim(v);
  }
  // Dead entries (invalidated or displaced vertices) only leave the heap when
  // they surface; bound them by the live ones.
  if (victims_.size() > 2 * slot_vertex_.size()) rebuild_victims();
  return placements;
}

std::vector<FeatureCache::Relocation> FeatureCache::invalidate(
    std::span<const std::uint32_t> vertices, std::size_t* dropped) {
  std::vector<Relocation> relocations;
  std::size_t count = 0;
  if (enabled()) {
    for (const std::uint32_t v : vertices) {
      if (v >= slot_of_.size() || slot_of_[v] == kNoSlot) continue;
      const std::int64_t slot = slot_of_[v];
      slot_of_[v] = kNoSlot;
      const auto last = static_cast<std::int64_t>(slot_vertex_.size()) - 1;
      if (slot != last) {
        const std::uint32_t moved =
            slot_vertex_[static_cast<std::size_t>(last)];
        slot_vertex_[static_cast<std::size_t>(slot)] = moved;
        slot_of_[moved] = slot;
        relocations.push_back(Relocation{moved, last, slot});
      }
      slot_vertex_.pop_back();
      ++stats_.evictions;
      ++count;
    }
  }
  if (dropped != nullptr) *dropped = count;
  return relocations;
}

}  // namespace mggcn::core
