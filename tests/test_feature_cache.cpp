// Tests for the per-device frequency-aware feature cache: scoring order,
// capacity degeneration, counter reconciliation, parity of the bookkeeping
// with the hash-map LFU it replaced, and the plan_auto cost-model decision.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <unordered_map>
#include <vector>

#include "comm/communicator.hpp"
#include "core/feature_cache.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"

namespace mggcn::core {
namespace {

class FeatureCacheTest : public ::testing::Test {
 protected:
  sim::Machine machine_{sim::dgx_v100(), 4, sim::ExecutionMode::kPhantom};
};

TEST_F(FeatureCacheTest, PrefillPinsTopScoredVertices) {
  FeatureCache cache(machine_.device(0), 8, 3, CacheMode::kStatic);
  const std::vector<std::uint32_t> vertices = {10, 20, 30, 40, 50};
  const std::vector<std::int64_t> degrees = {5, 40, 7, 40, 2};
  cache.prefill(vertices, degrees);

  // Top-3 by score, ties broken by lower vertex id: 20 (40), 40 (40), 30 (7).
  ASSERT_EQ(cache.occupancy(), 3);
  const auto pinned = cache.pinned();
  EXPECT_EQ(pinned[0], 20u);
  EXPECT_EQ(pinned[1], 40u);
  EXPECT_EQ(pinned[2], 30u);

  const auto part = cache.lookup(std::vector<std::uint32_t>{10, 20, 30});
  EXPECT_EQ(part.hit_vertices, (std::vector<std::uint32_t>{20, 30}));
  EXPECT_EQ(part.miss_vertices, (std::vector<std::uint32_t>{10}));
}

TEST_F(FeatureCacheTest, CapacityZeroDegeneratesToOff) {
  FeatureCache cache(machine_.device(0), 8, 0, CacheMode::kFreq);
  EXPECT_FALSE(cache.enabled());
  EXPECT_EQ(cache.bytes(), 0u);

  const std::vector<std::uint32_t> vertices = {1, 2, 3};
  const auto part = cache.lookup(vertices);
  EXPECT_TRUE(part.hit_vertices.empty());
  EXPECT_EQ(part.miss_vertices, vertices);
  EXPECT_TRUE(cache.admit(part.miss_vertices).empty());
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST_F(FeatureCacheTest, StaticModeNeverAdmitsOrEvicts) {
  FeatureCache cache(machine_.device(0), 8, 2, CacheMode::kStatic);
  const std::vector<std::uint32_t> vertices = {1, 2, 3, 4};
  const std::vector<std::int64_t> degrees = {9, 8, 1, 1};
  cache.prefill(vertices, degrees);

  for (int round = 0; round < 5; ++round) {
    const auto part = cache.lookup(std::vector<std::uint32_t>{3, 4});
    EXPECT_TRUE(cache.admit(part.miss_vertices).empty());
  }
  EXPECT_EQ(cache.stats().inserts, 0u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.pinned()[0], 1u);
  EXPECT_EQ(cache.pinned()[1], 2u);
}

TEST_F(FeatureCacheTest, FreqAdmissionDisplacesColderRows) {
  FeatureCache cache(machine_.device(0), 4, 2, CacheMode::kFreq);
  // Seed: 1 and 2 pinned with prior frequency 10; 3 starts at 2.
  cache.prefill(std::vector<std::uint32_t>{1, 2, 3},
                std::vector<std::int64_t>{10, 10, 2});
  ASSERT_EQ(cache.occupancy(), 2);

  // Nine lookups of vertex 3 raise its frequency to 11 > 10: the next
  // admission displaces the colder pinned row (ties evict the higher id
  // first, so vertex 2 goes).
  FeatureCache::Partition part;
  for (int i = 0; i < 9; ++i) {
    part = cache.lookup(std::vector<std::uint32_t>{3});
    EXPECT_EQ(part.miss_vertices, (std::vector<std::uint32_t>{3}));
  }
  const auto placements = cache.admit(part.miss_vertices);
  ASSERT_EQ(placements.size(), 1u);
  EXPECT_EQ(placements[0].first, 3u);

  const auto after = cache.lookup(std::vector<std::uint32_t>{1, 2, 3});
  EXPECT_EQ(after.hit_vertices, (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(after.miss_vertices, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().inserts, 1u);
}

TEST_F(FeatureCacheTest, AdmissionNeverDisplacesEqualFrequency) {
  FeatureCache cache(machine_.device(0), 4, 1, CacheMode::kFreq);
  cache.prefill(std::vector<std::uint32_t>{1, 2},
                std::vector<std::int64_t>{5, 5});
  ASSERT_EQ(cache.occupancy(), 1);
  // Both vertices appear in every batch, so their frequencies stay tied:
  // admission requires a strictly higher score and must refuse.
  for (int round = 0; round < 4; ++round) {
    const auto part = cache.lookup(std::vector<std::uint32_t>{1, 2});
    EXPECT_EQ(part.hit_vertices, (std::vector<std::uint32_t>{1}));
    EXPECT_TRUE(cache.admit(part.miss_vertices).empty());
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST_F(FeatureCacheTest, CountersReconcile) {
  FeatureCache cache(machine_.device(0), 8, 3, CacheMode::kFreq);
  const std::vector<std::uint32_t> vertices = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<std::int64_t> degrees = {8, 7, 6, 5, 4, 3, 2, 1};
  cache.prefill(vertices, degrees);
  const std::int64_t prefilled = cache.occupancy();

  std::uint64_t looked_up = 0;
  for (std::uint32_t base = 0; base < 6; ++base) {
    const std::vector<std::uint32_t> batch = {base, base + 1, base + 2};
    looked_up += batch.size();
    const auto part = cache.lookup(batch);
    EXPECT_EQ(part.hit_vertices.size() + part.miss_vertices.size(),
              batch.size());
    (void)cache.admit(part.miss_vertices);
  }

  const auto& stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, looked_up);
  // Occupancy is prefilled + inserts - evictions, and never exceeds
  // capacity.
  EXPECT_EQ(cache.occupancy(),
            prefilled + static_cast<std::int64_t>(stats.inserts) -
                static_cast<std::int64_t>(stats.evictions));
  EXPECT_LE(cache.occupancy(), cache.capacity_rows());
}

TEST_F(FeatureCacheTest, BufferBytesMatchCapacity) {
  FeatureCache cache(machine_.device(0), 16, 10, CacheMode::kStatic);
  EXPECT_EQ(cache.bytes(), 10u * 16u * sizeof(float));
}

// The LFU bookkeeping as first written, on hash maps with fully sorted
// candidate and victim lists. FeatureCache must make the same decisions in
// the same order.
class ReferenceLfu {
 public:
  explicit ReferenceLfu(std::int64_t capacity) : capacity_(capacity) {}

  void prefill(const std::vector<std::uint32_t>& vertices,
               const std::vector<std::int64_t>& scores) {
    std::vector<std::size_t> order(vertices.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (scores[a] != scores[b]) return scores[a] > scores[b];
      return vertices[a] < vertices[b];
    });
    const auto take = std::min<std::size_t>(
        order.size(), static_cast<std::size_t>(capacity_));
    for (std::size_t i = 0; i < take; ++i) {
      slot_of_.emplace(vertices[order[i]],
                       static_cast<std::int64_t>(slots_.size()));
      slots_.push_back(vertices[order[i]]);
    }
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      freq_[vertices[i]] =
          static_cast<std::uint64_t>(std::max<std::int64_t>(scores[i], 0));
    }
  }

  FeatureCache::Partition lookup(const std::vector<std::uint32_t>& vertices) {
    FeatureCache::Partition part;
    for (const std::uint32_t v : vertices) {
      ++freq_[v];
      const auto it = slot_of_.find(v);
      if (it != slot_of_.end()) {
        part.hit_vertices.push_back(v);
        part.hit_slots.push_back(it->second);
      } else {
        part.miss_vertices.push_back(v);
      }
    }
    return part;
  }

  std::vector<std::pair<std::uint32_t, std::int64_t>> admit(
      const std::vector<std::uint32_t>& missed) {
    std::vector<std::pair<std::uint32_t, std::int64_t>> placements;
    std::vector<std::uint32_t> candidates = missed;
    std::sort(candidates.begin(), candidates.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                if (freq_[a] != freq_[b]) return freq_[a] > freq_[b];
                return a < b;
              });
    std::size_t next = 0;
    while (next < candidates.size() &&
           static_cast<std::int64_t>(slots_.size()) < capacity_) {
      const std::uint32_t v = candidates[next++];
      slot_of_.emplace(v, static_cast<std::int64_t>(slots_.size()));
      placements.emplace_back(v, static_cast<std::int64_t>(slots_.size()));
      slots_.push_back(v);
    }
    if (next == candidates.size()) return placements;
    std::vector<std::int64_t> victims(slots_.size());
    for (std::size_t i = 0; i < victims.size(); ++i) {
      victims[i] = static_cast<std::int64_t>(i);
    }
    std::sort(victims.begin(), victims.end(),
              [&](std::int64_t a, std::int64_t b) {
                const auto va = slots_[static_cast<std::size_t>(a)];
                const auto vb = slots_[static_cast<std::size_t>(b)];
                if (freq_[va] != freq_[vb]) return freq_[va] < freq_[vb];
                return va > vb;
              });
    for (std::size_t victim = 0;
         next < candidates.size() && victim < victims.size(); ++victim) {
      const std::uint32_t incoming = candidates[next];
      const auto slot = victims[victim];
      const std::uint32_t outgoing = slots_[static_cast<std::size_t>(slot)];
      if (freq_[incoming] <= freq_[outgoing]) break;
      slot_of_.erase(outgoing);
      slot_of_.emplace(incoming, slot);
      slots_[static_cast<std::size_t>(slot)] = incoming;
      placements.emplace_back(incoming, slot);
      ++next;
    }
    return placements;
  }

  std::vector<FeatureCache::Relocation> invalidate(
      const std::vector<std::uint32_t>& vertices) {
    std::vector<FeatureCache::Relocation> relocations;
    for (const std::uint32_t v : vertices) {
      const auto it = slot_of_.find(v);
      if (it == slot_of_.end()) continue;
      const auto slot = it->second;
      slot_of_.erase(it);
      const auto last = static_cast<std::int64_t>(slots_.size()) - 1;
      if (slot != last) {
        const std::uint32_t moved = slots_[static_cast<std::size_t>(last)];
        slots_[static_cast<std::size_t>(slot)] = moved;
        slot_of_[moved] = slot;
        relocations.push_back({moved, last, slot});
      }
      slots_.pop_back();
    }
    return relocations;
  }

  const std::vector<std::uint32_t>& pinned() const { return slots_; }

  std::uint64_t max_pinned_freq() const {
    std::uint64_t hottest = 0;
    for (const std::uint32_t v : slots_) {
      const auto it = freq_.find(v);
      if (it != freq_.end()) hottest = std::max(hottest, it->second);
    }
    return hottest;
  }

 private:
  std::int64_t capacity_;
  std::unordered_map<std::uint32_t, std::int64_t> slot_of_;
  std::vector<std::uint32_t> slots_;
  std::unordered_map<std::uint32_t, std::uint64_t> freq_;
};

TEST_F(FeatureCacheTest, FreqBookkeepingMatchesHashMapReference) {
  // Skewed lookups over a growing id range (ids beyond the prefill), with
  // graph-update invalidations in between and, every 97 rounds, a burst of
  // fresh vertices looked up until they outrank every pinned row, so one
  // admit displaces the whole cache: every partition, placement, relocation
  // and the pinned set must match the reference step by step, from a
  // single slot up. Evicted and invalidated rows come back later, which is
  // where a victim heap with stale entries would go wrong.
  constexpr int kRounds = 600;
  constexpr std::uint32_t kBurstBase = 7000;  // above every round's range
  for (const std::int64_t capacity : {1, 3, 40}) {
    for (const bool prefilled : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "capacity " << capacity
                                        << (prefilled ? " prefilled" : ""));
      FeatureCache cache(machine_.device(0), 4, capacity, CacheMode::kFreq);
      ReferenceLfu reference(capacity);
      util::Rng rng(prefilled ? 51 : 52);
      if (prefilled) {
        std::vector<std::uint32_t> vertices;
        std::vector<std::int64_t> scores;
        for (std::uint32_t v = 0; v < 300; v += 2) {
          vertices.push_back(v);
          scores.push_back(static_cast<std::int64_t>(rng.uniform_index(20)));
        }
        cache.prefill(vertices, scores);
        reference.prefill(vertices, scores);
      }
      int displaced = 0;
      int whole_cache = 0;
      int readmitted = 0;
      std::set<std::uint32_t> dropped;  // ever evicted or invalidated
      std::uint32_t burst_next = kBurstBase;
      for (int round = 0; round < kRounds; ++round) {
        const std::uint64_t range =
            200 + 10 * static_cast<std::uint64_t>(round);
        std::vector<std::uint32_t> frontier;
        for (int i = 0; i < 80; ++i) {
          // Squaring a uniform draw skews accesses towards low ids.
          const double u = rng.uniform();
          frontier.push_back(
              static_cast<std::uint32_t>(u * u * static_cast<double>(range)));
        }
        if (round % 97 == 50) {
          std::vector<std::uint32_t> burst(static_cast<std::size_t>(capacity));
          std::iota(burst.begin(), burst.end(), burst_next);
          burst_next += static_cast<std::uint32_t>(capacity);
          const std::uint64_t target = reference.max_pinned_freq() + 1;
          for (std::uint64_t i = 0; i < target; ++i) {
            (void)cache.lookup(burst);
            (void)reference.lookup(burst);
          }
          frontier.insert(frontier.end(), burst.begin(), burst.end());
        }
        std::sort(frontier.begin(), frontier.end());
        frontier.erase(std::unique(frontier.begin(), frontier.end()),
                       frontier.end());

        const FeatureCache::Partition got = cache.lookup(frontier);
        const FeatureCache::Partition want = reference.lookup(frontier);
        ASSERT_EQ(got.hit_vertices, want.hit_vertices) << "round " << round;
        ASSERT_EQ(got.hit_slots, want.hit_slots) << "round " << round;
        ASSERT_EQ(got.miss_vertices, want.miss_vertices) << "round " << round;
        const std::vector<std::uint32_t> before(cache.pinned().begin(),
                                                cache.pinned().end());
        const auto placements = cache.admit(got.miss_vertices);
        ASSERT_EQ(placements, reference.admit(want.miss_vertices))
            << "round " << round;
        std::size_t displaced_now = 0;
        for (const auto& [v, slot] : placements) {
          if (dropped.count(v) != 0) ++readmitted;
          if (slot < static_cast<std::int64_t>(before.size())) {
            ++displaced_now;
            dropped.insert(before[static_cast<std::size_t>(slot)]);
          }
        }
        displaced += static_cast<int>(displaced_now);
        if (!before.empty() && displaced_now == before.size()) ++whole_cache;

        if (round % 7 == 3) {
          std::vector<std::uint32_t> touched;
          for (int i = 0; i < 12; ++i) {
            touched.push_back(static_cast<std::uint32_t>(
                rng.uniform_index(range + 50)));
          }
          for (const std::uint32_t v : touched) {
            if (std::find(cache.pinned().begin(), cache.pinned().end(), v) !=
                cache.pinned().end()) {
              dropped.insert(v);
            }
          }
          const auto a = cache.invalidate(touched);
          const auto b = reference.invalidate(touched);
          ASSERT_EQ(a.size(), b.size());
          for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].vertex, b[i].vertex);
            EXPECT_EQ(a[i].from_slot, b[i].from_slot);
            EXPECT_EQ(a[i].to_slot, b[i].to_slot);
          }
        }
        ASSERT_TRUE(std::equal(cache.pinned().begin(), cache.pinned().end(),
                               reference.pinned().begin(),
                               reference.pinned().end()))
            << "round " << round;
      }
      // The workload reached LFU displacement, displaced a whole cache in
      // one admit, and re-admitted rows that had been dropped before.
      EXPECT_GT(displaced, 0);
      EXPECT_GT(whole_cache, 0);
      EXPECT_GT(readmitted, 0);
      const auto& stats = cache.stats();
      EXPECT_EQ(static_cast<std::int64_t>(stats.inserts) -
                    static_cast<std::int64_t>(stats.evictions),
                cache.occupancy() - (prefilled ? capacity : 0));
    }
  }
}

TEST_F(FeatureCacheTest, PlanAutoKeepsCacheWhenWireLoses) {
  comm::Communicator comm(machine_);
  const auto decision =
      FeatureCache::plan_auto(CacheMode::kAuto, 100, 64, comm,
                              machine_.profile().device, 1ull << 30);
  // On a multi-device NVLink machine a pinned-row read beats the wire, so
  // kAuto resolves to the frequency cache at full requested capacity.
  EXPECT_EQ(decision.mode, CacheMode::kFreq);
  EXPECT_EQ(decision.capacity_rows, 100);
  EXPECT_GT(decision.miss_seconds_per_row, decision.hit_seconds_per_row);
}

TEST_F(FeatureCacheTest, PlanAutoClampsCapacityToAvailableMemory) {
  comm::Communicator comm(machine_);
  const std::uint64_t row_bytes = 64 * sizeof(float);
  const auto decision = FeatureCache::plan_auto(
      CacheMode::kFreq, 100, 64, comm, machine_.profile().device,
      row_bytes * 7);
  EXPECT_EQ(decision.mode, CacheMode::kFreq);
  EXPECT_EQ(decision.capacity_rows, 7);
}

TEST_F(FeatureCacheTest, PlanAutoDisablesOnSingleRank) {
  sim::Machine solo(sim::dgx_v100(), 1, sim::ExecutionMode::kPhantom);
  comm::Communicator comm(solo);
  const auto decision = FeatureCache::plan_auto(
      CacheMode::kAuto, 100, 64, comm, solo.profile().device, 1ull << 30);
  // One rank owns every row: nothing remote to cache.
  EXPECT_EQ(decision.mode, CacheMode::kOff);
  EXPECT_EQ(decision.capacity_rows, 0);
}

TEST_F(FeatureCacheTest, OffModePassesThroughAsOff) {
  comm::Communicator comm(machine_);
  const auto decision = FeatureCache::plan_auto(
      CacheMode::kOff, 100, 64, comm, machine_.profile().device, 1ull << 30);
  EXPECT_EQ(decision.mode, CacheMode::kOff);
  EXPECT_EQ(decision.capacity_rows, 0);
}

}  // namespace
}  // namespace mggcn::core
