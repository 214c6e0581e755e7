// Feature-cache registry: whether and how the sampled pipeline pins hot
// vertex feature rows in device memory.
//
// Sampled mini-batch training re-reads the same high-degree input rows over
// and over (CaPGNN, samgraph study exactly this skew); a per-device cache of
// those rows converts repeated remote extraction traffic into local HBM
// reads. The registry mirrors comm/comm_mode.hpp and core/part_mode.hpp:
//
//   - `off`:    every remote input row travels over the interconnect every
//               time it is needed (the no-cache baseline).
//   - `static`: degree-scored — the top-degree remote vertices are pinned at
//               construction and never evicted (zero bookkeeping, good when
//               access skew follows degree).
//   - `freq`:   access-frequency scored (LFU) — rows are admitted/evicted by
//               observed lookup counts, adapting to the actual sampling
//               distribution (the samgraph frequency-hashmap policy).
//   - `auto`:   price a cached row read against its sendv extraction cost
//               with the simulator's own cost model, clamp the capacity to
//               the device memory actually available, and keep the cache
//               only when the model says it wins — never worse than `off`
//               under the model (core::FeatureCache::plan_auto).
//
// Every mode trains bit-identically: the cache changes which task moves a
// row (local gather vs sendv payload), never the row's contents.
//
// cache_mode_knob.set() installs a mode programmatically; the MGGCN_CACHE
// environment variable ("off" | "static" | "freq" | "auto") is read at
// first use and an unknown value fails loudly (util/knob.hpp). The capacity
// knob — MGGCN_CACHE_CAP, a fraction in [0, 1] of the graph's vertices
// cacheable per device, default 0.05 — is read the same way.
#pragma once

#include <array>

#include "util/knob.hpp"

namespace mggcn::core {

enum class CacheMode {
  kOff = 0,
  kStatic = 1,
  kFreq = 2,
  kAuto = 3,
};

inline constinit util::Knob<CacheMode> cache_mode_knob{
    "MGGCN_CACHE", CacheMode::kAuto,
    std::array{"off", "static", "freq", "auto"}};

inline constinit util::Knob<double> cache_cap_knob{
    "MGGCN_CACHE_CAP", 0.05, 0.0, 1.0, "a fraction in [0, 1]"};

inline CacheMode cache_mode() { return cache_mode_knob.get(); }
inline const char* cache_mode_name(CacheMode mode) {
  return cache_mode_knob.name(mode);
}
inline double cache_capacity_fraction() { return cache_cap_knob.get(); }

}  // namespace mggcn::core
