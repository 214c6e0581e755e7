// Serving-tier registry: the MGGCN_SERVE_* knobs of core::InferenceServer.
//
// The inference tier answers node-classification queries against a trained
// model; its embedding tier can pin remote store rows in device memory the
// same way the sampled pipeline's feature cache does. The registry mirrors
// core/cache_mode.hpp:
//
//   - `off`:   every remote store row travels over the interconnect for
//              every batch that needs it (the no-cache baseline).
//   - `embed`: a frequency-scored embedding cache (core::FeatureCache kFreq
//              semantics) pins hot remote rows; simulated graph-update
//              events invalidate the touched rows.
//   - `auto`:  price a cached-row read against its sendv extraction with
//              the simulator's own cost model and keep the cache only when
//              it wins — never worse than `off` under the model
//              (core::FeatureCache::plan_auto).
//
// Every mode predicts bit-identically: the cache changes which task moves a
// row, never the row's contents.
//
// serve_cache_knob.set() installs a mode programmatically; the
// MGGCN_SERVE_CACHE environment variable ("off" | "embed" | "auto") is read
// at first use and an unknown value fails loudly (util/knob.hpp). The
// batching knobs are read the same way: MGGCN_SERVE_BATCH (maximum
// micro-batch size, an integer in [1, 4096], default 16) and
// MGGCN_SERVE_SLACK (the deadline policy's wait budget in microseconds, a
// double in [0, 1e6], default 200).
#pragma once

#include <array>
#include <cstdint>

#include "util/knob.hpp"

namespace mggcn::core {

enum class ServeCacheMode {
  kOff = 0,
  kEmbed = 1,
  kAuto = 2,
};

inline constinit util::Knob<ServeCacheMode> serve_cache_knob{
    "MGGCN_SERVE_CACHE", ServeCacheMode::kAuto,
    std::array{"off", "embed", "auto"}};

inline constinit util::Knob<std::int64_t> serve_batch_knob{
    "MGGCN_SERVE_BATCH", 16, 1, 4096};

/// Microseconds, like the variable; serve_slack_seconds() converts.
inline constinit util::Knob<double> serve_slack_knob{
    "MGGCN_SERVE_SLACK", 200.0, 0.0, 1e6,
    "a wait budget in microseconds, in [0, 1e6]"};

inline ServeCacheMode serve_cache_mode() { return serve_cache_knob.get(); }
inline const char* serve_cache_mode_name(ServeCacheMode mode) {
  return serve_cache_knob.name(mode);
}
inline std::int64_t serve_batch() { return serve_batch_knob.get(); }
inline double serve_slack_seconds() { return serve_slack_knob.get() * 1e-6; }

}  // namespace mggcn::core
