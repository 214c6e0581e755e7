// Distribution-strategy registry for the per-layer auto-planner.
//
// The paper fixes one distribution strategy — the 1D staged broadcast
// (§4.1) — for every layer, but the cheapest strategy depends on the dense
// width d(l), the tile density, and the topology (the mixture-of-parallelism
// argument; see core/planner.hpp). The registry mirrors comm/comm_mode.hpp:
//
//   - `1d`:         always the staged broadcast (DistSpmm; the dense /
//                   compact exchange choice composes underneath via
//                   MGGCN_COMM).
//   - `15d`:        always the chained 1.5D executor (order-preserving
//                   c = 2 variant; falls back to 1d when the device count
//                   is odd or < 4).
//   - `replicated`: always the allgather-replicated executor (falls back
//                   to 1d when the replica would not fit in device memory).
//   - `auto` (default): per product width, pick whichever the simulator's
//                   own cost models predict is fastest.
//
// All strategies accumulate every output element in ascending global column
// order — exactly the 1D stage order — so trainer losses are bit-identical
// across MGGCN_PLAN values; only time, volume and memory differ.
//
// plan_mode_knob.set() installs a mode programmatically; the MGGCN_PLAN
// environment variable ("1d" | "15d" | "replicated" | "auto") is read at
// first use and an unknown value fails loudly, so experiment-script typos
// do not silently change the strategy under study (util/knob.hpp).
#pragma once

#include <array>

#include "util/knob.hpp"

namespace mggcn::core {

enum class PlanMode { k1D = 0, k15D = 1, kReplicated = 2, kAuto = 3 };

inline constinit util::Knob<PlanMode> plan_mode_knob{
    "MGGCN_PLAN", PlanMode::kAuto,
    std::array{"1d", "15d", "replicated", "auto"}};

inline PlanMode plan_mode() { return plan_mode_knob.get(); }
inline const char* plan_mode_name(PlanMode mode) {
  return plan_mode_knob.name(mode);
}

}  // namespace mggcn::core
