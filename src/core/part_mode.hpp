// Partitioner registry: how the 1D vertex ordering and cut points are
// chosen.
//
// The paper's §5.2 answer is a random permutation with uniform cuts — it
// buys nnz balance by deliberately destroying locality, which is exactly
// the wrong trade once communication dominates (our compacted-exchange
// bench shows permutation densifies the ghost sets). The registry mirrors
// comm/comm_mode.hpp and core/plan_mode.hpp:
//
//   - `random` (default): §5.2 — random permutation (when
//                 TrainConfig::permute) + uniform cuts, the paper's
//                 behaviour.
//   - `balanced`: natural vertex order with nnz-balanced prefix cuts
//                 (the ablation alternative previously behind
//                 TrainConfig::partition_strategy).
//   - `locality`: multi-level coarsen -> greedy/label-propagation refine ->
//                 balanced-split pipeline minimizing edge cut under the
//                 configurable balance slack (core/partitioner.hpp).
//   - `hier`:     the hierarchical variant for multi-node profiles:
//                 minimize inter-node cut first, intra-node cut second.
//   - `auto`:     price the random and locality/hier candidates with the
//                 partition's actual ghost-row volume (inter-node rows
//                 weighted by the NVLink/NIC bandwidth ratio) and keep the
//                 cheaper one — never worse than `random` under the model.
//
// Any mode trains to the same optimum; losses differ only by the
// floating-point reduction-order effect any reordering has (the documented
// §5.2 permutation effect). Within one mode, training is bit-deterministic.
//
// part_mode_knob.set() installs a mode programmatically; the MGGCN_PART
// environment variable ("random" | "balanced" | "locality" | "hier" |
// "auto") is read at first use and an unknown value fails loudly, so
// experiment-script typos do not silently change the partitioner under
// study (util/knob.hpp).
#pragma once

#include <array>

#include "util/knob.hpp"

namespace mggcn::core {

enum class PartMode {
  kRandom = 0,
  kBalanced = 1,
  kLocality = 2,
  kHier = 3,
  kAuto = 4,
};

inline constinit util::Knob<PartMode> part_mode_knob{
    "MGGCN_PART", PartMode::kRandom,
    std::array{"random", "balanced", "locality", "hier", "auto"}};

inline PartMode part_mode() { return part_mode_knob.get(); }
inline const char* part_mode_name(PartMode mode) {
  return part_mode_knob.name(mode);
}

}  // namespace mggcn::core
