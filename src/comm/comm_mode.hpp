// Exchange-mode registry for the staged-broadcast SpMM.
//
// MG-GCN's baseline exchange broadcasts each rank's *entire* dense block
// every stage (§4.1), even when the consuming tiles read only a few of its
// rows. The compacted exchange (Demirci et al.'s sparsity-aware
// communication, CaPGNN's redundant-transfer avoidance) ships only the
// ghost rows each destination's tile actually gathers:
//
//   - `dense`: always broadcast full blocks (the paper's §4.1 behaviour).
//   - `compact`: always pack + send only the required rows, per
//     destination, via Communicator::sendv_rows.
//   - `auto` (the default): per stage, pick whichever the topology cost
//     model predicts is faster — compaction wins on sparse stages, dense
//     broadcast keeps high-density graphs at exactly their old timings.
//
// Selection mirrors the kernel registry (dense/kernel_policy.hpp):
// comm_mode_knob.set() programmatically, or the MGGCN_COMM environment
// variable ("dense" | "compact" | "auto"); an unknown value fails loudly so
// experiment-script typos do not silently change the communication volume
// under study (util/knob.hpp).
#pragma once

#include <array>

#include "util/knob.hpp"

namespace mggcn::comm {

enum class CommMode { kDense = 0, kCompact = 1, kAuto = 2 };

inline constinit util::Knob<CommMode> comm_mode_knob{
    "MGGCN_COMM", CommMode::kAuto, std::array{"dense", "compact", "auto"}};

inline CommMode comm_mode() { return comm_mode_knob.get(); }
inline const char* comm_mode_name(CommMode mode) {
  return comm_mode_knob.name(mode);
}

}  // namespace mggcn::comm
