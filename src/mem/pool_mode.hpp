// Workspace-pool registry: whether device buffers come from the shared
// stream-ordered pool (mem::WorkspacePool) or are statically owned.
//
// The registry mirrors core/cache_mode.hpp and friends:
//
//   - `off`:  every component allocates private sim::DeviceBuffers exactly
//             as before the pool existed — the bit-for-bit parity axis the
//             pooled modes are diffed against.
//   - `on`:   every engine routes its buffers through a WorkspacePool,
//             self-creating a per-machine PoolSet when the caller did not
//             share one. Freed blocks are recycled stream-ordered, so peak
//             footprint drops wherever buffer lifetimes do not overlap.
//   - `auto`: pool only when the caller installed a shared PoolSet
//             (multi-tenant setups — the case cross-component reuse pays
//             for); single-tenant engines stay on the static path. This is
//             the conservative resolution CaPGNN's joint-budget argument
//             suggests: pooling buys sharing, and sharing needs tenants.
//
// Every mode trains and serves bit-identically: recycled blocks are
// re-zeroed before reuse (or NaN-poisoned, for a sim::Fill::kNone lease
// under hazard checking), so a pooled buffer starts life like a fresh
// DeviceBuffer; only footprint and (slightly) the simulated schedule of
// reuse edges differ.
//
// pool_mode_knob.set() installs a mode programmatically; the MGGCN_POOL
// environment variable ("off" | "on" | "auto") is read at first use and an
// unknown value fails loudly (util/knob.hpp). MGGCN_POOL_BUDGET caps each
// device's pool in bytes (0, the default, means the device's full memory
// capacity).
#pragma once

#include <array>
#include <cstdint>
#include <limits>

#include "util/knob.hpp"

namespace mggcn::mem {

enum class PoolMode {
  kOff = 0,
  kOn = 1,
  kAuto = 2,
};

inline constinit util::Knob<PoolMode> pool_mode_knob{
    "MGGCN_POOL", PoolMode::kAuto, std::array{"off", "on", "auto"}};

inline constinit util::Knob<std::uint64_t> pool_budget_knob{
    "MGGCN_POOL_BUDGET", 0, 0,
    static_cast<std::uint64_t>(std::numeric_limits<long long>::max())};

inline PoolMode pool_mode() { return pool_mode_knob.get(); }
inline const char* pool_mode_name(PoolMode mode) {
  return pool_mode_knob.name(mode);
}
inline std::uint64_t pool_budget_bytes() { return pool_budget_knob.get(); }

}  // namespace mggcn::mem
