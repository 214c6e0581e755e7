// Host-kernel policy registry.
//
// Every real-execution compute path (trainer epochs, baselines, benches,
// tests) funnels through the dense GeMM variants and the CSR SpMM. This
// registry lets callers pick between implementations at runtime:
//
//   - `naive`: the original straightforward loops, kept as the correctness
//     reference that tests diff the optimized kernels against.
//   - `tiled`: register-tiled, cache-blocked, auto-vectorizable kernels —
//     the host stand-in for the cuBLAS/cuSPARSE efficiency the paper's
//     performance story is built on (§4.4).
//   - `planned` (the default): the tiled dense kernels plus the
//     inspector–executor SpMM (sparse/spmm_plan.hpp), which amortizes a
//     one-time per-matrix degree-binning pass across every later launch.
//
// Selection: kernel_policy_knob.set() programmatically, or the
// MGGCN_KERNELS environment variable ("naive" | "tiled" | "planned"; see
// util/knob.hpp for the shared contract). Benches expose it as a CLI sweep
// so the policies land in the same JSON artifact for the perf-regression
// gate (scripts/check_perf.py).
#pragma once

#include <array>

#include "dense/matrix.hpp"
#include "util/knob.hpp"

namespace mggcn::dense {

enum class KernelPolicy { kNaive = 0, kTiled = 1, kPlanned = 2 };

inline constinit util::Knob<KernelPolicy> kernel_policy_knob{
    "MGGCN_KERNELS", KernelPolicy::kPlanned,
    std::array{"naive", "tiled", "planned"}};

inline KernelPolicy kernel_policy() { return kernel_policy_knob.get(); }
inline const char* kernel_policy_name(KernelPolicy policy) {
  return kernel_policy_knob.name(policy);
}

/// Per-policy dense kernel entry points. The dispatching wrappers in
/// kernels.hpp look the active table up per call, so flipping the policy
/// mid-process (tests) immediately reroutes every caller.
struct DenseKernelTable {
  using GemmFn = void (*)(ConstMatrixView, ConstMatrixView, MatrixView, float,
                          float);
  using GemmMaskedFn = void (*)(ConstMatrixView, ConstMatrixView, MatrixView);

  GemmFn gemm = nullptr;
  GemmFn gemm_at_b = nullptr;
  GemmFn gemm_a_bt = nullptr;
  GemmMaskedFn gemm_a_bt_relu_masked = nullptr;
};

/// The kernel table of `policy`.
[[nodiscard]] const DenseKernelTable& dense_kernels(KernelPolicy policy);

}  // namespace mggcn::dense
