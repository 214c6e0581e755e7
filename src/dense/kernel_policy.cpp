#include "dense/kernel_policy.hpp"

#include "dense/kernels.hpp"
#include "dense/tiled_isa.hpp"

namespace mggcn::dense {

namespace {

// The planned policy only changes the *sparse* path (its SpMM runs through
// an inspector-built plan); for dense kernels it shares the tiled
// implementations.
constexpr DenseKernelTable kTables[] = {
    {&naive::gemm, &naive::gemm_at_b, &naive::gemm_a_bt,
     &naive::gemm_a_bt_relu_masked},
    {&tiled::gemm, &tiled::gemm_at_b, &tiled::gemm_a_bt,
     &tiled::gemm_a_bt_relu_masked},
    {&tiled::gemm, &tiled::gemm_at_b, &tiled::gemm_a_bt,
     &tiled::gemm_a_bt_relu_masked},
};

/// Whether this CPU runs x86-64-v4 code: the AVX-512 subsets the level adds
/// (every CPU that has them also has x86-64-v3). The check includes the OS
/// saving the AVX-512 register state.
[[maybe_unused]] bool cpu_has_x86_64_v4() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512cd") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl");
#else
  return false;
#endif
}

}  // namespace

const DenseKernelTable& dense_kernels(KernelPolicy policy) {
  return kTables[static_cast<int>(policy)];
}

const char* tiled_gemm_isa() { return tiled::selected_isa_variant().name; }

namespace tiled {

std::span<const IsaVariant> isa_variants() {
  static const IsaVariant variants[] = {
      {MGGCN_TILED_DEFAULT_ISA, true, &isa_default::kKernels},
#if MGGCN_TILED_HAS_V4
      {"x86-64-v4", cpu_has_x86_64_v4(), &isa_v4::kKernels},
#endif
  };
  return variants;
}

const IsaVariant& selected_isa_variant() {
  // x86-64-v4 when this build has it and the CPU runs it, else the default.
  static const IsaVariant& selected = []() -> const IsaVariant& {
    const std::span<const IsaVariant> variants = isa_variants();
#if MGGCN_TILED_HAS_V4
    if (variants[1].supported) return variants[1];
#endif
    return variants[0];
  }();
  return selected;
}

}  // namespace tiled

}  // namespace mggcn::dense
