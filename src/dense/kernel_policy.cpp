#include "dense/kernel_policy.hpp"

#include "dense/kernels.hpp"

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

}  // namespace

const DenseKernelTable& dense_kernels(KernelPolicy policy) {
  return kTables[static_cast<int>(policy)];
}

}  // namespace mggcn::dense
