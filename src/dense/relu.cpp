// ReLU forward and backward (eqs. (7) and (8)). They live in their own
// translation unit so they build with the kernel flags (see CMakeLists.txt):
// there the ternaries become a branch-free compare-and-mask (cmpltps +
// andps), where the library's default flags leave a scalar compare-and-branch
// loop that mispredicts on sign-random input. Both forms write the same
// bits, documented in kernels.hpp.
#include "dense/kernels.hpp"

namespace mggcn::dense {

void relu_forward(const float* in, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    out[i] = in[i] > 0.0f ? in[i] : 0.0f;
  }
}

void relu_backward(const float* grad_out, const float* pre_activation,
                   float* grad_in, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    grad_in[i] = pre_activation[i] > 0.0f ? grad_out[i] : 0.0f;
  }
}

}  // namespace mggcn::dense
