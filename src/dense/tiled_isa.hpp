// ISA variants of the tiled GeMMs (internal to the library and its tests).
//
// src/dense/kernels_tiled.cpp is compiled once per variant, each build in
// its own namespace:
//   - isa_default: at the build's kernel ISA (MGGCN_KERNEL_MARCH, x86-64-v3
//     by default; the baseline ISA when it is empty);
//   - isa_v4: at -march=x86-64-v4 (AVX-512, 32 vector registers), only when
//     MGGCN_KERNEL_MARCH is set to a lower level and the compiler has
//     x86-64-v4.
// The tiled:: entry points (kernels.hpp) check shapes and call the variant
// chosen once per process: x86-64-v4 when it was built and the CPU has
// AVX-512 F/BW/CD/DQ/VL, else the default. Every variant writes the same
// output bits; only its tile shapes and host speed differ.
//
// The library reaches the variants only through tiled::; tests reach each
// one here to hold it to the bit-parity oracle.
#pragma once

#include <span>

#include "dense/kernel_policy.hpp"

namespace mggcn::dense::tiled {

namespace isa_default {
extern const DenseKernelTable kKernels;
}  // namespace isa_default

namespace isa_v4 {
extern const DenseKernelTable kKernels;
}  // namespace isa_v4

/// One compiled variant of the tiled GeMMs.
struct IsaVariant {
  /// Its -march level ("x86-64-v4", "x86-64-v3", ...), or "baseline" for a
  /// build without one.
  const char* name;
  /// Whether this CPU can run it.
  bool supported;
  const DenseKernelTable* kernels;
};

/// Every compiled variant, the build's default first.
[[nodiscard]] std::span<const IsaVariant> isa_variants();

/// The variant the tiled:: entry points call, chosen on first use.
[[nodiscard]] const IsaVariant& selected_isa_variant();

}  // namespace mggcn::dense::tiled
