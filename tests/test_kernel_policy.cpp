// Property tests for the kernel-policy registry: the tiled kernels against
// the naive reference across alpha/beta combinations, ragged shapes (rows,
// columns, and inner dimensions that are not multiples of the register
// tile), and CSR inputs with empty and high-degree rows; plus the
// bit-for-bit beta == 0 SpMM agreement all three policies promise, and the
// planned policy's one-time inspector accounting in the distributed
// trainer's trace. The TiledIsaParity tests hold the packed tiled kernels
// to the unpacked ones they replaced, bit for bit (memcmp, not a
// tolerance), once per compiled ISA variant of the tiled kernels
// (dense/tiled_isa.hpp). The knob itself is covered by tests/test_util.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <iostream>
#include <iterator>
#include <limits>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "core/reference.hpp"
#include "core/trainer.hpp"
#include "dense/kernel_policy.hpp"
#include "dense/kernels.hpp"
#include "dense/tiled_isa.hpp"
#include "graph/datasets.hpp"
#include "sim/machine.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmm_plan.hpp"
#include "util/rng.hpp"

namespace mggcn {

// The tiled kernels before B packing, verbatim: the bit-parity oracle
// (tests/unpacked_tiled_kernels.cpp).
namespace dense::unpacked_tiled {
void gemm(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
          float beta);
void gemm_at_b(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
               float beta);
void gemm_a_bt(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
               float beta);
void gemm_a_bt_relu_masked(ConstMatrixView a, ConstMatrixView b, MatrixView c);
}  // namespace dense::unpacked_tiled

namespace {

constexpr float kAlphas[] = {0.0f, 1.0f, 0.5f};
constexpr float kBetas[] = {0.0f, 1.0f, 0.5f};

dense::HostMatrix random_matrix(std::int64_t rows, std::int64_t cols,
                                std::uint64_t seed) {
  util::Rng rng(seed);
  dense::HostMatrix m(rows, cols);
  m.init_gaussian(rng);
  return m;
}

/// max|a - b| <= tol * max(1, max|a|): a relative tolerance on the scale of
/// the result, robust to near-zero entries.
void expect_close(dense::ConstMatrixView a, dense::ConstMatrixView b,
                  double tol, const std::string& what) {
  double scale = 1.0;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    scale = std::max(scale, static_cast<double>(std::fabs(a.data[i])));
  }
  EXPECT_LE(dense::max_abs_diff(a, b), tol * scale) << what;
}

std::string case_name(const char* kernel, std::int64_t m, std::int64_t k,
                      std::int64_t n, float alpha, float beta) {
  std::ostringstream os;
  os << kernel << " m=" << m << " k=" << k << " n=" << n << " alpha=" << alpha
     << " beta=" << beta;
  return os.str();
}

/// Shapes chosen to exercise every tail path of the tiled kernels: single
/// elements, tiles narrower than kNr, dimensions straddling the register
/// tile (4 x 16) and the k panel (256).
const std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>>
    kRaggedShapes = {
        {1, 1, 1},    {3, 5, 7},     {4, 16, 16},   {7, 300, 19},
        {17, 33, 9},  {33, 17, 65},  {64, 64, 64},  {130, 70, 40},
        {5, 513, 33}, {61, 127, 129}};

TEST(KernelPolicyProperty, TiledGemmMatchesNaive) {
  for (const auto& [m, k, n] : kRaggedShapes) {
    const dense::HostMatrix a = random_matrix(m, k, 1);
    const dense::HostMatrix b = random_matrix(k, n, 2);
    const dense::HostMatrix c0 = random_matrix(m, n, 3);
    for (float alpha : kAlphas) {
      for (float beta : kBetas) {
        dense::HostMatrix c_naive = c0;
        dense::HostMatrix c_tiled = c0;
        dense::naive::gemm(a.view(), b.view(), c_naive.view(), alpha, beta);
        dense::tiled::gemm(a.view(), b.view(), c_tiled.view(), alpha, beta);
        expect_close(c_naive.view(), c_tiled.view(), 1e-5,
                     case_name("gemm", m, k, n, alpha, beta));
      }
    }
  }
}

TEST(KernelPolicyProperty, TiledGemmAtBMatchesNaive) {
  for (const auto& [m, k, n] : kRaggedShapes) {
    const dense::HostMatrix a = random_matrix(k, m, 4);  // participates as A^T
    const dense::HostMatrix b = random_matrix(k, n, 5);
    const dense::HostMatrix c0 = random_matrix(m, n, 6);
    for (float alpha : kAlphas) {
      for (float beta : kBetas) {
        dense::HostMatrix c_naive = c0;
        dense::HostMatrix c_tiled = c0;
        dense::naive::gemm_at_b(a.view(), b.view(), c_naive.view(), alpha,
                                beta);
        dense::tiled::gemm_at_b(a.view(), b.view(), c_tiled.view(), alpha,
                                beta);
        expect_close(c_naive.view(), c_tiled.view(), 1e-5,
                     case_name("gemm_at_b", m, k, n, alpha, beta));
      }
    }
  }
}

TEST(KernelPolicyProperty, TiledGemmABtMatchesNaive) {
  for (const auto& [m, k, n] : kRaggedShapes) {
    const dense::HostMatrix a = random_matrix(m, k, 7);
    const dense::HostMatrix b = random_matrix(n, k, 8);  // participates as B^T
    const dense::HostMatrix c0 = random_matrix(m, n, 9);
    for (float alpha : kAlphas) {
      for (float beta : kBetas) {
        dense::HostMatrix c_naive = c0;
        dense::HostMatrix c_tiled = c0;
        dense::naive::gemm_a_bt(a.view(), b.view(), c_naive.view(), alpha,
                                beta);
        dense::tiled::gemm_a_bt(a.view(), b.view(), c_tiled.view(), alpha,
                                beta);
        expect_close(c_naive.view(), c_tiled.view(), 1e-5,
                     case_name("gemm_a_bt", m, k, n, alpha, beta));
      }
    }
  }
}

TEST(KernelPolicyProperty, TiledMaskedGemmMatchesNaive) {
  for (const auto& [m, k, n] : kRaggedShapes) {
    const dense::HostMatrix a = random_matrix(m, k, 10);
    const dense::HostMatrix b = random_matrix(n, k, 11);
    // The activation consumed for the ReLU mask: roughly half the entries
    // are positive, so both the masked and active tile paths run.
    const dense::HostMatrix c0 = random_matrix(m, n, 12);
    dense::HostMatrix c_naive = c0;
    dense::HostMatrix c_tiled = c0;
    dense::naive::gemm_a_bt_relu_masked(a.view(), b.view(), c_naive.view());
    dense::tiled::gemm_a_bt_relu_masked(a.view(), b.view(), c_tiled.view());
    expect_close(c_naive.view(), c_tiled.view(), 1e-5,
                 case_name("masked", m, k, n, 1.0f, 0.0f));
  }
}

// --- bit parity with the unpacked tiled kernels ----------------------------

/// m values covering every residue modulo the kMr = 6 and 12 register
/// tiles, the unpacked kernels' 4-row tile and the short A * B^T's 4- and
/// 8-row groups, the 64-row cache block, and one m of many blocks and
/// slivers (1031); n values straddling the 16- and 32-column strips (and
/// the one-vector last strip they narrow to), the 8- and 16-column A * B^T
/// strips and the 64-column block, up to a 512-wide layer; and k values
/// crossing the 8-wide short dot, the k = 128 switch to the long dot product
/// and the kKc = 256 panel, up to three panels (600 > 2 * kKc: repacked A
/// slivers, beta in the first panel only).
constexpr std::int64_t kParityM[] = {1,  2,  3,  5,  6,  8,  11,
                                     12, 13, 24, 25, 70, 1031};
constexpr std::int64_t kParityN[] = {1,  7,  16, 17, 31, 32,  33,
                                     47, 48, 63, 64, 65, 100, 512};
constexpr std::int64_t kParityK[] = {0,   1,   7,   8,   47, 127,
                                     128, 255, 256, 257, 600};
constexpr float kParityAlphas[] = {0.0f, 1.0f, -0.5f};
static_assert(std::size(kParityAlphas) == std::size(kBetas));
/// The m and n values added for the x86-64-v4 tiles (12-row A * B tiles,
/// 8-row A * B^T groups, 32-column strips and their one-vector tails). A
/// shape with one of them is "thinned": it runs only up to kParityMaxCells
/// outputs (n = 512 with m <= 25, m = 1031 with n <= 31), and past
/// kSweepWork only with the diagonal alpha/beta pairs. The larger pairings
/// reach no tile path these miss, yet would multiply the test's time, which
/// also runs under the sanitizers. Every other shape runs every k with every
/// alpha/beta pair.
constexpr std::int64_t kThinnedM[] = {11, 12, 24, 25};
constexpr std::int64_t kThinnedN[] = {31, 32, 33, 48, 63, 64, 65, 512};
constexpr std::int64_t kParityMaxCells = std::int64_t{1} << 15;
constexpr std::int64_t kSweepWork = std::int64_t{1} << 20;

bool thinned(std::int64_t m, std::int64_t n) {
  return std::ranges::find(kThinnedM, m) != std::end(kThinnedM) ||
         std::ranges::find(kThinnedN, n) != std::end(kThinnedN);
}

bool same_bits(const dense::HostMatrix& a, const dense::HostMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

/// The starting C for a beta: NaN-filled when beta == 0, which must ignore
/// it, random otherwise.
dense::HostMatrix parity_c0(std::int64_t m, std::int64_t n, float beta,
                            std::uint64_t seed) {
  if (beta != 0.0f) return random_matrix(m, n, seed);
  dense::HostMatrix c(m, n);
  c.fill(std::numeric_limits<float>::quiet_NaN());
  return c;
}

/// A ReLU activation used as the mask: random signs with exact 0, -0.0 and
/// NaN entries mixed in, and every third row non-positive throughout so
/// whole kW-column strips are inactive.
dense::HostMatrix parity_mask(std::int64_t m, std::int64_t n,
                              std::uint64_t seed) {
  dense::HostMatrix c = random_matrix(m, n, seed);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float& v = c.at(i, j);
      if (i % 3 == 0) v = -std::fabs(v);
      const std::int64_t e = i * n + j;
      if (e % 5 == 1) v = 0.0f;
      if (e % 7 == 2) v = -0.0f;
      if (e % 11 == 3) v = std::numeric_limits<float>::quiet_NaN();
    }
  }
  return c;
}

using GemmFn = void (*)(dense::ConstMatrixView, dense::ConstMatrixView,
                        dense::MatrixView, float, float);

/// Runs `tiled` and `oracle` from the same C over every parity shape and
/// alpha/beta pair (fewer for the thinned shapes); A and B take the
/// kernel's layout via `a_rows_k` (A is k x m) and `b_rows_n` (B is n x k).
void expect_gemm_parity(const char* kernel, GemmFn tiled, GemmFn oracle,
                        bool a_rows_k, bool b_rows_n) {
  // Each operand is a function of its shape alone: draw it once.
  std::vector<dense::HostMatrix> bs;  // [n][k]
  for (const std::int64_t n : kParityN) {
    for (const std::int64_t k : kParityK) {
      bs.push_back(b_rows_n ? random_matrix(n, k, 21)
                            : random_matrix(k, n, 21));
    }
  }
  for (const std::int64_t m : kParityM) {
    std::vector<dense::HostMatrix> as;  // [k]
    for (const std::int64_t k : kParityK) {
      as.push_back(a_rows_k ? random_matrix(k, m, 20)
                            : random_matrix(m, k, 20));
    }
    for (std::size_t ni = 0; ni < std::size(kParityN); ++ni) {
      const std::int64_t n = kParityN[ni];
      const bool thin = thinned(m, n);
      if (thin && m * n > kParityMaxCells) continue;
      std::vector<dense::HostMatrix> c0;  // [beta]
      for (const float beta : kBetas) c0.push_back(parity_c0(m, n, beta, 22));
      for (std::size_t ki = 0; ki < std::size(kParityK); ++ki) {
        const std::int64_t k = kParityK[ki];
        const dense::HostMatrix& a = as[ki];
        const dense::HostMatrix& b = bs[ni * std::size(kParityK) + ki];
        // A thinned shape past kSweepWork only pairs alpha i with beta i:
        // (0, 0) still checks the edge store.
        const bool sweep = !thin || m * n * k <= kSweepWork;
        for (std::size_t ai = 0; ai < std::size(kParityAlphas); ++ai) {
          const float alpha = kParityAlphas[ai];
          for (std::size_t bi = 0; bi < std::size(kBetas); ++bi) {
            if (!sweep && ai != bi) continue;
            const float beta = kBetas[bi];
            dense::HostMatrix c_tiled = c0[bi];
            dense::HostMatrix c_oracle = c_tiled;
            tiled(a.view(), b.view(), c_tiled.view(), alpha, beta);
            oracle(a.view(), b.view(), c_oracle.view(), alpha, beta);
            EXPECT_TRUE(same_bits(c_tiled, c_oracle))
                << case_name(kernel, m, k, n, alpha, beta);
          }
        }
      }
    }
  }
}

/// The compiled ISA variant of the tiled kernels a parity test drives: the
/// build's default, or the x86-64-v4 one.
enum class Isa { kDefault, kV4 };

/// Runs each parity test against one ISA variant's kernels directly, not
/// through the tiled:: dispatch, so every variant the build compiled is held
/// to the oracle whichever one this CPU selects. A variant the build lacks,
/// or this CPU cannot run, is skipped with the reason.
class TiledIsaParity : public ::testing::TestWithParam<Isa> {
 protected:
  void SetUp() override {
    const auto variants = dense::tiled::isa_variants();
    if (GetParam() == Isa::kDefault) {
      kernels_ = variants.front().kernels;
      return;
    }
    for (const dense::tiled::IsaVariant& variant : variants) {
      if (std::string_view(variant.name) != "x86-64-v4") continue;
      if (!variant.supported) {
        GTEST_SKIP() << "this CPU lacks AVX-512 (F/BW/CD/DQ/VL), so the "
                        "x86-64-v4 variant cannot run here";
      }
      kernels_ = variant.kernels;
      return;
    }
    GTEST_SKIP() << "this build has no x86-64-v4 variant (MGGCN_KERNEL_MARCH "
                    "is empty or the compiler lacks -march=x86-64-v4)";
  }

  const dense::DenseKernelTable* kernels_ = nullptr;
};

INSTANTIATE_TEST_SUITE_P(Isa, TiledIsaParity,
                         ::testing::Values(Isa::kDefault, Isa::kV4),
                         [](const ::testing::TestParamInfo<Isa>& info) {
                           return info.param == Isa::kDefault ? "Default"
                                                              : "X86_64_v4";
                         });

TEST_P(TiledIsaParity, GemmBitIdenticalToUnpackedKernel) {
  expect_gemm_parity("gemm", kernels_->gemm, dense::unpacked_tiled::gemm,
                     /*a_rows_k=*/false, /*b_rows_n=*/false);
}

TEST_P(TiledIsaParity, GemmAtBBitIdenticalToUnpackedKernel) {
  expect_gemm_parity("gemm_at_b", kernels_->gemm_at_b,
                     dense::unpacked_tiled::gemm_at_b, /*a_rows_k=*/true,
                     /*b_rows_n=*/false);
}

TEST_P(TiledIsaParity, GemmABtBitIdenticalToUnpackedKernel) {
  expect_gemm_parity("gemm_a_bt", kernels_->gemm_a_bt,
                     dense::unpacked_tiled::gemm_a_bt, /*a_rows_k=*/false,
                     /*b_rows_n=*/true);
}

TEST_P(TiledIsaParity, MaskedGemmBitIdenticalToUnpackedKernel) {
  for (const std::int64_t m : kParityM) {
    for (const std::int64_t n : kParityN) {
      if (thinned(m, n) && m * n > kParityMaxCells) continue;
      for (const std::int64_t k : kParityK) {
        const dense::HostMatrix a = random_matrix(m, k, 23);
        const dense::HostMatrix b = random_matrix(n, k, 24);
        dense::HostMatrix c_tiled = parity_mask(m, n, 25);
        dense::HostMatrix c_oracle = c_tiled;
        kernels_->gemm_a_bt_relu_masked(a.view(), b.view(), c_tiled.view());
        dense::unpacked_tiled::gemm_a_bt_relu_masked(a.view(), b.view(),
                                                     c_oracle.view());
        EXPECT_TRUE(same_bits(c_tiled, c_oracle))
            << case_name("masked", m, k, n, 1.0f, 0.0f);
      }
    }
  }
}

TEST_P(TiledIsaParity, ConcurrentCallsShareNoPackScratch) {
  // Each thread packs B into its own scratch buffer, grown on demand and
  // reused, and A into a sliver on its own stack: two threads interleaving
  // calls with different (and growing, then shrinking) m, n and k must each
  // match the oracle bit for bit, in both A layouts. A shared buffer would
  // be repacked (or reallocated) under the other thread.
  const dense::DenseKernelTable& kernels = *kernels_;
  std::atomic<int> ready{0};
  auto worker = [&ready, &kernels](std::int64_t n0, std::uint64_t seed,
                                   int* mismatches) {
    ++ready;
    while (ready.load() < 2) std::this_thread::yield();
    constexpr std::int64_t kDepths[] = {300, 47, 600};
    for (int round = 0; round < 48; ++round) {
      const std::int64_t n = n0 * (1 + round % 3) + round;
      const std::int64_t m = 96 + (round * 5) % 13;
      const std::int64_t k = kDepths[round % 3];
      const dense::HostMatrix a = random_matrix(m, k, seed + round);
      const dense::HostMatrix at = random_matrix(k, m, seed + 300 + round);
      const dense::HostMatrix b = random_matrix(k, n, seed + 100 + round);
      const dense::HostMatrix bt = random_matrix(n, k, seed + 200 + round);
      dense::HostMatrix c(m, n), c_oracle(m, n);
      kernels.gemm(a.view(), b.view(), c.view(), 1.0f, 0.0f);
      dense::unpacked_tiled::gemm(a.view(), b.view(), c_oracle.view(), 1.0f,
                                  0.0f);
      *mismatches += same_bits(c, c_oracle) ? 0 : 1;
      kernels.gemm_at_b(at.view(), b.view(), c.view(), 1.0f, 0.0f);
      dense::unpacked_tiled::gemm_at_b(at.view(), b.view(), c_oracle.view(),
                                       1.0f, 0.0f);
      *mismatches += same_bits(c, c_oracle) ? 0 : 1;
      kernels.gemm_a_bt(a.view(), bt.view(), c.view(), 1.0f, 0.0f);
      dense::unpacked_tiled::gemm_a_bt(a.view(), bt.view(), c_oracle.view(),
                                       1.0f, 0.0f);
      *mismatches += same_bits(c, c_oracle) ? 0 : 1;
    }
  };
  int mismatches0 = 0, mismatches1 = 0;
  std::thread t0(worker, 16, 31, &mismatches0);
  std::thread t1(worker, 45, 32, &mismatches1);
  t0.join();
  t1.join();
  EXPECT_EQ(mismatches0, 0);
  EXPECT_EQ(mismatches1, 0);
}

TEST(TiledIsa, ReportsTheSelectedVariant) {
  // The dispatch picks the x86-64-v4 variant when it was built (it follows
  // the always-runnable default) and the CPU runs it, else the default. The
  // line below is what CI greps for.
  const auto variants = dense::tiled::isa_variants();
  ASSERT_TRUE(variants.size() == 1 || variants.size() == 2);
  EXPECT_TRUE(variants[0].supported);
  const bool v4 = variants.size() == 2 && variants[1].supported;
  const dense::tiled::IsaVariant* expected = &variants[v4 ? 1 : 0];
  std::string built = variants[0].name;
  if (variants.size() == 2) built += ", " + std::string(variants[1].name);
  EXPECT_EQ(&dense::tiled::selected_isa_variant(), expected);
  EXPECT_STREQ(dense::tiled_gemm_isa(), expected->name);
  std::cout << "tiled GeMM ISA variants built: " << built
            << "; selected: " << dense::tiled_gemm_isa() << std::endl;
}

/// Floats in [-1, 1) with 24 significant bits from an integer LCG: no libm
/// and no rounding, so the same matrix on every platform.
dense::HostMatrix lcg_matrix(std::int64_t rows, std::int64_t cols,
                             std::uint64_t state) {
  dense::HostMatrix m(rows, cols);
  for (std::int64_t i = 0; i < m.size(); ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto mantissa = static_cast<std::int32_t>(state >> 40) - (1 << 23);
    m.data()[i] = static_cast<float>(mantissa) / static_cast<float>(1 << 23);
  }
  return m;
}

/// FNV-1a over the bit patterns of `m`, folded into `hash`.
std::uint64_t fold_bits(std::uint64_t hash, const dense::HostMatrix& m) {
  for (std::int64_t i = 0; i < m.size(); ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, m.data() + i, sizeof(bits));
    for (int byte = 0; byte < 4; ++byte) {
      hash = (hash ^ ((bits >> (8 * byte)) & 0xffu)) * 1099511628211ULL;
    }
  }
  return hash;
}

TEST(KernelPolicyParity, TiledOutputBitsArePinned) {
  // Every multiply and add of the tiled kernels is a distinct IEEE operation
  // in a fixed order (-ffp-contract=off, no reassociation), so their output
  // bits are a function of the inputs alone: the same under every
  // MGGCN_KERNEL_MARCH level, the baseline ISA included. The hash was
  // recorded from the default x86-64-v3 build; a build whose kernels round
  // differently fails here.
  std::uint64_t hash = 14695981039346656037ULL;
  for (const std::int64_t k : {47, 300}) {
    const std::int64_t m = 37, n = 47;
    const dense::HostMatrix a = lcg_matrix(m, k, 1);
    const dense::HostMatrix at = lcg_matrix(k, m, 2);
    const dense::HostMatrix b = lcg_matrix(k, n, 3);
    const dense::HostMatrix bt = lcg_matrix(n, k, 4);
    dense::HostMatrix c = lcg_matrix(m, n, 5);
    dense::tiled::gemm(a.view(), b.view(), c.view(), 0.75f, 0.5f);
    hash = fold_bits(hash, c);
    dense::tiled::gemm_at_b(at.view(), b.view(), c.view(), -1.25f, 1.0f);
    hash = fold_bits(hash, c);
    dense::tiled::gemm_a_bt(a.view(), bt.view(), c.view(), 0.5f, 0.25f);
    hash = fold_bits(hash, c);
    dense::tiled::gemm_a_bt_relu_masked(a.view(), bt.view(), c.view());
    hash = fold_bits(hash, c);
  }
  EXPECT_EQ(hash, 0x2810558918ab6dfcULL) << std::hex << hash;
}

TEST(KernelPolicyParity, Model1ProductBitsArePinned) {
  // The five GeMMs of a Model 1 layer pair (104 -> 512 -> 47, Products) at a
  // reduced row count: both forward products, both weight gradients and the
  // ReLU-masked input gradient. The hash was recorded before the x86-64-v4
  // variant existed; the dispatched kernels and every variant this CPU runs
  // must reproduce it.
  constexpr std::int64_t kRows = 777;  // ragged against every tile
  const dense::HostMatrix x = lcg_matrix(kRows, 104, 6);
  const dense::HostMatrix w1 = lcg_matrix(104, 512, 7);
  const dense::HostMatrix w2 = lcg_matrix(512, 47, 8);
  const dense::HostMatrix g2 = lcg_matrix(kRows, 47, 9);
  const dense::HostMatrix activation = lcg_matrix(kRows, 512, 10);
  auto model1_hash = [&](const dense::DenseKernelTable& kernels) {
    dense::HostMatrix h1(kRows, 512), h2(kRows, 47), dw1(104, 512),
        dw2(512, 47);
    kernels.gemm(x.view(), w1.view(), h1.view(), 1.0f, 0.0f);
    kernels.gemm(activation.view(), w2.view(), h2.view(), 1.0f, 0.0f);
    kernels.gemm_at_b(x.view(), h1.view(), dw1.view(), 1.0f, 0.0f);
    kernels.gemm_at_b(activation.view(), g2.view(), dw2.view(), 1.0f, 0.0f);
    dense::HostMatrix dh1 = activation;
    kernels.gemm_a_bt_relu_masked(g2.view(), w2.view(), dh1.view());
    std::uint64_t hash = 14695981039346656037ULL;
    for (const dense::HostMatrix* m : {&h1, &h2, &dw1, &dw2, &dh1}) {
      hash = fold_bits(hash, *m);
    }
    return hash;
  };
  constexpr std::uint64_t kPinned = 0x3dec390b8abd5834ULL;
  const std::uint64_t dispatched =
      model1_hash(dense::dense_kernels(dense::KernelPolicy::kTiled));
  EXPECT_EQ(dispatched, kPinned) << std::hex << dispatched;
  for (const dense::tiled::IsaVariant& variant :
       dense::tiled::isa_variants()) {
    if (!variant.supported) continue;
    const std::uint64_t hash = model1_hash(*variant.kernels);
    EXPECT_EQ(hash, kPinned) << variant.name << ": " << std::hex << hash;
  }
}

// --- ReLU ----------------------------------------------------------------

/// The ReLU contract as scalar ternaries, built with this file's flags: the
/// oracle for dense::relu_forward / relu_backward, which build with the
/// kernel flags.
void relu_forward_oracle(const float* in, float* out, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = in[i] > 0.0f ? in[i] : 0.0f;
}

void relu_backward_oracle(const float* grad_out, const float* pre,
                          float* grad_in, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    grad_in[i] = pre[i] > 0.0f ? grad_out[i] : 0.0f;
  }
}

float from_bits(std::uint32_t bits) {
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

/// n LCG floats (see lcg_matrix) with the special values mixed in at every
/// fifth position: quiet NaNs of both signs, NaNs with payloads (one
/// signaling), +-0, +-inf, denormals of both signs and +-FLT_MIN.
dense::HostMatrix relu_input(std::int64_t n, std::uint64_t seed) {
  static const float kSpecial[] = {
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      from_bits(0x7fc0beefu),
      from_bits(0xffc0beefu),
      from_bits(0x7f800abcu),
      0.0f,
      -0.0f,
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      from_bits(0x007fffffu),
      from_bits(0x807fffffu),
      std::numeric_limits<float>::min(),
      -std::numeric_limits<float>::min()};
  constexpr std::int64_t kCount = std::size(kSpecial);
  dense::HostMatrix m = lcg_matrix(1, n, seed);
  for (std::int64_t i = 0; i < n; i += 5) {
    m.data()[i] = kSpecial[(i / 5 + static_cast<std::int64_t>(seed)) % kCount];
  }
  return m;
}

bool same_bits(const float* a, const float* b, std::int64_t n) {
  // memcmp must not see the null data() of an empty matrix.
  return n == 0 ||
         std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

TEST(KernelPolicyParity, ReluBitIdenticalToScalarTernary) {
  // NaN and -0.0 both map to +0.0 forward, and a gradient passes through
  // with its exact bits (NaN payloads included): the vectorized
  // compare-and-mask must write what the scalar ternaries write, in place
  // and out of place, at every vector-tail length.
  for (const std::int64_t n : {0, 1, 7, 8, 9, 31, 33, 1000003}) {
    const dense::HostMatrix pre = relu_input(n, 1);
    const dense::HostMatrix grad = relu_input(n, 2);
    dense::HostMatrix expect(1, n), out(1, n);

    relu_forward_oracle(pre.data(), expect.data(), n);
    dense::relu_forward(pre.data(), out.data(), n);
    EXPECT_TRUE(same_bits(out.data(), expect.data(), n))
        << "relu_forward out of place, n=" << n;
    out = pre;
    dense::relu_forward(out.data(), out.data(), n);
    EXPECT_TRUE(same_bits(out.data(), expect.data(), n))
        << "relu_forward in place, n=" << n;

    relu_backward_oracle(grad.data(), pre.data(), expect.data(), n);
    dense::relu_backward(grad.data(), pre.data(), out.data(), n);
    EXPECT_TRUE(same_bits(out.data(), expect.data(), n))
        << "relu_backward out of place, n=" << n;
    out = grad;
    dense::relu_backward(out.data(), pre.data(), out.data(), n);
    EXPECT_TRUE(same_bits(out.data(), expect.data(), n))
        << "relu_backward in place, n=" << n;
  }
}

TEST(KernelPolicyParity, ReluOutputBitsArePinned) {
  // ReLU only selects bits, so its output is the same under every
  // MGGCN_KERNEL_MARCH level. The hash was recorded from the default
  // x86-64-v3 build.
  std::uint64_t hash = 14695981039346656037ULL;
  for (const std::int64_t n : {1, 33, 1000}) {
    const dense::HostMatrix pre = relu_input(n, 3);
    const dense::HostMatrix grad = relu_input(n, 4);
    dense::HostMatrix out(1, n);
    dense::relu_forward(pre.data(), out.data(), n);
    hash = fold_bits(hash, out);
    dense::relu_backward(grad.data(), pre.data(), out.data(), n);
    hash = fold_bits(hash, out);
  }
  EXPECT_EQ(hash, 0x8b1f1487a23210b4ULL) << std::hex << hash;
}

/// CSR with forced empty rows, one dense (high-degree) row to exercise the
/// edge-batched path, and otherwise random structure.
sparse::Csr ragged_csr(std::int64_t rows, std::int64_t cols, double density,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::int64_t> row_ptr{0};
  std::vector<std::uint32_t> col_idx;
  std::vector<float> values;
  for (std::int64_t r = 0; r < rows; ++r) {
    const bool force_empty = r % 5 == 2 || r == rows - 1;
    const bool force_dense = r == rows / 2;
    if (!force_empty) {
      for (std::int64_t c = 0; c < cols; ++c) {
        if (force_dense || rng.bernoulli(density)) {
          col_idx.push_back(static_cast<std::uint32_t>(c));
          values.push_back(static_cast<float>(rng.gaussian()));
        }
      }
    }
    row_ptr.push_back(static_cast<std::int64_t>(col_idx.size()));
  }
  return {rows, cols, std::move(row_ptr), std::move(col_idx),
          std::move(values)};
}

TEST(KernelPolicyProperty, TiledSpmmMatchesNaive) {
  for (const auto& [rows, cols, d] :
       std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>>{
           {1, 1, 1}, {9, 7, 5}, {40, 31, 33}, {64, 64, 130}, {33, 50, 257}}) {
    const sparse::Csr a = ragged_csr(rows, cols, 0.2, 13);
    const dense::HostMatrix b = random_matrix(cols, d, 14);
    const dense::HostMatrix c0 = random_matrix(rows, d, 15);
    for (float alpha : kAlphas) {
      for (float beta : kBetas) {
        dense::HostMatrix c_naive = c0;
        dense::HostMatrix c_tiled = c0;
        sparse::naive::spmm(a, b.view(), c_naive.view(), alpha, beta);
        sparse::tiled::spmm(a, b.view(), c_tiled.view(), alpha, beta);
        expect_close(c_naive.view(), c_tiled.view(), 1e-5,
                     case_name("spmm", rows, cols, d, alpha, beta));
      }
    }
  }
}

TEST(KernelPolicyProperty, SpmmPoliciesBitIdenticalAtBetaZero) {
  // All three policies initialize the output row from the first nonzero and
  // accumulate edges in CSR order per element, so at beta == 0 they must
  // agree bit-for-bit — not just within tolerance.
  for (std::int64_t d : {1, 33, 64, 130, 257}) {
    const sparse::Csr a = ragged_csr(50, 41, 0.3, 16);
    const dense::HostMatrix b = random_matrix(41, d, 17);
    for (float alpha : {1.0f, 0.5f}) {
      dense::HostMatrix c_naive(50, d);
      dense::HostMatrix c_tiled(50, d);
      dense::HostMatrix c_planned(50, d);
      c_naive.fill(7.0f);  // stale contents that beta == 0 must ignore
      c_tiled.fill(-3.0f);
      c_planned.fill(11.0f);
      sparse::naive::spmm(a, b.view(), c_naive.view(), alpha, 0.0f);
      sparse::tiled::spmm(a, b.view(), c_tiled.view(), alpha, 0.0f);
      sparse::planned::spmm(a, b.view(), c_planned.view(), alpha, 0.0f);
      const auto bytes =
          static_cast<std::size_t>(c_naive.size()) * sizeof(float);
      EXPECT_EQ(std::memcmp(c_naive.data(), c_tiled.data(), bytes), 0)
          << "tiled d=" << d << " alpha=" << alpha;
      EXPECT_EQ(std::memcmp(c_naive.data(), c_planned.data(), bytes), 0)
          << "planned d=" << d << " alpha=" << alpha;
    }
  }
}

TEST(KernelPolicy, TrainerNumericsMatchAcrossPolicies) {
  // End-to-end guard for the acceptance bar: the serial reference trainer's
  // logits under the tiled and planned policies match the naive policy
  // within 1e-4.
  graph::DatasetSpec spec = graph::cora();
  spec.n = 200;
  spec.feature_dim = 24;
  spec.num_classes = 5;
  spec.avg_degree = 8.0;
  graph::DatasetOptions options;
  options.seed = 11;
  const graph::Dataset ds = graph::make_dataset(spec, options);

  core::TrainConfig config;
  config.hidden_dims = {16};
  config.seed = 3;

  auto run = [&](dense::KernelPolicy policy) {
    util::Knob<dense::KernelPolicy>::Scoped scope(dense::kernel_policy_knob,
                                                  policy);
    core::ReferenceTrainer trainer(ds, config);
    for (int epoch = 0; epoch < 3; ++epoch) trainer.train_epoch();
    return trainer.forward();
  };
  const dense::HostMatrix logits_naive = run(dense::KernelPolicy::kNaive);
  const dense::HostMatrix logits_tiled = run(dense::KernelPolicy::kTiled);
  const dense::HostMatrix logits_planned = run(dense::KernelPolicy::kPlanned);
  EXPECT_LT(dense::max_abs_diff(logits_naive.view(), logits_tiled.view()),
            1e-4);
  EXPECT_LT(dense::max_abs_diff(logits_naive.view(), logits_planned.view()),
            1e-4);
}

TEST(KernelPolicy, DistributedTrainerChargesInspectOncePerTile) {
  // Under the planned policy the distributed trainer must trace exactly one
  // kInspect task per distinct adjacency tile — 2 * P^2 across the forward
  // (A_hat^T) and backward (A_hat) grids — on the first epoch, and none
  // afterwards: the whole point of the plan is amortization.
  graph::DatasetSpec spec = graph::cora();
  spec.n = 300;
  spec.feature_dim = 24;
  spec.num_classes = 5;
  spec.avg_degree = 8.0;
  graph::DatasetOptions options;
  options.seed = 13;
  const graph::Dataset ds = graph::make_dataset(spec, options);

  for (const int gpus : {1, 2, 4}) {
    util::Knob<dense::KernelPolicy>::Scoped scope(dense::kernel_policy_knob,
                                                  dense::KernelPolicy::kPlanned);
    core::TrainConfig config;
    config.hidden_dims = {16};
    config.seed = 3;
    // The inspect-count contract below is specific to the 1D staged
    // executor; pin the strategy so auto cannot reroute these products.
    config.plan_mode = core::PlanMode::k1D;

    sim::Machine machine(sim::dgx_v100(), gpus, sim::ExecutionMode::kReal);
    core::MgGcnTrainer trainer(machine, ds, config);

    auto inspect_count = [&] {
      std::size_t count = 0;
      for (const auto& rec : machine.trace().records()) {
        if (rec.kind == sim::TaskKind::kInspect) ++count;
      }
      return count;
    };

    trainer.train_epoch();
    const std::size_t expected =
        2 * static_cast<std::size_t>(gpus) * static_cast<std::size_t>(gpus);
    EXPECT_EQ(inspect_count(), expected) << gpus << " gpus, epoch 0";
    trainer.train_epoch();
    trainer.train_epoch();
    EXPECT_EQ(inspect_count(), expected)
        << gpus << " gpus: plans must be reused, not rebuilt";
  }
}

TEST(KernelPolicy, MultiDeviceTrainerMatchesReferenceUnderAllPolicies) {
  // The acceptance bar: the multi-device trainer equals the serial
  // reference under every registered kernel policy.
  graph::DatasetSpec spec = graph::cora();
  spec.n = 300;
  spec.feature_dim = 24;
  spec.num_classes = 5;
  spec.avg_degree = 8.0;
  graph::DatasetOptions options;
  options.seed = 17;
  const graph::Dataset ds = graph::make_dataset(spec, options);

  for (const dense::KernelPolicy policy :
       {dense::KernelPolicy::kNaive, dense::KernelPolicy::kTiled,
        dense::KernelPolicy::kPlanned}) {
    util::Knob<dense::KernelPolicy>::Scoped scope(dense::kernel_policy_knob,
                                                  policy);
    core::TrainConfig config;
    config.hidden_dims = {16};
    config.seed = 3;
    config.permute = false;

    sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
    core::MgGcnTrainer trainer(machine, ds, config);
    core::ReferenceTrainer reference(ds, config);
    for (int epoch = 0; epoch < 3; ++epoch) {
      const auto dist = trainer.train_epoch();
      const auto ref = reference.train_epoch();
      EXPECT_NEAR(dist.loss, ref.loss, 1e-3 * std::max(1.0, ref.loss))
          << dense::kernel_policy_name(policy) << ", epoch " << epoch;
    }
  }
}

}  // namespace
}  // namespace mggcn
