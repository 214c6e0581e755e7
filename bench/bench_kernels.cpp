// google-benchmark microbenchmarks of the host compute kernels that stand in
// for cuSPARSE/cuBLAS: CSR SpMM, the three GeMM variants, the fused masked
// input-gradient GeMM, and the elementwise/optimizer kernels. These measure
// the *real* host implementations (the ones the correctness tests train
// with), not the simulated-time model.
//
// The policy-dispatched kernels are registered once per KernelPolicy
// (".../naive/...", ".../tiled/...", and for SpMM ".../planned/...") and
// swept over feature dimensions d in {32, 128, 512}, each reporting a
// flops_per_s counter — the stable unit scripts/check_perf.py gates CI perf
// regressions on. The GeMM benches stay {naive, tiled}: the planned policy
// shares the tiled dense kernels, so planned rows would be duplicates.
// Besides the square m:2048/d sweep, the GeMMs run at one device's share of
// fullbatch-products (".../m:13056/in:104/out:512" and in:512/out:47: the
// forward, the weight gradient and, for the 47-wide layer, the plain and
// ReLU-masked input gradient), where n or k is 47, and at one round's first
// layer of minibatch-products (".../m:2400/in:104/out:64": ~2400 frontier
// rows, the forward and the weight gradient).
// The benchmark context records the ISA variant the tiled GeMMs dispatched
// to ("tiled_gemm_isa": x86-64-v4 on an AVX-512 CPU, else the build's
// kernel -march level).
// ReluForward and ReluBackward run out of place at the same share
// (".../m:13056/d:512"), once as the library's loops (".../tiled/...") and
// once as the branching loops the library used to build (".../naive/..."),
// so the tiled-over-naive floor also guards the ReLU vectorization.
// Planned SpMM rows additionally report plan_build_s (the one-time
// inspector cost), and SpmmAmortized rows measure one inspection plus a
// burst of executions — the shape a training run actually sees. SpmmSkew
// rows use a heavy-tailed (lognormal sigma = 2) degree distribution, the
// regime the degree-binned executors are built for. NeighborSample rows
// time the mini-batch sampler on the Products replica (1/48, 10,10 fanout)
// in sampled edges per second, and CacheAdmit rows one round of LFU
// feature-cache lookup + admission at the sampled pipeline's shape. The
// graph-preparation rows (PermuteSymmetric, MakeTileGrid, TransposeTileGrid,
// BuildTilePlans) time each step of a trainer's one-time preprocessing on
// the same replica, permuted and cut for 4 devices, in nonzeros per second.
// Emit JSON with
//   bench_kernels --benchmark_format=json --benchmark_out=kernels.json
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "core/feature_cache.hpp"
#include "core/gcn_kernels.hpp"
#include "core/partition.hpp"
#include "dense/kernel_policy.hpp"
#include "dense/kernels.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/sampling.hpp"
#include "sim/machine.hpp"
#include "sparse/sddmm.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmm_plan.hpp"
#include "util/rng.hpp"

using namespace mggcn;

namespace {

constexpr std::int64_t kFeatureSweep[] = {32, 128, 512};
constexpr dense::KernelPolicy kPolicies[] = {dense::KernelPolicy::kNaive,
                                             dense::KernelPolicy::kTiled};
/// Rows per device of fullbatch-products and its (in, out) layer dims.
constexpr std::int64_t kFullbatchRows = 13056;
constexpr std::pair<std::int64_t, std::int64_t> kFullbatchLayers[] = {
    {104, 512}, {512, 47}};
/// Frontier rows of one minibatch-products round's first layer (fanout
/// 10,10, 256 seeds), which maps 104 -> 64.
constexpr std::int64_t kMinibatchRows = 2400;
constexpr dense::KernelPolicy kSpmmPolicies[] = {dense::KernelPolicy::kNaive,
                                                 dense::KernelPolicy::kTiled,
                                                 dense::KernelPolicy::kPlanned};

sparse::Csr random_graph(std::int64_t n, double degree,
                         double degree_sigma = 1.0) {
  util::Rng rng(7);
  graph::BterParams params;
  params.n = n;
  params.avg_degree = degree;
  params.degree_sigma = degree_sigma;
  return sparse::Csr::from_coo(graph::bter_like(params, rng).edges);
}

dense::HostMatrix random_matrix(std::int64_t rows, std::int64_t cols) {
  util::Rng rng(11);
  dense::HostMatrix m(rows, cols);
  m.init_gaussian(rng);
  return m;
}

/// Reports total floating-point throughput as the counter the CI perf gate
/// keys on (rendered as GFLOP/s by the console reporter).
void set_flops_counter(benchmark::State& state, double flops_per_iteration) {
  state.counters["flops_per_s"] = benchmark::Counter(
      flops_per_iteration, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}

void bm_spmm(benchmark::State& state, dense::KernelPolicy policy,
             std::int64_t n, std::int64_t d, double degree_sigma) {
  util::Knob<dense::KernelPolicy>::Scoped scope(dense::kernel_policy_knob,
                                                policy);
  const sparse::Csr a = random_graph(n, 16.0, degree_sigma);
  const dense::HostMatrix b = random_matrix(n, d);
  dense::HostMatrix c(n, d);
  if (policy == dense::KernelPolicy::kPlanned) {
    // Measure the one-time inspector cost explicitly, then pre-warm the
    // process-wide plan cache so the timed loop sees the steady state a
    // training run sees (plan hit on every call).
    const auto t0 = std::chrono::steady_clock::now();
    const sparse::SpmmPlan plan = sparse::SpmmPlan::inspect(a);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(plan.nnz());
    state.counters["plan_build_s"] =
        std::chrono::duration<double>(t1 - t0).count();
    sparse::spmm(a, b.view(), c.view());
  }
  for (auto _ : state) {
    sparse::spmm(a, b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz() * d);
  set_flops_counter(state, 2.0 * static_cast<double>(a.nnz() * d));
}

void bm_spmm_amortized(benchmark::State& state, std::int64_t n,
                       std::int64_t d) {
  // The shape a training run sees: one inspection amortized over a burst of
  // executions of the same tile (2 * L * P^2 launches per epoch in the
  // distributed trainer). flops_per_s here is the *amortized* per-call
  // throughput, inspector included.
  constexpr int kExecsPerPlan = 32;
  const sparse::Csr a = random_graph(n, 16.0);
  const dense::HostMatrix b = random_matrix(n, d);
  dense::HostMatrix c(n, d);
  for (auto _ : state) {
    const sparse::SpmmPlan plan = sparse::SpmmPlan::inspect(a);
    for (int i = 0; i < kExecsPerPlan; ++i) {
      plan.execute(a, b.view(), c.view(), 1.0f, 0.0f);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * kExecsPerPlan * a.nnz() * d);
  set_flops_counter(
      state, 2.0 * static_cast<double>(kExecsPerPlan) *
                 static_cast<double>(a.nnz() * d));
}

void bm_gemm(benchmark::State& state, dense::KernelPolicy policy,
             std::int64_t m, std::int64_t k, std::int64_t n) {
  util::Knob<dense::KernelPolicy>::Scoped scope(dense::kernel_policy_knob,
                                                policy);
  const dense::HostMatrix a = random_matrix(m, k);
  const dense::HostMatrix b = random_matrix(k, n);
  dense::HostMatrix c(m, n);
  for (auto _ : state) {
    dense::gemm(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
  set_flops_counter(state, 2.0 * static_cast<double>(m * k * n));
}

/// The weight-gradient shape: C(k x n) = A(m x k)^T * B(m x n).
void bm_gemm_at_b(benchmark::State& state, dense::KernelPolicy policy,
                  std::int64_t m, std::int64_t k, std::int64_t n) {
  util::Knob<dense::KernelPolicy>::Scoped scope(dense::kernel_policy_knob,
                                                policy);
  const dense::HostMatrix a = random_matrix(m, k);
  const dense::HostMatrix b = random_matrix(m, n);
  dense::HostMatrix c(k, n);
  for (auto _ : state) {
    dense::gemm_at_b(a.view(), b.view(), c.view());
    benchmark::DoNotOptimize(c.data());
  }
  set_flops_counter(state, 2.0 * static_cast<double>(m * k * n));
}

/// The input-gradient shape of a k -> n layer: C(m x k) = G(m x n) * W^T
/// with W (k x n), plain or fused with the ReLU mask.
void bm_gemm_a_bt(benchmark::State& state, dense::KernelPolicy policy,
                  bool masked, std::int64_t m, std::int64_t k,
                  std::int64_t n) {
  util::Knob<dense::KernelPolicy>::Scoped scope(dense::kernel_policy_knob,
                                                policy);
  const dense::HostMatrix g = random_matrix(m, n);
  const dense::HostMatrix w = random_matrix(k, n);
  const dense::HostMatrix activation = random_matrix(m, k);
  dense::HostMatrix c(m, k);
  for (auto _ : state) {
    if (masked) {
      state.PauseTiming();
      c = activation;  // the mask is consumed in place each iteration
      state.ResumeTiming();
      dense::gemm_a_bt_relu_masked(g.view(), w.view(), c.view());
    } else {
      dense::gemm_a_bt(g.view(), w.view(), c.view());
    }
    benchmark::DoNotOptimize(c.data());
  }
  set_flops_counter(state, 2.0 * static_cast<double>(m * k * n));
}

/// The ReLU loops as the library built them before they moved to the
/// kernel-flag translation unit: here, at the bench's default flags, the
/// ternaries stay compare-and-branch loops. The `naive` ReLU twin rows.
[[gnu::noinline]] void relu_forward_naive(const float* in, float* out,
                                          std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = in[i] > 0.0f ? in[i] : 0.0f;
}

[[gnu::noinline]] void relu_backward_naive(const float* grad_out,
                                           const float* pre_activation,
                                           float* grad_in, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) {
    grad_in[i] = pre_activation[i] > 0.0f ? grad_out[i] : 0.0f;
  }
}

/// ReLU forward (or backward) over a rows x cols activation, out of place
/// from a fixed sign-random source: rectified in place, every iteration
/// after the first would time input that is already non-negative.
/// flops_per_s counts one compare per element.
void bm_relu(benchmark::State& state, bool backward, bool naive,
             std::int64_t rows, std::int64_t cols) {
  const dense::HostMatrix pre = random_matrix(rows, cols);
  dense::HostMatrix out(rows, cols);
  const std::int64_t n = out.size();
  for (auto _ : state) {
    if (backward) {
      // The gradient's values do not steer the select; `pre` serves.
      (naive ? relu_backward_naive : dense::relu_backward)(
          pre.data(), pre.data(), out.data(), n);
    } else {
      (naive ? relu_forward_naive : dense::relu_forward)(pre.data(),
                                                         out.data(), n);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * n * (backward ? 12 : 8));
  set_flops_counter(state, static_cast<double>(n));
}

void register_policy_benchmarks() {
  for (const auto policy : kSpmmPolicies) {
    const std::string tag = dense::kernel_policy_name(policy);
    for (const std::int64_t d : kFeatureSweep) {
      for (const std::int64_t n : {4096, 16384}) {
        benchmark::RegisterBenchmark(
            ("Spmm/" + tag + "/n:" + std::to_string(n) +
             "/d:" + std::to_string(d))
                .c_str(),
            bm_spmm, policy, n, d, /*degree_sigma=*/1.0);
      }
      // The heavy-tailed case (hub rows next to near-empty ones) only at
      // the large size: this is the distribution the planned policy's
      // degree bins target, and what the CI skew gate keys on.
      benchmark::RegisterBenchmark(
          ("SpmmSkew/" + tag + "/n:16384/d:" + std::to_string(d)).c_str(),
          bm_spmm, policy, 16384, d, /*degree_sigma=*/2.0);
    }
  }
  for (const std::int64_t d : kFeatureSweep) {
    benchmark::RegisterBenchmark(
        ("SpmmAmortized/planned/n:16384/d:" + std::to_string(d)).c_str(),
        bm_spmm_amortized, 16384, d);
  }
  for (const auto policy : kPolicies) {
    const std::string tag = dense::kernel_policy_name(policy);
    for (const std::int64_t d : kFeatureSweep) {
      const std::string shape = "/m:2048/d:" + std::to_string(d);
      benchmark::RegisterBenchmark(("Gemm/" + tag + shape).c_str(), bm_gemm,
                                   policy, 2048, d, d);
      benchmark::RegisterBenchmark(("GemmAtB/" + tag + shape).c_str(),
                                   bm_gemm_at_b, policy, 2048, d, d);
      benchmark::RegisterBenchmark(("GemmABtMasked/" + tag + shape).c_str(),
                                   bm_gemm_a_bt, policy, /*masked=*/true, 2048,
                                   d, d);
    }
    // One device's share of fullbatch-products (Products 1/48 over 4
    // devices, Model 1: 104 -> 512 -> 47): the narrow n = 47 and short
    // k = 47 products the square sweep above never reaches.
    for (const auto& [in, out] : kFullbatchLayers) {
      const std::string shape = "/m:" + std::to_string(kFullbatchRows) +
                                "/in:" + std::to_string(in) +
                                "/out:" + std::to_string(out);
      benchmark::RegisterBenchmark(("Gemm/" + tag + shape).c_str(), bm_gemm,
                                   policy, kFullbatchRows, in, out);
      benchmark::RegisterBenchmark(("GemmAtB/" + tag + shape).c_str(),
                                   bm_gemm_at_b, policy, kFullbatchRows, in,
                                   out);
    }
    const std::string minibatch =
        "/m:" + std::to_string(kMinibatchRows) + "/in:104/out:64";
    benchmark::RegisterBenchmark(("Gemm/" + tag + minibatch).c_str(), bm_gemm,
                                 policy, kMinibatchRows, 104, 64);
    benchmark::RegisterBenchmark(("GemmAtB/" + tag + minibatch).c_str(),
                                 bm_gemm_at_b, policy, kMinibatchRows, 104,
                                 64);
    const std::string last = "/m:" + std::to_string(kFullbatchRows) +
                             "/in:512/out:47";
    benchmark::RegisterBenchmark(("GemmABt/" + tag + last).c_str(),
                                 bm_gemm_a_bt, policy, /*masked=*/false,
                                 kFullbatchRows, 512, 47);
    benchmark::RegisterBenchmark(("GemmABtMasked/" + tag + last).c_str(),
                                 bm_gemm_a_bt, policy, /*masked=*/true,
                                 kFullbatchRows, 512, 47);
  }
  // The ReLU passes are policy-independent; their naive twins are the
  // branching loops above, at the trainer's 512-wide hidden layer.
  const std::string relu_shape =
      "/m:" + std::to_string(kFullbatchRows) + "/d:512";
  for (const bool naive : {true, false}) {
    const std::string tag = naive ? "naive" : "tiled";
    benchmark::RegisterBenchmark(("ReluForward/" + tag + relu_shape).c_str(),
                                 bm_relu, /*backward=*/false, naive,
                                 kFullbatchRows, 512);
    benchmark::RegisterBenchmark(("ReluBackward/" + tag + relu_shape).c_str(),
                                 bm_relu, /*backward=*/true, naive,
                                 kFullbatchRows, 512);
  }
}

// --- policy-independent kernels (sparse attention, elementwise, optimizer) --

void BM_Sddmm(benchmark::State& state) {
  const auto n = state.range(0);
  const auto d = state.range(1);
  const sparse::Csr pattern = random_graph(n, 16.0);
  const dense::HostMatrix u = random_matrix(n, d);
  const dense::HostMatrix v = random_matrix(n, d);
  for (auto _ : state) {
    sparse::Csr out = sparse::sddmm(pattern, u.view(), v.view());
    benchmark::DoNotOptimize(out.values().data());
  }
  state.SetItemsProcessed(state.iterations() * pattern.nnz() * d);
  set_flops_counter(state, 2.0 * static_cast<double>(pattern.nnz() * d));
}
BENCHMARK(BM_Sddmm)->Args({4096, 32})->Args({4096, 128});

void BM_EdgeSoftmax(benchmark::State& state) {
  const auto n = state.range(0);
  sparse::Csr m = random_graph(n, 16.0);
  for (auto _ : state) {
    sparse::edge_softmax(m);
    benchmark::DoNotOptimize(m.values().data());
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
}
BENCHMARK(BM_EdgeSoftmax)->Arg(4096)->Arg(16384);

void BM_ReluForward(benchmark::State& state) {
  bm_relu(state, /*backward=*/false, /*naive=*/false, state.range(0), 64);
}
BENCHMARK(BM_ReluForward)->Arg(1 << 14)->Arg(1 << 17);

void BM_ReluBackward(benchmark::State& state) {
  bm_relu(state, /*backward=*/true, /*naive=*/false, state.range(0), 64);
}
BENCHMARK(BM_ReluBackward)->Arg(1 << 14)->Arg(1 << 17);

void BM_SoftmaxXent(benchmark::State& state) {
  const auto n = state.range(0);
  const std::int64_t classes = 40;
  util::Rng rng(3);
  std::vector<std::int32_t> labels(static_cast<std::size_t>(n));
  for (auto& l : labels) l = static_cast<std::int32_t>(rng.uniform_index(40));
  const dense::HostMatrix base = random_matrix(n, classes);
  dense::HostMatrix logits(n, classes);
  for (auto _ : state) {
    state.PauseTiming();
    logits = base;
    state.ResumeTiming();
    auto r = core::softmax_cross_entropy_inplace(logits.view(), labels.data(),
                                                 nullptr, n);
    benchmark::DoNotOptimize(r.loss_sum);
  }
}
BENCHMARK(BM_SoftmaxXent)->Arg(4096)->Arg(16384);

void BM_Adam(benchmark::State& state) {
  const auto n = state.range(0);
  dense::HostMatrix w = random_matrix(n, 1);
  dense::HostMatrix g = random_matrix(n, 1);
  dense::HostMatrix m(n, 1), v(n, 1);
  int step = 0;
  for (auto _ : state) {
    core::adam_update(w.data(), g.data(), m.data(), v.data(), n, ++step,
                      1e-2, 0.9, 0.999, 1e-8);
    benchmark::DoNotOptimize(w.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Adam)->Arg(1 << 14)->Arg(1 << 18);

// --- mini-batch round preparation (sampler, feature-cache bookkeeping) ----

/// The Products replica at 1/48 (n ~ 52k, nnz ~ 2.6M), built once.
const sparse::Csr& products_replica() {
  static const graph::Dataset dataset = graph::make_dataset(
      graph::products(), {.scale = 48.0, .seed = 1, .with_features = false});
  return dataset.adjacency;
}

void BM_NeighborSample(benchmark::State& state) {
  const sparse::Csr& adjacency = products_replica();
  const graph::NeighborSampler sampler(adjacency, {10, 10});
  util::Rng rng(5);
  std::int64_t edges = 0;
  for (auto _ : state) {
    const graph::SampledSubgraph sub =
        sampler.sample(sampler.random_batch(state.range(0), rng), rng);
    edges += sub.total_edges();
    benchmark::DoNotOptimize(sub.blocks.back().values().data());
  }
  state.counters["edges_per_s"] = benchmark::Counter(
      static_cast<double>(edges), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NeighborSample)->Arg(256)->Arg(1024);

void BM_CacheAdmit(benchmark::State& state) {
  // One device's view of the pipeline: a 5% LFU cache prefilled by degree,
  // then per round a lookup of a sampled input frontier and admission of
  // its misses.
  const sparse::Csr& adjacency = products_replica();
  const graph::NeighborSampler sampler(adjacency, {10, 10});
  util::Rng rng(9);
  std::vector<std::vector<std::uint32_t>> frontiers;
  for (int b = 0; b < 32; ++b) {
    frontiers.push_back(
        sampler.sample(sampler.random_batch(256, rng), rng).layers.back());
  }
  std::vector<std::uint32_t> vertices(
      static_cast<std::size_t>(adjacency.rows()));
  std::vector<std::int64_t> degree(vertices.size());
  for (std::size_t v = 0; v < vertices.size(); ++v) {
    vertices[v] = static_cast<std::uint32_t>(v);
    degree[v] = adjacency.row_nnz(static_cast<std::int64_t>(v));
  }
  sim::Machine machine(sim::dgx_v100(), 1, sim::ExecutionMode::kPhantom);
  core::FeatureCache cache(machine.device(0), 1, adjacency.rows() / 20,
                           core::CacheMode::kFreq);
  cache.prefill(vertices, degree);
  std::size_t round = 0;
  for (auto _ : state) {
    const auto& frontier = frontiers[round++ % frontiers.size()];
    const core::FeatureCache::Partition part = cache.lookup(frontier);
    benchmark::DoNotOptimize(cache.admit(part.miss_vertices).data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(frontiers[0].size()));
}
BENCHMARK(BM_CacheAdmit);

// --- graph preparation (the one-time work of every trainer set-up) --------

/// The Products replica prepared as MgGcnTrainer prepares it for 4
/// devices: a random symmetric permutation, GCN normalization, and the
/// uniform 4-way tiling of Â.
struct PreparedReplica {
  std::vector<std::uint32_t> perm;
  core::PartitionVector partition;
  core::TileGrid a_hat;
};

const PreparedReplica& prepared_replica() {
  static const PreparedReplica prepared = [] {
    const sparse::Csr& adjacency = products_replica();
    PreparedReplica p;
    p.perm = util::Rng(3).permutation<std::uint32_t>(
        static_cast<std::size_t>(adjacency.rows()));
    p.partition = core::PartitionVector::uniform(adjacency.rows(), 4);
    p.a_hat = core::make_tile_grid(
        adjacency.permute_symmetric(p.perm).normalize_gcn(), p.partition);
    return p;
  }();
  return prepared;
}

void set_nnz_rate(benchmark::State& state, std::int64_t nnz) {
  state.counters["nnz_per_s"] = benchmark::Counter(
      static_cast<double>(nnz) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_PermuteSymmetric(benchmark::State& state) {
  const sparse::Csr& adjacency = products_replica();
  const PreparedReplica& prepared = prepared_replica();
  for (auto _ : state) {
    const sparse::Csr permuted = adjacency.permute_symmetric(prepared.perm);
    benchmark::DoNotOptimize(permuted.values().data());
  }
  set_nnz_rate(state, adjacency.nnz());
}
BENCHMARK(BM_PermuteSymmetric)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_MakeTileGrid(benchmark::State& state) {
  const PreparedReplica& prepared = prepared_replica();
  const sparse::Csr a_hat = core::assemble_tile_grid(prepared.a_hat);
  for (auto _ : state) {
    const core::TileGrid grid = core::make_tile_grid(a_hat, prepared.partition);
    benchmark::DoNotOptimize(grid.tile(0, 0).values().data());
  }
  set_nnz_rate(state, a_hat.nnz());
}
BENCHMARK(BM_MakeTileGrid)->Unit(benchmark::kMillisecond)->UseRealTime();

std::int64_t grid_nnz(const core::TileGrid& grid) {
  std::int64_t nnz = 0;
  for (int i = 0; i < grid.parts(); ++i) nnz += grid.row_nnz(i);
  return nnz;
}

void BM_TransposeTileGrid(benchmark::State& state) {
  const PreparedReplica& prepared = prepared_replica();
  for (auto _ : state) {
    const core::TileGrid grid = core::transpose_tile_grid(prepared.a_hat);
    benchmark::DoNotOptimize(grid.tile(0, 0).values().data());
  }
  set_nnz_rate(state, grid_nnz(prepared.a_hat));
}
BENCHMARK(BM_TransposeTileGrid)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_BuildTilePlans(benchmark::State& state) {
  // Every iteration inspects all 16 tiles of a grid with an empty plan
  // cache: the tiles are copied untimed into a fresh TileGrid, which owns
  // a fresh cache.
  const PreparedReplica& prepared = prepared_replica();
  for (auto _ : state) {
    state.PauseTiming();
    core::TileGrid grid;
    grid.partition = prepared.partition;
    grid.tiles = prepared.a_hat.tiles;
    state.ResumeTiming();
    grid.build_plans();
    benchmark::DoNotOptimize(&grid.plan(0, 0));
  }
  set_nnz_rate(state, grid_nnz(prepared.a_hat));
}
BENCHMARK(BM_BuildTilePlans)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  register_policy_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("tiled_gemm_isa", dense::tiled_gemm_isa());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
