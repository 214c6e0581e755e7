// Layer replays of the traced run: each re-executes one layer's calls on the
// workload's own inputs, outside the timed end-to-end region, and reports
// the layer's host time next to its counted work.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/sampling.hpp"
#include "report.hpp"
#include "sim/profile.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

/// One SpMM product C = A * B with B of width `width`.
struct SpmmProduct {
  const mggcn::sparse::Csr* a = nullptr;
  std::int64_t width = 0;
};

/// One GeMM C(m x n) = A(m x k) * B(k x n).
struct GemmShape {
  std::int64_t m = 0;
  std::int64_t k = 0;
  std::int64_t n = 0;
};

struct SpmmReplay {
  double host_s = 0.0;        ///< median over passes of the products' time
  double plan_build_s = 0.0;  ///< SpmmPlan::inspect over the distinct tiles
  double cost_bytes = 0.0;    ///< cost-model bytes moved (stream + gather)
  double sim_s = 0.0;         ///< cost-model seconds of the same products
};

/// Times `products` through sparse::spmm (the active kernel policy) after
/// one untimed warm-up pass; `device` prices the simulated seconds.
[[nodiscard]] SpmmReplay replay_spmm(const std::vector<SpmmProduct>& products,
                                     const mggcn::sim::DeviceProfile& device,
                                     Spans& spans);

struct GemmReplay {
  double host_s = 0.0;
  double flops = 0.0;
};

[[nodiscard]] GemmReplay replay_gemm(const std::vector<GemmShape>& shapes,
                                     Spans& spans);

struct SampleReplay {
  double host_s = 0.0;
  std::int64_t edges = 0;
  std::vector<mggcn::graph::SampledSubgraph> subgraphs;
};

/// NeighborSampler::sample over `batches` with one RNG seeded by `seed`.
[[nodiscard]] SampleReplay replay_sampler(
    const mggcn::sparse::Csr& adjacency, const std::vector<std::int64_t>& fanout,
    const std::vector<std::vector<std::uint32_t>>& batches, std::uint64_t seed,
    Spans& spans);

/// Host seconds of one staged exchange — a Communicator::broadcast of
/// `count` floats from every rank in turn — on a fresh real-mode machine,
/// median over `repeats`.
[[nodiscard]] double replay_broadcast(const mggcn::sim::MachineProfile& profile,
                                      int devices, std::size_t count,
                                      int repeats, Spans& spans);

}  // namespace perfbench
