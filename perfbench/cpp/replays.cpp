#include "replays.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "comm/communicator.hpp"
#include "dense/kernels.hpp"
#include "dense/matrix.hpp"
#include "sim/cost_model.hpp"
#include "sim/machine.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmm_plan.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace m = mggcn;

namespace {

constexpr int kPasses = 3;

void fill(m::dense::HostMatrix& matrix, std::uint64_t seed) {
  m::util::Rng rng(seed);
  float* p = matrix.data();
  for (std::int64_t i = 0; i < matrix.size(); ++i) {
    p[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
}

}  // namespace

SpmmReplay replay_spmm(const std::vector<SpmmProduct>& products,
                       const m::sim::DeviceProfile& device, Spans& spans) {
  SpmmReplay result;
  // One B / C operand pair per width, sized for the largest product.
  std::map<std::int64_t, std::pair<m::dense::HostMatrix, m::dense::HostMatrix>>
      operands;
  std::map<std::int64_t, std::pair<std::int64_t, std::int64_t>> extents;
  for (const SpmmProduct& p : products) {
    auto& [rows, cols] = extents[p.width];
    rows = std::max(rows, p.a->rows());
    cols = std::max(cols, p.a->cols());
  }
  for (const auto& [width, extent] : extents) {
    auto& [b, c] = operands[width];
    b = m::dense::HostMatrix(extent.second, width);
    c = m::dense::HostMatrix(extent.first, width);
    fill(b, static_cast<std::uint64_t>(width));
  }
  for (const SpmmProduct& p : products) {
    const m::sim::KernelCost cost = m::sparse::spmm_cost(*p.a, p.width);
    result.cost_bytes += cost.stream_bytes + cost.gather_bytes;
    result.sim_s += m::sim::CostModel::seconds(cost, device);
  }

  auto run_all = [&] {
    for (const SpmmProduct& p : products) {
      auto& [b, c] = operands[p.width];
      m::sparse::spmm(*p.a, {b.data(), p.a->cols(), p.width},
                      {c.data(), p.a->rows(), p.width});
    }
  };
  {
    auto span = spans.open("sparse.spmm.warmup");
    run_all();
  }
  std::vector<double> passes;
  for (int pass = 0; pass < kPasses; ++pass) {
    auto span = spans.open("sparse.spmm");
    m::util::WallTimer timer;
    run_all();
    passes.push_back(timer.elapsed_seconds());
  }
  result.host_s = quantile(passes, 0.5);

  std::set<const m::sparse::Csr*> distinct;
  for (const SpmmProduct& p : products) distinct.insert(p.a);
  {
    auto span = spans.open("sparse.plan_build");
    m::util::WallTimer timer;
    for (const m::sparse::Csr* a : distinct) {
      (void)m::sparse::SpmmPlan::inspect(*a);
    }
    result.plan_build_s = timer.elapsed_seconds();
  }
  return result;
}

GemmReplay replay_gemm(const std::vector<GemmShape>& shapes, Spans& spans) {
  GemmReplay result;
  std::vector<m::dense::HostMatrix> a, b, c;
  for (const GemmShape& s : shapes) {
    a.emplace_back(s.m, s.k);
    b.emplace_back(s.k, s.n);
    c.emplace_back(s.m, s.n);
    fill(a.back(), static_cast<std::uint64_t>(s.m + s.k));
    fill(b.back(), static_cast<std::uint64_t>(s.k + s.n));
    result.flops += 2.0 * static_cast<double>(s.m) *
                    static_cast<double>(s.k) * static_cast<double>(s.n);
  }
  auto run_all = [&] {
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      m::dense::gemm(a[i].view(), b[i].view(), c[i].view());
    }
  };
  {
    auto span = spans.open("dense.gemm.warmup");
    run_all();
  }
  std::vector<double> passes;
  for (int pass = 0; pass < kPasses; ++pass) {
    auto span = spans.open("dense.gemm");
    m::util::WallTimer timer;
    run_all();
    passes.push_back(timer.elapsed_seconds());
  }
  result.host_s = quantile(passes, 0.5);
  return result;
}

SampleReplay replay_sampler(
    const m::sparse::Csr& adjacency, const std::vector<std::int64_t>& fanout,
    const std::vector<std::vector<std::uint32_t>>& batches, std::uint64_t seed,
    Spans& spans) {
  SampleReplay result;
  const m::graph::NeighborSampler sampler(adjacency, fanout);
  m::util::Rng rng(seed);
  result.subgraphs.reserve(batches.size());
  auto span = spans.open("graph.sample.epoch");
  m::util::WallTimer timer;
  for (const auto& batch : batches) {
    auto call = spans.open("graph.sample");
    result.subgraphs.push_back(sampler.sample(batch, rng));
  }
  result.host_s = timer.elapsed_seconds();
  for (const auto& sub : result.subgraphs) result.edges += sub.total_edges();
  return result;
}

double replay_broadcast(const m::sim::MachineProfile& profile, int devices,
                        std::size_t count, int repeats, Spans& spans) {
  m::sim::Machine machine(profile, devices, m::sim::ExecutionMode::kReal,
                          /*hazard_check=*/false);
  m::comm::Communicator comm(machine);
  std::vector<m::sim::DeviceBuffer> buffers;
  for (int r = 0; r < devices; ++r) {
    buffers.emplace_back(machine.device(r), count, "BC");
  }
  std::vector<double> samples;
  for (int rep = 0; rep <= repeats; ++rep) {
    auto span = spans.open("comm.broadcast.stage_set");
    m::util::WallTimer timer;
    for (int root = 0; root < devices; ++root) {
      std::vector<m::comm::RankPart> parts(static_cast<std::size_t>(devices));
      for (int r = 0; r < devices; ++r) {
        parts[static_cast<std::size_t>(r)].buffer =
            &buffers[static_cast<std::size_t>(r)];
      }
      (void)comm.broadcast(std::move(parts), count, root);
    }
    machine.synchronize();
    if (rep > 0) samples.push_back(timer.elapsed_seconds());  // rep 0 warms
  }
  return quantile(samples, 0.5);
}

}  // namespace perfbench
