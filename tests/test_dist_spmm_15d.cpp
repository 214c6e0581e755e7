// Tests for the 1.5D (c = 2) distributed SpMM: numerical equality with the
// serial product, the replication memory cost, and the §5.1 performance
// relationship to the 1D algorithm on both machines.
#include <gtest/gtest.h>

#include <array>
#include <tuple>

#include "comm/comm_mode.hpp"
#include "comm/communicator.hpp"
#include "core/dist_spmm.hpp"
#include "core/dist_spmm_15d.hpp"
#include "dense/kernels.hpp"
#include "graph/generators.hpp"
#include "sim/machine.hpp"
#include "sparse/spmm.hpp"
#include "util/rng.hpp"

namespace mggcn::core {
namespace {

sparse::Csr random_operator(std::int64_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  graph::BterParams params{.n = n, .avg_degree = 14.0,
                           .degree_sigma = 1.0, .clustering = 0.5};
  return sparse::Csr::from_coo(graph::bter_like(params, rng).edges)
      .normalize_gcn()
      .transpose();
}

struct Fixture15D {
  Fixture15D(int gpus, std::int64_t n, std::int64_t d,
             sim::ExecutionMode mode, const sim::MachineProfile& profile)
      : machine(profile, gpus, mode), d(d) {
    op = random_operator(n, 7);
    spmm = std::make_unique<DistSpmm15D>(machine, op);
    const PartitionVector& partition = spmm->partition();
    for (int r = 0; r < gpus; ++r) {
      sim::Device& dev = machine.device(r);
      const int block = spmm->block_of(r);
      const auto count =
          static_cast<std::size_t>(partition.size(block) * d);
      const auto bc_count =
          static_cast<std::size_t>(partition.max_part_size() * d);
      input.emplace_back(dev, count, "H");
      output.emplace_back(dev, count, "C");
      bc.emplace_back(dev, bc_count, "BC");
    }
  }

  DistSpmm15D::Result run() {
    DistSpmm15D::Io io;
    for (auto& b : input) io.input.push_back(&b);
    for (auto& b : output) io.output.push_back(&b);
    for (auto& b : bc) io.bc1.push_back(&b);
    io.d = d;
    return spmm->run(io);
  }

  sim::Machine machine;
  std::int64_t d;
  sparse::Csr op;
  std::unique_ptr<DistSpmm15D> spmm;
  std::vector<sim::DeviceBuffer> input, output, bc;
};

class Spmm15DParam
    : public ::testing::TestWithParam<std::tuple<int, std::int64_t>> {};

TEST_P(Spmm15DParam, MatchesSerialProduct) {
  const auto [gpus, d] = GetParam();
  const std::int64_t n = 271;
  Fixture15D fx(gpus, n, d, sim::ExecutionMode::kReal, sim::dgx_v100());
  const PartitionVector& partition = fx.spmm->partition();

  util::Rng rng(11);
  dense::HostMatrix x(n, d);
  x.init_gaussian(rng);
  // Both replicas of a block get the same data.
  for (int r = 0; r < gpus; ++r) {
    const int block = fx.spmm->block_of(r);
    auto span = fx.input[static_cast<std::size_t>(r)].span();
    dense::copy(x.view().row(partition.begin(block)), span.data(),
                static_cast<std::int64_t>(span.size()));
  }

  fx.run();
  fx.machine.synchronize();

  dense::HostMatrix expected(n, d);
  sparse::spmm(fx.op, x.view(), expected.view());

  // The allreduce leaves the full C^j on every replica; check both.
  for (int r = 0; r < gpus; ++r) {
    const int block = fx.spmm->block_of(r);
    const auto span = fx.output[static_cast<std::size_t>(r)].span();
    const dense::ConstMatrixView got{span.data(), partition.size(block), d};
    const dense::ConstMatrixView want{
        expected.view().row(partition.begin(block)), partition.size(block),
        d};
    ASSERT_LT(dense::max_abs_diff(got, want), 1e-4) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Spmm15DParam,
    ::testing::Combine(::testing::Values(4, 8),
                       ::testing::Values(std::int64_t{1},
                                         std::int64_t{16})));

TEST(Spmm15D, RejectsOddDeviceCounts) {
  sim::Machine machine(sim::dgx_v100(), 3, sim::ExecutionMode::kPhantom);
  const sparse::Csr op = random_operator(64, 3);
  EXPECT_THROW(DistSpmm15D(machine, op), InvalidArgumentError);
}

TEST(Spmm15D, ReplicatesDenseMemoryTwofold) {
  // With P ranks and c = 2, the H blocks held machine-wide sum to 2*n*d.
  const int gpus = 8;
  Fixture15D fx(gpus, 400, 8, sim::ExecutionMode::kPhantom,
                sim::dgx_v100());
  std::uint64_t dense_bytes = 0;
  for (const auto& b : fx.input) dense_bytes += b.bytes();
  EXPECT_EQ(dense_bytes, 2ull * 400 * 8 * 4);
}

TEST(Spmm15D, CrossNodePairAllreducePaysTheNic) {
  // 16 devices on a two-node A100 cluster: group g is node g, so every
  // pair (j, j+8) straddles the nodes and its allreduce must run at the
  // NIC's bandwidth, not the NVSwitch's. Topology::group_bandwidth only
  // clamps groups larger than a node, so a 2-rank pair needs the clamp
  // from the communicator it runs on.
  const std::int64_t d = 64;
  const sim::MachineProfile profile = sim::dgx_a100_cluster(2);
  Fixture15D fx(16, 1024, d, sim::ExecutionMode::kPhantom, profile);
  fx.run();
  fx.machine.synchronize();
  const sim::InterconnectProfile& inter = profile.interconnect;
  int checked = 0;
  for (const sim::TraceRecord& rec : fx.machine.trace().records()) {
    if (rec.label != "allreduce") continue;
    // A two-rank ring allreduce moves the block once: 2 (p - 1) / p = 1.
    const double bytes = static_cast<double>(
        fx.spmm->partition().size(fx.spmm->block_of(rec.device)) * d * 4);
    const double nic = inter.base_latency +
                       bytes / (inter.internode_bandwidth * inter.efficiency);
    EXPECT_NEAR(rec.duration(), nic, 1e-9 * nic) << "device " << rec.device;
    ++checked;
  }
  EXPECT_EQ(checked, 16);
}

TEST(Spmm15D, Section51PerformanceRelationship) {
  // §5.1's conclusion, measured on the implementations rather than derived:
  // 1.5D is slower than 1D on the DGX-1 cube mesh and faster on the
  // DGX-A100 switch. §5.1's regime is bandwidth-bound, so use a wide d
  // (broadcast volume >> launch/collective latencies). The arithmetic is
  // about dense broadcast volumes, so pin that exchange path.
  util::Knob<comm::CommMode>::Scoped dense_mode(comm::comm_mode_knob,
                                                comm::CommMode::kDense);
  const std::int64_t n = 8192, d = 4096;
  const sparse::Csr op = random_operator(n, 5);

  auto time_15d = [&](const sim::MachineProfile& profile) {
    Fixture15D fx(8, n, d, sim::ExecutionMode::kPhantom, profile);
    const double t0 = fx.machine.align_clocks();
    fx.run();
    fx.machine.synchronize();
    return fx.machine.sim_time() - t0;
  };

  auto time_1d = [&](const sim::MachineProfile& profile) {
    sim::Machine machine(profile, 8, sim::ExecutionMode::kPhantom);
    comm::Communicator comm(machine);
    const auto partition = PartitionVector::uniform(n, 8);
    DistSpmm spmm(machine, comm, make_tile_grid(op, partition));
    std::vector<sim::DeviceBuffer> input, output, bc1, bc2;
    for (int r = 0; r < 8; ++r) {
      sim::Device& dev = machine.device(r);
      const auto count = static_cast<std::size_t>(partition.size(r) * d);
      const auto bc_count =
          static_cast<std::size_t>(partition.max_part_size() * d);
      input.emplace_back(dev, count, "H");
      output.emplace_back(dev, count, "C");
      bc1.emplace_back(dev, bc_count, "BC1");
      bc2.emplace_back(dev, bc_count, "BC2");
    }
    std::vector<std::array<sim::Event, 2>> readers(8);
    DistSpmm::Io io;
    for (auto& b : input) io.input.push_back(&b);
    for (auto& b : output) io.output.push_back(&b);
    for (auto& b : bc1) io.bc1.push_back(&b);
    for (auto& b : bc2) io.bc2.push_back(&b);
    io.d = d;
    io.slot_readers = &readers;
    const double t0 = machine.align_clocks();
    spmm.run(io);
    machine.synchronize();
    return machine.sim_time() - t0;
  };

  const double mesh_1d = time_1d(sim::dgx_v100());
  const double mesh_15d = time_15d(sim::dgx_v100());
  const double switch_1d = time_1d(sim::dgx_a100());
  const double switch_15d = time_15d(sim::dgx_a100());

  // On the cube mesh the 1.5D pair-reduction (2 links) hurts...
  EXPECT_GT(mesh_15d / mesh_1d, 1.0);
  // ...while on the switch the halved broadcast volume wins or ties.
  EXPECT_LT(switch_15d / switch_1d, mesh_15d / mesh_1d);
}

}  // namespace
}  // namespace mggcn::core
