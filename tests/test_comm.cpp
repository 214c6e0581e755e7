// Tests for the NCCL-like communicator and the topology model, including
// parameterized sweeps over message sizes and roots.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <tuple>

#include "comm/communicator.hpp"
#include "comm/topology.hpp"
#include "sim/machine.hpp"

namespace mggcn::comm {
namespace {

class CollectiveTest
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

std::vector<sim::DeviceBuffer> make_buffers(sim::Machine& machine,
                                            std::size_t count) {
  std::vector<sim::DeviceBuffer> buffers;
  for (int r = 0; r < machine.num_devices(); ++r) {
    buffers.emplace_back(machine.device(r), count, "buf");
  }
  return buffers;
}

std::vector<RankPart> parts_of(std::vector<sim::DeviceBuffer>& buffers) {
  std::vector<RankPart> parts(buffers.size());
  for (std::size_t r = 0; r < buffers.size(); ++r) {
    parts[r].buffer = &buffers[r];
  }
  return parts;
}

TEST_P(CollectiveTest, BroadcastDeliversRootData) {
  const auto [gpus, count] = GetParam();
  sim::Machine machine(sim::dgx_v100(), gpus, sim::ExecutionMode::kReal);
  Communicator comm(machine);
  auto buffers = make_buffers(machine, count);

  for (int root = 0; root < gpus; ++root) {
    for (int r = 0; r < gpus; ++r) {
      auto span = buffers[static_cast<std::size_t>(r)].span();
      for (std::size_t i = 0; i < count; ++i) {
        span[i] = r == root ? static_cast<float>(root * 1000 + i % 97)
                            : -1.0f;
      }
    }
    auto events = comm.broadcast(parts_of(buffers), count, root);
    for (auto& e : events) e.wait();
    for (int r = 0; r < gpus; ++r) {
      const auto span = buffers[static_cast<std::size_t>(r)].span();
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(span[i], static_cast<float>(root * 1000 + i % 97))
            << "rank " << r << " index " << i;
      }
    }
  }
}

TEST_P(CollectiveTest, AllreduceSumsAcrossRanks) {
  const auto [gpus, count] = GetParam();
  sim::Machine machine(sim::dgx_v100(), gpus, sim::ExecutionMode::kReal);
  Communicator comm(machine);
  auto buffers = make_buffers(machine, count);

  for (int r = 0; r < gpus; ++r) {
    auto span = buffers[static_cast<std::size_t>(r)].span();
    for (std::size_t i = 0; i < count; ++i) {
      span[i] = static_cast<float>(r + 1);
    }
  }
  auto events = comm.allreduce_sum(parts_of(buffers), count);
  for (auto& e : events) e.wait();

  const float expected = gpus * (gpus + 1) / 2.0f;
  for (int r = 0; r < gpus; ++r) {
    const auto span = buffers[static_cast<std::size_t>(r)].span();
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(span[i], expected);
    }
  }
}

TEST_P(CollectiveTest, ReduceSumsIntoRoot) {
  const auto [gpus, count] = GetParam();
  sim::Machine machine(sim::dgx_v100(), gpus, sim::ExecutionMode::kReal);
  Communicator comm(machine);
  auto buffers = make_buffers(machine, count);
  for (int r = 0; r < gpus; ++r) {
    auto span = buffers[static_cast<std::size_t>(r)].span();
    std::fill(span.begin(), span.end(), 2.0f);
  }
  const int root = gpus - 1;
  auto events = comm.reduce_sum(parts_of(buffers), count, root);
  for (auto& e : events) e.wait();
  const auto span = buffers[static_cast<std::size_t>(root)].span();
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(span[i], 2.0f * gpus);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndRanks, CollectiveTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values(std::size_t{1}, std::size_t{64},
                                         std::size_t{1000})));

TEST(Communicator, CollectiveDurationMatchesTopologyModel) {
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  Communicator comm(machine);
  const std::size_t count = 1 << 20;
  auto buffers = make_buffers(machine, count);
  machine.align_clocks();
  const double t0 = machine.sim_time();
  auto events = comm.broadcast(parts_of(buffers), count, 0);
  double done = 0.0;
  for (auto& e : events) done = std::max(done, e.wait());
  const Topology topology(machine.profile().interconnect);
  EXPECT_NEAR(done - t0,
              topology.broadcast_seconds(count * sizeof(float), 4), 1e-9);
}

TEST(Communicator, DurationScaleSlowsCollectives) {
  const std::size_t count = 1 << 18;
  double base = 0.0, slowed = 0.0;
  for (const double scale : {1.0, 2.0}) {
    sim::Machine machine(sim::dgx_v100(), 2, sim::ExecutionMode::kReal);
    Communicator comm(machine, CommOptions{.duration_scale = scale});
    auto buffers = make_buffers(machine, count);
    auto events = comm.broadcast(parts_of(buffers), count, 0);
    double done = 0.0;
    for (auto& e : events) done = std::max(done, e.wait());
    (scale == 1.0 ? base : slowed) = done;
  }
  EXPECT_NEAR(slowed, 2.0 * base, 1e-9);
}

TEST(Communicator, BarrierSynchronizesSimTime) {
  sim::Machine machine(sim::dgx_v100(), 3, sim::ExecutionMode::kReal);
  Communicator comm(machine);
  // Delay rank 1's comm stream.
  sim::TaskDesc delay;
  delay.cost.stream_bytes = 9e9;  // 10 ms
  machine.device(1).comm_stream().enqueue(std::move(delay));
  auto events = comm.barrier();
  std::vector<double> times;
  for (auto& e : events) times.push_back(e.wait());
  for (const double t : times) {
    EXPECT_NEAR(t, times[0], 1e-12);
    EXPECT_GT(t, 10e-3);
  }
}

TEST(Topology, UsableLinksCubeMeshVsSwitch) {
  const Topology mesh(sim::dgx_v100().interconnect);
  EXPECT_EQ(mesh.usable_links(8), 6);
  EXPECT_EQ(mesh.usable_links(4), 4);
  EXPECT_EQ(mesh.usable_links(2), 2);
  const Topology sw(sim::dgx_a100().interconnect);
  EXPECT_EQ(sw.usable_links(8), 12);
  EXPECT_EQ(sw.usable_links(2), 12);
}

TEST(Topology, Section51Arithmetic) {
  // Reproduce §5.1 exactly: with bytes = n*d and perfect efficiency, the
  // 1D algorithm takes nd/(6l) on DGX-1 and nd/(12l) on DGX-A100.
  sim::InterconnectProfile mesh = sim::dgx_v100().interconnect;
  mesh.efficiency = 1.0;
  const Topology v100(mesh);
  const std::uint64_t nd = 8ULL << 20;
  const double l = mesh.link_bandwidth;
  // 8 broadcasts of nd/8 across 8 GPUs with 6 links each:
  const double one_d =
      8 * (v100.broadcast_seconds(nd / 8, 8) - v100.base_latency());
  EXPECT_NEAR(one_d, static_cast<double>(nd) / (6 * l), 1e-9);

  // 1.5D: 2 * nd/(4*4l) + nd/(4*2l) = nd/(4l) on DGX-1 (§5.1).
  const double one_5d =
      2 * (v100.broadcast_seconds(nd / 4, 4) - v100.base_latency()) +
      (v100.reduce_seconds(nd / 4, 2) - v100.base_latency());
  EXPECT_NEAR(one_5d, static_cast<double>(nd) / (4 * l), 1e-9);
  // The paper's conclusion: 1.5D slower by a factor 2/3 on DGX-1.
  EXPECT_NEAR(one_d / one_5d, 2.0 / 3.0, 1e-9);
}

TEST(Topology, AllreduceRingFormula) {
  sim::InterconnectProfile sw = sim::dgx_a100().interconnect;
  sw.efficiency = 1.0;
  const Topology topo(sw);
  const std::uint64_t bytes = 12ULL << 20;
  const double expected =
      2.0 * 7.0 / 8.0 * static_cast<double>(bytes) /
      (12 * sw.link_bandwidth);
  EXPECT_NEAR(topo.allreduce_seconds(bytes, 8) - topo.base_latency(),
              expected, 1e-9);
}

TEST(Topology, CrossNodeCollectivesHitTheFabricCliff) {
  // Inside one node the NVSwitch bandwidth applies; a group spanning two
  // nodes collapses to the inter-node NIC — the effect that blocks
  // scaling beyond a single machine (abstract).
  const Topology topo(sim::dgx_a100_cluster(4).interconnect);
  const std::uint64_t bytes = 64ULL << 20;
  const double within = topo.broadcast_seconds(bytes, 8);
  const double across = topo.broadcast_seconds(bytes, 16);
  EXPECT_GT(across, 5.0 * within);
  EXPECT_NEAR(topo.group_bandwidth(16), 25e9 * 0.9, 1e6);
}

TEST(Topology, SingleNodeProfilesIgnoreFabric) {
  const Topology topo(sim::dgx_a100().interconnect);
  EXPECT_DOUBLE_EQ(topo.group_bandwidth(8), topo.group_bandwidth(2));
}

TEST(Topology, ZeroBytesAndSingleRankAreFree) {
  const Topology topo(sim::dgx_a100().interconnect);
  EXPECT_EQ(topo.broadcast_seconds(0, 8), 0.0);
  EXPECT_EQ(topo.broadcast_seconds(1 << 20, 1), 0.0);
  EXPECT_EQ(topo.allreduce_seconds(1 << 20, 1), 0.0);
}

TEST(Communicator, AllgatherConcatenatesInRankOrder) {
  sim::Machine machine(sim::dgx_v100(), 3, sim::ExecutionMode::kReal);
  Communicator comm(machine);
  const std::vector<std::size_t> counts = {2, 3, 1};
  auto buffers = make_buffers(machine, 6);  // capacity = sum(counts)
  for (int r = 0; r < 3; ++r) {
    auto span = buffers[static_cast<std::size_t>(r)].span();
    for (std::size_t i = 0; i < counts[static_cast<std::size_t>(r)]; ++i) {
      span[i] = static_cast<float>(10 * (r + 1) + i);
    }
  }
  auto events = comm.allgather(parts_of(buffers), counts);
  for (auto& e : events) e.wait();
  const float expected[] = {10, 11, 20, 21, 22, 30};
  for (int r = 0; r < 3; ++r) {
    const auto span = buffers[static_cast<std::size_t>(r)].span();
    for (std::size_t i = 0; i < 6; ++i) {
      ASSERT_EQ(span[i], expected[i]) << "rank " << r << " slot " << i;
    }
  }
}

TEST(Communicator, SubsetCommunicatorWorks) {
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  std::vector<sim::Device*> subset = {&machine.device(0),
                                      &machine.device(2)};
  Communicator comm(subset, Topology(machine.profile().interconnect));
  EXPECT_EQ(comm.size(), 2);

  const std::size_t count = 128;
  sim::DeviceBuffer b0(machine.device(0), count, "b0");
  sim::DeviceBuffer b2(machine.device(2), count, "b2");
  for (auto& x : b0.span()) x = 7.0f;
  std::vector<RankPart> parts(2);
  parts[0].buffer = &b0;
  parts[1].buffer = &b2;
  auto events = comm.broadcast(std::move(parts), count, 0);
  for (auto& e : events) e.wait();
  for (const float x : b2.span()) ASSERT_EQ(x, 7.0f);
}

TEST(Communicator, SendvRowsDeliversSelectedRowsPerDestination) {
  const int gpus = 3;
  const std::int64_t d = 4;
  const std::size_t src_rows = 8;
  sim::Machine machine(sim::dgx_v100(), gpus, sim::ExecutionMode::kReal);
  Communicator comm(machine);
  auto buffers = make_buffers(machine, src_rows * d);

  const int root = 1;
  auto src = buffers[root].span();
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<float>(100 + i);
  }
  for (int r = 0; r < gpus; ++r) {
    if (r == root) continue;
    for (auto& x : buffers[static_cast<std::size_t>(r)].span()) x = -1.0f;
  }

  // Rank 0 needs rows {5, 0, 7}; rank 2 needs nothing (its buffer must
  // stay untouched). Destination row i holds source row rows[r][i].
  const std::vector<std::uint32_t> rows0 = {5, 0, 7};
  std::vector<std::span<const std::uint32_t>> rows(gpus);
  rows[0] = rows0;
  auto events = comm.sendv_rows(parts_of(buffers), rows, d, root);
  for (auto& e : events) e.wait();

  const auto got0 = buffers[0].span();
  for (std::size_t i = 0; i < rows0.size(); ++i) {
    for (std::int64_t j = 0; j < d; ++j) {
      ASSERT_EQ(got0[i * d + static_cast<std::size_t>(j)],
                src[rows0[i] * d + static_cast<std::size_t>(j)])
          << "packed row " << i << " col " << j;
    }
  }
  for (const float x : buffers[2].span()) ASSERT_EQ(x, -1.0f);
  // Root's own data is read-only for the exchange.
  for (std::size_t i = 0; i < src.size(); ++i) {
    ASSERT_EQ(src[i], static_cast<float>(100 + i));
  }
}

/// A value per (rank, index) whose sums depend on the order of additions.
float probe(int rank, std::size_t i) {
  return static_cast<float>((rank * 7919 + static_cast<int>(i) * 104729) %
                            1009) *
             1.0e-3f +
         static_cast<float>(rank) * 1.0e-7f;
}

TEST(Communicator, EightRankSharesAreByteIdenticalToTheReference) {
  // Each part of an 8-rank collective moves its own share: a copy per
  // destination (broadcast, sendv_rows) or an element slice of the
  // reduction (allreduce_sum). Counts below 8 leave some slices empty and
  // 1001 splits unevenly; the results must match a single rank-order sweep
  // byte for byte.
  const int gpus = 8;
  sim::Machine machine(sim::dgx_v100(), gpus, sim::ExecutionMode::kReal);
  Communicator comm(machine);
  for (const std::size_t count : {std::size_t{5}, std::size_t{1001}}) {
    auto buffers = make_buffers(machine, count);
    const auto fill = [&] {
      for (int r = 0; r < gpus; ++r) {
        auto span = buffers[static_cast<std::size_t>(r)].span();
        for (std::size_t i = 0; i < count; ++i) span[i] = probe(r, i);
      }
    };
    const auto expect_bytes = [&](int r, const std::vector<float>& want,
                                  const char* what) {
      const auto got = buffers[static_cast<std::size_t>(r)].span();
      EXPECT_EQ(std::memcmp(got.data(), want.data(), count * sizeof(float)),
                0)
          << what << ", count " << count << ", rank " << r;
    };

    fill();
    const int root = 5;
    std::vector<float> from_root(count);
    for (std::size_t i = 0; i < count; ++i) from_root[i] = probe(root, i);
    for (auto& e : comm.broadcast(parts_of(buffers), count, root)) e.wait();
    for (int r = 0; r < gpus; ++r) expect_bytes(r, from_root, "broadcast");

    fill();
    std::vector<float> sum(count);
    for (std::size_t i = 0; i < count; ++i) {
      float acc = probe(0, i);
      for (int r = 1; r < gpus; ++r) acc += probe(r, i);
      sum[i] = acc;
    }
    for (auto& e : comm.allreduce_sum(parts_of(buffers), count)) e.wait();
    for (int r = 0; r < gpus; ++r) expect_bytes(r, sum, "allreduce_sum");

    // sendv_rows from root 3 with d = 1: rank r != 3 receives every
    // (r + 1)-th source row, rank 6 nothing (its buffer stays as filled).
    fill();
    const int src_rank = 3;
    std::vector<std::vector<std::uint32_t>> lists(gpus);
    std::vector<std::span<const std::uint32_t>> rows(gpus);
    std::vector<std::vector<float>> want(gpus);
    for (int r = 0; r < gpus; ++r) {
      auto& list = lists[static_cast<std::size_t>(r)];
      auto& expected = want[static_cast<std::size_t>(r)];
      for (std::size_t i = 0; i < count; ++i) expected.push_back(probe(r, i));
      if (r == src_rank || r == 6) continue;
      for (std::size_t i = 0; i < count;
           i += static_cast<std::size_t>(r) + 1) {
        list.push_back(static_cast<std::uint32_t>(i));
      }
      for (std::size_t j = 0; j < list.size(); ++j) {
        expected[j] = probe(src_rank, list[j]);
      }
      rows[static_cast<std::size_t>(r)] = list;
    }
    for (auto& e : comm.sendv_rows(parts_of(buffers), rows, 1, src_rank)) {
      e.wait();
    }
    for (int r = 0; r < gpus; ++r) {
      expect_bytes(r, want[static_cast<std::size_t>(r)], "sendv_rows");
    }
  }
}

TEST(Communicator, MixedStorageFailsAtTheCall) {
  // A data-moving collective whose parts mix buffers with and without
  // storage throws before any part is enqueued, instead of moving part of
  // the data (rank 0 half summed) and skipping the rest.
  const int gpus = 4;
  const std::size_t count = 16;
  sim::Machine machine(sim::dgx_v100(), gpus, sim::ExecutionMode::kReal);
  Communicator comm(machine);
  auto buffers = make_buffers(machine, count);
  for (auto& x : buffers[0].span()) x = 1.0f;
  for (auto& x : buffers[1].span()) x = 2.0f;
  sim::DeviceBuffer bare = sim::DeviceBuffer::view(
      machine.device(2), count, nullptr, "bare", /*id=*/0);
  const auto mixed = [&] {
    std::vector<RankPart> parts = parts_of(buffers);
    parts[2].buffer = &bare;
    return parts;
  };

  EXPECT_THROW(comm.allreduce_sum(mixed(), count), InvalidArgumentError);
  EXPECT_THROW(comm.reduce_sum(mixed(), count, 0), InvalidArgumentError);
  EXPECT_THROW(comm.allgather(mixed(), {4, 4, 4, 4}), InvalidArgumentError);
  EXPECT_THROW(comm.broadcast(mixed(), count, 0), InvalidArgumentError);
  EXPECT_THROW(comm.broadcast(mixed(), count, 2), InvalidArgumentError);
  const std::vector<std::uint32_t> some = {0, 3};
  std::vector<std::span<const std::uint32_t>> rows(gpus);
  rows[2] = some;
  EXPECT_THROW(comm.sendv_rows(mixed(), rows, 4, 0), InvalidArgumentError);
  machine.synchronize();
  for (const float x : buffers[0].span()) ASSERT_EQ(x, 1.0f);
  for (const float x : buffers[1].span()) ASSERT_EQ(x, 2.0f);

  // A receiver that is sent no rows needs no storage.
  rows[2] = {};
  rows[1] = some;
  for (auto& e : comm.sendv_rows(mixed(), rows, 4, 0)) e.wait();
  EXPECT_EQ(buffers[1].span()[0], 1.0f);

  // Phantom-mode buffers carry no storage at all: the collectives run
  // (timing only).
  sim::Machine phantom(sim::dgx_v100(), gpus, sim::ExecutionMode::kPhantom);
  Communicator phantom_comm(phantom);
  auto ghosts = make_buffers(phantom, count);
  for (auto& e : phantom_comm.allreduce_sum(parts_of(ghosts), count)) {
    EXPECT_GT(e.wait(), 0.0);
  }
}

TEST(Communicator, SendvRowsDurationMatchesModel) {
  const int gpus = 4;
  const std::int64_t d = 64;
  sim::Machine machine(sim::dgx_v100(), gpus, sim::ExecutionMode::kReal);
  Communicator comm(machine);
  auto buffers = make_buffers(machine, 4096 * d);

  // Two non-empty destinations with 1000 + 500 rows; one empty.
  std::vector<std::uint32_t> rows1(1000), rows3(500);
  for (std::size_t i = 0; i < rows1.size(); ++i) {
    rows1[i] = static_cast<std::uint32_t>(i * 3 % 4096);
  }
  for (std::size_t i = 0; i < rows3.size(); ++i) {
    rows3[i] = static_cast<std::uint32_t>(i);
  }
  std::vector<std::span<const std::uint32_t>> rows(gpus);
  rows[1] = rows1;
  rows[3] = rows3;

  machine.align_clocks();
  const double t0 = machine.sim_time();
  auto events = comm.sendv_rows(parts_of(buffers), rows, d, /*root=*/0);
  double done = 0.0;
  for (auto& e : events) done = std::max(done, e.wait());

  const std::uint64_t bytes = (1000 + 500) * d * sizeof(float);
  EXPECT_NEAR(done - t0, comm.sendv_rows_seconds(bytes, /*messages=*/2),
              1e-9);
  EXPECT_GT(done - t0, 0.0);
}

TEST(Communicator, SendvRowsBeatsBroadcastOnSparsePayloads) {
  // The auto-selector's premise: when destinations need few rows, the
  // compacted exchange (including its pack cost) undercuts the dense
  // broadcast of the full block.
  sim::Machine machine(sim::dgx_v100(), 8, sim::ExecutionMode::kPhantom);
  Communicator comm(machine);
  const Topology topology(machine.profile().interconnect);
  const std::uint64_t block_bytes = std::uint64_t{65536} * 128 * 4;
  const double dense = topology.broadcast_seconds(block_bytes, 8);
  // 7 destinations each wanting 2% of the block.
  const double compact =
      comm.sendv_rows_seconds(7 * block_bytes / 50, /*messages=*/7);
  EXPECT_LT(compact, dense);
}

}  // namespace
}  // namespace mggcn::comm
