// Tests for the distributed staged-broadcast SpMM (§4.1/§4.3): numerical
// equality with the serial product over device counts and widths, hazard
// correctness across back-to-back products, and the overlap schedule's
// timing properties.
#include <gtest/gtest.h>

#include <array>
#include <tuple>

#include "comm/comm_mode.hpp"
#include "comm/communicator.hpp"
#include "core/dist_spmm.hpp"
#include "core/partition.hpp"
#include "dense/kernels.hpp"
#include "graph/generators.hpp"
#include "sim/machine.hpp"
#include "sparse/spmm.hpp"
#include "util/rng.hpp"

namespace mggcn::core {
namespace {

struct Fixture {
  Fixture(int gpus, std::int64_t n, std::int64_t d, bool overlap,
          sim::ExecutionMode mode = sim::ExecutionMode::kReal)
      : machine(sim::dgx_v100(), gpus, mode),
        comm(machine),
        partition(PartitionVector::uniform(n, gpus)),
        d(d),
        overlap(overlap && gpus > 1),
        slot_readers(static_cast<std::size_t>(gpus)) {
    util::Rng rng(17);
    graph::BterParams params{.n = n, .avg_degree = 12.0,
                             .degree_sigma = 1.1, .clustering = 0.5};
    op = sparse::Csr::from_coo(graph::bter_like(params, rng).edges)
             .normalize_gcn()
             .transpose();
    spmm = std::make_unique<DistSpmm>(machine, comm,
                                      make_tile_grid(op, partition));
    for (int r = 0; r < gpus; ++r) {
      sim::Device& dev = machine.device(r);
      const auto block = static_cast<std::size_t>(partition.size(r) * d);
      const auto bc =
          static_cast<std::size_t>(partition.max_part_size() * d);
      input.emplace_back(dev, block, "H");
      output.emplace_back(dev, block, "C");
      bc1.emplace_back(dev, bc, "BC1");
      bc2.emplace_back(dev, bc, "BC2");
    }
  }

  void fill_input(const dense::HostMatrix& x) {
    for (int r = 0; r < machine.num_devices(); ++r) {
      auto span = input[static_cast<std::size_t>(r)].span();
      if (span.empty()) continue;
      dense::copy(x.view().row(partition.begin(r)), span.data(),
                  static_cast<std::int64_t>(span.size()));
    }
  }

  DistSpmm::Result run() {
    DistSpmm::Io io;
    for (auto& b : input) io.input.push_back(&b);
    for (auto& b : output) io.output.push_back(&b);
    for (auto& b : bc1) io.bc1.push_back(&b);
    for (auto& b : bc2) io.bc2.push_back(&b);
    io.d = d;
    io.overlap = overlap;
    io.compute_bandwidth_scale = overlap ? 0.85 : 1.0;
    io.slot_readers = &slot_readers;
    return spmm->run(io);
  }

  dense::HostMatrix gather_output() {
    machine.synchronize();
    dense::HostMatrix out(partition.total(), d);
    for (int r = 0; r < machine.num_devices(); ++r) {
      const auto span = output[static_cast<std::size_t>(r)].span();
      dense::copy(span.data(), out.view().row(partition.begin(r)),
                  static_cast<std::int64_t>(span.size()));
    }
    return out;
  }

  sim::Machine machine;
  comm::Communicator comm;
  PartitionVector partition;
  std::int64_t d;
  bool overlap;
  sparse::Csr op;
  std::unique_ptr<DistSpmm> spmm;
  std::vector<sim::DeviceBuffer> input, output, bc1, bc2;
  std::vector<std::array<sim::Event, 2>> slot_readers;
};

class DistSpmmParam
    : public ::testing::TestWithParam<std::tuple<int, std::int64_t, bool>> {};

TEST_P(DistSpmmParam, MatchesSerialProduct) {
  const auto [gpus, d, overlap] = GetParam();
  const std::int64_t n = 331;
  Fixture fx(gpus, n, d, overlap);

  util::Rng rng(23);
  dense::HostMatrix x(n, d);
  x.init_gaussian(rng);
  fx.fill_input(x);
  fx.run();

  dense::HostMatrix expected(n, d);
  sparse::spmm(fx.op, x.view(), expected.view());
  const dense::HostMatrix got = fx.gather_output();
  EXPECT_LT(dense::max_abs_diff(got.view(), expected.view()), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DistSpmmParam,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 8),
                       ::testing::Values(std::int64_t{1}, std::int64_t{16}),
                       ::testing::Bool()));

TEST(DistSpmm, BackToBackProductsRespectBufferHazards) {
  // Two consecutive products with fresh inputs; the second one's broadcasts
  // must not clobber broadcast buffers still being read by the first —
  // this is the cross-run hazard regression test.
  const int gpus = 4;
  const std::int64_t n = 257, d = 8;
  Fixture fx(gpus, n, d, /*overlap=*/true);
  util::Rng rng(29);

  for (int round = 0; round < 5; ++round) {
    dense::HostMatrix x(n, d);
    x.init_gaussian(rng);
    fx.fill_input(x);
    fx.machine.synchronize();  // inputs written from host: settle first
    fx.run();
    dense::HostMatrix expected(n, d);
    sparse::spmm(fx.op, x.view(), expected.view());
    const dense::HostMatrix got = fx.gather_output();
    ASSERT_LT(dense::max_abs_diff(got.view(), expected.view()), 1e-4)
        << "round " << round;
  }
}

TEST(DistSpmm, OverlapReducesSimulatedTime) {
  const std::int64_t n = 4096, d = 64;
  double serial_time = 0.0, overlap_time = 0.0;
  for (const bool overlap : {false, true}) {
    Fixture fx(4, n, d, overlap, sim::ExecutionMode::kPhantom);
    const double t0 = fx.machine.align_clocks();
    fx.run();
    fx.machine.synchronize();
    (overlap ? overlap_time : serial_time) = fx.machine.sim_time() - t0;
  }
  EXPECT_LT(overlap_time, serial_time);
}

TEST(DistSpmm, TraceContainsAllStages) {
  // Pin the dense exchange so the comm-record count below is exactly the
  // broadcast schedule, independent of the MGGCN_COMM environment.
  util::Knob<comm::CommMode>::Scoped dense_mode(comm::comm_mode_knob,
                                                comm::CommMode::kDense);
  const int gpus = 4;
  Fixture fx(gpus, 512, 8, /*overlap=*/false,
             sim::ExecutionMode::kPhantom);
  fx.run();
  fx.machine.synchronize();

  std::set<std::pair<int, int>> spmm_cells;  // (device, stage)
  int bcasts = 0;
  for (const auto& rec : fx.machine.trace().records()) {
    if (rec.kind == sim::TaskKind::kSpMM) {
      spmm_cells.emplace(rec.device, rec.stage);
    } else if (rec.kind == sim::TaskKind::kComm) {
      ++bcasts;
    }
  }
  EXPECT_EQ(spmm_cells.size(), static_cast<std::size_t>(gpus * gpus));
  EXPECT_EQ(bcasts, gpus * gpus);  // one comm record per rank per stage
}

TEST(DistSpmm, InputReleasedAllowsSafeOverwrite) {
  const int gpus = 2;
  const std::int64_t n = 100, d = 4;
  Fixture fx(gpus, n, d, /*overlap=*/false);
  util::Rng rng(31);
  dense::HostMatrix x(n, d);
  x.init_gaussian(rng);
  fx.fill_input(x);

  const DistSpmm::Result result = fx.run();
  // Overwrite each rank's input block after its release event: the output
  // must still equal the product with the ORIGINAL input.
  for (int r = 0; r < gpus; ++r) {
    const auto rr = static_cast<std::size_t>(r);
    sim::TaskDesc clobber;
    clobber.label = "clobber";
    clobber.waits.push_back(result.input_released[rr]);
    float* data = fx.input[rr].data();
    const auto count = fx.input[rr].size();
    clobber.body = [data, count] {
      std::fill(data, data + count, -777.0f);
    };
    fx.machine.device(r).compute_stream().enqueue(std::move(clobber));
  }

  dense::HostMatrix expected(n, d);
  sparse::spmm(fx.op, x.view(), expected.view());
  const dense::HostMatrix got = fx.gather_output();
  EXPECT_LT(dense::max_abs_diff(got.view(), expected.view()), 1e-4);
}

TEST(DistSpmm, StragglerDelaysDependentStages) {
  // Delay rank 1's input readiness; every rank's completion must slip past
  // the straggler's ready time (collectives synchronize starts).
  Fixture fx(4, 512, 8, /*overlap=*/false, sim::ExecutionMode::kPhantom);
  const double t0 = fx.machine.align_clocks();

  DistSpmm::Io io;
  for (auto& b : fx.input) io.input.push_back(&b);
  for (auto& b : fx.output) io.output.push_back(&b);
  for (auto& b : fx.bc1) io.bc1.push_back(&b);
  for (auto& b : fx.bc2) io.bc2.push_back(&b);
  io.d = fx.d;
  io.slot_readers = &fx.slot_readers;
  io.input_ready.assign(4, sim::Event());
  io.input_ready[1] = sim::Event::signaled(t0 + 0.5);  // late by 0.5 s

  const DistSpmm::Result result = fx.spmm->run(io);
  for (const auto& e : result.done) {
    EXPECT_GT(e.wait(), t0 + 0.5);
  }
}

TEST(DistSpmm, CompactMatchesDenseBitwise) {
  // The compacted exchange permutes which B rows sit in the broadcast
  // buffer but runs the identical per-element accumulation order, so the
  // product must be bit-identical to the dense path, overlap on and off.
  const std::int64_t n = 331, d = 16;
  util::Rng rng(23);
  dense::HostMatrix x(n, d);
  x.init_gaussian(rng);

  for (const int gpus : {2, 4}) {
    for (const bool overlap : {false, true}) {
      std::vector<dense::HostMatrix> outs;
      for (const comm::CommMode mode :
           {comm::CommMode::kDense, comm::CommMode::kCompact,
            comm::CommMode::kAuto}) {
        util::Knob<comm::CommMode>::Scoped scoped(comm::comm_mode_knob, mode);
        Fixture fx(gpus, n, d, overlap);
        fx.fill_input(x);
        fx.run();
        outs.push_back(fx.gather_output());
      }
      for (std::size_t m = 1; m < outs.size(); ++m) {
        for (std::int64_t i = 0; i < n; ++i) {
          for (std::int64_t j = 0; j < d; ++j) {
            ASSERT_EQ(outs[0].at(i, j), outs[m].at(i, j))
                << "gpus " << gpus << " overlap " << overlap << " mode "
                << m << " element (" << i << ", " << j << ")";
          }
        }
      }
    }
  }
}

TEST(DistSpmm, AutoIsNeverSlowerThanDense) {
  // The auto-selector prices both paths with the same model the simulator
  // charges, so its steady-state simulated time can match but never exceed
  // the all-dense schedule. The first product is warm-up: auto resolves
  // SpmmPlans for the ghost sets (a one-time inspector prologue that the
  // dense path skips under the naive kernel policy), and training amortizes
  // that over every later product.
  const std::int64_t n = 4096, d = 64;
  double dense_time = 0.0, auto_time = 0.0;
  for (const comm::CommMode mode :
       {comm::CommMode::kDense, comm::CommMode::kAuto}) {
    util::Knob<comm::CommMode>::Scoped scoped(comm::comm_mode_knob, mode);
    Fixture fx(4, n, d, /*overlap=*/false, sim::ExecutionMode::kPhantom);
    fx.run();
    fx.machine.synchronize();
    const double t0 = fx.machine.align_clocks();
    fx.run();
    fx.machine.synchronize();
    (mode == comm::CommMode::kDense ? dense_time : auto_time) =
        fx.machine.sim_time() - t0;
  }
  EXPECT_LE(auto_time, dense_time * (1.0 + 1e-12));
}

TEST(DistSpmm, AccountMemoryChargesGhostMapsUnderCompact) {
  // Compact/auto modes keep per-tile ghost maps on-device; dense does not.
  // The accounting must reflect that, and releasing must be exact.
  const std::int64_t n = 512, d = 8;
  std::uint64_t dense_used = 0, compact_used = 0;
  for (const comm::CommMode mode :
       {comm::CommMode::kDense, comm::CommMode::kCompact}) {
    util::Knob<comm::CommMode>::Scoped scoped(comm::comm_mode_knob, mode);
    Fixture fx(4, n, d, /*overlap=*/false, sim::ExecutionMode::kPhantom);
    const std::uint64_t before = fx.machine.device(0).memory_used();
    fx.spmm->account_memory();
    const std::uint64_t after = fx.machine.device(0).memory_used();
    (mode == comm::CommMode::kDense ? dense_used : compact_used) =
        after - before;
    fx.spmm.reset();
    EXPECT_EQ(fx.machine.device(0).memory_used(), before)
        << "destruction must release exactly what was reserved";
  }
  EXPECT_GT(compact_used, dense_used);
}

TEST(DistSpmm, CompactRecordsWireBytesSaved) {
  // On a sparse operator the compacted stages must put fewer bytes on the
  // wire than the dense broadcasts they replace, and the trace counters
  // must account for every stage exactly once.
  util::Knob<comm::CommMode>::Scoped scoped(comm::comm_mode_knob,
                                            comm::CommMode::kCompact);
  const int gpus = 4;
  Fixture fx(gpus, 2048, 32, /*overlap=*/false,
             sim::ExecutionMode::kPhantom);
  fx.run();
  fx.machine.synchronize();

  const sim::CommVolume v = fx.machine.trace().comm_volume();
  EXPECT_EQ(v.compact_stages + v.dense_stages, gpus);
  EXPECT_EQ(v.compact_stages, gpus);
  EXPECT_GT(v.packs, 0u);
  EXPECT_LT(v.wire_bytes, v.dense_bytes);
  EXPECT_EQ(v.bytes_saved(), v.dense_bytes - v.wire_bytes);
}

}  // namespace
}  // namespace mggcn::core
