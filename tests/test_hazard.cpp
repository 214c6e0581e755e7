// HazardChecker and schedule-fuzzing tests: the happens-before audit over
// declared buffer accesses (§4.2/§4.3's hand-threaded event dependencies),
// the regression for the DistSpmm input_released contract, and the
// MGGCN_SCHED_FUZZ determinism requirement (bit-identical losses across
// seeds).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "core/dist_spmm.hpp"
#include "core/elastic.hpp"
#include "core/partition.hpp"
#include "core/trainer.hpp"
#include "dense/kernels.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "mem/workspace_pool.hpp"
#include "scoped_env.hpp"
#include "sim/hazard.hpp"
#include "sim/machine.hpp"
#include "sparse/spmm.hpp"
#include "util/rng.hpp"

namespace mggcn {
namespace {

sim::Machine checked_machine(int gpus) {
  return sim::Machine(sim::dgx_v100(), gpus, sim::ExecutionMode::kReal,
                      /*hazard_check=*/true);
}

// --- vector-clock primitives ---------------------------------------------

TEST(HbClock, LeqAndJoin) {
  sim::HbClock a = {1, 2};
  sim::HbClock b = {1, 3, 0};
  EXPECT_TRUE(sim::clock_leq(a, b));
  EXPECT_FALSE(sim::clock_leq(b, a));
  EXPECT_TRUE(sim::clock_leq({}, a));
  EXPECT_TRUE(sim::clock_leq(a, a));
  // Missing trailing components are zero.
  EXPECT_TRUE(sim::clock_leq({1, 3}, b));
  EXPECT_FALSE(sim::clock_leq({0, 0, 1}, a));

  sim::clock_join(a, b);
  EXPECT_EQ(a, (sim::HbClock{1, 3, 0}));
}

// --- checker unit tests over raw streams ---------------------------------

TEST(HazardChecker, UnorderedCrossStreamAccessIsReported) {
  sim::Machine machine = checked_machine(1);
  sim::Device& device = machine.device(0);
  sim::DeviceBuffer buf(device, 64, "buf");

  sim::TaskDesc reader;
  reader.label = "reader";
  reader.reads.push_back(buf.access());
  device.compute_stream().enqueue(std::move(reader));

  sim::TaskDesc writer;  // no event edge: races with the read
  writer.label = "writer";
  writer.writes.push_back(buf.access());
  device.comm_stream().enqueue(std::move(writer));

  machine.synchronize();
  ASSERT_GE(machine.trace().hazard_count(), 1u);
  EXPECT_GE(machine.hazard_checker()->violation_count(), 1u);
  const auto records = machine.trace().hazard_records();
  EXPECT_NE(records.front().buffer.find("buf"), std::string::npos);
}

TEST(HazardChecker, UncheckedMachineLeavesAccessLabelEmpty) {
  // The label exists only for hazard reports; without a checker access()
  // must not pay for building it, but the identity is still declared.
  sim::Machine machine(sim::dgx_v100(), 1, sim::ExecutionMode::kReal,
                       /*hazard_check=*/false);
  sim::DeviceBuffer buf(machine.device(0), 64, "buf");
  const sim::BufferAccess access = buf.access();
  EXPECT_EQ(access.buffer, buf.id());
  EXPECT_TRUE(access.name.empty());

  sim::Machine checked = checked_machine(1);
  sim::DeviceBuffer named(checked.device(0), 64, "buf");
  EXPECT_EQ(named.access().name, "buf@gpu0");
}

TEST(HazardChecker, EventEdgeOrdersAccesses) {
  sim::Machine machine = checked_machine(1);
  sim::Device& device = machine.device(0);
  sim::DeviceBuffer buf(device, 64, "buf");

  sim::TaskDesc reader;
  reader.label = "reader";
  reader.reads.push_back(buf.access());
  const sim::Event read_done =
      device.compute_stream().enqueue(std::move(reader));

  sim::TaskDesc writer;
  writer.label = "writer";
  writer.waits.push_back(read_done);
  writer.writes.push_back(buf.access());
  device.comm_stream().enqueue(std::move(writer));

  machine.synchronize();
  EXPECT_EQ(machine.trace().hazard_count(), 0u);
}

TEST(HazardChecker, SameStreamProgramOrderIsClean) {
  sim::Machine machine = checked_machine(1);
  sim::Device& device = machine.device(0);
  sim::DeviceBuffer buf(device, 64, "buf");

  for (int i = 0; i < 4; ++i) {
    sim::TaskDesc task;
    task.label = "rw" + std::to_string(i);
    task.reads.push_back(buf.access());
    task.writes.push_back(buf.access());
    device.compute_stream().enqueue(std::move(task));
  }
  machine.synchronize();
  EXPECT_EQ(machine.trace().hazard_count(), 0u);
}

TEST(HazardChecker, HostSynchronizationOrdersAccesses) {
  sim::Machine machine = checked_machine(1);
  sim::Device& device = machine.device(0);
  sim::DeviceBuffer buf(device, 64, "buf");

  sim::TaskDesc writer;
  writer.label = "writer";
  writer.writes.push_back(buf.access());
  device.compute_stream().enqueue(std::move(writer));

  // No event edge — but the host observed the write complete before
  // enqueuing the read, which is a happens-before edge too.
  machine.synchronize();

  sim::TaskDesc reader;
  reader.label = "reader";
  reader.reads.push_back(buf.access());
  device.comm_stream().enqueue(std::move(reader));

  machine.synchronize();
  EXPECT_EQ(machine.trace().hazard_count(), 0u);
}

TEST(HazardChecker, CollectiveRendezvousOrdersAllParticipants) {
  sim::Machine machine = checked_machine(2);
  comm::Communicator comm(machine);
  sim::DeviceBuffer root(machine.device(0), 32, "root");
  sim::DeviceBuffer dst(machine.device(1), 32, "dst");

  std::vector<comm::RankPart> parts(2);
  parts[0].buffer = &root;
  parts[1].buffer = &dst;
  std::vector<sim::Event> bcast =
      comm.broadcast(std::move(parts), 32, /*root=*/0);

  // Rank 1 overwrites the ROOT's buffer gated only on its own part event:
  // the rendezvous orders it after rank 0's read of that buffer.
  sim::TaskDesc clobber;
  clobber.label = "clobber_root";
  clobber.waits.push_back(bcast[1]);
  clobber.writes.push_back(root.access());
  machine.device(1).compute_stream().enqueue(std::move(clobber));

  machine.synchronize();
  EXPECT_EQ(machine.trace().hazard_count(), 0u);
}

// --- DistSpmm input_released regression ----------------------------------

// The contract: result.input_released[r] must cover EVERY reader of
// io.input[r] — the broadcast AND the root rank's own stage-r SpMM. The old
// code signaled the broadcast alone, so a comm-stream overwrite gated on
// the release event raced the root's SpMM read (write-after-read in
// ExecutionMode::kReal). Overlap mode keeps the root SpMM off the comm
// stream's dependency chain, so with the old event this test reports
// hazards on every rank.
TEST(DistSpmmHazard, InputReleasedCoversRootRankSpmmRead) {
  const int gpus = 4;
  const std::int64_t n = 331, d = 16;
  sim::Machine machine = checked_machine(gpus);
  comm::Communicator comm(machine);
  const core::PartitionVector partition =
      core::PartitionVector::uniform(n, gpus);

  util::Rng rng(17);
  graph::BterParams params{
      .n = n, .avg_degree = 12.0, .degree_sigma = 1.1, .clustering = 0.5};
  const sparse::Csr op =
      sparse::Csr::from_coo(graph::bter_like(params, rng).edges)
          .normalize_gcn()
          .transpose();
  core::DistSpmm spmm(machine, comm, core::make_tile_grid(op, partition));

  std::vector<sim::DeviceBuffer> input, output, bc1, bc2;
  for (int r = 0; r < gpus; ++r) {
    sim::Device& dev = machine.device(r);
    const auto block = static_cast<std::size_t>(partition.size(r) * d);
    const auto bc = static_cast<std::size_t>(partition.max_part_size() * d);
    input.emplace_back(dev, block, "H");
    output.emplace_back(dev, block, "C");
    bc1.emplace_back(dev, bc, "BC1");
    bc2.emplace_back(dev, bc, "BC2");
  }

  dense::HostMatrix x(n, d);
  util::Rng data_rng(23);
  x.init_gaussian(data_rng);
  for (int r = 0; r < gpus; ++r) {
    auto span = input[static_cast<std::size_t>(r)].span();
    dense::copy(x.view().row(partition.begin(r)), span.data(),
                static_cast<std::int64_t>(span.size()));
  }

  std::vector<std::array<sim::Event, 2>> slot_readers(
      static_cast<std::size_t>(gpus));
  core::DistSpmm::Io io;
  for (auto& b : input) io.input.push_back(&b);
  for (auto& b : output) io.output.push_back(&b);
  for (auto& b : bc1) io.bc1.push_back(&b);
  for (auto& b : bc2) io.bc2.push_back(&b);
  io.d = d;
  io.overlap = true;
  io.compute_bandwidth_scale = 0.85;
  io.slot_readers = &slot_readers;
  const core::DistSpmm::Result result = spmm.run(io);

  // Overwrite each rank's input block on the COMM stream, gated only on
  // the release event — exactly what the trainer's buffer reuse relies on.
  for (int r = 0; r < gpus; ++r) {
    const auto rr = static_cast<std::size_t>(r);
    sim::TaskDesc clobber;
    clobber.label = "clobber";
    clobber.waits.push_back(result.input_released[rr]);
    clobber.writes.push_back(input[rr].access());
    float* data = input[rr].data();
    const auto count = input[rr].size();
    clobber.body = [data, count] { std::fill(data, data + count, -777.0f); };
    machine.device(r).comm_stream().enqueue(std::move(clobber));
  }
  machine.synchronize();

  EXPECT_EQ(machine.trace().hazard_count(), 0u)
      << "input_released does not cover every reader of io.input";

  dense::HostMatrix expected(n, d);
  sparse::spmm(op, x.view(), expected.view());
  dense::HostMatrix got(n, d);
  for (int r = 0; r < gpus; ++r) {
    const auto span = output[static_cast<std::size_t>(r)].span();
    dense::copy(span.data(), got.view().row(partition.begin(r)),
                static_cast<std::int64_t>(span.size()));
  }
  EXPECT_LT(dense::max_abs_diff(got.view(), expected.view()), 1e-4);
}

// --- whole-pipeline audits ------------------------------------------------

graph::Dataset small_dataset() {
  graph::DatasetSpec spec = graph::cora();
  spec.n = 400;
  spec.feature_dim = 32;
  spec.num_classes = 5;
  spec.avg_degree = 8.0;
  graph::DatasetOptions options;
  options.seed = 7;
  return graph::make_dataset(spec, options);
}

core::TrainConfig small_config() {
  core::TrainConfig config;
  config.hidden_dims = {16};
  config.seed = 3;
  return config;
}

TEST(HazardChecker, ReadOfUnwrittenNoFillStorageIsNonFinite) {
  // No-fill storage promises a whole overwrite before any read; under
  // hazard checking it starts as quiet NaN, so a task that reads it first
  // poisons what it computes — fresh buffers and recycled leases alike.
  sim::Machine machine = checked_machine(1);
  sim::Device& device = machine.device(0);
  mem::WorkspacePool pool(device);
  mem::PooledBuffer dirty = pool.acquire(64, "dirty");
  dirty.recycle();

  sim::DeviceBuffer fresh(device, 64, "fresh", sim::Fill::kNone);
  mem::PooledBuffer recycled = pool.acquire(64, "recycled", sim::Fill::kNone);
  ASSERT_EQ(pool.stats().reuse_hits, 1u);
  sim::DeviceBuffer sums(device, 2, "sums");
  for (sim::DeviceBuffer* in : {&fresh, &recycled.buffer()}) {
    sim::TaskDesc reader;  // the planted bug: no writer ran before it
    reader.label = "read-before-write";
    reader.reads.push_back(in->access());
    reader.writes.push_back(sums.access());
    const std::size_t slot = in == &fresh ? 0 : 1;
    reader.body = [in, &sums, slot] {
      float total = 0.0f;
      for (const float x : in->span()) total += x;
      sums.data()[slot] = total;
    };
    device.compute_stream().enqueue(std::move(reader));
  }
  machine.synchronize();
  recycled.recycle();
  EXPECT_FALSE(std::isfinite(sums.data()[0]));
  EXPECT_FALSE(std::isfinite(sums.data()[1]));
  EXPECT_EQ(machine.trace().hazard_count(), 0u);  // ordered, just unwritten
}

TEST(HazardChecker, TrainerPipelineIsClean) {
  const graph::Dataset dataset = small_dataset();
  sim::Machine machine = checked_machine(4);
  core::MgGcnTrainer trainer(machine, dataset, small_config());
  trainer.train(3);
  machine.synchronize();
  EXPECT_EQ(machine.trace().hazard_count(), 0u);
}

TEST(HazardChecker, TrainerPipelineIsCleanWithoutOverlap) {
  const graph::Dataset dataset = small_dataset();
  sim::Machine machine = checked_machine(4);
  core::TrainConfig config = small_config();
  config.overlap = false;
  core::MgGcnTrainer trainer(machine, dataset, config);
  trainer.train(2);
  machine.synchronize();
  EXPECT_EQ(machine.trace().hazard_count(), 0u);
}

// --- schedule fuzzing ------------------------------------------------------

// MGGCN_SCHED_FUZZ perturbs host-thread interleavings only: training must
// be bit-identical across seeds (and hazard-free under every one).
TEST(SchedFuzz, TrainingIsBitIdenticalAcrossSeeds) {
  const graph::Dataset dataset = small_dataset();
  const int epochs = 3;

  std::vector<std::vector<double>> losses;
  for (const char* seed : {"0x0", "1", "7", "1234567", "98765"}) {
    ScopedEnv fuzz("MGGCN_SCHED_FUZZ", seed);
    sim::Machine machine = checked_machine(4);
    core::MgGcnTrainer trainer(machine, dataset, small_config());
    std::vector<double> run;
    for (const auto& stats : trainer.train(epochs)) {
      run.push_back(stats.loss);
    }
    machine.synchronize();
    EXPECT_EQ(machine.trace().hazard_count(), 0u) << "seed " << seed;
    losses.push_back(std::move(run));
  }

  for (std::size_t i = 1; i < losses.size(); ++i) {
    ASSERT_EQ(losses[i].size(), losses[0].size());
    for (std::size_t e = 0; e < losses[0].size(); ++e) {
      // Bit-identical, not approximately equal.
      EXPECT_EQ(losses[i][e], losses[0][e]) << "seed " << i << " epoch " << e;
    }
  }
}

// Both variables are read per Machine/Stream through strict parsers: a
// malformed value must fail loudly, never silently pick a seed or flip the
// audit the wrong way.
TEST(SchedFuzz, MalformedSeedThrowsNamingTheVariable) {
  for (const char* bad : {"abc", "12abc", "-5", "1.5", "0x"}) {
    ScopedEnv fuzz("MGGCN_SCHED_FUZZ", bad);
    try {
      sim::Machine machine(sim::dgx_v100(), 2);
      FAIL() << "expected InvalidArgumentError for '" << bad << "'";
    } catch (const InvalidArgumentError& e) {
      EXPECT_NE(std::string(e.what()).find("MGGCN_SCHED_FUZZ"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(HazardChecker, EnvFlagTakesTheBooleanTokenSet) {
  for (const char* on : {"1", "true", "yes", "on"}) {
    ScopedEnv check("MGGCN_HAZARD_CHECK", on);
    EXPECT_TRUE(sim::hazard_check_env()) << on;
  }
  for (const char* off : {"", "0", "false", "no", "off"}) {
    ScopedEnv check("MGGCN_HAZARD_CHECK", off);
    EXPECT_FALSE(sim::hazard_check_env()) << off;
    sim::Machine machine(sim::dgx_v100(), 2);
    EXPECT_EQ(machine.hazard_checker(), nullptr) << off;
  }
  for (const char* bad : {"2", "TRUE", "enabled"}) {
    ScopedEnv check("MGGCN_HAZARD_CHECK", bad);
    try {
      sim::Machine machine(sim::dgx_v100(), 2);
      FAIL() << "expected InvalidArgumentError for '" << bad << "'";
    } catch (const InvalidArgumentError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("MGGCN_HAZARD_CHECK"), std::string::npos) << what;
      EXPECT_NE(what.find("'off'"), std::string::npos) << what;
    }
  }
}

// --- elastic-recovery repartition path ------------------------------------

TEST(HazardChecker, ElasticRecoveryRepartitionIsClean) {
  ScopedEnv check("MGGCN_HAZARD_CHECK", "1");  // exercised via the env path
  const graph::Dataset dataset = small_dataset();
  auto plan =
      std::make_shared<sim::FaultPlan>(sim::FaultPlan::parse("kill:1@2"));

  core::ElasticTrainer trainer(sim::dgx_v100(), 4, dataset, small_config(),
                               plan);
  const auto stats = trainer.train(5);
  EXPECT_EQ(stats.size(), 5u);
  EXPECT_GE(trainer.recoveries().size(), 1u);
  ASSERT_NE(trainer.machine().hazard_checker(), nullptr);
  EXPECT_EQ(trainer.machine().trace().hazard_count(), 0u);
}

}  // namespace
}  // namespace mggcn
