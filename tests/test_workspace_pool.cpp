// Workspace-pool tests: allocator edge cases (zero-byte, budget-exact,
// split/coalesce round-trips), stream-ordered reuse under the hazard
// checker (including the negative case: an omitted ready() wait is
// flagged), the sim::Fill contract (zeros by default and for every
// recycled block; no-fill storage NaN-poisoned under hazard checking), the
// Device::release_memory underflow counter, the documented
// L+3 memory slope under MGGCN_POOL=off vs the pooled reduction, elastic
// 4→3 recovery returning every block, and bit-identical numerics across
// MGGCN_POOL=off|on|auto × sched-fuzz seeds for all three tenants.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/elastic.hpp"
#include "core/inference_server.hpp"
#include "core/sampled_pipeline.hpp"
#include "core/trainer.hpp"
#include "core/workload.hpp"
#include "graph/datasets.hpp"
#include "mem/pool_mode.hpp"
#include "mem/workspace_pool.hpp"
#include "scoped_env.hpp"
#include "sim/machine.hpp"
#include "util/error.hpp"

namespace mggcn {
namespace {

graph::Dataset small_dataset(std::uint64_t seed = 7) {
  graph::DatasetSpec spec = graph::cora();
  spec.n = 400;
  spec.feature_dim = 32;
  spec.num_classes = 5;
  spec.avg_degree = 8.0;
  graph::DatasetOptions options;
  options.seed = seed;
  return graph::make_dataset(spec, options);
}

core::TrainConfig small_config() {
  core::TrainConfig config;
  config.hidden_dims = {16};
  config.seed = 3;
  return config;
}

core::SampledPipeline::Options pipeline_options() {
  core::SampledPipeline::Options options;
  options.hidden_dims = {16, 16};
  options.fanout = {8, 8, 8};
  options.batch_size = 48;
  options.seed = 3;
  return options;
}

constexpr std::size_t kF = sizeof(float);

// --- allocator edge cases ------------------------------------------------

TEST(WorkspacePool, ZeroByteAcquireReservesNothing) {
  sim::Machine machine(sim::dgx_v100(), 1, sim::ExecutionMode::kReal);
  mem::WorkspacePool pool(machine.device(0));
  mem::PooledBuffer lease = pool.acquire(0, "empty");
  EXPECT_TRUE(lease.empty());
  EXPECT_EQ(lease.data(), nullptr);
  EXPECT_EQ(lease.access().buffer, 0u);
  EXPECT_EQ(pool.stats().reserved_bytes, 0u);
  EXPECT_EQ(pool.stats().live_buffers, 0u);
  lease.recycle();  // no-op, must not crash
}

TEST(WorkspacePool, BudgetExactFitThenLoudOom) {
  sim::Machine machine(sim::dgx_v100(), 1, sim::ExecutionMode::kReal);
  mem::WorkspacePool pool(machine.device(0), /*budget_bytes=*/1024 * kF);

  mem::PooledBuffer exact = pool.acquire(1024, "exact");
  EXPECT_EQ(pool.stats().in_use_bytes, 1024 * kF);
  EXPECT_EQ(pool.available_bytes(), 0u);

  try {
    mem::PooledBuffer over = pool.acquire(1, "over");
    FAIL() << "expected OutOfMemoryError";
  } catch (const OutOfMemoryError& e) {
    // Loud OOM: the message carries the pool ledger.
    const std::string what = e.what();
    EXPECT_NE(what.find("exact"), std::string::npos) << what;
    EXPECT_NE(what.find("budget"), std::string::npos) << what;
  }

  // Returning the block makes the same request serviceable again, without
  // growing the reservation.
  exact.recycle();
  mem::PooledBuffer again = pool.acquire(1024, "again");
  EXPECT_EQ(pool.stats().slab_allocs, 1u);
  EXPECT_EQ(pool.stats().reuse_hits, 1u);
  again.recycle();
}

TEST(WorkspacePool, SplitThenCoalesceRoundTrip) {
  sim::Machine machine(sim::dgx_v100(), 1, sim::ExecutionMode::kReal);
  mem::WorkspacePool pool(machine.device(0));

  mem::PooledBuffer whole = pool.acquire(1024, "whole");
  whole.recycle();

  // A smaller request splits the free 1024-block; the remainder serves the
  // complementary request without a new slab.
  mem::PooledBuffer head = pool.acquire(256, "head");
  EXPECT_EQ(pool.stats().splits, 1u);
  EXPECT_EQ(pool.stats().slab_allocs, 1u);
  mem::PooledBuffer tail = pool.acquire(768, "tail");
  EXPECT_EQ(pool.stats().slab_allocs, 1u);
  EXPECT_EQ(pool.stats().reserved_bytes, 1024 * kF);
  EXPECT_EQ(pool.stats().in_use_bytes, 1024 * kF);

  // Releasing both halves coalesces them back into one block that can
  // serve the original request whole.
  head.recycle();
  tail.recycle();
  EXPECT_GE(pool.stats().coalesces, 1u);
  mem::PooledBuffer reunited = pool.acquire(1024, "reunited");
  EXPECT_EQ(pool.stats().slab_allocs, 1u);
  EXPECT_EQ(pool.stats().reserved_bytes, 1024 * kF);
  reunited.recycle();
}

TEST(WorkspacePool, TrimReturnsWhollyFreeSlabsBeforeGrowing) {
  sim::Machine machine(sim::dgx_v100(), 1, sim::ExecutionMode::kReal);
  sim::Device& device = machine.device(0);
  const std::uint64_t base = device.memory_used();
  mem::WorkspacePool pool(device);

  mem::PooledBuffer small = pool.acquire(512, "small");
  small.recycle();
  EXPECT_EQ(device.memory_used(), base + 512 * kF);

  // A request no free block fits triggers trim-before-grow: the free slab
  // is returned to the device ledger before the larger one is reserved,
  // so the ledger peak stays at max(static sizes), not their sum.
  mem::PooledBuffer large = pool.acquire(4096, "large");
  EXPECT_EQ(pool.stats().trims, 1u);
  EXPECT_EQ(device.memory_used(), base + 4096 * kF);
  EXPECT_EQ(pool.stats().reserved_bytes, 4096 * kF);
  large.recycle();
}

TEST(PoolSet, StatsSumEventCountsAndTakeMaxLevels) {
  sim::Machine machine(sim::dgx_v100(), 2, sim::ExecutionMode::kReal);
  auto pools = mem::PoolSet::create(machine);

  // Device 0: one slab, reused once.
  pools->pool(0).acquire(1024, "first").recycle();
  pools->pool(0).acquire(1024, "again").recycle();
  // Device 1: two live leases force two slabs; freeing both leaves the
  // free bytes split across them (fragmented).
  {
    mem::PooledBuffer big = pools->pool(1).acquire(4096, "big");
    mem::PooledBuffer small = pools->pool(1).acquire(256, "small");
  }

  const mem::PoolStats& d0 = pools->pool(0).stats();
  const mem::PoolStats& d1 = pools->pool(1).stats();
  ASSERT_EQ(d0.reuse_hits, 1u);
  ASSERT_EQ(d1.slab_allocs, 2u);
  ASSERT_GT(d1.fragmentation_peak, 0.0);

  const mem::PoolStats merged = pools->stats();
  EXPECT_EQ(merged.reuse_hits, d0.reuse_hits + d1.reuse_hits);
  EXPECT_EQ(merged.slab_allocs, d0.slab_allocs + d1.slab_allocs);
  EXPECT_EQ(merged.splits, d0.splits + d1.splits);
  EXPECT_EQ(merged.coalesces, d0.coalesces + d1.coalesces);
  EXPECT_EQ(merged.trims, d0.trims + d1.trims);
  EXPECT_EQ(merged.live_buffers, 0u);
  EXPECT_EQ(merged.reserved_bytes, (4096 + 256) * kF);
  EXPECT_EQ(merged.reserved_peak_bytes, (4096 + 256) * kF);
  EXPECT_EQ(merged.in_use_peak_bytes, (4096 + 256) * kF);
  EXPECT_EQ(merged.in_use_bytes, 0u);
  EXPECT_EQ(merged.fragmentation_peak, d1.fragmentation_peak);
}

// --- stream-ordered reuse under the hazard checker -----------------------

TEST(WorkspacePool, CrossStreamReuseWithDeclaredWaitIsHazardClean) {
  sim::Machine machine(sim::dgx_v100(), 1, sim::ExecutionMode::kReal,
                       /*hazard_check=*/true);
  sim::Device& device = machine.device(0);
  mem::WorkspacePool pool(device);

  mem::PooledBuffer first = pool.acquire(64, "first");
  sim::TaskDesc writer;
  writer.label = "writer-a";
  writer.writes.push_back(first.access());
  const sim::Event done = device.comm_stream().enqueue(std::move(writer));
  first.recycle(done);

  // Reuse on the other stream: the lease carries the previous tenant's
  // completion event; declaring it orders the recycling.
  mem::PooledBuffer second = pool.acquire(64, "second");
  ASSERT_FALSE(second.ready().empty());
  sim::TaskDesc next;
  next.label = "writer-b";
  mem::append_ready(&next.waits, second);
  next.writes.push_back(second.access());
  device.compute_stream().enqueue(std::move(next));
  second.recycle(device.compute_stream().record_event());

  machine.synchronize();
  EXPECT_EQ(machine.trace().hazard_count(), 0u);
}

TEST(WorkspacePool, CrossStreamReuseWithoutDeclaredWaitIsFlagged) {
  sim::Machine machine(sim::dgx_v100(), 1, sim::ExecutionMode::kReal,
                       /*hazard_check=*/true);
  sim::Device& device = machine.device(0);
  mem::WorkspacePool pool(device);

  mem::PooledBuffer first = pool.acquire(64, "first");
  sim::TaskDesc writer;
  writer.label = "writer-a";
  writer.writes.push_back(first.access());
  const sim::Event done = device.comm_stream().enqueue(std::move(writer));
  first.recycle(done);

  // The block's hazard identity is stable across reuse, so a second tenant
  // that omits the ready() wait races with the first tenant's write — the
  // recycling itself is audited.
  mem::PooledBuffer second = pool.acquire(64, "second");
  EXPECT_EQ(second.access().buffer, first.access().buffer);
  sim::TaskDesc next;
  next.label = "writer-b";  // deliberately no waits
  next.writes.push_back(second.access());
  device.compute_stream().enqueue(std::move(next));
  second.recycle(device.compute_stream().record_event());

  machine.synchronize();
  EXPECT_GE(machine.trace().hazard_count(), 1u);
}

// --- fill contract ---------------------------------------------------------

bool all_zero(std::span<const float> data) {
  return std::all_of(data.begin(), data.end(),
                     [](float x) { return x == 0.0f; });
}

bool all_nan(std::span<const float> data) {
  return std::all_of(data.begin(), data.end(),
                     [](float x) { return std::isnan(x); });
}

TEST(FillContract, DefaultAllocationsReadBackZeroFreshAndRecycled) {
  for (const bool hazard_check : {false, true}) {
    sim::Machine machine(sim::dgx_v100(), 1, sim::ExecutionMode::kReal,
                         hazard_check);
    sim::Device& device = machine.device(0);
    const sim::DeviceBuffer owned(device, 300, "owned");
    EXPECT_TRUE(all_zero(owned.span())) << "hazard_check " << hazard_check;

    mem::WorkspacePool pool(device);
    mem::PooledBuffer first = pool.acquire(300, "first");
    EXPECT_TRUE(all_zero(first.span())) << "hazard_check " << hazard_check;
    std::fill(first.span().begin(), first.span().end(), 7.0f);
    first.recycle();  // nothing enqueued: no last-use event needed

    // A default lease of a dirty recycled block is re-zeroed, so it starts
    // life like a fresh DeviceBuffer.
    mem::PooledBuffer second = pool.acquire(300, "second");
    EXPECT_EQ(pool.stats().reuse_hits, 1u);
    EXPECT_TRUE(all_zero(second.span())) << "hazard_check " << hazard_check;
    second.recycle();
  }
}

TEST(FillContract, NoFillStorageIsPoisonedUnderHazardCheck) {
  sim::Machine machine(sim::dgx_v100(), 1, sim::ExecutionMode::kReal,
                       /*hazard_check=*/true);
  sim::Device& device = machine.device(0);
  const sim::DeviceBuffer owned(device, 300, "owned", sim::Fill::kNone);
  EXPECT_TRUE(all_nan(owned.span()));
  const mem::PooledBuffer fallback(device, 300, "fallback", sim::Fill::kNone);
  EXPECT_TRUE(all_nan(fallback.span()));

  mem::WorkspacePool pool(device);
  mem::PooledBuffer fresh = pool.acquire(300, "fresh", sim::Fill::kNone);
  EXPECT_TRUE(all_nan(fresh.span()));
  sim::TaskDesc writer;
  writer.label = "writer";
  writer.writes.push_back(fresh.access());
  writer.body = [&fresh] {
    std::fill(fresh.span().begin(), fresh.span().end(), 7.0f);
  };
  fresh.recycle(device.compute_stream().enqueue(std::move(writer)));

  // The recycled lease is host-waited on the writer, then poisoned.
  mem::PooledBuffer recycled = pool.acquire(300, "recycled", sim::Fill::kNone);
  EXPECT_EQ(pool.stats().reuse_hits, 1u);
  EXPECT_TRUE(all_nan(recycled.span()));
  recycled.recycle();

  // A default lease of a poisoned block is still re-zeroed.
  mem::PooledBuffer zeroed = pool.acquire(300, "zeroed");
  EXPECT_TRUE(all_zero(zeroed.span()));
  zeroed.recycle();
  machine.synchronize();
}

TEST(FillContract, RecycledNoFillLeaseIsHostWaitedAndZeroed) {
  // Off the hazard checker a recycled kNone lease is treated like a default
  // one: the pool joins the previous tenant's still-running writer on the
  // host before handing the block over, and re-zeroes it. So a lease
  // dropped before any task waited on its ready() loses no pending event.
  sim::Machine machine(sim::dgx_v100(), 1, sim::ExecutionMode::kReal,
                       /*hazard_check=*/false);
  sim::Device& device = machine.device(0);
  mem::WorkspacePool pool(device);
  mem::PooledBuffer first = pool.acquire(300, "first");
  sim::TaskDesc writer;
  writer.label = "slow-writer";
  writer.writes.push_back(first.access());
  writer.body = [&first] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::fill(first.span().begin(), first.span().end(), 7.0f);
  };
  const sim::Event written = device.compute_stream().enqueue(std::move(writer));
  first.recycle(written);

  mem::PooledBuffer second = pool.acquire(300, "second", sim::Fill::kNone);
  EXPECT_EQ(pool.stats().reuse_hits, 1u);
  EXPECT_TRUE(written.is_complete());
  EXPECT_TRUE(all_zero(second.span()));
  second.recycle();  // no task consumed ready(): nothing left to wait on

  mem::PooledBuffer third = pool.acquire(300, "third");
  EXPECT_TRUE(all_zero(third.span()));
  third.recycle();
  machine.synchronize();
}

// --- release_memory underflows are counted by the device -----------------

// An underflow is fatal in debug builds (the assert in release_memory) and
// counted-and-clamped in release builds.
TEST(DeviceLedgerDeathTest, ReleaseUnderflowIsCounted) {
  // The machine owns worker threads, so the death test must re-execute.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  sim::Machine machine(sim::dgx_v100(), 1, sim::ExecutionMode::kPhantom);
  sim::Device& device = machine.device(0);
  device.reserve_memory(128, "probe");
  EXPECT_EQ(device.release_underflows(), 0u);
  // More than reserved: an accounting leak.
  EXPECT_DEBUG_DEATH(device.release_memory(4096), "underflow");
#ifdef NDEBUG
  EXPECT_EQ(device.release_underflows(), 1u);
  EXPECT_EQ(device.memory_used(), 0u);  // clamped, not wrapped
#endif
}

// --- the documented L+3 slope --------------------------------------------

std::uint64_t trainer_used_bytes(const graph::Dataset& ds, int hidden_layers,
                                 mem::PoolMode mode) {
  core::TrainConfig config = small_config();
  config.hidden_dims.assign(static_cast<std::size_t>(hidden_layers), 16);
  config.pool_mode = mode;
  sim::Machine machine(sim::dgx_v100(), 2, sim::ExecutionMode::kPhantom);
  core::MgGcnTrainer trainer(machine, ds, config);
  std::uint64_t used = 0;
  for (int r = 0; r < machine.num_devices(); ++r) {
    used = std::max(used, machine.device(r).memory_used());
  }
  return used;
}

TEST(PoolAccounting, LPlusThreeSlopeUnchangedUnderOff) {
  const graph::Dataset ds = small_dataset();
  // Adding one hidden layer (width h) to the L+3 scheme adds exactly one
  // activation buffer (rows0 x h) plus the layer's replicated model state
  // (W, Wg, m, v: four h x h matrices). Everything else — X, HW, the
  // broadcast slots — is sized by maxima that a constant-width chain does
  // not move.
  const std::uint64_t l2 = trainer_used_bytes(ds, 2, mem::PoolMode::kOff);
  const std::uint64_t l3 = trainer_used_bytes(ds, 3, mem::PoolMode::kOff);
  const std::uint64_t l4 = trainer_used_bytes(ds, 4, mem::PoolMode::kOff);

  // The peak device is the one owning the most rows: the random
  // permutation's uniform cuts make every part the same size, a
  // locality-aware cut (MGGCN_PART) need not.
  core::TrainConfig probe = small_config();
  sim::Machine machine(sim::dgx_v100(), 2, sim::ExecutionMode::kPhantom);
  core::MgGcnTrainer trainer(machine, ds, probe);
  std::int64_t rows = 0;
  for (int r = 0; r < machine.num_devices(); ++r) {
    rows = std::max(rows, trainer.partition().size(r));
  }
  const std::uint64_t expected =
      (static_cast<std::uint64_t>(rows) * 16 + 4ull * 16 * 16) * kF;
  EXPECT_EQ(l3 - l2, expected);
  EXPECT_EQ(l4 - l3, expected);
}

TEST(PoolAccounting, PooledPeakMatchesStaticForTheTrainer) {
  // The trainer's L+3 buffers are all live for the engine's lifetime, so
  // pooling cannot shrink them — but exact-size slabs and trim-before-grow
  // must keep the pooled ledger from ever exceeding the static one.
  const graph::Dataset ds = small_dataset();
  for (int layers : {2, 3, 4}) {
    const std::uint64_t off = trainer_used_bytes(ds, layers, mem::PoolMode::kOff);
    const std::uint64_t on = trainer_used_bytes(ds, layers, mem::PoolMode::kOn);
    EXPECT_LE(on, off) << layers << " hidden layers";
  }
}

std::uint64_t pipeline_peak_bytes(const graph::Dataset& ds, int layers,
                                  mem::PoolMode mode, double* loss) {
  core::SampledPipeline::Options options = pipeline_options();
  options.hidden_dims.assign(static_cast<std::size_t>(layers - 1), 16);
  options.fanout.assign(static_cast<std::size_t>(layers), 8);
  options.pool_mode = mode;
  sim::Machine machine(sim::dgx_v100(), 2, sim::ExecutionMode::kReal);
  core::SampledPipeline pipeline(machine, ds, options);
  const core::EpochStats stats = pipeline.train_epoch();
  if (loss != nullptr) *loss = stats.loss;
  return stats.peak_memory_bytes;
}

TEST(PoolAccounting, PipelinePeakStrictlyLowerPooledForDeepModels) {
  const graph::Dataset ds = small_dataset();
  for (int layers : {3, 4}) {
    double loss_off = 0.0;
    double loss_on = 0.0;
    const std::uint64_t off =
        pipeline_peak_bytes(ds, layers, mem::PoolMode::kOff, &loss_off);
    const std::uint64_t on =
        pipeline_peak_bytes(ds, layers, mem::PoolMode::kOn, &loss_on);
    EXPECT_LT(on, off) << layers << " layers";
    // Recycling changes where scratch lives, never what it holds.
    EXPECT_EQ(loss_off, loss_on) << layers << " layers";
  }
}

TEST(PoolAccounting, PipelineReportsPooledBudgetSplit) {
  const graph::Dataset ds = small_dataset();
  core::SampledPipeline::Options options = pipeline_options();
  options.pool_mode = mem::PoolMode::kOn;
  sim::Machine machine(sim::dgx_v100(), 2, sim::ExecutionMode::kReal);
  core::SampledPipeline pipeline(machine, ds, options);
  const core::EpochStats stats = pipeline.train_epoch();
  const auto breakdown = pipeline.account_memory();
  EXPECT_GT(breakdown.pool_reserved_bytes, 0u);
  EXPECT_GT(breakdown.pool_in_use_bytes, 0u);
  EXPECT_GE(breakdown.pool_reserved_bytes, breakdown.pool_in_use_bytes);
  EXPECT_GT(stats.pool_peak_bytes, 0u);
  EXPECT_GT(stats.pool_reuse_hits, 0u);

  core::SampledPipeline::Options off = pipeline_options();
  off.pool_mode = mem::PoolMode::kOff;
  sim::Machine machine_off(sim::dgx_v100(), 2, sim::ExecutionMode::kReal);
  core::SampledPipeline static_pipeline(machine_off, ds, off);
  const core::EpochStats stats_off = static_pipeline.train_epoch();
  const auto breakdown_off = static_pipeline.account_memory();
  EXPECT_EQ(breakdown_off.pool_reserved_bytes, 0u);
  EXPECT_EQ(stats_off.pool_peak_bytes, 0u);
  EXPECT_EQ(stats_off.pool_reuse_hits, 0u);
}

// --- elastic recovery returns every block --------------------------------

TEST(PoolElastic, EngineTeardownReturnsAllBlocks) {
  const graph::Dataset ds = small_dataset();
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  auto pools = mem::PoolSet::create(machine);
  {
    core::TrainConfig config = small_config();
    config.pool_mode = mem::PoolMode::kAuto;
    config.pool = pools;
    core::MgGcnTrainer trainer(machine, ds, config);
    trainer.train(1);
    bool any_live = false;
    for (int r = 0; r < pools->size(); ++r) {
      any_live = any_live || pools->pool(r).stats().live_buffers > 0;
    }
    EXPECT_TRUE(any_live);
  }
  for (int r = 0; r < pools->size(); ++r) {
    EXPECT_EQ(pools->pool(r).stats().live_buffers, 0u) << "rank " << r;
    EXPECT_EQ(pools->pool(r).stats().in_use_bytes, 0u) << "rank " << r;
  }
}

TEST(PoolElastic, FourToThreeRecoveryRebuildsThePool) {
  const graph::Dataset ds = small_dataset();
  core::TrainConfig config = small_config();
  config.pool_mode = mem::PoolMode::kOn;

  core::ElasticTrainer fault_free(sim::dgx_v100(), 4, ds, config, nullptr);
  const auto base = fault_free.train(8);

  auto plan =
      std::make_shared<sim::FaultPlan>(sim::FaultPlan::parse("kill:2@3"));
  core::ElasticTrainer elastic(sim::dgx_v100(), 4, ds, config, plan);
  const auto recovered = elastic.train(8);

  EXPECT_EQ(elastic.num_devices(), 3);
  ASSERT_EQ(elastic.recoveries().size(), 1u);
  // The rebuilt 3-device trainer re-resolves its pool against the new
  // machine (a stale shared set would reference dead devices); training
  // numerics stay on the fault-free trajectory after replay.
  ASSERT_EQ(recovered.size(), base.size());
  EXPECT_NEAR(recovered.back().loss, base.back().loss,
              1e-6 * std::max(1.0, base.back().loss));
}

// --- bit-identity across MGGCN_POOL modes × sched-fuzz seeds -------------

std::vector<double> trainer_losses(const graph::Dataset& ds,
                                   mem::PoolMode mode) {
  core::TrainConfig config = small_config();
  config.pool_mode = mode;
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal,
                       /*hazard_check=*/true);
  core::MgGcnTrainer trainer(machine, ds, config);
  std::vector<double> losses;
  for (const auto& stats : trainer.train(3)) losses.push_back(stats.loss);
  EXPECT_EQ(machine.trace().hazard_count(), 0u);
  return losses;
}

TEST(PoolParity, TrainerLossesBitIdenticalAcrossModesAndSeeds) {
  const graph::Dataset ds = small_dataset();
  const std::vector<double> baseline =
      trainer_losses(ds, mem::PoolMode::kOff);
  for (const char* seed : {"1", "2", "3"}) {
    ScopedEnv fuzz("MGGCN_SCHED_FUZZ", seed);
    for (const mem::PoolMode mode :
         {mem::PoolMode::kOff, mem::PoolMode::kOn, mem::PoolMode::kAuto}) {
      EXPECT_EQ(trainer_losses(ds, mode), baseline)
          << "seed " << seed << " mode " << static_cast<int>(mode);
    }
  }
}

std::vector<double> pipeline_losses(const graph::Dataset& ds,
                                    mem::PoolMode mode) {
  core::SampledPipeline::Options options = pipeline_options();
  options.pool_mode = mode;
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal,
                       /*hazard_check=*/true);
  core::SampledPipeline pipeline(machine, ds, options);
  std::vector<double> losses;
  for (const auto& stats : pipeline.train(2)) losses.push_back(stats.loss);
  EXPECT_EQ(machine.trace().hazard_count(), 0u);
  return losses;
}

TEST(PoolParity, PipelineLossesBitIdenticalAcrossModesAndSeeds) {
  const graph::Dataset ds = small_dataset();
  const std::vector<double> baseline =
      pipeline_losses(ds, mem::PoolMode::kOff);
  for (const char* seed : {"1", "2", "3"}) {
    ScopedEnv fuzz("MGGCN_SCHED_FUZZ", seed);
    for (const mem::PoolMode mode :
         {mem::PoolMode::kOff, mem::PoolMode::kOn, mem::PoolMode::kAuto}) {
      EXPECT_EQ(pipeline_losses(ds, mode), baseline)
          << "seed " << seed << " mode " << static_cast<int>(mode);
    }
  }
}

TEST(PoolParity, ServingPredictionsBitIdenticalAcrossModes) {
  const graph::Dataset ds = small_dataset();
  serve::WorkloadOptions wl;
  wl.rate_qps = 50000.0;
  wl.seed = 11;
  serve::WorkloadGen gen(ds.n(), wl);
  const auto requests = gen.generate(96);

  dense::HostMatrix baseline;
  for (const mem::PoolMode mode :
       {mem::PoolMode::kOff, mem::PoolMode::kOn, mem::PoolMode::kAuto}) {
    sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal,
                         /*hazard_check=*/true);
    core::MgGcnTrainer trainer(machine, ds, small_config());
    trainer.train(2);
    trainer.run_forward();
    core::ServeOptions options;
    options.max_batch = 16;
    options.pool_mode = mode;
    core::InferenceServer server(machine, trainer, ds, options);
    server.serve(requests);
    ASSERT_GT(server.predictions().rows(), 0);
    EXPECT_EQ(machine.trace().hazard_count(), 0u)
        << "mode " << static_cast<int>(mode);
    if (baseline.rows() == 0) {
      baseline = server.predictions();
      continue;
    }
    for (std::int64_t i = 0; i < baseline.rows(); ++i) {
      for (std::int64_t c = 0; c < baseline.cols(); ++c) {
        ASSERT_EQ(server.predictions().at(i, c), baseline.at(i, c))
            << "mode " << static_cast<int>(mode) << " row " << i;
      }
    }
  }
}

// --- cross-component reuse: one budget, shared blocks --------------------

TEST(PoolSharing, ServingReusesTheTrainersRecycledBlocks) {
  const graph::Dataset ds = small_dataset();
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal,
                       /*hazard_check=*/true);
  auto pools = mem::PoolSet::create(machine);

  core::TrainConfig config = small_config();
  config.pool_mode = mem::PoolMode::kAuto;
  config.pool = pools;
  auto trainer =
      std::make_unique<core::MgGcnTrainer>(machine, ds, config);
  trainer->train(2);
  trainer->run_forward();

  core::ServeOptions options;
  options.max_batch = 16;
  options.pool_mode = mem::PoolMode::kAuto;
  options.pool = pools;
  core::InferenceServer server(machine, *trainer, ds, options);

  const std::uint64_t hits_before = pools->pool(0).stats().reuse_hits;
  trainer.reset();  // trainer's blocks return to the shared pools

  serve::WorkloadOptions wl;
  wl.rate_qps = 50000.0;
  wl.seed = 11;
  serve::WorkloadGen gen(ds.n(), wl);
  server.serve(gen.generate(96));
  server.serve(gen.generate(96));  // second call reuses recycled scratch
  EXPECT_GT(pools->pool(0).stats().reuse_hits, hits_before);
  EXPECT_EQ(machine.trace().hazard_count(), 0u);
}

}  // namespace
}  // namespace mggcn
