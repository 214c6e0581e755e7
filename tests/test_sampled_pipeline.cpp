// Tests for the pipelined distributed mini-batch engine: bit-identical
// numerics across pipeline on/off, cache modes, and fuzzed schedules;
// loss bits pinned at 1, 4 and 8 devices; hazard-clean overlapped
// execution whose NaN-poisoned round scratch changes nothing; cache/
// pipeline counters; and the persistent-memory accounting.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/sampled_pipeline.hpp"
#include "dense/kernel_policy.hpp"
#include "graph/datasets.hpp"
#include "scoped_env.hpp"
#include "sim/machine.hpp"
#include "stats_hash.hpp"

namespace mggcn::core {
namespace {

graph::Dataset sampled_dataset(std::int64_t n = 600) {
  graph::DatasetSpec spec = graph::arxiv();
  spec.n = n;
  spec.feature_dim = 24;
  spec.num_classes = 5;
  spec.avg_degree = 12.0;
  graph::DatasetOptions options;
  options.seed = 33;
  options.feature_snr = 2.0;
  return graph::make_dataset(spec, options);
}

SampledPipeline::Options small_options() {
  SampledPipeline::Options options;
  options.hidden_dims = {16};
  options.fanout = {8, 8};
  options.batch_size = 48;
  options.seed = 3;
  options.cache_mode = CacheMode::kFreq;
  options.cache_capacity_fraction = 0.1;
  return options;
}

std::vector<double> run_losses(const graph::Dataset& ds,
                               SampledPipeline::Options options, int epochs,
                               bool hazard_check = false, int devices = 4) {
  sim::Machine machine(sim::dgx_v100(), devices, sim::ExecutionMode::kReal,
                       hazard_check);
  SampledPipeline pipeline(machine, ds, options);
  std::vector<double> losses;
  for (const auto& stats : pipeline.train(epochs)) {
    losses.push_back(stats.loss);
  }
  machine.synchronize();
  EXPECT_EQ(machine.trace().hazard_count(), 0u);
  return losses;
}

TEST(SampledPipeline, LossDecreasesAndAccuracyRises) {
  const graph::Dataset ds = sampled_dataset();
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  SampledPipeline pipeline(machine, ds, small_options());

  const EpochStats first = pipeline.train_epoch();
  EpochStats last{};
  for (int e = 0; e < 20; ++e) last = pipeline.train_epoch();
  EXPECT_LT(last.loss, first.loss * 0.7);
  EXPECT_GT(last.train_accuracy, 0.6);
}

TEST(SampledPipeline, PipelinedAndSerializedAreBitIdentical) {
  const graph::Dataset ds = sampled_dataset();
  SampledPipeline::Options pipelined = small_options();
  pipelined.pipeline = true;
  SampledPipeline::Options serialized = small_options();
  serialized.pipeline = false;

  const auto a = run_losses(ds, pipelined, 3);
  const auto b = run_losses(ds, serialized, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    // Bit-identical: the pipeline changes only the simulated schedule.
    EXPECT_EQ(a[e], b[e]) << "epoch " << e;
  }
}

TEST(SampledPipeline, LossBitsArePinned) {
  // The pipelined/serialized parity above compares two modes of one build,
  // so a change that shifts both together (a reordered RNG draw, a
  // different frontier split, stale bytes read from round scratch) passes
  // it. FNV-1a over the bit patterns of three epochs' losses pins the
  // numerics themselves; 8 devices is more ranks than most hosts have
  // cores, so the round preparation's helper threads stride. Under
  // MGGCN_HAZARD_CHECK the no-fill round scratch is NaN-poisoned, so a
  // read-before-write changes the hash too.
  const graph::Dataset ds = sampled_dataset();
  for (const auto& [devices, expected] :
       {std::pair{1, 0x10156c83101209f9ULL},
        std::pair{4, 0xd6ac77a3626c6a76ULL},
        std::pair{8, 0x0b4ab1a9f07e14a4ULL}}) {
    testing::Fnv1a hash;
    for (const double loss : run_losses(ds, small_options(), 3,
                                        sim::hazard_check_env(), devices)) {
      hash.mix(loss);
    }
    EXPECT_EQ(hash.value(), expected)
        << devices << " devices: 0x" << std::hex << hash.value();
  }
}

TEST(SampledPipeline, EpochStatsArePinned) {
  // LossBitsArePinned pins the numerics only. FNV-1a over the bits of every
  // EpochStats field of three epochs also pins the accounting: the cache
  // and per-stage counters, the comm deltas, the busy split and the pool
  // high-water marks, statically allocated and pooled.
  const util::Knob<dense::KernelPolicy>::Scoped kernels(
      dense::kernel_policy_knob, dense::KernelPolicy::kPlanned);
  const graph::Dataset ds = sampled_dataset();
  for (const auto& [mode, expected] :
       {std::pair{mem::PoolMode::kOff, 0xf3697d658287f518ULL},
        std::pair{mem::PoolMode::kOn, 0xa39af7120aa705c5ULL}}) {
    SampledPipeline::Options options = small_options();
    options.pool_mode = mode;
    sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
    SampledPipeline pipeline(machine, ds, options);
    const std::uint64_t hash = testing::hash_epoch_stats(pipeline.train(3));
    EXPECT_EQ(hash, expected) << mem::pool_mode_name(mode) << ": 0x"
                              << std::hex << hash;
  }
}

TEST(SampledPipeline, PipelineOverlapShortensEpochs) {
  const graph::Dataset ds = sampled_dataset(900);
  SampledPipeline::Options pipelined = small_options();
  SampledPipeline::Options serialized = small_options();
  serialized.pipeline = false;

  sim::Machine ma(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  SampledPipeline pa(ma, ds, pipelined);
  sim::Machine mb(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  SampledPipeline pb(mb, ds, serialized);
  // Warm-up epoch first so the comparison is not dominated by cold-cache
  // admissions, then compare one steady-state epoch.
  pa.train_epoch();
  pb.train_epoch();
  EXPECT_LT(pa.train_epoch().sim_seconds, pb.train_epoch().sim_seconds);
}

TEST(SampledPipeline, CacheModeDoesNotChangeNumerics) {
  const graph::Dataset ds = sampled_dataset();
  std::vector<std::vector<double>> runs;
  for (const CacheMode mode : {CacheMode::kOff, CacheMode::kStatic,
                               CacheMode::kFreq, CacheMode::kAuto}) {
    SampledPipeline::Options options = small_options();
    options.cache_mode = mode;
    runs.push_back(run_losses(ds, options, 2));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    ASSERT_EQ(runs[i].size(), runs[0].size());
    for (std::size_t e = 0; e < runs[0].size(); ++e) {
      // The cache changes which fabric moves a row, never its contents.
      EXPECT_EQ(runs[i][e], runs[0][e]) << "mode " << i << " epoch " << e;
    }
  }
}

TEST(SampledPipeline, OverlappedScheduleIsHazardClean) {
  const graph::Dataset ds = sampled_dataset();
  const auto losses = run_losses(ds, small_options(), 3,
                                 /*hazard_check=*/true);
  EXPECT_EQ(losses.size(), 3u);
  // Hazard checking NaN-poisons the no-fill round scratch, so a row read
  // before it is written changes the numerics (a ReLU turns the NaN into
  // zeros, the weight gradient keeps it): the checked run must match an
  // unchecked one bit for bit.
  EXPECT_EQ(losses, run_losses(ds, small_options(), 3));
}

TEST(SampledPipeline, SchedFuzzIsBitIdenticalAcrossSeeds) {
  const graph::Dataset ds = sampled_dataset();
  std::vector<std::vector<double>> losses;
  for (const char* seed : {"1", "7", "98765"}) {
    ScopedEnv fuzz("MGGCN_SCHED_FUZZ", seed);
    losses.push_back(run_losses(ds, small_options(), 2,
                                /*hazard_check=*/true));
  }
  for (std::size_t i = 1; i < losses.size(); ++i) {
    ASSERT_EQ(losses[i].size(), losses[0].size());
    for (std::size_t e = 0; e < losses[0].size(); ++e) {
      EXPECT_EQ(losses[i][e], losses[0][e]) << "seed " << i;
    }
  }
}

TEST(SampledPipeline, CountersReconcile) {
  const graph::Dataset ds = sampled_dataset();
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  SampledPipeline pipeline(machine, ds, small_options());

  const EpochStats cold = pipeline.train_epoch();
  EXPECT_EQ(cold.pipe_rounds, pipeline.rounds_per_epoch());
  EXPECT_GT(cold.cache_hits + cold.cache_misses, 0);
  EXPECT_GE(cold.cache_hit_rate, 0.0);
  EXPECT_LE(cold.cache_hit_rate, 1.0);
  EXPECT_GT(cold.pipe_sample_seconds, 0.0);
  EXPECT_GT(cold.pipe_extract_seconds, 0.0);
  EXPECT_GT(cold.pipe_train_seconds, 0.0);
  EXPECT_GT(cold.pipe_occupancy, 0.0);
  EXPECT_LE(cold.pipe_occupancy, 1.0);

  // The degree prefill plus frequency admissions must convert some remote
  // reads into HBM hits once the cache is warm.
  const EpochStats warm = pipeline.train_epoch();
  EXPECT_GT(warm.cache_hits, 0);
  EXPECT_GT(warm.cache_hit_rate, 0.0);
}

TEST(SampledPipeline, AutoResolvesAndNeverLosesToOff) {
  const graph::Dataset ds = sampled_dataset(900);
  SampledPipeline::Options auto_options = small_options();
  auto_options.cache_mode = CacheMode::kAuto;
  SampledPipeline::Options off_options = small_options();
  off_options.cache_mode = CacheMode::kOff;

  sim::Machine ma(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  SampledPipeline pa(ma, ds, auto_options);
  // Multi-device NVLink machine: the cost model keeps the cache.
  EXPECT_EQ(pa.resolved_cache_mode(), CacheMode::kFreq);
  EXPECT_GT(pa.cache_decision().miss_seconds_per_row,
            pa.cache_decision().hit_seconds_per_row);

  sim::Machine mb(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  SampledPipeline pb(mb, ds, off_options);
  EXPECT_EQ(pb.resolved_cache_mode(), CacheMode::kOff);

  // Warm epoch vs warm epoch: cached extraction must not be slower.
  pa.train_epoch();
  pb.train_epoch();
  EXPECT_LE(pa.train_epoch().sim_seconds, pb.train_epoch().sim_seconds);
}

TEST(SampledPipeline, AccountMemoryChargesCacheIndependentOfDepth) {
  const graph::Dataset ds = sampled_dataset();

  SampledPipeline::Options shallow = small_options();
  SampledPipeline::Options deep = small_options();
  deep.hidden_dims = {16, 16};
  deep.fanout = {8, 8, 8};

  sim::Machine ma(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  SampledPipeline pa(ma, ds, shallow);
  sim::Machine mb(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  SampledPipeline pb(mb, ds, deep);

  const auto a = pa.account_memory();
  const auto b = pb.account_memory();
  EXPECT_GT(a.cache_bytes, 0u);
  // The cache holds input rows only: its footprint must not grow with
  // model depth, while the replicated model state does.
  EXPECT_EQ(a.cache_bytes, b.cache_bytes);
  EXPECT_EQ(a.feature_bytes, b.feature_bytes);
  EXPECT_GT(b.model_bytes, a.model_bytes);
  EXPECT_EQ(a.total(), a.feature_bytes + a.cache_bytes + a.model_bytes);

  SampledPipeline::Options off = small_options();
  off.cache_mode = CacheMode::kOff;
  sim::Machine mc(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  SampledPipeline pc(mc, ds, off);
  EXPECT_EQ(pc.account_memory().cache_bytes, 0u);
  EXPECT_EQ(pc.cache(0).stats().hits, 0u);
}

TEST(SampledPipeline, RejectsMismatchedFanout) {
  const graph::Dataset ds = sampled_dataset(300);
  sim::Machine machine(sim::dgx_v100(), 2, sim::ExecutionMode::kReal);
  SampledPipeline::Options options = small_options();
  options.fanout = {8};  // needs 2 entries for a 2-layer model
  EXPECT_THROW(SampledPipeline(machine, ds, options), InvalidArgumentError);
}

TEST(SampledPipeline, PhantomModeRunsStructurally) {
  // Scale runs use phantom execution: no feature/label storage, but the
  // schedule, counters, and timing must still materialize.
  graph::DatasetSpec spec = graph::arxiv();
  spec.n = 2000;
  spec.feature_dim = 64;
  spec.num_classes = 10;
  spec.avg_degree = 10.0;
  graph::DatasetOptions options;
  options.seed = 5;
  options.with_features = false;
  const graph::Dataset ds = graph::make_dataset(spec, options);

  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kPhantom);
  SampledPipeline pipeline(machine, ds, small_options());
  const EpochStats stats = pipeline.train_epoch();
  EXPECT_GT(stats.sim_seconds, 0.0);
  EXPECT_GT(stats.pipe_rounds, 0);
  EXPECT_GT(stats.comm_wire_bytes, 0u);
}

}  // namespace
}  // namespace mggcn::core
