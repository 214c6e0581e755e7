// Inference serving tier: predictions must be bit-identical to the
// trainer's forward pass at every batch size, cache mode, and scheduling
// fuzz seed; the workload generator must be seed-deterministic; and the
// batcher/cache accounting must reconcile.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "core/inference_server.hpp"
#include "core/serve_mode.hpp"
#include "core/trainer.hpp"
#include "core/workload.hpp"
#include "graph/datasets.hpp"
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

serve::WorkloadOptions load_options() {
  serve::WorkloadOptions options;
  options.rate_qps = 50000.0;
  options.deadline = 2e-3;
  options.seed = 11;
  return options;
}

/// Every prediction row must equal the trainer's logits row for the
/// queried vertex, bit for bit.
void expect_bit_identical(const dense::HostMatrix& predictions,
                          const dense::HostMatrix& logits,
                          const std::vector<serve::Request>& requests) {
  ASSERT_EQ(predictions.rows(), static_cast<std::int64_t>(requests.size()));
  ASSERT_EQ(predictions.cols(), logits.cols());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    for (std::int64_t c = 0; c < logits.cols(); ++c) {
      ASSERT_EQ(predictions.at(static_cast<std::int64_t>(i), c),
                logits.at(requests[i].vertex, c))
          << "request " << i << " vertex " << requests[i].vertex << " class "
          << c;
    }
  }
}

TEST(InferenceServer, BitIdenticalAcrossBatchPoliciesAndCacheModes) {
  const graph::Dataset ds = small_dataset();
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  core::MgGcnTrainer trainer(machine, ds, small_config());
  trainer.train(2);
  trainer.run_forward();
  const dense::HostMatrix logits = trainer.gather_logits();

  serve::WorkloadOptions wl = load_options();
  wl.skew = serve::QuerySkew::kZipf;
  serve::WorkloadGen gen(ds.n(), wl);
  const auto requests = gen.generate(160);

  for (const core::BatchPolicy policy :
       {core::BatchPolicy::kPerRequest, core::BatchPolicy::kFixed,
        core::BatchPolicy::kDeadline}) {
    for (const core::ServeCacheMode cache :
         {core::ServeCacheMode::kOff, core::ServeCacheMode::kEmbed,
          core::ServeCacheMode::kAuto}) {
      core::ServeOptions options;
      options.policy = policy;
      options.max_batch = 16;
      options.cache_mode = cache;
      core::InferenceServer server(machine, trainer, ds, options);
      const auto stats = server.serve(requests);
      EXPECT_EQ(stats.serve_requests,
                static_cast<std::int64_t>(requests.size()));
      EXPECT_GT(stats.serve_qps, 0.0);
      expect_bit_identical(server.predictions(), logits, requests);
      if (policy == core::BatchPolicy::kPerRequest) {
        EXPECT_EQ(stats.serve_batches, stats.serve_requests);
      } else {
        EXPECT_LT(stats.serve_batches, stats.serve_requests);
      }
      const bool auto_declines =
          cache == core::ServeCacheMode::kAuto &&
          policy == core::BatchPolicy::kPerRequest;
      if (cache == core::ServeCacheMode::kOff || auto_declines) {
        // kAuto declines the cache for per-request serving: one admission
        // kernel per single-query batch can never pay for itself.
        EXPECT_EQ(server.cache_mode_used(), core::ServeCacheMode::kOff);
        EXPECT_EQ(stats.serve_cache_hits, 0u);
      } else {
        // On a multi-device machine the cost model keeps the cache.
        EXPECT_EQ(server.cache_mode_used(), core::ServeCacheMode::kEmbed);
        EXPECT_GT(stats.serve_cache_hits, 0u);
      }
    }
  }
}

TEST(InferenceServer, BitIdenticalWhenLastLayerRunsSpmmFirst) {
  // hidden 4 < 5 classes flips the last layer to SpMM-first (§4.4), the
  // path where serving runs a per-batch GeMM after the 1-row SpMM.
  const graph::Dataset ds = small_dataset();
  core::TrainConfig config = small_config();
  config.hidden_dims = {4};
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  core::MgGcnTrainer trainer(machine, ds, config);
  trainer.train(2);
  trainer.run_forward();
  ASSERT_TRUE(trainer.layer_spmm_first(trainer.num_layers() - 1));
  const dense::HostMatrix logits = trainer.gather_logits();

  serve::WorkloadGen gen(ds.n(), load_options());
  const auto requests = gen.generate(96);
  core::ServeOptions options;
  options.policy = core::BatchPolicy::kDeadline;
  core::InferenceServer server(machine, trainer, ds, options);
  server.serve(requests);
  expect_bit_identical(server.predictions(), logits, requests);
}

TEST(InferenceServer, GraphUpdatesInvalidateButStayBitIdentical) {
  const graph::Dataset ds = small_dataset();
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  core::MgGcnTrainer trainer(machine, ds, small_config());
  trainer.train(1);
  trainer.run_forward();
  const dense::HostMatrix logits = trainer.gather_logits();

  serve::WorkloadOptions wl = load_options();
  wl.skew = serve::QuerySkew::kZipf;
  wl.update_rate = 5000.0;
  wl.update_touch = 200;
  serve::WorkloadGen gen(ds.n(), wl);
  const auto requests = gen.generate(200);
  const auto updates = gen.generate_updates(requests.back().arrival);
  ASSERT_FALSE(updates.empty());

  core::ServeOptions options;
  options.cache_mode = core::ServeCacheMode::kEmbed;
  core::InferenceServer server(machine, trainer, ds, options);
  const auto stats = server.serve(requests, updates);
  EXPECT_EQ(stats.serve_graph_updates,
            static_cast<std::int64_t>(updates.size()));
  EXPECT_GT(stats.serve_invalidations, 0);
  expect_bit_identical(server.predictions(), logits, requests);
}

TEST(InferenceServer, HazardCleanWithCacheAndUpdates) {
  const graph::Dataset ds = small_dataset();
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal,
                       /*hazard_check=*/true);
  core::MgGcnTrainer trainer(machine, ds, small_config());
  trainer.train(1);
  trainer.run_forward();

  serve::WorkloadOptions wl = load_options();
  wl.update_rate = 5000.0;
  wl.update_touch = 200;
  serve::WorkloadGen gen(ds.n(), wl);
  const auto requests = gen.generate(120);
  const auto updates = gen.generate_updates(requests.back().arrival);

  core::ServeOptions options;
  options.cache_mode = core::ServeCacheMode::kEmbed;
  core::InferenceServer server(machine, trainer, ds, options);
  server.serve(requests, updates);
  EXPECT_EQ(machine.trace().hazard_count(), 0u);
}

TEST(InferenceServer, BitIdenticalUnderSchedulingFuzz) {
  const graph::Dataset ds = small_dataset();
  dense::HostMatrix logits;
  dense::HostMatrix baseline;
  std::vector<serve::Request> requests;
  for (const char* seed : {"", "20220829", "1309"}) {
    ScopedEnv fuzz("MGGCN_SCHED_FUZZ", seed);
    sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
    core::MgGcnTrainer trainer(machine, ds, small_config());
    trainer.train(1);
    trainer.run_forward();
    if (logits.rows() == 0) logits = trainer.gather_logits();

    serve::WorkloadGen gen(ds.n(), load_options());
    if (requests.empty()) requests = gen.generate(96);
    core::InferenceServer server(machine, trainer, ds, {});
    server.serve(requests);
    expect_bit_identical(server.predictions(), logits, requests);
    if (baseline.rows() == 0) baseline = server.predictions();
  }
}

TEST(InferenceServer, ServeStatsArePinned) {
  // The bit-identity tests above compare predictions with the trainer, so a
  // change to cache admission, frontier planning or the batch/update merge
  // that shifts only the accounting passes them. FNV-1a over three warm
  // serve() calls — every counter, the simulated gather/infer seconds, the
  // p50/p99 latencies and every prediction bit — pins all of it. Under
  // MGGCN_HAZARD_CHECK the machine runs the hazard checker too.
  const graph::Dataset ds = small_dataset();
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  core::MgGcnTrainer trainer(machine, ds, small_config());
  trainer.train(1);
  trainer.run_forward();

  core::ServeOptions options;
  options.cache_mode = core::ServeCacheMode::kEmbed;
  core::InferenceServer server(machine, trainer, ds, options);

  std::uint64_t hash = 14695981039346656037ULL;
  const auto mix = [&hash](const auto value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(value));
    for (std::size_t byte = 0; byte < sizeof(value); ++byte) {
      hash = (hash ^ ((bits >> (8 * byte)) & 0xffu)) * 1099511628211ULL;
    }
  };
  for (std::uint64_t call = 0; call < 3; ++call) {
    serve::WorkloadOptions wl = load_options();
    wl.skew = serve::QuerySkew::kZipf;
    wl.update_rate = 5000.0;
    wl.update_touch = 40;
    wl.seed = 11 + call;
    serve::WorkloadGen gen(ds.n(), wl);
    const auto requests = gen.generate(200);
    const auto updates = gen.generate_updates(requests.back().arrival);
    const core::ServeStats stats = server.serve(requests, updates);
    for (const std::int64_t counter :
         {stats.serve_requests, stats.serve_batches,
          stats.serve_graph_updates, stats.serve_invalidations}) {
      mix(counter);
    }
    mix(stats.serve_cache_hits);
    mix(stats.serve_cache_misses);
    for (const double seconds :
         {stats.serve_gather_seconds, stats.serve_infer_seconds,
          stats.serve_p50_latency, stats.serve_p99_latency}) {
      mix(seconds);
    }
    const dense::HostMatrix& predictions = server.predictions();
    for (std::int64_t i = 0; i < predictions.rows(); ++i) {
      for (std::int64_t c = 0; c < predictions.cols(); ++c) {
        mix(predictions.at(i, c));
      }
    }
  }
  EXPECT_EQ(hash, 0x8b326b2dccf233c9ULL) << "0x" << std::hex << hash;
  EXPECT_EQ(machine.trace().hazard_count(), 0u);
}

TEST(InferenceServer, RejectsOutOfRangeUpdateVertices) {
  const graph::Dataset ds = small_dataset();
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kPhantom);
  core::MgGcnTrainer trainer(machine, ds, small_config());
  trainer.run_forward();
  core::ServeOptions options;
  options.cache_mode = core::ServeCacheMode::kEmbed;
  core::InferenceServer server(machine, trainer, ds, options);

  serve::WorkloadGen gen(ds.n(), load_options());
  const auto requests = gen.generate(32);
  const std::vector<serve::GraphUpdate> updates = {
      {requests.front().arrival,
       {0, static_cast<std::uint32_t>(ds.n())}}};
  EXPECT_THROW(server.serve(requests, updates), InvalidArgumentError);
}

TEST(InferenceServer, RejectsUpdatesOutOfTimeOrder) {
  const graph::Dataset ds = small_dataset();
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kPhantom);
  core::MgGcnTrainer trainer(machine, ds, small_config());
  trainer.run_forward();
  core::ServeOptions options;
  options.cache_mode = core::ServeCacheMode::kEmbed;
  core::InferenceServer server(machine, trainer, ds, options);

  serve::WorkloadGen gen(ds.n(), load_options());
  const auto requests = gen.generate(32);
  const std::vector<serve::GraphUpdate> updates = {
      {requests.back().arrival, {1, 2}}, {requests.front().arrival, {3}}};
  EXPECT_THROW(server.serve(requests, updates), InvalidArgumentError);
}

TEST(InferenceServer, PhantomModeAccountsWithoutValues) {
  const graph::Dataset ds = small_dataset();
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kPhantom);
  core::MgGcnTrainer trainer(machine, ds, small_config());
  trainer.run_forward();

  serve::WorkloadGen gen(ds.n(), load_options());
  const auto requests = gen.generate(64);
  core::InferenceServer server(machine, trainer, ds, {});
  const auto stats = server.serve(requests);
  EXPECT_EQ(stats.serve_requests, 64);
  EXPECT_GT(stats.serve_qps, 0.0);
  EXPECT_GT(stats.serve_p99_latency, 0.0);
  EXPECT_GE(stats.serve_p99_latency, stats.serve_p50_latency);
  EXPECT_EQ(server.predictions().rows(), 0);
}

TEST(InferenceServer, DeadlineBatchingBeatsPerRequestUnderLoad) {
  const graph::Dataset ds = small_dataset();
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kPhantom);
  core::MgGcnTrainer trainer(machine, ds, small_config());
  trainer.run_forward();

  serve::WorkloadOptions wl = load_options();
  wl.rate_qps = 500000.0;  // saturating
  serve::WorkloadGen gen(ds.n(), wl);
  const auto requests = gen.generate(512);

  core::ServeOptions per_request;
  per_request.policy = core::BatchPolicy::kPerRequest;
  core::InferenceServer baseline(machine, trainer, ds, per_request);
  const auto base_stats = baseline.serve(requests);

  core::ServeOptions deadline;
  deadline.policy = core::BatchPolicy::kDeadline;
  core::InferenceServer batched(machine, trainer, ds, deadline);
  const auto batched_stats = batched.serve(requests);

  EXPECT_GT(batched_stats.serve_mean_batch_size, 1.0);
  EXPECT_GT(batched_stats.serve_qps, base_stats.serve_qps);
  EXPECT_LE(batched_stats.serve_p99_latency, base_stats.serve_p99_latency);
}

TEST(WorkloadGen, SeedDeterminism) {
  serve::WorkloadOptions wl = load_options();
  serve::WorkloadGen a(1000, wl);
  serve::WorkloadGen b(1000, wl);
  const auto ra = a.generate(128);
  const auto rb = b.generate(128);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].arrival, rb[i].arrival);
    EXPECT_EQ(ra[i].vertex, rb[i].vertex);
  }
  wl.seed = 12;
  serve::WorkloadGen c(1000, wl);
  const auto rc = c.generate(128);
  bool any_different = false;
  for (std::size_t i = 0; i < rc.size(); ++i) {
    any_different |= rc[i].vertex != ra[i].vertex;
  }
  EXPECT_TRUE(any_different);
}

TEST(WorkloadGen, ArrivalsAreOrderedAndRatePaced) {
  serve::WorkloadOptions wl = load_options();
  wl.rate_qps = 10000.0;
  serve::WorkloadGen gen(1000, wl);
  const auto requests = gen.generate(2000);
  for (std::size_t i = 1; i < requests.size(); ++i) {
    EXPECT_GE(requests[i].arrival, requests[i - 1].arrival);
  }
  // Mean inter-arrival ~ 1/rate (loose 2x band).
  const double span = requests.back().arrival - requests.front().arrival;
  const double mean_gap = span / static_cast<double>(requests.size() - 1);
  EXPECT_GT(mean_gap, 0.5e-4);
  EXPECT_LT(mean_gap, 2.0e-4);
}

TEST(WorkloadGen, ZipfSkewsAndSpreadsHotVertices) {
  serve::WorkloadOptions wl = load_options();
  wl.skew = serve::QuerySkew::kZipf;
  wl.zipf_theta = 1.1;
  serve::WorkloadGen gen(1000, wl);
  const auto requests = gen.generate(4000);
  std::vector<int> counts(1000, 0);
  for (const auto& req : requests) counts[req.vertex]++;
  const int hottest = *std::max_element(counts.begin(), counts.end());
  // Uniform would put ~4 queries on each vertex; Zipf(1.1) concentrates
  // hundreds on the head.
  EXPECT_GT(hottest, 100);
  std::set<std::uint32_t> distinct;
  for (const auto& req : requests) distinct.insert(req.vertex);
  EXPECT_GT(distinct.size(), 100u);
}

TEST(WorkloadGen, BurstyArrivalsClusterInsideBursts) {
  serve::WorkloadOptions wl = load_options();
  wl.arrival = serve::ArrivalProcess::kBursty;
  wl.rate_qps = 20000.0;
  wl.burst_factor = 4.0;
  wl.burst_fraction = 0.25;
  wl.burst_period = 5e-3;
  serve::WorkloadGen gen(1000, wl);
  const auto requests = gen.generate(4000);
  std::size_t in_burst = 0;
  for (const auto& req : requests) {
    const double phase = std::fmod(req.arrival, wl.burst_period);
    if (phase < wl.burst_fraction * wl.burst_period) ++in_burst;
  }
  // burst_fraction * burst_factor == 1: every arrival is inside a burst.
  EXPECT_GT(static_cast<double>(in_burst) /
                static_cast<double>(requests.size()),
            0.95);
}

TEST(WorkloadGen, UpdatesAreOrderedDeduplicatedAndSeeded) {
  serve::WorkloadOptions wl = load_options();
  wl.update_rate = 1000.0;
  wl.update_touch = 64;
  serve::WorkloadGen a(500, wl);
  serve::WorkloadGen b(500, wl);
  const auto ua = a.generate_updates(0.1);
  const auto ub = b.generate_updates(0.1);
  ASSERT_FALSE(ua.empty());
  ASSERT_EQ(ua.size(), ub.size());
  for (std::size_t i = 0; i < ua.size(); ++i) {
    EXPECT_EQ(ua[i].time, ub[i].time);
    EXPECT_EQ(ua[i].vertices, ub[i].vertices);
    EXPECT_TRUE(std::is_sorted(ua[i].vertices.begin(), ua[i].vertices.end()));
    EXPECT_EQ(std::adjacent_find(ua[i].vertices.begin(), ua[i].vertices.end()),
              ua[i].vertices.end());
    if (i > 0) {
      EXPECT_GE(ua[i].time, ua[i - 1].time);
    }
  }
}

}  // namespace
}  // namespace mggcn
