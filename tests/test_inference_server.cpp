// Inference serving tier: predictions must be bit-identical to the
// trainer's forward pass at every batch size, cache mode, and scheduling
// fuzz seed; the workload generator must be seed-deterministic; and the
// batcher/cache accounting must reconcile.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <set>
#include <thread>
#include <vector>

#include "core/inference_server.hpp"
#include "core/serve_mode.hpp"
#include "core/trainer.hpp"
#include "core/workload.hpp"
#include "csr_reference.hpp"
#include "graph/datasets.hpp"
#include "scoped_env.hpp"
#include "sim/machine.hpp"
#include "stats_hash.hpp"
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
  // MGGCN_HAZARD_CHECK the machine runs the hazard checker too. The
  // trainer's partitioner and planner are pinned: the MGGCN_PART and
  // MGGCN_PLAN axes reorder its reductions, which moves prediction bits.
  const graph::Dataset ds = small_dataset();
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  core::TrainConfig config = small_config();
  config.part_mode = core::PartMode::kRandom;
  config.plan_mode = core::PlanMode::kAuto;
  core::MgGcnTrainer trainer(machine, ds, config);
  trainer.train(1);
  trainer.run_forward();

  core::ServeOptions options;
  options.cache_mode = core::ServeCacheMode::kEmbed;
  core::InferenceServer server(machine, trainer, ds, options);

  testing::Fnv1a hash;
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
      hash.mix(counter);
    }
    hash.mix(stats.serve_cache_hits);
    hash.mix(stats.serve_cache_misses);
    for (const double seconds :
         {stats.serve_gather_seconds, stats.serve_infer_seconds,
          stats.serve_p50_latency, stats.serve_p99_latency}) {
      hash.mix(seconds);
    }
    const dense::HostMatrix& predictions = server.predictions();
    for (std::int64_t i = 0; i < predictions.rows(); ++i) {
      for (std::int64_t c = 0; c < predictions.cols(); ++c) {
        hash.mix(predictions.at(i, c));
      }
    }
  }
  EXPECT_EQ(hash.value(), 0x8b326b2dccf233c9ULL)
      << "0x" << std::hex << hash.value();
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
  // An update-only window is validated too.
  EXPECT_THROW(server.serve({}, updates), InvalidArgumentError);
}

TEST(InferenceServer, UpdateOnlyWindowInvalidatesLikeLeadingUpdates) {
  // serve({}, updates) then serve(requests) must drop the same cached rows
  // as one serve(requests, updates) whose updates all precede the first
  // arrival: an update window without requests is applied, not dropped.
  const graph::Dataset ds = small_dataset();
  serve::WorkloadOptions wl = load_options();
  wl.skew = serve::QuerySkew::kZipf;
  wl.update_rate = 5000.0;
  wl.update_touch = 200;
  serve::WorkloadGen gen(ds.n(), wl);
  const auto warmup = gen.generate(200);
  auto updates = gen.generate_updates(warmup.back().arrival);
  ASSERT_FALSE(updates.empty());
  for (auto& update : updates) update.time = 0.0;
  auto requests = gen.generate(200);
  for (auto& request : requests) request.arrival += 1e-3;

  std::vector<core::ServeStats> split;
  std::vector<core::ServeStats> joint;
  for (const bool update_only : {true, false}) {
    sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
    core::MgGcnTrainer trainer(machine, ds, small_config());
    trainer.train(1);
    trainer.run_forward();
    core::ServeOptions options;
    options.cache_mode = core::ServeCacheMode::kEmbed;
    core::InferenceServer server(machine, trainer, ds, options);
    server.serve(warmup);
    if (update_only) {
      split.push_back(server.serve({}, updates));
      split.push_back(server.serve(requests));
    } else {
      joint.push_back(server.serve(requests, updates));
    }
  }
  EXPECT_EQ(split[0].serve_requests, 0);
  EXPECT_EQ(split[0].serve_graph_updates,
            static_cast<std::int64_t>(updates.size()));
  EXPECT_GT(split[0].serve_invalidations, 0);
  EXPECT_EQ(split[0].serve_invalidations + split[1].serve_invalidations,
            joint[0].serve_invalidations);
  EXPECT_EQ(split[1].serve_cache_hits, joint[0].serve_cache_hits);
  EXPECT_EQ(split[1].serve_cache_misses, joint[0].serve_cache_misses);
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

TEST(InferenceServer, ForwardOperatorIsTheTrainersAHatTranspose) {
  // The server assembles Â^T from the trainer's forward tiles instead of
  // preparing the graph again; it must equal the straightforward sequence
  // permute (COO round trip) -> normalize_gcn -> transpose, bit for bit.
  const graph::Dataset ds = small_dataset();
  for (const int devices : {1, 3, 4}) {
    sim::Machine machine(sim::dgx_v100(), devices, sim::ExecutionMode::kReal);
    core::MgGcnTrainer trainer(machine, ds, small_config());
    trainer.run_forward();
    const core::InferenceServer server(machine, trainer, ds, {});
    EXPECT_TRUE(testing::csr_bits_equal(
        server.forward_operator(),
        testing::reference_permute_symmetric(ds.adjacency, trainer.perm())
            .normalize_gcn()
            .transpose()))
        << devices << " devices";
  }
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

TEST(InferenceServer, PlannedBatchesMatchAFromScratchPlan) {
  // serve() plans its micro-batches on helper threads, in contiguous
  // chunks of batches, each chunk with its own dedupe/position tables.
  // Every plan must equal one built from scratch: the frontier is the sort
  // + unique of the requests' neighbor columns, each batch-CSR column is
  // the position of the operator's column in that frontier (values in
  // order), and the local slice is exactly the replica's shard range. The
  // trace has more batches than cores, and consecutive batches share
  // frontier rows, so neighboring chunks' tables see the same vertices.
  const graph::Dataset ds = small_dataset();
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kPhantom);
  core::MgGcnTrainer trainer(machine, ds, small_config());
  trainer.run_forward();
  core::ServeOptions options;
  options.policy = core::BatchPolicy::kFixed;
  options.max_batch = 8;
  core::InferenceServer server(machine, trainer, ds, options);

  serve::WorkloadOptions wl = load_options();
  wl.skew = serve::QuerySkew::kZipf;
  serve::WorkloadGen gen(ds.n(), wl);
  const auto requests = gen.generate(2400);
  const auto batches = server.plan_batches(requests);
  ASSERT_GT(batches.size(),
            static_cast<std::size_t>(std::thread::hardware_concurrency()));

  const sparse::Csr& op = server.forward_operator();
  const auto perm = trainer.perm();
  const core::PartitionVector& partition = trainer.partition();
  std::int64_t next_request = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const auto& batch = batches[b];
    EXPECT_EQ(batch.replica, static_cast<int>(b % 4));
    EXPECT_EQ(batch.first_request, next_request);
    next_request += batch.num_requests;

    std::vector<std::uint32_t> expected;
    for (std::int64_t q = 0; q < batch.num_requests; ++q) {
      const std::uint32_t g =
          perm[requests[static_cast<std::size_t>(batch.first_request + q)]
                   .vertex];
      for (std::int64_t e = op.row_ptr()[g]; e < op.row_ptr()[g + 1]; ++e) {
        expected.push_back(op.col_idx()[static_cast<std::size_t>(e)]);
      }
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    ASSERT_EQ(batch.frontier, expected) << "batch " << b;

    ASSERT_EQ(batch.adj.rows(), batch.num_requests);
    ASSERT_EQ(batch.adj.cols(), static_cast<std::int64_t>(expected.size()));
    for (std::int64_t q = 0; q < batch.num_requests; ++q) {
      const std::uint32_t g =
          perm[requests[static_cast<std::size_t>(batch.first_request + q)]
                   .vertex];
      ASSERT_EQ(batch.adj.row_nnz(q), op.row_nnz(g));
      for (std::int64_t k = 0; k < op.row_nnz(g); ++k) {
        const auto e = static_cast<std::size_t>(op.row_ptr()[g] + k);
        const auto bk = static_cast<std::size_t>(batch.adj.row_ptr()[q] + k);
        EXPECT_EQ(batch.frontier[batch.adj.col_idx()[bk]], op.col_idx()[e]);
        EXPECT_EQ(std::bit_cast<std::uint32_t>(batch.adj.values()[bk]),
                  std::bit_cast<std::uint32_t>(op.values()[e]));
      }
    }

    for (std::size_t pos = 0; pos < batch.frontier.size(); ++pos) {
      const std::int64_t g = batch.frontier[pos];
      const bool local = g >= partition.begin(batch.replica) &&
                         g < partition.end(batch.replica);
      const auto p = static_cast<std::int64_t>(pos);
      EXPECT_EQ(local, p >= batch.local_begin && p < batch.local_end)
          << "batch " << b << " position " << pos;
    }
    ASSERT_EQ(batch.remote.size(),
              batch.frontier.size() - static_cast<std::size_t>(
                                          batch.local_end - batch.local_begin));
    for (std::size_t i = 0; i < batch.remote.size(); ++i) {
      EXPECT_EQ(batch.frontier[static_cast<std::size_t>(
                    batch.remote_position(i))],
                batch.remote[i]);
    }
    if (b > 0) {
      std::vector<std::uint32_t> shared;
      std::set_intersection(batches[b - 1].frontier.begin(),
                            batches[b - 1].frontier.end(),
                            batch.frontier.begin(), batch.frontier.end(),
                            std::back_inserter(shared));
      EXPECT_FALSE(shared.empty()) << "batches " << b - 1 << " and " << b;
    }
  }
  EXPECT_EQ(next_request, static_cast<std::int64_t>(requests.size()));

  // The tables are reused (not cleared) across calls: a second plan of the
  // same trace is the same plan.
  const auto again = server.plan_batches(requests);
  ASSERT_EQ(again.size(), batches.size());
  for (std::size_t b = 0; b < batches.size(); ++b) {
    EXPECT_EQ(again[b].frontier, batches[b].frontier);
    EXPECT_TRUE(testing::csr_bits_equal(again[b].adj, batches[b].adj));
  }
}

TEST(InferenceServer, DeviceLossMidServeDrainsBeforeRethrow) {
  // Replica 2 is lost before serve(): batches 0 and 1 are enqueued on
  // devices 0 and 1, and the first task for replica 2 throws. The queued
  // task bodies read the call's planned batches, so serve() must drain
  // them before its locals unwind; otherwise the drain below runs them
  // against freed memory (a use-after-free under ASan).
  const graph::Dataset ds = small_dataset();
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  core::MgGcnTrainer trainer(machine, ds, small_config());
  trainer.train(1);
  trainer.run_forward();
  {
    core::InferenceServer server(machine, trainer, ds, {});
    machine.set_fault_plan(std::make_shared<sim::FaultPlan>(
        sim::FaultPlan::parse("kill:2@5")));
    machine.begin_epoch(5);
    serve::WorkloadGen gen(ds.n(), load_options());
    const auto requests = gen.generate(200);
    try {
      server.serve(requests);
      FAIL() << "expected DeviceLostError";
    } catch (const DeviceLostError& err) {
      EXPECT_EQ(err.rank(), 2);
    }
    machine.synchronize();
  }
  EXPECT_TRUE(machine.device(2).is_failed());
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
