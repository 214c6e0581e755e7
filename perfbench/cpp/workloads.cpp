#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <utility>

#include "comm/comm_mode.hpp"
#include "core/cache_mode.hpp"
#include "core/inference_server.hpp"
#include "core/part_mode.hpp"
#include "core/partition.hpp"
#include "core/plan_mode.hpp"
#include "core/reference.hpp"
#include "core/sampled_pipeline.hpp"
#include "core/serve_mode.hpp"
#include "core/trainer.hpp"
#include "core/workload.hpp"
#include "dense/kernel_policy.hpp"
#include "graph/datasets.hpp"
#include "mem/pool_mode.hpp"
#include "mem/workspace_pool.hpp"
#include "replays.hpp"
#include "sim/hazard.hpp"
#include "sim/machine.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace m = mggcn;

namespace {

constexpr int kDevices = 4;
/// Fresh engine set-ups per untraced run (split across replicas).
constexpr int kSetups = 3;
/// Sampled-training settings shared by minibatch-products and every
/// sampler replay: fanout 10,10 and 256 seeds per device per round.
const std::vector<std::int64_t> kFanout = {10, 10};
constexpr std::int64_t kBatch = 256;

const char* const kWorkloadNames[] = {"fullbatch-products",
                                      "minibatch-products", "serve-arxiv",
                                      nullptr};

const std::pair<m::sim::TaskKind, const char*> kBusyKinds[] = {
    {m::sim::TaskKind::kSpMM, "spmm"},
    {m::sim::TaskKind::kGeMM, "gemm"},
    {m::sim::TaskKind::kComm, "comm"},
    {m::sim::TaskKind::kActivation, "activation"},
    {m::sim::TaskKind::kLoss, "loss"},
    {m::sim::TaskKind::kOptimizer, "optimizer"},
    {m::sim::TaskKind::kMemory, "memory"},
    {m::sim::TaskKind::kInspect, "inspect"},
    {m::sim::TaskKind::kSample, "sample"},
};

/// Per-layer metrics only one engine produces, with their units.
const std::pair<const char*, const char*> kEngineCounters[] = {
    {"core.pipeline.sample_sim_s", "sim_s"},
    {"core.pipeline.extract_sim_s", "sim_s"},
    {"core.pipeline.train_sim_s", "sim_s"},
    {"core.pipeline.occupancy", "ratio"},
    {"core.cache.hit_rate", "ratio"},
    {"core.cache.evictions", "count"},
    {"core.serve.batches", "count"},
    {"core.serve.mean_batch", "count"},
    {"core.serve.gather_sim_s", "sim_s"},
    {"core.serve.infer_sim_s", "sim_s"},
    {"core.serve.cache_hit_rate", "ratio"},
    {"core.serve.invalidations", "count"},
    {"core.serve.deadline_miss_rate", "ratio"},
    {"mem.pool_peak_bytes", "bytes"},
    {"mem.pool_reuse_hits", "count"},
    {"mem.pool_fragmentation", "ratio"},
};

const char* const kKnobs[] = {
    "MGGCN_KERNELS",     "MGGCN_COMM",         "MGGCN_PLAN",
    "MGGCN_PART",        "MGGCN_CACHE",        "MGGCN_CACHE_CAP",
    "MGGCN_SERVE_CACHE", "MGGCN_SERVE_BATCH",  "MGGCN_SERVE_SLACK",
    "MGGCN_POOL",        "MGGCN_POOL_BUDGET",  "MGGCN_HAZARD_CHECK",
    "MGGCN_SCHED_FUZZ",  "MGGCN_LOG"};

/// What one engine operation (an epoch or a serve call) produced.
struct Step {
  double host_s = 0.0;
  /// Simulated seconds, extrapolated to full scale for the trainers.
  double sim_s = 0.0;
  double loss = 0.0;
  /// Output vertices: training seeds of the epoch, or queries served.
  double items = 0.0;
  /// Operations for error accounting: epochs, rounds or requests.
  std::int64_t ops = 1;
  /// Serving only: the call's simulated latency percentiles.
  double p50_us = 0.0;
  double p99_us = 0.0;
};

double median_of(const std::vector<Step>& steps, double Step::* field) {
  std::vector<double> values;
  for (const Step& s : steps) values.push_back(s.*field);
  return summarize(values).median;
}

std::string str(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// Full-scale per-device memory: the replicated model state is charged at
/// its true size, everything else scales with the replica (as bench/common).
double extrapolate_peak(std::uint64_t peak, std::uint64_t invariant, double x) {
  const std::uint64_t fixed = std::min(peak, invariant);
  return static_cast<double>(fixed) + static_cast<double>(peak - fixed) * x;
}

/// The trainers' engine metrics: simulated epoch latency, full-scale
/// training vertices per simulated second, and full-scale peak memory.
void trainer_end_to_end(Report& report, const std::vector<Step>& steps,
                        std::uint64_t peak, std::uint64_t invariant, double x) {
  std::vector<double> sim;
  for (const Step& s : steps) sim.push_back(s.sim_s * 1e6);
  report.metric("sim_p50_us", summarize(sim).median, "sim_us");
  report.metric("sim_p99_us", quantile(sim, 0.99), "sim_us");
  report.metric("sim_peak_qps",
                steps.back().items * x / median_of(steps, &Step::sim_s),
                "1/sim_s");
  report.metric("peak_mem_bytes", extrapolate_peak(peak, invariant, x),
                "bytes");
}

std::int64_t count_train(const m::graph::Dataset& ds) {
  return std::count(ds.train_mask.begin(), ds.train_mask.end(),
                    std::uint8_t{1});
}

/// One epoch of sampled-training batches: the training vertices shuffled by
/// `seed` and cut into kDevices * rounds batches of kBatch seeds.
std::vector<std::vector<std::uint32_t>> train_batches(
    const m::graph::Dataset& ds, std::uint64_t seed) {
  std::vector<std::uint32_t> train;
  for (std::int64_t v = 0; v < ds.n(); ++v) {
    if (ds.train_mask[static_cast<std::size_t>(v)] != 0) {
      train.push_back(static_cast<std::uint32_t>(v));
    }
  }
  m::util::Rng rng(seed);
  rng.shuffle(train);
  const auto per_round = static_cast<std::size_t>(kDevices * kBatch);
  const std::size_t rounds = (train.size() + per_round - 1) / per_round;
  std::vector<std::vector<std::uint32_t>> batches(rounds * kDevices);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    for (std::size_t i = 0; i < static_cast<std::size_t>(kBatch); ++i) {
      batches[b].push_back(train[(b * kBatch + i) % train.size()]);
    }
  }
  return batches;
}

m::graph::Dataset make_replica(const m::graph::DatasetSpec& spec, double scale,
                               std::uint64_t seed, Report& report) {
  m::graph::DatasetOptions options;
  options.scale = scale;
  options.seed = seed;
  options.with_features = true;
  m::util::WallTimer timer;
  m::graph::Dataset ds = m::graph::make_dataset(spec, options);
  report.manifest("input.prep_s", str(timer.elapsed_seconds()));
  report.manifest("input.dataset", spec.name);
  report.manifest("input.scale", str(ds.scale));
  report.manifest("input.n", std::to_string(ds.n()));
  report.manifest("input.nnz", std::to_string(ds.nnz()));
  return ds;
}

void report_spmm(Report& report, const SpmmReplay& r) {
  report.metric("sparse.spmm_host_s", r.host_s, "s");
  report.metric("sparse.spmm_gbps", r.cost_bytes / r.host_s / 1e9, "GB/s");
  report.metric("sparse.host_over_sim_spmm", r.host_s / r.sim_s, "ratio");
  report.metric("sparse.plan_build_s", r.plan_build_s, "s");
}

void report_gemm(Report& report, const GemmReplay& r) {
  report.metric("dense.gemm_host_s", r.host_s, "s");
  report.metric("dense.gemm_gflops", r.flops / r.host_s / 1e9, "GFLOP/s");
}

SampleReplay report_sampler(Report& report, const m::graph::Dataset& ds,
                            std::uint64_t seed, Spans& spans) {
  SampleReplay r =
      replay_sampler(ds.adjacency, kFanout, train_batches(ds, seed), seed,
                     spans);
  report.metric("graph.sample_host_s", r.host_s, "s");
  report.metric("graph.sampled_edges", static_cast<double>(r.edges), "count");
  report.metric("graph.sample_medges_per_s",
                static_cast<double>(r.edges) / r.host_s / 1e6, "Medges/s");
  return r;
}

/// Layer replays of a full-batch trainer (fullbatch-products, and the
/// trainer behind serve-arxiv): the epoch's SpMM products on its own tiles,
/// its GeMM shapes, one staged exchange at its broadcast block size, and
/// one epoch of sampler batches on its graph.
void trainer_layers(Report& report, Spans& spans,
                    const m::core::MgGcnTrainer& trainer,
                    const m::graph::Dataset& ds,
                    const m::sim::MachineProfile& profile,
                    std::uint64_t seed) {
  report.metric("core.preprocess_s", trainer.preprocessing_seconds(), "s");
  const auto dims = trainer.dims();
  const m::core::PartitionVector& part = trainer.partition();
  const m::sparse::Csr a_hat =
      ds.adjacency.permute_symmetric(trainer.perm()).normalize_gcn();
  const m::core::TileGrid forward = m::core::make_tile_grid(a_hat.transpose(), part);
  const m::core::TileGrid backward = m::core::make_tile_grid(a_hat, part);

  std::vector<SpmmProduct> products;
  std::vector<GemmShape> gemms;
  for (int l = 0; l < trainer.num_layers(); ++l) {
    const std::int64_t d_in = dims[static_cast<std::size_t>(l)];
    const std::int64_t d_out = dims[static_cast<std::size_t>(l) + 1];
    const std::int64_t width = trainer.layer_spmm_first(l) ? d_in : d_out;
    for (int i = 0; i < part.parts(); ++i) {
      for (int j = 0; j < part.parts(); ++j) {
        products.push_back({&forward.tile(i, j), width});
        // The first layer's backward SpMM is skipped (§4.4).
        if (l > 0) products.push_back({&backward.tile(i, j), width});
      }
      const std::int64_t rows = part.size(i);
      gemms.push_back({rows, d_in, d_out});  // forward
      gemms.push_back({d_in, rows, d_out});  // weight gradient
      if (l > 0) gemms.push_back({rows, d_out, d_in});  // input gradient
    }
  }
  report_spmm(report, replay_spmm(products, profile.device, spans));
  report_gemm(report, replay_gemm(gemms, spans));
  (void)report_sampler(report, ds, seed, spans);
  // The trainer's broadcast block: the widest product it exchanges.
  std::int64_t widest = 0;
  for (const SpmmProduct& p : products) widest = std::max(widest, p.width);
  report.metric("comm.bcast_host_s",
                replay_broadcast(profile, kDevices,
                                 static_cast<std::size_t>(
                                     part.max_part_size() * widest),
                                 5, spans),
                "s");
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Input preparation (replica and trace generation); not part of any metric.
  virtual void prepare(std::uint64_t seed, bool tiny, Report& report) = 0;
  /// Builds a fresh machine and engine and runs the first warm-up operation.
  virtual Step setup(bool hazard_check, Spans& spans) = 0;
  virtual Step step(Spans& spans) = 0;
  virtual void teardown() = 0;
  [[nodiscard]] virtual m::sim::Machine& machine() = 0;
  [[nodiscard]] virtual double extrapolation() const = 0;
  [[nodiscard]] virtual bool trains() const { return true; }
  /// Replicas per untraced run (see run_workload).
  [[nodiscard]] virtual int replicas() const { return 1; }
  /// Output checks against the live engine, after the timed loop.
  virtual void check(Report& report, const std::vector<Step>& steps) = 0;
  /// End-to-end metrics only the engine can give (latency, throughput,
  /// simulated memory).
  virtual void end_to_end(Report& report, const std::vector<Step>& steps) = 0;
  /// Engine counters of the last traced operation plus the layer replays.
  virtual void layers(Report& report, Spans& spans) = 0;
  /// What the engine's `auto` knobs resolved to.
  virtual void manifest(Report& report) = 0;

 protected:
  std::uint64_t seed_ = 1;
};

// --- fullbatch-products ---------------------------------------------------

class FullBatch : public Workload {
 public:
  void prepare(std::uint64_t seed, bool tiny, Report& report) override {
    seed_ = seed;
    ds_ = make_replica(m::graph::products(), tiny ? 1024.0 : 48.0, seed,
                       report);
    config_ = m::core::model_hidden512();
    config_.seed = seed;
    invariant_ = m::core::replicated_state_bytes(
        m::core::layer_dims(ds_, config_));
    profile_ = m::sim::scale_profile(m::sim::dgx_v100(), ds_.scale, invariant_);
    train_ = static_cast<double>(count_train(ds_));
  }

  Step setup(bool hazard_check, Spans& spans) override {
    machine_ = std::make_unique<m::sim::Machine>(
        profile_, kDevices, m::sim::ExecutionMode::kReal, hazard_check);
    {
      auto span = spans.open("core.MgGcnTrainer.construct");
      trainer_ = std::make_unique<m::core::MgGcnTrainer>(*machine_, ds_,
                                                         config_);
    }
    return step(spans);
  }

  Step step(Spans& spans) override {
    auto span = spans.open("core.MgGcnTrainer.train_epoch");
    last_ = trainer_->train_epoch();
    Step s;
    s.sim_s = last_.sim_seconds * ds_.extrapolation();
    s.loss = last_.loss;
    s.items = train_;
    return s;
  }

  void teardown() override {
    trainer_.reset();
    machine_.reset();
  }

  m::sim::Machine& machine() override { return *machine_; }
  double extrapolation() const override { return ds_.extrapolation(); }

  void check(Report& report, const std::vector<Step>& steps) override {
    // The first epochs against the serial reference, within the tolerance
    // of tests/test_trainer.cpp.
    m::core::ReferenceTrainer reference(ds_, config_);
    const std::size_t epochs = std::min<std::size_t>(2, steps.size());
    for (std::size_t e = 0; e < epochs; ++e) {
      const double ref = reference.train_epoch().loss;
      const double got = steps[e].loss;
      const double tol = 1e-3 * std::max(1.0, ref);
      report.check("reference-loss-epoch" + std::to_string(e),
                   std::abs(got - ref) <= tol,
                   "distributed " + str(got) + " vs reference " + str(ref));
    }
  }

  void end_to_end(Report& report, const std::vector<Step>& steps) override {
    trainer_end_to_end(report, steps, last_.peak_memory_bytes, invariant_,
                       ds_.extrapolation());
  }

  void layers(Report& report, Spans& spans) override {
    trainer_layers(report, spans, *trainer_, ds_, profile_, seed_);
  }

  void manifest(Report& report) override {
    report.manifest("auto.part_mode_used",
                    m::core::part_mode_name(trainer_->part_mode_used()));
    report.manifest("auto.pool",
                    m::mem::resolve_pool(config_.pool, *machine_,
                                         config_.pool_mode) != nullptr
                        ? "pooled"
                        : "static");
  }

 private:
  m::graph::Dataset ds_;
  m::core::TrainConfig config_;
  m::sim::MachineProfile profile_;
  std::uint64_t invariant_ = 0;
  double train_ = 0.0;
  std::unique_ptr<m::sim::Machine> machine_;
  std::unique_ptr<m::core::MgGcnTrainer> trainer_;
  m::core::EpochStats last_;
};

// --- minibatch-products ---------------------------------------------------

class MiniBatch : public Workload {
 public:
  void prepare(std::uint64_t seed, bool tiny, Report& report) override {
    seed_ = seed;
    ds_ = make_replica(m::graph::products(), tiny ? 1024.0 : 48.0, seed,
                       report);
    options_.hidden_dims = {64};
    options_.fanout = kFanout;
    options_.batch_size = kBatch;
    options_.pipeline = true;
    options_.seed = seed;
    invariant_ = m::core::replicated_state_bytes(
        {ds_.spec.feature_dim, 64, ds_.spec.num_classes});
    profile_ = m::sim::scale_profile(m::sim::dgx_v100(), ds_.scale, invariant_);
  }

  Step setup(bool hazard_check, Spans& spans) override {
    machine_ = std::make_unique<m::sim::Machine>(
        profile_, kDevices, m::sim::ExecutionMode::kReal, hazard_check);
    {
      auto span = spans.open("core.SampledPipeline.construct");
      m::util::WallTimer timer;
      pipeline_ = std::make_unique<m::core::SampledPipeline>(*machine_, ds_,
                                                             options_);
      construct_s_ = timer.elapsed_seconds();
    }
    return step(spans);
  }

  Step step(Spans& spans) override {
    auto span = spans.open("core.SampledPipeline.train_epoch");
    last_ = pipeline_->train_epoch();
    Step s;
    s.sim_s = last_.sim_seconds * ds_.extrapolation();
    s.loss = last_.loss;
    s.ops = pipeline_->rounds_per_epoch();
    s.items = static_cast<double>(pipeline_->rounds_per_epoch()) * kDevices *
              kBatch;
    return s;
  }

  void teardown() override {
    pipeline_.reset();
    machine_.reset();
  }

  m::sim::Machine& machine() override { return *machine_; }
  double extrapolation() const override { return ds_.extrapolation(); }
  int replicas() const override { return 3; }

  void check(Report& report, const std::vector<Step>& steps) override {
    const bool finite = std::all_of(steps.begin(), steps.end(), [](const Step& s) {
      return std::isfinite(s.loss) && s.loss > 0.0;
    });
    report.check("losses-finite", finite,
                 "first loss " + str(steps.front().loss));
  }

  void end_to_end(Report& report, const std::vector<Step>& steps) override {
    trainer_end_to_end(report, steps, last_.peak_memory_bytes, invariant_,
                       ds_.extrapolation());
  }

  void layers(Report& report, Spans& spans) override {
    const double x = ds_.extrapolation();
    report.metric("core.preprocess_s", construct_s_, "s");
    report.metric("core.pipeline.sample_sim_s", last_.pipe_sample_seconds * x,
                  "sim_s");
    report.metric("core.pipeline.extract_sim_s",
                  last_.pipe_extract_seconds * x, "sim_s");
    report.metric("core.pipeline.train_sim_s", last_.pipe_train_seconds * x,
                  "sim_s");
    report.metric("core.pipeline.occupancy", last_.pipe_occupancy, "ratio");
    report.metric("core.cache.hit_rate", last_.cache_hit_rate, "ratio");
    report.metric("core.cache.evictions",
                  static_cast<double>(last_.cache_evictions), "count");

    // One epoch of sampler batches; its subgraphs are the inputs of the
    // SpMM (mean-aggregation blocks) and GeMM replays.
    const SampleReplay sampled = report_sampler(report, ds_, seed_, spans);
    const std::vector<std::int64_t>& dims = pipeline_->dims();
    std::vector<SpmmProduct> products;
    std::vector<GemmShape> gemms;
    for (std::size_t b = 0; b < sampled.subgraphs.size(); ++b) {
      const m::graph::SampledSubgraph& sub = sampled.subgraphs[b];
      const int hops = sub.hops();
      for (int k = 0; k < hops; ++k) {
        const auto level = static_cast<std::size_t>(hops - 1 - k);
        products.push_back({&sub.blocks[static_cast<std::size_t>(k)],
                            dims[level]});
        if (b < static_cast<std::size_t>(kDevices)) {
          gemms.push_back(
              {static_cast<std::int64_t>(
                   sub.layers[static_cast<std::size_t>(k)].size()),
               dims[level], dims[level + 1]});
        }
      }
    }
    report_spmm(report, replay_spmm(products, profile_.device, spans));
    report_gemm(report, replay_gemm(gemms, spans));
    const std::int64_t shard = (ds_.n() + kDevices - 1) / kDevices;
    report.metric("comm.bcast_host_s",
                  replay_broadcast(profile_, kDevices,
                                   static_cast<std::size_t>(
                                       shard * ds_.spec.feature_dim),
                                   5, spans),
                  "s");
  }

  void manifest(Report& report) override {
    report.manifest("auto.cache_mode", m::core::cache_mode_name(
                                           pipeline_->resolved_cache_mode()));
    report.manifest("auto.pool",
                    m::mem::resolve_pool(options_.pool, *machine_,
                                         options_.pool_mode) != nullptr
                        ? "pooled"
                        : "static");
    report.manifest("rounds_per_epoch",
                    std::to_string(pipeline_->rounds_per_epoch()));
  }

 private:
  m::graph::Dataset ds_;
  m::core::SampledPipeline::Options options_;
  m::sim::MachineProfile profile_;
  std::uint64_t invariant_ = 0;
  double construct_s_ = 0.0;
  std::unique_ptr<m::sim::Machine> machine_;
  std::unique_ptr<m::core::SampledPipeline> pipeline_;
  m::core::EpochStats last_;
};

// --- serve-arxiv ------------------------------------------------------------

class Serve : public Workload {
 public:
  void prepare(std::uint64_t seed, bool tiny, Report& report) override {
    seed_ = seed;
    ds_ = make_replica(m::graph::arxiv(), tiny ? 64.0 : 4.0, seed, report);
    config_.hidden_dims = {64};
    config_.seed = seed;
    train_epochs_ = tiny ? 1 : 3;
    // Scaled like the trainers' machines; serving metrics are per query and
    // are reported at replica scale, not extrapolated.
    profile_ = m::sim::scale_profile(
        m::sim::dgx_v100(), ds_.scale,
        m::core::replicated_state_bytes(m::core::layer_dims(ds_, config_)));

    m::serve::WorkloadOptions wl;
    wl.rate_qps = 400e3;
    wl.arrival = m::serve::ArrivalProcess::kPoisson;
    wl.skew = m::serve::QuerySkew::kZipf;
    wl.zipf_theta = 0.99;
    wl.deadline = 50e-6;
    wl.update_rate = 2000.0;
    wl.update_touch = 64;
    wl.seed = seed;
    m::serve::WorkloadGen gen(ds_.n(), wl);
    requests_ = gen.generate(tiny ? 512 : 8192);
    updates_ = gen.generate_updates(requests_.back().arrival);
    // Saturation replay: the whole trace arrives at once.
    saturation_ = requests_;
    for (auto& r : saturation_) r = {0.0, r.vertex, 0.0};
    report.manifest("input.requests", std::to_string(requests_.size()));
    report.manifest("input.updates", std::to_string(updates_.size()));
  }

  Step setup(bool hazard_check, Spans& spans) override {
    machine_ = std::make_unique<m::sim::Machine>(
        profile_, kDevices, m::sim::ExecutionMode::kReal, hazard_check);
    pool_ = m::mem::PoolSet::create(*machine_);
    m::core::TrainConfig config = config_;
    config.pool = pool_;
    {
      auto span = spans.open("core.MgGcnTrainer.construct");
      trainer_ = std::make_unique<m::core::MgGcnTrainer>(*machine_, ds_,
                                                         config);
    }
    for (int e = 0; e < train_epochs_; ++e) {
      auto span = spans.open("core.MgGcnTrainer.train_epoch");
      (void)trainer_->train_epoch();
    }
    {
      auto span = spans.open("core.MgGcnTrainer.run_forward");
      trainer_->run_forward();
    }
    m::core::ServeOptions options;
    options.pool = pool_;
    {
      auto span = spans.open("core.InferenceServer.construct");
      server_ = std::make_unique<m::core::InferenceServer>(*machine_,
                                                           *trainer_, ds_,
                                                           options);
    }
    return step(spans);
  }

  Step step(Spans& spans) override {
    auto span = spans.open("core.InferenceServer.serve");
    last_ = server_->serve(requests_, updates_);
    Step s;
    s.sim_s = last_.serve_span_seconds;
    s.items = static_cast<double>(last_.serve_requests);
    s.ops = last_.serve_requests;
    s.p50_us = last_.serve_p50_latency * 1e6;
    s.p99_us = last_.serve_p99_latency * 1e6;
    miss_rates_.push_back(last_.serve_deadline_miss_rate);
    return s;
  }

  void teardown() override {
    server_.reset();
    trainer_.reset();
    pool_.reset();
    machine_.reset();
    miss_rates_.clear();
  }

  m::sim::Machine& machine() override { return *machine_; }
  double extrapolation() const override { return 1.0; }
  bool trains() const override { return false; }
  int replicas() const override { return 3; }

  void check(Report& report, const std::vector<Step>& /*steps*/) override {
    // Every prediction of the last call, bit for bit against the trainer's
    // logits row of the queried vertex.
    const m::dense::HostMatrix logits = trainer_->gather_logits();
    const m::dense::HostMatrix& got = server_->predictions();
    std::int64_t mismatched = 0;
    const bool shaped = got.rows() == static_cast<std::int64_t>(requests_.size()) &&
                        got.cols() == logits.cols();
    if (shaped) {
      const auto bytes = static_cast<std::size_t>(logits.cols()) * sizeof(float);
      for (std::size_t i = 0; i < requests_.size(); ++i) {
        if (std::memcmp(got.view().row(static_cast<std::int64_t>(i)),
                        logits.view().row(requests_[i].vertex), bytes) != 0) {
          ++mismatched;
        }
      }
    }
    report.operations(0, shaped ? mismatched : static_cast<std::int64_t>(
                                                  requests_.size()));
    report.check("predictions-bit-identical", shaped && mismatched == 0,
                 std::to_string(mismatched) + " of " +
                     std::to_string(requests_.size()) + " rows differ");
  }

  void end_to_end(Report& report, const std::vector<Step>& steps) override {
    report.metric("sim_p50_us", median_of(steps, &Step::p50_us), "sim_us");
    report.metric("sim_p99_us", median_of(steps, &Step::p99_us), "sim_us");
    report.metric("deadline_miss_rate",
                  quantile(miss_rates_, 0.5), "ratio");
    const m::core::ServeStats sat = server_->serve(saturation_);
    report.metric("sim_peak_qps", sat.serve_qps, "1/sim_s");
    report.metric("peak_mem_bytes",
                  static_cast<double>(machine_->max_memory_peak()), "bytes");
  }

  void layers(Report& report, Spans& spans) override {
    report.metric("core.serve.batches",
                  static_cast<double>(last_.serve_batches), "count");
    report.metric("core.serve.mean_batch", last_.serve_mean_batch_size,
                  "count");
    report.metric("core.serve.gather_sim_s", last_.serve_gather_seconds,
                  "sim_s");
    report.metric("core.serve.infer_sim_s", last_.serve_infer_seconds,
                  "sim_s");
    report.metric("core.serve.cache_hit_rate", last_.serve_cache_hit_rate,
                  "ratio");
    report.metric("core.serve.invalidations",
                  static_cast<double>(last_.serve_invalidations), "count");
    report.metric("core.serve.deadline_miss_rate",
                  last_.serve_deadline_miss_rate, "ratio");
    std::uint64_t peak = 0;
    std::uint64_t hits = 0;
    double fragmentation = 0.0;
    for (int r = 0; r < pool_->size(); ++r) {
      const m::mem::PoolStats& stats = pool_->pool(r).stats();
      peak = std::max(peak, stats.reserved_peak_bytes);
      hits += stats.reuse_hits;
      fragmentation = std::max(fragmentation, stats.fragmentation_peak);
    }
    report.metric("mem.pool_peak_bytes", static_cast<double>(peak), "bytes");
    report.metric("mem.pool_reuse_hits", static_cast<double>(hits), "count");
    report.metric("mem.pool_fragmentation", fragmentation, "ratio");
    trainer_layers(report, spans, *trainer_, ds_, profile_, seed_);
  }

  void manifest(Report& report) override {
    report.manifest("auto.serve_cache", m::core::serve_cache_mode_name(
                                            server_->cache_mode_used()));
    report.manifest("auto.part_mode_used",
                    m::core::part_mode_name(trainer_->part_mode_used()));
    report.manifest("auto.pool", "shared PoolSet (trainer + server)");
    report.manifest("serve.policy",
                    m::core::batch_policy_name(server_->options().policy));
    report.manifest("serve.max_batch",
                    std::to_string(server_->options().max_batch));
    report.manifest("serve.slack_s", str(server_->options().slack_seconds));
  }

 private:
  m::graph::Dataset ds_;
  m::core::TrainConfig config_;
  m::sim::MachineProfile profile_;
  int train_epochs_ = 3;
  std::vector<m::serve::Request> requests_;
  std::vector<m::serve::GraphUpdate> updates_;
  std::vector<m::serve::Request> saturation_;
  std::unique_ptr<m::sim::Machine> machine_;
  std::shared_ptr<m::mem::PoolSet> pool_;
  std::unique_ptr<m::core::MgGcnTrainer> trainer_;
  std::unique_ptr<m::core::InferenceServer> server_;
  m::core::ServeStats last_;
  std::vector<double> miss_rates_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "fullbatch-products") return std::make_unique<FullBatch>();
  if (name == "minibatch-products") return std::make_unique<MiniBatch>();
  if (name == "serve-arxiv") return std::make_unique<Serve>();
  throw m::InvalidArgumentError("unknown workload '" + name + "'");
}

void knob_manifest(Report& report) {
  for (const char* knob : kKnobs) {
    const char* value = std::getenv(knob);
    report.manifest(std::string("env.") + knob, value ? value : "(unset)");
  }
  report.manifest("knob.kernels",
                  m::dense::kernel_policy_name(m::dense::kernel_policy()));
  report.manifest("knob.comm", m::comm::comm_mode_name(m::comm::comm_mode()));
  report.manifest("knob.plan", m::core::plan_mode_name(m::core::plan_mode()));
  report.manifest("knob.part", m::core::part_mode_name(m::core::part_mode()));
  report.manifest("knob.cache",
                  m::core::cache_mode_name(m::core::cache_mode()));
  report.manifest("knob.cache_cap", str(m::core::cache_capacity_fraction()));
  report.manifest("knob.serve_cache", m::core::serve_cache_mode_name(
                                          m::core::serve_cache_mode()));
  report.manifest("knob.serve_batch", std::to_string(m::core::serve_batch()));
  report.manifest("knob.serve_slack_s", str(m::core::serve_slack_seconds()));
  report.manifest("knob.pool", m::mem::pool_mode_name(m::mem::pool_mode()));
  report.manifest("knob.pool_budget_bytes",
                  std::to_string(m::mem::pool_budget_bytes()));
  report.manifest("knob.hazard_check",
                  m::sim::hazard_check_env() ? "on" : "off");
  report.manifest("build.type", PERFBENCH_BUILD_TYPE);
  report.manifest("build.compiler", PERFBENCH_COMPILER);
  report.manifest("build.kernel_march", PERFBENCH_KERNEL_MARCH);
  report.manifest("host.nproc",
                  std::to_string(std::thread::hardware_concurrency()));
}

/// Counters of the machine trace since the last clear (one operation).
void trace_manifest(Report& report, m::sim::Trace& trace) {
  const m::sim::PlanCounters plan = trace.plan_counters();
  const m::sim::CommVolume comm = trace.comm_volume();
  report.manifest("auto.plan.products_1d", std::to_string(plan.products_1d));
  report.manifest("auto.plan.products_15d", std::to_string(plan.products_15d));
  report.manifest("auto.plan.products_replicated",
                  std::to_string(plan.products_replicated));
  report.manifest("auto.comm.compact_stages",
                  std::to_string(comm.compact_stages));
  report.manifest("auto.comm.dense_stages", std::to_string(comm.dense_stages));
}

void trace_layers(Report& report, m::sim::Trace& trace, const Step& last,
                  double host_s, double x, bool per_query) {
  const auto tasks = static_cast<double>(trace.records().size());
  report.metric("sim.tasks", per_query ? tasks / last.items : tasks, "count");
  report.metric("sim.host_us_per_task", host_s / tasks * 1e6, "us");
  const auto busy = trace.busy_by_kind();
  for (const auto& [kind, name] : kBusyKinds) {
    const auto it = busy.find(kind);
    report.metric(std::string("sim.busy_s.") + name,
                  it == busy.end() ? 0.0 : it->second * x, "sim_s");
  }
  const m::sim::CommVolume comm = trace.comm_volume();
  report.metric("comm.wire_bytes", static_cast<double>(comm.wire_bytes),
                "bytes");
  report.metric("comm.bytes_saved", static_cast<double>(comm.bytes_saved()),
                "bytes");
  report.metric("comm.compact_stages",
                static_cast<double>(comm.compact_stages), "count");
  report.metric("comm.dense_stages", static_cast<double>(comm.dense_stages),
                "count");
  report.metric("comm.retries",
                static_cast<double>(
                    trace.fault_count(m::sim::FaultEventKind::kCommRetry)),
                "count");
  const m::sim::PlanCounters plan = trace.plan_counters();
  report.metric("core.plan.products_1d", static_cast<double>(plan.products_1d),
                "count");
  report.metric("core.plan.products_15d",
                static_cast<double>(plan.products_15d), "count");
  report.metric("core.plan.products_replicated",
                static_cast<double>(plan.products_replicated), "count");
  report.metric("core.plan.fallbacks", static_cast<double>(plan.fallbacks),
                "count");
}

double peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;
}

/// Runs `count` steps, or steps until `seconds` have passed (at least
/// `min_steps`), clearing the machine trace before each so it holds exactly
/// one operation afterwards.
std::vector<Step> run_steps(Workload& w, Spans& spans, double seconds,
                            std::size_t count, std::size_t min_steps = 1) {
  std::vector<Step> steps;
  m::util::WallTimer budget;
  while (count > 0 ? steps.size() < count
                   : steps.size() < min_steps ||
                         budget.elapsed_seconds() < seconds) {
    w.machine().trace().clear();
    auto span = spans.open("engine.step");
    m::util::WallTimer timer;
    Step s = w.step(spans);
    s.host_s = timer.elapsed_seconds();
    steps.push_back(s);
  }
  return steps;
}

}  // namespace

const char* const* workload_names() { return kWorkloadNames; }

void run_workload(const RunOptions& o, Report& report) {
  std::unique_ptr<Workload> w = make_workload(o.workload);
  report.manifest("workload", o.workload);
  report.manifest("seed", std::to_string(o.seed));
  report.manifest("seconds", str(o.seconds));
  report.manifest("trace", o.trace ? "1" : "0");
  report.manifest("devices", std::to_string(kDevices));
  knob_manifest(report);

  // Untraced run. Each replica is set up one or more times (setup_s is the
  // median over all set-ups), and its last engine runs the timed
  // steady-state operations for the replica's share of --seconds. A
  // replica's metrics are medians over its operations; the run reports
  // their mean over replicas, which averages out how strongly one
  // replica's hub degrees drive host time.
  Spans off(false);
  const int replicas = o.tiny ? 1 : w->replicas();
  const int setups = o.tiny ? 1 : std::max(1, kSetups / replicas);
  const std::size_t min_steps = replicas > 1 ? 2 : 3;
  std::vector<double> setup_times, host, per_item;
  std::vector<Report> per_replica(static_cast<std::size_t>(replicas));
  std::string replica_seeds;
  std::int64_t ops = 0;
  double rss = 0.0;
  Step first;
  std::vector<Step> steps;
  for (int r = 0; r < replicas; ++r) {
    // Replica r of seed s is generated from s + 1000003 r.
    const std::uint64_t seed = o.seed + 1000003ULL * static_cast<std::uint64_t>(r);
    replica_seeds += (r == 0 ? "" : ",") + std::to_string(seed);
    if (r > 0) w->teardown();
    w->prepare(seed, o.tiny, report);
    for (int k = 0; k < setups; ++k) {
      if (k > 0) w->teardown();
      m::util::WallTimer timer;
      first = w->setup(false, off);
      setup_times.push_back(timer.elapsed_seconds());
    }
    steps = run_steps(*w, off, o.seconds / replicas, 0, min_steps);
    // Before the output checks, which may build a reference model.
    rss = peak_rss_bytes();

    std::vector<double> host_r, per_item_r;
    ops += first.ops;
    for (const Step& s : steps) {
      ops += s.ops;
      host_r.push_back(s.host_s);
      per_item_r.push_back(s.host_s / s.items * 1e6);
    }
    host.insert(host.end(), host_r.begin(), host_r.end());
    per_item.insert(per_item.end(), per_item_r.begin(), per_item_r.end());
    Report& rep = per_replica[static_cast<std::size_t>(r)];
    rep.metric("epoch_s", summarize(host_r).median, "s");
    rep.metric("query_host_us", summarize(per_item_r).median, "us");
    rep.metric("sim_epoch_s", median_of(steps, &Step::sim_s), "sim_s");

    std::vector<Step> with_first = {first};
    with_first.insert(with_first.end(), steps.begin(), steps.end());
    w->check(report, with_first);
    w->end_to_end(rep, steps);
  }
  report.metric("host_rss_bytes", rss, "bytes");
  report.operations(ops, 0);
  report.merge_mean(per_replica);
  report.timing("setup_s", setup_times, "s");
  report.timing("epoch_s", host, "s");
  report.timing("query_host_us", per_item, "us");
  report.metric("setup_s", summarize(setup_times).median, "s");
  report.manifest("input.replica_seeds", replica_seeds);
  report.manifest("steps", std::to_string(host.size()));
  trace_manifest(report, w->machine().trace());
  w->manifest(report);

  if (o.trace) {
    // Traced run: the same operations again on a fresh engine, with spans.
    Spans spans(true);
    w->teardown();
    Step traced_first;
    {
      auto span = spans.open("engine.setup");
      traced_first = w->setup(false, spans);
    }
    constexpr std::size_t kMaxTracedSteps = 8;
    const std::vector<Step> traced = run_steps(
        *w, spans, 0.0, std::min(steps.size(), kMaxTracedSteps));
    namespace fs = std::filesystem;
    fs::create_directories(o.out_dir);
    const std::string stem =
        (fs::path(o.out_dir) / (o.workload + "-seed" + std::to_string(o.seed)))
            .string();
    w->machine().trace().export_chrome_json(stem + "-sim-timeline.json");

    std::vector<double> traced_host;
    for (const Step& s : traced) traced_host.push_back(s.host_s);
    const double traced_median = summarize(traced_host).median;
    report.timing("traced.epoch_s", traced_host, "s");
    // Against the untraced operations of the same (last) replica.
    std::vector<double> untraced_host;
    for (const Step& s : steps) untraced_host.push_back(s.host_s);
    const double untraced_median = summarize(untraced_host).median;
    report.metric("trace.overhead_s", traced_median - untraced_median, "s");
    report.metric("trace.overhead_ratio", traced_median / untraced_median - 1.0,
                  "ratio");
    trace_layers(report, w->machine().trace(), traced.back(), traced_median,
                 w->extrapolation(), !w->trains());

    if (w->trains()) {
      std::size_t differing = traced_first.loss == first.loss ? 0 : 1;
      for (std::size_t i = 0; i < traced.size(); ++i) {
        if (traced[i].loss != steps[i].loss) ++differing;
      }
      report.check("traced-losses-bit-identical", differing == 0,
                   std::to_string(differing) + " of " +
                       std::to_string(traced.size() + 1) + " epochs differ");
    }
    // Engine-specific counters read 0 on the engines that do not have them.
    for (const auto& [name, unit] : kEngineCounters) report.metric(name, 0.0, unit);
    {
      auto span = spans.open("layer.replays");
      w->layers(report, spans);
    }
    report.check("span-file-written",
                 spans.write_chrome_json(stem + "-host-spans.json"),
                 stem + "-host-spans.json");
    report.manifest("trace.spans", std::to_string(spans.size()));
    report.manifest("trace.files", stem + "-{host-spans,sim-timeline}.json");
  }

  // Short hazard-audited pass, kept apart from the timed runs: the first
  // operation of a fresh engine under the happens-before audit.
  w->teardown();
  w->setup(/*hazard_check=*/true, off);
  const std::size_t hazards = w->machine().trace().hazard_count();
  report.metric("sim.hazards", static_cast<double>(hazards), "count");
  report.check("hazard-audit", hazards == 0,
               std::to_string(hazards) + " hazards");
  w->teardown();
}

}  // namespace perfbench
