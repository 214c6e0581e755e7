// Integration tests: the distributed MG-GCN trainer against the serial
// reference — the paper's own validation methodology ("we verified the
// correctness of our implementation by comparing the train accuracy curve
// with DGL's", §6).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/reference.hpp"
#include "core/trainer.hpp"
#include "dense/kernel_policy.hpp"
#include "graph/datasets.hpp"
#include "sim/machine.hpp"
#include "stats_hash.hpp"

namespace mggcn {
namespace {

graph::Dataset small_dataset(std::uint64_t seed = 7, double avg_degree = 8.0) {
  graph::DatasetSpec spec = graph::cora();
  spec.n = 400;
  spec.feature_dim = 32;
  spec.num_classes = 5;
  spec.avg_degree = avg_degree;
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

TEST(MgGcnTrainer, SingleDeviceMatchesReference) {
  const graph::Dataset ds = small_dataset();
  core::TrainConfig config = small_config();
  config.permute = false;

  sim::Machine machine(sim::dgx_v100(), 1, sim::ExecutionMode::kReal);
  core::MgGcnTrainer trainer(machine, ds, config);
  core::ReferenceTrainer reference(ds, config);

  for (int epoch = 0; epoch < 5; ++epoch) {
    const auto dist = trainer.train_epoch();
    const auto ref = reference.train_epoch();
    EXPECT_NEAR(dist.loss, ref.loss, 1e-3 * std::max(1.0, ref.loss))
        << "epoch " << epoch;
    EXPECT_EQ(dist.train_accuracy, ref.train_accuracy) << "epoch " << epoch;
  }
}

TEST(MgGcnTrainer, MultiDeviceMatchesReference) {
  const graph::Dataset ds = small_dataset();
  for (int gpus : {2, 4}) {
    core::TrainConfig config = small_config();
    config.permute = false;

    sim::Machine machine(sim::dgx_v100(), gpus, sim::ExecutionMode::kReal);
    core::MgGcnTrainer trainer(machine, ds, config);
    core::ReferenceTrainer reference(ds, config);

    for (int epoch = 0; epoch < 4; ++epoch) {
      const auto dist = trainer.train_epoch();
      const auto ref = reference.train_epoch();
      EXPECT_NEAR(dist.loss, ref.loss, 1e-3 * std::max(1.0, ref.loss))
          << gpus << " gpus, epoch " << epoch;
    }
  }
}

TEST(MgGcnTrainer, TrainingConverges) {
  graph::DatasetSpec spec = graph::cora();
  spec.n = 400;
  spec.feature_dim = 32;
  spec.num_classes = 5;
  spec.avg_degree = 8.0;
  graph::DatasetOptions options;
  options.seed = 7;
  options.feature_snr = 2.0;
  const graph::Dataset ds = graph::make_dataset(spec, options);

  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  core::MgGcnTrainer trainer(machine, ds, small_config());

  const auto stats = trainer.train(80);
  EXPECT_LT(stats.back().loss, stats.front().loss * 0.5);
  EXPECT_GT(stats.back().train_accuracy, 0.78);
}

TEST(MgGcnTrainer, PhantomModeProducesTimings) {
  graph::DatasetSpec spec = graph::arxiv();
  graph::DatasetOptions options;
  options.scale = 64.0;
  options.with_features = false;
  const graph::Dataset ds = graph::make_dataset(spec, options);

  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kPhantom);
  core::MgGcnTrainer trainer(machine, ds, core::TrainConfig{});
  const auto stats = trainer.train_epoch();
  EXPECT_GT(stats.sim_seconds, 0.0);
  EXPECT_GT(stats.busy_by_kind.at(sim::TaskKind::kSpMM), 0.0);
  EXPECT_GT(stats.busy_by_kind.at(sim::TaskKind::kGeMM), 0.0);
  EXPECT_GT(stats.peak_memory_bytes, 0u);
}

/// A pinned trainer: its hidden widths, pool mode and expected hash, with
/// every knob a CI axis flips fixed.
struct PinCase {
  std::vector<std::int64_t> hidden;
  mem::PoolMode pool;
  std::uint64_t expected;

  [[nodiscard]] core::TrainConfig config() const {
    core::TrainConfig config = small_config();
    config.hidden_dims = hidden;
    config.part_mode = core::PartMode::kRandom;
    config.comm_mode = comm::CommMode::kAuto;
    config.plan_mode = core::PlanMode::kAuto;
    config.pool_mode = pool;
    return config;
  }
};

TEST(MgGcnTrainer, EpochStatsArePinned) {
  // The reference comparisons above check losses within a tolerance, so a
  // change that only moves the accounting (the busy split, the comm deltas,
  // the planner counters, the pool high-water marks) passes them. FNV-1a
  // over the bits of every EpochStats field of three epochs pins all of
  // it, statically allocated and pooled. Every knob the CI axes flip is
  // pinned here, so the hash holds on each axis. The 3-layer model has a
  // middle layer that both takes and hands on a masked gradient.
  const util::Knob<dense::KernelPolicy>::Scoped kernels(
      dense::kernel_policy_knob, dense::KernelPolicy::kPlanned);
  const graph::Dataset ds = small_dataset();
  for (const PinCase& c :
       {PinCase{{16}, mem::PoolMode::kOff, 0x3adf49815ab58e9dULL},
        PinCase{{16}, mem::PoolMode::kOn, 0x6ac069a3320aaaabULL},
        PinCase{{16, 8}, mem::PoolMode::kOff, 0x79566a83c37726feULL},
        PinCase{{16, 8}, mem::PoolMode::kOn, 0xc69d0c78ebdcefbaULL}}) {
    sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
    core::MgGcnTrainer trainer(machine, ds, c.config());
    const std::uint64_t hash = testing::hash_epoch_stats(trainer.train(3));
    EXPECT_EQ(hash, c.expected)
        << c.hidden.size() + 1 << " layers, " << mem::pool_mode_name(c.pool)
        << ": 0x" << std::hex << hash;
  }
}

TEST(MgGcnTrainer, EpochTimelineIsPinned) {
  // EpochStatsArePinned pins an epoch's totals; this pins where each of its
  // tasks sits: the label, kind and simulated begin/end of every record of
  // one epoch, per stream. Hidden {40, 8} runs the first layer's SpMM
  // before its GeMM (§4.4) and has a middle layer.
  const util::Knob<dense::KernelPolicy>::Scoped kernels(
      dense::kernel_policy_knob, dense::KernelPolicy::kPlanned);
  const graph::Dataset ds = small_dataset();
  for (const PinCase& c :
       {PinCase{{16, 8}, mem::PoolMode::kOff, 0x866ad0ffc8a03daaULL},
        PinCase{{16, 8}, mem::PoolMode::kOn, 0x866ad0ffc8a03daaULL},
        PinCase{{40, 8}, mem::PoolMode::kOff, 0xe58b745dc9e4b7ceULL}}) {
    sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
    core::MgGcnTrainer trainer(machine, ds, c.config());
    (void)trainer.train_epoch();
    const std::uint64_t hash =
        testing::hash_timeline(machine.trace().records());
    EXPECT_EQ(hash, c.expected)
        << "hidden " << c.hidden.front() << "," << c.hidden.back() << ", "
        << mem::pool_mode_name(c.pool) << ": 0x" << std::hex << hash;
  }
}

TEST(MgGcnTrainer, InspectorTasksAreChargedOnTheFirstEpochOnly) {
  // Plans are built in parallel on the host at the first product (and, in
  // compact-capable modes, already when the auto planner prices it), but
  // each one-time kInspect task is still enqueued on its tile's device, at
  // the stream position and cost of the lazy per-tile build: per device,
  // one per tile of each tile row a 1D product used, on the compute
  // stream, all in epoch 0. The timeline hashes were read from the lazy
  // per-tile build, before planning could build plans.
  const util::Knob<dense::KernelPolicy>::Scoped kernels(
      dense::kernel_policy_knob, dense::KernelPolicy::kPlanned);
  const graph::Dataset dense_graph = small_dataset();
  // Degree 3 under the locality partition: ghost sets thin enough that the
  // planner keeps forced-compact exchanges on the 1D executor.
  const graph::Dataset sparse_graph = small_dataset(7, 3.0);
  // On the stock profiles the auto planner routes these small graphs to
  // the replicated executor (launch-bound); with launch overheads cut
  // 1024x or more it runs every product 1D, or only one forward product
  // (4 inspector tasks per device: the forward grid's tiles only).
  struct Case {
    const char* label;
    sim::MachineProfile profile;
    const graph::Dataset& dataset;
    core::PartMode part;
    core::PlanMode plan;
    comm::CommMode comm;
    int inspects_per_device;
    std::uint64_t timeline_hash;
  };
  for (const Case& c :
       {Case{"1d/auto", sim::dgx_v100(), dense_graph, core::PartMode::kRandom,
             core::PlanMode::k1D, comm::CommMode::kAuto, 8,
             0xd437775c72d1b14bULL},
        Case{"auto/auto", sim::scale_profile(sim::dgx_v100(), 1024.0),
             dense_graph, core::PartMode::kRandom, core::PlanMode::kAuto,
             comm::CommMode::kAuto, 8, 0x49861b14ee1c6074ULL},
        Case{"auto/compact", sim::scale_profile(sim::dgx_v100(), 16384.0),
             sparse_graph, core::PartMode::kLocality, core::PlanMode::kAuto,
             comm::CommMode::kCompact, 8, 0x6b9d32bf86bf117fULL},
        Case{"auto/compact, one forward product",
             sim::scale_profile(sim::dgx_v100(), 1024.0), sparse_graph,
             core::PartMode::kLocality, core::PlanMode::kAuto,
             comm::CommMode::kCompact, 4, 0xb890b3da452d4d8dULL}}) {
    const std::string label = c.label;
    core::TrainConfig config = small_config();
    config.part_mode = c.part;
    config.comm_mode = c.comm;
    config.plan_mode = c.plan;
    config.pool_mode = mem::PoolMode::kOff;
    sim::Machine machine(c.profile, 4, sim::ExecutionMode::kReal);
    core::MgGcnTrainer trainer(machine, c.dataset, config);
    const auto count_inspects = [&] {
      std::map<std::pair<int, int>, int> counts;
      for (const sim::TraceRecord& rec : machine.trace().records()) {
        if (rec.kind == sim::TaskKind::kInspect) {
          ++counts[{rec.device, rec.stream}];
        }
      }
      return counts;
    };
    (void)trainer.train_epoch();
    const auto after_epoch0 = count_inspects();
    std::map<std::pair<int, int>, int> expected;
    for (int r = 0; r < 4 && c.inspects_per_device > 0; ++r) {
      expected[{r, 0}] = c.inspects_per_device;
    }
    EXPECT_EQ(after_epoch0, expected) << label;
    // Every task of epoch 0, in per-stream timeline order, with its
    // simulated begin and end bits: the inspector tasks sit where they
    // always did.
    std::vector<sim::TraceRecord> records = machine.trace().records();
    std::ranges::sort(records, [](const auto& x, const auto& y) {
      return std::tie(x.device, x.stream, x.t_begin, x.t_end, x.kind,
                      x.stage) < std::tie(y.device, y.stream, y.t_begin,
                                          y.t_end, y.kind, y.stage);
    });
    testing::Fnv1a timeline;
    for (const sim::TraceRecord& rec : records) {
      timeline.mix(rec.device);
      timeline.mix(rec.stream);
      timeline.mix(rec.kind);
      timeline.mix(rec.stage);
      timeline.mix(rec.t_begin);
      timeline.mix(rec.t_end);
    }
    EXPECT_EQ(timeline.value(), c.timeline_hash)
        << label << ": 0x" << std::hex << timeline.value();
    (void)trainer.train_epoch();
    EXPECT_EQ(count_inspects(), after_epoch0)
        << label << ": epoch 1 re-inspected tiles";
    // The charged flags live in the grid's shared plan cache, so a copy of
    // the forward grid (charged in every case) claims no tile again.
    const core::TileGrid copy = trainer.forward_planner().grid();
    int claimable = 0;
    for (int i = 0; i < copy.parts(); ++i) {
      for (int j = 0; j < copy.parts(); ++j) {
        claimable += copy.claim_inspect_charge(i, j) ? 1 : 0;
      }
    }
    EXPECT_EQ(claimable, 0) << label;
  }
}

}  // namespace
}  // namespace mggcn
