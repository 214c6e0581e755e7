// Deeper trainer coverage: every optimization-flag combination against the
// serial reference, multi-layer models, permutation invariance of the math,
// logits gathering, OOM surfacing, and simulated-time properties.
#include <gtest/gtest.h>

#include <tuple>

#include "comm/comm_mode.hpp"
#include "core/part_mode.hpp"
#include "core/plan_mode.hpp"
#include "core/reference.hpp"
#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "sim/machine.hpp"

namespace mggcn::core {
namespace {

graph::Dataset tiny_dataset(std::int64_t feature_dim = 20,
                            std::int64_t classes = 4) {
  graph::DatasetSpec spec = graph::arxiv();
  spec.n = 300;
  spec.feature_dim = feature_dim;
  spec.num_classes = classes;
  spec.avg_degree = 9.0;
  graph::DatasetOptions options;
  options.seed = 21;
  return graph::make_dataset(spec, options);
}

// (gpus, reorder, skip, overlap, hidden dims)
using VariantParam =
    std::tuple<int, bool, bool, bool, std::vector<std::int64_t>>;

class TrainerVariants : public ::testing::TestWithParam<VariantParam> {};

TEST_P(TrainerVariants, MatchesReferenceLossTrajectory) {
  const auto& [gpus, reorder, skip, overlap, hidden] = GetParam();
  const graph::Dataset ds = tiny_dataset();

  TrainConfig config;
  config.hidden_dims = hidden;
  config.permute = false;  // exact comparability with the reference
  config.reorder_gemm_spmm = reorder;
  config.skip_first_backward_spmm = skip;
  config.overlap = overlap;
  config.seed = 13;

  sim::Machine machine(sim::dgx_v100(), gpus, sim::ExecutionMode::kReal);
  MgGcnTrainer trainer(machine, ds, config);
  ReferenceTrainer reference(ds, config);

  for (int epoch = 0; epoch < 4; ++epoch) {
    const auto dist = trainer.train_epoch();
    const auto ref = reference.train_epoch();
    ASSERT_NEAR(dist.loss, ref.loss, 2e-3 * std::max(1.0, ref.loss))
        << "epoch " << epoch;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Flags, TrainerVariants,
    ::testing::Values(
        // 2-layer, narrow->wide (exercises the order switch).
        VariantParam{1, true, true, true, {48}},
        VariantParam{4, true, true, true, {48}},
        VariantParam{4, false, true, true, {48}},
        VariantParam{4, true, false, true, {48}},
        VariantParam{4, true, true, false, {48}},
        VariantParam{3, false, false, false, {48}},
        // 3-layer model (the DistGNN comparison shape).
        VariantParam{4, true, true, true, {32, 32}},
        VariantParam{2, false, false, true, {32, 32}},
        // Single-layer edge case.
        VariantParam{4, true, true, true, {}},
        // 8 devices on a small graph.
        VariantParam{8, true, true, true, {16}}));

TEST(TrainerMath, BalancedNnzPartitionMatchesReference) {
  // The alternative cut-point strategy changes only the schedule, never
  // the math.
  const graph::Dataset ds = tiny_dataset();
  TrainConfig config;
  config.hidden_dims = {24};
  config.permute = false;
  config.part_mode = PartMode::kBalanced;
  config.seed = 23;

  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  MgGcnTrainer trainer(machine, ds, config);
  ReferenceTrainer reference(ds, config);
  for (int epoch = 0; epoch < 3; ++epoch) {
    const auto dist = trainer.train_epoch();
    const auto ref = reference.train_epoch();
    ASSERT_NEAR(dist.loss, ref.loss, 2e-3 * std::max(1.0, ref.loss));
  }
}

TEST(TrainerMath, PermutationDoesNotChangeTraining) {
  // §5.2's permutation relabels vertices; the training math is identical,
  // so losses must match the unpermuted run to fp-reduction tolerance.
  const graph::Dataset ds = tiny_dataset();
  TrainConfig config;
  config.hidden_dims = {24};
  config.seed = 31;

  TrainConfig permuted = config;
  permuted.permute = true;
  TrainConfig identity = config;
  identity.permute = false;

  sim::Machine m1(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  sim::Machine m2(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  MgGcnTrainer a(m1, ds, permuted);
  MgGcnTrainer b(m2, ds, identity);
  for (int epoch = 0; epoch < 3; ++epoch) {
    const auto sa = a.train_epoch();
    const auto sb = b.train_epoch();
    ASSERT_NEAR(sa.loss, sb.loss, 5e-3 * std::max(1.0, sb.loss));
    ASSERT_EQ(sa.train_accuracy, sb.train_accuracy);
  }
}

TEST(TrainerMath, GatherLogitsMatchesReferenceForward) {
  const graph::Dataset ds = tiny_dataset();
  TrainConfig config;
  config.hidden_dims = {16};
  config.seed = 17;

  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  MgGcnTrainer trainer(machine, ds, config);
  trainer.run_forward();
  const dense::HostMatrix logits = trainer.gather_logits();

  ReferenceTrainer reference(ds, config);
  const dense::HostMatrix expected = reference.forward();
  EXPECT_LT(dense::max_abs_diff(logits.view(), expected.view()), 1e-4);
}

TEST(TrainerMath, SkipApproximationChangesGradientsOnlySlightly) {
  // §4.4's skip replaces the first-layer backward SpMM by identity scaling;
  // the paper argues it is benign. Verify the loss trajectories stay close
  // (but are allowed to differ — it IS an approximation).
  const graph::Dataset ds = tiny_dataset();
  TrainConfig with_skip;
  with_skip.hidden_dims = {24};
  with_skip.permute = false;
  with_skip.seed = 19;
  TrainConfig without = with_skip;
  without.skip_first_backward_spmm = false;

  sim::Machine m1(sim::dgx_v100(), 2, sim::ExecutionMode::kReal);
  sim::Machine m2(sim::dgx_v100(), 2, sim::ExecutionMode::kReal);
  MgGcnTrainer a(m1, ds, with_skip);
  MgGcnTrainer b(m2, ds, without);
  double loss_a = 0.0, loss_b = 0.0;
  for (int epoch = 0; epoch < 15; ++epoch) {
    loss_a = a.train_epoch().loss;
    loss_b = b.train_epoch().loss;
  }
  EXPECT_LT(loss_a, 1.3 * loss_b);
  EXPECT_GT(loss_a, 0.5 * loss_b);
}

TEST(TrainerSim, MoreDevicesReduceEpochTimeOnLargeGraphs) {
  // The device-scaling curve is stated for the paper's dense broadcast
  // exchange; pin it so a forced MGGCN_COMM=compact run (an intentional
  // pessimization on dense graphs) keeps the premise. Likewise the 1D
  // staged pipeline: a forced MGGCN_PLAN=15d run serializes two phases on
  // half the ranks each, which is not the scaling path under study. And
  // the §5.2 random permutation: a forced MGGCN_PART=locality run trades
  // up to the 1.15 slack of nnz balance for a cut the dense broadcast
  // cannot monetize, bending exactly the curve asserted here.
  util::Knob<comm::CommMode>::Scoped dense_mode(comm::comm_mode_knob,
                                                comm::CommMode::kDense);
  util::Knob<core::PlanMode>::Scoped plan_1d(core::plan_mode_knob,
                                             core::PlanMode::k1D);
  util::Knob<core::PartMode>::Scoped part_random(core::part_mode_knob,
                                                 core::PartMode::kRandom);
  graph::DatasetSpec spec = graph::arxiv();
  graph::DatasetOptions options;
  options.scale = 8.0;
  options.with_features = false;
  const graph::Dataset ds = graph::make_dataset(spec, options);

  // Near-monotone scaling (2 GPUs on sparse Arxiv is roughly break-even,
  // matching the paper's Fig. 10), with a clear win by 8 GPUs.
  std::vector<double> times;
  for (const int gpus : {1, 2, 4, 8}) {
    sim::Machine machine(sim::dgx_v100(), gpus,
                         sim::ExecutionMode::kPhantom);
    MgGcnTrainer trainer(machine, ds, model_hidden512());
    trainer.train_epoch();
    times.push_back(trainer.train_epoch().sim_seconds);
  }
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_LT(times[i], times[i - 1] * 1.05) << "step " << i;
  }
  EXPECT_LT(times.back(), times.front() / 1.5);
}

TEST(TrainerSim, OverlapNeverSlowsTheEpoch) {
  graph::DatasetSpec spec = graph::products();
  graph::DatasetOptions options;
  options.scale = 256.0;
  options.with_features = false;
  const graph::Dataset ds = graph::make_dataset(spec, options);

  for (const int gpus : {2, 4, 8}) {
    double with = 0.0, without = 0.0;
    for (const bool overlap : {true, false}) {
      TrainConfig config = model_hidden512();
      config.overlap = overlap;
      // Overlap is a property of the 1D staged pipeline; the auto planner
      // may pick the replicated executor (which ignores overlap but still
      // pays the config's comm scaling), breaking the comparison.
      config.plan_mode = PlanMode::k1D;
      sim::Machine machine(sim::dgx_v100(), gpus,
                           sim::ExecutionMode::kPhantom);
      MgGcnTrainer trainer(machine, ds, config);
      trainer.train_epoch();
      (overlap ? with : without) = trainer.train_epoch().sim_seconds;
    }
    EXPECT_LE(with, without * 1.001) << gpus << " gpus";
  }
}

TEST(TrainerSim, EpochTimeIsDeterministic) {
  graph::DatasetSpec spec = graph::arxiv();
  graph::DatasetOptions options;
  options.scale = 32.0;
  options.with_features = false;
  const graph::Dataset ds = graph::make_dataset(spec, options);

  std::vector<double> times;
  for (int run = 0; run < 3; ++run) {
    sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kPhantom);
    MgGcnTrainer trainer(machine, ds, model_hidden512());
    trainer.train_epoch();
    times.push_back(trainer.train_epoch().sim_seconds);
  }
  EXPECT_DOUBLE_EQ(times[0], times[1]);
  EXPECT_DOUBLE_EQ(times[1], times[2]);
}

TEST(TrainerMemory, OomSurfacesAsException) {
  graph::DatasetSpec spec = graph::arxiv();
  graph::DatasetOptions options;
  options.scale = 8.0;
  options.with_features = false;
  const graph::Dataset ds = graph::make_dataset(spec, options);

  sim::MachineProfile tiny = sim::dgx_v100();
  tiny.device.memory_bytes = 8 << 20;  // 8 MiB "GPU"
  sim::Machine machine(tiny, 2, sim::ExecutionMode::kPhantom);
  EXPECT_THROW(MgGcnTrainer(machine, ds, model_hidden512()),
               OutOfMemoryError);
}

TEST(TrainerMemory, BuffersFollowTheLPlus3Scheme) {
  // Peak memory must grow by exactly one n_r x d buffer per extra layer
  // (plus the layer's weight state) — the §4.2 claim.
  graph::DatasetSpec spec = graph::arxiv();
  spec.feature_dim = 64;
  spec.num_classes = 64;
  graph::DatasetOptions options;
  options.scale = 16.0;
  options.with_features = false;
  const graph::Dataset ds = graph::make_dataset(spec, options);

  auto peak = [&](int layers) {
    TrainConfig config;
    config.hidden_dims.assign(static_cast<std::size_t>(layers - 1), 64);
    sim::Machine machine(sim::dgx_v100(), 1, sim::ExecutionMode::kPhantom);
    MgGcnTrainer trainer(machine, ds, config);
    return static_cast<double>(trainer.peak_memory_bytes());
  };

  const double per_layer_buffer = static_cast<double>(ds.n()) * 64 * 4;
  const double weight_state = 4.0 * 64 * 64 * 4;
  const double slope = (peak(20) - peak(10)) / 10.0;
  EXPECT_NEAR(slope, per_layer_buffer + weight_state,
              0.02 * per_layer_buffer);
}

TEST(TrainerMetrics, BreakdownCoversAllOperationKinds) {
  const graph::Dataset ds = tiny_dataset();
  sim::Machine machine(sim::dgx_v100(), 2, sim::ExecutionMode::kReal);
  TrainConfig config;
  config.hidden_dims = {16};
  MgGcnTrainer trainer(machine, ds, config);
  const EpochStats stats = trainer.train_epoch();
  for (const auto kind :
       {sim::TaskKind::kSpMM, sim::TaskKind::kGeMM, sim::TaskKind::kComm,
        sim::TaskKind::kActivation, sim::TaskKind::kLoss,
        sim::TaskKind::kOptimizer}) {
    ASSERT_TRUE(stats.busy_by_kind.count(kind))
        << sim::task_kind_name(kind);
    EXPECT_GT(stats.busy_by_kind.at(kind), 0.0);
  }
}

TEST(TrainerConfig, ReplicatedStateBytes) {
  EXPECT_EQ(replicated_state_bytes({10, 20, 5}),
            4u * (10 * 20 + 20 * 5) * 4u);
}

}  // namespace
}  // namespace mggcn::core
