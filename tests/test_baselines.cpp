// Tests for the baseline implementations: configuration deltas, training
// behaviour, memory slopes (Fig. 12's mechanism), relative performance
// ordering (the evaluation's qualitative claims), and the DistGNN model.
#include <gtest/gtest.h>

#include "baselines/cagnet.hpp"
#include "baselines/dgl_like.hpp"
#include "comm/comm_mode.hpp"
#include "core/plan_mode.hpp"
#include "baselines/distgnn.hpp"
#include "core/reference.hpp"
#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "sim/machine.hpp"

namespace mggcn::baselines {
namespace {

graph::Dataset small_dataset() {
  graph::DatasetSpec spec = graph::arxiv();
  spec.n = 600;
  spec.feature_dim = 24;
  spec.num_classes = 6;
  spec.avg_degree = 10.0;
  graph::DatasetOptions options;
  options.seed = 4;
  options.feature_snr = 2.0;
  return graph::make_dataset(spec, options);
}

graph::Dataset phantom_dataset(double scale = 64.0) {
  graph::DatasetSpec spec = graph::arxiv();
  graph::DatasetOptions options;
  options.scale = scale;
  options.with_features = false;
  return graph::make_dataset(spec, options);
}

TEST(DglConfig, DisablesMgGcnOptimizations) {
  const core::TrainConfig c = dgl_like_config({});
  EXPECT_FALSE(c.permute);
  EXPECT_FALSE(c.overlap);
  EXPECT_FALSE(c.reuse_buffers);
  EXPECT_FALSE(c.skip_first_backward_spmm);
  EXPECT_TRUE(c.autograd_aggregation_reuse);
  EXPECT_GT(c.kernel_overhead_multiplier, 1.0);
  EXPECT_GT(c.spmm_traffic_factor, 1.0);
}

TEST(CagnetConfig, AggregateFirstNoOverlapOldNccl) {
  const core::TrainConfig c = cagnet_config({});
  EXPECT_FALSE(c.permute);
  EXPECT_FALSE(c.overlap);
  EXPECT_FALSE(c.reorder_gemm_spmm);
  EXPECT_TRUE(c.spmm_first_when_no_reorder);
  EXPECT_FALSE(c.reuse_buffers);
  EXPECT_LT(c.comm_efficiency, 1.0);
}

TEST(DglLikeTrainer, RequiresSingleDevice) {
  const graph::Dataset ds = small_dataset();
  sim::Machine machine(sim::dgx_v100(), 2, sim::ExecutionMode::kReal);
  EXPECT_THROW(DglLikeTrainer(machine, ds), InvalidArgumentError);
}

TEST(DglLikeTrainer, TrainsToSameAccuracyAsMgGcn) {
  // The paper validates MG-GCN by matching the DGL accuracy curve; here we
  // assert the converse on the substrate: both trainers learn the dataset.
  const graph::Dataset ds = small_dataset();
  core::TrainConfig base;
  base.hidden_dims = {16};
  base.seed = 5;

  sim::Machine m1(sim::dgx_v100(), 1, sim::ExecutionMode::kReal);
  DglLikeTrainer dgl(m1, ds, base);
  sim::Machine m2(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  core::MgGcnTrainer mggcn(m2, ds, base);

  double dgl_acc = 0.0, mggcn_acc = 0.0;
  for (int e = 0; e < 40; ++e) {
    dgl_acc = dgl.train_epoch().train_accuracy;
    mggcn_acc = mggcn.train_epoch().train_accuracy;
  }
  EXPECT_GT(dgl_acc, 0.6);
  EXPECT_GT(mggcn_acc, 0.6);
  EXPECT_NEAR(dgl_acc, mggcn_acc, 0.12);
}

TEST(CagnetTrainer, TrainsMultiDevice) {
  const graph::Dataset ds = small_dataset();
  core::TrainConfig base;
  base.hidden_dims = {16};
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  CagnetTrainer cagnet(machine, ds, base);
  const auto first = cagnet.train_epoch();
  core::EpochStats last;
  for (int e = 0; e < 30; ++e) last = cagnet.train_epoch();
  EXPECT_LT(last.loss, first.loss);
}

TEST(Baselines, MgGcnIsFastestOnTheSameWorkload) {
  // System-vs-system timing relationships are stated for the paper's dense
  // broadcast exchange and 1D staged pipeline; pin both so forced
  // MGGCN_COMM=compact / MGGCN_PLAN=15d runs (intentional pessimizations
  // on this workload) keep the premise.
  util::Knob<comm::CommMode>::Scoped dense_mode(comm::comm_mode_knob,
                                                comm::CommMode::kDense);
  util::Knob<core::PlanMode>::Scoped plan_1d(core::plan_mode_knob,
                                             core::PlanMode::k1D);
  // A big-enough replica that multi-GPU pays off (Cora-sized graphs do
  // not scale, as the paper notes).
  const graph::Dataset ds = phantom_dataset(/*scale=*/8.0);
  core::TrainConfig base = core::model_hidden512();

  auto epoch_time = [&](auto make_trainer, int gpus) {
    sim::Machine machine(sim::dgx_v100(), gpus,
                         sim::ExecutionMode::kPhantom);
    auto trainer = make_trainer(machine);
    trainer.train_epoch();
    return trainer.train_epoch().sim_seconds;
  };

  const double mggcn1 = epoch_time(
      [&](sim::Machine& m) { return core::MgGcnTrainer(m, ds, base); }, 1);
  const double dgl1 = epoch_time(
      [&](sim::Machine& m) {
        return core::MgGcnTrainer(m, ds, dgl_like_config(base));
      },
      1);
  const double mggcn8 = epoch_time(
      [&](sim::Machine& m) { return core::MgGcnTrainer(m, ds, base); }, 8);
  const double cagnet8 = epoch_time(
      [&](sim::Machine& m) {
        return core::MgGcnTrainer(m, ds, cagnet_config(base));
      },
      8);

  EXPECT_LT(mggcn1, dgl1);    // single-GPU win over DGL (Figs. 11/14)
  EXPECT_LT(mggcn8, cagnet8); // multi-GPU win over CAGNET (Fig. 11)
  EXPECT_LT(mggcn8, mggcn1);  // and MG-GCN itself scales
}

TEST(Baselines, NoReuseTriplesPerLayerMemorySlope) {
  const graph::Dataset ds = phantom_dataset();
  auto peak_for = [&](bool reuse, int layers) {
    core::TrainConfig config;
    config.hidden_dims.assign(static_cast<std::size_t>(layers - 1), 64);
    config.reuse_buffers = reuse;
    sim::Machine machine(sim::dgx_v100(), 1, sim::ExecutionMode::kPhantom);
    core::MgGcnTrainer trainer(machine, ds, config);
    return static_cast<double>(trainer.peak_memory_bytes());
  };

  const double slope_reuse = (peak_for(true, 24) - peak_for(true, 4)) / 20.0;
  const double slope_eager =
      (peak_for(false, 24) - peak_for(false, 4)) / 20.0;
  EXPECT_NEAR(slope_eager / slope_reuse, 3.0, 0.25);
}

TEST(DistGnnModel, SingleSocketInReportedBand) {
  DistGnnModel model;
  const double products = model.epoch_seconds(
      graph::products(), {104, 256, 256, 47}, 1);
  EXPECT_GT(products, 11.0 / 3.0);
  EXPECT_LT(products, 11.0 * 3.0);
  const double proteins = model.epoch_seconds(
      graph::proteins(), {128, 256, 256, 256}, 1);
  EXPECT_GT(proteins, 100.0 / 3.0);
  EXPECT_LT(proteins, 100.0 * 3.0);
}

TEST(DistGnnModel, ScalingHasACommunicationWall) {
  DistGnnModel model;
  const std::vector<std::int64_t> dims = {602, 16, 41};
  const double s1 = model.epoch_seconds(graph::reddit(), dims, 1);
  const double s16 = model.epoch_seconds(graph::reddit(), dims, 16);
  const double s128 = model.epoch_seconds(graph::reddit(), dims, 128);
  // Reddit at 16 sockets is barely faster than 1 (the paper's Table 2
  // shows 0.60 s -> 0.61 s), and far-away socket counts do not help.
  EXPECT_GT(s16, 0.4 * s1);
  EXPECT_GT(s128, 0.5 * s16);
}

TEST(DistGnnModel, ReplicationGrowsSublinearly) {
  EXPECT_DOUBLE_EQ(DistGnnModel::replication_factor(1), 1.0);
  const double r4 = DistGnnModel::replication_factor(4);
  const double r64 = DistGnnModel::replication_factor(64);
  EXPECT_GT(r4, 1.0);
  EXPECT_GT(r64, r4);
  EXPECT_LT(r64, 64.0 / 4.0 * r4);  // sublinear
}

}  // namespace
}  // namespace mggcn::baselines
