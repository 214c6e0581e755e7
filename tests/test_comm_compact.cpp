// End-to-end tests for the compacted (ghost-row) exchange: trainer losses
// must be bit-identical across MGGCN_COMM=dense|compact|auto — including
// under the hazard checker, schedule fuzzing, and elastic recovery — and
// the per-epoch communication-volume counters must be consistent.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "comm/comm_mode.hpp"
#include "core/elastic.hpp"
#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "scoped_env.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"

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

core::TrainConfig small_config(comm::CommMode mode) {
  core::TrainConfig config;
  config.hidden_dims = {16};
  config.seed = 3;
  config.comm_mode = mode;
  // These tests audit the 1D staged exchange specifically; pin the
  // strategy so the auto-planner cannot reroute the products (it picks
  // the replicated executor on graphs this small).
  config.plan_mode = core::PlanMode::k1D;
  return config;
}

std::vector<core::EpochStats> train_with_mode(const graph::Dataset& ds,
                                              int gpus, int epochs,
                                              comm::CommMode mode,
                                              bool hazard_check = false) {
  sim::Machine machine(sim::dgx_v100(), gpus, sim::ExecutionMode::kReal,
                       hazard_check);
  core::MgGcnTrainer trainer(machine, ds, small_config(mode));
  auto stats = trainer.train(epochs);
  machine.synchronize();
  EXPECT_EQ(machine.trace().hazard_count(), 0u);
  return stats;
}

TEST(CommCompact, TrainerLossesBitIdenticalAcrossModes) {
  const graph::Dataset ds = small_dataset();
  const int epochs = 5;
  for (const int gpus : {2, 4}) {
    const auto dense =
        train_with_mode(ds, gpus, epochs, comm::CommMode::kDense);
    const auto compact =
        train_with_mode(ds, gpus, epochs, comm::CommMode::kCompact);
    const auto automatic =
        train_with_mode(ds, gpus, epochs, comm::CommMode::kAuto);
    ASSERT_EQ(dense.size(), static_cast<std::size_t>(epochs));
    for (int e = 0; e < epochs; ++e) {
      const auto ee = static_cast<std::size_t>(e);
      // Bit-identical, not approximately equal.
      EXPECT_EQ(dense[ee].loss, compact[ee].loss)
          << gpus << " gpus, epoch " << e;
      EXPECT_EQ(dense[ee].loss, automatic[ee].loss)
          << gpus << " gpus, epoch " << e;
      EXPECT_EQ(dense[ee].train_accuracy, compact[ee].train_accuracy);
      EXPECT_EQ(dense[ee].train_accuracy, automatic[ee].train_accuracy);
    }
  }
}

TEST(CommCompact, EnvModeReachesDefaultConfiguredTrainer) {
  // MGGCN_COMM must flow through comm_mode() into TrainConfig's default so
  // the environment axis works without touching config code.
  ScopedEnv env("MGGCN_COMM", "compact");
  util::Knob<comm::CommMode>::Scoped scoped(comm::comm_mode_knob,
                                            comm::CommMode::kCompact);
  // Audit the 1D exchange.
  util::Knob<core::PlanMode>::Scoped plan(core::plan_mode_knob,
                                          core::PlanMode::k1D);
  const graph::Dataset ds = small_dataset();
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  core::MgGcnTrainer trainer(machine, ds, core::TrainConfig{});
  const auto stats = trainer.train_epoch();
  EXPECT_GT(stats.comm_compact_stages, 0);
  EXPECT_EQ(stats.comm_dense_stages, 0);
}

TEST(CommCompact, HazardFreeUnderCheckerAndSchedFuzz) {
  const graph::Dataset ds = small_dataset();
  const int epochs = 3;
  const auto base = train_with_mode(ds, 4, epochs, comm::CommMode::kDense);

  // Compact under the hazard checker.
  const auto checked = train_with_mode(ds, 4, epochs, comm::CommMode::kCompact,
                                       /*hazard_check=*/true);
  // Compact under the checker AND a perturbed host-thread schedule.
  ScopedEnv fuzz("MGGCN_SCHED_FUZZ", "1309");
  const auto fuzzed = train_with_mode(ds, 4, epochs, comm::CommMode::kCompact,
                                      /*hazard_check=*/true);
  for (int e = 0; e < epochs; ++e) {
    const auto ee = static_cast<std::size_t>(e);
    EXPECT_EQ(base[ee].loss, checked[ee].loss) << "epoch " << e;
    EXPECT_EQ(base[ee].loss, fuzzed[ee].loss) << "epoch " << e;
  }
}

TEST(CommCompact, VolumeCountersAreConsistent) {
  const graph::Dataset ds = small_dataset();
  const auto dense = train_with_mode(ds, 4, 2, comm::CommMode::kDense);
  const auto compact = train_with_mode(ds, 4, 2, comm::CommMode::kCompact);
  const auto automatic = train_with_mode(ds, 4, 2, comm::CommMode::kAuto);

  for (const auto& stats : dense) {
    EXPECT_GT(stats.comm_wire_bytes, 0u);
    EXPECT_EQ(stats.comm_bytes_saved, 0u);
    EXPECT_EQ(stats.comm_packs, 0u);
    EXPECT_EQ(stats.comm_compact_stages, 0);
    EXPECT_GT(stats.comm_dense_stages, 0);
  }
  for (const auto& stats : compact) {
    EXPECT_GT(stats.comm_wire_bytes, 0u);
    EXPECT_GT(stats.comm_packs, 0u);
    EXPECT_GT(stats.comm_compact_stages, 0);
    EXPECT_EQ(stats.comm_dense_stages, 0);
    // Compact can only shrink the wire relative to all-dense broadcasts.
    EXPECT_LE(stats.comm_wire_bytes,
              stats.comm_wire_bytes + stats.comm_bytes_saved);
  }
  // Auto's wire volume is bounded by the dense schedule's.
  for (std::size_t e = 0; e < automatic.size(); ++e) {
    EXPECT_LE(automatic[e].comm_wire_bytes, dense[e].comm_wire_bytes);
  }
}

TEST(CommCompact, ElasticCommRewindBitIdenticalUnderCompact) {
  // Transient-fault rewind-and-replay composes with the compacted exchange:
  // same losses as the fault-free compact run, same device count.
  const graph::Dataset ds = small_dataset();
  constexpr int kEpochs = 6;
  core::TrainConfig config = small_config(comm::CommMode::kCompact);
  config.permute = false;

  core::ElasticTrainer fault_free(sim::dgx_v100(), 3, ds, config, nullptr);
  const auto base = fault_free.train(kEpochs);

  auto plan = std::make_shared<sim::FaultPlan>(
      sim::FaultPlan::parse("flaky:12@3"));
  core::ElasticTrainer elastic(sim::dgx_v100(), 3, ds, config, plan);
  const auto stats = elastic.train(kEpochs);

  EXPECT_EQ(elastic.num_devices(), 3);
  EXPECT_EQ(elastic.recoveries().size(), 2u);
  for (std::size_t e = 0; e < base.size(); ++e) {
    EXPECT_EQ(base[e].loss, stats[e].loss) << "epoch " << e;
  }
}

TEST(CommCompact, ElasticRepartitionAfterDeviceLossStaysCleanUnderCompact) {
  // A permanent device failure repartitions onto P-1 devices; the compacted
  // exchange must re-inspect the new tiles and stay hazard-free.
  ScopedEnv check("MGGCN_HAZARD_CHECK", "1");
  const graph::Dataset ds = small_dataset();
  core::TrainConfig config = small_config(comm::CommMode::kCompact);
  auto plan =
      std::make_shared<sim::FaultPlan>(sim::FaultPlan::parse("kill:1@2"));

  core::ElasticTrainer trainer(sim::dgx_v100(), 4, ds, config, plan);
  const auto stats = trainer.train(5);
  EXPECT_EQ(stats.size(), 5u);
  EXPECT_EQ(trainer.num_devices(), 3);
  EXPECT_GE(trainer.recoveries().size(), 1u);
  ASSERT_NE(trainer.machine().hazard_checker(), nullptr);
  EXPECT_EQ(trainer.machine().trace().hazard_count(), 0u);
  // Post-recovery epochs still train (finite loss) on the compacted path.
  EXPECT_GT(stats.back().comm_compact_stages, 0);
}

}  // namespace
}  // namespace mggcn
