// Planner parity suite: trainer losses must be bit-identical across
// MGGCN_PLAN=1d|15d|replicated|auto — including under the hazard checker,
// schedule fuzzing, and elastic recovery — auto's steady-state epoch must
// not exceed the best fixed strategy's, and the plan_* decision counters
// must route/fall back as documented; the pricing surface itself is
// pinned by hash.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "core/elastic.hpp"
#include "core/plan_mode.hpp"
#include "core/planner.hpp"
#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "scoped_env.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"
#include "stats_hash.hpp"
#include "util/rng.hpp"

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

core::TrainConfig small_config(core::PlanMode mode, bool overlap = true) {
  core::TrainConfig config;
  config.hidden_dims = {16};
  config.seed = 3;
  config.overlap = overlap;
  config.plan_mode = mode;
  return config;
}

std::vector<core::EpochStats> train_with_plan(const graph::Dataset& ds,
                                              int gpus, int epochs,
                                              core::PlanMode mode,
                                              bool overlap = true,
                                              bool hazard_check = true) {
  sim::Machine machine(sim::dgx_v100(), gpus, sim::ExecutionMode::kReal,
                       hazard_check);
  core::MgGcnTrainer trainer(machine, ds, small_config(mode, overlap));
  auto stats = trainer.train(epochs);
  machine.synchronize();
  EXPECT_EQ(machine.trace().hazard_count(), 0u);
  return stats;
}

constexpr core::PlanMode kAllModes[] = {
    core::PlanMode::k1D, core::PlanMode::k15D, core::PlanMode::kReplicated,
    core::PlanMode::kAuto};

TEST(Planner, TrainerLossesBitIdenticalAcrossPlanModes) {
  const graph::Dataset ds = small_dataset();
  const int epochs = 5;
  // gpus=4 makes the chained 1.5D schedule feasible (even, >= 4); both
  // overlap settings, since only the 1D executor pipelines broadcasts.
  for (const bool overlap : {true, false}) {
    const auto base = train_with_plan(ds, 4, epochs, core::PlanMode::k1D,
                                      overlap);
    ASSERT_EQ(base.size(), static_cast<std::size_t>(epochs));
    for (const core::PlanMode mode :
         {core::PlanMode::k15D, core::PlanMode::kReplicated,
          core::PlanMode::kAuto}) {
      const auto other = train_with_plan(ds, 4, epochs, mode, overlap);
      for (int e = 0; e < epochs; ++e) {
        const auto ee = static_cast<std::size_t>(e);
        // Bit-identical, not approximately equal: every executor
        // accumulates in ascending stage order.
        EXPECT_EQ(base[ee].loss, other[ee].loss)
            << core::plan_mode_name(mode) << ", overlap " << overlap
            << ", epoch " << e;
        EXPECT_EQ(base[ee].train_accuracy, other[ee].train_accuracy)
            << core::plan_mode_name(mode) << ", overlap " << overlap
            << ", epoch " << e;
      }
    }
  }
}

TEST(Planner, AutoNeverExceedsBestFixedStrategy) {
  // The planner invariant: auto's argmin is taken over the very cost
  // models the simulated clock accumulates, so its steady-state epoch
  // (the second one; buffers and plans warm) must not exceed the best
  // fixed strategy's. 2% headroom covers schedule second-order effects
  // the per-product estimates do not see.
  const graph::Dataset ds = small_dataset();
  for (const int gpus : {2, 4}) {
    double best_fixed = 0.0;
    double auto_seconds = 0.0;
    for (const core::PlanMode mode : kAllModes) {
      sim::Machine machine(sim::dgx_v100(), gpus, sim::ExecutionMode::kReal);
      core::MgGcnTrainer trainer(machine, ds, small_config(mode));
      trainer.train_epoch();
      const double seconds = trainer.train_epoch().sim_seconds;
      if (mode == core::PlanMode::kAuto) {
        auto_seconds = seconds;
      } else {
        best_fixed =
            best_fixed == 0.0 ? seconds : std::min(best_fixed, seconds);
      }
    }
    EXPECT_LE(auto_seconds, best_fixed * 1.02) << gpus << " gpus";
  }
}

TEST(Planner, ForcedModesRouteAndCountProducts) {
  const graph::Dataset ds = small_dataset();
  // 2-layer model: 2 forward products + 1 backward (first backward SpMM
  // skipped), all routed to the forced strategy when it is feasible.
  {
    const auto stats = train_with_plan(ds, 4, 2, core::PlanMode::k1D);
    for (const auto& s : stats) {
      EXPECT_EQ(s.plan_products_1d, 3);
      EXPECT_EQ(s.plan_products_15d, 0);
      EXPECT_EQ(s.plan_products_replicated, 0);
      EXPECT_EQ(s.plan_fallbacks, 0);
    }
  }
  {
    const auto stats = train_with_plan(ds, 4, 2, core::PlanMode::k15D);
    for (const auto& s : stats) {
      EXPECT_EQ(s.plan_products_15d, 3);
      EXPECT_EQ(s.plan_fallbacks, 0);
    }
  }
  {
    const auto stats = train_with_plan(ds, 4, 2, core::PlanMode::kReplicated);
    for (const auto& s : stats) {
      EXPECT_EQ(s.plan_products_replicated, 3);
      EXPECT_EQ(s.plan_fallbacks, 0);
    }
  }
  // Odd device count: the chained schedule is infeasible, so a forced 15d
  // run falls back to 1d and says so in the counters.
  {
    const auto stats = train_with_plan(ds, 3, 2, core::PlanMode::k15D);
    for (const auto& s : stats) {
      EXPECT_EQ(s.plan_products_1d, 3);
      EXPECT_EQ(s.plan_products_15d, 0);
      EXPECT_GT(s.plan_fallbacks, 0);
    }
  }
}

TEST(Planner, PriceChoiceIsTheArgmin) {
  // The Estimate the planner exposes must be internally consistent: the
  // reported choice is the cheapest feasible strategy at that width.
  const graph::Dataset ds = small_dataset();
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  core::MgGcnTrainer trainer(machine, ds,
                             small_config(core::PlanMode::kAuto));
  const core::Planner& planner = trainer.forward_planner();
  for (const std::int64_t d : {8, 64, 512}) {
    for (const bool overlap : {true, false}) {
      const auto est = planner.price(d, overlap);
      const double best = std::min(
          {est.seconds_1d, est.seconds_15d, est.seconds_replicated});
      double chosen = est.seconds_1d;
      if (est.choice == core::PlanMode::k15D) chosen = est.seconds_15d;
      if (est.choice == core::PlanMode::kReplicated) {
        chosen = est.seconds_replicated;
      }
      EXPECT_EQ(chosen, best) << "d=" << d << " overlap=" << overlap;
      EXPECT_GT(best, 0.0);
    }
  }
}

TEST(Planner, EstimatesArePinned) {
  // price() is the whole decision surface: FNV-1a over the bits of every
  // Estimate field pins it across widths (including an odd one), overlap,
  // the three design points' scaling knobs (MG-GCN; DGL-like traffic 1.45
  // and launches x20; CAGNET traffic 1.3, launches x8 and slower
  // collectives), every exchange mode, and three fleets: the DGX-1 cube
  // mesh at 4 and 8 devices and a two-node A100 cluster, where the 1.5D
  // pairs cross the NIC and compacted stages aggregate per node.
  util::Rng rng(13);
  const graph::BterParams params{.n = 1536, .avg_degree = 6.0,
                                 .degree_sigma = 1.0, .clustering = 0.6};
  const sparse::Csr op =
      sparse::Csr::from_coo(graph::bter_like(params, rng).edges)
          .normalize_gcn()
          .transpose();
  struct Scaling {
    double duration_scale, compute_bandwidth_scale, traffic, launch;
  };
  constexpr Scaling kScalings[] = {{1.1, 5.0 / 6.0, 1.0, 1.0},
                                   {1.0, 1.0, 1.45, 20.0},
                                   {1.1 / 0.7, 1.0, 1.3, 8.0}};
  testing::Fnv1a h;
  for (const auto& [profile, gpus] :
       {std::pair{sim::dgx_v100(), 4}, std::pair{sim::dgx_v100(), 8},
        std::pair{sim::dgx_a100_cluster(2), 16}}) {
    for (const comm::CommMode mode :
         {comm::CommMode::kDense, comm::CommMode::kCompact,
          comm::CommMode::kAuto}) {
      for (const Scaling& s : kScalings) {
        sim::Machine machine(profile, gpus, sim::ExecutionMode::kPhantom);
        comm::Communicator comm(
            machine, comm::CommOptions{.duration_scale = s.duration_scale});
        const core::Planner planner(
            machine, comm,
            core::make_tile_grid(
                op, core::PartitionVector::uniform(op.rows(), gpus)),
            core::PlanMode::kAuto, mode);
        for (const std::int64_t d : {8, 47, 64, 256, 512}) {
          for (const bool overlap : {false, true}) {
            const core::Planner::Estimate est = planner.price(
                d, overlap, overlap ? s.compute_bandwidth_scale : 1.0,
                s.traffic, s.launch);
            h.mix(est.seconds_1d);
            h.mix(est.seconds_15d);
            h.mix(est.seconds_replicated);
            h.mix(est.choice);
          }
        }
      }
    }
  }
  EXPECT_EQ(h.value(), 0xfa17054039e0e622ULL) << "0x" << std::hex << h.value();
}

TEST(Planner, HazardFreeUnderCheckerAndSchedFuzz) {
  const graph::Dataset ds = small_dataset();
  const int epochs = 3;
  const auto base = train_with_plan(ds, 4, epochs, core::PlanMode::k1D);

  // Auto under the hazard checker (train_with_plan asserts zero hazards).
  const auto checked = train_with_plan(ds, 4, epochs, core::PlanMode::kAuto,
                                       /*overlap=*/true,
                                       /*hazard_check=*/true);
  // Auto under the checker AND a perturbed host-thread schedule.
  ScopedEnv fuzz("MGGCN_SCHED_FUZZ", "1309");
  const auto fuzzed = train_with_plan(ds, 4, epochs, core::PlanMode::kAuto,
                                      /*overlap=*/true,
                                      /*hazard_check=*/true);
  for (int e = 0; e < epochs; ++e) {
    const auto ee = static_cast<std::size_t>(e);
    EXPECT_EQ(base[ee].loss, checked[ee].loss) << "epoch " << e;
    EXPECT_EQ(base[ee].loss, fuzzed[ee].loss) << "epoch " << e;
  }
}

TEST(Planner, ScopedPlanKnobReachesDefaultConfiguredTrainer) {
  // MGGCN_PLAN must flow through plan_mode() into TrainConfig's default so
  // the environment axis works without touching config code.
  ScopedEnv env("MGGCN_PLAN", "replicated");
  util::Knob<core::PlanMode>::Scoped scoped(core::plan_mode_knob,
                                            core::PlanMode::kReplicated);
  const graph::Dataset ds = small_dataset();
  sim::Machine machine(sim::dgx_v100(), 4, sim::ExecutionMode::kReal);
  core::MgGcnTrainer trainer(machine, ds, core::TrainConfig{});
  const auto stats = trainer.train_epoch();
  EXPECT_GT(stats.plan_products_replicated, 0);
  EXPECT_EQ(stats.plan_products_1d, 0);
  EXPECT_EQ(stats.plan_products_15d, 0);
}

TEST(Planner, ElasticRecoveryReplansOntoFewerDevices) {
  // A permanent device failure repartitions 4 -> 3 devices; the forced
  // 15d strategy becomes infeasible on the odd count, so the rebuilt
  // planner must fall back to 1d (counted as fallbacks) and training must
  // continue hazard-free.
  ScopedEnv check("MGGCN_HAZARD_CHECK", "1");
  const graph::Dataset ds = small_dataset();
  core::TrainConfig config = small_config(core::PlanMode::k15D);
  auto plan =
      std::make_shared<sim::FaultPlan>(sim::FaultPlan::parse("kill:1@2"));

  core::ElasticTrainer trainer(sim::dgx_v100(), 4, ds, config, plan);
  const auto stats = trainer.train(5);
  ASSERT_EQ(stats.size(), 5u);
  EXPECT_EQ(trainer.num_devices(), 3);
  EXPECT_GE(trainer.recoveries().size(), 1u);
  ASSERT_NE(trainer.machine().hazard_checker(), nullptr);
  EXPECT_EQ(trainer.machine().trace().hazard_count(), 0u);
  // Pre-recovery epochs route to the chained schedule; post-recovery ones
  // fall back to the 1D pipeline on the odd device count.
  EXPECT_GT(stats.front().plan_products_15d, 0);
  EXPECT_EQ(stats.back().plan_products_15d, 0);
  EXPECT_GT(stats.back().plan_products_1d, 0);
  EXPECT_GT(stats.back().plan_fallbacks, 0);
}

}  // namespace
}  // namespace mggcn
