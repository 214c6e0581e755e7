// Checkpoint tests: file round-trip and exact training resumption.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <filesystem>
#include <iterator>
#include <memory>

#include "core/checkpoint.hpp"
#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "sim/fault.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"

namespace mggcn::core {
namespace {

graph::Dataset tiny_dataset() {
  graph::DatasetSpec spec = graph::arxiv();
  spec.n = 250;
  spec.feature_dim = 18;
  spec.num_classes = 4;
  spec.avg_degree = 8.0;
  graph::DatasetOptions options;
  options.seed = 8;
  return graph::make_dataset(spec, options);
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Checkpoint, FileRoundTrip) {
  util::Rng rng(3);
  Checkpoint original;
  original.adam_step = 42;
  for (const auto& [rows, cols] : {std::pair{4L, 6L}, std::pair{6L, 2L}}) {
    dense::HostMatrix w(rows, cols), m(rows, cols), v(rows, cols);
    w.init_gaussian(rng);
    m.init_gaussian(rng);
    v.init_gaussian(rng);
    original.weights.push_back(std::move(w));
    original.adam_m.push_back(std::move(m));
    original.adam_v.push_back(std::move(v));
  }

  const std::string path = temp_path("mggcn_test_ckpt.bin");
  save_checkpoint(original, path);
  const Checkpoint loaded = load_checkpoint(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.adam_step, 42);
  ASSERT_EQ(loaded.num_layers(), 2u);
  for (std::size_t l = 0; l < 2; ++l) {
    EXPECT_EQ(dense::max_abs_diff(loaded.weights[l].view(),
                                  original.weights[l].view()),
              0.0);
    EXPECT_EQ(dense::max_abs_diff(loaded.adam_m[l].view(),
                                  original.adam_m[l].view()),
              0.0);
    EXPECT_EQ(dense::max_abs_diff(loaded.adam_v[l].view(),
                                  original.adam_v[l].view()),
              0.0);
  }
}

std::string read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), {}};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

TEST(Checkpoint, RejectsCorruptFile) {
  const std::string path = temp_path("mggcn_test_ckpt_bad.bin");
  write_bytes(path, "garbage");
  EXPECT_THROW((void)load_checkpoint(path), InvalidArgumentError);

  Checkpoint original;
  original.adam_step = 7;
  for (const auto& [rows, cols] : {std::pair{4L, 6L}, std::pair{6L, 2L}}) {
    original.weights.emplace_back(rows, cols);
    original.adam_m.emplace_back(rows, cols);
    original.adam_v.emplace_back(rows, cols);
  }
  save_checkpoint(original, path);
  const std::string good = read_bytes(path);

  for (std::size_t length = 0; length < good.size(); ++length) {
    write_bytes(path, good.substr(0, length));
    EXPECT_THROW((void)load_checkpoint(path), InvalidArgumentError)
        << "truncated to " << length << " bytes";
  }

  // magic[8] | version u32 | adam_step i32 | layers u32, then per layer
  // rows i64 | cols i64 | W, m, v f32[rows * cols].
  constexpr std::size_t kStep = 12;
  std::vector<std::size_t> header;
  for (std::size_t i = 0; i < 20; ++i) header.push_back(i);
  std::size_t layer = 20;
  for (const auto& w : original.weights) {
    for (std::size_t i = 0; i < 16; ++i) header.push_back(layer + i);
    layer += 16 + 3 * static_cast<std::size_t>(w.size()) * sizeof(float);
  }
  for (const std::size_t i : header) {
    std::string bad = good;
    bad[i] = static_cast<char>(~bad[i]);
    write_bytes(path, bad);
    if (i >= kStep && i < kStep + 3) {
      // The step count has no redundancy: flipping a low byte gives
      // another non-negative step, which is a valid file.
      EXPECT_NE(load_checkpoint(path).adam_step, original.adam_step);
      continue;
    }
    EXPECT_THROW((void)load_checkpoint(path), InvalidArgumentError)
        << "header byte " << i << " flipped";
  }
  write_bytes(path, good + '\0');
  EXPECT_THROW((void)load_checkpoint(path), InvalidArgumentError);
  std::remove(path.c_str());
}

TEST(Checkpoint, ResumedTrainingMatchesUninterruptedRun) {
  const graph::Dataset ds = tiny_dataset();
  TrainConfig config;
  config.hidden_dims = {12};
  config.permute = false;
  config.seed = 9;

  // Uninterrupted: 10 epochs straight.
  sim::Machine m1(sim::dgx_v100(), 2, sim::ExecutionMode::kReal);
  MgGcnTrainer straight(m1, ds, config);
  std::vector<double> straight_losses;
  for (int e = 0; e < 10; ++e) {
    straight_losses.push_back(straight.train_epoch().loss);
  }

  // Interrupted: 5 epochs, snapshot, restore into a FRESH trainer, 5 more.
  const std::string path = temp_path("mggcn_test_resume.bin");
  {
    sim::Machine m2(sim::dgx_v100(), 2, sim::ExecutionMode::kReal);
    MgGcnTrainer first_half(m2, ds, config);
    for (int e = 0; e < 5; ++e) first_half.train_epoch();
    save_checkpoint(first_half.checkpoint(), path);
  }
  sim::Machine m3(sim::dgx_v100(), 2, sim::ExecutionMode::kReal);
  MgGcnTrainer second_half(m3, ds, config);
  second_half.restore(load_checkpoint(path));
  std::remove(path.c_str());

  for (int e = 5; e < 10; ++e) {
    const double resumed = second_half.train_epoch().loss;
    ASSERT_NEAR(resumed, straight_losses[static_cast<std::size_t>(e)],
                1e-3 * std::max(1.0, straight_losses[e]))
        << "epoch " << e;
  }
}

TEST(Checkpoint, MidEpochFaultRoundTrip) {
  // The elastic-recovery disk path: a checkpoint is written, the process
  // "dies" mid-epoch when a device fails, and a fresh process (machine +
  // trainer) resumes from the file bit-identically to an undisturbed run.
  const graph::Dataset ds = tiny_dataset();
  TrainConfig config;
  config.hidden_dims = {12};
  config.permute = false;
  config.seed = 9;

  sim::Machine reference(sim::dgx_v100(), 2, sim::ExecutionMode::kReal);
  MgGcnTrainer straight(reference, ds, config);
  std::vector<double> straight_losses;
  for (int e = 0; e < 8; ++e) {
    straight_losses.push_back(straight.train_epoch().loss);
  }

  const std::string path = temp_path("mggcn_test_midfault.bin");
  {
    sim::Machine doomed(sim::dgx_v100(), 2, sim::ExecutionMode::kReal);
    doomed.set_fault_plan(std::make_shared<sim::FaultPlan>(
        sim::FaultPlan::parse("kill:1@4")));
    MgGcnTrainer victim(doomed, ds, config);
    for (int e = 0; e < 4; ++e) victim.train_epoch();
    save_checkpoint(victim.checkpoint(), path);
    EXPECT_THROW(victim.train_epoch(), DeviceLostError);
    doomed.synchronize();
    // Scope exit destroys machine and trainer: the "process" is gone.
  }

  sim::Machine fresh(sim::dgx_v100(), 2, sim::ExecutionMode::kReal);
  MgGcnTrainer resumed(fresh, ds, config);
  const Checkpoint loaded = load_checkpoint(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.adam_step, 4);
  resumed.restore(loaded);
  EXPECT_EQ(resumed.epoch(), 4);

  // Same machine shape + same snapshot => bit-identical continuation.
  for (int e = 4; e < 8; ++e) {
    EXPECT_EQ(resumed.train_epoch().loss,
              straight_losses[static_cast<std::size_t>(e)])
        << "epoch " << e;
  }
}

TEST(Checkpoint, RestoreRejectsMismatchedShape) {
  const graph::Dataset ds = tiny_dataset();
  TrainConfig config;
  config.hidden_dims = {12};
  sim::Machine machine(sim::dgx_v100(), 1, sim::ExecutionMode::kReal);
  MgGcnTrainer trainer(machine, ds, config);

  Checkpoint wrong;
  wrong.adam_step = 1;
  wrong.weights.emplace_back(3, 3);
  wrong.adam_m.emplace_back(3, 3);
  wrong.adam_v.emplace_back(3, 3);
  EXPECT_THROW(trainer.restore(wrong), InvalidArgumentError);
}

}  // namespace
}  // namespace mggcn::core
