// Pipelined distributed mini-batch engine (DistDGL/samgraph-style) on the
// simulated machine — the sampled-training counterpart of MgGcnTrainer.
//
// Each epoch runs synchronous data-parallel rounds: every device trains one
// fanout-sampled mini-batch per round, with the input features partitioned
// uniformly across devices (1D, like the full-batch engine). A round flows
// through three stages:
//
//   sample   (compute stream)  neighborhood expansion of the next batch's
//                              seeds; the expansion itself runs host-side
//                              before the round is enqueued (the kInspect
//                              pattern) so shapes are known when the
//                              stage's tasks are priced — every rank's
//                              expansion concurrently, one host thread per
//                              rank up to hardware_concurrency();
//   extract  (comm stream)     assemble the batch's input rows: local rows
//                              and feature-cache hits gather at HBM speed,
//                              remote misses ride one Communicator::
//                              sendv_rows per owning device (node-aggregated
//                              shapes) and are scattered into the gather
//                              block; admitted rows are copied into the
//                              per-device FeatureCache;
//   train    (compute stream)  forward SpMM/GeMM/ReLU per level, fused
//                              softmax-cross-entropy loss, backward, one
//                              wgrad allreduce per layer (comm stream), and
//                              the Adam step.
//
// With Options::pipeline on, sample/extract of round b+1 are enqueued before
// train of round b, so the extraction wire time of the next batch hides
// behind the current batch's compute — the §4.3 overlap applied to
// mini-batch training. On the host clock the same holds one round further
// out: round b+2's host preparation short of its allocations (sampling,
// transposes, labels, the cache split) runs on helper threads while the
// host waits for round b, so the executor's workers keep running round b
// while a later batch is sampled.
// Every task declares its DeviceBuffer reads/writes, so
// MGGCN_HAZARD_CHECK audits the overlapped schedule; with pipeline off the
// same tasks run with machine-wide clock alignment between stages, giving a
// serialized baseline that is bit-identical in numerics (losses match the
// pipelined run exactly — only the simulated schedule differs).
//
// Cache behaviour is selected by Options::cache_mode (default: the
// process-wide MGGCN_CACHE setting). All cache modes train bit-identically:
// the cache only changes which fabric moves a feature row, never its
// contents.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "comm/communicator.hpp"
#include "core/cache_mode.hpp"
#include "core/feature_cache.hpp"
#include "core/metrics.hpp"
#include "core/partition.hpp"
#include "graph/datasets.hpp"
#include "graph/sampling.hpp"
#include "mem/workspace_pool.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"

namespace mggcn::core {

class SampledPipeline {
 public:
  struct Options {
    /// Hidden layer widths; the layer-dim chain is
    /// [feature_dim, hidden..., num_classes].
    std::vector<std::int64_t> hidden_dims = {64};
    /// Fanout per hop; must have hidden_dims.size() + 1 entries. Values
    /// <= 0 mean "all neighbors" at that hop.
    std::vector<std::int64_t> fanout = {10, 10};
    /// Seeds per device per round (the global batch is batch_size * P).
    std::int64_t batch_size = 128;
    /// Overlap sample/extract of round b+1 with train of round b. Off =
    /// serialized stage-by-stage execution of the same tasks (the ablation
    /// baseline; numerics are identical either way).
    bool pipeline = true;
    /// Feature-cache policy; kAuto is resolved against the cost model at
    /// construction (FeatureCache::plan_auto).
    CacheMode cache_mode = core::cache_mode();
    /// Requested cache capacity as a fraction of the graph's vertices.
    double cache_capacity_fraction = core::cache_capacity_fraction();
    /// Workspace-pool policy (see mem/pool_mode.hpp). In pooled modes the
    /// round scratch (gather blocks, activations, gradient temporaries) is
    /// leased from the per-device pool and recycled as each level's last
    /// consumer is enqueued, so backward temporaries of different levels
    /// share blocks; kOff keeps the static per-round allocation bit for
    /// bit. Either way the scratch is allocated sim::Fill::kNone (each
    /// buffer's first writer overwrites it whole). Numerics are identical
    /// in every mode.
    mem::PoolMode pool_mode = mem::pool_mode();
    /// Shared per-machine pools (mem::PoolSet::create) so the pipeline
    /// recycles one budget with other tenants (trainer, inference server).
    std::shared_ptr<mem::PoolSet> pool;

    // Adam (same defaults as the full-batch engine).
    double learning_rate = 1e-2;
    double beta1 = 0.9;
    double beta2 = 0.999;
    double epsilon = 1e-8;

    std::uint64_t seed = 1;
  };

  /// Per-device footprint of the engine's persistent state. Round-scratch
  /// buffers (gather blocks, activations) come and go per round and show up
  /// in EpochStats::peak_memory_bytes instead.
  struct MemoryBreakdown {
    /// Largest feature shard over devices.
    std::uint64_t feature_bytes = 0;
    /// Largest pinned feature cache over devices (0 when the cache is off).
    std::uint64_t cache_bytes = 0;
    /// Replicated model state (weights + gradients + both Adam moments).
    std::uint64_t model_bytes = 0;
    /// Largest per-device workspace-pool reservation / live-lease bytes
    /// (0 when MGGCN_POOL resolves to the static path). When pooling is
    /// on, persistent state above and round scratch share this one budget,
    /// so reserved - in_use is the recyclable headroom.
    std::uint64_t pool_reserved_bytes = 0;
    std::uint64_t pool_in_use_bytes = 0;

    [[nodiscard]] std::uint64_t total() const {
      return feature_bytes + cache_bytes + model_bytes;
    }
  };

  SampledPipeline(sim::Machine& machine, const graph::Dataset& dataset,
                  Options options);
  ~SampledPipeline();

  SampledPipeline(const SampledPipeline&) = delete;
  SampledPipeline& operator=(const SampledPipeline&) = delete;

  EpochStats train_epoch();
  std::vector<EpochStats> train(int epochs);

  [[nodiscard]] MemoryBreakdown account_memory() const;

  /// The concrete cache mode after kAuto resolution (never kAuto).
  [[nodiscard]] CacheMode resolved_cache_mode() const {
    return resolved_cache_mode_;
  }
  /// The pricing plan_auto compared (valid for every requested mode).
  [[nodiscard]] const FeatureCache::AutoDecision& cache_decision() const {
    return cache_decision_;
  }
  [[nodiscard]] const FeatureCache& cache(int rank) const;
  [[nodiscard]] int rounds_per_epoch() const { return rounds_per_epoch_; }
  [[nodiscard]] int num_layers() const {
    return static_cast<int>(dims_.size()) - 1;
  }
  [[nodiscard]] const std::vector<std::int64_t>& dims() const { return dims_; }

 private:
  struct RankState;
  struct BatchState;
  struct RoundState;

  /// The host part of round `index` short of its scratch buffers:
  /// sample_batch then split_batch for every rank, ranks in parallel.
  /// The pipelined epoch runs it for round k + 2 on a helper thread (the
  /// look-ahead) while round k trains; round k + 1's split, the last one
  /// it depends on, has been made by then.
  std::unique_ptr<RoundState> sample_round(int index);
  /// The rest of a sampled round's host work: scratch-buffer allocation
  /// on the calling thread in rank order, so buffer ids and pool placement
  /// are deterministic and identical across schedules.
  void prepare_round(RoundState& round);
  /// Rank r's pure part of a round: the seeds from its shuffled shard, the
  /// neighborhood sample (drawing rank r's Rng), the transposed blocks and
  /// the labels. Touches only rank r's Rng and `batch` (the sampler is
  /// const with thread-local scratch), so ranks run concurrently, and
  /// nothing the cache part or the device tasks use.
  void sample_batch(int round_index, int r, BatchState& batch);
  /// Rank r's cache part of a round: the split of the input frontier into
  /// local / cached / per-owner remote rows, and the cache lookup and
  /// admission. Touches only rank r's FeatureCache bookkeeping (never its
  /// buffer, which enqueued tasks use) and `batch`; rounds split in order.
  void split_batch(int r, BatchState& batch);
  void enqueue_sample(RoundState& round);
  void enqueue_extract(RoundState& round);
  void enqueue_train(RoundState& round);
  /// Host-waits the round's completion, folds its losses into the epoch
  /// accumulators (in rank order), and frees its scratch buffers.
  void retire_round(RoundState& round);

  sim::Machine& machine_;
  const graph::Dataset& dataset_;
  Options options_;
  /// Declared before ranks_ so leases die before their pools.
  std::shared_ptr<mem::PoolSet> pool_;
  comm::Communicator comm_;
  graph::NeighborSampler sampler_;
  PartitionVector part_;
  std::vector<std::int64_t> dims_;
  CacheMode resolved_cache_mode_ = CacheMode::kOff;
  FeatureCache::AutoDecision cache_decision_;
  std::vector<std::unique_ptr<RankState>> ranks_;
  int rounds_per_epoch_ = 0;
  int epoch_ = 0;
  int adam_step_ = 0;
  /// Cost-model-priced busy seconds per stage since construction, summed
  /// over devices by the enqueue_* stages on the enqueueing thread (so
  /// they do not depend on worker scheduling); train_epoch reports the
  /// epoch's difference as EpochStats::pipe_*_seconds.
  struct StageSeconds {
    double sample = 0.0;
    double extract = 0.0;
    double train = 0.0;
  };
  StageSeconds stage_seconds_;

  // Epoch accumulators (reset by train_epoch, filled by retire_round).
  double epoch_loss_sum_ = 0.0;
  std::int64_t epoch_correct_ = 0;
  std::int64_t epoch_counted_ = 0;
};

}  // namespace mggcn::core
