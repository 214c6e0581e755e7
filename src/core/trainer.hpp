// MgGcnTrainer: the full MG-GCN training pipeline (§4).
//
// Construction performs the paper's preprocessing: optional random vertex
// permutation (§5.2), GCN normalization (eq. (2)), symmetric 1D tiling of
// Â and Âᵀ (§4.1), device buffer allocation under the L+3 reuse scheme
// (§4.2, Figs. 1/4), and replication of the (only-replicated) model weights.
// Each train_epoch() enqueues one forward + backward pass across all
// simulated GPUs with the staged-broadcast SpMM, optional
// communication/computation overlap (§4.3), the GeMM/SpMM order switch and
// the first-layer backward-SpMM skip (§4.4), Adam, and softmax
// cross-entropy.
//
// Buffer plan per device (n_r = local rows, d_l = layer dims):
//   X       n_r x d_0        input block (given)
//   O_l     n_r x d_{l+1}    one output buffer per layer; reused for the
//                            gradient carousel in the backward pass
//   HW      n_r x max d      the shared GeMM<->SpMM temporary
//   BC1,BC2 max_part x max d broadcast buffers (BC2 only when overlapping)
// which is the paper's "L + 3 buffers" (plus the input).
#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "comm/communicator.hpp"
#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "core/planner.hpp"
#include "core/gcn_kernels.hpp"
#include "core/metrics.hpp"
#include "core/partition.hpp"
#include "core/partitioner.hpp"
#include "dense/matrix.hpp"
#include "graph/datasets.hpp"
#include "mem/workspace_pool.hpp"
#include "sim/machine.hpp"

namespace mggcn::core {

/// Shared helper so the distributed trainer and the serial reference start
/// from bit-identical weights.
std::vector<dense::HostMatrix> init_weights(
    const std::vector<std::int64_t>& dims, std::uint64_t seed);

/// Layer-dimension chain [d_0, hidden..., classes] for a dataset + config.
std::vector<std::int64_t> layer_dims(const graph::Dataset& dataset,
                                     const TrainConfig& config);

/// Per-device bytes of the replicated model state (weights, gradients, and
/// both Adam moments) — the footprint that does not shrink when the graph
/// is partitioned or scaled down (see sim::scale_profile).
std::uint64_t replicated_state_bytes(const std::vector<std::int64_t>& dims);

class MgGcnTrainer {
 public:
  MgGcnTrainer(sim::Machine& machine, const graph::Dataset& dataset,
               TrainConfig config);
  ~MgGcnTrainer();

  MgGcnTrainer(const MgGcnTrainer&) = delete;
  MgGcnTrainer& operator=(const MgGcnTrainer&) = delete;

  /// Runs one full-batch epoch (forward, loss, backward, Adam) and returns
  /// its metrics. Loss/accuracy are only meaningful in real execution mode.
  /// When the machine carries a sim::FaultPlan, its epoch-boundary faults
  /// are applied first; a scheduled permanent device failure then surfaces
  /// as DeviceLostError and an unabsorbed transient burst as CommError (see
  /// ElasticTrainer for the recovery loop).
  EpochStats train_epoch();

  /// Convenience: `epochs` epochs, returning per-epoch stats.
  std::vector<EpochStats> train(int epochs);

  /// Enqueues a forward pass only (no loss/backward) and synchronizes.
  void run_forward();

  /// Gathers the logits in the original (un-permuted) vertex order.
  /// Real mode only.
  [[nodiscard]] dense::HostMatrix gather_logits() const;

  /// Snapshot of the replicated model state (weights + Adam moments +
  /// step counter), taken from rank 0 after draining the machine.
  /// Real mode only.
  [[nodiscard]] Checkpoint checkpoint();

  /// Restores a snapshot into every rank; training resumes exactly where
  /// the snapshot was taken (including the epoch counter, which the fault
  /// plan keys on). Real mode only.
  void restore(const Checkpoint& checkpoint);

  /// Epochs completed by this trainer instance (restore() rewinds it to
  /// the snapshot's position).
  [[nodiscard]] int epoch() const { return epoch_; }

  [[nodiscard]] const PartitionVector& partition() const {
    return partition_;
  }
  [[nodiscard]] const TrainConfig& config() const { return config_; }
  /// The partitioner mode that actually produced the active ordering
  /// (config().part_mode with kAuto resolved to its winning candidate).
  [[nodiscard]] PartMode part_mode_used() const { return part_mode_used_; }
  /// Cut quality of the active ordering, measured once at preprocessing
  /// from the forward tiling (also repeated in every EpochStats).
  [[nodiscard]] const PartitionCutStats& partition_stats() const {
    return part_stats_;
  }
  /// nnz imbalance ratio of the forward tiling (Fig. 6's quantity).
  [[nodiscard]] double tile_imbalance() const;
  /// Host seconds spent in preprocessing (permute/normalize/tile).
  [[nodiscard]] double preprocessing_seconds() const {
    return preprocessing_seconds_;
  }
  [[nodiscard]] std::uint64_t peak_memory_bytes() const;
  /// The forward-product planner (tiles of A-hat^T); tests and benches
  /// audit its pricing surface through this.
  [[nodiscard]] const Planner& forward_planner() const {
    return *forward_planner_;
  }
  [[nodiscard]] int num_layers() const {
    return static_cast<int>(dims_.size()) - 1;
  }
  /// Original -> permuted vertex id mapping produced by preprocessing.
  [[nodiscard]] std::span<const std::uint32_t> perm() const { return perm_; }
  /// Layer-dimension chain [d_0, hidden..., classes].
  [[nodiscard]] std::span<const std::int64_t> dims() const { return dims_; }
  /// Whether layer `layer` runs its SpMM before its GeMM (§4.4 switch).
  [[nodiscard]] bool layer_spmm_first(int layer) const {
    return plan_[static_cast<std::size_t>(layer)].spmm_first;
  }
  /// Gathers layer `layer`'s activations O_l (layer == -1: the input X) in
  /// *permuted* vertex order, concatenated across ranks. Real mode only —
  /// the inference server materializes its embedding store from this.
  [[nodiscard]] dense::HostMatrix gather_activations(int layer) const;

 private:
  struct LayerPlan {
    std::int64_t d_in = 0;
    std::int64_t d_out = 0;
    bool spmm_first = false;  // §4.4 order switch
    bool has_relu = true;     // all but the last layer
    bool skip_backward_spmm = false;  // §4.4 first-layer skip
  };

  struct RankState {
    mem::PooledBuffer x;                     // input block
    std::vector<mem::PooledBuffer> outputs;  // O_l per layer
    mem::PooledBuffer hw;                    // shared temporary
    mem::PooledBuffer bc1, bc2;              // broadcast buffers
    std::vector<mem::PooledBuffer> w, w_grad, adam_m, adam_v;
    /// Unused per-layer buffers emulating frameworks without buffer reuse
    /// (allocated iff !config.reuse_buffers; memory accounting only).
    std::vector<mem::PooledBuffer> ballast;
    std::vector<std::int32_t> labels;        // local rows, real mode
    std::vector<std::uint8_t> train_mask;    // local rows, real mode
  };

  void build_plan();
  void preprocess(const graph::Dataset& dataset);
  void allocate_buffers();
  void upload_inputs(const graph::Dataset& dataset);

  void enqueue_forward(std::vector<sim::Event>* logits_ready);
  std::vector<sim::Event> enqueue_loss(const std::vector<sim::Event>& ready);
  void enqueue_backward(std::vector<sim::Event> grad_ready);

  [[nodiscard]] std::vector<sim::DeviceBuffer*> buffers_of(
      mem::PooledBuffer RankState::* member);
  [[nodiscard]] std::vector<sim::DeviceBuffer*> layer_buffers(int layer);
  /// Runs one distributed product through `planner`: `input` -> `output`
  /// at width `d`, the input readable once `ready` fires; the broadcast
  /// buffers, their hazard state, the overlap setting and the
  /// baseline-emulation knobs are the trainer's. Each rank's compute stream
  /// then waits for the release of its input block; returns the per-rank
  /// completion of the output.
  std::vector<sim::Event> run_product(Planner& planner,
                                      std::vector<sim::DeviceBuffer*> input,
                                      std::vector<sim::DeviceBuffer*> output,
                                      std::int64_t d,
                                      std::vector<sim::Event> ready);

  sim::Machine& machine_;
  TrainConfig config_;
  std::vector<std::int64_t> dims_;
  std::vector<LayerPlan> plan_;

  PartitionVector partition_;
  std::vector<std::uint32_t> perm_;  // original -> permuted vertex id
  PartMode part_mode_used_ = PartMode::kRandom;
  PartitionCutStats part_stats_;
  std::unique_ptr<comm::Communicator> comm_;
  std::unique_ptr<Planner> forward_planner_;   // tiles of Â^T
  std::unique_ptr<Planner> backward_planner_;  // tiles of Â
  /// Workspace pools backing this trainer's buffers (null = static
  /// allocation); resolved from config.pool/pool_mode at construction.
  std::shared_ptr<mem::PoolSet> pool_;

  std::vector<RankState> ranks_;
  /// Cross-layer BC1/BC2 write-after-read hazard state (see DistSpmm::Io).
  std::vector<std::array<sim::Event, 2>> bc_slot_readers_;
  std::int64_t total_train_ = 0;
  double compute_bandwidth_scale_ = 1.0;

  int adam_step_ = 0;
  int epoch_ = 0;
  double preprocessing_seconds_ = 0.0;

  // Loss accumulation side-channel (real mode), reset per epoch. One slot
  // per rank, written by that rank's single loss task and summed in rank
  // order at epoch end so the reported loss is bit-deterministic (a shared
  // accumulator would sum in worker-thread completion order).
  std::vector<LossResult> rank_loss_;
};

}  // namespace mggcn::core
