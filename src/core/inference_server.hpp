// Low-latency inference serving tier (node-classification queries against a
// trained MG-GCN model).
//
// A trained GCN answers a query for vertex v with row v of the forward
// pass's logits. Only the last layer depends on which vertices are asked
// for, so the server materializes an *embedding store* once — the
// penultimate activations (already multiplied by the last weight matrix
// when the layer runs GeMM-first, §4.4) — shards it across the simulated
// devices exactly like training shards H, and then answers a query by
// re-running just the last aggregation over the query's neighborhood:
//
//   gemm-first:  logits_v = Â^T[v, :] * (H^{L-1} W^L)     (1-row SpMM)
//   spmm-first:  logits_v = (Â^T[v, :] * H^{L-1}) W^L     (1-row SpMM+GeMM)
//
// Per-query work therefore gathers the query's neighbor rows — local shard
// reads at HBM cost, remote rows over the interconnect (priced with
// Communicator::sendv_rows_seconds, the same model training charges), with
// an optional embedding cache of hot remote rows (core::FeatureCache
// semantics, MGGCN_SERVE_CACHE) — and runs the reference kernels on the
// gathered block. The kernel-policy registry's bit-identity contract
// (sparse/spmm.hpp) makes the recomputed row equal, bit for bit, to the
// trainer's staged forward pass at every batch size and cache mode.
//
// Load is open-loop (serve::WorkloadGen): requests arrive on the simulated
// clock whether or not the server keeps up, so queueing delay is measured
// instead of throttled away. A micro-batcher groups arrivals:
//
//   - kPerRequest: every query dispatches alone (the latency baseline).
//   - kFixed:      wait for MGGCN_SERVE_BATCH queries, then dispatch.
//   - kDeadline:   accumulate up to the batch cap or until waiting longer
//                  would spend a member's deadline, pricing the batch's
//                  service time with the simulator's own cost models.
//
// Batches round-robin across the devices (each device is one serving
// replica of the sharded store); per-replica batches execute in order.
// Simulated graph-update events invalidate cached rows (timing and
// accounting only — the store itself is static, so predictions stay
// bit-identical).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/communicator.hpp"
#include "core/feature_cache.hpp"
#include "core/partition.hpp"
#include "core/serve_mode.hpp"
#include "core/trainer.hpp"
#include "core/workload.hpp"
#include "dense/matrix.hpp"
#include "graph/datasets.hpp"
#include "mem/workspace_pool.hpp"
#include "sim/machine.hpp"
#include "sparse/csr.hpp"
#include "util/knob.hpp"

namespace mggcn::core {

enum class BatchPolicy {
  kPerRequest = 0,
  kFixed = 1,
  kDeadline = 2,
};

/// Stable names, indexed by BatchPolicy.
inline constexpr std::array<const char*, 3> kBatchPolicyNames = {
    "per-request", "fixed", "deadline"};

inline const char* batch_policy_name(BatchPolicy policy) {
  return util::enum_name(kBatchPolicyNames, policy);
}

struct ServeOptions {
  BatchPolicy policy = BatchPolicy::kDeadline;
  /// Maximum micro-batch size; defaults to the MGGCN_SERVE_BATCH registry.
  std::int64_t max_batch = serve_batch();
  /// kDeadline wait budget, seconds; defaults to MGGCN_SERVE_SLACK.
  double slack_seconds = serve_slack_seconds();
  /// Embedding-cache policy; defaults to the MGGCN_SERVE_CACHE registry.
  ServeCacheMode cache_mode = serve_cache_mode();
  /// Per-replica cache capacity as a fraction of the graph's vertices.
  double cache_capacity_fraction = 0.05;
  /// Workspace-pool policy (see mem/pool_mode.hpp). Pooled modes lease the
  /// store shards, serving scratch, and embedding caches from the
  /// per-device pool — sharing one budget with a co-resident trainer or
  /// pipeline when `pool` is set — and recycle the per-serve gather
  /// scratch between calls. kOff keeps the static allocation bit for bit;
  /// predictions are identical in every mode.
  mem::PoolMode pool_mode = mem::pool_mode();
  /// Shared per-machine pools (mem::PoolSet::create) for cross-component
  /// reuse with the training engines.
  std::shared_ptr<mem::PoolSet> pool;
};

/// EpochStats-style counters for one serve() run.
struct ServeStats {
  std::int64_t serve_requests = 0;
  std::int64_t serve_batches = 0;
  double serve_mean_batch_size = 0.0;

  /// Simulated seconds from the first arrival to the last completion.
  double serve_span_seconds = 0.0;
  /// serve_requests / serve_span_seconds.
  double serve_qps = 0.0;

  double serve_p50_latency = 0.0;
  double serve_p99_latency = 0.0;
  double serve_max_latency = 0.0;
  double serve_mean_latency = 0.0;
  /// Fraction of requests completing after their deadline (0 when the
  /// workload carries no deadlines).
  double serve_deadline_miss_rate = 0.0;

  /// Embedding-tier counters (remote rows only; local shard reads are free
  /// of the cache and not counted).
  std::uint64_t serve_cache_hits = 0;
  std::uint64_t serve_cache_misses = 0;
  double serve_cache_hit_rate = 0.0;

  std::int64_t serve_graph_updates = 0;
  std::int64_t serve_invalidations = 0;

  /// Simulated seconds enqueued for gathers/pulls vs inference kernels.
  double serve_gather_seconds = 0.0;
  double serve_infer_seconds = 0.0;
};

class InferenceServer {
 public:
  /// Materializes the serving state from a trained model. The trainer must
  /// hold a completed forward pass (call run_forward() first) — the store
  /// is built from its penultimate activations and last weight matrix. In
  /// phantom mode only shapes/costs are materialized (no values, no
  /// predictions). `trainer` is only used during construction.
  InferenceServer(sim::Machine& machine, MgGcnTrainer& trainer,
                  const graph::Dataset& dataset, ServeOptions options = {});
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Serves an arrival-ordered request trace (with optional time-ordered
  /// graph-update events), drains the machine, and returns the latency /
  /// throughput accounting. Arrival times are relative to the machine's
  /// clock at the call. Callable repeatedly; each call starts a fresh
  /// latency ledger but keeps the warmed embedding cache. Throws
  /// InvalidArgumentError for out-of-order requests or updates and for
  /// request or update vertices outside the graph.
  ServeStats serve(std::span<const serve::Request> requests,
                   std::span<const serve::GraphUpdate> updates = {});

  /// Logits of the last serve() call's requests, row i for request i
  /// (real mode only; empty in phantom mode). Bit-identical to the
  /// trainer's gather_logits() rows for the queried vertices.
  [[nodiscard]] const dense::HostMatrix& predictions() const {
    return predictions_;
  }

  /// The concrete cache mode plan_auto resolved (kOff or kEmbed).
  [[nodiscard]] ServeCacheMode cache_mode_used() const {
    return cache_mode_used_;
  }
  [[nodiscard]] const ServeOptions& options() const { return options_; }
  /// Host-side estimate of one full micro-batch's service seconds (what
  /// the deadline policy prices waiting against).
  [[nodiscard]] double estimated_batch_seconds() const {
    return est_batch_seconds_;
  }

 private:
  struct Batch {
    int replica = 0;
    double close_time = 0.0;               ///< relative to the serve base
    std::vector<std::int64_t> request_ids;  ///< indices into the trace
    /// Ascending permuted row ids of the union of the batch's neighbor
    /// rows; scratch row i holds frontier[i].
    std::vector<std::uint32_t> frontier;
    /// Batch adjacency (request rows x frontier columns, compact).
    sparse::Csr adj;
  };

  struct Replica {
    mem::PooledBuffer store_shard;  ///< this rank's store rows
    mem::PooledBuffer scratch;      ///< gathered frontier rows (per serve)
    mem::PooledBuffer out;          ///< batch logits
    mem::PooledBuffer tmp;          ///< spmm-first intermediate
    FeatureCache cache;             ///< hot remote store rows
    sim::Event chain;               ///< previous batch's completion
  };

  void materialize_store(MgGcnTrainer& trainer);
  void build_caches();
  [[nodiscard]] std::vector<Batch> plan_batches(
      std::span<const serve::Request> requests);
  /// Fills batch->frontier and batch->adj. Host cost is O(e + f log f)
  /// for a batch of e neighbor edges and f distinct frontier rows (one
  /// sort of the deduplicated frontier; every column maps through
  /// frontier_pos_).
  void plan_frontier(Batch* batch, std::span<const serve::Request> requests);
  /// Points frontier_pos_ at `frontier`'s positions.
  void mark_frontier(std::span<const std::uint32_t> frontier);
  /// Enqueues one batch's pull/gather/infer/admit tasks; returns the
  /// completion event and accumulates cost seconds into the counters.
  sim::Event enqueue_batch(const Batch& batch, double base,
                           ServeStats* stats);
  void enqueue_invalidate(const serve::GraphUpdate& update, double base,
                          ServeStats* stats);

  sim::Machine& machine_;
  ServeOptions options_;
  PartitionVector partition_;
  std::vector<std::uint32_t> perm_;  ///< original -> permuted vertex id
  sparse::Csr a_hat_t_;              ///< forward operator (permuted order)
  std::unique_ptr<comm::Communicator> comm_;
  /// Declared before replicas_ so leases die before their pools.
  std::shared_ptr<mem::PoolSet> pool_;

  std::int64_t d_store_ = 0;  ///< store row width
  std::int64_t d_out_ = 0;    ///< classes
  bool spmm_first_ = false;   ///< last layer's §4.4 order
  dense::HostMatrix store_;   ///< n x d_store, permuted order (real mode)
  dense::HostMatrix weight_;  ///< last W (spmm-first, real mode)

  /// Planning tables over Â's columns (permuted vertex ids): the vertex's
  /// position in the most recently marked frontier, and the stamp of the
  /// last batch whose frontier took it (the dedupe before the sort).
  std::vector<std::uint32_t> frontier_pos_;
  std::vector<std::uint32_t> frontier_stamp_;
  std::uint32_t stamp_ = 0;

  ServeCacheMode cache_mode_used_ = ServeCacheMode::kOff;
  double est_batch_seconds_ = 0.0;
  std::vector<Replica> replicas_;

  dense::HostMatrix predictions_;
};

}  // namespace mggcn::core
