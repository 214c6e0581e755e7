#include "core/sampled_pipeline.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <exception>
#include <thread>
#include <utility>

#include "core/gcn_kernels.hpp"
#include "core/trainer.hpp"
#include "dense/kernels.hpp"
#include "sim/cost_model.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmm_plan.hpp"
#include "util/error.hpp"

namespace mggcn::core {

namespace {

/// Runs body(r) for every rank r in [0, ranks): the calling thread takes
/// rank 0 and helper threads the rest, at most hardware_concurrency()
/// threads in all, each striding over the ranks when there are more ranks
/// than threads. Returns once every thread has joined, rethrowing the
/// lowest thread's exception if any body threw.
template <typename Body>
void for_each_rank(int ranks, const Body& body) {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const int threads = std::min(ranks, static_cast<int>(cores));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  const auto run = [&](int t) {
    try {
      for (int r = t; r < ranks; r += threads) body(r);
    } catch (...) {
      errors[static_cast<std::size_t>(t)] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(static_cast<std::size_t>(threads));
    for (int t = 1; t < threads; ++t) helpers.emplace_back(run, t);
    run(0);
  }  // joins the helpers
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace

/// Persistent per-device state: the owned feature shard, the feature cache,
/// and the replicated model (weights + gradient + Adam moments per layer).
struct SampledPipeline::RankState {
  mem::PooledBuffer features;
  FeatureCache cache;
  std::vector<mem::PooledBuffer> weights;
  std::vector<mem::PooledBuffer> wgrad;
  std::vector<mem::PooledBuffer> adam_m;
  std::vector<mem::PooledBuffer> adam_v;
  /// This rank's training vertices (global ids), reshuffled every epoch.
  std::vector<std::uint32_t> order;
  util::Rng rng{0};
};

/// One rank's share of one in-flight round. All scratch buffers live here
/// so a round retires as a unit once its train stage completes.
struct SampledPipeline::BatchState {
  graph::SampledSubgraph sub;
  /// blocks_t[l] = transpose of the level-l aggregation block (l >= 1 only;
  /// level 0 never propagates a gradient into the input features).
  std::vector<sparse::Csr> blocks_t;
  std::vector<std::int32_t> labels;

  // Input-frontier split (rows of gx, the deepest layer's gather block).
  std::vector<std::uint32_t> local_rows;  ///< owner-local feature rows
  std::vector<std::int64_t> local_dst;    ///< their gx rows
  std::vector<std::int64_t> hit_slots;    ///< cache slots of cached rows
  std::vector<std::int64_t> hit_dst;      ///< their gx rows
  /// Per owning rank: missed rows as ascending owner-local indices (what
  /// sendv_rows packs) and the gx rows they scatter into.
  std::vector<std::vector<std::uint32_t>> want_from;
  std::vector<std::vector<std::int64_t>> want_dst;
  /// Cache admissions this round: (gx row, cache slot) copy list.
  std::vector<std::pair<std::int64_t, std::int64_t>> admit_copies;

  // Round scratch. Statically allocated in prepare_round when unpooled
  // (freed as a unit at retire); leased from the workspace pool otherwise,
  // with z/h/dz/dh deferred to enqueue_train and every lease recycled as
  // its last consumer is enqueued, so levels share blocks. All of it is
  // sim::Fill::kNone: each buffer's first writer overwrites it whole.
  mem::PooledBuffer gx;                ///< deepest frontier x d0
  std::vector<mem::PooledBuffer> rx;   ///< per owner: sendv landing buffer
  std::vector<mem::PooledBuffer> z;    ///< per level: block * h
  std::vector<mem::PooledBuffer> h;    ///< per level: activation / logits
  std::vector<mem::PooledBuffer> dz;   ///< per level (>=1): grad * W^T
  std::vector<mem::PooledBuffer> dh;   ///< per level (>=1): block^T * dz

  sim::Event sample_done;
  sim::Event extract_done;
  sim::Event train_done;

  LossResult loss;
};

struct SampledPipeline::RoundState {
  int index = 0;
  std::vector<BatchState> batches;
};

SampledPipeline::SampledPipeline(sim::Machine& machine,
                                 const graph::Dataset& dataset,
                                 Options options)
    : machine_(machine),
      dataset_(dataset),
      options_(std::move(options)),
      pool_(mem::resolve_pool(options_.pool, machine, options_.pool_mode)),
      comm_(machine),
      sampler_(dataset.adjacency, options_.fanout),
      part_(PartitionVector::uniform(dataset.n(), machine.num_devices())) {
  MGGCN_CHECK_MSG(options_.batch_size >= 1, "batch_size must be positive");
  MGGCN_CHECK_MSG(options_.fanout.size() == options_.hidden_dims.size() + 1,
                  "need one fanout entry per layer");
  const bool real = machine_.mode() == sim::ExecutionMode::kReal;
  if (real) {
    MGGCN_CHECK_MSG(dataset_.has_features() &&
                        dataset_.labels.size() ==
                            static_cast<std::size_t>(dataset_.n()),
                    "real-mode sampled training needs features and labels");
  }

  dims_.push_back(dataset_.spec.feature_dim);
  for (const auto hdim : options_.hidden_dims) dims_.push_back(hdim);
  dims_.push_back(dataset_.spec.num_classes);

  const int P = machine_.num_devices();
  const std::int64_t d0 = dims_.front();

  // Global training set (per-rank shards below); structure-only datasets
  // (phantom benches) treat every vertex as trainable.
  std::vector<std::uint32_t> all_train;
  if (dataset_.train_mask.size() == static_cast<std::size_t>(dataset_.n())) {
    for (std::int64_t v = 0; v < dataset_.n(); ++v) {
      if (dataset_.train_mask[static_cast<std::size_t>(v)]) {
        all_train.push_back(static_cast<std::uint32_t>(v));
      }
    }
  }
  if (all_train.empty()) {
    all_train.resize(static_cast<std::size_t>(dataset_.n()));
    for (std::int64_t v = 0; v < dataset_.n(); ++v) {
      all_train[static_cast<std::size_t>(v)] = static_cast<std::uint32_t>(v);
    }
  }
  rounds_per_epoch_ = static_cast<int>(
      (static_cast<std::int64_t>(all_train.size()) +
       static_cast<std::int64_t>(P) * options_.batch_size - 1) /
      (static_cast<std::int64_t>(P) * options_.batch_size));

  const std::vector<dense::HostMatrix> init =
      init_weights(dims_, options_.seed);

  // Resolve the cache policy once against rank 0's budget (devices are
  // identical, so the decision is machine-wide).
  const auto requested_rows = static_cast<std::int64_t>(
      options_.cache_capacity_fraction * static_cast<double>(dataset_.n()));

  for (int r = 0; r < P; ++r) {
    auto state = std::make_unique<RankState>();
    sim::Device& device = machine_.device(r);
    mem::WorkspacePool* pool = pool_ ? &pool_->pool(r) : nullptr;

    state->features = mem::acquire_or_alloc(
        pool, device, static_cast<std::size_t>(part_.size(r) * d0), "SMB:X");
    if (real) {
      std::memcpy(state->features.data(),
                  dataset_.features.view().row(part_.begin(r)),
                  state->features.bytes());
    }

    for (std::size_t l = 0; l + 1 < dims_.size(); ++l) {
      const auto count =
          static_cast<std::size_t>(dims_[l] * dims_[l + 1]);
      state->weights.push_back(
          mem::acquire_or_alloc(pool, device, count, "SMB:W"));
      state->wgrad.push_back(
          mem::acquire_or_alloc(pool, device, count, "SMB:dW"));
      state->adam_m.push_back(
          mem::acquire_or_alloc(pool, device, count, "SMB:AdamM"));
      state->adam_v.push_back(
          mem::acquire_or_alloc(pool, device, count, "SMB:AdamV"));
      if (real) {
        std::memcpy(state->weights.back().data(), init[l].data(),
                    count * sizeof(float));
      }
    }

    if (r == 0) {
      // Cache budget: half of what is actually available. Pooled, that is
      // the pool's headroom (free blocks are reusable, so persistent state
      // and the cache price against one budget — the CaPGNN split);
      // unpooled, the device ledger's remaining capacity.
      std::uint64_t available;
      if (pool != nullptr) {
        available = pool->available_bytes();
      } else {
        const std::uint64_t used = device.memory_used();
        available = device.profile().memory_bytes > used
                        ? device.profile().memory_bytes - used
                        : 0;
      }
      cache_decision_ = FeatureCache::plan_auto(
          options_.cache_mode, requested_rows, d0, comm_, device.profile(),
          available / 2);
      resolved_cache_mode_ = cache_decision_.mode;
    }
    state->cache = FeatureCache(pool, device, d0,
                                cache_decision_.capacity_rows,
                                resolved_cache_mode_);

    // Degree-scored prefill over this rank's REMOTE vertices (local rows
    // never need the cache); under kFreq the degrees also seed the LFU.
    if (state->cache.enabled()) {
      std::vector<std::uint32_t> remote;
      std::vector<std::int64_t> degree;
      remote.reserve(static_cast<std::size_t>(dataset_.n() - part_.size(r)));
      for (std::int64_t v = 0; v < dataset_.n(); ++v) {
        if (v >= part_.begin(r) && v < part_.end(r)) continue;
        remote.push_back(static_cast<std::uint32_t>(v));
        degree.push_back(dataset_.adjacency.row_nnz(v));
      }
      state->cache.prefill(remote, degree);
      if (real) {
        const auto pinned = state->cache.pinned();
        for (std::size_t s = 0; s < pinned.size(); ++s) {
          std::memcpy(state->cache.buffer().data() +
                          s * static_cast<std::size_t>(d0),
                      dataset_.features.view().row(pinned[s]),
                      static_cast<std::size_t>(d0) * sizeof(float));
        }
      }
    }

    // Persistent leases may reuse blocks with previous tenants still in
    // flight: order everything this engine enqueues after them.
    if (pool != nullptr) {
      auto guard = [&](const mem::PooledBuffer& buf) {
        for (const sim::Event& e : buf.ready()) {
          if (!e.valid()) continue;
          device.compute_stream().wait_event(e);
          device.comm_stream().wait_event(e);
        }
      };
      guard(state->features);
      for (const auto& b : state->weights) guard(b);
      for (const auto& b : state->wgrad) guard(b);
      for (const auto& b : state->adam_m) guard(b);
      for (const auto& b : state->adam_v) guard(b);
      guard(state->cache.lease());
    }

    // Per-rank training shard: the rank's own vertices, or the global list
    // when a rank owns none (it still contributes a synchronized batch).
    for (const std::uint32_t v : all_train) {
      if (part_.part_of(v) == r) state->order.push_back(v);
    }
    if (state->order.empty()) state->order = all_train;
    state->rng.reseed(options_.seed * 9029 +
                      static_cast<std::uint64_t>(r + 1) * 65537);

    ranks_.push_back(std::move(state));
  }
}

SampledPipeline::~SampledPipeline() { machine_.synchronize(); }

const FeatureCache& SampledPipeline::cache(int rank) const {
  MGGCN_CHECK(rank >= 0 && rank < static_cast<int>(ranks_.size()));
  return ranks_[static_cast<std::size_t>(rank)]->cache;
}

SampledPipeline::MemoryBreakdown SampledPipeline::account_memory() const {
  MemoryBreakdown mem;
  for (const auto& state : ranks_) {
    mem.feature_bytes = std::max(mem.feature_bytes, state->features.bytes());
    mem.cache_bytes = std::max(mem.cache_bytes, state->cache.bytes());
  }
  mem.model_bytes = replicated_state_bytes(dims_);
  if (pool_ != nullptr) {
    for (int r = 0; r < pool_->size(); ++r) {
      const mem::PoolStats& stats = pool_->pool(r).stats();
      mem.pool_reserved_bytes =
          std::max(mem.pool_reserved_bytes, stats.reserved_bytes);
      mem.pool_in_use_bytes =
          std::max(mem.pool_in_use_bytes, stats.in_use_bytes);
    }
  }
  return mem;
}

void SampledPipeline::prepare_batch(int round_index, int r,
                                    BatchState& batch) {
  RankState& state = *ranks_[static_cast<std::size_t>(r)];
  const int P = machine_.num_devices();
  const int layers = num_layers();

  // Seeds: the next batch_size entries of this rank's shuffled shard,
  // wrapping cyclically so every rank fields a batch every round.
  std::vector<std::uint32_t> seeds;
  seeds.reserve(static_cast<std::size_t>(options_.batch_size));
  const std::size_t base = static_cast<std::size_t>(round_index) *
                           static_cast<std::size_t>(options_.batch_size);
  for (std::int64_t i = 0; i < options_.batch_size; ++i) {
    seeds.push_back(
        state.order[(base + static_cast<std::size_t>(i)) %
                    state.order.size()]);
  }
  batch.sub = sampler_.sample(seeds, state.rng);

  batch.blocks_t.resize(static_cast<std::size_t>(layers));
  for (int l = 1; l < layers; ++l) {
    batch.blocks_t[static_cast<std::size_t>(l)] =
        batch.sub.blocks[static_cast<std::size_t>(layers - 1 - l)]
            .transpose();
  }

  if (machine_.mode() == sim::ExecutionMode::kReal) {
    const auto& seed_layer = batch.sub.layers.front();
    batch.labels.resize(seed_layer.size());
    for (std::size_t i = 0; i < seed_layer.size(); ++i) {
      batch.labels[i] = dataset_.labels[seed_layer[i]];
    }
  }

  // Split the deepest frontier into local rows, cache hits, and per-owner
  // remote misses. The frontier is ascending, so per-owner lists come out
  // ascending (sendv_rows' requirement) for free.
  const auto& in = batch.sub.layers.back();
  std::vector<std::uint32_t> remote;
  std::vector<std::int64_t> remote_pos;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::uint32_t v = in[i];
    if (v >= part_.begin(r) && v < part_.end(r)) {
      batch.local_rows.push_back(v -
                                 static_cast<std::uint32_t>(part_.begin(r)));
      batch.local_dst.push_back(static_cast<std::int64_t>(i));
    } else {
      remote.push_back(v);
      remote_pos.push_back(static_cast<std::int64_t>(i));
    }
  }

  FeatureCache::Partition split = state.cache.lookup(remote);
  batch.hit_slots = std::move(split.hit_slots);

  // Hits and misses are order-preserving subsequences of `remote`, so one
  // walk over it recovers each row's gx position.
  batch.want_from.resize(static_cast<std::size_t>(P));
  batch.want_dst.resize(static_cast<std::size_t>(P));
  std::size_t next_hit = 0;
  for (std::size_t i = 0; i < remote.size(); ++i) {
    const std::uint32_t v = remote[i];
    if (next_hit < split.hit_vertices.size() &&
        split.hit_vertices[next_hit] == v) {
      batch.hit_dst.push_back(remote_pos[i]);
      ++next_hit;
      continue;
    }
    const int owner = part_.part_of(v);
    batch.want_from[static_cast<std::size_t>(owner)].push_back(
        v - static_cast<std::uint32_t>(part_.begin(owner)));
    batch.want_dst[static_cast<std::size_t>(owner)].push_back(remote_pos[i]);
  }

  for (const auto& [v, slot] : state.cache.admit(split.miss_vertices)) {
    const auto pos = std::lower_bound(in.begin(), in.end(), v) - in.begin();
    batch.admit_copies.emplace_back(pos, slot);
  }
}

void SampledPipeline::prepare_round(RoundState& round) {
  const int P = machine_.num_devices();
  const std::int64_t d0 = dims_.front();
  const int layers = num_layers();
  sim::PipelineCounters delta;
  delta.rounds = 1;

  round.batches.resize(static_cast<std::size_t>(P));
  for_each_rank(P, [&](int r) {
    prepare_batch(round.index, r, round.batches[static_cast<std::size_t>(r)]);
  });

  // Scratch buffers and counters, on this thread in rank order (the pool
  // is single-threaded, and buffer ids and placement stay deterministic).
  // Every buffer below is overwritten whole by its first writer (gx by the
  // local/hit assembly plus the miss scatter, rx by sendv_rows, z/dh by a
  // beta = 0 SpMM, h/dz by a beta = 0 GeMM), so none is zero-filled.
  for (int r = 0; r < P; ++r) {
    BatchState& batch = round.batches[static_cast<std::size_t>(r)];
    sim::Device& device = machine_.device(r);
    const auto frontier = batch.sub.layers.back().size();
    delta.batches += 1;
    delta.cache_hits += batch.hit_slots.size();
    delta.cache_misses +=
        frontier - batch.local_rows.size() - batch.hit_slots.size();

    // Pooled, these lease recycled blocks; z/h and dz/dh are deferred to
    // enqueue_train (level by level, right before their first writers) so
    // a prepared-but-untrained round holds no activation scratch while the
    // previous round trains, and backward temporaries reuse the blocks
    // freed by earlier levels of the same batch.
    mem::WorkspacePool* pool = pool_ ? &pool_->pool(r) : nullptr;
    batch.gx = mem::acquire_or_alloc(
        pool, device, frontier * static_cast<std::size_t>(d0), "SMB:gx",
        sim::Fill::kNone);
    batch.rx.resize(static_cast<std::size_t>(P));
    for (int o = 0; o < P; ++o) {
      const auto rows = batch.want_from[static_cast<std::size_t>(o)].size();
      if (rows == 0 || o == r) continue;
      batch.rx[static_cast<std::size_t>(o)] = mem::acquire_or_alloc(
          pool, device, rows * static_cast<std::size_t>(d0), "SMB:rx",
          sim::Fill::kNone);
    }
    batch.z.resize(static_cast<std::size_t>(layers));
    batch.h.resize(static_cast<std::size_t>(layers));
    batch.dz.resize(static_cast<std::size_t>(layers));
    batch.dh.resize(static_cast<std::size_t>(layers));
    if (pool != nullptr) continue;
    for (int l = 0; l < layers; ++l) {
      const auto ll = static_cast<std::size_t>(l);
      const sparse::Csr& block =
          batch.sub.blocks[static_cast<std::size_t>(layers - 1 - l)];
      batch.z[ll] = mem::PooledBuffer(
          device, static_cast<std::size_t>(block.rows() * dims_[ll]),
          "SMB:z", sim::Fill::kNone);
      batch.h[ll] = mem::PooledBuffer(
          device, static_cast<std::size_t>(block.rows() * dims_[ll + 1]),
          "SMB:h", sim::Fill::kNone);
    }
    for (int l = 1; l < layers; ++l) {
      const auto ll = static_cast<std::size_t>(l);
      const sparse::Csr& block =
          batch.sub.blocks[static_cast<std::size_t>(layers - 1 - l)];
      batch.dz[ll] = mem::PooledBuffer(
          device, static_cast<std::size_t>(block.rows() * dims_[ll]),
          "SMB:dz", sim::Fill::kNone);
      batch.dh[ll] = mem::PooledBuffer(
          device, static_cast<std::size_t>(block.cols() * dims_[ll]),
          "SMB:dh", sim::Fill::kNone);
    }
  }

  // Eviction counters are monotone per cache; the round's delta is the
  // difference against the previous prepare's machine-wide total.
  std::uint64_t evictions = 0;
  for (const auto& state : ranks_) evictions += state->cache.stats().evictions;
  delta.cache_evictions = evictions - evictions_seen_;
  evictions_seen_ = evictions;

  machine_.trace().record_pipeline(delta);
}

void SampledPipeline::enqueue_sample(RoundState& round) {
  sim::PipelineCounters delta;
  for (int r = 0; r < machine_.num_devices(); ++r) {
    BatchState& batch = round.batches[static_cast<std::size_t>(r)];
    sim::Device& device = machine_.device(r);

    // The expansion ran host-side in prepare_round; this task charges its
    // cost on the simulated timeline: one row_ptr/col_idx scan plus the
    // sampled-id writes per hop.
    sim::TaskDesc task;
    task.label = "mb-sample";
    task.kind = sim::TaskKind::kSample;
    task.stage = round.index;
    task.cost.stream_bytes =
        static_cast<double>(batch.sub.total_edges()) * 16.0 +
        static_cast<double>(batch.sub.total_vertices()) * 8.0;
    task.cost.launches = sampler_.hops();
    delta.sample_seconds +=
        sim::CostModel::seconds(task.cost, device.profile());
    batch.sample_done = device.compute_stream().enqueue(std::move(task));
  }
  machine_.trace().record_pipeline(delta);
}

void SampledPipeline::enqueue_extract(RoundState& round) {
  const int P = machine_.num_devices();
  const std::int64_t d0 = dims_.front();
  const auto row_bytes = static_cast<std::uint64_t>(d0) * sizeof(float);
  sim::PipelineCounters delta;
  sim::CommVolume volume;

  // Stage 1 (per rank): assemble local rows and cache hits into gx.
  for (int r = 0; r < P; ++r) {
    BatchState& batch = round.batches[static_cast<std::size_t>(r)];
    RankState& state = *ranks_[static_cast<std::size_t>(r)];
    sim::Device& device = machine_.device(r);

    sim::TaskDesc task;
    task.label = "mb-assemble";
    task.kind = sim::TaskKind::kMemory;
    task.stage = round.index;
    const double rows =
        static_cast<double>(batch.local_rows.size() + batch.hit_slots.size());
    task.cost.gather_bytes = rows * static_cast<double>(row_bytes);
    task.cost.gather_working_set =
        static_cast<double>(state.features.bytes() + state.cache.bytes());
    task.cost.stream_bytes = rows * static_cast<double>(row_bytes);
    task.waits.push_back(batch.sample_done);
    mem::append_ready(&task.waits, batch.gx);  // first writer of the lease
    task.reads.push_back(state.features.access());
    if (!batch.hit_slots.empty()) {
      task.reads.push_back(state.cache.buffer().access());
    }
    task.writes.push_back(batch.gx.access());
    task.body = [&batch, &state, d0] {
      for (std::size_t i = 0; i < batch.local_rows.size(); ++i) {
        std::memcpy(batch.gx.data() + batch.local_dst[i] * d0,
                    state.features.data() +
                        static_cast<std::int64_t>(batch.local_rows[i]) * d0,
                    static_cast<std::size_t>(d0) * sizeof(float));
      }
      for (std::size_t i = 0; i < batch.hit_slots.size(); ++i) {
        std::memcpy(batch.gx.data() + batch.hit_dst[i] * d0,
                    state.cache.buffer().data() + batch.hit_slots[i] * d0,
                    static_cast<std::size_t>(d0) * sizeof(float));
      }
    };
    delta.extract_seconds +=
        sim::CostModel::seconds(task.cost, device.profile());
    device.comm_stream().enqueue(std::move(task));

    // The no-cache baseline would pull every remote row (hits included)
    // over the wire; bytes_saved() against this shows the cache's savings.
    volume.dense_bytes += (batch.sub.layers.back().size() -
                           batch.local_rows.size()) *
                          row_bytes;
  }

  // Stage 2: one sendv_rows collective per owning rank, node-aggregated.
  std::vector<std::vector<sim::Event>> arrivals(
      static_cast<std::size_t>(P));  // arrivals[dest]: its sendv events
  for (int o = 0; o < P; ++o) {
    std::vector<std::span<const std::uint32_t>> rows(
        static_cast<std::size_t>(P));
    bool any = false;
    for (int dest = 0; dest < P; ++dest) {
      if (dest == o) continue;
      const auto& want =
          round.batches[static_cast<std::size_t>(dest)]
              .want_from[static_cast<std::size_t>(o)];
      rows[static_cast<std::size_t>(dest)] = want;
      any = any || !want.empty();
    }
    if (!any) continue;

    std::vector<comm::RankPart> parts(static_cast<std::size_t>(P));
    for (int dest = 0; dest < P; ++dest) {
      BatchState& batch = round.batches[static_cast<std::size_t>(dest)];
      comm::RankPart& part = parts[static_cast<std::size_t>(dest)];
      if (dest == o) {
        part.buffer = &ranks_[static_cast<std::size_t>(o)]->features.buffer();
      } else if (!rows[static_cast<std::size_t>(dest)].empty()) {
        mem::PooledBuffer& rx = batch.rx[static_cast<std::size_t>(o)];
        part.buffer = &rx.buffer();
        mem::append_ready(&part.waits, rx);  // first writer of the lease
      }
      part.waits.push_back(batch.sample_done);
    }

    const comm::SendvShape shape = comm_.sendv_shape(rows, d0, o);
    volume.wire_bytes += shape.total_bytes();
    volume.wire_bytes_inter += shape.inter_bytes;
    volume.packs += static_cast<std::uint64_t>(shape.messages());
    volume.compact_stages += 1;
    // The collective occupies every rank's comm stream for its duration.
    delta.extract_seconds +=
        comm_.sendv_rows_seconds(shape) * static_cast<double>(P);

    std::vector<sim::Event> events = comm_.sendv_rows(
        std::move(parts), std::move(rows), d0, o, comm::StreamChoice::kComm,
        round.index);
    for (int dest = 0; dest < P; ++dest) {
      if (dest == o) continue;
      if (!round.batches[static_cast<std::size_t>(dest)]
               .want_from[static_cast<std::size_t>(o)]
               .empty()) {
        arrivals[static_cast<std::size_t>(dest)].push_back(
            events[static_cast<std::size_t>(dest)]);
      }
    }
  }

  // Stage 3 (per rank): scatter the landed rows into gx and copy this
  // round's cache admissions out of gx into their slots (fused into one
  // task so the cached path adds no extra launches over the off path).
  for (int r = 0; r < P; ++r) {
    BatchState& batch = round.batches[static_cast<std::size_t>(r)];
    RankState& state = *ranks_[static_cast<std::size_t>(r)];
    sim::Device& device = machine_.device(r);

    std::uint64_t landed = 0;
    for (const auto& want : batch.want_from) landed += want.size();
    if (landed == 0 && batch.admit_copies.empty()) {
      batch.extract_done = device.comm_stream().record_event();
      continue;
    }

    sim::TaskDesc task;
    task.label = "mb-scatter";
    task.kind = sim::TaskKind::kMemory;
    task.stage = round.index;
    task.cost.stream_bytes =
        2.0 * static_cast<double>(landed * row_bytes) +
        2.0 * static_cast<double>(batch.admit_copies.size() * row_bytes);
    task.waits = arrivals[static_cast<std::size_t>(r)];
    for (int o = 0; o < P; ++o) {
      if (!batch.rx[static_cast<std::size_t>(o)].empty()) {
        task.reads.push_back(batch.rx[static_cast<std::size_t>(o)].access());
      }
    }
    task.reads.push_back(batch.gx.access());
    task.writes.push_back(batch.gx.access());
    if (!batch.admit_copies.empty()) {
      task.writes.push_back(state.cache.buffer().access());
    }
    task.body = [&batch, &state, d0] {
      for (std::size_t o = 0; o < batch.want_dst.size(); ++o) {
        const auto& dst = batch.want_dst[o];
        if (dst.empty()) continue;
        const float* src = batch.rx[o].data();
        for (std::size_t i = 0; i < dst.size(); ++i) {
          std::memcpy(batch.gx.data() + dst[i] * d0,
                      src + static_cast<std::int64_t>(i) * d0,
                      static_cast<std::size_t>(d0) * sizeof(float));
        }
      }
      for (const auto& [gx_row, slot] : batch.admit_copies) {
        std::memcpy(state.cache.buffer().data() + slot * d0,
                    batch.gx.data() + gx_row * d0,
                    static_cast<std::size_t>(d0) * sizeof(float));
      }
    };
    delta.extract_seconds +=
        sim::CostModel::seconds(task.cost, device.profile());
    batch.extract_done = device.comm_stream().enqueue(std::move(task));

    // The scatter is the landing buffers' last consumer: hand the blocks
    // back for reuse (no-op unpooled), stream-ordered on its completion.
    for (auto& rx : batch.rx) {
      if (!rx.empty()) rx.recycle(batch.extract_done);
    }
  }

  machine_.trace().record_pipeline(delta);
  machine_.trace().record_comm_volume(volume);
}

void SampledPipeline::enqueue_train(RoundState& round) {
  const int P = machine_.num_devices();
  const int layers = num_layers();
  sim::PipelineCounters delta;

  std::int64_t global_seeds = 0;
  for (const auto& batch : round.batches) {
    global_seeds += static_cast<std::int64_t>(batch.sub.layers.front().size());
  }
  const int step = ++adam_step_;

  // Per-rank compute chain; wgrad completion events feed the allreduces.
  std::vector<std::vector<sim::Event>> wgrad_ready(
      static_cast<std::size_t>(P),
      std::vector<sim::Event>(static_cast<std::size_t>(layers)));
  for (int r = 0; r < P; ++r) {
    BatchState& batch = round.batches[static_cast<std::size_t>(r)];
    RankState& state = *ranks_[static_cast<std::size_t>(r)];
    sim::Device& device = machine_.device(r);
    sim::Stream& stream = device.compute_stream();
    const auto price = [&](const sim::KernelCost& cost) {
      delta.train_seconds += sim::CostModel::seconds(cost, device.profile());
    };

    // Forward.
    sim::DeviceBuffer* prev = &batch.gx.buffer();
    std::int64_t prev_rows =
        static_cast<std::int64_t>(batch.sub.layers.back().size());
    for (int l = 0; l < layers; ++l) {
      const auto ll = static_cast<std::size_t>(l);
      const sparse::Csr& block =
          batch.sub.blocks[static_cast<std::size_t>(layers - 1 - l)];
      if (pool_ != nullptr) {
        // Deferred from prepare_round: leased at the first writer, so
        // these blocks can come from the previous round's recycled
        // backward scratch.
        mem::WorkspacePool& pool = pool_->pool(r);
        batch.z[ll] = pool.acquire(
            static_cast<std::size_t>(block.rows() * dims_[ll]), "SMB:z",
            sim::Fill::kNone);
        batch.h[ll] = pool.acquire(
            static_cast<std::size_t>(block.rows() * dims_[ll + 1]), "SMB:h",
            sim::Fill::kNone);
      }

      sim::TaskDesc spmm;
      spmm.label = "mb-spmm-f";
      spmm.kind = sim::TaskKind::kSpMM;
      spmm.stage = round.index;
      spmm.cost = sparse::spmm_cost(block, dims_[ll]);
      if (l == 0) spmm.waits.push_back(batch.extract_done);
      mem::append_ready(&spmm.waits, batch.z[ll]);  // first writer
      spmm.reads.push_back(prev->access());
      spmm.writes.push_back(batch.z[ll].access());
      spmm.body = [&batch, &block, prev, prev_rows, ll, this] {
        sparse::spmm(block,
                     {prev->data(), prev_rows, dims_[ll]},
                     {batch.z[ll].data(), block.rows(), dims_[ll]});
      };
      price(spmm.cost);
      const sim::Event spmm_done = stream.enqueue(std::move(spmm));
      if (l == 0) {
        // The level-0 forward SpMM is the gather block's last consumer
        // (the scatter that wrote it is already ordered before).
        batch.gx.recycle(spmm_done);
      }

      sim::TaskDesc gemm;
      gemm.label = "mb-gemm-f";
      gemm.kind = sim::TaskKind::kGeMM;
      gemm.stage = round.index;
      gemm.cost = dense::gemm_cost(block.rows(), dims_[ll + 1], dims_[ll]);
      mem::append_ready(&gemm.waits, batch.h[ll]);  // first writer
      gemm.reads.push_back(batch.z[ll].access());
      gemm.reads.push_back(state.weights[ll].access());
      gemm.writes.push_back(batch.h[ll].access());
      gemm.body = [&batch, &state, &block, ll, this] {
        dense::gemm({batch.z[ll].data(), block.rows(), dims_[ll]},
                    {state.weights[ll].data(), dims_[ll], dims_[ll + 1]},
                    {batch.h[ll].data(), block.rows(), dims_[ll + 1]});
      };
      price(gemm.cost);
      stream.enqueue(std::move(gemm));

      if (l + 1 < layers) {
        sim::TaskDesc relu;
        relu.label = "mb-relu";
        relu.kind = sim::TaskKind::kActivation;
        relu.stage = round.index;
        const std::int64_t count = block.rows() * dims_[ll + 1];
        relu.cost = dense::elementwise_cost(count, 1, 1);
        relu.reads.push_back(batch.h[ll].access());
        relu.writes.push_back(batch.h[ll].access());
        relu.body = [&batch, ll, count] {
          dense::relu_forward(batch.h[ll].data(), batch.h[ll].data(), count);
        };
        price(relu.cost);
        stream.enqueue(std::move(relu));
      }

      prev = &batch.h[ll].buffer();
      prev_rows = block.rows();
    }

    // Fused loss + logits gradient, in place.
    {
      const auto seeds =
          static_cast<std::int64_t>(batch.sub.layers.front().size());
      const auto last = static_cast<std::size_t>(layers - 1);
      sim::TaskDesc loss;
      loss.label = "mb-loss";
      loss.kind = sim::TaskKind::kLoss;
      loss.stage = round.index;
      loss.cost = loss_cost(seeds, dims_.back());
      loss.reads.push_back(batch.h[last].access());
      loss.writes.push_back(batch.h[last].access());
      loss.body = [&batch, seeds, last, global_seeds, this] {
        batch.loss = softmax_cross_entropy_inplace(
            {batch.h[last].data(), seeds, dims_.back()}, batch.labels.data(),
            nullptr, global_seeds);
      };
      price(loss.cost);
      stream.enqueue(std::move(loss));
    }

    // Backward. `grad_lease` tracks which lease backs `grad` so it can be
    // handed back the moment its last reader is enqueued — together with
    // the per-level dz/dh recycling below, backward temporaries of
    // different levels share pool blocks (the footprint win the pool
    // exists for; a no-op chain when unpooled).
    sim::DeviceBuffer* grad =
        &batch.h[static_cast<std::size_t>(layers - 1)].buffer();
    mem::PooledBuffer* grad_lease =
        &batch.h[static_cast<std::size_t>(layers - 1)];
    std::int64_t grad_rows =
        static_cast<std::int64_t>(batch.sub.layers.front().size());
    for (int l = layers - 1; l >= 0; --l) {
      const auto ll = static_cast<std::size_t>(l);
      const sparse::Csr& block =
          batch.sub.blocks[static_cast<std::size_t>(layers - 1 - l)];

      sim::TaskDesc wgrad;
      wgrad.label = "mb-wgrad";
      wgrad.kind = sim::TaskKind::kGeMM;
      wgrad.stage = round.index;
      wgrad.cost = dense::gemm_cost(dims_[ll], dims_[ll + 1], block.rows());
      wgrad.reads.push_back(batch.z[ll].access());
      wgrad.reads.push_back(grad->access());
      wgrad.writes.push_back(state.wgrad[ll].access());
      wgrad.body = [&batch, &state, &block, grad, grad_rows, ll, this] {
        dense::gemm_at_b({batch.z[ll].data(), block.rows(), dims_[ll]},
                         {grad->data(), grad_rows, dims_[ll + 1]},
                         {state.wgrad[ll].data(), dims_[ll], dims_[ll + 1]});
      };
      price(wgrad.cost);
      wgrad_ready[static_cast<std::size_t>(r)][ll] =
          stream.enqueue(std::move(wgrad));
      // The weight gradient is z's last reader.
      batch.z[ll].recycle(wgrad_ready[static_cast<std::size_t>(r)][ll]);

      if (l > 0) {
        const sparse::Csr& block_t = batch.blocks_t[ll];
        if (pool_ != nullptr) {
          // Deferred acquisition: by now the previous level's dz/dh and
          // this level's z have been recycled, so these lease their blocks.
          mem::WorkspacePool& pool = pool_->pool(r);
          batch.dz[ll] = pool.acquire(
              static_cast<std::size_t>(block.rows() * dims_[ll]), "SMB:dz",
              sim::Fill::kNone);
          batch.dh[ll] = pool.acquire(
              static_cast<std::size_t>(block_t.rows() * dims_[ll]), "SMB:dh",
              sim::Fill::kNone);
        }

        sim::TaskDesc dz;
        dz.label = "mb-dz";
        dz.kind = sim::TaskKind::kGeMM;
        dz.stage = round.index;
        dz.cost = dense::gemm_cost(block.rows(), dims_[ll], dims_[ll + 1]);
        mem::append_ready(&dz.waits, batch.dz[ll]);  // first writer
        dz.reads.push_back(grad->access());
        dz.reads.push_back(state.weights[ll].access());
        dz.writes.push_back(batch.dz[ll].access());
        dz.body = [&batch, &state, &block, grad, grad_rows, ll, this] {
          dense::gemm_a_bt(
              {grad->data(), grad_rows, dims_[ll + 1]},
              {state.weights[ll].data(), dims_[ll], dims_[ll + 1]},
              {batch.dz[ll].data(), block.rows(), dims_[ll]});
        };
        price(dz.cost);
        const sim::Event dz_done = stream.enqueue(std::move(dz));
        // dz's GeMM is the incoming gradient's last reader (the wgrad read
        // precedes it on the same stream).
        grad_lease->recycle(dz_done);

        sim::TaskDesc spmm;
        spmm.label = "mb-spmm-b";
        spmm.kind = sim::TaskKind::kSpMM;
        spmm.stage = round.index;
        spmm.cost = sparse::spmm_cost(block_t, dims_[ll]);
        mem::append_ready(&spmm.waits, batch.dh[ll]);  // first writer
        spmm.reads.push_back(batch.dz[ll].access());
        spmm.writes.push_back(batch.dh[ll].access());
        spmm.body = [&batch, &block, &block_t, ll, this] {
          sparse::spmm(block_t,
                       {batch.dz[ll].data(), block.rows(), dims_[ll]},
                       {batch.dh[ll].data(), block_t.rows(), dims_[ll]});
        };
        price(spmm.cost);
        const sim::Event spmm_done = stream.enqueue(std::move(spmm));
        // The backward SpMM is dz's only reader.
        batch.dz[ll].recycle(spmm_done);

        // Mask by this level's input activation (h[l-1], post-ReLU).
        sim::TaskDesc mask;
        mask.label = "mb-relu-b";
        mask.kind = sim::TaskKind::kActivation;
        mask.stage = round.index;
        const std::int64_t count = block_t.rows() * dims_[ll];
        mask.cost = dense::elementwise_cost(count, 2, 1);
        mask.reads.push_back(batch.dh[ll].access());
        mask.reads.push_back(batch.h[ll - 1].access());
        mask.writes.push_back(batch.dh[ll].access());
        mask.body = [&batch, ll, count] {
          dense::relu_backward(batch.dh[ll].data(), batch.h[ll - 1].data(),
                               batch.dh[ll].data(), count);
        };
        price(mask.cost);
        const sim::Event mask_done = stream.enqueue(std::move(mask));
        // The mask is the last reader of the saved activation h[l-1].
        batch.h[ll - 1].recycle(mask_done);

        grad = &batch.dh[ll].buffer();
        grad_lease = &batch.dh[ll];
        grad_rows = block_t.rows();
      } else {
        // Level 0 propagates no gradient further; the wgrad above was the
        // incoming gradient's last reader.
        grad_lease->recycle(wgrad_ready[static_cast<std::size_t>(r)][ll]);
      }
    }
  }

  // Gradient allreduces (comm streams), in the order the grads become
  // ready (deepest layer last in backward = layer 0; enqueue L-1 .. 0).
  std::vector<std::vector<sim::Event>> reduced(
      static_cast<std::size_t>(layers));
  for (int l = layers - 1; l >= 0; --l) {
    const auto ll = static_cast<std::size_t>(l);
    std::vector<comm::RankPart> parts(static_cast<std::size_t>(P));
    for (int r = 0; r < P; ++r) {
      parts[static_cast<std::size_t>(r)].buffer =
          &ranks_[static_cast<std::size_t>(r)]->wgrad[ll].buffer();
      parts[static_cast<std::size_t>(r)].waits.push_back(
          wgrad_ready[static_cast<std::size_t>(r)][ll]);
    }
    reduced[ll] = comm_.allreduce_sum(
        std::move(parts), static_cast<std::size_t>(dims_[ll] * dims_[ll + 1]),
        comm::StreamChoice::kComm);
  }

  // Adam (compute streams), each layer gated on its allreduce.
  for (int r = 0; r < P; ++r) {
    RankState& state = *ranks_[static_cast<std::size_t>(r)];
    sim::Device& device = machine_.device(r);
    for (int l = layers - 1; l >= 0; --l) {
      const auto ll = static_cast<std::size_t>(l);
      const std::int64_t count = dims_[ll] * dims_[ll + 1];
      sim::TaskDesc adam;
      adam.label = "mb-adam";
      adam.kind = sim::TaskKind::kOptimizer;
      adam.stage = round.index;
      adam.cost = adam_cost(count);
      adam.waits.push_back(reduced[ll][static_cast<std::size_t>(r)]);
      adam.reads.push_back(state.wgrad[ll].access());
      adam.reads.push_back(state.weights[ll].access());
      adam.reads.push_back(state.adam_m[ll].access());
      adam.reads.push_back(state.adam_v[ll].access());
      adam.writes.push_back(state.weights[ll].access());
      adam.writes.push_back(state.adam_m[ll].access());
      adam.writes.push_back(state.adam_v[ll].access());
      adam.body = [&state, ll, count, step, this] {
        adam_update(state.weights[ll].data(), state.wgrad[ll].data(),
                    state.adam_m[ll].data(), state.adam_v[ll].data(), count,
                    step, options_.learning_rate, options_.beta1,
                    options_.beta2, options_.epsilon);
      };
      delta.train_seconds +=
          sim::CostModel::seconds(adam.cost, device.profile());
      device.compute_stream().enqueue(std::move(adam));
    }
    round.batches[static_cast<std::size_t>(r)].train_done =
        device.compute_stream().record_event();
  }

  machine_.trace().record_pipeline(delta);
}

void SampledPipeline::retire_round(RoundState& round) {
  for (auto& batch : round.batches) {
    if (batch.train_done.valid()) batch.train_done.wait();
  }
  for (const auto& batch : round.batches) {
    epoch_loss_sum_ += batch.loss.loss_sum;
    epoch_correct_ += batch.loss.correct;
    epoch_counted_ += batch.loss.counted;
    for (const auto& block : batch.sub.blocks) sparse::forget_spmm_plan(block);
    for (const auto& block : batch.blocks_t) sparse::forget_spmm_plan(block);
  }
  round.batches.clear();  // frees every scratch DeviceBuffer
}

EpochStats SampledPipeline::train_epoch() {
  const double mark = machine_.align_clocks();
  const sim::CommVolume volume_mark = machine_.trace().comm_volume();
  const sim::PipelineCounters pipe_mark = machine_.trace().pipeline_counters();
  const sim::PoolCounters pool_mark = machine_.trace().pool_counters();
  machine_.begin_epoch(epoch_);

  epoch_loss_sum_ = 0.0;
  epoch_correct_ = 0;
  epoch_counted_ = 0;
  for (auto& state : ranks_) state->rng.shuffle(state->order);

  std::deque<std::unique_ptr<RoundState>> inflight;
  const auto launch_front = [&](int index) {
    auto round = std::make_unique<RoundState>();
    round->index = index;
    prepare_round(*round);
    enqueue_sample(*round);
    enqueue_extract(*round);
    inflight.push_back(std::move(round));
  };

  if (options_.pipeline) {
    launch_front(0);
    for (int k = 0; k < rounds_per_epoch_; ++k) {
      if (k + 1 < rounds_per_epoch_) launch_front(k + 1);
      enqueue_train(*inflight.front());
      // Slide the window: wait out the round trained last iteration so at
      // most two rounds of scratch buffers are ever alive.
      if (inflight.size() > 1) {
        auto done = std::move(inflight.front());
        inflight.pop_front();
        retire_round(*done);
      }
    }
    while (!inflight.empty()) {
      auto done = std::move(inflight.front());
      inflight.pop_front();
      retire_round(*done);
    }
  } else {
    // Serialized baseline: machine-wide clock alignment between stages, so
    // no stage of any round overlaps another. Same tasks, same numerics.
    for (int k = 0; k < rounds_per_epoch_; ++k) {
      auto round = std::make_unique<RoundState>();
      round->index = k;
      prepare_round(*round);
      enqueue_sample(*round);
      machine_.align_clocks();
      enqueue_extract(*round);
      machine_.align_clocks();
      enqueue_train(*round);
      machine_.align_clocks();
      retire_round(*round);
    }
  }
  machine_.synchronize();

  EpochStats stats;
  stats.epoch = epoch_++;
  stats.sim_seconds = machine_.sim_time() - mark;
  stats.busy_by_kind = machine_.trace().busy_by_kind(mark);
  stats.peak_memory_bytes = machine_.max_memory_peak();
  stats.comm_retries = static_cast<int>(machine_.trace().fault_count(
      sim::FaultEventKind::kCommRetry, stats.epoch));
  const sim::CommVolume volume = machine_.trace().comm_volume();
  stats.comm_wire_bytes = volume.wire_bytes - volume_mark.wire_bytes;
  stats.comm_wire_bytes_inter =
      volume.wire_bytes_inter - volume_mark.wire_bytes_inter;
  stats.comm_bytes_saved = volume.bytes_saved() - volume_mark.bytes_saved();
  stats.comm_packs = volume.packs - volume_mark.packs;
  stats.comm_compact_stages =
      static_cast<int>(volume.compact_stages - volume_mark.compact_stages);
  stats.comm_dense_stages =
      static_cast<int>(volume.dense_stages - volume_mark.dense_stages);

  const sim::PoolCounters pool = machine_.trace().pool_counters();
  stats.pool_peak_bytes = pool.reserved_peak_bytes;  // absolute high-water
  stats.pool_reuse_hits = pool.reuse_hits - pool_mark.reuse_hits;
  stats.pool_fragmentation = pool.fragmentation_peak;

  const sim::PipelineCounters pipe = machine_.trace().pipeline_counters();
  stats.pipe_rounds = static_cast<int>(pipe.rounds - pipe_mark.rounds);
  stats.cache_hits =
      static_cast<std::int64_t>(pipe.cache_hits - pipe_mark.cache_hits);
  stats.cache_misses =
      static_cast<std::int64_t>(pipe.cache_misses - pipe_mark.cache_misses);
  stats.cache_evictions = static_cast<std::int64_t>(pipe.cache_evictions -
                                                    pipe_mark.cache_evictions);
  const std::int64_t lookups = stats.cache_hits + stats.cache_misses;
  stats.cache_hit_rate =
      lookups > 0 ? static_cast<double>(stats.cache_hits) /
                        static_cast<double>(lookups)
                  : 0.0;
  stats.pipe_sample_seconds = pipe.sample_seconds - pipe_mark.sample_seconds;
  stats.pipe_extract_seconds =
      pipe.extract_seconds - pipe_mark.extract_seconds;
  stats.pipe_train_seconds = pipe.train_seconds - pipe_mark.train_seconds;
  const double stream_seconds =
      2.0 * static_cast<double>(machine_.num_devices()) * stats.sim_seconds;
  stats.pipe_occupancy =
      stream_seconds > 0.0
          ? (stats.pipe_sample_seconds + stats.pipe_extract_seconds +
             stats.pipe_train_seconds) /
                stream_seconds
          : 0.0;

  stats.loss = epoch_counted_ > 0
                   ? epoch_loss_sum_ / static_cast<double>(epoch_counted_)
                   : 0.0;
  stats.train_accuracy =
      epoch_counted_ > 0 ? static_cast<double>(epoch_correct_) /
                               static_cast<double>(epoch_counted_)
                         : 0.0;
  return stats;
}

std::vector<EpochStats> SampledPipeline::train(int epochs) {
  std::vector<EpochStats> stats;
  stats.reserve(static_cast<std::size_t>(epochs));
  for (int e = 0; e < epochs; ++e) stats.push_back(train_epoch());
  return stats;
}

}  // namespace mggcn::core
