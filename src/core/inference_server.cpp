#include "core/inference_server.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dense/kernels.hpp"
#include "sim/cost_model.hpp"
#include "sparse/spmm.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mggcn::core {

namespace {

CacheMode to_feature_cache_mode(ServeCacheMode mode) {
  switch (mode) {
    case ServeCacheMode::kOff:
      return CacheMode::kOff;
    case ServeCacheMode::kEmbed:
      return CacheMode::kFreq;
    case ServeCacheMode::kAuto:
      return CacheMode::kAuto;
  }
  return CacheMode::kOff;
}

/// A task charged an exact simulated duration: the cost model prices
/// stream_bytes / memory_bandwidth with no launch alpha, so
/// seconds * bandwidth bytes lands exactly on `seconds`.
sim::KernelCost exact_seconds_cost(double seconds,
                                   const sim::DeviceProfile& profile) {
  sim::KernelCost cost;
  cost.stream_bytes = seconds * profile.memory_bandwidth;
  cost.launches = 0;
  return cost;
}

/// HBM cost of moving `rows` d-wide rows (one read + one write each).
sim::KernelCost row_copy_cost(std::int64_t rows, std::int64_t d) {
  sim::KernelCost cost;
  cost.stream_bytes =
      2.0 * static_cast<double>(rows) * static_cast<double>(d) * sizeof(float);
  cost.launches = 1;
  return cost;
}

/// Nearest-rank percentile of an ascending-sorted sample.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

InferenceServer::InferenceServer(sim::Machine& machine, MgGcnTrainer& trainer,
                                 const graph::Dataset& dataset,
                                 ServeOptions options)
    : machine_(machine),
      options_(options),
      partition_(trainer.partition()),
      perm_(trainer.perm().begin(), trainer.perm().end()) {
  MGGCN_CHECK_MSG(options_.max_batch >= 1 && options_.max_batch <= 4096,
                  "serve max_batch must be in [1, 4096]");
  MGGCN_CHECK_MSG(options_.slack_seconds >= 0.0,
                  "serve slack must be non-negative");
  MGGCN_CHECK_MSG(options_.cache_capacity_fraction >= 0.0 &&
                      options_.cache_capacity_fraction <= 1.0,
                  "serve cache capacity fraction must be in [0, 1]");

  const int num_layers = trainer.num_layers();
  const auto dims = trainer.dims();
  const std::int64_t d_in = dims[static_cast<std::size_t>(num_layers - 1)];
  d_out_ = dims[static_cast<std::size_t>(num_layers)];
  spmm_first_ = trainer.layer_spmm_first(num_layers - 1);
  d_store_ = spmm_first_ ? d_in : d_out_;

  // The serving forward operator is the trainer's Â^T, reassembled from
  // its forward tiles.
  a_hat_t_ = assemble_tile_grid(trainer.forward_planner().grid());
  MGGCN_CHECK_MSG(a_hat_t_.rows() == dataset.n(),
                  "serving dataset does not match the trainer's graph");

  comm_ = std::make_unique<comm::Communicator>(machine_);
  pool_ = mem::resolve_pool(options_.pool, machine_, options_.pool_mode);

  materialize_store(trainer);

  const bool real = machine_.mode() == sim::ExecutionMode::kReal;
  replicas_.resize(static_cast<std::size_t>(comm_->size()));
  for (int r = 0; r < comm_->size(); ++r) {
    auto& device = machine_.device(r);
    mem::WorkspacePool* pool = pool_ ? &pool_->pool(r) : nullptr;
    auto& rep = replicas_[static_cast<std::size_t>(r)];
    rep.store_shard = mem::acquire_or_alloc(
        pool, device, static_cast<std::size_t>(partition_.size(r) * d_store_),
        "SERVE_STORE");
    rep.out = mem::acquire_or_alloc(
        pool, device, static_cast<std::size_t>(options_.max_batch * d_out_),
        "SERVE_OUT");
    if (spmm_first_) {
      rep.tmp = mem::acquire_or_alloc(
          pool, device, static_cast<std::size_t>(options_.max_batch * d_store_),
          "SERVE_TMP");
    }
    // Long-lived serving state: join any previous tenants' completion
    // events at the stream level once, so every later serving task
    // inherits the reuse edge.
    mem::order_streams_after(device, rep.store_shard);
    mem::order_streams_after(device, rep.out);
    mem::order_streams_after(device, rep.tmp);
    if (real && store_.rows() > 0 && partition_.size(r) > 0) {
      dense::copy(store_.view().row(partition_.begin(r)),
                  rep.store_shard.span().data(),
                  partition_.size(r) * d_store_);
    }
    rep.chain = sim::Event::signaled(0.0);
  }

  build_caches();
}

InferenceServer::~InferenceServer() {
  // Pooled leases recycle on destruction; make sure no serving task still
  // reads them (serve() synchronizes, but be safe against early teardown).
  if (pool_ != nullptr) machine_.synchronize();
}

void InferenceServer::materialize_store(MgGcnTrainer& trainer) {
  if (machine_.mode() != sim::ExecutionMode::kReal) return;
  const int num_layers = trainer.num_layers();
  dense::HostMatrix penult = trainer.gather_activations(num_layers - 2);
  Checkpoint ckpt = trainer.checkpoint();
  if (spmm_first_) {
    // Store the penultimate activations; each query runs its 1-row SpMM
    // first and the last GeMM after, like the trainer's layer did.
    store_ = std::move(penult);
    weight_ = std::move(ckpt.weights.back());
    return;
  }
  // GeMM-first: fold the last weight into the store once. Run the GeMM in
  // the exact per-rank row blocks the trainer used, so the dispatched
  // kernel reproduces its HW matrix bit for bit.
  const dense::HostMatrix& w = ckpt.weights.back();
  store_ = dense::HostMatrix(penult.rows(), d_out_);
  for (int r = 0; r < partition_.parts(); ++r) {
    const std::int64_t begin = partition_.begin(r);
    const std::int64_t rows = partition_.size(r);
    if (rows == 0) continue;
    const dense::ConstMatrixView in{penult.view().row(begin), rows,
                                    penult.cols()};
    const dense::MatrixView out{store_.view().row(begin), rows, d_out_};
    dense::gemm(in, w.view(), out, 1.0f, 0.0f);
  }
}

void InferenceServer::build_caches() {
  CacheMode requested = to_feature_cache_mode(options_.cache_mode);
  // Admission is one kernel launch per batch; a batch of one query can
  // never amortize it against sub-microsecond per-row savings, so kAuto
  // keeps the cache only when micro-batching amortizes admission.
  // (Explicitly requested kEmbed is honored regardless.)
  const std::int64_t effective_batch =
      options_.policy == BatchPolicy::kPerRequest ? 1 : options_.max_batch;
  if (options_.cache_mode == ServeCacheMode::kAuto && effective_batch <= 1) {
    requested = CacheMode::kOff;
  }
  const std::int64_t n = partition_.total();
  const auto requested_rows = static_cast<std::int64_t>(
      options_.cache_capacity_fraction * static_cast<double>(n));
  const bool real = machine_.mode() == sim::ExecutionMode::kReal;

  FeatureCache::AutoDecision decision;
  bool any_enabled = false;
  for (int r = 0; r < comm_->size(); ++r) {
    auto& device = machine_.device(r);
    mem::WorkspacePool* pool = pool_ ? &pool_->pool(r) : nullptr;
    // Pooled: the cache shares the pool budget with the serving buffers
    // (free blocks are reusable headroom). Unpooled: the pre-pool formula,
    // bit for bit.
    const std::uint64_t available =
        pool != nullptr ? pool->available_bytes()
                        : device.profile().memory_bytes - device.memory_used();
    decision = FeatureCache::plan_auto(requested, requested_rows, d_store_,
                                       *comm_, device.profile(), available);
    auto& rep = replicas_[static_cast<std::size_t>(r)];
    rep.cache = FeatureCache(pool, device, d_store_, decision.capacity_rows,
                             decision.mode);
    mem::order_streams_after(device, rep.cache.lease());
    if (!rep.cache.enabled()) continue;
    any_enabled = true;

    // Degree-scored prefill of the remote rows (local shard rows are free).
    std::vector<std::uint32_t> remote;
    std::vector<std::int64_t> scores;
    remote.reserve(static_cast<std::size_t>(n - partition_.size(r)));
    for (std::int64_t g = 0; g < n; ++g) {
      if (g >= partition_.begin(r) && g < partition_.end(r)) continue;
      remote.push_back(static_cast<std::uint32_t>(g));
      scores.push_back(a_hat_t_.row_nnz(g));
    }
    rep.cache.prefill(remote, scores);
    if (real && store_.rows() > 0) {
      const auto pinned = rep.cache.pinned();
      float* data = rep.cache.buffer().span().data();
      for (std::size_t slot = 0; slot < pinned.size(); ++slot) {
        dense::copy(store_.view().row(pinned[slot]),
                    data + static_cast<std::int64_t>(slot) * d_store_,
                    d_store_);
      }
    }
  }
  cache_mode_used_ =
      any_enabled ? ServeCacheMode::kEmbed : ServeCacheMode::kOff;

  // Price one full micro-batch for the deadline policy: the frontier's
  // local/cached rows at the hit price, uncached remote rows at the wire
  // price, plus the inference kernels.
  const auto& profile = machine_.device(0).profile();
  const double avg_deg =
      n > 0 ? static_cast<double>(a_hat_t_.nnz()) / static_cast<double>(n)
            : 0.0;
  const double rows =
      static_cast<double>(options_.max_batch) * std::max(avg_deg, 1.0);
  const int parts = comm_->size();
  const double remote_rows =
      parts > 1 ? rows * static_cast<double>(parts - 1) /
                      static_cast<double>(parts)
                : 0.0;
  const double remote_price = any_enabled ? decision.hit_seconds_per_row
                                          : decision.miss_seconds_per_row;
  double seconds = (rows - remote_rows) * decision.hit_seconds_per_row +
                   remote_rows * remote_price;
  const auto spmm = sparse::spmm_cost(
      static_cast<std::int64_t>(rows), options_.max_batch,
      static_cast<std::int64_t>(rows), d_store_);
  seconds += sim::CostModel::seconds(spmm, profile);
  if (spmm_first_) {
    seconds += sim::CostModel::seconds(
        dense::gemm_cost(options_.max_batch, d_out_, d_store_), profile);
  }
  seconds += 2.0 * profile.kernel_launch_overhead;
  est_batch_seconds_ = seconds;
}

std::vector<InferenceServer::PlannedBatch> InferenceServer::plan_batches(
    std::span<const serve::Request> requests) {
  // The boundary pass: which requests each batch takes and when it closes.
  // Cheap, and each boundary depends on the one before it.
  std::vector<PlannedBatch> batches;
  const auto n_req = static_cast<std::int64_t>(requests.size());
  const int parts = comm_->size();
  std::int64_t i = 0;
  int next_replica = 0;
  while (i < n_req) {
    PlannedBatch batch;
    batch.replica = next_replica;
    next_replica = (next_replica + 1) % parts;
    batch.first_request = i;

    std::int64_t j = i + 1;
    if (options_.policy == BatchPolicy::kPerRequest) {
      batch.close_time = requests[static_cast<std::size_t>(i)].arrival;
    } else if (options_.policy == BatchPolicy::kFixed) {
      j = std::min(n_req, i + options_.max_batch);
      batch.close_time = requests[static_cast<std::size_t>(j - 1)].arrival;
    } else {
      // kDeadline: wait up to the slack, but never past the point where a
      // member's deadline could no longer absorb the priced service time.
      const auto& first = requests[static_cast<std::size_t>(i)];
      double limit = first.arrival + options_.slack_seconds;
      if (first.deadline > 0.0) {
        limit = std::min(
            limit, std::max(first.arrival, first.deadline - est_batch_seconds_));
      }
      while (j < n_req && j - i < options_.max_batch &&
             requests[static_cast<std::size_t>(j)].arrival <= limit) {
        const auto& req = requests[static_cast<std::size_t>(j)];
        if (req.deadline > 0.0) {
          limit = std::min(
              limit, std::max(req.arrival, req.deadline - est_batch_seconds_));
        }
        ++j;
      }
      const bool full = j - i == options_.max_batch;
      batch.close_time =
          full ? requests[static_cast<std::size_t>(j - 1)].arrival : limit;
    }
    batch.num_requests = j - i;
    i = j;
    batches.push_back(std::move(batch));
  }

  // The per-batch plans, on every core: contiguous chunks of batches, each
  // chunk with its own tables, so the chunks share nothing they write.
  const auto n_batches = static_cast<std::int64_t>(batches.size());
  const std::int64_t chunks = std::min(n_batches, util::hardware_threads());
  if (static_cast<std::int64_t>(plan_tables_.size()) < chunks) {
    plan_tables_.resize(
        static_cast<std::size_t>(chunks),
        PlanTables{std::vector<PlanSlot>(
            static_cast<std::size_t>(a_hat_t_.cols()))});
  }
  util::parallel_for(chunks, [&](std::int64_t c) {
    PlanTables* tables = &plan_tables_[static_cast<std::size_t>(c)];
    for (std::int64_t b = c * n_batches / chunks;
         b < (c + 1) * n_batches / chunks; ++b) {
      plan_batch(&batches[static_cast<std::size_t>(b)], requests, tables);
    }
  });
  return batches;
}

void InferenceServer::plan_batch(PlannedBatch* batch,
                                 std::span<const serve::Request> requests,
                                 PlanTables* tables) const {
  const auto row_ptr = a_hat_t_.row_ptr();
  const auto col_idx = a_hat_t_.col_idx();
  const auto values = a_hat_t_.values();
  const auto batch_requests = requests.subspan(
      static_cast<std::size_t>(batch->first_request),
      static_cast<std::size_t>(batch->num_requests));
  std::vector<PlanSlot>& slots = tables->slots;

  // Dedupe the batch's neighbor columns with a per-batch stamp, then sort:
  // the same ascending union a sort + unique of every edge would give.
  if (++tables->stamp == 0) {
    std::fill(slots.begin(), slots.end(), PlanSlot{});
    tables->stamp = 1;
  }
  const std::uint32_t stamp = tables->stamp;
  std::vector<std::uint32_t>& frontier = batch->frontier;
  std::size_t edges = 0;
  for (const serve::Request& req : batch_requests) {
    const std::uint32_t g = perm_[req.vertex];
    edges += static_cast<std::size_t>(row_ptr[g + 1] - row_ptr[g]);
    for (std::int64_t e = row_ptr[g]; e < row_ptr[g + 1]; ++e) {
      const std::uint32_t c = col_idx[static_cast<std::size_t>(e)];
      if (slots[c].stamp == stamp) continue;
      slots[c].stamp = stamp;
      frontier.push_back(c);
    }
  }
  std::sort(frontier.begin(), frontier.end());
  for (std::size_t pos = 0; pos < frontier.size(); ++pos) {
    slots[frontier[pos]].pos = static_cast<std::uint32_t>(pos);
  }

  // The batch adjacency with columns compacted to frontier positions. The
  // remap is monotone, so each output element accumulates its edges in the
  // same (ascending-column CSR) order as the trainer's staged SpMM — the
  // bit-identity contract of sparse/spmm.hpp.
  std::vector<std::int64_t> bp;
  std::vector<std::uint32_t> bc;
  std::vector<float> bv;
  bp.reserve(batch_requests.size() + 1);
  bc.reserve(edges);
  bv.reserve(edges);
  bp.push_back(0);
  for (const serve::Request& req : batch_requests) {
    const std::uint32_t g = perm_[req.vertex];
    for (std::int64_t e = row_ptr[g]; e < row_ptr[g + 1]; ++e) {
      bc.push_back(slots[col_idx[static_cast<std::size_t>(e)]].pos);
      bv.push_back(values[static_cast<std::size_t>(e)]);
    }
    bp.push_back(static_cast<std::int64_t>(bc.size()));
  }
  batch->adj = sparse::Csr(batch->num_requests,
                           static_cast<std::int64_t>(frontier.size()),
                           std::move(bp), std::move(bc), std::move(bv));

  // The replica's shard is one contiguous id range, so its rows form one
  // slice of the ascending frontier; the rest, in order, is remote.
  const auto lower = [&](std::int64_t id) {
    return std::lower_bound(frontier.begin(), frontier.end(),
                            static_cast<std::uint32_t>(id)) -
           frontier.begin();
  };
  batch->local_begin = lower(partition_.begin(batch->replica));
  batch->local_end = lower(partition_.end(batch->replica));
  batch->remote.reserve(frontier.size() -
                        static_cast<std::size_t>(batch->local_end -
                                                 batch->local_begin));
  batch->remote.insert(batch->remote.end(), frontier.begin(),
                       frontier.begin() + batch->local_begin);
  batch->remote.insert(batch->remote.end(),
                       frontier.begin() + batch->local_end, frontier.end());
}

sim::Event InferenceServer::enqueue_batch(const PlannedBatch& batch,
                                          double base, ServeStats* stats) {
  const int r = batch.replica;
  auto& rep = replicas_[static_cast<std::size_t>(r)];
  auto& device = machine_.device(r);
  const auto& profile = device.profile();
  const bool real = machine_.mode() == sim::ExecutionMode::kReal;
  const sim::Event open = sim::Event::signaled(base + batch.close_time);
  const std::int64_t batch_size = batch.num_requests;

  // Row copies src -> dst; dst = frontier position = scratch row.
  struct RowCopy {
    std::int64_t src = 0;
    std::int64_t dst = 0;
  };
  auto part = rep.cache.lookup(batch.remote);
  stats->serve_cache_hits += part.hit_vertices.size();
  stats->serve_cache_misses += part.miss_vertices.size();

  // Hits and misses are order-preserving subsequences of the remote rows,
  // so one walk over them recovers each row's frontier position.
  std::vector<RowCopy> hit_copies;
  std::vector<std::int64_t> miss_pos;
  hit_copies.reserve(part.hit_vertices.size());
  miss_pos.reserve(part.miss_vertices.size());
  for (std::size_t i = 0, next_hit = 0; i < batch.remote.size(); ++i) {
    if (next_hit < part.hit_vertices.size() &&
        part.hit_vertices[next_hit] == batch.remote[i]) {
      hit_copies.push_back(
          {part.hit_slots[next_hit], batch.remote_position(i)});
      ++next_hit;
    } else {
      miss_pos.push_back(batch.remote_position(i));
    }
  }

  // 1. Remote misses: one priced pull per owner on the comm stream, charged
  // what a compacted sendv of those rows costs (no collective rendezvous —
  // serving must not stall the other replicas).
  std::vector<sim::Event> pulls;
  double gather_seconds = 0.0;
  std::size_t m = 0;
  while (m < part.miss_vertices.size()) {
    const int owner = partition_.part_of(part.miss_vertices[m]);
    std::vector<std::uint32_t> owner_rows;  // owner-local, ascending
    std::vector<RowCopy> copies;
    while (m < part.miss_vertices.size() &&
           partition_.part_of(part.miss_vertices[m]) == owner) {
      const std::uint32_t g = part.miss_vertices[m];
      owner_rows.push_back(
          static_cast<std::uint32_t>(g - partition_.begin(owner)));
      copies.push_back({static_cast<std::int64_t>(g - partition_.begin(owner)),
                        miss_pos[m]});
      ++m;
    }
    std::vector<std::span<const std::uint32_t>> rows(
        static_cast<std::size_t>(comm_->size()));
    rows[static_cast<std::size_t>(r)] = owner_rows;
    const double seconds =
        comm_->sendv_rows_seconds(comm_->sendv_shape(rows, d_store_, owner));
    gather_seconds += seconds;

    sim::TaskDesc task;
    task.label = "serve-pull";
    task.kind = sim::TaskKind::kComm;
    task.cost = exact_seconds_cost(seconds, profile);
    task.waits = {open, rep.chain};
    task.reads = {
        replicas_[static_cast<std::size_t>(owner)].store_shard.access()};
    task.writes = {rep.scratch.access()};
    if (real) {
      auto* src = &replicas_[static_cast<std::size_t>(owner)].store_shard;
      auto* dst = &rep.scratch;
      const std::int64_t d = d_store_;
      task.body = [src, dst, moved = std::move(copies), d] {
        for (const auto& c : moved) {
          dense::copy(src->span().data() + c.src * d,
                      dst->span().data() + c.dst * d, d);
        }
      };
    }
    pulls.push_back(device.comm_stream().enqueue(std::move(task)));
  }

  // 2. Local shard rows + cache hits, gathered at HBM cost.
  const std::int64_t gathered =
      batch.local_end - batch.local_begin +
      static_cast<std::int64_t>(hit_copies.size());
  if (gathered > 0) {
    sim::TaskDesc task;
    task.label = "serve-gather";
    task.kind = sim::TaskKind::kMemory;
    task.cost = row_copy_cost(gathered, d_store_);
    task.waits = pulls;
    task.waits.push_back(open);
    task.waits.push_back(rep.chain);
    task.reads = {rep.store_shard.access()};
    if (!hit_copies.empty()) task.reads.push_back(rep.cache.buffer().access());
    task.writes = {rep.scratch.access()};
    gather_seconds += sim::CostModel::seconds(task.cost, profile);
    if (real) {
      auto* shard = &rep.store_shard;
      auto* cache_buf = &rep.cache.buffer();
      auto* dst = &rep.scratch;
      const std::int64_t d = d_store_;
      const std::int64_t shard_begin = partition_.begin(r);
      task.body = [shard, cache_buf, dst, &batch, shard_begin,
                   hits = std::move(hit_copies), d] {
        for (std::int64_t pos = batch.local_begin; pos < batch.local_end;
             ++pos) {
          const std::int64_t row =
              batch.frontier[static_cast<std::size_t>(pos)] - shard_begin;
          dense::copy(shard->span().data() + row * d,
                      dst->span().data() + pos * d, d);
        }
        for (const auto& c : hits) {
          dense::copy(cache_buf->span().data() + c.src * d,
                      dst->span().data() + c.dst * d, d);
        }
      };
    }
    device.compute_stream().enqueue(std::move(task));
  }

  // 3. Inference: the batch SpMM over the gathered frontier (and the last
  // GeMM when the layer ran SpMM-first). naive::spmm is the reference
  // kernel every policy matches bit for bit at beta == 0.
  const auto frontier_rows = static_cast<std::int64_t>(batch.frontier.size());
  double infer_seconds = 0.0;
  sim::TaskDesc spmm_task;
  spmm_task.label = "serve-infer";
  spmm_task.kind = sim::TaskKind::kSpMM;
  spmm_task.stage = -1;
  spmm_task.cost = sparse::spmm_cost(batch.adj.nnz(), batch_size,
                                     std::max<std::int64_t>(frontier_rows, 1),
                                     d_store_);
  spmm_task.waits = pulls;  // gather ordering comes from the stream
  spmm_task.waits.push_back(open);
  spmm_task.waits.push_back(rep.chain);
  spmm_task.reads = {rep.scratch.access()};
  spmm_task.writes = {spmm_first_ ? rep.tmp.access() : rep.out.access()};
  infer_seconds += sim::CostModel::seconds(spmm_task.cost, profile);
  if (real) {
    const auto* adj = &batch.adj;
    auto* scratch = &rep.scratch;
    auto* out = spmm_first_ ? &rep.tmp : &rep.out;
    const std::int64_t d = d_store_;
    auto* predictions = &predictions_;
    const bool write_predictions = !spmm_first_;
    const std::int64_t first = batch.first_request;
    spmm_task.body = [adj, scratch, out, d, frontier_rows, batch_size,
                      predictions, write_predictions, first] {
      const dense::ConstMatrixView b{scratch->span().data(), frontier_rows, d};
      const dense::MatrixView c{out->span().data(), batch_size, d};
      sparse::naive::spmm(*adj, b, c, 1.0f, 0.0f);
      if (write_predictions) {
        for (std::int64_t q = 0; q < batch_size; ++q) {
          dense::copy(c.row(q), predictions->view().row(first + q), d);
        }
      }
    };
  }
  sim::Event completion = device.compute_stream().enqueue(std::move(spmm_task));

  if (spmm_first_) {
    sim::TaskDesc gemm_task;
    gemm_task.label = "serve-infer-gemm";
    gemm_task.kind = sim::TaskKind::kGeMM;
    gemm_task.cost = dense::gemm_cost(batch_size, d_out_, d_store_);
    gemm_task.reads = {rep.tmp.access()};
    gemm_task.writes = {rep.out.access()};
    infer_seconds += sim::CostModel::seconds(gemm_task.cost, profile);
    if (real) {
      auto* tmp = &rep.tmp;
      auto* out = &rep.out;
      const std::int64_t d_in = d_store_;
      const std::int64_t d_out = d_out_;
      auto* weight = &weight_;
      auto* predictions = &predictions_;
      const std::int64_t first = batch.first_request;
      gemm_task.body = [tmp, out, weight, d_in, d_out, batch_size, predictions,
                        first] {
        const dense::ConstMatrixView a{tmp->span().data(), batch_size, d_in};
        const dense::MatrixView c{out->span().data(), batch_size, d_out};
        dense::gemm(a, weight->view(), c, 1.0f, 0.0f);
        for (std::int64_t q = 0; q < batch_size; ++q) {
          dense::copy(c.row(q), predictions->view().row(first + q), d_out);
        }
      };
    }
    completion = device.compute_stream().enqueue(std::move(gemm_task));
  }

  // 4. Frequency-aware admission of this batch's pulled rows.
  sim::Event chain = completion;
  const auto admitted = rep.cache.admit(part.miss_vertices);
  if (!admitted.empty()) {
    std::vector<RowCopy> copies;
    copies.reserve(admitted.size());
    for (const auto& [vertex, slot] : admitted) {
      const auto pos = std::lower_bound(batch.frontier.begin(),
                                        batch.frontier.end(), vertex) -
                       batch.frontier.begin();
      copies.push_back({pos, slot});
    }
    sim::TaskDesc task;
    task.label = "serve-admit";
    task.kind = sim::TaskKind::kMemory;
    task.cost = row_copy_cost(static_cast<std::int64_t>(admitted.size()),
                              d_store_);
    task.reads = {rep.scratch.access()};
    task.writes = {rep.cache.buffer().access()};
    gather_seconds += sim::CostModel::seconds(task.cost, profile);
    if (real) {
      auto* scratch = &rep.scratch;
      auto* cache_buf = &rep.cache.buffer();
      const std::int64_t d = d_store_;
      task.body = [scratch, cache_buf, moved = std::move(copies), d] {
        for (const auto& c : moved) {
          dense::copy(scratch->span().data() + c.src * d,
                      cache_buf->span().data() + c.dst * d, d);
        }
      };
    }
    chain = device.compute_stream().enqueue(std::move(task));
  }
  rep.chain = chain;

  stats->serve_gather_seconds += gather_seconds;
  stats->serve_infer_seconds += infer_seconds;
  return completion;
}

void InferenceServer::enqueue_invalidate(const serve::GraphUpdate& update,
                                         double base, ServeStats* stats) {
  stats->serve_graph_updates += 1;
  std::vector<std::uint32_t> touched;
  touched.reserve(update.vertices.size());
  for (const std::uint32_t v : update.vertices) touched.push_back(perm_[v]);
  std::sort(touched.begin(), touched.end());

  for (int r = 0; r < comm_->size(); ++r) {
    auto& rep = replicas_[static_cast<std::size_t>(r)];
    if (!rep.cache.enabled()) continue;
    std::size_t dropped = 0;
    const auto relocations = rep.cache.invalidate(touched, &dropped);
    stats->serve_invalidations += static_cast<std::int64_t>(dropped);
    if (relocations.empty()) continue;

    sim::TaskDesc task;
    task.label = "serve-invalidate";
    task.kind = sim::TaskKind::kMemory;
    task.cost = row_copy_cost(static_cast<std::int64_t>(relocations.size()),
                              d_store_);
    task.waits = {sim::Event::signaled(base + update.time)};
    task.reads = {rep.cache.buffer().access()};
    task.writes = {rep.cache.buffer().access()};
    if (machine_.mode() == sim::ExecutionMode::kReal) {
      auto* cache_buf = &rep.cache.buffer();
      const std::int64_t d = d_store_;
      task.body = [cache_buf, moved = relocations, d] {
        // Relocations are valid applied in order (each is recorded against
        // the bookkeeping state after the previous one).
        for (const auto& reloc : moved) {
          dense::copy(cache_buf->span().data() + reloc.from_slot * d,
                      cache_buf->span().data() + reloc.to_slot * d, d);
        }
      };
    }
    machine_.device(r).compute_stream().enqueue(std::move(task));
  }
}

ServeStats InferenceServer::serve(std::span<const serve::Request> requests,
                                  std::span<const serve::GraphUpdate> updates) {
  ServeStats stats;
  MGGCN_CHECK_MSG(
      std::is_sorted(requests.begin(), requests.end(),
                     [](const serve::Request& a, const serve::Request& b) {
                       return a.arrival < b.arrival;
                     }),
      "serve requests must be arrival-ordered");
  for (const auto& req : requests) {
    MGGCN_CHECK_MSG(req.vertex < perm_.size(),
                    "serve request vertex out of range");
  }
  // The batch/update merge below relies on time order, and invalidation
  // maps every touched vertex through perm_.
  MGGCN_CHECK_MSG(
      std::is_sorted(updates.begin(), updates.end(),
                     [](const serve::GraphUpdate& a,
                        const serve::GraphUpdate& b) {
                       return a.time < b.time;
                     }),
      "serve graph updates must be time-ordered");
  for (const auto& update : updates) {
    for (const std::uint32_t v : update.vertices) {
      MGGCN_CHECK_MSG(v < perm_.size(),
                      "serve graph-update vertex out of range");
    }
  }

  if (requests.empty()) {
    // An update-only window: its invalidations still reach the caches, but
    // there is nothing to batch and no latency to report.
    const double base = machine_.align_clocks();
    for (const auto& update : updates) enqueue_invalidate(update, base, &stats);
    machine_.synchronize();
    predictions_ = dense::HostMatrix();
    return stats;
  }

  auto batches = plan_batches(requests);

  // Size each replica's gather scratch for its largest frontier, then pin
  // the serving timeline to the machine clock.
  std::vector<std::int64_t> max_rows(replicas_.size(), 1);
  for (const auto& batch : batches) {
    max_rows[static_cast<std::size_t>(batch.replica)] =
        std::max(max_rows[static_cast<std::size_t>(batch.replica)],
                 static_cast<std::int64_t>(batch.frontier.size()));
  }
  const double base = machine_.align_clocks();
  for (std::size_t r = 0; r < replicas_.size(); ++r) {
    sim::Device& device = machine_.device(static_cast<int>(r));
    mem::WorkspacePool* pool =
        pool_ ? &pool_->pool(static_cast<int>(r)) : nullptr;
    replicas_[r].scratch = mem::acquire_or_alloc(
        pool, device, static_cast<std::size_t>(max_rows[r] * d_store_),
        "SERVE_GATHER");
    mem::order_streams_after(device, replicas_[r].scratch);
    replicas_[r].chain = sim::Event::signaled(base);
  }
  predictions_ =
      machine_.mode() == sim::ExecutionMode::kReal
          ? dense::HostMatrix(static_cast<std::int64_t>(requests.size()),
                              d_out_)
          : dense::HostMatrix();

  // Enqueue batches and graph updates in timeline order, so the cache
  // bookkeeping (host side) matches the order the device tasks execute.
  // The task bodies read `batches`: if an enqueue throws, drain what is
  // already queued before they go out of scope.
  std::vector<sim::Event> completions(batches.size());
  try {
    std::size_t bi = 0;
    std::size_t ui = 0;
    while (bi < batches.size() || ui < updates.size()) {
      if (ui < updates.size() &&
          (bi == batches.size() ||
           updates[ui].time <= batches[bi].close_time)) {
        enqueue_invalidate(updates[ui], base, &stats);
        ++ui;
      } else {
        completions[bi] = enqueue_batch(batches[bi], base, &stats);
        ++bi;
      }
    }
  } catch (...) {
    machine_.synchronize();
    throw;
  }
  machine_.synchronize();

  std::vector<double> latencies;
  latencies.reserve(requests.size());
  double last_completion = base;
  std::int64_t deadline_total = 0;
  std::int64_t deadline_missed = 0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const double done = completions[b].wait();
    last_completion = std::max(last_completion, done);
    const auto& batch = batches[b];
    for (std::int64_t id = batch.first_request;
         id < batch.first_request + batch.num_requests; ++id) {
      const auto& req = requests[static_cast<std::size_t>(id)];
      latencies.push_back(done - (base + req.arrival));
      if (req.deadline > 0.0) {
        ++deadline_total;
        if (done > base + req.deadline) ++deadline_missed;
      }
    }
  }
  std::sort(latencies.begin(), latencies.end());

  stats.serve_requests = static_cast<std::int64_t>(requests.size());
  stats.serve_batches = static_cast<std::int64_t>(batches.size());
  stats.serve_mean_batch_size =
      static_cast<double>(stats.serve_requests) /
      static_cast<double>(stats.serve_batches);
  stats.serve_span_seconds =
      last_completion - (base + requests.front().arrival);
  stats.serve_qps = stats.serve_span_seconds > 0.0
                        ? static_cast<double>(stats.serve_requests) /
                              stats.serve_span_seconds
                        : 0.0;
  stats.serve_p50_latency = percentile(latencies, 0.5);
  stats.serve_p99_latency = percentile(latencies, 0.99);
  stats.serve_max_latency = latencies.back();
  double sum = 0.0;
  for (const double l : latencies) sum += l;
  stats.serve_mean_latency = sum / static_cast<double>(latencies.size());
  stats.serve_deadline_miss_rate =
      deadline_total > 0 ? static_cast<double>(deadline_missed) /
                               static_cast<double>(deadline_total)
                         : 0.0;
  const auto looked_up = stats.serve_cache_hits + stats.serve_cache_misses;
  stats.serve_cache_hit_rate =
      looked_up > 0
          ? static_cast<double>(stats.serve_cache_hits) /
                static_cast<double>(looked_up)
          : 0.0;

  // Hand the gather scratch back between serve() calls so a co-resident
  // trainer or pipeline can reuse the blocks. The machine was synchronized
  // above, so recycling without a recorded event is hazard-clean (the
  // host-side join already ordered every serving task).
  for (auto& rep : replicas_) rep.scratch.recycle();
  return stats;
}

}  // namespace mggcn::core
