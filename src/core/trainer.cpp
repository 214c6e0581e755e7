#include "core/trainer.hpp"

#include <algorithm>
#include <numeric>

#include "core/layer_ops.hpp"
#include "dense/kernels.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace mggcn::core {

std::vector<dense::HostMatrix> init_weights(
    const std::vector<std::int64_t>& dims, std::uint64_t seed) {
  MGGCN_CHECK(dims.size() >= 2);
  util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  std::vector<dense::HostMatrix> weights;
  weights.reserve(dims.size() - 1);
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    dense::HostMatrix w(dims[l], dims[l + 1]);
    w.init_glorot(rng);
    weights.push_back(std::move(w));
  }
  return weights;
}

std::vector<std::int64_t> layer_dims(const graph::Dataset& dataset,
                                     const TrainConfig& config) {
  std::vector<std::int64_t> dims;
  dims.push_back(dataset.spec.feature_dim);
  for (const auto h : config.hidden_dims) dims.push_back(h);
  dims.push_back(dataset.spec.num_classes);
  return dims;
}

std::uint64_t replicated_state_bytes(const std::vector<std::int64_t>& dims) {
  std::uint64_t params = 0;
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    params += static_cast<std::uint64_t>(dims[l] * dims[l + 1]);
  }
  return 4 * params * sizeof(float);  // w, w_grad, adam m, adam v
}

MgGcnTrainer::MgGcnTrainer(sim::Machine& machine,
                           const graph::Dataset& dataset, TrainConfig config)
    : machine_(machine), config_(std::move(config)) {
  dims_ = layer_dims(dataset, config_);
  build_plan();

  // Overlapping steals HBM bandwidth from SpMM (the paper's ~1/6 on V100)
  // and slightly slows the broadcasts themselves (§6.3, Fig. 8).
  const double comm_bw =
      machine_.profile().interconnect.collective_bandwidth();
  const double mem_bw = machine_.profile().device.memory_bandwidth;
  const bool overlapping = config_.overlap && machine_.num_devices() > 1;
  compute_bandwidth_scale_ =
      overlapping ? std::max(0.5, 1.0 - comm_bw / mem_bw) : 1.0;
  comm::CommOptions comm_options;
  comm_options.duration_scale =
      (overlapping ? 1.10 : 1.0) / std::max(config_.comm_efficiency, 1e-3);
  comm_ = std::make_unique<comm::Communicator>(machine_, comm_options);

  util::WallTimer timer;
  preprocess(dataset);
  preprocessing_seconds_ = timer.elapsed_seconds();

  pool_ = mem::resolve_pool(config_.pool, machine_, config_.pool_mode);
  allocate_buffers();
  upload_inputs(dataset);
}

MgGcnTrainer::~MgGcnTrainer() { machine_.synchronize(); }

void MgGcnTrainer::build_plan() {
  const int layers = num_layers();
  plan_.clear();
  for (int l = 0; l < layers; ++l) {
    LayerPlan plan;
    plan.d_in = dims_[static_cast<std::size_t>(l)];
    plan.d_out = dims_[static_cast<std::size_t>(l) + 1];
    // §4.4: if d(l) < d(l+1), SpMM on the narrow side first is cheaper.
    plan.spmm_first = config_.reorder_gemm_spmm
                          ? plan.d_in < plan.d_out
                          : config_.spmm_first_when_no_reorder;
    plan.has_relu = l + 1 < layers;
    const bool autograd_skip =
        config_.autograd_aggregation_reuse && plan.spmm_first;
    plan.skip_backward_spmm =
        l == 0 && !config_.input_grad_needed &&
        (config_.skip_first_backward_spmm || autograd_skip);
    plan_.push_back(plan);
  }
}

void MgGcnTrainer::preprocess(const graph::Dataset& dataset) {
  const int p = machine_.num_devices();
  const sim::InterconnectProfile& inter = machine_.profile().interconnect;

  // Vertex ordering + cut points through the partitioner registry: §5.2's
  // random permutation (the default, bit-identical to the historical
  // path), nnz-balanced prefix cuts, or the locality-aware/hierarchical
  // min-cut modes. kAuto's inter-node ghost-row weight is the ratio
  // between the intra-node fabric and the NIC, i.e. how much more a
  // cross-node row costs under the comm model.
  PartitionerOptions popt;
  popt.parts = p;
  popt.slack = config_.partition_slack;
  popt.permute_random = config_.permute;
  popt.seed = config_.seed ^ 0xabcdef12345ULL;
  popt.devices_per_node = inter.devices_per_node;
  if (inter.devices_per_node > 0 && p > inter.devices_per_node &&
      inter.internode_bandwidth > 0.0) {
    const comm::Topology topo(inter);
    popt.inter_node_cost =
        std::max(1.0, topo.group_bandwidth(inter.devices_per_node) /
                          (inter.internode_bandwidth * inter.efficiency));
  }
  PartitionResult part =
      plan_partition(dataset.adjacency, config_.part_mode, popt);
  perm_ = std::move(part.perm);
  partition_ = std::move(part.partition);
  part_mode_used_ = part.mode;

  // Â (eq. (2)) is tiled once; the forward operator Â^T is tiled as the
  // per-tile transposes of Â's grid, never as a whole matrix.
  const bool identity_perm = std::is_sorted(perm_.begin(), perm_.end());
  TileGrid a_hat = make_tile_grid(
      identity_perm
          ? dataset.adjacency.normalize_gcn()
          : dataset.adjacency.permute_symmetric(perm_).normalize_gcn(),
      partition_);
  TileGrid a_hat_t = transpose_tile_grid(a_hat);

  forward_planner_ = std::make_unique<Planner>(
      machine_, *comm_, std::move(a_hat_t), config_.plan_mode,
      config_.comm_mode);
  backward_planner_ = std::make_unique<Planner>(
      machine_, *comm_, std::move(a_hat), config_.plan_mode,
      config_.comm_mode);
  forward_planner_->account_memory();
  backward_planner_->account_memory();
  part_stats_ =
      grid_cut_stats(forward_planner_->grid(), inter.devices_per_node);
}

void MgGcnTrainer::allocate_buffers() {
  const int p = machine_.num_devices();
  const int layers = num_layers();

  // Shared-buffer width: the widest dimension that actually flows through
  // HW / BC1 / BC2. Forward, HW holds the GeMM result (d_out) unless the
  // Â§4.4 order switch runs SpMM first (then d_in); backward, HW holds
  // Z = Ã G' (d_out) unless that layer's backward SpMM is skipped. Getting
  // this tight is what lets MG-GCN fit e.g. Proteins into 4 GPUs (Fig. 10).
  std::int64_t shared_dim = 0;
  for (const auto& plan : plan_) {
    const std::int64_t fwd_dim = plan.spmm_first ? plan.d_in : plan.d_out;
    shared_dim = std::max(shared_dim, fwd_dim);
    if (!plan.skip_backward_spmm) shared_dim = std::max(shared_dim, plan.d_out);
  }
  const std::int64_t max_part = partition_.max_part_size();
  const bool need_bc2 = config_.overlap && p > 1;

  ranks_.clear();
  ranks_.resize(static_cast<std::size_t>(p));
  bc_slot_readers_.assign(static_cast<std::size_t>(p), {});
  for (int r = 0; r < p; ++r) {
    auto& rank = ranks_[static_cast<std::size_t>(r)];
    sim::Device& device = machine_.device(r);
    mem::WorkspacePool* pool = pool_ ? &pool_->pool(r) : nullptr;
    const std::int64_t n_r = partition_.size(r);

    // Size/name/order identical across MGGCN_POOL modes — in pooled modes
    // the same requests go through the pool instead, so `off` stays the
    // bit-for-bit parity axis.
    auto alloc = [&](std::int64_t elements, std::string name) {
      return mem::acquire_or_alloc(pool, device,
                                   static_cast<std::size_t>(elements),
                                   std::move(name));
    };

    rank.x = alloc(n_r * dims_.front(), "X");
    rank.outputs.reserve(static_cast<std::size_t>(layers));
    for (int l = 0; l < layers; ++l) {
      rank.outputs.push_back(alloc(
          n_r * plan_[static_cast<std::size_t>(l)].d_out,
          "O" + std::to_string(l)));
    }
    rank.hw = alloc(n_r * shared_dim, "HW");
    if (!config_.reuse_buffers) {
      // Eager-framework emulation (§4.2's comparison point): a saved
      // pre-activation and a gradient buffer per layer, never reused —
      // raising the per-layer memory slope from 1 to 3 (Fig. 12).
      for (int l = 0; l < layers; ++l) {
        const std::int64_t d_out = plan_[static_cast<std::size_t>(l)].d_out;
        rank.ballast.push_back(alloc(n_r * d_out, "preact" + std::to_string(l)));
        rank.ballast.push_back(alloc(n_r * d_out, "grad" + std::to_string(l)));
      }
    }
    if (p > 1) {
      rank.bc1 = alloc(max_part * shared_dim, "BC1");
      if (need_bc2) {
        rank.bc2 = alloc(max_part * shared_dim, "BC2");
      }
    }

    for (int l = 0; l < layers; ++l) {
      const auto& plan = plan_[static_cast<std::size_t>(l)];
      const std::int64_t wsize = plan.d_in * plan.d_out;
      rank.w.push_back(alloc(wsize, "W" + std::to_string(l)));
      rank.w_grad.push_back(alloc(wsize, "Wg" + std::to_string(l)));
      rank.adam_m.push_back(alloc(wsize, "m" + std::to_string(l)));
      rank.adam_v.push_back(alloc(wsize, "v" + std::to_string(l)));
    }

    // Recycled blocks may carry previous tenants' completion events; order
    // everything this trainer will enqueue after them (the stream-level
    // equivalent of per-task ready() waits — these buffers live for the
    // whole trainer, so stream granularity costs nothing).
    mem::order_streams_after(device, rank.x);
    for (const auto& b : rank.outputs) mem::order_streams_after(device, b);
    mem::order_streams_after(device, rank.hw);
    for (const auto& b : rank.ballast) mem::order_streams_after(device, b);
    mem::order_streams_after(device, rank.bc1);
    mem::order_streams_after(device, rank.bc2);
    for (const auto& b : rank.w) mem::order_streams_after(device, b);
    for (const auto& b : rank.w_grad) mem::order_streams_after(device, b);
    for (const auto& b : rank.adam_m) mem::order_streams_after(device, b);
    for (const auto& b : rank.adam_v) mem::order_streams_after(device, b);
  }
}

void MgGcnTrainer::upload_inputs(const graph::Dataset& dataset) {
  const int p = machine_.num_devices();
  // Phantom buffers have no storage to copy into: only real mode draws the
  // initial weights.
  const auto weights = machine_.mode() == sim::ExecutionMode::kReal
                           ? init_weights(dims_, config_.seed)
                           : std::vector<dense::HostMatrix>{};
  const std::int64_t n = dataset.n();

  // Scatter permuted feature rows, labels, and masks to their owner ranks.
  for (int r = 0; r < p; ++r) {
    auto& rank = ranks_[static_cast<std::size_t>(r)];
    const std::int64_t n_r = partition_.size(r);
    rank.labels.assign(static_cast<std::size_t>(n_r), 0);
    rank.train_mask.assign(static_cast<std::size_t>(n_r), 0);

    for (int l = 0; l < num_layers(); ++l) {
      auto span = rank.w[static_cast<std::size_t>(l)].span();
      if (!span.empty()) {
        dense::copy(weights[static_cast<std::size_t>(l)].data(), span.data(),
                    static_cast<std::int64_t>(span.size()));
      }
    }
  }

  if (!dataset.has_features()) return;

  total_train_ = 0;
  for (std::int64_t v = 0; v < n; ++v) {
    const std::int64_t g = perm_[static_cast<std::size_t>(v)];
    const int owner = partition_.part_of(g);
    auto& rank = ranks_[static_cast<std::size_t>(owner)];
    const std::int64_t local = g - partition_.begin(owner);

    rank.labels[static_cast<std::size_t>(local)] =
        dataset.labels[static_cast<std::size_t>(v)];
    const std::uint8_t in_train =
        dataset.train_mask[static_cast<std::size_t>(v)];
    rank.train_mask[static_cast<std::size_t>(local)] = in_train;
    total_train_ += in_train;

    auto x = rank.x.span();
    if (!x.empty()) {
      dense::copy(dataset.features.view().row(v),
                  x.data() + local * dims_.front(), dims_.front());
    }
  }
  MGGCN_CHECK_MSG(total_train_ > 0, "dataset has no training vertices");
}

std::vector<sim::DeviceBuffer*> MgGcnTrainer::buffers_of(
    mem::PooledBuffer RankState::* member) {
  std::vector<sim::DeviceBuffer*> out;
  out.reserve(ranks_.size());
  for (auto& rank : ranks_) out.push_back(&(rank.*member).buffer());
  return out;
}

std::vector<sim::Event> MgGcnTrainer::run_product(
    Planner& planner, std::vector<sim::DeviceBuffer*> input,
    std::vector<sim::DeviceBuffer*> output, std::int64_t d,
    std::vector<sim::Event> ready) {
  DistIo io;
  io.input = std::move(input);
  io.output = std::move(output);
  io.bc1 = buffers_of(&RankState::bc1);
  io.bc2 = buffers_of(&RankState::bc2);
  io.d = d;
  io.input_ready = std::move(ready);
  io.overlap = config_.overlap && machine_.num_devices() > 1;
  io.compute_bandwidth_scale = compute_bandwidth_scale_;
  io.slot_readers = &bc_slot_readers_;
  io.traffic_factor = config_.spmm_traffic_factor;
  io.launch_multiplier = config_.kernel_overhead_multiplier;
  DistResult result = planner.run(io);
  for (int r = 0; r < machine_.num_devices(); ++r) {
    machine_.device(r).compute_stream().wait_event(
        result.input_released[static_cast<std::size_t>(r)]);
  }
  return std::move(result.done);
}

std::vector<sim::DeviceBuffer*> MgGcnTrainer::layer_buffers(int layer) {
  std::vector<sim::DeviceBuffer*> out;
  out.reserve(ranks_.size());
  for (auto& rank : ranks_) {
    out.push_back(&rank.outputs[static_cast<std::size_t>(layer)].buffer());
  }
  return out;
}

void MgGcnTrainer::enqueue_forward(std::vector<sim::Event>* logits_ready) {
  const int p = machine_.num_devices();
  const auto np = static_cast<std::size_t>(p);

  // Event per rank marking the availability of the current layer input.
  std::vector<sim::Event> input_ready(np);  // invalid: already available

  for (int l = 0; l < num_layers(); ++l) {
    const auto ll = static_cast<std::size_t>(l);
    const auto& plan = plan_[ll];
    std::vector<sim::DeviceBuffer*> layer_in =
        l == 0 ? buffers_of(&RankState::x) : layer_buffers(l - 1);
    std::vector<sim::DeviceBuffer*> layer_out = layer_buffers(l);
    std::vector<sim::DeviceBuffer*> hw = buffers_of(&RankState::hw);

    // The distributed SpMM runs on the narrower side of the GeMM (§4.4):
    // HW = Â^T X_l then O_l = HW W_l, or HW = X_l W_l then O_l = Â^T HW.
    // Every product's output is ordered with the compute streams
    // (DistResult), so the GeMMs need no waits.
    if (plan.spmm_first) {
      run_product(*forward_planner_, layer_in, hw, plan.d_in,
                  std::move(input_ready));
    }
    const auto& gemm_in = plan.spmm_first ? hw : layer_in;
    const auto& gemm_out = plan.spmm_first ? layer_out : hw;
    std::vector<sim::Event> next_ready(np);
    for (int r = 0; r < p; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      const std::int64_t n_r = partition_.size(r);
      next_ready[rr] = machine_.device(r).compute_stream().enqueue(gemm_task(
          plan.spmm_first ? "gemm_out" : "gemm_hw",
          {gemm_in[rr], n_r, plan.d_in},
          {&ranks_[rr].w[ll].buffer(), plan.d_in, plan.d_out},
          {gemm_out[rr], n_r, plan.d_out}, config_.kernel_overhead_multiplier));
    }
    if (!plan.spmm_first) {
      next_ready = run_product(*forward_planner_, hw, layer_out, plan.d_out,
                               std::move(next_ready));
    }

    if (plan.has_relu) {
      for (int r = 0; r < p; ++r) {
        next_ready[static_cast<std::size_t>(r)] =
            machine_.device(r).compute_stream().enqueue(relu_task(
                "relu",
                {layer_out[static_cast<std::size_t>(r)], partition_.size(r),
                 plan.d_out},
                config_.kernel_overhead_multiplier));
      }
    }
    input_ready = std::move(next_ready);
  }

  if (logits_ready != nullptr) *logits_ready = std::move(input_ready);
}

std::vector<sim::Event> MgGcnTrainer::enqueue_loss(
    const std::vector<sim::Event>& ready) {
  const int p = machine_.num_devices();
  std::vector<sim::Event> events(static_cast<std::size_t>(p));

  for (int r = 0; r < p; ++r) {
    const auto rr = static_cast<std::size_t>(r);
    auto& rank = ranks_[rr];
    sim::TaskDesc task = loss_task(
        "softmax_xent",
        {&rank.outputs.back().buffer(), partition_.size(r), dims_.back()},
        rank.labels.data(), rank.train_mask.data(),
        std::max<std::int64_t>(total_train_, 1), &rank_loss_[rr],
        config_.kernel_overhead_multiplier);
    if (!ready.empty() && ready[rr].valid()) task.waits.push_back(ready[rr]);
    events[rr] = machine_.device(r).compute_stream().enqueue(std::move(task));
  }
  return events;
}

void MgGcnTrainer::enqueue_backward(std::vector<sim::Event> grad_ready) {
  const int p = machine_.num_devices();
  const auto np = static_cast<std::size_t>(p);
  const int layers = num_layers();
  const double launches = config_.kernel_overhead_multiplier;

  // Deferred Adam steps: (layer, per-rank allreduce events). The paper
  // reduces W gradients "at the end of every epoch" so the reductions
  // overlap the remaining backward layers.
  std::vector<std::pair<int, std::vector<sim::Event>>> pending_adam;

  for (int l = layers - 1; l >= 0; --l) {
    const auto ll = static_cast<std::size_t>(l);
    const auto& plan = plan_[ll];
    // Gradient carousel (§4.2, eq. (21)): the gradient w.r.t. O_l lives in
    // O_l itself — the loss writes it there for the top layer, and each
    // layer's fused masked H_G GeMM writes it there for the layer below.
    std::vector<sim::DeviceBuffer*> grad_buf = layer_buffers(l);
    std::vector<sim::DeviceBuffer*> layer_in =
        l == 0 ? buffers_of(&RankState::x) : layer_buffers(l - 1);

    // (1) Backward SpMM Z = Â * G' (eq. (9)) into the shared HW buffer —
    // or §4.4's first-layer skip: use G' directly.
    std::vector<sim::DeviceBuffer*> z_buf = grad_buf;
    if (!plan.skip_backward_spmm) {
      z_buf = buffers_of(&RankState::hw);
      grad_ready = run_product(*backward_planner_, grad_buf, z_buf,
                               plan.d_out, std::move(grad_ready));
    }

    // (2) Weight gradient W_G = X_l^T Z (eq. (10)), local partial.
    std::vector<sim::Event> wg_partial(np);
    for (int r = 0; r < p; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      const std::int64_t n_r = partition_.size(r);
      sim::TaskDesc task = gemm_at_b_task(
          "gemm_wgrad", {layer_in[rr], n_r, plan.d_in},
          {z_buf[rr], n_r, plan.d_out},
          {&ranks_[rr].w_grad[ll].buffer(), plan.d_in, plan.d_out}, launches);
      if (plan.skip_backward_spmm && grad_ready[rr].valid()) {
        task.waits.push_back(grad_ready[rr]);
      }
      wg_partial[rr] =
          machine_.device(r).compute_stream().enqueue(std::move(task));
    }

    // (3) Allreduce of W_G across ranks (the only replicated tensor).
    std::vector<comm::RankPart> parts(np);
    for (int r = 0; r < p; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      parts[rr].buffer = &ranks_[rr].w_grad[ll].buffer();
      parts[rr].waits.push_back(wg_partial[rr]);
    }
    std::vector<sim::Event> reduced = comm_->allreduce_sum(
        std::move(parts), static_cast<std::size_t>(plan.d_in * plan.d_out));
    pending_adam.emplace_back(l, std::move(reduced));

    // (4) Input gradient H_G = Z * W^T (eq. (11)) fused with the ReLU mask
    // of layer l-1 (eq. (8)), written in place into O_{l-1}: the buffer
    // holds the downstream activation on entry and the masked gradient on
    // exit — the paper's eq. (21) hand-off without extra allocation.
    // Skipped for the first layer.
    if (l > 0) {
      MGGCN_CHECK(!plan.skip_backward_spmm);
      std::vector<sim::Event> next_grad(np);
      for (int r = 0; r < p; ++r) {
        const auto rr = static_cast<std::size_t>(r);
        const std::int64_t n_r = partition_.size(r);
        next_grad[rr] =
            machine_.device(r).compute_stream().enqueue(gemm_a_bt_masked_task(
                "gemm_hgrad_masked", {z_buf[rr], n_r, plan.d_out},
                {&ranks_[rr].w[ll].buffer(), plan.d_in, plan.d_out},
                {layer_in[rr], n_r, plan.d_in}, launches));
      }
      grad_ready = std::move(next_grad);
    }
  }

  // (6) Adam steps — one per layer per rank, gated on the allreduce.
  ++adam_step_;
  for (auto& [l, reduced] : pending_adam) {
    const auto ll = static_cast<std::size_t>(l);
    const auto& plan = plan_[ll];
    for (int r = 0; r < p; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      auto& rank = ranks_[rr];
      const auto param = [&](std::vector<mem::PooledBuffer>& buffers) {
        return Operand{&buffers[ll].buffer(), plan.d_in, plan.d_out};
      };
      sim::TaskDesc task = adam_task(
          "adam", param(rank.w), param(rank.w_grad), param(rank.adam_m),
          param(rank.adam_v), adam_step_, config_.learning_rate,
          config_.beta1, config_.beta2, config_.epsilon, launches);
      task.waits.push_back(reduced[rr]);
      machine_.device(r).compute_stream().enqueue(std::move(task));
    }
  }
}

EpochStats MgGcnTrainer::train_epoch() {
  const EpochMark mark = mark_epoch(machine_, pool_.get());
  const sim::PlanCounters plan_mark = machine_.trace().plan_counters();
  machine_.begin_epoch(epoch_);
  rank_loss_.assign(ranks_.size(), LossResult{});

  std::vector<sim::Event> logits_ready;
  enqueue_forward(&logits_ready);
  std::vector<sim::Event> grad_ready = enqueue_loss(logits_ready);
  enqueue_backward(std::move(grad_ready));
  machine_.synchronize();

  EpochStats stats;
  stats.epoch = epoch_++;
  fill_epoch_stats(machine_, mark, pool_.get(), &stats);
  const sim::PlanCounters plans = machine_.trace().plan_counters();
  stats.plan_products_1d =
      static_cast<int>(plans.products_1d - plan_mark.products_1d);
  stats.plan_products_15d =
      static_cast<int>(plans.products_15d - plan_mark.products_15d);
  stats.plan_products_replicated = static_cast<int>(
      plans.products_replicated - plan_mark.products_replicated);
  stats.plan_decisions =
      static_cast<int>(plans.decisions - plan_mark.decisions);
  stats.plan_fallbacks =
      static_cast<int>(plans.fallbacks - plan_mark.fallbacks);
  stats.part_cut_edges = part_stats_.cut_edges;
  stats.part_inter_node_cut_edges = part_stats_.inter_node_cut_edges;
  stats.part_ghost_rows = part_stats_.ghost_rows;
  stats.part_inter_node_ghost_rows = part_stats_.inter_node_ghost_rows;
  stats.part_avg_ghost_density = part_stats_.avg_ghost_density;
  stats.part_imbalance = part_stats_.imbalance;
  double loss = 0.0;
  std::int64_t correct = 0;
  std::int64_t counted = 0;
  for (const LossResult& local : rank_loss_) {
    loss += local.loss_sum;
    correct += local.correct;
    counted += local.counted;
  }
  stats.loss = loss;
  stats.train_accuracy =
      counted > 0 ? static_cast<double>(correct) / counted : 0.0;
  return stats;
}

std::vector<EpochStats> MgGcnTrainer::train(int epochs) {
  std::vector<EpochStats> stats;
  stats.reserve(static_cast<std::size_t>(epochs));
  for (int e = 0; e < epochs; ++e) stats.push_back(train_epoch());
  return stats;
}

void MgGcnTrainer::run_forward() {
  enqueue_forward(nullptr);
  machine_.synchronize();
}

dense::HostMatrix MgGcnTrainer::gather_logits() const {
  const std::int64_t n = partition_.total();
  const std::int64_t classes = dims_.back();
  dense::HostMatrix logits(n, classes);
  for (std::int64_t v = 0; v < n; ++v) {
    const std::int64_t g = perm_[static_cast<std::size_t>(v)];
    const int owner = partition_.part_of(g);
    const std::int64_t local = g - partition_.begin(owner);
    const auto span =
        ranks_[static_cast<std::size_t>(owner)].outputs.back().span();
    MGGCN_CHECK_MSG(!span.empty(), "gather_logits requires real mode");
    dense::copy(span.data() + local * classes, logits.view().row(v), classes);
  }
  return logits;
}

dense::HostMatrix MgGcnTrainer::gather_activations(int layer) const {
  MGGCN_CHECK_MSG(layer >= -1 && layer < num_layers(),
                  "gather_activations: layer out of range");
  const std::int64_t d = dims_[static_cast<std::size_t>(layer + 1)];
  dense::HostMatrix out(partition_.total(), d);
  for (int r = 0; r < partition_.parts(); ++r) {
    const auto& rank = ranks_[static_cast<std::size_t>(r)];
    const auto span = layer == -1
                          ? rank.x.span()
                          : rank.outputs[static_cast<std::size_t>(layer)].span();
    MGGCN_CHECK_MSG(!span.empty(), "gather_activations requires real mode");
    dense::copy(span.data(), out.view().row(partition_.begin(r)),
                partition_.size(r) * d);
  }
  return out;
}

Checkpoint MgGcnTrainer::checkpoint() {
  machine_.synchronize();
  Checkpoint snapshot;
  snapshot.adam_step = adam_step_;
  const auto& rank0 = ranks_.front();
  for (int l = 0; l < num_layers(); ++l) {
    const auto& plan = plan_[static_cast<std::size_t>(l)];
    auto pull = [&](const mem::PooledBuffer& buffer) {
      const auto span = buffer.span();
      MGGCN_CHECK_MSG(!span.empty(), "checkpointing requires real mode");
      dense::HostMatrix m(plan.d_in, plan.d_out);
      dense::copy(span.data(), m.data(), m.size());
      return m;
    };
    snapshot.weights.push_back(pull(rank0.w[static_cast<std::size_t>(l)]));
    snapshot.adam_m.push_back(pull(rank0.adam_m[static_cast<std::size_t>(l)]));
    snapshot.adam_v.push_back(pull(rank0.adam_v[static_cast<std::size_t>(l)]));
  }
  return snapshot;
}

void MgGcnTrainer::restore(const Checkpoint& snapshot) {
  MGGCN_CHECK_MSG(static_cast<int>(snapshot.num_layers()) == num_layers(),
                  "checkpoint layer count mismatch");
  MGGCN_CHECK_MSG(snapshot.consistent(), "checkpoint moments mismatch W");
  for (int l = 0; l < num_layers(); ++l) {
    const auto ll = static_cast<std::size_t>(l);
    MGGCN_CHECK_MSG(snapshot.weights[ll].rows() == plan_[ll].d_in &&
                        snapshot.weights[ll].cols() == plan_[ll].d_out,
                    "checkpoint shape mismatch");
  }
  machine_.synchronize();
  adam_step_ = snapshot.adam_step;
  // One Adam step per epoch, so the snapshot's step count is also the
  // epoch to resume from — keeping the fault plan's epoch clock aligned
  // across recoveries.
  epoch_ = snapshot.adam_step;
  for (auto& rank : ranks_) {
    for (int l = 0; l < num_layers(); ++l) {
      const auto ll = static_cast<std::size_t>(l);
      auto push = [&](const dense::HostMatrix& m, mem::PooledBuffer& buffer) {
        auto span = buffer.span();
        MGGCN_CHECK_MSG(!span.empty(), "restore requires real mode");
        dense::copy(m.data(), span.data(), m.size());
      };
      push(snapshot.weights[ll], rank.w[ll]);
      push(snapshot.adam_m[ll], rank.adam_m[ll]);
      push(snapshot.adam_v[ll], rank.adam_v[ll]);
    }
  }
}

double MgGcnTrainer::tile_imbalance() const {
  return forward_planner_->grid().imbalance();
}

std::uint64_t MgGcnTrainer::peak_memory_bytes() const {
  return machine_.max_memory_peak();
}

}  // namespace mggcn::core
