#include "core/planner.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "dense/matrix.hpp"
#include "sim/cost_model.hpp"
#include "sim/trace.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmm_plan.hpp"
#include "util/error.hpp"

namespace mggcn::core {

namespace {

constexpr double kInfeasible = std::numeric_limits<double>::infinity();

/// The replica pack of a `elems`-float block: one read plus one write.
sim::KernelCost pack_cost(std::int64_t elems) {
  sim::KernelCost cost;
  cost.stream_bytes = 2.0 * static_cast<double>(elems) * sizeof(float);
  return cost;
}

}  // namespace

// ---------------------------------------------------------------------------
// ReplicatedSpmm
// ---------------------------------------------------------------------------

ReplicatedSpmm::ReplicatedSpmm(sim::Machine& machine,
                               comm::Communicator& comm, const TileGrid& grid)
    : machine_(machine), comm_(comm), grid_(grid) {
  MGGCN_CHECK_MSG(grid_.parts() == machine_.num_devices(),
                  "tile grid parts must equal device count");
  MGGCN_CHECK_MSG(grid_.parts() > 1,
                  "replicated executor is for multi-device products");
  replica_.resize(static_cast<std::size_t>(grid_.parts()));
  replica_last_use_.resize(static_cast<std::size_t>(grid_.parts()));
}

std::uint64_t ReplicatedSpmm::extra_bytes(int rank, std::int64_t d) const {
  (void)rank;  // every rank holds the same n x d replica
  if (d <= replica_width_) return 0;
  // Net growth: the realloc releases the old replica first.
  return static_cast<std::uint64_t>(grid_.partition.total() *
                                    (d - replica_width_)) *
         sizeof(float);
}

void ReplicatedSpmm::ensure_replicas(std::int64_t d) {
  if (d <= replica_width_) return;
  // Growing reallocates the replicas; drain in-flight products first so no
  // enqueued task still references the old storage.
  machine_.synchronize();
  const std::int64_t n = grid_.partition.total();
  for (int r = 0; r < grid_.parts(); ++r) {
    const auto rr = static_cast<std::size_t>(r);
    replica_[rr].reset();
    replica_[rr] = std::make_unique<sim::DeviceBuffer>(
        machine_.device(r), static_cast<std::size_t>(n * d), "replica");
    replica_last_use_[rr] = sim::Event{};
  }
  replica_width_ = d;
}

DistResult ReplicatedSpmm::run(const DistIo& io) {
  const int p = grid_.parts();
  const auto np = static_cast<std::size_t>(p);
  MGGCN_CHECK(io.input.size() == np && io.output.size() == np);
  MGGCN_CHECK(io.input_ready.empty() || io.input_ready.size() == np);

  ensure_replicas(io.d);
  const PartitionVector& part = grid_.partition;
  const std::int64_t n = part.total();

  // One allgather delivers what p-1 dense broadcasts would have; there is
  // nothing to compact, so wire == dense. Each source block reaches every
  // rank on another node once — that share is the inter-node traffic.
  {
    sim::CommVolume volume;
    volume.wire_bytes =
        static_cast<std::uint64_t>(p - 1) *
        static_cast<std::uint64_t>(n * io.d) * sizeof(float);
    for (int s = 0; s < p; ++s) {
      int remote = 0;
      for (int r = 0; r < p; ++r) {
        if (r != s && comm_.node_of(r) != comm_.node_of(s)) ++remote;
      }
      volume.wire_bytes_inter +=
          static_cast<std::uint64_t>(remote) *
          static_cast<std::uint64_t>(part.size(s) * io.d) * sizeof(float);
    }
    volume.dense_bytes = volume.wire_bytes;
    volume.dense_stages = 1;
    machine_.trace().record_comm_volume(volume);
  }

  DistResult result;
  result.done.resize(np);
  result.input_released.resize(np);

  // Stage each rank's block at the HEAD of its replica buffer (the
  // allgather contract), then gather the rank-order concatenation.
  std::vector<comm::RankPart> parts(np);
  std::vector<std::size_t> counts(np);
  for (int r = 0; r < p; ++r) {
    const auto rr = static_cast<std::size_t>(r);
    const std::size_t elems = static_cast<std::size_t>(part.size(r) * io.d);

    sim::TaskDesc task;
    task.label = "replica_pack";
    task.kind = sim::TaskKind::kMemory;
    task.cost = pack_cost(static_cast<std::int64_t>(elems));
    if (!io.input_ready.empty() && io.input_ready[rr].valid()) {
      task.waits.push_back(io.input_ready[rr]);
    }
    if (replica_last_use_[rr].valid()) {
      task.waits.push_back(replica_last_use_[rr]);
    }
    task.reads.push_back(io.input[rr]->access());
    task.writes.push_back(replica_[rr]->access());
    float* src = io.input[rr]->data();
    float* dst = replica_[rr]->data();
    task.body = [src, dst, elems] {
      if (src != nullptr && dst != nullptr) {
        std::memcpy(dst, src, elems * sizeof(float));
      }
    };
    sim::Event copied =
        machine_.device(r).compute_stream().enqueue(std::move(task));
    result.input_released[rr] = copied;

    parts[rr].buffer = replica_[rr].get();
    parts[rr].waits.push_back(copied);
    counts[rr] = elems;
  }
  std::vector<sim::Event> gathered = comm_.allgather(std::move(parts), counts);

  // One fused SpMM per rank: sweep the stage tiles left to right against
  // the replica segments — the same ascending-stage accumulation order as
  // the staged broadcast, in a single launch whose gather working set is
  // the whole replica.
  for (int r = 0; r < p; ++r) {
    const auto rr = static_cast<std::size_t>(r);
    sim::TaskDesc task;
    task.label = "spmm_replicated";
    task.kind = sim::TaskKind::kSpMM;
    task.cost = fused_cost(r, io);
    task.waits.push_back(gathered[rr]);
    task.reads.push_back(replica_[rr]->access());
    task.writes.push_back(io.output[rr]->access());

    const TileGrid& grid = grid_;
    float* in = replica_[rr]->data();
    float* out = io.output[rr]->data();
    const std::int64_t d = io.d;
    task.body = [&grid, r, in, out, d] {
      for (int s = 0; s < grid.parts(); ++s) {
        const sparse::Csr& tile = grid.tile(r, s);
        sparse::spmm(
            tile,
            dense::ConstMatrixView{in + grid.partition.begin(s) * d,
                                   tile.cols(), d},
            dense::MatrixView{out, tile.rows(), d}, 1.0f,
            s == 0 ? 0.0f : 1.0f);
      }
    };
    sim::Event done =
        machine_.device(r).compute_stream().enqueue(std::move(task));
    result.done[rr] = done;
    replica_last_use_[rr] = done;
  }
  return result;
}

sim::KernelCost ReplicatedSpmm::fused_cost(int r, const DistIo& io) const {
  sim::KernelCost cost;
  for (int s = 0; s < grid_.parts(); ++s) {
    cost += sparse::spmm_cost(grid_.tile(r, s), io.d);
  }
  cost.launches = 1;  // operator+= summed the per-tile launch counts
  cost.gather_working_set = 4.0 *
                            static_cast<double>(grid_.partition.total()) *
                            static_cast<double>(io.d);
  return scaled(cost, io);
}

double ReplicatedSpmm::estimate(const DistIo& io) const {
  const int p = grid_.parts();
  const std::int64_t n = grid_.partition.total();
  const sim::DeviceProfile& dev = machine_.device(0).profile();
  const double pack = sim::CostModel::seconds(
      pack_cost(grid_.partition.max_part_size() * io.d), dev);
  const double gather =
      comm_.options().duration_scale *
      comm_.topology().allgather_seconds(
          static_cast<std::uint64_t>(n * io.d) * sizeof(float), p);
  double worst = 0.0;
  for (int r = 0; r < p; ++r) {
    worst = std::max(worst, sim::CostModel::seconds(fused_cost(r, io), dev));
  }
  return pack + gather + worst;
}

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

Planner::Planner(sim::Machine& machine, comm::Communicator& comm,
                 TileGrid grid, PlanMode mode, comm::CommMode comm_mode)
    : machine_(machine),
      mode_(mode),
      spmm_1d_(std::make_unique<DistSpmm>(machine, comm, std::move(grid),
                                          comm_mode)) {
  const int p = parts();
  if (DistSpmm15DChained::feasible(p)) {
    exec_15d_ = std::make_unique<DistSpmm15DChained>(
        machine_, spmm_1d_->grid(), comm.options());
  }
  if (p > 1) {
    exec_replicated_ =
        std::make_unique<ReplicatedSpmm>(machine_, comm, spmm_1d_->grid());
  }
}

DistExecutor* Planner::executor(PlanMode strategy) const {
  switch (strategy) {
    case PlanMode::k15D:
      return exec_15d_.get();
    case PlanMode::kReplicated:
      return exec_replicated_.get();
    default:
      return spmm_1d_.get();
  }
}

bool Planner::fits(PlanMode strategy, std::int64_t d) const {
  const DistExecutor* exec = executor(strategy);
  if (exec == nullptr) return false;
  for (int r = 0; r < parts(); ++r) {
    const sim::Device& device = machine_.device(r);
    if (device.memory_used() + exec->extra_bytes(r, d) >
        device.profile().memory_bytes) {
      return false;
    }
  }
  return true;
}

Planner::Estimate Planner::price(std::int64_t d, bool overlap,
                                 double compute_bandwidth_scale,
                                 double traffic_factor,
                                 double launch_multiplier) const {
  DistIo io;
  io.d = d;
  io.overlap = overlap;
  io.compute_bandwidth_scale = compute_bandwidth_scale;
  io.traffic_factor = traffic_factor;
  io.launch_multiplier = launch_multiplier;
  const auto seconds = [&](PlanMode strategy) {
    return fits(strategy, d) ? executor(strategy)->estimate(io) : kInfeasible;
  };
  Estimate est;
  est.seconds_1d = spmm_1d_->estimate(io);
  est.seconds_15d = seconds(PlanMode::k15D);
  est.seconds_replicated = seconds(PlanMode::kReplicated);
  est.choice = PlanMode::k1D;
  double best = est.seconds_1d;
  if (est.seconds_15d < best) {
    best = est.seconds_15d;
    est.choice = PlanMode::k15D;
  }
  if (est.seconds_replicated < best) {
    est.choice = PlanMode::kReplicated;
  }
  return est;
}

PlanMode Planner::decide(const DistIo& io) {
  sim::PlanCounters delta;
  PlanMode chosen = mode_;
  if (mode_ == PlanMode::kAuto) {
    const auto key = std::make_pair(io.d, io.overlap);
    const auto it = decisions_.find(key);
    if (it != decisions_.end()) {
      chosen = it->second;
    } else {
      ++delta.decisions;
      chosen = price(io.d, io.overlap, io.compute_bandwidth_scale,
                     io.traffic_factor, io.launch_multiplier)
                   .choice;
      decisions_.emplace(key, chosen);
    }
  }
  if (chosen != PlanMode::k1D && !fits(chosen, io.d)) {
    chosen = PlanMode::k1D;
    ++delta.fallbacks;
  }
  if (chosen == PlanMode::k15D && !accounted_15d_) {
    exec_15d_->account_memory();
    accounted_15d_ = true;
  }
  switch (chosen) {
    case PlanMode::k15D:
      ++delta.products_15d;
      break;
    case PlanMode::kReplicated:
      ++delta.products_replicated;
      break;
    default:
      ++delta.products_1d;
      break;
  }
  machine_.trace().record_plan(delta);
  return chosen;
}

DistResult Planner::run(const DistIo& io) {
  return executor(decide(io))->run(io);
}

}  // namespace mggcn::core
