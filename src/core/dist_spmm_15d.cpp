#include "core/dist_spmm_15d.hpp"

#include <algorithm>
#include <utility>

#include "dense/matrix.hpp"
#include "sim/cost_model.hpp"
#include "sim/trace.hpp"
#include "sparse/spmm.hpp"
#include "util/error.hpp"

namespace mggcn::core {

namespace {

/// The communicators of a c = 2 layout over `groups` = P/2 ranks per
/// group: replica group g holds ranks g*G .. g*G+G-1, pair j the ranks
/// (j, G+j). Topology::group_bandwidth only clamps groups larger than a
/// node to the NIC, so a smaller group that straddles nodes — every pair
/// (j, G+j) on a two-node cluster — would be priced as intra-node; such a
/// communicator gets devices_per_node = 1 instead, and every collective on
/// it pays the NIC, as the hardware would.
void make_15d_communicators(
    sim::Machine& machine, int groups, const comm::CommOptions& options,
    std::vector<std::unique_ptr<comm::Communicator>>& group_comms,
    std::vector<std::unique_ptr<comm::Communicator>>& pair_comms) {
  const auto make = [&](const std::vector<int>& ranks) {
    sim::InterconnectProfile profile = machine.profile().interconnect;
    const int dpn = profile.devices_per_node;
    std::vector<sim::Device*> devices;
    for (const int rank : ranks) {
      devices.push_back(&machine.device(rank));
      if (dpn > 0 && rank / dpn != ranks.front() / dpn) {
        profile.devices_per_node = 1;
      }
    }
    return std::make_unique<comm::Communicator>(
        std::move(devices), comm::Topology(profile), options);
  };
  for (int g = 0; g < 2; ++g) {
    std::vector<int> ranks;
    for (int j = 0; j < groups; ++j) ranks.push_back(g * groups + j);
    group_comms.push_back(make(ranks));
  }
  for (int j = 0; j < groups; ++j) pair_comms.push_back(make({j, groups + j}));
}

/// Zero-duration fence on `stream`: its event marks "everything enqueued on
/// this stream so far — plus `wait`, when given — is done". Used to order a
/// collective's write into a buffer after that device's prior
/// compute-stream readers of it, and to re-anchor a comm-stream completion
/// onto the compute stream (the DistExecutor done[] contract).
sim::Event stream_fence(sim::Stream& stream, sim::Event wait = {}) {
  sim::TaskDesc task;
  task.label = "fence";
  task.kind = sim::TaskKind::kOther;
  task.cost = sim::KernelCost{};
  task.cost.launches = 0;
  if (wait.valid()) task.waits.push_back(wait);
  return stream.enqueue(std::move(task));
}

}  // namespace

DistSpmm15D::DistSpmm15D(sim::Machine& machine, const sparse::Csr& op)
    : machine_(machine) {
  const int p = machine_.num_devices();
  MGGCN_CHECK_MSG(p >= 4 && p % kReplication == 0,
                  "1.5D (c=2) needs an even device count >= 4");
  groups_ = p / kReplication;
  MGGCN_CHECK_MSG(op.rows() == op.cols(), "operator must be square");

  partition_ = PartitionVector::uniform(op.rows(), groups_);
  const TileGrid grid = make_tile_grid(op, partition_);

  // Distribute tile A^{j,s} to rank (s mod c)*G + j; each rank keeps its
  // tiles in round order.
  tiles_.resize(static_cast<std::size_t>(p));
  for (int j = 0; j < groups_; ++j) {
    for (int s = 0; s < groups_; ++s) {
      const int g = s % kReplication;
      const int rank = g * groups_ + j;
      tiles_[static_cast<std::size_t>(rank)].push_back(grid.tile(j, s));
    }
  }

  make_15d_communicators(machine_, groups_, {}, group_comms_, pair_comms_);
}

void DistSpmm15D::account_memory() {
  MGGCN_CHECK_MSG(!memory_accounted_, "memory already accounted");
  for (int r = 0; r < machine_.num_devices(); ++r) {
    std::uint64_t bytes = 0;
    for (const auto& tile : tiles_[static_cast<std::size_t>(r)]) {
      bytes += tile.footprint_bytes();
    }
    machine_.device(r).reserve_memory(bytes, "1.5D adjacency tiles");
  }
  memory_accounted_ = true;
}

DistSpmm15D::~DistSpmm15D() {
  if (!memory_accounted_) return;
  for (int r = 0; r < machine_.num_devices(); ++r) {
    std::uint64_t bytes = 0;
    for (const auto& tile : tiles_[static_cast<std::size_t>(r)]) {
      bytes += tile.footprint_bytes();
    }
    machine_.device(r).release_memory(bytes);
  }
}

DistSpmm15D::Result DistSpmm15D::run(const Io& io) {
  const int p = machine_.num_devices();
  const auto np = static_cast<std::size_t>(p);
  MGGCN_CHECK(io.input.size() == np && io.output.size() == np &&
              io.bc1.size() == np);
  MGGCN_CHECK(io.input_ready.empty() || io.input_ready.size() == np);

  const int rounds = groups_ / kReplication + (groups_ % kReplication != 0);
  std::vector<sim::Event> last_spmm(np);

  // Volume accounting at enqueue time (main thread), mirroring DistSpmm:
  // every group broadcast and the final pair allreduces are dense-path
  // stages, so the Planner's decisions are auditable in the same trace
  // fields as the 1D exchanges.
  sim::CommVolume volume;
  const int dpn = machine_.profile().interconnect.devices_per_node;
  auto node_of = [dpn](int rank) { return dpn > 0 ? rank / dpn : 0; };

  for (int t = 0; t < rounds; ++t) {
    for (int g = 0; g < kReplication; ++g) {
      const int s = t * kReplication + g;
      if (s >= groups_) continue;

      // Broadcast H^s within group g (root: the rank holding block s).
      std::vector<comm::RankPart> parts(static_cast<std::size_t>(groups_));
      for (int j = 0; j < groups_; ++j) {
        const int rank = g * groups_ + j;
        const auto rr = static_cast<std::size_t>(rank);
        auto& part = parts[static_cast<std::size_t>(j)];
        part.buffer = j == s ? io.input[rr] : io.bc1[rr];
        if (j == s) {
          if (!io.input_ready.empty() && io.input_ready[rr].valid()) {
            part.waits.push_back(io.input_ready[rr]);
          }
        } else if (last_spmm[rr].valid()) {
          // Single broadcast buffer per rank: wait for its last reader.
          part.waits.push_back(last_spmm[rr]);
        }
      }
      const auto count =
          static_cast<std::size_t>(partition_.size(s) * io.d);
      const std::uint64_t block_bytes =
          static_cast<std::uint64_t>(count) * sizeof(float);
      volume.wire_bytes +=
          static_cast<std::uint64_t>(groups_ - 1) * block_bytes;
      const int root_rank = g * groups_ + s;
      for (int j = 0; j < groups_; ++j) {
        const int rank = g * groups_ + j;
        if (rank != root_rank && node_of(rank) != node_of(root_rank)) {
          volume.wire_bytes_inter += block_bytes;
        }
      }
      volume.dense_bytes +=
          static_cast<std::uint64_t>(groups_ - 1) * block_bytes;
      ++volume.dense_stages;
      std::vector<sim::Event> bcast =
          group_comms_[static_cast<std::size_t>(g)]->broadcast(
              std::move(parts), count, s, comm::StreamChoice::kComm, s);

      // Local partial accumulation on every rank of group g.
      for (int j = 0; j < groups_; ++j) {
        const int rank = g * groups_ + j;
        const auto rr = static_cast<std::size_t>(rank);
        const sparse::Csr& tile =
            tiles_[rr][static_cast<std::size_t>(t)];

        sim::TaskDesc task;
        task.label = "spmm_15d";
        task.kind = sim::TaskKind::kSpMM;
        task.stage = s;
        task.cost = scaled(sparse::spmm_cost(tile, io.d), io);
        task.waits.push_back(bcast[static_cast<std::size_t>(j)]);

        sim::DeviceBuffer* src = j == s ? io.input[rr] : io.bc1[rr];
        task.reads.push_back(src->access());
        // Later rounds accumulate (beta = 1), which also reads the output.
        if (t > 0) task.reads.push_back(io.output[rr]->access());
        task.writes.push_back(io.output[rr]->access());
        float* in = src->data();
        float* out = io.output[rr]->data();
        const std::int64_t d = io.d;
        const float beta = t == 0 ? 0.0f : 1.0f;
        task.body = [&tile, in, out, d, beta] {
          sparse::spmm(tile, dense::ConstMatrixView{in, tile.cols(), d},
                       dense::MatrixView{out, tile.rows(), d}, 1.0f, beta);
        };
        last_spmm[rr] =
            machine_.device(rank).compute_stream().enqueue(std::move(task));
      }
    }
  }

  // Cross-group reduction of the partial C^j blocks (the 2-link step on
  // DGX-1 that §5.1's analysis hinges on).
  Result result;
  result.done.resize(np);
  for (int j = 0; j < groups_; ++j) {
    std::vector<comm::RankPart> parts(2);
    for (int g = 0; g < kReplication; ++g) {
      const auto rr = static_cast<std::size_t>(g * groups_ + j);
      parts[static_cast<std::size_t>(g)].buffer = io.output[rr];
      if (last_spmm[rr].valid()) {
        parts[static_cast<std::size_t>(g)].waits.push_back(last_spmm[rr]);
      }
    }
    const std::uint64_t block_bytes =
        static_cast<std::uint64_t>(partition_.size(j) * io.d) * sizeof(float);
    // Ring allreduce between the two replicas moves 2*(c-1)/c = 1x the
    // block per pair.
    volume.wire_bytes += block_bytes;
    if (node_of(j) != node_of(groups_ + j)) {
      volume.wire_bytes_inter += block_bytes;
    }
    volume.dense_bytes += block_bytes;
    ++volume.dense_stages;
    std::vector<sim::Event> reduced =
        pair_comms_[static_cast<std::size_t>(j)]->allreduce_sum(
            std::move(parts),
            static_cast<std::size_t>(partition_.size(j) * io.d));
    for (int g = 0; g < kReplication; ++g) {
      result.done[static_cast<std::size_t>(g * groups_ + j)] =
          reduced[static_cast<std::size_t>(g)];
    }
  }
  machine_.trace().record_comm_volume(volume);
  // The replicated inputs are read by their stage's broadcast and SpMMs,
  // all of which the pair reduction is ordered behind.
  result.input_released = result.done;
  return result;
}

// ---------------------------------------------------------------------------
// DistSpmm15DChained
// ---------------------------------------------------------------------------

DistSpmm15DChained::DistSpmm15DChained(sim::Machine& machine,
                                       const TileGrid& grid,
                                       comm::CommOptions options)
    : machine_(machine), grid_(grid) {
  const int p = grid_.parts();
  MGGCN_CHECK_MSG(feasible(p), "chained 1.5D needs an even device count >= 4");
  MGGCN_CHECK_MSG(p == machine_.num_devices(),
                  "tile grid parts must equal device count");
  groups_ = p / 2;
  make_15d_communicators(machine_, groups_, options, group_comms_,
                         pair_comms_);
  partial_.resize(static_cast<std::size_t>(p));
  partial_last_use_.resize(static_cast<std::size_t>(p));
}

std::uint64_t DistSpmm15DChained::partner_tile_bytes(int rank) const {
  const int partner = pair_of(rank);
  const int lo = rank < groups_ ? 0 : groups_;
  std::uint64_t bytes = 0;
  for (int s = lo; s < lo + groups_; ++s) {
    bytes += grid_.tile(partner, s).footprint_bytes();
  }
  return bytes;
}

std::uint64_t DistSpmm15DChained::extra_bytes(int rank,
                                              std::int64_t d) const {
  std::uint64_t bytes = memory_accounted_ ? 0 : partner_tile_bytes(rank);
  if (d > partial_width_) {
    // Net growth: the realloc releases the old accumulator first.
    bytes += static_cast<std::uint64_t>(grid_.partition.size(pair_of(rank)) *
                                        (d - partial_width_)) *
             sizeof(float);
  }
  return bytes;
}

void DistSpmm15DChained::account_memory() {
  MGGCN_CHECK_MSG(!memory_accounted_, "memory already accounted");
  for (int r = 0; r < grid_.parts(); ++r) {
    machine_.device(r).reserve_memory(partner_tile_bytes(r),
                                      "1.5D partner tiles");
  }
  memory_accounted_ = true;
}

DistSpmm15DChained::~DistSpmm15DChained() {
  if (!memory_accounted_) return;
  for (int r = 0; r < grid_.parts(); ++r) {
    machine_.device(r).release_memory(partner_tile_bytes(r));
  }
}

sim::KernelCost DistSpmm15DChained::spmm_cost(int row, int s,
                                              const DistIo& io) const {
  return scaled(sparse::spmm_cost(grid_.tile(row, s), io.d), io);
}

double DistSpmm15DChained::estimate(const DistIo& io) const {
  const int p = grid_.parts();
  const int G = groups_;
  // The chained schedule serializes: group broadcast s, then both SpMMs of
  // stage s (single-slot buffer), per phase; the pair hand-offs between
  // the phases and the return transfer after them.
  double total = 0.0;
  for (int s = 0; s < p; ++s) {
    const comm::Communicator& group = *group_comms_[s < G ? 0 : 1];
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(grid_.partition.size(s) * io.d) *
        sizeof(float);
    total += group.options().duration_scale *
             group.topology().broadcast_seconds(bytes, G);
    double worst = 0.0;
    for (int j = 0; j < G; ++j) {
      const sim::DeviceProfile& dev =
          machine_.device(s < G ? j : G + j).profile();
      worst = std::max(worst,
                       sim::CostModel::seconds(spmm_cost(j, s, io), dev) +
                           sim::CostModel::seconds(spmm_cost(G + j, s, io),
                                                   dev));
    }
    total += worst;
  }

  double handoff = 0.0;
  double ret = 0.0;
  for (int j = 0; j < G; ++j) {
    const comm::Communicator& pair = *pair_comms_[static_cast<std::size_t>(j)];
    const double dscale = pair.options().duration_scale;
    const std::uint64_t lo_bytes =
        static_cast<std::uint64_t>(grid_.partition.size(j) * io.d) *
        sizeof(float);
    const std::uint64_t hi_bytes =
        static_cast<std::uint64_t>(grid_.partition.size(G + j) * io.d) *
        sizeof(float);
    handoff = std::max(
        handoff, dscale * (pair.topology().broadcast_seconds(hi_bytes, 2) +
                           pair.topology().broadcast_seconds(lo_bytes, 2)));
    ret = std::max(ret,
                   dscale * pair.topology().broadcast_seconds(lo_bytes, 2));
  }
  return total + handoff + ret;
}

void DistSpmm15DChained::ensure_partials(std::int64_t d) {
  if (d <= partial_width_) return;
  // Growing reallocates the accumulators; drain in-flight products first so
  // no enqueued task still references the old storage.
  machine_.synchronize();
  for (int r = 0; r < grid_.parts(); ++r) {
    const auto rr = static_cast<std::size_t>(r);
    partial_[rr].reset();
    partial_[rr] = std::make_unique<sim::DeviceBuffer>(
        machine_.device(r),
        static_cast<std::size_t>(grid_.partition.size(pair_of(r)) * d),
        "15d partial");
    partial_last_use_[rr] = sim::Event{};
  }
  partial_width_ = d;
}

DistResult DistSpmm15DChained::run(const DistIo& io) {
  const int p = grid_.parts();
  const int G = groups_;
  const auto np = static_cast<std::size_t>(p);
  MGGCN_CHECK(io.input.size() == np && io.output.size() == np &&
              io.bc1.size() == np);
  MGGCN_CHECK(io.input_ready.empty() || io.input_ready.size() == np);
  MGGCN_CHECK_MSG(io.slot_readers != nullptr && io.slot_readers->size() == np,
                  "slot_readers hazard state is required for multi-device");
  std::vector<std::array<sim::Event, 2>>& slot_last_reader = *io.slot_readers;

  ensure_partials(io.d);

  sim::CommVolume volume;
  const int chain_dpn = machine_.profile().interconnect.devices_per_node;
  auto chain_node_of = [chain_dpn](int rank) {
    return chain_dpn > 0 ? rank / chain_dpn : 0;
  };
  auto add_dense = [&volume](std::uint64_t bytes, int receivers,
                             int inter_receivers) {
    const std::uint64_t moved = bytes * static_cast<std::uint64_t>(receivers);
    volume.wire_bytes += moved;
    volume.wire_bytes_inter +=
        bytes * static_cast<std::uint64_t>(inter_receivers);
    volume.dense_bytes += moved;
    ++volume.dense_stages;
  };

  DistResult result;
  result.done.resize(np);
  result.input_released.resize(np);

  // Runs both SpMMs of rank `rank` for stage `s`: its own row's tile into
  // `own_out`, then its pair row's tile into `pair_out`. Returns the second
  // event (same stream, so it covers the first).
  auto enqueue_stage = [&](int rank, int s, bool first_stage_of_rank,
                           sim::Event bcast_event,
                           const sim::Event& own_extra_wait,
                           const sim::Event& pair_extra_wait) -> sim::Event {
    const auto rr = static_cast<std::size_t>(rank);
    sim::DeviceBuffer* src = rank == s ? io.input[rr] : io.bc1[rr];
    const int pair = pair_of(rank);
    sim::Event last;
    for (int half = 0; half < 2; ++half) {
      const int row = half == 0 ? rank : pair;
      sim::DeviceBuffer* out =
          half == 0 ? io.output[rr] : partial_[rr].get();
      const sparse::Csr& tile = grid_.tile(row, s);
      const bool accumulate = !first_stage_of_rank || rank >= G;

      sim::TaskDesc task;
      task.label = "spmm_15dc";
      task.kind = sim::TaskKind::kSpMM;
      task.stage = s;
      task.cost = spmm_cost(row, s, io);
      if (bcast_event.valid()) task.waits.push_back(bcast_event);
      const sim::Event& extra = half == 0 ? own_extra_wait : pair_extra_wait;
      if (extra.valid()) task.waits.push_back(extra);
      task.reads.push_back(src->access());
      if (accumulate) task.reads.push_back(out->access());
      task.writes.push_back(out->access());

      float* in = src->data();
      float* outp = out->data();
      const std::int64_t d = io.d;
      const float beta = accumulate ? 1.0f : 0.0f;
      task.body = [&tile, in, outp, d, beta] {
        sparse::spmm(tile, dense::ConstMatrixView{in, tile.cols(), d},
                     dense::MatrixView{outp, tile.rows(), d}, 1.0f, beta);
      };
      last = machine_.device(rank).compute_stream().enqueue(std::move(task));
    }
    if (rank != s) slot_last_reader[rr][0] = last;
    else result.input_released[rr] = last;
    return last;
  };

  // One group's staged half of the product (`lo` = its first stage/rank).
  auto run_phase = [&](int lo, std::vector<sim::Event>& last_of_rank,
                       const std::vector<sim::Event>& own_seed,
                       const std::vector<sim::Event>& pair_seed) {
    for (int s = lo; s < lo + G; ++s) {
      std::vector<comm::RankPart> parts(static_cast<std::size_t>(G));
      for (int j = 0; j < G; ++j) {
        const int rank = lo + j;
        const auto rr = static_cast<std::size_t>(rank);
        auto& part = parts[static_cast<std::size_t>(j)];
        part.buffer = rank == s ? io.input[rr] : io.bc1[rr];
        if (rank == s) {
          if (!io.input_ready.empty() && io.input_ready[rr].valid()) {
            part.waits.push_back(io.input_ready[rr]);
          }
        } else if (slot_last_reader[rr][0].valid()) {
          part.waits.push_back(slot_last_reader[rr][0]);
        }
      }
      const auto count =
          static_cast<std::size_t>(grid_.partition.size(s) * io.d);
      int inter_receivers = 0;
      for (int j = 0; j < G; ++j) {
        const int rank = lo + j;
        if (rank != s && chain_node_of(rank) != chain_node_of(s)) {
          ++inter_receivers;
        }
      }
      add_dense(static_cast<std::uint64_t>(count) * sizeof(float), G - 1,
                inter_receivers);
      std::vector<sim::Event> bcast =
          group_comms_[lo == 0 ? 0 : 1]->broadcast(
              std::move(parts), count, s - lo, comm::StreamChoice::kComm, s);
      for (int j = 0; j < G; ++j) {
        const int rank = lo + j;
        const auto rr = static_cast<std::size_t>(rank);
        last_of_rank[rr] = enqueue_stage(
            rank, s, s == lo, bcast[static_cast<std::size_t>(j)],
            s == lo ? own_seed[rr] : sim::Event{},
            s == lo ? pair_seed[rr] : sim::Event{});
      }
    }
  };

  std::vector<sim::Event> last(np);
  std::vector<sim::Event> own_seed(np);
  std::vector<sim::Event> pair_seed(np);
  // Phase 1: each low rank starts its own output (beta = 0; same-stream
  // ordering covers earlier readers of it) and its pair's prefix in
  // partial_ (beta = 0; must be ordered after the previous product's last
  // use of that private buffer).
  for (int j = 0; j < G; ++j) {
    pair_seed[static_cast<std::size_t>(j)] =
        partial_last_use_[static_cast<std::size_t>(j)];
  }
  run_phase(0, last, own_seed, pair_seed);

  // Handoff: pair (j, G+j) swaps the two stage-prefixes. T1 seeds the high
  // rank's output with C_{G+j}'s prefix; T2 seeds its partial_ with C_j's.
  std::vector<std::vector<sim::Event>> t1(static_cast<std::size_t>(G));
  std::vector<std::vector<sim::Event>> t2(static_cast<std::size_t>(G));
  for (int j = 0; j < G; ++j) {
    const auto lo = static_cast<std::size_t>(j);
    const auto hi = static_cast<std::size_t>(G + j);
    comm::Communicator& pair = *pair_comms_[lo];
    {
      std::vector<comm::RankPart> parts(2);
      parts[0].buffer = partial_[lo].get();
      parts[0].waits.push_back(last[lo]);
      parts[1].buffer = io.output[hi];
      // The collective writes the high rank's output from its comm stream;
      // fence it behind that device's prior compute-stream readers.
      parts[1].waits.push_back(
          stream_fence(machine_.device(G + j).compute_stream()));
      const auto count =
          static_cast<std::size_t>(grid_.partition.size(G + j) * io.d);
      add_dense(static_cast<std::uint64_t>(count) * sizeof(float), 1,
                chain_node_of(j) != chain_node_of(G + j) ? 1 : 0);
      t1[lo] = pair.broadcast(std::move(parts), count, 0,
                              comm::StreamChoice::kComm);
    }
    {
      std::vector<comm::RankPart> parts(2);
      parts[0].buffer = io.output[lo];
      parts[0].waits.push_back(last[lo]);
      parts[1].buffer = partial_[hi].get();
      if (partial_last_use_[hi].valid()) {
        parts[1].waits.push_back(partial_last_use_[hi]);
      }
      const auto count =
          static_cast<std::size_t>(grid_.partition.size(j) * io.d);
      add_dense(static_cast<std::uint64_t>(count) * sizeof(float), 1,
                chain_node_of(j) != chain_node_of(G + j) ? 1 : 0);
      t2[lo] = pair.broadcast(std::move(parts), count, 0,
                              comm::StreamChoice::kComm);
    }
    partial_last_use_[lo] = t1[lo][0];
  }

  // Phase 2: the high ranks continue both accumulations in stage order.
  for (int j = 0; j < G; ++j) {
    own_seed[static_cast<std::size_t>(G + j)] = t1[static_cast<std::size_t>(j)][1];
    pair_seed[static_cast<std::size_t>(G + j)] = t2[static_cast<std::size_t>(j)][1];
  }
  run_phase(G, last, own_seed, pair_seed);

  // Return: the finished C_j travels back down to rank j's output. Rank
  // j's comm stream already ordered this write after T2's read of the same
  // buffer.
  for (int j = 0; j < G; ++j) {
    const auto lo = static_cast<std::size_t>(j);
    const auto hi = static_cast<std::size_t>(G + j);
    std::vector<comm::RankPart> parts(2);
    parts[0].buffer = io.output[lo];
    parts[1].buffer = partial_[hi].get();
    parts[1].waits.push_back(last[hi]);
    const auto count =
        static_cast<std::size_t>(grid_.partition.size(j) * io.d);
    add_dense(static_cast<std::uint64_t>(count) * sizeof(float), 1,
              chain_node_of(j) != chain_node_of(G + j) ? 1 : 0);
    std::vector<sim::Event> t3 = pair_comms_[lo]->broadcast(
        std::move(parts), count, 1, comm::StreamChoice::kComm);
    // T3 lands C_j from the comm stream, but the trainer's downstream
    // consumers (GeMM/ReLU/wgrad) rely on compute-stream order for the
    // product's output — the 1D executor writes it there. Re-anchor the
    // completion onto rank j's compute stream so that contract holds.
    result.done[lo] =
        stream_fence(machine_.device(j).compute_stream(), t3[0]);
    result.done[hi] = last[hi];
    partial_last_use_[hi] = t3[1];
  }
  machine_.trace().record_comm_volume(volume);
  return result;
}

}  // namespace mggcn::core
