#include "core/dist_spmm.hpp"

#include <algorithm>
#include <array>

#include "dense/kernel_policy.hpp"
#include "dense/matrix.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmm_plan.hpp"
#include "util/error.hpp"

namespace mggcn::core {

DistSpmm::DistSpmm(sim::Machine& machine, comm::Communicator& comm,
                   TileGrid grid, comm::CommMode mode)
    : machine_(machine), comm_(comm), grid_(std::move(grid)), mode_(mode) {
  MGGCN_CHECK_MSG(grid_.parts() == machine_.num_devices(),
                  "tile grid parts must equal device count");
}

void DistSpmm::account_memory() {
  MGGCN_CHECK_MSG(!memory_accounted_, "memory already accounted");
  ghost_map_bytes_.assign(static_cast<std::size_t>(parts()), 0);
  for (int r = 0; r < parts(); ++r) {
    std::uint64_t bytes = 0;
    for (int s = 0; s < parts(); ++s) bytes += grid_.tile(r, s).footprint_bytes();
    machine_.device(r).reserve_memory(bytes, "adjacency tiles");
    if (!compact_capable()) continue;
    // Compact/auto exchange: each off-diagonal tile additionally holds its
    // ghost map — the sorted required-row list plus a remapped column
    // index per nonzero (4 bytes each). Counted with a standalone pass, so
    // the plans are still built only when a product first needs them.
    std::uint64_t ghost = 0;
    for (int s = 0; s < parts(); ++s) {
      if (s == r) continue;
      const sparse::Csr& tile = grid_.tile(r, s);
      ghost += static_cast<std::uint64_t>(sparse::count_distinct_cols(tile) +
                                          tile.nnz()) * 4;
    }
    ghost_map_bytes_[static_cast<std::size_t>(r)] = ghost;
    if (ghost > 0) machine_.device(r).reserve_memory(ghost, "ghost maps");
  }
  memory_accounted_ = true;
}

DistSpmm::~DistSpmm() {
  if (!memory_accounted_) return;
  for (int r = 0; r < parts(); ++r) {
    std::uint64_t bytes = 0;
    for (int s = 0; s < parts(); ++s) bytes += grid_.tile(r, s).footprint_bytes();
    machine_.device(r).release_memory(bytes);
    const std::uint64_t ghost = ghost_map_bytes_[static_cast<std::size_t>(r)];
    if (ghost > 0) machine_.device(r).release_memory(ghost);
  }
}

std::vector<DistSpmm::Stage> DistSpmm::price_stages(const Io& io) const {
  const int p = parts();
  const auto np = static_cast<std::size_t>(p);
  // Exchange selection, one decision per stage, priced with exactly the
  // models the simulator charges: a dense broadcast pays for the full
  // block once over the topology (multicast), the compacted path pays one
  // alpha per destination plus the actual ghost-row payload and the
  // root-side pack (sendv_rows_seconds). `compact` forces the compacted
  // path (deterministic volume for tests/benches); `auto` takes whichever
  // is cheaper, so dense graphs keep their old timings to the microsecond.
  std::vector<Stage> stages(np);
  for (int s = 0; s < p; ++s) {
    Stage& stage = stages[static_cast<std::size_t>(s)];
    const std::uint64_t block_bytes =
        static_cast<std::uint64_t>(grid_.partition.size(s) * io.d) *
        sizeof(float);
    int remote_receivers = 0;
    for (int r = 0; r < p; ++r) {
      if (r != s && comm_.node_of(r) != comm_.node_of(s)) ++remote_receivers;
    }
    stage.dense_bytes = static_cast<std::uint64_t>(p - 1) * block_bytes;
    stage.wire_bytes = stage.dense_bytes;
    stage.inter_bytes =
        static_cast<std::uint64_t>(remote_receivers) * block_bytes;
    stage.comm_seconds = comm_.topology().broadcast_seconds(block_bytes, p);
    if (!compact_capable()) continue;
    // The compacted payload is priced with the *actual* partition's ghost
    // sets via the same node-aggregated shape the exchange itself charges:
    // intra-node rows ride the NVLink fabric per destination, remote nodes
    // each receive one unioned message over the NIC. A locality-aware cut
    // thus directly cheapens the stage it improves.
    std::vector<std::span<const std::uint32_t>> stage_rows(np);
    for (int r = 0; r < p; ++r) {
      if (r != s) {
        stage_rows[static_cast<std::size_t>(r)] = grid_.plan(r, s).ghost_rows();
      }
    }
    const comm::SendvShape shape = comm_.sendv_shape(stage_rows, io.d, s);
    const double compact_seconds = comm_.sendv_rows_seconds(shape);
    if (mode_ == comm::CommMode::kCompact ||
        compact_seconds < stage.comm_seconds) {
      stage.compact = true;
      stage.comm_seconds = compact_seconds;
      stage.wire_bytes = shape.total_bytes();
      stage.inter_bytes = shape.inter_bytes;
      stage.messages = shape.messages();
    }
  }

  for (int s = 0; s < p; ++s) {
    Stage& stage = stages[static_cast<std::size_t>(s)];
    stage.cost.resize(np);
    stage.bandwidth_scale.assign(np, 1.0);
    for (int r = 0; r < p; ++r) {
      const sparse::Csr& tile = grid_.tile(r, s);
      // A compact gather reads from just the packed ghost rows — a smaller
      // working set, so more of the random traffic hits L2 (a real
      // locality win of the compaction, not just fewer wire bytes).
      const sim::KernelCost cost = scaled(
          stage.compact && r != s
              ? sparse::spmm_cost(tile.nnz(), tile.rows(),
                                  grid_.plan(r, s).ghost_count(), io.d)
              : sparse::spmm_cost(tile, io.d),
          io);
      stage.cost[static_cast<std::size_t>(r)] = cost;
      if (io.overlap && s + 1 < p) {
        // HBM contention is only paid while the next stage's exchange is
        // actually in flight: dilate by the expected overlap fraction
        // (the paper's ~1/6 bandwidth loss applies during that window).
        // Uses the *chosen* exchange duration, so a compacted next stage
        // steals less compute bandwidth.
        const double spmm_est =
            sim::CostModel::seconds(cost, machine_.device(r).profile());
        const double comm_est =
            stages[static_cast<std::size_t>(s) + 1].comm_seconds;
        const double contention = 1.0 - io.compute_bandwidth_scale;
        const double fraction =
            spmm_est > 0.0 ? std::min(1.0, comm_est / spmm_est) : 0.0;
        stage.bandwidth_scale[static_cast<std::size_t>(r)] =
            1.0 - fraction * contention;
      }
    }
  }
  return stages;
}

double DistSpmm::estimate(const Io& io) const {
  if (compact_capable()) grid_.build_plans();
  const std::vector<Stage> stages = price_stages(io);
  const int p = parts();
  const double dscale = comm_.options().duration_scale;
  // Per stage, the slowest rank's SpMM, dilated by its HBM share.
  std::vector<double> comp(static_cast<std::size_t>(p), 0.0);
  for (int s = 0; s < p; ++s) {
    const Stage& stage = stages[static_cast<std::size_t>(s)];
    double& worst = comp[static_cast<std::size_t>(s)];
    for (int r = 0; r < p; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      const double seconds = sim::CostModel::seconds(
          stage.cost[rr], machine_.device(r).profile());
      worst = std::max(worst, seconds / stage.bandwidth_scale[rr]);
    }
  }
  const auto exchange = [&](int s) {
    return dscale * stages[static_cast<std::size_t>(s)].comm_seconds;
  };
  if (!io.overlap) {
    double total = 0.0;
    for (int s = 0; s < p; ++s) {
      total += exchange(s) + comp[static_cast<std::size_t>(s)];
    }
    return total;
  }
  // Double-buffered pipeline: exchange s+1 hides behind SpMM s.
  double total = exchange(0);
  for (int s = 0; s + 1 < p; ++s) {
    total += std::max(comp[static_cast<std::size_t>(s)], exchange(s + 1));
  }
  return total + comp[static_cast<std::size_t>(p) - 1];
}

DistSpmm::Result DistSpmm::run(const Io& io) {
  const int p = parts();
  const auto np = static_cast<std::size_t>(p);
  MGGCN_CHECK(io.input.size() == np && io.output.size() == np);
  MGGCN_CHECK(io.bc1.size() == np);
  MGGCN_CHECK(!io.overlap || io.bc2.size() == np);
  MGGCN_CHECK(io.input_ready.empty() || io.input_ready.size() == np);

  Result result;
  result.done.resize(np);
  result.input_released.resize(np);

  // Under the planned kernel policy every tile executes through its cached
  // SpmmPlan. The compacted exchange also needs the plans (their ghost
  // sets drive the packing and the per-stage dense/compact decision), so
  // compact and auto modes use them under every kernel policy — but only
  // compact-path *execution* goes through the plan then; dense-path SpMMs
  // keep the policy-dispatched kernels. Missing plans are built at once,
  // in parallel on the host; each tile's one-time inspector cost is
  // charged to the owning device's compute stream at the tile's first
  // use, as a prologue before the staged pipeline (between stages it
  // would eat into compute/comm overlap). Every later product, and every
  // copy of the grid, reuses the plans for free.
  const bool policy_plans =
      dense::kernel_policy() == dense::KernelPolicy::kPlanned;
  const bool use_plans = policy_plans || compact_capable();
  if (use_plans) {
    grid_.build_plans();
    for (int s = 0; s < p; ++s) {
      for (int r = 0; r < p; ++r) {
        if (!grid_.claim_inspect_charge(r, s)) continue;
        const sparse::Csr& tile = grid_.tile(r, s);
        sim::TaskDesc inspect;
        inspect.label = "spmm_inspect";
        inspect.kind = sim::TaskKind::kInspect;
        inspect.stage = s;
        inspect.cost =
            sparse::spmm_inspect_cost(tile.rows(), tile.nnz(), tile.cols());
        machine_.device(r).compute_stream().enqueue(std::move(inspect));
      }
    }
  }
  const auto plan = [&](int r, int s) -> const sparse::SpmmPlan* {
    return use_plans ? &grid_.plan(r, s) : nullptr;
  };
  const std::vector<Stage> stages = price_stages(io);

  if (p == 1) {
    // Single device: one local SpMM, no communication.
    const sparse::Csr& tile = grid_.tile(0, 0);
    const sparse::SpmmPlan* tile_plan = plan(0, 0);
    sim::TaskDesc task;
    task.label = "spmm";
    task.kind = sim::TaskKind::kSpMM;
    task.stage = 0;
    task.cost = stages[0].cost[0];
    if (!io.input_ready.empty() && io.input_ready[0].valid()) {
      task.waits.push_back(io.input_ready[0]);
    }
    task.reads.push_back(io.input[0]->access());
    task.writes.push_back(io.output[0]->access());
    float* in = io.input[0]->data();
    float* out = io.output[0]->data();
    const std::int64_t d = io.d;
    task.body = [&tile, tile_plan, in, out, d] {
      if (tile_plan != nullptr) {
        tile_plan->execute(tile, dense::ConstMatrixView{in, tile.cols(), d},
                           dense::MatrixView{out, tile.rows(), d}, 1.0f,
                           0.0f);
      } else {
        sparse::spmm(tile,
                     dense::ConstMatrixView{in, tile.cols(), d},
                     dense::MatrixView{out, tile.rows(), d});
      }
    };
    sim::Event done = machine_.device(0).compute_stream().enqueue(
        std::move(task));
    result.done[0] = done;
    result.input_released[0] = done;
    return result;
  }

  // Volume accounting happens here at enqueue time (main thread), so the
  // counters are deterministic regardless of worker scheduling.
  {
    sim::CommVolume volume;
    for (const Stage& stage : stages) {
      volume.wire_bytes += stage.wire_bytes;
      volume.wire_bytes_inter += stage.inter_bytes;
      volume.dense_bytes += stage.dense_bytes;
      volume.packs += static_cast<std::uint64_t>(stage.messages);
      if (stage.compact) {
        ++volume.compact_stages;
      } else {
        ++volume.dense_stages;
      }
    }
    machine_.trace().record_comm_volume(volume);
  }

  // Per rank and broadcast-slot, the SpMM event that last read that slot
  // (write-after-read hazard for the next broadcast into it). Persisted by
  // the caller across staged products because the buffers are shared.
  MGGCN_CHECK_MSG(io.slot_readers != nullptr && io.slot_readers->size() == np,
                  "slot_readers hazard state is required for multi-device");
  std::vector<std::array<sim::Event, 2>>& slot_last_reader = *io.slot_readers;
  std::vector<sim::Event> last_spmm(np);

  for (int s = 0; s < p; ++s) {
    const int slot = io.overlap ? (s % 2) : 0;
    const Stage& stage = stages[static_cast<std::size_t>(s)];

    // --- exchange of rank s's input block --------------------------------
    std::vector<comm::RankPart> parts_(np);
    for (int r = 0; r < p; ++r) {
      auto& part = parts_[static_cast<std::size_t>(r)];
      part.buffer = r == s ? io.input[static_cast<std::size_t>(s)]
                           : (slot == 0 ? io.bc1[static_cast<std::size_t>(r)]
                                        : io.bc2[static_cast<std::size_t>(r)]);
      if (r == s) {
        // Root: its block must have been produced.
        if (!io.input_ready.empty() &&
            io.input_ready[static_cast<std::size_t>(r)].valid()) {
          part.waits.push_back(io.input_ready[static_cast<std::size_t>(r)]);
        }
      } else {
        // Receiver: the previous reader of this broadcast slot must be done.
        const sim::Event& hazard =
            slot_last_reader[static_cast<std::size_t>(r)][static_cast<std::size_t>(slot)];
        if (hazard.valid()) part.waits.push_back(hazard);
        if (!io.overlap && last_spmm[static_cast<std::size_t>(r)].valid()) {
          // Non-overlapping schedule: fully serialize comm after compute.
          part.waits.push_back(last_spmm[static_cast<std::size_t>(r)]);
        }
      }
    }
    std::vector<sim::Event> bcast;
    if (stage.compact) {
      // Compacted exchange: rank s packs, per destination, only the ghost
      // rows that destination's tile gathers. The payloads land in the
      // same BC1/BC2 slots the dense path uses (a ghost set never exceeds
      // the block, so capacity and the slot write-after-read machinery are
      // unchanged) — §4.3 overlap composes for free.
      std::vector<std::span<const std::uint32_t>> rows(np);
      for (int r = 0; r < p; ++r) {
        if (r == s) continue;
        rows[static_cast<std::size_t>(r)] = grid_.plan(r, s).ghost_rows();
      }
      bcast = comm_.sendv_rows(std::move(parts_), std::move(rows), io.d, s,
                               comm::StreamChoice::kComm, s);
    } else {
      const std::size_t count = static_cast<std::size_t>(
          grid_.partition.size(s) * io.d);
      bcast = comm_.broadcast(std::move(parts_), count, s,
                              comm::StreamChoice::kComm, s);
    }

    // --- per-rank SpMM with the received block ---------------------------
    for (int r = 0; r < p; ++r) {
      const auto rr = static_cast<std::size_t>(r);
      const sparse::Csr& tile = grid_.tile(r, s);
      const sparse::SpmmPlan* tile_plan = plan(r, s);
      // Compact stages index the packed payload through the plan's ghost
      // map (the root's own block is always dense); dense-path SpMMs keep
      // the policy-dispatched kernels, so plans resolved only for their
      // ghost sets don't change which executor the active MGGCN_KERNELS
      // policy runs. Either way the per-element operation sequence is the
      // naive reference's, so every combination is bit-identical.
      const bool compact_exec = stage.compact && r != s;
      const sparse::SpmmPlan* dense_plan = policy_plans ? tile_plan : nullptr;
      sim::DeviceBuffer* src =
          r == s ? io.input[rr] : (slot == 0 ? io.bc1[rr] : io.bc2[rr]);

      sim::TaskDesc task;
      task.label = "spmm";
      task.kind = sim::TaskKind::kSpMM;
      task.stage = s;
      task.cost = stage.cost[rr];
      task.bandwidth_scale = stage.bandwidth_scale[rr];
      task.waits.push_back(bcast[rr]);
      task.reads.push_back(src->access());
      // Stages s > 0 accumulate (beta = 1), which also reads the output.
      if (s > 0) task.reads.push_back(io.output[rr]->access());
      task.writes.push_back(io.output[rr]->access());

      float* in = src->data();
      float* out = io.output[rr]->data();
      const std::int64_t d = io.d;
      const float beta = s == 0 ? 0.0f : 1.0f;
      if (compact_exec) {
        task.body = [&tile, tile_plan, in, out, d, beta] {
          tile_plan->execute_compact(
              tile, dense::ConstMatrixView{in, tile_plan->ghost_count(), d},
              dense::MatrixView{out, tile.rows(), d}, 1.0f, beta);
        };
      } else {
        task.body = [&tile, dense_plan, in, out, d, beta] {
          if (dense_plan != nullptr) {
            dense_plan->execute(tile,
                                dense::ConstMatrixView{in, tile.cols(), d},
                                dense::MatrixView{out, tile.rows(), d}, 1.0f,
                                beta);
          } else {
            sparse::spmm(tile, dense::ConstMatrixView{in, tile.cols(), d},
                         dense::MatrixView{out, tile.rows(), d}, 1.0f, beta);
          }
        };
      }

      sim::Event done =
          machine_.device(r).compute_stream().enqueue(std::move(task));
      if (r != s) {
        slot_last_reader[rr][static_cast<std::size_t>(slot)] = done;
      }
      last_spmm[rr] = done;
      if (r == s) {
        // The rank's own block is released once its broadcast completed AND
        // its own stage-s SpMM finished reading it. The SpMM waits on the
        // broadcast, so its completion covers both readers; signaling the
        // broadcast alone (the old behavior) let a caller overwrite
        // io.input[rr] while the root's SpMM was still reading it — a
        // write-after-read hazard in ExecutionMode::kReal.
        result.input_released[rr] = done;
      }
    }
  }

  result.done = last_spmm;
  return result;
}

}  // namespace mggcn::core
