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
    if (mode_ == comm::CommMode::kDense || parts() <= 1) continue;
    // Compact/auto exchange: each off-diagonal tile additionally holds its
    // ghost map — the sorted required-row list plus a remapped column
    // index per nonzero (4 bytes each). Counted with a standalone pass
    // instead of building the plans here, so the one-time inspector tasks
    // still land on the simulated timeline at first use.
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

namespace {

sim::KernelCost scaled_cost(sim::KernelCost cost, const DistSpmm::Io& io) {
  cost.stream_bytes *= io.traffic_factor;
  cost.gather_bytes *= io.traffic_factor;
  cost.launches = static_cast<int>(cost.launches * io.launch_multiplier + 0.5);
  return cost;
}

sim::KernelCost scaled_spmm_cost(const sparse::Csr& tile, std::int64_t d,
                                 const DistSpmm::Io& io) {
  return scaled_cost(sparse::spmm_cost(tile, d), io);
}

/// One stage's exchange decision, priced before the pipeline starts so the
/// overlap contention estimate for stage s can use stage s+1's *chosen*
/// duration.
struct StageChoice {
  bool compact = false;
  /// Estimated exchange duration of the chosen path.
  double comm_seconds = 0.0;
  /// Payload delivered to the receivers (compact: sum of ghost rows;
  /// dense: the full block per receiver).
  std::uint64_t wire_bytes = 0;
  /// Portion of wire_bytes delivered to ranks on other nodes.
  std::uint64_t inter_bytes = 0;
  /// What the dense broadcast would have delivered.
  std::uint64_t dense_bytes = 0;
  /// Non-empty per-destination payloads of the compact path.
  int messages = 0;
};

}  // namespace

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
  // SpmmPlan. Plans are resolved here on the enqueue thread and the
  // one-time inspector cost is charged to the owning device's compute
  // stream the first time a tile's plan is built — every later product
  // reuses the plan for free. The compacted exchange also needs the plans
  // (their ghost sets drive the packing and the per-stage dense/compact
  // decision), so compact and auto modes resolve them under every kernel
  // policy — but only compact-path *execution* goes through the plan then;
  // dense-path SpMMs keep the policy-dispatched kernels. The first product
  // builds all missing plans at once, in parallel on the host; which tiles
  // lacked a plan is noted before that, so resolve_plan still charges each
  // tile's inspector task once, at the tile's first use.
  const bool policy_plans =
      dense::kernel_policy() == dense::KernelPolicy::kPlanned;
  const bool compact_capable = mode_ != comm::CommMode::kDense && p > 1;
  const bool use_plans = policy_plans || compact_capable;
  std::vector<bool> first_use(np * np, false);
  if (use_plans) {
    for (int r = 0; r < p; ++r) {
      for (int s = 0; s < p; ++s) {
        first_use[static_cast<std::size_t>(r) * np +
                  static_cast<std::size_t>(s)] = !grid_.plan_ready(r, s);
      }
    }
    grid_.build_plans();
  }
  auto resolve_plan = [&](int r, int s) -> const sparse::SpmmPlan* {
    if (!use_plans) return nullptr;
    const sparse::SpmmPlan* plan = &grid_.plan(r, s);
    if (first_use[static_cast<std::size_t>(r) * np +
                  static_cast<std::size_t>(s)]) {
      const sparse::Csr& tile = grid_.tile(r, s);
      sim::TaskDesc inspect;
      inspect.label = "spmm_inspect";
      inspect.kind = sim::TaskKind::kInspect;
      inspect.stage = s;
      inspect.cost =
          sparse::spmm_inspect_cost(tile.rows(), tile.nnz(), tile.cols());
      machine_.device(r).compute_stream().enqueue(std::move(inspect));
    }
    return plan;
  };

  if (p == 1) {
    // Single device: one local SpMM, no communication.
    const sparse::Csr& tile = grid_.tile(0, 0);
    const sparse::SpmmPlan* plan = resolve_plan(0, 0);
    sim::TaskDesc task;
    task.label = "spmm";
    task.kind = sim::TaskKind::kSpMM;
    task.stage = 0;
    task.cost = scaled_spmm_cost(tile, io.d, io);
    if (!io.input_ready.empty() && io.input_ready[0].valid()) {
      task.waits.push_back(io.input_ready[0]);
    }
    task.reads.push_back(io.input[0]->access());
    task.writes.push_back(io.output[0]->access());
    float* in = io.input[0]->data();
    float* out = io.output[0]->data();
    const std::int64_t d = io.d;
    task.body = [&tile, plan, in, out, d] {
      if (plan != nullptr) {
        plan->execute(tile, dense::ConstMatrixView{in, tile.cols(), d},
                      dense::MatrixView{out, tile.rows(), d}, 1.0f, 0.0f);
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

  // Resolve every tile's plan before the staged pipeline starts: on the
  // first product this front-loads the inspector tasks as a prologue on
  // each compute stream instead of serializing them between stages (where
  // they would eat into compute/comm overlap); on every later product all
  // plans are ready and this loop enqueues nothing.
  std::vector<std::vector<const sparse::SpmmPlan*>> plans(
      np, std::vector<const sparse::SpmmPlan*>(np, nullptr));
  if (use_plans) {
    for (int s = 0; s < p; ++s) {
      for (int r = 0; r < p; ++r) {
        plans[static_cast<std::size_t>(r)][static_cast<std::size_t>(s)] =
            resolve_plan(r, s);
      }
    }
  }

  // Exchange selection, one decision per stage, priced with exactly the
  // models the simulator charges: a dense broadcast pays for the full
  // block once over the topology (multicast), the compacted path pays one
  // alpha per destination plus the actual ghost-row payload and the
  // root-side pack (sendv_rows_seconds). `compact` forces the compacted
  // path (deterministic volume for tests/benches); `auto` takes whichever
  // is cheaper, so dense graphs keep their old timings to the microsecond.
  std::vector<StageChoice> choices(np);
  for (int s = 0; s < p; ++s) {
    StageChoice& choice = choices[static_cast<std::size_t>(s)];
    const std::uint64_t block_bytes =
        static_cast<std::uint64_t>(grid_.partition.size(s) * io.d) *
        sizeof(float);
    int remote_receivers = 0;
    for (int r = 0; r < p; ++r) {
      if (r != s && comm_.node_of(r) != comm_.node_of(s)) ++remote_receivers;
    }
    choice.dense_bytes = static_cast<std::uint64_t>(p - 1) * block_bytes;
    choice.wire_bytes = choice.dense_bytes;
    choice.inter_bytes =
        static_cast<std::uint64_t>(remote_receivers) * block_bytes;
    choice.comm_seconds = comm_.topology().broadcast_seconds(block_bytes, p);
    if (!compact_capable) continue;
    // The compacted payload is priced with the *actual* partition's ghost
    // sets via the same node-aggregated shape the exchange itself charges:
    // intra-node rows ride the NVLink fabric per destination, remote nodes
    // each receive one unioned message over the NIC. A locality-aware cut
    // thus directly cheapens the stage it improves.
    std::vector<std::span<const std::uint32_t>> stage_rows(
        static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      if (r == s) continue;
      stage_rows[static_cast<std::size_t>(r)] =
          plans[static_cast<std::size_t>(r)][static_cast<std::size_t>(s)]
              ->ghost_rows();
    }
    const comm::SendvShape shape = comm_.sendv_shape(stage_rows, io.d, s);
    const double compact_seconds = comm_.sendv_rows_seconds(shape);
    if (mode_ == comm::CommMode::kCompact ||
        compact_seconds < choice.comm_seconds) {
      choice.compact = true;
      choice.comm_seconds = compact_seconds;
      choice.wire_bytes = shape.total_bytes();
      choice.inter_bytes = shape.inter_bytes;
      choice.messages = shape.messages();
    }
  }

  // Volume accounting happens here at enqueue time (main thread), so the
  // counters are deterministic regardless of worker scheduling.
  {
    sim::CommVolume volume;
    for (const StageChoice& choice : choices) {
      volume.wire_bytes += choice.wire_bytes;
      volume.wire_bytes_inter += choice.inter_bytes;
      volume.dense_bytes += choice.dense_bytes;
      volume.packs += static_cast<std::uint64_t>(choice.messages);
      if (choice.compact) {
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
    const StageChoice& choice = choices[static_cast<std::size_t>(s)];

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
    if (choice.compact) {
      // Compacted exchange: rank s packs, per destination, only the ghost
      // rows that destination's tile gathers. The payloads land in the
      // same BC1/BC2 slots the dense path uses (a ghost set never exceeds
      // the block, so capacity and the slot write-after-read machinery are
      // unchanged) — §4.3 overlap composes for free.
      std::vector<std::span<const std::uint32_t>> rows(np);
      for (int r = 0; r < p; ++r) {
        if (r == s) continue;
        rows[static_cast<std::size_t>(r)] =
            plans[static_cast<std::size_t>(r)][static_cast<std::size_t>(s)]
                ->ghost_rows();
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
      const sparse::SpmmPlan* plan = plans[rr][static_cast<std::size_t>(s)];
      // Compact stages index the packed payload through the plan's ghost
      // map (the root's own block is always dense); dense-path SpMMs keep
      // the policy-dispatched kernels, so plans resolved only for their
      // ghost sets don't change which executor the active MGGCN_KERNELS
      // policy runs. Either way the per-element operation sequence is the
      // naive reference's, so every combination is bit-identical.
      const bool compact_exec = choice.compact && r != s;
      const sparse::SpmmPlan* dense_plan = policy_plans ? plan : nullptr;
      sim::DeviceBuffer* src =
          r == s ? io.input[rr] : (slot == 0 ? io.bc1[rr] : io.bc2[rr]);

      sim::TaskDesc task;
      task.label = "spmm";
      task.kind = sim::TaskKind::kSpMM;
      task.stage = s;
      // A compact gather reads from just the packed ghost rows — a smaller
      // working set, so more of the random traffic hits L2 (a real
      // locality win of the compaction, not just fewer wire bytes).
      task.cost =
          compact_exec
              ? scaled_cost(sparse::spmm_cost(tile.nnz(), tile.rows(),
                                              plan->ghost_count(), io.d),
                            io)
              : scaled_spmm_cost(tile, io.d, io);
      if (io.overlap && s + 1 < p) {
        // HBM contention is only paid while the next stage's exchange is
        // actually in flight: dilate by the expected overlap fraction
        // (the paper's ~1/6 bandwidth loss applies during that window).
        // Uses the *chosen* exchange duration, so a compacted next stage
        // steals less compute bandwidth.
        const double spmm_est = sim::CostModel::seconds(
            task.cost, machine_.device(r).profile());
        const double comm_est =
            choices[static_cast<std::size_t>(s) + 1].comm_seconds;
        const double contention = 1.0 - io.compute_bandwidth_scale;
        const double fraction =
            spmm_est > 0.0 ? std::min(1.0, comm_est / spmm_est) : 0.0;
        task.bandwidth_scale = 1.0 - fraction * contention;
      }
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
        task.body = [&tile, plan, in, out, d, beta] {
          plan->execute_compact(
              tile, dense::ConstMatrixView{in, plan->ghost_count(), d},
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
