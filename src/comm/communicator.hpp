// NCCL-like collectives over simulated devices.
//
// Semantics follow NCCL: every participating rank enqueues its part of the
// collective onto one of its streams; a rank's part completes when the whole
// collective does. Data movement is real (once the last rank's part becomes
// ready, each part's share copies into its destination or reduces its
// element slice, between the devices' buffers, which share the host address
// space — the stand-in for NVLink peer access); duration comes from the
// Topology model. Simulated start time is synchronized across ranks, so
// stragglers delay everyone — exactly the load-imbalance effect the paper's
// Fig. 6 visualizes. A data-moving collective whose parts mix buffers with
// and without storage throws InvalidArgumentError at the call.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include <functional>

#include "comm/topology.hpp"
#include "sim/device.hpp"
#include "sim/machine.hpp"

namespace mggcn::comm {

/// Which stream each rank's collective part runs on.
enum class StreamChoice { kCompute, kComm };

/// One rank's view of a collective: its buffer and the events its part must
/// wait for before the collective can start on that rank. Each collective
/// fills `reads`/`writes` from its data-movement role (root reads, receivers
/// are written, reductions do both) so the hazard checker audits collectives
/// like any other task, and `share` with the slice of the data movement
/// this part's task runs once every part has arrived (a copy into one
/// destination, one element slice of a reduction, or, on rank 0 of an
/// in-place allgather, the whole gather; empty when the part has nothing to
/// move).
struct RankPart {
  sim::DeviceBuffer* buffer = nullptr;
  std::vector<sim::Event> waits;
  std::vector<sim::BufferAccess> reads;
  std::vector<sim::BufferAccess> writes;
  std::function<void()> share;
};

/// A sendv payload classified by where it crosses: intra-node destinations
/// (NVLink/NVSwitch) vs inter-node destinations (the root's NIC). Built by
/// DistSpmm / the planner from the actual partition's ghost sets so stage
/// pricing reflects the real cut, not a uniform-block assumption.
/// Shape of one compacted (ghost-row) exchange, split by where each byte
/// crosses. Inter-node traffic is node-aggregated: the root sends ONE
/// message per remote node carrying the union of that node's destinations'
/// ghost rows; the receiving node's local root then scatters each
/// destination its slice over the intra-node fabric. `inter_bytes` /
/// `inter_messages` therefore count per-node unions, and `scatter_bytes`
/// is the worst remote node's redistribution volume (remote nodes scatter
/// concurrently, so only the max is on the critical path).
struct SendvShape {
  std::uint64_t intra_bytes = 0;
  int intra_messages = 0;
  std::uint64_t inter_bytes = 0;
  int inter_messages = 0;
  std::uint64_t scatter_bytes = 0;

  [[nodiscard]] std::uint64_t total_bytes() const {
    return intra_bytes + inter_bytes;
  }
  [[nodiscard]] int messages() const {
    return intra_messages + inter_messages;
  }
};

struct CommOptions {
  /// Multiplier on every collective duration (models e.g. the older NCCL
  /// 2.4 CAGNET links against: efficiency below current NCCL).
  double duration_scale = 1.0;

  // --- Fault handling (active when the machine has a FaultPlan). --------
  /// Failed attempts tolerated per collective before surfacing CommError.
  int max_retries = 4;
  /// Simulated cost of the first failed attempt (detection timeout); each
  /// further retry doubles it (exponential backoff). The penalty is added
  /// to the collective's duration — data still moves exactly once, so
  /// numerics are unchanged and only the timeline stretches.
  double retry_timeout_seconds = 50e-6;
};

class Communicator {
 public:
  /// A communicator over all devices of a machine.
  Communicator(sim::Machine& machine, CommOptions options = {});

  /// A communicator over an explicit subset (1.5D replication groups).
  Communicator(std::vector<sim::Device*> devices, Topology topology,
               CommOptions options = {});

  [[nodiscard]] int size() const { return static_cast<int>(devices_.size()); }
  [[nodiscard]] const Topology& topology() const { return topology_; }
  /// The options collectives are charged with (duration_scale etc.) —
  /// public so strategy planners can price with exactly what launch()
  /// will charge.
  [[nodiscard]] const CommOptions& options() const { return options_; }

  /// Broadcast `count` floats from parts[root].buffer into every rank's
  /// buffer. Returns one completion event per rank, in rank order.
  std::vector<sim::Event> broadcast(std::vector<RankPart> parts,
                                    std::size_t count, int root,
                                    StreamChoice stream = StreamChoice::kComm,
                                    int stage = -1);

  /// Compacted (ghost-row) exchange: the root packs, for each destination
  /// rank r, the rows of its block listed in `rows[r]` (row indices into
  /// the root's `d`-wide block, ascending) into the head of
  /// parts[r].buffer — destination row i receives source row rows[r][i].
  /// rows[root] is ignored; an empty list sends that rank nothing. The
  /// simulated duration charges the *actual* payload bytes (alpha per
  /// destination message + beta over the topology bandwidth,
  /// Topology::sendv_seconds) plus the root-side pack traffic — see
  /// sendv_rows_seconds, which the auto-selector prices stages with.
  /// Hazard declarations mirror broadcast: root reads, receivers written.
  std::vector<sim::Event> sendv_rows(
      std::vector<RankPart> parts,
      std::vector<std::span<const std::uint32_t>> rows, std::int64_t d,
      int root, StreamChoice stream = StreamChoice::kComm, int stage = -1);

  /// Simulated duration of a sendv_rows moving `total_bytes` across
  /// `messages` destinations, including the root's pack cost (a
  /// read + write of the payload at the device's HBM bandwidth). Public so
  /// callers choosing between dense and compacted exchange price both
  /// paths with exactly the model the simulator will charge.
  [[nodiscard]] double sendv_rows_seconds(std::uint64_t total_bytes,
                                          int messages) const;

  /// Node-aware variant: intra-node payload is priced at the intra-node
  /// fabric bandwidth and inter-node payload at the NIC, draining
  /// concurrently (Topology::sendv_split_seconds) plus the same root pack
  /// cost. This is what sendv_rows itself charges; the two-argument
  /// overload above keeps the single-fabric model for callers without a
  /// destination split.
  [[nodiscard]] double sendv_rows_seconds(const SendvShape& shape) const;

  /// Classify a sendv_rows payload into its SendvShape under node
  /// aggregation: same-node destinations each get their own message;
  /// each remote node gets ONE message carrying the union of its
  /// destinations' row lists (row lists must be ascending, as sendv_rows
  /// requires); scatter_bytes is the largest per-node redistribution
  /// volume among remote nodes with two or more destinations. This is the
  /// single source of truth for both execution charging (sendv_rows) and
  /// stage pricing (DistSpmm's dense-vs-compact selector).
  [[nodiscard]] SendvShape sendv_shape(
      const std::vector<std::span<const std::uint32_t>>& rows, std::int64_t d,
      int root) const;

  /// Node index of a communicator rank under the topology's
  /// devices_per_node grouping (machine rank / devices_per_node; 0 when
  /// the profile has no node structure).
  [[nodiscard]] int node_of(int rank) const;

  /// Element-wise sum of all ranks' buffers, result visible on every rank
  /// (ring allreduce timing).
  std::vector<sim::Event> allreduce_sum(
      std::vector<RankPart> parts, std::size_t count,
      StreamChoice stream = StreamChoice::kComm);

  /// Sum of all ranks' buffers into parts[root].buffer only.
  std::vector<sim::Event> reduce_sum(std::vector<RankPart> parts,
                                     std::size_t count, int root,
                                     StreamChoice stream = StreamChoice::kComm);

  /// All-gather: rank r contributes `counts[r]` floats from the head of
  /// its buffer; every rank ends with the concatenation (in rank order) in
  /// a buffer of capacity sum(counts).
  std::vector<sim::Event> allgather(std::vector<RankPart> parts,
                                    const std::vector<std::size_t>& counts,
                                    StreamChoice stream = StreamChoice::kComm);

  /// Synchronization-only collective (simulated-time rendezvous).
  std::vector<sim::Event> barrier(StreamChoice stream = StreamChoice::kComm);

 private:
  /// Enqueues one part per rank on a fresh join node; each part's share
  /// becomes its task's body.
  std::vector<sim::Event> launch(std::vector<RankPart> parts,
                                 double duration, const char* label,
                                 StreamChoice stream, int stage = -1);

  /// Fault hook run before any rank part is enqueued: throws
  /// DeviceLostError if a participant is lost (pre-checked so a collective
  /// is never left with a partial join node, whose arrived parts would
  /// never complete), and converts the fault plan's injected transient
  /// failures into a simulated retry/backoff delay — or CommError once the
  /// retry budget is exhausted.
  [[nodiscard]] double resolve_faults(const char* label);

  [[nodiscard]] sim::Stream& stream_of(int rank, StreamChoice choice);

  std::vector<sim::Device*> devices_;
  Topology topology_;
  CommOptions options_;
  sim::FaultPlan* fault_plan_ = nullptr;  ///< owned by the machine
};

}  // namespace mggcn::comm
