#include "comm/communicator.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace mggcn::comm {

namespace {

/// Whether a data-moving collective moves data: true when every part that
/// `takes_part(rank)` names carries storage, false when none does (phantom-
/// mode buffers carry none). A mix would move some ranks' data and silently
/// skip the rest, so it throws.
template <typename TakesPart>
bool carries_storage(const std::vector<RankPart>& parts, const char* label,
                     const TakesPart& takes_part) {
  std::size_t with = 0;
  std::size_t without = 0;
  std::size_t missing = 0;
  for (std::size_t r = 0; r < parts.size(); ++r) {
    if (!takes_part(r)) continue;
    if (parts[r].buffer != nullptr && parts[r].buffer->data() != nullptr) {
      ++with;
    } else if (without++ == 0) {
      missing = r;
    }
  }
  if (with > 0 && without > 0) {
    std::ostringstream os;
    os << "collective '" << label << "': rank " << missing
       << " has no buffer storage while " << with << " other rank(s) do";
    throw InvalidArgumentError(os.str());
  }
  return with > 0;
}

/// Every part's buffer storage, in rank order (after carries_storage()).
std::vector<float*> data_of(std::vector<RankPart>& parts) {
  std::vector<float*> bufs;
  bufs.reserve(parts.size());
  for (RankPart& part : parts) bufs.push_back(part.buffer->data());
  return bufs;
}

/// [lo, hi) of slice `s` when `count` elements split into `slices` near-
/// equal contiguous slices.
std::pair<std::size_t, std::size_t> element_slice(std::size_t count,
                                                  std::size_t s,
                                                  std::size_t slices) {
  return {count * s / slices, count * (s + 1) / slices};
}

}  // namespace

Communicator::Communicator(sim::Machine& machine, CommOptions options)
    : topology_(machine.profile().interconnect),
      options_(options),
      fault_plan_(machine.fault_plan()) {
  devices_.reserve(static_cast<std::size_t>(machine.num_devices()));
  for (int rank = 0; rank < machine.num_devices(); ++rank) {
    devices_.push_back(&machine.device(rank));
  }
}

Communicator::Communicator(std::vector<sim::Device*> devices,
                           Topology topology, CommOptions options)
    : devices_(std::move(devices)),
      topology_(topology),
      options_(options) {
  MGGCN_CHECK_MSG(!devices_.empty(), "communicator needs at least one device");
}

sim::Stream& Communicator::stream_of(int rank, StreamChoice choice) {
  sim::Device& device = *devices_[static_cast<std::size_t>(rank)];
  return choice == StreamChoice::kComm ? device.comm_stream()
                                       : device.compute_stream();
}

double Communicator::resolve_faults(const char* label) {
  for (const sim::Device* device : devices_) {
    if (device->is_failed()) {
      std::ostringstream os;
      os << "collective '" << label << "' spans lost device "
         << device->rank();
      throw DeviceLostError(os.str(), device->rank());
    }
  }
  if (fault_plan_ == nullptr) return 0.0;

  sim::Trace* trace = devices_.front()->trace();
  const int epoch = fault_plan_->current_epoch();
  double penalty = 0.0;
  int attempts = 0;
  while (fault_plan_->take_transient_failure()) {
    ++attempts;
    // Exponential backoff: timeout, 2*timeout, 4*timeout, ...
    const double backoff =
        options_.retry_timeout_seconds * static_cast<double>(1 << (attempts - 1));
    penalty += backoff;
    if (trace != nullptr) {
      trace->record_fault(sim::FaultRecord{
          .kind = sim::FaultEventKind::kTransientComm,
          .epoch = epoch,
          .device = -1,
          .detail = std::string("injected transient failure of '") + label +
                    "'",
      });
      trace->record_fault(sim::FaultRecord{
          .kind = sim::FaultEventKind::kCommRetry,
          .epoch = epoch,
          .device = -1,
          .value = backoff,
          .detail = std::string("retry ") + std::to_string(attempts) +
                    " of '" + label + "'",
      });
    }
    if (attempts > options_.max_retries) {
      std::ostringstream os;
      os << "collective '" << label << "' failed " << attempts
         << " times (retry budget " << options_.max_retries << " exhausted)";
      throw CommError(os.str(), attempts);
    }
  }

  return penalty;
}

std::vector<sim::Event> Communicator::launch(std::vector<RankPart> parts,
                                             double duration,
                                             const char* label,
                                             StreamChoice stream, int stage) {
  MGGCN_CHECK_MSG(parts.size() == devices_.size(),
                  "collective needs one part per rank");

  const double fault_penalty = resolve_faults(label);
  const double bandwidth_scale =
      fault_plan_ != nullptr ? fault_plan_->link_bandwidth_scale() : 1.0;

  auto group = std::make_shared<sim::CollectiveGroup>(size());
  group->duration =
      duration * options_.duration_scale / bandwidth_scale + fault_penalty;

  std::vector<sim::Event> events;
  events.reserve(parts.size());
  for (int rank = 0; rank < size(); ++rank) {
    auto& part = parts[static_cast<std::size_t>(rank)];
    sim::TaskDesc desc;
    desc.label = label;
    desc.kind = sim::TaskKind::kComm;
    desc.stage = stage;
    desc.body = std::move(part.share);
    desc.waits = std::move(part.waits);
    desc.reads = std::move(part.reads);
    desc.writes = std::move(part.writes);
    desc.collective = group;
    events.push_back(stream_of(rank, stream).enqueue(std::move(desc)));
  }
  return events;
}

std::vector<sim::Event> Communicator::broadcast(std::vector<RankPart> parts,
                                                std::size_t count, int root,
                                                StreamChoice stream,
                                                int stage) {
  MGGCN_CHECK(root >= 0 && root < size());
  for (std::size_t r = 0; r < parts.size(); ++r) {
    if (parts[r].buffer == nullptr) continue;
    if (static_cast<int>(r) == root) {
      parts[r].reads.push_back(parts[r].buffer->access());
    } else {
      parts[r].writes.push_back(parts[r].buffer->access());
    }
  }
  if (size() == 1) {
    // Degenerate collective: nothing moves, but callers still get events.
    return launch(std::move(parts), 0.0, "broadcast", stream, stage);
  }

  const std::uint64_t bytes = count * sizeof(float);
  const double duration = topology_.broadcast_seconds(bytes, size());

  // The root and every rank with a buffer take part; a receiver without a
  // buffer is sent nothing.
  const auto root_index = static_cast<std::size_t>(root);
  if (carries_storage(parts, "broadcast", [&](std::size_t r) {
        return count > 0 && (r == root_index || parts[r].buffer != nullptr);
      })) {
    const float* src = parts[root_index].buffer->data();
    for (std::size_t r = 0; r < parts.size(); ++r) {
      if (r == root_index || parts[r].buffer == nullptr) continue;
      float* dst = parts[r].buffer->data();
      if (dst == src) continue;
      parts[r].share = [src, dst, count] {
        std::memcpy(dst, src, count * sizeof(float));
      };
    }
  }
  return launch(std::move(parts), duration, "broadcast", stream, stage);
}

double Communicator::sendv_rows_seconds(std::uint64_t total_bytes,
                                        int messages) const {
  if (size() <= 1 || messages <= 0) return 0.0;
  const double wire = topology_.sendv_seconds(total_bytes, messages, size());
  // Root-side pack: the payload rows are gathered out of the source block
  // and staged into the per-destination sends — one read plus one write of
  // the payload at the root's HBM bandwidth. Folding it into the
  // collective duration keeps the pack on the comm stream, where it
  // overlaps compute exactly like the wire time does.
  const double bandwidth = devices_.front()->profile().memory_bandwidth;
  const double pack =
      bandwidth > 0.0 ? 2.0 * static_cast<double>(total_bytes) / bandwidth
                      : 0.0;
  return wire + pack;
}

double Communicator::sendv_rows_seconds(const SendvShape& shape) const {
  if (size() <= 1 || shape.messages() <= 0) return 0.0;
  const double wire = topology_.sendv_split_seconds(
      shape.intra_bytes, shape.intra_messages, shape.inter_bytes,
      shape.inter_messages, size(), shape.scatter_bytes);
  const double bandwidth = devices_.front()->profile().memory_bandwidth;
  const double pack =
      bandwidth > 0.0
          ? 2.0 * static_cast<double>(shape.total_bytes()) / bandwidth
          : 0.0;
  return wire + pack;
}

int Communicator::node_of(int rank) const {
  const int dpn = topology_.profile().devices_per_node;
  if (dpn <= 0) return 0;
  return devices_[static_cast<std::size_t>(rank)]->rank() / dpn;
}

SendvShape Communicator::sendv_shape(
    const std::vector<std::span<const std::uint32_t>>& rows, std::int64_t d,
    int root) const {
  SendvShape shape;
  const std::uint64_t row_bytes = static_cast<std::uint64_t>(d) * sizeof(float);
  const int root_node = node_of(root);

  int max_node = 0;
  for (int r = 0; r < size(); ++r) max_node = std::max(max_node, node_of(r));
  std::vector<std::uint64_t> node_row_sum(static_cast<std::size_t>(max_node) +
                                          1);
  std::vector<int> node_dests(static_cast<std::size_t>(max_node) + 1, 0);
  std::vector<std::vector<int>> node_members(
      static_cast<std::size_t>(max_node) + 1);

  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (static_cast<int>(r) == root || rows[r].empty()) continue;
    const int node = node_of(static_cast<int>(r));
    if (node == root_node) {
      shape.intra_bytes += rows[r].size() * row_bytes;
      ++shape.intra_messages;
    } else {
      node_row_sum[static_cast<std::size_t>(node)] += rows[r].size();
      ++node_dests[static_cast<std::size_t>(node)];
      node_members[static_cast<std::size_t>(node)].push_back(
          static_cast<int>(r));
    }
  }

  std::vector<std::uint32_t> merged;
  for (int node = 0; node <= max_node; ++node) {
    const auto n = static_cast<std::size_t>(node);
    if (node_dests[n] == 0) continue;
    std::uint64_t union_rows = 0;
    if (node_dests[n] == 1) {
      union_rows = rows[static_cast<std::size_t>(node_members[n][0])].size();
    } else {
      merged.clear();
      for (int member : node_members[n]) {
        const auto& list = rows[static_cast<std::size_t>(member)];
        merged.insert(merged.end(), list.begin(), list.end());
      }
      std::sort(merged.begin(), merged.end());
      union_rows = static_cast<std::uint64_t>(
          std::unique(merged.begin(), merged.end()) - merged.begin());
      // Two or more destinations share the forwarded union: the node's
      // local root redistributes everyone's slice over the intra fabric.
      shape.scatter_bytes =
          std::max(shape.scatter_bytes, node_row_sum[n] * row_bytes);
    }
    shape.inter_bytes += union_rows * row_bytes;
    ++shape.inter_messages;
  }
  return shape;
}

std::vector<sim::Event> Communicator::sendv_rows(
    std::vector<RankPart> parts,
    std::vector<std::span<const std::uint32_t>> rows, std::int64_t d,
    int root, StreamChoice stream, int stage) {
  MGGCN_CHECK(root >= 0 && root < size());
  MGGCN_CHECK(d > 0);
  MGGCN_CHECK_MSG(rows.size() == parts.size(),
                  "sendv_rows needs one row list per rank");
  for (std::size_t r = 0; r < parts.size(); ++r) {
    if (parts[r].buffer == nullptr) continue;
    if (static_cast<int>(r) == root) {
      parts[r].reads.push_back(parts[r].buffer->access());
    } else if (!rows[r].empty()) {
      parts[r].writes.push_back(parts[r].buffer->access());
    }
  }
  if (size() == 1) {
    return launch(std::move(parts), 0.0, "sendv_rows", stream, stage);
  }

  const SendvShape shape = sendv_shape(rows, d, root);
  const double duration = sendv_rows_seconds(shape);

  // The root and every destination with rows take part.
  const auto root_index = static_cast<std::size_t>(root);
  bool any_rows = false;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    any_rows = any_rows || (r != root_index && !rows[r].empty());
  }
  if (carries_storage(parts, "sendv_rows", [&](std::size_t r) {
        return r == root_index ? any_rows : !rows[r].empty();
      })) {
    const float* src = parts[root_index].buffer->data();
    for (std::size_t r = 0; r < parts.size(); ++r) {
      if (r == root_index || rows[r].empty()) continue;
      parts[r].share = [src, dst = parts[r].buffer->data(), list = rows[r],
                        d] {
        for (std::size_t i = 0; i < list.size(); ++i) {
          std::memcpy(dst + static_cast<std::int64_t>(i) * d,
                      src + static_cast<std::int64_t>(list[i]) * d,
                      static_cast<std::size_t>(d) * sizeof(float));
        }
      };
    }
  }
  return launch(std::move(parts), duration, "sendv_rows", stream, stage);
}

std::vector<sim::Event> Communicator::allreduce_sum(std::vector<RankPart> parts,
                                                    std::size_t count,
                                                    StreamChoice stream) {
  for (auto& part : parts) {
    if (part.buffer == nullptr) continue;
    part.reads.push_back(part.buffer->access());
    if (size() > 1) part.writes.push_back(part.buffer->access());
  }
  if (size() == 1) {
    return launch(std::move(parts), 0.0, "allreduce", stream);
  }

  const std::uint64_t bytes = count * sizeof(float);
  const double duration = topology_.allreduce_seconds(bytes, size());

  if (carries_storage(parts, "allreduce",
                      [&](std::size_t) { return count > 0; })) {
    const std::vector<float*> bufs = data_of(parts);
    for (std::size_t s = 0; s < parts.size(); ++s) {
      const auto [lo, hi] = element_slice(count, s, parts.size());
      if (lo == hi) continue;
      // Rank-order reduction of the slice into rank 0, then broadcast
      // back: each element sees the additions of one full-buffer sweep.
      parts[s].share = [bufs, lo, hi] {
        for (std::size_t rank = 1; rank < bufs.size(); ++rank) {
          for (std::size_t i = lo; i < hi; ++i) bufs[0][i] += bufs[rank][i];
        }
        for (std::size_t rank = 1; rank < bufs.size(); ++rank) {
          std::memcpy(bufs[rank] + lo, bufs[0] + lo, (hi - lo) * sizeof(float));
        }
      };
    }
  }
  return launch(std::move(parts), duration, "allreduce", stream);
}

std::vector<sim::Event> Communicator::reduce_sum(std::vector<RankPart> parts,
                                                 std::size_t count, int root,
                                                 StreamChoice stream) {
  MGGCN_CHECK(root >= 0 && root < size());
  for (std::size_t r = 0; r < parts.size(); ++r) {
    if (parts[r].buffer == nullptr) continue;
    parts[r].reads.push_back(parts[r].buffer->access());
    if (static_cast<int>(r) == root && size() > 1) {
      parts[r].writes.push_back(parts[r].buffer->access());
    }
  }
  if (size() == 1) {
    return launch(std::move(parts), 0.0, "reduce", stream);
  }

  const std::uint64_t bytes = count * sizeof(float);
  const double duration = topology_.reduce_seconds(bytes, size());

  if (carries_storage(parts, "reduce",
                      [&](std::size_t) { return count > 0; })) {
    const std::vector<float*> bufs = data_of(parts);
    const auto root_index = static_cast<std::size_t>(root);
    for (std::size_t s = 0; s < parts.size(); ++s) {
      const auto [lo, hi] = element_slice(count, s, parts.size());
      if (lo == hi) continue;
      parts[s].share = [bufs, lo, hi, root_index] {
        float* dst = bufs[root_index];
        for (std::size_t rank = 0; rank < bufs.size(); ++rank) {
          if (rank == root_index) continue;
          for (std::size_t i = lo; i < hi; ++i) dst[i] += bufs[rank][i];
        }
      };
    }
  }
  return launch(std::move(parts), duration, "reduce", stream);
}

std::vector<sim::Event> Communicator::allgather(
    std::vector<RankPart> parts, const std::vector<std::size_t>& counts,
    StreamChoice stream) {
  MGGCN_CHECK(counts.size() == parts.size());
  for (auto& part : parts) {
    if (part.buffer == nullptr) continue;
    part.reads.push_back(part.buffer->access());
    if (size() > 1) part.writes.push_back(part.buffer->access());
  }
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  if (size() == 1) {
    return launch(std::move(parts), 0.0, "allgather", stream);
  }

  const double duration =
      topology_.allgather_seconds(total * sizeof(float), size());

  // In place, every rank's head segment is also part of every other rank's
  // result, so the whole gather is one share, rank 0's, rather than one per
  // destination.
  if (carries_storage(parts, "allgather",
                      [&](std::size_t) { return total > 0; })) {
    parts.front().share = [bufs = data_of(parts), counts, total] {
      // Gather every rank's head segment into a scratch image, then write
      // the concatenation back to all ranks.
      std::vector<float> image(total);
      std::size_t offset = 0;
      for (std::size_t r = 0; r < counts.size(); ++r) {
        std::memcpy(image.data() + offset, bufs[r], counts[r] * sizeof(float));
        offset += counts[r];
      }
      for (float* dst : bufs) {
        std::memcpy(dst, image.data(), total * sizeof(float));
      }
    };
  }
  return launch(std::move(parts), duration, "allgather", stream);
}

std::vector<sim::Event> Communicator::barrier(StreamChoice stream) {
  std::vector<RankPart> parts(static_cast<std::size_t>(size()));
  return launch(std::move(parts), topology_.base_latency(), "barrier", stream);
}

}  // namespace mggcn::comm
