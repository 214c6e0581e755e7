#include "mem/workspace_pool.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "sim/machine.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/logging.hpp"

namespace mggcn::mem {

namespace {

constexpr std::uint64_t to_bytes(std::size_t elements) {
  return static_cast<std::uint64_t>(elements) * sizeof(float);
}

int bin_of(std::size_t elements) {
  return static_cast<int>(std::bit_width(static_cast<std::uint64_t>(elements)));
}

}  // namespace

// ---------------------------------------------------------- pool internals --

/// A contiguous region inside a slab. Free blocks sit in the size bins and
/// keep the completion events of the tenants whose data they still hold;
/// live blocks are referenced by exactly one PooledBuffer. `id` is the
/// stable hazard identity: it survives reuse (that is the audit hook) and
/// is refreshed only when a block's extent changes (split/coalesce), since
/// a different extent is a different buffer.
struct WorkspacePool::Block {
  Slab* slab = nullptr;
  std::size_t offset = 0;  ///< elements from the slab base
  std::size_t elements = 0;
  bool free = false;
  std::uint64_t id = 0;
  std::string tenant;  ///< current lease's name (diagnostics / OOM ledger)
  /// Last-use events of previous tenants; joined before the data is
  /// re-issued to a new tenant or the slab is returned to the device.
  std::vector<sim::Event> pending;
  Block* prev = nullptr;  ///< address-ordered within the slab
  Block* next = nullptr;
};

/// One device reservation, carved into blocks. Slabs are sized exactly to
/// the request that created them, so a pool that never reuses anything
/// reserves exactly what the static scheme would have.
struct WorkspacePool::Slab {
  std::uint64_t seq = 0;  ///< creation order; deterministic tie-break
  sim::DeviceBuffer storage;
  std::size_t elements = 0;
  Block* head = nullptr;

  ~Slab() {
    for (Block* b = head; b != nullptr;) {
      Block* next = b->next;
      delete b;
      b = next;
    }
  }
};

// ----------------------------------------------------------- PooledBuffer --

PooledBuffer::PooledBuffer(sim::Device& device, std::size_t elements,
                           std::string name, sim::Fill fill)
    : view_(device, elements, std::move(name), fill) {}

PooledBuffer::~PooledBuffer() { reset(); }

PooledBuffer::PooledBuffer(PooledBuffer&& other) noexcept
    : pool_(std::exchange(other.pool_, nullptr)),
      block_(std::exchange(other.block_, nullptr)),
      view_(std::move(other.view_)),
      ready_(std::move(other.ready_)),
      last_use_(std::move(other.last_use_)) {}

PooledBuffer& PooledBuffer::operator=(PooledBuffer&& other) noexcept {
  if (this != &other) {
    reset();
    pool_ = std::exchange(other.pool_, nullptr);
    block_ = std::exchange(other.block_, nullptr);
    view_ = std::move(other.view_);
    ready_ = std::move(other.ready_);
    last_use_ = std::move(other.last_use_);
  }
  return *this;
}

void PooledBuffer::recycle() {
  if (pool_ != nullptr && block_ != nullptr) {
    pool_->release_block(static_cast<WorkspacePool::Block*>(block_),
                         std::move(last_use_));
    block_ = nullptr;
    pool_ = nullptr;
    // view_ is intentionally kept: consumers enqueued before the recycle
    // hold this lease's raw data pointer and read it until the recorded
    // last-use event completes (the pool joins that event before the
    // storage is re-issued or trimmed). Only new declarations are invalid.
    ready_.clear();
    last_use_ = sim::Event();
  }
}

void PooledBuffer::recycle(sim::Event last_use) {
  record_last_use(std::move(last_use));
  recycle();
}

void PooledBuffer::reset() {
  if (pool_ != nullptr && block_ != nullptr) {
    recycle();
  } else {
    view_.release();
    pool_ = nullptr;
    block_ = nullptr;
    ready_.clear();
    last_use_ = sim::Event();
  }
}

// ----------------------------------------------------------- WorkspacePool --

WorkspacePool::WorkspacePool(sim::Device& device, std::uint64_t budget_bytes)
    : device_(device),
      budget_bytes_(budget_bytes != 0 ? budget_bytes
                                      : device.profile().memory_bytes),
      bins_(65) {}

WorkspacePool::~WorkspacePool() {
  if (stats_.live_buffers != 0) {
    MGGCN_LOG(kError) << "workspace pool on device " << device_.rank()
                      << " destroyed with " << stats_.live_buffers
                      << " live leases (" << ledger_string() << ")";
    assert(false && "workspace pool destroyed with live leases");
  }
  // Join every retained tenant before the slab storage (and its host
  // backing) goes away: enqueued task bodies may still hold raw pointers
  // into it.
  if (device_.mode() == sim::ExecutionMode::kReal) {
    for (const auto& slab : slabs_) {
      for (Block* b = slab->head; b != nullptr; b = b->next) {
        for (const sim::Event& e : b->pending) {
          if (e.valid()) e.wait();
        }
      }
    }
  }
  slabs_.clear();  // DeviceBuffer destructors return the ledger bytes
}

std::uint64_t WorkspacePool::available_bytes() const {
  return budget_bytes_ > stats_.in_use_bytes
             ? budget_bytes_ - stats_.in_use_bytes
             : 0;
}

PooledBuffer WorkspacePool::acquire(std::size_t elements, std::string name,
                                    sim::Fill fill) {
  PooledBuffer lease;
  if (elements == 0) {
    // Matches an empty DeviceBuffer: id 0, no reservation, nothing to
    // audit. Keep the name so diagnostics stay useful.
    lease.view_ = sim::DeviceBuffer::view(device_, 0, nullptr, std::move(name),
                                          0);
    return lease;
  }

  Block* block = find_fit(elements);
  bool reused = block != nullptr;
  if (reused) {
    bin_remove(block);
    if (block->elements > elements) {
      Block* remainder = split(block, elements);
      bin_insert(remainder);
      ++stats_.splits;
    }
    ++stats_.reuse_hits;
  } else {
    // The free lists cannot serve the request: give back every wholly-free
    // slab first so the grow below never stacks idle reservations on top
    // of the new one — this is what keeps the pooled ledger peak at or
    // below the static scheme's.
    trim_free_slabs();
    const std::uint64_t bytes = to_bytes(elements);
    if (stats_.reserved_bytes + bytes > budget_bytes_) {
      std::ostringstream os;
      os << "workspace pool on device " << device_.rank()
         << " out of budget leasing " << util::format_bytes(bytes) << " for '"
         << name << "': " << ledger_string();
      throw OutOfMemoryError(os.str());
    }
    auto slab = std::make_unique<Slab>();
    slab->seq = next_slab_seq_++;
    slab->storage =
        sim::DeviceBuffer(device_, elements, "pool-slab:" + name, fill);
    slab->elements = elements;
    block = new Block();
    block->slab = slab.get();
    block->offset = 0;
    block->elements = elements;
    block->id = sim::next_buffer_identity();
    slab->head = block;
    slabs_.push_back(std::move(slab));
    stats_.reserved_bytes += bytes;
    ++stats_.slab_allocs;
  }

  block->free = false;
  block->tenant = name;
  stats_.in_use_bytes += to_bytes(block->elements);
  ++stats_.live_buffers;

  float* data = nullptr;
  if (block->slab->storage.data() != nullptr) {
    data = block->slab->storage.data() + block->offset;
  }
  if (device_.mode() == sim::ExecutionMode::kReal && reused) {
    // Stream-ordered handover: join the previous tenants' last consumers,
    // then re-zero the block so numerics are bit-identical to the static
    // scheme. Every recycled block is zeroed, Fill::kNone leases included,
    // except that under hazard checking a kNone lease gets the quiet-NaN
    // poison instead, like a fresh kNone DeviceBuffer. The host wait
    // deliberately does not join the hazard checker's host clock — the
    // *declared* ready() edge must carry the ordering, or the audit fires.
    for (const sim::Event& e : block->pending) {
      if (e.valid()) e.wait();
    }
    if (data != nullptr) {
      if (fill == sim::Fill::kNone && device_.hazard() != nullptr) {
        sim::fill_poison({data, block->elements});
      } else {
        std::memset(data, 0, to_bytes(block->elements));
      }
    }
  }
  lease.pool_ = this;
  lease.block_ = block;
  lease.ready_ = std::move(block->pending);
  block->pending.clear();
  lease.view_ = sim::DeviceBuffer::view(device_, block->elements, data,
                                        std::move(name), block->id);
  note_extremes();
  return lease;
}

WorkspacePool::Block* WorkspacePool::find_fit(std::size_t elements) {
  // Best fit, deterministically tie-broken by (slab seq, offset). Bins are
  // ordered by size class, so the first bin holding a fitting block also
  // holds the globally best fit.
  //
  // Split-waste cap: a much-larger block is never split for a small
  // request. The small lease would pin the slab (a partially-used slab
  // cannot be trimmed), so a later full-size request has to grow the
  // ledger past the static scheme's peak. Treating the oversize block as
  // a miss routes the request through trim-before-grow instead, which
  // reclaims the idle slab first. The cap allows a remainder up to the
  // request itself (waste never exceeds the lease that caused it) or up
  // to kMaxSplitWasteElements for near fits on large blocks.
  constexpr std::size_t kMaxSplitWasteElements = 4096;
  for (int bin = bin_of(elements); bin < static_cast<int>(bins_.size());
       ++bin) {
    Block* best = nullptr;
    for (Block* b : bins_[bin]) {
      if (b->elements < elements) continue;
      if (b->elements - elements > std::max(elements, kMaxSplitWasteElements))
        continue;
      if (best == nullptr || b->elements < best->elements ||
          (b->elements == best->elements &&
           (b->slab->seq < best->slab->seq ||
            (b->slab->seq == best->slab->seq && b->offset < best->offset)))) {
        best = b;
      }
    }
    if (best != nullptr) return best;
  }
  return nullptr;
}

void WorkspacePool::bin_insert(Block* block) {
  bins_[bin_of(block->elements)].push_back(block);
}

void WorkspacePool::bin_remove(Block* block) {
  auto& bin = bins_[bin_of(block->elements)];
  bin.erase(std::find(bin.begin(), bin.end(), block));
}

WorkspacePool::Block* WorkspacePool::split(Block* block, std::size_t elements) {
  assert(block->elements > elements);
  Block* remainder = new Block();
  remainder->slab = block->slab;
  remainder->offset = block->offset + elements;
  remainder->elements = block->elements - elements;
  remainder->free = true;
  remainder->id = sim::next_buffer_identity();
  // Both halves still hold the previous tenant's data, so both inherit its
  // completion events.
  remainder->pending = block->pending;
  remainder->prev = block;
  remainder->next = block->next;
  if (block->next != nullptr) block->next->prev = remainder;
  block->next = remainder;
  block->elements = elements;
  // The lead half changed extent: it is a new buffer as far as the hazard
  // audit is concerned.
  block->id = sim::next_buffer_identity();
  return remainder;
}

void WorkspacePool::release_block(Block* block, sim::Event last_use) {
  assert(!block->free);
  block->free = true;
  if (last_use.valid()) block->pending.push_back(std::move(last_use));
  stats_.in_use_bytes -= to_bytes(block->elements);
  --stats_.live_buffers;

  // Coalesce with free neighbors (merging their pending events) so large
  // requests can be served again after a burst of small ones.
  if (Block* prev = block->prev; prev != nullptr && prev->free) {
    bin_remove(prev);
    prev->elements += block->elements;
    prev->next = block->next;
    if (block->next != nullptr) block->next->prev = prev;
    prev->pending.insert(prev->pending.end(),
                         std::make_move_iterator(block->pending.begin()),
                         std::make_move_iterator(block->pending.end()));
    prev->id = sim::next_buffer_identity();
    delete block;
    block = prev;
    ++stats_.coalesces;
  }
  if (Block* next = block->next; next != nullptr && next->free) {
    bin_remove(next);
    block->elements += next->elements;
    block->next = next->next;
    if (next->next != nullptr) next->next->prev = block;
    block->pending.insert(block->pending.end(),
                          std::make_move_iterator(next->pending.begin()),
                          std::make_move_iterator(next->pending.end()));
    block->id = sim::next_buffer_identity();
    delete next;
    ++stats_.coalesces;
  }
  bin_insert(block);
  note_extremes();
}

void WorkspacePool::trim_free_slabs() {
  for (auto it = slabs_.begin(); it != slabs_.end();) {
    Slab& slab = **it;
    Block* head = slab.head;
    // Eager coalescing guarantees a wholly-free slab is one free block.
    if (head == nullptr || !head->free || head->next != nullptr) {
      ++it;
      continue;
    }
    if (device_.mode() == sim::ExecutionMode::kReal) {
      for (const sim::Event& e : head->pending) {
        if (e.valid()) e.wait();
      }
    }
    bin_remove(head);
    stats_.reserved_bytes -= to_bytes(slab.elements);
    ++stats_.trims;
    it = slabs_.erase(it);  // releases the device reservation
  }
}

void WorkspacePool::note_extremes() {
  stats_.free_bytes = stats_.reserved_bytes - stats_.in_use_bytes;
  stats_.reserved_peak_bytes =
      std::max(stats_.reserved_peak_bytes, stats_.reserved_bytes);
  stats_.in_use_peak_bytes =
      std::max(stats_.in_use_peak_bytes, stats_.in_use_bytes);
  if (stats_.free_bytes > 0) {
    std::uint64_t largest_free = 0;
    for (const auto& bin : bins_) {
      for (const Block* b : bin) {
        largest_free = std::max(largest_free, to_bytes(b->elements));
      }
    }
    const double frag = 1.0 - static_cast<double>(largest_free) /
                                  static_cast<double>(stats_.free_bytes);
    stats_.fragmentation_peak = std::max(stats_.fragmentation_peak, frag);
  }
}

std::string WorkspacePool::ledger_string() const {
  std::uint64_t largest_free = 0;
  for (const auto& bin : bins_) {
    for (const Block* b : bin) {
      largest_free = std::max(largest_free, to_bytes(b->elements));
    }
  }
  std::ostringstream os;
  os << "budget " << util::format_bytes(budget_bytes_) << ", reserved "
     << util::format_bytes(stats_.reserved_bytes) << " across "
     << slabs_.size() << " slab(s), in use "
     << util::format_bytes(stats_.in_use_bytes) << " in "
     << stats_.live_buffers << " lease(s), free "
     << util::format_bytes(stats_.free_bytes) << " (largest block "
     << util::format_bytes(largest_free) << ")";
  if (stats_.live_buffers > 0) {
    // Aggregate live leases by tenant name, largest total first, so the
    // OOM message names the components actually holding the budget.
    std::map<std::string, std::pair<std::size_t, std::uint64_t>> by_tenant;
    for (const auto& slab : slabs_) {
      for (const Block* b = slab->head; b != nullptr; b = b->next) {
        if (b->free) continue;
        auto& [count, bytes] = by_tenant[b->tenant];
        ++count;
        bytes += to_bytes(b->elements);
      }
    }
    std::vector<std::pair<std::string, std::pair<std::size_t, std::uint64_t>>>
        ordered(by_tenant.begin(), by_tenant.end());
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const auto& a, const auto& b) {
                       return a.second.second > b.second.second;
                     });
    constexpr std::size_t kMaxListed = 12;
    os << "; live:";
    for (std::size_t i = 0; i < ordered.size(); ++i) {
      if (i == kMaxListed) {
        os << " ...";
        break;
      }
      const auto& [tenant, agg] = ordered[i];
      os << (i == 0 ? " " : ", ") << tenant;
      if (agg.first > 1) os << " x" << agg.first;
      os << " (" << util::format_bytes(agg.second) << ")";
    }
  }
  return os.str();
}

// ----------------------------------------------------------------- PoolSet --

std::shared_ptr<PoolSet> PoolSet::create(sim::Machine& machine,
                                         std::uint64_t budget_bytes) {
  auto set = std::make_shared<PoolSet>();
  set->machine_ = &machine;
  set->pools_.reserve(static_cast<std::size_t>(machine.num_devices()));
  for (int r = 0; r < machine.num_devices(); ++r) {
    set->pools_.push_back(
        std::make_unique<WorkspacePool>(machine.device(r), budget_bytes));
  }
  return set;
}

WorkspacePool& PoolSet::pool(int rank) {
  return *pools_.at(static_cast<std::size_t>(rank));
}

PoolStats PoolSet::stats() const {
  PoolStats out;
  for (const auto& pool : pools_) {
    const PoolStats& s = pool->stats();
    out.reserved_bytes = std::max(out.reserved_bytes, s.reserved_bytes);
    out.in_use_bytes = std::max(out.in_use_bytes, s.in_use_bytes);
    out.free_bytes = std::max(out.free_bytes, s.free_bytes);
    out.reserved_peak_bytes =
        std::max(out.reserved_peak_bytes, s.reserved_peak_bytes);
    out.in_use_peak_bytes =
        std::max(out.in_use_peak_bytes, s.in_use_peak_bytes);
    out.reuse_hits += s.reuse_hits;
    out.slab_allocs += s.slab_allocs;
    out.splits += s.splits;
    out.coalesces += s.coalesces;
    out.trims += s.trims;
    out.live_buffers += s.live_buffers;
    out.fragmentation_peak =
        std::max(out.fragmentation_peak, s.fragmentation_peak);
  }
  return out;
}

std::shared_ptr<PoolSet> resolve_pool(std::shared_ptr<PoolSet> shared,
                                      sim::Machine& machine) {
  return resolve_pool(std::move(shared), machine, pool_mode());
}

std::shared_ptr<PoolSet> resolve_pool(std::shared_ptr<PoolSet> shared,
                                      sim::Machine& machine, PoolMode mode) {
  if (mode == PoolMode::kOff) return nullptr;
  if (shared != nullptr && shared->machine() == &machine) return shared;
  if (mode == PoolMode::kOn) return PoolSet::create(machine);
  return nullptr;
}

PooledBuffer acquire_or_alloc(WorkspacePool* pool, sim::Device& device,
                              std::size_t elements, std::string name,
                              sim::Fill fill) {
  if (pool != nullptr) {
    assert(&pool->device() == &device);
    return pool->acquire(elements, std::move(name), fill);
  }
  return PooledBuffer(device, elements, std::move(name), fill);
}

void append_ready(std::vector<sim::Event>* waits, const PooledBuffer& lease) {
  for (const sim::Event& e : lease.ready()) {
    if (e.valid()) waits->push_back(e);
  }
}

}  // namespace mggcn::mem
