#include "sim/device.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <sstream>

#include "util/format.hpp"
#include "util/knob.hpp"
#include "util/logging.hpp"

namespace mggcn::sim {

namespace {

/// Monotonic identity source for DeviceBuffer (0 is "no buffer").
std::atomic<std::uint64_t> next_buffer_id{1};

/// splitmix64: tiny, high-quality, and deterministic — the fuzz delays
/// must replay bit-identically for a given (seed, rank, stream).
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// MGGCN_SCHED_FUZZ=<seed> enables schedule fuzzing; a malformed seed
/// throws. Read per Stream (not cached process-wide) so tests can flip the
/// variable between machines.
constinit const util::Knob<std::uint64_t> sched_fuzz_knob{
    "MGGCN_SCHED_FUZZ", 0, 0, std::numeric_limits<std::uint64_t>::max(),
    "an unsigned integer seed (decimal, 0x hex, or 0 octal)", /*base=*/0};

}  // namespace

// ---------------------------------------------------------------- Event --

Event Event::signaled(double sim_time) {
  auto state = std::make_shared<Event::State>();
  state->done = true;
  state->sim_time = sim_time;
  return Event(std::move(state));
}

double Event::wait() const {
  MGGCN_CHECK_MSG(state_ != nullptr, "waiting on a null event");
  std::unique_lock lock(state_->mutex);
  state_->cv.wait(lock, [&] { return state_->done; });
  return state_->sim_time;
}

bool Event::is_complete() const {
  if (!state_) return false;
  std::lock_guard lock(state_->mutex);
  return state_->done;
}

// --------------------------------------------------------------- Stream --

Stream::Stream(Device& device, int id) : device_(device), id_(id) {
  if (device_.hazard() != nullptr) {
    hb_slot_ = device_.hazard()->register_stream();
  }
  if (const auto seed = sched_fuzz_knob.read_env()) {
    fuzz_ = true;
    // Distinct per-(rank, stream) delay sequences from one seed.
    fuzz_state_ = *seed + 0x9e3779b97f4a7c15ULL *
                             (static_cast<std::uint64_t>(device.rank()) * 2 +
                              static_cast<std::uint64_t>(id) + 1);
  }
  worker_ = std::thread([this] { worker_loop(); });
}

Stream::~Stream() {
  queue_.close();
  if (worker_.joinable()) worker_.join();
}

Event Stream::enqueue(TaskDesc desc) {
  if (desc.traced && device_.is_failed()) {
    std::ostringstream os;
    os << "device " << device_.rank() << " is lost; cannot enqueue '"
       << desc.label << "'";
    throw DeviceLostError(os.str(), device_.rank());
  }
  auto state = std::make_shared<Event::State>();
  PendingTask pending{std::move(desc), state, {}};
  if (device_.hazard() != nullptr) {
    pending.enqueue_clock = device_.hazard()->host_clock();
  }
  const bool accepted = queue_.push(std::move(pending));
  MGGCN_CHECK_MSG(accepted, "enqueue on a destroyed stream");
  return Event(state);
}

Event Stream::record_event() {
  TaskDesc marker;
  marker.label = "event";
  marker.traced = false;
  return enqueue(std::move(marker));
}

void Stream::wait_event(const Event& event) {
  TaskDesc barrier;
  barrier.label = "wait_event";
  barrier.traced = false;
  barrier.waits.push_back(event);
  enqueue(std::move(barrier));
}

void Stream::synchronize() {
  const Event event = record_event();
  event.wait();
  if (device_.hazard() != nullptr) {
    // The host has now observed everything this stream retired; later
    // enqueues (on any stream) are ordered after it via host program order.
    HbClock clock;
    {
      std::lock_guard lock(event.state()->mutex);
      clock = event.state()->hb_clock;
    }
    device_.hazard()->join_host_clock(clock);
  }
}

double Stream::sim_time() const {
  std::lock_guard lock(time_mutex_);
  return sim_time_;
}

void Stream::worker_loop() {
  while (true) {
    if (fuzz_) {
      // Deterministic seed-derived jitter before each dequeue: perturbs
      // host-thread interleavings (what the hazard checker audits) without
      // touching simulated time or numerics.
      const std::uint64_t delay_us = splitmix64(fuzz_state_) % 181;
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    }
    auto task = queue_.pop();
    if (!task) break;
    run_task(*task);
  }
}

void Stream::run_task(PendingTask& task) {
  TaskDesc& desc = task.desc;
  HazardChecker* const checker = device_.hazard();

  // Happens-before: the task inherits this stream's program order (clock_),
  // the host clock at enqueue time, and every awaited event's clock.
  if (checker != nullptr) {
    clock_join(clock_, task.enqueue_clock);
  }

  // Resolve dependencies: host-block until every awaited event is signaled,
  // taking the max of their simulated timestamps.
  double ready = sim_time();
  for (const Event& event : desc.waits) {
    ready = std::max(ready, event.wait());
    if (checker != nullptr) {
      std::lock_guard lock(event.state()->mutex);
      clock_join(clock_, event.state()->hb_clock);
    }
  }

  // Tick this stream's slot so the clock uniquely stamps the task.
  if (checker != nullptr) {
    if (clock_.size() <= static_cast<std::size_t>(hb_slot_)) {
      clock_.resize(static_cast<std::size_t>(hb_slot_) + 1, 0);
    }
    ++clock_[static_cast<std::size_t>(hb_slot_)];
  }

  double t_begin = ready;
  double t_end = ready;

  if (desc.collective) {
    CollectiveGroup& group = *desc.collective;
    std::unique_lock lock(group.mutex);
    // Every participant contributes its (ticked) clock before the
    // rendezvous completes; joining the result back afterwards gives all
    // parts one shared post-rendezvous stamp, so a collective orders all
    // ranks' prior work before all ranks' subsequent work — including the
    // parts' own declared accesses (the data movement happens inside the
    // rendezvous).
    if (checker != nullptr) clock_join(group.hb_join, clock_);
    group.start_max = std::max(group.start_max, ready);
    if (++group.arrived == group.nranks) {
      group.cv.notify_all();
    } else {
      group.cv.wait(lock, [&] { return group.arrived == group.nranks; });
    }
    if (desc.collective_executor) {
      if (group.action && device_.mode() == ExecutionMode::kReal) {
        lock.unlock();
        group.action();
        lock.lock();
      }
      group.action_done = true;
      group.cv.notify_all();
    } else {
      group.cv.wait(lock, [&] { return group.action_done; });
    }
    if (checker != nullptr) clock_join(clock_, group.hb_join);
    t_begin = group.start_max;
    t_end = t_begin + group.duration;
  } else {
    if (desc.body && device_.mode() == ExecutionMode::kReal) {
      desc.body();
    }
    const bool has_cost = desc.cost.stream_bytes > 0.0 ||
                          desc.cost.gather_bytes > 0.0 ||
                          desc.cost.flops > 0.0;
    const double duration =
        has_cost || desc.traced
            ? CostModel::seconds(desc.cost, device_.profile(),
                                 desc.bandwidth_scale)
            : 0.0;
    t_end = t_begin + duration;
  }

  {
    std::lock_guard lock(time_mutex_);
    sim_time_ = t_end;
  }

  if (checker != nullptr && (!desc.reads.empty() || !desc.writes.empty())) {
    checker->on_task(desc.label, clock_, desc.reads, desc.writes);
  }

  if (desc.traced && device_.trace() != nullptr) {
    device_.trace()->record(TraceRecord{
        .device = device_.rank(),
        .stream = id_,
        .kind = desc.collective ? TaskKind::kComm : desc.kind,
        .label = desc.label,
        .stage = desc.stage,
        .t_begin = t_begin,
        .t_end = t_end,
    });
  }

  {
    std::lock_guard lock(task.signal->mutex);
    task.signal->done = true;
    task.signal->sim_time = t_end;
    if (checker != nullptr) task.signal->hb_clock = clock_;
  }
  task.signal->cv.notify_all();
}

// --------------------------------------------------------------- Device --

Device::Device(int rank, DeviceProfile profile, ExecutionMode mode,
               Trace* trace, HazardChecker* hazard)
    : rank_(rank),
      profile_(std::move(profile)),
      mode_(mode),
      trace_(trace),
      hazard_(hazard) {
  streams_.push_back(std::make_unique<Stream>(*this, kComputeStream));
  streams_.push_back(std::make_unique<Stream>(*this, kCommStream));
}

Device::~Device() = default;

void Device::mark_failed() { failed_.store(true, std::memory_order_release); }

void Device::reserve_memory(std::uint64_t bytes, const std::string& what) {
  std::lock_guard lock(memory_mutex_);
  if (memory_used_ + bytes > profile_.memory_bytes) {
    std::ostringstream os;
    os << "device " << rank_ << " (" << profile_.name
       << ") out of memory allocating " << util::format_bytes(bytes)
       << " for '" << what << "': " << util::format_bytes(memory_used_)
       << " already in use of " << util::format_bytes(profile_.memory_bytes);
    throw OutOfMemoryError(os.str());
  }
  memory_used_ += bytes;
  memory_peak_ = std::max(memory_peak_, memory_used_);
}

void Device::release_memory(std::uint64_t bytes) noexcept {
  std::lock_guard lock(memory_mutex_);
  if (bytes > memory_used_) {
    // A double release would silently corrupt the ledger; surface it. The
    // trace counter propagates the error to benches and tests (the log
    // alone is invisible to automated accounting checks), the debug assert
    // keeps it fatal where a debugger is attached, and release builds clamp
    // so accounting stays monotone instead of wrapping.
    MGGCN_LOG(kError) << "device " << rank_ << " memory release underflow: "
                      << "releasing " << util::format_bytes(bytes)
                      << " with only " << util::format_bytes(memory_used_)
                      << " in use";
    if (trace_ != nullptr) {
      trace_->record_pool(PoolCounters{.release_underflows = 1});
    }
    assert(false && "device memory release underflow");
    memory_used_ = 0;
    return;
  }
  memory_used_ -= bytes;
}

std::uint64_t Device::memory_used() const {
  std::lock_guard lock(memory_mutex_);
  return memory_used_;
}

std::uint64_t Device::memory_peak() const {
  std::lock_guard lock(memory_mutex_);
  return memory_peak_;
}

void Device::reset_memory_peak() {
  std::lock_guard lock(memory_mutex_);
  memory_peak_ = memory_used_;
}

void Device::synchronize() {
  for (auto& stream : streams_) stream->synchronize();
}

double Device::sim_time() const {
  double t = 0.0;
  for (const auto& stream : streams_) t = std::max(t, stream->sim_time());
  return t;
}

// --------------------------------------------------------- DeviceBuffer --

std::uint64_t next_buffer_identity() {
  return next_buffer_id.fetch_add(1, std::memory_order_relaxed);
}

void fill_poison(std::span<float> data) {
  std::fill(data.begin(), data.end(),
            std::numeric_limits<float>::quiet_NaN());
}

DeviceBuffer::DeviceBuffer(Device& device, std::size_t elements,
                           std::string name, Fill fill)
    : device_(&device),
      elements_(elements),
      name_(std::move(name)),
      id_(next_buffer_identity()) {
  device_->reserve_memory(bytes(), name_);
  if (device_->mode() == ExecutionMode::kReal && elements_ > 0) {
    if (fill == Fill::kZero) {
      storage_ = std::make_unique<float[]>(elements_);  // all zeros
    } else {
      storage_ = std::make_unique_for_overwrite<float[]>(elements_);
      if (device_->hazard() != nullptr) {
        fill_poison({storage_.get(), elements_});
      }
    }
    data_ = storage_.get();
  }
}

DeviceBuffer DeviceBuffer::view(Device& device, std::size_t elements,
                                float* data, std::string name,
                                std::uint64_t id) {
  DeviceBuffer buf;
  buf.device_ = &device;
  buf.elements_ = elements;
  buf.data_ = data;
  buf.owned_ = false;
  buf.name_ = std::move(name);
  buf.id_ = id;
  return buf;
}

DeviceBuffer::~DeviceBuffer() { release(); }

DeviceBuffer::DeviceBuffer(DeviceBuffer&& other) noexcept
    : device_(other.device_),
      elements_(other.elements_),
      storage_(std::move(other.storage_)),
      data_(other.data_),
      owned_(other.owned_),
      name_(std::move(other.name_)),
      id_(other.id_) {
  other.device_ = nullptr;
  other.elements_ = 0;
  other.data_ = nullptr;
  other.owned_ = true;
  other.id_ = 0;
}

DeviceBuffer& DeviceBuffer::operator=(DeviceBuffer&& other) noexcept {
  if (this != &other) {
    release();
    device_ = other.device_;
    elements_ = other.elements_;
    storage_ = std::move(other.storage_);
    data_ = other.data_;
    owned_ = other.owned_;
    name_ = std::move(other.name_);
    id_ = other.id_;
    other.device_ = nullptr;
    other.elements_ = 0;
    other.data_ = nullptr;
    other.owned_ = true;
    other.id_ = 0;
  }
  return *this;
}

BufferAccess DeviceBuffer::access() const {
  // Only the hazard checker reads the label, so an unchecked machine skips
  // building it (access() runs several times per enqueued task).
  if (device_ == nullptr || device_->hazard() == nullptr) {
    return BufferAccess{id_, {}};
  }
  return BufferAccess{id_, name_ + "@gpu" + std::to_string(device_->rank())};
}

std::span<float> DeviceBuffer::span() {
  return data_ != nullptr ? std::span<float>(data_, elements_)
                          : std::span<float>();
}

std::span<const float> DeviceBuffer::span() const {
  return data_ != nullptr ? std::span<const float>(data_, elements_)
                          : std::span<const float>();
}

void DeviceBuffer::release() {
  if (owned_ && device_ != nullptr && elements_ > 0) {
    device_->release_memory(bytes());
  }
  device_ = nullptr;
  elements_ = 0;
  id_ = 0;
  storage_.reset();
  data_ = nullptr;
  owned_ = true;
}

}  // namespace mggcn::sim
