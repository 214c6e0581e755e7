#include "sim/device.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <sstream>

#include "sim/executor.hpp"
#include "util/format.hpp"
#include "util/logging.hpp"

namespace mggcn::sim {

namespace {

/// Monotonic identity source for DeviceBuffer (0 is "no buffer").
std::atomic<std::uint64_t> next_buffer_id{1};

}  // namespace

// ---------------------------------------------------------------- Event --

Event Event::signaled(double sim_time) {
  auto state = std::make_shared<Event::State>();
  state->sim_time = sim_time;
  state->done.store(true, std::memory_order_release);
  return Event(std::move(state));
}

double Event::wait() const {
  MGGCN_CHECK_MSG(state_ != nullptr, "waiting on a null event");
  if (state_->done.load(std::memory_order_acquire)) return state_->sim_time;
  return state_->executor->wait(*state_);
}

bool Event::is_complete() const {
  if (!state_) return false;
  if (state_->done.load(std::memory_order_acquire)) return true;
  state_->executor->flush();
  return state_->done.load(std::memory_order_acquire);
}

// --------------------------------------------------------------- Stream --

Stream::Stream(Device& device, int id, Executor& executor)
    : device_(device), id_(id), executor_(executor) {
  if (device_.hazard() != nullptr) {
    hb_slot_ = device_.hazard()->register_stream();
  }
}

Event Stream::enqueue(TaskDesc desc) {
  if (desc.traced && device_.is_failed()) {
    std::ostringstream os;
    os << "device " << device_.rank() << " is lost; cannot enqueue '"
       << desc.label << "'";
    throw DeviceLostError(os.str(), device_.rank());
  }
  HbClock enqueue_clock;
  if (device_.hazard() != nullptr) {
    enqueue_clock = device_.hazard()->host_clock();
  }
  return executor_.submit(*this, std::move(desc), std::move(enqueue_clock));
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
    device_.hazard()->join_host_clock(event.state()->hb_clock);
  }
}

double Stream::sim_time() const {
  return sim_time_.load(std::memory_order_relaxed);
}

// --------------------------------------------------------------- Device --

Device::Device(int rank, DeviceProfile profile, ExecutionMode mode,
               Trace* trace, HazardChecker* hazard, Executor& executor)
    : rank_(rank),
      profile_(std::move(profile)),
      mode_(mode),
      trace_(trace),
      hazard_(hazard) {
  streams_.push_back(
      std::make_unique<Stream>(*this, kComputeStream, executor));
  streams_.push_back(std::make_unique<Stream>(*this, kCommStream, executor));
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
    // counter propagates the error to benches and tests (the log alone is
    // invisible to automated accounting checks), the debug assert keeps it
    // fatal where a debugger is attached, and release builds clamp so
    // accounting stays monotone instead of wrapping.
    MGGCN_LOG(kError) << "device " << rank_ << " memory release underflow: "
                      << "releasing " << util::format_bytes(bytes)
                      << " with only " << util::format_bytes(memory_used_)
                      << " in use";
    ++release_underflows_;
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

std::uint64_t Device::release_underflows() const {
  std::lock_guard lock(memory_mutex_);
  return release_underflows_;
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
