#include "sim/executor.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "sim/cost_model.hpp"
#include "util/knob.hpp"

namespace mggcn::sim {

namespace {

/// splitmix64: tiny, high-quality, and deterministic — a fuzz seed must
/// replay the same sequence of picks.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// MGGCN_SCHED_FUZZ=<seed> enables schedule fuzzing; a malformed seed
/// throws. Read per Machine (not cached process-wide) so tests can flip the
/// variable between machines.
constinit const util::Knob<std::uint64_t> sched_fuzz_knob{
    "MGGCN_SCHED_FUZZ", 0, 0, std::numeric_limits<std::uint64_t>::max(),
    "an unsigned integer seed (decimal, 0x hex, or 0 octal)", /*base=*/0};

}  // namespace

/// One enqueued task: owned by the executor from submit() to retirement.
struct PendingTask {
  TaskDesc desc;
  Stream* stream = nullptr;
  std::shared_ptr<Event::State> signal;
  /// Host clock at enqueue time: host program order (enqueue after a
  /// synchronize) is a happens-before edge (hazard checking only).
  HbClock enqueue_clock;
  /// The next task of the same stream.
  PendingTask* next = nullptr;
  /// Awaited events that are not complete yet (set at the stream's head).
  int pending = 0;
  /// A collective part whose group has joined: running it runs its share.
  bool joined = false;
};

Executor::Executor(ExecutionMode mode, int num_devices) : mode_(mode) {
  if (const auto seed = sched_fuzz_knob.read_env()) {
    fuzz_ = true;
    fuzz_state_ = *seed;
  }
  if (mode_ == ExecutionMode::kReal) {
    const int cores =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    const int workers = std::max(1, std::min(cores, 2 * num_devices));
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }
}

Executor::~Executor() {
  {
    std::unique_lock lock(mutex_);
    draining_ = true;
    const int wake = wake_count(ready_.size());
    lock.unlock();
    wake_workers(wake);
    lock.lock();
    host_cv_.wait(lock, [&] { return outstanding_ == 0; });
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

Event Executor::submit(Stream& stream, TaskDesc desc,
                       HbClock enqueue_clock) {
  for (const Event& event : desc.waits) {
    MGGCN_CHECK_MSG(event.valid(), "waiting on a null event");
    // An event this executor does not signal (another machine's, or a
    // pre-signaled one) cannot wake its tasks: resolve it on the host.
    if (event.state()->executor != this) event.wait();
  }
  auto* task = new PendingTask{
      .desc = std::move(desc),
      .stream = &stream,
      .signal = std::make_shared<Event::State>(this),
      .enqueue_clock = std::move(enqueue_clock),
  };
  Event event(task->signal);

  std::unique_lock lock(mutex_);
  ++outstanding_;
  if (stream.tail_ != nullptr) {
    stream.tail_->next = task;
    stream.tail_ = task;
  } else {
    stream.head_ = stream.tail_ = task;
    if (activate(*task)) ready_.push_back(task);
  }
  // No wake-up here: the host flushes when it next blocks. Phantom mode
  // has no workers, so the enqueuing thread drains the worklist itself.
  if (mode_ == ExecutionMode::kPhantom) {
    while (!ready_.empty()) {
      PendingTask* next = take_ready();
      lock.unlock();
      run(next);
      lock.lock();
    }
  }
  return event;
}

double Executor::wait(Event::State& state) {
  std::unique_lock lock(mutex_);
  if (!state.done.load(std::memory_order_relaxed)) {
    const int wake = wake_count(ready_.size());
    lock.unlock();
    wake_workers(wake);
    lock.lock();
    ++state.host_waiters;
    host_cv_.wait(lock,
                  [&] { return state.done.load(std::memory_order_relaxed); });
    --state.host_waiters;
  }
  return state.sim_time;
}

void Executor::flush() {
  std::unique_lock lock(mutex_);
  const int wake = wake_count(ready_.size());
  lock.unlock();
  wake_workers(wake);
}

bool Executor::activate(PendingTask& task) {
  for (const Event& event : task.desc.waits) {
    Event::State& state = *event.state();
    if (!state.done.load(std::memory_order_relaxed)) {
      state.waiters.push_back(&task);
      ++task.pending;
    }
  }
  return task.pending == 0;
}

PendingTask* Executor::take_ready() {
  if (fuzz_ && ready_.size() > 1) {
    const std::size_t pick = splitmix64(fuzz_state_) % ready_.size();
    std::swap(ready_[pick], ready_.front());
  }
  PendingTask* task = ready_.front();
  ready_.pop_front();
  return task;
}

void Executor::run(PendingTask* task) {
  while (task != nullptr) task = step(*task);
}

PendingTask* Executor::step(PendingTask& task) {
  if (task.joined) return run_share(task);
  Stream& stream = *task.stream;
  const TaskDesc& desc = task.desc;
  HazardChecker* const checker = stream.device_.hazard();

  // Happens-before: the task inherits this stream's program order (clock_),
  // the host clock at enqueue time, and every awaited event's clock.
  if (checker != nullptr) clock_join(stream.clock_, task.enqueue_clock);

  // Every awaited event is complete: start at the max of their simulated
  // timestamps and this stream's clock.
  double ready = stream.sim_time_.load(std::memory_order_relaxed);
  for (const Event& event : desc.waits) {
    ready = std::max(ready, event.state()->sim_time);
    if (checker != nullptr) clock_join(stream.clock_, event.state()->hb_clock);
  }

  // Tick this stream's slot so the clock uniquely stamps the task.
  if (checker != nullptr) {
    const auto slot = static_cast<std::size_t>(stream.hb_slot_);
    if (stream.clock_.size() <= slot) stream.clock_.resize(slot + 1, 0);
    ++stream.clock_[slot];
  }

  if (desc.collective) return arrive(task, ready);

  if (desc.body && mode_ == ExecutionMode::kReal) desc.body();
  const bool has_cost = desc.cost.stream_bytes > 0.0 ||
                        desc.cost.gather_bytes > 0.0 || desc.cost.flops > 0.0;
  const double duration =
      has_cost || desc.traced
          ? CostModel::seconds(desc.cost, stream.device_.profile(),
                               desc.bandwidth_scale)
          : 0.0;
  record(task, ready, ready + duration);
  PendingTask* const done[] = {&task};
  return retire(done, ready + duration);
}

PendingTask* Executor::arrive(PendingTask& task, double ready) {
  CollectiveGroup& group = *task.desc.collective;
  HazardChecker* const checker = task.stream->device_.hazard();
  {
    std::lock_guard lock(mutex_);
    // Every participant contributes its (ticked) clock before the last
    // one completes the group; joining the result back gives all parts
    // one shared stamp, so a collective orders all ranks' prior work
    // before all ranks' subsequent work — including the parts' own
    // declared accesses (the data movement happens inside the join).
    if (checker != nullptr) clock_join(group.hb_join, task.stream->clock_);
    group.start_max = std::max(group.start_max, ready);
    group.arrived.push_back(&task);
    if (static_cast<int>(group.arrived.size()) < group.nranks) return nullptr;
  }

  // The last part to arrive: every part's dependencies have resolved, and
  // no other part touches the group any more.
  if (mode_ == ExecutionMode::kPhantom) return complete(group);
  std::vector<PendingTask*> shares;
  for (PendingTask* part : group.arrived) {
    if (part->desc.body) shares.push_back(part);
  }
  if (shares.empty()) return complete(group);

  // Publish the shares; this runner keeps one unless fuzzing (which picks
  // among all ready tasks). Each part stays its stream's head until the
  // group completes, so nothing else of its stream runs meanwhile.
  group.shares_left.store(static_cast<int>(shares.size()),
                          std::memory_order_relaxed);
  for (PendingTask* share : shares) share->joined = true;
  const std::size_t kept = fuzz_ ? 0 : 1;
  int wake = 0;
  {
    std::lock_guard lock(mutex_);
    ready_.insert(ready_.end(), shares.begin() + kept, shares.end());
    wake = wake_count(shares.size() - kept);
  }
  wake_workers(wake);
  return kept == 1 ? shares.front() : nullptr;
}

PendingTask* Executor::run_share(PendingTask& task) {
  task.desc.body();
  CollectiveGroup& group = *task.desc.collective;
  // acq_rel: the share that completes the group sees every share's writes,
  // and retire() hands them on to the parts' successors.
  if (group.shares_left.fetch_sub(1, std::memory_order_acq_rel) != 1) {
    return nullptr;
  }
  return complete(group);
}

PendingTask* Executor::complete(CollectiveGroup& group) {
  const double t_begin = group.start_max;
  const double t_end = t_begin + group.duration;
  const std::vector<PendingTask*> parts = std::move(group.arrived);
  for (PendingTask* part : parts) {
    if (part->stream->device_.hazard() != nullptr) {
      clock_join(part->stream->clock_, group.hb_join);
    }
    record(*part, t_begin, t_end);
  }
  return retire(parts, t_end);
}

void Executor::record(PendingTask& task, double t_begin, double t_end) {
  Stream& stream = *task.stream;
  const Device& device = stream.device_;
  const TaskDesc& desc = task.desc;
  stream.sim_time_.store(t_end, std::memory_order_relaxed);

  HazardChecker* const checker = device.hazard();
  if (checker != nullptr && (!desc.reads.empty() || !desc.writes.empty())) {
    checker->on_task(desc.label, stream.clock_, desc.reads, desc.writes);
  }

  if (desc.traced && device.trace() != nullptr) {
    device.trace()->record(TraceRecord{
        .device = device.rank(),
        .stream = stream.id_,
        .kind = desc.collective ? TaskKind::kComm : desc.kind,
        .label = desc.label,
        .stage = desc.stage,
        .t_begin = t_begin,
        .t_end = t_end,
    });
  }
}

PendingTask* Executor::retire(std::span<PendingTask* const> tasks,
                              double t_end) {
  // The successor shortcut: the first newly ready task stays with this
  // runner (off under fuzzing, which picks among all ready tasks).
  PendingTask* next = nullptr;
  bool wake_host = false;
  int wake = 0;
  {
    std::lock_guard lock(mutex_);
    const std::size_t published_before = ready_.size();
    const auto make_ready = [&](PendingTask* ready) {
      if (next == nullptr && !fuzz_) {
        next = ready;
      } else {
        ready_.push_back(ready);
      }
    };
    for (PendingTask* task : tasks) {
      Stream& stream = *task->stream;
      // Pop before signaling: once a host thread sees the event done it
      // may tear the stream down.
      stream.head_ = task->next;
      if (stream.head_ == nullptr) {
        stream.tail_ = nullptr;
      } else if (activate(*stream.head_)) {
        make_ready(stream.head_);
      }

      Event::State& signal = *task->signal;
      signal.sim_time = t_end;
      if (stream.device_.hazard() != nullptr) signal.hb_clock = stream.clock_;
      signal.done.store(true, std::memory_order_release);
      for (PendingTask* waiter : signal.waiters) {
        if (--waiter->pending == 0) make_ready(waiter);
      }
      signal.waiters.clear();
      wake_host = wake_host || signal.host_waiters > 0;
    }
    outstanding_ -= tasks.size();
    wake_host = wake_host || (draining_ && outstanding_ == 0);
    wake = wake_count(ready_.size() - published_before);
  }
  if (wake_host) host_cv_.notify_all();
  wake_workers(wake);
  for (PendingTask* task : tasks) delete task;
  return next;
}

int Executor::wake_count(std::size_t published) const {
  return static_cast<int>(
      std::min(published, static_cast<std::size_t>(idle_)));
}

void Executor::wake_workers(int count) {
  for (int i = 0; i < count; ++i) work_cv_.notify_one();
}

void Executor::worker_loop() {
  std::unique_lock lock(mutex_);
  while (true) {
    ++idle_;
    work_cv_.wait(lock, [&] { return !ready_.empty() || stopping_; });
    --idle_;
    // stopping_ is set only once every submitted task has retired.
    if (ready_.empty()) return;
    PendingTask* task = take_ready();
    lock.unlock();
    run(task);
    lock.lock();
  }
}

}  // namespace mggcn::sim
