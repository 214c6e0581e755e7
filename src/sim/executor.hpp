// The machine-wide task executor behind every sim::Stream.
//
// Each stream is an in-order queue of tasks. When a task reaches its
// stream's head it registers on every awaited event that is not complete
// yet, and it becomes ready once that count reaches zero. A collective is a
// join node: each part arrives once ready; the last part to arrive
// publishes every part's share (its body) as a ready task of its own, and
// the last share to finish completes every part. So
// no task ever blocks, any number of streams runs on any number of host
// threads, and one collective's copies spread over the idle workers.
//
// In real mode a pool of min(hardware_concurrency, 2 x devices) workers
// runs ready tasks. A worker that finishes a task runs one newly ready
// successor itself and publishes the rest. Tasks the host enqueues are
// published without a wake-up: the host wakes the pool when it next blocks
// (Event::wait, Event::is_complete, Stream::synchronize), the way a command
// buffer is flushed at a sync point. Phantom mode has no workers: ready
// tasks run inline on the enqueuing thread, off an iterative worklist.
// A task body must never wait on an event: the pool has fewer threads than
// streams, and phantom mode has none to wait for.
//
// MGGCN_SCHED_FUZZ=<seed> makes every runner take a seed-chosen ready task
// instead of the oldest one, with the successor shortcut off. Simulated
// time and numerics do not depend on which ready task runs first.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "sim/device.hpp"

namespace mggcn::sim {

class Executor {
 public:
  /// Reads MGGCN_SCHED_FUZZ (a malformed seed throws) and, in real mode,
  /// starts the worker pool.
  Executor(ExecutionMode mode, int num_devices);
  /// Runs every submitted task to completion, then joins the workers.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Appends a task to `stream`'s queue; returns its completion event. In
  /// phantom mode every task it makes ready runs before it returns.
  Event submit(Stream& stream, TaskDesc desc, HbClock enqueue_clock);

  /// Host side of Event::wait: wakes the pool, then blocks until `state`
  /// is signaled; returns its simulated time.
  double wait(Event::State& state);

  /// Wakes idle workers for the tasks published since they went idle.
  void flush();

 private:
  /// Locked: `task` reached its stream's head. Registers it on every
  /// awaited event that is not complete; true when none is left.
  bool activate(PendingTask& task);
  /// Locked: removes the next task to run from the ready list.
  PendingTask* take_ready();
  /// Unlocked: runs `task` and then each successor handed back to it.
  void run(PendingTask* task);
  /// Unlocked: runs one task; returns the successor to run next, if any.
  PendingTask* step(PendingTask& task);
  /// Unlocked: `task` is a collective part whose dependencies resolved.
  PendingTask* arrive(PendingTask& task, double ready);
  /// Unlocked: runs a published collective share; the last one of its
  /// group completes the group.
  PendingTask* run_share(PendingTask& task);
  /// Unlocked: records and retires every part of a joined group at
  /// start_max + duration.
  PendingTask* complete(CollectiveGroup& group);
  /// Unlocked: stream clock, hazard audit and trace of a finished task.
  void record(PendingTask& task, double t_begin, double t_end);
  /// Pops each finished task off its stream, signals its event and makes
  /// its successors ready; returns the one the caller runs next, if any.
  PendingTask* retire(std::span<PendingTask* const> tasks, double t_end);
  /// Locked: how many idle workers to wake for `published` new tasks.
  [[nodiscard]] int wake_count(std::size_t published) const;
  void wake_workers(int count);
  void worker_loop();

  const ExecutionMode mode_;
  bool fuzz_ = false;
  std::uint64_t fuzz_state_ = 0;

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< idle workers
  std::condition_variable host_cv_;  ///< host threads in wait()/~Executor
  std::deque<PendingTask*> ready_;
  int idle_ = 0;
  std::size_t outstanding_ = 0;  ///< submitted, not yet retired
  bool draining_ = false;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace mggcn::sim
