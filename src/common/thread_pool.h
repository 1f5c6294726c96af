// A small fixed-size thread pool with task-group completion tracking.
//
// Used by the experiment harness to run independent algorithm repetitions in
// parallel (each with its own split RNG stream), by the synchronous cMA
// variant to evaluate cell offspring concurrently, by the portfolio
// scheduler to race batch schedulers against each other, and by the sharded
// service to overlap whole shard activations. Tasks are plain std::function
// jobs; exceptions thrown by tasks are captured and surfaced — by
// wait_idle() for plain submissions and by TaskGroup::wait() for group
// submissions — so failures are never silently swallowed, including when
// SEVERAL tasks of the same wave fail (see TaskGroupError).
//
// A TaskGroup is a handle minted by make_group(): tasks submitted through
// `submit(group, fn)` are tracked per group, `group.wait()` blocks until
// exactly that group's tasks are done, and a waiting thread HELPS — it runs
// its own group's queued tasks instead of sleeping — so a task running on
// the pool may itself submit a subgroup and wait on it without
// deadlocking, even on a one-thread pool. That is what lets N portfolio
// races share one pool concurrently: each race waits on its own group
// instead of draining the whole pool.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace gridsched {

class ThreadPool;

/// Thrown when more than one task of a wave (a whole-pool wait_idle() wave
/// or one TaskGroup) failed: carries every captured exception, in capture
/// order, so concurrent failures are never dropped. A single failure is
/// rethrown as its original type instead.
class TaskGroupError : public std::runtime_error {
 public:
  explicit TaskGroupError(std::vector<std::exception_ptr> errors);

  /// All captured task exceptions (size >= 2), first failure first.
  [[nodiscard]] const std::vector<std::exception_ptr>& errors()
      const noexcept {
    return errors_;
  }

 private:
  std::vector<std::exception_ptr> errors_;
};

/// Handle to an independently waitable set of pool tasks. Mint one with
/// ThreadPool::make_group(), submit through ThreadPool::submit(group, fn),
/// then wait(). Reusable across waves (wait() wipes the error slate); must
/// not outlive its pool while tasks are pending. Failures of one group
/// never surface in another group's wait() nor in wait_idle().
///
/// Threading contract: submissions must happen-before the wait() they are
/// covered by — from the waiting thread itself, or from within one of the
/// group's own running tasks (fan-out; the submitter's completion re-arms
/// the waiter). An unrelated thread racing submit(group, ...) against
/// wait() is not supported.
class TaskGroup {
 public:
  /// Blocks until every task submitted to this group completed, running
  /// the group's queued tasks on the calling thread while it waits (it
  /// never steals other groups' work — a stolen long-runner would stall
  /// this wait past its own group's finish). If exactly one task failed,
  /// rethrows that
  /// exception as its original type; if several failed, throws
  /// TaskGroupError with all of them. Either way the group's error slate
  /// is wiped and the group stays reusable.
  void wait();

  /// Tasks submitted to the group and not yet completed (diagnostics).
  [[nodiscard]] std::size_t pending() const;

 private:
  friend class ThreadPool;

  struct State {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t pending = 0;
    std::vector<std::exception_ptr> errors;
  };

  explicit TaskGroup(ThreadPool& pool)
      : pool_(&pool), state_(std::make_shared<State>()) {}

  ThreadPool* pool_;
  std::shared_ptr<State> state_;
};

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, minimum 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task for execution. Errors surface in wait_idle().
  void submit(std::function<void()> task);

  /// Mints a group handle for independently waitable submissions.
  [[nodiscard]] TaskGroup make_group();

  /// Enqueues a task tracked by `group`. Errors surface in group.wait()
  /// only — never in wait_idle() or another group's wait.
  void submit(TaskGroup& group, std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle — the
  /// whole-pool wrapper over every in-flight task, group or not. If
  /// exactly one plain-submitted task failed since the previous
  /// wait_idle(), rethrows that exception as its original type; if several
  /// failed concurrently, throws TaskGroupError carrying all of them in
  /// capture order. Either way the error slate is wiped and the pool stays
  /// usable. Group-submitted failures are NOT reported here; they belong
  /// to their group's wait().
  void wait_idle();

  /// Lanes a parallel_for over `n` items runs on: one per worker plus the
  /// calling thread, and never more than there are items.
  [[nodiscard]] std::size_t lanes(std::size_t n) const noexcept {
    return std::min(n, size() + 1);
  }

  /// Runs fn(i, lane) for i in [0, n), distributing indices over the pool,
  /// and blocks until all complete; the calling thread takes a lane too.
  /// `lane` lies in [0, lanes(n)), and no two concurrent calls of one
  /// parallel_for share a lane, so a caller may keep one workspace per lane
  /// instead of one per index. Which lane runs which index is up to the
  /// scheduler. `fn` must be safe to call concurrently. Runs in its own
  /// task group, so concurrent parallel_for calls on a shared pool wait
  /// independently.
  void parallel_for(
      std::size_t n,
      const std::function<void(std::size_t index, std::size_t lane)>& fn);

 private:
  /// A queued task, tagged with its group so helping waiters can pick
  /// their own group's work first (null for plain submissions).
  struct QueuedTask {
    std::function<void()> fn;
    const TaskGroup::State* group = nullptr;
  };

  void worker_loop();
  void enqueue(QueuedTask task);
  /// Pops and runs one queued task — restricted to `only`'s tasks when
  /// given — with full active/idle/error accounting. Returns false when
  /// nothing eligible was queued.
  bool run_one_queued_task(const TaskGroup::State* only);
  /// The helping wait: runs queued tasks until `state.pending == 0`,
  /// sleeping only while the group's tasks are all running on other
  /// threads.
  void help_until_done(TaskGroup::State& state);

  friend class TaskGroup;

  std::vector<std::thread> workers_;
  std::deque<QueuedTask> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::size_t active_ = 0;
  bool stopping_ = false;
  std::vector<std::exception_ptr> errors_;  // plain-task failures since last wait
};

}  // namespace gridsched
