#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <utility>

namespace gridsched {
namespace {

std::string describe_errors(const std::vector<std::exception_ptr>& errors) {
  std::string message =
      "ThreadPool: " + std::to_string(errors.size()) + " tasks failed:";
  for (const std::exception_ptr& error : errors) {
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      message += std::string(" [") + e.what() + "]";
    } catch (...) {
      message += " [non-standard exception]";
    }
  }
  return message;
}

}  // namespace

TaskGroupError::TaskGroupError(std::vector<std::exception_ptr> errors)
    : std::runtime_error(describe_errors(errors)),
      errors_(std::move(errors)) {}

void TaskGroup::wait() {
  pool_->help_until_done(*state_);
  std::vector<std::exception_ptr> errors;
  {
    std::scoped_lock lock(state_->mutex);
    errors = std::exchange(state_->errors, {});
  }
  if (errors.empty()) return;
  if (errors.size() == 1) std::rethrow_exception(errors.front());
  throw TaskGroupError(std::move(errors));
}

std::size_t TaskGroup::pending() const {
  std::scoped_lock lock(state_->mutex);
  return state_->pending;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::enqueue(QueuedTask task) {
  {
    std::scoped_lock lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::submit(std::function<void()> task) {
  enqueue(QueuedTask{std::move(task), nullptr});
}

TaskGroup ThreadPool::make_group() { return TaskGroup(*this); }

void ThreadPool::submit(TaskGroup& group, std::function<void()> task) {
  std::shared_ptr<TaskGroup::State> state = group.state_;
  {
    std::scoped_lock lock(state->mutex);
    ++state->pending;
  }
  // The wrapper owns the error path: a group task never throws into the
  // pool's slate, so wait_idle() and unrelated groups stay clean.
  QueuedTask queued;
  queued.group = state.get();
  queued.fn = [state, task = std::move(task)] {
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    std::scoped_lock lock(state->mutex);
    if (error) state->errors.push_back(std::move(error));
    if (--state->pending == 0) state->done.notify_all();
  };
  enqueue(std::move(queued));
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (errors_.empty()) return;
  auto errors = std::exchange(errors_, {});
  lock.unlock();
  if (errors.size() == 1) std::rethrow_exception(errors.front());
  throw TaskGroupError(std::move(errors));
}

void ThreadPool::parallel_for(
    std::size_t n,
    const std::function<void(std::size_t index, std::size_t lane)>& fn) {
  if (n == 0) return;
  // Dynamic scheduling over a shared counter: work items may have very
  // uneven cost (e.g. different algorithm configurations). The wait helps,
  // so the calling thread is a lane too. Each lane is one task, so its
  // index is never live on two threads at once.
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  TaskGroup group = make_group();
  for (std::size_t lane = 0; lane < lanes(n); ++lane) {
    submit(group, [next, n, lane, &fn] {
      for (std::size_t i = (*next)++; i < n; i = (*next)++) fn(i, lane);
    });
  }
  group.wait();
}

bool ThreadPool::run_one_queued_task(const TaskGroup::State* only) {
  QueuedTask task;
  {
    std::scoped_lock lock(mutex_);
    if (queue_.empty()) return false;
    auto pick = queue_.begin();
    if (only != nullptr) {
      // A helping waiter runs ITS OWN group's queued tasks only. Stealing
      // an arbitrary task would be deadlock-free too, but a stolen
      // long-runner (say, a whole neighboring shard race) would then
      // stall this wait long after its own group finished — inflating
      // the waiter's latency by unrelated work. Restricting to the own
      // group keeps waits tight and still guarantees progress: tasks the
      // waiter is blocked on are either queued (run here) or already
      // running on other threads (their completion wakes the sleep in
      // help_until_done).
      pick = std::find_if(
          queue_.begin(), queue_.end(),
          [only](const QueuedTask& queued) { return queued.group == only; });
      if (pick == queue_.end()) return false;
    }
    task = std::move(*pick);
    queue_.erase(pick);
    ++active_;
  }
  try {
    task.fn();
  } catch (...) {
    std::scoped_lock lock(mutex_);
    errors_.push_back(std::current_exception());
  }
  {
    std::scoped_lock lock(mutex_);
    --active_;
    if (queue_.empty() && active_ == 0) idle_.notify_all();
  }
  return true;
}

void ThreadPool::help_until_done(TaskGroup::State& state) {
  for (;;) {
    {
      std::scoped_lock lock(state.mutex);
      if (state.pending == 0) return;
    }
    if (run_one_queued_task(&state)) continue;
    // None of the group's tasks are queued: the stragglers are running on
    // other threads (or a running group task is about to fan out more —
    // its completion notifies `done`, and the loop re-checks the queue).
    // Sleep until a group task completes, then help again.
    std::unique_lock lock(state.mutex);
    if (state.pending == 0) return;
    state.done.wait(lock);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
    }
    // Another thread (a helping waiter) may have raced us to the task;
    // run_one re-checks under the lock and we simply wait again.
    (void)run_one_queued_task(nullptr);
  }
}

}  // namespace gridsched
