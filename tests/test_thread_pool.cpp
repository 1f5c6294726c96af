#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace gridsched {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { ++counter; });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SizeDefaultsToAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(),
                    [&](std::size_t i, std::size_t) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroItemsIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t, std::size_t) {
    FAIL() << "must not be called";
  });
}

TEST(ThreadPool, ParallelForWithMoreItemsThanThreads) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  pool.parallel_for(1000, [&](std::size_t i, std::size_t) {
    sum += static_cast<long>(i);
  });
  EXPECT_EQ(sum.load(), 999L * 1000 / 2);
}

TEST(ThreadPool, ParallelForLanesAreInRangeAndNeverShared) {
  // A caller may keep one workspace per lane, so a lane index must never
  // be live on two threads at once: each call claims its lane's busy flag
  // and fails if another call already holds it.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    ThreadPool pool(threads);
    for (const std::size_t n : {std::size_t{2}, std::size_t{200}}) {
      const std::size_t lanes = pool.lanes(n);
      EXPECT_EQ(lanes, std::min(n, threads + 1));
      std::vector<std::atomic<bool>> busy(lanes);
      std::atomic<int> out_of_range{0};
      std::atomic<int> shared{0};
      std::atomic<int> calls{0};
      pool.parallel_for(n, [&](std::size_t, std::size_t lane) {
        ++calls;
        if (lane >= lanes) {
          ++out_of_range;
          return;
        }
        if (busy[lane].exchange(true)) ++shared;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        busy[lane] = false;
      });
      EXPECT_EQ(calls.load(), static_cast<int>(n));
      EXPECT_EQ(out_of_range.load(), 0) << threads << " threads, n " << n;
      EXPECT_EQ(shared.load(), 0) << threads << " threads, n " << n;
    }
  }
}

TEST(ThreadPool, TaskExceptionSurfacesInWaitIdle) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<int> counter{0};
  pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, SingleFailureRethrowsTheOriginalType) {
  ThreadPool pool(2);
  pool.submit([] { throw std::invalid_argument("typed"); });
  EXPECT_THROW(pool.wait_idle(), std::invalid_argument);
}

TEST(ThreadPool, ConcurrentFailuresAllSurface) {
  ThreadPool pool(4);
  for (int i = 0; i < 3; ++i) {
    pool.submit([i] { throw std::runtime_error("boom " + std::to_string(i)); });
  }
  try {
    pool.wait_idle();
    FAIL() << "wait_idle must throw";
  } catch (const TaskGroupError& group) {
    EXPECT_EQ(group.errors().size(), 3u);
    // The aggregate message names every failure.
    const std::string what = group.what();
    for (int i = 0; i < 3; ++i) {
      EXPECT_NE(what.find("boom " + std::to_string(i)), std::string::npos)
          << what;
    }
    for (const std::exception_ptr& error : group.errors()) {
      EXPECT_THROW(std::rethrow_exception(error), std::runtime_error);
    }
  }
}

TEST(ThreadPool, ErrorSlateIsWipedAfterGroupError) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("a"); });
  pool.submit([] { throw std::runtime_error("b"); });
  EXPECT_THROW(pool.wait_idle(), TaskGroupError);
  // Pool stays usable and forgets the old errors.
  std::atomic<int> counter{0};
  pool.submit([&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, FailuresDoNotEatSucceedingTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) {
    if (i % 5 == 0) {
      pool.submit([] { throw std::runtime_error("x"); });
    } else {
      pool.submit([&counter] { ++counter; });
    }
  }
  EXPECT_THROW(pool.wait_idle(), TaskGroupError);
  EXPECT_EQ(counter.load(), 16);
}

TEST(ThreadPool, WaitIdleWithNothingQueuedReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

TEST(ThreadPool, ManyWaves) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 10; ++wave) {
    for (int i = 0; i < 50; ++i) pool.submit([&counter] { ++counter; });
    pool.wait_idle();
  }
  EXPECT_EQ(counter.load(), 500);
}

// ------------------------------------------------------------ task groups --

TEST(TaskGroup, RunsSubmittedTasksAndWaits) {
  ThreadPool pool(4);
  TaskGroup group = pool.make_group();
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit(group, [&counter] { ++counter; });
  }
  group.wait();
  EXPECT_EQ(counter.load(), 100);
  EXPECT_EQ(group.pending(), 0u);
}

TEST(TaskGroup, WaitWithNoTasksReturnsImmediately) {
  ThreadPool pool(2);
  TaskGroup group = pool.make_group();
  group.wait();  // must not hang
  SUCCEED();
}

TEST(TaskGroup, TwoGroupsOnOnePoolWaitIndependently) {
  ThreadPool pool(2);
  TaskGroup slow = pool.make_group();
  TaskGroup fast = pool.make_group();
  std::atomic<bool> slow_started{false};
  std::atomic<bool> release{false};
  std::atomic<int> fast_done{0};
  pool.submit(slow, [&] {
    slow_started = true;
    while (!release) std::this_thread::yield();
  });
  // Only submit the fast task once the blocker is RUNNING (not queued), so
  // the fast wait below cannot pick it up while helping.
  while (!slow_started) std::this_thread::yield();
  pool.submit(fast, [&] { ++fast_done; });
  fast.wait();  // must return while the slow group is still in flight
  EXPECT_EQ(fast_done.load(), 1);
  EXPECT_EQ(fast.pending(), 0u);
  EXPECT_EQ(slow.pending(), 1u);
  release = true;
  slow.wait();
  EXPECT_EQ(slow.pending(), 0u);
}

TEST(TaskGroup, FailureInOneGroupNeverSurfacesInAnother) {
  ThreadPool pool(2);
  TaskGroup failing = pool.make_group();
  TaskGroup clean = pool.make_group();
  pool.submit(failing, [] { throw std::invalid_argument("group A boom"); });
  std::atomic<int> counter{0};
  pool.submit(clean, [&counter] { ++counter; });
  clean.wait();  // B's wait is untouched by A's failure
  EXPECT_EQ(counter.load(), 1);
  EXPECT_THROW(failing.wait(), std::invalid_argument);
  // A's slate is wiped by the throw; the group stays reusable.
  pool.submit(failing, [&counter] { ++counter; });
  failing.wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(TaskGroup, MultiFailureWithinOneGroupThrowsTaskGroupError) {
  ThreadPool pool(4);
  TaskGroup group = pool.make_group();
  for (int i = 0; i < 3; ++i) {
    pool.submit(group, [i] {
      throw std::runtime_error("boom " + std::to_string(i));
    });
  }
  try {
    group.wait();
    FAIL() << "wait must throw";
  } catch (const TaskGroupError& error) {
    EXPECT_EQ(error.errors().size(), 3u);
    const std::string what = error.what();
    for (int i = 0; i < 3; ++i) {
      EXPECT_NE(what.find("boom " + std::to_string(i)), std::string::npos)
          << what;
    }
  }
}

TEST(TaskGroup, GroupErrorsDoNotLeakIntoWaitIdle) {
  ThreadPool pool(2);
  TaskGroup group = pool.make_group();
  pool.submit(group, [] { throw std::runtime_error("grouped"); });
  pool.wait_idle();  // drains the task but must NOT report its failure
  EXPECT_THROW(group.wait(), std::runtime_error);  // the group still does
}

TEST(TaskGroup, ReusableAcrossWaves) {
  ThreadPool pool(4);
  TaskGroup group = pool.make_group();
  std::atomic<int> counter{0};
  for (int wave = 0; wave < 10; ++wave) {
    for (int i = 0; i < 20; ++i) pool.submit(group, [&counter] { ++counter; });
    group.wait();
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(TaskGroup, NestedGroupWaitDoesNotDeadlockOnAOneThreadPool) {
  // The sharded-service pattern: a task running ON the pool mints its own
  // subgroup, submits into it and waits. With one worker this can only
  // complete if waiting threads help run queued tasks.
  ThreadPool pool(1);
  TaskGroup outer = pool.make_group();
  std::atomic<int> inner_done{0};
  for (int task = 0; task < 3; ++task) {
    pool.submit(outer, [&pool, &inner_done] {
      TaskGroup inner = pool.make_group();
      for (int i = 0; i < 4; ++i) {
        pool.submit(inner, [&inner_done] { ++inner_done; });
      }
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(inner_done.load(), 12);
}

TEST(TaskGroup, WaitingThreadHelpsRunItsOwnGroup) {
  // Zero free workers: the lone worker is parked on a blocker, so the
  // group's tasks can only run on the waiting (main) thread.
  ThreadPool pool(1);
  std::atomic<bool> blocker_started{false};
  std::atomic<bool> release{false};
  pool.submit([&] {
    blocker_started = true;
    while (!release) std::this_thread::yield();
  });
  while (!blocker_started) std::this_thread::yield();
  TaskGroup group = pool.make_group();
  std::atomic<int> counter{0};
  for (int i = 0; i < 8; ++i) pool.submit(group, [&counter] { ++counter; });
  group.wait();
  EXPECT_EQ(counter.load(), 8);
  release = true;
  pool.wait_idle();
}

TEST(TaskGroup, WaitIdleStillDrainsGroupTasks) {
  // wait_idle is the whole-pool wrapper: it waits for group tasks too,
  // it just does not adopt their errors.
  ThreadPool pool(2);
  TaskGroup group = pool.make_group();
  std::atomic<int> counter{0};
  for (int i = 0; i < 16; ++i) pool.submit(group, [&counter] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 16);
  group.wait();  // nothing pending, nothing thrown
}

}  // namespace
}  // namespace gridsched
