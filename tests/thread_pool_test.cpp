// Unit tests for the engine thread pool: coverage and exactly-once semantics
// of parallel_for, the serial escape hatch, exception propagation, the
// per-pool nesting rule (inline on this pool's own workers, real fan-out from
// another pool's workers), concurrent callers sharing one pool without
// workers joining past its lane count, allocation-free dispatch with per-job
// alloc_count attribution, and the global pool's reaction to the
// SPECMATCH_THREADS knob.
#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <latch>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/alloc_count.hpp"
#include "common/config.hpp"

namespace specmatch {
namespace {

TEST(ThreadPoolTest, SingleLanePoolRunsInAscendingOrderInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<std::size_t> order;
  pool.parallel_for(3, 9, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{3, 4, 5, 6, 7, 8}));
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  pool.parallel_for(7, 2, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  constexpr std::size_t kRange = 10'000;
  std::vector<std::atomic<int>> hits(kRange);
  pool.parallel_for(0, kRange, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kRange; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPoolTest, PerIndexSlotsGiveDeterministicResults) {
  // The engine's contract: writing to result[i] from iteration i produces
  // the same output as the serial loop, regardless of lane count.
  constexpr std::size_t kRange = 257;
  std::vector<int> serial(kRange), parallel(kRange);
  ThreadPool one(1), many(4);
  one.parallel_for(0, kRange,
                   [&](std::size_t i) { serial[i] = static_cast<int>(i * i); });
  many.parallel_for(
      0, kRange, [&](std::size_t i) { parallel[i] = static_cast<int>(i * i); });
  EXPECT_EQ(serial, parallel);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 37)
                                     throw std::runtime_error("boom 37");
                                 }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ExceptionDoesNotPoisonThePool) {
  ThreadPool pool(4);
  try {
    pool.parallel_for(0, 8, [](std::size_t) {
      throw std::runtime_error("every iteration fails");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "every iteration fails");
  }
  // The pool keeps working after a throwing parallel_for.
  std::atomic<int> sum{0};
  pool.parallel_for(0, 10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, SerialPathExceptionPropagates) {
  ThreadPool pool(1);
  EXPECT_THROW(
      pool.parallel_for(0, 3, [](std::size_t) { throw std::logic_error("s"); }),
      std::logic_error);
}

TEST(ThreadPoolTest, NestedCallOnTheSamePoolRunsInlineOnItsWorkers) {
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 64;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> counts(kOuter);
  std::atomic<int> off_thread{0};
  pool.parallel_for(0, kOuter, [&](std::size_t o) {
    // On a worker of this pool the inner call must run inline on that
    // worker: no re-entry into the pool, no waiting on itself.
    const std::thread::id outer = std::this_thread::get_id();
    pool.parallel_for(0, kInner, [&](std::size_t) {
      ++counts[o];
      if (outer != caller && std::this_thread::get_id() != outer)
        ++off_thread;
    });
  });
  for (std::size_t o = 0; o < kOuter; ++o)
    EXPECT_EQ(counts[o].load(), static_cast<int>(kInner));
  EXPECT_EQ(off_thread.load(), 0);

  // A task on a worker of the pool: every index runs on that worker.
  std::vector<std::thread::id> ran_on(kInner);
  std::thread::id worker;
  pool.submit([&] {
    worker = std::this_thread::get_id();
    pool.parallel_for(0, kInner, [&](std::size_t i) {
      ran_on[i] = std::this_thread::get_id();
    });
  });
  pool.wait_idle();
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, worker);
}

/// Two threads meet inside a parallel_for body: true once `parties` bodies
/// have arrived, false on timeout (a caller left alone never hangs).
class Rendezvous {
 public:
  explicit Rendezvous(int parties) : parties_(parties) {}
  bool meet() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (++arrived_ >= parties_) cv_.notify_all();
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return arrived_ >= parties_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int parties_;
  int arrived_ = 0;
};

TEST(ThreadPoolTest, WorkerOfAnotherPoolFansOut) {
  if (std::thread::hardware_concurrency() < 2)
    GTEST_SKIP() << "needs >= 2 hardware threads to observe fan-out";
  // A MatchServer drain lane is a worker of the server's pool; its engine
  // calls into a different pool must still use that pool's workers.
  ThreadPool outer(2), engine(4);
  Rendezvous both(2);
  std::atomic<int> met{0};
  std::mutex ids_mutex;
  std::vector<std::thread::id> ids;
  outer.submit([&] {
    engine.parallel_for(0, 2, [&](std::size_t) {
      {
        std::lock_guard<std::mutex> lock(ids_mutex);
        ids.push_back(std::this_thread::get_id());
      }
      if (both.meet()) ++met;
    });
  });
  outer.wait_idle();
  EXPECT_EQ(met.load(), 2) << "both indices must run at once, on two threads";
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_NE(ids[0], ids[1]);
}

TEST(ThreadPoolTest, ConcurrentCallersCoverEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kRange = 2'000;
  constexpr int kCallers = 2;
  constexpr int kRepeats = 50;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kRange);
  std::atomic<int> lane_collisions{0}, bad_lanes{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int r = 0; r < kRepeats; ++r) {
        // Per-call lane slots, like the engine's per-lane scratch: a lane
        // id must never be live on two threads within one call.
        std::vector<std::atomic<int>> in_use(pool.num_threads());
        pool.parallel_for_lanes(0, kRange, [&](std::size_t lane, std::size_t i) {
          if (lane >= pool.num_threads()) {
            ++bad_lanes;
            return;
          }
          if (in_use[lane]++ != 0) ++lane_collisions;
          ++hits[c][i];
          --in_use[lane];
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(bad_lanes.load(), 0);
  EXPECT_EQ(lane_collisions.load(), 0);
  for (int c = 0; c < kCallers; ++c)
    for (std::size_t i = 0; i < kRange; ++i)
      ASSERT_EQ(hits[c][i].load(), kRepeats) << "caller " << c << " index " << i;
}

TEST(ThreadPoolTest, WorkersDoNotJoinPastTheLaneCount) {
  // Two jobs of two indices each hold all four lanes of the pool (each
  // caller plus one helper, parked in the body). The third worker is idle,
  // but a third caller's job must not take it: that would put five lanes on
  // a pool sized for four.
  ThreadPool pool(4);
  std::latch parked(4), release(1);
  auto park = [&](std::size_t) {
    parked.count_down();
    release.wait();
  };
  std::thread first([&] { pool.parallel_for(0, 2, park); });
  std::thread second([&] { pool.parallel_for(0, 2, park); });
  parked.wait();

  const std::thread::id self = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(32);
  pool.parallel_for(0, ran_on.size(), [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  });
  release.count_down();
  first.join();
  second.join();
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, self);
}

TEST(ThreadPoolTest, CallerFinishesAloneWhileEveryWorkerIsBusy) {
  // Park both workers inside another caller's job, then dispatch: the new
  // job gets no helpers, so its caller must run it alone and return rather
  // than wait behind the parked job.
  ThreadPool pool(3);
  std::latch parked(2), release(1);
  std::vector<std::atomic<bool>> lane_parked(pool.num_threads());
  std::thread first([&] {
    pool.parallel_for_lanes(0, 1'000, [&](std::size_t lane, std::size_t) {
      if (lane == 0) {
        parked.wait();  // keep indices left until both workers joined
      } else if (!lane_parked[lane].exchange(true)) {
        parked.count_down();
        release.wait();
      }
    });
  });
  parked.wait();

  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(64);
  auto second = std::async(std::launch::async, [&] {
    const std::thread::id self = std::this_thread::get_id();
    pool.parallel_for(0, ran_on.size(), [&](std::size_t i) {
      ran_on[i] = std::this_thread::get_id();
    });
    return self;
  });
  const bool finished = second.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  release.count_down();
  first.join();
  ASSERT_TRUE(finished) << "the caller waited on workers parked elsewhere";
  const std::thread::id self = second.get();
  EXPECT_NE(self, caller);
  for (const std::thread::id id : ran_on) EXPECT_EQ(id, self);
}

TEST(ThreadPoolTest, WarmDispatchIsAllocationFree) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> slots(256);
  const auto body = [&](std::size_t i) { ++slots[i]; };
  const auto lanes_body = [&](std::size_t, std::size_t i) { ++slots[i]; };
  pool.parallel_for(0, slots.size(), body);  // warm thread-locals, futexes
  pool.parallel_for_lanes(0, slots.size(), lanes_body);

  alloc_count::set_counting(true);
  const std::int64_t before = alloc_count::total();
  for (int r = 0; r < 100; ++r) {
    pool.parallel_for(0, slots.size(), body);
    pool.parallel_for_lanes(0, slots.size(), lanes_body);
  }
  const std::int64_t allocs = alloc_count::total() - before;
  alloc_count::set_counting(false);
  EXPECT_EQ(allocs, 0) << "parallel_for dispatch allocated";
  for (const auto& slot : slots) EXPECT_EQ(slot.load(), 202);
}

TEST(ThreadPoolTest, HelpersAllocateIntoTheCallersScope) {
  // Allocations a job's helpers make count toward the dispatching thread's
  // alloc_count scope; another thread allocating at the same time does not.
  ThreadPool pool(4);
  constexpr std::size_t kRange = 64;
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> noise{0};
  alloc_count::set_counting(true);
  std::thread noisy([&] {
    std::unique_ptr<int> sink;
    while (!stop.load()) {
      sink = std::make_unique<int>(7);
      ++noise;
    }
  });
  while (noise.load() == 0) std::this_thread::yield();
  std::vector<std::unique_ptr<int>> slots(kRange);
  std::atomic<int> helper_indices{0};
  Rendezvous helper_ran(2);
  std::int64_t attributed;
  {
    const alloc_count::Scope scope;
    const std::int64_t noise_at_open = noise.load();
    pool.parallel_for_lanes(0, kRange, [&](std::size_t lane, std::size_t i) {
      slots[i] = std::make_unique<int>(static_cast<int>(i));
      if (lane != 0) ++helper_indices;
      if (i < 2) helper_ran.meet();  // hold two indices open at once
    });
    // The other thread allocated while this scope was open.
    while (noise.load() == noise_at_open) std::this_thread::yield();
    attributed = scope.total();
  }
  stop = true;
  noisy.join();
  alloc_count::set_counting(false);
  EXPECT_GT(helper_indices.load(), 0) << "no helper joined the job";
  EXPECT_EQ(attributed, static_cast<std::int64_t>(kRange));
}

TEST(ThreadPoolTest, NestedSubmitIsAccepted) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  pool.submit([&] {
    ++ran;
    pool.submit([&] { ++ran; });
  });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPoolTest, SubmitOnSingleLanePoolRunsInline) {
  ThreadPool pool(1);
  bool ran = false;
  pool.submit([&] { ran = true; });
  EXPECT_TRUE(ran);  // no workers: submit executes before returning
}

TEST(ThreadPoolTest, WaitIdleDrainsTheQueue) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  for (int t = 0; t < 64; ++t) pool.submit([&] { ++done; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPoolTest, FreeParallelForTracksTheConfigKnob) {
  auto& config = SpecmatchConfig::global();
  const int saved = config.num_threads;

  config.num_threads = 1;
  EXPECT_EQ(ThreadPool::global().num_threads(), 1u);
  std::vector<std::size_t> order;
  parallel_for(0, 4, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));

  config.num_threads = 3;
  EXPECT_EQ(ThreadPool::global().num_threads(), 3u);
  std::atomic<int> calls{0};
  parallel_for(0, 100, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 100);

  config.num_threads = saved;
  (void)ThreadPool::global();  // restore the pool for later tests
}

}  // namespace
}  // namespace specmatch
