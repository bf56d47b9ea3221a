// A small fixed-size thread pool with a deterministic parallel_for.
//
// ThreadPool(n) spawns n - 1 workers; the calling thread always participates
// in parallel_for as lane 0, so n == 1 means zero workers and every entry
// point degenerates to the exact serial loop (the engine's SPECMATCH_THREADS=1
// escape hatch). Callers write results into per-index slots, which is what
// makes the parallel engine bit-for-bit deterministic regardless of thread
// count or of which lane ran which index.
//
// Dispatch is join-on-demand and allocation-free. A parallel_for publishes a
// job record that lives on the caller's stack, linked into the pool's list of
// open jobs. Idle workers join an open job that still has indices left (at
// most min(range - 1, workers) of them), take their lane id from the job and
// steal indices until the range is exhausted. A worker joins only while the
// lanes inside open jobs (their callers plus joined helpers) are fewer than
// num_threads(), and it picks the open job with the fewest helpers: two
// concurrent callers on a 4-lane pool get one helper each, not five threads
// on four cores, where a preempted helper holding an index stalls its
// caller's round. Callers themselves are never held back. The caller runs
// lane 0, then closes the job and waits only for the helpers that actually
// joined — never for a worker that is busy elsewhere — so concurrent callers
// (say, two MatchServer drain lanes solving two markets) share the workers
// without waiting on each other. Exceptions are captured per job; the lowest
// lane's is rethrown on the caller. Helpers run under the caller's
// alloc_count scope, so per-solve allocation accounting follows the work.
//
// Worker identity is per pool: a parallel_for runs inline only when the
// caller is a worker of *this* pool, so nesting on one pool never re-enters
// it (no deadlock, no oversubscription), while a worker of another pool — a
// drain lane calling into ThreadPool::global() — fans out normally. submit()
// from inside a task just enqueues.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/alloc_count.hpp"

namespace specmatch {

class ThreadPool {
 public:
  /// A pool presenting `num_threads` lanes of execution: the caller plus
  /// num_threads - 1 workers. Requires num_threads >= 1.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Lanes including the calling thread (constructor argument).
  std::size_t num_threads() const { return lanes_; }

  /// Enqueues `task` for a worker. On a 1-lane pool the task runs inline
  /// before submit returns. Tasks may themselves call submit.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is executing.
  void wait_idle();

  /// Calls fn(i) for every i in [begin, end). Blocks until all calls have
  /// returned, then rethrows the lowest lane's exception, if any. Runs
  /// serially (in ascending index order, on the calling thread) when the
  /// pool has one lane, the range has one index, or the caller is itself a
  /// worker of this pool.
  template <typename Fn>
  void parallel_for(std::size_t begin, std::size_t end, Fn&& fn) {
    parallel_for_lanes(begin, end,
                       [&fn](std::size_t /*lane*/, std::size_t i) { fn(i); });
  }

  /// parallel_for variant whose body also receives the executing lane index
  /// (0 = the calling thread, always < num_threads()): fn(lane, i). Lanes
  /// let callers hand each participant its own scratch slot (e.g. the
  /// MatchWorkspace per-lane MWIS scratch) without sharing or locking; lane
  /// ids are per call, so two concurrent calls with separate scratch never
  /// collide. Which lane runs which index is scheduling-dependent — results
  /// stay deterministic only if the scratch never influences outputs (it
  /// must be fully reinitialised per use). Serial fallbacks run everything
  /// as lane 0.
  template <typename Fn>
  void parallel_for_lanes(std::size_t begin, std::size_t end, Fn&& fn) {
    if (begin >= end) return;
    if (workers_.empty() || end - begin == 1 || t_worker_of == this) {
      for (std::size_t i = begin; i < end; ++i) fn(std::size_t{0}, i);
      return;
    }
    Job job{.run = [](Job& self, std::size_t lane) {
              // Restores exactly the constness `fn` was passed with.
              auto& body = *static_cast<std::remove_reference_t<Fn>*>(
                  const_cast<void*>(self.body));
              for (std::size_t i;
                   (i = self.next.fetch_add(1, std::memory_order_relaxed)) <
                   self.end;)
                body(lane, i);
            },
            .body = &fn,
            .end = end,
            .max_helpers = std::min(end - begin - 1, workers_.size()),
            .scope = alloc_count::current_scope(),
            .next{begin}};
    run_job(job);
  }

  /// The engine-wide pool, sized from SpecmatchConfig::global().num_threads.
  /// Recreated (workers joined and respawned) when the knob changed since
  /// the last call; do not change the knob while a run is in flight.
  static ThreadPool& global();

 private:
  /// One parallel_for call, on the caller's stack. Fields marked "mutex_"
  /// are guarded by the pool mutex; the rest are fixed at construction.
  struct Job {
    void (*const run)(Job&, std::size_t lane);  // steals indices until end
    const void* const body;
    const std::size_t end;
    const std::size_t max_helpers;
    alloc_count::Scope* const scope;  // the caller's, adopted by helpers
    std::atomic<std::size_t> next;
    std::size_t joined = 0;      // mutex_; helper lanes are 1..joined
    std::size_t finished = 0;    // mutex_
    std::exception_ptr error{};  // mutex_; from the lowest lane that threw
    std::size_t error_lane = 0;  // mutex_
    std::condition_variable helpers_done{};
    Job* next_open = nullptr;  // mutex_; open-job list link
  };

  /// Publishes `job`, runs lane 0, closes it, waits for the helpers that
  /// joined and rethrows the lowest lane's exception.
  void run_job(Job& job);
  /// One lane's share of `job`, with its exception captured.
  void run_lane(Job& job, std::size_t lane);
  /// The open job with the fewest helpers that a worker may join (mutex_
  /// held), or nullptr when none has indices left or the lane cap is full.
  Job* joinable_job() const;
  void worker_loop();

  /// The pool the calling thread works for (nullptr off-pool).
  static thread_local const ThreadPool* t_worker_of;

  // Fixed before any worker starts: workers read it while workers_ grows.
  const std::size_t lanes_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  Job* open_jobs_ = nullptr;  // mutex_
  std::size_t running_ = 0;   // mutex_; lanes inside open jobs' bodies
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

/// Convenience: parallel_for on the engine-wide pool.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, Fn&& fn) {
  ThreadPool::global().parallel_for(begin, end, std::forward<Fn>(fn));
}

/// Convenience: parallel_for_lanes on the engine-wide pool.
template <typename Fn>
void parallel_for_lanes(std::size_t begin, std::size_t end, Fn&& fn) {
  ThreadPool::global().parallel_for_lanes(begin, end, std::forward<Fn>(fn));
}

}  // namespace specmatch
