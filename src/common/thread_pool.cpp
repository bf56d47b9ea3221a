#include "common/thread_pool.hpp"

#include "common/check.hpp"
#include "common/config.hpp"
#include "common/metrics.hpp"

namespace specmatch {

thread_local const ThreadPool* ThreadPool::t_worker_of = nullptr;

ThreadPool::ThreadPool(std::size_t num_threads) : lanes_(num_threads) {
  SPECMATCH_CHECK_MSG(num_threads >= 1, "ThreadPool needs >= 1 lane");
  metrics::gauge_set("pool.lanes", static_cast<double>(num_threads));
  workers_.reserve(num_threads - 1);
  for (std::size_t i = 0; i + 1 < num_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  metrics::count("pool.tasks");
  if (workers_.empty()) {
    // Serial pool: run inline so SPECMATCH_THREADS=1 is the exact serial
    // path with no queueing machinery in the way.
    task();
    return;
  }
  std::size_t depth;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  if (metrics::enabled())
    metrics::observe("pool.queue_depth", static_cast<double>(depth));
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [&] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::run_job(Job& job) {
  metrics::count("pool.parallel_for_dispatches");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.next_open = open_jobs_;
    open_jobs_ = &job;
    ++running_;  // the caller's lane 0
  }
  work_available_.notify_all();
  run_lane(job, 0);  // the caller is lane 0
  {
    std::unique_lock<std::mutex> lock(mutex_);
    Job** link = &open_jobs_;
    while (*link != &job) link = &(*link)->next_open;
    *link = job.next_open;  // closed: no helper joins from here on
    // Lane 0 is done: a worker held back by the lane cap may join another
    // caller's job in its place.
    if (--running_ < num_threads() && open_jobs_ != nullptr)
      work_available_.notify_one();
    job.helpers_done.wait(lock, [&] { return job.finished == job.joined; });
  }
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::run_lane(Job& job, std::size_t lane) {
  try {
    job.run(job, lane);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!job.error || lane < job.error_lane) {
      job.error = std::current_exception();
      job.error_lane = lane;
    }
  }
}

ThreadPool::Job* ThreadPool::joinable_job() const {
  if (running_ >= num_threads()) return nullptr;
  // Fewest helpers first, the oldest job on ties (the list is newest first).
  Job* best = nullptr;
  for (Job* job = open_jobs_; job != nullptr; job = job->next_open)
    if (job->joined < job->max_helpers &&
        job->next.load(std::memory_order_relaxed) < job->end &&
        (best == nullptr || job->joined <= best->joined))
      best = job;
  return best;
}

void ThreadPool::worker_loop() {
  t_worker_of = this;
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    Job* job = nullptr;
    work_available_.wait(lock, [&] {
      job = joinable_job();
      return job != nullptr || stop_ || !queue_.empty();
    });
    if (job != nullptr) {
      // Open jobs go first: their callers are blocked on them, while a
      // queued task has no one waiting on this particular worker.
      const std::size_t lane = ++job->joined;
      ++running_;
      lock.unlock();
      alloc_count::Scope* const own = alloc_count::exchange_scope(job->scope);
      run_lane(*job, lane);
      alloc_count::exchange_scope(own);
      lock.lock();
      // Notify under the lock: once it is released the caller may return
      // and destroy the job.
      if (++job->finished == job->joined) job->helpers_done.notify_one();
      --running_;  // this worker re-checks the open jobs before it sleeps
      continue;
    }
    if (queue_.empty()) return;  // stopping and drained
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    task();  // submitted tasks must not throw
    task = nullptr;  // destroy the captures outside the lock
    lock.lock();
    --active_;
    if (queue_.empty() && active_ == 0) idle_.notify_all();
  }
}

ThreadPool& ThreadPool::global() {
  static std::mutex mutex;
  static std::unique_ptr<ThreadPool> pool;
  std::lock_guard<std::mutex> lock(mutex);
  const int configured = SpecmatchConfig::global().num_threads;
  const auto want = static_cast<std::size_t>(configured < 1 ? 1 : configured);
  if (pool == nullptr || pool->num_threads() != want)
    pool = std::make_unique<ThreadPool>(want);
  return *pool;
}

}  // namespace specmatch
