#include "common/thread_pool.h"

#include <algorithm>
#include <string>

#include "common/thread_name.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hmpt {

int ThreadPool::hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int threads) {
  int jobs = threads == 0 ? hardware_jobs() : std::max(threads, 1);
  jobs_ = jobs;
  // The caller drains regions too, so jobs workers would oversubscribe by
  // one: spawn jobs - 1 and let the calling thread be the last lane.
  workers_.reserve(static_cast<std::size_t>(jobs - 1));
  for (int i = 0; i < jobs - 1; ++i)
    workers_.emplace_back([this, i] {
      // Best-effort: lets traces, `top -H` and sanitizer reports
      // attribute work to a pool lane instead of an anonymous TID.
      set_current_thread_name("hmpt-worker-" + std::to_string(i + 1));
      worker_loop();
    });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Region> region;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      region = region_;
    }
    if (region) drain(*region);
  }
}

void ThreadPool::drain(Region& region) {
  for (;;) {
    const std::size_t i = region.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= region.count) return;
    static obs::Counter& tasks = obs::metrics().counter("pool.tasks");
    tasks.add();
    try {
      obs::TraceSpan span("pool", "task");
      span.arg_number("index", static_cast<std::uint64_t>(i));
      region.fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    if (region.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        region.count) {
      std::lock_guard<std::mutex> lock(mutex_);  // orders with the idle wait
      idle_.notify_all();
    }
  }
}

void ThreadPool::run_region(const std::shared_ptr<Region>& region) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    error_ = nullptr;
    region_ = region;
    ++generation_;
  }
  wake_.notify_all();
  drain(*region);
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [&] {
    return region->done.load(std::memory_order_acquire) == region->count;
  });
  region_ = nullptr;
  if (error_) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (size() <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto region = std::make_shared<Region>();
  region->fn = fn;
  region->count = n;
  run_region(region);
}

void ThreadPool::parallel_chunks(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t chunks =
      std::min<std::size_t>(static_cast<std::size_t>(size()), n);
  parallel_for(chunks, [&](std::size_t c) {
    const std::size_t begin = c * n / chunks;
    const std::size_t end = (c + 1) * n / chunks;
    if (begin < end) fn(begin, end);
  });
}

void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  // A one-lane pool spawns no thread and runs the loop inline.
  ThreadPool pool(n < 2 ? 1 : jobs);
  pool.parallel_for(n, fn);
}

}  // namespace hmpt
