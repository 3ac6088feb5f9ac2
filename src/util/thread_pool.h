// A small fixed-size worker pool.
//
// run_indexed(n, fn) executes fn(i, worker) for every index in [0, n) across
// the workers and blocks until all complete; start() and wait() split that
// call so the caller can work while the batch runs. Indices are handed out
// in ascending order from a shared cursor, so early-finishing workers take
// the remaining indices instead of idling behind a static partition. The
// execution engine (core/engine.cpp, DESIGN.md §7) starts one index per
// worker: a loop that pulls shards from its window while the calling thread
// builds and merges them.
//
// Determinism note: the pool makes no ordering promises between indices —
// callers that need deterministic results must write fn so that index i only
// touches slot i.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wildenergy::util {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1). Workers idle until a
  /// run_indexed batch arrives and are joined by the destructor.
  explicit ThreadPool(unsigned num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Run fn(index, worker) for every index in [0, n); blocks until the whole
  /// batch completes. `worker` is the executing worker's index in [0, size()).
  /// If any invocation throws, the first exception is rethrown here after the
  /// batch drains (remaining indices still run). Not reentrant: one batch at
  /// a time, and fn must not call run_indexed on the same pool.
  void run_indexed(std::size_t n, const std::function<void(std::size_t, unsigned)>& fn);
  /// Hand out the batch and return at once; `fn` must outlive the matching
  /// wait(). One batch at a time.
  void start(std::size_t n, const std::function<void(std::size_t, unsigned)>& fn);
  /// Block until the started batch completes; rethrows its first exception.
  void wait();

 private:
  void worker_loop(unsigned worker);

  std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers wait here for a batch
  std::condition_variable done_cv_;   ///< run_indexed waits here for drain
  const std::function<void(std::size_t, unsigned)>* job_ = nullptr;
  std::size_t next_ = 0;       ///< next index to hand out
  std::size_t total_ = 0;      ///< batch size
  std::size_t remaining_ = 0;  ///< indices not yet completed
  std::exception_ptr error_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace wildenergy::util
