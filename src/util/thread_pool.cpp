#include "util/thread_pool.h"

#include <algorithm>

namespace wildenergy::util {

ThreadPool::ThreadPool(unsigned num_threads) {
  num_threads = std::max(1u, num_threads);
  workers_.reserve(num_threads);
  for (unsigned w = 0; w < num_threads; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock{mu_};
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::run_indexed(std::size_t n,
                             const std::function<void(std::size_t, unsigned)>& fn) {
  start(n, fn);
  wait();
}

void ThreadPool::start(std::size_t n, const std::function<void(std::size_t, unsigned)>& fn) {
  if (n == 0) return;
  const std::lock_guard<std::mutex> lock{mu_};
  job_ = &fn;
  next_ = 0;
  total_ = n;
  remaining_ = n;
  error_ = nullptr;
  work_cv_.notify_all();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock{mu_};
  done_cv_.wait(lock, [this] { return remaining_ == 0; });
  job_ = nullptr;
  if (error_) {
    const std::exception_ptr error = error_;
    error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop(unsigned worker) {
  std::unique_lock<std::mutex> lock{mu_};
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || (job_ != nullptr && next_ < total_); });
    if (stop_) return;
    while (job_ != nullptr && next_ < total_) {
      const std::size_t index = next_++;
      const auto* job = job_;
      lock.unlock();
      std::exception_ptr thrown;
      try {
        (*job)(index, worker);
      } catch (...) {
        thrown = std::current_exception();
      }
      lock.lock();
      if (thrown && !error_) error_ = thrown;
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace wildenergy::util
