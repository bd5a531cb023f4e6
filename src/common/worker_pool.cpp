#include "common/worker_pool.hpp"

#include <algorithm>
#include <utility>

namespace hauberk::common {

WorkerPool::WorkerPool(unsigned threads) {
  const unsigned n = std::max(1u, threads);
  threads_.reserve(n);
  for (unsigned i = 0; i < n; ++i) threads_.emplace_back([this, i] { thread_main(i); });
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

unsigned WorkerPool::default_workers() noexcept {
  // hardware_concurrency() re-reads the online-CPU set from the kernel on
  // every call (a few microseconds on glibc), and Device::launch asks once
  // per launch; the answer is read once per process instead.
  static const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return hw;
}

void WorkerPool::run(unsigned n, const std::function<void(unsigned)>& fn) {
  const unsigned active = std::min(n, size());
  if (active == 0) return;
  std::lock_guard<std::mutex> run_lk(run_mu_);
  std::unique_lock<std::mutex> lk(mu_);
  job_ = &fn;
  active_slots_ = active;
  remaining_ = active;
  error_ = nullptr;
  ++generation_;
  lk.unlock();
  start_cv_.notify_all();
  lk.lock();
  done_cv_.wait(lk, [&] { return remaining_ == 0; });
  job_ = nullptr;
  active_slots_ = 0;
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void WorkerPool::thread_main(unsigned slot) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(unsigned)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      start_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      if (slot >= active_slots_) continue;  // this job wants fewer workers
      job = job_;
    }
    std::exception_ptr err;
    try {
      (*job)(slot);
    } catch (...) {
      err = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (err && !error_) error_ = err;
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }
}

}  // namespace hauberk::common
