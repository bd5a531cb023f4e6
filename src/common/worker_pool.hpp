// Persistent worker-thread pool.
//
// Hot paths in this repository dispatch small parallel jobs thousands of
// times: every Device::launch fans blocks out over workers, and a SWIFI
// campaign runs thousands of independent trials.  Spawning and joining
// std::threads per job costs more than the job itself at these sizes, so
// the pool keeps its threads alive and hands them one job at a time.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hauberk::common {

/// A fixed set of long-lived threads executing "call fn(slot) for every
/// slot in [0, n)" jobs.  run() blocks the caller until all slots return;
/// concurrent run() calls from different threads serialize.  The pool makes
/// no scheduling promises beyond "slot i runs exactly once per job" — any
/// determinism must come from the job itself (which is how Device::launch
/// and the campaign executor use it: results are keyed by block/trial
/// index, never by worker identity).
class WorkerPool {
 public:
  /// Creates `threads` workers (clamped to at least 1).
  explicit WorkerPool(unsigned threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  /// Run fn(slot) for every slot in [0, min(n, size())) on the pool and wait
  /// for completion.  The first exception thrown by any slot is rethrown
  /// here after all slots finish.
  void run(unsigned n, const std::function<void(unsigned)>& fn);

  /// Hardware concurrency, at least 1 (hardware_concurrency may report 0).
  /// Read once per process: a CPU brought on- or offline later does not
  /// change the answer, and a call costs no system call.
  [[nodiscard]] static unsigned default_workers() noexcept;

 private:
  void thread_main(unsigned slot);

  std::vector<std::thread> threads_;
  std::mutex run_mu_;  ///< serializes run() callers

  std::mutex mu_;
  std::condition_variable start_cv_, done_cv_;
  const std::function<void(unsigned)>* job_ = nullptr;
  std::uint64_t generation_ = 0;  ///< bumped per job; workers wait on it
  unsigned active_slots_ = 0;
  unsigned remaining_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
};

}  // namespace hauberk::common
