// thread_pool.hpp — the pool behind worker lanes.
//
// Each WorkerGroup with W >= 2 lanes owns one pool (em/worker_group.hpp);
// lanes are the library's one CPU-parallel mechanism.  Its only primitive is
// run(): execute fn(i) for every index i in [0, ntasks), with the calling
// thread participating, and return when all of them have finished.  Task
// indices are claimed under the pool mutex in increasing order; completion
// order is scheduler-dependent, which is why every lane body is written so
// that *results* never depend on which thread ran which index (docs/model.md,
// "Lanes").
//
// Exceptions thrown by tasks are captured per index; after the batch
// barrier, run() rethrows the one with the smallest task index.  That makes
// error behaviour deterministic too: the surfaced exception is the same one
// a serial left-to-right loop would have hit first.
//
// run() is a full happens-before barrier in both directions.  Each task is a
// lane: it transfers blocks through the shared device — its transfer
// interface is thread-safe for disjoint blocks — and reserves only from the
// lane's own private Context.  Device allocation stays with the caller,
// outside run().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace emsplit {

class ThreadPool {
 public:
  /// Spawns `workers` threads.  A group of W lanes holds W - 1 workers: the
  /// caller of run() is the remaining lane.
  explicit ThreadPool(std::size_t workers);
  /// Waits out any batch in flight, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t workers() const noexcept {
    return workers_.size();
  }
  /// Execution lanes available to run(): the workers plus the caller.
  [[nodiscard]] std::size_t lanes() const noexcept {
    return workers_.size() + 1;
  }

  /// Run fn(i) for every i in [0, ntasks); the calling thread participates.
  /// Indices are claimed in increasing order.  If any task throws, the
  /// exception with the smallest task index is rethrown after the barrier.
  /// Not reentrant: tasks must not call run() on the same pool.
  void run(std::size_t ntasks, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  /// Claim-and-execute loop shared by workers and the caller.  Returns when
  /// the current batch has no unclaimed tasks left.
  void work_on_batch();

  std::mutex mu_;
  std::condition_variable batch_ready_;  // signalled on run() / stop
  std::condition_variable batch_done_;   // signalled when pending_ hits 0
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t ntasks_ = 0;
  std::size_t next_ = 0;     // next unclaimed task index
  std::size_t pending_ = 0;  // tasks not yet finished
  std::uint64_t generation_ = 0;
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Run fn over [0, ntasks) on `pool`, or serially when pool is null (a
/// group of one lane has no pool at all).
inline void run_parallel(ThreadPool* pool, std::size_t ntasks,
                         const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < ntasks; ++i) fn(i);
    return;
  }
  pool->run(ntasks, fn);
}

}  // namespace emsplit
