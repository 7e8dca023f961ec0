// worker_group.hpp — W lanes of one process over one shared block device.
//
// The PEM extension of the external-memory model gives P processors a private
// cache each and a shared disk; the repo's distributed passes (src/dist/) run
// on exactly that shape: W lanes, each owning a slice of the pass's work
// units, all transferring against the same BlockDevice.  WorkerGroup is the
// execution layer — it knows nothing about splitters or merges, only how to
// run one *round* (the unit of barrier synchronization) on W lanes and hand
// every lane's I/O delta, busy time and budget peak back to the coordinator.
//
// Two modes, chosen once per group by ctx.workers():
//
//  * W = 0 — one inline lane.  The round body runs once, as lane 0, on the
//    caller's thread and against the caller's own Context.  This is how
//    SplitterIndex::build runs the src/dist/ plan inside the server.
//
//  * W >= 1 — threaded lanes.  Each round runs lanes 0 … W−1 on a
//    ThreadPool(W − 1) the group owns (the caller is the W-th thread; lanes
//    are claimed in index order; W = 1 runs lane 0 on the caller alone).
//    Every lane gets a private Context over the shared device: budget
//    M / mem_workers floored at 2B and the coordinator's IoTuning.  That is
//    the PEM processor's private memory; the unit geometry (dist_plan.hpp)
//    is computed against the same share.
//
// Bodies write only their own lane's disjoint, block-aligned device ranges
// and their own lane's result slot, never allocate or free extents, and
// never touch coordinator state.  Every lane executes the *same* unit
// schedule in the same order whatever W is — W is geometry, never output.
//
// Accounting: a lane's IoStats row is the delta of the calling thread's
// transfer counter (BlockDevice::thread_stats) across its body, so the rows
// partition the device-wide delta of the round exactly.
//
// Failure: round() waits for every lane, then rethrows the exception of the
// lowest-numbered lane that threw (ThreadPool::run's rule).  The blocks the
// other lanes moved are already counted.  A journaled caller resumes
// repaying only the interrupted pass.
//
// Failure injection: WorkerTuning{kill_worker, kill_round} makes that lane
// throw WorkerDied at the start of that round (1-based), before any I/O.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "em/context.hpp"
#include "em/thread_pool.hpp"

namespace emsplit {

/// A lane died before completing its round (the kill injection).  The
/// round's pass is torn; a checkpointed job resumes it on the next run.
class WorkerDied : public std::runtime_error {
 public:
  WorkerDied(std::size_t worker, const std::string& what)
      : std::runtime_error(what), worker_(worker) {}
  [[nodiscard]] std::size_t worker() const noexcept { return worker_; }

 private:
  std::size_t worker_;
};

class WorkerGroup {
 public:
  /// The body of one round, run once per lane: perform lane `w`'s units of
  /// the round through `wctx` (the lane's private context, or the caller's
  /// at W = 0) and leave the lane's result in a slot the caller indexes by
  /// `w`.
  using RoundBody = std::function<void(Context& wctx, std::size_t w)>;

  /// Binds to `ctx`'s device and worker tuning.  workers == 0 gives one
  /// inline lane: workers() == 1.
  explicit WorkerGroup(Context& ctx);
  ~WorkerGroup();

  WorkerGroup(const WorkerGroup&) = delete;
  WorkerGroup& operator=(const WorkerGroup&) = delete;

  /// Lanes per round (>= 1).
  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }

  /// Run one barrier round: execute `body` once per lane, wait for all of
  /// them, and return every lane's trace row in lane order.  `label` names
  /// the round in error messages.
  [[nodiscard]] std::vector<PassWorkerIo> round(const char* label,
                                                const RoundBody& body);

 private:
  Context* ctx_;
  std::size_t workers_;
  std::unique_ptr<ThreadPool> pool_;  ///< W − 1 threads; null below 2 lanes
  std::uint64_t round_no_ = 0;        ///< 1-based ordinal of the last round
};

}  // namespace emsplit
