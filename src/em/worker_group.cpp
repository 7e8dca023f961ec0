// worker_group.cpp — threaded rounds and the inline lane.
#include "em/worker_group.hpp"

#include <algorithm>
#include <chrono>

namespace emsplit {

WorkerGroup::WorkerGroup(Context& ctx)
    : ctx_(&ctx),
      workers_(std::max<std::size_t>(1, ctx.worker_tuning().workers)) {
  if (workers_ > 1) pool_ = std::make_unique<ThreadPool>(workers_ - 1);
}

WorkerGroup::~WorkerGroup() = default;

std::vector<PassWorkerIo> WorkerGroup::round(const char* label,
                                             const RoundBody& body) {
  ++round_no_;
  const WorkerTuning wt = ctx_->worker_tuning();
  std::vector<PassWorkerIo> rows(workers_);
  const auto run_lane = [&](std::size_t w) {
    if (wt.kill_round == round_no_ && wt.kill_worker == w) {
      throw WorkerDied(w, "worker " + std::to_string(w) + " killed in round " +
                              std::to_string(round_no_) + " (" + label + ")");
    }
    const IoStats io0 = BlockDevice::thread_stats();
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t peak = 0;
    if (wt.workers == 0) {
      // The inline lane: the caller's own context, budget and thread.
      body(*ctx_, w);
    } else {
      // Each lane plans against (and is budgeted) M / mem_workers, so any
      // W <= mem_workers keeps the aggregate in-flight footprint <= M.  The
      // model floor M >= 2B still applies per lane.
      Context lctx(ctx_->device(),
                   std::max(ctx_->mem_bytes() / wt.mem_workers,
                            2 * ctx_->block_bytes()));
      lctx.set_io_tuning(ctx_->io_tuning());
      body(lctx, w);
      peak = lctx.budget().peak();
    }
    const double busy =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    rows[w] = PassWorkerIo{w, BlockDevice::thread_stats() - io0, busy, 0.0,
                           peak};
  };
  run_parallel(pool_.get(), workers_, run_lane);
  double max_busy = 0.0;
  for (const PassWorkerIo& r : rows) max_busy = std::max(max_busy, r.seconds);
  for (PassWorkerIo& r : rows) r.barrier_seconds = max_busy - r.seconds;
  return rows;
}

}  // namespace emsplit
