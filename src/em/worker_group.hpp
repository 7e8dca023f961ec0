// worker_group.hpp — W cooperating processes over one shared block device.
//
// The PEM extension of the external-memory model gives P processors a private
// cache each and a shared disk; the repo's distributed passes (src/dist/) run
// on exactly that shape: W workers, each owning a slice of the pass's work
// units, all transferring against the same BlockDevice.  WorkerGroup is the
// execution layer — it knows nothing about splitters or merges, only how to
// run one *round* (the unit of barrier synchronization) on W workers and get
// every worker's result, I/O delta and busy time back to the coordinator.
//
// Three execution modes, chosen once per group:
//
//  * Forked (the real thing): each round forks W children.  The parent's
//    address space at the fork *is* the broadcast — plans, splitter tables
//    and extent maps are simply inherited copy-on-write.  Children transfer
//    over the inherited device handle (requires BlockDevice::fork_safe();
//    FileBlockDevice's positional pread/pwrite qualifies), never allocate or
//    deallocate extents (the coordinator pre-allocates everything), and pipe
//    a length-framed result blob — payload, IoStats delta, busy seconds —
//    back to the parent, then _exit without running destructors (the shared
//    file must survive them).  The parent drains every pipe and reaps every
//    child: that is the barrier.  The children's counter increments died
//    with their address spaces, so the parent folds the reported deltas back
//    into the device via absorb_stats — logical totals are identical to a
//    single-process run of the same schedule.
//
//  * Inline (the fallback): the same work units run sequentially in the
//    parent, in worker order, with per-worker deltas measured around each
//    unit set.  Selected when the device is not fork-safe, when
//    EMSPLIT_WORKERS_INLINE is set, or under ThreadSanitizer (TSan forbids
//    meaningful work after fork from a multithreaded process).  Block
//    checksums compose with fork mode: a child tracks its checksum-table
//    updates (BlockDevice::set_sum_tracking) and ships them home in the
//    result frame, where the parent merges them.
//
//  * One inline lane (`ctx.workers() == 0`): no worker processes were asked
//    for, so the group reports workers() == 1 and forked() == false and runs
//    every round inline as worker 0.  This is how SplitterIndex::build runs
//    the src/dist/ plan inside a server that holds threads and cannot fork.
//
// All modes execute the *same* unit schedule in the same order per worker —
// mode, like W itself, is geometry, never output.
//
// Supervision (WorkerTuning::{max_worker_retries, worker_timeout,
// degrade_after}): rounds are idempotent — every body writes only its own
// worker's disjoint block-aligned ranges, so a failed worker's unit schedule
// can simply run again.  The supervisor turns three failure classes into
// round-local events: a *crash* (child death or pipe EOF before a full
// frame), a *hang* (frame not complete by the per-round deadline; the child
// is SIGKILLed), and a *corrupt frame* (the FNV checksum in the frame header
// does not match the body).  Each failed worker's units are re-executed
// inline in the coordinator with bounded retries and exponential backoff;
// the re-executed transfers land in the base counters exactly replacing the
// counters the lost frame would have reported — base I/O is identical to
// the fault-free run at every failure schedule — and their volume is
// attributed separately to IoStats::worker_retries, mirroring device-level
// retries.  After `degrade_after` failures the group halves its width for
// the remaining rounds (output-transparent by W-invariance).  Every decision
// is recorded as a structured SupervisionEvent on the context, which the
// pass engine folds into the pass's trace row.  With max_worker_retries = 0
// (the default) any failure stays fatal: the parent absorbs the surviving
// workers' I/O (those blocks really moved), then throws WorkerDied; a
// journaled caller resumes repaying only the interrupted pass.
//
// Failure injection: WorkerTuning{kill_worker, kill_round} makes that worker
// die at the start of that round (_exit(137) forked, a simulated failure
// inline); {hang_worker, hang_round} makes it finish its work and then sleep
// forever without sending its frame (proving completed work is safely
// re-executable); {corrupt_worker, corrupt_round} flips a frame byte after
// the header checksum is computed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "em/context.hpp"

namespace emsplit {

/// True in a ThreadSanitizer build.  WorkerGroup then runs every round
/// inline: TSan forbids meaningful work after fork from a multithreaded
/// process.
#if defined(__SANITIZE_THREAD__)
inline constexpr bool kThreadSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
inline constexpr bool kThreadSanitizer = true;
#else
inline constexpr bool kThreadSanitizer = false;
#endif
#else
inline constexpr bool kThreadSanitizer = false;
#endif

/// A worker process died (or was killed) before completing its round.  The
/// round's pass is torn; a checkpointed job resumes it on the next run.
class WorkerDied : public std::runtime_error {
 public:
  WorkerDied(std::size_t worker, const std::string& what)
      : std::runtime_error(what), worker_(worker) {}
  [[nodiscard]] std::size_t worker() const noexcept { return worker_; }

 private:
  std::size_t worker_;
};

/// Length-framed POD serialization for round payloads.  Both ends of every
/// channel are the same executable image (a fork, or the same process), so
/// raw memcpy framing is exact — no endianness or layout negotiation.
class WireWriter {
 public:
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  template <typename T>
  void pod_span(std::span<const T> s) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(s.size());
    raw(s.data(), s.size() * sizeof(T));
  }
  [[nodiscard]] std::vector<std::byte> take() noexcept {
    return std::move(buf_);
  }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<std::byte> buf_;
};

class WireReader {
 public:
  explicit WireReader(std::span<const std::byte> data) : data_(data) {}
  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof(v));
    return v;
  }
  [[nodiscard]] double f64() {
    double v = 0;
    raw(&v, sizeof(v));
    return v;
  }
  template <typename T>
  [[nodiscard]] std::vector<T> pod_vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::uint64_t n = u64();
    if (n * sizeof(T) > data_.size() - off_) {
      throw std::runtime_error("WireReader: truncated pod_vec");
    }
    std::vector<T> v(static_cast<std::size_t>(n));
    raw(v.data(), v.size() * sizeof(T));
    return v;
  }
  [[nodiscard]] bool done() const noexcept { return off_ == data_.size(); }

 private:
  void raw(void* p, std::size_t n) {
    if (n == 0) return;  // memcpy from an empty span's null data() is UB
    if (n > data_.size() - off_) {
      throw std::runtime_error("WireReader: truncated frame");
    }
    std::memcpy(p, data_.data() + off_, n);
    off_ += n;
  }
  std::span<const std::byte> data_;
  std::size_t off_ = 0;
};

/// One worker's result from a round.
struct WorkerResult {
  std::vector<std::byte> payload;  ///< the body's returned blob
  PassWorkerIo row;                ///< per-worker trace row (io/busy/barrier)
};

/// Everything a round produced, in worker order.  The caller deposits `rows`
/// into the context (Context::note_pass_workers) once any coordinator-side
/// I/O performed inside the same pass has been attributed to its owning
/// worker's row — that keeps the worker rows partitioning the pass total.
struct RoundOutcome {
  std::vector<std::vector<std::byte>> payloads;
  std::vector<PassWorkerIo> rows;
};

class WorkerGroup {
 public:
  /// The body of one round, run once per worker: perform worker `w`'s units
  /// of the round through `wctx` (the child's own context when forked, the
  /// coordinator's when inline) and return the result blob for the
  /// coordinator.  Must not allocate or deallocate device extents and must
  /// not touch coordinator state (it may run in another process).
  using RoundBody =
      std::function<std::vector<std::byte>(Context& wctx, std::size_t w)>;

  /// Binds to `ctx`'s device and worker tuning.  workers == 0 gives one
  /// inline lane: workers() == 1, forked() == false.
  explicit WorkerGroup(Context& ctx);

  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }
  /// True when rounds fork real processes; false on the inline fallback.
  [[nodiscard]] bool forked() const noexcept { return forked_; }

  /// Run one barrier round: execute `body` once per worker, wait for all of
  /// them, fold forked workers' I/O deltas back into the device, and return
  /// every worker's payload and trace row.  Throws WorkerDied when a worker
  /// died (after absorbing the survivors' I/O — those blocks moved).
  [[nodiscard]] RoundOutcome round(const char* label, const RoundBody& body);

 private:
  [[nodiscard]] RoundOutcome round_forked(const RoundBody& body);
  [[nodiscard]] RoundOutcome round_inline(const RoundBody& body);
  /// Supervised recovery: re-execute worker `w`'s units of the current round
  /// inline with bounded retries, depositing the result into `out` with the
  /// re-executed I/O attributed to worker_retries.  Throws WorkerDied when
  /// the retry budget is exhausted.
  void recover_worker(std::size_t w, const RoundBody& body, RoundOutcome& out);

  Context* ctx_;
  std::size_t workers_;
  bool forked_;
  std::uint64_t round_no_ = 0;   ///< 1-based ordinal of the next round
  std::uint64_t failures_ = 0;   ///< worker failures since the last degrade
};

}  // namespace emsplit
