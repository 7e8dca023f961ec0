// context.hpp — bundles the machine parameters of one EM computation.
//
// A Context owns the memory budget (capacity M bytes) and references the
// block device (block size B bytes).  Algorithms receive a Context& and
// derive per-record-type capacities from it:
//
//   ctx.block_records<T>()  — the model's B, in records of type T
//   ctx.mem_records<T>()    — the model's M, in records of type T
//
// The model requires M >= 2B; the constructor enforces it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "em/block_device.hpp"
#include "em/memory_budget.hpp"
#include "em/phase_profile.hpp"

namespace emsplit {

class CheckpointJournal;
class PassTraceLog;

/// Knobs for batched I/O (docs/model.md, "I/O batching").  The default — one
/// block per call — reproduces the classic single-buffered streams exactly,
/// I/O count for I/O count.
struct IoTuning {
  /// Blocks the stream classes move per device call (read_blocks /
  /// write_blocks batching), and so the size of each stream's one buffer.
  /// Only takes effect for record types whose size divides the block size
  /// (otherwise per-block tail padding makes multi-block record spans
  /// discontiguous and streams fall back to 1).
  std::size_t batch_blocks = 1;
};

/// Knobs for the worker-lane layer (em/worker_group.hpp, docs/model.md
/// "Multi-worker partitioning and the PEM model").  Like batch_blocks,
/// `workers` is geometry, never output: the distributed passes
/// decompose into work units whose shape depends only on (n, B, M, tuning);
/// W merely assigns units to lanes, so every W produces bit-identical bytes
/// and identical logical IoStats totals.
struct WorkerTuning {
  /// Worker lanes per distributed pass.  0 (the default) keeps
  /// distribution_sort and multi_partition on the classic single-lane code;
  /// a WorkerGroup built at 0 is one inline lane, which is how
  /// SplitterIndex::build runs the distributed plan.  1 runs the distributed
  /// protocol with a single lane (same schedule as any other W; useful as
  /// the parity baseline).
  std::size_t workers = 0;
  /// Crash injection for the resume tests: lane `kill_worker` throws
  /// WorkerDied at the start of distributed round `kill_round` (1-based).
  /// kill_round = 0 disarms.
  std::size_t kill_worker = 0;
  std::uint64_t kill_round = 0;
  /// Memory-partitioning width: each lane plans against and is budgeted
  /// M / mem_workers bytes, so any W <= mem_workers keeps the aggregate
  /// in-flight footprint <= M.  A *geometry* knob (it shapes unit sizes),
  /// deliberately separate from `workers` so W itself stays execution-only:
  /// every W at fixed mem_workers is bit-identical.  1 — the default —
  /// reproduces the seed plan (lanes share the full budget).
  std::size_t mem_workers = 1;
};

/// One lane's contribution to a distributed pass: its share of the
/// PassTrace row's I/O delta.  `seconds` is the lane's busy time inside the
/// round body; `barrier_seconds` the time it waited at the closing barrier
/// for the slowest peer (max busy − own busy).
struct PassWorkerIo {
  std::size_t worker = 0;
  IoStats io;
  double seconds = 0.0;
  double barrier_seconds = 0.0;
  /// The lane's peak MemoryBudget reservation inside its round bodies —
  /// what the M/mem_workers partitioning contract is asserted against
  /// (summed over any mem_workers concurrent lanes it stays <= M).  0 for
  /// the inline lane, which runs against the coordinator's own budget.
  std::uint64_t peak_bytes = 0;
};

class Context {
 public:
  /// `mem_bytes` is the internal-memory capacity M (in bytes); the block
  /// size B comes from the device.
  Context(BlockDevice& device, std::size_t mem_bytes)
      : device_(&device), budget_(mem_bytes) {
    if (mem_bytes < 2 * device.block_bytes()) {
      throw std::invalid_argument(
          "Context: the EM model requires M >= 2B (mem_bytes >= 2 * "
          "block_bytes)");
    }
  }

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] BlockDevice& device() const noexcept { return *device_; }
  [[nodiscard]] MemoryBudget& budget() noexcept { return budget_; }
  [[nodiscard]] const MemoryBudget& budget() const noexcept { return budget_; }

  [[nodiscard]] std::size_t mem_bytes() const noexcept {
    return budget_.capacity();
  }
  [[nodiscard]] std::size_t block_bytes() const noexcept {
    return device_->block_bytes();
  }

  /// B in records of type T: floor(block_bytes / sizeof(T)).  A block stores
  /// whole records only; when the record size does not divide the block size
  /// the tail of each block is unused (the device supports prefix transfers
  /// at the same one-I/O cost).
  template <typename T>
  [[nodiscard]] std::size_t block_records() const {
    static_assert(sizeof(T) > 0);
    const std::size_t b = block_bytes() / sizeof(T);
    if (b == 0) {
      throw std::invalid_argument(
          "Context::block_records: record larger than one block");
    }
    return b;
  }

  /// M in records of type T.
  template <typename T>
  [[nodiscard]] std::size_t mem_records() const {
    return mem_bytes() / sizeof(T);
  }

  /// Snapshot of the underlying device's I/O statistics.
  [[nodiscard]] IoStats io() const noexcept { return device_->stats(); }

  /// The device's pass-boundary hook (BlockDevice::shard_stats).
  [[nodiscard]] std::vector<IoStats> shard_stats() const {
    return device_->shard_stats();
  }

  /// Configure I/O batching.  Throws if batch_blocks is 0 or a reader/writer
  /// pair of batched streams could not fit in M (the model needs at least
  /// input + output streaming to make progress).  Only call at quiescent
  /// points (no live streams).
  void set_io_tuning(const IoTuning& tuning) {
    if (tuning.batch_blocks == 0) {
      throw std::invalid_argument(
          "Context::set_io_tuning: batch_blocks must be positive");
    }
    // Divide rather than multiply: batch_blocks may come straight from the
    // command line, and the product would wrap.
    if (tuning.batch_blocks > mem_bytes() / (2 * block_bytes())) {
      throw std::invalid_argument(
          "Context::set_io_tuning: a reader/writer stream pair would exceed "
          "M (shrink batch_blocks)");
    }
    tuning_ = tuning;
  }
  [[nodiscard]] const IoTuning& io_tuning() const noexcept { return tuning_; }

  /// Blocks of memory one stream's buffer occupies under the current tuning.
  [[nodiscard]] std::size_t stream_blocks() const noexcept {
    return tuning_.batch_blocks;
  }

  /// Optional per-phase I/O attribution (see phase_profile.hpp).  Null by
  /// default; benches attach one to explain where the scans go.
  void set_profile(PhaseProfile* profile) noexcept { profile_ = profile; }
  [[nodiscard]] PhaseProfile* profile() const noexcept { return profile_; }

  /// Optional checkpoint journal (see checkpoint.hpp).  Null by default —
  /// algorithms then run exactly the seed code path.  When attached, the
  /// long passes (external sort, multi-partition) publish pass boundaries to
  /// it and consult it on entry to resume an interrupted run.  Non-owning.
  void set_checkpoint(CheckpointJournal* journal) noexcept {
    checkpoint_ = journal;
  }
  [[nodiscard]] CheckpointJournal* checkpoint() const noexcept {
    return checkpoint_;
  }

  /// Optional structured pass-trace sink (see pass_engine.hpp).  Null by
  /// default — the engine then records nothing.  When attached, every
  /// engine-run pass appends one PassTrace row (name, I/Os, bytes, wall
  /// time).  Non-owning; main-thread only.
  void set_pass_trace(PassTraceLog* log) noexcept { pass_trace_ = log; }
  [[nodiscard]] PassTraceLog* pass_trace() const noexcept {
    return pass_trace_;
  }

  /// Configure the worker-lane layer.  Throws on absurd widths; 0 disables
  /// the distributed path (the default and the seed behavior).  Main-thread
  /// only, at quiescent points (no distributed round in flight).
  void set_worker_tuning(const WorkerTuning& tuning) {
    if (tuning.workers > 64) {
      throw std::invalid_argument(
          "Context::set_worker_tuning: workers must be <= 64");
    }
    if (tuning.mem_workers == 0) {
      throw std::invalid_argument(
          "Context::set_worker_tuning: mem_workers must be >= 1");
    }
    worker_tuning_ = tuning;
  }
  [[nodiscard]] const WorkerTuning& worker_tuning() const noexcept {
    return worker_tuning_;
  }
  /// Worker lanes per distributed pass (0 = classic path).
  [[nodiscard]] std::size_t workers() const noexcept {
    return worker_tuning_.workers;
  }

  /// Per-lane trace channel, the distributed sibling of note_pass_hwm: a
  /// distributed round deposits its per-lane deltas here and the pass
  /// engine's scope collects them into the pass's trace row on exit.
  /// Appending, so a pass of several rounds accumulates; take resets.
  void note_pass_workers(std::vector<PassWorkerIo> rows) {
    pass_workers_.insert(pass_workers_.end(),
                         std::make_move_iterator(rows.begin()),
                         std::make_move_iterator(rows.end()));
  }
  [[nodiscard]] std::vector<PassWorkerIo> take_pass_workers() noexcept {
    return std::exchange(pass_workers_, {});
  }

  /// In-pass memory high-water-mark channel.  A pass that tracks its own
  /// peak working set (e.g. the distribution sort's in-place final pass,
  /// whose segment groups are data-dependent) publishes the max here; the
  /// pass engine's scope collects it into the pass's trace row on exit.
  /// Monotonic max within a pass; take_pass_hwm() resets for the next one.
  void note_pass_hwm(std::uint64_t bytes) noexcept {
    if (bytes > pass_hwm_) pass_hwm_ = bytes;
  }
  [[nodiscard]] std::uint64_t take_pass_hwm() noexcept {
    const std::uint64_t v = pass_hwm_;
    pass_hwm_ = 0;
    return v;
  }

 private:
  BlockDevice* device_;
  MemoryBudget budget_;
  PhaseProfile* profile_ = nullptr;
  CheckpointJournal* checkpoint_ = nullptr;
  PassTraceLog* pass_trace_ = nullptr;
  IoTuning tuning_;
  WorkerTuning worker_tuning_;
  std::uint64_t pass_hwm_ = 0;
  std::vector<PassWorkerIo> pass_workers_;
};

}  // namespace emsplit
