// block_device.hpp — the "disk" of the external-memory model.
//
// A BlockDevice is a flat address space of fixed-size blocks.  Algorithms may
// only move data between memory and the device in whole blocks, and every
// such transfer is counted in IoStats.  Two implementations are provided:
//
//  * MemoryBlockDevice — RAM-backed simulator.  Gives *exact, deterministic*
//    I/O counts; this is the measurement instrument for all shape experiments
//    (the paper's cost model charges I/Os, not seconds).
//  * FileBlockDevice — a real file on disk, for wall-clock sanity benchmarks
//    (experiment E10 in DESIGN.md).
//
// Transfers come in two granularities: single blocks (read/write) and
// contiguous multi-block extents (read_blocks/write_blocks).  A k-block
// extent transfer is one device call — one pread/pwrite on FileBlockDevice —
// but is charged k I/Os, because the model prices block movement, not calls;
// batching is therefore invisible to the cost accounting (docs/model.md,
// "I/O batching").
//
// Allocation is extent-based (contiguous runs of blocks) with a first-fit
// free list, so external vectors and scratch space can be recycled during
// recursive algorithms without unbounded device growth.  Allocation metadata
// lives in host bookkeeping and is not charged against the model's memory
// budget, matching standard practice in EM implementations (e.g. STXXL's
// block-management layer).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "em/io_stats.hpp"

namespace emsplit {

using BlockId = std::uint64_t;

inline constexpr BlockId kInvalidBlock = std::numeric_limits<BlockId>::max();

/// A contiguous run of blocks owned by one external data structure.
struct BlockRange {
  BlockId first = kInvalidBlock;
  std::uint64_t count = 0;

  [[nodiscard]] bool valid() const noexcept { return first != kInvalidBlock; }
  friend bool operator==(const BlockRange&, const BlockRange&) = default;
};

/// Thrown by the fault-injection hook; used by tests to verify that the RAII
/// layers above the device are strongly exception-safe.
///
/// A fault carries the exact request that failed: operation, block range,
/// and how many blocks of the request had already transferred (and been
/// counted) when the fault fired.
class DeviceFault : public std::runtime_error {
 public:
  DeviceFault(const std::string& what, const char* op, BlockId first,
              std::uint64_t count, std::uint64_t completed)
      : std::runtime_error(what),
        op_(op),
        first_(first),
        count_(count),
        completed_(completed) {}

  /// "read" or "write".
  [[nodiscard]] const char* op() const noexcept { return op_; }
  /// The failed request's block range [first_block, first_block + count).
  [[nodiscard]] BlockId first_block() const noexcept { return first_; }
  [[nodiscard]] std::uint64_t block_count() const noexcept { return count_; }
  /// Blocks of the request transferred (and counted) before the fault.
  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }

 private:
  const char* op_ = "";
  BlockId first_ = kInvalidBlock;
  std::uint64_t count_ = 0;
  std::uint64_t completed_ = 0;
};

/// One block's recorded checksum in export form: FNV-1a over the `len`-byte
/// prefix the write transferred.  The unit of sidecar persistence.
struct SumEntry {
  BlockId block = 0;
  std::uint32_t len = 0;
  std::uint64_t sum = 0;
};

/// A read returned bytes whose checksum does not match what was last written
/// to that block (torn write, bit rot, or the test injector's flipped bit).
/// Re-reading returns the same bytes, so the fault is final.  The faulting
/// read has already been counted — the block really moved; it just arrived
/// wrong.
class CorruptBlock : public DeviceFault {
 public:
  CorruptBlock(const std::string& what, BlockId block)
      : DeviceFault(what, "read", block, 1, 1) {}
};

/// Abstract block device with I/O accounting, extent allocation and fault
/// injection.
///
/// Thread-safety contract (load-bearing for the splitter service, whose
/// query threads read one device concurrently, and for the worker lanes,
/// which write disjoint ranges of it concurrently): the transfer interface —
/// read / write / read_blocks / write_blocks — and the stats() snapshot may
/// be used from several threads at once.  The I/O counters are relaxed
/// atomics, and the transfer paths of both concrete devices are data-race
/// free provided no two threads write the same block concurrently.
/// Everything else — allocate / deallocate, reset_stats, arm/disarm fault —
/// is main-thread only and must not run while transfers are in flight.
class BlockDevice {
 public:
  explicit BlockDevice(std::size_t block_bytes);
  virtual ~BlockDevice();

  BlockDevice(const BlockDevice&) = delete;
  BlockDevice& operator=(const BlockDevice&) = delete;

  /// Size of one block in bytes (the model's `B`, in bytes).
  [[nodiscard]] std::size_t block_bytes() const noexcept { return block_bytes_; }

  /// Reserve a contiguous extent of `count` blocks.  First-fit over the free
  /// list, growing the device at the end if nothing fits.
  [[nodiscard]] BlockRange allocate(std::uint64_t count);

  /// Return an extent to the free list (with coalescing).  Passing an invalid
  /// or empty range is a no-op so destructors can call this unconditionally.
  void deallocate(const BlockRange& range) noexcept;

  /// Read a prefix of one block into `out` (`out.size() <= block_bytes()`).
  /// Counts one read I/O regardless of the prefix length — the model charges
  /// per block transfer.  Prefix transfers exist because a block holds
  /// floor(block_bytes / sizeof(record)) whole records; the tail of a block
  /// is unused when the record size does not divide the block size.
  void read(BlockId block, std::span<std::byte> out);

  /// Write a prefix of one block from `in` (`in.size() <= block_bytes()`).
  /// Counts one write I/O.
  void write(BlockId block, std::span<const std::byte> in);

  /// Read `count` consecutive blocks starting at `first` in one device call.
  /// `out` must cover all of the first `count - 1` blocks and a non-empty
  /// prefix of the last one (so `(count-1)*block_bytes < out.size() <=
  /// count*block_bytes`) — the multi-block generalization of the single-block
  /// prefix rule.  Counts exactly `count` read I/Os.
  ///
  /// Fault injection honors the per-I/O countdown *inside* the batch: when
  /// the fault is due after j < count more I/Os, the first j blocks are
  /// transferred and counted, then DeviceFault is thrown.
  void read_blocks(BlockId first, std::uint64_t count,
                   std::span<std::byte> out);

  /// Write `count` consecutive blocks from `in` in one device call; the same
  /// span, counting and mid-batch fault rules as read_blocks.
  void write_blocks(BlockId first, std::uint64_t count,
                    std::span<const std::byte> in);

  /// Snapshot of the I/O counters.  Returns by value: the counters are
  /// atomics that other threads may be bumping concurrently.
  [[nodiscard]] IoStats stats() const noexcept;

  /// Transfers performed by the calling thread since it started: bumped next
  /// to the device counters by every read and write (a transfer a device
  /// forwards to an inner device counts once).  A worker lane's delta of
  /// this is its share of the device delta.
  [[nodiscard]] static IoStats thread_stats() noexcept;

  /// Zero the counters.  Main-thread only, and only at quiescent points (no
  /// transfers in flight — e.g. between algorithm runs); a reset racing
  /// another thread's increments would produce torn totals.
  void reset_stats() noexcept;

  /// Pass-boundary hook: PassRunner calls this once when a pass starts and
  /// once when it ends, just before it records the pass's trace row.  The
  /// result is ignored and the stock devices return nothing; a wrapping
  /// device may override it to timestamp pass boundaries.
  [[nodiscard]] virtual std::vector<IoStats> shard_stats() const { return {}; }

  /// Total blocks ever grown to (capacity high-water mark).
  [[nodiscard]] std::uint64_t size_blocks() const noexcept {
    return size_blocks_.load(std::memory_order_relaxed);
  }

  /// Blocks currently allocated to live extents.
  [[nodiscard]] std::uint64_t allocated_blocks() const noexcept {
    return allocated_blocks_;
  }

  /// Fault injection: after `remaining` further I/Os succeed, the next I/O
  /// throws a DeviceFault and the injector disarms (a one-shot countdown).
  void arm_fault_after(std::uint64_t remaining) {
    const std::lock_guard<std::mutex> lock(fault_mu_);
    fault_countdown_ = remaining;
    fault_armed_.store(true, std::memory_order_release);
  }
  void disarm_fault() noexcept {
    fault_armed_.store(false, std::memory_order_release);
  }

  /// Corruption detection: when enabled, every block write records an FNV-1a
  /// checksum of the bytes written in a sidecar page map, and every read of a
  /// block with a recorded checksum re-hashes the returned bytes and throws
  /// CorruptBlock on mismatch.  A read shorter than the recorded write (a
  /// prefix transfer of a block written full) is left unverified — the hash
  /// covers bytes the read did not move.  Blocks of deallocated extents drop
  /// their entries, so recycled blocks never trip stale checksums.
  /// Main-thread only, at quiescent points.
  void set_checksums(bool enabled) noexcept {
    checksums_.store(enabled, std::memory_order_release);
  }
  [[nodiscard]] bool checksums() const noexcept {
    return checksums_.load(std::memory_order_acquire);
  }

  /// The full checksum table in export form (what a sidecar persists).
  [[nodiscard]] std::vector<SumEntry> export_sums() const;

  /// Persist the checksum table now, if this device keeps a sidecar, and
  /// make that snapshot final: later deallocations and the destructor leave
  /// it as it is.  CheckpointJournal's destructor calls this before it
  /// returns its extents, whose entries deallocate() drops — so an
  /// interrupted run's journaled blocks stay verifiable on resume.
  /// Default: the device keeps no sidecar.
  virtual void persist_sums() {}

  /// Test injector for corruption: flip one bit of a block's stored bytes,
  /// bypassing the I/O counters and the checksum map — exactly what a torn
  /// write or a decayed cell does to a device.
  void corrupt_bit(BlockId block, std::size_t bit);

  /// Recovery hook: rebuild allocator state on a device whose *contents*
  /// survived a process death (FileBlockDevice reopened over its file).
  /// Grows the device to `size_blocks` and marks exactly the `live` extents
  /// allocated; everything else returns to the free list, and checksum
  /// entries outside the live extents are dropped.  Throws
  /// std::runtime_error, changing nothing, if a live extent ends past
  /// preserved_blocks(): growing over it would read zeros where the journal
  /// promised data.  Call on a fresh device before any allocation.
  void restore(std::uint64_t size_blocks, std::span<const BlockRange> live);

  /// Blocks whose contents this device found in place when it was opened —
  /// the most restore() may mark live.  Unbounded unless the device reopens
  /// stored contents (FileBlockDevice with preserve_contents).
  [[nodiscard]] virtual std::uint64_t preserved_blocks() const noexcept {
    return UINT64_MAX;
  }

 protected:
  virtual void do_read(BlockId block, std::span<std::byte> out) = 0;
  virtual void do_write(BlockId block, std::span<const std::byte> in) = 0;
  /// Batched transfers; the base implementations loop over do_read/do_write
  /// block by block.  Concrete devices override them with a genuinely
  /// vectored path (single pread/pwrite, single lock acquisition).
  virtual void do_read_blocks(BlockId first, std::uint64_t count,
                              std::span<std::byte> out);
  virtual void do_write_blocks(BlockId first, std::uint64_t count,
                               std::span<const std::byte> in);
  /// Called when the device grows to `new_size_blocks` blocks.
  virtual void do_grow(std::uint64_t new_size_blocks) = 0;
  /// Load checksum entries (a reloaded sidecar) into the table, the inverse
  /// of export_sums.  Construction time only.
  void import_sums(std::span<const SumEntry> entries);

 private:
  /// Outcome of consulting the fault injector for a `count`-I/O request.
  struct FaultDecision {
    std::uint64_t allowed = 0;  ///< I/Os that may proceed before the fault
    bool fires = false;         ///< a fault fires after `allowed` transfers
  };

  void check_range(BlockId first, std::uint64_t count, std::size_t span_bytes,
                   const char* op) const;
  /// Run the armed countdown for a `count`-I/O request: how many of the I/Os
  /// may proceed (charging the countdown for them), and whether a fault
  /// fires on the next one.
  [[nodiscard]] FaultDecision fault_check(std::uint64_t count);
  /// Shared transfer cores: validation done by the caller; these run the
  /// fault countdown, the counters and (for reads) checksum verification.
  void read_core(const char* op, BlockId first, std::uint64_t count,
                 std::span<std::byte> out);
  void write_core(const char* op, BlockId first, std::uint64_t count,
                  std::span<const std::byte> in);
  void record_sums(BlockId first, std::uint64_t count,
                   std::span<const std::byte> in);
  void verify_sums(BlockId first, std::uint64_t count,
                   std::span<const std::byte> data) const;

  /// Checksum of one block as last written: FNV-1a over the `len`-byte
  /// prefix that the write actually transferred.
  struct BlockSum {
    std::uint32_t len = 0;
    std::uint64_t sum = 0;
  };

  std::size_t block_bytes_;
  std::atomic<std::uint64_t> size_blocks_{0};
  std::uint64_t allocated_blocks_ = 0;
  // Free extents keyed by first block, value = extent length.  Adjacent
  // extents are coalesced on deallocate.
  std::map<BlockId, std::uint64_t> free_extents_;
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> writes_{0};
  // Fast path: one relaxed-ish load when disarmed.  The countdown is
  // mutex-guarded so concurrent transfers charge it exactly once each.
  std::atomic<bool> fault_armed_{false};
  std::mutex fault_mu_;
  std::uint64_t fault_countdown_ = 0;
  // Sidecar page map: block -> checksum of its last write.  Guarded by its
  // own mutex (transfers of disjoint blocks run concurrently).
  std::atomic<bool> checksums_{false};
  mutable std::mutex sum_mu_;
  std::map<BlockId, BlockSum> sums_;
};

/// RAII ownership of a raw extent outside an EmVector — the recovery and
/// checkpoint layers juggle BlockRanges directly, and this guard keeps them
/// leak-free when an exception unwinds between allocate and hand-off.
class ExtentGuard {
 public:
  ExtentGuard() noexcept = default;
  ExtentGuard(BlockDevice& dev, BlockRange range) noexcept
      : dev_(&dev), range_(range) {}
  ~ExtentGuard() {
    if (dev_ != nullptr) dev_->deallocate(range_);
  }

  ExtentGuard(ExtentGuard&& o) noexcept
      : dev_(std::exchange(o.dev_, nullptr)),
        range_(std::exchange(o.range_, BlockRange{})) {}
  ExtentGuard& operator=(ExtentGuard&& o) noexcept {
    if (this != &o) {
      if (dev_ != nullptr) dev_->deallocate(range_);
      dev_ = std::exchange(o.dev_, nullptr);
      range_ = std::exchange(o.range_, BlockRange{});
    }
    return *this;
  }
  ExtentGuard(const ExtentGuard&) = delete;
  ExtentGuard& operator=(const ExtentGuard&) = delete;

  [[nodiscard]] const BlockRange& range() const noexcept { return range_; }
  /// Transfer the extent out of the guard (it will not be deallocated).
  BlockRange release() noexcept {
    dev_ = nullptr;
    return std::exchange(range_, BlockRange{});
  }

 private:
  BlockDevice* dev_ = nullptr;
  BlockRange range_;
};

/// RAM-backed simulator device.  Blocks are lazily materialized so a large
/// address space costs memory only for blocks actually written.
class MemoryBlockDevice final : public BlockDevice {
 public:
  explicit MemoryBlockDevice(std::size_t block_bytes);

 protected:
  void do_read(BlockId block, std::span<std::byte> out) override;
  void do_write(BlockId block, std::span<const std::byte> in) override;
  void do_read_blocks(BlockId first, std::uint64_t count,
                      std::span<std::byte> out) override;
  void do_write_blocks(BlockId first, std::uint64_t count,
                       std::span<const std::byte> in) override;
  void do_grow(std::uint64_t new_size_blocks) override;

 private:
  // Copy loops; `mu_` is held shared during transfers (they touch disjoint
  // blocks, so first writes install distinct page pointers) and exclusively
  // while do_grow resizes the page table.
  void read_one(BlockId block, std::span<std::byte> out) const;
  void write_one(BlockId block, std::span<const std::byte> in);

  mutable std::shared_mutex mu_;
  // One zero-initialized page per written block; null = never written (reads
  // as zero).
  std::vector<std::unique_ptr<std::byte[]>> blocks_;
};

/// File-backed device for wall-clock experiments and crash-recoverable runs.
/// Uses positional reads and writes on a regular file (pread/pwrite are
/// thread-safe by construction); the file is removed on destruction unless
/// `keep_file` was requested.  A kept file gets a checksum sidecar
/// (`sidecar_path()`, written by persist_sums() or else at destruction; a
/// killed process simply loses the map, and unverified reads are the safe
/// degradation).  With `preserve_contents`, an existing file is opened
/// without truncation and its sidecar, if one was saved, is reloaded — pair
/// with restore() to resume a checkpointed run.
class FileBlockDevice final : public BlockDevice {
 public:
  FileBlockDevice(std::string path, std::size_t block_bytes,
                  bool keep_file = false, bool preserve_contents = false);
  ~FileBlockDevice() override;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::string sidecar_path() const { return path_ + ".sums"; }

  void persist_sums() override;

  /// With preserve_contents, the whole blocks the file held at open.
  [[nodiscard]] std::uint64_t preserved_blocks() const noexcept override {
    return preserved_blocks_;
  }

 protected:
  void do_read(BlockId block, std::span<std::byte> out) override;
  void do_write(BlockId block, std::span<const std::byte> in) override;
  void do_read_blocks(BlockId first, std::uint64_t count,
                      std::span<std::byte> out) override;
  void do_write_blocks(BlockId first, std::uint64_t count,
                       std::span<const std::byte> in) override;
  void do_grow(std::uint64_t new_size_blocks) override;

 private:
  void pread_span(std::uint64_t offset, std::span<std::byte> out);
  void pwrite_span(std::uint64_t offset, std::span<const std::byte> in);

  std::string path_;
  int fd_ = -1;
  bool keep_file_;
  bool sums_persisted_ = false;  // persist_sums() already wrote the sidecar
  std::uint64_t preserved_blocks_ = UINT64_MAX;
};

}  // namespace emsplit
