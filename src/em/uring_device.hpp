// uring_device.hpp — io_uring-backed file device: the native async backend.
//
// FileBlockDevice costs one blocking syscall per extent transfer.  On the
// batched tunings that is already far fewer calls than blocks, but the
// device never holds queue depth > 1: every write blocks until the kernel
// has copied the bytes, every read blocks from submission to completion.
// UringBlockDevice keeps a real submission/completion ring instead:
//
//  * Writes are *write-behind with coalescing*: the bytes are copied into
//    an *open* slot buffer and the call returns — no SQE yet.  A write that
//    exactly extends an open slot's block range appends into the same
//    buffer, so the sequential extent streams every pass emits (run
//    formation, merge output, bucket appends) collapse into slot-sized
//    transfers before the kernel ever sees them.  A slot is *sealed* (its
//    SQE pushed) when its window fills, when a read or conflicting write
//    overlaps it, or on drain; sealed SQEs are handed to the kernel in
//    groups (`submit_batch`) — one io_uring_enter for many large transfers,
//    which on fast backing stores is where the wall-clock goes (per-call
//    overhead, not data movement).  Completions are reaped
//    opportunistically; errors surface on the next transfer, drain, or
//    discard of the affected extent.
//  * Reads first drain any in-flight write that overlaps the requested
//    range (the ring may reorder; a read must see the bytes of the newest
//    enqueued write), then transfer positionally: a read is synchronous by
//    the device contract, so a submit-and-wait enter buys nothing over
//    pread — only direct mode routes reads through the ring (O_DIRECT
//    alignment staging).  Write-after-write to overlapping blocks drains
//    the older write for the same reason.
//  * deallocate() reaches the ring through BlockDevice::do_discard: in-flight
//    writes into the freed extent are drained before the extent can be
//    recycled, so a stale completion can never clobber a new owner.
//
// Everything above the backend is inherited unchanged — counting, fault
// injection, bounded retry, checksums.  Writes are counted
// at submission; the model charges block movement, and the ordering rules
// above make the movement indistinguishable from the synchronous backend:
// backend choice is geometry, never output (bit-identical checksums,
// identical logical IoStats at every tuning — the PR-5 contract).
//
// Graceful fallback: when io_uring is unavailable (old kernel, seccomp,
// RLIMIT_MEMLOCK) the constructor quietly degrades to the positional
// pread/pwrite path shared with FileBlockDevice — same file format, same
// sidecar, same semantics, native() == false.  O_DIRECT is opt-in and
// probed: it engages only when the filesystem accepts the flag and
// block_bytes is a multiple of 512 (the transfer alignment O_DIRECT
// requires); transfers then go through 4096-aligned bounce buffers rounded
// to whole blocks, with short-write tails zero-filled (block tails beyond
// the written prefix are unspecified by the device contract).
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "em/block_device.hpp"

namespace emsplit {

/// Ring geometry knobs (namespace scope so `= {}` default arguments work;
/// GCC cannot use a nested aggregate's member initializers from a default
/// argument of the enclosing class).
struct UringTuning {
  unsigned ring_entries = 64;  ///< submission queue size (rounded up to 2^k)
  unsigned write_behind = 16;  ///< in-flight write slots
  unsigned submit_batch = 8;   ///< queued SQEs per io_uring_enter
  bool direct = false;         ///< probe O_DIRECT (needs 512 | block_bytes)
};

class UringBlockDevice final : public BlockDevice {
 public:
  using Tuning = UringTuning;

  /// The ring the CLI builds: 8 write-behind slots, handed to the kernel
  /// four at a time, in a 16-entry ring.
  [[nodiscard]] static Tuning tuned(bool direct = false) {
    Tuning t;
    t.write_behind = 8;
    t.submit_batch = t.write_behind / 2;
    t.ring_entries = 2 * t.write_behind;
    t.direct = direct;
    return t;
  }

  UringBlockDevice(std::string path, std::size_t block_bytes,
                   Tuning tuning = {}, bool keep_file = false,
                   bool preserve_contents = false);
  ~UringBlockDevice() override;

  /// True iff this kernel/process can set up an io_uring at all (one-time
  /// probe; cheap after the first call).
  [[nodiscard]] static bool uring_supported() noexcept;

  /// True when the ring is live; false on the pread/pwrite fallback path.
  [[nodiscard]] bool native() const noexcept { return ring_fd_ >= 0; }
  /// True when transfers bypass the page cache (O_DIRECT engaged).
  [[nodiscard]] bool direct_io() const noexcept { return direct_; }

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::string sidecar_path() const { return path_ + ".sums"; }

  /// Buffered mode is fork-safe: children never drive the parent's ring —
  /// child_after_fork pins them to positional pread/pwrite on the shared fd
  /// (the same path the no-ring fallback uses), and prepare_fork drains
  /// write-behind so children read settled bytes.  Direct mode is not: the
  /// positional fallback moves unaligned user spans, which O_DIRECT rejects.
  [[nodiscard]] bool fork_safe() const noexcept override { return !direct_; }
  void prepare_fork() override;
  void child_after_fork() noexcept override;

 protected:
  void do_read(BlockId block, std::span<std::byte> out) override;
  void do_write(BlockId block, std::span<const std::byte> in) override;
  void do_read_blocks(BlockId first, std::uint64_t count,
                      std::span<std::byte> out) override;
  void do_write_blocks(BlockId first, std::uint64_t count,
                       std::span<const std::byte> in) override;
  void do_grow(std::uint64_t new_size_blocks) override;
  void do_discard(const BlockRange& range) noexcept override;

 private:
  struct Slot {
    std::byte* buf = nullptr;    ///< slot buffer (aligned when direct)
    std::size_t buf_bytes = 0;
    BlockId first = 0;           ///< blocks covered by the buffered write
    std::uint64_t count = 0;
    std::uint64_t file_off = 0;
    std::uint32_t len = 0;       ///< total bytes of the write
    std::uint32_t done = 0;      ///< bytes confirmed by completions
    bool open = false;           ///< coalescing window, SQE not yet pushed
    bool in_flight = false;      ///< SQE pushed, completion outstanding
  };

  void setup_ring(unsigned entries);
  void teardown_ring() noexcept;
  /// Push one SQE (caller holds mu_, SQ known non-full).
  void push_sqe(unsigned opcode, std::byte* addr, std::uint32_t len,
                std::uint64_t file_off, std::uint64_t user_data);
  [[nodiscard]] unsigned sq_space() const noexcept;
  /// io_uring_enter submitting everything queued, waiting for >= `wait_for`
  /// completions; returns completions reaped.  `ignore` suppresses write
  /// errors wholly inside that range (discarded extents).
  unsigned enter_and_reap(unsigned wait_for, const BlockRange* ignore);
  void process_cqe(std::uint64_t user_data, std::int32_t res,
                   const BlockRange* ignore);
  void drain_writes(const BlockRange* ignore);
  void wait_overlapping(BlockId first, std::uint64_t count,
                        const BlockRange* ignore = nullptr);
  /// Close a coalescing window: push the slot's SQE (possibly triggering a
  /// batch submit).  The slot moves open -> in_flight.
  void seal_slot(unsigned idx);
  [[nodiscard]] unsigned acquire_slot();
  void rethrow_pending();
  /// Submit one synchronous op (read, or an oversized write) and wait for its
  /// completion, retrying -EINTR/-EAGAIN.  Returns res >= 0; throws on error.
  std::int32_t submit_sync(unsigned opcode, std::byte* addr, std::uint32_t len,
                           std::uint64_t file_off, const char* what);

  void ring_write(BlockId first, std::uint64_t count,
                  std::span<const std::byte> in);
  void ring_read(BlockId first, std::uint64_t count, std::span<std::byte> out);

  std::string path_;
  int fd_ = -1;
  bool keep_file_;
  bool direct_ = false;
  Tuning tuning_;
  /// Set inside a forked worker: transfers take the positional branch and
  /// never touch the inherited ring (whose queues belong to the parent).
  bool forked_child_ = false;

  // Ring state (valid iff ring_fd_ >= 0), all guarded by mu_.
  int ring_fd_ = -1;
  void* sq_ring_ = nullptr;
  std::size_t sq_ring_bytes_ = 0;
  void* cq_ring_ = nullptr;
  std::size_t cq_ring_bytes_ = 0;
  void* sqes_ = nullptr;
  std::size_t sqes_bytes_ = 0;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned sq_mask_ = 0;
  unsigned* sq_array_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned cq_mask_ = 0;
  void* cqes_base_ = nullptr;
  unsigned sq_entries_ = 0;

  using AlignedBuf = std::unique_ptr<std::byte[], void (*)(std::byte*)>;

  std::mutex mu_;
  std::vector<Slot> slots_;
  std::size_t slot_bytes_ = 0;                  // capacity of each slot buffer
  std::vector<std::byte> slot_storage_;         // buffered mode backing
  AlignedBuf aligned_storage_{nullptr, +[](std::byte*) {}};  // direct backing
  std::vector<unsigned> free_slots_;
  unsigned queued_ = 0;      ///< SQEs pushed since the last enter
  unsigned inflight_ = 0;    ///< sealed write slots awaiting completion
  unsigned open_count_ = 0;  ///< open coalescing windows (no SQE yet)
  std::size_t seal_cursor_ = 0;  ///< round-robin victim for slot starvation
  std::byte* sync_buf_ = nullptr;       ///< direct-mode staging for sync ops
  std::int32_t sync_result_ = 0;        ///< completion res of the sync op
  bool sync_result_valid_ = false;
  std::exception_ptr pending_error_;    ///< first unreported write error
};

}  // namespace emsplit
