// sharded_device.hpp — D-disk striping: one logical device over D members.
//
// The EM model's standard multi-disk extension (Aggarwal–Vitter; Vitter &
// Shriver's D-disk model) lets one I/O move a block *per disk*.
// ShardedBlockDevice realizes it RAID-0 style: the logical block space is cut
// into fixed-size stripe units of `stripe_blocks` blocks, dealt round-robin
// over D member devices.  Everything above the BlockDevice interface —
// EmVector, the stream classes, every algorithm — is unchanged: striping is
// *geometry, never output* (docs/model.md, "Sharded devices and the D-disk
// model").  For any (D, stripe_blocks) the facade performs the same logical
// transfers, byte for byte and count for count, as a single device.
//
// Issue: a batched read_blocks / write_blocks extent is split into
// per-member segments (each a contiguous member-local run, each backed by a
// disjoint sub-span of the caller's buffer — zero copies, zero extra memory)
// and issued one after the other, in logical order, on the calling thread.
//
// Accounting: the members' own counters are the per-shard IoStats, and the
// facade's totals are their sum (plus facade-level retries, which have no
// shard — see stats()).  Per-shard counters therefore partition the facade's
// totals exactly.
//
// Faults: the PR-3 substrate passes through at both levels.  Faults armed on
// the *facade* fire on logical ranges, are retried by the facade's policy and
// charge the facade's retry counter.  Faults armed on a *member* are retried
// inside that member (set_fault_policy forwards to every member), so retries
// are charged to the faulting shard; whatever escapes the member's budget is
// re-thrown carrying the *logical* block range of the request, with the
// member and its local range in the message.  Checksums live at the facade —
// enable them there and corruption on any member surfaces as CorruptBlock
// with the logical block id.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "em/block_device.hpp"

namespace emsplit {

class ShardedBlockDevice final : public BlockDevice {
 public:
  /// Takes ownership of `members` (all fresh — no allocations yet — and all
  /// with the same block size, which becomes the facade's).  `stripe_blocks`
  /// is the striping unit: logical stripe s = blocks [s*stripe_blocks,
  /// (s+1)*stripe_blocks) lives on member s % D at member-local stripe s / D.
  ShardedBlockDevice(std::vector<std::unique_ptr<BlockDevice>> members,
                     std::size_t stripe_blocks);
  ~ShardedBlockDevice() override;

  /// Facade totals: per-shard reads/writes/retries summed, plus the facade's
  /// own retry counter (retries of *logical* injected faults).  Facade-level
  /// retries are *attributed*: each is also charged, by locate(), to the
  /// shard owning the first untransferred block of the retried request, so
  /// the per-shard stats partition these totals exactly — including retries.
  [[nodiscard]] IoStats stats() const noexcept override;
  void reset_stats() noexcept override;

  [[nodiscard]] std::size_t shard_count() const noexcept override {
    return members_.size();
  }
  /// Per-member counter snapshots, index-aligned with the members.  A
  /// member's row is its own counters plus the facade retries attributed to
  /// it, so summing rows reproduces stats().
  [[nodiscard]] std::vector<IoStats> shard_stats() const override;

  /// Fork-safe iff every member is: the stripe map is immutable and growth
  /// idempotent, so cooperating processes compose member-wise.
  [[nodiscard]] bool fork_safe() const noexcept override;

  /// Fork hooks forward to every member (members own the shared state; the
  /// facade itself is stripe arithmetic plus counters).
  void prepare_fork() override {
    for (auto& m : members_) m->prepare_fork();
  }
  void child_after_fork() noexcept override {
    for (auto& m : members_) m->child_after_fork();
  }

  /// A forked worker's delta is folded member-wise: each per-shard row — the
  /// child's member counters plus the facade retries it attributed to that
  /// shard — lands in the owning member's counters, preserving the
  /// rows-partition-the-total invariant across processes.
  void absorb_stats(const IoStats& delta,
                    std::span<const IoStats> per_shard) noexcept override;

  /// Forwards to every member (where member-fault retries run) and keeps the
  /// facade's own copy (for logical faults armed on the facade).
  void set_fault_policy(const FaultPolicy& policy) noexcept override;

  /// Per-member retry budget: member `i` alone gets `policy`; the facade's
  /// policy and the other members are untouched.  A flaky disk can get a
  /// deeper budget (or a tighter one) than its healthy peers.
  void set_member_fault_policy(std::size_t i, const FaultPolicy& policy);

  /// Corruption injection on the logical address space: translated to the
  /// owning member's raw bytes, bypassing all counters and checksum maps.
  void corrupt_bit(BlockId block, std::size_t bit) override;

  /// Direct access to member `i` — tests arm per-shard faults through this.
  [[nodiscard]] BlockDevice& member(std::size_t i) noexcept {
    return *members_[i];
  }
  [[nodiscard]] std::size_t stripe_blocks() const noexcept {
    return stripe_blocks_;
  }

  /// Persistent per-member checksum sidecars.  `paths[i]` names member `i`'s
  /// sidecar file (conventionally the member path + ".ssums" — distinct from
  /// FileBlockDevice's own ".sums" suffix, whose destructor manages that
  /// file).  On call, existing sidecars are read and their entries folded
  /// into the facade's checksum table (entries are stored under *logical*
  /// block ids, so they survive independently of member path order only as
  /// long as the geometry matches — callers pass the same D and
  /// stripe_blocks they saved with).  When `preserve` is set, the destructor
  /// partitions the table by owning member and writes each member's entries
  /// back to its sidecar.  Main-thread only, before transfers begin.
  void set_member_sidecars(std::vector<std::string> paths, bool preserve);

  /// Write the sidecars *now* from the current checksum table, then disarm
  /// the destructor's rewrite.  Teardown paths that deallocate extents after
  /// this call (a checkpoint journal returning its still-owned extents —
  /// deallocation drops the freed blocks' entries) no longer erase the
  /// persisted record: the files keep the pre-deallocation snapshot, which
  /// is exactly what a resuming process needs to verify the journaled
  /// blocks it re-reads.  No-op unless `set_member_sidecars` armed
  /// persistence.  Main-thread only, at a quiescent point.
  void flush_member_sidecars();

 protected:
  void do_read(BlockId block, std::span<std::byte> out) override;
  void do_write(BlockId block, std::span<const std::byte> in) override;
  void do_read_blocks(BlockId first, std::uint64_t count,
                      std::span<std::byte> out) override;
  void do_write_blocks(BlockId first, std::uint64_t count,
                       std::span<const std::byte> in) override;
  /// Grows each member to hold every stripe of the new logical size.  The
  /// facade never deallocates member blocks, so member growth is always
  /// contiguous at the end — each member stays a dense linear array.
  void do_grow(std::uint64_t new_size_blocks) override;
  /// Facade retry attribution: charged to the shard owning the first block
  /// the retried attempt had not yet transferred.
  void note_retry(BlockId first_failed) noexcept override;

 private:
  /// One member-contiguous piece of a logical extent: `count` blocks starting
  /// at member-local block `mfirst` of member `shard`, backed by the caller
  /// span's bytes [off, off + len).
  struct Segment {
    std::size_t shard = 0;
    BlockId mfirst = 0;
    BlockId lfirst = 0;
    std::uint64_t count = 0;
    std::size_t off = 0;
    std::size_t len = 0;
  };

  /// Home of one logical block: which member, and at which member-local id.
  struct Location {
    std::size_t shard = 0;
    BlockId block = 0;
  };
  [[nodiscard]] Location locate(BlockId block) const noexcept;

  [[nodiscard]] std::vector<Segment> split(BlockId first, std::uint64_t count,
                                           std::size_t span_bytes) const;
  /// Issue the segments of one logical request, in logical order on the
  /// calling thread.  `is_read` selects the member transfer.
  /// Member DeviceFaults are re-thrown on the *logical* range [first,
  /// first + count) with the blocks known transferred as completed().
  void run_segments(bool is_read, BlockId first, std::uint64_t count,
                    const std::vector<Segment>& segs, std::byte* read_base,
                    const std::byte* write_base);

  std::vector<std::unique_ptr<BlockDevice>> members_;
  std::size_t stripe_blocks_;
  std::vector<std::string> sidecar_paths_;
  bool preserve_sidecars_ = false;
  /// Facade-level retries attributed per shard (atomic array: note_retry may
  /// fire from concurrent query threads; atomics are not movable, hence the
  /// array).
  std::unique_ptr<std::atomic<std::uint64_t>[]> facade_retries_by_shard_;
};

}  // namespace emsplit
