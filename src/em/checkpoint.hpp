// checkpoint.hpp — pass-boundary manifest journal for crash-recoverable runs.
//
// The long passes of this repository — external sort and the recursive
// multi-partition — are sequences of full scans over the data.  A process
// killed mid-run loses only the *interrupted* pass: every completed pass
// left its output in device blocks, and this journal records which blocks
// those are.  On restart, a run with the same job fingerprint resumes from
// the last journaled pass boundary and produces bit-identical output,
// repaying only the I/Os of the pass the crash interrupted (docs/model.md,
// "Failure model and recovery").
//
// Design:
//  * The journal is an append-only file of length + checksum framed entries;
//    a torn tail (the crash hit mid-append) is detected and ignored on load.
//  * The journal *owns* every extent it has published until the algorithm
//    takes the final result (or a newer pass supersedes it, which frees the
//    predecessor).  Ownership in the journal is what keeps checkpointed
//    blocks alive across the exception unwind of a mid-pass fault.
//  * restore() + FileBlockDevice's `preserve_contents` rebuild the allocator
//    of a fresh process around the journaled extents.
//  * Algorithms that find no journaled state run exactly the seed code path;
//    a Context without a journal attached never touches any of this.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "em/block_device.hpp"

namespace emsplit {

/// A realized output run as the partition recursion reports it (mirrors
/// MultiPartitionSpan without depending on the algorithm header).
struct CkptSpan {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bool sorted = false;
};

/// FNV-1a accumulation for job fingerprints.  A fingerprint digests every
/// input that shapes a run's pass structure (N, record size, block records,
/// stream geometry, memory budget, algorithm parameters) so a journal entry
/// is only ever resumed by the identical job.
inline constexpr std::uint64_t kFingerprintSeed = 1469598103934665603ULL;

inline std::uint64_t fingerprint_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

/// The manifest journal.  Main-thread only.  Destroy it *before* the device
/// it was constructed over: the destructor persists the device's checksum
/// sidecar (BlockDevice::persist_sums), then returns every still-owned
/// extent to the device's free list (the journal file itself is kept — it
/// is the recovery record).
class CheckpointJournal {
 public:
  /// Opens (and replays) the journal at `path`, creating it if absent.
  CheckpointJournal(BlockDevice& device, std::string path);
  ~CheckpointJournal();

  CheckpointJournal(const CheckpointJournal&) = delete;
  CheckpointJournal& operator=(const CheckpointJournal&) = delete;

  /// Rebuild the allocator of a freshly reopened device around the journaled
  /// extents: exactly the extents this journal owns are marked live, all
  /// other blocks return to the free list.  Call once, right after
  /// constructing the journal over a `preserve_contents` device and before
  /// any allocation.
  void restore_device();

  // --- External sort ------------------------------------------------------

  /// The last completed pass of one sort job: pass 1 is run formation, each
  /// merge pass increments it.  `extent` (journal-owned) holds `size`
  /// records with run boundaries `offsets`.
  struct SortState {
    std::uint64_t pass = 0;
    BlockRange extent;
    std::uint64_t size = 0;
    std::vector<std::uint64_t> offsets;
  };

  /// Journaled state for this job, if any.  Finding state counts the
  /// journaled passes as resumed (see resumed_passes()).
  [[nodiscard]] std::optional<SortState> resume_sort(std::uint64_t fingerprint);

  /// Does the journal hold sort state for this job?  A lookup only: unlike
  /// resume_sort it counts nothing as resumed (for callers that just reclaim
  /// the extent).
  [[nodiscard]] bool has_sort(std::uint64_t fingerprint) const noexcept {
    return sorts_.count(fingerprint) != 0;
  }

  /// Publish a completed pass.  The journal takes ownership of `extent`
  /// and frees the superseded pass's extent (journal entry first, free
  /// second: a crash between the two only leaks until restore()).
  void publish_sort_pass(std::uint64_t fingerprint, std::uint64_t pass,
                         BlockRange extent, std::uint64_t size,
                         const std::vector<std::uint64_t>& offsets);

  /// Hand the final pass's extent to the caller and retire the job.  After
  /// this the caller owns the blocks and the journal holds nothing for the
  /// fingerprint.
  [[nodiscard]] BlockRange take_sort_extent(std::uint64_t fingerprint);

  // --- Multi-partition ----------------------------------------------------

  /// One scratch bucket the root distribution produced for recursion:
  /// `extent` (journal-owned until `done`) holds `size` records destined for
  /// output records [out_lo, out_lo + size), with the enclosed split ranks
  /// relative to the bucket.
  struct PartBucket {
    BlockRange extent;
    std::uint64_t size = 0;
    std::uint64_t out_lo = 0;
    std::vector<std::uint64_t> ranks;
    bool done = false;
  };

  /// State of one partition job after its root distribution pass: the
  /// journal-owned output extent (holding `n` records once complete), the
  /// spans realized so far (root-direct runs plus completed buckets'), and
  /// the per-bucket work list.
  struct PartState {
    BlockRange out;
    std::uint64_t n = 0;
    std::vector<CkptSpan> spans;
    std::vector<PartBucket> buckets;
  };

  /// Journaled state for this job, if any.  Finding state counts the root
  /// pass plus each completed bucket as resumed.
  [[nodiscard]] std::optional<PartState> resume_part(std::uint64_t fingerprint);

  /// Publish the completed root distribution: the journal takes ownership of
  /// the output extent and every bucket extent.
  void publish_part_root(std::uint64_t fingerprint, BlockRange out,
                         std::uint64_t n, std::vector<PartBucket> buckets,
                         const std::vector<CkptSpan>& spans);

  /// Publish one bucket's completed subtree (its spans, in absolute output
  /// positions) and free the bucket's scratch extent.
  void publish_part_bucket_done(std::uint64_t fingerprint, std::uint64_t bucket,
                                const std::vector<CkptSpan>& spans);

  /// Hand the finished output extent to the caller and retire the job.
  [[nodiscard]] BlockRange take_part_out(std::uint64_t fingerprint);

  // --- Introspection / test hooks ----------------------------------------

  /// Passes that did NOT have to be re-run because the journal already held
  /// their results — what the CLI's `[cost]` line reports as resumed.
  [[nodiscard]] std::uint64_t resumed_passes() const noexcept {
    return resumed_passes_;
  }

  /// Blocks currently owned by the journal (tests assert leak-freedom).
  [[nodiscard]] std::uint64_t owned_blocks() const noexcept;

  /// Crash injection for the kill-and-resume tests: after `n` further
  /// journal appends complete, the process exits immediately (as SIGKILL
  /// would) without running destructors.
  void set_crash_after_publishes(std::uint64_t n) noexcept {
    publishes_left_ = n;
  }

 private:
  void load();
  void append_entry(std::span<const std::byte> payload);

  BlockDevice* dev_;
  std::string path_;
  int fd_ = -1;
  std::map<std::uint64_t, SortState> sorts_;
  std::map<std::uint64_t, PartState> parts_;
  std::uint64_t resumed_passes_ = 0;
  std::uint64_t publishes_left_ = UINT64_MAX;
};

}  // namespace emsplit
