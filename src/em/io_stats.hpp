// io_stats.hpp — exact I/O accounting for the external-memory model.
//
// Every block transfer performed through a BlockDevice increments one of the
// counters here.  The EM cost model of Aggarwal & Vitter (CACM'88) charges one
// unit per block read or written and nothing for CPU work, so these counters
// *are* the cost measure every experiment in this repository reports.
#pragma once

#include <cstdint>
#include <iosfwd>

namespace emsplit {

/// Running totals of block transfers on one device.
///
/// `reads` / `writes` count block-granular operations; a request that spans
/// `k` blocks counts as `k`.  All algorithm-facing formulas in the paper are
/// expressed in these units.
///
/// This is a plain value type — a snapshot.  The live counters inside
/// BlockDevice are relaxed atomics (concurrent query threads and worker lanes
/// increment them); `BlockDevice::stats()` folds them into an IoStats by
/// value.
struct IoStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  /// Reads served from a decoded bucket payload (BucketScanCache).  No query
  /// path consults that cache any more, so this stays 0; the field remains
  /// because the benchmark harness reads it.  Such reads would still count
  /// in `reads`.
  std::uint64_t bucket_hits = 0;

  /// Combined I/O count — the quantity the paper's bounds are stated in.
  [[nodiscard]] std::uint64_t total() const noexcept { return reads + writes; }

  /// The snapshot with bucket hits zeroed — what determinism
  /// assertions compare.
  [[nodiscard]] IoStats base() const noexcept { return IoStats{reads, writes}; }

  IoStats& operator+=(const IoStats& o) noexcept {
    reads += o.reads;
    writes += o.writes;
    bucket_hits += o.bucket_hits;
    return *this;
  }
  friend IoStats operator-(IoStats a, const IoStats& b) noexcept {
    a.reads -= b.reads;
    a.writes -= b.writes;
    a.bucket_hits -= b.bucket_hits;
    return a;
  }
  friend bool operator==(const IoStats&, const IoStats&) = default;
};

std::ostream& operator<<(std::ostream& os, const IoStats& s);

/// Measures the I/Os performed between construction and `delta()`.  Used by
/// tests to assert per-phase I/O bounds and by the bench harness to attribute
/// cost to individual algorithm stages.  `Source` is anything with a
/// `stats()` member returning an IoStats snapshot (e.g. BlockDevice).
template <typename Source>
class ScopedIoDelta {
 public:
  explicit ScopedIoDelta(const Source& source) noexcept
      : source_(&source), start_(source.stats()) {}

  /// I/Os performed on the tracked device since construction.
  [[nodiscard]] IoStats delta() const noexcept {
    return source_->stats() - start_;
  }

 private:
  const Source* source_;
  IoStats start_;
};

}  // namespace emsplit
