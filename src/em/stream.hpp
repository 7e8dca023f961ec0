// stream.hpp — buffered sequential access over EmVector.
//
// StreamReader / StreamWriter are the scan primitives of the library:
// element granularity on top, block granularity underneath.  Reading n
// records costs ceil(n/B) I/Os; writing likewise — regardless of the I/O
// tuning below.
//
// The context's IoTuning shapes how those I/Os are issued: with
// batch_blocks > 1, streams move groups of consecutive blocks per device
// call (read_blocks / write_blocks).  Same I/Os counted, far fewer
// calls/syscalls.  Requires the record size to divide the block size
// (otherwise per-block tail padding breaks multi-block record spans and
// streams quietly fall back to one-block batches).  Each stream owns one
// buffer of batch_blocks blocks, filled and flushed on the calling thread.
//
// Bulk helpers at the bottom load / store whole record ranges for chunk-at-
// a-time processing (run formation, in-memory chunk sorts); their buffers
// are reserved by the caller, and with batching they coalesce whole aligned
// extents into single device calls.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "em/em_vector.hpp"

namespace emsplit {

namespace detail {

/// Per-stream transfer geometry derived from the context's IoTuning at
/// stream construction.  `footprint_records` is what the budget charges —
/// tuning-defined, independent of the padded-layout fallback, so a given
/// tuning always reserves the same memory.
template <EmRecord T>
struct StreamShape {
  explicit StreamShape(const EmVector<T>& vec)
      : block_records(vec.block_records()),
        batch_blocks(vec.contiguous_layout()
                         ? vec.context().io_tuning().batch_blocks
                         : 1),
        group_records(batch_blocks * block_records),
        footprint_records(vec.context().stream_blocks() * block_records) {}

  std::size_t block_records;
  std::size_t batch_blocks;  ///< blocks per device call (1 on padded layouts)
  std::size_t group_records;
  std::size_t footprint_records;
};

}  // namespace detail

/// Sequential reader over a record range [first, last) of an EmVector.
///
/// Buffers stream_blocks() blocks against the budget.  Several readers may
/// be live at once (k-way merge); each costs that much memory.
template <EmRecord T>
class StreamReader {
 public:
  explicit StreamReader(const EmVector<T>& vec)
      : StreamReader(vec, 0, vec.size()) {}

  /// Reader over records [first, last) of `vec`.
  StreamReader(const EmVector<T>& vec, std::size_t first, std::size_t last)
      : vec_(&vec),
        shape_(vec),
        pos_(first),
        end_(last),
        reservation_(vec.context().budget().reserve(shape_.footprint_records *
                                                    sizeof(T))),
        records_(shape_.group_records) {
    assert(first <= last && last <= vec.size());
  }

  StreamReader(const StreamReader&) = delete;
  StreamReader& operator=(const StreamReader&) = delete;
  StreamReader& operator=(StreamReader&&) = delete;
  StreamReader(StreamReader&&) noexcept = default;

  /// Records remaining.
  [[nodiscard]] std::size_t remaining() const noexcept { return end_ - pos_; }
  [[nodiscard]] bool done() const noexcept { return pos_ == end_; }
  /// Absolute record index of the next element.
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

  /// Next record without consuming it.
  [[nodiscard]] const T& peek() {
    assert(!done());
    fill();
    return records_[pos_ - first_block_ * shape_.block_records];
  }

  /// Consume and return the next record.
  T next() {
    const T v = peek();
    ++pos_;
    return v;
  }

  /// Skip forward `n` records without reading the blocks in between.  A
  /// group already read stays counted (the device moved those blocks); the
  /// next peek() reads the group at the new position.
  void skip(std::size_t n) {
    assert(n <= remaining());
    pos_ += n;
  }

  /// The resident records from the current position to the end of the
  /// buffered group (never empty unless done()).  Fills the buffer if
  /// needed.  Batch consumers (parallel classification, quintet formation)
  /// process this span in place — data-parallel over the same blocks a
  /// record-at-a-time loop would have read, so I/O counts cannot differ —
  /// then retire it with consume().  The span is invalidated by any other
  /// call on the reader.
  [[nodiscard]] std::span<const T> peek_span() {
    assert(!done());
    fill();
    const std::size_t off = pos_ - first_block_ * shape_.block_records;
    const std::size_t avail =
        std::min(group_span(first_block_, nblocks_) - off, end_ - pos_);
    return std::span<const T>(records_.data() + off, avail);
  }

  /// Consume `n` records previously exposed by peek_span().
  void consume(std::size_t n) {
    assert(n <= remaining());
    pos_ += n;
  }

 private:
  void fill() {
    const std::size_t blk = pos_ / shape_.block_records;
    if (nblocks_ > 0 && blk >= first_block_ && blk < first_block_ + nblocks_) {
      return;
    }
    const std::size_t last_block = (end_ - 1) / shape_.block_records;
    first_block_ = blk;
    nblocks_ = std::min(shape_.batch_blocks, last_block - blk + 1);
    vec_->read_blocks(
        blk, nblocks_,
        std::span<T>(records_).first(group_span(blk, nblocks_)));
  }

  /// Number of records a group starting at `blk` transfers: full blocks
  /// except possibly a prefix of the vector's last block.
  [[nodiscard]] std::size_t group_span(std::size_t blk,
                                       std::size_t nblocks) const {
    const std::size_t cap = vec_->size() - blk * shape_.block_records;
    return std::min(nblocks * shape_.block_records, cap);
  }

  const EmVector<T>* vec_;
  detail::StreamShape<T> shape_;
  std::size_t pos_;
  std::size_t end_;
  MemoryReservation reservation_;
  std::vector<T> records_;
  std::size_t first_block_ = 0;  ///< first block of the buffered group
  std::size_t nblocks_ = 0;      ///< blocks buffered (0 = nothing read yet)
};

/// Sequential writer appending records into an EmVector starting at record 0.
///
/// Call finish() when done: it flushes the partial last group and sets the
/// vector's logical size.  Destruction without finish() writes nothing more
/// and leaves the size alone.
template <EmRecord T>
class StreamWriter {
 public:
  explicit StreamWriter(EmVector<T>& vec)
      : vec_(&vec),
        shape_(vec),
        reservation_(vec.context().budget().reserve(shape_.footprint_records *
                                                    sizeof(T))),
        records_(shape_.group_records) {}

  StreamWriter(const StreamWriter&) = delete;
  StreamWriter& operator=(const StreamWriter&) = delete;

  /// Records written so far.
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  void push(const T& v) {
    assert(count_ < vec_->capacity());
    records_[count_ - group_first_] = v;
    ++count_;
    if (count_ - group_first_ == shape_.group_records) {
      flush_group(shape_.batch_blocks);
      group_first_ = count_;
    }
  }

  /// Flush the trailing partial group and publish the logical size.  A
  /// device fault propagates with the group still buffered, so a caller that
  /// catches it may retry finish().
  void finish() {
    if (finished_) return;
    const std::size_t filled = count_ - group_first_;
    if (filled > 0) {
      // Whole blocks plus possibly one partial block, still one device
      // call.  Like the classic writer, the partial block is written with a
      // full-block span whose tail holds unspecified bytes.
      flush_group((filled + shape_.block_records - 1) / shape_.block_records);
      group_first_ = count_;
    }
    vec_->set_size(count_);
    finished_ = true;
  }

 private:
  void flush_group(std::size_t nblocks) {
    vec_->write_blocks(
        group_first_ / shape_.block_records, nblocks,
        std::span<const T>(records_).first(nblocks * shape_.block_records));
  }

  EmVector<T>* vec_;
  detail::StreamShape<T> shape_;
  std::size_t count_ = 0;
  std::size_t group_first_ = 0;  // record index where the current group starts
  bool finished_ = false;
  MemoryReservation reservation_;
  std::vector<T> records_;
};

/// Sequential writer into an arbitrary record range [start, start + n) of an
/// EmVector that may be written concurrently by neighbouring RangeWriters.
///
/// Interior blocks are written with plain (batched) block writes; the
/// partial edge blocks at the two ends are flushed with a read-merge-write so
/// that records owned by an adjacent range in the same block survive.  The
/// edge read happens at flush time, never earlier.  Used by multi-partition
/// to let distribution passes write final partitions straight into the
/// output vector.
template <EmRecord T>
class RangeWriter {
 public:
  RangeWriter(EmVector<T>& vec, std::size_t start)
      : vec_(&vec),
        shape_(vec),
        start_(start),
        pos_(start),
        // Groups are anchored at the block grid so interior flushes stay
        // aligned.
        group_first_((start / shape_.block_records) * shape_.block_records),
        reservation_(vec.context().budget().reserve(shape_.footprint_records *
                                                    sizeof(T))),
        records_(shape_.group_records) {}

  RangeWriter(const RangeWriter&) = delete;
  RangeWriter& operator=(const RangeWriter&) = delete;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  void push(const T& v) {
    assert(pos_ < vec_->capacity());
    records_[pos_ - group_first_] = v;
    ++pos_;
    ++count_;
    if (pos_ - group_first_ == shape_.group_records) {
      flush_group();
      group_first_ = pos_;
    }
  }

  /// Flush the trailing partial group (idempotent).  Does not touch the
  /// vector's logical size — the caller owns that.
  void finish() {
    if (finished_) return;
    if (count_ > 0 && pos_ > group_first_) {
      flush_group();
      group_first_ = pos_;
    }
    finished_ = true;
  }

 private:
  /// Flush the records this group owns: [max(start, group_first), pos).
  /// Partial edge blocks merge; whole interior blocks go out as one batched
  /// write.
  void flush_group() {
    const std::size_t b = shape_.block_records;
    std::size_t lo = std::max(start_, group_first_);
    const std::size_t hi = pos_;
    if (lo % b != 0) {  // partial head block (only ever the first group's)
      const std::size_t head_end = std::min(hi, (lo / b + 1) * b);
      merge_flush(lo, head_end);
      lo = head_end;
    }
    const std::size_t hi_full = hi - hi % b;
    if (lo < hi_full) {
      vec_->write_blocks(lo / b, (hi_full - lo) / b,
                         std::span<const T>(records_.data() +
                                                (lo - group_first_),
                                            hi_full - lo));
    }
    if (hi % b != 0 && hi_full >= lo) {  // partial tail block (finish only)
      merge_flush(std::max(lo, hi_full), hi);
    }
  }

  /// Read-merge-write of one partial block, records [range_lo, range_hi).
  void merge_flush(std::size_t range_lo, std::size_t range_hi) {
    const std::size_t b = shape_.block_records;
    const std::size_t blk = range_lo / b;
    const std::size_t blk_first = blk * b;
    // The merge copy is a transient reservation: flushes are sequential, so
    // at most one exists at a time even with many writers alive.
    auto merge_res = vec_->context().budget().reserve(b * sizeof(T));
    std::vector<T> merged(b);
    vec_->read_block(blk, merged);
    for (std::size_t r = range_lo; r < range_hi; ++r) {
      merged[r - blk_first] = records_[r - group_first_];
    }
    vec_->write_block(blk, std::span<const T>(merged));
  }

  EmVector<T>* vec_;
  detail::StreamShape<T> shape_;
  std::size_t start_;
  std::size_t pos_;
  std::size_t count_ = 0;
  std::size_t group_first_;  // record index where the current group starts
  bool finished_ = false;
  MemoryReservation reservation_;
  std::vector<T> records_;
};

// ---------------------------------------------------------------------------
// Bulk helpers (chunk-at-a-time processing).
// ---------------------------------------------------------------------------

/// Load records [first, first + out.size()) of `vec` into `out`.
/// Costs the number of blocks the range touches.  The caller is responsible
/// for having reserved `out`'s bytes against the budget.  On contiguous
/// layouts with batching enabled, whole aligned extents transfer straight
/// into `out` in a single device call (no staging memory at all); otherwise
/// a one-block staging buffer is reserved here.
template <EmRecord T>
void load_range(const EmVector<T>& vec, std::size_t first, std::span<T> out) {
  assert(first + out.size() <= vec.size());
  const std::size_t b = vec.block_records();
  const bool batched = vec.context().io_tuning().batch_blocks > 1 &&
                       vec.contiguous_layout();
  std::size_t i = 0;
  if (batched && first % b == 0 && out.size() >= b) {
    // Aligned bulk prefix: one call for all whole blocks.
    const std::size_t nblocks = out.size() / b;
    vec.read_blocks(first / b, nblocks, out.first(nblocks * b));
    i = nblocks * b;
    if (i == out.size()) return;
  }
  auto res = vec.context().budget().reserve(b * sizeof(T));
  std::vector<T> blockbuf(b);
  while (i < out.size()) {
    const std::size_t blk = (first + i) / b;
    const std::size_t off = (first + i) % b;
    const std::size_t take = std::min(b - off, out.size() - i);
    vec.read_block(blk, std::span<T>(blockbuf));
    for (std::size_t j = 0; j < take; ++j) out[i + j] = blockbuf[off + j];
    i += take;
  }
}

/// Store `in` into `vec` at record offset `first` (block-aligned offsets give
/// pure writes; unaligned edges need a read-modify-write of the edge blocks).
/// Same batching as load_range: aligned whole-block extents go out in one
/// device call directly from `in`.
template <EmRecord T>
void store_range(EmVector<T>& vec, std::size_t first, std::span<const T> in) {
  assert(first + in.size() <= vec.capacity());
  const std::size_t b = vec.block_records();
  const bool batched = vec.context().io_tuning().batch_blocks > 1 &&
                       vec.contiguous_layout();
  std::size_t i = 0;
  if (batched && first % b == 0 && in.size() >= b) {
    const std::size_t nblocks = in.size() / b;
    vec.write_blocks(first / b, nblocks, in.first(nblocks * b));
    i = nblocks * b;
    if (i == in.size()) return;
  }
  auto res = vec.context().budget().reserve(b * sizeof(T));
  std::vector<T> blockbuf(b);
  while (i < in.size()) {
    const std::size_t blk = (first + i) / b;
    const std::size_t off = (first + i) % b;
    const std::size_t take = std::min(b - off, in.size() - i);
    if (take < b) {
      // Edge block: preserve surrounding records already on the device, but
      // only if there is live data in this block outside the stored range.
      const bool has_live_prefix = off > 0;
      const bool has_live_suffix =
          blk * b + take + off < vec.size() && off + take < b;
      if (has_live_prefix || has_live_suffix) vec.read_block(blk, blockbuf);
    }
    for (std::size_t j = 0; j < take; ++j) blockbuf[off + j] = in[i + j];
    vec.write_block(blk, std::span<const T>(blockbuf));
    i += take;
  }
}

/// Materialize an in-memory sequence as a new EmVector (test/workload
/// convenience; costs ceil(n/B) writes).
template <EmRecord T>
[[nodiscard]] EmVector<T> materialize(Context& ctx, std::span<const T> data) {
  EmVector<T> vec(ctx, data.size());
  StreamWriter<T> w(vec);
  for (const T& v : data) w.push(v);
  w.finish();
  return vec;
}

/// Read a whole EmVector back into host memory (test convenience).
template <EmRecord T>
[[nodiscard]] std::vector<T> to_host(const EmVector<T>& vec) {
  std::vector<T> out;
  out.reserve(vec.size());
  StreamReader<T> r(vec);
  while (!r.done()) out.push_back(r.next());
  return out;
}

}  // namespace emsplit
