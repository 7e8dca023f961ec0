// chunk_sort.hpp — deterministic sharded sorting of in-memory chunks.
//
// The in-memory sort at the heart of run formation, segment sorting and
// partition leaves, made CPU-parallel.  A chunk is cut into
// `Context::sort_shards()` equal shards (a *geometry* decision — the cuts
// depend only on the chunk length and the knob, never on thread count), the
// shards are sorted concurrently on the context's CPU pool, and a loser-tree
// merge emits the fully sorted sequence.
//
// Determinism: for a fixed shard count the output is a pure function of the
// input — shard sorts are independent branchless_sort calls (a pure
// function of their shard, sort/branchless_sort.hpp) and the merge breaks
// ties by shard index.  Under a *total* order (the library's default
// comparators: Record's operator<=>, std::less<int>) the sorted permutation
// is unique, so any shard count reproduces the shards = 1 output bit for
// bit; only weak-order custom comparators can observe the geometry, exactly
// as they already observe the merge fan-in of the external sort.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "em/context.hpp"
#include "em/thread_pool.hpp"
#include "sort/branchless_sort.hpp"
#include "sort/loser_tree.hpp"

namespace emsplit {
namespace detail {

/// MergeCursor over a contiguous sorted shard.
template <typename T>
class SpanCursor {
 public:
  SpanCursor(const T* first, const T* last) : cur_(first), last_(last) {}

  [[nodiscard]] bool done() const { return cur_ == last_; }
  [[nodiscard]] const T& peek() { return *cur_; }
  void advance() { ++cur_; }

 private:
  const T* cur_;
  const T* last_;
};

/// Shard boundaries for `n` records under `shards` geometry: balanced cuts,
/// never more shards than records (and always at least one).
inline std::vector<std::size_t> shard_offsets(std::size_t n,
                                              std::size_t shards) {
  const std::size_t s =
      std::max<std::size_t>(1, std::min(shards, std::max<std::size_t>(n, 1)));
  std::vector<std::size_t> off(s + 1);
  for (std::size_t i = 0; i <= s; ++i) {
    off[i] = n / s * i + std::min(i, n % s);
  }
  return off;
}

/// Sort each shard of `span` in place, shard sorts distributed over the
/// context's CPU pool.  Returns the shard boundaries for merge_shards().
template <EmRecord T, typename Less>
std::vector<std::size_t> sort_shards_in_place(Context& ctx, std::span<T> span,
                                              Less less) {
  std::vector<std::size_t> off = shard_offsets(span.size(), ctx.sort_shards());
  if (off.size() == 2) {
    branchless_sort(span, less);
    return off;
  }
  run_parallel(ctx.cpu_pool(), off.size() - 1, [&](std::size_t i) {
    branchless_sort(span.subspan(off[i], off[i + 1] - off[i]), less);
  });
  return off;
}

/// Emit the merged sorted sequence of the shards delimited by `off`,
/// calling push(record) in nondecreasing order.  Single-shard chunks are
/// streamed straight through.  The O(shards) tree state is host bookkeeping
/// (like the merge pass's), not budgeted record memory.
template <EmRecord T, typename Less, typename Push>
void merge_shards(std::span<const T> span, const std::vector<std::size_t>& off,
                  Less less, Push&& push) {
  if (off.size() == 2) {
    for (const T& v : span) push(v);
    return;
  }
  std::vector<SpanCursor<T>> cursors;
  cursors.reserve(off.size() - 1);
  for (std::size_t i = 0; i + 1 < off.size(); ++i) {
    cursors.emplace_back(span.data() + off[i], span.data() + off[i + 1]);
  }
  LoserTree<T, SpanCursor<T>, Less> tree(std::move(cursors), less);
  while (!tree.done()) push(tree.next());
}

}  // namespace detail
}  // namespace emsplit
