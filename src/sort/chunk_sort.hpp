// chunk_sort.hpp — the benchmark's chunk-sort probe entry points.
//
// The in-memory sort of run formation, segment sorting and partition leaves
// is one branchless_sort call (sort/branchless_sort.hpp); the library calls
// it directly.  These two functions keep the names and signatures the
// benchmark's `sort.chunk_sort_mrec_per_s` probe calls: sort the whole span
// as one shard, then stream it through.  They are a shim, to be deleted with
// the benchmark's next re-baseline (ROADMAP item 7).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "em/context.hpp"
#include "sort/branchless_sort.hpp"

namespace emsplit {
namespace detail {

/// Sort `span` in place as one shard.  Returns its boundaries {0, n} for
/// merge_shards().
template <EmRecord T, typename Less>
std::vector<std::size_t> sort_shards_in_place(Context& /*ctx*/,
                                              std::span<T> span, Less less) {
  branchless_sort(span, less);
  return {0, span.size()};
}

/// Stream the sorted one-shard span through push(record).
template <EmRecord T, typename Less, typename Push>
void merge_shards(std::span<const T> span,
                  const std::vector<std::size_t>& /*off*/, Less /*less*/,
                  Push&& push) {
  for (const T& v : span) push(v);
}

}  // namespace detail
}  // namespace emsplit
