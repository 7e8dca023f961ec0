// classify.hpp — branch-free bucket classification against sorted pivots.
//
// The batch hot paths classify every record against a memory-resident sorted
// splitter array: the multi-selection base case's counting and
// instance-building scans (select/base_case.hpp) and multi-partition's cut
// selection and distribution scans (partition/multi_partition.hpp).  With
// ~M/4 splitters and uniformly spread records, each probe of a classic
// binary search is a coin flip the branch predictor loses, so classification
// is most of those passes' CPU time.
//
// branchless_lower_bound halves the range with an arithmetic select
// (base += less(base[half-1], x) * half) instead of a branch: every probe of
// a search of n pivots costs the same ceil(log2 n) + 1 comparisons whatever
// the outcome, and the loads of the next level's two candidate midpoints
// are prefetched while the current comparison resolves.  The result is
// exactly std::lower_bound's index for any strict weak order; nothing is
// allocated.
#pragma once

#include <cstddef>
#include <span>

namespace emsplit {

/// Index of the first element of `sorted` for which less(element, x) is
/// false (sorted.size() if none) — the same index std::lower_bound returns.
/// `sorted` must be partitioned by less(·, x), as any ascending range is.
template <typename T, typename Less>
[[nodiscard]] inline std::size_t branchless_lower_bound(
    std::span<const T> sorted, const T& x, Less less) {
  std::size_t n = sorted.size();
  if (n == 0) return 0;
  const T* base = sorted.data();
  // Invariant: every element before `base` is less than x, and the answer
  // lies in [base, base + n].
  while (n > 1) {
    const std::size_t half = n / 2;
    // Whichever way this probe goes, the next one lands near one of these.
    __builtin_prefetch(base + half / 2);
    __builtin_prefetch(base + half + half / 2);
    base += static_cast<std::size_t>(less(base[half - 1], x)) * half;
    n -= half;
  }
  return static_cast<std::size_t>(base - sorted.data()) +
         static_cast<std::size_t>(less(*base, x));
}

}  // namespace emsplit
