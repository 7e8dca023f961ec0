// branchless_sort.hpp — branch-free in-place quicksort for record arrays.
//
// Every in-memory record sort of the library runs through this kernel: the
// chunk sorts of the recursive sampler (select/linear_splitters.hpp), run
// formation, multi-partition leaves and distribution-sort segments
// (sort/chunk_sort.hpp), and the distributed protocol's formation and part
// sorts.  On records with uniformly spread keys every comparison of a
// classic Hoare partition is a coin flip the branch predictor loses, so the
// sort is dominated by mispredictions, not by comparisons.
//
// The partition is a cyclic Lomuto scan: every element costs one comparison
// and two moves, and neither the moves nor the `lt += less(x, pivot)` update
// depend on the comparison's outcome, so the loop has no data-dependent
// branch.  Around it sits a conventional introsort skeleton:
//
//   * pivot: median of 3, or a ninther (median of three medians of 3) above
//     kNintherThreshold elements;
//   * ranges of kInsertionThreshold elements or fewer: insertion sort;
//   * recursion on the smaller side, a loop on the larger one, so the stack
//     depth is O(log n);
//   * past 2 * floor(log2 n) partitioning levels: heapsort, so the worst
//     case is O(n log n);
//   * equal keys the pdqsort way: when the element just before the subrange
//     (an earlier pivot, no greater than anything in it) is not less than
//     the chosen pivot, the two are equal, so the range is partitioned by
//     !less(pivot, x) and the block equal to the pivot is skipped — many
//     equal keys under a weak order cannot degrade the sort.
//
// Under a total order the sorted permutation is unique, so the output is
// bit-identical to std::sort's; under a weak order the output is still a
// pure function of the input.  Nothing is allocated: the kernel holds one
// copy of the pivot and one displaced element.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <span>
#include <utility>

namespace emsplit {
namespace detail {

inline constexpr std::size_t kInsertionThreshold = 24;
inline constexpr std::size_t kNintherThreshold = 128;

template <typename T, typename Less>
void insertion_sort(T* first, T* last, Less& less) {
  if (first == last) return;
  for (T* i = first + 1; i < last; ++i) {
    if (!less(*i, *(i - 1))) continue;
    T x = std::move(*i);
    T* j = i;
    do {
      *j = std::move(*(j - 1));
      --j;
    } while (j > first && less(x, *(j - 1)));
    *j = std::move(x);
  }
}

/// Order *a <= *b.
template <typename T, typename Less>
void sort2(T* a, T* b, Less& less) {
  if (less(*b, *a)) std::iter_swap(a, b);
}

/// Order *a <= *b <= *c.
template <typename T, typename Less>
void sort3(T* a, T* b, T* c, Less& less) {
  sort2(a, b, less);
  sort2(b, c, less);
  sort2(a, b, less);
}

/// Move the chosen pivot of [first, last) (at least 3 elements) to *first.
template <typename T, typename Less>
void choose_pivot(T* first, T* last, Less& less) {
  const std::size_t n = static_cast<std::size_t>(last - first);
  T* mid = first + n / 2;
  if (n > kNintherThreshold) {
    sort3(first, mid, last - 1, less);
    sort3(first + 1, mid - 1, last - 2, less);
    sort3(first + 2, mid + 1, last - 3, less);
    sort3(mid - 1, mid, mid + 1, less);
    std::iter_swap(first, mid);
  } else {
    sort3(mid, first, last - 1, less);
  }
}

/// Branch-free cyclic Lomuto partition of [first, last) by `pred`: moves the
/// elements satisfying pred to the front, in place, and returns their count.
/// The element at `first` is lifted out to open a gap that travels with the
/// scan; each step fills the gap from the boundary and the boundary from the
/// scanned element, whatever pred says.
template <typename T, typename Pred>
std::size_t cyclic_partition(T* first, T* last, Pred pred) {
  if (first == last) return 0;
  T displaced = std::move(*first);
  T* lt = first;   // [first, lt) satisfy pred
  T* gap = first;  // [lt, gap) do not; *gap is vacant
  for (T* right = first + 1; right < last; ++right) {
    const bool take = pred(*right);
    *gap = std::move(*lt);
    *lt = std::move(*right);
    gap = right;
    lt += take;
  }
  *gap = std::move(*lt);
  *lt = std::move(displaced);
  lt += pred(*lt);
  return static_cast<std::size_t>(lt - first);
}

/// Sort [first, last).  `depth` partitioning levels remain before heapsort
/// takes over; `leftmost` is false when *(first - 1) is an earlier pivot,
/// i.e. no greater than any element of the range.
template <typename T, typename Less>
void quicksort_loop(T* first, T* last, Less& less, int depth, bool leftmost) {
  for (;;) {
    const std::size_t n = static_cast<std::size_t>(last - first);
    if (n <= kInsertionThreshold) {
      insertion_sort(first, last, less);
      return;
    }
    if (depth == 0) {
      std::make_heap(first, last, less);
      std::sort_heap(first, last, less);
      return;
    }
    --depth;
    choose_pivot(first, last, less);
    const T pivot = *first;
    if (!leftmost && !less(*(first - 1), pivot)) {
      // pivot equals the earlier pivot before the range, hence the minimum:
      // everything not greater than it is equal to it and already in place.
      const std::size_t eq = cyclic_partition(
          first + 1, last, [&](const T& x) { return !less(pivot, x); });
      first += eq + 1;
      continue;
    }
    const std::size_t lt = cyclic_partition(
        first + 1, last, [&](const T& x) { return less(x, pivot); });
    // [first + 1, first + 1 + lt) < pivot <= the rest; drop the pivot
    // between the two sides.
    T* split = first + lt;
    std::iter_swap(first, split);
    if (split - first < last - (split + 1)) {
      quicksort_loop(first, split, less, depth, leftmost);
      first = split + 1;
      leftmost = false;
    } else {
      quicksort_loop(split + 1, last, less, depth, false);
      last = split;
    }
  }
}

}  // namespace detail

/// Sort `v` in place into nondecreasing order under the strict weak order
/// `less`.  O(n log n) comparisons in the worst case, O(log n) stack, no
/// allocation.  Not stable; under a total order the result equals
/// std::sort's element for element.
template <typename T, typename Less>
void branchless_sort(std::span<T> v, Less less) {
  if (v.size() < 2) return;
  const int depth = 2 * (static_cast<int>(std::bit_width(v.size())) - 1);
  detail::quicksort_loop(v.data(), v.data() + v.size(), less, depth,
                         /*leftmost=*/true);
}

}  // namespace emsplit
