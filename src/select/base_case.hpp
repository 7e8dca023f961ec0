// base_case.hpp — multi-selection for K <= m ranks in linear I/Os
// (paper §4.2, "Base Case").
//
// Given records [first, last) of an external vector and up to m = Θ(M)
// target ranks, report the element at each rank using O(n/B) I/Os:
//
//   1. linear_splitters() produces a memory-resident splitter set whose
//      buckets are small (our substitute for the Hu et al. [6] subroutine —
//      see DESIGN.md §4).
//   2. One counting scan obtains every bucket's size; prefix sums locate the
//      bucket j(i) containing each target rank r_i and its local rank
//      t_i = r_i - prefix[j(i)-1].
//   3. One more scan builds the intermixed instance: every element of a
//      bucket that contains at least one queried rank is emitted once per
//      querying rank, tagged with that query's group id.  The scan never
//      searches the full splitter array: a branch-free search over the
//      upper splitters of the (at most K) queried buckets finds a record's
//      candidate bucket, one comparison with that bucket's lower splitter
//      confirms it, and every other record is dropped.
//   4. intermixed_select() solves all K rank queries concurrently.
//
// |D| = sum of the queried buckets' sizes <= K * bucket_bound; with
// K <= Θ(M) and bucket_bound = O((n/M) log(n/M)) this is O(n log(n/M)) in
// the worst case and O(n) whenever K is at most M / log(n/M) — in
// particular, in every configuration the experiments run.  The extra log
// comes from our splitter substitute and is measured, not hidden
// (bench_intermixed sweeps it).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "em/context.hpp"
#include "em/pass_engine.hpp"
#include "em/em_vector.hpp"
#include "em/stream.hpp"
#include "select/classify.hpp"
#include "select/intermixed.hpp"
#include "select/linear_splitters.hpp"

namespace emsplit {
namespace detail {

/// Multi-selection over records [first, last) of `vec` at `ranks` (1-based
/// within the range, sorted ascending, size <= intermixed_max_groups).
/// Returns the selected elements in rank order.
template <EmRecord T, typename Less>
std::vector<T> multi_select_base(Context& ctx, const EmVector<T>& vec,
                                 std::size_t first, std::size_t last,
                                 const std::vector<std::uint64_t>& ranks,
                                 Less less) {
  const std::size_t n = last - first;
  const std::size_t k = ranks.size();
  if (k == 0) return {};
  assert(std::is_sorted(ranks.begin(), ranks.end()));
  if (ranks.front() < 1 || ranks.back() > n) {
    throw std::invalid_argument("multi_select_base: rank out of range");
  }
  if (k > intermixed_max_groups<T>(ctx)) {
    throw std::invalid_argument("multi_select_base: too many ranks for M");
  }

  // Steps 1-3 hold the splitters and counters in memory; all of it is
  // released before step 4 hands the full budget to intermixed_select.
  // Each step is one engine pass (step 1's passes trace under the
  // linear_splitters job; step 4's under intermixed's).
  PassRunner runner(ctx, {"msel-base", 0});
  EmVector<Grouped<T>> d;
  std::vector<std::uint64_t> local_ranks(k);
  {
    // Step 1: splitters (memory-resident; <= M/4 records).
    auto split = linear_splitters<T, Less>(ctx, vec, first, last, less);
    const auto& sp = split.splitters;
    const std::size_t num_buckets = sp.size() + 1;
    auto sp_res = ctx.budget().reserve(sp.size() * sizeof(T));

    // An element e belongs to bucket j = index of the first splitter >= e
    // (buckets are (s_{j-1}, s_j], left-closed at -inf, right-open at +inf).
    const std::span<const T> sp_span(sp);

    // Step 2: bucket sizes -> prefix sums (num_buckets <= M/4 + 1 counters).
    std::vector<std::uint64_t> prefix(num_buckets + 1, 0);
    auto cnt_res =
        ctx.budget().reserve((num_buckets + 1) * sizeof(std::uint64_t));
    runner.run("msel/count-buckets", [&] {
      StreamReader<T> reader(vec, first, last);
      while (!reader.done()) {
        const std::span<const T> blk = reader.peek_span();
        for (const T& e : blk) {
          ++prefix[branchless_lower_bound(sp_span, e, less) + 1];
        }
        reader.consume(blk.size());
      }
    });
    for (std::size_t j = 1; j <= num_buckets; ++j) prefix[j] += prefix[j - 1];

    // Locate each rank's bucket.  Ranks are sorted, buckets scan forward.
    std::vector<std::size_t> rank_bucket(k);
    std::size_t j = 0;
    std::uint64_t d_size = 0;
    for (std::size_t i = 0; i < k; ++i) {
      while (prefix[j + 1] < ranks[i]) ++j;
      rank_bucket[i] = j;
      d_size += prefix[j + 1] - prefix[j];
      local_ranks[i] = ranks[i] - prefix[j];
    }

    // Step 3: build the intermixed instance.  Per bucket, the querying
    // groups form a contiguous run of the sorted rank list, so the queried
    // buckets are the distinct values of rank_bucket (u <= k of them).  The
    // fences are their upper splitters, in increasing bucket order; the
    // +inf bucket, when queried, is last and has none.
    std::vector<T> fences;
    std::vector<std::size_t> slot_bucket;  // queried bucket of slot t
    std::vector<std::size_t> slot_first;   // first group of slot t, then k
    for (std::size_t i = 0; i < k; ++i) {
      if (i == 0 || rank_bucket[i] != rank_bucket[i - 1]) {
        slot_bucket.push_back(rank_bucket[i]);
        slot_first.push_back(i);
        if (rank_bucket[i] < sp.size()) fences.push_back(sp[rank_bucket[i]]);
      }
    }
    slot_first.push_back(k);
    const std::size_t u = slot_bucket.size();
    auto fence_res = ctx.budget().reserve(
        fences.size() * sizeof(T) + (2 * u + 1) * sizeof(std::size_t));
    runner.run("msel/build-instance", [&] {
      d = EmVector<Grouped<T>>(ctx, static_cast<std::size_t>(d_size));
      StreamReader<T> scan(vec, first, last);
      StreamWriter<Grouped<T>> writer(d);
      const std::span<const T> fence_span(fences);
      while (!scan.done()) {
        const std::span<const T> blk = scan.peek_span();
        for (const T& e : blk) {
          // Slot t is the first queried bucket whose upper splitter is >= e;
          // e lies in it unless it falls at or below its lower splitter.
          const std::size_t t = branchless_lower_bound(fence_span, e, less);
          if (t == u) continue;  // above every queried bucket
          const std::size_t jb = slot_bucket[t];
          if (jb > 0 && !less(sp[jb - 1], e)) continue;  // in an unqueried gap
          for (std::size_t g = slot_first[t]; g < slot_first[t + 1]; ++g) {
            writer.push(Grouped<T>{e, static_cast<std::uint64_t>(g)});
          }
        }
        scan.consume(blk.size());
      }
      writer.finish();
    });
  }

  // Step 4: solve all rank queries at once, with the budget back to empty.
  return intermixed_select<T, Less>(ctx, std::move(d), std::move(local_ranks),
                                    less);
}

}  // namespace detail

/// Single-rank selection (the k = 1 special case): the element of rank
/// `rank` (1-based) among records [first, last) in O(n/B) I/Os.
template <EmRecord T, typename Less = std::less<T>>
[[nodiscard]] T select_rank(Context& ctx, const EmVector<T>& vec,
                            std::size_t first, std::size_t last,
                            std::uint64_t rank, Less less = {}) {
  return detail::multi_select_base<T, Less>(ctx, vec, first, last, {rank},
                                            less)[0];
}

/// Whole-vector convenience overload.
template <EmRecord T, typename Less = std::less<T>>
[[nodiscard]] T select_rank(Context& ctx, const EmVector<T>& vec,
                            std::uint64_t rank, Less less = {}) {
  return select_rank<T, Less>(ctx, vec, 0, vec.size(), rank, less);
}

}  // namespace emsplit
