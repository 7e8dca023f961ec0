// linear_splitters.hpp — Θ(M) splitters with small buckets in O(N/B) I/Os.
//
// This is the repository's substitute for the subroutine the paper imports
// from Hu, Sheng, Tao, Yang, Zhou (SODA'13) [6]: given S of size N, produce a
// memory-resident set of splitters such that every induced bucket of S is
// small, using a linear number of I/Os.  The multi-selection base case
// (paper §4.2) only needs the *upper* bound on bucket sizes, which is what we
// guarantee (DESIGN.md §4 discusses the substitution).
//
// Construction — recursive chunked sampling:
//   level 0:   S_0 = S.
//   level l:   read S_{l-1} in chunks of C = M/2 records, sort each chunk in
//              memory (branchless_sort: in place, so the chunk is the only
//              record buffer), keep the elements at local ranks s, 2s, ...
//              (s = 4); they form S_l.
//   stop when |S_L| <= M/4; the final sample set, sorted, is the splitters.
//
// Guarantee.  Let r_l(x) = #{e in S_l : e < x}.  Within one sorted chunk the
// kept elements tile the chunk in runs of s, so
//     s * r_l(x)  <=  r_{l-1}(x)  <=  s * r_l(x) + (s-1) * m_l ,
// where m_l is the number of chunks at level l.  Unrolling over consecutive
// final samples u < v (which satisfy r_L(v) - r_L(u) <= 1) bounds the bucket
// between them by
//     s^L + (s-1) * sum_l s^{l-1} * m_l  =  O((N/M) * log(N/M)).
// The same unrolling pins every final sample's rank: with P = s^L and
// sigma = (s-1) * sum_l s^{l-1} * m_l, the j-th smallest final sample u_j
// (0-based) satisfies  P*j <= #{e in S : e < u_j} <= P*j + sigma.
// The level sizes, and so L, |S_L|, P and sigma, depend only on (n, M):
// detail::sample_plan() computes them without reading anything, which lets
// approx_splitters certify a pick of final samples before any I/O
// (core/splitters.hpp).  Tests assert the real ranks obey the bounds.
// Cost: sum_l |S_l| * (1/B read + 1/(sB) write) = O(N/B).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "em/context.hpp"
#include "em/pass_engine.hpp"
#include "em/em_vector.hpp"
#include "em/stream.hpp"
#include "sort/branchless_sort.hpp"

namespace emsplit {
namespace detail {

/// s in the header comment.
inline constexpr std::size_t kSampleStride = 4;

/// The sampler's chunk: M/2 records, sorted in memory one at a time.
[[nodiscard]] inline std::size_t sample_chunk_cap(std::size_t mem_records) {
  return std::max<std::size_t>(1, mem_records / 2);
}

/// The shape of a linear_splitters run over n records with M = mem_records:
/// the level recurrence on sizes alone, so it costs no I/O.
struct SamplePlan {
  std::size_t levels = 0;        ///< L, the number of sampling passes
  std::size_t size = 0;          ///< m = |S_L|, the number of splitters
  std::uint64_t stride_pow = 1;  ///< P = s^L
  std::uint64_t slack = 0;       ///< sigma = (s-1) * sum_l s^{l-1} * m_l
};

[[nodiscard]] inline SamplePlan sample_plan(std::size_t n,
                                            std::size_t mem_records) {
  const std::size_t chunk_cap = sample_chunk_cap(mem_records);
  const std::size_t target = std::max<std::size_t>(1, mem_records / 4);
  SamplePlan plan;
  plan.size = n;
  while (plan.size > target) {
    const std::size_t num_chunks = (plan.size + chunk_cap - 1) / chunk_cap;
    plan.slack += (kSampleStride - 1) * plan.stride_pow * num_chunks;
    plan.stride_pow *= kSampleStride;
    ++plan.levels;
    // Each chunk keeps its elements at local ranks s, 2s, ...
    plan.size = (plan.size / chunk_cap) * (chunk_cap / kSampleStride) +
                (plan.size % chunk_cap) / kSampleStride;
    if (plan.size == 0) break;  // degenerate: every chunk smaller than s
  }
  return plan;
}

}  // namespace detail

template <EmRecord T>
struct LinearSplittersResult {
  /// Sorted splitter elements (each is an element of the input).
  std::vector<T> splitters;
  /// Proven upper bound on the size of every induced bucket
  /// S ∩ (splitter_{j-1}, splitter_j]  (with ±infinity at the ends).
  std::size_t bucket_bound = 0;
};

/// Compute splitters for records [first, last) of `input`.
///
/// Postconditions: `splitters.size() <= max(1, M/4)` records; every bucket of
/// the range has at most `bucket_bound` elements, and `bucket_bound =
/// O((n/M) log(n/M) + 1)` where n = last - first.  Costs O(n/B) I/Os.
template <EmRecord T, typename Less = std::less<T>>
[[nodiscard]] LinearSplittersResult<T> linear_splitters(
    Context& ctx, const EmVector<T>& input, std::size_t first,
    std::size_t last, Less less = {}) {
  // Every sampling level is one linear pass over the previous level; the
  // engine wraps each (plus the final load) in the trace/profile envelope.
  PassRunner runner(ctx, {"splitters", 0});
  constexpr std::size_t kStride = detail::kSampleStride;
  const std::size_t n = last - first;
  const std::size_t chunk_cap = detail::sample_chunk_cap(ctx.mem_records<T>());
  const detail::SamplePlan plan = detail::sample_plan(n, ctx.mem_records<T>());

  LinearSplittersResult<T> result;
  if (n == 0) return result;

  // Levels of sampled sets live in scratch vectors; level 0 is the input
  // range itself (never copied).
  EmVector<T> level_vec;           // S_l for l >= 1
  std::size_t level_size = n;      // |S_{l-1}| while producing S_l
  bool level_is_input = true;

  for (std::size_t level = 0; level < plan.levels; ++level) {
    const std::size_t num_chunks = (level_size + chunk_cap - 1) / chunk_cap;
    EmVector<T> next = runner.run("splitters/recursive-sample", [&] {
      EmVector<T> sampled(ctx, level_size / kStride + num_chunks);
      auto chunk_res = ctx.budget().reserve(chunk_cap * sizeof(T));
      std::vector<T> buf(chunk_cap);
      StreamWriter<T> writer(sampled);
      for (std::size_t off = 0; off < level_size; off += chunk_cap) {
        const std::size_t len = std::min(chunk_cap, level_size - off);
        const auto span = std::span<T>(buf).subspan(0, len);
        if (level_is_input) {
          load_range<T>(input, first + off, span);
        } else {
          load_range<T>(level_vec, off, span);
        }
        branchless_sort(span, less);
        for (std::size_t r = kStride - 1; r < len; r += kStride) {
          writer.push(span[r]);
        }
      }
      writer.finish();
      return sampled;
    });
    level_size = next.size();
    level_vec = std::move(next);
    level_is_input = false;
  }
  assert(level_size == plan.size);

  // Load the final level and sort it; these are the splitters.
  result.splitters.resize(level_size);
  if (level_size > 0) {
    runner.run("splitters/final-sample", [&] {
      auto res = ctx.budget().reserve(level_size * sizeof(T));
      if (level_is_input) {
        load_range<T>(input, first, std::span<T>(result.splitters));
      } else {
        load_range<T>(level_vec, 0, std::span<T>(result.splitters));
      }
      branchless_sort(std::span<T>(result.splitters), less);
    });
  }

  // Consecutive final samples differ by one in r_L; the unrolled recurrence
  // gives the bucket bound below.  The extreme buckets (before the first and
  // after the last splitter) obey the same bound: take r_L = 0 there.
  result.bucket_bound = plan.stride_pow + plan.slack;
  return result;
}

/// Whole-vector convenience overload.
template <EmRecord T, typename Less = std::less<T>>
[[nodiscard]] LinearSplittersResult<T> linear_splitters(Context& ctx,
                                                        const EmVector<T>& input,
                                                        Less less = {}) {
  return linear_splitters<T, Less>(ctx, input, 0, input.size(), less);
}

}  // namespace emsplit
