// sampled_splitters.hpp — randomized one-pass alternative to
// linear_splitters (the ablation of DESIGN.md §3 / experiment E13).
//
// Draw a uniform reservoir sample of Θ(M) records in a single read-only
// scan and use its order statistics as splitters.  Compared to the
// deterministic recursive sampler:
//
//   cost:    1.0 scans, no writes      (vs ~1.67 scans incl. level writes)
//   quality: bucket sizes O((N/M) log M) with high probability
//            (vs the deterministic proof of O((N/M) log(N/M)))
//
// The classical gap bound: with s uniform samples, the probability that
// some bucket exceeds (c N / s) ln s decays polynomially in s; E13 measures
// the actual max bucket across workloads and seeds.  Randomness comes from
// a caller-provided seed, so runs stay reproducible.
//
// Both splitter engines satisfy the same contract; multi-selection's base
// case can be built on either (the deterministic one is the default, being
// what the paper's model assumes — worst case, no randomness).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <vector>

#include "em/context.hpp"
#include "em/em_vector.hpp"
#include "em/stream.hpp"
#include "select/linear_splitters.hpp"
#include "sort/branchless_sort.hpp"
#include "util/rng.hpp"

namespace emsplit {

/// Reservoir-sample splitters over records [first, last) of `input`.
/// Returns at most max(1, M/4) sorted splitter elements after one scan.
/// The bucket_bound field is a *high-probability* estimate (4 (n/s) ln s),
/// not a proof — E13 measures how it holds up in practice.
template <EmRecord T, typename Less = std::less<T>>
[[nodiscard]] LinearSplittersResult<T> sampled_splitters(
    Context& ctx, const EmVector<T>& input, std::size_t first,
    std::size_t last, std::uint64_t seed, Less less = {}) {
  const std::size_t n = last - first;
  const std::size_t target =
      std::max<std::size_t>(1, ctx.mem_records<T>() / 4);

  LinearSplittersResult<T> result;
  if (n == 0) return result;

  {
    auto res = ctx.budget().reserve(target * sizeof(T));
    std::vector<T> reservoir;
    reservoir.reserve(std::min(n, target));
    SplitMix64 rng(seed ^ 0xa5a5a5a5a5a5a5a5ULL);
    StreamReader<T> reader(input, first, last);
    std::size_t seen = 0;
    while (!reader.done()) {
      const T e = reader.next();
      ++seen;
      if (reservoir.size() < target) {
        reservoir.push_back(e);
      } else {
        // Vitter's Algorithm R: keep each prefix equally likely.
        const std::uint64_t j = rng.next_below(seen);
        if (j < target) reservoir[static_cast<std::size_t>(j)] = e;
      }
    }
    branchless_sort(std::span<T>(reservoir), less);
    result.splitters = std::move(reservoir);
  }

  const double s = static_cast<double>(result.splitters.size());
  const double dn = static_cast<double>(n);
  result.bucket_bound = n <= result.splitters.size()
                            ? 1
                            : static_cast<std::size_t>(
                                  4.0 * (dn / s) * std::log(s + 2.0)) +
                                  1;
  return result;
}

/// Whole-vector convenience overload.
template <EmRecord T, typename Less = std::less<T>>
[[nodiscard]] LinearSplittersResult<T> sampled_splitters(
    Context& ctx, const EmVector<T>& input, std::uint64_t seed,
    Less less = {}) {
  return sampled_splitters<T, Less>(ctx, input, 0, input.size(), seed, less);
}

}  // namespace emsplit
