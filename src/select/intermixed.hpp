// intermixed.hpp — L-intermixed selection (paper §4.1, Lemma 6).
//
// Input: a dataset D of (value, group) pairs with groups 1..L intermixed in
// arbitrary order, and a target rank t_i for every group.  Output: for each
// group i, the element with the t_i-th smallest value among the group's
// elements.  Cost: O(|D|/B) I/Os, for any L up to Θ(M) concurrent groups.
//
// The algorithm runs L median-of-medians (BFPRT) selection threads
// concurrently over shared scans, using O(1) memory words per thread:
//
//   1. One scan splits every group into quintets and collects each quintet's
//      median into Σ (per-group in-memory state: a 5-slot buffer).
//   2. Recursively find the median μ_i of every Σ_i (a smaller instance of
//      the same problem: |Σ| <= |D|/5 + L).
//   3. One scan computes θ_i = rank of μ_i in D_i.
//   4. One scan builds D': group i keeps its (-inf, μ_i] side if t_i <= θ_i,
//      else its (μ_i, +inf) side with t'_i = t_i - θ_i.  BFPRT guarantees
//      |D'_i| <= 7/10 |D_i| + 3, so |Σ| + |D'| <= 9/10 |D| + 4L, geometric
//      once L <= |D|/80 — hence the group cap exported below.
//
// Memory honesty: while the recursion for μ runs, the parent keeps nothing
// in memory — the target ranks are spilled to a scratch vector on the device
// and reloaded afterwards (O(L/B) I/Os per level, dominated by the scan
// costs).  The Σ-recursion is a true recursive call; the D' step is a tail
// call and is executed as a loop.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>
#include <vector>

#include "em/context.hpp"
#include "em/pass_engine.hpp"
#include "em/em_vector.hpp"
#include "em/stream.hpp"
#include "em/thread_pool.hpp"
#include "select/grouped.hpp"

namespace emsplit {

/// Largest number of concurrent groups ("m = cM" in the paper) this context
/// supports: the in-memory per-group state (5-slot quintet buffer, counters,
/// medians, ranks) must fit in a third of memory, and L must be small enough
/// that the per-round shrink |D'| <= 7/10 |D| + 3L stays geometric above the
/// in-memory cutoff of M/2 records: 3L <= 0.19 |D| there for L <= M_G/32.
template <EmRecord T>
[[nodiscard]] std::size_t intermixed_max_groups(const Context& ctx) {
  // Per-group bytes across the widest pass: 5 value slots + value-sized
  // median + three 8-byte counters/ranks.
  const std::size_t per_group = 6 * sizeof(T) + 3 * sizeof(std::uint64_t);
  const std::size_t by_memory = (ctx.mem_bytes() / 3) / per_group;
  const std::size_t by_convergence = ctx.mem_bytes() / sizeof(Grouped<T>) / 32;
  return std::max<std::size_t>(1, std::min(by_memory, by_convergence));
}

namespace detail {

/// In-memory solve once |D| fits in a third of memory: bucket by group,
/// nth_element per group.
template <EmRecord T, typename Less>
std::vector<T> intermixed_in_memory(Context& ctx, const EmVector<Grouped<T>>& d,
                                    const std::vector<std::uint64_t>& ranks,
                                    Less less) {
  const std::size_t l = ranks.size();
  auto res = ctx.budget().reserve(d.size() * sizeof(Grouped<T>));
  std::vector<Grouped<T>> all(d.size());
  load_range<Grouped<T>>(d, 0, all);
  std::sort(all.begin(), all.end(),
            [](const Grouped<T>& x, const Grouped<T>& y) {
              return x.group < y.group;
            });
  std::vector<T> answers(l);
  std::size_t lo = 0;
  while (lo < all.size()) {
    std::size_t hi = lo;
    while (hi < all.size() && all[hi].group == all[lo].group) ++hi;
    const std::uint64_t g = all[lo].group;
    if (g >= l) throw std::invalid_argument("intermixed: group id out of range");
    const std::uint64_t t = ranks[g];
    if (t < 1 || t > hi - lo) {
      throw std::invalid_argument("intermixed: rank outside group size");
    }
    const auto first = all.begin() + static_cast<std::ptrdiff_t>(lo);
    const auto last = all.begin() + static_cast<std::ptrdiff_t>(hi);
    const auto nth = first + static_cast<std::ptrdiff_t>(t - 1);
    std::nth_element(first, nth, last,
                     [&](const Grouped<T>& x, const Grouped<T>& y) {
                       return less(x.value, y.value);
                     });
    answers[g] = nth->value;
    lo = hi;
  }
  return answers;
}

/// Median of the first `n` (1..5) entries of a quintet buffer: the element
/// of rank ceil(n/2).
template <typename T, typename Less>
T small_median(std::array<T, 5>& buf, std::size_t n, Less less) {
  assert(n >= 1 && n <= 5);
  std::sort(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n), less);
  return buf[(n - 1) / 2];
}

}  // namespace detail

/// Solve the L-intermixed selection problem.  `data` is consumed (its device
/// space is recycled by the recursion).  `ranks[i]` is the 1-based target
/// rank within group i; every group in [0, ranks.size()) must be non-empty
/// and contain at least ranks[i] elements.  Returns the selected value per
/// group.  Cost: O(|D|/B) I/Os; throws BudgetExceeded-free for any
/// L <= intermixed_max_groups<T>(ctx).
template <EmRecord T, typename Less = std::less<T>>
[[nodiscard]] std::vector<T> intermixed_select(Context& ctx,
                                               EmVector<Grouped<T>>&& data,
                                               std::vector<std::uint64_t> ranks,
                                               Less less = {}) {
  using G = Grouped<T>;
  // Every BFPRT round is three linear scans (quintet medians, rank count,
  // shrink) plus the rank spill/reload around the Σ-recursion; each is one
  // engine pass.  The recursive call builds its own PassRunner, so nested
  // rounds trace under their own job frame.
  PassRunner runner(ctx, {"intermixed", 0});
  const std::size_t l = ranks.size();
  if (l == 0) return {};
  if (l > intermixed_max_groups<T>(ctx)) {
    throw std::invalid_argument(
        "intermixed_select: more groups than this context supports");
  }
  EmVector<G> d = std::move(data);

  for (;;) {
    if (d.size() <= ctx.mem_records<G>() / 2) {
      return runner.run("intermixed/in-memory", [&] {
        return detail::intermixed_in_memory<T>(ctx, d, ranks, less);
      });
    }

    // --- Pass 1: quintet medians into Σ, counting |Σ_i| per group. -------
    EmVector<G> sigma(ctx, d.size() / 5 + l);
    std::vector<std::uint64_t> sigma_count(l, 0);
    runner.run("intermixed/quintet-medians", [&] {
      auto res_buf = ctx.budget().reserve(l * (5 * sizeof(T) + 1 + 8));
      std::vector<std::array<T, 5>> quintet(l);
      std::vector<std::uint8_t> fill(l, 0);
      StreamReader<G> reader(d);
      StreamWriter<G> writer(sigma);
      while (!reader.done()) {
        const std::span<const G> sp = reader.peek_span();
        for (const G& e : sp) {
          if (e.group >= l) {
            throw std::invalid_argument("intermixed: group id out of range");
          }
          auto& q = quintet[e.group];
          q[fill[e.group]++] = e.value;
          if (fill[e.group] == 5) {
            writer.push(G{detail::small_median(q, 5, less), e.group});
            ++sigma_count[e.group];
            fill[e.group] = 0;
          }
        }
        reader.consume(sp.size());
      }
      for (std::size_t g = 0; g < l; ++g) {
        if (fill[g] > 0) {
          writer.push(G{detail::small_median(quintet[g], fill[g], less),
                        static_cast<std::uint64_t>(g)});
          ++sigma_count[g];
        }
      }
      writer.finish();
    });

    // --- Recurse for the medians μ of Σ_1..Σ_L. --------------------------
    // Spill the parent's ranks to the device so the recursion starts with an
    // empty in-memory footprint (see header comment).
    EmVector<std::uint64_t> rank_spill = runner.run("intermixed/rank-spill", [&] {
      return materialize<std::uint64_t>(
          ctx, std::span<const std::uint64_t>(ranks));
    });
    std::vector<std::uint64_t> median_ranks(l);
    for (std::size_t g = 0; g < l; ++g) {
      median_ranks[g] = (sigma_count[g] + 1) / 2;
    }
    sigma_count.clear();
    sigma_count.shrink_to_fit();
    std::vector<T> mu =
        intermixed_select<T, Less>(ctx, std::move(sigma),
                                   std::move(median_ranks), less);
    runner.run("intermixed/rank-reload", [&] {
      load_range<std::uint64_t>(rank_spill, 0,
                                std::span<std::uint64_t>(ranks));
    });
    rank_spill.reset();

    // --- Pass 2: θ_i = #{e in D_i : e <= μ_i}. ----------------------------
    std::vector<std::uint64_t> theta(l, 0);
    {
      auto res_arrays =
          ctx.budget().reserve(l * (sizeof(T) + 2 * sizeof(std::uint64_t)));
      runner.run("intermixed/rank-count", [&] {
        StreamReader<G> reader(d);
        while (!reader.done()) {
          const std::span<const G> sp = reader.peek_span();
          for (const G& e : sp) {
            if (!less(mu[e.group], e.value)) ++theta[e.group];
          }
          reader.consume(sp.size());
        }
      });

      // --- Pass 3: build the shrunken instance (D', t'). -----------------
      EmVector<G> next(ctx, d.size());
      runner.run("intermixed/shrink", [&] {
        StreamReader<G> reader(d);
        StreamWriter<G> writer(next);
        while (!reader.done()) {
          const G e = reader.next();
          const std::uint64_t g = e.group;
          const bool go_low = ranks[g] <= theta[g];
          const bool is_low = !less(mu[g], e.value);  // e.value <= mu[g]
          if (go_low == is_low) writer.push(e);
        }
        writer.finish();
      });
      for (std::size_t g = 0; g < l; ++g) {
        if (ranks[g] > theta[g]) ranks[g] -= theta[g];
      }
      d = std::move(next);  // frees the old level's device space
    }
  }
}

}  // namespace emsplit
