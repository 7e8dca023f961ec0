// multi_partition.hpp — split S at given ranks in O((N/B) log_{M/B} K) I/Os.
//
// The multi-partition problem (paper §1.1): given K-1 split ranks
// 0 < r_1 < ... < r_{K-1} < N, permute S so that partition i (the elements
// with ranks in (r_{i-1}, r_i]) is contiguous and partitions appear in order.
// Aggarwal & Vitter's recursive distribution achieves the optimal
// Θ((N/B) log_{M/B} K) I/Os:
//
//   * each node computes memory-resident splitters of its piece with exact
//     bucket counts (linear_splitters + one counting scan — O(piece/B)),
//   * snaps d-1 evenly spaced target ranks (d = Theta(M/B)) to the nearest
//     splitter-bucket boundaries and distributes its records over those cut
//     elements in one scan with d output buffers; the cut counts are exact,
//     so rank bookkeeping stays exact even though cuts need not hit the
//     requested ranks — extra boundaries only refine the partitioning,
//   * recurses into each sub-piece with the enclosed target ranks; pieces
//     that fit in memory are sorted there, which realizes all remaining
//     ranks at once.
//
// Depth is O(log_d K) and every level moves each record O(1) times.  Buckets
// that contain no further target ranks are finished partition runs and are
// written straight into their final output position during the distribution
// pass (RangeWriter handles the shared edge blocks), so no concatenation
// pass is needed.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "dist/distributed.hpp"
#include "em/checkpoint.hpp"
#include "em/context.hpp"
#include "em/pass_engine.hpp"
#include "em/em_vector.hpp"
#include "em/stream.hpp"
#include "sort/branchless_sort.hpp"
#include "select/classify.hpp"
#include "select/linear_splitters.hpp"

namespace emsplit {

/// One maximal run of output as realized by the partition recursion.  Cut
/// boundaries are exact counts, so every realized run already occupies its
/// final record range; a `sorted` run (an in-memory leaf) is moreover in
/// final sorted order, while an unsorted one (a finished partition streamed
/// straight through) still needs an internal sort if the caller wants total
/// order.  distribution_sort exploits this to skip re-sorting leaf output.
struct MultiPartitionSpan {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bool sorted = false;
};

template <EmRecord T>
struct MultiPartitionResult {
  /// The input permuted so partitions are contiguous and ordered.
  EmVector<T> data;
  /// Partition i occupies records [bounds[i], bounds[i+1]) of `data`.
  std::vector<std::uint64_t> bounds;
  /// Disjoint realized runs tiling [0, n), in increasing position order.
  std::vector<MultiPartitionSpan> spans;
};

namespace detail {

/// Distribution fan-out this context supports: d output stream buffers plus
/// a reader, the transient edge-merge block a RangeWriter flush may need,
/// and the cut-element table must fit in memory.  Every stream buffers
/// s = stream_blocks() blocks under the current I/O tuning (s = 1 by
/// default, reproducing the classic geometry).
template <EmRecord T>
std::size_t partition_fanout(const Context& ctx) {
  const std::size_t bb = ctx.block_bytes();
  const std::size_t blocks = ctx.mem_bytes() / bb;
  const std::size_t s = ctx.stream_blocks();
  if (blocks <= 2 * s + 2) return 2;
  // d stream buffers (s blocks each) + d cut elements + reader (s blocks) +
  // transient merge block + one block of slack must fit:
  //   d * (s * bb + sizeof(T)) <= (blocks - s - 2) * bb.
  const std::size_t d = (blocks - s - 2) * bb / (s * bb + sizeof(T));
  return std::max<std::size_t>(2, d);
}

/// Where one distribution bucket's records go: either a scratch vector (the
/// bucket will be recursed into) or directly into the final output range
/// (the bucket is already a finished partition run).
template <EmRecord T>
struct BucketSink {
  EmVector<T> scratch;  // bound when the bucket needs further recursion
  std::unique_ptr<StreamWriter<T>> scratch_writer;
  std::unique_ptr<RangeWriter<T>> direct_writer;
  std::uint64_t expected = 0;
  std::uint64_t received = 0;

  void push(const T& v) {
    if (++received > expected) {
      // Overflowing a direct range would silently corrupt the neighbour
      // partition; fail fast instead.
      throw std::logic_error(
          "multi_partition: bucket received more records than its rank span "
          "(is the comparator a strict total order?)");
    }
    if (scratch_writer != nullptr) {
      scratch_writer->push(v);
    } else {
      direct_writer->push(v);
    }
  }
  void finish() {
    if (scratch_writer != nullptr) {
      scratch_writer->finish();
    } else {
      direct_writer->finish();
    }
  }
};

// PendingBucket<T> — the scratch-bucket record a distribution pass hands to
// the recursion — lives in em/pass_engine.hpp: it is the worklist item type
// the DistributionCheckpoint lifecycle publishes.

template <EmRecord T, typename Less>
std::vector<PendingBucket<T>> distribute_piece(
    Context& ctx, const EmVector<T>& src, std::size_t first, std::size_t last,
    std::span<const std::uint64_t> ranks, EmVector<T>& out,
    std::size_t out_offset, Less less, std::vector<MultiPartitionSpan>& spans);

/// Recursive node: partition a piece at the relative ranks `ranks` (strictly
/// increasing, in (0, piece length)), writing the fully partitioned records
/// into `out` at [out_offset, out_offset + piece length).
///
/// The piece is either `owned` (an intermediate vector this node recycles
/// once distributed) or, at the root only, records [first, last) of `*root`
/// (never recycled).  Distribution writes finished partition runs (buckets
/// with no interior ranks) straight into `out` via RangeWriter, so no
/// separate concatenation pass is needed.
template <EmRecord T, typename Less>
void partition_node(Context& ctx, const EmVector<T>* root, std::size_t first,
                    std::size_t last, EmVector<T> owned,
                    std::span<const std::uint64_t> ranks, EmVector<T>& out,
                    std::size_t out_offset, Less less,
                    std::vector<MultiPartitionSpan>& spans) {
  const EmVector<T>& src = owned.bound() ? owned : *root;
  if (owned.bound()) {
    first = 0;
    last = owned.size();
  }
  const std::size_t n = last - first;

  if (ranks.empty()) {
    ScopedPhase phase(ctx.profile(), "mpart/leaf-copy");
    // Finished run: stream it into its final position.
    StreamReader<T> reader(src, first, last);
    RangeWriter<T> writer(out, out_offset);
    while (!reader.done()) writer.push(reader.next());
    writer.finish();
    if (n > 0) spans.push_back({out_offset, out_offset + n, false});
    owned.reset();
    return;
  }

  if (n <= ctx.mem_records<T>() / 3) {
    ScopedPhase phase(ctx.profile(), "mpart/in-memory-leaf");
    // Memory-sized piece: sort it in memory; the sorted run realizes every
    // remaining rank at once.  This caps the recursion depth at
    // O(log_{M/B} min{K, N/M'}) — the min{...} terms in the paper's
    // Theorems 3 and 6.
    auto res = ctx.budget().reserve(n * sizeof(T));
    std::vector<T> buf(n);
    load_range<T>(src, first, buf);
    branchless_sort(std::span<T>(buf), less);
    RangeWriter<T> writer(out, out_offset);
    for (const T& v : buf) writer.push(v);
    writer.finish();
    spans.push_back({out_offset, out_offset + n, true});
    owned.reset();
    return;
  }

  auto pending = distribute_piece<T, Less>(ctx, src, first, last, ranks, out,
                                           out_offset, less, spans);
  owned.reset();  // parent data fully distributed; recycle its blocks

  for (auto& pb : pending) {
    partition_node<T, Less>(ctx, nullptr, 0, 0, std::move(pb.scratch),
                            pb.ranks, out,
                            static_cast<std::size_t>(pb.out_lo), less, spans);
  }
}

/// The distribution pass of one node, factored out of partition_node so the
/// checkpointed top level (multi_partition below) can journal its outcome
/// at the pass boundary: cut selection, one scan distributing the piece over
/// the cuts — finished buckets straight into `out`, the rest into scratch
/// vectors — returning the scratch buckets that still need recursion.
template <EmRecord T, typename Less>
std::vector<PendingBucket<T>> distribute_piece(
    Context& ctx, const EmVector<T>& src, std::size_t first, std::size_t last,
    std::span<const std::uint64_t> ranks, EmVector<T>& out,
    std::size_t out_offset, Less less,
    std::vector<MultiPartitionSpan>& spans) {
  const std::size_t n = last - first;
  const std::size_t nr = ranks.size();
  // Each target rank contributes up to two cuts (the bucket boundaries
  // enclosing it), so the number of targets per level is half the fan-out.
  const std::size_t fan = partition_fanout<T>(ctx);
  const std::size_t d =
      std::min(nr + 1, std::max<std::size_t>(2, (fan - 1) / 2 + 1));

  // --- Cut selection, Aggarwal-Vitter style. ------------------------------
  // Compute memory-resident splitters, learn every bucket's exact cumulative
  // count in one scan, then snap the d-1 evenly spaced target ranks to the
  // nearest bucket boundaries.  A cut (cum[j], s_j) says: exactly cum[j]
  // records are <= s_j.  Cuts need no selection subroutine, their counts are
  // exact, and boundaries that are not requested ranks merely refine the
  // partitioning (the output is still ordered and contiguous per request).
  // Exactness of the *requested* ranks is realized deeper in the recursion,
  // ultimately by the in-memory sorted leaves.
  std::vector<std::uint64_t> cut_ranks;
  std::vector<T> cut_elems;
  {
    ScopedPhase phase(ctx.profile(), "mpart/cut-selection");
    auto ls = linear_splitters<T, Less>(ctx, src, first, last, less);
    const auto& sp = ls.splitters;
    auto sp_res = ctx.budget().reserve(sp.size() * sizeof(T));
    std::vector<std::uint64_t> cum(sp.size(), 0);  // cum[j] = #{e <= s_j}
    auto cum_res = ctx.budget().reserve(cum.size() * sizeof(std::uint64_t));
    {
      const std::span<const T> sp_span(sp);
      StreamReader<T> reader(src, first, last);
      while (!reader.done()) {
        const std::span<const T> blk = reader.peek_span();
        for (const T& e : blk) {
          const std::size_t j = branchless_lower_bound(sp_span, e, less);
          if (j < cum.size()) ++cum[j];
        }
        reader.consume(blk.size());
      }
    }
    for (std::size_t j = 1; j < cum.size(); ++j) cum[j] += cum[j - 1];

    // Bracket each target with the bucket boundaries enclosing it: the
    // residual piece still containing the target is then one splitter
    // bucket — small enough that the next recursion level resolves it with
    // an in-memory sort (or a much smaller node).  A target that hits a
    // boundary exactly needs only that single cut.
    std::vector<std::size_t> picked;
    auto consider = [&](std::size_t j) {
      if (j < cum.size() && cum[j] > 0 && cum[j] < n) picked.push_back(j);
    };
    for (std::size_t q = 1; q < d; ++q) {
      const std::uint64_t target = ranks[q * nr / d];
      const auto it = std::lower_bound(cum.begin(), cum.end(), target);
      const auto j = static_cast<std::size_t>(it - cum.begin());
      consider(j);  // upper boundary (== target when it hits exactly)
      if (it == cum.end() || *it != target) {
        if (j > 0) consider(j - 1);  // lower boundary
      }
    }
    if (picked.empty()) {
      // All targets snapped to the extremes: fall back to any boundary
      // strictly inside (0, n); one exists because every bucket is smaller
      // than the piece (the piece exceeds M/3 here).
      for (std::size_t j = 0; j < cum.size(); ++j) {
        if (cum[j] > 0 && cum[j] < n) {
          picked.push_back(j);
          break;
        }
      }
      if (picked.empty()) {
        throw std::logic_error("multi_partition: no interior cut available");
      }
    }
    std::sort(picked.begin(), picked.end());
    picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
    // The distribution pass affords `fan` sink streams, so at most fan-1
    // cuts; bracketing can exceed that at tiny fan (each target contributes
    // two boundaries).  Keep an evenly spaced subset — extra cuts only ever
    // refine, so dropping some costs depth, never correctness.
    if (const std::size_t max_cuts = fan - 1; picked.size() > max_cuts) {
      std::vector<std::size_t> trimmed;
      trimmed.reserve(max_cuts);
      for (std::size_t i = 0; i < max_cuts; ++i) {
        trimmed.push_back(picked[(i + 1) * picked.size() / (max_cuts + 1)]);
      }
      picked = std::move(trimmed);
    }
    for (const std::size_t j : picked) {
      cut_ranks.push_back(cum[j]);
      cut_elems.push_back(sp[j]);
    }
  }

  // --- Bucket geometry over the chosen cuts. ------------------------------
  const std::size_t nb = cut_ranks.size() + 1;
  std::vector<std::uint64_t> lo(nb), hi(nb);
  std::vector<std::size_t> ri_lo(nb), ri_hi(nb);
  {
    std::size_t i = 0;
    for (std::size_t q = 0; q < nb; ++q) {
      lo[q] = q == 0 ? 0 : cut_ranks[q - 1];
      hi[q] = q == nb - 1 ? n : cut_ranks[q];
      while (i < nr && ranks[i] <= lo[q]) ++i;  // == lo: satisfied by a cut
      ri_lo[q] = i;
      while (i < nr && ranks[i] < hi[q]) ++i;
      ri_hi[q] = i;
    }
  }

  // --- Distribution pass. --------------------------------------------------
  // Leaf buckets (no interior ranks) go straight to the output; the rest
  // land in scratch vectors for recursion.
  std::vector<BucketSink<T>> sinks(nb);
  {
    ScopedPhase phase(ctx.profile(), "mpart/distribute");
    auto piv_res = ctx.budget().reserve(cut_elems.size() * sizeof(T));
    for (std::size_t q = 0; q < nb; ++q) {
      sinks[q].expected = hi[q] - lo[q];
      if (ri_lo[q] == ri_hi[q]) {
        sinks[q].direct_writer = std::make_unique<RangeWriter<T>>(
            out, out_offset + static_cast<std::size_t>(lo[q]));
        // A direct bucket is a realized run too — it just never reaches a
        // leaf of the recursion, so record its span here.
        if (hi[q] > lo[q]) {
          spans.push_back({out_offset + lo[q], out_offset + hi[q], false});
        }
      } else {
        sinks[q].scratch =
            EmVector<T>(ctx, static_cast<std::size_t>(hi[q] - lo[q]));
        sinks[q].scratch_writer =
            std::make_unique<StreamWriter<T>>(sinks[q].scratch);
      }
    }
    const std::span<const T> cuts(cut_elems);
    auto classify = [&](const T& e) {
      return branchless_lower_bound(cuts, e, less);
    };
    StreamReader<T> reader(src, first, last);
    while (!reader.done()) {
      const std::span<const T> sp = reader.peek_span();
      for (const T& e : sp) sinks[classify(e)].push(e);
      reader.consume(sp.size());
    }
    for (auto& sink : sinks) {
      sink.finish();
      // Release every writer's block buffer before recursing: only the
      // scratch vectors themselves (device extents, no memory) survive.
      sink.scratch_writer.reset();
      sink.direct_writer.reset();
    }
  }

  std::vector<PendingBucket<T>> pending;
  for (std::size_t q = 0; q < nb; ++q) {
    if (!sinks[q].scratch.bound()) continue;
    if (sinks[q].scratch.size() != hi[q] - lo[q]) {
      throw std::logic_error(
          "multi_partition: cut counts inconsistent with data (is the "
          "comparator a strict total order?)");
    }
    PendingBucket<T> pb;
    pb.scratch = std::move(sinks[q].scratch);
    pb.ranks.assign(ranks.begin() + static_cast<std::ptrdiff_t>(ri_lo[q]),
                    ranks.begin() + static_cast<std::ptrdiff_t>(ri_hi[q]));
    for (auto& r : pb.ranks) r -= lo[q];
    pb.out_lo = out_offset + lo[q];
    pending.push_back(std::move(pb));
  }
  return pending;
}

/// Job fingerprint for the partition checkpoint (see sort_fingerprint):
/// digests the piece, the geometry and every requested rank.
template <EmRecord T>
std::uint64_t part_fingerprint(const Context& ctx, std::size_t first,
                               std::size_t n,
                               std::span<const std::uint64_t> ranks) {
  std::uint64_t h = fingerprint_mix(kFingerprintSeed, 0x4D504152);  // "MPAR"
  h = fingerprint_mix(h, first);
  h = fingerprint_mix(h, n);
  h = fingerprint_mix(h, sizeof(T));
  h = fingerprint_mix(h, ctx.block_records<T>());
  h = fingerprint_mix(h, ctx.stream_blocks());
  h = fingerprint_mix(h, ctx.mem_records<T>());
  h = fingerprint_mix(h, ranks.size());
  for (const auto r : ranks) h = fingerprint_mix(h, r);
  return h;
}

}  // namespace detail

/// Multi-partition records [first, last) of `input` at `split_ranks`
/// (1-based relative ranks, strictly increasing, each in (0, last-first)).
/// Returns the permuted data and K+1 partition bounds.  The input is left
/// untouched.  Cost: O((n/B) log_{M/B} K) I/Os.
///
/// Memory floor: a distribution level needs two sink buffers, a reader, the
/// transient edge-merge block and the cut table — at least 5 blocks of
/// memory in practice (the model's bare M >= 2B admits scanning but not
/// partitioning).  Smaller budgets fail fast with BudgetExceeded.
///
/// With a CheckpointJournal attached to the context, the root distribution
/// pass and each root bucket's completed subtree are published to the
/// journal, and a rerun of the identical job resumes from the journaled
/// state with bit-identical output, repaying only the interrupted work.
/// Without a journal this is exactly the seed code path.
template <EmRecord T, typename Less = std::less<T>>
[[nodiscard]] MultiPartitionResult<T> multi_partition(
    Context& ctx, const EmVector<T>& input, std::size_t first,
    std::size_t last, const std::vector<std::uint64_t>& split_ranks,
    Less less = {}) {
  const std::size_t n = last - first;
  if (!std::is_sorted(split_ranks.begin(), split_ranks.end()) ||
      std::adjacent_find(split_ranks.begin(), split_ranks.end()) !=
          split_ranks.end()) {
    throw std::invalid_argument(
        "multi_partition: split ranks must be strictly increasing");
  }
  if (!split_ranks.empty() &&
      (split_ranks.front() == 0 || split_ranks.back() >= n)) {
    throw std::invalid_argument(
        "multi_partition: split ranks must lie strictly inside (0, n)");
  }

  // With workers configured and the whole vector as the piece, the job runs
  // as the distributed protocol (dist/distributed.hpp): same realized ranks
  // and output bytes for every W, journaled under a W-free fingerprint.
  // Nested pieces, empty rank lists and unsupported geometry fall through
  // to the classic recursion.
  if (first == 0 && last == input.size() && !split_ranks.empty() &&
      dist::dist_supported<T>(ctx, n, split_ranks.size())) {
    dist::DistResult<T> d =
        dist::dist_multi_partition<T, Less>(ctx, input, split_ranks, less);
    MultiPartitionResult<T> result;
    result.data = std::move(d.data);
    result.bounds = std::move(d.bounds);
    result.spans.reserve(d.spans.size());
    for (const dist::DistSpan& s : d.spans) {
      result.spans.push_back({s.lo, s.hi, s.sorted});
    }
    return result;
  }

  MultiPartitionResult<T> result;
  CheckpointJournal* ckpt = ctx.checkpoint();
  // Only a root that actually distributes is worth journaling: a leaf root
  // (no ranks, or a piece an in-memory sort resolves) is one cheap pass.
  const bool root_distributes =
      ckpt != nullptr && !split_ranks.empty() && n > ctx.mem_records<T>() / 3;
  if (root_distributes) {
    // The worklist lifecycle lives in the pass engine: the root distribution
    // is one published pass, every scratch bucket's subtree one published
    // item — a crash resumes from the journaled worklist instead of
    // redistributing, repaying only the interrupted item.
    PassRunner runner(
        ctx,
        {"mpart", detail::part_fingerprint<T>(ctx, first, n, split_ranks)});
    DistributionCheckpoint<T> dc(runner, "mpart/resume");
    if (!dc.resumed()) {
      EmVector<T> out(ctx, n);
      std::vector<MultiPartitionSpan> root_spans;
      auto pending = runner.run("mpart/root-distribute", [&] {
        return detail::distribute_piece<T, Less>(
            ctx, input, first, last, split_ranks, out, 0, less, root_spans);
      });
      dc.publish_root(std::move(out), n, std::move(pending),
                      to_ckpt_spans(root_spans));
    }

    // Replay what the journal already holds, then run the remaining
    // buckets' subtrees, publishing each completion.
    EmVector<T> out_view = dc.adopt_out();
    const auto& st = dc.state();
    result.spans.reserve(st.spans.size());
    for (const auto& s : st.spans) {
      result.spans.push_back({s.lo, s.hi, s.sorted});
    }
    for (std::size_t q = 0; q < st.buckets.size(); ++q) {
      const auto& bk = st.buckets[q];
      if (bk.done) continue;
      EmVector<T> view = dc.adopt_item(q);
      std::vector<MultiPartitionSpan> bspans;
      runner.run("mpart/bucket-subtree", [&] {
        detail::partition_node<T, Less>(
            ctx, &view, 0, static_cast<std::size_t>(bk.size), EmVector<T>{},
            bk.ranks, out_view, static_cast<std::size_t>(bk.out_lo), less,
            bspans);
      });
      dc.publish_item_done(q, to_ckpt_spans(bspans));
      result.spans.insert(result.spans.end(), bspans.begin(), bspans.end());
    }
    result.data =
        EmVector<T>::adopt(ctx, dc.take_out(), n, /*owning=*/true);
  } else {
    result.data = EmVector<T>(ctx, n);
    PassRunner runner(ctx, {"mpart", 0});
    runner.run("mpart/recursive-partition", [&] {
      detail::partition_node<T, Less>(ctx, &input, first, last, EmVector<T>{},
                                      split_ranks, result.data, 0, less,
                                      result.spans);
    });
    result.data.set_size(n);
  }
  std::sort(result.spans.begin(), result.spans.end(),
            [](const MultiPartitionSpan& a, const MultiPartitionSpan& b) {
              return a.lo < b.lo;
            });
  result.bounds.reserve(split_ranks.size() + 2);
  result.bounds.push_back(0);
  result.bounds.insert(result.bounds.end(), split_ranks.begin(),
                       split_ranks.end());
  result.bounds.push_back(n);
  return result;
}

/// Whole-vector convenience overload.
template <EmRecord T, typename Less = std::less<T>>
[[nodiscard]] MultiPartitionResult<T> multi_partition(
    Context& ctx, const EmVector<T>& input,
    const std::vector<std::uint64_t>& split_ranks, Less less = {}) {
  return multi_partition<T, Less>(ctx, input, 0, input.size(), split_ranks,
                                  less);
}

/// Multi-partition by sizes — the paper's literal §1.1 interface: K-1 given
/// sizes σ_1..σ_{K-1} (the K-th is implied).  Equivalent to split ranks at
/// the prefix sums; every σ_i must be positive and they must sum to < n.
template <EmRecord T, typename Less = std::less<T>>
[[nodiscard]] MultiPartitionResult<T> multi_partition_sizes(
    Context& ctx, const EmVector<T>& input,
    const std::vector<std::uint64_t>& sizes, Less less = {}) {
  std::vector<std::uint64_t> ranks;
  ranks.reserve(sizes.size());
  std::uint64_t acc = 0;
  for (const auto s : sizes) {
    if (s == 0) {
      throw std::invalid_argument(
          "multi_partition_sizes: sizes must be positive");
    }
    acc += s;
    ranks.push_back(acc);
  }
  return multi_partition<T, Less>(ctx, input, ranks, less);
}

/// Precise K-partitioning (paper §3): split into K partitions of exactly
/// n/K records each.  Requires K to divide the range length.
template <EmRecord T, typename Less = std::less<T>>
[[nodiscard]] MultiPartitionResult<T> precise_partition(Context& ctx,
                                                        const EmVector<T>& input,
                                                        std::size_t k,
                                                        Less less = {}) {
  const std::size_t n = input.size();
  if (k == 0 || n % k != 0) {
    throw std::invalid_argument(
        "precise_partition: K must be positive and divide N");
  }
  std::vector<std::uint64_t> ranks(k - 1);
  for (std::size_t i = 1; i < k; ++i) ranks[i - 1] = i * (n / k);
  return multi_partition<T, Less>(ctx, input, ranks, less);
}

}  // namespace emsplit
