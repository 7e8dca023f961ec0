// distribution_sort.hpp — Aggarwal–Vitter's *other* optimal sort.
//
// Merge sort builds sorted runs and merges; distribution sort splits by
// pivots and recurses — precisely what multi-partition does when asked for
// memory-sized pieces.  Here: multi-partition at every floor(M/3)-th rank
// (so every piece of the result is one in-memory-sortable segment), then a
// final chunked pass sorts each segment in place.  Cost
// Θ((N/B) lg_{M/B}(N/M)) + 2 scans = Θ((N/B) lg_{M/B}(N/B)) — the same
// bound as merge sort from the opposite direction.  Experiment E17 races
// the two (and replacement-selection merge sort) across workload shapes.
//
// The pass lifecycle (trace + profile envelope, checkpoint publish/resume)
// comes from the pass engine (em/pass_engine.hpp).  With a CheckpointJournal
// attached the sort is crash-recoverable: the partition result is published
// as pass 1 (the realized spans ride along, encoded in the offsets field),
// and the in-place final pass is bracketed by a begin-marker so a crash
// mid-rewrite — which can tear one segment group into half-old, half-new
// blocks — restarts from scratch instead of resuming over torn data.  A
// crash anywhere else repays only the interrupted pass (the partition's own
// finer-grained journaling covers crashes inside pass 1).
#pragma once

#include <algorithm>
#include <cassert>
#include <functional>
#include <optional>

#include "dist/distributed.hpp"
#include "em/context.hpp"
#include "em/pass_engine.hpp"
#include "em/em_vector.hpp"
#include "em/stream.hpp"
#include "partition/multi_partition.hpp"
#include "sort/branchless_sort.hpp"

namespace emsplit {
namespace detail {

/// Job fingerprint for the distribution-sort checkpoint (see
/// sort_fingerprint): digests everything that shapes the pass structure.
template <EmRecord T>
std::uint64_t dsort_fingerprint(const Context& ctx, std::size_t n) {
  std::uint64_t h = fingerprint_mix(kFingerprintSeed, 0x44535254);  // "DSRT"
  h = fingerprint_mix(h, n);
  h = fingerprint_mix(h, sizeof(T));
  h = fingerprint_mix(h, ctx.block_records<T>());
  h = fingerprint_mix(h, ctx.stream_blocks());
  h = fingerprint_mix(h, ctx.mem_records<T>());
  return h;
}

/// The realized spans tile [0, n) in increasing position order, so each one
/// is fully described by (hi, sorted) with lo implicit — which packs into
/// the journal's per-pass offsets array without any schema change.
inline std::vector<std::uint64_t> encode_spans(
    const std::vector<MultiPartitionSpan>& spans) {
  std::vector<std::uint64_t> enc;
  enc.reserve(spans.size());
  for (const auto& s : spans) {
    enc.push_back((s.hi << 1) | (s.sorted ? 1 : 0));
  }
  return enc;
}

inline std::vector<MultiPartitionSpan> decode_spans(
    const std::vector<std::uint64_t>& enc) {
  std::vector<MultiPartitionSpan> spans;
  spans.reserve(enc.size());
  std::uint64_t lo = 0;
  for (const auto e : enc) {
    const std::uint64_t hi = e >> 1;
    spans.push_back({lo, hi, (e & 1) != 0});
    lo = hi;
  }
  return spans;
}

/// Final pass: every realized run already sits at its final record range
/// (cut counts are exact), so runs the recursion sorted through in-memory
/// leaves are *done* — re-reading them would be pure waste.  Only the
/// unsorted runs (finished partitions streamed through leaf-copy) still
/// need an internal sort.  Each one is confined between consecutive
/// requested ranks, hence at most `segment` records; adjacent unsorted
/// runs are coalesced up to the segment buffer before loading.  The pass
/// rewrites `out` in place, block for block.
template <EmRecord T, typename Less>
void distribution_final_pass(Context& ctx, EmVector<T>& out,
                             const std::vector<MultiPartitionSpan>& spans,
                             std::size_t segment, Less less) {
  auto res = ctx.budget().reserve(segment * sizeof(T));
  std::vector<T> buf(segment);
  std::size_t group_lo = 0;
  std::size_t group_hi = 0;
  const auto flush = [&] {
    if (group_lo == group_hi) return;
    // The pass's true working set is data-dependent: the largest coalesced
    // segment group actually loaded, not the full `segment` reservation.
    // Report it so the trace row shows the in-place pass's high-water mark.
    ctx.note_pass_hwm(static_cast<std::uint64_t>(group_hi - group_lo) *
                      sizeof(T));
    const auto span = std::span<T>(buf).first(group_hi - group_lo);
    load_range<T>(out, group_lo, span);
    branchless_sort(span, less);
    store_range<T>(out, group_lo, span);
    group_lo = group_hi;
  };
  for (const MultiPartitionSpan& s : spans) {
    if (s.sorted) {
      flush();
      group_lo = group_hi = static_cast<std::size_t>(s.hi);
      continue;
    }
    assert(s.hi - s.lo <= segment);
    if (static_cast<std::size_t>(s.hi) - group_lo > segment) flush();
    group_hi = static_cast<std::size_t>(s.hi);
  }
  flush();
}

}  // namespace detail

/// Sort `input` into a new vector by recursive distribution.
///
/// With a CheckpointJournal attached to the context, the completed partition
/// is published as pass 1 and a rerun of the identical job resumes there
/// with bit-identical output — re-running only the final pass (which is
/// idempotent over completed data: re-sorting a sorted segment is
/// byte-identical under a total order).  Without a journal this is exactly
/// the seed code path.
template <EmRecord T, typename Less = std::less<T>>
[[nodiscard]] EmVector<T> distribution_sort(Context& ctx,
                                            const EmVector<T>& input,
                                            Less less = {}) {
  const std::size_t n = input.size();
  // With workers configured, the whole sort runs as the distributed
  // protocol (dist/distributed.hpp) — same output bytes for every W, the
  // journal keyed by a W-free fingerprint.  Unsupported geometry falls
  // through to the classic single-process path.
  if (dist::dist_supported<T>(ctx, n, 0)) {
    return dist::dist_distribution_sort<T, Less>(ctx, input, less);
  }
  const std::size_t segment = std::max<std::size_t>(
      1, ctx.mem_records<T>() / 3);

  std::vector<std::uint64_t> ranks;
  for (std::size_t r = segment; r < n; r += segment) ranks.push_back(r);

  CheckpointJournal* ckpt = ctx.checkpoint();
  // Only a run that actually partitions is worth journaling: a single
  // in-memory segment is one cheap pass.
  if (ckpt == nullptr || ranks.empty()) {
    PassRunner runner(ctx, {"dsort", 0});
    auto part = runner.run("dsort/partition", [&] {
      return multi_partition<T, Less>(ctx, input, ranks, less);
    });
    EmVector<T> out = std::move(part.data);
    runner.run("dsort/final-sort", [&] {
      detail::distribution_final_pass<T>(ctx, out, part.spans, segment, less);
    });
    return out;
  }

  // Checkpointed path.  The marker fingerprint journals "the in-place final
  // pass has begun" as a zero-extent sort state: a crash mid-rewrite leaves
  // the output extent torn (one group half old, half new blocks), so its
  // multiset no longer matches the partitioned data and resuming over it
  // would be wrong.  Marker present on entry → restart from scratch (the
  // fresh pass-1 publish supersedes and frees the stale extent).
  PassRunner runner(ctx, {"dsort", detail::dsort_fingerprint<T>(ctx, n)});
  const std::uint64_t marker_fp =
      fingerprint_mix(runner.plan().fingerprint, 0x46494E4C);  // "FINL"
  if (ckpt->resume_sort(marker_fp).has_value()) {
    (void)ckpt->take_sort_extent(marker_fp);  // clear the marker (no extent)
    // Discard the torn pass-1 state; the blocks return to the free list.
    ctx.device().deallocate(
        ckpt->take_sort_extent(runner.plan().fingerprint));
  }

  PassChain<T> chain(runner, "dsort/resume");
  std::vector<MultiPartitionSpan> spans;
  if (!chain.resumed()) {
    auto part = runner.run("dsort/partition", [&] {
      return multi_partition<T, Less>(ctx, input, ranks, less);
    });
    spans = std::move(part.spans);
    chain.install(std::move(part.data), detail::encode_spans(spans));
  } else {
    spans = detail::decode_spans(chain.offsets());
  }

  // Publish the begin-marker *before* the first in-place write; pass 0 so
  // resumed-pass accounting never counts it.
  ckpt->publish_sort_pass(marker_fp, 0, BlockRange{}, 0, {});
  runner.run("dsort/final-sort", [&] {
    detail::distribution_final_pass<T>(ctx, chain.data_mut(), spans, segment,
                                       less);
  });
  // Take the marker first: a crash between the two takes resumes at the
  // pass-1 state and re-runs the (idempotent-over-sorted-data) final pass.
  (void)ckpt->take_sort_extent(marker_fp);
  return chain.take();
}

}  // namespace emsplit
