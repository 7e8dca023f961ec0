// distributed.hpp — W-lane multi-partition and distribution sort.
//
// The coordinator side of the distributed protocol (paper §3-§5 recast for
// the PEM shape of em/worker_group.hpp):
//
//   pass 1  "runs"     One formation round: workers sort the W-free chunk
//                      grid into runs and send back every stride-th record
//                      of each sorted run — the sampled pivot exchange.
//   pass 2  "select"   The coordinator turns the merged sample into splitter
//                      candidates at the target ranks; a select round
//                      measures every candidate's *exact* per-run cuts
//                      (distributed multi-selection); refinement rounds add
//                      candidates inside any part still larger than the
//                      in-memory bound until the sample is exhausted.
//   pass 3  "scatter"  Workers materialize the splitter-defined parts into
//                      the output extent — each reads exactly the extents of
//                      the peer runs that land in its parts — and the
//                      coordinator stitches the block-boundary edges.
//
// Checkpointing rides the same PassChain as the classic sorts: pass 1
// publishes the runs extent (offsets = the chunk grid), pass 2 the finished
// output (offsets = encoded spans).  The fingerprint excludes W, so a job
// killed under one worker count resumes under any other; a resume at pass 1
// re-derives the (volatile) samples with a resample round and repays only
// the interrupted pass.
//
// Output contract: identical bytes and identical logical IoStats totals for
// every W, the inline lane included — W is geometry, never output.  The
// coordinator's stitch writes are attributed to the owning lane's trace
// row, so the per-lane rows of every pass partition the pass total
// exactly.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "dist/dist_plan.hpp"
#include "dist/dist_rounds.hpp"
#include "em/context.hpp"
#include "em/em_vector.hpp"
#include "em/pass_engine.hpp"
#include "em/stream.hpp"
#include "em/worker_group.hpp"
#include "sort/branchless_sort.hpp"

namespace emsplit::dist {

/// Result of a distributed job: the permuted (or fully sorted) data, the
/// realized partition bounds, and the realized spans tiling [0, n).
template <EmRecord T>
struct DistResult {
  EmVector<T> data;
  std::vector<std::uint64_t> bounds;
  std::vector<DistSpan> spans;
};

namespace detail {

/// One measured splitter: its value, exact global rank, and per-run cuts.
template <EmRecord T>
struct Splitter {
  T value;
  std::uint64_t rank = 0;
  std::vector<std::uint64_t> cuts;
};

/// Fold one round's per-worker rows into the pass accumulator (a pass may
/// span several rounds — resample + select + refinements — but emits one row
/// per worker).
inline void merge_worker_rows(std::vector<PassWorkerIo>& acc,
                              std::vector<PassWorkerIo> add) {
  if (acc.empty()) {
    acc = std::move(add);
    return;
  }
  for (const PassWorkerIo& r : add) {
    if (r.worker >= acc.size()) acc.resize(r.worker + 1);
    acc[r.worker].worker = r.worker;
    acc[r.worker].io += r.io;
    acc[r.worker].seconds += r.seconds;
    acc[r.worker].barrier_seconds += r.barrier_seconds;
    // Peak resident bytes is a high-water mark, not a flow: max, not sum.
    acc[r.worker].peak_bytes = std::max(acc[r.worker].peak_bytes, r.peak_bytes);
  }
}

/// Splitter candidates for the target ranks, read off the sorted sample at
/// its stride: the sample at index q estimates rank (q + 1) * stride.
/// Returns a strictly increasing value sequence (duplicates collapse).
template <EmRecord T, typename Less>
std::vector<T> pick_candidates(const std::vector<T>& samples,
                               const std::vector<std::uint64_t>& targets,
                               std::size_t stride, Less less) {
  std::vector<T> cands;
  if (samples.empty()) return cands;
  for (const std::uint64_t r : targets) {
    std::size_t q = static_cast<std::size_t>(r) / stride;
    if (q > 0) --q;
    q = std::min(q, samples.size() - 1);
    const T& v = samples[q];
    if (cands.empty() || less(cands.back(), v)) cands.push_back(v);
  }
  return cands;
}

/// Run one select round over `cands` and assemble the measured splitters.
template <EmRecord T, typename Less>
std::vector<Splitter<T>> measure_candidates(WorkerGroup& group,
                                            const DistPlan& p,
                                            const BlockRange& runs,
                                            const std::vector<T>& cands,
                                            Less less,
                                            std::vector<PassWorkerIo>& acc) {
  std::vector<Splitter<T>> out;
  if (cands.empty()) return out;
  std::vector<PassWorkerIo> rows;
  const std::vector<std::uint64_t> cuts =
      select_round<T>(group, p, runs, cands, less, rows);
  merge_worker_rows(acc, std::move(rows));
  const std::size_t K = cands.size();
  out.reserve(K);
  for (std::size_t i = 0; i < K; ++i) {
    Splitter<T> s;
    s.value = cands[i];
    s.cuts.resize(p.n_runs);
    for (std::size_t u = 0; u < p.n_runs; ++u) {
      s.cuts[u] = cuts[u * K + i];
      s.rank += s.cuts[u];
    }
    out.push_back(std::move(s));
  }
  return out;
}

/// Merge measured splitters into the working set, keeping ranks strictly
/// increasing and strictly inside (0, n).  Equal ranks collapse (equivalent
/// values always measure equal ranks, so per-run cuts stay monotone across
/// the surviving rows).
template <EmRecord T>
void merge_splitters(std::vector<Splitter<T>>& base,
                     std::vector<Splitter<T>> add, std::uint64_t n) {
  for (Splitter<T>& s : add) base.push_back(std::move(s));
  std::sort(base.begin(), base.end(),
            [](const Splitter<T>& a, const Splitter<T>& b) {
              return a.rank < b.rank;
            });
  std::vector<Splitter<T>> keep;
  keep.reserve(base.size());
  for (Splitter<T>& s : base) {
    if (s.rank == 0 || s.rank == n) continue;
    if (!keep.empty() && keep.back().rank == s.rank) continue;
    keep.push_back(std::move(s));
  }
  base = std::move(keep);
}

/// Candidates for the refinement rounds: for every part still larger than
/// the in-memory bound, sample values strictly inside its value range, one
/// per `limit` of excess.  Empty when the sample has no distinct values left
/// there (a duplicate-dominated part — the scatter's streaming merge handles
/// it at the same logical I/O).
template <EmRecord T, typename Less>
std::vector<T> refinement_candidates(const std::vector<T>& samples,
                                     const std::vector<Splitter<T>>& splits,
                                     const DistPlan& p, std::uint64_t n,
                                     Less less) {
  std::vector<T> extra;
  const std::size_t P = splits.size() + 1;
  for (std::size_t i = 0; i < P; ++i) {
    const std::uint64_t lo = i == 0 ? 0 : splits[i - 1].rank;
    const std::uint64_t hi = i == P - 1 ? n : splits[i].rank;
    if (hi - lo <= p.limit) continue;
    const auto first =
        i == 0 ? samples.begin()
               : std::upper_bound(samples.begin(), samples.end(),
                                  splits[i - 1].value, less);
    const auto last = i == P - 1
                          ? samples.end()
                          : std::lower_bound(samples.begin(), samples.end(),
                                             splits[i].value, less);
    if (first >= last) continue;
    const std::size_t avail = static_cast<std::size_t>(last - first);
    const std::size_t need =
        static_cast<std::size_t>((hi - lo) / p.limit);
    for (std::size_t k = 1; k <= need; ++k) {
      const T& v =
          *(first + static_cast<std::ptrdiff_t>((avail * k) / (need + 1)));
      if (extra.empty() || less(extra.back(), v)) extra.push_back(v);
    }
  }
  return extra;
}

/// The part `pos` falls into, by its output range.
inline std::size_t part_of(const std::vector<PartDef>& parts,
                           std::uint64_t pos) {
  std::size_t lo = 0;
  std::size_t hi = parts.size();
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (parts[mid].lo <= pos) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Assemble and write every block-boundary block from the edge records the
/// scatter round sent back.  Blocks are written once, in ascending order,
/// and each write's I/O delta is attributed to the trace row of the worker
/// owning the part the block's first record belongs to — keeping the
/// per-worker rows an exact partition of the pass total.
template <EmRecord T>
void stitch_edges(Context& ctx, EmVector<T>& out,
                  const std::vector<PartDef>& parts,
                  std::vector<PartEdges<T>>& edges, std::size_t workers,
                  std::vector<PassWorkerIo>& rows) {
  const std::size_t b = out.block_records();
  const std::size_t n = out.size();
  std::vector<std::pair<std::uint64_t, T>> recs;
  for (PartEdges<T>& e : edges) {
    const PartDef& part = parts[e.part];
    const EdgeBounds eb =
        edge_bounds(static_cast<std::size_t>(part.lo),
                    static_cast<std::size_t>(part.hi), b);
    for (std::size_t k = 0; k < e.head.size(); ++k) {
      recs.emplace_back(part.lo + k, e.head[k]);
    }
    for (std::size_t k = 0; k < e.tail.size(); ++k) {
      recs.emplace_back(eb.tail_start + k, e.tail[k]);
    }
  }
  std::sort(recs.begin(), recs.end(),
            [](const auto& a, const auto& c) { return a.first < c.first; });
  std::vector<T> blk(b);
  std::size_t i = 0;
  while (i < recs.size()) {
    const std::size_t base =
        static_cast<std::size_t>(recs[i].first) / b * b;
    const std::size_t len = std::min(b, n - base);
    std::size_t j = i;
    for (; j < recs.size() && recs[j].first < base + len; ++j) {
      if (recs[j].first != base + (j - i)) {
        throw std::logic_error("dist: edge stitch gap");
      }
      blk[j - i] = recs[j].second;
    }
    if (j - i != len) {
      throw std::logic_error("dist: edge stitch incomplete block");
    }
    const std::size_t owner =
        unit_owner(parts.size(), workers, part_of(parts, base));
    const IoStats before = ctx.io();
    store_range<T>(out, base, std::span<const T>(blk.data(), len));
    if (owner < rows.size()) rows[owner].io += ctx.io() - before;
    i = j;
  }
}

/// Realized spans: the output axis cut at every part boundary and every
/// requested bound, each piece carrying its part's sort flag.
inline std::vector<DistSpan> build_spans(
    const std::vector<PartDef>& parts,
    const std::vector<std::uint64_t>& bounds) {
  std::vector<DistSpan> spans;
  for (const PartDef& part : parts) {
    std::uint64_t lo = part.lo;
    const auto first =
        std::upper_bound(bounds.begin(), bounds.end(), part.lo);
    for (auto it = first; it != bounds.end() && *it < part.hi; ++it) {
      spans.push_back({lo, *it, part.sort});
      lo = *it;
    }
    if (lo < part.hi) spans.push_back({lo, part.hi, part.sort});
  }
  return spans;
}

/// All-sorted spans for the degenerate single-run job.
inline std::vector<DistSpan> sorted_spans(
    const std::vector<std::uint64_t>& bounds) {
  std::vector<DistSpan> spans;
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    if (bounds[i] < bounds[i + 1]) {
      spans.push_back({bounds[i], bounds[i + 1], true});
    }
  }
  return spans;
}

/// The driver behind both entry points.  `sort_all` selects the full sort
/// (splitter targets on the `target` grid, every part emitted sorted); with
/// it off only parts containing a requested rank are sorted and the rest are
/// concatenated — exactly the classic multi-partition contract.
template <EmRecord T, typename Less>
DistResult<T> dist_run(Context& ctx, const EmVector<T>& input,
                       const std::vector<std::uint64_t>& ranks, bool sort_all,
                       Less less) {
  const std::size_t n = input.size();
  const DistPlan p = make_dist_plan<T>(ctx, n);
  const char* job = sort_all ? "dsort" : "mpart";
  PassRunner runner(
      ctx, {job, dist_fingerprint<T>(
                     ctx, n, sort_all ? kDistSortTag : kDistPartTag, ranks)});
  // The coordinator's planning-table quarter (samples, cut matrix, edges);
  // worker units budget within the remainder (see dist_plan.hpp).
  auto tables_res = ctx.budget().reserve(ctx.mem_bytes() / 4);
  WorkerGroup group(ctx);
  PassChain<T> chain(runner,
                     sort_all ? "dsort/dist-resume" : "mpart/dist-resume");

  std::vector<T> samples;
  bool have_samples = false;
  if (!chain.resumed()) {
    EmVector<T> runs(ctx, n);
    runs.set_size(n);
    runner.run(sort_all ? "dsort/dist-runs" : "mpart/dist-runs", [&] {
      std::vector<PassWorkerIo> rows;
      samples = formation_round<T>(group, p, input.extent(), runs.extent(),
                                   less, rows);
      ctx.note_pass_workers(std::move(rows));
    });
    branchless_sort(std::span<T>(samples), less);
    have_samples = true;
    typename PassChain<T>::Offsets offs;
    for (std::size_t lo = 0; lo < n; lo += p.chunk) offs.push_back(lo);
    offs.push_back(n);
    chain.install(std::move(runs), std::move(offs));
  }

  DistResult<T> res;
  res.bounds.push_back(0);
  for (const std::uint64_t r : ranks) res.bounds.push_back(r);
  res.bounds.push_back(n);

  if (chain.pass() >= 2) {  // resumed past the scatter: output is journaled
    res.spans = decode_dist_spans(chain.offsets());
    res.data = chain.take();
    return res;
  }

  if (p.n_runs <= 1) {  // one chunk: the formation run is the sorted output
    res.spans = sorted_spans(res.bounds);
    res.data = chain.take();
    return res;
  }

  // --- multi-selection: pivot exchange, then cut refinement ---------------
  std::vector<Splitter<T>> splits;
  runner.run(sort_all ? "dsort/dist-select" : "mpart/dist-select", [&] {
    std::vector<PassWorkerIo> acc;
    if (!have_samples) {  // resumed at pass 1: the samples died, the runs not
      std::vector<PassWorkerIo> rows;
      samples = resample_round<T>(group, p, chain.data().extent(), rows);
      branchless_sort(std::span<T>(samples), less);
      merge_worker_rows(acc, std::move(rows));
    }
    std::vector<std::uint64_t> targets;
    if (sort_all) {
      for (std::uint64_t r = p.target; r < n; r += p.target) {
        targets.push_back(r);
      }
    } else {
      targets = ranks;
    }
    const std::vector<T> cands =
        pick_candidates<T>(samples, targets, p.stride, less);
    merge_splitters<T>(
        splits,
        measure_candidates<T>(group, p, chain.data().extent(), cands, less,
                              acc),
        n);
    for (int iter = 0; iter < 2; ++iter) {
      const std::vector<T> extra =
          refinement_candidates<T>(samples, splits, p, n, less);
      if (extra.empty()) break;
      const std::size_t before = splits.size();
      merge_splitters<T>(
          splits,
          measure_candidates<T>(group, p, chain.data().extent(), extra, less,
                                acc),
          n);
      if (splits.size() == before) break;
    }
    ctx.note_pass_workers(std::move(acc));
  });

  // --- scatter: parts to their final ranges, edges stitched ---------------
  const std::size_t U = p.n_runs;
  const std::size_t P = splits.size() + 1;
  std::vector<PartDef> parts(P);
  std::vector<std::uint64_t> seg_cuts((P + 1) * U, 0);
  for (std::size_t u = 0; u < U; ++u) {
    seg_cuts[P * U + u] =
        std::min(p.n, (u + 1) * p.chunk) - u * p.chunk;  // run lengths
  }
  for (std::size_t i = 1; i < P; ++i) {
    for (std::size_t u = 0; u < U; ++u) {
      seg_cuts[i * U + u] = splits[i - 1].cuts[u];
    }
  }
  for (std::size_t i = 0; i < P; ++i) {
    parts[i].lo = i == 0 ? 0 : splits[i - 1].rank;
    parts[i].hi = i == P - 1 ? n : splits[i].rank;
    if (sort_all) {
      parts[i].sort = true;
    } else {
      // A part is emitted sorted iff a requested rank cuts strictly inside
      // it; sorting realizes that rank exactly.
      const auto it = std::upper_bound(ranks.begin(), ranks.end(), parts[i].lo);
      parts[i].sort = it != ranks.end() && *it < parts[i].hi;
    }
  }

  EmVector<T> out(ctx, n);
  out.set_size(n);
  runner.run(sort_all ? "dsort/dist-scatter" : "mpart/dist-scatter", [&] {
    std::vector<PassWorkerIo> rows;
    std::vector<PartEdges<T>> edges =
        scatter_round<T>(group, p, chain.data().extent(), out.extent(), parts,
                         seg_cuts, less, rows);
    stitch_edges<T>(ctx, out, parts, edges, group.workers(), rows);
    ctx.note_pass_workers(std::move(rows));
  });

  res.spans = sort_all ? std::vector<DistSpan>{{0, n, true}}
                       : build_spans(parts, res.bounds);
  chain.install(std::move(out), encode_dist_spans(res.spans));
  res.data = chain.take();
  return res;
}

}  // namespace detail

/// Distributed full sort: bit-identical to itself under every lane count,
/// fully sorted output.  Call only when
/// dist_supported<T>(ctx, input.size(), 0) holds.
template <EmRecord T, typename Less = std::less<T>>
[[nodiscard]] EmVector<T> dist_distribution_sort(Context& ctx,
                                                 const EmVector<T>& input,
                                                 Less less = {}) {
  return detail::dist_run<T, Less>(ctx, input, {}, /*sort_all=*/true, less)
      .data;
}

/// Distributed multi-partition at the given split ranks (strictly increasing,
/// strictly inside (0, n)).  Realizes every requested rank exactly; the spans
/// report which pieces came out sorted.  Call only when
/// dist_supported<T>(ctx, input.size(), ranks.size()) holds.
template <EmRecord T, typename Less = std::less<T>>
[[nodiscard]] DistResult<T> dist_multi_partition(
    Context& ctx, const EmVector<T>& input,
    const std::vector<std::uint64_t>& ranks, Less less = {}) {
  return detail::dist_run<T, Less>(ctx, input, ranks, /*sort_all=*/false,
                                   less);
}

}  // namespace emsplit::dist
