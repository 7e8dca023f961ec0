// dist_rounds.hpp — the lane-side bodies of the distributed passes.
//
// Each function here builds one WorkerGroup round body: a closure run once
// per lane that performs that lane's contiguous slice of the round's W-free
// unit list and leaves its result in the lane's own slot of a per-round
// vector.  Bodies follow the WorkerGroup contract — no extent allocation,
// no coordinator state, every input captured by reference and only read.
//
// Round inventory, in pass order:
//
//   formation  — unit = one chunk of the input grid: load, sort in memory,
//                store as a run at the same offsets, and keep every
//                stride-th record as a sample (paper §3's per-piece sample).
//   resample   — re-derives exactly the formation samples from the journaled
//                runs after a resume (the samples died with the crashed
//                coordinator; the runs did not).
//   select     — unit = one run: for every splitter candidate, find the
//                run-local cut (lower bound) by binary search over block
//                first-records — O(log(chunk/B)) block reads per cut, the
//                external-memory analogue of the paper's multi-selection
//                probe.  Summed over runs the cuts are *exact* global ranks.
//   scatter    — unit = one output part: gather its per-run segments and
//                emit them sorted (in-memory or by streaming k-way merge) or
//                concatenated (a finished partition run).  Interior whole
//                blocks are written directly; the few records sharing a
//                boundary block with a neighbouring part go back to the
//                coordinator to stitch (stitch_edges in distributed.hpp) —
//                two lanes must never read-modify-write one block.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <span>
#include <vector>

#include "dist/dist_plan.hpp"
#include "em/context.hpp"
#include "em/em_vector.hpp"
#include "em/stream.hpp"
#include "em/worker_group.hpp"
#include "sort/branchless_sort.hpp"

namespace emsplit::dist {

/// Block-boundary split of one part's output range [lo, hi): records in
/// [lo, head_end) and [tail_start, hi) share their block with a neighbour
/// (or are the final partial block) and must be stitched by the coordinator;
/// [head_end, tail_start) is whole blocks the owning lane writes itself.
struct EdgeBounds {
  std::size_t head_end = 0;
  std::size_t tail_start = 0;
};

inline EdgeBounds edge_bounds(std::size_t lo, std::size_t hi, std::size_t b) {
  EdgeBounds e;
  e.head_end = std::min((lo + b - 1) / b * b, hi);
  e.tail_start = std::max(hi / b * b, e.head_end);
  return e;
}

/// Streams one part's records into its output range: interior whole blocks
/// go to the device through an aligned bounded buffer; head and tail edge
/// records accumulate for the coordinator.  Every store lands on a block
/// boundary with a whole-block length, so no read-modify-write ever touches
/// a block another lane also owns.
template <EmRecord T>
class PartWriter {
 public:
  PartWriter(EmVector<T>& out, std::size_t lo, std::size_t hi,
             std::size_t buf_records)
      : out_(&out), lo_(lo), hi_(hi), pos_(lo) {
    const std::size_t b = out.block_records();
    const EdgeBounds e = edge_bounds(lo, hi, b);
    head_end_ = e.head_end;
    tail_start_ = e.tail_start;
    cursor_ = head_end_;
    cap_ = std::max(b, buf_records / b * b);  // flushes stay block-aligned
    buf_.reserve(std::min(cap_, tail_start_ - head_end_));
  }

  void push(const T& v) {
    if (pos_ < head_end_) {
      head_.push_back(v);
    } else if (pos_ >= tail_start_) {
      tail_.push_back(v);
    } else {
      buf_.push_back(v);
      if (buf_.size() == cap_) flush();
    }
    ++pos_;
  }

  void push_span(std::span<const T> s) {
    for (const T& v : s) push(v);
  }

  void finish() {
    flush();
    assert(pos_ == hi_);
  }

  [[nodiscard]] const std::vector<T>& head() const noexcept { return head_; }
  [[nodiscard]] const std::vector<T>& tail() const noexcept { return tail_; }

 private:
  void flush() {
    if (buf_.empty()) return;
    store_range<T>(*out_, cursor_, std::span<const T>(buf_));
    cursor_ += buf_.size();
    buf_.clear();
  }

  EmVector<T>* out_;
  std::size_t lo_;
  std::size_t hi_;
  std::size_t head_end_;
  std::size_t tail_start_;
  std::size_t pos_;
  std::size_t cursor_;
  std::size_t cap_;
  std::vector<T> buf_;
  std::vector<T> head_;
  std::vector<T> tail_;
};

/// The lanes' result slots joined in lane order.
template <typename X>
std::vector<X> concat_lanes(std::vector<std::vector<X>>& lanes) {
  std::vector<X> out;
  for (std::vector<X>& part : lanes) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

/// Run-formation round.  Returns the concatenated samples of every lane in
/// lane (= run) order; the caller sorts them.  `input` and `runs` travel
/// as extents so each body binds views through its own context.
template <EmRecord T, typename Less>
std::vector<T> formation_round(WorkerGroup& group, const DistPlan& p,
                               const BlockRange& input, const BlockRange& runs,
                               Less less, std::vector<PassWorkerIo>& rows_out) {
  const std::size_t W = group.workers();
  std::vector<std::vector<T>> lanes(W);
  const auto body = [&p, &input, &runs, &lanes, less,
                     W](Context& wctx, std::size_t w) {
    const EmVector<T> in_v =
        EmVector<T>::adopt(wctx, input, p.n, /*owning=*/false);
    EmVector<T> runs_v = EmVector<T>::adopt(wctx, runs, p.n, /*owning=*/false);
    auto res = wctx.budget().reserve((p.chunk + p.b) * sizeof(T));
    std::vector<T> buf;
    buf.reserve(p.chunk);
    std::vector<T> samples;
    for (std::size_t u = unit_begin(p.n_runs, W, w);
         u < unit_begin(p.n_runs, W, w + 1); ++u) {
      const std::size_t lo = u * p.chunk;
      const std::size_t hi = std::min(p.n, lo + p.chunk);
      buf.resize(hi - lo);
      load_range<T>(in_v, lo, std::span<T>(buf));
      branchless_sort(std::span<T>(buf), less);
      store_range<T>(runs_v, lo, std::span<const T>(buf));
      for (std::size_t j = p.stride; j <= buf.size(); j += p.stride) {
        samples.push_back(buf[j - 1]);
      }
    }
    lanes[w] = std::move(samples);
  };
  rows_out = group.round("dist/formation", body);
  return concat_lanes(lanes);
}

/// Resample round: reproduce the formation samples by reading them back out
/// of the journaled runs (same positions, same multiset) after a resume.
template <EmRecord T>
std::vector<T> resample_round(WorkerGroup& group, const DistPlan& p,
                              const BlockRange& runs,
                              std::vector<PassWorkerIo>& rows_out) {
  const std::size_t W = group.workers();
  std::vector<std::vector<T>> lanes(W);
  const auto body = [&p, &runs, &lanes, W](Context& wctx, std::size_t w) {
    const EmVector<T> runs_v =
        EmVector<T>::adopt(wctx, runs, p.n, /*owning=*/false);
    auto res = wctx.budget().reserve(p.b * sizeof(T));
    std::vector<T> blk(p.b);
    std::vector<T> samples;
    std::size_t cur = static_cast<std::size_t>(-1);
    for (std::size_t u = unit_begin(p.n_runs, W, w);
         u < unit_begin(p.n_runs, W, w + 1); ++u) {
      const std::size_t lo = u * p.chunk;
      const std::size_t len = std::min(p.n, lo + p.chunk) - lo;
      for (std::size_t j = p.stride; j <= len; j += p.stride) {
        const std::size_t pos = lo + j - 1;
        const std::size_t blkno = pos / p.b;
        if (blkno != cur) {
          runs_v.read_block(blkno, std::span<T>(blk));
          cur = blkno;
        }
        samples.push_back(blk[pos % p.b]);
      }
    }
    lanes[w] = std::move(samples);
  };
  rows_out = group.round("dist/resample", body);
  return concat_lanes(lanes);
}

/// Select round: for every (owned run, candidate) pair, the run-local lower
/// bound of the candidate, found by binary search over block first-records
/// plus one boundary-block scan.  Returns the cut matrix in candidate-major
/// order per run: cuts[u * K + i] = cut of candidate i in run u.
template <EmRecord T, typename Less>
std::vector<std::uint64_t> select_round(WorkerGroup& group, const DistPlan& p,
                                        const BlockRange& runs,
                                        const std::vector<T>& cands, Less less,
                                        std::vector<PassWorkerIo>& rows_out) {
  const std::size_t W = group.workers();
  std::vector<std::vector<std::uint64_t>> lanes(W);
  const auto body = [&p, &runs, &cands, &lanes, less,
                     W](Context& wctx, std::size_t w) {
    const EmVector<T> runs_v =
        EmVector<T>::adopt(wctx, runs, p.n, /*owning=*/false);
    auto res = wctx.budget().reserve(p.b * sizeof(T));
    std::vector<T> blk(p.b);
    std::vector<std::uint64_t> cuts;
    for (std::size_t u = unit_begin(p.n_runs, W, w);
         u < unit_begin(p.n_runs, W, w + 1); ++u) {
      const std::size_t lo = u * p.chunk;
      const std::size_t len = std::min(p.n, lo + p.chunk) - lo;
      const std::size_t first_blk = lo / p.b;
      const std::size_t nblocks = (len + p.b - 1) / p.b;
      std::size_t prev = 0;  // cuts are monotone in the sorted candidates
      for (const T& x : cands) {
        std::size_t lob = prev / p.b;
        std::size_t hib = nblocks;
        while (lob < hib) {
          const std::size_t mid = lob + (hib - lob) / 2;
          runs_v.read_block(first_blk + mid, std::span<T>(blk));
          if (less(blk[0], x)) {
            lob = mid + 1;
          } else {
            hib = mid;
          }
        }
        std::size_t cut = 0;
        if (lob > 0) {
          const std::size_t bi = lob - 1;
          runs_v.read_block(first_blk + bi, std::span<T>(blk));
          const std::size_t in_blk = std::min(p.b, len - bi * p.b);
          const auto blk_end =
              blk.begin() + static_cast<std::ptrdiff_t>(in_blk);
          cut = bi * p.b +
                static_cast<std::size_t>(
                    std::lower_bound(blk.begin(), blk_end, x, less) -
                    blk.begin());
        }
        cut = std::max(cut, prev);
        cuts.push_back(cut);
        prev = cut;
      }
    }
    lanes[w] = std::move(cuts);
  };
  rows_out = group.round("dist/select", body);
  return concat_lanes(lanes);
}

/// One output part as the scatter round sees it.
struct PartDef {
  std::uint64_t lo = 0;      ///< output range [lo, hi)
  std::uint64_t hi = 0;
  bool sort = false;         ///< emit sorted (else concatenate run order)
};

/// Edge records one part sent back for stitching.
template <EmRecord T>
struct PartEdges {
  std::size_t part = 0;
  std::vector<T> head;
  std::vector<T> tail;
};

/// Scatter round: each lane materializes its owned parts into the output
/// extent (interior blocks) and hands back the edge records.  `seg_cuts` is
/// the (P+1) x U matrix of run-local part boundaries: part i's records in
/// run u are run-local [seg_cuts[i * U + u], seg_cuts[(i+1) * U + u]).
template <EmRecord T, typename Less>
std::vector<PartEdges<T>> scatter_round(
    WorkerGroup& group, const DistPlan& p, const BlockRange& runs,
    const BlockRange& out_extent, const std::vector<PartDef>& parts,
    const std::vector<std::uint64_t>& seg_cuts, Less less,
    std::vector<PassWorkerIo>& rows_out) {
  const std::size_t W = group.workers();
  const std::size_t U = p.n_runs;
  std::vector<std::vector<PartEdges<T>>> lanes(W);
  const auto body = [&p, &runs, &out_extent, &parts, &seg_cuts, &lanes, less,
                     W, U](Context& wctx, std::size_t w) {
    const EmVector<T> runs_v =
        EmVector<T>::adopt(wctx, runs, p.n, /*owning=*/false);
    EmVector<T> out_v =
        EmVector<T>::adopt(wctx, out_extent, p.n, /*owning=*/false);
    // One reservation covering the worst path: a limit-sized gather (or the
    // per-run cursor blocks) next to the writer buffer and edge slack.
    auto res = wctx.budget().reserve(
        (std::max(p.limit, (U + 1) * p.b) + p.sbr + 2 * p.b) * sizeof(T));
    std::vector<T> buf;
    std::vector<PartEdges<T>>& edges = lanes[w];
    for (std::size_t i = unit_begin(parts.size(), W, w);
         i < unit_begin(parts.size(), W, w + 1); ++i) {
      const PartDef& part = parts[i];
      const std::size_t plen =
          static_cast<std::size_t>(part.hi - part.lo);
      PartWriter<T> pw(out_v, static_cast<std::size_t>(part.lo),
                       static_cast<std::size_t>(part.hi), p.sbr);
      const auto seg_lo = [&](std::size_t u) {
        return static_cast<std::size_t>(seg_cuts[i * U + u]);
      };
      const auto seg_hi = [&](std::size_t u) {
        return static_cast<std::size_t>(seg_cuts[(i + 1) * U + u]);
      };
      if (!part.sort) {
        // Finished partition run: concatenate segments in run order.
        buf.clear();
        for (std::size_t u = 0; u < U; ++u) {
          std::size_t pos = seg_lo(u);
          const std::size_t end = seg_hi(u);
          while (pos < end) {
            const std::size_t take = std::min(p.sbr, end - pos);
            buf.resize(take);
            load_range<T>(runs_v, u * p.chunk + pos, std::span<T>(buf));
            pw.push_span(std::span<const T>(buf));
            pos += take;
          }
        }
      } else if (plen <= p.limit) {
        // Gather every segment, sort the concatenation in memory.
        buf.resize(plen);
        std::size_t off = 0;
        for (std::size_t u = 0; u < U; ++u) {
          const std::size_t len = seg_hi(u) - seg_lo(u);
          if (len == 0) continue;
          load_range<T>(runs_v, u * p.chunk + seg_lo(u),
                        std::span<T>(buf.data() + off, len));
          off += len;
        }
        assert(off == plen);
        branchless_sort(std::span<T>(buf), less);
        pw.push_span(std::span<const T>(buf));
      } else {
        // Oversized (duplicate-dominated or sampling-starved) part: k-way
        // merge of the segments with one cursor block per run.
        struct Cursor {
          std::size_t pos;   // run-local next record
          std::size_t end;   // run-local segment end
          std::size_t base;  // global record offset of the run
          std::size_t blk = static_cast<std::size_t>(-1);
          std::vector<T> data;
        };
        std::vector<Cursor> cur(U);
        const auto deref = [&](std::size_t u) -> const T& {
          Cursor& c = cur[u];
          const std::size_t g = c.base + c.pos;
          const std::size_t blkno = g / p.b;
          if (blkno != c.blk) {
            if (c.data.empty()) c.data.resize(p.b);
            runs_v.read_block(blkno, std::span<T>(c.data));
            c.blk = blkno;
          }
          return c.data[g % p.b];
        };
        // Min-heap keyed by (record, run index): deterministic tie-break.
        const auto heap_less = [&](std::size_t a, std::size_t bidx) {
          const T& ra = deref(a);
          const T& rb = deref(bidx);
          if (less(ra, rb)) return false;  // priority_queue is a max-heap
          if (less(rb, ra)) return true;
          return a > bidx;
        };
        std::priority_queue<std::size_t, std::vector<std::size_t>,
                            decltype(heap_less)>
            heap(heap_less);
        for (std::size_t u = 0; u < U; ++u) {
          cur[u].pos = seg_lo(u);
          cur[u].end = seg_hi(u);
          cur[u].base = u * p.chunk;
          if (cur[u].pos < cur[u].end) heap.push(u);
        }
        while (!heap.empty()) {
          const std::size_t u = heap.top();
          heap.pop();
          pw.push(deref(u));
          if (++cur[u].pos < cur[u].end) heap.push(u);
        }
      }
      pw.finish();
      edges.push_back(PartEdges<T>{i, pw.head(), pw.tail()});
    }
  };
  rows_out = group.round("dist/scatter", body);
  return concat_lanes(lanes);
}

}  // namespace emsplit::dist
