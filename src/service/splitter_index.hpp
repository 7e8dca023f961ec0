// splitter_index.hpp — the resident query engine over a sorted splitter run.
//
// The batch apps (range_count, histogram, top_k, load_balance) each rebuilt
// their query machinery per invocation: one CLI job, one scan, exit.  The
// paper's splitters pay off when the partition they produce is then
// *queried*, so this module keeps one long-lived, searchable copy of the
// data:
//
//   * build(): sort into an owned copy, then K exact-quantile buckets
//     bounds[i] = floor(iN/K) and one N/B scan filling two resident tables:
//     each bucket's maximum (uppers) and the first record of every s-th
//     block (fences).  s is the smallest power of two for which the fence
//     table fits in M/16; the table is charged to the MemoryBudget for the
//     index's lifetime.  The sort is the src/dist/ plan (sorted runs, exact
//     per-run cuts, one gather pass) run in this process as one inline lane
//     when its geometry fits (dist::dist_fits), and classic
//     distribution_sort otherwise: an M too small for the plan, or a budget
//     already charged — a refresh while the live epoch's fence table is
//     held.  Both write the same sorted bytes.
//   * rank(x): fence upper_bound, one batched read of the <= s blocks between
//     two fences, an in-block upper_bound — exact, <= s block reads.  A probe
//     below the minimum or at/above the maximum is answered from the tables
//     with zero reads.
//   * range_count(a, b]: two ranks, <= 2s reads.
//   * histogram(k <= K): regroup the index buckets — exact sizes, zero I/O.
//   * top_k(k): the contiguous head (or tail) of the sorted run, already in
//     order — the ceil(k/B) + 1 blocks it touches at most.
//
// Per-query I/O accounting: queries run concurrently from many client
// threads, so a query cannot diff the device's shared counters.  Instead
// each query counts the block reads it issues (deterministic — the set of
// blocks a query touches is a function of the index geometry, never of
// concurrent load).  The sum of per-query base I/O over any schedule equals the serial run's — the
// service-layer analogue of "geometry, never output".
//
// Thread-safety: every query method is const and touches only immutable
// index state plus the device's internally synchronized transfer path.  N
// threads may query one index concurrently; build/adopt are main-thread.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/spec.hpp"
#include "dist/dist_plan.hpp"
#include "dist/distributed.hpp"
#include "em/block_device.hpp"
#include "em/context.hpp"
#include "em/em_vector.hpp"
#include "em/io_stats.hpp"
#include "em/stream.hpp"
#include "sort/distribution_sort.hpp"

namespace emsplit {

/// The equi-depth ApproxSpec shared by the histogram app, the load balancer
/// and the index build: K parts, each within [(1-slack), (1+slack)] of N/K,
/// clamped so the spec is always feasible (a <= floor(N/K), b >= ceil(N/K)).
/// Kept bit-for-bit identical to the expressions the apps inlined before the
/// service refactor — their outputs are golden.
inline ApproxSpec equi_depth_spec(std::uint64_t n, std::uint64_t parts,
                                  double slack) {
  const double target = static_cast<double>(n) / static_cast<double>(parts);
  ApproxSpec spec{
      .k = parts,
      .a = slack >= 1.0 ? 0
                        : static_cast<std::uint64_t>((1.0 - slack) * target),
      .b = static_cast<std::uint64_t>((1.0 + slack) * target) + 1};
  spec.a = std::min<std::uint64_t>(spec.a, n / parts);
  spec.b = std::max<std::uint64_t>(spec.b, (n + parts - 1) / parts);
  return spec;
}

/// Exact ranks of arbitrary probe values — #{e in S : e <= probe_j} for all
/// probes — via one counted scan: the batch-side rank engine
/// (apps/range_count.hpp forwards here).  O(N/B + probes) I/Os for up to
/// Θ(M) probes.
template <EmRecord T, typename Less = std::less<T>>
[[nodiscard]] std::vector<std::uint64_t> scan_ranks(Context& ctx,
                                                    const EmVector<T>& data,
                                                    std::vector<T> probes,
                                                    Less less = {}) {
  const std::size_t q = probes.size();
  if (q == 0) return {};
  // Sort probes, remember the inverse permutation.
  std::vector<std::size_t> order(q);
  for (std::size_t i = 0; i < q; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return less(probes[x], probes[y]);
  });
  std::vector<T> sorted_probes(q);
  for (std::size_t i = 0; i < q; ++i) sorted_probes[i] = probes[order[i]];

  // One scan, counting below each probe via binary search per record.
  auto res = ctx.budget().reserve(q * (sizeof(T) + 8));
  std::vector<std::uint64_t> counts(q, 0);
  {
    StreamReader<T> reader(data);
    while (!reader.done()) {
      const T e = reader.next();
      // e contributes to every probe >= e: find the first such probe.
      const auto it = std::lower_bound(
          sorted_probes.begin(), sorted_probes.end(), e,
          [&](const T& p, const T& x) { return less(p, x); });
      const auto j = static_cast<std::size_t>(it - sorted_probes.begin());
      if (j < q) ++counts[j];
    }
  }
  // Prefix-sum: counts[j] currently holds #{e : probe_{j-1} < e <= probe_j}.
  for (std::size_t j = 1; j < q; ++j) counts[j] += counts[j - 1];

  std::vector<std::uint64_t> out(q);
  for (std::size_t i = 0; i < q; ++i) out[order[i]] = counts[i];
  return out;
}

/// One filtered copy: the records of `input` satisfying `keep`, expected to
/// number exactly `k` — the batch-side threshold filter (apps/top_k.hpp
/// forwards here).  `what` labels the count-mismatch diagnostic.
template <EmRecord T, typename Keep>
[[nodiscard]] EmVector<T> filter_exactly(Context& ctx, const EmVector<T>& input,
                                         std::uint64_t k, Keep keep,
                                         const char* what) {
  EmVector<T> out(ctx, static_cast<std::size_t>(k));
  StreamReader<T> reader(input);
  StreamWriter<T> writer(out);
  while (!reader.done()) {
    const T e = reader.next();
    if (keep(e)) writer.push(e);
  }
  writer.finish();
  if (out.size() != k) {
    throw std::logic_error(std::string(what) +
                           ": filter count mismatch (duplicate records? the "
                           "library requires a strict total order)");
  }
  return out;
}

/// A nearly equi-depth histogram: K buckets, bucket i covering
/// (boundary[i-1], boundary[i]] with counted size sizes[i].  (Moved here
/// from apps/histogram.hpp, which re-exports it: the histogram is now also a
/// service query result.)
template <EmRecord T>
struct EquiDepthHistogram {
  std::vector<T> boundaries;           ///< K-1 bucket boundaries (ascending)
  std::vector<std::uint64_t> sizes;    ///< K exact bucket sizes
  std::uint64_t total = 0;             ///< N

  [[nodiscard]] std::size_t buckets() const { return sizes.size(); }

  /// Estimated rank of `x` (midpoint of its bucket's rank range): the
  /// standard equi-depth estimator, error at most half the bucket size.
  template <typename Less = std::less<T>>
  [[nodiscard]] std::uint64_t estimate_rank(const T& x, Less less = {}) const {
    const auto it = std::lower_bound(
        boundaries.begin(), boundaries.end(), x,
        [&](const T& s, const T& v) { return less(s, v); });
    const auto j = static_cast<std::size_t>(it - boundaries.begin());
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < j; ++i) before += sizes[i];
    return before + sizes[j] / 2;
  }

  /// Estimated number of elements in (lo, hi].
  template <typename Less = std::less<T>>
  [[nodiscard]] std::uint64_t estimate_range(const T& lo, const T& hi,
                                             Less less = {}) const {
    const auto rl = estimate_rank(lo, less);
    const auto rh = estimate_rank(hi, less);
    return rh >= rl ? rh - rl : 0;
  }
};

/// The query kinds the service understands — shared by the admission
/// controller, the wire protocol and the trace rows.
enum class QueryKind : std::uint8_t { kRank, kRange, kHistogram, kTopK };

[[nodiscard]] constexpr const char* query_kind_name(QueryKind k) noexcept {
  switch (k) {
    case QueryKind::kRank: return "rank";
    case QueryKind::kRange: return "range";
    case QueryKind::kHistogram: return "histogram";
    case QueryKind::kTopK: return "topk";
  }
  return "?";
}

/// A query's answer plus the I/O it performed: `io.reads` block reads were
/// issued by this query, nothing else moved.  base() sums over any concurrent schedule equal the serial
/// run's — the determinism contract tests assert.
template <typename V>
struct QueryResult {
  V value{};
  IoStats io;
};

/// One served (or rejected) request, as the service records it — the query
/// analogue of PassTrace.  Emitted as a JSON-lines row on the same trace
/// sink the pass engine uses; rows are distinguished by their leading
/// "query" key (pass rows lead with "job"), which is what lets
/// tools/trace_view.py render mixed traces.
struct QueryTrace {
  std::string kind;          ///< query_kind_name(), or "?" for a parse error
  std::uint64_t client = 0;  ///< serving thread / connection id
  std::uint64_t epoch = 0;   ///< index epoch that served the query
  std::string admission;     ///< "admit" | "queued" | "shed" | "error"
  bool ok = false;           ///< answered (false: shed or failed)
  double queue_seconds = 0;  ///< time spent waiting for admission
  double seconds = 0;        ///< total latency, queueing included
  IoStats io;                ///< the query's own I/O (engine-attributed)
  std::uint64_t k = 0;       ///< query parameter (histogram/top-k k)
  std::uint64_t value = 0;   ///< scalar answer (rank/range count), else 0
  std::string detail;        ///< reject reason / error text, else empty
};

/// Thread-safe sink for QueryTrace rows: unlike PassTraceLog (main-thread
/// only), queries complete on N serving threads concurrently.  A resident
/// server records every query, so the log is a fixed ring of the most recent
/// kCapacity rows; older rows are overwritten and counted by dropped().
class QueryTraceLog {
 public:
  static constexpr std::size_t kCapacity = 65536;

  void record(QueryTrace trace);
  /// The retained rows, oldest first.
  [[nodiscard]] std::vector<QueryTrace> snapshot() const;
  /// Rows overwritten since construction or the last reset().
  [[nodiscard]] std::uint64_t dropped() const;
  void reset();

 private:
  mutable std::mutex mu_;
  std::vector<QueryTrace> rows_;  // grows to kCapacity, then a ring
  std::size_t oldest_ = 0;        // ring slot of the oldest row once full
  std::uint64_t dropped_ = 0;
};

/// One QueryTrace as a JSON object (one line, no trailing newline).
[[nodiscard]] std::string query_trace_json(const QueryTrace& t);

/// Append the log's retained rows, oldest first, to `path` as JSON-lines
/// (append, not truncate: the pass engine's rows for the build/refresh passes
/// come first in the same file).  Returns false on any write failure.
bool append_query_trace_jsonl(const QueryTraceLog& log,
                              const std::string& path);

/// BucketScanCache — a compatibility shim with nothing behind it.  A rank
/// reads at most s blocks through the fence table, so no query scans a
/// bucket and there is nothing to cache; SplitterIndex::attach_bucket_cache()
/// ignores what it is handed.  Only the constructor is left, because
/// benchmark/src/serve.cpp compiles against it; the class goes with the next
/// change allowed to touch benchmark/.
template <EmRecord T>
class BucketScanCache {
 public:
  BucketScanCache(MemoryBudget& /*budget*/, std::size_t /*capacity_bytes*/,
                  std::size_t /*chunk_bytes*/, std::uint64_t /*epoch*/) {}
};

template <EmRecord T, typename Less = std::less<T>>
class SplitterIndex {
 public:
  SplitterIndex() = default;

  /// Build the index over `data`: sort into an owned copy, K exact-quantile
  /// buckets, one scan for the bucket maxima and the fence table.  The sort
  /// is the src/dist/ plan whenever dist_fits holds — on ctx.workers()
  /// threaded lanes, or one inline lane at 0 — and classic
  /// distribution_sort when it does not (M below the plan's minimum, or
  /// reservations already held).
  /// Output bytes are the same either way.  `slack` is the equi-depth
  /// tolerance the caller asks for (validated >= 0); a sorted build always
  /// meets it exactly, with bucket sizes floor(N/K) or ceil(N/K).
  static SplitterIndex build(Context& ctx, const EmVector<T>& data,
                             std::uint64_t buckets, double slack = 0.25,
                             Less less = {}) {
    const std::uint64_t n = data.size();
    if (buckets == 0 || buckets > n) {
      throw std::invalid_argument("SplitterIndex: buckets must be in [1, N]");
    }
    if (slack < 0.0) {
      throw std::invalid_argument("SplitterIndex: slack must be >= 0");
    }
    std::vector<std::uint64_t> bounds(static_cast<std::size_t>(buckets) + 1);
    const std::uint64_t q = n / buckets, r = n % buckets;
    for (std::uint64_t i = 0; i <= buckets; ++i) {
      bounds[static_cast<std::size_t>(i)] = i * q + i * r / buckets;
    }
    EmVector<T> sorted =
        dist::dist_fits<T>(ctx, static_cast<std::size_t>(n), 0)
            ? dist::dist_distribution_sort<T, Less>(ctx, data, less)
            : distribution_sort<T, Less>(ctx, data, less);
    return adopt(ctx, std::move(sorted), std::move(bounds), less);
  }

  /// Bind an index over sorted `data` with bucket `bounds` (K+1 strictly
  /// increasing offsets from 0 to N: no bucket is empty) — the build's tail,
  /// and the recovery path over a journaled extent.  One N/B scan fills the
  /// resident tables.
  static SplitterIndex adopt(Context& ctx, EmVector<T> data,
                             std::vector<std::uint64_t> bounds, Less less = {}) {
    if (bounds.size() < 2 || bounds.front() != 0 ||
        bounds.back() != data.size() ||
        std::adjacent_find(bounds.begin(), bounds.end(),
                           std::greater_equal<>()) != bounds.end()) {
      throw std::invalid_argument("SplitterIndex::adopt: malformed bounds");
    }
    SplitterIndex idx;
    idx.ctx_ = &ctx;
    idx.less_ = less;
    idx.data_ = std::move(data);
    idx.bounds_ = std::move(bounds);
    idx.scan_tables();
    return idx;
  }

  [[nodiscard]] bool bound() const noexcept { return ctx_ != nullptr; }
  [[nodiscard]] std::uint64_t size() const noexcept { return bounds_.back(); }
  [[nodiscard]] std::uint64_t buckets() const noexcept {
    return bounds_.size() - 1;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& bounds() const noexcept {
    return bounds_;
  }
  [[nodiscard]] const std::vector<T>& uppers() const noexcept {
    return uppers_;
  }
  /// First record of every fence_stride()-th block of the sorted run.
  [[nodiscard]] const std::vector<T>& fences() const noexcept {
    return fences_;
  }
  /// Blocks between consecutive fences (s): the most blocks a rank reads.
  [[nodiscard]] std::size_t fence_stride() const noexcept { return stride_; }
  [[nodiscard]] EmVector<T>& data() noexcept { return data_; }
  [[nodiscard]] const EmVector<T>& data() const noexcept { return data_; }

  /// No-op: no query scans a bucket, so there is nothing to cache.  Kept for
  /// source compatibility (see BucketScanCache).
  void attach_bucket_cache(std::shared_ptr<BucketScanCache<T>>) {}

  /// Exact rank of `x`: #{e in S : e <= x}.  Reads only the <= s blocks
  /// between the two fences around x; a probe below the minimum or at/above
  /// the maximum costs zero I/Os.
  [[nodiscard]] QueryResult<std::uint64_t> rank(const T& x) const {
    const std::uint64_t n = size();
    if (less_(x, fences_.front())) return {0, IoStats{}};
    if (!less_(x, uppers_.back())) return {n, IoStats{}};
    // fences_[f-1] <= x < fences_[f]: every record before the group is
    // <= x, every record from the next fence on is > x.
    const auto f = static_cast<std::uint64_t>(
        std::upper_bound(fences_.begin(), fences_.end(), x, less_) -
        fences_.begin());
    const std::uint64_t group = stride_ * data_.block_records();
    const std::uint64_t lo = (f - 1) * group;
    const std::uint64_t hi = std::min(n, f * group);
    auto res = ctx_->budget().reserve((hi - lo) * sizeof(T));
    std::vector<T> buf(static_cast<std::size_t>(hi - lo));
    QueryResult<std::uint64_t> out;
    load(lo, buf, out.io);
    out.value = lo + static_cast<std::uint64_t>(
                         std::upper_bound(buf.begin(), buf.end(), x, less_) -
                         buf.begin());
    return out;
  }

  /// Exact |S ∩ (lo, hi]| — the batch RangeQuery semantics.
  [[nodiscard]] QueryResult<std::uint64_t> range_count(const T& lo,
                                                       const T& hi) const {
    const auto rl = rank(lo);
    const auto rh = rank(hi);
    QueryResult<std::uint64_t> out;
    out.value = rh.value >= rl.value ? rh.value - rl.value : 0;
    out.io = rl.io;
    out.io += rh.io;
    return out;
  }

  /// A nearly equi-depth histogram with `k <= buckets()` buckets, by
  /// regrouping index buckets (group i takes buckets [iK/k, (i+1)K/k)).
  /// Sizes are exact at the returned boundaries; zero I/O — this is the
  /// payoff of keeping the routing table resident.
  [[nodiscard]] QueryResult<EquiDepthHistogram<T>> histogram(
      std::uint64_t k) const {
    const std::uint64_t kk = buckets();
    if (k == 0 || k > kk) {
      throw std::invalid_argument(
          "SplitterIndex::histogram: k must be in [1, buckets]");
    }
    QueryResult<EquiDepthHistogram<T>> out;
    out.value.total = size();
    out.value.sizes.reserve(static_cast<std::size_t>(k));
    out.value.boundaries.reserve(static_cast<std::size_t>(k - 1));
    for (std::uint64_t g = 0; g < k; ++g) {
      const auto lo = static_cast<std::size_t>(g * kk / k);
      const auto hi = static_cast<std::size_t>((g + 1) * kk / k);
      out.value.sizes.push_back(bounds_[hi] - bounds_[lo]);
      if (g + 1 < k) out.value.boundaries.push_back(uppers_[hi - 1]);
    }
    return out;
  }

  /// The k largest (or smallest) records, sorted ascending: one contiguous
  /// load of the sorted run's tail (head).
  [[nodiscard]] QueryResult<std::vector<T>> top_k(std::uint64_t k,
                                                  bool largest = true) const {
    const std::uint64_t n = size();
    if (k == 0 || k > n) {
      throw std::invalid_argument("SplitterIndex::top_k: k must be in [1, N]");
    }
    auto res = ctx_->budget().reserve(k * sizeof(T));
    QueryResult<std::vector<T>> out;
    out.value.resize(static_cast<std::size_t>(k));
    load(largest ? n - k : 0, out.value, out.io);
    return out;
  }

  /// Admission estimate: peak working-set bytes a query of `kind` (with
  /// parameter `k` where applicable) will reserve from the budget.  Upper
  /// bound by construction — the controller trades a little utilization for
  /// never admitting a query the engine's own reserve would then throw on.
  /// The extra block covers load_range's staging buffer.
  [[nodiscard]] std::uint64_t footprint_bytes(QueryKind kind,
                                              std::uint64_t k = 0) const {
    const std::uint64_t block = ctx_->block_bytes();
    switch (kind) {
      case QueryKind::kRank:
      case QueryKind::kRange:  // the two ranks are serial
        return (stride_ + 1) * block;
      case QueryKind::kHistogram: return k * (sizeof(T) + 8);
      case QueryKind::kTopK: return k * sizeof(T) + block;
    }
    return (stride_ + 1) * block;
  }

 private:
  /// Load records [first, first + out.size()) of the sorted run through the
  /// device; charges the blocks touched to `io` as reads.
  void load(std::uint64_t first, std::span<T> out, IoStats& io) const {
    const std::uint64_t per = data_.block_records();
    load_range<T>(data_, static_cast<std::size_t>(first), out);
    io.reads += (first + out.size() - 1) / per - first / per + 1;
  }

  /// One N/B scan of the sorted run: each bucket's maximum, and the first
  /// record of every s-th block, s the smallest power of two for which the
  /// fence table fits in M/16.  The table's bytes stay charged to the
  /// budget for the index's lifetime.
  void scan_tables() {
    const std::uint64_t n = size();
    const std::uint64_t per = data_.block_records();
    const std::uint64_t blocks = (n + per - 1) / per;
    const std::uint64_t cap = ctx_->mem_bytes() / 16;
    stride_ = 1;
    while ((blocks + stride_ - 1) / stride_ * sizeof(T) > cap) stride_ *= 2;
    const std::uint64_t nfences = (blocks + stride_ - 1) / stride_;
    fences_charge_ = ctx_->budget().reserve(nfences * sizeof(T));
    fences_.clear();
    fences_.reserve(static_cast<std::size_t>(nfences));
    uppers_.assign(static_cast<std::size_t>(buckets()), T{});
    const std::uint64_t group = stride_ * per;
    StreamReader<T> reader(data_);
    std::size_t j = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const T e = reader.next();
      if (i % group == 0) fences_.push_back(e);
      if (i + 1 == bounds_[j + 1]) uppers_[j++] = e;
    }
  }

  Context* ctx_ = nullptr;
  Less less_{};
  EmVector<T> data_;                   ///< the sorted run
  std::vector<std::uint64_t> bounds_;  ///< K+1 record offsets
  std::vector<T> uppers_;              ///< K per-bucket maxima (resident)
  std::vector<T> fences_;              ///< first record of every s-th block
  std::uint64_t stride_ = 1;           ///< s, blocks per fence
  MemoryReservation fences_charge_;    ///< the fence table's budget bytes
};

}  // namespace emsplit
