// splitter_index.hpp — the resident query engine over a splitter partition.
//
// The batch apps (range_count, histogram, top_k, load_balance) each rebuilt
// their query machinery per invocation: one CLI job, one scan, exit.  The
// paper's point — approximate splitters are *cheaper to build than a sort* —
// only pays off when the partition they produce is then *queried*, so this
// module turns one approx_partitioning result into a long-lived index:
//
//   * build(): one approximate equi-depth partitioning (K buckets, sizes in
//     [(1-slack), (1+slack)] N/K) plus one N/B scan recording each bucket's
//     maximum.  The buckets are order-contiguous, so the maxima form a
//     memory-resident routing table over the external data.
//   * rank(x): binary-search the maxima for the one bucket that can contain
//     x's rank boundary, then scan just that bucket — O(lg K) compares plus
//     O((N/K)/B + 1) I/Os, *exact* (strict total order: every bucket before
//     the straddled one lies entirely <= x, every bucket after entirely > x).
//   * range_count(a, b]: two ranks.
//   * histogram(k <= K): regroup the index buckets — exact sizes, zero I/O.
//   * top_k(k): whole tail (or head) buckets plus an nth_element over the
//     single straddled bucket — O(k/B + (N/K)/B) I/Os.
//
// Per-query I/O accounting: queries run concurrently from many client
// threads, so a query cannot diff the device's shared counters.  Instead
// each query counts the block reads it issues (deterministic — the set of
// blocks a query touches is a function of the index geometry, never of
// concurrent load) and attributes cache hits exactly via the device's
// thread-confined hit counter (BlockDevice::take_thread_cache_hits).  The
// sum of per-query base I/O over any schedule equals the serial run's — the
// service-layer analogue of "geometry, never output".
//
// Thread-safety: every query method is const and touches only immutable
// index state plus the device's internally synchronized transfer path (and
// the internally synchronized BucketScanCache when one is attached).  N
// threads may query one index concurrently; build/adopt/attach_bucket_cache
// are main-thread.
//
// BucketScanCache (below) is the query hot path's second cache level: decoded
// bucket payloads keyed to one index epoch, single-flight loaded, retired
// atomically when the next epoch publishes.  Hits are charged as the same
// geometric reads a device scan would cost (IoStats::bucket_hits attribution),
// so the cache is geometry, never output.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/partitioning.hpp"
#include "core/spec.hpp"
#include "em/block_device.hpp"
#include "em/context.hpp"
#include "em/em_vector.hpp"
#include "em/io_stats.hpp"
#include "em/stream.hpp"

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
/// issued by this query (cache_hits of them served from the cache), nothing
/// else moved.  base() sums over any concurrent schedule equal the serial
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

/// BucketScanCache — epoch-keyed decoded-bucket payload cache for the query
/// hot path (docs/model.md, "The query hot path").
///
/// One instance serves exactly one published index epoch: the server creates
/// it at publish time, attaches it to that epoch's SplitterIndex, and calls
/// retire() the moment the *next* epoch publishes — so a payload can never
/// outlive the epoch whose bytes it decodes, and a query that pinned epoch E
/// only ever sees E's cache (the kill-mid-refresh sweep asserts cache-hit
/// epoch == reply epoch per query).
///
/// Like BlockCache, the cache is invisible to the cost model: a hit is still
/// charged as the bucket's geometric block reads (IoStats::reads), attributed
/// separately as IoStats::bucket_hits, so per-query base I/O with the cache
/// on is bit-identical to the uncached run.  Memory is chunk-reserved from
/// the MemoryBudget (try_reserve, never reclaiming from peers) and shed back
/// through shed() — the server registers a budget reclaimer that forwards to
/// the current epoch's cache, so algorithm reservations (a refresh build)
/// push the cache out before they are refused.
///
/// Scan sharing: lookup() is single-flight.  The first thread to miss a
/// bucket becomes its *loader* (scans the device, publishes the payload);
/// concurrent queries straddling the same bucket wait on the condvar and are
/// served the loader's payload as a coalesced hit — one device scan, N
/// answers, every query still charged its own geometric reads.
///
/// All methods are thread-safe (one internal mutex).  Payloads are handed
/// out as shared_ptr so retirement/eviction never invalidates a scan in
/// flight.
template <EmRecord T>
class BucketScanCache {
 public:
  /// What lookup() resolved to.  Exactly one of three shapes: `payload` set
  /// (hit — `coalesced` when a concurrent loader produced it while we
  /// waited), `loader` true (caller must scan the device and then publish()
  /// or abort_load()), or neither (cache disabled/retired: plain device
  /// scan, no cache interaction).
  struct Lookup {
    std::shared_ptr<const std::vector<T>> payload;
    bool loader = false;
    bool coalesced = false;
  };

  /// A cache of up to `capacity_bytes` of decoded payloads for `epoch`,
  /// charged against `budget` in `chunk_bytes` reservations.  If the budget
  /// cannot spare even one chunk now, the cache disables itself permanently
  /// (queries then scan the device, answers unchanged).
  BucketScanCache(MemoryBudget& budget, std::size_t capacity_bytes,
                  std::size_t chunk_bytes, std::uint64_t epoch)
      : budget_(budget),
        capacity_bytes_(capacity_bytes),
        chunk_bytes_(std::max<std::size_t>(
            1, std::min(chunk_bytes, std::max<std::size_t>(1, capacity_bytes)))),
        epoch_(epoch) {
    if (capacity_bytes_ == 0) return;
    auto probe = budget_.try_reserve(chunk_bytes_, /*allow_reclaim=*/false);
    if (!probe) return;
    chunks_.push_back(std::move(*probe));
    enabled_.store(true, std::memory_order_release);
  }

  BucketScanCache(const BucketScanCache&) = delete;
  BucketScanCache& operator=(const BucketScanCache&) = delete;

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_acquire);
  }
  /// The index epoch this cache serves — fixed for life; hits can only ever
  /// carry this epoch.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// Single-flight bucket lookup (see Lookup).  May block while another
  /// thread loads the same bucket.
  [[nodiscard]] Lookup lookup(std::size_t bucket) {
    std::unique_lock<std::mutex> lk(mu_);
    bool waited = false;
    for (;;) {
      if (!enabled_.load(std::memory_order_relaxed)) return {};
      const auto it = map_.find(bucket);
      if (it != map_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        hits_.fetch_add(1, std::memory_order_relaxed);
        if (waited) coalesced_.fetch_add(1, std::memory_order_relaxed);
        return {it->second->payload, /*loader=*/false, /*coalesced=*/waited};
      }
      if (loading_.insert(bucket).second) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return {nullptr, /*loader=*/true, /*coalesced=*/false};
      }
      waited = true;
      cv_.wait(lk);
    }
  }

  /// Loader hand-off: insert the decoded payload (evicting LRU entries /
  /// growing by chunks as the budget allows — on no room the payload is
  /// simply dropped) and wake the bucket's waiters.
  void publish(std::size_t bucket, std::shared_ptr<const std::vector<T>> payload) {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      loading_.erase(bucket);
      const std::size_t bytes = payload->size() * sizeof(T);
      if (enabled_.load(std::memory_order_relaxed) && bytes > 0 &&
          bytes <= capacity_bytes_ && make_room_locked(bytes)) {
        lru_.push_front(Entry{bucket, bytes, std::move(payload)});
        map_[bucket] = lru_.begin();
        used_bytes_ += bytes;
      }
    }
    cv_.notify_all();
  }

  /// Loader backed out (budget declined the payload buffer, or the scan
  /// threw): drop the marker so a waiter can take over.  Idempotent.
  void abort_load(std::size_t bucket) {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      loading_.erase(bucket);
    }
    cv_.notify_all();
  }

  /// Retire the whole cache atomically: the epoch was superseded.  Drops
  /// every entry and marker, returns every budget chunk, disables the cache
  /// permanently and wakes all waiters (they fall back to the device —
  /// queries still in flight on the old epoch stay correct, just uncached).
  void retire() {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      enabled_.store(false, std::memory_order_release);
      map_.clear();
      lru_.clear();
      loading_.clear();
      used_bytes_ = 0;
      chunks_.clear();
    }
    cv_.notify_all();
  }

  /// MemoryBudget reclaimer entry (forwarded by the server): evict LRU
  /// entries until whole chunks idle, return them, report bytes released.
  std::size_t shed(std::size_t bytes_needed) {
    const std::lock_guard<std::mutex> lk(mu_);
    std::size_t freed = 0;
    while (freed < bytes_needed && !chunks_.empty()) {
      while (used_bytes_ + chunk_bytes_ > granted_bytes() &&
             evict_tail_locked()) {
      }
      if (used_bytes_ + chunk_bytes_ > granted_bytes()) break;
      chunks_.pop_back();
      freed += chunk_bytes_;
    }
    return freed;
  }

  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }
  /// Lookups that waited out a concurrent loader and were then served its
  /// payload — the scan-sharing counter (a subset of hits()).
  [[nodiscard]] std::uint64_t coalesced() const noexcept {
    return coalesced_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return evictions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t resident_bytes() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return used_bytes_;
  }

 private:
  struct Entry {
    std::size_t bucket = 0;
    std::size_t bytes = 0;
    std::shared_ptr<const std::vector<T>> payload;
  };
  using Lru = std::list<Entry>;  // front = most recent

  [[nodiscard]] std::size_t granted_bytes() const {
    return chunks_.size() * chunk_bytes_;
  }

  bool evict_tail_locked() {
    if (lru_.empty()) return false;
    const Entry& victim = lru_.back();
    used_bytes_ -= victim.bytes;
    map_.erase(victim.bucket);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Make `bytes` of room under the capacity cap: grow by chunks while the
  /// budget grants them (never reclaiming from peers — a scavenger does not
  /// steal), else evict LRU entries.
  bool make_room_locked(std::size_t bytes) {
    while (used_bytes_ + bytes > capacity_bytes_ && evict_tail_locked()) {
    }
    if (used_bytes_ + bytes > capacity_bytes_) return false;
    for (;;) {
      if (used_bytes_ + bytes <= granted_bytes()) return true;
      auto grown = budget_.try_reserve(chunk_bytes_, /*allow_reclaim=*/false);
      if (grown) {
        chunks_.push_back(std::move(*grown));
        continue;
      }
      if (!evict_tail_locked()) return false;
    }
  }

  MemoryBudget& budget_;
  const std::size_t capacity_bytes_;
  const std::size_t chunk_bytes_;
  const std::uint64_t epoch_;
  std::atomic<bool> enabled_{false};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Lru lru_;
  std::map<std::size_t, typename Lru::iterator> map_;  // bucket -> entry
  std::set<std::size_t> loading_;  // buckets with a loader in flight
  std::vector<MemoryReservation> chunks_;
  std::size_t used_bytes_ = 0;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

template <EmRecord T, typename Less = std::less<T>>
class SplitterIndex {
 public:
  SplitterIndex() = default;

  /// Build the index over `data`: one approximate equi-depth partitioning
  /// into `buckets` buckets (sizes within `slack` of N/K) plus one scan for
  /// the per-bucket maxima.  `data` is consumed logically, not physically —
  /// the index owns its own partitioned copy.
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
    auto part = approx_partitioning<T, Less>(
        ctx, data, equi_depth_spec(n, buckets, slack), less);
    return from_partitioning(ctx, std::move(part), less);
  }

  /// Wrap an existing partitioning (bounds + partitioned data) as an index:
  /// one scan computes the maxima.  The partitioning's data is adopted.
  static SplitterIndex from_partitioning(Context& ctx,
                                         ApproxPartitioning<T> part,
                                         Less less = {}) {
    SplitterIndex idx;
    idx.ctx_ = &ctx;
    idx.less_ = less;
    idx.data_ = std::move(part.data);
    idx.bounds_ = std::move(part.bounds);
    idx.scan_uppers();
    return idx;
  }

  /// Re-bind an index over storage recovered from the checkpoint journal:
  /// `data` is a (typically non-owning) vector over the published extent,
  /// `bounds`/`uppers` were decoded from the journal payload.  No I/O.
  static SplitterIndex adopt(Context& ctx, EmVector<T> data,
                             std::vector<std::uint64_t> bounds,
                             std::vector<T> uppers, Less less = {}) {
    SplitterIndex idx;
    idx.ctx_ = &ctx;
    idx.less_ = less;
    idx.data_ = std::move(data);
    idx.bounds_ = std::move(bounds);
    idx.uppers_ = std::move(uppers);
    if (idx.bounds_.size() < 2 || idx.uppers_.size() + 1 != idx.bounds_.size()) {
      throw std::invalid_argument("SplitterIndex::adopt: malformed bounds");
    }
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
  [[nodiscard]] EmVector<T>& data() noexcept { return data_; }
  [[nodiscard]] const EmVector<T>& data() const noexcept { return data_; }

  /// Attach this epoch's bucket-scan cache (main-thread, before queries are
  /// served on this index); nullptr detaches.  The cache's own epoch tag is
  /// the caller's responsibility to match the epoch this index serves.
  void attach_bucket_cache(std::shared_ptr<BucketScanCache<T>> cache) {
    bucket_cache_ = std::move(cache);
  }
  [[nodiscard]] const std::shared_ptr<BucketScanCache<T>>& bucket_cache()
      const noexcept {
    return bucket_cache_;
  }

  /// Exact rank of `x`: #{e in S : e <= x}.  Scans only the straddled
  /// bucket; a probe above the global maximum (or below everything) costs
  /// zero I/Os.
  [[nodiscard]] QueryResult<std::uint64_t> rank(const T& x) const {
    // First bucket whose maximum is >= x: buckets before it are entirely
    // <= x (their maxima are < x), buckets after entirely > x (their
    // elements exceed this bucket's maximum, which is >= x).
    const auto it =
        std::lower_bound(uppers_.begin(), uppers_.end(), x,
                         [&](const T& u, const T& v) { return less_(u, v); });
    const auto j = static_cast<std::size_t>(it - uppers_.begin());
    if (j == buckets()) return {size(), IoStats{}};
    QueryResult<std::uint64_t> out;
    out.value = bounds_[j];
    scan_bucket(j, [&](const T& e) {
      if (!less_(x, e)) ++out.value;  // e <= x
    }, out.io);
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

  /// The k largest (or smallest) records, sorted ascending.  Whole tail
  /// (head) buckets are appended outright; the one straddled bucket is
  /// loaded and cut with nth_element.
  [[nodiscard]] QueryResult<std::vector<T>> top_k(std::uint64_t k,
                                                  bool largest = true) const {
    const std::uint64_t n = size();
    if (k == 0 || k > n) {
      throw std::invalid_argument("SplitterIndex::top_k: k must be in [1, N]");
    }
    QueryResult<std::vector<T>> out;
    out.value.reserve(static_cast<std::size_t>(k));
    auto res = ctx_->budget().reserve(k * sizeof(T));
    const std::uint64_t kk = buckets();
    std::uint64_t need = k;
    if (largest) {
      std::size_t j = static_cast<std::size_t>(kk);
      while (j > 0 && need >= bucket_size(j - 1)) {
        --j;
        need -= take_bucket(j, out.value, out.io);
      }
      if (need > 0) cut_bucket(j - 1, need, /*largest=*/true, out.value, out.io);
    } else {
      std::size_t j = 0;
      while (j < kk && need >= bucket_size(j)) {
        need -= take_bucket(j, out.value, out.io);
        ++j;
      }
      if (need > 0) cut_bucket(j, need, /*largest=*/false, out.value, out.io);
    }
    std::sort(out.value.begin(), out.value.end(), less_);
    return out;
  }

  /// Admission estimate: peak working-set bytes a query of `kind` (with
  /// parameter `k` where applicable) will reserve from the budget.  Upper
  /// bound by construction — the controller trades a little utilization for
  /// never admitting a query the engine's own reserve would then throw on.
  [[nodiscard]] std::uint64_t footprint_bytes(QueryKind kind,
                                              std::uint64_t k = 0) const {
    const std::uint64_t chunk =
        chunk_blocks() * ctx_->block_bytes() + max_bucket_bytes();
    switch (kind) {
      case QueryKind::kRank: return chunk;
      case QueryKind::kRange: return chunk;  // the two rank scans are serial
      case QueryKind::kHistogram: return k * (sizeof(T) + 8);
      case QueryKind::kTopK: return k * sizeof(T) + chunk;
    }
    return chunk;
  }

 private:
  [[nodiscard]] std::uint64_t bucket_size(std::size_t j) const {
    return bounds_[j + 1] - bounds_[j];
  }

  [[nodiscard]] std::uint64_t max_bucket_bytes() const {
    std::uint64_t mx = 0;
    for (std::size_t j = 0; j < buckets(); ++j) {
      mx = std::max(mx, bucket_size(j));
    }
    return mx * sizeof(T);
  }

  [[nodiscard]] std::size_t chunk_blocks() const {
    return std::max<std::size_t>(1, ctx_->io_tuning().batch_blocks);
  }

  /// Visit every record of bucket `j`, serving from the epoch's bucket-scan
  /// cache when one is attached, else scanning the device.  Per-query reads
  /// are geometry either way: a cache hit charges the same block count the
  /// device scan would (attributed as IoStats::bucket_hits), so base() sums
  /// are identical with the cache on or off.  Cache misses make this thread
  /// the bucket's single-flight loader: it scans the device once, answers
  /// its own query from the scan, and publishes the decoded payload for the
  /// bucket's waiters (scan sharing) and later queries.
  template <typename Visit>
  void scan_bucket(std::size_t j, Visit visit, IoStats& io) const {
    const std::uint64_t lo = bounds_[j], hi = bounds_[j + 1];
    if (lo == hi) return;
    BucketScanCache<T>* cache = bucket_cache_.get();
    if (cache != nullptr && cache->enabled()) {
      auto l = cache->lookup(j);
      if (l.payload != nullptr) {
        const std::size_t per = data_.block_records();
        const std::uint64_t nb = (hi - 1) / per - lo / per + 1;
        io.reads += nb;
        io.bucket_hits += nb;
        for (const T& e : *l.payload) visit(e);
        return;
      }
      if (l.loader) {
        bool cached = false;
        try {
          // The payload buffer is optional state: charged like any other
          // reservation, but a decline degrades to a plain scan instead of
          // shedding the query.
          auto res = ctx_->budget().try_reserve(bucket_size(j) * sizeof(T),
                                                /*allow_reclaim=*/false);
          if (res) {
            auto payload = std::make_shared<std::vector<T>>();
            payload->reserve(static_cast<std::size_t>(bucket_size(j)));
            scan_bucket_device(j, [&](const T& e) {
              payload->push_back(e);
              visit(e);
            }, io);
            cache->publish(j, std::move(payload));
            cached = true;
          }
        } catch (...) {
          cache->abort_load(j);
          throw;
        }
        if (cached) return;
        cache->abort_load(j);
      }
      // Not a loader and no payload: the cache was retired mid-wait.
    }
    scan_bucket_device(j, visit, io);
  }

  /// The device path of scan_bucket: read bucket `j`'s blocks in counted
  /// batches through the device (and so through the block cache); charges
  /// the reads and the thread's cache hits to `io`.
  template <typename Visit>
  void scan_bucket_device(std::size_t j, Visit visit, IoStats& io) const {
    const std::size_t per = data_.block_records();
    const std::uint64_t lo = bounds_[j], hi = bounds_[j + 1];
    if (lo == hi) return;
    const std::size_t first_block = static_cast<std::size_t>(lo / per);
    const std::size_t last_block = static_cast<std::size_t>((hi - 1) / per);
    // Multi-block batches need records to tile blocks exactly.
    const std::size_t batch =
        data_.contiguous_layout() ? chunk_blocks() : std::size_t{1};
    auto res = ctx_->budget().reserve(batch * ctx_->block_bytes());
    std::vector<T> buf(batch * per);
    (void)BlockDevice::take_thread_cache_hits();  // clear stale tally
    for (std::size_t b = first_block; b <= last_block;) {
      const std::size_t nb = std::min(batch, last_block - b + 1);
      data_.read_blocks(b, nb, std::span<T>(buf.data(), nb * per));
      io.reads += nb;
      // Records of this batch that fall inside [lo, hi).
      const std::uint64_t base = static_cast<std::uint64_t>(b) * per;
      const std::uint64_t r0 = std::max<std::uint64_t>(base, lo);
      const std::uint64_t r1 = std::min<std::uint64_t>(base + nb * per, hi);
      for (std::uint64_t r = r0; r < r1; ++r) {
        visit(buf[static_cast<std::size_t>(r - base)]);
      }
      b += nb;
    }
    const std::uint64_t hits = BlockDevice::take_thread_cache_hits();
    io.cache_hits += hits;
    io.cache_misses += io.reads >= hits ? io.reads - hits : 0;
  }

  /// Append all of bucket `j` to `out`; returns its size.
  std::uint64_t take_bucket(std::size_t j, std::vector<T>& out,
                            IoStats& io) const {
    scan_bucket(j, [&](const T& e) { out.push_back(e); }, io);
    return bucket_size(j);
  }

  /// Append the `need` largest (or smallest) records of bucket `j`.
  void cut_bucket(std::size_t j, std::uint64_t need, bool largest,
                  std::vector<T>& out, IoStats& io) const {
    std::vector<T> bucket;
    bucket.reserve(static_cast<std::size_t>(bucket_size(j)));
    auto res = ctx_->budget().reserve(bucket_size(j) * sizeof(T));
    scan_bucket(j, [&](const T& e) { bucket.push_back(e); }, io);
    const auto nth = static_cast<std::ptrdiff_t>(
        largest ? bucket.size() - need : need);
    std::nth_element(bucket.begin(), bucket.begin() + nth, bucket.end(),
                     less_);
    if (largest) {
      out.insert(out.end(), bucket.begin() + nth, bucket.end());
    } else {
      out.insert(out.end(), bucket.begin(), bucket.begin() + nth);
    }
  }

  /// One N/B scan recording each bucket's maximum (build-time only).
  void scan_uppers() {
    uppers_.assign(static_cast<std::size_t>(buckets()), T{});
    StreamReader<T> reader(data_);
    std::size_t j = 0;
    std::uint64_t i = 0;
    bool first_in_bucket = true;
    while (!reader.done()) {
      const T e = reader.next();
      while (i >= bounds_[j + 1]) {
        ++j;
        first_in_bucket = true;
      }
      if (first_in_bucket || less_(uppers_[j], e)) {
        uppers_[j] = e;
        first_in_bucket = false;
      }
      ++i;
    }
    // Empty buckets (possible under left-grounded padding) inherit the
    // previous bucket's maximum so lower_bound routing stays monotone.
    for (std::size_t b = 1; b < uppers_.size(); ++b) {
      if (bounds_[b] == bounds_[b + 1]) uppers_[b] = uppers_[b - 1];
    }
  }

  Context* ctx_ = nullptr;
  Less less_{};
  EmVector<T> data_;                  ///< bucket-partitioned records
  std::vector<std::uint64_t> bounds_;  ///< K+1 record offsets
  std::vector<T> uppers_;              ///< K per-bucket maxima (resident)
  std::shared_ptr<BucketScanCache<T>> bucket_cache_;  ///< this epoch's, or null
};

}  // namespace emsplit
