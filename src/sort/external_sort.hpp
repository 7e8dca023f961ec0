// external_sort.hpp — classic external merge sort.
//
// Aggarwal & Vitter's optimal sorting algorithm and this repository's
// universal baseline: every problem in the paper can be solved by sorting in
// Θ((N/B) log_{M/B}(N/B)) I/Os, and every experiment compares against it.
//
//  * Run formation: load chunks of `run_records` (default: all of M that the
//    budget can hold beyond the stream buffers), sort in memory, write runs.
//  * Merge passes: loser-tree merges of fan-in f = M/B - 1 (one reader buffer
//    per run plus one writer buffer) until a single run remains, ping-ponging
//    between two scratch vectors.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "em/checkpoint.hpp"
#include "em/context.hpp"
#include "em/pass_engine.hpp"
#include "em/em_vector.hpp"
#include "em/stream.hpp"
#include "sort/branchless_sort.hpp"
#include "sort/loser_tree.hpp"
#include "sort/replacement_selection.hpp"

namespace emsplit {

/// Adapter giving StreamReader the MergeCursor interface over a record range.
template <EmRecord T>
class ReaderCursor {
 public:
  ReaderCursor(const EmVector<T>& vec, std::size_t first, std::size_t last)
      : reader_(vec, first, last) {}

  [[nodiscard]] bool done() const { return reader_.done(); }
  [[nodiscard]] const T& peek() { return reader_.peek(); }
  void advance() { (void)reader_.next(); }

 private:
  StreamReader<T> reader_;
};

namespace detail {

/// Run boundaries: runs[i] = [offsets[i], offsets[i+1]) within a vector.
using RunOffsets = std::vector<std::size_t>;

/// Phase 1 — split `input` into sorted runs written to a fresh vector.
///
/// Runs are produced through a StreamReader/StreamWriter pair: chunk i is
/// loaded, sorted and streamed out before chunk i + 1 is read.  The chunk
/// size is M minus the two stream footprints — at the default tuning that
/// is the classic M - 2B, so the default path reproduces the seed's run
/// geometry and I/O counts exactly.
template <EmRecord T, typename Less>
std::pair<EmVector<T>, RunOffsets> form_runs(Context& ctx,
                                             const EmVector<T>& input,
                                             Less less) {
  const std::size_t b = ctx.block_records<T>();
  const std::size_t mem = ctx.mem_records<T>();
  const std::size_t sb = ctx.stream_blocks() * b;  // one stream's records
  EmVector<T> runs(ctx, input.size());
  RunOffsets offsets{0};
  if (mem < 2 * sb + b) {
    // Degenerate tuning: the stream pair leaves no room for even a block of
    // chunk.  Fall back to the bulk load/sort/store path (chunk M - 2B, one
    // transfer buffer at a time), which needs no stream footprints.
    const std::size_t chunk = std::max<std::size_t>(b, mem - 2 * b);
    auto chunk_res = ctx.budget().reserve(chunk * sizeof(T));
    std::vector<T> buf(chunk);
    for (std::size_t first = 0; first < input.size(); first += chunk) {
      const std::size_t len = std::min(chunk, input.size() - first);
      const auto span = std::span<T>(buf).subspan(0, len);
      load_range<T>(input, first, span);
      branchless_sort(span, less);
      store_range<T>(runs, first, span);
      offsets.push_back(first + len);
    }
  } else {
    const std::size_t chunk = mem - 2 * sb;
    auto chunk_res = ctx.budget().reserve(chunk * sizeof(T));
    std::vector<T> buf(chunk);
    StreamReader<T> reader(input);
    StreamWriter<T> writer(runs);
    while (!reader.done()) {
      const std::size_t len = std::min(chunk, reader.remaining());
      std::size_t got = 0;
      while (got < len) {
        const std::span<const T> sp = reader.peek_span();
        const std::size_t take = std::min(sp.size(), len - got);
        std::copy_n(sp.data(), take, buf.data() + got);
        reader.consume(take);
        got += take;
      }
      const auto span = std::span<T>(buf).first(len);
      branchless_sort(span, less);
      for (const T& v : span) writer.push(v);
      offsets.push_back(offsets.back() + len);
    }
    writer.finish();
  }
  runs.set_size(input.size());
  if (input.empty()) offsets.push_back(0);
  return {std::move(runs), std::move(offsets)};
}

/// One merge pass: groups of up to `fan_in` consecutive runs each become one
/// output run.
template <EmRecord T, typename Less>
std::pair<EmVector<T>, RunOffsets> merge_pass(Context& ctx,
                                              const EmVector<T>& runs,
                                              const RunOffsets& offsets,
                                              std::size_t fan_in, Less less) {
  EmVector<T> out(ctx, runs.size());
  RunOffsets out_offsets{0};
  StreamWriter<T> writer(out);
  const std::size_t num_runs = offsets.size() - 1;
  for (std::size_t group = 0; group < num_runs; group += fan_in) {
    const std::size_t last_run = std::min(group + fan_in, num_runs);
    std::vector<ReaderCursor<T>> cursors;
    cursors.reserve(last_run - group);
    for (std::size_t r = group; r < last_run; ++r) {
      cursors.emplace_back(runs, offsets[r], offsets[r + 1]);
    }
    LoserTree<T, ReaderCursor<T>, Less> tree(std::move(cursors), less);
    while (!tree.done()) writer.push(tree.next());
    out_offsets.push_back(writer.count());
  }
  writer.finish();
  return {std::move(out), std::move(out_offsets)};
}

}  // namespace detail

/// How the initial sorted runs are produced.
enum class RunStrategy {
  kChunkSort,             ///< sort M-record chunks in memory (runs of M)
  kReplacementSelection,  ///< snow-plow heap (runs ~2M on random input)
};

namespace detail {

/// Job fingerprint for the sort checkpoint: digests everything that shapes
/// the pass structure, so journaled state is only resumed by the identical
/// job (same data size, record type, geometry and run strategy).
template <EmRecord T>
std::uint64_t sort_fingerprint(const Context& ctx, std::size_t n,
                               RunStrategy strategy) {
  std::uint64_t h = fingerprint_mix(kFingerprintSeed, 0x50525453);  // "SRTS"
  h = fingerprint_mix(h, n);
  h = fingerprint_mix(h, sizeof(T));
  h = fingerprint_mix(h, ctx.block_records<T>());
  h = fingerprint_mix(h, ctx.stream_blocks());
  h = fingerprint_mix(h, ctx.mem_records<T>());
  h = fingerprint_mix(h, static_cast<std::uint64_t>(strategy));
  return h;
}

}  // namespace detail

/// Sort `input` into a new vector in Θ((N/B) log_{M/B}(N/B)) I/Os.
/// The input vector is left untouched.
///
/// The pass lifecycle lives in the pass engine (em/pass_engine.hpp): the
/// PassChain owns the journal resume / ExtentGuard publish / final take of
/// every pass, and the PassRunner wraps each pass body in the uniform
/// trace + profile envelope.  With a CheckpointJournal attached to the
/// context, every completed pass (run formation, then each merge pass) is
/// published, and a rerun of the identical job resumes from the last
/// published pass with bit-identical output — a crash repays only the
/// interrupted pass's I/Os.  Without a journal the chain degrades to plain
/// moves: exactly the seed code path.  Pass contents are deterministic given
/// (runs, offsets), which is what makes a resumed run bit-identical.
template <EmRecord T, typename Less = std::less<T>>
[[nodiscard]] EmVector<T> external_sort(
    Context& ctx, const EmVector<T>& input, Less less = {},
    RunStrategy strategy = RunStrategy::kChunkSort) {
  const std::size_t b = ctx.block_records<T>();
  // Every stream buffers stream_blocks() blocks (one batch), so the fan-in
  // shrinks accordingly: f readers plus one writer must fit in M.
  const std::size_t s = ctx.stream_blocks();
  const std::size_t fan_in =
      std::max<std::size_t>(2, ctx.mem_records<T>() / (b * s) - 1);

  PassRunner runner(
      ctx, {"sort", detail::sort_fingerprint<T>(ctx, input.size(), strategy)});
  PassChain<T> chain(runner, "sort/resume");
  if (!chain.resumed()) {
    auto [formed, offsets] = runner.run("sort/run-formation", [&] {
      return strategy == RunStrategy::kReplacementSelection
                 ? detail::form_runs_replacement<T>(ctx, input, less)
                 : detail::form_runs<T>(ctx, input, less);
    });
    chain.install(std::move(formed), std::move(offsets));
  }
  while (chain.offsets().size() - 1 > 1) {
    auto [next, next_offsets] = runner.run("sort/merge-pass", [&] {
      return detail::merge_pass<T>(ctx, chain.data(), chain.offsets(), fan_in,
                                   less);
    });
    chain.install(std::move(next), std::move(next_offsets));
  }
  return chain.take();
}

/// True iff `vec` is sorted under `less` (one scan).
template <EmRecord T, typename Less = std::less<T>>
[[nodiscard]] bool is_sorted_em(const EmVector<T>& vec, Less less = {}) {
  if (vec.size() < 2) return true;
  StreamReader<T> r(vec);
  T prev = r.next();
  while (!r.done()) {
    T cur = r.next();
    if (less(cur, prev)) return false;
    prev = cur;
  }
  return true;
}

/// Theoretical I/O-count formulas used throughout the bench harness.
/// `sort_ios` is the textbook 2*(N/B)*(1 + ceil(log_f(runs))) shape.
namespace formulas {

/// ceil(log_base(x)) for x >= 1, clamped to >= 1 (the paper's lg convention).
inline double lg_clamped(double base, double x) {
  if (x <= 1.0 || base <= 1.0) return 1.0;
  const double v = std::log(x) / std::log(base);
  return std::max(1.0, v);
}

/// Θ((n/b) lg_{m/b}(n/b)) — external sorting / the trivial baseline.
inline double sort_ios(double n, double m, double b) {
  if (n <= 0) return 0;
  return (n / b) * lg_clamped(m / b, n / b);
}

}  // namespace formulas

}  // namespace emsplit
