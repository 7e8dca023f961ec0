// percentile_monitor — a resident latency monitor over an on-disk log.
//
//   ./percentile_monitor [n]
//
// A latency log too large for memory needs its SLO percentiles every
// reporting period.  The batch answer (one multi-selection per period)
// re-reads the whole log each tick; the service answer builds a
// SplitterIndex once — a distribution-sorted run with a resident fence
// table — and then each tick's questions cost a few block reads: "what
// percentile is the 250us SLO at?" is a rank, at most s reads (s blocks
// per fence), and "who are the worst ten?" reads one contiguous tail of the
// run.  This example measures both.
#include <cinttypes>
#include <cstdio>

#include "core/api.hpp"
#include "service/splitter_index.hpp"

using namespace emsplit;

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                 : (1u << 20);

  MemoryBlockDevice dev(4096);
  Context ctx(dev, 1u << 18);
  // Zipfian "latencies": a few hot values plus a long tail.
  auto host = make_workload(Workload::kZipfian, n, /*seed=*/11,
                            ctx.block_records<Record>(), /*distinct=*/100000);
  EmVector<Record> log = materialize<Record>(ctx, host);

  // --- Batch baseline: one multi-selection per reporting period. ---------
  const std::vector<double> percentiles{0.50, 0.90, 0.99, 0.999};
  std::vector<std::uint64_t> ranks;
  for (const double p : percentiles) {
    ranks.push_back(std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(p * static_cast<double>(n))));
  }
  dev.reset_stats();
  auto batched = multi_select<Record>(ctx, log, ranks);
  const auto per_tick_batch = dev.stats().total();

  // --- Resident monitor: build the index once, query it every tick. ------
  dev.reset_stats();
  auto idx = SplitterIndex<Record>::build(ctx, log, /*buckets=*/64);
  const auto build_ios = dev.stats().total();

  std::printf("monitoring %zu log records (index: %" PRIu64
              " buckets, %" PRIu64 " build I/Os)\n\n",
              n, idx.buckets(), build_ios);

  // Each tick asks where the batch percentile values actually sit — the
  // exact rank of each SLO threshold — plus the worst ten offenders.
  std::printf("%8s %14s %14s %10s\n", "tick", "slo_key", "percentile",
              "query_ios");
  for (int tick = 1; tick <= 3; ++tick) {
    for (std::size_t i = 0; i < percentiles.size(); ++i) {
      const Record probe{batched[i].key, ~0ULL};
      const auto r = idx.rank(probe);
      if (tick > 1) continue;  // the numbers repeat; print one tick's worth
      std::printf("%8d %14" PRIu64 " %13.4f%% %10" PRIu64 "\n", tick,
                  probe.key,
                  100.0 * static_cast<double>(r.value) /
                      static_cast<double>(n),
                  r.io.reads);
    }
  }
  const auto worst = idx.top_k(10, /*largest=*/true);
  std::printf("\nworst 10 latencies (%" PRIu64 " I/Os): %" PRIu64
              " .. %" PRIu64 "\n",
              worst.io.reads, worst.value.front().key,
              worst.value.back().key);

  // Sanity: the index rank of each selected percentile value must equal or
  // exceed its requested rank (it is the value *at* that rank).
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const auto r = idx.rank(Record{batched[i].key, ~0ULL});
    if (r.value < ranks[i]) {
      std::printf("!! rank disagreement at p%g\n", 100 * percentiles[i]);
      return 1;
    }
  }

  std::printf("\nI/O per reporting period:  batch multi-selection %8" PRIu64
              "\n                           resident index       %8" PRIu64
              "  (after %" PRIu64 " once)\n",
              per_tick_batch,
              idx.rank(Record{batched[1].key, ~0ULL}).io.reads, build_ios);
  return 0;
}
