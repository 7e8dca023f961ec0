// equi_depth_histogram — the paper's second motivating application.
//
//   ./equi_depth_histogram [n] [buckets]
//
// Build a (nearly) equi-depth histogram of a large on-disk column and use it
// to answer selectivity estimates.  With slack, the bucket boundaries come
// from approximate K-splitters and construction undercuts the exact quantile
// computation — the sweep below shows build I/Os falling as slack grows.
// The SplitterIndex keeps a sorted copy resident instead: histograms at any
// coarser k regroup its buckets with zero further I/O, and an exact rank
// costs one block read.
#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "apps/histogram.hpp"
#include "core/api.hpp"
#include "service/splitter_index.hpp"

using namespace emsplit;

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                 : (1u << 20);
  const std::uint64_t buckets =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 64;

  MemoryBlockDevice dev(4096);
  Context ctx(dev, 1u << 18);
  auto host = make_workload(Workload::kUniform, n, /*seed=*/3);
  EmVector<Record> data = materialize<Record>(ctx, host);

  std::printf("building %" PRIu64 "-bucket histograms over %zu records\n\n",
              buckets, n);
  std::printf("%12s %12s %12s %12s\n", "slack", "build_ios", "min_bucket",
              "max_bucket");
  EquiDepthHistogram<Record> hist;
  for (const double slack : {0.0, 0.9, 3.0}) {
    dev.reset_stats();
    hist = build_equi_depth_histogram<Record>(ctx, data, buckets, slack);
    const auto [lo, hi] =
        std::minmax_element(hist.sizes.begin(), hist.sizes.end());
    std::printf("%12.2f %12" PRIu64 " %12" PRIu64 " %12" PRIu64 "\n", slack,
                dev.stats().total(), *lo, *hi);
  }

  dev.reset_stats();
  const auto idx = SplitterIndex<Record>::build(ctx, data, buckets);
  std::printf("\nsorted splitter index: %" PRIu64 " build I/Os, fences every "
              "%zu block(s)\n",
              dev.stats().total(), idx.fence_stride());

  // Coarser histograms regroup the resident routing table: zero I/O.
  std::printf("derived histograms from the index:\n");
  for (const std::uint64_t k : {std::uint64_t{4}, std::uint64_t{16}, buckets}) {
    dev.reset_stats();
    const auto h = idx.histogram(k);
    std::printf("  k=%-3" PRIu64 " -> %zu buckets, %" PRIu64
                " device I/Os\n",
                k, h.value.buckets(), dev.stats().total());
  }

  // Use the slack=3.0 histogram as a query estimator, and the index for the
  // exact answer the estimator approximates.
  std::printf("\nselectivity from the slack=3.0 histogram:\n");
  auto sorted_host = host;
  std::sort(sorted_host.begin(), sorted_host.end());
  for (const double frac : {0.10, 0.50, 0.90}) {
    const auto i = static_cast<std::size_t>(frac * static_cast<double>(n));
    const Record probe = sorted_host[i];
    const auto est = hist.estimate_rank(probe);
    const auto exact = idx.rank(probe);
    std::printf("  true rank %8zu  estimate %8" PRIu64 " (err %.2f%% of N)"
                "  exact %8" PRIu64 " in %" PRIu64 " I/Os\n",
                i + 1, est,
                100.0 *
                    (est > i + 1 ? static_cast<double>(est - i - 1)
                                 : static_cast<double>(i + 1 - est)) /
                    static_cast<double>(n),
                exact.value, exact.io.reads);
    if (exact.value != i + 1) {
      std::printf("  !! exact rank disagrees with the oracle\n");
      return 1;
    }
  }
  return 0;
}
