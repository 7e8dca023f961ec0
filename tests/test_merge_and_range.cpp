// Tests for the public k-way merge and batched range counting, plus golden
// I/O regression guards for pinned configurations.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/range_count.hpp"
#include "core/api.hpp"
#include "sort/merge_sorted.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace emsplit {
namespace {

using testutil::EmEnv;

TEST(MergeSortedTest, MergesManyShards) {
  EmEnv env(256, 8);
  SplitMix64 rng(21);
  std::vector<EmVector<Record>> shards;
  std::vector<Record> all;
  for (int s = 0; s < 40; ++s) {
    const auto len = static_cast<std::size_t>(rng.next_below(3000));
    std::vector<Record> shard(len);
    for (auto& r : shard) r = Record{.key = rng.next(), .payload = rng.next()};
    std::sort(shard.begin(), shard.end());
    all.insert(all.end(), shard.begin(), shard.end());
    shards.push_back(materialize<Record>(env.ctx, shard));
  }
  env.ctx.budget().reset_peak();
  auto merged = merge_sorted<Record>(env.ctx, std::move(shards));
  EXPECT_LE(env.ctx.budget().peak(), env.ctx.budget().capacity());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(to_host(merged), all);
  // All shard space recycled; only input-materialization leftovers remain.
  EXPECT_EQ(env.dev.allocated_blocks(), merged.size_blocks());
}

TEST(MergeSortedTest, EdgeCases) {
  EmEnv env(256, 8);
  EXPECT_EQ(merge_sorted<Record>(env.ctx, {}).size(), 0u);
  std::vector<EmVector<Record>> one;
  one.push_back(materialize<Record>(
      env.ctx, std::vector<Record>{{1, 0}, {2, 0}}));
  EXPECT_EQ(merge_sorted<Record>(env.ctx, std::move(one)).size(), 2u);
}

TEST(BatchedRanksTest, MatchesHostOracle) {
  EmEnv env(256, 96);  // the probe table must fit in memory (<= Theta(M))
  const std::size_t n = 20000;
  auto host = make_workload(Workload::kUniform, n, 22);
  auto data = materialize<Record>(env.ctx, host);
  auto sorted_ref = testutil::sorted_copy(host);

  SplitMix64 rng(23);
  std::vector<Record> probes;
  for (int i = 0; i < 300; ++i) {
    if (i % 3 == 0 && !host.empty()) {
      probes.push_back(host[rng.next_below(n)]);  // exact members
    } else {
      probes.push_back(Record{rng.next_below(5 * n), rng.next_below(n)});
    }
  }
  env.dev.reset_stats();
  auto ranks = batched_ranks<Record>(env.ctx, data, probes);
  // One scan regardless of probe count.
  EXPECT_EQ(env.dev.stats().total(),
            (n + env.ctx.block_records<Record>() - 1) /
                env.ctx.block_records<Record>());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto expect = static_cast<std::uint64_t>(
        std::upper_bound(sorted_ref.begin(), sorted_ref.end(), probes[i]) -
        sorted_ref.begin());
    EXPECT_EQ(ranks[i], expect) << "probe " << i;
  }
}

TEST(BatchedRanksTest, RejectsProbeTablesBeyondMemory) {
  EmEnv env(256, 4);  // 1024 bytes of memory
  auto host = make_workload(Workload::kUniform, 1000, 26);
  auto data = materialize<Record>(env.ctx, host);
  std::vector<Record> probes(200);  // 200 * 24 bytes > M
  EXPECT_THROW((void)batched_ranks<Record>(env.ctx, data, std::move(probes)),
               BudgetExceeded);
}

TEST(BatchedRangeCountTest, OverlappingQueriesAnyOrder) {
  EmEnv env(256, 96);
  const std::size_t n = 10000;
  auto host = make_workload(Workload::kZipfian, n, 24, 16, 500);
  auto data = materialize<Record>(env.ctx, host);
  auto sorted_ref = testutil::sorted_copy(host);

  SplitMix64 rng(25);
  std::vector<RangeQuery<Record>> queries;
  for (int i = 0; i < 100; ++i) {
    Record a{rng.next_below(600), rng.next_below(n)};
    Record b{rng.next_below(600), rng.next_below(n)};
    if (b < a) std::swap(a, b);
    queries.push_back(RangeQuery<Record>{a, b});
  }
  auto got = batched_range_count<Record>(env.ctx, data, queries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto lo = std::upper_bound(sorted_ref.begin(), sorted_ref.end(),
                                     queries[i].lo) -
                    sorted_ref.begin();
    const auto hi = std::upper_bound(sorted_ref.begin(), sorted_ref.end(),
                                     queries[i].hi) -
                    sorted_ref.begin();
    EXPECT_EQ(got[i], static_cast<std::uint64_t>(hi - lo)) << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// Golden I/O regression guards.
//
// Exact measured I/O counts for pinned (geometry, workload, seed) configs.
// These WILL change whenever an algorithm's pass structure changes — that
// is their purpose: an unexplained diff here is a cost regression, an
// explained one belongs in the same commit as an EXPERIMENTS.md update.
// ---------------------------------------------------------------------------

struct GoldenEnv {
  GoldenEnv() : env(4096, 32) {
    host = make_workload(Workload::kUniform, 1u << 18, /*seed=*/20260706,
                         env.ctx.block_records<Record>());
    input = materialize<Record>(env.ctx, host);
    env.dev.reset_stats();
  }
  EmEnv env;
  std::vector<Record> host;
  EmVector<Record> input;
};

TEST(GoldenIos, ExternalSort) {
  GoldenEnv g;
  auto s = external_sort<Record>(g.env.ctx, g.input);
  // 3 passes over 1024 blocks: 35 runs exceed the fan-in of 31 by a hair,
  // costing a second merge level — itself a nice geometry lesson.
  EXPECT_EQ(g.env.dev.stats().total(), 6144u);
}

TEST(GoldenIos, SelectRankMedian) {
  GoldenEnv g;
  (void)select_rank<Record>(g.env.ctx, g.input, 1u << 17);
  EXPECT_EQ(g.env.dev.stats().total(), 3758u);
}

TEST(GoldenIos, SplittersRightGrounded) {
  GoldenEnv g;
  auto s = approx_splitters<Record>(g.env.ctx, g.input,
                                    {.k = 16, .a = 64, .b = 1u << 18});
  EXPECT_EQ(g.env.dev.stats().total(), 14u);
}

TEST(GoldenIos, SplittersTwoSidedCertified) {
  GoldenEnv g;
  auto s = approx_splitters<Record>(g.env.ctx, g.input,
                                    {.k = 16, .a = 8192, .b = 32768});
  // The certificate holds (P = 256, sigma = 768, m = 1,024 samples; buckets
  // of 16,384 +- 768), so the job is one sampler run: four sampling levels
  // reading 1024 + 256 + 64 + 16 blocks and writing a quarter of each, plus
  // the 4-block final sample.  No counting scan, no selection.
  EXPECT_EQ(g.env.dev.stats().total(), 1704u);
}

TEST(GoldenIos, PartitioningTwoSided) {
  GoldenEnv g;
  auto r = approx_partitioning<Record>(
      g.env.ctx, g.input, {.k = 16, .a = 1024, .b = 1u << 16});
  EXPECT_EQ(g.env.dev.stats().total(), 7200u);
}

}  // namespace
}  // namespace emsplit
