// Tests for the linear-I/O splitter sampler (the Hu et al. [6] substitute).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "em/stream.hpp"
#include "select/linear_splitters.hpp"
#include "test_helpers.hpp"
#include "util/workload.hpp"

namespace emsplit {
namespace {

using testutil::EmEnv;

struct SplitterCase {
  Workload workload;
  std::size_t n;
  std::size_t mem_blocks;
};

class LinearSplittersTest : public testing::TestWithParam<SplitterCase> {};

TEST_P(LinearSplittersTest, BucketBoundHoldsAndCostIsLinear) {
  const auto& p = GetParam();
  EmEnv env(256, p.mem_blocks);
  auto host = make_workload(p.workload, p.n, /*seed=*/21,
                            env.ctx.block_records<Record>());
  auto input = materialize<Record>(env.ctx, host);
  env.dev.reset_stats();
  env.ctx.budget().reset_peak();

  auto result = linear_splitters<Record>(env.ctx, input);

  EXPECT_LE(env.ctx.budget().peak(), env.ctx.budget().capacity());
  const std::size_t mem = env.ctx.mem_records<Record>();
  EXPECT_LE(result.splitters.size(), std::max<std::size_t>(1, mem / 4));
  EXPECT_TRUE(std::is_sorted(result.splitters.begin(), result.splitters.end()));

  // Splitters must be elements of the input.
  auto sorted_ref = testutil::sorted_copy(host);
  for (const auto& s : result.splitters) {
    EXPECT_TRUE(std::binary_search(sorted_ref.begin(), sorted_ref.end(), s));
  }

  // Every bucket within the proven bound.
  const auto sizes = testutil::bucket_sizes(sorted_ref, result.splitters);
  const auto max_bucket = *std::max_element(sizes.begin(), sizes.end());
  EXPECT_LE(max_bucket, result.bucket_bound)
      << "workload=" << to_string(p.workload) << " n=" << p.n;

  // And the bound itself is O((n/M) log(n/M)) + O(1): check against a
  // generous closed form.
  const double n = static_cast<double>(p.n);
  const double m = static_cast<double>(mem);
  const double levels = std::max(1.0, std::log(std::max(1.0, 8 * n / m)) /
                                          std::log(4.0) + 1.0);
  EXPECT_LE(static_cast<double>(result.bucket_bound),
            16.0 * (n / m + 1.0) * levels + 16.0);

  // Linear I/O: a small constant times n/B.
  const double b = static_cast<double>(env.ctx.block_records<Record>());
  EXPECT_LE(static_cast<double>(env.dev.stats().total()), 4.0 * (n / b) + 16.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LinearSplittersTest,
    testing::Values(SplitterCase{Workload::kUniform, 0, 8},
                    SplitterCase{Workload::kUniform, 1, 8},
                    SplitterCase{Workload::kUniform, 100, 8},
                    SplitterCase{Workload::kUniform, 20000, 8},
                    SplitterCase{Workload::kUniform, 20000, 64},
                    SplitterCase{Workload::kSorted, 20000, 8},
                    SplitterCase{Workload::kReverse, 20000, 8},
                    SplitterCase{Workload::kFewDistinct, 20000, 8},
                    SplitterCase{Workload::kOrganPipe, 20000, 8},
                    SplitterCase{Workload::kZipfian, 20000, 8},
                    SplitterCase{Workload::kBlockStriped, 20000, 8},
                    SplitterCase{Workload::kUniform, 100000, 16}),
    [](const auto& ti) {
      return to_string(ti.param.workload) + "_n" + std::to_string(ti.param.n) +
             "_mb" + std::to_string(ti.param.mem_blocks);
    });

TEST(LinearSplittersTest, TinyInputReturnsEverything) {
  EmEnv env(256, 32);  // M/4 = 128 records > n
  auto host = make_workload(Workload::kUniform, 50, 3);
  auto input = materialize<Record>(env.ctx, host);
  auto result = linear_splitters<Record>(env.ctx, input);
  EXPECT_EQ(result.splitters.size(), 50u);
  EXPECT_EQ(result.bucket_bound, 1u);
}

TEST(LinearSplittersTest, SubRange) {
  EmEnv env(256, 8);
  auto host = make_workload(Workload::kUniform, 10000, 3);
  auto input = materialize<Record>(env.ctx, host);
  auto result = linear_splitters<Record>(env.ctx, input, 2000, 7000);
  std::vector<Record> range(host.begin() + 2000, host.begin() + 7000);
  auto sorted_ref = testutil::sorted_copy(range);
  const auto sizes = testutil::bucket_sizes(sorted_ref, result.splitters);
  EXPECT_LE(*std::max_element(sizes.begin(), sizes.end()),
            result.bucket_bound);
}


// The plan (sizes alone, no I/O) must describe the real run exactly:
// approx_splitters certifies a pick from it before the sampler reads
// anything.  Also checks the rank bounds that certificate rests on:
// P*j <= #{e < u_j} <= P*j + sigma for every final sample u_j.
TEST(SamplePlanTest, MatchesTheSamplerAndItsRankBounds) {
  struct Geometry {
    std::size_t block_bytes;
    std::size_t mem_blocks;
  };
  // A 6-record memory makes 3-record chunks, smaller than the stride, so
  // the run degenerates; the n = chunk + 3 and 5 * chunk + 2 rows end in a
  // tail chunk smaller than the stride.
  for (const Geometry g : {Geometry{16, 6}, Geometry{64, 8}, Geometry{128, 4},
                           Geometry{256, 8}, Geometry{256, 16},
                           Geometry{4096, 8}}) {
    EmEnv env(g.block_bytes, g.mem_blocks);
    const std::size_t mem = env.ctx.mem_records<Record>();
    const std::size_t chunk = std::max<std::size_t>(1, mem / 2);
    for (const std::size_t n :
         {std::size_t{1}, std::size_t{3}, mem / 4, mem / 4 + 1,
          chunk + 3, 5 * chunk + 2, std::size_t{20011}, std::size_t{65536}}) {
      const std::string what = "block=" + std::to_string(g.block_bytes) +
                               " mem_blocks=" + std::to_string(g.mem_blocks) +
                               " n=" + std::to_string(n);
      auto host = make_workload(Workload::kUniform, n, n + g.mem_blocks,
                                env.ctx.block_records<Record>());
      auto input = materialize<Record>(env.ctx, host);
      const auto plan = detail::sample_plan(n, mem);
      const auto result = linear_splitters<Record>(env.ctx, input);
      EXPECT_EQ(plan.size, result.splitters.size()) << what;
      EXPECT_EQ(plan.stride_pow + plan.slack, result.bucket_bound) << what;

      const auto sorted_ref = testutil::sorted_copy(host);
      for (std::size_t j = 0; j < result.splitters.size(); ++j) {
        const auto below = static_cast<std::uint64_t>(
            std::lower_bound(sorted_ref.begin(), sorted_ref.end(),
                             result.splitters[j]) -
            sorted_ref.begin());
        ASSERT_LE(plan.stride_pow * j, below) << what << " j=" << j;
        ASSERT_LE(below, plan.stride_pow * j + plan.slack)
            << what << " j=" << j;
      }
    }
  }
}

}  // namespace
}  // namespace emsplit
