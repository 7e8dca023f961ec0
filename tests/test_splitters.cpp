// Tests for approximate K-splitters (paper §5.1, Theorem 5).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/splitters.hpp"
#include "core/verify.hpp"
#include "sort/external_sort.hpp"
#include "test_helpers.hpp"
#include "util/workload.hpp"

namespace emsplit {
namespace {

using testutil::EmEnv;

struct SpCase {
  Workload workload;
  std::size_t n;
  std::uint64_t k;
  std::uint64_t a;
  std::uint64_t b;  // use ~0ULL for "right-grounded" (clamped to n)
  std::size_t mem_blocks;
};

class ApproxSplittersTest : public testing::TestWithParam<SpCase> {};

TEST_P(ApproxSplittersTest, OutputSatisfiesDefinitionWithinBudget) {
  const auto& p = GetParam();
  EmEnv env(256, p.mem_blocks);
  auto host = make_workload(p.workload, p.n, /*seed=*/77,
                            env.ctx.block_records<Record>());
  auto input = materialize<Record>(env.ctx, host);
  const ApproxSpec spec{.k = p.k, .a = p.a,
                        .b = std::min<std::uint64_t>(p.b, p.n)};

  env.ctx.budget().reset_peak();
  auto splitters = approx_splitters<Record>(env.ctx, input, spec);
  EXPECT_LE(env.ctx.budget().peak(), env.ctx.budget().capacity());

  auto check = verify_splitters<Record>(input, splitters, spec);
  EXPECT_TRUE(check.ok) << check.reason << " (workload "
                        << to_string(p.workload) << ", K=" << p.k
                        << ", a=" << p.a << ", b=" << spec.b << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ApproxSplittersTest,
    testing::Values(
        // Right-grounded (b = N): sublinear regime aK << N.
        SpCase{Workload::kUniform, 40000, 16, 10, ~0ULL, 96},
        SpCase{Workload::kUniform, 40000, 64, 2, ~0ULL, 96},
        SpCase{Workload::kUniform, 40000, 8, 0, ~0ULL, 96},   // a = 0 corner
        SpCase{Workload::kUniform, 40000, 16, 2500, ~0ULL, 96},  // aK = N
        // Left-grounded (a = 0).
        SpCase{Workload::kUniform, 40000, 16, 0, 2500, 96},  // bK = N
        SpCase{Workload::kUniform, 40000, 16, 0, 5000, 96},
        SpCase{Workload::kUniform, 40000, 16, 0, 20000, 96},  // K' << K pads
        // Two-sided: cheap guard regimes.
        SpCase{Workload::kUniform, 40000, 16, 2000, 3000, 96},  // a >= N/2K
        SpCase{Workload::kUniform, 40000, 16, 100, 4000, 96},   // b <= 2N/K
        // Two-sided: general regime (a < N/2K, b > 2N/K).
        SpCase{Workload::kUniform, 40000, 16, 100, 6000, 96},
        SpCase{Workload::kUniform, 40000, 64, 10, 2000, 96},
        SpCase{Workload::kUniform, 40000, 8, 1, 39999, 96},
        // Workload shapes through the general two-sided path.
        SpCase{Workload::kSorted, 30000, 16, 100, 5000, 96},
        SpCase{Workload::kReverse, 30000, 16, 100, 5000, 96},
        SpCase{Workload::kFewDistinct, 30000, 16, 100, 5000, 96},
        SpCase{Workload::kOrganPipe, 30000, 16, 100, 5000, 96},
        SpCase{Workload::kZipfian, 30000, 16, 100, 5000, 96},
        SpCase{Workload::kBlockStriped, 30000, 16, 100, 5000, 96},
        // Exact quantile (a = b = N/K): the classic equi-depth histogram.
        SpCase{Workload::kUniform, 32768, 32, 1024, 1024, 96},
        // K = 2 minimal, K large.
        SpCase{Workload::kUniform, 10000, 2, 10, 9000, 96},
        SpCase{Workload::kUniform, 30000, 500, 10, 30000, 128},
        // Odd geometries: larger memory, and the 6-block minimum
        // multi-partition supports (2 sinks + reader + edge transient +
        // cut table + slack).
        SpCase{Workload::kUniform, 20000, 16, 100, 5000, 384},
        SpCase{Workload::kBlockStriped, 20000, 8, 50, 10000, 6},
        SpCase{Workload::kZipfian, 20000, 32, 0, 1250, 6}),
    [](const auto& ti) {
      return to_string(ti.param.workload) + "_n" + std::to_string(ti.param.n) +
             "_k" + std::to_string(ti.param.k) + "_a" +
             std::to_string(ti.param.a) + "_b" +
             (ti.param.b == ~0ULL ? std::string("N")
                                  : std::to_string(ti.param.b));
    });

TEST(ApproxSplittersTest, RightGroundedIsSublinear) {
  // The headline result: with aK << N the algorithm must NOT read all of S.
  EmEnv env(256, 64);
  const std::size_t n = 200000;
  auto host = make_workload(Workload::kUniform, n, 5);
  auto input = materialize<Record>(env.ctx, host);
  const ApproxSpec spec{.k = 8, .a = 16, .b = n};  // aK = 128 records
  env.dev.reset_stats();
  auto splitters = approx_splitters<Record>(env.ctx, input, spec);
  const auto total = env.dev.stats().total();
  const auto full_scan = n / env.ctx.block_records<Record>();
  EXPECT_LT(total, full_scan / 10)
      << "right-grounded splitters should be far sublinear; got " << total
      << " I/Os vs scan " << full_scan;
  EXPECT_TRUE(verify_splitters<Record>(input, splitters, spec).ok);
}

TEST(ApproxSplittersTest, KEqualsOneReturnsEmpty) {
  EmEnv env(256, 8);
  auto host = make_workload(Workload::kUniform, 100, 5);
  auto input = materialize<Record>(env.ctx, host);
  EXPECT_TRUE(
      approx_splitters<Record>(env.ctx, input, {.k = 1, .a = 0, .b = 100})
          .empty());
}

TEST(ApproxSplittersTest, KEqualsN) {
  EmEnv env(256, 96);
  const std::size_t n = 3000;
  auto host = make_workload(Workload::kUniform, n, 5);
  auto input = materialize<Record>(env.ctx, host);
  const ApproxSpec spec{.k = n, .a = 1, .b = 1};
  auto splitters = approx_splitters<Record>(env.ctx, input, spec);
  EXPECT_TRUE(verify_splitters<Record>(input, splitters, spec).ok);
}

TEST(ApproxSplittersTest, RejectsInfeasibleSpecs) {
  EmEnv env(256, 8);
  auto host = make_workload(Workload::kUniform, 100, 5);
  auto input = materialize<Record>(env.ctx, host);
  // a*K > N.
  EXPECT_THROW((void)approx_splitters<Record>(env.ctx, input,
                                              {.k = 10, .a = 11, .b = 100}),
               std::invalid_argument);
  // b*K < N.
  EXPECT_THROW((void)approx_splitters<Record>(env.ctx, input,
                                              {.k = 10, .a = 0, .b = 9}),
               std::invalid_argument);
  // a > b.
  EXPECT_THROW((void)approx_splitters<Record>(env.ctx, input,
                                              {.k = 10, .a = 50, .b = 20}),
               std::invalid_argument);
  // K = 0 and K > N.
  EXPECT_THROW((void)approx_splitters<Record>(env.ctx, input,
                                              {.k = 0, .a = 0, .b = 100}),
               std::invalid_argument);
  EXPECT_THROW((void)approx_splitters<Record>(env.ctx, input,
                                              {.k = 101, .a = 0, .b = 100}),
               std::invalid_argument);
}

TEST(VerifySplittersTest, DetectsBadAnswers) {
  EmEnv env(256, 8);
  auto host = make_workload(Workload::kSorted, 100, 5);
  auto input = materialize<Record>(env.ctx, host);
  const ApproxSpec spec{.k = 4, .a = 10, .b = 50};
  // Unbalanced splitters: first bucket too small.
  std::vector<Record> bad{host[2], host[39], host[69]};  // sorted input
  auto r1 = verify_splitters<Record>(input, bad, spec);
  EXPECT_FALSE(r1.ok);
  // Non-member splitter.
  std::vector<Record> alien{Record{.key = 24, .payload = 999},
                            host[49], host[74]};
  EXPECT_FALSE(verify_splitters<Record>(input, alien, spec).ok);
  // Wrong count.
  EXPECT_FALSE(verify_splitters<Record>(input, {host[49]}, spec).ok);
  // A correct answer passes.
  std::vector<Record> good{host[24], host[49], host[74]};
  auto r2 = verify_splitters<Record>(input, good, spec);
  EXPECT_TRUE(r2.ok) << r2.reason;
  EXPECT_EQ(r2.sizes, (std::vector<std::uint64_t>{25, 25, 25, 25}));
}


// The certificate's arithmetic, derived by hand.  50,000 records at
// M = 65,536 records (the CLI's default 1 MiB): one sampling level of two
// chunks, m = 8,192 + 4,308 = 12,500 samples, P = 4, sigma = 3 * 2 = 6.
// For K = 8 the quantile ranks are 6,250 * i; centring [4j + 1, 4j + 7] on
// r gives j_i = floor((12,500 * i - 4) / 8) = 1562, 3124, 4687, ...  Gaps
// of 1,562 and 1,563 samples bound the buckets to [6,248 - 6, 6,252 + 6].
TEST(SampleCertificateTest, HandDerivedBounds) {
  const auto plan = detail::sample_plan(50000, 65536);
  EXPECT_EQ(plan.levels, 1u);
  EXPECT_EQ(plan.size, 12500u);
  EXPECT_EQ(plan.stride_pow, 4u);
  EXPECT_EQ(plan.slack, 6u);
  const auto cert = detail::certify_quantile_picks(50000, 8, plan);
  ASSERT_EQ(cert.picks.size(), 7u);
  EXPECT_EQ(cert.picks[0], 1562u);
  EXPECT_EQ(cert.picks[1], 3124u);
  EXPECT_EQ(cert.picks[2], 4687u);
  EXPECT_EQ(cert.min_bucket, 6242u);
  EXPECT_EQ(cert.max_bucket, 6258u);
  EXPECT_TRUE(cert.fits({.k = 8, .a = 3125, .b = 12500}));
  EXPECT_FALSE(cert.fits({.k = 8, .a = 6250, .b = 6250}));

  // N <= M/4: the sample is the input, the pick the exact quantile.
  const auto exact = detail::certify_quantile_picks(
      250, 10, detail::sample_plan(250, 1024));
  ASSERT_EQ(exact.picks.size(), 9u);
  EXPECT_EQ(exact.picks.front(), 24u);
  EXPECT_EQ(exact.picks.back(), 224u);
  EXPECT_EQ(exact.min_bucket, 25u);
  EXPECT_EQ(exact.max_bucket, 25u);

  // K - 1 > m: no strictly increasing pick.
  EXPECT_TRUE(detail::certify_quantile_picks(50000, 12502, plan).picks.empty());
}

}  // namespace
}  // namespace emsplit
