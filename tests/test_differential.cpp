// Differential testing: randomized machine geometries, input shapes and
// problem parameters for every algorithm, each checked against a host-side
// oracle, the memory budget, and input immutability.  One seeded generator
// per case keeps failures perfectly reproducible: the test name contains
// everything needed to replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "core/api.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace emsplit {
namespace {

struct RandomConfig {
  std::size_t block_bytes;
  std::size_t mem_blocks;
  Workload workload;
  std::size_t n;
  std::uint64_t seed;
};

RandomConfig draw_config(std::uint64_t case_seed) {
  SplitMix64 rng(case_seed * 0x9e3779b97f4a7c15ULL + 1);
  const std::size_t block_choices[] = {128, 256, 1024, 4096};
  RandomConfig c;
  c.block_bytes = block_choices[rng.next_below(4)];
  c.mem_blocks = 8u << rng.next_below(6);  // 8..256 blocks
  const auto& shapes = all_workloads();
  c.workload = shapes[rng.next_below(shapes.size())];
  c.n = 64 + rng.next_below(50000);
  c.seed = rng.next();
  return c;
}

class DifferentialTest : public testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    cfg_ = draw_config(GetParam());
    dev_ = std::make_unique<MemoryBlockDevice>(cfg_.block_bytes);
    ctx_ = std::make_unique<Context>(*dev_, cfg_.mem_blocks * cfg_.block_bytes);
    host_ = make_workload(cfg_.workload, cfg_.n, cfg_.seed,
                          ctx_->block_records<Record>());
    input_ = materialize<Record>(*ctx_, host_);
    sorted_ = testutil::sorted_copy(host_);
    rng_ = std::make_unique<SplitMix64>(cfg_.seed ^ 0xfeedULL);
    ctx_->budget().reset_peak();
  }

  void TearDown() override {
    EXPECT_LE(ctx_->budget().peak(), ctx_->budget().capacity())
        << describe();
    EXPECT_EQ(to_host(input_), host_) << "input mutated: " << describe();
    input_.reset();
    EXPECT_EQ(dev_->allocated_blocks(), 0u)
        << "device blocks leaked: " << describe();
  }

  [[nodiscard]] std::string describe() const {
    return "cfg{block=" + std::to_string(cfg_.block_bytes) +
           " mem_blocks=" + std::to_string(cfg_.mem_blocks) + " workload=" +
           to_string(cfg_.workload) + " n=" + std::to_string(cfg_.n) +
           " seed=" + std::to_string(cfg_.seed) + "}";
  }

  /// A random feasible (K, a, b) for the current n.
  [[nodiscard]] ApproxSpec random_spec() {
    const std::uint64_t n = cfg_.n;
    const std::uint64_t k = 2 + rng_->next_below(std::min<std::uint64_t>(
                                    n / 2, 64));
    const std::uint64_t a = rng_->next_below(n / k + 1);  // 0..floor(n/k)
    const std::uint64_t bmin = (n + k - 1) / k;
    const std::uint64_t b = bmin + rng_->next_below(n - bmin + 1);
    return ApproxSpec{.k = k, .a = a, .b = b};
  }

  RandomConfig cfg_;
  std::unique_ptr<MemoryBlockDevice> dev_;
  std::unique_ptr<Context> ctx_;
  std::vector<Record> host_;
  std::vector<Record> sorted_;
  EmVector<Record> input_;
  std::unique_ptr<SplitMix64> rng_;
};

TEST_P(DifferentialTest, Sort) {
  auto result = external_sort<Record>(*ctx_, input_);
  EXPECT_EQ(to_host(result), sorted_) << describe();
}

TEST_P(DifferentialTest, MultiSelect) {
  std::vector<std::uint64_t> ranks(1 + rng_->next_below(40));
  for (auto& r : ranks) r = 1 + rng_->next_below(cfg_.n);
  auto got = multi_select<Record>(*ctx_, input_, ranks);
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    EXPECT_EQ(got[i], sorted_[ranks[i] - 1])
        << "rank " << ranks[i] << " " << describe();
  }
}

TEST_P(DifferentialTest, MultiPartition) {
  // Random strictly increasing split ranks.
  std::vector<std::uint64_t> ranks;
  for (std::uint64_t r = 1 + rng_->next_below(cfg_.n / 4 + 1); r < cfg_.n;
       r += 1 + rng_->next_below(cfg_.n / 4 + 1)) {
    ranks.push_back(r);
  }
  auto result = multi_partition<Record>(*ctx_, input_, ranks);
  auto data = to_host(result.data);
  for (std::size_t i = 0; i + 1 < result.bounds.size(); ++i) {
    std::vector<Record> part(
        data.begin() + static_cast<std::ptrdiff_t>(result.bounds[i]),
        data.begin() + static_cast<std::ptrdiff_t>(result.bounds[i + 1]));
    std::sort(part.begin(), part.end());
    const std::vector<Record> expect(
        sorted_.begin() + static_cast<std::ptrdiff_t>(result.bounds[i]),
        sorted_.begin() + static_cast<std::ptrdiff_t>(result.bounds[i + 1]));
    ASSERT_EQ(part, expect) << "partition " << i << " " << describe();
  }
}

TEST_P(DifferentialTest, Splitters) {
  const auto spec = random_spec();
  auto splitters = approx_splitters<Record>(*ctx_, input_, spec);
  auto check = verify_splitters<Record>(input_, splitters, spec);
  EXPECT_TRUE(check.ok) << check.reason << " K=" << spec.k << " a=" << spec.a
                        << " b=" << spec.b << " " << describe();
}

TEST_P(DifferentialTest, Partitioning) {
  const auto spec = random_spec();
  auto result = approx_partitioning<Record>(*ctx_, input_, spec);
  auto check =
      verify_partitioning<Record>(input_, result.data, result.bounds, spec);
  EXPECT_TRUE(check.ok) << check.reason << " K=" << spec.k << " a=" << spec.a
                        << " b=" << spec.b << " " << describe();
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, DifferentialTest,
                         testing::Range<std::uint64_t>(0, 48),
                         [](const auto& ti) {
                           return "case" + std::to_string(ti.param);
                         });

// ---------------------------------------------------------------------------
// The certified-sample path of approx_splitters.
//
// For a machine and input size, the sampler's plan fixes the quantile pick
// and the bucket interval [lo, hi] it proves, before any I/O.  Windows one
// record wider than that interval and exactly on it certify; windows that
// cut one record into it (a = lo + 1 or b = hi - 1) do not, so the
// multi-selection path must run unchanged.  All three groundings.
// ---------------------------------------------------------------------------

struct CertCase {
  Workload workload;
  std::size_t block_bytes;
  std::size_t mem_blocks;
  std::size_t n;
  std::uint64_t k;
  std::uint64_t seed;
  bool certifies = true;  // whether some window is built to certify

  [[nodiscard]] std::string describe() const {
    return to_string(workload) + " block=" + std::to_string(block_bytes) +
           " mem_blocks=" + std::to_string(mem_blocks) +
           " n=" + std::to_string(n) + " k=" + std::to_string(k) +
           " seed=" + std::to_string(seed);
  }
};

struct Window {
  ApproxSpec spec;
  bool certified;  // what the window was built to be
};

/// The windows of `c` around `cert`; infeasible specs are left out.
std::vector<Window> certificate_windows(const CertCase& c,
                                        const detail::SampleCertificate& cert) {
  const std::uint64_t n = c.n;
  const std::uint64_t k = c.k;
  std::vector<Window> windows;
  const auto add = [&](std::uint64_t a, std::uint64_t b, bool certified) {
    if (a <= n / k && a <= b && b >= (n + k - 1) / k) {
      windows.push_back({{.k = k, .a = a, .b = std::min(b, n)}, certified});
    }
  };
  if (cert.picks.empty()) {  // K - 1 > m: nothing to certify
    add(n / k / 2, 2 * ((n + k - 1) / k), false);
    add(0, n - 1, false);
    add(1, n, false);
    return windows;
  }
  const std::uint64_t lo = cert.min_bucket;
  const std::uint64_t hi = cert.max_bucket;
  if (hi + 1 < n) {
    add(lo > 0 ? lo - 1 : 0, hi + 1, true);
  }
  if (hi < n) {
    add(lo, hi, true);           // two-sided (left-grounded if lo = 0)
    add(lo + 1, hi, false);      // one record too tight below
    add(lo, hi - 1, false);      // one record too tight above
    add(0, hi, true);            // left-grounded
    add(0, hi - 1, false);
  }
  // Right-grounded never certifies: the any-K-1 path and the prefix path.
  add(0, n, false);
  add(std::max<std::uint64_t>(lo, 1), n, false);
  return windows;
}

/// Every window of `c`: the output passes verify_splitters; a certified
/// answer costs exactly one sampler run (at most the selection path's I/O)
/// and returns the planned picks; any other answer — output and IoStats —
/// equals a direct call of the selection path.  Returns how many windows
/// certified.
std::size_t check_certificate_windows(const CertCase& c) {
  MemoryBlockDevice dev(c.block_bytes);
  Context ctx(dev, c.mem_blocks * c.block_bytes);
  const auto host =
      make_workload(c.workload, c.n, c.seed, ctx.block_records<Record>());
  auto input = materialize<Record>(ctx, host);
  const auto sorted = testutil::sorted_copy(host);
  const auto plan = detail::sample_plan(c.n, ctx.mem_records<Record>());
  const auto cert = detail::certify_quantile_picks(c.n, c.k, plan);
  if (c.k - 1 > plan.size) {
    EXPECT_TRUE(cert.picks.empty()) << c.describe();
  }

  const auto windows = certificate_windows(c, cert);
  EXPECT_FALSE(windows.empty()) << c.describe();
  std::size_t certified_windows = 0;
  for (const Window& w : windows) {
    const ApproxSpec& spec = w.spec;
    const std::string what = c.describe() + " a=" + std::to_string(spec.a) +
                             " b=" + std::to_string(spec.b);
    const bool certified = !spec.right_grounded(c.n) && cert.fits(spec);
    EXPECT_EQ(certified, w.certified) << what;

    dev.reset_stats();
    ctx.budget().reset_peak();
    const auto got = approx_splitters<Record>(ctx, input, spec);
    const IoStats got_io = dev.stats();
    EXPECT_LE(ctx.budget().peak(), ctx.budget().capacity()) << what;
    const auto check = verify_splitters<Record>(input, got, spec);
    EXPECT_TRUE(check.ok) << check.reason << " " << what;

    dev.reset_stats();
    const auto selected =
        detail::selection_splitters<Record>(ctx, input, spec, std::less<>{});
    const IoStats selected_io = dev.stats();
    if (!certified) {
      EXPECT_EQ(got, selected) << what;
      EXPECT_EQ(got_io, selected_io) << what;
      continue;
    }
    ++certified_windows;
    dev.reset_stats();
    const auto sample = linear_splitters<Record>(ctx, input);
    EXPECT_EQ(got_io, dev.stats()) << what;
    EXPECT_LE(got_io.total(), selected_io.total()) << what;
    EXPECT_EQ(got.size(), cert.picks.size()) << what;
    for (std::size_t i = 0; i < std::min(got.size(), cert.picks.size()); ++i) {
      EXPECT_EQ(got[i], sample.splitters[cert.picks[i]]) << what;
    }
    if (plan.levels == 0) {  // n <= M/4: the sample is S, the pick exact
      const auto ranks = detail::quantile_ranks(c.n, c.k);
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], sorted[ranks[i] - 1]) << what << " i=" << i;
      }
    }
  }
  EXPECT_EQ(to_host(input), host) << "input mutated: " << c.describe();
  return certified_windows;
}

class CertificateWindows : public testing::TestWithParam<CertCase> {};

TEST_P(CertificateWindows, InsideCertifiesOutsideFallsBack) {
  const CertCase& c = GetParam();
  EXPECT_EQ(check_certificate_windows(c) > 0, c.certifies) << c.describe();
}

// Geometries: sampled (n = 30,000 over 2,048 records of memory: L = 3,
// P = 64, sigma = 282, m = 468), in memory (n <= M/4), and K - 1 > m
// (n = 20,000 over 256 records of memory leaves m = 19 samples).
std::vector<CertCase> certificate_cases() {
  std::vector<CertCase> cases;
  for (const Workload w : {Workload::kUniform, Workload::kSorted,
                           Workload::kReverse, Workload::kOrganPipe,
                           Workload::kZipfian, Workload::kFewDistinct}) {
    cases.push_back({w, 256, 128, 30000, 16, 31});
    cases.push_back({w, 256, 128, 30000, 3, 32});
    cases.push_back({w, 256, 64, 250, 10, 33});
    cases.push_back({w, 256, 16, 20000, 32, 34, /*certifies=*/false});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CertificateWindows, testing::ValuesIn(certificate_cases()),
    [](const auto& ti) {
      const CertCase& c = ti.param;
      return to_string(c.workload) + "_n" + std::to_string(c.n) + "_k" +
             std::to_string(c.k) + "_mb" + std::to_string(c.mem_blocks);
    });

/// Seeds the randomized certificate case runs: 24 by default; a sanitizer
/// sweep raises it through EMSPLIT_CERT_SEEDS.
std::uint64_t certificate_seeds() {
  const char* env = std::getenv("EMSPLIT_CERT_SEEDS");
  if (env == nullptr || *env == '\0') return 24;
  return std::strtoull(env, nullptr, 10);
}

TEST(CertificateWindows, RandomizedSeeds) {
  const std::uint64_t seeds = certificate_seeds();
  std::size_t certified_windows = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const RandomConfig cfg = draw_config(seed);
    SplitMix64 rng(cfg.seed);
    // K up to 64, or on one seed in four up to 1,024, often past m.
    const std::uint64_t kmax = rng.next_below(4) == 0 ? 1024 : 64;
    const std::uint64_t k =
        2 + rng.next_below(std::min<std::uint64_t>(cfg.n / 2, kmax));
    const CertCase c{cfg.workload, cfg.block_bytes, cfg.mem_blocks, cfg.n, k,
                     cfg.seed};
    SCOPED_TRACE("seed=" + std::to_string(seed));
    certified_windows += check_certificate_windows(c);
    if (testing::Test::HasFailure()) return;
  }
  EXPECT_GT(certified_windows, 0u);
}

}  // namespace
}  // namespace emsplit
