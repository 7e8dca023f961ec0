// Tests for the branch-free classification kernel (select/classify.hpp) and
// for the base-case paths built on it: the kernel must return exactly
// std::lower_bound's index, and multi-selection must stay exact when the
// queried buckets sit at the edges of the splitter array or share a bucket.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "select/base_case.hpp"
#include "select/classify.hpp"
#include "select/linear_splitters.hpp"
#include "select/multi_select.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/workload.hpp"

namespace emsplit {
namespace {

using testutil::EmEnv;

struct KeyLess {
  bool operator()(const Record& a, const Record& b) const {
    return a.key < b.key;
  }
};

/// Probes that exercise every outcome against `sorted`: each element itself,
/// one key step on either side of it (same payload), and values below the
/// minimum and above the maximum.
std::vector<Record> probes_for(const std::vector<Record>& sorted) {
  std::vector<Record> probes{Record{0, 0}, Record{UINT64_MAX, UINT64_MAX}};
  for (const Record& s : sorted) {
    probes.push_back(s);
    probes.push_back(Record{s.key - 1, s.payload});
    probes.push_back(Record{s.key + 1, s.payload});
    probes.push_back(Record{s.key, s.payload + 1});
  }
  return probes;
}

template <typename Less>
void expect_matches_lower_bound(const std::vector<Record>& sorted,
                                Less less) {
  ASSERT_TRUE(std::is_sorted(sorted.begin(), sorted.end(), less));
  const std::span<const Record> span(sorted);
  for (const Record& x : probes_for(sorted)) {
    const auto want = static_cast<std::size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), x, less) -
        sorted.begin());
    ASSERT_EQ(branchless_lower_bound(span, x, less), want)
        << "n=" << sorted.size() << " probe key=" << x.key
        << " payload=" << x.payload;
  }
}

/// Sorted distinct keys spaced so every key +/- 1 probe falls in a gap.
std::vector<Record> spaced_keys(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<Record> v(n);
  std::uint64_t key = 10;
  for (std::size_t i = 0; i < n; ++i) {
    key += 3 + rng.next_below(5);
    v[i] = Record{key, rng.next_below(1000)};
  }
  return v;
}

TEST(BranchlessLowerBoundTest, MatchesStdLowerBoundOnEverySmallSize) {
  for (std::size_t n = 0; n <= 257; ++n) {
    expect_matches_lower_bound(spaced_keys(n, n + 1), std::less<Record>{});
  }
}

TEST(BranchlessLowerBoundTest, MatchesStdLowerBoundOnLargeArray) {
  const auto sorted = spaced_keys(65536, 7);
  const std::span<const Record> span(sorted);
  // Every element and its neighbours is 4 * 65536 probes; add random ones.
  expect_matches_lower_bound(sorted, std::less<Record>{});
  SplitMix64 rng(11);
  for (int i = 0; i < 100000; ++i) {
    const Record x{rng.next_below(sorted.back().key + 20),
                   rng.next_below(1000)};
    const auto want = static_cast<std::size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), x) - sorted.begin());
    ASSERT_EQ(branchless_lower_bound(span, x, std::less<Record>{}), want);
  }
}

TEST(BranchlessLowerBoundTest, AllEqualKeysWithDistinctPayloads) {
  for (std::size_t n : {1u, 2u, 3u, 64u, 100u, 257u}) {
    std::vector<Record> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = Record{42, 2 * i + 1};
    // Under the full order the payloads distinguish them ...
    expect_matches_lower_bound(v, std::less<Record>{});
    // ... under a key-only order they are all equivalent.
    expect_matches_lower_bound(v, KeyLess{});
  }
}

TEST(BranchlessLowerBoundTest, DuplicateKeys) {
  for (std::size_t n = 1; n <= 257; n += 16) {
    SplitMix64 rng(n);
    std::vector<Record> v(n);
    for (auto& r : v) r = Record{10 + 4 * rng.next_below(8), rng.next_below(4)};
    std::sort(v.begin(), v.end());
    expect_matches_lower_bound(v, std::less<Record>{});
    expect_matches_lower_bound(v, KeyLess{});
  }
}

TEST(BranchlessLowerBoundTest, DescendingComparator) {
  for (std::size_t n : {0u, 1u, 2u, 7u, 128u, 129u, 257u, 65536u}) {
    auto v = spaced_keys(n, 3 * n + 1);
    std::reverse(v.begin(), v.end());
    expect_matches_lower_bound(v, std::greater<Record>{});
  }
}

// Multi-selection whose ranks land in the edge buckets of the base case's
// splitter array: the first bucket has no lower fence, the last (+inf)
// bucket no upper one.
TEST(BaseCaseClassifyTest, RanksInFirstAndLastBuckets) {
  EmEnv env(256, 16);
  const std::size_t n = 20000;
  auto host = make_workload(Workload::kUniform, n, 21);
  auto input = materialize<Record>(env.ctx, host);
  const auto sorted_ref = testutil::sorted_copy(host);

  // The base case derives the same splitters from the same geometry; check
  // that ranks 1 and n really sit in the first and the +inf bucket.
  const auto sp = linear_splitters<Record>(env.ctx, input).splitters;
  ASSERT_GE(sp.size(), 2u);
  ASSERT_FALSE(sp.front() < sorted_ref.front());
  ASSERT_TRUE(sp.back() < sorted_ref.back());

  for (const std::vector<std::uint64_t>& ranks :
       {std::vector<std::uint64_t>{1}, std::vector<std::uint64_t>{n},
        std::vector<std::uint64_t>{1, 2, n / 2, n - 1, n}}) {
    const auto got =
        detail::multi_select_base<Record>(env.ctx, input, 0, n, ranks,
                                          std::less<Record>{});
    ASSERT_EQ(got.size(), ranks.size());
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      EXPECT_EQ(got[i], testutil::rank_element(sorted_ref, ranks[i]))
          << "rank " << ranks[i];
    }
  }
}

// Repeated and adjacent ranks share one bucket: its group run is longer
// than one, and every record of the bucket is emitted once per group.
TEST(BaseCaseClassifyTest, RepeatedRanksShareABucket) {
  EmEnv env(256, 16);
  const std::size_t n = 20000;
  auto host = make_workload(Workload::kUniform, n, 22);
  auto input = materialize<Record>(env.ctx, host);
  const auto sorted_ref = testutil::sorted_copy(host);

  const std::vector<std::uint64_t> ranks{7000, 7000, 7001, 7003, 7003};
  const auto got = detail::multi_select_base<Record>(
      env.ctx, input, 0, n, ranks, std::less<Record>{});
  ASSERT_EQ(got.size(), ranks.size());
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    EXPECT_EQ(got[i], testutil::rank_element(sorted_ref, ranks[i]));
  }

  // The public entry point dedups and fans the answers back out.
  const std::vector<std::uint64_t> query{7003, 1, 7000, 7003, n, 7001, 1};
  const auto fanned = multi_select<Record>(env.ctx, input, query);
  ASSERT_EQ(fanned.size(), query.size());
  for (std::size_t i = 0; i < query.size(); ++i) {
    EXPECT_EQ(fanned[i], testutil::rank_element(sorted_ref, query[i]));
  }
}

// The same edge and shared-bucket ranks under a descending order.
TEST(BaseCaseClassifyTest, DescendingComparatorAtEdges) {
  EmEnv env(256, 16);
  const std::size_t n = 20000;
  auto host = make_workload(Workload::kFewDistinct, n, 23);
  auto input = materialize<Record>(env.ctx, host);
  auto desc = host;
  std::sort(desc.begin(), desc.end(), std::greater<Record>{});

  const std::vector<std::uint64_t> ranks{1, 2, 2, 10000, n};
  const auto got = detail::multi_select_base<Record>(
      env.ctx, input, 0, n, ranks, std::greater<Record>{});
  ASSERT_EQ(got.size(), ranks.size());
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    EXPECT_EQ(got[i], desc[ranks[i] - 1]) << "rank " << ranks[i];
  }
}

}  // namespace
}  // namespace emsplit
