// Tests for the in-place quicksort kernel (sort/branchless_sort.hpp): under
// a total order its output must equal std::sort's byte for byte; under weak
// orders it must still sort a permutation of its input; and its comparison
// count must stay O(n log n) on the inputs that defeat naive pivot choices.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "select/grouped.hpp"
#include "sort/branchless_sort.hpp"
#include "util/rng.hpp"
#include "util/workload.hpp"

namespace emsplit {
namespace {

struct KeyLess {
  bool operator()(const Record& a, const Record& b) const {
    return a.key < b.key;
  }
};

bool same_bytes(const std::vector<Record>& a, const std::vector<Record>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Record)) == 0);
}

/// Sort a copy of `in` with both std::sort and the kernel under
/// std::less<Record> and require identical bytes.
void expect_matches_std_sort(const std::vector<Record>& in,
                             const std::string& what) {
  auto want = in;
  std::sort(want.begin(), want.end(), std::less<Record>{});
  auto got = in;
  branchless_sort(std::span<Record>(got), std::less<Record>{});
  ASSERT_TRUE(same_bytes(got, want)) << what << " n=" << in.size();
}

/// `out` is sorted under `less` and holds exactly the records of `in`.
template <typename Less>
void expect_sorted_permutation(const std::vector<Record>& in,
                               const std::vector<Record>& out, Less less,
                               const std::string& what) {
  ASSERT_TRUE(std::is_sorted(out.begin(), out.end(), less))
      << what << " n=" << in.size();
  auto a = in;
  auto b = out;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  ASSERT_TRUE(same_bytes(a, b)) << what << " n=" << in.size();
}

TEST(BranchlessSortTest, MatchesStdSortOnEveryWorkloadAndSmallSize) {
  for (const Workload w : all_workloads()) {
    for (std::size_t n = 0; n <= 300; ++n) {
      expect_matches_std_sort(make_workload(w, n, n + 1, 8, 5),
                              to_string(w));
    }
  }
}

TEST(BranchlessSortTest, MatchesStdSortOnEveryWorkloadAtChunkSize) {
  // 131,072 records: the recursive sampler's chunk at the benchmark's M.
  for (const Workload w : all_workloads()) {
    expect_matches_std_sort(make_workload(w, 131072, 11), to_string(w));
  }
}

/// Seeds the randomized differential case runs: 20 by default; a sanitizer
/// sweep raises it through EMSPLIT_SORT_SEEDS.
std::uint64_t differential_seeds() {
  const char* env = std::getenv("EMSPLIT_SORT_SEEDS");
  if (env == nullptr || *env == '\0') return 20;
  return std::strtoull(env, nullptr, 10);
}

TEST(BranchlessSortTest, RandomizedDifferential) {
  const auto& shapes = all_workloads();
  const std::uint64_t seeds = differential_seeds();
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    SplitMix64 rng(seed);
    const Workload w = shapes[rng.next_below(shapes.size())];
    const auto n = static_cast<std::size_t>(rng.next_below(6000));
    const auto distinct = static_cast<std::size_t>(1 + rng.next_below(64));
    const auto in = make_workload(w, n, seed, 16, distinct);
    const std::string what =
        "seed=" + std::to_string(seed) + " " + to_string(w);
    expect_matches_std_sort(in, what);
    auto weak = in;
    branchless_sort(std::span<Record>(weak), KeyLess{});
    expect_sorted_permutation(in, weak, KeyLess{}, what + " key-only");
  }
}

TEST(BranchlessSortTest, KeyOnlyOrderOnFewDistinctKeys) {
  for (const std::size_t n : {25u, 129u, 1000u, 131072u}) {
    for (const std::size_t distinct : {1u, 2u, 3u, 16u}) {
      const auto in =
          make_workload(Workload::kFewDistinct, n, n + distinct, 64, distinct);
      auto out = in;
      branchless_sort(std::span<Record>(out), KeyLess{});
      expect_sorted_permutation(in, out, KeyLess{}, "few_distinct");
    }
  }
}

TEST(BranchlessSortTest, AllEqualKeysAndWholeRecordDuplicates) {
  for (const std::size_t n : {0u, 1u, 2u, 24u, 25u, 200u, 50000u}) {
    SplitMix64 rng(n + 3);
    std::vector<Record> equal_keys(n);
    for (Record& r : equal_keys) r = Record{42, rng.next_below(1u << 20)};
    auto out = equal_keys;
    branchless_sort(std::span<Record>(out), KeyLess{});
    expect_sorted_permutation(equal_keys, out, KeyLess{}, "equal keys");

    // Whole-record duplicates: a handful of records, each repeated often.
    std::vector<Record> dups(n);
    for (Record& r : dups) {
      const std::uint64_t v = rng.next_below(4);
      r = Record{v, v * 7};
    }
    out = dups;
    branchless_sort(std::span<Record>(out), std::less<Record>{});
    expect_sorted_permutation(dups, out, std::less<Record>{}, "duplicates");
    expect_matches_std_sort(dups, "duplicates");
  }
}

TEST(BranchlessSortTest, DescendingComparator) {
  for (const Workload w : all_workloads()) {
    const auto in = make_workload(w, 5000, 21);
    auto out = in;
    branchless_sort(std::span<Record>(out), std::greater<Record>{});
    expect_sorted_permutation(in, out, std::greater<Record>{}, to_string(w));
  }
}

TEST(BranchlessSortTest, GroupedRecordsByGroup) {
  SplitMix64 rng(5);
  std::vector<Grouped<Record>> in(20000);
  for (auto& g : in) {
    g.value = Record{rng.next(), rng.next()};
    g.group = rng.next_below(37);
  }
  const auto by_group = [](const Grouped<Record>& a,
                           const Grouped<Record>& b) {
    return a.group < b.group;
  };
  auto out = in;
  branchless_sort(std::span<Grouped<Record>>(out), by_group);
  ASSERT_TRUE(std::is_sorted(out.begin(), out.end(), by_group));
  const auto full = [](const Grouped<Record>& a, const Grouped<Record>& b) {
    return a.group != b.group ? a.group < b.group : a.value < b.value;
  };
  std::sort(in.begin(), in.end(), full);
  std::sort(out.begin(), out.end(), full);
  EXPECT_EQ(in, out);
}

/// Musser's median-of-3 killer for n = 2k (1-based: a[i] = i, a[i+1] = k + i
/// for odd i; a[k + i] = 2i).
std::vector<std::uint64_t> median_of_3_killer(std::size_t n) {
  const std::size_t k = n / 2;
  std::vector<std::uint64_t> a(2 * k);
  for (std::size_t i = 1; i <= k; ++i) {
    if (i % 2 == 1) {
      a[i - 1] = i;
      a[i] = k + i;
    }
    a[k + i - 1] = 2 * i;
  }
  return a;
}

TEST(BranchlessSortTest, ComparisonCountIsNLogN) {
  for (const std::size_t n : {100u, 1000u, 4096u, 65536u, 1u << 18}) {
    std::vector<std::pair<std::string, std::vector<std::uint64_t>>> inputs;
    std::vector<std::uint64_t> sorted(n), reverse(n), organ(n);
    for (std::size_t i = 0; i < n; ++i) {
      sorted[i] = i;
      reverse[i] = n - i;
      organ[i] = i < n / 2 ? i : n - i;
    }
    inputs.emplace_back("sorted", sorted);
    inputs.emplace_back("reverse", reverse);
    inputs.emplace_back("organ-pipe", organ);
    inputs.emplace_back("all-equal", std::vector<std::uint64_t>(n, 7));
    inputs.emplace_back("median-of-3-killer", median_of_3_killer(n));
    const double cap = 3.0 * static_cast<double>(n) *
                           std::log2(static_cast<double>(n)) +
                       64.0 * static_cast<double>(n);
    for (auto& [name, v] : inputs) {
      std::uint64_t comparisons = 0;
      branchless_sort(std::span<std::uint64_t>(v),
                      [&](std::uint64_t a, std::uint64_t b) {
                        ++comparisons;
                        return a < b;
                      });
      EXPECT_TRUE(std::is_sorted(v.begin(), v.end())) << name << " n=" << n;
      EXPECT_LE(static_cast<double>(comparisons), cap)
          << name << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace emsplit
