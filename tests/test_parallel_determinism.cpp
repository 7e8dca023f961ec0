// Lanes are the library's one CPU-parallel mechanism (em/worker_group.hpp),
// and their contract is that W is pure execution width: the src/dist/ plan
// decomposes into units whose shape depends only on (n, B, M, tuning), so
// every W >= 1 writes the same bytes with the same IoStats totals.
// WorkerTransparency holds that under Record's total order; here it must
// hold under a weak-order comparator too, where ties are exactly what a
// scheduling-dependent merge would reorder.  The serial kernels keep their
// budget bound at a tight M.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "dist/distributed.hpp"
#include "em/context.hpp"
#include "em/stream.hpp"
#include "partition/multi_partition.hpp"
#include "sort/distribution_sort.hpp"
#include "sort/external_sort.hpp"
#include "test_helpers.hpp"
#include "util/workload.hpp"

namespace emsplit {
namespace {

struct Shape {
  const char* name;
  std::size_t block_bytes;
  std::size_t mem_blocks;
  std::size_t n;
  IoTuning io;
};

// Two geometries under which dist_supported holds for both operations: the
// worker-group tests' one-block streams, and wide batched streams.
const Shape kShapes[] = {
    {"narrow", 128, 256, 6000, IoTuning{1}},
    {"wide_batches", 1024, 256, 40000, IoTuning{8}},
};

struct RunResult {
  IoStats ios;
  std::vector<Record> output;
  std::vector<std::uint64_t> bounds;  // multi_partition only
};

// Ties the comparator cannot see past: only the key orders records.
TEST(ParallelDeterminismTest, WeakOrderComparatorStableAcrossThreads) {
  const auto key_only = [](const Record& a, const Record& b) {
    return a.key < b.key;
  };
  for (const Shape& shape : kShapes) {
    const auto data = make_workload(Workload::kFewDistinct, shape.n, 7, 64, 32);
    const std::vector<std::uint64_t> ranks{shape.n / 5, shape.n / 2,
                                           shape.n - shape.n / 7};
    for (const bool partition : {false, true}) {
      const std::string tag =
          std::string(shape.name) + (partition ? "/mpart" : "/dsort");
      std::vector<RunResult> runs;
      for (const std::size_t w : {1u, 2u, 4u}) {
        testutil::EmEnv env(shape.block_bytes, shape.mem_blocks);
        env.ctx.set_io_tuning(shape.io);
        env.ctx.set_worker_tuning({w});
        EmVector<Record> input =
            materialize<Record>(env.ctx, std::span<const Record>(data));
        ASSERT_TRUE(dist::dist_supported<Record>(env.ctx, shape.n,
                                                 partition ? ranks.size() : 0))
            << tag << ": the lane path no longer engages";
        env.dev.reset_stats();
        env.ctx.budget().reset_peak();
        RunResult r;
        if (partition) {
          auto res = multi_partition<Record>(env.ctx, input, ranks, key_only);
          r.output = to_host(res.data);
          r.bounds = res.bounds;
        } else {
          r.output = to_host(distribution_sort<Record>(env.ctx, input,
                                                       key_only));
        }
        r.ios = env.dev.stats();
        EXPECT_LE(env.ctx.budget().peak(), env.ctx.budget().capacity())
            << tag << " W=" << w;
        runs.push_back(std::move(r));
      }
      // The first run is a correct answer under the weak order.
      const std::vector<Record>& base = runs[0].output;
      ASSERT_EQ(base.size(), shape.n) << tag;
      if (partition) {
        // Every requested rank splits the output: no record below it is
        // greater than one at or above it.
        for (const std::uint64_t r : ranks) {
          const auto mid = base.begin() + static_cast<std::ptrdiff_t>(r);
          const Record lo_max = *std::max_element(base.begin(), mid, key_only);
          const Record hi_min = *std::min_element(mid, base.end(), key_only);
          ASSERT_FALSE(key_only(hi_min, lo_max)) << tag << " rank " << r;
        }
      } else {
        ASSERT_TRUE(std::is_sorted(base.begin(), base.end(), key_only)) << tag;
      }
      for (std::size_t i = 1; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].ios.reads, runs[0].ios.reads) << tag << " run " << i;
        EXPECT_EQ(runs[i].ios.writes, runs[0].ios.writes)
            << tag << " run " << i;
        EXPECT_EQ(runs[i].output == base, true) << tag << " run " << i;
        EXPECT_EQ(runs[i].bounds, runs[0].bounds) << tag << " run " << i;
      }
    }
  }
}

// Tight memory: the serial kernels stay within the budget and still sort.
TEST(ParallelDeterminismTest, TightBudgetFallsBackNotOver) {
  testutil::EmEnv env(128, 8);
  const auto data = make_workload(Workload::kUniform, 2000, 11);
  EmVector<Record> input =
      materialize<Record>(env.ctx, std::span<const Record>(data));
  env.ctx.budget().reset_peak();
  EmVector<Record> out = external_sort<Record>(env.ctx, input);
  EXPECT_LE(env.ctx.budget().peak(), env.ctx.budget().capacity());
  EXPECT_EQ(to_host(out), testutil::sorted_copy(data));

  env.ctx.budget().reset_peak();
  EmVector<Record> out2 = distribution_sort<Record>(env.ctx, input);
  EXPECT_LE(env.ctx.budget().peak(), env.ctx.budget().capacity());
  EXPECT_EQ(to_host(out2), testutil::sorted_copy(data));
}

}  // namespace
}  // namespace emsplit
