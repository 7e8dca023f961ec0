// Failure injection: device faults mid-algorithm must propagate as
// DeviceFault, leak no memory budget, and leak no device blocks (strong
// resource safety of the RAII layers).  Re-running after the fault clears
// must succeed and produce correct output.
#include <gtest/gtest.h>

#include "core/api.hpp"
#include "test_helpers.hpp"

namespace emsplit {
namespace {

using testutil::EmEnv;

/// Run `op` with a fault armed after `after` I/Os; returns true if the fault
/// fired.  Asserts that budget and device-block usage return to the
/// pre-operation baseline either way.
template <typename Op>
bool run_with_fault(EmEnv& env, std::uint64_t after, Op&& op) {
  const auto blocks_before = env.dev.allocated_blocks();
  const auto mem_before = env.ctx.budget().used();
  env.dev.arm_fault_after(after);
  bool faulted = false;
  try {
    op();
  } catch (const DeviceFault&) {
    faulted = true;
  }
  env.dev.disarm_fault();
  EXPECT_EQ(env.ctx.budget().used(), mem_before)
      << "memory budget leaked (fault after " << after << " I/Os)";
  EXPECT_EQ(env.dev.allocated_blocks(), blocks_before)
      << "device blocks leaked (fault after " << after << " I/Os)";
  return faulted;
}

class FaultSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultSweep, ExternalSortIsFaultSafe) {
  EmEnv env(256, 8);
  auto host = make_workload(Workload::kUniform, 20000, 1);
  auto input = materialize<Record>(env.ctx, host);
  run_with_fault(env, GetParam(), [&] {
    auto sorted = external_sort<Record>(env.ctx, input);
  });
  // Afterwards the same operation succeeds and is correct.
  auto sorted = external_sort<Record>(env.ctx, input);
  EXPECT_TRUE(is_sorted_em(sorted));
}

TEST_P(FaultSweep, MultiSelectIsFaultSafe) {
  EmEnv env(256, 96);
  auto host = make_workload(Workload::kUniform, 20000, 2);
  auto input = materialize<Record>(env.ctx, host);
  auto sorted_ref = testutil::sorted_copy(host);
  const std::vector<std::uint64_t> ranks{1, 5000, 10000, 19999};
  run_with_fault(env, GetParam(), [&] {
    auto got = multi_select<Record>(env.ctx, input, ranks);
  });
  auto got = multi_select<Record>(env.ctx, input, ranks);
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    EXPECT_EQ(got[i], testutil::rank_element(sorted_ref, ranks[i]));
  }
}

TEST_P(FaultSweep, PartitioningIsFaultSafe) {
  EmEnv env(256, 96);
  auto host = make_workload(Workload::kUniform, 20000, 3);
  auto input = materialize<Record>(env.ctx, host);
  const ApproxSpec spec{.k = 16, .a = 100, .b = 5000};
  run_with_fault(env, GetParam(), [&] {
    auto r = approx_partitioning<Record>(env.ctx, input, spec);
  });
  auto r = approx_partitioning<Record>(env.ctx, input, spec);
  EXPECT_TRUE(verify_partitioning<Record>(input, r.data, r.bounds, spec).ok);
}

INSTANTIATE_TEST_SUITE_P(AfterIos, FaultSweep,
                         testing::Values(0, 1, 7, 100, 1000, 2500),
                         [](const auto& ti) {
                           return "io" + std::to_string(ti.param);
                         });

TEST(FaultSweepTest, FaultBeyondRunLengthDoesNotFire) {
  EmEnv env(256, 96);
  auto host = make_workload(Workload::kUniform, 5000, 4);
  auto input = materialize<Record>(env.ctx, host);
  const bool faulted = run_with_fault(env, 100'000'000, [&] {
    auto s = external_sort<Record>(env.ctx, input);
  });
  EXPECT_FALSE(faulted);
}

// ---------------------------------------------------------------------------
// Transient faults and the bounded retry layer.

/// All records of `v`, read back through the stream layer.
std::vector<Record> dump(const EmVector<Record>& v) {
  std::vector<Record> out;
  out.reserve(v.size());
  StreamReader<Record> r(v);
  while (!r.done()) out.push_back(r.next());
  return out;
}

TEST(TransientFaults, RetriedRunMatchesFaultFreeRun) {
  auto host = make_workload(Workload::kUniform, 20000, 11);

  EmEnv ref(256, 8);
  auto ref_in = materialize<Record>(ref.ctx, host);
  ref.dev.reset_stats();
  auto ref_out = external_sort<Record>(ref.ctx, ref_in);
  const IoStats ref_io = ref.dev.stats();

  EmEnv env(256, 8);
  FaultPolicy policy;
  policy.max_retries = 4;
  env.ctx.set_fault_policy(policy);
  auto in = materialize<Record>(env.ctx, host);
  env.dev.reset_stats();
  env.dev.arm_fault(FaultSchedule::fail_then_succeed(100, 2));
  auto out = external_sort<Record>(env.ctx, in);
  env.dev.disarm_fault();
  const IoStats io = env.dev.stats();

  // The determinism contract: retries re-issue only the blocks the fault
  // prevented, so the base counts match the fault-free run exactly and the
  // two faulting attempts are tallied in the separate retries counter.
  EXPECT_EQ(io.base(), ref_io.base());
  EXPECT_EQ(io.retries, 2u);
  EXPECT_EQ(dump(out), dump(ref_out));
}

TEST(TransientFaults, FailFastWithoutPolicy) {
  EmEnv env(256, 8);
  auto host = make_workload(Workload::kUniform, 20000, 12);
  auto input = materialize<Record>(env.ctx, host);
  env.dev.arm_fault(FaultSchedule::fail_then_succeed(50, 1));
  try {
    auto s = external_sort<Record>(env.ctx, input);
    FAIL() << "expected DeviceFault";
  } catch (const DeviceFault& e) {
    // Default policy (max_retries = 0) is the classic fail-fast device; the
    // escaping fault still reports that a retry might have worked.
    EXPECT_TRUE(e.transient());
  }
  env.dev.disarm_fault();
  EXPECT_EQ(env.dev.stats().retries, 0u);
}

TEST(TransientFaults, RetryBudgetExhaustedRethrows) {
  EmEnv env(256, 8);
  auto host = make_workload(Workload::kUniform, 20000, 13);
  auto input = materialize<Record>(env.ctx, host);
  FaultPolicy policy;
  policy.max_retries = 2;
  env.ctx.set_fault_policy(policy);
  env.dev.reset_stats();
  env.dev.arm_fault(FaultSchedule::fail_then_succeed(50, 5));  // burst > budget
  try {
    auto s = external_sort<Record>(env.ctx, input);
    FAIL() << "expected DeviceFault";
  } catch (const DeviceFault& e) {
    EXPECT_TRUE(e.transient());
  }
  env.dev.disarm_fault();
  EXPECT_EQ(env.dev.stats().retries, 2u);
}

TEST(TransientFaults, EveryNthRetriedToCompletion) {
  auto host = make_workload(Workload::kUniform, 20000, 14);

  EmEnv ref(256, 8);
  auto ref_in = materialize<Record>(ref.ctx, host);
  ref.dev.reset_stats();
  auto ref_out = external_sort<Record>(ref.ctx, ref_in);
  const IoStats ref_io = ref.dev.stats();

  EmEnv env(256, 8);
  FaultPolicy policy;
  policy.max_retries = 2;
  env.ctx.set_fault_policy(policy);
  auto in = materialize<Record>(env.ctx, host);
  env.dev.reset_stats();
  env.dev.arm_fault(FaultSchedule::every_nth(97));
  auto out = external_sort<Record>(env.ctx, in);
  env.dev.disarm_fault();
  const IoStats io = env.dev.stats();
  EXPECT_EQ(io.base(), ref_io.base());
  EXPECT_GT(io.retries, 0u);
  EXPECT_EQ(dump(out), dump(ref_out));
}

TEST(TransientFaults, ProbabilisticRetriedToCompletion) {
  auto host = make_workload(Workload::kUniform, 20000, 15);

  EmEnv ref(256, 8);
  auto ref_in = materialize<Record>(ref.ctx, host);
  ref.dev.reset_stats();
  auto ref_out = external_sort<Record>(ref.ctx, ref_in);
  const IoStats ref_io = ref.dev.stats();

  EmEnv env(256, 8);
  FaultPolicy policy;
  policy.max_retries = 8;
  env.ctx.set_fault_policy(policy);
  auto in = materialize<Record>(env.ctx, host);
  env.dev.reset_stats();
  env.dev.arm_fault(FaultSchedule::probabilistic(0.02, 12345));
  auto out = external_sort<Record>(env.ctx, in);
  env.dev.disarm_fault();
  const IoStats io = env.dev.stats();
  EXPECT_EQ(io.base(), ref_io.base());
  EXPECT_GT(io.retries, 0u);
  EXPECT_EQ(dump(out), dump(ref_out));
}

TEST(PermanentFault, CarriesExactBlockRange) {
  MemoryBlockDevice dev(256);
  ExtentGuard extent(dev, dev.allocate(8));
  const BlockRange r = extent.range();
  std::vector<std::byte> buf(8 * 256);
  dev.write_blocks(r.first, 8, buf);
  dev.reset_stats();
  dev.arm_fault_after(3);
  try {
    dev.read_blocks(r.first, 8, std::span<std::byte>(buf));
    FAIL() << "expected DeviceFault";
  } catch (const DeviceFault& e) {
    EXPECT_FALSE(e.transient());
    EXPECT_STREQ(e.op(), "read");
    EXPECT_EQ(e.first_block(), r.first);
    EXPECT_EQ(e.block_count(), 8u);
    EXPECT_EQ(e.completed(), 3u);
  }
  // The three blocks that transferred before the fault were counted.
  EXPECT_EQ(dev.stats().reads, 3u);
}

TEST(ExtentGuardTest, FreesOnUnwindAndReleases) {
  MemoryBlockDevice dev(256);
  const auto baseline = dev.allocated_blocks();
  try {
    ExtentGuard guard(dev, dev.allocate(4));
    EXPECT_EQ(dev.allocated_blocks(), baseline + 4);
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(dev.allocated_blocks(), baseline);

  ExtentGuard guard(dev, dev.allocate(4));
  const BlockRange kept = guard.release();  // ownership transferred out
  EXPECT_EQ(dev.allocated_blocks(), baseline + 4);
  dev.deallocate(kept);
  EXPECT_EQ(dev.allocated_blocks(), baseline);
}

// ---------------------------------------------------------------------------
// Corruption detection.

TEST(Checksums, RoundTripVerifiesAndFlippedBitDetected) {
  MemoryBlockDevice dev(256);
  dev.set_checksums(true);
  ExtentGuard extent(dev, dev.allocate(4));
  const BlockRange r = extent.range();
  std::vector<std::byte> buf(4 * 256);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>(i * 37 + 11);
  }
  dev.write_blocks(r.first, 4, buf);
  std::vector<std::byte> got(buf.size());
  dev.read_blocks(r.first, 4, got);  // clean round trip: no throw
  EXPECT_EQ(got, buf);

  dev.corrupt_bit(r.first + 2, 13);
  try {
    dev.read_blocks(r.first, 4, got);
    FAIL() << "expected CorruptBlock";
  } catch (const CorruptBlock& e) {
    // Corruption is permanent: the same bytes come back on every retry.
    EXPECT_FALSE(e.transient());
    EXPECT_EQ(e.first_block(), r.first + 2);
  }
}

TEST(Checksums, PrefixReadOfFullWriteIsUnverified) {
  MemoryBlockDevice dev(256);
  dev.set_checksums(true);
  ExtentGuard extent(dev, dev.allocate(1));
  const BlockId b = extent.range().first;
  std::vector<std::byte> buf(256, std::byte{0x5A});
  dev.write(b, buf);
  dev.corrupt_bit(b, 3);
  // The recorded hash covers the full block; a half-block prefix read moves
  // fewer bytes than the hash covers, so it is deliberately left unverified.
  std::vector<std::byte> half(128);
  dev.read(b, half);
  // A full-block read re-hashes everything and trips.
  EXPECT_THROW(dev.read(b, std::span<std::byte>(buf)), CorruptBlock);
}

TEST(Checksums, RecycledExtentDoesNotTripStaleSums) {
  MemoryBlockDevice dev(256);
  dev.set_checksums(true);
  BlockRange first_extent;
  {
    ExtentGuard extent(dev, dev.allocate(2));
    first_extent = extent.range();
    std::vector<std::byte> buf(2 * 256, std::byte{0xAB});
    dev.write_blocks(first_extent.first, 2, buf);
  }
  // First-fit hands the same blocks back; their checksum entries died with
  // the deallocation, so reading before writing must not trip stale sums.
  ExtentGuard extent(dev, dev.allocate(2));
  ASSERT_EQ(extent.range(), first_extent);
  std::vector<std::byte> got(2 * 256);
  dev.read_blocks(extent.range().first, 2, got);  // no throw
}

TEST(Checksums, FullSortIsCleanAndCostIdentical) {
  auto host = make_workload(Workload::kUniform, 20000, 16);

  EmEnv plain(256, 8);
  auto plain_in = materialize<Record>(plain.ctx, host);
  plain.dev.reset_stats();
  auto plain_out = external_sort<Record>(plain.ctx, plain_in);
  const IoStats plain_io = plain.dev.stats();

  EmEnv sums(256, 8);
  sums.dev.set_checksums(true);
  auto sums_in = materialize<Record>(sums.ctx, host);
  sums.dev.reset_stats();
  auto sums_out = external_sort<Record>(sums.ctx, sums_in);
  const IoStats sums_io = sums.dev.stats();

  // Verification happens inside the transfer the model already charges for:
  // zero extra I/Os, zero false positives, identical output.
  EXPECT_EQ(sums_io, plain_io);
  EXPECT_EQ(dump(sums_out), dump(plain_out));
}

}  // namespace
}  // namespace emsplit
