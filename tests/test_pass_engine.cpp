// Tests for the pass engine (em/pass_engine.hpp): differential goldens
// pinning the refactor to the pre-engine behavior, PassTrace accounting,
// per-pass PhaseProfile attribution for distribution sort and
// multi-selection, and distribution sort's checkpoint/resume lifecycle
// (including the final-pass begin-marker).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "em/checkpoint.hpp"
#include "em/pass_engine.hpp"
#include "em/phase_profile.hpp"
#include "em/stream.hpp"
#include "partition/multi_partition.hpp"
#include "select/linear_splitters.hpp"
#include "select/multi_select.hpp"
#include "sort/distribution_sort.hpp"
#include "sort/external_sort.hpp"
#include "test_helpers.hpp"
#include "util/workload.hpp"

namespace emsplit {
namespace {

using testutil::EmEnv;

std::vector<std::byte> dump(const EmVector<Record>& v) {
  std::vector<Record> host = to_host(v);
  std::vector<std::byte> bytes(host.size() * sizeof(Record));
  std::memcpy(bytes.data(), host.data(), bytes.size());
  return bytes;
}

// ---------------------------------------------------------------------------
// Differential goldens.
//
// Captured from the pre-engine tree (commit 9b82cef) with a throwaway
// harness: geometry 256-byte blocks x 16 memory blocks, n = 20000 uniform
// records (seed 7), across sync / batched tuning and 1 / 4 threads.
// The engine envelope performs no I/O and makes no geometry decision, so
// every ported algorithm must reproduce these counts and checksums exactly.

constexpr std::size_t kGoldenRecords = 20000;

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}

std::uint64_t checksum_em(const EmVector<Record>& v) {
  StreamReader<Record> r(v);
  std::uint64_t h = 1469598103934665603ull;
  while (!r.done()) {
    const Record rec = r.next();
    h = fnv(h, rec.key);
    h = fnv(h, rec.payload);
  }
  return h;
}

std::uint64_t checksum_host(const std::vector<Record>& v) {
  std::uint64_t h = 1469598103934665603ull;
  for (const Record& rec : v) {
    h = fnv(h, rec.key);
    h = fnv(h, rec.payload);
  }
  return h;
}

std::vector<std::uint64_t> golden_select_ranks() {
  std::vector<std::uint64_t> ranks;
  std::uint64_t x = 12345;
  for (int i = 0; i < 40; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    ranks.push_back(1 + x % kGoldenRecords);
  }
  return ranks;
}

struct GoldenRow {
  const char* algo;
  const char* mode;
  std::uint64_t reads;
  std::uint64_t writes;
  std::uint64_t sum;
};

constexpr GoldenRow kGoldens[] = {
    {"sort", "sync", 5000u, 3750u, 0x4a2be48d0efd7df8ull},
    {"mpart", "sync", 9788u, 3449u, 0x9261eb9df34114c0ull},
    {"dsort", "sync", 16020u, 6776u, 0x4a2be48d0efd7df8ull},
    {"msel", "sync", 13010u, 3938u, 0x108b3050c955022ull},
    {"splitters", "sync", 1669u, 419u, 0x8aedf89767c3a589ull},
    {"sort", "batched", 8750u, 7500u, 0x4a2be48d0efd7df8ull},
    {"mpart", "batched", 30909u, 11922u, 0xd1f3d33cc99c8f24ull},
    {"dsort", "batched", 42397u, 17285u, 0x4a2be48d0efd7df8ull},
    {"msel", "batched", 89113u, 34457u, 0x108b3050c955022ull},
    {"splitters", "batched", 1669u, 419u, 0x8aedf89767c3a589ull},
};

const GoldenRow& golden(const char* algo, const char* mode) {
  for (const GoldenRow& g : kGoldens) {
    if (std::strcmp(g.algo, algo) == 0 && std::strcmp(g.mode, mode) == 0) {
      return g;
    }
  }
  ADD_FAILURE() << "no golden for " << algo << "/" << mode;
  static GoldenRow none{};
  return none;
}

struct GoldenMode {
  const char* name;
  IoTuning io;
};

constexpr GoldenMode kGoldenModes[] = {
    {"sync", IoTuning{1}},
    {"batched", IoTuning{4}},
};

void check_row(const GoldenRow& g, const IoStats& io, std::uint64_t sum) {
  EXPECT_EQ(io.reads, g.reads) << g.algo << "/" << g.mode;
  EXPECT_EQ(io.writes, g.writes) << g.algo << "/" << g.mode;
  EXPECT_EQ(sum, g.sum) << g.algo << "/" << g.mode;
}

TEST(PassEngineGoldens, MatchPreRefactorIoCountsAndChecksums) {
  const auto host = make_workload(Workload::kUniform, kGoldenRecords, 7);
  for (const GoldenMode& mode : kGoldenModes) {
    {
      EmEnv env;
      env.ctx.set_io_tuning(mode.io);
      auto in = materialize<Record>(env.ctx, host);
      env.dev.reset_stats();
      auto out = external_sort<Record>(env.ctx, in);
      check_row(golden("sort", mode.name), env.dev.stats(), checksum_em(out));
    }
    {
      EmEnv env;
      env.ctx.set_io_tuning(mode.io);
      auto in = materialize<Record>(env.ctx, host);
      std::vector<std::uint64_t> ranks;
      for (std::uint64_t r = 1250; r < kGoldenRecords; r += 1250) {
        ranks.push_back(r);
      }
      env.dev.reset_stats();
      auto res = multi_partition<Record>(env.ctx, in, ranks);
      std::uint64_t sum = checksum_em(res.data);
      for (const auto b : res.bounds) sum = fnv(sum, b);
      check_row(golden("mpart", mode.name), env.dev.stats(), sum);
    }
    {
      EmEnv env;
      env.ctx.set_io_tuning(mode.io);
      auto in = materialize<Record>(env.ctx, host);
      env.dev.reset_stats();
      auto out = distribution_sort<Record>(env.ctx, in);
      check_row(golden("dsort", mode.name), env.dev.stats(), checksum_em(out));
    }
    {
      EmEnv env;
      env.ctx.set_io_tuning(mode.io);
      auto in = materialize<Record>(env.ctx, host);
      env.dev.reset_stats();
      auto ans = multi_select<Record>(env.ctx, in, golden_select_ranks());
      check_row(golden("msel", mode.name), env.dev.stats(),
                checksum_host(ans));
    }
    {
      EmEnv env;
      env.ctx.set_io_tuning(mode.io);
      auto in = materialize<Record>(env.ctx, host);
      env.dev.reset_stats();
      auto ls = linear_splitters<Record>(env.ctx, in);
      std::uint64_t sum = checksum_host(ls.splitters);
      sum = fnv(sum, ls.bucket_bound);
      check_row(golden("splitters", mode.name), env.dev.stats(), sum);
    }
  }
}

// ---------------------------------------------------------------------------
// PassTrace accounting.

TEST(PassTraceTest, ExternalSortEmitsOneRowPerPass) {
  EmEnv env(256, 8);
  PassTraceLog trace;
  env.ctx.set_pass_trace(&trace);
  auto host = make_workload(Workload::kUniform, 4000, 5);
  auto in = materialize<Record>(env.ctx, host);
  env.dev.reset_stats();
  trace.reset();
  auto out = external_sort<Record>(env.ctx, in);
  const std::uint64_t dev_total = env.dev.stats().total();  // before verify
  ASSERT_TRUE(is_sorted_em<Record>(out));

  const auto& rows = trace.rows();
  ASSERT_GE(rows.size(), 2u);
  EXPECT_EQ(rows.front().pass, "sort/run-formation");
  IoStats sum;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PassTrace& t = rows[i];
    EXPECT_EQ(t.job, "sort");
    EXPECT_EQ(t.index, i + 1) << "pass indices must be 1-based, consecutive";
    EXPECT_FALSE(t.resumed);
    if (i > 0) {
      EXPECT_EQ(t.pass, "sort/merge-pass");
    }
    EXPECT_GT(t.io.total(), 0u);
    EXPECT_EQ(t.bytes, t.io.total() * env.dev.block_bytes());
    EXPECT_GE(t.seconds, 0.0);
    sum += t.io;
  }
  // The envelope performs no I/O of its own: the rows partition the total.
  EXPECT_EQ(sum.total(), dev_total);
  EXPECT_EQ(trace.total_io().total(), dev_total);

  trace.reset();
  EXPECT_TRUE(trace.rows().empty());
  env.ctx.set_pass_trace(nullptr);
}

// Classic distribution sort nests passes: splitters/* rows run inside
// mpart/recursive-partition, which runs inside dsort/partition.  Rows are
// recorded as passes end, and each nested row names its enclosing row; the
// roots alone add up to the device delta, while summing every row would
// count the nested I/O twice.
TEST(PassTraceTest, NestedRowsNameTheirParentAndRootsSumToTheCost) {
  EmEnv env(256, 16);
  PassTraceLog trace;
  env.ctx.set_pass_trace(&trace);
  auto host = make_workload(Workload::kUniform, 20000, 8);
  auto in = materialize<Record>(env.ctx, host);
  env.dev.reset_stats();
  auto out = distribution_sort<Record>(env.ctx, in);
  const IoStats dev_io = env.dev.stats().base();
  ASSERT_TRUE(is_sorted_em<Record>(out));

  const auto& rows = trace.rows();
  IoStats roots;
  IoStats all;
  std::size_t nested = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const PassTrace& t = rows[i];
    all += t.io.base();
    EXPECT_NE(pass_trace_json(t).find("\"parent\":" +
                                      std::to_string(t.parent)),
              std::string::npos);
    if (t.parent < 0) {
      roots += t.io.base();
      continue;
    }
    ++nested;
    const auto p = static_cast<std::size_t>(t.parent);
    ASSERT_GT(p, i) << t.pass << ": a parent ends after its children";
    ASSERT_LT(p, rows.size()) << t.pass;
    EXPECT_LE(t.io.total(), rows[p].io.total()) << t.pass << " in "
                                                << rows[p].pass;
  }
  EXPECT_GT(nested, 0u) << "no nested pass: the geometry no longer recurses";
  EXPECT_EQ(rows.back().parent, -1) << "the last row to end is a root";
  EXPECT_EQ(roots, dev_io);
  EXPECT_EQ(trace.total_io(), dev_io);
  EXPECT_GT(all.total(), dev_io.total()) << "nested I/O is counted twice";
  env.ctx.set_pass_trace(nullptr);
}

TEST(PassTraceTest, DetachedContextRecordsNothing) {
  EmEnv env(256, 8);
  auto host = make_workload(Workload::kUniform, 1000, 6);
  auto in = materialize<Record>(env.ctx, host);
  auto out = external_sort<Record>(env.ctx, in);  // no sink attached: fine
  EXPECT_TRUE(is_sorted_em<Record>(out));
}

// ---------------------------------------------------------------------------
// Per-pass PhaseProfile attribution for the two algorithms the engine newly
// covers (satellite: distribution_sort and multi_select report per-pass
// profile entries, and the entries partition the device total).

TEST(PassEnginePhases, DistributionSortAttributesEveryIo) {
  EmEnv env;
  PhaseProfile profile;
  profile.attach(env.dev);
  env.ctx.set_profile(&profile);
  auto host = make_workload(Workload::kUniform, 20000, 3);
  auto in = materialize<Record>(env.ctx, host);
  profile.reset();
  env.dev.reset_stats();
  auto out = distribution_sort<Record>(env.ctx, in);
  const std::uint64_t dev_total = env.dev.stats().total();  // before verify
  ASSERT_TRUE(is_sorted_em<Record>(out));

  bool saw_partition = false;
  bool saw_final = false;
  std::uint64_t attributed = 0;
  std::uint64_t final_io = 0;
  for (const auto& [label, ios] : profile.rows()) {
    attributed += ios.total();
    if (label == "dsort/partition") saw_partition = true;
    if (label == "dsort/final-sort") {
      saw_final = true;
      final_io = ios.total();
    }
  }
  EXPECT_TRUE(saw_partition);
  EXPECT_TRUE(saw_final);
  EXPECT_GT(final_io, 0u);
  EXPECT_EQ(attributed, dev_total);
  env.ctx.set_profile(nullptr);
}

TEST(PassEnginePhases, MultiSelectAttributesEveryIo) {
  EmEnv env;
  PhaseProfile profile;
  profile.attach(env.dev);
  env.ctx.set_profile(&profile);
  auto host = make_workload(Workload::kUniform, 20000, 3);
  auto in = materialize<Record>(env.ctx, host);
  // 40 ranks > intermixed_max_groups at this geometry: the general
  // (partition + per-piece base case) path runs.
  ASSERT_GT(40u, intermixed_max_groups<Record>(env.ctx));
  profile.reset();
  env.dev.reset_stats();
  auto ans = multi_select<Record>(env.ctx, in, golden_select_ranks());
  ASSERT_EQ(ans.size(), 40u);

  bool saw_partition = false;
  bool saw_base = false;
  bool saw_count = false;
  bool saw_build = false;
  bool saw_splitters = false;
  bool saw_intermixed = false;
  std::uint64_t attributed = 0;
  for (const auto& [label, ios] : profile.rows()) {
    attributed += ios.total();
    if (label == "msel/partition") saw_partition = true;
    if (label == "msel/base-case") saw_base = true;
    if (label == "msel/count-buckets") saw_count = true;
    if (label == "msel/build-instance") saw_build = true;
    if (label.rfind("splitters/", 0) == 0) saw_splitters = true;
    if (label.rfind("intermixed/", 0) == 0) saw_intermixed = true;
  }
  EXPECT_TRUE(saw_partition);
  EXPECT_TRUE(saw_base);
  EXPECT_TRUE(saw_count);
  EXPECT_TRUE(saw_build);
  EXPECT_TRUE(saw_splitters);
  EXPECT_TRUE(saw_intermixed);
  EXPECT_EQ(attributed, env.dev.stats().total());
  env.ctx.set_profile(nullptr);
}

// ---------------------------------------------------------------------------
// Distribution-sort checkpointing (tentpole: checkpoint/resume now extends
// to distribution_sort via PassChain + the final-pass begin-marker).

TEST(PassEngineCheckpoint, DistributionSortRepaysOnlyFinalPassAfterPass1) {
  const std::size_t n = 1024;
  auto host = make_workload(Workload::kUniform, n, 24);

  // Reference run (no journal) with a trace attached: learn the final
  // pass's exact I/O bill.
  EmEnv ref(256, 8);
  PassTraceLog ref_trace;
  ref.ctx.set_pass_trace(&ref_trace);
  auto ref_in = materialize<Record>(ref.ctx, host);
  ref.dev.reset_stats();
  auto ref_out = distribution_sort<Record>(ref.ctx, ref_in);
  const auto ref_bytes = dump(ref_out);
  std::uint64_t final_io = 0;
  for (const PassTrace& t : ref_trace.rows()) {
    if (t.job == "dsort" && t.pass == "dsort/final-sort") {
      final_io = t.io.total();
    }
  }
  ASSERT_GT(final_io, 0u);
  ref.ctx.set_pass_trace(nullptr);

  EmEnv env(256, 8);
  const std::string jpath = testing::TempDir() + "/dsort_pass1.ckpt";
  std::remove(jpath.c_str());
  CheckpointJournal journal(env.dev, jpath);
  env.ctx.set_checkpoint(&journal);
  auto in = materialize<Record>(env.ctx, host);

  // Reproduce distribution_sort's pass-1 publish exactly, then abandon the
  // job before the final pass begins — the state a crash leaves behind in
  // the window between the partition and the begin-marker.
  const std::size_t segment =
      std::max<std::size_t>(1, env.ctx.mem_records<Record>() / 3);
  std::vector<std::uint64_t> ranks;
  for (std::size_t r = segment; r < n; r += segment) ranks.push_back(r);
  ASSERT_FALSE(ranks.empty());
  {
    PassRunner runner(env.ctx,
                      {"dsort", detail::dsort_fingerprint<Record>(env.ctx, n)});
    PassChain<Record> chain(runner, "dsort/resume");
    ASSERT_FALSE(chain.resumed());
    auto part = multi_partition<Record>(env.ctx, in, ranks);
    chain.install(std::move(part.data), detail::encode_spans(part.spans));
  }
  ASSERT_GT(journal.owned_blocks(), 0u);

  // The rerun resumes at pass 1 and repays only the final pass.
  PassTraceLog trace;
  env.ctx.set_pass_trace(&trace);
  env.dev.reset_stats();
  auto out = distribution_sort<Record>(env.ctx, in);
  const std::uint64_t resumed_total = env.dev.stats().total();
  EXPECT_EQ(dump(out), ref_bytes);
  EXPECT_EQ(resumed_total, final_io);
  bool saw_resume_row = false;
  for (const PassTrace& t : trace.rows()) {
    if (t.pass == "dsort/resume") {
      EXPECT_TRUE(t.resumed);
      saw_resume_row = true;
    }
  }
  EXPECT_TRUE(saw_resume_row);
  EXPECT_EQ(journal.owned_blocks(), 0u);
  env.ctx.set_pass_trace(nullptr);
  env.ctx.set_checkpoint(nullptr);
}

TEST(PassEngineCheckpoint, DistributionSortResumesBitIdenticalAtEveryIndex) {
  // Kill-and-resume sweep: crash the checkpointed sort at every device I/O
  // index, then rerun the identical job against the surviving journal.  The
  // resumed run must produce bit-identical output, never leak a block, and
  // never cost more than a from-scratch run.  Faults inside the final pass
  // land after the begin-marker and exercise the restart-from-scratch path
  // (a torn in-place rewrite cannot be resumed over).
  const std::size_t n = 768;
  auto host = make_workload(Workload::kUniform, n, 26);

  EmEnv ref(256, 8);
  auto ref_in = materialize<Record>(ref.ctx, host);
  ref.dev.reset_stats();
  auto ref_sorted = distribution_sort<Record>(ref.ctx, ref_in);
  const std::uint64_t ref_total = ref.dev.stats().total();
  const auto ref_bytes = dump(ref_sorted);

  for (std::uint64_t i = 0; i < ref_total; ++i) {
    EmEnv env(256, 8);
    const std::string jpath =
        testing::TempDir() + "/sweep_dsort_" + std::to_string(i) + ".ckpt";
    std::remove(jpath.c_str());
    {
      CheckpointJournal journal(env.dev, jpath);
      env.ctx.set_checkpoint(&journal);
      auto in = materialize<Record>(env.ctx, host);
      const auto input_blocks = env.dev.allocated_blocks();
      env.dev.arm_fault_after(i);
      bool faulted = false;
      try {
        auto s = distribution_sort<Record>(env.ctx, in);
      } catch (const DeviceFault&) {
        faulted = true;
      }
      env.dev.disarm_fault();
      ASSERT_TRUE(faulted) << "fault index " << i << " never fired";
      ASSERT_EQ(env.dev.allocated_blocks(),
                input_blocks + journal.owned_blocks())
          << "leak at fault index " << i;

      env.dev.reset_stats();
      auto out = distribution_sort<Record>(env.ctx, in);
      const std::uint64_t resumed_total = env.dev.stats().total();
      ASSERT_EQ(dump(out), ref_bytes)
          << "resumed output diverged at fault index " << i;
      ASSERT_LE(resumed_total, ref_total)
          << "resumed run cost more than from scratch at fault index " << i;
      ASSERT_EQ(journal.owned_blocks(), 0u)
          << "journal retained blocks after success at fault index " << i;
      env.ctx.set_checkpoint(nullptr);
    }
    std::remove(jpath.c_str());
  }
}

}  // namespace
}  // namespace emsplit
