// Exhaustive fault-sweep harness: a permanent fault armed at EVERY I/O index
// of a run must unwind cleanly (no device-block or budget leaks), a transient
// fault at every index must be retried to an identical run, and with a
// checkpoint journal attached a crash at every index must resume to
// bit-identical output while repaying only the interrupted pass's I/Os.
//
// The sweeps are exhaustive by I/O index, not sampled — the point of the
// harness is that no fault position, pass boundary included, breaks the
// invariants (docs/model.md, "Failure model, retries, and recovery").
//
// The worker-kill sweep at the bottom is the distributed analogue: a lane
// killed at EVERY (lane, round) position of a journaled dsort /
// multi-partition must resume through the journal to bit-identical output
// (docs/model.md, "Lanes").
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>

#include "core/api.hpp"
#include "em/checkpoint.hpp"
#include "em/pass_engine.hpp"
#include "test_helpers.hpp"

namespace emsplit {
namespace {

using testutil::EmEnv;

/// All records of `v`, read back through the stream layer.
std::vector<Record> dump(const EmVector<Record>& v) {
  std::vector<Record> out;
  out.reserve(v.size());
  StreamReader<Record> r(v);
  while (!r.done()) out.push_back(r.next());
  return out;
}

// ---------------------------------------------------------------------------
// Permanent faults: clean unwind at every index.

TEST(ExhaustiveFaultSweep, SortUnwindsCleanlyAtEveryIoIndex) {
  EmEnv env(256, 8);
  auto host = make_workload(Workload::kUniform, 1000, 21);
  auto input = materialize<Record>(env.ctx, host);
  env.dev.reset_stats();
  {
    auto s = external_sort<Record>(env.ctx, input);
  }
  const std::uint64_t total = env.dev.stats().total();
  ASSERT_GT(total, 0u);

  const auto blocks_before = env.dev.allocated_blocks();
  const auto mem_before = env.ctx.budget().used();
  for (std::uint64_t i = 0; i < total; ++i) {
    env.dev.arm_fault_after(i);
    bool faulted = false;
    try {
      auto s = external_sort<Record>(env.ctx, input);
    } catch (const DeviceFault&) {
      faulted = true;
    }
    env.dev.disarm_fault();
    ASSERT_TRUE(faulted) << "fault index " << i << " never fired";
    ASSERT_EQ(env.dev.allocated_blocks(), blocks_before)
        << "device blocks leaked at fault index " << i;
    ASSERT_EQ(env.ctx.budget().used(), mem_before)
        << "memory budget leaked at fault index " << i;
  }
  // Afterwards a clean run still succeeds.
  auto s = external_sort<Record>(env.ctx, input);
  EXPECT_TRUE(is_sorted_em(s));
}

TEST(ExhaustiveFaultSweep, PartitionUnwindsCleanlyAtEveryIoIndex) {
  EmEnv env(256, 8);
  auto host = make_workload(Workload::kUniform, 1000, 22);
  auto input = materialize<Record>(env.ctx, host);
  const std::vector<std::uint64_t> ranks{250, 500, 750};
  env.dev.reset_stats();
  {
    auto r = multi_partition<Record>(env.ctx, input, ranks);
  }
  const std::uint64_t total = env.dev.stats().total();
  ASSERT_GT(total, 0u);

  const auto blocks_before = env.dev.allocated_blocks();
  const auto mem_before = env.ctx.budget().used();
  for (std::uint64_t i = 0; i < total; ++i) {
    env.dev.arm_fault_after(i);
    bool faulted = false;
    try {
      auto r = multi_partition<Record>(env.ctx, input, ranks);
    } catch (const DeviceFault&) {
      faulted = true;
    }
    env.dev.disarm_fault();
    ASSERT_TRUE(faulted) << "fault index " << i << " never fired";
    ASSERT_EQ(env.dev.allocated_blocks(), blocks_before)
        << "device blocks leaked at fault index " << i;
    ASSERT_EQ(env.ctx.budget().used(), mem_before)
        << "memory budget leaked at fault index " << i;
  }
  auto r = multi_partition<Record>(env.ctx, input, ranks);
  EXPECT_EQ(r.data.size(), input.size());
}

// ---------------------------------------------------------------------------
// Transient faults: retried to an identical run at every index.

TEST(ExhaustiveFaultSweep, SortTransientRetriedAtEveryIoIndex) {
  EmEnv env(256, 8);
  auto host = make_workload(Workload::kUniform, 1000, 23);
  auto input = materialize<Record>(env.ctx, host);
  env.dev.reset_stats();
  auto ref_sorted = external_sort<Record>(env.ctx, input);
  const IoStats ref_io = env.dev.stats();  // before dump(): reads count too
  const auto ref_bytes = dump(ref_sorted);

  FaultPolicy policy;
  policy.max_retries = 1;
  env.ctx.set_fault_policy(policy);
  for (std::uint64_t i = 0; i < ref_io.total(); ++i) {
    env.dev.reset_stats();
    env.dev.arm_fault(FaultSchedule::fail_then_succeed(i, 1));
    auto s = external_sort<Record>(env.ctx, input);
    env.dev.disarm_fault();
    const IoStats io = env.dev.stats();
    ASSERT_EQ(io.base(), ref_io.base())
        << "base I/O counts diverged at fault index " << i;
    ASSERT_EQ(io.retries, 1u) << "fault index " << i;
    ASSERT_EQ(dump(s), ref_bytes) << "output diverged at fault index " << i;
  }
}

// ---------------------------------------------------------------------------
// Checkpointed crashes: resume to bit-identical output with exact repay.

TEST(CheckpointFaultSweep, SortResumesBitIdenticalWithExactRepay) {
  // Block-aligned N so each of the three passes costs exactly 2 * nblocks
  // I/Os, making the repay assertion exact: a resumed run costs the
  // reference total minus 2 * nblocks per journaled pass.
  const std::size_t n = 1024;
  auto host = make_workload(Workload::kUniform, n, 24);

  EmEnv ref(256, 8);
  auto ref_in = materialize<Record>(ref.ctx, host);
  ref.dev.reset_stats();
  auto ref_sorted = external_sort<Record>(ref.ctx, ref_in);
  const std::uint64_t ref_total = ref.dev.stats().total();
  const auto ref_bytes = dump(ref_sorted);
  const std::uint64_t nblocks = n / ref.ctx.block_records<Record>();
  ASSERT_EQ(ref_total % (2 * nblocks), 0u)
      << "geometry drifted: passes are no longer uniform full scans";

  for (std::uint64_t i = 0; i < ref_total; ++i) {
    EmEnv env(256, 8);
    const std::string jpath =
        testing::TempDir() + "/sweep_sort_" + std::to_string(i) + ".ckpt";
    std::remove(jpath.c_str());
    {
      CheckpointJournal journal(env.dev, jpath);
      env.ctx.set_checkpoint(&journal);
      auto in = materialize<Record>(env.ctx, host);
      const auto input_blocks = env.dev.allocated_blocks();
      env.dev.arm_fault_after(i);
      bool faulted = false;
      try {
        auto s = external_sort<Record>(env.ctx, in);
      } catch (const DeviceFault&) {
        faulted = true;
      }
      env.dev.disarm_fault();
      ASSERT_TRUE(faulted) << "fault index " << i << " never fired";
      // Nothing leaked: every live block is either the input or owned by
      // the journal on behalf of a completed pass.
      ASSERT_EQ(env.dev.allocated_blocks(),
                input_blocks + journal.owned_blocks())
          << "leak at fault index " << i;

      env.dev.reset_stats();
      auto out = external_sort<Record>(env.ctx, in);
      const std::uint64_t resumed_total = env.dev.stats().total();
      ASSERT_EQ(dump(out), ref_bytes)
          << "resumed output diverged at fault index " << i;
      // Exact repay: only the interrupted pass (and those after it) re-run.
      ASSERT_EQ(resumed_total,
                ref_total - journal.resumed_passes() * 2 * nblocks)
          << "fault index " << i;
      ASSERT_EQ(journal.owned_blocks(), 0u) << "fault index " << i;
      env.ctx.set_checkpoint(nullptr);
    }
    std::remove(jpath.c_str());
  }
}

TEST(CheckpointFaultSweep, PartitionResumesBitIdenticalAtEveryIoIndex) {
  const std::size_t n = 1024;
  auto host = make_workload(Workload::kUniform, n, 25);
  const std::vector<std::uint64_t> ranks{256, 512, 768};

  EmEnv ref(256, 8);
  auto ref_in = materialize<Record>(ref.ctx, host);
  ref.dev.reset_stats();
  auto ref_res = multi_partition<Record>(ref.ctx, ref_in, ranks);
  const std::uint64_t ref_total = ref.dev.stats().total();  // before dump()
  const auto ref_bytes = dump(ref_res.data);

  for (std::uint64_t i = 0; i < ref_total; ++i) {
    EmEnv env(256, 8);
    const std::string jpath =
        testing::TempDir() + "/sweep_part_" + std::to_string(i) + ".ckpt";
    std::remove(jpath.c_str());
    {
      CheckpointJournal journal(env.dev, jpath);
      env.ctx.set_checkpoint(&journal);
      auto in = materialize<Record>(env.ctx, host);
      const auto input_blocks = env.dev.allocated_blocks();
      env.dev.arm_fault_after(i);
      bool faulted = false;
      try {
        auto r = multi_partition<Record>(env.ctx, in, ranks);
      } catch (const DeviceFault&) {
        faulted = true;
      }
      env.dev.disarm_fault();
      ASSERT_TRUE(faulted) << "fault index " << i << " never fired";
      ASSERT_EQ(env.dev.allocated_blocks(),
                input_blocks + journal.owned_blocks())
          << "leak at fault index " << i;

      env.dev.reset_stats();
      auto res = multi_partition<Record>(env.ctx, in, ranks);
      const std::uint64_t resumed_total = env.dev.stats().total();
      ASSERT_EQ(dump(res.data), ref_bytes)
          << "resumed output diverged at fault index " << i;
      ASSERT_EQ(res.bounds, ref_res.bounds) << "fault index " << i;
      // Journaled progress is never repeated: any resumed pass makes the
      // rerun strictly cheaper than the reference run.
      if (journal.resumed_passes() > 0) {
        ASSERT_LT(resumed_total, ref_total) << "fault index " << i;
      }
      ASSERT_EQ(journal.owned_blocks(), 0u) << "fault index " << i;
      env.ctx.set_checkpoint(nullptr);
    }
    std::remove(jpath.c_str());
  }
}

// ---------------------------------------------------------------------------
// Cross-process resume: the journal file plus a preserve_contents
// FileBlockDevice survive a process death; a fresh process restores the
// allocator around the journaled extents and resumes.

TEST(CheckpointResume, SurvivesProcessReopen) {
  const std::size_t n = 1024;
  const std::string dir = testing::TempDir();
  const std::string dev_path = dir + "/xproc_device.bin";
  const std::string jpath = dir + "/xproc_journal.ckpt";
  std::remove(dev_path.c_str());
  std::remove((dev_path + ".sums").c_str());
  std::remove(jpath.c_str());
  auto host = make_workload(Workload::kUniform, n, 26);

  EmEnv ref(256, 8);
  auto ref_in = materialize<Record>(ref.ctx, host);
  ref.dev.reset_stats();
  auto ref_sorted = external_sort<Record>(ref.ctx, ref_in);
  const std::uint64_t ref_total = ref.dev.stats().total();
  const auto ref_bytes = dump(ref_sorted);
  const std::uint64_t nblocks = n / ref.ctx.block_records<Record>();

  {
    // "Process 1": crash inside the second pass.  Destruction here stands in
    // for the kill — the journal file and the device file are the only state
    // that survives a real SIGKILL, and they are all the next block reads.
    FileBlockDevice dev(dev_path, 256, /*keep_file=*/true,
                        /*preserve_contents=*/true);
    Context ctx(dev, 8 * 256);
    CheckpointJournal journal(dev, jpath);
    journal.restore_device();
    ctx.set_checkpoint(&journal);
    auto in = materialize<Record>(ctx, host);
    dev.arm_fault_after(2 * nblocks + nblocks / 2);  // mid pass 2
    bool faulted = false;
    try {
      auto s = external_sort<Record>(ctx, in);
    } catch (const DeviceFault&) {
      faulted = true;
    }
    ASSERT_TRUE(faulted);
    ctx.set_checkpoint(nullptr);
  }
  {
    // "Process 2": reopen, restore the allocator from the journal, resume.
    FileBlockDevice dev(dev_path, 256, /*keep_file=*/true,
                        /*preserve_contents=*/true);
    Context ctx(dev, 8 * 256);
    CheckpointJournal journal(dev, jpath);
    journal.restore_device();
    ctx.set_checkpoint(&journal);
    auto in = materialize<Record>(ctx, host);
    dev.reset_stats();
    auto out = external_sort<Record>(ctx, in);
    EXPECT_EQ(journal.resumed_passes(), 1u);
    EXPECT_EQ(dev.stats().total(), ref_total - 1 * 2 * nblocks);
    EXPECT_EQ(dump(out), ref_bytes);
    ctx.set_checkpoint(nullptr);
  }
  std::remove(dev_path.c_str());
  std::remove((dev_path + ".sums").c_str());
  std::remove(jpath.c_str());
}

// A device file that no longer covers the journal must refuse the resume:
// growing the file back over a journaled extent reads zeros where the journal
// promised data, which once resumed with exit 0 and wrong output.

enum class TruncJob { kSort, kDsort, kPartition };

constexpr const char* trunc_job_name(TruncJob j) {
  return j == TruncJob::kSort    ? "Sort"
         : j == TruncJob::kDsort ? "Dsort"
                                 : "Partition";
}

void run_trunc_job(Context& ctx, const EmVector<Record>& in, TruncJob job) {
  switch (job) {
    case TruncJob::kSort:
      (void)external_sort<Record>(ctx, in);
      break;
    case TruncJob::kDsort:
      (void)distribution_sort<Record>(ctx, in);
      break;
    case TruncJob::kPartition:
      (void)multi_partition<Record>(ctx, in, {256, 512, 768});
      break;
  }
}

class TruncatedDeviceResume : public ::testing::TestWithParam<TruncJob> {};

TEST_P(TruncatedDeviceResume, RestoreRefusesAFileShorterThanTheJournal) {
  const TruncJob job = GetParam();
  const std::size_t n = 1024;
  const std::string stem =
      testing::TempDir() + "/trunc_" + trunc_job_name(job);
  const std::string dev_path = stem + "_device.bin";
  const std::string jpath = stem + "_journal.ckpt";
  std::remove(dev_path.c_str());
  std::remove((dev_path + ".sums").c_str());
  std::remove(jpath.c_str());
  auto host = make_workload(Workload::kUniform, n, 27);

  EmEnv ref(256, 8);
  auto ref_in = materialize<Record>(ref.ctx, host);
  ref.dev.reset_stats();
  run_trunc_job(ref.ctx, ref_in, job);
  const std::uint64_t ref_total = ref.dev.stats().total();

  std::uint64_t input_blocks = 0;
  {
    // "Process 1": dies three quarters of the way through the job, with at
    // least one pass journaled.  The staged input holds the file's first
    // blocks, so every journaled extent lies past them.
    FileBlockDevice dev(dev_path, 256, /*keep_file=*/true,
                        /*preserve_contents=*/true);
    Context ctx(dev, 8 * 256);
    CheckpointJournal journal(dev, jpath);
    journal.restore_device();
    ctx.set_checkpoint(&journal);
    auto in = materialize<Record>(ctx, host);
    input_blocks = dev.allocated_blocks();
    dev.arm_fault_after(ref_total * 3 / 4);
    EXPECT_THROW(run_trunc_job(ctx, in, job), DeviceFault);
    dev.disarm_fault();
    ASSERT_GT(journal.owned_blocks(), 0u) << "nothing was journaled";
    ctx.set_checkpoint(nullptr);
  }
  // Between the processes the device file loses everything past the input.
  ASSERT_EQ(::truncate(dev_path.c_str(),
                       static_cast<off_t>(input_blocks * 256)),
            0);
  {
    // "Process 2": the journal names extents the file no longer holds.
    FileBlockDevice dev(dev_path, 256, /*keep_file=*/true,
                        /*preserve_contents=*/true);
    EXPECT_EQ(dev.preserved_blocks(), input_blocks);
    CheckpointJournal journal(dev, jpath);
    EXPECT_THROW(journal.restore_device(), std::runtime_error);
    EXPECT_EQ(dev.allocated_blocks(), 0u) << "a refused restore changed state";
  }
  std::remove(dev_path.c_str());
  std::remove((dev_path + ".sums").c_str());
  std::remove(jpath.c_str());
}

INSTANTIATE_TEST_SUITE_P(Jobs, TruncatedDeviceResume,
                         ::testing::Values(TruncJob::kSort, TruncJob::kDsort,
                                           TruncJob::kPartition),
                         [](const auto& job_info) {
                           return trunc_job_name(job_info.param);
                         });

// ---------------------------------------------------------------------------
// Worker kills: a lane killed at every (lane, round) position of a
// distributed job resumes through the journal to an identical run.

// The distributed geometry of test_worker_group.cpp: 8-record blocks, 256
// blocks of memory, 6000 records — dist_supported holds for both operations.
constexpr std::size_t kWgBlockBytes = 128;
constexpr std::size_t kWgMemBlocks = 256;
constexpr std::size_t kWgRecords = 6000;
const std::vector<std::uint64_t> kWgRanks{1234, 3000, 4567};

struct SweepRun {
  std::vector<Record> bytes;
  std::vector<std::uint64_t> bounds;  // partition only
};

/// One distributed job on `ctx`; throws whatever the job throws.
SweepRun run_job(Context& ctx, const std::vector<Record>& host,
                 bool partition) {
  auto input = materialize<Record>(ctx, host);
  SweepRun run;
  if (partition) {
    auto res = multi_partition<Record>(ctx, input, kWgRanks);
    run.bytes = dump(res.data);
    run.bounds = res.bounds;
  } else {
    run.bytes = dump(distribution_sort<Record>(ctx, input));
  }
  return run;
}

/// The device of one sweep step.  The file variant reopens the device file
/// and the journal between the killed run and the resume, the way a new
/// process would; the memory variant resumes in the same device.
struct SweepDevice {
  std::string path;  // empty: memory device
  std::unique_ptr<BlockDevice> dev;

  void open(bool fresh) {
    dev.reset();
    if (path.empty()) {
      if (fresh) dev = std::make_unique<MemoryBlockDevice>(kWgBlockBytes);
      return;
    }
    if (fresh) std::remove(path.c_str());
    dev = std::make_unique<FileBlockDevice>(path, kWgBlockBytes,
                                            /*keep_file=*/true,
                                            /*preserve_contents=*/true);
  }
};

class WorkerFaultSweep : public ::testing::TestWithParam<bool> {};

TEST_P(WorkerFaultSweep, KillAtEveryLaneRoundResumesBitIdenticalThroughJournal) {
  const bool use_file = GetParam();
  constexpr std::size_t kW = 2;
  const auto host = make_workload(Workload::kUniform, kWgRecords, 31);
  // Per-variant names: ctest runs the two variants side by side.
  const std::string stem =
      testing::TempDir() + (use_file ? "/wsweep_file" : "/wsweep_mem");
  const std::string jpath = stem + ".ckpt";

  for (const bool partition : {false, true}) {
    const std::string tag = std::string(use_file ? "file/" : "mem/") +
                            (partition ? "mpart" : "dsort");
    SweepRun ref;
    {
      MemoryBlockDevice dev(kWgBlockBytes);
      Context ctx(dev, kWgMemBlocks * kWgBlockBytes);
      ctx.set_worker_tuning({kW});
      ref = run_job(ctx, host, partition);
    }

    // Rounds are discovered by sweeping upward until a kill at round R no
    // longer fires (the job has fewer than R rounds).
    std::uint64_t rounds_hit = 0;
    for (std::uint64_t r = 1;; ++r) {
      bool fired = false;
      for (std::size_t w = 0; w < kW; ++w) {
        const std::string at = tag + " (lane " + std::to_string(w) +
                               ", round " + std::to_string(r) + ")";
        SweepDevice sd{use_file ? stem + ".dev" : std::string(), nullptr};
        sd.open(/*fresh=*/true);
        std::remove(jpath.c_str());
        auto journal = std::make_unique<CheckpointJournal>(*sd.dev, jpath);
        bool died = false;
        {
          Context ctx(*sd.dev, kWgMemBlocks * kWgBlockBytes);
          ctx.set_checkpoint(journal.get());
          ctx.set_worker_tuning({kW, w, r});
          try {
            const SweepRun run = run_job(ctx, host, partition);
            // Round r does not exist: the run completed untouched.
            ASSERT_EQ(run.bytes, ref.bytes) << at;
          } catch (const WorkerDied& e) {
            died = true;
            EXPECT_EQ(e.worker(), w) << at;
          }
          ctx.set_checkpoint(nullptr);
        }
        if (died) {
          fired = true;
          if (use_file) {
            journal.reset();  // the journal first: it persists the sidecar
            sd.open(/*fresh=*/false);
            journal = std::make_unique<CheckpointJournal>(*sd.dev, jpath);
            journal->restore_device();
          }
          Context ctx(*sd.dev, kWgMemBlocks * kWgBlockBytes);
          ctx.set_checkpoint(journal.get());
          ctx.set_worker_tuning({kW});
          const SweepRun run = run_job(ctx, host, partition);
          ASSERT_EQ(run.bytes, ref.bytes) << at;
          ASSERT_EQ(run.bounds, ref.bounds) << at;
          if (r > 1) {
            EXPECT_GE(journal->resumed_passes(), 1u)
                << at << ": a pass finished before the kill was repaid";
          }
          EXPECT_EQ(journal->owned_blocks(), 0u) << at;
          ctx.set_checkpoint(nullptr);
        }
        journal.reset();
        sd.dev.reset();
        if (use_file) std::remove(sd.path.c_str());
      }
      if (!fired) break;
      ++rounds_hit;
    }
    // Every distributed job here has at least formation, one selection
    // round and the scatter — if fewer rounds fired, the geometry fell back
    // to the classic path and the sweep proved nothing.
    ASSERT_GE(rounds_hit, 3u) << tag;
  }
  std::remove(jpath.c_str());
}

INSTANTIATE_TEST_SUITE_P(Devices, WorkerFaultSweep, ::testing::Bool(),
                         [](const auto& mode_info) {
                           return mode_info.param ? "File" : "Memory";
                         });

}  // namespace
}  // namespace emsplit
