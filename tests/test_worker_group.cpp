// Worker-lane layer: W is geometry, never output.
//
// The matrix test runs distribution_sort and multi_partition under every
// combination of lane count W in {1, 2, 4}, I/O tuning (sync, batched) and
// device (memory, file) and asserts the whole contract at once: output bytes
// bit-identical across W, logical IoStats totals identical across W, and
// every distributed pass's per-lane trace rows partitioning that pass's I/O
// delta exactly.
//
// The kill tests arm WorkerTuning's crash injection so one lane dies at the
// start of a distributed round; with a journal attached the rerun must
// resume past the journaled passes (strictly cheaper than a cold run) and
// still produce bit-identical output — for lane 0, which runs on the
// caller's thread, and for a lane on the group's pool.
//
// The mode tests drive WorkerGroup directly: the W = 0 inline lane, lanes
// running concurrently on private contexts, the lowest-lane exception rule,
// checksums written by concurrent lanes, and the M/mem_workers memory
// partition bounding every lane's budget peak.  The kill sweep over every
// (lane, round) position lives in test_fault_sweep.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "dist/dist_plan.hpp"
#include "em/checkpoint.hpp"
#include "em/pass_engine.hpp"
#include "em/worker_group.hpp"
#include "test_helpers.hpp"

namespace emsplit {
namespace {

using testutil::sorted_copy;

// Geometry under which dist_supported holds for both operations: 128-byte
// blocks (8 records), 256 blocks of memory, 6000 records => 5 formation
// runs and ~12 splitters, comfortably inside the planning-table caps.
constexpr std::size_t kBlockBytes = 128;
constexpr std::size_t kMemBlocks = 256;
constexpr std::size_t kRecords = 6000;

const std::vector<std::uint64_t> kRanks{1234, 3000, 4567};

struct Tuning {
  const char* name;
  IoTuning io;
};

const Tuning kTunings[] = {
    {"sync", {1}},
    {"batched", {4}},
};

std::vector<Record> dump(const EmVector<Record>& v) {
  std::vector<Record> out;
  out.reserve(v.size());
  StreamReader<Record> r(v);
  while (!r.done()) out.push_back(r.next());
  return out;
}

/// Every distributed pass row carries exactly W lane rows whose reads and
/// writes sum to the row's own delta.
void check_worker_rows(const PassTraceLog& trace, std::size_t W,
                       const std::string& tag) {
  std::size_t dist_rows = 0;
  for (const PassTrace& row : trace.rows()) {
    if (row.worker_io.empty()) continue;
    if (row.resumed) continue;  // replayed rows carry no fresh lane work
    ++dist_rows;
    ASSERT_EQ(row.worker_io.size(), W) << tag << " " << row.pass;
    IoStats sum;
    for (const PassWorkerIo& wio : row.worker_io) sum += wio.io;
    EXPECT_EQ(sum.reads, row.io.reads) << tag << " " << row.pass;
    EXPECT_EQ(sum.writes, row.io.writes) << tag << " " << row.pass;
  }
  EXPECT_GT(dist_rows, 0u) << tag << ": no distributed pass recorded";
}

struct LegResult {
  std::vector<Record> bytes;
  IoStats io;
  std::vector<std::uint64_t> bounds;  // partition only
};

enum class WorkerBackend { kMem, kFile };

constexpr const char* backend_name(WorkerBackend b) {
  return b == WorkerBackend::kMem ? "Memory" : "File";
}

/// One (backend, tuning, W, op) leg.  `file_path` names the backing file for
/// the file backend (unused for memory).
LegResult run_leg(WorkerBackend backend, const std::string& file_path,
                  const IoTuning& io, std::size_t W, bool partition,
                  const std::vector<Record>& host) {
  std::unique_ptr<BlockDevice> owned;
  if (backend == WorkerBackend::kMem) {
    owned = std::make_unique<MemoryBlockDevice>(kBlockBytes);
  } else {
    std::remove(file_path.c_str());
    owned = std::make_unique<FileBlockDevice>(file_path, kBlockBytes);
  }
  BlockDevice* dev = owned.get();
  Context ctx(*dev, kMemBlocks * kBlockBytes);
  ctx.set_io_tuning(io);
  ctx.set_worker_tuning({W});
  PassTraceLog trace;
  ctx.set_pass_trace(&trace);

  auto input = materialize<Record>(ctx, std::span<const Record>(host));
  EXPECT_TRUE(dist::dist_supported<Record>(ctx, kRecords, partition ? 3 : 0))
      << "geometry drifted: the distributed path no longer engages";

  LegResult leg;
  dev->reset_stats();
  if (partition) {
    auto res = multi_partition<Record>(ctx, input, kRanks);
    leg.io = dev->stats().base();
    leg.bytes = dump(res.data);
    leg.bounds = res.bounds;
    // Spans flagged sorted must actually be sorted runs of the output.
    for (const auto& s : res.spans) {
      if (!s.sorted) continue;
      const auto lo = leg.bytes.begin() + static_cast<std::ptrdiff_t>(s.lo);
      const auto hi = leg.bytes.begin() + static_cast<std::ptrdiff_t>(s.hi);
      EXPECT_TRUE(std::is_sorted(lo, hi));
    }
  } else {
    auto out = distribution_sort<Record>(ctx, input);
    leg.io = dev->stats().base();
    leg.bytes = dump(out);
  }
  check_worker_rows(trace, W,
                    std::string(partition ? "mpart" : "dsort") + "/W=" +
                        std::to_string(W));
  ctx.set_pass_trace(nullptr);
  return leg;
}

class WorkerTransparency : public ::testing::TestWithParam<WorkerBackend> {};

TEST_P(WorkerTransparency, OutputAndIoInvariantAcrossW) {
  const WorkerBackend backend = GetParam();
  const auto host = make_workload(Workload::kUniform, kRecords, 71);
  const auto sorted_ref = sorted_copy(host);

  for (const Tuning& t : kTunings) {
    for (const bool partition : {false, true}) {
      const std::string tag = std::string(backend_name(backend)) + "/" +
                              t.name + (partition ? "/mpart" : "/dsort");
      LegResult ref;
      bool have_ref = false;
      for (const std::size_t W : {1u, 2u, 4u}) {
        const std::string path = testing::TempDir() + "/wg_" + t.name +
                                 (partition ? "_p_" : "_s_") +
                                 std::to_string(W) + ".dev";
        LegResult leg = run_leg(backend, path, t.io, W, partition, host);
        std::remove(path.c_str());

        if (!partition) {
          // The distributed sort is a *sort*: equal to the oracle, which
          // also forces bit-identity across W (records are totally ordered).
          ASSERT_EQ(leg.bytes, sorted_ref) << tag << " W=" << W;
        } else {
          ASSERT_EQ(leg.bounds.front(), 0u) << tag;
          ASSERT_EQ(leg.bounds.back(), kRecords) << tag;
          // Each requested rank is realized exactly: the prefix below it is
          // the multiset of the smallest r records.
          for (const std::uint64_t r : kRanks) {
            std::vector<Record> prefix(
                leg.bytes.begin(),
                leg.bytes.begin() + static_cast<std::ptrdiff_t>(r));
            std::sort(prefix.begin(), prefix.end());
            ASSERT_TRUE(std::equal(prefix.begin(), prefix.end(),
                                   sorted_ref.begin()))
                << tag << " W=" << W << " rank " << r;
          }
        }
        if (!have_ref) {
          ref = std::move(leg);
          have_ref = true;
          continue;
        }
        // W is geometry, never output: bytes and logical I/O both invariant.
        ASSERT_EQ(leg.bytes, ref.bytes) << tag << " W diverged the bytes";
        ASSERT_EQ(leg.io.reads, ref.io.reads) << tag;
        ASSERT_EQ(leg.io.writes, ref.io.writes) << tag;
        if (partition) {
          ASSERT_EQ(leg.bounds, ref.bounds) << tag;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, WorkerTransparency,
    ::testing::Values(WorkerBackend::kMem, WorkerBackend::kFile),
    [](const auto& param_info) { return backend_name(param_info.param); });

// ---------------------------------------------------------------------------
// Crash injection: a lane killed mid-job leaves a resumable journal, and the
// rerun repays only the interrupted pass onward.

/// Kill lane `victim` of a W-lane dsort at round 2 (the first selection
/// round — run formation is already journaled as pass 1), then rerun
/// disarmed at `resume_w` lanes: the job resumes, repays strictly less than
/// a cold run, and still sorts.
void kill_and_resume(BlockDevice& dev, std::size_t W, std::size_t victim,
                     std::size_t resume_w, std::uint64_t seed,
                     const std::string& jname) {
  const auto host = make_workload(Workload::kUniform, kRecords, seed);
  const auto sorted_ref = sorted_copy(host);
  Context ctx(dev, kMemBlocks * kBlockBytes);
  ctx.set_worker_tuning({W});
  auto input = materialize<Record>(ctx, std::span<const Record>(host));

  // Uninterrupted reference cost for the repay comparison.
  dev.reset_stats();
  { auto ref = distribution_sort<Record>(ctx, input); }
  const std::uint64_t ref_total = dev.stats().total();

  const std::string jpath = testing::TempDir() + "/" + jname;
  std::remove(jpath.c_str());
  {
    CheckpointJournal journal(dev, jpath);
    ctx.set_checkpoint(&journal);
    ctx.set_worker_tuning({W, victim, 2});
    bool died = false;
    try {
      auto out = distribution_sort<Record>(ctx, input);
    } catch (const WorkerDied& e) {
      died = true;
      EXPECT_EQ(e.worker(), victim);
    }
    ASSERT_TRUE(died) << "kill hook never fired";
    ASSERT_GT(journal.owned_blocks(), 0u)
        << "formation pass was not journaled before the kill";

    // The fingerprint and the journaled extents are W-free, so any W may
    // finish the job.
    ctx.set_worker_tuning({resume_w});
    dev.reset_stats();
    auto out = distribution_sort<Record>(ctx, input);
    const std::uint64_t resumed_total = dev.stats().total();
    EXPECT_GE(journal.resumed_passes(), 1u);
    EXPECT_LT(resumed_total, ref_total);
    EXPECT_EQ(dump(out), sorted_ref);
    EXPECT_EQ(journal.owned_blocks(), 0u);
    ctx.set_checkpoint(nullptr);
  }
  std::remove(jpath.c_str());
}

TEST(WorkerGroupKill, CallerLaneDiesAndJobResumes) {
  MemoryBlockDevice dev(kBlockBytes);
  kill_and_resume(dev, 2, 0, 2, 72, "wg_kill_caller.ckpt");
}

TEST(WorkerGroupKill, PoolLaneDiesAndJobResumesUnderAnotherW) {
  const std::string dev_path = testing::TempDir() + "/wg_kill_pool.dev";
  std::remove(dev_path.c_str());
  {
    FileBlockDevice dev(dev_path, kBlockBytes);
    kill_and_resume(dev, 4, 3, 2, 73, "wg_kill_pool.ckpt");
  }
  std::remove(dev_path.c_str());
}

// ---------------------------------------------------------------------------
// The two modes, driven directly.

// workers() == 0 asks for no worker lanes.  The group is then one inline
// lane: the body runs once, on the caller's thread, in the caller's context.
TEST(WorkerGroupMode, ZeroWorkersIsOneInlineLane) {
  const std::string dev_path = testing::TempDir() + "/wg_zero.dev";
  std::remove(dev_path.c_str());
  FileBlockDevice dev(dev_path, kBlockBytes);
  Context ctx(dev, kMemBlocks * kBlockBytes);
  ASSERT_EQ(ctx.workers(), 0u);
  WorkerGroup group(ctx);
  EXPECT_EQ(group.workers(), 1u);

  const BlockRange range = dev.allocate(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t calls = 0;
  std::size_t lane = 99;
  const auto body = [&](Context& wctx, std::size_t w) {
    ++calls;
    lane = w;
    EXPECT_EQ(&wctx, &ctx) << "the inline lane runs in the caller's context";
    EXPECT_EQ(std::this_thread::get_id(), caller);
    BlockDevice& d = wctx.device();
    std::vector<std::byte> blk(d.block_bytes(), std::byte{7});
    d.write(range.first, blk);
    d.write(range.first + 1, blk);
    d.read(range.first, blk);
  };
  const IoStats before = dev.stats();
  const std::vector<PassWorkerIo> rows = group.round("zero", body);
  const IoStats delta = dev.stats() - before;

  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(lane, 0u);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].worker, 0u);
  EXPECT_EQ(rows[0].io, delta);
  EXPECT_EQ(rows[0].peak_bytes, 0u);
  EXPECT_EQ(delta.reads, 1u);
  EXPECT_EQ(delta.writes, 2u);
  std::remove(dev_path.c_str());
}

// W >= 1: every lane of a round runs at the same time, each on its own
// thread with a private context (budget M / mem_workers), and the lanes'
// rows partition the device delta even though the lanes transfer
// concurrently.
TEST(WorkerGroupMode, LanesRunConcurrentlyOnPrivateContexts) {
  constexpr std::size_t kW = 4;
  MemoryBlockDevice dev(kBlockBytes);
  Context ctx(dev, kMemBlocks * kBlockBytes);
  WorkerTuning wt;
  wt.workers = kW;
  wt.mem_workers = 2;
  ctx.set_worker_tuning(wt);
  ctx.set_io_tuning({4});
  WorkerGroup group(ctx);
  ASSERT_EQ(group.workers(), kW);

  const BlockRange range = dev.allocate(3 * kW);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t arrived = 0;
  bool all_met = true;
  std::vector<std::thread::id> threads(kW);
  std::vector<const Context*> contexts(kW, nullptr);
  const auto body = [&](Context& wctx, std::size_t w) {
    threads[w] = std::this_thread::get_id();
    contexts[w] = &wctx;
    EXPECT_EQ(wctx.mem_bytes(), ctx.mem_bytes() / 2) << "lane " << w;
    EXPECT_EQ(wctx.io_tuning().batch_blocks, 4u) << "lane " << w;
    auto res = wctx.budget().reserve(64 * (w + 1));
    {
      // A barrier inside the round: it is only passed if all W lanes are
      // in their bodies at once.
      std::unique_lock<std::mutex> lk(mu);
      ++arrived;
      cv.notify_all();
      if (!cv.wait_for(lk, std::chrono::seconds(10),
                       [&] { return arrived == kW; })) {
        all_met = false;
      }
    }
    BlockDevice& d = wctx.device();
    std::vector<std::byte> blk(d.block_bytes(),
                               std::byte{static_cast<unsigned char>(w + 1)});
    for (std::size_t i = 0; i <= w % 3; ++i) {
      d.write(range.first + 3 * w + i, blk);
    }
    d.read(range.first + 3 * w, blk);
  };
  const IoStats before = dev.stats();
  const std::vector<PassWorkerIo> rows = group.round("lanes", body);
  const IoStats delta = dev.stats() - before;

  EXPECT_TRUE(all_met) << "the lanes of one round did not run concurrently";
  ASSERT_EQ(rows.size(), kW);
  IoStats sum;
  for (std::size_t w = 0; w < kW; ++w) {
    EXPECT_EQ(rows[w].worker, w);
    EXPECT_EQ(rows[w].io.writes, w % 3 + 1) << "lane " << w;
    EXPECT_EQ(rows[w].io.reads, 1u) << "lane " << w;
    EXPECT_EQ(rows[w].peak_bytes, 64 * (w + 1)) << "lane " << w;
    EXPECT_GE(rows[w].barrier_seconds, 0.0);
    EXPECT_NE(contexts[w], &ctx) << "lane " << w;
    for (std::size_t v = 0; v < w; ++v) {
      EXPECT_NE(threads[v], threads[w]) << "lanes " << v << " and " << w;
    }
    sum += rows[w].io;
  }
  EXPECT_EQ(sum, delta);
  EXPECT_EQ(ctx.budget().used(), 0u);
}

/// A device that forwards every transfer to an inner device, the way a
/// tracing wrapper does.
class ForwardingDevice final : public BlockDevice {
 public:
  explicit ForwardingDevice(BlockDevice& inner)
      : BlockDevice(inner.block_bytes()), inner_(inner) {}

 protected:
  void do_read(BlockId block, std::span<std::byte> out) override {
    inner_.read(block, out);
  }
  void do_write(BlockId block, std::span<const std::byte> in) override {
    inner_.write(block, in);
  }
  void do_read_blocks(BlockId first, std::uint64_t count,
                      std::span<std::byte> out) override {
    inner_.read_blocks(first, count, out);
  }
  void do_write_blocks(BlockId first, std::uint64_t count,
                       std::span<const std::byte> in) override {
    inner_.write_blocks(first, count, in);
  }
  void do_grow(std::uint64_t new_size_blocks) override {
    (void)inner_.allocate(new_size_blocks - inner_.size_blocks());
  }

 private:
  BlockDevice& inner_;
};

// A lane's row counts the blocks it moved through its context's device once,
// even when that device forwards each transfer to another device.
TEST(WorkerGroupMode, LaneRowsCountForwardedTransfersOnce) {
  MemoryBlockDevice inner(kBlockBytes);
  ForwardingDevice dev(inner);
  Context ctx(dev, kMemBlocks * kBlockBytes);
  ctx.set_worker_tuning({2});
  WorkerGroup group(ctx);
  const BlockRange range = dev.allocate(8);
  const auto body = [&](Context& wctx, std::size_t w) {
    std::vector<std::byte> blks(4 * wctx.block_bytes(), std::byte{3});
    wctx.device().write_blocks(range.first + 4 * w, 4, blks);
    wctx.device().read(range.first + 4 * w, std::span(blks).first(16));
  };
  const IoStats before = dev.stats();
  const std::vector<PassWorkerIo> rows = group.round("fwd", body);
  IoStats sum = rows[0].io;
  sum += rows[1].io;
  EXPECT_EQ(sum, dev.stats() - before);
  EXPECT_EQ(rows[1].io.writes, 4u);
  EXPECT_EQ(rows[1].io.reads, 1u);
}

// A failing round waits for every lane, then rethrows the exception of the
// lowest-numbered lane that threw; the kill hook is one such exception.
TEST(WorkerGroupMode, FailureRethrowsTheLowestLaneAfterTheBarrier) {
  constexpr std::size_t kW = 4;
  MemoryBlockDevice dev(kBlockBytes);
  Context ctx(dev, kMemBlocks * kBlockBytes);
  ctx.set_worker_tuning({kW});
  WorkerGroup group(ctx);

  const BlockRange range = dev.allocate(kW);
  std::vector<int> ran(kW, 0);
  const auto body = [&](Context& wctx, std::size_t w) {
    std::vector<std::byte> blk(wctx.block_bytes(), std::byte{1});
    wctx.device().write(range.first + w, blk);
    ran[w] = 1;
    if (w == 1 || w == 3) {
      throw std::runtime_error("lane " + std::to_string(w) + " failed");
    }
  };
  dev.reset_stats();
  try {
    (void)group.round("fail", body);
    FAIL() << "the failed round returned";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "lane 1 failed");
  }
  EXPECT_EQ(ran, std::vector<int>(kW, 1)) << "a lane was skipped";
  EXPECT_EQ(dev.stats().writes, kW) << "every lane's blocks moved and count";

  // Round 2 kills lane 2 before its body runs.
  ctx.set_worker_tuning({kW, 2, 2});
  std::fill(ran.begin(), ran.end(), 0);
  const auto quiet = [&](Context&, std::size_t w) { ran[w] = 1; };
  try {
    (void)group.round("kill", quiet);
    FAIL() << "the kill hook never fired";
  } catch (const WorkerDied& e) {
    EXPECT_EQ(e.worker(), 2u);
    EXPECT_NE(std::string(e.what()).find("round 2"), std::string::npos);
  }
  EXPECT_EQ(ran, (std::vector<int>{1, 1, 0, 1}));
}

// Checksums under concurrent lanes: a W = 4 dsort on a FileBlockDevice with
// checksums on.  The shared table covers every lane's writes, a journaled
// run killed mid-job reopens (device file, sidecar and journal) and resumes
// verified, and a bit flipped after the run raises CorruptBlock.
TEST(WorkerGroupMode, ConcurrentLanesChecksumsCoverEveryWrite) {
  const auto host = make_workload(Workload::kUniform, kRecords, 74);
  const auto sorted_ref = sorted_copy(host);
  const std::string dev_path = testing::TempDir() + "/wg_cksum.dev";
  const std::string jpath = testing::TempDir() + "/wg_cksum.ckpt";
  const auto clean = [&] {
    std::remove(dev_path.c_str());
    std::remove((dev_path + ".sums").c_str());
    std::remove(jpath.c_str());
  };
  clean();

  {
    // Killed at round 2: the formation round's runs — written by four
    // lanes at once — are journaled, the select round never finished.
    FileBlockDevice dev(dev_path, kBlockBytes, /*keep_file=*/true,
                        /*preserve_contents=*/true);
    dev.set_checksums(true);
    Context ctx(dev, kMemBlocks * kBlockBytes);
    CheckpointJournal journal(dev, jpath);
    journal.restore_device();
    ctx.set_checkpoint(&journal);
    ctx.set_worker_tuning({4, 1, 2});
    auto input = materialize<Record>(ctx, std::span<const Record>(host));
    EXPECT_THROW((void)distribution_sort<Record>(ctx, input), WorkerDied);
    ASSERT_GT(journal.owned_blocks(), 0u);
    ctx.set_checkpoint(nullptr);
  }
  {
    FileBlockDevice dev(dev_path, kBlockBytes, /*keep_file=*/true,
                        /*preserve_contents=*/true);
    dev.set_checksums(true);
    Context ctx(dev, kMemBlocks * kBlockBytes);
    CheckpointJournal journal(dev, jpath);
    journal.restore_device();
    // The reloaded table covers exactly the blocks of the journaled runs
    // (restore_device drops the rest).
    const std::uint64_t run_blocks = (kRecords * sizeof(Record) +
                                      kBlockBytes - 1) / kBlockBytes;
    EXPECT_EQ(dev.export_sums().size(), run_blocks)
        << "the sidecar lacks blocks the lanes wrote";
    ctx.set_checkpoint(&journal);
    ctx.set_worker_tuning({4});
    auto input = materialize<Record>(ctx, std::span<const Record>(host));
    auto out = distribution_sort<Record>(ctx, input);
    EXPECT_GE(journal.resumed_passes(), 1u);
    EXPECT_EQ(dump(out), sorted_ref);  // dump() re-reads under verification
    ctx.set_checkpoint(nullptr);

    // Every output block — interior blocks written by the lanes, edge blocks
    // by the coordinator's stitch — has a live checksum.
    const std::vector<SumEntry> after = dev.export_sums();
    const BlockRange ext = out.extent();
    std::uint64_t covered = 0;
    for (const SumEntry& e : after) {
      if (e.block >= ext.first && e.block < ext.first + ext.count) ++covered;
    }
    EXPECT_EQ(covered, ext.count);
    const BlockId victim = ext.first + ext.count / 2;
    dev.corrupt_bit(victim, 3);
    std::vector<std::byte> buf(kBlockBytes);
    EXPECT_THROW(dev.read(victim, buf), CorruptBlock)
        << "a lane-written block was not covered by the checksum table";
  }
  clean();
}

// ---------------------------------------------------------------------------
// Worker-aware memory partitioning: with mem_workers = K every lane plans
// against and is budgeted M / K, so the reported per-lane budget peaks are
// bounded by M / K and any W <= K keeps the sum under M -- while W itself
// stays bit-identical at fixed K.

TEST(WorkerGroupMode, MemWorkersBoundsLanePeaksAndStaysWInvariant) {
  // 4x the matrix memory so the quartered per-lane plan still satisfies
  // dist_supported (the coordinator's planning tables budget against full M).
  const std::size_t mem_bytes = 4 * kMemBlocks * kBlockBytes;
  const auto host = make_workload(Workload::kUniform, kRecords, 75);
  const auto sorted_ref = sorted_copy(host);

  LegResult ref;
  bool have_ref = false;
  for (const std::size_t W : {1u, 2u, 4u}) {
    const std::string path =
        testing::TempDir() + "/wg_memw_" + std::to_string(W) + ".dev";
    std::remove(path.c_str());
    FileBlockDevice dev(path, kBlockBytes);
    Context ctx(dev, mem_bytes);
    WorkerTuning wt;
    wt.workers = W;
    wt.mem_workers = 4;
    ctx.set_worker_tuning(wt);
    PassTraceLog trace;
    ctx.set_pass_trace(&trace);
    auto input = materialize<Record>(ctx, std::span<const Record>(host));
    ASSERT_TRUE(dist::dist_supported<Record>(ctx, kRecords, 0))
        << "quartered plan no longer fits; grow the test's memory";

    dev.reset_stats();
    auto out = distribution_sort<Record>(ctx, input);
    LegResult leg;
    leg.io = dev.stats().base();
    leg.bytes = dump(out);
    ASSERT_EQ(leg.bytes, sorted_ref) << "W=" << W;

    // Every lane's reported budget peak obeys the M/K partition.
    const std::size_t share =
        std::max(mem_bytes / 4, 2 * ctx.block_bytes());
    std::size_t peaks_seen = 0;
    for (const PassTrace& row : trace.rows()) {
      for (const PassWorkerIo& wio : row.worker_io) {
        if (wio.peak_bytes == 0) continue;
        ++peaks_seen;
        EXPECT_LE(wio.peak_bytes, share)
            << row.pass << " lane " << wio.worker;
      }
    }
    EXPECT_GT(peaks_seen, 0u) << "no lane reported a budget peak";

    ctx.set_pass_trace(nullptr);
    std::remove(path.c_str());
    if (!have_ref) {
      ref = std::move(leg);
      have_ref = true;
      continue;
    }
    // Same knob, different W: bytes and logical I/O must not move.
    ASSERT_EQ(leg.bytes, ref.bytes) << "W=" << W;
    ASSERT_EQ(leg.io.reads, ref.io.reads) << "W=" << W;
    ASSERT_EQ(leg.io.writes, ref.io.writes) << "W=" << W;
  }
}

}  // namespace
}  // namespace emsplit
