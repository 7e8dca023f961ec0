// UringBlockDevice: backend choice is geometry, never output.
//
// The PR-6 contract extends PR-5's: swapping the file backend for the
// io_uring backend (or its positional-I/O fallback) must leave every
// algorithm's output bytes and logical IoStats bit-identical at every
// tuning, thread count, and shard count — the ring only changes *when*
// syscalls happen, never what the device stores or charges.  The matrix
// here races FileBlockDevice against UringBlockDevice across
// sync/batched x threads {1,4} x D {1,4}; the remaining tests pin
// down the ring-specific hazards (write-behind ordering, oversized
// transfers, discard draining, persistence, O_DIRECT).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstddef>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "em/context.hpp"
#include "em/sharded_device.hpp"
#include "em/stream.hpp"
#include "em/uring_device.hpp"
#include "sort/external_sort.hpp"
#include "test_helpers.hpp"
#include "util/record.hpp"

namespace emsplit {
namespace {

constexpr std::size_t kBlockBytes = 64;   // 4 records per block
constexpr std::size_t kMemBlocks = 256;   // M = 1024 records
constexpr std::size_t kRecords = 4096;    // N/M = 4: real multi-pass runs

std::string temp_path(const char* tag) {
  static int counter = 0;
  return "/tmp/emsplit_uring_test." + std::to_string(::getpid()) + "." +
         std::to_string(counter++) + "." + tag;
}

enum class Backend { kFile, kUring };

// One device of the requested backend, or a ShardedBlockDevice facade over
// D of them.  Each member gets its own scratch file, unlinked on destruction.
std::unique_ptr<BlockDevice> make_backend(Backend backend, std::size_t d) {
  const auto make_member = [&](const std::string& path)
      -> std::unique_ptr<BlockDevice> {
    if (backend == Backend::kUring) {
      return std::make_unique<UringBlockDevice>(
          path, kBlockBytes, UringBlockDevice::tuned());
    }
    return std::make_unique<FileBlockDevice>(path, kBlockBytes);
  };
  if (d <= 1) return make_member(temp_path("solo"));
  std::vector<std::unique_ptr<BlockDevice>> members;
  members.reserve(d);
  for (std::size_t i = 0; i < d; ++i) {
    members.push_back(make_member(temp_path("member")));
  }
  return std::make_unique<ShardedBlockDevice>(std::move(members), 8);
}

std::uint64_t fnv_records(const std::vector<Record>& v) {
  std::uint64_t h = 1469598103934665603ull;
  for (const Record& r : v) {
    h = (h ^ r.key) * 1099511628211ull;
    h = (h ^ r.payload) * 1099511628211ull;
  }
  return h;
}

struct AlgoResult {
  IoStats ios;                 // logical, retry- and cache-free base counts
  std::uint64_t checksum = 0;  // FNV-1a over the output records
};

AlgoResult run_sort(BlockDevice& dev, const IoTuning& tuning,
                    std::size_t threads) {
  Context ctx(dev, kMemBlocks * kBlockBytes);
  ctx.set_io_tuning(tuning);
  ctx.set_cpu_tuning(
      CpuTuning{threads, threads > 1 ? std::size_t{8} : std::size_t{1}});
  const auto host = make_workload(Workload::kUniform, kRecords, 11);
  auto data = materialize<Record>(ctx, std::span<const Record>(host));
  dev.reset_stats();
  auto sorted = external_sort<Record>(ctx, data);
  AlgoResult res;
  res.ios = dev.stats().base();
  res.checksum = fnv_records(to_host(sorted));
  return res;
}

// ---------------------------------------------------------------------------
// The backend-equivalence matrix: file vs uring (native or fallback) across
// tuning x threads x D.  Both halves of the determinism contract at once:
// identical output bytes, identical logical IoStats.
// ---------------------------------------------------------------------------

TEST(UringDeviceTest, BackendEquivalenceMatrix) {
  const struct {
    const char* name;
    IoTuning tuning;
  } tunings[] = {
      {"sync", IoTuning{.batch_blocks = 1}},
      {"batched", IoTuning{.batch_blocks = 8}},
  };
  for (const auto& t : tunings) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (const std::size_t d : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(std::string(t.name) + " threads=" +
                     std::to_string(threads) + " D=" + std::to_string(d));
        auto file_dev = make_backend(Backend::kFile, d);
        auto uring_dev = make_backend(Backend::kUring, d);
        const AlgoResult file_res = run_sort(*file_dev, t.tuning, threads);
        const AlgoResult uring_res = run_sort(*uring_dev, t.tuning, threads);
        EXPECT_EQ(file_res.checksum, uring_res.checksum);
        EXPECT_EQ(file_res.ios, uring_res.ios);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Ring-specific behavior.
// ---------------------------------------------------------------------------

// Whether the ring engages or the constructor fell back to positional I/O,
// the device round-trips bytes per block and in bulk.
TEST(UringDeviceTest, RoundTripNativeOrFallback) {
  UringBlockDevice dev(temp_path("rt"), kBlockBytes);
  // native() may be true or false depending on the host; both are valid,
  // but the probe and the instance must agree in one direction: a native
  // ring implies io_uring support.
  if (dev.native()) {
    EXPECT_TRUE(UringBlockDevice::uring_supported());
  }

  const auto range = dev.allocate(64);
  std::vector<std::byte> buf(kBlockBytes);
  for (std::uint64_t b = 0; b < 64; ++b) {
    std::memset(buf.data(), static_cast<int>(b + 1), buf.size());
    dev.write(range.first + b, buf);
  }
  for (std::uint64_t b = 0; b < 64; ++b) {
    std::memset(buf.data(), 0, buf.size());
    dev.read(range.first + b, buf);
    EXPECT_EQ(std::to_integer<int>(buf[0]), static_cast<int>(b + 1));
    EXPECT_EQ(std::to_integer<int>(buf[kBlockBytes - 1]),
              static_cast<int>(b + 1));
  }

  // Bulk transfer across many blocks in one call.
  std::vector<std::byte> bulk(16 * kBlockBytes);
  for (std::size_t i = 0; i < bulk.size(); ++i) {
    bulk[i] = static_cast<std::byte>(i * 7 + 3);
  }
  dev.write_blocks(range.first, 16, bulk);
  std::vector<std::byte> got(bulk.size());
  dev.read_blocks(range.first, 16, got);
  EXPECT_EQ(bulk, got);

  EXPECT_EQ(dev.stats().reads, 64u + 16u);
  EXPECT_EQ(dev.stats().writes, 64u + 16u);
}

// A transfer larger than the write-behind slot capacity takes the chunked
// synchronous path; bytes must still round-trip exactly.
TEST(UringDeviceTest, OversizedTransferRoundTrip) {
  constexpr std::size_t kBigBlock = 4096;
  constexpr std::uint64_t kCount = 96;  // 384 KiB: well past the slot size
  UringBlockDevice dev(temp_path("big"), kBigBlock);
  const auto range = dev.allocate(kCount);
  std::vector<std::byte> buf(kCount * kBigBlock);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>((i * 2654435761u) >> 13);
  }
  dev.write_blocks(range.first, kCount, buf);
  std::vector<std::byte> got(buf.size());
  dev.read_blocks(range.first, kCount, got);
  EXPECT_EQ(buf, got);
}

// Write-after-write to the same blocks, then a read: the ring may reorder
// completions, but the device must drain the older write so the read sees
// the newest bytes (the RAW/WAW ordering rules).
TEST(UringDeviceTest, OverlappingWritesReadSeesNewest) {
  UringBlockDevice dev(temp_path("waw"), kBlockBytes);
  const auto range = dev.allocate(8);
  std::vector<std::byte> buf(8 * kBlockBytes);
  for (int round = 1; round <= 16; ++round) {
    std::memset(buf.data(), round, buf.size());
    dev.write_blocks(range.first, 8, buf);
  }
  // No drain in between: the last enqueued value must win.
  std::vector<std::byte> got(kBlockBytes);
  dev.read(range.first + 3, got);
  EXPECT_EQ(std::to_integer<int>(got[0]), 16);
}

// deallocate() drains in-flight writes into the freed extent (via
// do_discard), so recycling the blocks for a new extent can never be
// clobbered by a stale completion.
TEST(UringDeviceTest, DiscardDrainsInFlightWrites) {
  UringBlockDevice dev(temp_path("disc"), kBlockBytes);
  auto range = dev.allocate(32);
  std::vector<std::byte> buf(kBlockBytes);
  std::memset(buf.data(), 0x55, buf.size());
  for (std::uint64_t b = 0; b < 32; ++b) dev.write(range.first + b, buf);
  dev.deallocate(range);  // in-flight writes must drain, errors suppressed

  // The recycled extent behaves like fresh storage.
  range = dev.allocate(32);
  std::memset(buf.data(), 0x77, buf.size());
  dev.write(range.first, buf);
  std::memset(buf.data(), 0, buf.size());
  dev.read(range.first, buf);
  EXPECT_EQ(std::to_integer<int>(buf[0]), 0x77);
}

// keep_file + preserve_contents: data and checksum sidecar survive the
// device object, exactly like FileBlockDevice's persistence contract.
TEST(UringDeviceTest, PersistsAcrossReopen) {
  const std::string path = temp_path("persist");
  std::vector<std::byte> buf(kBlockBytes);
  {
    UringBlockDevice dev(path, kBlockBytes, UringBlockDevice::tuned(),
                         /*keep_file=*/true);
    dev.set_checksums(true);
    const auto range = dev.allocate(4);
    ASSERT_EQ(range.first, 0u);
    std::memset(buf.data(), 0x42, buf.size());
    dev.write(0, buf);
  }
  {
    UringBlockDevice dev(path, kBlockBytes, UringBlockDevice::tuned(),
                         /*keep_file=*/true, /*preserve_contents=*/true);
    dev.set_checksums(true);
    // The allocator state does not live in the file; restore it the way a
    // checkpoint resume would.
    const BlockRange live{0, 4};
    dev.restore(4, std::span<const BlockRange>(&live, 1));
    std::memset(buf.data(), 0, buf.size());
    dev.read(0, buf);  // verifies against the reloaded sidecar
    EXPECT_EQ(std::to_integer<int>(buf[0]), 0x42);
  }
  // Final open without keep_file cleans up the scratch files.
  UringBlockDevice dev(path, kBlockBytes);
}

// O_DIRECT is opt-in and probed; whether or not the probe succeeds the
// device must round-trip bytes (bounce buffers, whole-block rounding,
// zero-filled tails are all internal).
TEST(UringDeviceTest, DirectModeRoundTrip) {
  constexpr std::size_t kBigBlock = 4096;
  UringBlockDevice dev(temp_path("direct"), kBigBlock,
                       UringBlockDevice::tuned(/*direct=*/true));
  const auto range = dev.allocate(16);
  std::vector<std::byte> buf(kBigBlock);
  for (std::uint64_t b = 0; b < 16; ++b) {
    std::memset(buf.data(), static_cast<int>(b + 100), buf.size());
    dev.write(range.first + b, buf);
  }
  for (std::uint64_t b = 0; b < 16; ++b) {
    std::memset(buf.data(), 0, buf.size());
    dev.read(range.first + b, buf);
    EXPECT_EQ(std::to_integer<int>(buf[0]), static_cast<int>(b + 100));
    EXPECT_EQ(std::to_integer<int>(buf[kBigBlock - 1]),
              static_cast<int>(b + 100));
  }
  // Partial-block transfer: the device span rule allows a short last block.
  std::vector<std::byte> part(kBigBlock / 2);
  std::memset(part.data(), 0x33, part.size());
  dev.write(range.first, part);
  std::memset(part.data(), 0, part.size());
  dev.read(range.first, part);
  EXPECT_EQ(std::to_integer<int>(part[0]), 0x33);
  EXPECT_EQ(std::to_integer<int>(part[part.size() - 1]), 0x33);
}

// The fault/checksum substrate is inherited: corruption injected into the
// backing store is detected on read when checksums are on.
TEST(UringDeviceTest, ChecksumsDetectCorruption) {
  UringBlockDevice dev(temp_path("sums"), kBlockBytes);
  dev.set_checksums(true);
  const auto range = dev.allocate(4);
  std::vector<std::byte> buf(kBlockBytes);
  std::memset(buf.data(), 0x11, buf.size());
  dev.write(range.first, buf);
  dev.corrupt_bit(range.first, 5);
  EXPECT_THROW(dev.read(range.first, buf), CorruptBlock);
}

}  // namespace
}  // namespace emsplit
