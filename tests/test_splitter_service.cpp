// The resident splitter service: the query engine's exactness against the
// sorted oracle, per-query I/O attribution (the service analogue of
// "geometry, never output"), concurrent-client determinism across backends,
// admission control, epoch refresh, the line-protocol socket front end, and
// crash-consistent epoch recovery.
//
// The determinism contract under test: a fixed query script produces
// bit-identical answers from any number of concurrent client threads, and
// the *sum* of per-query attributed base I/O over any schedule equals the
// serial run's — each query counts the block reads its own geometry
// dictates, never a neighbor's.
//
// The recovery sweep mirrors the checkpointed-sort kill sweep: a forked
// child arms the journal's crash injection at every append index inside
// refresh(), dies mid-publish, and the parent restarts the service over the
// surviving journal — which must serve whatever epoch the CURRENT file
// names, answer correctly, and complete a further refresh.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
#include "em/checkpoint.hpp"
#include "em/uring_device.hpp"
#include "service/server.hpp"
#include "service/splitter_index.hpp"
#include "test_helpers.hpp"

namespace emsplit {
namespace {

using testutil::sorted_copy;

constexpr std::size_t kBlockBytes = 256;  // 16 records per block
constexpr std::size_t kMemBlocks = 512;
constexpr std::size_t kRecords = 4096;
constexpr std::uint64_t kBuckets = 16;

std::string temp_path(const char* tag) {
  static int counter = 0;
  return testing::TempDir() + "/svc_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + "_" + tag;
}

void write_record_file(const std::string& path,
                       const std::vector<Record>& v) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(v.data(), sizeof(Record), v.size(), f), v.size());
  ASSERT_EQ(std::fclose(f), 0);
}

/// #{e in S : e <= probe} on the sorted oracle.
std::uint64_t oracle_rank(const std::vector<Record>& sorted_ref,
                          const Record& probe) {
  return static_cast<std::uint64_t>(
      std::upper_bound(sorted_ref.begin(), sorted_ref.end(), probe) -
      sorted_ref.begin());
}

// ---------------------------------------------------------------------------
// The engine: SplitterIndex query exactness against the sorted oracle.

struct IndexFixture {
  testutil::EmEnv env{kBlockBytes, kMemBlocks};
  std::vector<Record> host;
  std::vector<Record> sorted_ref;
  EmVector<Record> data;
  SplitterIndex<Record> idx;

  explicit IndexFixture(unsigned seed = 41)
      : host(make_workload(Workload::kUniform, kRecords, seed)),
        sorted_ref(sorted_copy(host)),
        data(materialize<Record>(env.ctx, std::span<const Record>(host))),
        idx(SplitterIndex<Record>::build(env.ctx, data, kBuckets, 0.25)) {}
};

TEST(SplitterIndexQueries, RankMatchesOracleEverywhere) {
  IndexFixture f;
  EXPECT_EQ(f.idx.size(), kRecords);
  EXPECT_EQ(f.idx.buckets(), kBuckets);

  for (std::size_t r = 0; r < kRecords; r += 97) {
    const Record probe = f.sorted_ref[r];
    const auto got = f.idx.rank(probe);
    EXPECT_EQ(got.value, oracle_rank(f.sorted_ref, probe)) << "rank " << r;
    EXPECT_GT(got.io.reads, 0u);
  }
  // Below everything: zero rank.  Above everything: N with zero I/O (the
  // routing table answers without touching the device).
  const auto lo = f.idx.rank(Record{0, 0});
  EXPECT_EQ(lo.value, oracle_rank(f.sorted_ref, Record{0, 0}));
  const auto hi = f.idx.rank(Record{~0ULL, ~0ULL});
  EXPECT_EQ(hi.value, kRecords);
  EXPECT_EQ(hi.io.reads, 0u);
}

TEST(SplitterIndexQueries, RangeCountMatchesOracle) {
  IndexFixture f;
  const std::size_t probes[][2] = {{100, 3000}, {0, 4095}, {2000, 2001}};
  for (const auto& p : probes) {
    const Record a = f.sorted_ref[p[0]];
    const Record b = f.sorted_ref[p[1]];
    const auto got = f.idx.range_count(a, b);
    EXPECT_EQ(got.value, oracle_rank(f.sorted_ref, b) -
                             oracle_rank(f.sorted_ref, a))
        << p[0] << ".." << p[1];
  }
  // Inverted range counts zero, never underflows.
  EXPECT_EQ(f.idx.range_count(f.sorted_ref[3000], f.sorted_ref[100]).value,
            0u);
}

TEST(SplitterIndexQueries, HistogramRegroupsExactSizesWithZeroIo) {
  IndexFixture f;
  for (const std::uint64_t k : {std::uint64_t{1}, std::uint64_t{3}, kBuckets}) {
    const auto got = f.idx.histogram(k);
    EXPECT_EQ(got.io.reads, 0u) << "k=" << k;
    const auto& h = got.value;
    ASSERT_EQ(h.buckets(), k);
    ASSERT_EQ(h.boundaries.size(), static_cast<std::size_t>(k - 1));
    EXPECT_EQ(h.total, kRecords);
    std::uint64_t sum = 0;
    std::uint64_t prev = 0;
    for (std::size_t i = 0; i < h.sizes.size(); ++i) {
      sum += h.sizes[i];
      // Bucket i covers (boundary[i-1], boundary[i]]: its size must equal
      // the oracle's count for that key interval exactly.
      const std::uint64_t upto =
          i + 1 < h.sizes.size()
              ? oracle_rank(f.sorted_ref, h.boundaries[i])
              : kRecords;
      EXPECT_EQ(h.sizes[i], upto - prev) << "k=" << k << " bucket " << i;
      prev = upto;
    }
    EXPECT_EQ(sum, kRecords) << "k=" << k;
  }
  EXPECT_THROW((void)f.idx.histogram(0), std::invalid_argument);
  EXPECT_THROW((void)f.idx.histogram(kBuckets + 1), std::invalid_argument);
}

TEST(SplitterIndexQueries, TopKMatchesSortedTails) {
  IndexFixture f;
  for (const std::uint64_t k :
       {std::uint64_t{1}, std::uint64_t{37}, std::uint64_t{512},
        std::uint64_t{kRecords}}) {
    const auto largest = f.idx.top_k(k, /*largest=*/true);
    const std::vector<Record> tail(
        f.sorted_ref.end() - static_cast<std::ptrdiff_t>(k),
        f.sorted_ref.end());
    EXPECT_EQ(largest.value, tail) << "k=" << k;

    const auto smallest = f.idx.top_k(k, /*largest=*/false);
    const std::vector<Record> head(
        f.sorted_ref.begin(),
        f.sorted_ref.begin() + static_cast<std::ptrdiff_t>(k));
    EXPECT_EQ(smallest.value, head) << "k=" << k;
  }
  EXPECT_THROW((void)f.idx.top_k(0), std::invalid_argument);
  EXPECT_THROW((void)f.idx.top_k(kRecords + 1), std::invalid_argument);
}

TEST(SplitterIndexQueries, PerQueryIoSumsToDeviceDelta) {
  IndexFixture f;
  f.env.dev.reset_stats();
  IoStats sum;
  for (std::size_t r = 0; r < kRecords; r += 311) {
    sum += f.idx.rank(f.sorted_ref[r]).io;
  }
  sum += f.idx.range_count(f.sorted_ref[100], f.sorted_ref[4000]).io;
  sum += f.idx.histogram(8).io;
  sum += f.idx.top_k(64, true).io;
  sum += f.idx.top_k(64, false).io;
  const IoStats dev = f.env.dev.stats();
  EXPECT_EQ(sum.base().reads, dev.base().reads);
  EXPECT_EQ(dev.base().writes, 0u) << "queries must never write";
}

// ---------------------------------------------------------------------------
// The sorted index's geometry: fences every s blocks, exact quantile bounds.

/// Blocks of `per` records that records [first, first + k) touch.
std::uint64_t blocks_touched(std::uint64_t first, std::uint64_t k,
                             std::uint64_t per) {
  return (first + k - 1) / per - first / per + 1;
}

/// Rank every record and its +-1-key neighbours against the oracle; every
/// rank reads at most s blocks, and one outside [min, max) reads none.
void expect_exact_ranks(const SplitterIndex<Record>& idx,
                        const std::vector<Record>& sorted_ref) {
  const Record lo = sorted_ref.front();
  const Record hi = sorted_ref.back();
  std::vector<Record> probes{Record{0, 0}, Record{~0ULL, ~0ULL}};
  for (const Record& r : sorted_ref) {
    probes.push_back(r);
    if (r.key > 0) probes.push_back(Record{r.key - 1, r.payload});
    if (r.key < ~0ULL) probes.push_back(Record{r.key + 1, r.payload});
  }
  for (const Record& p : probes) {
    const auto got = idx.rank(p);
    ASSERT_EQ(got.value, oracle_rank(sorted_ref, p))
        << "probe " << p.key << "/" << p.payload;
    ASSERT_LE(got.io.reads, idx.fence_stride()) << "probe " << p.key;
    if (p < lo || !(p < hi)) {
      ASSERT_EQ(got.io.reads, 0u) << "probe " << p.key;
    } else {
      ASSERT_GT(got.io.reads, 0u) << "probe " << p.key;
    }
  }
}

TEST(SplitterIndexGeometry, EveryRankIsExactWithinOneFenceGroup) {
  IndexFixture f;
  EXPECT_EQ(f.idx.fence_stride(), 1u);  // 256 fences fit in M/16 = 8 KiB
  EXPECT_EQ(f.idx.fences().size(), kRecords / 16);
  expect_exact_ranks(f.idx, f.sorted_ref);
}

TEST(SplitterIndexGeometry, TinyMemoryForcesAWiderFenceStride) {
  // M = 64 blocks: the 256-fence table (4 KiB) exceeds M/16 = 1 KiB, so
  // fences sit every s = 4 blocks and a rank reads up to 4.
  testutil::EmEnv env(kBlockBytes, 64);
  const auto host = make_workload(Workload::kUniform, kRecords, 47);
  const auto sorted_ref = sorted_copy(host);
  auto data = materialize<Record>(env.ctx, std::span<const Record>(host));
  const auto idx = SplitterIndex<Record>::build(env.ctx, data, kBuckets, 0.25);
  EXPECT_EQ(idx.fence_stride(), 4u);
  EXPECT_EQ(idx.fences().size(), kRecords / 16 / 4);
  expect_exact_ranks(idx, sorted_ref);
}

TEST(SplitterIndexGeometry, SingleBucketLargerThanMemory) {
  testutil::EmEnv env(kBlockBytes, 64);  // N = 64 KiB > M = 16 KiB
  const auto host = make_workload(Workload::kUniform, kRecords, 48);
  const auto sorted_ref = sorted_copy(host);
  auto data = materialize<Record>(env.ctx, std::span<const Record>(host));
  const auto idx = SplitterIndex<Record>::build(env.ctx, data, 1, 0.25);
  EXPECT_EQ(idx.bounds(), (std::vector<std::uint64_t>{0, kRecords}));
  ASSERT_EQ(idx.uppers().size(), 1u);
  EXPECT_EQ(idx.uppers()[0], sorted_ref.back());
  EXPECT_EQ(idx.histogram(1).value.sizes,
            (std::vector<std::uint64_t>{kRecords}));
  expect_exact_ranks(idx, sorted_ref);
}

TEST(SplitterIndexGeometry, BucketsThatDoNotDivideNAreExactQuantiles) {
  constexpr std::size_t kN = 4001;
  constexpr std::uint64_t kK = 7;
  testutil::EmEnv env(kBlockBytes, kMemBlocks);
  const auto host = make_workload(Workload::kUniform, kN, 49);
  const auto sorted_ref = sorted_copy(host);
  auto data = materialize<Record>(env.ctx, std::span<const Record>(host));
  const auto idx = SplitterIndex<Record>::build(env.ctx, data, kK, 0.0);
  ASSERT_EQ(idx.bounds().size(), kK + 1);
  for (std::uint64_t i = 0; i <= kK; ++i) {
    EXPECT_EQ(idx.bounds()[i], i * kN / kK) << "bound " << i;
  }
  for (std::uint64_t i = 0; i < kK; ++i) {
    EXPECT_EQ(idx.uppers()[i], sorted_ref[idx.bounds()[i + 1] - 1])
        << "bucket " << i;
  }
  expect_exact_ranks(idx, sorted_ref);
}

TEST(SplitterIndexGeometry, TopKReadsExactlyTheBlocksItTouches) {
  constexpr std::size_t kN = 4001;  // the tail block is partial
  constexpr std::uint64_t kPer = kBlockBytes / sizeof(Record);
  testutil::EmEnv env(kBlockBytes, kMemBlocks);
  const auto host = make_workload(Workload::kUniform, kN, 50);
  const auto sorted_ref = sorted_copy(host);
  auto data = materialize<Record>(env.ctx, std::span<const Record>(host));
  const auto idx = SplitterIndex<Record>::build(env.ctx, data, kBuckets, 0.25);
  for (const std::uint64_t k : {std::uint64_t{1}, kPer - 1, kPer, kPer + 1,
                                std::uint64_t{kN}}) {
    for (const bool largest : {true, false}) {
      env.dev.reset_stats();
      const auto got = idx.top_k(k, largest);
      const std::uint64_t first = largest ? kN - k : 0;
      const std::vector<Record> want(
          sorted_ref.begin() + static_cast<std::ptrdiff_t>(first),
          sorted_ref.begin() + static_cast<std::ptrdiff_t>(first + k));
      EXPECT_EQ(got.value, want) << "k=" << k << " largest=" << largest;
      EXPECT_EQ(got.io.reads, blocks_touched(first, k, kPer))
          << "k=" << k << " largest=" << largest;
      EXPECT_EQ(env.dev.stats().base().reads, got.io.reads)
          << "k=" << k << " largest=" << largest;
    }
  }
}

TEST(SplitterIndexGeometry, FenceTableIsChargedForTheIndexLifetime) {
  testutil::EmEnv env(kBlockBytes, kMemBlocks);
  const auto host = make_workload(Workload::kUniform, kRecords, 51);
  auto data = materialize<Record>(env.ctx, std::span<const Record>(host));
  const std::size_t before = env.ctx.budget().used();
  {
    const auto idx =
        SplitterIndex<Record>::build(env.ctx, data, kBuckets, 0.25);
    EXPECT_EQ(env.ctx.budget().used() - before,
              idx.fences().size() * sizeof(Record));
  }
  EXPECT_EQ(env.ctx.budget().used(), before);
}

// ---------------------------------------------------------------------------
// The service: concurrent clients, every backend.

enum class ServiceBackend { kMem, kFile, kUring };

const char* service_backend_name(ServiceBackend b) {
  switch (b) {
    case ServiceBackend::kMem: return "Mem";
    case ServiceBackend::kFile: return "File";
    default: return "Uring";
  }
}

std::unique_ptr<BlockDevice> make_service_device(ServiceBackend b,
                                                 const std::string& path) {
  switch (b) {
    case ServiceBackend::kMem:
      return std::make_unique<MemoryBlockDevice>(kBlockBytes);
    case ServiceBackend::kFile:
      return std::make_unique<FileBlockDevice>(path, kBlockBytes);
    default:
      return std::make_unique<UringBlockDevice>(path, kBlockBytes,
                                                UringBlockDevice::tuned());
  }
}

/// The fixed query script every client replays: a mix of all four kinds.
std::vector<SplitterServer::Request> make_script(
    const std::vector<Record>& sorted_ref) {
  std::vector<SplitterServer::Request> script;
  for (const std::size_t r : {std::size_t{0}, kRecords / 3, kRecords / 2,
                              kRecords - 1}) {
    SplitterServer::Request q;
    q.kind = QueryKind::kRank;
    q.lo = sorted_ref[r];
    script.push_back(q);
  }
  {
    SplitterServer::Request q;
    q.kind = QueryKind::kRange;
    q.lo = sorted_ref[kRecords / 4];
    q.hi = sorted_ref[3 * kRecords / 4];
    script.push_back(q);
  }
  {
    SplitterServer::Request q;
    q.kind = QueryKind::kHistogram;
    q.k = 8;
    script.push_back(q);
  }
  for (const bool largest : {true, false}) {
    SplitterServer::Request q;
    q.kind = QueryKind::kTopK;
    q.k = 37;
    q.largest = largest;
    script.push_back(q);
  }
  return script;
}

class SplitterServiceMatrix
    : public ::testing::TestWithParam<ServiceBackend> {};

TEST_P(SplitterServiceMatrix, ConcurrentScriptIsDeterministic) {
  const ServiceBackend backend = GetParam();
  const auto host = make_workload(Workload::kUniform, kRecords, 42);
  const auto sorted_ref = sorted_copy(host);
  const std::string src = temp_path("src.rec");
  write_record_file(src, host);

  const std::string dev_path = temp_path("svc.dev");
  auto dev = make_service_device(backend, dev_path);
  Context ctx(*dev, kMemBlocks * kBlockBytes);

  SplitterServer::Config cfg;
  cfg.source_path = src;
  cfg.buckets = kBuckets;
  SplitterServer server(ctx, cfg);
  server.start();
  EXPECT_FALSE(server.recovered());
  EXPECT_EQ(server.epoch(), 1u);
  EXPECT_EQ(server.size(), kRecords);

  const auto script = make_script(sorted_ref);

  // Serial reference pass: answers checked against the oracle directly.
  std::vector<SplitterServer::Reply> ref;
  IoStats serial_sum;
  for (const auto& q : script) {
    SplitterServer::Reply rep = server.query(q);
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(rep.admission, "admit");
    EXPECT_EQ(rep.epoch, 1u);
    if (q.kind == QueryKind::kRank) {
      EXPECT_EQ(rep.value, oracle_rank(sorted_ref, q.lo));
    }
    serial_sum += rep.io;
    ref.push_back(std::move(rep));
  }

  // Concurrent pass: T threads replay the script; answers and per-query
  // base I/O must be bit-identical to the serial pass for every thread.
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<SplitterServer::Reply>> got(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        got[t].reserve(script.size());
        for (const auto& q : script) {
          got[t].push_back(server.query(q, /*client=*/t + 1));
        }
      });
    }
    for (auto& th : threads) th.join();
  }

  IoStats concurrent_sum;
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), script.size());
    for (std::size_t i = 0; i < script.size(); ++i) {
      const auto& a = ref[i];
      const auto& b = got[t][i];
      const std::string tag = std::string(service_backend_name(backend)) +
                              " thread " + std::to_string(t) + " query " +
                              std::to_string(i);
      ASSERT_TRUE(b.ok) << tag << ": " << b.error;
      EXPECT_EQ(b.value, a.value) << tag;
      EXPECT_EQ(b.hist.sizes, a.hist.sizes) << tag;
      EXPECT_EQ(b.hist.boundaries, a.hist.boundaries) << tag;
      EXPECT_EQ(b.records, a.records) << tag;
      EXPECT_EQ(b.io.base().reads, a.io.base().reads) << tag;
      concurrent_sum += b.io;
    }
  }
  // The schedule-independence contract: summed per-query base I/O is T
  // serial scripts' worth, no matter how the threads interleaved.
  EXPECT_EQ(concurrent_sum.base().reads,
            kThreads * serial_sum.base().reads);
  EXPECT_EQ(concurrent_sum.base().writes, 0u);
  EXPECT_EQ(server.served(), (kThreads + 1) * script.size());
  EXPECT_EQ(server.shed(), 0u);

  std::remove(src.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Backends, SplitterServiceMatrix,
    ::testing::Values(ServiceBackend::kMem, ServiceBackend::kFile,
                      ServiceBackend::kUring),
    [](const auto& p) { return std::string(service_backend_name(p.param)); });

// ---------------------------------------------------------------------------
// Admission control: an over-budget request sheds with a structured reject,
// it never throws out of query().

TEST(SplitterServiceAdmission, OverBudgetRequestShedsStructured) {
  const auto host = make_workload(Workload::kUniform, kRecords, 43);
  const std::string src = temp_path("shed_src.rec");
  write_record_file(src, host);

  testutil::EmEnv env(kBlockBytes, kMemBlocks);
  SplitterServer::Config cfg;
  cfg.source_path = src;
  cfg.buckets = kBuckets;
  cfg.queue_wait = 0.01;  // shed fast: nothing will free memory meanwhile
  SplitterServer server(env.ctx, cfg);
  server.start();

  // Squeeze the budget with a standing reservation (a concurrent query's
  // working set, as admission would see it): the whole-dataset top-k wants
  // ~N * sizeof(Record) resident on top of it and cannot be admitted.
  SplitterServer::Request q;
  q.kind = QueryKind::kTopK;
  q.k = kRecords;
  {
    const auto hog =
        env.ctx.budget().reserve(3 * kBlockBytes * kMemBlocks / 4);
    const auto rep = server.query(q);
    EXPECT_FALSE(rep.ok);
    EXPECT_EQ(rep.admission, "shed");
    EXPECT_FALSE(rep.error.empty());
    EXPECT_EQ(server.shed(), 1u);
  }

  // The squeeze released: the service remains healthy and a small query
  // still answers.
  SplitterServer::Request small;
  small.kind = QueryKind::kHistogram;
  small.k = 4;
  EXPECT_TRUE(server.query(small).ok);
  std::remove(src.c_str());
}

// ---------------------------------------------------------------------------
// Epoch refresh (no journal: in-memory publish) and the query trace.

TEST(SplitterServiceRefresh, RefreshPublishesNextEpochAndTracesQueries) {
  const auto host = make_workload(Workload::kUniform, kRecords, 44);
  const auto sorted_ref = sorted_copy(host);
  const std::string src = temp_path("refresh_src.rec");
  write_record_file(src, host);

  testutil::EmEnv env(kBlockBytes, kMemBlocks);
  SplitterServer::Config cfg;
  cfg.source_path = src;
  cfg.buckets = kBuckets;
  SplitterServer server(env.ctx, cfg);
  server.start();
  ASSERT_EQ(server.epoch(), 1u);

  SplitterServer::Request q;
  q.kind = QueryKind::kRank;
  q.lo = sorted_ref[kRecords / 2];
  const auto before = server.query(q);
  ASSERT_TRUE(before.ok);

  EXPECT_EQ(server.refresh(), 2u);
  EXPECT_EQ(server.epoch(), 2u);

  // Same source, new epoch: the answer (and its I/O geometry) is unchanged.
  const auto after = server.query(q);
  ASSERT_TRUE(after.ok);
  EXPECT_EQ(after.value, before.value);
  EXPECT_EQ(after.epoch, 2u);

  // Every request became a trace row, tagged with the epoch that served it,
  // and renders as a JSON object whose leading key distinguishes query rows
  // from pass rows.
  const auto rows = server.trace().snapshot();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].epoch, 1u);
  EXPECT_EQ(rows[1].epoch, 2u);
  EXPECT_EQ(rows[0].kind, "rank");
  EXPECT_EQ(rows[0].admission, "admit");
  EXPECT_EQ(query_trace_json(rows[0]).rfind("{\"query\":", 0), 0u);

  const std::string trace_path = temp_path("trace.jsonl");
  EXPECT_TRUE(append_query_trace_jsonl(server.trace(), trace_path));
  std::FILE* f = std::fopen(trace_path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[512];
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_EQ(std::string(line).rfind("{\"query\":\"rank\"", 0), 0u);
  std::fclose(f);
  std::remove(trace_path.c_str());
  std::remove(src.c_str());
}

TEST(SplitterServiceTrace, RequestLogKeepsTheNewestRowsInABoundedRing) {
  QueryTraceLog log;
  const std::uint64_t total = 70000;
  for (std::uint64_t i = 0; i < total; ++i) {
    QueryTrace row;
    row.kind = "rank";
    row.value = i;
    log.record(std::move(row));
  }
  const auto rows = log.snapshot();
  ASSERT_EQ(rows.size(), QueryTraceLog::kCapacity);
  ASSERT_EQ(rows.size(), 65536u);
  EXPECT_EQ(log.dropped(), 4464u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(rows[i].value, total - rows.size() + i) << "row " << i;
  }
  EXPECT_EQ(rows.back().value, total - 1);

  const std::string path = temp_path("ring_trace.jsonl");
  std::remove(path.c_str());
  ASSERT_TRUE(append_query_trace_jsonl(log, path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[512];
  std::size_t lines = 0;
  std::string first;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (lines++ == 0) first = line;
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(lines, rows.size());
  EXPECT_NE(first.find("\"value\":4464,"), std::string::npos) << first;

  log.reset();
  EXPECT_TRUE(log.snapshot().empty());
  EXPECT_EQ(log.dropped(), 0u);
}

// ---------------------------------------------------------------------------
// The socket front end: line protocol over a Unix socket, served
// concurrently, shut down by the SHUTDOWN verb.

TEST(SplitterServiceSocket, LineProtocolRoundTrip) {
  const auto host = make_workload(Workload::kUniform, kRecords, 45);
  const auto sorted_ref = sorted_copy(host);
  const std::string src = temp_path("sock_src.rec");
  write_record_file(src, host);

  testutil::EmEnv env(kBlockBytes, kMemBlocks);
  SplitterServer::Config cfg;
  cfg.source_path = src;
  cfg.buckets = kBuckets;
  SplitterServer server(env.ctx, cfg);
  server.start();

  const std::string sock = temp_path("svc.sock");
  std::thread srv([&] { server.serve_unix(sock); });
  for (int i = 0; i < 500 && ::access(sock.c_str(), F_OK) != 0; ++i) {
    ::usleep(10 * 1000);
  }
  ASSERT_EQ(::access(sock.c_str(), F_OK), 0) << "socket never appeared";

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", sock.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::FILE* io = ::fdopen(fd, "r+");
  ASSERT_NE(io, nullptr);
  const auto ask = [&](const std::string& line) -> std::string {
    EXPECT_GE(std::fputs((line + "\n").c_str(), io), 0);
    EXPECT_EQ(std::fflush(io), 0);
    char buf[512];
    EXPECT_NE(std::fgets(buf, sizeof(buf), io), nullptr) << line;
    return buf;
  };

  const Record probe = sorted_ref[kRecords / 2];
  const std::string rank_reply = ask("RANK " + std::to_string(probe.key));
  // The socket probe saturates the payload, so the reply counts every
  // record whose key <= probe.key.
  const auto key_rank = oracle_rank(sorted_ref, Record{probe.key, ~0ULL});
  EXPECT_EQ(rank_reply, "OK " + std::to_string(key_rank) + "\n");

  const std::string hist_reply = ask("HIST 4");
  EXPECT_EQ(hist_reply.rfind("OK 4 " + std::to_string(kRecords), 0), 0u);
  // Drain the bucket lines up to END.
  char buf[512];
  for (;;) {
    ASSERT_NE(std::fgets(buf, sizeof(buf), io), nullptr);
    if (std::strcmp(buf, "END\n") == 0) break;
    EXPECT_EQ(std::string(buf).rfind("BUCKET ", 0), 0u);
  }

  EXPECT_EQ(ask("EPOCH"), "OK 1\n");
  EXPECT_EQ(ask("BOGUS 12").rfind("ERR ", 0), 0u);
  EXPECT_EQ(ask("SHUTDOWN"), "OK bye\n");
  std::fclose(io);
  srv.join();
  EXPECT_EQ(::access(sock.c_str(), F_OK), -1) << "socket not unlinked";
  std::remove(src.c_str());
}

// ---------------------------------------------------------------------------
// Crash-consistent refresh: kill the service at every journal append inside
// refresh(), restart over the surviving journal, and require the CURRENT
// epoch to serve correct answers — then a clean refresh to complete.

TEST(SplitterServiceRecovery, KillMidRefreshServesLastPublishedEpoch) {
  const auto host = make_workload(Workload::kUniform, kRecords, 46);
  const auto sorted_ref = sorted_copy(host);
  const std::string src = temp_path("rec_src.rec");
  write_record_file(src, host);
  const std::string state_dir = temp_path("rec_state");
  ASSERT_EQ(::mkdir(state_dir.c_str(), 0755), 0);
  const std::string current = state_dir + "/SERVICE_CURRENT";
  const std::string dev_path = temp_path("rec.dev");
  const std::string jpath = temp_path("rec.ckpt");

  SplitterServer::Config cfg;
  cfg.source_path = src;
  cfg.buckets = kBuckets;
  cfg.state_dir = state_dir;

  const Record probe = sorted_ref[kRecords / 2];
  const std::uint64_t want = oracle_rank(sorted_ref, probe);

  bool refresh_completed = false;
  std::uint64_t crashes = 0;
  for (std::uint64_t n = 1; n <= 32 && !refresh_completed; ++n) {
    std::remove(dev_path.c_str());
    std::remove((dev_path + ".sums").c_str());
    std::remove(jpath.c_str());
    std::remove(current.c_str());

    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      // Child: build + publish epoch 1, then die at the n-th journal
      // append inside refresh() — std::_Exit(137), no destructors, exactly
      // the state a SIGKILL leaves behind.
      try {
        FileBlockDevice dev(dev_path, kBlockBytes, /*keep_file=*/true);
        CheckpointJournal journal(dev, jpath);
        Context ctx(dev, kMemBlocks * kBlockBytes);
        ctx.set_checkpoint(&journal);
        SplitterServer server(ctx, cfg);
        server.start();
        if (server.epoch() != 1 || server.recovered()) std::_Exit(12);
        journal.set_crash_after_publishes(n);
        (void)server.refresh();
        ctx.set_checkpoint(nullptr);
      } catch (...) {
        std::_Exit(13);
      }
      std::_Exit(11);  // refresh survived: n exceeded the append count
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "n=" << n;
    const int code = WEXITSTATUS(status);
    ASSERT_TRUE(code == 137 || code == 11)
        << "n=" << n << " child exited " << code;
    if (code == 11) {
      refresh_completed = true;
    } else {
      ++crashes;
    }

    // Whatever the crash interrupted, CURRENT names a published epoch.
    std::FILE* f = std::fopen(current.c_str(), "r");
    ASSERT_NE(f, nullptr) << "n=" << n;
    unsigned long long cur = 0;
    ASSERT_EQ(std::fscanf(f, "%llu", &cur), 1);
    std::fclose(f);
    ASSERT_GE(cur, 1u) << "n=" << n;
    ASSERT_LE(cur, 2u) << "n=" << n;

    // Restart over the survivors: the service must recover that epoch,
    // answer from it, and then complete the interrupted refresh cleanly.
    {
      FileBlockDevice dev(dev_path, kBlockBytes, /*keep_file=*/true,
                          /*preserve_contents=*/true);
      CheckpointJournal journal(dev, jpath);
      journal.restore_device();
      Context ctx(dev, kMemBlocks * kBlockBytes);
      ctx.set_checkpoint(&journal);
      {
        SplitterServer server(ctx, cfg);
        server.start();
        ASSERT_TRUE(server.recovered()) << "n=" << n;
        ASSERT_EQ(server.epoch(), cur) << "n=" << n;
        ASSERT_EQ(server.size(), kRecords) << "n=" << n;
        SplitterServer::Request q;
        q.kind = QueryKind::kRank;
        q.lo = probe;
        ASSERT_EQ(server.query(q).value, want) << "n=" << n;

        ASSERT_EQ(server.refresh(), cur + 1) << "n=" << n;
        ASSERT_EQ(server.query(q).value, want) << "n=" << n;
      }
      ctx.set_checkpoint(nullptr);
    }
  }
  EXPECT_GT(crashes, 0u) << "the injection never fired";
  EXPECT_TRUE(refresh_completed)
      << "refresh never outran the sweep; raise the append cap";

  std::remove(dev_path.c_str());
  std::remove((dev_path + ".sums").c_str());
  std::remove(jpath.c_str());
  std::remove(current.c_str());
  ::rmdir(state_dir.c_str());
  std::remove(src.c_str());
}

// A version-1 journal entry (unsorted buckets plus their maxima, from before
// the index became one sorted run) must not be served: start() rebuilds
// from the source, continues the epoch numbering and answers exactly.
TEST(SplitterServiceRecovery, VersionOnePayloadIsRebuiltNotServed) {
  const auto host = make_workload(Workload::kUniform, kRecords, 52);
  const auto sorted_ref = sorted_copy(host);
  const std::string src = temp_path("v1_src.rec");
  write_record_file(src, host);
  const std::string state_dir = temp_path("v1_state");
  ASSERT_EQ(::mkdir(state_dir.c_str(), 0755), 0);
  const std::string current = state_dir + "/SERVICE_CURRENT";
  const std::string dev_path = temp_path("v1.dev");
  const std::string jpath = temp_path("v1.ckpt");

  {
    FileBlockDevice dev(dev_path, kBlockBytes);
    CheckpointJournal journal(dev, jpath);
    Context ctx(dev, kMemBlocks * kBlockBytes);
    ctx.set_checkpoint(&journal);

    // Epoch 1 as the old layout published it: the source order, unsorted,
    // with payload [1, K, bounds..., (key, payload) per bucket maximum].
    // The fingerprint mirrors SplitterServer's epoch fingerprint.
    std::uint64_t fp = fingerprint_mix(kFingerprintSeed, 0x53504C4954535256ULL);
    fp = fingerprint_mix(fp, kBuckets);
    fp = fingerprint_mix(fp, kBlockBytes);
    fp = fingerprint_mix(fp, 1);
    std::vector<std::uint64_t> payload{1, kBuckets};
    for (std::uint64_t i = 0; i <= kBuckets; ++i) {
      payload.push_back(i * kRecords / kBuckets);
    }
    for (std::uint64_t i = 0; i < kBuckets; ++i) {
      payload.push_back(~0ULL);
      payload.push_back(~0ULL);
    }
    auto unsorted = materialize<Record>(ctx, std::span<const Record>(host));
    journal.publish_sort_pass(fp, 1, unsorted.release_extent(), kRecords,
                              payload);
    std::FILE* f = std::fopen(current.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(f, "1\n");
    std::fclose(f);
    ASSERT_TRUE(journal.resume_sort(fp).has_value());

    SplitterServer::Config cfg;
    cfg.source_path = src;
    cfg.buckets = kBuckets;
    cfg.state_dir = state_dir;
    {
      SplitterServer server(ctx, cfg);
      ASSERT_NO_THROW(server.start());
      EXPECT_FALSE(server.recovered());
      EXPECT_EQ(server.epoch(), 2u);
      EXPECT_FALSE(journal.resume_sort(fp).has_value())
          << "the version-1 extent was not reclaimed";

      for (std::size_t r = 0; r < kRecords; r += 61) {
        SplitterServer::Request q;
        q.kind = QueryKind::kRank;
        q.lo = sorted_ref[r];
        const auto rep = server.query(q);
        ASSERT_TRUE(rep.ok) << rep.error;
        EXPECT_EQ(rep.value, r + 1) << "rank " << r;
      }
      SplitterServer::Request range;
      range.kind = QueryKind::kRange;
      range.lo = sorted_ref[100];
      range.hi = sorted_ref[3000];
      EXPECT_EQ(server.query(range).value, 2900u);
      for (const bool largest : {true, false}) {
        SplitterServer::Request top;
        top.kind = QueryKind::kTopK;
        top.k = 37;
        top.largest = largest;
        const auto rep = server.query(top);
        ASSERT_TRUE(rep.ok) << rep.error;
        const std::size_t first = largest ? kRecords - 37 : 0;
        EXPECT_EQ(rep.records,
                  std::vector<Record>(
                      sorted_ref.begin() + static_cast<std::ptrdiff_t>(first),
                      sorted_ref.begin() +
                          static_cast<std::ptrdiff_t>(first + 37)))
            << "largest=" << largest;
      }
    }
    ctx.set_checkpoint(nullptr);
  }
  std::remove(dev_path.c_str());
  std::remove((dev_path + ".sums").c_str());
  std::remove(jpath.c_str());
  std::remove(current.c_str());
  ::rmdir(state_dir.c_str());
  std::remove(src.c_str());
}

}  // namespace
}  // namespace emsplit
