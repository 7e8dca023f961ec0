// The query fast path: the epoch-keyed BucketScanCache (geometry, never
// output — identical answers and identical per-query base I/O with the cache
// on or off), single-flight scan sharing (N concurrent queries over one
// bucket cost the device one scan while each query still pays its geometric
// reads), condvar-driven refresh retirement (an epoch publish under zero
// load never waits, let alone sleeps), condvar admission (a queued query
// admits the moment budget bytes free up), the pipelined line protocol
// (torn lines, batched lines answered in order, oversized lines rejected, a
// client closing mid-reply ends only its own connection), readiness (the
// serve hook and the CLI's readiness line come only once the socket
// listens), the TCP front end (bit-identical replies to the Unix socket),
// and the epoch-keying invariant under concurrent refresh: a reply's cached
// reads always come from the very epoch that answered it.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/api.hpp"
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
  return testing::TempDir() + "/fast_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + "_" + tag;
}

void write_record_file(const std::string& path,
                       const std::vector<Record>& v) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(v.data(), sizeof(Record), v.size(), f), v.size());
  ASSERT_EQ(std::fclose(f), 0);
}

std::uint64_t oracle_rank(const std::vector<Record>& sorted_ref,
                          const Record& probe) {
  return static_cast<std::uint64_t>(
      std::upper_bound(sorted_ref.begin(), sorted_ref.end(), probe) -
      sorted_ref.begin());
}

// ---------------------------------------------------------------------------
// BucketScanCache: geometry, never output.

TEST(BucketScanCacheDeterminism, CachedRepliesMatchUncachedBaseForBase) {
  const auto host = make_workload(Workload::kUniform, kRecords, 51);
  const auto sorted_ref = sorted_copy(host);
  const std::string src = temp_path("det_src.rec");
  write_record_file(src, host);

  SplitterServer::Config cfg;
  cfg.source_path = src;
  cfg.buckets = kBuckets;

  const auto run_pass = [&](SplitterServer& server,
                            std::vector<SplitterServer::Reply>& out) {
    for (std::size_t r = 0; r < kRecords; r += 173) {
      SplitterServer::Request q;
      q.kind = QueryKind::kRank;
      q.lo = sorted_ref[r];
      out.push_back(server.query(q));
    }
    SplitterServer::Request range;
    range.kind = QueryKind::kRange;
    range.lo = sorted_ref[kRecords / 4];
    range.hi = sorted_ref[3 * kRecords / 4];
    out.push_back(server.query(range));
    SplitterServer::Request top;
    top.kind = QueryKind::kTopK;
    top.k = 29;
    out.push_back(server.query(top));
  };

  // Reference pass: no bucket cache.
  std::vector<SplitterServer::Reply> ref;
  {
    testutil::EmEnv env(kBlockBytes, kMemBlocks);
    SplitterServer server(env.ctx, cfg);
    server.start();
    EXPECT_EQ(server.bucket_cache(), nullptr);
    run_pass(server, ref);
  }

  // Cached server: a cold pass (fills the cache) and a warm pass (hits it).
  testutil::EmEnv env(kBlockBytes, kMemBlocks);
  SplitterServer::Config ccfg = cfg;
  ccfg.bucket_cache_blocks = 256;
  SplitterServer server(env.ctx, ccfg);
  server.start();
  ASSERT_NE(server.bucket_cache(), nullptr);
  ASSERT_TRUE(server.bucket_cache()->enabled());
  std::vector<SplitterServer::Reply> cold;
  std::vector<SplitterServer::Reply> warm;
  run_pass(server, cold);
  run_pass(server, warm);

  ASSERT_EQ(cold.size(), ref.size());
  ASSERT_EQ(warm.size(), ref.size());
  std::uint64_t warm_bucket_hits = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    for (const auto* pass : {&cold, &warm}) {
      const auto& rep = (*pass)[i];
      ASSERT_TRUE(rep.ok) << "query " << i << ": " << rep.error;
      // Identical answers AND identical logical per-query I/O: the cache is
      // geometry, never output.
      EXPECT_EQ(rep.value, ref[i].value) << "query " << i;
      EXPECT_EQ(rep.records, ref[i].records) << "query " << i;
      EXPECT_EQ(rep.io.base(), ref[i].io.base()) << "query " << i;
      // A cached read is still a logical read, so hits never exceed reads.
      EXPECT_LE(rep.io.bucket_hits, rep.io.reads) << "query " << i;
      // The cache is keyed to the epoch that answered.
      if (rep.io.bucket_hits > 0) {
        EXPECT_EQ(rep.cache_epoch, rep.epoch);
      }
    }
    warm_bucket_hits += warm[i].io.bucket_hits;
  }
  EXPECT_GT(warm_bucket_hits, 0u) << "warm pass never hit the bucket cache";
  EXPECT_GT(server.bucket_cache()->hits(), 0u);
  std::remove(src.c_str());
}

// ---------------------------------------------------------------------------
// Scan sharing: concurrent queries over one bucket cost one device scan.

TEST(BucketScanCacheSharing, ConcurrentSameBucketQueriesScanDeviceOnce) {
  testutil::EmEnv env(kBlockBytes, kMemBlocks);
  const auto host = make_workload(Workload::kUniform, kRecords, 52);
  const auto sorted_ref = sorted_copy(host);
  auto data = materialize<Record>(env.ctx, std::span<const Record>(host));
  SplitterIndex<Record> idx =
      SplitterIndex<Record>::build(env.ctx, data, kBuckets, 0.25);

  // Geometric cost of this rank's bucket scan, measured uncached.
  const Record probe = sorted_ref[kRecords / 2];
  env.dev.reset_stats();
  const auto uncached = idx.rank(probe);
  const std::uint64_t scan_reads = uncached.io.reads;
  ASSERT_GT(scan_reads, 0u);
  ASSERT_EQ(env.dev.stats().base().reads, scan_reads);

  auto cache = std::make_shared<BucketScanCache<Record>>(
      env.ctx.budget(), /*capacity_bytes=*/64 * kBlockBytes,
      /*chunk_bytes=*/8 * kBlockBytes, /*epoch=*/1);
  ASSERT_TRUE(cache->enabled());
  idx.attach_bucket_cache(cache);

  constexpr std::size_t kThreads = 8;
  env.dev.reset_stats();
  std::vector<std::uint64_t> values(kThreads);
  std::vector<IoStats> ios(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const auto r = idx.rank(probe);
        values[t] = r.value;
        ios[t] = r.io;
      });
    }
    for (auto& th : threads) th.join();
  }

  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(values[t], uncached.value) << "thread " << t;
    // Per-query reads are geometry, wherever the bytes came from.
    EXPECT_EQ(ios[t].base().reads, scan_reads) << "thread " << t;
  }
  // The whole stampede scanned the device exactly once: one loader, every
  // other thread either coalesced onto its scan or hit the published entry.
  EXPECT_EQ(env.dev.stats().base().reads, scan_reads);
  EXPECT_EQ(cache->misses(), 1u);
  EXPECT_EQ(cache->hits(), kThreads - 1);
}

// ---------------------------------------------------------------------------
// Refresh under zero load: the publish path never waits (and never sleeps).

TEST(SplitterServiceRefresh, ZeroLoadRefreshNeverWaitsForRetirement) {
  const auto host = make_workload(Workload::kUniform, kRecords, 53);
  const std::string src = temp_path("zl_src.rec");
  write_record_file(src, host);

  testutil::EmEnv env(kBlockBytes, kMemBlocks);
  SplitterServer::Config cfg;
  cfg.source_path = src;
  cfg.buckets = kBuckets;
  cfg.bucket_cache_blocks = 64;
  SplitterServer server(env.ctx, cfg);
  server.start();
  for (int i = 0; i < 4; ++i) {
    (void)server.refresh();
  }
  EXPECT_EQ(server.epoch(), 5u);
  // No query ever pinned a snapshot, so retirement must have completed
  // without a single condvar wait — the sleep-free refresh contract.
  EXPECT_EQ(server.retire_waits(), 0u);
  std::remove(src.c_str());
}

// ---------------------------------------------------------------------------
// Condvar admission: a queued query admits the moment bytes free up.

TEST(SplitterServiceAdmission, QueuedQueryAdmitsOnBudgetRelease) {
  const auto host = make_workload(Workload::kUniform, kRecords, 54);
  const auto sorted_ref = sorted_copy(host);
  const std::string src = temp_path("adm_src.rec");
  write_record_file(src, host);

  testutil::EmEnv env(kBlockBytes, kMemBlocks);
  SplitterServer::Config cfg;
  cfg.source_path = src;
  cfg.buckets = kBuckets;
  cfg.queue_wait = 10.0;  // far longer than the test should ever take
  SplitterServer server(env.ctx, cfg);
  server.start();

  // Hog the budget so the query queues, then release from another thread.
  auto hog = env.ctx.budget().try_reserve(env.ctx.budget().available());
  ASSERT_TRUE(hog.has_value());
  SplitterServer::Request q;
  q.kind = QueryKind::kRank;
  q.lo = sorted_ref[kRecords / 3];
  SplitterServer::Reply rep;
  std::thread client([&] { rep = server.query(q); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  hog.reset();  // the release listener must wake the queued query
  client.join();
  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.admission, "queued");
  EXPECT_EQ(rep.value, oracle_rank(sorted_ref, q.lo));
  // Condvar wakeup, not deadline expiry: far below the 10s queue window.
  EXPECT_LT(rep.queue_seconds, 5.0);
  std::remove(src.c_str());
}

// ---------------------------------------------------------------------------
// The pipelined socket protocol.

struct SocketClient {
  int fd = -1;
  std::FILE* io = nullptr;

  ~SocketClient() {
    if (io != nullptr) std::fclose(io);  // closes fd too
  }
  void connect_unix(const std::string& path) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0);
    io = ::fdopen(fd, "r+");
    ASSERT_NE(io, nullptr);
  }
  void connect_tcp(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0);
    io = ::fdopen(fd, "r+");
    ASSERT_NE(io, nullptr);
  }
  void send_raw(const std::string& bytes) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), io), bytes.size());
    ASSERT_EQ(std::fflush(io), 0);
  }
  std::string read_line() {
    char buf[512];
    if (std::fgets(buf, sizeof(buf), io) == nullptr) return "";
    return buf;
  }
};

struct ServiceOnSocket {
  testutil::EmEnv env{kBlockBytes, kMemBlocks};
  std::unique_ptr<SplitterServer> server;
  std::string sock = temp_path("pipe.sock");
  std::string src = temp_path("pipe_src.rec");
  std::thread srv;

  void start(const std::vector<Record>& host, std::uint64_t cache_blocks = 0,
             std::uint64_t buckets = kBuckets) {
    write_record_file(src, host);
    SplitterServer::Config cfg;
    cfg.source_path = src;
    cfg.buckets = buckets;
    cfg.bucket_cache_blocks = cache_blocks;
    server = std::make_unique<SplitterServer>(env.ctx, cfg);
    server->start();
    srv = std::thread([this] { server->serve_unix(sock); });
    for (int i = 0; i < 500 && ::access(sock.c_str(), F_OK) != 0; ++i) {
      ::usleep(10 * 1000);
    }
    ASSERT_EQ(::access(sock.c_str(), F_OK), 0) << "socket never appeared";
  }
  ~ServiceOnSocket() {
    if (server) server->stop();
    if (srv.joinable()) srv.join();
    std::remove(src.c_str());
  }
};

TEST(PipelinedProtocol, BatchedLinesAnswerInRequestOrder) {
  const auto host = make_workload(Workload::kUniform, kRecords, 55);
  const auto sorted_ref = sorted_copy(host);
  ServiceOnSocket svc;
  svc.start(host, /*cache_blocks=*/128);

  SocketClient c;
  c.connect_unix(svc.sock);

  // One write, many requests — including a control line mid-batch.
  const std::size_t probes[] = {7, kRecords / 3, kRecords - 19};
  std::string batch;
  for (const std::size_t p : probes) {
    batch += "RANK " + std::to_string(sorted_ref[p].key) + "\n";
  }
  batch += "EPOCH\r\n";  // CRLF line endings are accepted too
  for (const std::size_t p : probes) {
    batch += "RANK " + std::to_string(sorted_ref[p].key) + "\n";
  }
  c.send_raw(batch);

  for (int round = 0; round < 2; ++round) {
    for (const std::size_t p : probes) {
      const auto want =
          oracle_rank(sorted_ref, Record{sorted_ref[p].key, ~0ULL});
      EXPECT_EQ(c.read_line(), "OK " + std::to_string(want) + "\n")
          << "round " << round << " probe " << p;
    }
    if (round == 0) {
      EXPECT_EQ(c.read_line(), "OK 1\n");
    }
  }
}

TEST(PipelinedProtocol, TornLinesReassembleAcrossWrites) {
  const auto host = make_workload(Workload::kUniform, kRecords, 56);
  const auto sorted_ref = sorted_copy(host);
  ServiceOnSocket svc;
  svc.start(host);

  SocketClient c;
  c.connect_unix(svc.sock);
  const Record probe = sorted_ref[kRecords / 2];
  const auto want = oracle_rank(sorted_ref, Record{probe.key, ~0ULL});
  const std::string line = "RANK " + std::to_string(probe.key) + "\n";

  // A line split at every byte boundary must parse exactly once each time.
  for (std::size_t cut = 1; cut + 1 < line.size(); cut += 3) {
    c.send_raw(line.substr(0, cut));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    c.send_raw(line.substr(cut));
    EXPECT_EQ(c.read_line(), "OK " + std::to_string(want) + "\n")
        << "cut " << cut;
  }
  // A complete line plus the head of the next: the head must wait.
  c.send_raw("EPOCH\nRANK " + std::to_string(probe.key));
  EXPECT_EQ(c.read_line(), "OK 1\n");
  c.send_raw("\n");
  EXPECT_EQ(c.read_line(), "OK " + std::to_string(want) + "\n");
}

TEST(PipelinedProtocol, OversizedLineIsRejectedAndConnectionClosed) {
  const auto host = make_workload(Workload::kUniform, kRecords, 57);
  ServiceOnSocket svc;
  svc.start(host);

  SocketClient c;
  c.connect_unix(svc.sock);
  // More bytes than the server will buffer while waiting for a newline.
  c.send_raw(std::string(SplitterServer::kMaxLineBytes + 4096, 'A'));
  EXPECT_EQ(c.read_line(), "ERR line too long\n");
  EXPECT_EQ(c.read_line(), "") << "connection should be closed";

  // The server survives: a fresh connection still answers.
  SocketClient c2;
  c2.connect_unix(svc.sock);
  c2.send_raw("EPOCH\n");
  EXPECT_EQ(c2.read_line(), "OK 1\n");
}

TEST(PipelinedProtocol, ClientClosingMidReplyEndsOnlyItsConnection) {
  // 200 pipelined HIST 512 requests draw about 3 MB of replies, far more
  // than the socket buffers hold, so the server is still sending when the
  // client closes.  That send must fail with EPIPE and end this connection
  // only; a SIGPIPE would kill the whole process, this test included.
  constexpr std::uint64_t kHistBuckets = 512;
  const auto host = make_workload(Workload::kUniform, kRecords, 59);
  ServiceOnSocket svc;
  svc.start(host, /*cache_blocks=*/0, kHistBuckets);
  {
    SocketClient c;
    c.connect_unix(svc.sock);
    std::string reqs;
    for (int i = 0; i < 200; ++i) {
      reqs += "HIST " + std::to_string(kHistBuckets) + "\n";
    }
    c.send_raw(reqs);
    EXPECT_EQ(c.read_line(), "OK " + std::to_string(kHistBuckets) + " " +
                                 std::to_string(kRecords) + "\n");
  }  // closed with almost all of the reply unread

  SocketClient c2;
  c2.connect_unix(svc.sock);
  c2.send_raw("EPOCH\n");
  EXPECT_EQ(c2.read_line(), "OK 1\n");
}

TEST(PipelinedProtocol, ReadyCallbackRunsOnceListening) {
  // A client that connects from inside the readiness hook — before the
  // first accept — must be queued by the listening socket, not refused.
  const auto host = make_workload(Workload::kUniform, kRecords, 60);
  testutil::EmEnv env{kBlockBytes, kMemBlocks};
  const std::string src = temp_path("ready_src.rec");
  const std::string sock = temp_path("ready.sock");
  write_record_file(src, host);
  SplitterServer::Config cfg;
  cfg.source_path = src;
  cfg.buckets = kBuckets;
  SplitterServer server(env.ctx, cfg);
  server.start();

  SocketClient c;
  int ready_calls = 0;
  std::thread srv([&] {
    server.serve_unix(sock, [&] {
      ++ready_calls;
      c.connect_unix(sock);
      if (c.io == nullptr) {  // refused: fail the test, don't hang it
        server.stop();
        return;
      }
      c.send_raw("EPOCH\nSHUTDOWN\n");
    });
  });
  srv.join();  // SHUTDOWN, once accepted and answered, ends the loop
  EXPECT_EQ(ready_calls, 1);
  ASSERT_NE(c.io, nullptr) << "connect from the readiness hook was refused";
  EXPECT_EQ(c.read_line(), "OK 1\n");
  EXPECT_EQ(c.read_line(), "OK bye\n");
  std::remove(src.c_str());
}

// `emsplit serve` prints its readiness line only once the socket listens:
// a client that connects the moment the line appears, with no retry, is
// answered.
TEST(ServeCli, ConnectsAsSoonAsReadinessLineAppears) {
  const auto host = make_workload(Workload::kUniform, kRecords, 61);
  const std::string src = temp_path("cli_src.rec");
  const std::string sock = temp_path("cli.sock");
  write_record_file(src, host);

  int out[2];
  ASSERT_EQ(::pipe(out), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    ::execl(EMSPLIT_CLI_PATH, "emsplit", "serve", src.c_str(), sock.c_str(),
            "--buckets=16", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(out[1]);
  // Kill the server on any early exit from the test body.
  struct Child {
    pid_t pid;
    ~Child() {
      if (pid > 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
    }
  } child{pid};
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> lines(::fdopen(out[0], "r"),
                                                        &std::fclose);
  ASSERT_NE(lines, nullptr);

  const std::string ready = "[serve] listening on " + sock + "\n";
  bool seen = false;
  char buf[512];
  while (!seen && std::fgets(buf, sizeof(buf), lines.get()) != nullptr) {
    seen = ready == buf;
  }
  ASSERT_TRUE(seen) << "server exited without its readiness line";

  SocketClient c;
  c.connect_unix(sock);  // asserts the first connect succeeds
  c.send_raw("EPOCH\nSHUTDOWN\n");
  EXPECT_EQ(c.read_line(), "OK 1\n");
  EXPECT_EQ(c.read_line(), "OK bye\n");

  while (std::fgets(buf, sizeof(buf), lines.get()) != nullptr) {
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  child.pid = 0;
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  std::remove(src.c_str());
}

// ---------------------------------------------------------------------------
// The TCP front end: same protocol, same answers.

TEST(TcpFrontEnd, RepliesMatchUnixSocketExactly) {
  const auto host = make_workload(Workload::kUniform, kRecords, 58);
  const auto sorted_ref = sorted_copy(host);
  ServiceOnSocket svc;
  svc.start(host, /*cache_blocks=*/128);

  std::thread tcp([&] { svc.server->serve_tcp("127.0.0.1", 0); });
  for (int i = 0; i < 500 && svc.server->tcp_port() == 0; ++i) {
    ::usleep(10 * 1000);
  }
  ASSERT_NE(svc.server->tcp_port(), 0) << "TCP listener never bound";

  SocketClient ux;
  ux.connect_unix(svc.sock);
  SocketClient tc;
  tc.connect_tcp(svc.server->tcp_port());

  std::string batch;
  for (const std::size_t p : {std::size_t{3}, kRecords / 5, kRecords - 7}) {
    batch += "RANK " + std::to_string(sorted_ref[p].key) + "\n";
  }
  batch += "RANGE " + std::to_string(sorted_ref[100].key) + " " +
           std::to_string(sorted_ref[4000].key) + "\n";
  batch += "HIST 4\nTOPK 5\nEPOCH\n";
  // Responses preserve request order, so an unknown-command sentinel at the
  // tail marks exactly where each connection's reply stream ends.
  batch += "SENTINEL\n";

  const auto drain = [&](SocketClient& c) {
    c.send_raw(batch);
    std::string all;
    for (;;) {
      const std::string line = c.read_line();
      if (line.empty()) break;  // connection dropped — caught by EXPECT below
      all += line;
      if (line.find("ERR") == 0) break;  // the sentinel's reply
    }
    return all;
  };
  const std::string from_unix = drain(ux);
  const std::string from_tcp = drain(tc);
  EXPECT_FALSE(from_unix.empty());
  EXPECT_EQ(from_unix, from_tcp)
      << "TCP and Unix front ends must serve bit-identical replies";

  svc.server->stop();
  tcp.join();
}

// ---------------------------------------------------------------------------
// Epoch keying under churn: a reply's cached reads come from its own epoch.

TEST(BucketCacheEpochKeying, ConcurrentRefreshNeverServesStaleEpochHits) {
  const auto host = make_workload(Workload::kUniform, kRecords, 59);
  const auto sorted_ref = sorted_copy(host);
  const std::string src = temp_path("churn_src.rec");
  write_record_file(src, host);

  testutil::EmEnv env(kBlockBytes, kMemBlocks);
  SplitterServer::Config cfg;
  cfg.source_path = src;
  cfg.buckets = kBuckets;
  cfg.bucket_cache_blocks = 128;
  cfg.queue_wait = 1.0;
  SplitterServer server(env.ctx, cfg);
  server.start();

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> ok_replies{0};
  std::atomic<std::uint64_t> cached_replies{0};
  std::atomic<int> violations{0};

  constexpr std::size_t kClients = 3;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      std::size_t i = t;
      while (!done.load()) {
        SplitterServer::Request q;
        q.kind = QueryKind::kRank;
        q.lo = sorted_ref[(i * 131) % kRecords];
        const SplitterServer::Reply rep = server.query(q, t + 1);
        // The invariant under test: cached reads are keyed to the very
        // epoch that answered — never a neighbor's, never a stale one.
        if (rep.cache_epoch != 0 && rep.cache_epoch != rep.epoch) {
          violations.fetch_add(1);
        }
        if (rep.ok) {
          ok_replies.fetch_add(1);
          if (rep.value != oracle_rank(sorted_ref, q.lo)) {
            violations.fetch_add(1);
          }
          if (rep.io.bucket_hits > 0) cached_replies.fetch_add(1);
        }
        ++i;
      }
    });
  }
  // The refresher: epoch churn while the clients hammer the cache.
  for (int r = 0; r < 5; ++r) {
    (void)server.refresh();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  done.store(true);
  for (auto& th : clients) th.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(ok_replies.load(), 0u);
  EXPECT_GT(cached_replies.load(), 0u) << "the cache never served a hit";
  EXPECT_EQ(server.epoch(), 6u);
  std::remove(src.c_str());
}

}  // namespace
}  // namespace emsplit
