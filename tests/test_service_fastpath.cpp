// The query fast path: BucketScanCache (no query consults it, so replies and
// per-query base I/O are identical with one attached or not), epoch churn
// (rank, range and top-k replies stay oracle-exact while refreshes publish
// new epochs under load), condvar-driven refresh retirement (an epoch
// publish under zero load never waits, let alone sleeps), condvar admission (a queued query admits the
// moment budget bytes free up), the pipelined line protocol (torn lines,
// batched lines answered in order, oversized lines rejected, a client
// closing mid-reply ends only its own connection), readiness (the serve
// hook and the CLI's readiness line come only once the socket listens), the
// CLI's bounded pipelined client, and the TCP front end (bit-identical
// replies to the Unix socket).
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
// BucketScanCache: attached or not, no query consults it.

TEST(BucketScanCacheDeterminism, CachedRepliesMatchUncachedBaseForBase) {
  testutil::EmEnv env(kBlockBytes, kMemBlocks);
  const auto host = make_workload(Workload::kUniform, kRecords, 51);
  const auto sorted_ref = sorted_copy(host);
  auto data = materialize<Record>(env.ctx, std::span<const Record>(host));
  SplitterIndex<Record> idx =
      SplitterIndex<Record>::build(env.ctx, data, kBuckets, 0.25);

  const auto run_pass = [&](std::vector<QueryResult<std::uint64_t>>& ranks,
                            std::vector<QueryResult<std::vector<Record>>>& tops) {
    for (std::size_t r = 0; r < kRecords; r += 173) {
      ranks.push_back(idx.rank(sorted_ref[r]));
    }
    ranks.push_back(idx.range_count(sorted_ref[kRecords / 4],
                                    sorted_ref[3 * kRecords / 4]));
    tops.push_back(idx.top_k(29, /*largest=*/true));
    tops.push_back(idx.top_k(29, /*largest=*/false));
  };

  std::vector<QueryResult<std::uint64_t>> ref_ranks, got_ranks;
  std::vector<QueryResult<std::vector<Record>>> ref_tops, got_tops;
  run_pass(ref_ranks, ref_tops);
  idx.attach_bucket_cache(std::make_shared<BucketScanCache<Record>>(
      env.ctx.budget(), /*capacity_bytes=*/256 * kBlockBytes,
      /*chunk_bytes=*/64 * kBlockBytes, /*epoch=*/1));
  run_pass(got_ranks, got_tops);
  run_pass(got_ranks, got_tops);  // a second, "warm" pass changes nothing

  ASSERT_EQ(got_ranks.size(), 2 * ref_ranks.size());
  ASSERT_EQ(got_tops.size(), 2 * ref_tops.size());
  for (std::size_t i = 0; i < got_ranks.size(); ++i) {
    const auto& want = ref_ranks[i % ref_ranks.size()];
    EXPECT_EQ(got_ranks[i].value, want.value) << "query " << i;
    EXPECT_EQ(got_ranks[i].io.base(), want.io.base()) << "query " << i;
    EXPECT_EQ(got_ranks[i].io.bucket_hits, 0u) << "query " << i;
  }
  for (std::size_t i = 0; i < got_tops.size(); ++i) {
    const auto& want = ref_tops[i % ref_tops.size()];
    EXPECT_EQ(got_tops[i].value, want.value) << "top-k " << i;
    EXPECT_EQ(got_tops[i].io.base(), want.io.base()) << "top-k " << i;
    EXPECT_EQ(got_tops[i].io.bucket_hits, 0u) << "top-k " << i;
  }

  // The server accepts a bucket-cache size and serves the same answers.
  const std::string src = temp_path("det_src.rec");
  write_record_file(src, host);
  SplitterServer::Config cfg;
  cfg.source_path = src;
  cfg.buckets = kBuckets;
  cfg.bucket_cache_blocks = 256;
  testutil::EmEnv senv(kBlockBytes, kMemBlocks);
  SplitterServer server(senv.ctx, cfg);
  server.start();
  for (std::size_t i = 0, r = 0; r < kRecords; r += 173, ++i) {
    SplitterServer::Request q;
    q.kind = QueryKind::kRank;
    q.lo = sorted_ref[r];
    const auto rep = server.query(q);
    ASSERT_TRUE(rep.ok) << rep.error;
    EXPECT_EQ(rep.value, ref_ranks[i].value) << "rank " << r;
    EXPECT_EQ(rep.io.base(), ref_ranks[i].io.base()) << "rank " << r;
    EXPECT_EQ(rep.io.bucket_hits, 0u) << "rank " << r;
  }
  std::remove(src.c_str());
}

// ---------------------------------------------------------------------------
// Epoch churn: clients query through refreshes, and every reply is exact.

TEST(BucketCacheEpochKeying, ConcurrentRefreshNeverServesStaleEpochHits) {
  const auto host = make_workload(Workload::kUniform, kRecords, 59);
  const auto sorted_ref = sorted_copy(host);
  const std::string src = temp_path("churn_src.rec");
  write_record_file(src, host);

  testutil::EmEnv env(kBlockBytes, kMemBlocks);
  SplitterServer::Config cfg;
  cfg.source_path = src;
  cfg.buckets = kBuckets;
  cfg.queue_wait = 1.0;
  SplitterServer server(env.ctx, cfg);
  server.start();

  constexpr std::uint64_t kTop = 37;  // spans three blocks of the run
  const std::vector<Record> want_max(sorted_ref.end() - kTop, sorted_ref.end());
  const std::vector<Record> want_min(sorted_ref.begin(),
                                     sorted_ref.begin() + kTop);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> ok_replies{0};
  std::atomic<int> violations{0};

  constexpr std::size_t kClients = 3;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      std::uint64_t last_epoch = 0;
      for (std::size_t i = t; !done.load(); ++i) {
        SplitterServer::Request q;
        q.lo = sorted_ref[(i * 131) % kRecords];
        q.hi = sorted_ref[(i * 131 + 977) % kRecords];
        if (i % 3 == 0) {
          q.kind = QueryKind::kRank;
        } else if (i % 3 == 1) {
          q.kind = QueryKind::kRange;
        } else {
          q.kind = QueryKind::kTopK;
          q.k = kTop;
          q.largest = (i / 3) % 2 == 0;
        }
        const SplitterServer::Reply rep = server.query(q, t + 1);
        if (!rep.ok) continue;
        ok_replies.fetch_add(1);
        // One client's replies never step back to an epoch already retired.
        if (rep.epoch < last_epoch) violations.fetch_add(1);
        last_epoch = rep.epoch;
        const std::uint64_t rl = oracle_rank(sorted_ref, q.lo);
        const std::uint64_t rh = oracle_rank(sorted_ref, q.hi);
        bool exact = true;
        switch (q.kind) {
          case QueryKind::kRank: exact = rep.value == rl; break;
          case QueryKind::kRange:
            exact = rep.value == (rh >= rl ? rh - rl : 0);
            break;
          default:
            exact = rep.records == (q.largest ? want_max : want_min);
            break;
        }
        if (!exact) violations.fetch_add(1);
      }
    });
  }
  // The refresher: epoch churn while the clients query.
  for (int r = 0; r < 5; ++r) {
    (void)server.refresh();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  done.store(true);
  for (auto& th : clients) th.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(ok_replies.load(), 0u);
  EXPECT_EQ(server.epoch(), 6u);
  std::remove(src.c_str());
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

// `emsplit query --pipeline` keeps a bounded window of requests in flight:
// 200,000 pipelined TOPK replies are far more than the socket buffers hold,
// which deadlocked a client that wrote every request before reading.
TEST(ServeCli, PipelinedClientFinishesPastTheSocketBuffers) {
  const auto host = make_workload(Workload::kUniform, kRecords, 62);
  ServiceOnSocket svc;
  svc.start(host);

  int out[2];
  ASSERT_EQ(::pipe(out), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(out[1], STDOUT_FILENO);
    ::close(out[0]);
    ::close(out[1]);
    ::alarm(120);  // a deadlocked client dies instead of hanging the suite
    ::execl(EMSPLIT_CLI_PATH, "emsplit", "query", svc.sock.c_str(),
            "--repeat=200000", "--pipeline", "TOPK", "32",
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(out[1]);
  std::string printed;
  char buf[512];
  for (ssize_t r; (r = ::read(out[0], buf, sizeof(buf))) > 0;) {
    printed.append(buf, static_cast<std::size_t>(r));
  }
  ::close(out[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << status;
  EXPECT_NE(printed.find("[query] 200000 requests (pipelined): ok=200000 "
                         "shed=0 err=0"),
            std::string::npos)
      << printed;
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

}  // namespace
}  // namespace emsplit
