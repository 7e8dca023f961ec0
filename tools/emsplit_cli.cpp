// emsplit — command-line front end for the library.
//
// Operates on flat binary files of 16-byte records (little-endian u64 key,
// u64 payload).  Data is staged onto a simulated block device so every run
// reports the exact external-memory I/O cost alongside its results — the
// tool doubles as a cost explorer for the paper's algorithms.
//
//   emsplit gen       <file> <n> [workload] [seed]
//   emsplit sort      <in> <out>
//   emsplit dsort     <in> <out>
//   emsplit select    <file> <rank> [rank ...]
//   emsplit splitters <file> <K> <a> <b>
//   emsplit partition <in> <out> <K> <a> <b>
//   emsplit histogram <file> <buckets> [slack]
//   emsplit info      <file>
//   emsplit serve     <file> <socket> [--buckets=K] [--queue-wait=S]
//                     [--listen=host:port]
//                     [--bucket-cache-blocks=N]
//   emsplit query     <target> [--repeat=N] [--pipeline] <REQUEST...>
//
// Global options (before the subcommand) describe the simulated machine —
// see tools/cli_common.cpp (usage()) or docs/cli.md for the full list; the
// parsing and Machine assembly live there, shared by every command.
//
// serve keeps a SplitterIndex resident and answers the line protocol on a
// Unix-domain socket (RANK / RANGE / HIST / TOPK / STATS / EPOCH / REFRESH /
// SHUTDOWN); --listen=host:port opens the same protocol on TCP beside it
// (port 0 binds an ephemeral port, reported on the readiness line);
// serve has no slack: its index is a sorted run cut at exact quantiles, and
// --bucket-cache-blocks is accepted but changes nothing.  query is the thin
// client: <target> is a Unix socket path, or host:port for TCP; --repeat=N
// sends the request N times and --pipeline keeps up to 64 of them in flight
// (the server answers each batch against one pinned snapshot).  With --checkpoint-dir the service's
// epoch publishes are crash-consistent: kill it mid-refresh, restart, and
// it serves the last published epoch (the CI smoke leg's assertion).
//
// Lanes are the one CPU-parallel knob: --workers=W >= 1 runs the src/dist/
// plan on W threads, and for every such W the reported I/O cost and the
// output bytes are identical (docs/model.md, "Lanes").  --backend and --batch-blocks are likewise
// output-transparent: the device and batching are geometry, never output
// (docs/model.md, "I/O batching").  Transient
// retries never change the base I/O counts either — `[cost]` reports them
// separately (docs/model.md, "Failure model, retries, and recovery").
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "apps/histogram.hpp"
#include "cli_common.hpp"
#include "core/api.hpp"
#include "em/file_io.hpp"
#include "service/server.hpp"

namespace {

using namespace emsplit;
using namespace emsplit::cli;

int cmd_gen(const Options&, int argc, char** argv) {
  if (argc < 2) usage("gen needs <file> <n>");
  const std::string path = argv[0];
  const auto n = static_cast<std::size_t>(parse_u64(argv[1], "n"));
  const Workload w = argc > 2 ? parse_workload(argv[2]) : Workload::kUniform;
  const std::uint64_t seed = argc > 3 ? parse_u64(argv[3], "seed") : 42;
  write_file(path, make_workload(w, n, seed));
  std::printf("wrote %zu records (%s, seed %" PRIu64 ") to %s\n", n,
              to_string(w).c_str(), seed, path.c_str());
  return 0;
}

int cmd_info(const Options& opt, int argc, char** argv) {
  if (argc < 1) usage("info needs <file>");
  auto host = read_file(argv[0]);
  std::printf("%s: %zu records (%zu bytes)\n", argv[0], host.size(),
              host.size() * sizeof(Record));
  if (!host.empty()) {
    auto mm = std::minmax_element(host.begin(), host.end());
    std::printf("  key range [%" PRIu64 ", %" PRIu64 "], sorted: %s\n",
                mm.first->key, mm.second->key,
                std::is_sorted(host.begin(), host.end()) ? "yes" : "no");
  }
  std::printf("  machine model: B = %zu bytes/block, M = %zu bytes\n",
              opt.block_bytes, opt.mem_bytes);
  return 0;
}

int cmd_sort(const Options& opt, int argc, char** argv) {
  if (argc < 2) usage("sort needs <in> <out>");
  Machine m = make_machine(opt);
  Context& ctx = *m.ctx;
  // Streamed in block-sized pieces: the dataset never has to fit in host
  // memory, matching the library's own discipline.
  auto data = import_file<Record>(ctx, argv[0]);
  m.dev->reset_stats();
  auto sorted = external_sort<Record>(ctx, data);
  print_cost(ctx, data.size());
  export_file<Record>(sorted, argv[1]);
  std::printf("sorted %zu records -> %s\n", data.size(), argv[1]);
  return 0;
}

int cmd_dsort(const Options& opt, int argc, char** argv) {
  if (argc < 2) usage("dsort needs <in> <out>");
  Machine m = make_machine(opt);
  Context& ctx = *m.ctx;
  auto data = import_file<Record>(ctx, argv[0]);
  m.dev->reset_stats();
  auto sorted = distribution_sort<Record>(ctx, data);
  print_cost(ctx, data.size());
  export_file<Record>(sorted, argv[1]);
  std::printf("sorted %zu records -> %s\n", data.size(), argv[1]);
  return 0;
}

int cmd_select(const Options& opt, int argc, char** argv) {
  if (argc < 2) usage("select needs <file> and at least one rank");
  auto host = read_file(argv[0]);
  std::vector<std::uint64_t> ranks;
  for (int i = 1; i < argc; ++i) ranks.push_back(parse_u64(argv[i], "rank"));
  Machine m = make_machine(opt);
  Context& ctx = *m.ctx;
  auto data = materialize<Record>(ctx, host);
  m.dev->reset_stats();
  auto got = multi_select<Record>(ctx, data, ranks);
  print_cost(ctx, host.size());
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    std::printf("rank %" PRIu64 ": key=%" PRIu64 " payload=%" PRIu64 "\n",
                ranks[i], got[i].key, got[i].payload);
  }
  return 0;
}

int cmd_splitters(const Options& opt, int argc, char** argv) {
  if (argc < 4) usage("splitters needs <file> <K> <a> <b>");
  auto host = read_file(argv[0]);
  const ApproxSpec spec{.k = parse_u64(argv[1], "K"),
                        .a = parse_u64(argv[2], "a"),
                        .b = parse_u64(argv[3], "b")};
  Machine m = make_machine(opt);
  Context& ctx = *m.ctx;
  auto data = materialize<Record>(ctx, host);
  m.dev->reset_stats();
  auto splitters = approx_splitters<Record>(ctx, data, spec);
  print_cost(ctx, host.size());
  auto check = verify_splitters<Record>(data, splitters, spec);
  if (!check.ok) {
    std::fprintf(stderr, "INTERNAL ERROR: invalid output: %s\n",
                 check.reason.c_str());
    return 1;
  }
  for (std::size_t i = 0; i < splitters.size(); ++i) {
    std::printf("s%-4zu key=%-20" PRIu64 " bucket_size=%" PRIu64 "\n", i + 1,
                splitters[i].key, check.sizes[i]);
  }
  std::printf("(last bucket size %" PRIu64 "; all within [%" PRIu64 ", %"
              PRIu64 "])\n",
              check.sizes.back(), spec.a, spec.b);
  return 0;
}

int cmd_partition(const Options& opt, int argc, char** argv) {
  if (argc < 5) usage("partition needs <in> <out> <K> <a> <b>");
  auto host = read_file(argv[0]);
  const ApproxSpec spec{.k = parse_u64(argv[2], "K"),
                        .a = parse_u64(argv[3], "a"),
                        .b = parse_u64(argv[4], "b")};
  Machine m = make_machine(opt);
  Context& ctx = *m.ctx;
  auto data = materialize<Record>(ctx, host);
  m.dev->reset_stats();
  auto result = approx_partitioning<Record>(ctx, data, spec);
  print_cost(ctx, host.size());
  auto check =
      verify_partitioning<Record>(data, result.data, result.bounds, spec);
  if (!check.ok) {
    std::fprintf(stderr, "INTERNAL ERROR: invalid output: %s\n",
                 check.reason.c_str());
    return 1;
  }
  export_file<Record>(result.data, argv[1]);
  std::printf("partition bounds:");
  for (const auto b : result.bounds) std::printf(" %" PRIu64, b);
  std::printf("\nwrote %zu records -> %s\n", host.size(), argv[1]);
  return 0;
}

int cmd_histogram(const Options& opt, int argc, char** argv) {
  if (argc < 2) usage("histogram needs <file> <buckets>");
  auto host = read_file(argv[0]);
  const std::uint64_t buckets = parse_u64(argv[1], "buckets");
  const double slack = argc > 2 ? std::strtod(argv[2], nullptr) : 0.0;
  Machine m = make_machine(opt);
  Context& ctx = *m.ctx;
  auto data = materialize<Record>(ctx, host);
  m.dev->reset_stats();
  auto h = build_equi_depth_histogram<Record>(ctx, data, buckets, slack);
  print_cost(ctx, host.size());
  std::printf("%-6s %-20s %s\n", "bucket", "upper_key", "count");
  for (std::size_t i = 0; i < h.buckets(); ++i) {
    if (i < h.boundaries.size()) {
      std::printf("%-6zu %-20" PRIu64 " %" PRIu64 "\n", i,
                  h.boundaries[i].key, h.sizes[i]);
    } else {
      std::printf("%-6zu %-20s %" PRIu64 "\n", i, "+inf", h.sizes[i]);
    }
  }
  return 0;
}

int cmd_serve(const Options& opt, int argc, char** argv) {
  if (argc < 2) usage("serve needs <file> <socket>");
  SplitterServer::Config cfg;
  cfg.source_path = argv[0];
  const std::string socket_path = argv[1];
  cfg.state_dir = opt.checkpoint_dir;
  std::string listen_host;
  int listen_port = -1;  // -1 = no TCP front end
  for (int a = 2; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("--buckets=", 0) == 0) {
      cfg.buckets = parse_u64(arg.c_str() + 10, "buckets");
      if (cfg.buckets == 0) usage("--buckets must be positive");
    } else if (arg.rfind("--queue-wait=", 0) == 0) {
      cfg.queue_wait = std::strtod(arg.c_str() + 13, nullptr);
      if (cfg.queue_wait < 0) usage("--queue-wait must be >= 0");
    } else if (arg.rfind("--bucket-cache-blocks=", 0) == 0) {
      cfg.bucket_cache_blocks =
          parse_u64(arg.c_str() + 22, "bucket-cache-blocks");
    } else if (arg.rfind("--listen=", 0) == 0) {
      const std::string hp = arg.substr(9);
      const auto colon = hp.rfind(':');
      if (colon == std::string::npos) usage("--listen needs host:port");
      listen_host = hp.substr(0, colon);
      const std::uint64_t port = parse_u64(hp.c_str() + colon + 1, "port");
      if (port > 65535) usage("--listen port out of range");
      listen_port = static_cast<int>(port);
    } else {
      usage(("unknown serve option " + arg).c_str());
    }
  }
  Machine m = make_machine(opt);
  Context& ctx = *m.ctx;
  SplitterServer server(ctx, cfg);
  server.start();
  std::printf("[serve] epoch %" PRIu64 " %s: %" PRIu64 " records, %" PRIu64
              " buckets\n",
              server.epoch(), server.recovered() ? "recovered" : "built",
              server.size(), cfg.buckets);
  std::thread tcp_thread;
  if (listen_port >= 0) {
    tcp_thread = std::thread([&] {
      try {
        server.serve_tcp(listen_host, static_cast<std::uint16_t>(listen_port));
      } catch (const std::exception& ex) {
        std::fprintf(stderr, "error: %s\n", ex.what());
        server.stop();
      }
    });
    // Wait for the listener to bind so the readiness line reports the real
    // port (--listen=host:0 binds an ephemeral one).
    for (int spin = 0; spin < 400 && server.tcp_port() == 0; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (server.tcp_port() != 0) {
      std::printf("[serve] listening on tcp %s:%u\n",
                  listen_host.empty() ? "0.0.0.0" : listen_host.c_str(),
                  static_cast<unsigned>(server.tcp_port()));
    }
  }
  // Readiness marker: scripts wait for this line, so it is printed only
  // once the socket is bound and listening — a connect on seeing it works.
  server.serve_unix(socket_path, [&] {
    std::printf("[serve] listening on %s\n", socket_path.c_str());
    std::fflush(stdout);
  });
  server.stop();  // SHUTDOWN on either front end winds down the other
  if (tcp_thread.joinable()) tcp_thread.join();
  // Trace: the machine's pass rows (build/refresh passes) first, then the
  // query rows appended into the same JSON-lines file — trace_view.py
  // renders the mix.  Cleared so the Machine destructor doesn't re-truncate.
  if (m.trace != nullptr && !m.trace_path.empty()) {
    if (!write_pass_trace_jsonl(*m.trace, m.trace_path) ||
        !append_query_trace_jsonl(server.trace(), m.trace_path)) {
      std::fprintf(stderr, "warning: could not write trace file %s\n",
                   m.trace_path.c_str());
    }
    m.trace_path.clear();
  }
  print_cost(ctx, static_cast<std::size_t>(server.size()));
  std::printf("[serve] epoch %" PRIu64 ": served %" PRIu64 " queries, shed %"
              PRIu64 "\n",
              server.epoch(), server.served(), server.shed());
  return 0;
}

/// Connect to a query target: host:port (contains ':', no '/') dials TCP,
/// anything else is a Unix-domain socket path.  Returns -1 on failure.
int connect_target(const std::string& target) {
  const auto colon = target.rfind(':');
  if (colon != std::string::npos && target.find('/') == std::string::npos) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    std::uint64_t port = 0;
    try {
      port = parse_u64(target.c_str() + colon + 1, "port");
    } catch (...) {
      return -1;
    }
    if (port == 0 || port > 65535) return -1;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    std::string host = target.substr(0, colon);
    if (host.empty() || host == "localhost" || host == "*") host = "127.0.0.1";
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return -1;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
        0) {
      ::close(fd);
      return -1;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (target.size() >= sizeof(addr.sun_path)) usage("socket path too long");
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", target.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int cmd_query(const Options&, int argc, char** argv) {
  if (argc < 2) usage("query needs <target> <REQUEST...>");
  const std::string target = argv[0];
  std::uint64_t repeat = 1;
  bool pipeline = false;
  std::vector<std::string> words;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg.rfind("--repeat=", 0) == 0) {
      repeat = parse_u64(arg.c_str() + 9, "repeat");
      if (repeat == 0) usage("--repeat must be positive");
    } else if (arg == "--pipeline") {
      pipeline = true;
    } else {
      words.push_back(arg);
    }
  }
  if (words.empty()) usage("query needs a REQUEST");
  std::string line;
  for (std::size_t w = 0; w < words.size(); ++w) {
    if (w > 0) line += ' ';
    line += words[w];
  }
  line += '\n';
  const std::string& word = words[0];

  const int fd = connect_target(target);
  if (fd < 0) {
    std::fprintf(stderr, "error: cannot connect to %s\n", target.c_str());
    return 1;
  }
  // One stream per direction: a single read-write stdio stream may drop
  // read-ahead bytes when it switches from reading back to writing.
  std::FILE* in = ::fdopen(fd, "r");
  if (in == nullptr) {
    ::close(fd);
    return 1;
  }
  std::FILE* out = ::fdopen(::dup(fd), "w");
  if (out == nullptr) {
    std::fclose(in);
    return 1;
  }

  // Reply grammar: one status line; HIST / TOPK stream more until END.
  // Returns 0 = OK, 3 = SHED (structured admission reject), 1 = error.
  const auto read_reply = [&](bool print) {
    char buf[4096];
    if (std::fgets(buf, sizeof(buf), in) == nullptr) return 1;
    if (print) std::fputs(buf, stdout);
    int rc = 1;
    if (std::strncmp(buf, "OK", 2) == 0) {
      rc = 0;
    } else if (std::strncmp(buf, "SHED", 4) == 0) {
      rc = 3;
    }
    if (rc == 0 && (word == "HIST" || word == "TOPK")) {
      while (std::fgets(buf, sizeof(buf), in) != nullptr) {
        if (print) std::fputs(buf, stdout);
        if (std::strcmp(buf, "END\n") == 0) break;
      }
    }
    return rc;
  };

  // Serial mode keeps one request in flight; pipelined mode keeps up to
  // kPipelineDepth, writing while fewer are outstanding and otherwise
  // reading one reply.  The window bounds the unread replies, so the
  // client never blocks on a write while the server blocks on its replies.
  constexpr std::uint64_t kPipelineDepth = 64;
  const std::uint64_t window = pipeline ? kPipelineDepth : 1;
  const bool print_replies = repeat == 1;
  std::uint64_t ok = 0, shed = 0, err = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t sent = 0, answered = 0; answered < repeat;) {
    if (sent < repeat && sent - answered < window) {
      std::fputs(line.c_str(), out);
      ++sent;
      continue;
    }
    std::fflush(out);
    switch (read_reply(print_replies)) {
      case 0: ++ok; break;
      case 3: ++shed; break;
      default: ++err; break;
    }
    ++answered;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::fclose(out);
  std::fclose(in);
  if (repeat > 1) {
    std::printf("[query] %" PRIu64 " requests (%s): ok=%" PRIu64 " shed=%"
                PRIu64 " err=%" PRIu64 " seconds=%.6f qps=%.0f\n",
                repeat, pipeline ? "pipelined" : "serial", ok, shed, err,
                seconds, seconds > 0 ? static_cast<double>(repeat) / seconds
                                     : 0.0);
  }
  if (err > 0) return 1;
  if (shed > 0) return 3;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const int i = parse_global_options(argc, argv, opt);
  if (i >= argc) usage();
  const std::string cmd = argv[i];
  const int rest = argc - i - 1;
  char** rest_argv = argv + i + 1;
  try {
    if (cmd == "gen") return cmd_gen(opt, rest, rest_argv);
    if (cmd == "info") return cmd_info(opt, rest, rest_argv);
    if (cmd == "sort") return cmd_sort(opt, rest, rest_argv);
    if (cmd == "dsort") return cmd_dsort(opt, rest, rest_argv);
    if (cmd == "select") return cmd_select(opt, rest, rest_argv);
    if (cmd == "splitters") return cmd_splitters(opt, rest, rest_argv);
    if (cmd == "partition") return cmd_partition(opt, rest, rest_argv);
    if (cmd == "histogram") return cmd_histogram(opt, rest, rest_argv);
    if (cmd == "serve") return cmd_serve(opt, rest, rest_argv);
    if (cmd == "query") return cmd_query(opt, rest, rest_argv);
  } catch (const WorkerDied& e) {
    // Distinct exit code so scripted kill-and-resume runs (CI) can tell a
    // injected worker death from an ordinary failure.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 137;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage(("unknown command " + cmd).c_str());
}
