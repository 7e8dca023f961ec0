// cli_common.cpp — Options parsing, Machine assembly, shared helpers.

#include "cli_common.hpp"

#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace emsplit::cli {

Machine::~Machine() {
  if (trace != nullptr && !trace_path.empty() &&
      !write_pass_trace_jsonl(*trace, trace_path)) {
    std::fprintf(stderr, "warning: could not write trace file %s\n",
                 trace_path.c_str());
  }
}

Machine make_machine(const Options& opt) {
  Machine m;
  // Crash-recoverable runs keep the device file (and re-adopt its blocks on
  // the next start); otherwise the file backend uses a private scratch file
  // removed on exit.
  const bool persist = !opt.checkpoint_dir.empty();
  if (opt.backend == "file" || persist) {
    const std::string path =
        persist ? opt.checkpoint_dir + "/device.bin"
                : "/tmp/emsplit." + std::to_string(::getpid()) + ".device.bin";
    m.dev = std::make_unique<FileBlockDevice>(path, opt.block_bytes,
                                              /*keep_file=*/persist,
                                              /*preserve_contents=*/persist);
  } else {
    m.dev = std::make_unique<MemoryBlockDevice>(opt.block_bytes);
  }
  m.dev->set_checksums(opt.checksums);
  m.ctx = std::make_unique<Context>(*m.dev, opt.mem_bytes);
  m.ctx->set_io_tuning(IoTuning{opt.batch_blocks});
  WorkerTuning wt;
  wt.workers = opt.workers;
  wt.kill_worker = opt.kill_worker;
  wt.kill_round = opt.kill_round;
  wt.mem_workers = opt.mem_workers;
  m.ctx->set_worker_tuning(wt);
  FaultPolicy policy;
  policy.max_retries = opt.fault_retries;
  policy.backoff = std::chrono::microseconds(opt.fault_backoff_us);
  m.ctx->set_fault_policy(policy);
  if (!opt.checkpoint_dir.empty()) {
    m.journal = std::make_unique<CheckpointJournal>(
        *m.dev, opt.checkpoint_dir + "/journal.ckpt");
    m.journal->restore_device();
    m.ctx->set_checkpoint(m.journal.get());
    if (opt.crash_after > 0) {
      m.journal->set_crash_after_publishes(opt.crash_after);
    }
  }
  if (!opt.trace_path.empty()) {
    m.trace = std::make_unique<PassTraceLog>();
    m.trace_path = opt.trace_path;
    m.ctx->set_pass_trace(m.trace.get());
  }
  return m;
}

[[noreturn]] void usage(const char* why) {
  if (why != nullptr) std::fprintf(stderr, "error: %s\n\n", why);
  std::fprintf(stderr,
               "usage: emsplit [--block-bytes=N] [--mem-bytes=N]\n"
               "               [--workers=W] [--kill-worker=W:R]"
               " [--mem-workers=N]\n"
               "               [--backend=mem|file] [--batch-blocks=N]\n"
               "               [--trace=FILE] [--fault-policy=R[:BACKOFF_US]]"
               " [--checksums=on|off]\n"
               "               [--checkpoint-dir=DIR] [--crash-after-pass=N]"
               " <command>\n"
               "  gen       <file> <n> [workload] [seed]   create a dataset\n"
               "  sort      <in> <out>                     external sort\n"
               "  dsort     <in> <out>                     distribution sort\n"
               "  select    <file> <rank> [rank ...]       multi-selection\n"
               "  splitters <file> <K> <a> <b>             approximate K-splitters\n"
               "  partition <in> <out> <K> <a> <b>         approximate K-partitioning\n"
               "  histogram <file> <buckets> [slack]       nearly equi-depth histogram\n"
               "  info      <file>                         dataset summary\n"
               "  serve     <file> <socket> [--buckets=K] [--queue-wait=S]\n"
               "            [--listen=host:port] [--bucket-cache-blocks=N]\n"
               "                                           resident splitter service\n"
               "  query     <target> [--repeat=N] [--pipeline] <REQUEST...>\n"
               "                                           service client; <target> is\n"
               "                                           a socket path or host:port\n"
               "            requests: RANK <key> | RANGE <lo> <hi> | HIST <k>\n"
               "                      TOPK <k> [MIN] | STATS | EPOCH | REFRESH |"
               " SHUTDOWN\n"
               "workloads: uniform sorted reverse few_distinct organ_pipe zipfian"
               " block_striped\n");
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* what) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "error: bad %s: '%s'\n", what, s);
    std::exit(2);
  }
  return v;
}

std::vector<Record> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  const auto bytes = static_cast<std::size_t>(in.tellg());
  if (bytes % sizeof(Record) != 0) {
    std::fprintf(stderr, "error: %s is not a whole number of records\n",
                 path.c_str());
    std::exit(1);
  }
  std::vector<Record> v(bytes / sizeof(Record));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(bytes));
  return v;
}

void write_file(const std::string& path, const std::vector<Record>& v) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(Record)));
}

Workload parse_workload(const std::string& name) {
  for (const Workload w : all_workloads()) {
    if (to_string(w) == name) return w;
  }
  std::fprintf(stderr, "error: unknown workload '%s'\n", name.c_str());
  std::exit(2);
}

void print_cost(const Context& ctx, std::size_t n) {
  const auto scan =
      (n + ctx.block_records<Record>() - 1) / ctx.block_records<Record>();
  const IoStats io = ctx.io();
  std::printf("[cost] %" PRIu64 " block I/Os (reads %" PRIu64 ", writes %"
              PRIu64 ")",
              io.total(), io.reads, io.writes);
  // Retries and resumed passes print only when nonzero: the default output
  // stays byte-identical across lane counts and fault-free runs.
  if (io.retries > 0) {
    std::printf(" + %" PRIu64 " transient retries", io.retries);
  }
  const CheckpointJournal* journal = ctx.checkpoint();
  if (journal != nullptr && journal->resumed_passes() > 0) {
    std::printf(" (resumed %" PRIu64 " journaled passes)",
                journal->resumed_passes());
  }
  std::printf("; one scan = %zu; peak memory %zu / %zu bytes\n", scan,
              ctx.budget().peak(), ctx.budget().capacity());
}

int parse_global_options(int argc, char** argv, Options& opt) {
  int i = 1;
  for (; i < argc && std::strncmp(argv[i], "--", 2) == 0; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--block-bytes=", 0) == 0) {
      opt.block_bytes = static_cast<std::size_t>(
          parse_u64(arg.c_str() + 14, "block-bytes"));
    } else if (arg.rfind("--mem-bytes=", 0) == 0) {
      opt.mem_bytes =
          static_cast<std::size_t>(parse_u64(arg.c_str() + 12, "mem-bytes"));
    } else if (arg.rfind("--backend=", 0) == 0) {
      opt.backend = arg.substr(10);
      if (opt.backend != "mem" && opt.backend != "file") {
        usage("--backend takes mem|file");
      }
    } else if (arg.rfind("--workers=", 0) == 0) {
      opt.workers =
          static_cast<std::size_t>(parse_u64(arg.c_str() + 10, "workers"));
    } else if (arg.rfind("--kill-worker=", 0) == 0) {
      const std::string spec = arg.substr(14);
      const std::size_t colon = spec.find(':');
      if (colon == std::string::npos) usage("--kill-worker takes W:R");
      opt.kill_worker = static_cast<std::size_t>(
          parse_u64(spec.substr(0, colon).c_str(), "kill-worker worker"));
      opt.kill_round =
          parse_u64(spec.substr(colon + 1).c_str(), "kill-worker round");
      if (opt.kill_round == 0) usage("--kill-worker round is 1-based");
    } else if (arg.rfind("--mem-workers=", 0) == 0) {
      opt.mem_workers = static_cast<std::size_t>(
          parse_u64(arg.c_str() + 14, "mem-workers"));
      if (opt.mem_workers == 0) usage("--mem-workers must be positive");
    } else if (arg.rfind("--batch-blocks=", 0) == 0) {
      opt.batch_blocks = static_cast<std::size_t>(
          parse_u64(arg.c_str() + 15, "batch-blocks"));
    } else if (arg.rfind("--trace=", 0) == 0) {
      opt.trace_path = arg.substr(8);
      if (opt.trace_path.empty()) usage("--trace needs a path");
    } else if (arg.rfind("--fault-policy=", 0) == 0) {
      const std::string spec = arg.substr(15);
      const std::size_t colon = spec.find(':');
      opt.fault_retries =
          parse_u64(spec.substr(0, colon).c_str(), "fault-policy retries");
      if (colon != std::string::npos) {
        opt.fault_backoff_us =
            parse_u64(spec.substr(colon + 1).c_str(), "fault-policy backoff");
      }
    } else if (arg.rfind("--checksums=", 0) == 0) {
      const std::string v = arg.substr(12);
      if (v == "on") {
        opt.checksums = true;
      } else if (v == "off") {
        opt.checksums = false;
      } else {
        usage("--checksums takes on|off");
      }
    } else if (arg.rfind("--checkpoint-dir=", 0) == 0) {
      opt.checkpoint_dir = arg.substr(17);
      if (opt.checkpoint_dir.empty()) usage("--checkpoint-dir needs a path");
    } else if (arg.rfind("--crash-after-pass=", 0) == 0) {
      opt.crash_after = parse_u64(arg.c_str() + 19, "crash-after-pass");
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  return i;
}

}  // namespace emsplit::cli
