// E10 — wall-clock sanity on a real file-backed device.
//
// The shape experiments (E1-E9, E11) count I/Os exactly on the RAM-backed
// simulator.  This binary repeats representative operations on a real file
// through FileBlockDevice and reports wall-clock time, confirming that the
// I/O counts translate monotonically into time on an actual storage stack
// (page cache included — we measure the syscall path, not a cold spindle).
//
// Part 1 is the batching comparison: external sort and multi-partition run
// under two I/O tunings — sync (the classic one-block-per-call path) and
// batched (multi-block device calls) — on a small-block geometry where
// per-call overhead dominates, i.e. where the EM model's "count block
// transfers" abstraction is furthest from syscall reality.  Results go to
// stdout and to BENCH_wallclock.json for trajectory tracking.  The tunings
// keep the merge fan-in above the run count, so both modes perform
// identical I/O totals and the speedup is purely per-call overhead.  The
// batched+tN legs add CPU threads; sharded legs (shard1/2/4) repeat the
// batched tuning through a ShardedBlockDevice striped over D file-backed
// members: logical I/Os and checksums must not move, and each trajectory
// row carries the per-pass trace (with per-shard counters and balance) from
// its final rep.  The uring legs swap the backend for UringBlockDevice
// (write-behind ring, grouped submission) at the same tuning — another
// pure-geometry change.
//
// Part 2 keeps the original google-benchmark microbenches on the 4 KiB
// geometry.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/api.hpp"
#include "em/file_io.hpp"
#include "em/uring_device.hpp"
#include "service/server.hpp"

namespace emsplit {
namespace {

std::string bench_path(const char* tag) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/emsplit_bench_" + tag +
         ".bin";
}

// ---------------------------------------------------------------------------
// Part 1: sync vs batched (and its thread, shard and backend variants).
// ---------------------------------------------------------------------------

// Small blocks so the seed's one-syscall-per-block cost dominates: 1M records
// of 16 bytes over 64-byte blocks is ~260k blocks, >1M syscalls per sort on
// the sync path.  M = 4096 blocks keeps every mode at one merge pass
// (runs ~= 65, fan-in >= 127 at stream_blocks() = 32, the largest tuning
// below).
constexpr std::size_t kCmpBlockBytes = 64;
constexpr std::size_t kCmpMemBlocks = 4096;

// Default 1M records; BENCH_WALLCLOCK_RECORDS overrides for CI smoke runs
// where the full size would dominate the job's wall budget.
std::size_t cmp_records() {
  static const std::size_t n = [] {
    const char* env = std::getenv("BENCH_WALLCLOCK_RECORDS");
    if (env != nullptr && *env != '\0') {
      const unsigned long long v = std::strtoull(env, nullptr, 10);
      if (v > 0) return static_cast<std::size_t>(v);
    }
    return std::size_t{1} << 20;
  }();
  return n;
}

struct ModeSpec {
  const char* name;
  IoTuning tuning;
  CpuTuning cpu{1, 1};
  std::size_t shards = 0;        // 0 = plain FileBlockDevice; >= 1 = the
                                 // ShardedBlockDevice facade over D members
                                 // (D = 1 isolates facade dispatch overhead)
  std::size_t stripe_blocks = 8;
  const char* backend = "file";  // "file" | "uring" (backend is geometry:
                                 // logical I/Os and checksums cannot move)
  std::size_t workers = 0;       // > 0 routes dsort/partition through the
                                 // multi-process distributed path (W is
                                 // geometry: every W must report identical
                                 // logical I/Os and output checksums)
  bool direct = false;           // probe O_DIRECT on the uring backend
                                 // (needs 512 | block_bytes; probe-gated —
                                 // falls back to buffered when refused)
  // Per-leg geometry overrides.  The worker legs need blocks big enough for
  // the distributed plan's edge/cut tables; the O_DIRECT leg needs a
  // 512-multiple block size.  Legs that override run their own geometry and
  // are exempt from the cross-leg determinism reference.
  std::size_t block_bytes = kCmpBlockBytes;
  std::size_t mem_blocks = kCmpMemBlocks;
  bool supervised = false;       // arm the round supervisor (retries + hang
                                 // deadline) on the worker leg; at zero
                                 // faults it must be pure bookkeeping —
                                 // same I/Os, same bytes, worker_retries 0
};

struct ModeResult {
  double seconds = 0;
  std::uint64_t ios = 0;
  std::uint64_t peak = 0;
  std::uint64_t checksum = 0;
  bool sorted = false;
  bool shard_sums_ok = true;     // shard_stats() partitions stats() exactly
  bool uring_native = false;     // ring engaged (vs positional fallback)
  bool direct_io = false;        // O_DIRECT probe accepted (uring backend)
  std::uint64_t worker_retries = 0;  // re-executed worker I/O (0 unless a
                                     // worker actually failed mid-round)
  std::string passes_json;       // JSON array of the final rep's trace rows
};

// Build the comparison device: shards = 0 is the plain file device the
// earlier legs always used; shards >= 1 puts the ShardedBlockDevice facade
// over D FileBlockDevice members, each its own file (the striping is
// geometry — every logical I/O, and therefore every checksum below, must
// be unchanged).  backend = "uring" swaps the positional-I/O file backend
// for the io_uring ring (write-behind slots, grouped submission) — also
// geometry, also output-invariant.
std::unique_ptr<BlockDevice> make_cmp_device(const char* tag,
                                             const ModeSpec& mode) {
  const bool uring = std::string(mode.backend) == "uring";
  const auto make_member = [&](const std::string& path)
      -> std::unique_ptr<BlockDevice> {
    if (uring) {
      // Bench ring geometry: submit_batch == write_behind so a write almost
      // never pays its own io_uring_enter — queued write SQEs ride along on
      // the next read's submit-and-wait enter (reads and writes alternate in
      // every pass here), and a pure write burst still amortizes one enter
      // over 16 transfers.
      UringBlockDevice::Tuning ring;
      ring.ring_entries = 64;
      ring.write_behind = 16;
      ring.submit_batch = 16;
      ring.direct = mode.direct;
      return std::make_unique<UringBlockDevice>(path, mode.block_bytes, ring);
    }
    return std::make_unique<FileBlockDevice>(path, mode.block_bytes);
  };
  if (mode.shards == 0) return make_member(bench_path(tag));
  std::vector<std::unique_ptr<BlockDevice>> members;
  members.reserve(mode.shards);
  for (std::size_t d = 0; d < mode.shards; ++d) {
    members.push_back(make_member(bench_path(tag) + "." + std::to_string(d)));
  }
  return std::make_unique<ShardedBlockDevice>(std::move(members),
                                              mode.stripe_blocks);
}

// Device + context + pass trace for one leg.
struct Rig {
  std::unique_ptr<BlockDevice> dev;
  std::unique_ptr<Context> ctx;
  std::unique_ptr<PassTraceLog> trace;  // heap: ctx holds its address
};

Rig make_rig(const char* tag, const ModeSpec& mode) {
  Rig rig;
  rig.dev = make_cmp_device(tag, mode);
  rig.ctx =
      std::make_unique<Context>(*rig.dev, mode.mem_blocks * mode.block_bytes);
  rig.ctx->set_io_tuning(mode.tuning);
  rig.ctx->set_cpu_tuning(mode.cpu);
  WorkerTuning wt;
  wt.workers = mode.workers;
  if (mode.supervised) {
    // Supervision armed, zero faults injected: retries available, a generous
    // hang deadline (the poll loop replaces the blocking drain either way).
    wt.max_worker_retries = 2;
    wt.worker_timeout = 30.0;
  }
  rig.ctx->set_worker_tuning(wt);
  rig.trace = std::make_unique<PassTraceLog>();
  rig.ctx->set_pass_trace(rig.trace.get());
  return rig;
}

const UringBlockDevice* rig_uring(Rig& rig, const ModeSpec& mode) {
  if (std::string(mode.backend) != "uring") return nullptr;
  if (mode.shards == 0) {
    return &static_cast<const UringBlockDevice&>(*rig.dev);
  }
  auto& facade = static_cast<ShardedBlockDevice&>(*rig.dev);
  return &static_cast<const UringBlockDevice&>(facade.member(0));
}

// Serialize the final rep's trace rows as a JSON array (one object per
// pass, same schema as --trace=FILE lines) for the trajectory entry.
std::string passes_to_json(const PassTraceLog& log) {
  std::string s = "[";
  bool first = true;
  for (const PassTrace& t : log.rows()) {
    if (!first) s += ",";
    first = false;
    s += pass_trace_json(t);
  }
  s += "]";
  return s;
}

// Per-shard counters must partition the facade totals exactly — the bench
// asserts the cheap half here; test_sharded_device.cpp holds the strict
// matrix.
bool shard_sums_match(const BlockDevice& dev) {
  const auto shards = dev.shard_stats();
  if (shards.empty()) return true;
  IoStats sum;
  for (const IoStats& s : shards) sum += s;
  const IoStats total = dev.stats();
  return sum.reads == total.reads && sum.writes == total.writes;
}

// Order-sensitive FNV-1a over the output records: equal checksums across
// modes certify bit-identical output, the cheap half of the determinism
// contract (test_parallel_determinism.cpp holds the strict version).
std::uint64_t checksum_em(EmVector<Record>& v) {
  StreamReader<Record> r(v);
  std::uint64_t h = 1469598103934665603ull;
  while (!r.done()) {
    const Record rec = r.next();
    h = (h ^ rec.key) * 1099511628211ull;
    h = (h ^ rec.payload) * 1099511628211ull;
  }
  return h;
}

// Shared best-of-3 measurement loop.  `body` runs the algorithm, calls
// `capture()` the moment the algorithm returns (stopping the clock and
// snapshotting the I/O counters — verification and checksum scans stay
// outside both), then fills the result's checksum / sorted fields.
template <typename Body>
ModeResult run_mode(const char* tag, const ModeSpec& mode,
                    std::uint64_t workload_seed, Body body) {
  Rig rig = make_rig(tag, mode);
  auto host = make_workload(Workload::kUniform, cmp_records(), workload_seed);
  auto data = materialize<Record>(*rig.ctx, host);
  ModeResult res;
  if (const UringBlockDevice* ring = rig_uring(rig, mode)) {
    res.uring_native = ring->native();
    res.direct_io = ring->direct_io();
  }
  for (int rep = 0; rep < 3; ++rep) {  // best-of-3, verify untimed
    rig.dev->reset_stats();
    rig.ctx->budget().reset_peak();
    rig.trace->reset();
    const auto t0 = std::chrono::steady_clock::now();
    double secs = 0;
    const auto capture = [&] {
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      secs = dt.count();
      const IoStats stats = rig.dev->stats();
      res.ios = stats.base().total();
      res.worker_retries = stats.worker_retries;
    };
    body(*rig.ctx, data, res, capture);
    res.peak = rig.ctx->budget().peak();
    res.shard_sums_ok = shard_sums_match(*rig.dev);
    if (rep == 0 || secs < res.seconds) res.seconds = secs;
  }
  // The trace covers the algorithm's passes only (reset precedes the timed
  // call; verification I/O lands after the rows are recorded).
  res.passes_json = passes_to_json(*rig.trace);
  return res;
}

std::vector<std::uint64_t> cmp_ranks() {
  std::vector<std::uint64_t> ranks;
  for (std::uint64_t k = 1; k < 64; ++k) {
    ranks.push_back(k * (cmp_records() / 64));
  }
  return ranks;
}

ModeResult run_sort_mode(const ModeSpec& mode) {
  return run_mode("cmp_sort", mode, 42,
                  [](Context& ctx, EmVector<Record>& data, ModeResult& res,
                     const auto& capture) {
                    auto sorted = external_sort<Record>(ctx, data);
                    capture();
                    res.sorted = is_sorted_em<Record>(sorted);
                    res.checksum = checksum_em(sorted);
                  });
}

ModeResult run_partition_mode(const ModeSpec& mode) {
  return run_mode("cmp_part", mode, 43,
                  [](Context& ctx, EmVector<Record>& data, ModeResult& res,
                     const auto& capture) {
                    auto part = multi_partition<Record>(ctx, data, cmp_ranks());
                    capture();
                    res.sorted = part.bounds.size() == 65;
                    res.checksum = checksum_em(part.data);
                  });
}

// Distribution sort: the multi-pass sort whose recursion levels and in-place
// final pass re-read recently written extents.
ModeResult run_dsort_mode(const ModeSpec& mode) {
  return run_mode("cmp_dsort", mode, 44,
                  [](Context& ctx, EmVector<Record>& data, ModeResult& res,
                     const auto& capture) {
                    auto sorted = distribution_sort<Record>(ctx, data);
                    capture();
                    res.sorted = is_sorted_em<Record>(sorted);
                    res.checksum = checksum_em(sorted);
                  });
}

// Multi-select re-scans a geometrically shrinking candidate set over the
// same immutable input.
ModeResult run_select_mode(const ModeSpec& mode) {
  return run_mode("cmp_select", mode, 45,
                  [](Context& ctx, EmVector<Record>& data, ModeResult& res,
                     const auto& capture) {
                    const auto answers =
                        multi_select<Record>(ctx, data, cmp_ranks());
                    capture();
                    res.sorted = answers.size() == 63;
                    std::uint64_t h = 1469598103934665603ull;
                    for (const Record& r : answers) {
                      h = (h ^ r.key) * 1099511628211ull;
                      h = (h ^ r.payload) * 1099511628211ull;
                    }
                    res.checksum = h;
                  });
}

// ---------------------------------------------------------------------------
// Service legs: the resident SplitterServer under a fixed query mix.
// ---------------------------------------------------------------------------

// One serving configuration.  The client count is load, never geometry: the
// fixed mix is partitioned round-robin across the clients, so every leg
// answers the same queries and must report the same per-query I/O sum and
// the same answer checksum (the service-side determinism contract, checked
// in-binary here and again by bench_compare.py --service).
struct ServiceLeg {
  const char* name;
  const char* backend;      // "file" | "uring"
  std::size_t clients = 1;  // concurrent in-process client threads
  std::size_t batch = 0;  // >0: pipelined — queries per query_batch() call
};

struct ServiceResult {
  double seconds = 0;       // best-of-3 wall for the full mix
  double p50 = 0;           // per-query latency percentiles (winning rep)
  double p99 = 0;
  std::uint64_t ios = 0;    // serial per-query I/O sum (deterministic)
  std::uint64_t checksum = 0;
  std::uint64_t shed = 0;
  std::uint64_t epoch = 0;
  bool ok = true;
  bool uring_native = false;
};

// The fixed query mix: half ranks, a quarter ranges, the rest histograms and
// top-k in both directions, all derived deterministically from the workload.
std::vector<SplitterServer::Request> service_mix(
    const std::vector<Record>& host) {
  const std::size_t n = host.size();
  constexpr std::size_t kQueries = 512;
  std::vector<SplitterServer::Request> mix;
  mix.reserve(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    SplitterServer::Request q;
    // Standing workloads are skewed: the paper's motivating applications
    // (percentile monitors, histogram dashboards) poll the same ranks over
    // and over.  75% of probes revisit a 32-record hot set; the rest walk
    // the key space uniformly.
    const bool is_hot = (i % 8) < 6;
    const std::size_t ia = is_hot ? ((i * 13) % 32) * 9973 : i * 9973;
    const std::size_t ib =
        is_hot ? ((i * 29 + 3) % 32) * 31337 + 7 : i * 31337 + 7;
    const Record a = host[ia % n];
    const Record b = host[ib % n];
    switch (i % 8) {
      case 6:
        q.kind = QueryKind::kHistogram;
        q.k = 64;
        break;
      case 7:
        q.kind = QueryKind::kTopK;
        q.k = 32;
        q.largest = i % 16 == 7;
        break;
      case 4:
      case 5:
        q.kind = QueryKind::kRange;
        q.lo = std::min(a, b);
        q.hi = std::max(a, b);
        break;
      default:
        // Saturated payload: rank counts every record with the probed key.
        q.kind = QueryKind::kRank;
        q.lo = Record{a.key, ~0ULL};
        break;
    }
    mix.push_back(q);
  }
  return mix;
}

// Fold one reply's answer into the leg checksum (same FNV-1a the mode legs
// use): scalar value, top-k records, histogram boundaries and sizes.
void mix_reply_checksum(std::uint64_t& h, const SplitterServer::Reply& rep) {
  const auto fold = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  fold(rep.value);
  for (const Record& r : rep.records) {
    fold(r.key);
    fold(r.payload);
  }
  for (const Record& b : rep.hist.boundaries) {
    fold(b.key);
    fold(b.payload);
  }
  for (const std::uint64_t s : rep.hist.sizes) fold(s);
}

ServiceResult run_service_leg(const ServiceLeg& leg, const std::string& src,
                              const std::vector<SplitterServer::Request>& mix) {
  // 4 KiB blocks, M = 2048 blocks (the worker legs' geometry): a rank reads
  // the one block between its two fences.
  const IoTuning tuning{.batch_blocks = 32};
  const ModeSpec mode{leg.name, tuning, CpuTuning{1, 1}, 0, 8, leg.backend,
                      0,        false,  4096,            2048};
  Rig rig = make_rig("cmp_service", mode);
  ServiceResult res;
  if (const UringBlockDevice* ring = rig_uring(rig, mode)) {
    res.uring_native = ring->native();
  }
  SplitterServer::Config scfg;
  scfg.source_path = src;
  scfg.buckets = 256;
  scfg.queue_wait = 0.25;
  SplitterServer server(*rig.ctx, scfg);
  server.start();
  res.epoch = server.epoch();

  // Serial verification pass: per-query reads are geometry, so the sum is
  // the leg's logical I/O figure and the answer stream hashes to its
  // checksum.
  std::uint64_t h = 1469598103934665603ull;
  IoStats sum;
  for (const auto& q : mix) {
    const SplitterServer::Reply rep = server.query(q);
    res.ok = res.ok && rep.ok;
    sum += rep.io;
    mix_reply_checksum(h, rep);
  }
  res.ios = sum.base().total();
  res.checksum = h;

  // Timed passes: the same mix partitioned round-robin across the client
  // threads, best of 3; latency samples come from the winning rep.  Pipelined
  // legs (batch > 0) push their slice through query_batch() in chunks — one
  // pinned snapshot per chunk, the socket batch execution path.
  for (int rep_i = 0; rep_i < 3; ++rep_i) {
    std::vector<std::vector<double>> lat(leg.clients);
    std::atomic<bool> all_ok{true};
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    clients.reserve(leg.clients);
    for (std::size_t c = 0; c < leg.clients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<SplitterServer::Request> slice;
        for (std::size_t i = c; i < mix.size(); i += leg.clients) {
          slice.push_back(mix[i]);
        }
        if (leg.batch > 0) {
          for (std::size_t i = 0; i < slice.size(); i += leg.batch) {
            const std::vector<SplitterServer::Request> chunk(
                slice.begin() + static_cast<std::ptrdiff_t>(i),
                slice.begin() + static_cast<std::ptrdiff_t>(
                                    std::min(i + leg.batch, slice.size())));
            for (const SplitterServer::Reply& rep :
                 server.query_batch(chunk, c + 1)) {
              if (!rep.ok) all_ok.store(false);
              lat[c].push_back(rep.seconds);
            }
          }
        } else {
          for (const auto& q : slice) {
            const SplitterServer::Reply rep = server.query(q, c + 1);
            if (!rep.ok) all_ok.store(false);
            lat[c].push_back(rep.seconds);
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    if (!all_ok.load()) res.ok = false;
    if (rep_i == 0 || dt.count() < res.seconds) {
      res.seconds = dt.count();
      std::vector<double> all;
      for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
      std::sort(all.begin(), all.end());
      const auto pct = [&all](double f) {
        const auto i = static_cast<std::size_t>(
            f * static_cast<double>(all.size() - 1) + 0.5);
        return all[std::min(i, all.size() - 1)];
      };
      res.p50 = pct(0.50);
      res.p99 = pct(0.99);
    }
  }
  res.shed = server.shed();
  return res;
}

void run_service_bench(bench::JsonEmitter& json) {
  // The source column the server (re)builds from: a flat record file.
  const std::string src = bench_path("cmp_service_src");
  const auto host = make_workload(Workload::kUniform, cmp_records(), 46);
  {
    std::FILE* f = std::fopen(src.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s; service legs skipped\n",
                   src.c_str());
      return;
    }
    const std::size_t wrote =
        std::fwrite(host.data(), sizeof(Record), host.size(), f);
    std::fclose(f);
    if (wrote != host.size()) {
      std::remove(src.c_str());
      return;
    }
  }
  const auto mix = service_mix(host);

  constexpr std::size_t kServeBatch = 16;
  const ServiceLeg legs[] = {
      {"serve1", "file", 1},
      {"serve4", "file", 4},
      {"serve4+uring", "uring", 4},
      {"serve4+pipe", "file", 4, kServeBatch},
      {"serve4+pipe+uring", "uring", 4, kServeBatch},
  };

  std::printf(
      "# service: resident SplitterServer, %zu-query mix, K = 256 buckets, "
      "B = 4096 bytes, N = %zu records\n",
      mix.size(), cmp_records());
  std::printf("# %-16s %-18s %9s %9s %9s %12s %5s\n", "op", "mode", "qps",
              "p50 ms", "p99 ms", "ios", "shed");

  std::uint64_t ref_ios = 0;
  std::uint64_t ref_checksum = 0;
  bool first_leg = true;
  for (const ServiceLeg& leg : legs) {
    const ServiceResult r = run_service_leg(leg, src, mix);
    if (first_leg) {
      ref_ios = r.ios;
      ref_checksum = r.checksum;
      first_leg = false;
    }
    // Clients and backend are load and geometry, never output: every
    // leg must answer the mix with the same logical reads and the same bytes.
    const bool deterministic =
        r.ios == ref_ios && r.checksum == ref_checksum;
    const double qps =
        r.seconds > 0 ? static_cast<double>(mix.size()) / r.seconds : 0.0;
    std::printf("  %-16s %-18s %9.0f %9.3f %9.3f %12llu %5llu%s%s\n",
                "service", leg.name, qps, 1e3 * r.p50, 1e3 * r.p99,
                static_cast<unsigned long long>(r.ios),
                static_cast<unsigned long long>(r.shed),
                r.ok ? "" : "  [CHECK FAILED]",
                deterministic ? "" : "  [DETERMINISM FAILED]");
    json.begin_row();
    json.field("op", std::string("service"));
    json.field("mode", std::string(leg.name));
    json.field("backend", std::string(leg.backend));
    json.field("uring_native", r.uring_native);
    json.field("clients", static_cast<std::uint64_t>(leg.clients));
    json.field("batch", static_cast<std::uint64_t>(leg.batch));
    json.field("buckets", std::uint64_t{256});
    json.field("queries", static_cast<std::uint64_t>(mix.size()));
    json.field("block_bytes", std::uint64_t{4096});
    json.field("mem_blocks", std::uint64_t{2048});
    json.field("records", static_cast<std::uint64_t>(cmp_records()));
    json.field("seconds", r.seconds);
    json.field("qps", qps);
    json.field("p50_seconds", r.p50);
    json.field("p99_seconds", r.p99);
    json.field("ios", r.ios);
    json.field("checksum", r.checksum);
    json.field("shed", r.shed);
    json.field("epoch", r.epoch);
    json.field("ok", r.ok && deterministic);
    json.end_row();
  }
  std::remove(src.c_str());
}

void run_mode_comparison() {
  // Tuning shorthands.  batched runs stream_blocks() = 32 (fan-in 127 over
  // ~65 runs: one merge pass, like sync's fan-in 4095), so both perform
  // identical I/O totals.  Every leg below batched reuses its tuning
  // verbatim — threads, shards and backend are the only deltas, so their
  // logical I/Os and checksums must equal the batched leg's exactly.
  const IoTuning kSync{.batch_blocks = 1};
  const IoTuning kBatched{.batch_blocks = 32};

  const std::vector<ModeSpec> full_modes = {
      {"sync", kSync},
      {"batched", kBatched},
      // CPU-parallel legs: same stream geometry as "batched", so I/O totals
      // and output checksums must match it exactly for every thread count
      // (the determinism contract).  sort_shards = 8 is geometry too, but
      // record order is total, so even it cannot move a byte.  On a
      // single-core host these report honestly flat times.
      {"batched+t2", kBatched, CpuTuning{2, 8}},
      {"batched+t4", kBatched, CpuTuning{4, 8}},
      // Sharded legs: the batched tuning striped over D file-backed
      // members.  Striping is geometry, so logical I/O totals and checksums
      // must equal the batched leg's exactly.  shard1 isolates the facade's
      // dispatch overhead (one member, same code path).  Stripe = batch =
      // 32 blocks: every aligned batch covers exactly one stripe, so
      // segment splitting adds no extra member calls and the members
      // alternate batch by batch (balance ~ 1).
      {"shard1", kBatched, CpuTuning{1, 1}, 1, 32},
      {"shard2", kBatched, CpuTuning{1, 1}, 2, 32},
      {"shard4", kBatched, CpuTuning{1, 1}, 4, 32},
      // The io_uring backend at the batched tuning: write-behind slots and
      // grouped submission replace one blocking pwrite per extent.
      {"uring", kBatched, CpuTuning{1, 1}, 0, 8, "uring"},
      // O_DIRECT probe leg: the ring with page-cache bypass requested, on a
      // 512-byte block size (the alignment O_DIRECT demands) with the same
      // M in bytes.  Its own geometry => exempt from the cross-leg
      // determinism reference and from bench_compare's wall gates; when the
      // filesystem refuses the probe the leg degrades to the buffered ring
      // and reports direct_io = false.
      {"uring-direct", kBatched, CpuTuning{1, 1}, 0, 8, "uring", 0, true,
       512, kCmpMemBlocks * kCmpBlockBytes / 512},
  };
  // Distribution sort (level-to-level re-reads) and multi-select (shrinking
  // candidate re-scans) run a compact leg set: the file baseline at batched
  // geometry and the ring.
  const std::vector<ModeSpec> backend_modes = {
      {"batched", kBatched},
      {"uring", kBatched, CpuTuning{1, 1}, 0, 8, "uring"},
  };
  // Worker legs: the multi-process distributed path for the two ops that
  // route through it, at W = 1, 2, 4 forked workers on a 4 KiB block
  // geometry (the tiny-block geometry above starves the distributed plan's
  // edge/cut tables, so dist_supported would fall back to the classic
  // path and the legs would measure nothing).  W is geometry, never
  // output: all three legs must report identical logical I/Os and output
  // checksums — checked in-binary against the workers1 reference and again
  // by bench_compare.py --workers.
  const std::vector<ModeSpec> worker_modes = {
      {"workers1", kBatched, CpuTuning{1, 1}, 0, 8, "file", 1, false, 4096,
       2048},
      {"workers2", kBatched, CpuTuning{1, 1}, 0, 8, "file", 2, false, 4096,
       2048},
      {"workers4", kBatched, CpuTuning{1, 1}, 0, 8, "file", 4, false, 4096,
       2048},
      // Supervision armed at zero faults: the poll-driven drain, per-frame
      // checksums and retry bookkeeping must cost nothing measurable —
      // identical I/Os and checksum to workers2, worker_retries = 0, and
      // wall-clock within bench_compare.py --supervision's threshold.
      {"workers2+sup", kBatched, CpuTuning{1, 1}, 0, 8, "file", 2, false,
       4096, 2048, true},
  };

  struct OpSpec {
    const char* op;
    ModeResult (*run)(const ModeSpec&);
    const std::vector<ModeSpec>* modes;
    const char* ref_leg;  // geometry reference for the determinism check
  };
  const OpSpec ops[] = {
      {"external_sort", run_sort_mode, &full_modes, "batched"},
      {"multi_partition", run_partition_mode, &full_modes, "batched"},
      {"dsort", run_dsort_mode, &backend_modes, "batched"},
      {"multi_select", run_select_mode, &backend_modes, "batched"},
      {"dsort", run_dsort_mode, &worker_modes, "workers1"},
      {"multi_partition", run_partition_mode, &worker_modes, "workers1"},
  };

  bench::JsonEmitter json("wallclock");
  std::printf(
      "# E10a: sync vs batched vs threads vs sharded vs uring, "
      "B = %zu bytes, M = %zu blocks, N = %zu records\n",
      kCmpBlockBytes, kCmpMemBlocks, cmp_records());
  std::printf("# %-16s %-11s %10s %12s %10s %8s\n", "op", "mode", "secs",
              "ios", "peak/M", "speedup");

  for (const OpSpec& op : ops) {
    double base_secs = 0;
    std::uint64_t ref_ios = 0;
    std::uint64_t ref_checksum = 0;
    bool first_leg = true;
    for (const auto& mode : *op.modes) {
      const std::string name = mode.name;
      const ModeResult r = op.run(mode);
      if (first_leg) {
        base_secs = r.seconds;  // speedup baseline: the op's first leg
        first_leg = false;
      }
      if (name == op.ref_leg) {
        ref_ios = r.ios;
        ref_checksum = r.checksum;
      }
      // Every leg past the reference shares its stream geometry, so both
      // halves of the determinism contract are checkable right here: same
      // logical I/O total, same output bytes.  Shard legs additionally
      // require the per-shard counters to partition the facade totals.
      const bool follows_ref =
          name.rfind("batched+", 0) == 0 || name.rfind("shard", 0) == 0 ||
          name.rfind("workers", 0) == 0 ||
          (name.rfind("uring", 0) == 0 && name != "uring-direct");
      const bool deterministic =
          (!follows_ref ||
           (r.ios == ref_ios && r.checksum == ref_checksum)) &&
          r.shard_sums_ok;
      const double speedup = r.seconds > 0 ? base_secs / r.seconds : 0.0;
      const double peak_frac = static_cast<double>(r.peak) /
                               static_cast<double>(kCmpMemBlocks * kCmpBlockBytes);
      std::printf("  %-16s %-11s %10.3f %12llu %10.3f %7.2fx%s%s\n",
                  op.op, mode.name, r.seconds,
                  static_cast<unsigned long long>(r.ios), peak_frac, speedup,
                  r.sorted ? "" : "  [CHECK FAILED]",
                  deterministic ? "" : "  [DETERMINISM FAILED]");
      json.begin_row();
      json.field("op", std::string(op.op));
      json.field("mode", std::string(mode.name));
      json.field("backend", std::string(mode.backend));
      json.field("uring_native", r.uring_native);
      json.field("direct_io", r.direct_io);
      json.field("workers", static_cast<std::uint64_t>(mode.workers));
      json.field("supervised", mode.supervised);
      json.field("worker_retries", r.worker_retries);
      json.field("batch_blocks", static_cast<std::uint64_t>(mode.tuning.batch_blocks));
      json.field("threads", static_cast<std::uint64_t>(mode.cpu.threads));
      json.field("sort_shards", static_cast<std::uint64_t>(mode.cpu.sort_shards));
      json.field("shards", static_cast<std::uint64_t>(mode.shards));
      json.field("stripe_blocks",
                 static_cast<std::uint64_t>(mode.shards > 0
                                                ? mode.stripe_blocks
                                                : std::size_t{0}));
      json.field("block_bytes", static_cast<std::uint64_t>(mode.block_bytes));
      json.field("mem_blocks", static_cast<std::uint64_t>(mode.mem_blocks));
      json.field("records", static_cast<std::uint64_t>(cmp_records()));
      json.field("seconds", r.seconds);
      json.field("ios", r.ios);
      json.field("peak_bytes", r.peak);
      json.field("checksum", r.checksum);
      json.field("speedup_vs_sync", speedup);
      json.field_json("passes", r.passes_json);
      json.end_row();
    }
  }
  // The service legs ride in the same trajectory entry: one bench run, one
  // labelled snapshot of both the batch ops and the resident server.
  run_service_bench(json);

  // Append a tagged entry so the trajectory file keeps every run; tag with
  // BENCH_LABEL (e.g. "pr4") when set, "dev" otherwise.
  const char* label = std::getenv("BENCH_LABEL");
  if (label == nullptr || *label == '\0') label = "dev";
  const char* out = "BENCH_wallclock.json";
  if (!json.append_entry(out, label)) {
    std::fprintf(stderr, "warning: could not write %s\n", out);
  } else {
    std::printf("# appended entry '%s' to %s\n", label, out);
  }
}

// ---------------------------------------------------------------------------
// Part 2: the original 4 KiB-geometry microbenches.
// ---------------------------------------------------------------------------

constexpr std::size_t kBlockBytes = 4096;
constexpr std::size_t kMemBlocks = 64;

void BM_FileScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  FileBlockDevice dev(bench_path("scan"), kBlockBytes);
  Context ctx(dev, kMemBlocks * kBlockBytes);
  auto host = make_workload(Workload::kUniform, n, 1);
  auto data = materialize<Record>(ctx, host);
  for (auto _ : state) {
    StreamReader<Record> r(data);
    std::uint64_t sum = 0;
    while (!r.done()) sum += r.next().key;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FileScan)->Arg(1 << 18)->Arg(1 << 20);

void BM_FileExternalSort(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  FileBlockDevice dev(bench_path("sort"), kBlockBytes);
  Context ctx(dev, kMemBlocks * kBlockBytes);
  auto host = make_workload(Workload::kUniform, n, 2);
  auto data = materialize<Record>(ctx, host);
  for (auto _ : state) {
    auto sorted = external_sort<Record>(ctx, data);
    benchmark::DoNotOptimize(sorted.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FileExternalSort)->Arg(1 << 18)->Arg(1 << 20);

void BM_FileSplittersRight(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  FileBlockDevice dev(bench_path("right"), kBlockBytes);
  Context ctx(dev, kMemBlocks * kBlockBytes);
  auto host = make_workload(Workload::kUniform, n, 3);
  auto data = materialize<Record>(ctx, host);
  const ApproxSpec spec{.k = 64, .a = 16, .b = n};
  for (auto _ : state) {
    auto s = approx_splitters<Record>(ctx, data, spec);
    benchmark::DoNotOptimize(s.size());
  }
}
BENCHMARK(BM_FileSplittersRight)->Arg(1 << 18)->Arg(1 << 20);

void BM_FileSplittersTwoSided(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  FileBlockDevice dev(bench_path("two"), kBlockBytes);
  Context ctx(dev, kMemBlocks * kBlockBytes);
  auto host = make_workload(Workload::kUniform, n, 4);
  auto data = materialize<Record>(ctx, host);
  const ApproxSpec spec{.k = 64, .a = 64, .b = n / 8};
  for (auto _ : state) {
    auto s = approx_splitters<Record>(ctx, data, spec);
    benchmark::DoNotOptimize(s.size());
  }
}
BENCHMARK(BM_FileSplittersTwoSided)->Arg(1 << 18)->Arg(1 << 20);

void BM_FilePartitioningLeft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  FileBlockDevice dev(bench_path("pleft"), kBlockBytes);
  Context ctx(dev, kMemBlocks * kBlockBytes);
  auto host = make_workload(Workload::kUniform, n, 5);
  auto data = materialize<Record>(ctx, host);
  const ApproxSpec spec{.k = 64, .a = 0, .b = n / 8};
  for (auto _ : state) {
    auto r = approx_partitioning<Record>(ctx, data, spec);
    benchmark::DoNotOptimize(r.bounds.size());
  }
}
BENCHMARK(BM_FilePartitioningLeft)->Arg(1 << 18)->Arg(1 << 20);

}  // namespace
}  // namespace emsplit

int main(int argc, char** argv) {
  emsplit::run_mode_comparison();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
