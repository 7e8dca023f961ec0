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
// workersN legs add lanes: logical I/Os and checksums must not move, and
// each trajectory row carries the per-pass trace from its final rep.
//
// Part 2 keeps the original google-benchmark microbenches on the 4 KiB
// geometry.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/api.hpp"

namespace emsplit {
namespace {

std::string bench_path(const char* tag) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/emsplit_bench_" + tag +
         ".bin";
}

// ---------------------------------------------------------------------------
// Part 1: sync vs batched (and its thread and worker variants).
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
  std::size_t workers = 0;       // > 0 routes dsort/partition through the
                                 // distributed path on W lanes (W is
                                 // geometry: every W must report identical
                                 // logical I/Os and output checksums)
  // Per-leg geometry overrides.  The worker legs need blocks big enough for
  // the distributed plan's edge/cut tables.  Legs that override run their
  // own geometry and are exempt from the cross-leg determinism reference.
  std::size_t block_bytes = kCmpBlockBytes;
  std::size_t mem_blocks = kCmpMemBlocks;
};

struct ModeResult {
  double seconds = 0;
  std::uint64_t ios = 0;
  std::uint64_t peak = 0;
  std::uint64_t checksum = 0;
  bool sorted = false;
  std::string passes_json;       // JSON array of the final rep's trace rows
};

// Device + context + pass trace for one leg.
struct Rig {
  std::unique_ptr<BlockDevice> dev;
  std::unique_ptr<Context> ctx;
  std::unique_ptr<PassTraceLog> trace;  // heap: ctx holds its address
};

Rig make_rig(const char* tag, const ModeSpec& mode) {
  Rig rig;
  rig.dev = std::make_unique<FileBlockDevice>(bench_path(tag),
                                              mode.block_bytes);
  rig.ctx =
      std::make_unique<Context>(*rig.dev, mode.mem_blocks * mode.block_bytes);
  rig.ctx->set_io_tuning(mode.tuning);
  rig.ctx->set_worker_tuning({mode.workers});
  rig.trace = std::make_unique<PassTraceLog>();
  rig.ctx->set_pass_trace(rig.trace.get());
  return rig;
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
      res.ios = rig.dev->stats().base().total();
    };
    body(*rig.ctx, data, res, capture);
    res.peak = rig.ctx->budget().peak();
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

void run_mode_comparison() {
  // Tuning shorthands.  batched runs stream_blocks() = 32 (fan-in 127 over
  // ~65 runs: one merge pass, like sync's fan-in 4095), so both perform
  // identical I/O totals.
  const IoTuning kSync{.batch_blocks = 1};
  const IoTuning kBatched{.batch_blocks = 32};

  const std::vector<ModeSpec> full_modes = {
      {"sync", kSync},
      {"batched", kBatched},
  };
  // Distribution sort (level-to-level re-reads) and multi-select (shrinking
  // candidate re-scans) run the batched leg only.
  const std::vector<ModeSpec> batched_modes = {{"batched", kBatched}};
  // Worker legs: the distributed path for the two ops that route through
  // it, at W = 1, 2, 4 lanes on a 4 KiB block
  // geometry (the tiny-block geometry above starves the distributed plan's
  // edge/cut tables, so dist_supported would fall back to the classic
  // path and the legs would measure nothing).  W is geometry, never
  // output: all three legs must report identical logical I/Os and output
  // checksums — checked in-binary against the workers1 reference and again
  // by bench_compare.py --workers.
  const std::vector<ModeSpec> worker_modes = {
      {"workers1", kBatched, 1, 4096, 2048},
      {"workers2", kBatched, 2, 4096, 2048},
      {"workers4", kBatched, 4, 4096, 2048},
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
      {"dsort", run_dsort_mode, &batched_modes, "batched"},
      {"multi_select", run_select_mode, &batched_modes, "batched"},
      {"dsort", run_dsort_mode, &worker_modes, "workers1"},
      {"multi_partition", run_partition_mode, &worker_modes, "workers1"},
  };

  bench::JsonEmitter json("wallclock");
  std::printf(
      "# E10a: sync vs batched vs workers, "
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
      // Every worker leg shares its reference's stream geometry, so both
      // halves of the determinism contract are checkable right here: same
      // logical I/O total, same output bytes.
      const bool follows_ref = name.rfind("workers", 0) == 0;
      const bool deterministic =
          !follows_ref || (r.ios == ref_ios && r.checksum == ref_checksum);
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
      json.field("workers", static_cast<std::uint64_t>(mode.workers));
      json.field("batch_blocks", static_cast<std::uint64_t>(mode.tuning.batch_blocks));
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
