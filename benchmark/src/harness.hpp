// harness.hpp — shared pieces of the emsplit benchmark: the fixed machine
// configuration, statistics, the result report and the in-memory span
// recorder behind the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "em/io_stats.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Monotonic nanoseconds (steady_clock's epoch).
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;         ///< one workload, or "" for all of them
  std::uint64_t seed = 1;
  double seconds = 20;          ///< measured time per workload
  bool traced = false;          ///< per-layer run: spans, probes, trace file
  bool smoke = false;           ///< N = 2^16, short steps; never metrics
  bool corrupt = false;         ///< corrupt expected answers (checker test)
  std::string workdir = ".bench_build/work";
  std::string trace_dir = ".bench_build/trace";
};

/// The fixed machine configuration.  It is part of the benchmark: never tuned
/// per workload, and stated in README.md.
struct Config {
  std::size_t n;                               ///< records (16 B each)
  std::size_t block_bytes = 4096;              ///< B
  std::size_t batch_blocks = 32;               ///< IoTuning::batch_blocks
  std::size_t batch_mem = std::size_t{4} << 20;   ///< M of the batch jobs
  std::size_t serve_mem = std::size_t{16} << 20;  ///< M of the server
  std::uint64_t buckets = 256;                 ///< server index buckets K
  std::uint64_t cache_blocks = 1024;           ///< server bucket cache
};

Config config(const Options& opt);

/// Linear-interpolated quantile (q in [0, 1]) of `v`; +inf entries sort last.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Result sink.  Every metric is one JSON line on stdout
///   {"workload","metric","value","unit","kind","n"}
/// with kind "e2e" (end-to-end), "layer" (per-layer, traced run), "detail"
/// (supporting numbers) or "check" (attempted / failed / correct); a table
/// goes to stderr.  A failed check makes the whole run exit non-zero.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void e2e(const std::string& metric, double value, const char* unit,
           std::size_t n) {
    emit(metric, value, unit, "e2e", n);
  }
  void layer(const std::string& metric, double value, const char* unit,
             std::size_t n) {
    emit(metric, value, unit, "layer", n);
  }
  void detail(const std::string& metric, double value, const char* unit,
              std::size_t n) {
    emit(metric, value, unit, "detail", n);
  }

  /// One checked operation (a job, a request): counts toward attempted and,
  /// when !ok, failed.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// A failed correctness or validity check (wrong answer, non-determinism,
  /// a generator that ran late): logged, and the run's outcome becomes wrong.
  void fail(const std::string& why);

  [[nodiscard]] bool correct() const noexcept { return correct_; }
  /// Emits the "check" lines; returns correct().
  bool finish();

  /// Names of the per-layer metrics emitted so far.
  [[nodiscard]] const std::set<std::string>& layers() const noexcept {
    return layers_;
  }

 private:
  void emit(const std::string& metric, double value, const char* unit,
            const char* kind, std::size_t n);

  std::string workload_;
  std::set<std::string> layers_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// In-memory span recorder for the traced run.  Spans nest workload → rep or
/// step → pass row, layer call or request; the file is Chrome trace-event
/// JSON, which Perfetto (ui.perfetto.dev) and chrome://tracing open offline.
/// Bounded: past `kMaxSpans` spans are counted as dropped, not stored.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = 400000;

  struct Span {
    std::string name;
    std::string cat;
    int tid = 1;
    std::int64_t t0 = 0;  ///< now_ns()
    std::int64_t t1 = 0;
    emsplit::IoStats io;
    std::int64_t parent = -1;  ///< index of the enclosing span, -1 = none
    bool async = false;        ///< overlapping request span (own id track)
  };

  explicit Tracer(bool on) : on_(on) {}

  [[nodiscard]] bool on() const noexcept { return on_; }
  /// Record a span; returns its index (or -1 when off or full).
  std::int64_t add(Span s);
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Write the spans as Chrome trace-event JSON; false on I/O failure.
  bool write(const std::string& path, const std::string& workload) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// A scoped span on the main track: records [construction, destruction)
/// when the tracer is on.
class SpanScope {
 public:
  SpanScope(Tracer& t, std::string name, std::string cat)
      : t_(t), name_(std::move(name)), cat_(std::move(cat)), t0_(now_ns()) {}
  ~SpanScope() {
    if (t_.on()) t_.add({name_, cat_, 1, t0_, now_ns(), {}, -1, false});
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
  std::string name_;
  std::string cat_;
  std::int64_t t0_;
};

// ---- workloads (batch.cpp, serve.cpp) ------------------------------------

void run_batch(const Options& opt, const std::string& workload, Report& rep,
               Tracer& tracer);
void run_serve(const Options& opt, const std::string& workload, Report& rep,
               Tracer& tracer);

// ---- layer probes (layers.cpp) -------------------------------------------

/// Device micro-benchmarks: FileBlockDevice read/write µs per block at batch
/// sizes 1/8/32/64 on a warm file, and a full StreamReader<Record> scan.
/// Returns read_us_per_block at b32 and write_us_per_block at b32, which the
/// cost model uses.
struct DeviceCosts {
  double read_us_b32 = 0;
  double write_us_b32 = 0;
};
DeviceCosts probe_device(const Options& opt, const Config& cfg, Report& rep,
                         Tracer& tracer);

/// Chunk-sort kernel throughput on an M-sized buffer (no I/O).
void probe_sort(const Options& opt, const Config& cfg, Report& rep,
                Tracer& tracer);

}  // namespace bench
