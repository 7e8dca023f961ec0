// layers.hpp — what the traced run measures at the library's layer
// boundaries, from the benchmark's own code (no instrumentation in src/).
//
//   * SpanDevice wraps the job's FileBlockDevice: every device call becomes a
//     span ("em" layer busy time), and the pass engine's per-pass counter
//     snapshots become exact pass boundaries.
//   * attribute_passes() turns a job's PassTrace rows (the public
//     Context::set_pass_trace sink) plus those boundaries into nested pass
//     spans with self time and exclusive I/O.
//   * report_job_layers() prints the em / model / pass metrics of one job.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "em/block_device.hpp"
#include "em/pass_engine.hpp"
#include "harness.hpp"

namespace bench {

/// The per-layer metrics every traced run prints, with their units.  The
/// same list is BENCHMARK.json's `per_layer`.
struct LayerMetric {
  std::string name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

/// Pass labels the benchmark's jobs emit (splitters job, partition job and
/// the server's index build), '/' already replaced by '.'.
const std::vector<std::string>& pass_labels();

/// Print 0 for every per-layer metric whose name starts with one of
/// `prefixes`: the layers a workload does not exercise.
void report_unexercised(Report& rep, const std::vector<std::string>& prefixes);

/// A BlockDevice forwarding every transfer to `inner` (one extent of the
/// same ids: growth allocates the same blocks on `inner`), timing each call.
///
/// Pass boundaries: PassRunner snapshots Context::shard_stats() exactly once
/// when a pass starts and once when it ends, just before it records its
/// PassTrace row, so shard_stats() here timestamps each boundary and notes
/// how many rows the attached log held.  Single-threaded use only (the
/// benchmark's jobs run with the library's default of one thread).
class SpanDevice final : public emsplit::BlockDevice {
 public:
  struct Boundary {
    std::int64_t t = 0;      ///< now_ns()
    std::size_t rows = 0;    ///< log rows recorded at that moment
  };

  SpanDevice(emsplit::BlockDevice& inner, Tracer& tracer,
             const emsplit::PassTraceLog* log)
      : BlockDevice(inner.block_bytes()), inner_(inner), tracer_(tracer),
        log_(log) {}

  [[nodiscard]] std::vector<emsplit::IoStats> shard_stats() const override;

  /// Clear the boundary list and the busy clock (call before each job).
  void start_job() {
    boundaries_.clear();
    busy_ns_ = 0;
  }
  [[nodiscard]] const std::vector<Boundary>& boundaries() const noexcept {
    return boundaries_;
  }
  /// Wall time spent inside device calls since start_job().
  [[nodiscard]] double busy_seconds() const noexcept {
    return static_cast<double>(busy_ns_) * 1e-9;
  }
  /// Time and record device calls (the default), or forward them untouched.
  void record_calls(bool on) noexcept { record_ = on; }

 protected:
  void do_read(emsplit::BlockId block, std::span<std::byte> out) override;
  void do_write(emsplit::BlockId block, std::span<const std::byte> in) override;
  void do_read_blocks(emsplit::BlockId first, std::uint64_t count,
                      std::span<std::byte> out) override;
  void do_write_blocks(emsplit::BlockId first, std::uint64_t count,
                       std::span<const std::byte> in) override;
  void do_grow(std::uint64_t new_size_blocks) override;

 private:
  void note_call(bool write, std::int64_t t0, std::uint64_t count);

  emsplit::BlockDevice& inner_;
  Tracer& tracer_;
  const emsplit::PassTraceLog* log_;
  mutable std::vector<Boundary> boundaries_;
  std::int64_t busy_ns_ = 0;
  bool record_ = true;
};

/// One label's share of a job: exclusive wall time and I/O, and run count.
struct PassShare {
  double self_s = 0;
  std::uint64_t ios = 0;
  std::uint64_t count = 0;
};

/// One traced job (a batch rep, or the serve workload's index build).
struct JobTrace {
  double wall_s = 0;
  emsplit::IoStats io;
  std::size_t peak_bytes = 0;
  std::size_t mem_bytes = 0;
  double device_s = 0;  ///< SpanDevice::busy_seconds()
  std::map<std::string, PassShare> passes;
};

/// Attribute the rows of one job (the log is reset before each job): match
/// each row to its boundary interval, nest rows by interval containment, add
/// a span per row under `parent_span`, and sum self time / exclusive I/O per
/// label.  Falls back to inclusive numbers, with no spans and a warning, when
/// the boundaries do not pair up with the rows.
void attribute_passes(const emsplit::PassTraceLog& log,
                      const std::vector<SpanDevice::Boundary>& bounds,
                      Tracer& tracer, std::int64_t parent_span,
                      std::map<std::string, PassShare>& out);

/// em.reads / em.writes / em.write_frac / em.peak_frac / em.device_frac,
/// model.device_s / model.device_frac and pass.<label>.* over `jobs`
/// (medians for times; counts from the first job).
void report_job_layers(Report& rep, const std::vector<JobTrace>& jobs,
                       const DeviceCosts& costs);

}  // namespace bench
