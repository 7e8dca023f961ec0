// batch.cpp — the paper's two batch problems through the public API, on a
// real file-backed device.
//
//   splitters — approx_splitters two-sided, K = 64, a = N/128, b = N/32
//               (the quantile multi_select path, 63 ranks; mostly reads).
//   partition — approx_partitioning two-sided, K = 256, a = N/512, b = N/128
//               (quantile multi_partition; writes a full copy of the data).
//
// One untimed rep is checked against a sort oracle; the timed reps must then
// reproduce its output checksum and block I/O count exactly and stay within
// M.  Set-up is materialising the input onto the device.
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "harness.hpp"
#include "layers.hpp"

namespace bench {
namespace {

using namespace emsplit;

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t x) { h = (h ^ x) * 1099511628211ull; }
  void add(const Record& r) {
    add(r.key);
    add(r.payload);
  }
};

ApproxSpec job_spec(const std::string& workload, std::uint64_t n) {
  if (workload == "splitters") return {.k = 64, .a = n / 128, .b = n / 32};
  return {.k = 256, .a = n / 512, .b = n / 128};
}

/// Oracle check of K-1 splitters: members of the input, strictly increasing,
/// every induced bucket size in [a, b].  `corrupt` perturbs the oracle's
/// first bucket size (the checker's own test).  "" when correct.
std::string check_splitters(const std::vector<Record>& sorted,
                            const std::vector<Record>& s,
                            const ApproxSpec& spec, bool corrupt) {
  if (s.size() + 1 != spec.k) return "wrong number of splitters";
  std::uint64_t prev_rank = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    std::uint64_t rank = sorted.size();
    if (i < s.size()) {
      const auto it = std::lower_bound(sorted.begin(), sorted.end(), s[i]);
      if (it == sorted.end() || *it != s[i]) return "splitter not in the input";
      if (i > 0 && !(s[i - 1] < s[i])) return "splitters not increasing";
      rank = static_cast<std::uint64_t>(it - sorted.begin()) + 1;
    }
    std::uint64_t size = rank - prev_rank;
    if (corrupt && i == 0) size += spec.b + 1;
    if (size < spec.a || size > spec.b) {
      return "bucket " + std::to_string(i) + " has size " + std::to_string(size);
    }
    prev_rank = rank;
  }
  return "";
}

/// Oracle check of a K-partitioning: K+1 bounds covering the data, sizes in
/// [a, b], and partition i holding exactly the oracle's records of ranks
/// [bounds[i], bounds[i+1]) — order across partitions and permutation in one.
std::string check_partition(const std::vector<Record>& sorted,
                            std::vector<Record> out,
                            const std::vector<std::uint64_t>& bounds,
                            const ApproxSpec& spec, bool corrupt) {
  if (bounds.size() != spec.k + 1 || bounds.front() != 0 ||
      bounds.back() != sorted.size() || out.size() != sorted.size()) {
    return "bounds do not cover the data";
  }
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    if (bounds[i] > bounds[i + 1]) return "bounds not monotone";
    std::uint64_t size = bounds[i + 1] - bounds[i];
    if (corrupt && i == 0) size += spec.b + 1;
    if (size < spec.a || size > spec.b) {
      return "partition " + std::to_string(i) + " has size " +
             std::to_string(size);
    }
    const auto lo = out.begin() + static_cast<std::ptrdiff_t>(bounds[i]);
    const auto hi = out.begin() + static_cast<std::ptrdiff_t>(bounds[i + 1]);
    std::sort(lo, hi);
    if (!std::equal(lo, hi,
                    sorted.begin() + static_cast<std::ptrdiff_t>(bounds[i]))) {
      return "partition " + std::to_string(i) + " holds the wrong records";
    }
  }
  return "";
}

/// One device + context + materialised input.  Traced runs keep a second
/// lane on a SpanDevice and alternate reps between the two.
struct Lane {
  std::unique_ptr<FileBlockDevice> file;
  std::unique_ptr<SpanDevice> span;  // traced lane only
  std::unique_ptr<Context> ctx;
  std::optional<EmVector<Record>> data;

  BlockDevice& dev() { return span ? static_cast<BlockDevice&>(*span) : *file; }
};

struct JobResult {
  double wall_s = 0;
  IoStats io;
  std::size_t peak = 0;
  std::uint64_t checksum = 0;
  std::string error;  // oracle verdict (verify rep only)
  std::int64_t t0 = 0, t1 = 0;
};

}  // namespace

void run_batch(const Options& opt, const std::string& workload, Report& rep,
               Tracer& tracer) {
  const Config cfg = config(opt);
  const std::uint64_t n = cfg.n;
  const ApproxSpec spec = job_spec(workload, n);
  const bool splitters = workload == "splitters";
  const std::int64_t t_workload = now_ns();

  const std::vector<Record> host = make_workload(Workload::kUniform, n, opt.seed);
  std::vector<Record> sorted = host;
  std::sort(sorted.begin(), sorted.end());

  PassTraceLog log;
  const auto make_lane = [&](const std::string& path, bool traced) {
    Lane lane;
    lane.file = std::make_unique<FileBlockDevice>(path, cfg.block_bytes);
    if (traced) lane.span = std::make_unique<SpanDevice>(*lane.file, tracer, &log);
    lane.ctx = std::make_unique<Context>(lane.dev(), cfg.batch_mem);
    lane.ctx->set_io_tuning({.batch_blocks = cfg.batch_blocks});
    if (traced) lane.ctx->set_pass_trace(&log);
    return lane;
  };
  Lane plain = make_lane(workload + ".dev", false);
  std::optional<Lane> traced;
  if (opt.traced) traced.emplace(make_lane(workload + ".traced.dev", true));

  // Set-up: materialise the input, several times; the median is setup_s.
  std::vector<double> setup;
  for (int s = 0; s < (opt.smoke ? 2 : 9); ++s) {
    plain.data.reset();
    const auto t0 = Clock::now();
    plain.data.emplace(materialize<Record>(*plain.ctx, host));
    setup.push_back(seconds_since(t0));
  }
  if (traced) traced->data.emplace(materialize<Record>(*traced->ctx, host));

  const auto run_job = [&](Lane& lane, bool verify) {
    JobResult r;
    lane.dev().reset_stats();
    lane.ctx->budget().reset_peak();
    log.reset();
    if (lane.span) lane.span->start_job();
    r.t0 = now_ns();
    if (splitters) {
      const auto s = approx_splitters<Record>(*lane.ctx, *lane.data, spec);
      r.t1 = now_ns();
      r.io = lane.dev().stats().base();
      Fnv f;
      for (const Record& x : s) f.add(x);
      r.checksum = f.h;
      if (verify) r.error = check_splitters(sorted, s, spec, opt.corrupt);
    } else {
      auto p = approx_partitioning<Record>(*lane.ctx, *lane.data, spec);
      r.t1 = now_ns();
      r.io = lane.dev().stats().base();
      std::vector<Record> out = to_host(p.data);
      Fnv f;
      for (const std::uint64_t b : p.bounds) f.add(b);
      for (const Record& x : out) f.add(x);
      r.checksum = f.h;
      if (verify) {
        r.error = check_partition(sorted, std::move(out), p.bounds, spec,
                                  opt.corrupt);
      }
    }
    r.wall_s = static_cast<double>(r.t1 - r.t0) * 1e-9;
    r.peak = lane.ctx->budget().peak();
    return r;
  };

  // Untimed verify rep: the oracle check, and the reference every timed rep
  // must reproduce exactly.
  const JobResult ref = run_job(plain, true);
  rep.op(ref.error.empty());
  if (!ref.error.empty()) rep.fail("oracle rejected the output: " + ref.error);

  std::vector<double> walls, traced_walls;
  std::vector<JobTrace> jobs;
  std::size_t peak = ref.peak;
  const int min_reps = opt.traced ? 4 : 3;
  const auto t_loop = Clock::now();
  for (int i = 0; (seconds_since(t_loop) < opt.seconds || i < min_reps) && i < 500;
       ++i) {
    const bool on_span = traced && i % 2 == 0;
    Lane& lane = on_span ? *traced : plain;
    const JobResult r = run_job(lane, false);
    peak = std::max(peak, r.peak);
    const bool same = r.checksum == ref.checksum && r.io == ref.io;
    rep.op(same && r.peak <= cfg.batch_mem);
    if (!same) {
      rep.fail("rep " + std::to_string(i) +
               " differs from the verify rep (checksum or block I/O)");
    }
    if (r.peak > cfg.batch_mem) rep.fail("peak memory above M");
    if (!on_span) {
      walls.push_back(r.wall_s);
      continue;
    }
    traced_walls.push_back(r.wall_s);
    const std::int64_t span = tracer.add(
        {"rep " + std::to_string(i), "job", 1, r.t0, r.t1, r.io, -1, false});
    JobTrace jt;
    jt.wall_s = r.wall_s;
    jt.io = r.io;
    jt.peak_bytes = r.peak;
    jt.mem_bytes = cfg.batch_mem;
    jt.device_s = lane.span->busy_seconds();
    attribute_passes(log, lane.span->boundaries(), tracer, span, jt.passes);
    jobs.push_back(std::move(jt));
  }

  const double wall = median(walls);
  if (!opt.traced) {
    rep.e2e("setup_s", median(setup), "s", setup.size());
    rep.e2e("throughput_per_s", static_cast<double>(n) / wall, "1/s",
            walls.size());
    rep.e2e("peak_mem_mib", static_cast<double>(peak) / (1024.0 * 1024.0),
            "MiB", walls.size() + 1);
    rep.detail("job_ms.p50", 1e3 * wall, "ms", walls.size());
    rep.detail("job_ms.max", 1e3 * *std::max_element(walls.begin(), walls.end()),
               "ms", walls.size());
    rep.detail("block_ios", static_cast<double>(ref.io.total()), "blocks",
               walls.size() + 1);
    rep.detail("reads", static_cast<double>(ref.io.reads), "blocks", 1);
    rep.detail("writes", static_cast<double>(ref.io.writes), "blocks", 1);
    rep.detail("checksum_low32", static_cast<double>(ref.checksum & 0xffffffffu),
               "hash", 1);
  } else {
    rep.layer("trace.overhead_frac", median(traced_walls) / wall - 1.0,
              "fraction", traced_walls.size());
    const DeviceCosts costs = probe_device(opt, cfg, rep, tracer);
    probe_sort(opt, cfg, rep, tracer);
    report_job_layers(rep, jobs, costs);
    report_unexercised(rep, {"index.", "server.", "proto.", "load.", "gen."});
  }
  tracer.add({workload, "workload", 1, t_workload, now_ns(), {}, -1, false});
}

}  // namespace bench
