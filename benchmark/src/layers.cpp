// layers.cpp — the traced run's layer measurements: the device wrapper,
// pass attribution, and the device / sort micro-benchmarks.
#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <span>

#include "em/context.hpp"
#include "em/em_vector.hpp"
#include "em/stream.hpp"
#include "sort/chunk_sort.hpp"
#include "util/record.hpp"
#include "util/rng.hpp"

namespace bench {

using emsplit::BlockId;
using emsplit::IoStats;

const std::vector<std::string>& pass_labels() {
  static const std::vector<std::string> kLabels = {
      "splitters.recursive-sample", "splitters.final-sample",
      "msel.count-buckets",         "msel.build-instance",
      "msel.base-case",             "intermixed.in-memory",
      "mpart.recursive-partition",
  };
  return kLabels;
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kMetrics = [] {
    std::vector<LayerMetric> m;
    for (const char* b : {"b1", "b8", "b32", "b64"}) {
      m.push_back({std::string("em.read_us_per_block.") + b, "us"});
    }
    for (const char* b : {"b1", "b8", "b32", "b64"}) {
      m.push_back({std::string("em.write_us_per_block.") + b, "us"});
    }
    m.push_back({"em.scan_mb_per_s", "MB/s"});
    m.push_back({"em.reads", "blocks"});
    m.push_back({"em.writes", "blocks"});
    m.push_back({"em.write_frac", "fraction"});
    m.push_back({"em.peak_frac", "fraction"});
    m.push_back({"em.device_frac", "fraction"});
    m.push_back({"model.device_s", "s"});
    m.push_back({"model.device_frac", "fraction"});
    for (const std::string& label : pass_labels()) {
      m.push_back({"pass." + label + ".self_s", "s"});
      m.push_back({"pass." + label + ".ios", "blocks"});
      m.push_back({"pass." + label + ".count", "count"});
    }
    m.push_back({"sort.chunk_sort_mrec_per_s", "Mrec/s"});
    for (const char* k : {"rank", "range", "hist", "topk"}) {
      m.push_back({std::string("index.") + k + "_us.p50", "us"});
    }
    m.push_back({"index.rank_us.p99", "us"});
    m.push_back({"index.reads_per_query", "blocks"});
    m.push_back({"index.bucket_hit_ratio", "fraction"});
    m.push_back({"server.query_us.p50", "us"});
    m.push_back({"server.query_us.p99", "us"});
    m.push_back({"server.self_us.p50", "us"});
    m.push_back({"server.admission_us.p99", "us"});
    m.push_back({"server.cpu_us_per_query", "us"});
    m.push_back({"server.threads", "count"});
    for (const char* s : {"served", "shed", "bucket_hits", "bucket_coalesced"}) {
      m.push_back({std::string("server.stats.") + s, "count"});
    }
    m.push_back({"proto.rtt_us.p50", "us"});
    m.push_back({"proto.self_us.p50", "us"});
    for (const char* step : {"low", "mid", "high"}) {
      for (const char* q : {"p50", "p90", "p99"}) {
        m.push_back({std::string("load.") + step + "." + q + "_ms", "ms"});
      }
    }
    m.push_back({"gen.lag_ms.p99", "ms"});
    m.push_back({"gen.lag_ms.max", "ms"});
    m.push_back({"gen.cpu_frac", "fraction"});
    m.push_back({"gen.backlog_max", "count"});
    m.push_back({"trace.overhead_frac", "fraction"});
    return m;
  }();
  return kMetrics;
}

void report_unexercised(Report& rep, const std::vector<std::string>& prefixes) {
  for (const LayerMetric& m : layer_metrics()) {
    for (const std::string& p : prefixes) {
      if (m.name.rfind(p, 0) == 0) {
        rep.layer(m.name, 0.0, m.unit, 0);
        break;
      }
    }
  }
}

// ---- SpanDevice ----------------------------------------------------------

std::vector<IoStats> SpanDevice::shard_stats() const {
  boundaries_.push_back({now_ns(), log_ != nullptr ? log_->rows().size() : 0});
  return {};
}

void SpanDevice::note_call(bool write, std::int64_t t0, std::uint64_t count) {
  if (!record_) return;
  const std::int64_t t1 = now_ns();
  busy_ns_ += t1 - t0;
  if (!tracer_.on()) return;
  Tracer::Span s{write ? "write" : "read", "em", 1, t0, t1, {}, -1, false};
  (write ? s.io.writes : s.io.reads) = count;
  tracer_.add(std::move(s));
}

void SpanDevice::do_read(BlockId block, std::span<std::byte> out) {
  const std::int64_t t0 = now_ns();
  inner_.read(block, out);
  note_call(false, t0, 1);
}

void SpanDevice::do_write(BlockId block, std::span<const std::byte> in) {
  const std::int64_t t0 = now_ns();
  inner_.write(block, in);
  note_call(true, t0, 1);
}

void SpanDevice::do_read_blocks(BlockId first, std::uint64_t count,
                                std::span<std::byte> out) {
  const std::int64_t t0 = now_ns();
  inner_.read_blocks(first, count, out);
  note_call(false, t0, count);
}

void SpanDevice::do_write_blocks(BlockId first, std::uint64_t count,
                                 std::span<const std::byte> in) {
  const std::int64_t t0 = now_ns();
  inner_.write_blocks(first, count, in);
  note_call(true, t0, count);
}

void SpanDevice::do_grow(std::uint64_t new_size_blocks) {
  // `inner_` never frees, so its first-fit allocator appends: block ids stay
  // identical on both devices.
  (void)inner_.allocate(new_size_blocks - inner_.size_blocks());
}

// ---- pass attribution ----------------------------------------------------

namespace {

std::string dotted(std::string label) {
  std::replace(label.begin(), label.end(), '/', '.');
  return label;
}

}  // namespace

void attribute_passes(const emsplit::PassTraceLog& log,
                      const std::vector<SpanDevice::Boundary>& bounds,
                      Tracer& tracer, std::int64_t parent_span,
                      std::map<std::string, PassShare>& out) {
  const auto& rows = log.rows();
  const std::size_t nrows = rows.size();
  struct Interval {
    std::int64_t t0 = 0, t1 = 0;
    std::int64_t parent = -1;  // row index, -1 = top level
  };
  std::vector<Interval> iv(nrows);
  std::vector<bool> seen(nrows, false);
  // A boundary is a pass end exactly when a row was recorded before the next
  // boundary; ends close the innermost open start (scopes are RAII-nested).
  std::vector<std::int64_t> open;        // start times
  std::vector<std::vector<std::size_t>> open_children;
  bool ok = bounds.size() == 2 * nrows;
  for (std::size_t i = 0; ok && i < bounds.size(); ++i) {
    const std::size_t next_rows =
        i + 1 < bounds.size() ? bounds[i + 1].rows : rows.size();
    if (next_rows == bounds[i].rows) {
      open.push_back(bounds[i].t);
      open_children.emplace_back();
      continue;
    }
    const std::size_t r = bounds[i].rows;
    if (open.empty() || r >= nrows || next_rows != r + 1 || seen[r]) {
      ok = false;
      break;
    }
    seen[r] = true;
    iv[r].t0 = open.back();
    iv[r].t1 = bounds[i].t;
    for (const std::size_t c : open_children.back()) {
      iv[c].parent = static_cast<std::int64_t>(r);
    }
    open.pop_back();
    open_children.pop_back();
    if (!open_children.empty()) open_children.back().push_back(r);
    // The row's own clock runs strictly inside its boundaries.
    const double measured = static_cast<double>(iv[r].t1 - iv[r].t0) * 1e-9;
    const double slack = 1e-3 + 0.01 * rows[r].seconds;
    if (rows[r].seconds > measured + slack || rows[r].seconds < measured - slack) {
      ok = false;
    }
  }
  ok = ok && open.empty();

  out.clear();
  if (!ok) {
    std::fprintf(stderr,
                 "warning: pass boundaries did not pair with %zu trace rows; "
                 "reporting inclusive pass times\n",
                 nrows);
    for (std::size_t r = 0; r < nrows; ++r) {
      const auto& row = rows[r];
      PassShare& s = out[dotted(row.pass)];
      s.self_s += row.seconds;
      s.ios += row.io.base().total();
      ++s.count;
    }
    return;
  }

  std::vector<double> child_s(nrows, 0.0);
  std::vector<std::uint64_t> child_ios(nrows, 0);
  for (std::size_t r = 0; r < nrows; ++r) {
    if (iv[r].parent < 0) continue;
    const auto p = static_cast<std::size_t>(iv[r].parent);
    child_s[p] += rows[r].seconds;
    child_ios[p] += rows[r].io.base().total();
  }
  // Spans in start order, so every parent is added before its children.
  std::vector<std::size_t> order(nrows);
  for (std::size_t r = 0; r < nrows; ++r) order[r] = r;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return iv[a].t0 < iv[b].t0; });
  std::vector<std::int64_t> span_of(nrows, -1);
  for (const std::size_t r : order) {
    const auto& row = rows[r];
    PassShare& s = out[dotted(row.pass)];
    s.self_s += row.seconds - child_s[r];
    s.ios += row.io.base().total() - child_ios[r];
    ++s.count;
    const std::int64_t parent =
        iv[r].parent < 0 ? parent_span
                         : span_of[static_cast<std::size_t>(iv[r].parent)];
    span_of[r] = tracer.add(
        {row.pass, "pass", 1, iv[r].t0, iv[r].t1, row.io.base(), parent, false});
  }
}

void report_job_layers(Report& rep, const std::vector<JobTrace>& jobs,
                       const DeviceCosts& costs) {
  if (jobs.empty()) return;
  const JobTrace& first = jobs.front();
  std::vector<double> wall, device_frac;
  for (const JobTrace& j : jobs) {
    wall.push_back(j.wall_s);
    device_frac.push_back(j.wall_s > 0 ? j.device_s / j.wall_s : 0.0);
  }
  const double wall_med = median(wall);
  const std::size_t n = jobs.size();
  const auto reads = static_cast<double>(first.io.reads);
  const auto writes = static_cast<double>(first.io.writes);
  rep.layer("em.reads", reads, "blocks", n);
  rep.layer("em.writes", writes, "blocks", n);
  rep.layer("em.write_frac", reads + writes > 0 ? writes / (reads + writes) : 0,
            "fraction", n);
  std::size_t peak = 0;
  for (const JobTrace& j : jobs) peak = std::max(peak, j.peak_bytes);
  rep.layer("em.peak_frac",
            static_cast<double>(peak) / static_cast<double>(first.mem_bytes),
            "fraction", n);
  rep.layer("em.device_frac", median(device_frac), "fraction", n);
  const double model_s =
      (reads * costs.read_us_b32 + writes * costs.write_us_b32) * 1e-6;
  rep.layer("model.device_s", model_s, "s", n);
  rep.layer("model.device_frac", wall_med > 0 ? model_s / wall_med : 0,
            "fraction", n);

  std::map<std::string, std::vector<double>> self;
  for (const JobTrace& j : jobs) {
    for (const auto& [label, share] : j.passes) self[label].push_back(share.self_s);
  }
  for (const std::string& label : pass_labels()) {
    const auto it = first.passes.find(label);
    const PassShare share = it == first.passes.end() ? PassShare{} : it->second;
    const auto& s = self[label];
    rep.layer("pass." + label + ".self_s", s.empty() ? 0.0 : median(s), "s",
              s.size());
    rep.layer("pass." + label + ".ios", static_cast<double>(share.ios),
              "blocks", s.size());
    rep.layer("pass." + label + ".count", static_cast<double>(share.count),
              "count", s.size());
  }
  // A label outside the fixed list (a later pass) is still shown.
  for (const auto& [label, share] : first.passes) {
    if (std::find(pass_labels().begin(), pass_labels().end(), label) ==
        pass_labels().end()) {
      rep.detail("pass." + label + ".self_s", median(self[label]), "s", n);
      rep.detail("pass." + label + ".ios", static_cast<double>(share.ios),
                 "blocks", n);
    }
  }
}

// ---- micro-benchmarks ----------------------------------------------------

namespace {

/// Keeps the scan's result observable so the loop is not optimised away.
volatile std::uint64_t g_sink = 0;

/// Median of `trials` timings of `fn`, each repeated until at least
/// `min_s` seconds have passed; `fn` returns the units of work it did and
/// the result is seconds per unit.
double per_unit_seconds(int trials, double min_s,
                        const std::function<std::uint64_t()>& fn) {
  std::vector<double> per;
  for (int t = 0; t < trials; ++t) {
    std::uint64_t units = 0;
    const auto t0 = Clock::now();
    do {
      units += fn();
    } while (seconds_since(t0) < min_s);
    per.push_back(seconds_since(t0) / static_cast<double>(units));
  }
  return median(per);
}

}  // namespace

DeviceCosts probe_device(const Options& opt, const Config& cfg, Report& rep,
                         Tracer& tracer) {
  DeviceCosts costs;
  const double min_s = opt.smoke ? 0.005 : 0.05;
  {
    // A warm 16 MiB file: the page cache serves every transfer, so these are
    // the sandbox's costs per call and per block, not a disk's.
    emsplit::FileBlockDevice dev("probe.dev", cfg.block_bytes);
    const std::uint64_t blocks = opt.smoke ? 256 : 4096;
    const emsplit::BlockRange range = dev.allocate(blocks);
    std::vector<std::byte> buf(64 * cfg.block_bytes, std::byte{0x5a});
    for (std::uint64_t b = 0; b < blocks; b += 64) {
      dev.write_blocks(range.first + b, 64, buf);
    }
    for (const std::uint64_t batch : {1, 8, 32, 64}) {
      const std::string tag = std::to_string(batch).insert(0, 1, 'b');
      std::uint64_t pos = 0;
      const auto span = std::span<std::byte>(buf).first(batch * cfg.block_bytes);
      const auto step = [&](bool write) -> std::uint64_t {
        if (pos + batch > blocks) pos = 0;
        if (write) {
          dev.write_blocks(range.first + pos, batch, span);
        } else {
          dev.read_blocks(range.first + pos, batch, span);
        }
        pos += batch;
        return batch;
      };
      for (const bool write : {false, true}) {
        const std::string metric =
            std::string(write ? "write_us_per_block." : "read_us_per_block.") + tag;
        SpanScope sc(tracer, metric, "em");
        const double us = 1e6 * per_unit_seconds(3, min_s, [&] { return step(write); });
        rep.layer("em." + metric, us, "us", 3);
        if (batch == 32) (write ? costs.write_us_b32 : costs.read_us_b32) = us;
      }
    }
  }
  {
    SpanScope sc(tracer, "scan_mb_per_s", "em");
    emsplit::FileBlockDevice dev("scan.dev", cfg.block_bytes);
    emsplit::Context ctx(dev, cfg.batch_mem);
    ctx.set_io_tuning({.batch_blocks = cfg.batch_blocks});
    std::vector<emsplit::Record> host(cfg.n);
    for (std::size_t i = 0; i < host.size(); ++i) host[i] = {i * 7919, i};
    const auto data = emsplit::materialize<emsplit::Record>(ctx, host);
    std::uint64_t sum = 0;
    const double s_per_pass = per_unit_seconds(3, opt.smoke ? 0.01 : 0.1, [&] {
      emsplit::StreamReader<emsplit::Record> reader(data);
      while (!reader.done()) sum += reader.next().key;
      return std::uint64_t{1};
    });
    g_sink = sum;
    const double mb = static_cast<double>(cfg.n * sizeof(emsplit::Record)) /
                      (1024.0 * 1024.0);
    rep.layer("em.scan_mb_per_s", mb / s_per_pass, "MB/s", 3);
  }
  return costs;
}

void probe_sort(const Options& opt, const Config& cfg, Report& rep,
                Tracer& tracer) {
  SpanScope sc(tracer, "chunk_sort", "sort");
  // An M-sized chunk of the batch jobs (M = 4 MiB = 256 Ki records), sorted
  // exactly as run formation and partition leaves do: shard sorts, then the
  // loser-tree merge (one shard under the library defaults).
  emsplit::MemoryBlockDevice dev(cfg.block_bytes);
  emsplit::Context ctx(dev, cfg.batch_mem);
  const std::size_t m = cfg.batch_mem / sizeof(emsplit::Record);
  std::vector<emsplit::Record> input(m), buf(m), out;
  out.reserve(m);
  emsplit::SplitMix64 rng(opt.seed);
  for (std::size_t i = 0; i < m; ++i) input[i] = {rng.next(), i};
  const double s_per_sort = per_unit_seconds(3, opt.smoke ? 0.01 : 0.1, [&] {
    buf = input;
    out.clear();
    const auto off = emsplit::detail::sort_shards_in_place(
        ctx, std::span<emsplit::Record>(buf), std::less<emsplit::Record>{});
    emsplit::detail::merge_shards(
        std::span<const emsplit::Record>(buf), off, std::less<emsplit::Record>{},
        [&](const emsplit::Record& r) { out.push_back(r); });
    return std::uint64_t{1};
  });
  rep.op(out.size() == m && std::is_sorted(out.begin(), out.end()));
  rep.layer("sort.chunk_sort_mrec_per_s",
            static_cast<double>(m) / s_per_sort / 1e6, "Mrec/s", 3);
}

}  // namespace bench
