// harness.cpp — statistics, the result report and the Chrome trace writer.
#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace bench {

Config config(const Options& opt) {
  Config c;
  c.n = opt.smoke ? std::size_t{1} << 16 : std::size_t{1} << 22;
  return c;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void Report::emit(const std::string& metric, double value, const char* unit,
                  const char* kind, std::size_t n) {
  // Non-finite values are not JSON; an unbounded latency (a failed request
  // at the percentile) is reported as a large finite sentinel.
  if (!std::isfinite(value)) value = 1e300;
  if (std::string(kind) == "layer") layers_.insert(metric);
  std::printf(
      "{\"workload\":\"%s\",\"metric\":\"%s\",\"value\":%.17g,"
      "\"unit\":\"%s\",\"kind\":\"%s\",\"n\":%zu}\n",
      workload_.c_str(), metric.c_str(), value, unit, kind, n);
  std::fflush(stdout);
  std::fprintf(stderr, "  %-13s %-34s %16.6g %-9s %-6s n=%zu\n",
               workload_.c_str(), metric.c_str(), value, unit, kind, n);
}

void Report::fail(const std::string& why) {
  correct_ = false;
  std::fprintf(stderr, "FAIL [%s] %s\n", workload_.c_str(), why.c_str());
}

bool Report::finish() {
  const double frac = attempted_ == 0 ? 0.0
                                      : static_cast<double>(failed_) /
                                            static_cast<double>(attempted_);
  emit("attempted", static_cast<double>(attempted_), "count", "check", 1);
  emit("failed", static_cast<double>(failed_), "count", "check", 1);
  emit("failed_frac", frac, "fraction", "check", 1);
  emit("correct", correct() ? 1.0 : 0.0, "bool", "check", 1);
  return correct();
}

std::int64_t Tracer::add(Span s) {
  if (!on_) return -1;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size() - 1);
}

namespace {

void json_escape(std::FILE* f, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    std::fputc(c, f);
  }
}

}  // namespace

bool Tracer::write(const std::string& path, const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const Span& s : spans_) origin = std::min(origin, s.t0);
  if (spans_.empty()) origin = 0;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\"");
  json_escape(f, workload);
  std::fprintf(f, "\",\"dropped_spans\":%llu},\"traceEvents\":[\n",
               static_cast<unsigned long long>(dropped_));
  std::fprintf(f,
               "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
               "\"args\":{\"name\":\"emsplit_bench %s\"}}",
               workload.c_str());
  const auto us = [&](std::int64_t t) {
    return static_cast<double>(t - origin) / 1000.0;
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto args = [&] {
      std::fprintf(f,
                   ",\"args\":{\"reads\":%llu,\"writes\":%llu,"
                   "\"parent\":%lld,\"id\":%zu}",
                   static_cast<unsigned long long>(s.io.reads),
                   static_cast<unsigned long long>(s.io.writes),
                   static_cast<long long>(s.parent), i);
    };
    if (s.async) {
      // Requests overlap on one connection: async begin/end pairs get a
      // track per id instead of breaking the thread's slice nesting.
      for (int end = 0; end < 2; ++end) {
        std::fprintf(f, ",\n{\"ph\":\"%s\",\"cat\":\"", end ? "e" : "b");
        json_escape(f, s.cat);
        std::fprintf(f, "\",\"name\":\"");
        json_escape(f, s.name);
        std::fprintf(f, "\",\"id\":%zu,\"pid\":1,\"tid\":%d,\"ts\":%.3f", i,
                     s.tid, us(end ? s.t1 : s.t0));
        if (!end) args();
        std::fprintf(f, "}");
      }
      continue;
    }
    std::fprintf(f, ",\n{\"ph\":\"X\",\"cat\":\"");
    json_escape(f, s.cat);
    std::fprintf(f, "\",\"name\":\"");
    json_escape(f, s.name);
    std::fprintf(f, "\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f", s.tid,
                 us(s.t0), static_cast<double>(s.t1 - s.t0) / 1000.0);
    args();
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace bench
