// splitter_index.cpp — QueryTrace: the service request log.
//
// The index itself is a header template; what lives here is the non-template
// request log — QueryTraceLog (thread-safe: queries complete on N serving
// threads; a fixed ring of the latest rows) and the JSON-lines emitters,
// mirroring pass_engine.cpp's row format so one trace file carries both pass
// rows and query rows.

#include "service/splitter_index.hpp"

#include <cstdio>

namespace emsplit {

void QueryTraceLog::record(QueryTrace trace) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (rows_.size() < kCapacity) {
    rows_.push_back(std::move(trace));
    return;
  }
  rows_[oldest_] = std::move(trace);
  oldest_ = (oldest_ + 1) % kCapacity;
  ++dropped_;
}

std::vector<QueryTrace> QueryTraceLog::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryTrace> out;
  out.reserve(rows_.size());
  const auto split = rows_.begin() + static_cast<std::ptrdiff_t>(oldest_);
  out.insert(out.end(), split, rows_.end());
  out.insert(out.end(), rows_.begin(), split);
  return out;
}

std::uint64_t QueryTraceLog::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void QueryTraceLog::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  rows_.clear();
  oldest_ = 0;
  dropped_ = 0;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

}  // namespace

std::string query_trace_json(const QueryTrace& t) {
  std::string s = "{\"query\":\"";
  append_escaped(s, t.kind);
  s += "\",\"client\":" + std::to_string(t.client);
  s += ",\"epoch\":" + std::to_string(t.epoch);
  s += ",\"admission\":\"";
  append_escaped(s, t.admission);
  s += "\",\"ok\":";
  s += t.ok ? "true" : "false";
  s += ",\"queue_seconds\":";
  append_double(s, t.queue_seconds);
  s += ",\"seconds\":";
  append_double(s, t.seconds);
  s += ",\"reads\":" + std::to_string(t.io.reads);
  s += ",\"bucket_hits\":" + std::to_string(t.io.bucket_hits);
  s += ",\"k\":" + std::to_string(t.k);
  s += ",\"value\":" + std::to_string(t.value);
  s += ",\"detail\":\"";
  append_escaped(s, t.detail);
  s += "\"}";
  return s;
}

bool append_query_trace_jsonl(const QueryTraceLog& log,
                              const std::string& path) {
  const std::vector<QueryTrace> rows = log.snapshot();
  if (rows.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  bool ok = true;
  for (const QueryTrace& t : rows) {
    const std::string line = query_trace_json(t) + "\n";
    if (std::fwrite(line.data(), 1, line.size(), f) != line.size()) {
      ok = false;
      break;
    }
  }
  if (std::fclose(f) != 0) ok = false;
  return ok;
}

}  // namespace emsplit
