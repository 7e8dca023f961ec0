// server.cpp — SplitterServer: admission, epoch publish/recover, sockets.

#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <optional>
#include <sstream>
#include <utility>

#include "em/checkpoint.hpp"
#include "em/file_io.hpp"
#include "em/memory_budget.hpp"

namespace emsplit {

namespace {

using Clock = std::chrono::steady_clock;

/// Journal payload version of a published epoch: 2 = the extent is one
/// sorted run, payload [2, K, bounds...].  Version 1 (unsorted buckets plus
/// their maxima) is never served; recover() rebuilds instead.
constexpr std::uint64_t kEpochPayloadVersion = 2;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  const char* b = s.data();
  const char* e = b + s.size();
  const auto [p, ec] = std::from_chars(b, e, out);
  return ec == std::errc{} && p == e;
}

// Replies go out with MSG_NOSIGNAL: a client that disconnects mid-reply
// makes the send fail with EPIPE, which ends only that connection, instead
// of raising SIGPIPE, which would kill the whole server.
[[nodiscard]] bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t w =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

/// Write a batch of responses with as few syscalls as possible — one
/// sendmsg() per up-to-64 iovecs, resuming across short writes.  The strings
/// must stay alive for the duration of the call.
[[nodiscard]] bool writev_all(int fd, const std::vector<std::string>& parts) {
  std::vector<iovec> iov;
  iov.reserve(parts.size());
  for (const std::string& s : parts) {
    if (s.empty()) continue;
    iov.push_back(iovec{const_cast<char*>(s.data()), s.size()});
  }
  std::size_t i = 0;
  while (i < iov.size()) {
    msghdr msg{};
    msg.msg_iov = &iov[i];
    msg.msg_iovlen = std::min<std::size_t>(iov.size() - i, 64);
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    std::size_t left = static_cast<std::size_t>(w);
    while (i < iov.size() && left >= iov[i].iov_len) {
      left -= iov[i].iov_len;
      ++i;
    }
    if (i < iov.size() && left > 0) {
      iov[i].iov_base = static_cast<char*>(iov[i].iov_base) + left;
      iov[i].iov_len -= left;
    }
  }
  return true;
}

}  // namespace

SplitterServer::SplitterServer(Context& ctx, Config cfg)
    : ctx_(&ctx), cfg_(std::move(cfg)) {
  // Wake queued queries the moment budget bytes free up (condvar, never a
  // poll).  The waiters never touch the budget while holding admit_mu_, so
  // this listener — which may run under arbitrary locks on whatever thread
  // released the bytes — only bumps a generation and taps the mutex.
  ctx_->budget().set_release_listener([this]() noexcept {
    if (admit_waiters_.load(std::memory_order_acquire) == 0) return;
    admit_gen_.fetch_add(1, std::memory_order_release);
    { const std::lock_guard<std::mutex> lk(admit_mu_); }
    admit_cv_.notify_all();
  });
}

SplitterServer::~SplitterServer() {
  ctx_->budget().set_release_listener(nullptr);
  const std::lock_guard<std::mutex> lock(mu_);
  current_.reset();  // deleter only signals; owner_ tears down below
}

bool SplitterServer::persistent() const {
  return ctx_->checkpoint() != nullptr && !cfg_.state_dir.empty();
}

std::uint64_t SplitterServer::epoch_fingerprint(std::uint64_t epoch) const {
  // Epoch-numbered service fingerprint: tag + geometry + epoch.  Distinct
  // from every sort/partition fingerprint by the leading tag word.
  std::uint64_t h = fingerprint_mix(kFingerprintSeed, 0x53504C4954535256ULL);
  h = fingerprint_mix(h, cfg_.buckets);
  h = fingerprint_mix(h, ctx_->block_bytes());
  h = fingerprint_mix(h, epoch);
  return h;
}

std::string SplitterServer::current_path() const {
  return cfg_.state_dir + "/SERVICE_CURRENT";
}

void SplitterServer::write_current(std::uint64_t epoch) const {
  // Write-to-temp + atomic rename: the CURRENT file either names the old
  // epoch or the new one, never a torn value.
  const std::string path = current_path();
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("service: cannot write " + tmp);
  }
  const bool ok = std::fprintf(f, "%llu\n",
                               static_cast<unsigned long long>(epoch)) > 0;
  if (std::fclose(f) != 0 || !ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("service: cannot publish " + path);
  }
}

std::shared_ptr<const SplitterServer::Index> SplitterServer::snapshot(
    std::uint64_t& epoch_out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  epoch_out = epoch_;
  return current_;
}

std::uint64_t SplitterServer::epoch() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

std::uint64_t SplitterServer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return current_ ? current_->size() : 0;
}

SplitterServer::Index SplitterServer::build_epoch() {
  if (cfg_.source_path.empty()) {
    throw std::invalid_argument("service: no source file configured");
  }
  EmVector<Record> data = import_file<Record>(*ctx_, cfg_.source_path);
  if (data.size() == 0) {
    throw std::invalid_argument("service: source file is empty");
  }
  const std::uint64_t kk = std::min<std::uint64_t>(cfg_.buckets, data.size());
  return Index::build(*ctx_, data, kk);
}

void SplitterServer::adopt_epoch(std::unique_ptr<Index> built,
                                 std::shared_ptr<const Index>& out_snapshot,
                                 std::unique_ptr<Index>& out_owner) {
  // The snapshot's deleter only *signals* drain; out_owner keeps ownership
  // so the index (and any extent it owns) is destroyed on the publish
  // thread, preserving the single-allocator-thread rule.
  Index* raw = built.get();
  out_owner = std::move(built);
  out_snapshot = std::shared_ptr<const Index>(raw, [this](const Index*) {
    { const std::lock_guard<std::mutex> lk(retire_mu_); }
    retire_cv_.notify_all();
  });
}

void SplitterServer::publish(Index idx) {
  std::uint64_t next = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    next = epoch_ + 1;
  }
  CheckpointJournal* jr = persistent() ? ctx_->checkpoint() : nullptr;
  if (jr != nullptr) {
    const std::uint64_t fp = epoch_fingerprint(next);
    // A crash between a previous publish and its CURRENT bump leaves an
    // orphan under this fingerprint; reclaim it before re-publishing.
    if (jr->resume_sort(fp)) {
      ctx_->device().deallocate(jr->take_sort_extent(fp));
    }
    const std::uint64_t n = idx.size();
    std::vector<std::uint64_t> payload{kEpochPayloadVersion,
                                       idx.buckets()};
    payload.insert(payload.end(), idx.bounds().begin(), idx.bounds().end());
    BlockRange extent = idx.data().release_extent();
    // The crash-injection point: set_crash_after_publishes() fires inside
    // this append, after the journal entry lands but before CURRENT moves.
    jr->publish_sort_pass(fp, 1, extent, n, payload);
    // The journal owns the extent now; the index keeps its tables and reads
    // the extent through a non-owning view.
    idx.data() = EmVector<Record>::adopt(*ctx_, extent, n, /*owning=*/false);
    write_current(next);
  }
  std::shared_ptr<const Index> fresh;
  std::unique_ptr<Index> fresh_owner;
  adopt_epoch(std::make_unique<Index>(std::move(idx)), fresh, fresh_owner);

  std::shared_ptr<const Index> old;
  std::unique_ptr<Index> old_owner;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    old = std::exchange(current_, std::move(fresh));
    old_owner = std::exchange(owner_, std::move(fresh_owner));
    epoch_ = next;
  }
  if (old) {
    // Queries in flight pinned the old snapshot; wait for the drain —
    // signalled by the snapshot deleter, never sleep-polled — then tear the
    // superseded index down on this thread and retire its blocks.
    std::weak_ptr<const Index> gone = old;
    old.reset();
    if (!gone.expired()) {
      std::unique_lock<std::mutex> lk(retire_mu_);
      if (!gone.expired()) {
        retire_waits_.fetch_add(1, std::memory_order_relaxed);
        retire_cv_.wait(lk, [&] { return gone.expired(); });
      }
    }
    old_owner.reset();
    if (jr != nullptr) {
      const std::uint64_t pfp = epoch_fingerprint(next - 1);
      if (jr->resume_sort(pfp)) {
        ctx_->device().deallocate(jr->take_sort_extent(pfp));
      }
    }
  }
}

bool SplitterServer::recover() {
  CheckpointJournal* jr = persistent() ? ctx_->checkpoint() : nullptr;
  if (jr == nullptr) return false;
  std::FILE* f = std::fopen(current_path().c_str(), "r");
  if (f == nullptr) return false;
  unsigned long long e = 0;
  const bool read_ok = std::fscanf(f, "%llu", &e) == 1;
  std::fclose(f);
  if (!read_ok || e == 0) return false;
  const std::uint64_t fp = epoch_fingerprint(e);
  const auto st = jr->resume_sort(fp);
  if (!st) return false;
  // A crash mid-refresh may have left the *next* epoch published in the
  // journal with CURRENT still naming this one: reclaim the orphan.
  const std::uint64_t nfp = epoch_fingerprint(e + 1);
  if (jr->resume_sort(nfp)) {
    ctx_->device().deallocate(jr->take_sort_extent(nfp));
  }

  const std::vector<std::uint64_t>& p = st->offsets;
  if (p.size() < 2) {
    throw std::runtime_error("service: corrupt epoch payload (header)");
  }
  if (p[0] != kEpochPayloadVersion) {
    // An older payload's buckets are not sorted inside, so this rank path
    // cannot serve it: reclaim its extent and let start() rebuild as the
    // next epoch, so epoch numbers never go backwards.
    ctx_->device().deallocate(jr->take_sort_extent(fp));
    const std::lock_guard<std::mutex> lock(mu_);
    epoch_ = e;
    return false;
  }
  const std::uint64_t kk = p[1];
  if (kk == 0 || p.size() != kk + 3) {
    throw std::runtime_error("service: corrupt epoch payload (shape)");
  }
  std::vector<std::uint64_t> bounds(p.begin() + 2, p.end());
  if (bounds.back() != st->size) {
    throw std::runtime_error("service: corrupt epoch payload (size)");
  }
  EmVector<Record> view = EmVector<Record>::adopt(
      *ctx_, st->extent, static_cast<std::size_t>(st->size), /*owning=*/false);
  std::shared_ptr<const Index> snap;
  std::unique_ptr<Index> own;
  adopt_epoch(std::make_unique<Index>(
                  Index::adopt(*ctx_, std::move(view), std::move(bounds))),
              snap, own);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    current_ = std::move(snap);
    owner_ = std::move(own);
    epoch_ = e;
  }
  recovered_ = true;
  return true;
}

void SplitterServer::start() {
  const std::lock_guard<std::mutex> lock(refresh_mu_);
  if (recover()) return;
  publish(build_epoch());
}

std::uint64_t SplitterServer::refresh() {
  const std::lock_guard<std::mutex> lock(refresh_mu_);
  publish(build_epoch());
  return epoch();
}

SplitterServer::Reply SplitterServer::query(const Request& req,
                                            std::uint64_t client) {
  std::uint64_t epoch = 0;
  const std::shared_ptr<const Index> idx = snapshot(epoch);
  return query_on(idx, epoch, req, client);
}

std::vector<SplitterServer::Reply> SplitterServer::query_batch(
    const std::vector<Request>& reqs, std::uint64_t client) {
  std::vector<Reply> out;
  out.reserve(reqs.size());
  std::uint64_t epoch = 0;
  const std::shared_ptr<const Index> idx = snapshot(epoch);
  for (const Request& req : reqs) {
    out.push_back(query_on(idx, epoch, req, client));
  }
  return out;
}

SplitterServer::Reply SplitterServer::query_on(
    const std::shared_ptr<const Index>& idx, std::uint64_t epoch,
    const Request& req, std::uint64_t client) {
  const auto t0 = Clock::now();
  Reply rep;
  rep.epoch = epoch;
  QueryTrace row;
  row.kind = query_kind_name(req.kind);
  row.client = client;
  row.epoch = rep.epoch;
  row.k = req.k;
  if (!idx) {
    rep.admission = "error";
    rep.error = "service not started";
    rep.seconds = seconds_since(t0);
    row.admission = rep.admission;
    row.detail = rep.error;
    row.seconds = rep.seconds;
    trace_.record(std::move(row));
    return rep;
  }

  // Admission: cost the request, charge the budget; over budget, queue on
  // the condvar — woken by the budget's release listener — until admitted
  // or the deadline sheds the query.  try_reserve is never called while
  // holding admit_mu_ (lock-order discipline vs. budget reclaimers); the
  // generation counter closes the wakeup race instead.
  const std::uint64_t need = idx->footprint_bytes(req.kind, req.k);
  rep.admission = "admit";
  std::optional<MemoryReservation> ticket = ctx_->budget().try_reserve(need);
  if (!ticket && cfg_.queue_wait > 0) {
    rep.admission = "queued";
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(cfg_.queue_wait));
    admit_waiters_.fetch_add(1, std::memory_order_release);
    while (!ticket && !stop_.load() && Clock::now() < deadline) {
      const std::uint64_t gen = admit_gen_.load(std::memory_order_acquire);
      ticket = ctx_->budget().try_reserve(need);
      if (ticket) break;
      std::unique_lock<std::mutex> lk(admit_mu_);
      admit_cv_.wait_until(lk, deadline, [&] {
        return admit_gen_.load(std::memory_order_acquire) != gen ||
               stop_.load();
      });
    }
    admit_waiters_.fetch_sub(1, std::memory_order_release);
    if (!ticket) ticket = ctx_->budget().try_reserve(need);  // deadline race
  }
  rep.queue_seconds = seconds_since(t0);
  if (!ticket) {
    rep.admission = "shed";
    rep.error = "over budget: query needs " + std::to_string(need) + " bytes";
    shed_.fetch_add(1);
  } else {
    // Two-phase admission: drop the ticket so the engine can reserve its
    // actual working set (the estimate is an upper bound on it).  A query
    // racing past admission into a collision sheds at the engine's own
    // reserve instead.
    ticket.reset();
    try {
      switch (req.kind) {
        case QueryKind::kRank: {
          const auto r = idx->rank(req.lo);
          rep.value = r.value;
          rep.io = r.io;
          break;
        }
        case QueryKind::kRange: {
          const auto r = idx->range_count(req.lo, req.hi);
          rep.value = r.value;
          rep.io = r.io;
          break;
        }
        case QueryKind::kHistogram: {
          auto r = idx->histogram(req.k);
          rep.hist = std::move(r.value);
          rep.io = r.io;
          break;
        }
        case QueryKind::kTopK: {
          auto r = idx->top_k(req.k, req.largest);
          rep.records = std::move(r.value);
          rep.io = r.io;
          break;
        }
      }
      rep.ok = true;
      served_.fetch_add(1);
    } catch (const BudgetExceeded& ex) {
      rep.admission = "shed";
      rep.error = ex.what();
      shed_.fetch_add(1);
    } catch (const std::exception& ex) {
      rep.admission = "error";
      rep.error = ex.what();
    }
  }
  rep.seconds = seconds_since(t0);

  row.admission = rep.admission;
  row.ok = rep.ok;
  row.queue_seconds = rep.queue_seconds;
  row.seconds = rep.seconds;
  row.io = rep.io;
  row.value = rep.value;
  row.detail = rep.error;
  trace_.record(std::move(row));
  return rep;
}

SplitterServer::ParseKind SplitterServer::parse_query(const std::string& line,
                                                      Request& req,
                                                      std::string& err) const {
  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  const auto u64_arg = [&](std::uint64_t& out) {
    std::string tok;
    return static_cast<bool>(in >> tok) && parse_u64(tok, out);
  };

  if (cmd == "RANK" || cmd == "RANGE") {
    req.kind = cmd == "RANK" ? QueryKind::kRank : QueryKind::kRange;
    std::uint64_t lo = 0;
    if (!u64_arg(lo)) {
      err = "usage: " + cmd + " <key> [<key>]";
      return ParseKind::kBad;
    }
    // Key-level probes: payload saturated, so rank(key) counts every record
    // with a key <= the probe regardless of payload.
    req.lo = Record{lo, ~0ULL};
    if (req.kind == QueryKind::kRange) {
      std::uint64_t hi = 0;
      if (!u64_arg(hi)) {
        err = "usage: RANGE <lo-key> <hi-key>";
        return ParseKind::kBad;
      }
      req.hi = Record{hi, ~0ULL};
    }
    return ParseKind::kQuery;
  }
  if (cmd == "HIST") {
    req.kind = QueryKind::kHistogram;
    if (!u64_arg(req.k)) {
      err = "usage: HIST <k>";
      return ParseKind::kBad;
    }
    return ParseKind::kQuery;
  }
  if (cmd == "TOPK") {
    req.kind = QueryKind::kTopK;
    if (!u64_arg(req.k)) {
      err = "usage: TOPK <k> [MIN]";
      return ParseKind::kBad;
    }
    std::string dir;
    if (in >> dir) {
      if (dir == "MIN") {
        req.largest = false;
      } else if (dir != "MAX") {
        err = "usage: TOPK <k> [MIN]";
        return ParseKind::kBad;
      }
    }
    return ParseKind::kQuery;
  }
  return ParseKind::kOther;
}

std::string SplitterServer::format_reply(const Request& req,
                                         const Reply& rep) const {
  if (!rep.ok) {
    return (rep.admission == "shed" ? "SHED " : "ERR ") + rep.error + "\n";
  }
  switch (req.kind) {
    case QueryKind::kRank:
    case QueryKind::kRange:
      return "OK " + std::to_string(rep.value) + "\n";
    case QueryKind::kHistogram: {
      std::string out = "OK " + std::to_string(rep.hist.buckets()) + " " +
                        std::to_string(rep.hist.total) + "\n";
      for (std::size_t i = 0; i < rep.hist.buckets(); ++i) {
        out += "BUCKET " + std::to_string(rep.hist.sizes[i]);
        if (i < rep.hist.boundaries.size()) {
          out += " " + std::to_string(rep.hist.boundaries[i].key);
        }
        out += "\n";
      }
      return out + "END\n";
    }
    case QueryKind::kTopK: {
      std::string out = "OK " + std::to_string(rep.records.size()) + "\n";
      for (const Record& r : rep.records) {
        out += "REC " + std::to_string(r.key) + " " +
               std::to_string(r.payload) + "\n";
      }
      return out + "END\n";
    }
  }
  return "ERR internal\n";
}

std::string SplitterServer::bad_line(const std::string& line,
                                     std::uint64_t client,
                                     const std::string& why) {
  QueryTrace row;
  row.kind = "?";
  row.client = client;
  row.epoch = epoch();
  row.admission = "error";
  row.detail = why + ": " + line;
  trace_.record(std::move(row));
  return "ERR " + why + "\n";
}

std::string SplitterServer::handle_line(const std::string& line,
                                        std::uint64_t client,
                                        bool& close_conn) {
  Request req;
  std::string err;
  switch (parse_query(line, req, err)) {
    case ParseKind::kQuery:
      return format_reply(req, query(req, client));
    case ParseKind::kBad:
      return bad_line(line, client, err);
    case ParseKind::kOther:
      break;
  }

  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  if (cmd == "STATS") {
    return "OK epoch=" + std::to_string(epoch()) +
           " n=" + std::to_string(size()) +
           " served=" + std::to_string(served_.load()) +
           " shed=" + std::to_string(shed_.load()) + "\n";
  }
  if (cmd == "EPOCH") {
    return "OK " + std::to_string(epoch()) + "\n";
  }
  if (cmd == "REFRESH") {
    try {
      return "OK " + std::to_string(refresh()) + "\n";
    } catch (const std::exception& ex) {
      return std::string("ERR ") + ex.what() + "\n";
    }
  }
  if (cmd == "SHUTDOWN") {
    close_conn = true;
    stop();
    return "OK bye\n";
  }
  return bad_line(line, client, "unknown command");
}

std::vector<std::string> SplitterServer::handle_batch(
    const std::vector<std::string>& lines, std::uint64_t client,
    bool& close_conn) {
  std::vector<std::string> outs;
  outs.reserve(lines.size());
  std::shared_ptr<const Index> pinned;
  std::uint64_t pinned_epoch = 0;
  for (const std::string& line : lines) {
    if (close_conn) break;  // nothing after SHUTDOWN
    Request req;
    std::string err;
    switch (parse_query(line, req, err)) {
      case ParseKind::kQuery:
        // Consecutive query lines share one pinned snapshot: every reply in
        // the run carries the same epoch.
        if (!pinned) pinned = snapshot(pinned_epoch);
        outs.push_back(
            format_reply(req, query_on(pinned, pinned_epoch, req, client)));
        break;
      case ParseKind::kBad:
        outs.push_back(bad_line(line, client, err));
        break;
      case ParseKind::kOther:
        // Control lines run unpinned: REFRESH waits for every snapshot pin
        // to drain, and a connection must never deadlock against its own.
        pinned.reset();
        outs.push_back(handle_line(line, client, close_conn));
        break;
    }
  }
  return outs;
}

void SplitterServer::serve_conn(int fd, std::uint64_t client) {
  std::string buf;
  char tmp[8192];
  bool close_conn = false;
  while (!close_conn && !stop_.load()) {
    // Pipelining: drain every complete line currently buffered — one read
    // may carry many requests — and answer the batch with one writev.
    std::vector<std::string> lines;
    std::size_t pos = 0;
    for (std::size_t nl; (nl = buf.find('\n', pos)) != std::string::npos;
         pos = nl + 1) {
      std::string line = buf.substr(pos, nl - pos);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) lines.push_back(std::move(line));
    }
    buf.erase(0, pos);
    if (lines.empty()) {
      if (buf.size() > kMaxLineBytes) {
        (void)write_all(fd, "ERR line too long\n");
        break;
      }
      pollfd p{};
      p.fd = fd;
      p.events = POLLIN;
      const int pr = ::poll(&p, 1, 100);
      if (pr < 0 && errno != EINTR) break;
      if (pr <= 0) continue;
      const ssize_t r = ::read(fd, tmp, sizeof(tmp));
      if (r <= 0) break;
      buf.append(tmp, static_cast<std::size_t>(r));
      continue;
    }
    const std::vector<std::string> outs = handle_batch(lines, client, close_conn);
    if (!writev_all(fd, outs)) break;
  }
  ::close(fd);
}

void SplitterServer::accept_loop(int lfd, bool tcp) {
  std::vector<std::thread> conns;
  while (!stop_.load()) {
    pollfd p{};
    p.fd = lfd;
    p.events = POLLIN;
    const int pr = ::poll(&p, 1, 100);
    if (pr < 0 && errno != EINTR) break;
    if (pr <= 0) continue;
    const int cfd = ::accept(lfd, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    if (tcp) {
      // Pipelined request/response lines are latency-bound: never Nagle.
      const int one = 1;
      (void)::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    const std::uint64_t id = next_client_.fetch_add(1) + 1;
    conns.emplace_back(&SplitterServer::serve_conn, this, cfd, id);
  }
  for (std::thread& t : conns) t.join();
}

void SplitterServer::serve_unix(const std::string& socket_path,
                                const std::function<void()>& on_listening) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::invalid_argument("service: socket path too long");
  }
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                socket_path.c_str());

  const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (lfd < 0) throw std::runtime_error("service: socket() failed");
  ::unlink(socket_path.c_str());
  if (::bind(lfd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(lfd, 64) < 0) {
    ::close(lfd);
    throw std::runtime_error("service: cannot listen on " + socket_path);
  }
  if (on_listening) on_listening();

  accept_loop(lfd, /*tcp=*/false);
  ::close(lfd);
  ::unlink(socket_path.c_str());
}

void SplitterServer::serve_tcp(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (host.empty() || host == "*" || host == "0.0.0.0") {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else {
    const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
    if (::inet_pton(AF_INET, resolved.c_str(), &addr.sin_addr) != 1) {
      throw std::invalid_argument("service: bad listen host " + host);
    }
  }

  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) throw std::runtime_error("service: socket() failed");
  const int one = 1;
  (void)::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(lfd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(lfd, 64) < 0) {
    ::close(lfd);
    throw std::runtime_error("service: cannot listen on " + host + ":" +
                             std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (::getsockname(lfd, reinterpret_cast<sockaddr*>(&bound), &blen) == 0) {
    tcp_port_.store(ntohs(bound.sin_port), std::memory_order_release);
  }

  accept_loop(lfd, /*tcp=*/true);
  ::close(lfd);
}

}  // namespace emsplit
