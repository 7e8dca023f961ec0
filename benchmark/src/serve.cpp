// serve.cpp — the real `emsplit serve` process under a seeded open-loop load.
//
//   serve_hot     — 90% of probe keys fall in a hot key interval of about 8
//                   index buckets (~512 blocks), which fits the server's
//                   1024-block bucket cache.
//   serve_uniform — probe keys uniform over the data: a working set 16x the
//                   cache, so bucket scans reach the device path.
//
// Both send 60% RANK, 20% RANGE, 10% HIST 64, 10% TOPK 32 over 2 Unix-socket
// connections, each a Poisson stream at half the rate, from one generator
// thread that writes and reads every connection concurrently (a
// write-everything-then-read client deadlocks against the server's pipelined
// connection once requests and replies overflow the socket buffers).
// Latency runs from each request's scheduled send time, so a stall is
// charged to every request it delays; a failed, shed or wrong reply counts
// as +inf.  Every reply is checked against a host oracle built from the
// sorted records.  With 4 or more CPUs the generator and the server run on
// disjoint CPUs.
//
// A run: spawn the server (set-up, three times; median), warm up at the mid
// rate, hold the low, mid and high rates open-loop, then saturate the server
// closed-loop (8 requests in flight per connection) to measure its
// throughput, the end-to-end number.  The fixed-rate latencies repeat too
// poorly between runs on this class of VM to gate a change (README.md, "Why
// saturation"): the untraced run reports them as details, the traced run as
// the `load` layer.  A step's p50 and p90 are medians over half-second
// windows; whether it met the limit (p90 <= 1 ms, no failed request,
// outstanding at the step's end <= 1% of its sends) is reported, never
// acted on.  A fixed-rate step whose generator ran late is measured again,
// at most twice: its numbers would describe the generator, not the server.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/api.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "service/server.hpp"
#include "service/splitter_index.hpp"

namespace bench {
namespace {

using namespace emsplit;

struct Rates {
  double low, mid, high;
};

/// The fixed rates (qps): 20 / 50 / 80 % of the highest rate each mix met
/// the limit at, at seed 1, rounded to 500 (README.md, "Fixed rates").  Part
/// of the benchmark: never re-tuned per run.
Rates fixed_rates(const std::string& workload, bool smoke) {
  if (smoke) return {300, 600, 1000};
  if (workload == "serve_hot") return {7000, 17500, 28000};
  return {3500, 9000, 14500};
}

constexpr double kLimitP90Ms = 1.0;      // latency limit of every step
constexpr double kMaxLagP99Ms = 0.1;     // the generator's validity bound
// Step lengths as shares of --seconds.  The end-to-end throughput comes from
// the saturation step, so it gets the most time.
constexpr double kWarmShare = 0.05;
constexpr double kLowShare = 0.15;
constexpr double kStepShare = 0.1;       // the mid and high steps
constexpr double kSaturationShare = 0.6;
constexpr int kLateRetries = 2;
constexpr std::int64_t kWindowNs = 500'000'000;
constexpr std::size_t kSaturationWindow = 8;   // in flight per connection
constexpr int kConns = 2;
constexpr std::uint64_t kHistK = 64;
constexpr std::uint64_t kTopK = 32;
constexpr std::int64_t kDrainNs = 5'000'000'000;
constexpr std::size_t kTraceEvery = 16;  // request spans kept: 1 in 16

const double kInf = std::numeric_limits<double>::infinity();

enum class Kind : std::uint8_t { kRank, kRange, kHist, kTopK };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kRank: return "RANK";
    case Kind::kRange: return "RANGE";
    case Kind::kHist: return "HIST";
    case Kind::kTopK: return "TOPK";
  }
  return "?";
}

struct Req {
  std::int64_t due = 0;  ///< scheduled send time (relative, then now_ns())
  std::uint8_t conn = 0; ///< the connection it is sent on
  Kind kind = Kind::kRank;
  bool min = false;      ///< TOPK direction
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint64_t expect = 0;  ///< RANK / RANGE answer
};

/// Answers from the sorted records: key-level ranks and the extreme records.
class Oracle {
 public:
  explicit Oracle(std::vector<Record> recs) : n_(recs.size()) {
    std::sort(recs.begin(), recs.end());
    keys_.reserve(recs.size());
    for (const Record& r : recs) keys_.push_back(r.key);
    const auto k = static_cast<std::ptrdiff_t>(std::min<std::size_t>(kTopK, n_));
    bottom_.assign(recs.begin(), recs.begin() + k);
    top_.assign(recs.end() - k, recs.end());
  }

  /// #{records with key <= key} — the server's RANK semantics.
  [[nodiscard]] std::uint64_t rank(std::uint64_t key) const {
    return static_cast<std::uint64_t>(
        std::upper_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
  }
  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t max_key() const { return keys_.back(); }
  [[nodiscard]] const std::vector<Record>& extreme(bool min) const {
    return min ? bottom_ : top_;
  }

 private:
  std::uint64_t n_;
  std::vector<std::uint64_t> keys_;
  std::vector<Record> bottom_, top_;
};

/// The request mix and its probe-key distribution.
class Mix {
 public:
  Mix(const Oracle& o, std::uint64_t buckets, bool hot, bool corrupt,
      std::uint64_t seed)
      : o_(o), hot_(hot), corrupt_(corrupt) {
    span_ = o.max_key() + 1;
    // ~8 index buckets of key space: the bucket cache holds 16 of them.
    hot_width_ = std::max<std::uint64_t>(1, span_ * 8 / buckets);
    range_width_ = std::max<std::uint64_t>(1, span_ / buckets);
    SplitMix64 rng(seed ^ 0x0bad5eedULL);
    hot_lo_ = rng.next_below(span_ - std::min(span_ - 1, hot_width_));
  }

  [[nodiscard]] Req draw(SplitMix64& rng) const {
    Req r;
    const std::uint64_t u = rng.next_below(100);
    r.kind = u < 60 ? Kind::kRank
           : u < 80 ? Kind::kRange
           : u < 90 ? Kind::kHist
                    : Kind::kTopK;
    switch (r.kind) {
      case Kind::kRank:
        r.lo = key(rng);
        r.expect = o_.rank(r.lo) + (corrupt_ ? 1 : 0);
        break;
      case Kind::kRange:
        r.lo = key(rng);
        r.hi = r.lo + rng.next_below(range_width_);
        r.expect = o_.rank(r.hi) - o_.rank(r.lo);
        break;
      case Kind::kHist:
        break;
      case Kind::kTopK:
        r.min = (rng.next() & 1) != 0;
        break;
    }
    return r;
  }

 private:
  [[nodiscard]] std::uint64_t key(SplitMix64& rng) const {
    if (hot_ && rng.next_below(10) < 9) return hot_lo_ + rng.next_below(hot_width_);
    return rng.next_below(span_);
  }

  const Oracle& o_;
  bool hot_;
  bool corrupt_;
  std::uint64_t span_ = 1;
  std::uint64_t hot_lo_ = 0;
  std::uint64_t hot_width_ = 1;
  std::uint64_t range_width_ = 1;
};

double uniform01(SplitMix64& rng) {
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

/// Poisson arrivals at `rate` qps over `seconds`; `due` relative to 0.
std::vector<Req> make_plan(double rate, double seconds, SplitMix64& rng,
                           const Mix& mix) {
  std::vector<Req> plan;
  plan.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - uniform01(rng)) / rate;
    if (t >= seconds) break;
    Req r = mix.draw(rng);
    r.due = static_cast<std::int64_t>(t * 1e9);
    plan.push_back(r);
  }
  return plan;
}

int format_request(const Req& r, char* buf, std::size_t cap) {
  switch (r.kind) {
    case Kind::kRank:
      return std::snprintf(buf, cap, "RANK %llu\n",
                           static_cast<unsigned long long>(r.lo));
    case Kind::kRange:
      return std::snprintf(buf, cap, "RANGE %llu %llu\n",
                           static_cast<unsigned long long>(r.lo),
                           static_cast<unsigned long long>(r.hi));
    case Kind::kHist:
      return std::snprintf(buf, cap, "HIST %llu\n",
                           static_cast<unsigned long long>(kHistK));
    case Kind::kTopK:
      return std::snprintf(buf, cap, "TOPK %llu%s\n",
                           static_cast<unsigned long long>(kTopK),
                           r.min ? " MIN" : "");
  }
  return 0;
}

enum class Outcome { kIncomplete, kOk, kWrong, kShed, kError };

/// Consume one complete reply to `q` from rx[off..] and check it: RANK /
/// RANGE exact counts, HIST k buckets summing to N, TOPK exactly the k
/// extreme records.  kIncomplete leaves `off` untouched.
Outcome take_reply(const std::string& rx, std::size_t& off, const Req& q,
                   const Oracle& o) {
  const std::size_t nl = rx.find('\n', off);
  if (nl == std::string::npos) return Outcome::kIncomplete;
  const char* line = rx.data() + off;
  if (std::strncmp(line, "OK", 2) != 0) {
    off = nl + 1;
    return std::strncmp(line, "SHED", 4) == 0 ? Outcome::kShed : Outcome::kError;
  }
  if (q.kind == Kind::kRank || q.kind == Kind::kRange) {
    const std::uint64_t v = std::strtoull(line + 2, nullptr, 10);
    off = nl + 1;
    return v == q.expect ? Outcome::kOk : Outcome::kWrong;
  }
  const std::size_t end = rx.find("\nEND\n", nl);
  if (end == std::string::npos) return Outcome::kIncomplete;
  char* p = nullptr;
  const std::uint64_t k = std::strtoull(line + 2, &p, 10);
  bool good = true;
  std::uint64_t lines = 0;
  std::uint64_t sum = 0;
  const std::vector<Record>& want = o.extreme(q.min);
  for (std::size_t pos = nl + 1; pos <= end; ++lines) {
    const std::size_t e = rx.find('\n', pos);
    const char* l = rx.data() + pos;
    if (q.kind == Kind::kHist) {
      good = good && std::strncmp(l, "BUCKET ", 7) == 0;
      sum += std::strtoull(l + 7, nullptr, 10);
    } else {
      char* q2 = nullptr;
      const std::uint64_t key = std::strtoull(l + 4, &q2, 10);
      const std::uint64_t payload = std::strtoull(q2, nullptr, 10);
      good = good && std::strncmp(l, "REC ", 4) == 0 && lines < want.size() &&
             want[lines] == Record{key, payload};
    }
    pos = e + 1;
  }
  if (q.kind == Kind::kHist) {
    const std::uint64_t total = std::strtoull(p, nullptr, 10);
    good = good && k == kHistK && lines == kHistK && sum == o.n() &&
           total == o.n();
  } else {
    good = good && k == want.size() && lines == want.size();
  }
  off = end + 5;
  return good ? Outcome::kOk : Outcome::kWrong;
}

/// What the generator saw during one step, over all connections.
struct StepOut {
  std::uint64_t sent = 0, ok = 0, wrong = 0, shed = 0, errors = 0, lost = 0;
  std::uint64_t outstanding_end = 0;
  std::vector<double> lat_ms;  ///< per request; +inf unless answered right
  std::vector<double> lag_ms;  ///< actual minus scheduled send
  double cpu_s = 0;
  std::vector<Tracer::Span> spans;
};

/// One connection's buffers and requests in flight.
struct Conn {
  int fd = -1;
  std::string tx, rx;
  std::size_t tx_off = 0, rx_off = 0;
  std::deque<std::size_t> pending;  ///< plan indices, in send order
};

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Drive all connections through one step from one thread: send each
/// request at its due time on its connection, read and check replies as they
/// arrive, then drain.  The loop spins and never sleeps: on this class of VM
/// a timed sleep oversleeps by up to milliseconds at the tail, which would
/// delay sends (lag) and reply timestamps alike.
///
/// With `window` > 0 the step is closed-loop instead: `plan` starts empty
/// and, until t_end, each connection keeps `window` requests in flight,
/// drawn from `mix` with `rng` as they are sent and appended to `plan`; a
/// request's due time is its send time.
void drive(const std::vector<int>& fds, std::vector<Req>& plan,
           std::int64_t t_end, std::size_t window, const Mix& mix,
           SplitMix64& rng, const Oracle& o, bool trace, StepOut& out) {
  const double cpu0 = thread_cpu_seconds();
  std::vector<Conn> conns(fds.size());
  for (std::size_t c = 0; c < fds.size(); ++c) conns[c].fd = fds[c];
  out.lat_ms.assign(plan.size(), kInf);
  out.lag_ms.assign(plan.size(), 0.0);
  std::size_t next = 0;
  bool end_seen = false;
  bool broken = false;
  const std::int64_t deadline = t_end + kDrainNs;
  std::vector<char> buf(1 << 16);
  char line[96];
  const auto in_flight = [&] {
    std::size_t n = 0;
    for (const Conn& c : conns) n += c.pending.size();
    return n;
  };
  const auto send = [&](std::size_t i, std::int64_t now) {
    Conn& c = conns[plan[i].conn];
    const int len = format_request(plan[i], line, sizeof(line));
    c.tx.append(line, static_cast<std::size_t>(len));
    out.lag_ms[i] = static_cast<double>(now - plan[i].due) * 1e-6;
    c.pending.push_back(i);
    ++out.sent;
  };
  while (!broken) {
    std::int64_t now = now_ns();
    if (window == 0) {
      while (next < plan.size() && plan[next].due <= now) send(next++, now);
    } else if (now < t_end) {
      for (std::size_t c = 0; c < conns.size(); ++c) {
        while (conns[c].pending.size() < window) {
          Req r = mix.draw(rng);
          r.due = now;
          r.conn = static_cast<std::uint8_t>(c);
          plan.push_back(r);
          out.lat_ms.push_back(kInf);
          out.lag_ms.push_back(0.0);
          send(plan.size() - 1, now);
        }
      }
    }
    bool idle = window == 0 ? next == plan.size() : now >= t_end;
    for (Conn& c : conns) {
      if (c.tx_off < c.tx.size()) {
        const ssize_t w = ::send(c.fd, c.tx.data() + c.tx_off,
                                 c.tx.size() - c.tx_off, MSG_DONTWAIT | MSG_NOSIGNAL);
        if (w > 0) {
          c.tx_off += static_cast<std::size_t>(w);
          if (c.tx_off == c.tx.size()) {
            c.tx.clear();
            c.tx_off = 0;
          }
        } else if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          broken = true;
        }
      }
      const ssize_t r = ::recv(c.fd, buf.data(), buf.size(), MSG_DONTWAIT);
      if (r > 0) {
        const std::int64_t t_rx = now_ns();
        c.rx.append(buf.data(), static_cast<std::size_t>(r));
        while (!c.pending.empty()) {
          const std::size_t i = c.pending.front();
          const Outcome oc = take_reply(c.rx, c.rx_off, plan[i], o);
          if (oc == Outcome::kIncomplete) break;
          c.pending.pop_front();
          switch (oc) {
            case Outcome::kOk:
              ++out.ok;
              out.lat_ms[i] = static_cast<double>(t_rx - plan[i].due) * 1e-6;
              break;
            case Outcome::kWrong: ++out.wrong; break;
            case Outcome::kShed: ++out.shed; break;
            default: ++out.errors; break;
          }
          if (trace && i % kTraceEvery == 0) {
            out.spans.push_back({kind_name(plan[i].kind), "request",
                                 2 + plan[i].conn, plan[i].due, t_rx, {}, -1, true});
          }
        }
        if (c.rx_off > (std::size_t{1} << 16)) {
          c.rx.erase(0, c.rx_off);
          c.rx_off = 0;
        }
      } else if (r == 0 ||
                 (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
        broken = true;
      }
      idle = idle && c.pending.empty() && c.tx.empty();
    }
    now = now_ns();
    if (!end_seen && now >= t_end) {
      out.outstanding_end = in_flight();
      end_seen = true;
    }
    if (idle || now > deadline) break;
  }
  // Open loop: every planned request was attempted, sent or not.
  if (window == 0) out.sent = plan.size();
  out.lost = in_flight() + (window == 0 ? plan.size() - next : 0);
  if (!end_seen) out.outstanding_end = out.lost;
  if (broken) std::fprintf(stderr, "warning: a connection closed mid-step\n");
  out.cpu_s = thread_cpu_seconds() - cpu0;
}

/// One fixed-rate step's outcome, both connections merged.  p50 and p90 are
/// medians over the step's kWindowNs windows: a VM stall that ruins one
/// window does not decide the step.  p99 is over the whole step.
struct Step {
  std::string name;
  double rate = 0;
  double seconds = 0;
  std::uint64_t sent = 0, ok = 0, wrong = 0, shed = 0, errors = 0, lost = 0;
  std::uint64_t outstanding_end = 0;
  double p50_ms = 0, p90_ms = 0, p99_ms = 0, lag_p99_ms = 0, lag_max_ms = 0;
  double cpu_s = 0;
  std::int64_t t0 = 0, t1 = 0;

  [[nodiscard]] std::uint64_t failed() const {
    return wrong + shed + errors + lost;
  }
  [[nodiscard]] bool pass() const {
    return p90_ms <= kLimitP90Ms && failed() == 0 &&
           static_cast<double>(outstanding_end) <=
               0.01 * static_cast<double>(sent);
  }
};

/// Where the load runs: with at least 4 usable CPUs the generator thread
/// owns the first, the server the last two, and one is left for everything
/// else, so the spinning generator never takes a CPU from the server it
/// measures.
struct CpuPlan {
  int gen = -1;  ///< -1: nothing is pinned
  cpu_set_t server{};
};

CpuPlan cpu_plan() {
  CpuPlan plan;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return plan;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() < 4) return plan;
  plan.gen = cpus.front();
  CPU_ZERO(&plan.server);
  CPU_SET(cpus[cpus.size() - 1], &plan.server);
  CPU_SET(cpus[cpus.size() - 2], &plan.server);
  return plan;
}

void pin_thread(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  (void)::sched_setaffinity(0, sizeof(one), &one);
}

/// The load generator: kConns connections driven by one thread.
class LoadGen {
 public:
  LoadGen(std::vector<int> fds, const Mix& mix, const Oracle& o,
          std::uint64_t seed, int cpu, Tracer& tracer)
      : fds_(std::move(fds)), mix_(mix), o_(o), seed_(seed), cpu_(cpu),
        tracer_(tracer) {}

  /// Open loop at `rate`: each connection gets its own Poisson stream at
  /// rate / kConns, and the thread sends their merge.
  Step run(const std::string& name, double rate, double seconds,
           bool trace_requests) {
    std::vector<Req> plan;
    for (int c = 0; c < kConns; ++c) {
      SplitMix64 rng = step_rng(c);
      std::vector<Req> part = make_plan(rate / kConns, seconds, rng, mix_);
      for (Req& r : part) r.conn = static_cast<std::uint8_t>(c);
      std::vector<Req> merged;
      merged.reserve(plan.size() + part.size());
      std::merge(plan.begin(), plan.end(), part.begin(), part.end(),
                 std::back_inserter(merged),
                 [](const Req& a, const Req& b) { return a.due < b.due; });
      plan = std::move(merged);
    }
    return execute(name, rate, seconds, std::move(plan), 0, trace_requests);
  }

  /// Closed loop: `window` requests in flight per connection for `seconds`.
  /// The step's rate is the median over kWindowNs windows of its last two
  /// thirds (the first third fills the pipes) of the replies per second.
  Step saturate(const std::string& name, double seconds, std::size_t window) {
    return execute(name, 0, seconds, {}, window, false);
  }

 private:
  SplitMix64 step_rng(int conn) const {
    // Hashed, not added: SplitMix64 states a multiple of its increment apart
    // replay the same stream shifted.
    return SplitMix64(SplitMix64(seed_ ^ (step_ << 20) ^
                                 (static_cast<std::uint64_t>(conn) << 40))
                          .next());
  }

  Step execute(const std::string& name, double rate, double seconds,
               std::vector<Req> plan, std::size_t window, bool trace_requests) {
    ++step_;
    Step s;
    s.name = name;
    s.seconds = seconds;
    StepOut out;
    s.t0 = now_ns() + 2'000'000;
    if (window == 0) {
      for (Req& r : plan) r.due += s.t0;
    }
    const std::int64_t t_end = s.t0 + static_cast<std::int64_t>(seconds * 1e9);
    SplitMix64 rng = step_rng(0);  // the closed loop's draws
    std::thread thread([&] {
      if (cpu_ >= 0) pin_thread(cpu_);
      drive(fds_, plan, t_end, window, mix_, rng, o_, trace_requests, out);
    });
    thread.join();
    s.t1 = now_ns();
    s.rate = rate;
    if (window > 0) {
      // Replies completed per window over the measured part of the step.
      const std::int64_t from = s.t0 + (t_end - s.t0) / 3;
      const std::int64_t count = std::max<std::int64_t>(1, (t_end - from) / kWindowNs);
      const std::int64_t len = (t_end - from) / count;
      std::vector<double> done(static_cast<std::size_t>(count), 0.0);
      for (std::size_t i = 0; i < plan.size(); ++i) {
        const double lat = out.lat_ms[i];
        if (lat == kInf) continue;
        const auto at = plan[i].due + static_cast<std::int64_t>(lat * 1e6);
        if (at >= from && at < from + count * len) {
          done[static_cast<std::size_t>((at - from) / len)] += 1;
        }
      }
      for (double& d : done) d /= static_cast<double>(len) * 1e-9;
      s.rate = median(done);
    }
    std::vector<std::vector<double>> windows(
        static_cast<std::size_t>(seconds * 1e9 / kWindowNs) + 1);
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const auto w = static_cast<std::size_t>((plan[i].due - s.t0) / kWindowNs);
      windows[std::min(w, windows.size() - 1)].push_back(out.lat_ms[i]);
    }
    std::vector<double> w50, w90;
    for (const std::vector<double>& w : windows) {
      if (w.empty()) continue;
      w50.push_back(quantile(w, 0.5));
      w90.push_back(quantile(w, 0.9));
    }
    s.sent = out.sent;
    s.ok = out.ok;
    s.wrong = out.wrong;
    s.shed = out.shed;
    s.errors = out.errors;
    s.lost = out.lost;
    s.outstanding_end = out.outstanding_end;
    s.cpu_s = out.cpu_s;
    for (Tracer::Span& sp : out.spans) tracer_.add(std::move(sp));
    if (!out.lat_ms.empty()) {
      s.p50_ms = median(w50);
      s.p90_ms = median(w90);
      s.p99_ms = quantile(out.lat_ms, 0.99);
      s.lag_p99_ms = quantile(out.lag_ms, 0.99);
      s.lag_max_ms = *std::max_element(out.lag_ms.begin(), out.lag_ms.end());
    }
    tracer_.add({name, "step", 1, s.t0, s.t1, {}, -1, false});
    std::fprintf(stderr,
                 "  step %-12s %8.0f qps  sent %7llu  p50 %.4f  p90 %.4f  "
                 "p99 %.4f ms  lag p99 %.4f ms  backlog %llu  failed %llu  %s\n",
                 name.c_str(), s.rate, static_cast<unsigned long long>(s.sent),
                 s.p50_ms, s.p90_ms, s.p99_ms, s.lag_p99_ms,
                 static_cast<unsigned long long>(s.outstanding_end),
                 static_cast<unsigned long long>(s.failed()),
                 s.pass() ? "pass" : "MISS");
    return s;
  }

  std::vector<int> fds_;
  const Mix& mix_;
  const Oracle& o_;
  std::uint64_t seed_;
  int cpu_;
  Tracer& tracer_;
  std::uint64_t step_ = 0;
};

// ---- the server process --------------------------------------------------

struct ProcStats {
  double hwm_mib = 0;
  std::uint64_t threads = 0;
  double cpu_s = 0;
};

ProcStats read_proc(pid_t pid) {
  ProcStats p;
  const std::string dir = "/proc/" + std::to_string(pid);
  std::ifstream status(dir + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      p.hwm_mib = std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    } else if (line.rfind("Threads:", 0) == 0) {
      p.threads = std::strtoull(line.c_str() + 8, nullptr, 10);
    }
  }
  std::ifstream stat(dir + "/stat");
  std::string all((std::istreambuf_iterator<char>(stat)),
                  std::istreambuf_iterator<char>());
  const std::size_t paren = all.rfind(')');
  if (paren != std::string::npos) {
    std::istringstream in(all.substr(paren + 2));
    std::string field;
    double ticks = 0;
    // Fields after the command name start at field 3; utime/stime are 14/15.
    for (int i = 3; i <= 15 && in >> field; ++i) {
      if (i >= 14) ticks += std::strtod(field.c_str(), nullptr);
    }
    p.cpu_s = ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }
  return p;
}

/// `emsplit serve` prints its readiness line before it binds the socket, so
/// a connect right after the line can find no socket, or the previous
/// server's stale one: retry those for up to 5 s.
int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) throw std::runtime_error("socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const std::int64_t deadline = now_ns() + 5'000'000'000;
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) {
      return fd;
    }
    const int err = errno;
    ::close(fd);
    if ((err != ENOENT && err != ECONNREFUSED) || now_ns() > deadline) {
      throw std::runtime_error("cannot connect to " + path + ": " + std::strerror(err));
    }
    ::usleep(1000);
  }
}

/// Send one control line and return the first reply line ("" on timeout).
std::string control(int fd, const std::string& cmd) {
  if (::send(fd, cmd.data(), cmd.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(cmd.size())) {
    return "";
  }
  std::string reply;
  char c = 0;
  while (reply.size() < 4096) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 10000) <= 0 || ::recv(fd, &c, 1, 0) != 1) return "";
    if (c == '\n') break;
    reply += c;
  }
  return reply;
}

std::uint64_t stat_field(const std::string& stats, const std::string& key) {
  const std::size_t at = stats.find(" " + key + "=");
  if (at == std::string::npos) return 0;
  return std::strtoull(stats.c_str() + at + key.size() + 2, nullptr, 10);
}

/// One `emsplit serve` child.  Killed and reaped on destruction if still
/// running; PR_SET_PDEATHSIG kills it if the benchmark itself dies.
class ServerProc {
 public:
  /// `affinity`: the CPUs the server may use (null: unrestricted).
  ServerProc(const std::vector<std::string>& args, const cpu_set_t* affinity) {
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    int p[2];
    if (::pipe2(p, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
    const int log = ::open("server.log", O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    t_spawn_ = now_ns();
    pid_ = ::fork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (affinity != nullptr) ::sched_setaffinity(0, sizeof(*affinity), affinity);
      ::dup2(p[1], 1);
      if (log >= 0) ::dup2(log, 2);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(p[1]);
    if (log >= 0) ::close(log);
    if (pid_ < 0) {
      ::close(p[0]);
      throw std::runtime_error("fork failed");
    }
    out_ = p[0];
  }
  ~ServerProc() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_ >= 0) ::close(out_);
  }
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

  /// Seconds from spawn to the readiness line (the epoch-1 build).
  double wait_ready(double timeout_s) {
    std::string acc;
    char buf[512];
    const std::int64_t deadline = t_spawn_ + static_cast<std::int64_t>(timeout_s * 1e9);
    while (acc.find("listening on") == std::string::npos ||
           acc.find('\n', acc.find("listening on")) == std::string::npos) {
      const std::int64_t left = deadline - now_ns();
      pollfd p{out_, POLLIN, 0};
      if (left <= 0 || ::poll(&p, 1, static_cast<int>(left / 1'000'000) + 1) <= 0) {
        throw std::runtime_error("server not ready in time");
      }
      const ssize_t r = ::read(out_, buf, sizeof(buf));
      if (r <= 0) throw std::runtime_error("server exited before ready: " + acc);
      acc.append(buf, static_cast<std::size_t>(r));
    }
    return static_cast<double>(now_ns() - t_spawn_) * 1e-9;
  }

  /// SHUTDOWN over `fd`, then wait for a clean exit (killed after 20 s).
  bool shutdown(int fd) {
    const bool acked = control(fd, "SHUTDOWN\n").rfind("OK", 0) == 0;
    char buf[512];
    const std::int64_t deadline = now_ns() + 20'000'000'000;
    for (;;) {
      pollfd p{out_, POLLIN, 0};
      const std::int64_t left = deadline - now_ns();
      if (left <= 0 || ::poll(&p, 1, static_cast<int>(left / 1'000'000) + 1) <= 0) break;
      if (::read(out_, buf, sizeof(buf)) <= 0) break;
    }
    int status = 0;
    bool exited = false;
    while (!(exited = ::waitpid(pid_, &status, WNOHANG) == pid_) &&
           now_ns() < deadline) {
      ::usleep(1000);
    }
    if (!exited) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    return exited && acked && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
  std::int64_t t_spawn_ = 0;
};

std::vector<std::string> serve_args(const Config& cfg, const std::string& ckpt) {
  return {EMSPLIT_CLI_PATH,
          "--backend=file",
          "--batch-blocks=" + std::to_string(cfg.batch_blocks),
          "--mem-bytes=" + std::to_string(cfg.serve_mem),
          // Keeps the server's device file inside the work directory.
          "--checkpoint-dir=" + ckpt,
          "serve",
          "data.bin",
          "serve.sock",
          "--buckets=" + std::to_string(cfg.buckets),
          "--bucket-cache-blocks=" + std::to_string(cfg.cache_blocks)};
}

// ---- in-process layer probes (traced run) --------------------------------

struct Replay {
  std::vector<Req> reqs;
  std::size_t warm = 0;  ///< leading requests replayed untimed
};

bool check_answer(const Req& q, const Oracle& o, std::uint64_t value,
                  const EquiDepthHistogram<Record>* hist,
                  const std::vector<Record>* recs) {
  switch (q.kind) {
    case Kind::kRank:
    case Kind::kRange: return value == q.expect;
    case Kind::kHist: {
      std::uint64_t sum = 0;
      for (const std::uint64_t s : hist->sizes) sum += s;
      return hist->buckets() == kHistK && sum == o.n();
    }
    case Kind::kTopK: return *recs == o.extreme(q.min);
  }
  return false;
}

/// SplitterIndex built in-process over the same file and configuration (on
/// a SpanDevice, so the build is the serve workload's traced job), a warmed
/// BucketScanCache attached, the mix replayed serially.  Returns each timed
/// query's µs, in replay order.
std::vector<double> probe_index(const Config& cfg, const Oracle& o,
                                const Replay& rp, const DeviceCosts& costs,
                                Report& rep, Tracer& tracer) {
  FileBlockDevice file("index.dev", cfg.block_bytes);
  PassTraceLog log;
  SpanDevice dev(file, tracer, &log);
  Context ctx(dev, cfg.serve_mem);
  ctx.set_io_tuning({.batch_blocks = cfg.batch_blocks});
  auto data = import_file<Record>(ctx, "data.bin");
  ctx.set_pass_trace(&log);
  dev.reset_stats();
  ctx.budget().reset_peak();
  dev.start_job();
  const std::int64_t t0 = now_ns();
  auto idx = SplitterIndex<Record>::build(ctx, data, cfg.buckets, 0.25);
  const std::int64_t t1 = now_ns();
  ctx.set_pass_trace(nullptr);
  JobTrace jt;
  jt.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  jt.io = dev.stats().base();
  jt.peak_bytes = ctx.budget().peak();
  jt.mem_bytes = cfg.serve_mem;
  jt.device_s = dev.busy_seconds();
  const std::int64_t span = tracer.add({"index build", "job", 1, t0, t1, jt.io, -1, false});
  attribute_passes(log, dev.boundaries(), tracer, span, jt.passes);
  report_job_layers(rep, {jt}, costs);
  // The replay is timed against the in-process server's, which runs on a
  // plain device: stop timing device calls.
  dev.record_calls(false);

  const std::size_t cap = cfg.cache_blocks * cfg.block_bytes;
  idx.attach_bucket_cache(std::make_shared<BucketScanCache<Record>>(
      ctx.budget(), cap, std::min<std::size_t>(cap, 64 * cfg.block_bytes), 1));
  std::vector<double> by_kind[4], all;
  std::uint64_t reads = 0, bucket_hits = 0, bad = 0;
  const std::int64_t r0 = now_ns();
  for (std::size_t i = 0; i < rp.reqs.size(); ++i) {
    const Req& q = rp.reqs[i];
    const Record lo{q.lo, ~0ULL}, hi{q.hi, ~0ULL};
    const auto t = Clock::now();
    IoStats io;
    bool good = false;
    switch (q.kind) {
      case Kind::kRank: {
        const auto r = idx.rank(lo);
        io = r.io;
        good = check_answer(q, o, r.value, nullptr, nullptr);
        break;
      }
      case Kind::kRange: {
        const auto r = idx.range_count(lo, hi);
        io = r.io;
        good = check_answer(q, o, r.value, nullptr, nullptr);
        break;
      }
      case Kind::kHist: {
        const auto r = idx.histogram(kHistK);
        io = r.io;
        good = check_answer(q, o, 0, &r.value, nullptr);
        break;
      }
      case Kind::kTopK: {
        const auto r = idx.top_k(kTopK, !q.min);
        io = r.io;
        good = check_answer(q, o, 0, nullptr, &r.value);
        break;
      }
    }
    const double us = seconds_since(t) * 1e6;
    if (!good) ++bad;
    if (i < rp.warm) continue;
    by_kind[static_cast<int>(q.kind)].push_back(us);
    all.push_back(us);
    reads += io.reads;
    bucket_hits += io.bucket_hits;
  }
  tracer.add({"index replay", "service", 1, r0, now_ns(), {}, -1, false});
  rep.ops(rp.reqs.size(), bad);
  if (bad > 0) rep.fail(std::to_string(bad) + " wrong answers from SplitterIndex");
  const char* names[4] = {"rank", "range", "hist", "topk"};
  for (int k = 0; k < 4; ++k) {
    rep.layer(std::string("index.") + names[k] + "_us.p50", median(by_kind[k]),
              "us", by_kind[k].size());
  }
  rep.layer("index.rank_us.p99", quantile(by_kind[0], 0.99), "us", by_kind[0].size());
  rep.layer("index.reads_per_query",
            static_cast<double>(reads) / static_cast<double>(all.size()), "blocks",
            all.size());
  rep.layer("index.bucket_hit_ratio",
            reads == 0 ? 0.0 : static_cast<double>(bucket_hits) / static_cast<double>(reads),
            "fraction", all.size());
  return all;
}

/// SplitterServer in-process (same file and configuration) answering the
/// same replay through query(): server time, and admission wait.  Returns
/// each timed query's µs, in replay order.
std::vector<double> probe_server(const Config& cfg, const Oracle& o, const Replay& rp,
                    Report& rep, Tracer& tracer) {
  FileBlockDevice file("server.dev", cfg.block_bytes);
  Context ctx(file, cfg.serve_mem);
  ctx.set_io_tuning({.batch_blocks = cfg.batch_blocks});
  SplitterServer::Config sc;
  sc.source_path = "data.bin";
  sc.buckets = cfg.buckets;
  sc.bucket_cache_blocks = cfg.cache_blocks;
  SplitterServer server(ctx, sc);
  server.start();
  std::vector<double> query_us, admission_us;
  std::uint64_t bad = 0;
  const std::int64_t r0 = now_ns();
  for (std::size_t i = 0; i < rp.reqs.size(); ++i) {
    const Req& q = rp.reqs[i];
    SplitterServer::Request r;
    r.kind = q.kind == Kind::kRank    ? QueryKind::kRank
             : q.kind == Kind::kRange ? QueryKind::kRange
             : q.kind == Kind::kHist  ? QueryKind::kHistogram
                                      : QueryKind::kTopK;
    r.lo = Record{q.lo, ~0ULL};
    r.hi = Record{q.hi, ~0ULL};
    r.k = q.kind == Kind::kHist ? kHistK : kTopK;
    r.largest = !q.min;
    const SplitterServer::Reply reply = server.query(r);
    if (!reply.ok || !check_answer(q, o, reply.value, &reply.hist, &reply.records)) ++bad;
    if (i < rp.warm) continue;
    query_us.push_back(reply.seconds * 1e6);
    admission_us.push_back(reply.queue_seconds * 1e6);
  }
  tracer.add({"server replay", "service", 1, r0, now_ns(), {}, -1, false});
  rep.ops(rp.reqs.size(), bad);
  if (bad > 0) rep.fail(std::to_string(bad) + " wrong answers from SplitterServer");
  rep.layer("server.query_us.p50", median(query_us), "us", query_us.size());
  rep.layer("server.query_us.p99", quantile(query_us, 0.99), "us", query_us.size());
  rep.layer("server.admission_us.p99", quantile(admission_us, 0.99), "us",
            admission_us.size());
  return query_us;
}

}  // namespace

void run_serve(const Options& opt, const std::string& workload, Report& rep,
               Tracer& tracer) {
  const Config cfg = config(opt);
  const std::int64_t t_workload = now_ns();
  {
    const std::vector<Record> host = make_workload(Workload::kUniform, cfg.n, opt.seed);
    std::FILE* f = std::fopen("data.bin", "wb");
    if (f == nullptr ||
        std::fwrite(host.data(), sizeof(Record), host.size(), f) != host.size() ||
        std::fclose(f) != 0) {
      throw std::runtime_error("cannot write data.bin");
    }
  }
  const Oracle oracle(make_workload(Workload::kUniform, cfg.n, opt.seed));
  const Mix mix(oracle, cfg.buckets, workload == "serve_hot", opt.corrupt, opt.seed);

  const CpuPlan cpus = cpu_plan();
  // Set-up: spawn to readiness (the epoch-1 build), several times.
  const int spawns = opt.traced ? 1 : (opt.smoke ? 2 : 3);
  std::vector<double> setup;
  std::unique_ptr<ServerProc> server;
  for (int s = 0; s < spawns; ++s) {
    const std::string ckpt = "ckpt" + std::to_string(s);
    std::filesystem::create_directories(ckpt);
    server = std::make_unique<ServerProc>(serve_args(cfg, ckpt),
                                          cpus.gen < 0 ? nullptr : &cpus.server);
    setup.push_back(server->wait_ready(120));
    if (s + 1 < spawns) {
      const int fd = connect_unix("serve.sock");
      const bool clean = server->shutdown(fd);
      ::close(fd);
      server.reset();
      std::filesystem::remove_all(ckpt);
      if (!clean) rep.fail("server did not shut down cleanly");
    }
  }
  tracer.add({"setup", "setup", 1, t_workload, now_ns(), {}, -1, false});
  const ProcStats at_ready = read_proc(server->pid());

  std::vector<int> fds;
  for (int c = 0; c < kConns; ++c) fds.push_back(connect_unix("serve.sock"));
  LoadGen gen(fds, mix, oracle, opt.seed, cpus.gen, tracer);
  const Rates rates = fixed_rates(workload, opt.smoke);
  const bool trace_req = opt.traced;

  // A step is measured again when the generator ran late (its numbers would
  // describe the generator, not the server), at most kLateRetries times.
  // Every attempt still counts toward the totals.
  std::vector<Step> steps;
  int remeasured = 0;
  const auto measure = [&](const std::string& name, double rate, double secs,
                           bool trace) {
    for (int late = 0;; ++late) {
      steps.push_back(gen.run(name, rate, secs, trace));
      if (steps.back().lag_p99_ms <= kMaxLagP99Ms || late == kLateRetries) {
        return steps.size() - 1;
      }
      steps.back().name += ".void" + std::to_string(++remeasured);
    }
  };
  std::vector<std::size_t> fixed;  // the fixed-rate steps' final attempts
  steps.push_back(gen.run("warmup", rates.mid, kWarmShare * opt.seconds, trace_req));
  // Peak memory after the build and a fixed amount of traffic: the server
  // keeps a row per query, so any later point would depend on re-measurements.
  const ProcStats after_warmup = read_proc(server->pid());
  for (const auto& [name, rate, share] :
       {std::tuple{"low", rates.low, kLowShare}, std::tuple{"mid", rates.mid, kStepShare},
        std::tuple{"high", rates.high, kStepShare}}) {
    fixed.push_back(measure(name, rate, share * opt.seconds, trace_req));
  }
  const std::size_t saturation = steps.size();
  steps.push_back(gen.saturate("saturation", kSaturationShare * opt.seconds,
                               kSaturationWindow));
  if (opt.traced) {
    fixed.push_back(measure("low-untraced", rates.low, kLowShare * opt.seconds, false));
  }

  const std::string stats = control(fds[0], "STATS\n");
  const ProcStats at_end = read_proc(server->pid());
  const bool clean = server->shutdown(fds[0]);
  for (const int fd : fds) ::close(fd);
  server.reset();
  if (!clean) rep.fail("server did not shut down cleanly");

  // Checks: every reply right, the server's count matches ours, the
  // generator on schedule at every fixed-rate step.
  std::uint64_t sent = 0, answered = 0, wrong = 0, failed = 0, shed = 0;
  for (const Step& s : steps) {
    sent += s.sent;
    answered += s.ok + s.wrong;
    wrong += s.wrong;
    shed += s.shed;
    failed += s.failed();
  }
  rep.ops(sent, failed);
  if (wrong > 0) rep.fail(std::to_string(wrong) + " wrong answers");
  if (stats.rfind("OK", 0) != 0) {
    rep.fail("no STATS reply");
  } else if (stat_field(stats, "served") != answered ||
             stat_field(stats, "shed") != shed) {
    rep.fail("server STATS (" + stats + ") disagree with the generator: " +
             std::to_string(answered) + " answered, " + std::to_string(shed) +
             " shed");
  }
  for (const std::size_t i : fixed) {
    if (steps[i].lag_p99_ms > kMaxLagP99Ms) {
      const std::string why = "generator late at step " + steps[i].name +
                              " after " + std::to_string(kLateRetries) +
                              " re-measurements: lag p99 " +
                              std::to_string(steps[i].lag_p99_ms) + " ms";
      if (opt.smoke) {
        std::fprintf(stderr, "warning: %s\n", why.c_str());
      } else {
        rep.fail(why);
      }
    }
  }

  rep.detail("remeasured_steps", static_cast<double>(remeasured), "count", steps.size());
  if (!opt.traced) {
    rep.e2e("setup_s", median(setup), "s", setup.size());
    rep.e2e("throughput_per_s", steps[saturation].rate, "1/s", steps[saturation].sent);
    rep.e2e("peak_mem_mib", after_warmup.hwm_mib, "MiB", 1);
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const Step& s = steps[i];
      rep.detail("step." + s.name + ".rate", s.rate, "1/s", s.sent);
      rep.detail("step." + s.name + ".p50_ms", s.p50_ms, "ms", s.sent);
      rep.detail("step." + s.name + ".p90_ms", s.p90_ms, "ms", s.sent);
      rep.detail("step." + s.name + ".p99_ms", s.p99_ms, "ms", s.sent);
      rep.detail("step." + s.name + ".lag_p99_ms", s.lag_p99_ms, "ms", s.sent);
      if (i != saturation) {  // the limit applies to open-loop steps
        rep.detail("step." + s.name + ".pass", s.pass() ? 1.0 : 0.0, "bool", s.sent);
      }
    }
  } else {
    const Step& low = steps[fixed[0]];
    const Step& low_untraced = steps[fixed[3]];
    for (std::size_t k = 0; k < 3; ++k) {  // low, mid, high
      const Step& s = steps[fixed[k]];
      rep.layer("load." + s.name + ".p50_ms", s.p50_ms, "ms", s.sent);
      rep.layer("load." + s.name + ".p90_ms", s.p90_ms, "ms", s.sent);
      rep.layer("load." + s.name + ".p99_ms", s.p99_ms, "ms", s.sent);
    }
    double lag_p99 = 0, lag_max = 0, cpu = 0, wall = 0;
    std::uint64_t backlog = 0;
    for (const std::size_t i : fixed) {
      const Step& s = steps[i];
      lag_p99 = std::max(lag_p99, s.lag_p99_ms);
      lag_max = std::max(lag_max, s.lag_max_ms);
      backlog = std::max(backlog, s.outstanding_end);
      cpu += s.cpu_s;
      wall += static_cast<double>(s.t1 - s.t0) * 1e-9;
    }
    rep.layer("gen.lag_ms.p99", lag_p99, "ms", fixed.size());
    rep.layer("gen.lag_ms.max", lag_max, "ms", fixed.size());
    rep.layer("gen.cpu_frac", cpu / wall, "fraction", fixed.size());
    rep.layer("gen.backlog_max", static_cast<double>(backlog), "count", fixed.size());
    rep.layer("trace.overhead_frac", low.p50_ms / low_untraced.p50_ms - 1.0,
              "fraction", low.sent);
    const std::uint64_t served = stat_field(stats, "served");
    rep.layer("server.stats.served", static_cast<double>(served), "count", 1);
    rep.layer("server.stats.shed", static_cast<double>(stat_field(stats, "shed")), "count", 1);
    rep.layer("server.stats.bucket_hits",
              static_cast<double>(stat_field(stats, "bucket_hits")), "count", 1);
    rep.layer("server.stats.bucket_coalesced",
              static_cast<double>(stat_field(stats, "bucket_coalesced")), "count", 1);
    rep.layer("server.threads", static_cast<double>(at_end.threads), "count", 1);
    rep.layer("server.cpu_us_per_query",
              served == 0 ? 0.0 : (at_end.cpu_s - at_ready.cpu_s) * 1e6 /
                                      static_cast<double>(served),
              "us", served);
    const double rtt_us = low.p50_ms * 1e3;
    rep.layer("proto.rtt_us.p50", rtt_us, "us", low.sent);

    const DeviceCosts costs = probe_device(opt, cfg, rep, tracer);
    probe_sort(opt, cfg, rep, tracer);
    Replay rp;
    {
      SplitMix64 rng(opt.seed ^ 0x9a0be5ULL);
      const std::size_t count = opt.smoke ? 2000 : 25000;
      rp.warm = count / 5;
      for (std::size_t i = 0; i < count; ++i) rp.reqs.push_back(mix.draw(rng));
    }
    const std::vector<double> index_us = probe_index(cfg, oracle, rp, costs, rep, tracer);
    const std::vector<double> server_us = probe_server(cfg, oracle, rp, rep, tracer);
    // Paired per query: both replays see the same sequence, so their bucket
    // caches hold the same buckets at every step.
    std::vector<double> self_us;
    for (std::size_t i = 0; i < std::min(index_us.size(), server_us.size()); ++i) {
      self_us.push_back(server_us[i] - index_us[i]);
    }
    rep.layer("server.self_us.p50", median(self_us), "us", self_us.size());
    rep.layer("proto.self_us.p50", rtt_us - median(server_us), "us", low.sent);
  }
  tracer.add({workload, "workload", 1, t_workload, now_ns(), {}, -1, false});
}

}  // namespace bench
