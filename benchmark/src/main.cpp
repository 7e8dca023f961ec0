// emsplit_bench — the emsplit benchmark's one command.
//
//   emsplit_bench [--workload=NAME] [--seed=N] [--seconds=S] [--traced]
//                 [--smoke] [--corrupt-oracle]
//                 [--workdir=DIR] [--trace-dir=DIR]
//
// Runs the named workload (default: all four) and prints one JSON line per
// metric on stdout, a table on stderr.  The untraced run measures the
// end-to-end metrics; --traced measures the per-layer metrics and writes
// <trace-dir>/<workload>.trace.json.  Every answer is checked against an
// oracle; the exit code is non-zero when any check failed.  README.md
// describes the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"

namespace {

const std::vector<std::string> kWorkloads = {"splitters", "partition",
                                             "serve_hot", "serve_uniform"};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "emsplit_bench: %s\n"
               "usage: emsplit_bench [--workload=NAME] [--seed=N] [--seconds=S]\n"
               "                     [--traced] [--smoke] [--corrupt-oracle]\n"
               "                     [--workdir=DIR] [--trace-dir=DIR]\n"
               "workloads: splitters partition serve_hot serve_uniform\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  bench::Options opt;
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&](const char* key) -> const char* {
      const std::string k = key;
      return a.rfind(k, 0) == 0 ? a.c_str() + k.size() : nullptr;
    };
    if (const char* v = value("--workload=")) {
      opt.workload = v;
    } else if (const char* v = value("--seed=")) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      opt.seconds = std::strtod(v, nullptr);
      seconds_given = true;
    } else if (const char* v = value("--workdir=")) {
      opt.workdir = v;
    } else if (const char* v = value("--trace-dir=")) {
      opt.trace_dir = v;
    } else if (a == "--traced") {
      opt.traced = true;
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--corrupt-oracle") {
      opt.corrupt = true;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (opt.smoke && !seconds_given) opt.seconds = 2;
  if (!(opt.seconds > 0 && opt.seconds <= 600)) usage("--seconds out of range");
  std::vector<std::string> run = kWorkloads;
  if (!opt.workload.empty()) {
    bool known = false;
    for (const std::string& w : kWorkloads) known = known || w == opt.workload;
    if (!known) usage("unknown workload " + opt.workload);
    run = {opt.workload};
  }

  const fs::path home = fs::current_path();
  const fs::path workdir = fs::absolute(opt.workdir);
  const fs::path trace_dir = fs::absolute(opt.trace_dir);
  if (opt.traced) fs::create_directories(trace_dir);

  bool ok = true;
  for (const std::string& w : run) {
    // Each workload runs in a fresh directory of its own: its device files,
    // data file, server socket and checkpoint directories live there.
    const fs::path dir = workdir / w;
    fs::remove_all(dir);
    fs::create_directories(dir);
    fs::current_path(dir);
    std::fprintf(stderr, "== %s (seed %llu, %.1f s%s%s)\n", w.c_str(),
                 static_cast<unsigned long long>(opt.seed), opt.seconds,
                 opt.traced ? ", traced" : "", opt.smoke ? ", smoke" : "");
    bench::Report rep(w);
    bench::Tracer tracer(opt.traced);
    try {
      if (w.rfind("serve_", 0) == 0) {
        bench::run_serve(opt, w, rep, tracer);
      } else {
        bench::run_batch(opt, w, rep, tracer);
      }
    } catch (const std::exception& e) {
      rep.fail(std::string("error: ") + e.what());
    }
    if (opt.traced && rep.correct()) {
      for (const bench::LayerMetric& m : bench::layer_metrics()) {
        if (rep.layers().count(m.name) == 0) rep.fail("layer metric " + m.name + " missing");
      }
      const fs::path path = trace_dir / (w + ".trace.json");
      if (!tracer.write(path.string(), w)) rep.fail("cannot write " + path.string());
      std::fprintf(stderr, "trace: %s (%zu spans, %llu dropped)\n",
                   path.c_str(), tracer.size(),
                   static_cast<unsigned long long>(tracer.dropped()));
    }
    ok = rep.finish() && ok;
    fs::current_path(home);
    fs::remove_all(dir);
  }
  return ok ? 0 : 1;
}
