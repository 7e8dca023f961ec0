// E9 — everything vs the sort baseline: who wins, by what factor, where the
// gap closes.
//
// The paper's practical pitch in one table: for each problem variant we run
// the specialized algorithm and the sort-everything baseline on identical
// inputs and report the win factor.  Expected shape: large wins for
// right-grounded splitters (sublinear), solid wins for loose [a, b], and
// convergence toward 1x as [a, b] tightens to exact balance (where the
// problems genuinely cost as much as multi-partition).
//
// A second table places the certified sample (core/splitters.hpp) at the
// end-to-end benchmark's geometry: for the window [N/2K, 2N/K], the bucket
// bounds the sampler proves for its quantile pick, and whether they fit.
// It is computed from the sampler's plan alone, so it costs no I/O.
#include "bench_util.hpp"

namespace emsplit::bench {
namespace {

struct Row {
  const char* label;
  std::uint64_t fast;
  std::uint64_t base;
};

void run() {
  const Geometry g{.block_bytes = 4096, .mem_blocks = 8};  // N >> M, M/B = 8
  Env env(g);
  const std::size_t n = 1u << 21;
  const std::uint64_t k = 64;
  auto host = make_workload(Workload::kUniform, n, 8086, env.b());
  auto input = materialize<Record>(env.ctx, host);

  print_header("E9: specialized algorithms vs the sort baseline",
               "win = sort_ios / specialized_ios per Table-1 row", g);
  std::printf("# N = %zu, K = %llu\n", n, static_cast<unsigned long long>(k));
  print_columns({"case", "fast_ios", "sort_ios", "win"});

  std::vector<Row> rows;
  auto run_case = [&](const char* label, const ApproxSpec& spec,
                      bool partitioning) {
    std::uint64_t fast = 0, base = 0;
    if (partitioning) {
      fast = measure(env, [&] {
        auto r = approx_partitioning<Record>(env.ctx, input, spec);
        auto c = verify_partitioning<Record>(input, r.data, r.bounds, spec);
        if (!c.ok) std::printf("!! INVALID %s: %s\n", label, c.reason.c_str());
      });
      base = measure(env, [&] {
        auto r = sort_partitioning<Record>(env.ctx, input, spec);
      });
    } else {
      fast = measure(env, [&] {
        auto s = approx_splitters<Record>(env.ctx, input, spec);
        auto c = verify_splitters<Record>(input, s, spec);
        if (!c.ok) std::printf("!! INVALID %s: %s\n", label, c.reason.c_str());
      });
      base = measure(env, [&] {
        auto s = sort_splitters<Record>(env.ctx, input, spec);
      });
    }
    std::printf("  %-34s", label);
    print_row({static_cast<double>(fast), static_cast<double>(base),
               static_cast<double>(base) / static_cast<double>(fast)});
  };

  std::printf("# splitters:\n");
  run_case("splitters right (a=16)", {.k = k, .a = 16, .b = n}, false);
  run_case("splitters left  (b=N/8)", {.k = k, .a = 0, .b = n / 8}, false);
  run_case("splitters 2-sided loose", {.k = k, .a = 64, .b = n / 8}, false);
  run_case("splitters 2-sided tight", {.k = k, .a = n / k - 64, .b = n / k + 64},
           false);
  run_case("splitters exact (a=b=N/K)", {.k = k, .a = n / k, .b = n / k},
           false);
  std::printf("# partitioning:\n");
  run_case("partitioning right (a=16)", {.k = k, .a = 16, .b = n}, true);
  run_case("partitioning left  (b=N/8)", {.k = k, .a = 0, .b = n / 8}, true);
  run_case("partitioning 2-sided loose", {.k = k, .a = 64, .b = n / 8}, true);
  run_case("partitioning exact (a=b=N/K)", {.k = k, .a = n / k, .b = n / k},
           true);

  const std::size_t bench_n = 1u << 22;
  const std::size_t bench_mem = (std::size_t{4} << 20) / sizeof(Record);
  const auto plan = detail::sample_plan(bench_n, bench_mem);
  std::printf(
      "# certified sample at N = %zu, M = 4 MiB (%zu records): L = %zu, "
      "P = %llu, sigma = %llu, m = %zu\n",
      bench_n, bench_mem, plan.levels,
      static_cast<unsigned long long>(plan.stride_pow),
      static_cast<unsigned long long>(plan.slack), plan.size);
  print_columns({"K", "N/K", "a=N/2K", "b=2N/K", "min_bucket", "max_bucket",
                 "certified"});
  for (std::uint64_t kk = 64; kk <= 32768; kk *= 2) {
    const ApproxSpec spec{.k = kk, .a = bench_n / (2 * kk),
                          .b = 2 * bench_n / kk};
    const auto cert = detail::certify_quantile_picks(bench_n, kk, plan);
    print_row({static_cast<double>(kk), static_cast<double>(bench_n / kk),
               static_cast<double>(spec.a), static_cast<double>(spec.b),
               static_cast<double>(cert.min_bucket),
               static_cast<double>(cert.max_bucket),
               cert.fits(spec) ? 1.0 : 0.0});
  }
}

}  // namespace
}  // namespace emsplit::bench

int main() { emsplit::bench::run(); }
