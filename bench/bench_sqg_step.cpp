// SQG forecast hot-path bench: times the real-FFT pairs (packed half
// spectrum, and the pruned kcut = n/3 pair the tendency runs), the spectral
// tendency and the full RK4 step at n = 64/128/256 — all serial, since one
// member always steps on one thread — plus the member-parallel ensemble
// forecast (the paper's throughput axis) at each --threads count. Reports
// the active FFT SIMD dispatch level (scalar / avx2 / avx2fma) and per-row
// hardware context, emits a machine-readable BENCH_sqg.json so later changes
// can track the perf trajectory, and verifies that every multi-threaded
// ensemble forecast is bitwise identical to the single-threaded one.
//
//   build/bench_sqg_step [--sizes=64,128,256] [--threads=1,2,4]
//                        [--members=20] [--reps=3] [--json=BENCH_sqg.json]
//                        [--smoke]
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fft/fft.hpp"
#include "io/args.hpp"
#include "io/table.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "sqg/sqg.hpp"

using namespace turbda;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::vector<std::size_t> parse_list(const std::string& csv) {
  std::vector<std::size_t> out;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ','))
    if (!tok.empty()) out.push_back(static_cast<std::size_t>(std::stoul(tok)));
  return out;
}

/// Best-of-`reps` wall time of fn(), each rep running `iters` iterations.
template <class F>
double best_ms(int reps, int iters, F&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < iters; ++i) fn();
    best = std::min(best, ms_since(t0) / iters);
  }
  return best;
}

/// Serial per-member kernel timings of one grid size.
struct Kernels {
  double fft_half_ms = 0.0;    // packed half-spectrum pair, unpruned
  double fft_pruned_ms = 0.0;  // pruned at the dealias cut kcut = n/3 (the hot path)
  double tendency_ms = 0.0;
  double step_ms = 0.0;
};

struct Result {
  std::size_t n = 0;
  std::size_t threads = 0;
  Kernels k;            // serial, shared by every thread-count row of this n
  double ens_ms = 0.0;  // per-member forecasts fanned over the pool
  bool bitwise = true;
};

}  // namespace

int main(int argc, char** argv) {
  const io::Args args(argc, argv);
  if (args.flag("help")) {
    std::cout << "bench_sqg_step: SQG spectral-core timings (FFT / tendency / RK4 / ensemble)\n"
                 "  --sizes=<csv>    grid sizes (default 64,128,256)\n"
                 "  --threads=<csv>  thread counts for the ensemble forecast (default 1,2,4)\n"
                 "  --members=<int>  ensemble size for the forecast timing (default 20)\n"
                 "  --reps=<int>     best-of repetitions (default 3)\n"
                 "  --json=<path>    machine-readable output (default BENCH_sqg.json)\n"
                 "  --smoke          small fast configuration for CI\n";
    return 0;
  }
  const bool smoke = args.flag("smoke");
  auto sizes = parse_list(args.get_str("sizes", smoke ? "32,64" : "64,128,256"));
  auto threads = parse_list(args.get_str("threads", smoke ? "1,2" : "1,2,4"));
  const auto members = static_cast<std::size_t>(args.get_int("members", smoke ? 6 : 20));
  const int reps = static_cast<int>(args.get_int("reps", smoke ? 1 : 3));
  const std::string json_path = args.get_str("json", "BENCH_sqg.json");
  const unsigned hw = std::thread::hardware_concurrency();
  const char* simd = fft::simd_level_name(fft::active_simd_level());

  std::cout << "=== SQG forecast hot path (" << hw << " hardware threads, FFT SIMD dispatch: "
            << simd << ", best of " << reps << ", " << members << "-member ensemble) ===\n\n";

  std::vector<Result> results;
  for (const std::size_t n : sizes) {
    const std::size_t nn = n * n;
    const int fft_iters = smoke ? 20 : ((n >= 256) ? 50 : 200);
    const int ten_iters = smoke ? 5 : ((n >= 256) ? 10 : 40);
    const int step_iters = smoke ? 2 : ((n >= 256) ? 5 : 20);

    sqg::SqgConfig cfg;
    cfg.n = n;
    cfg.dt = 900.0;
    const sqg::SqgModel model(cfg);
    sqg::SqgWorkspace ws(n);
    rng::Rng rng(2024 + n);
    std::vector<double> theta(model.dim());
    model.random_init(theta, rng, 1.0, 4);

    // Serial 1-member reference for the bitwise cross-thread check — run
    // unconditionally so the claim holds even when 1 is not in --threads.
    std::vector<double> ref_member = theta;
    model.step(ref_member, 1, ws);

    Kernels k;
    // Real-FFT pairs on one level: the packed half spectrum, and the pruned
    // half-spectrum pair at the 2/3 dealias cut — the transform the
    // tendency actually runs.
    fft::Fft2D fft(n, n);
    std::vector<double> grid(theta.begin(), theta.begin() + static_cast<long>(nn));
    std::vector<fft::Cplx> hspec(fft.half_size());
    k.fft_half_ms = best_ms(reps, fft_iters, [&] {
      fft.forward_half(grid, hspec);
      fft.inverse_half(hspec, grid);
    });
    k.fft_pruned_ms = best_ms(reps, fft_iters, [&] {
      fft.forward_half_pruned(grid, hspec, n / 3);
      fft.inverse_half_pruned(hspec, grid, n / 3);
    });

    // Spectral tendency (the RK4 inner kernel).
    std::vector<fft::Cplx> tspec(model.spec_dim()), tout(model.spec_dim());
    model.to_spectral(theta, tspec);
    k.tendency_ms = best_ms(reps, ten_iters, [&] { model.tendency(tspec, tout, ws); });

    // Full RK4 step.
    {
      std::vector<double> state = theta;
      model.step(state, 1, ws);  // warm up
      k.step_ms =
          best_ms(reps, 1, [&] { state = theta; model.step(state, step_iters, ws); }) / step_iters;
    }

    for (const std::size_t nt : threads) {
      Result res;
      res.n = n;
      res.threads = nt;
      res.k = k;
      // Member-parallel ensemble forecast: `members` independent states, one
      // RK4 step each, fanned out over the pool with max_par = nt — the
      // shape of the cycling runners' member-block forecast.
      std::vector<std::vector<double>> states(members);
      res.ens_ms = best_ms(reps, 1, [&] {
        for (std::size_t m = 0; m < members; ++m) states[m] = theta;
        parallel::parallel_for(
            members,
            [&](std::size_t b, std::size_t e) {
              for (std::size_t m = b; m < e; ++m)
                model.step(states[m], 1, sqg::tls_workspace(n));
            },
            /*min_grain=*/1, nt);
      });
      for (std::size_t m = 0; m < members; ++m)
        res.bitwise = res.bitwise && std::memcmp(states[m].data(), ref_member.data(),
                                                 ref_member.size() * sizeof(double)) == 0;
      results.push_back(res);
    }
  }

  io::Table t({"n", "threads", "half pair [ms]", "pruned pair [ms]", "tendency [ms]",
               "RK4 step [ms]", "ens fcst [ms]", "bitwise == t1"});
  for (const auto& r : results) {
    t.add_row({std::to_string(r.n), std::to_string(r.threads), io::Table::num(r.k.fft_half_ms, 3),
               io::Table::num(r.k.fft_pruned_ms, 3), io::Table::num(r.k.tendency_ms, 3),
               io::Table::num(r.k.step_ms, 3), io::Table::num(r.ens_ms, 3),
               r.bitwise ? "yes" : "NO"});
  }
  t.print();
  std::cout << "\nFFT, tendency and RK4 columns are serial (one member on one thread),\n"
               "measured once per size; --threads sets the ensemble forecast's workers.\n";

  bool all_bitwise = true;
  for (const auto& r : results) all_bitwise = all_bitwise && r.bitwise;
  std::cout << "\nMulti-threaded ensemble forecasts bitwise identical to 1 thread: "
            << (all_bitwise ? "yes" : "NO") << "\n";

  // Per-row hardware context (hw_threads, simd) rides along so downstream
  // consumers (bench_guard) can reject rows whose thread count oversubscribed
  // the recording machine without trusting the file-level header.
  std::ofstream js(json_path);
  js << "{\n  \"bench\": \"sqg_step\",\n  \"hardware_threads\": " << hw
     << ",\n  \"simd_level\": \"" << simd << "\",\n  \"members\": " << members
     << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    js << "    {\"n\": " << r.n << ", \"threads\": " << r.threads
       << ", \"hw_threads\": " << hw << ", \"simd\": \"" << simd << "\""
       << ", \"fft_half_pair_ms\": " << r.k.fft_half_ms
       << ", \"fft_pruned_pair_ms\": " << r.k.fft_pruned_ms
       << ", \"tendency_ms\": " << r.k.tendency_ms << ", \"rk4_step_ms\": " << r.k.step_ms
       << ", \"ens_forecast_ms\": " << r.ens_ms
       << ", \"bitwise_vs_t1\": " << (r.bitwise ? "true" : "false") << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  js << "  ]\n}\n";
  std::cout << "Machine-readable timings written to " << json_path << ".\n";
  return all_bitwise ? 0 : 1;
}
