// google-benchmark micro-kernels for the hot substrates: GEMM, 2-D FFT, one
// SQG RK4 step, one EnSF analysis, one LETKF analysis. These are the
// measured-performance counterparts of the modeled figures.
#include <benchmark/benchmark.h>

#include "da/ensf.hpp"
#include "da/letkf.hpp"
#include "fft/fft.hpp"
#include "rng/rng.hpp"
#include "sqg/sqg.hpp"
#include "tensor/gemm.hpp"

using namespace turbda;

namespace {

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  tensor::Tensor a({n, n}), b({n, n}), c({n, n});
  rng::Rng rng(1);
  rng.fill_gaussian(a.flat());
  rng.fill_gaussian(b.flat());
  for (auto _ : state) {
    tensor::gemm(tensor::Trans::No, tensor::Trans::No, n, n, n, 1.0, a.data(), n, b.data(), n,
                 0.0, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<long>(state.iterations()) *
                          static_cast<long>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256)->Arg(512);

void BM_Fft2D(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  fft::Fft2D plan(n, n);
  std::vector<double> grid(n * n);
  std::vector<fft::Cplx> hspec(plan.half_size());
  rng::Rng rng(2);
  rng.fill_gaussian(grid);
  for (auto _ : state) {
    plan.forward_half(grid, hspec);
    plan.inverse_half(hspec, grid);
    benchmark::DoNotOptimize(grid.data());
  }
}
BENCHMARK(BM_Fft2D)->Arg(32)->Arg(64)->Arg(128);

void BM_SqgStep(benchmark::State& state) {
  sqg::SqgConfig cfg;
  cfg.n = static_cast<std::size_t>(state.range(0));
  sqg::SqgModel model(cfg);
  std::vector<double> theta(model.dim());
  rng::Rng rng(3);
  model.random_init(theta, rng, 1.0, 4);
  for (auto _ : state) {
    model.step(theta, 1);
    benchmark::DoNotOptimize(theta.data());
  }
}
BENCHMARK(BM_SqgStep)->Arg(32)->Arg(64);

void BM_EnsfAnalysis(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  da::Ensemble ens(20, dim);
  rng::Rng rng(4);
  for (std::size_t m = 0; m < 20; ++m) rng.fill_gaussian(ens.member(m));
  std::vector<double> y(dim, 0.5);
  da::IdentityObs h(dim);
  da::DiagonalR r(dim, 1.0);
  da::EnsfConfig cfg = da::EnsfConfig::stabilized();
  cfg.euler_steps = 20;
  da::EnSF filter(cfg);
  for (auto _ : state) {
    filter.analyze(ens, y, h, r);
    benchmark::DoNotOptimize(ens.data().data());
  }
}
BENCHMARK(BM_EnsfAnalysis)->Arg(2048)->Arg(8192)->Arg(32768);

void BM_LetkfAnalysis(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = n * n * 2;
  da::Ensemble ens(20, dim);
  rng::Rng rng(5);
  for (std::size_t m = 0; m < 20; ++m) rng.fill_gaussian(ens.member(m));
  std::vector<double> y(dim, 0.5);
  da::IdentityObs h(dim, n, n, 2);
  da::DiagonalR r(dim, 1.0);
  da::LetkfConfig cfg;
  cfg.nx = n;
  cfg.ny = n;
  cfg.n_levels = 2;
  cfg.domain_m = 20e6;
  cfg.cutoff_m = 2e6;
  da::LETKF filter(cfg);
  for (auto _ : state) {
    filter.analyze(ens, y, h, r);
    benchmark::DoNotOptimize(ens.data().data());
  }
}
BENCHMARK(BM_LetkfAnalysis)->Arg(16)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
