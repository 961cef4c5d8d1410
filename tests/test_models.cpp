#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/math_utils.hpp"
#include "models/lorenz96.hpp"
#include "models/model_error.hpp"
#include "rng/rng.hpp"

namespace turbda::models {
namespace {

using turbda::rng::Rng;

TEST(Lorenz96, EquilibriumIsFixedPoint) {
  Lorenz96Config cfg;
  cfg.dim = 40;
  Lorenz96 model(cfg);
  std::vector<double> x(cfg.dim, cfg.forcing);  // x_i = F is a fixed point
  model.step(x);
  for (double v : x) EXPECT_NEAR(v, cfg.forcing, 1e-12);
}

TEST(Lorenz96, ChaoticDivergenceOfNearbyStates) {
  Lorenz96Config cfg;
  cfg.dim = 40;
  Lorenz96 model(cfg);
  Rng rng(1);
  std::vector<double> a(cfg.dim);
  for (auto& v : a) v = cfg.forcing + rng.gaussian();
  // Spin up onto the attractor.
  for (int i = 0; i < 1000; ++i) model.step(a);
  auto b = a;
  b[0] += 1e-8;
  double d0 = 1e-8;
  for (int i = 0; i < 500; ++i) {
    model.step(a);
    model.step(b);
  }
  double d1 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d1 += sqr(a[i] - b[i]);
  d1 = std::sqrt(d1);
  EXPECT_GT(d1 / d0, 100.0);  // positive Lyapunov exponent
}

TEST(Lorenz96, StateStaysBounded) {
  Lorenz96Config cfg;
  cfg.dim = 100;
  Lorenz96 model(cfg);
  Rng rng(2);
  std::vector<double> x(cfg.dim);
  for (auto& v : x) v = cfg.forcing + rng.gaussian();
  for (int i = 0; i < 2000; ++i) model.step(x);
  for (double v : x) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_LT(std::abs(v), 50.0);
  }
}

TEST(Lorenz96, ForecastRunsConfiguredSteps) {
  Lorenz96Config cfg;
  cfg.dim = 12;
  cfg.steps_per_window = 3;
  Lorenz96 model(cfg);
  Rng rng(3);
  std::vector<double> a(cfg.dim), b;
  for (auto& v : a) v = cfg.forcing + 0.1 * rng.gaussian();
  b = a;
  model.forecast(a);
  for (int i = 0; i < 3; ++i) model.step(b);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(Lorenz96, ForecastBatchRejectsWrongBlockSize) {
  Lorenz96Config cfg;
  cfg.dim = 12;
  Lorenz96 model(cfg);
  std::vector<double> block(3 * cfg.dim - 1, cfg.forcing);
  EXPECT_THROW(model.forecast_batch(block, 3), Error);
  block.resize(3 * cfg.dim, cfg.forcing);
  EXPECT_NO_THROW(model.forecast_batch(block, 3));
}

TEST(Lorenz96, RejectsTinyDimension) {
  Lorenz96Config cfg;
  cfg.dim = 3;
  EXPECT_THROW(Lorenz96 model(cfg), Error);
}

TEST(ModelError, ExpectedVarianceFormula) {
  ModelErrorConfig cfg;
  cfg.reference_scale = 2.0;
  ModelErrorProcess proc(cfg);
  double want = 0.0;
  want += 0.20 * sqr(0.20 * 2.0);
  want += 0.15 * sqr(0.30 * 2.0);
  want += 0.10 * sqr(0.40 * 2.0);
  want += 0.05 * sqr(0.50 * 2.0);
  EXPECT_NEAR(proc.expected_variance(), want, 1e-12);
}

TEST(ModelError, EmpiricalVarianceMatchesExpectation) {
  ModelErrorConfig cfg;
  cfg.reference_scale = 1.0;
  ModelErrorProcess proc(cfg);
  Rng rng(11);
  const std::size_t dim = 500;
  const int trials = 400;
  double sum_var = 0.0;
  for (int t = 0; t < trials; ++t) {
    std::vector<double> x(dim, 0.0);
    proc.apply(x, rng);
    double v = 0.0;
    for (double xi : x) v += xi * xi;
    sum_var += v / static_cast<double>(dim);
  }
  const double got = sum_var / trials;
  EXPECT_NEAR(got, proc.expected_variance(), 0.15 * proc.expected_variance() + 0.002);
}

TEST(ModelError, ZeroProbabilityNeverFires) {
  ModelErrorConfig cfg;
  cfg.probabilities = {0.0, 0.0, 0.0, 0.0};
  ModelErrorProcess proc(cfg);
  Rng rng(12);
  std::vector<double> x(100, 0.0);
  for (int t = 0; t < 50; ++t) proc.apply(x, rng);
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ModelError, ErrorsAreWhiteInTime) {
  // Successive applications must be uncorrelated: corr of increments ~ 0.
  ModelErrorConfig cfg;
  cfg.probabilities = {1.0, 0.0, 0.0, 0.0};  // always fire first component
  ModelErrorProcess proc(cfg);
  Rng rng(13);
  const std::size_t dim = 2000;
  std::vector<double> inc1(dim, 0.0), inc2(dim, 0.0);
  proc.apply(inc1, rng);
  proc.apply(inc2, rng);
  double c01 = 0.0, v1 = 0.0, v2 = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    c01 += inc1[i] * inc2[i];
    v1 += inc1[i] * inc1[i];
    v2 += inc2[i] * inc2[i];
  }
  EXPECT_LT(std::abs(c01) / std::sqrt(v1 * v2), 0.1);
}

}  // namespace
}  // namespace turbda::models
