#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/math_utils.hpp"
#include "fft/fft.hpp"
#include "fft_oracle.hpp"
#include "rng/rng.hpp"

namespace turbda::fft {
namespace {

using turbda::rng::Rng;

std::vector<Cplx> naive_dft(const std::vector<Cplx>& x) {
  const std::size_t n = x.size();
  std::vector<Cplx> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Cplx s(0.0, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -kTwoPi * static_cast<double>(k * j) / static_cast<double>(n);
      s += x[j] * Cplx(std::cos(ang), std::sin(ang));
    }
    out[k] = s;
  }
  return out;
}

class Fft1dP : public ::testing::TestWithParam<int> {};

TEST_P(Fft1dP, MatchesNaiveDft) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(3 + n);
  std::vector<Cplx> x(n);
  for (auto& v : x) v = Cplx(rng.gaussian(), rng.gaussian());
  const auto want = naive_dft(x);
  Fft1D plan(n);
  auto got = x;
  plan.forward(got);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(got[i].real(), want[i].real(), 1e-9 * static_cast<double>(n));
    EXPECT_NEAR(got[i].imag(), want[i].imag(), 1e-9 * static_cast<double>(n));
  }
}

TEST_P(Fft1dP, RoundTripIdentity) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(17 + n);
  std::vector<Cplx> x(n);
  for (auto& v : x) v = Cplx(rng.gaussian(), rng.gaussian());
  const auto orig = x;
  Fft1D plan(n);
  plan.forward(x);
  plan.inverse(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i].real(), orig[i].real(), 1e-10);
    EXPECT_NEAR(x[i].imag(), orig[i].imag(), 1e-10);
  }
}

TEST_P(Fft1dP, ParsevalHolds) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(23 + n);
  std::vector<Cplx> x(n);
  for (auto& v : x) v = Cplx(rng.gaussian(), rng.gaussian());
  double grid = 0.0;
  for (const auto& v : x) grid += std::norm(v);
  Fft1D plan(n);
  plan.forward(x);
  double spec = 0.0;
  for (const auto& v : x) spec += std::norm(v);
  EXPECT_NEAR(spec, grid * static_cast<double>(n), 1e-8 * grid * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, Fft1dP, ::testing::Values(1, 2, 4, 8, 16, 64, 256));

TEST(Fft1d, RejectsNonPowerOfTwo) { EXPECT_THROW(Fft1D(12), Error); }

TEST(Fft1d, DeltaFunctionIsFlat) {
  Fft1D plan(8);
  std::vector<Cplx> x(8, Cplx(0, 0));
  x[0] = Cplx(1, 0);
  plan.forward(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft1d, SingleModeLandsInRightBin) {
  const std::size_t n = 32;
  Fft1D plan(n);
  std::vector<Cplx> x(n);
  const int m = 5;
  for (std::size_t j = 0; j < n; ++j) {
    const double ang = kTwoPi * m * static_cast<double>(j) / static_cast<double>(n);
    x[j] = Cplx(std::cos(ang), 0.0);
  }
  plan.forward(x);
  for (std::size_t k = 0; k < n; ++k) {
    const double expect = (k == 5 || k == n - 5) ? static_cast<double>(n) / 2.0 : 0.0;
    EXPECT_NEAR(std::abs(x[k]), expect, 1e-9);
  }
}

// --- real transform (half-spectrum Hermitian packing) -----------------------

class Rfft1dP : public ::testing::TestWithParam<int> {};

TEST_P(Rfft1dP, MatchesNaiveDftOnHalfSpectrum) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(101 + n);
  std::vector<double> x(n);
  rng.fill_gaussian(x);
  std::vector<Cplx> full(n);
  for (std::size_t i = 0; i < n; ++i) full[i] = Cplx(x[i], 0.0);
  const auto want = naive_dft(full);
  Rfft1D plan(n);
  std::vector<Cplx> got(plan.spec_size());
  plan.forward(x, got);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    EXPECT_NEAR(got[k].real(), want[k].real(), 1e-9 * static_cast<double>(n)) << "bin " << k;
    EXPECT_NEAR(got[k].imag(), want[k].imag(), 1e-9 * static_cast<double>(n)) << "bin " << k;
  }
}

TEST_P(Rfft1dP, RoundTripToMachinePrecision) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(211 + n);
  std::vector<double> x(n);
  rng.fill_gaussian(x);
  const auto orig = x;
  Rfft1D plan(n);
  std::vector<Cplx> spec(plan.spec_size());
  plan.forward(x, spec);
  plan.inverse(spec, x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], orig[i], 1e-12);
}

TEST_P(Rfft1dP, ParsevalHoldsWithHermitianWeights) {
  const auto n = static_cast<std::size_t>(GetParam());
  Rng rng(307 + n);
  std::vector<double> x(n);
  rng.fill_gaussian(x);
  double grid = 0.0;
  for (double v : x) grid += v * v;
  Rfft1D plan(n);
  std::vector<Cplx> spec(plan.spec_size());
  plan.forward(x, spec);
  // Interior bins stand in for themselves and their conjugate mirror.
  double s = std::norm(spec[0]) + std::norm(spec[n / 2]);
  for (std::size_t k = 1; k < n / 2; ++k) s += 2.0 * std::norm(spec[k]);
  EXPECT_NEAR(s, grid * static_cast<double>(n), 1e-8 * grid * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, Rfft1dP, ::testing::Values(2, 4, 8, 16, 64, 256));

TEST(Rfft1d, RejectsOddAndNonPowerOfTwoSizes) {
  EXPECT_THROW(Rfft1D(0), Error);
  EXPECT_THROW(Rfft1D(1), Error);
  EXPECT_THROW(Rfft1D(7), Error);   // odd
  EXPECT_THROW(Rfft1D(12), Error);  // even, not a power of two
}

TEST(Rfft1d, SingleModeLandsInRightBin) {
  const std::size_t n = 32;
  Rfft1D plan(n);
  std::vector<double> x(n);
  const int m = 5;
  for (std::size_t j = 0; j < n; ++j)
    x[j] = std::cos(kTwoPi * m * static_cast<double>(j) / static_cast<double>(n));
  std::vector<Cplx> spec(plan.spec_size());
  plan.forward(x, spec);
  for (std::size_t k = 0; k <= n / 2; ++k) {
    const double expect = (k == 5) ? static_cast<double>(n) / 2.0 : 0.0;
    EXPECT_NEAR(std::abs(spec[k]), expect, 1e-9);
  }
}

TEST(Fft2d, PlaneWaveSpectralDerivativeIsExact) {
  // d/dx of cos(2π m x / L) via spectral i*kx multiply, on the unit square.
  const std::size_t n = 64, nh = n / 2 + 1;
  Fft2D plan(n, n);
  const int m = 3;
  std::vector<double> g(n * n);
  for (std::size_t jy = 0; jy < n; ++jy)
    for (std::size_t jx = 0; jx < n; ++jx)
      g[jy * n + jx] = std::cos(kTwoPi * m * static_cast<double>(jx) / static_cast<double>(n));
  std::vector<Cplx> spec(plan.half_size());
  plan.forward_half(g, spec);
  // multiply by i*k (domain length 1 => k = 2π mx, mx = column index >= 0).
  for (std::size_t jy = 0; jy < n; ++jy)
    for (std::size_t jx = 0; jx < nh; ++jx)
      spec[jy * nh + jx] *= Cplx(0.0, kTwoPi * static_cast<double>(jx));
  std::vector<double> deriv(n * n);
  plan.inverse_half(spec, deriv);
  for (std::size_t jy = 0; jy < n; ++jy)
    for (std::size_t jx = 0; jx < n; ++jx) {
      const double x = static_cast<double>(jx) / static_cast<double>(n);
      const double want = -kTwoPi * m * std::sin(kTwoPi * m * x);
      EXPECT_NEAR(deriv[jy * n + jx], want, 1e-8);
    }
}

TEST(Fft2d, HalfSpectrumMatchesComplexTransform) {
  // The half-spectrum pipeline must agree with the dense complex transform
  // of the real-embedded grid on the non-redundant columns, including on
  // non-square shapes.
  const std::size_t n0 = 16, n1 = 8, nh = n1 / 2 + 1;
  Rng rng(53);
  std::vector<double> g(n0 * n1);
  rng.fill_gaussian(g);
  Fft2D plan(n0, n1);
  std::vector<Cplx> spec(plan.half_size());
  plan.forward_half(g, spec);
  std::vector<Cplx> x(n0 * n1);
  for (std::size_t i = 0; i < g.size(); ++i) x[i] = Cplx(g[i], 0.0);
  const auto ref = oracle::complex2d(x, n0, n1, /*inverse=*/false);
  for (std::size_t i = 0; i < n0; ++i)
    for (std::size_t j = 0; j < nh; ++j) {
      EXPECT_NEAR(spec[i * nh + j].real(), ref[i * n1 + j].real(), 1e-10);
      EXPECT_NEAR(spec[i * nh + j].imag(), ref[i * n1 + j].imag(), 1e-10);
    }
}

TEST(Fft2d, WrongSizeThrows) {
  Fft2D plan(8, 8);
  std::vector<double> bad(63);
  std::vector<Cplx> h(plan.half_size());
  EXPECT_THROW(plan.forward_half(bad, h), Error);
  EXPECT_THROW(plan.inverse_half(h, bad), Error);
}

// --- packed half-spectrum 2-D API -------------------------------------------

TEST(Fft2d, HalfSpectrumMatchesFullLayout) {
  // The packed n0 x (n1/2+1) spectrum must hold exactly the non-redundant
  // columns of the full Hermitian-redundant layout, including on non-square
  // shapes.
  const std::size_t n0 = 16, n1 = 8, nh = n1 / 2 + 1;
  Rng rng(61);
  std::vector<double> g(n0 * n1);
  rng.fill_gaussian(g);
  Fft2D plan(n0, n1);
  ASSERT_EQ(plan.half_size(), n0 * nh);
  const auto full = oracle::forward_full(g, n0, n1);
  std::vector<Cplx> half(plan.half_size());
  plan.forward_half(g, half);
  for (std::size_t i = 0; i < n0; ++i)
    for (std::size_t j = 0; j < nh; ++j) {
      const Cplx want = full[i * n1 + j];
      const Cplx got = half[i * nh + j];
      EXPECT_NEAR(got.real(), want.real(), 1e-12 * static_cast<double>(n0 * n1));
      EXPECT_NEAR(got.imag(), want.imag(), 1e-12 * static_cast<double>(n0 * n1));
    }
}

TEST(Fft2d, HalfRoundTripToMachinePrecision) {
  for (auto [n0, n1] : {std::pair<std::size_t, std::size_t>{32, 32}, {16, 8}, {4, 16}}) {
    Rng rng(67 + n0 + n1);
    std::vector<double> g(n0 * n1);
    rng.fill_gaussian(g);
    Fft2D plan(n0, n1);
    std::vector<Cplx> h(plan.half_size());
    plan.forward_half(g, h);
    std::vector<double> back(n0 * n1);
    plan.inverse_half(h, back);
    for (std::size_t i = 0; i < g.size(); ++i) ASSERT_NEAR(back[i], g[i], 1e-12) << n0 << "x" << n1;
  }
}

TEST(Fft2d, PrunedHalfMatchesMaskedUnpruned) {
  const std::size_t n = 32, nh = n / 2 + 1;
  Rng rng(71);
  std::vector<double> g(n * n);
  rng.fill_gaussian(g);
  Fft2D plan(n, n);
  for (const std::size_t kcut : {std::size_t{4}, n / 3, n / 2}) {
    // Forward: pruned output == unpruned output with the |mx|,|my| > kcut
    // bins zeroed.
    std::vector<Cplx> ref(plan.half_size());
    plan.forward_half(g, ref);
    for (std::size_t i = 0; i < n; ++i) {
      const long my = (i <= n / 2) ? static_cast<long>(i) : static_cast<long>(i) - static_cast<long>(n);
      for (std::size_t j = 0; j < nh; ++j)
        if (j > kcut || std::labs(my) > static_cast<long>(kcut)) ref[i * nh + j] = Cplx(0.0, 0.0);
    }
    std::vector<Cplx> pruned(plan.half_size());
    plan.forward_half_pruned(g, pruned, kcut);
    for (std::size_t p = 0; p < ref.size(); ++p) {
      ASSERT_NEAR(pruned[p].real(), ref[p].real(), 1e-12 * static_cast<double>(n * n)) << p;
      ASSERT_NEAR(pruned[p].imag(), ref[p].imag(), 1e-12 * static_cast<double>(n * n)) << p;
    }
    // Inverse: on a truncated spectrum, the pruned transform matches the
    // unpruned one.
    std::vector<double> a(n * n), b(n * n);
    plan.inverse_half(ref, a);
    plan.inverse_half_pruned(ref, b, kcut);
    for (std::size_t p = 0; p < a.size(); ++p) ASSERT_NEAR(a[p], b[p], 1e-13) << p;
  }
}

// --- SIMD dispatch equivalence ----------------------------------------------

/// Restores the entry dispatch level even when an assertion fails mid-test.
class SimdLevelGuard {
 public:
  SimdLevelGuard() : saved_(active_simd_level()) {}
  ~SimdLevelGuard() { force_simd_level(saved_); }

 private:
  SimdLevel saved_;
};

TEST(SimdDispatch, ScalarLevelIsAlwaysAvailable) {
  SimdLevelGuard guard;
  EXPECT_TRUE(simd_level_available(SimdLevel::Scalar));
  EXPECT_TRUE(force_simd_level(SimdLevel::Scalar));
  EXPECT_EQ(active_simd_level(), SimdLevel::Scalar);
  EXPECT_STREQ(simd_level_name(SimdLevel::Scalar), "scalar");
}

// Every dispatched kernel (first pass, fused radix-2^2, odd radix-2, rfft
// pack/unpack) against the forced-scalar reference: the Avx2 level performs
// the identical IEEE operations lane-parallel and must match bitwise; the
// Avx2Fma level contracts the twiddle multiplies and must agree to ~1 ulp
// per butterfly (1e-12 here). The size sweep covers even and odd stage
// counts and the vector-remainder paths of the rfft kernels.
TEST(SimdDispatch, Fft1dMatchesScalarAcrossLevels) {
  SimdLevelGuard guard;
  for (const std::size_t n : {8u, 16u, 32u, 64u, 128u, 256u, 512u}) {
    Rng rng(101 + n);
    std::vector<Cplx> x0(n);
    for (auto& v : x0) v = Cplx(rng.gaussian(), rng.gaussian());
    Fft1D plan(n);
    ASSERT_TRUE(force_simd_level(SimdLevel::Scalar));
    auto fwd_ref = x0;
    plan.forward(fwd_ref);
    auto inv_ref = x0;
    plan.inverse(inv_ref);
    double scale = 0.0;
    for (const auto& v : fwd_ref) scale = std::max(scale, std::abs(v));

    for (const SimdLevel level : {SimdLevel::Avx2, SimdLevel::Avx2Fma}) {
      if (!simd_level_available(level)) continue;
      ASSERT_TRUE(force_simd_level(level));
      auto fwd = x0;
      plan.forward(fwd);
      auto inv = x0;
      plan.inverse(inv);
      if (level == SimdLevel::Avx2) {
        EXPECT_EQ(0, std::memcmp(fwd.data(), fwd_ref.data(), n * sizeof(Cplx)))
            << "n=" << n << " level=" << simd_level_name(level);
        EXPECT_EQ(0, std::memcmp(inv.data(), inv_ref.data(), n * sizeof(Cplx)))
            << "n=" << n << " level=" << simd_level_name(level);
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_NEAR(fwd[i].real(), fwd_ref[i].real(), 1e-12 * scale) << n << "," << i;
          ASSERT_NEAR(fwd[i].imag(), fwd_ref[i].imag(), 1e-12 * scale) << n << "," << i;
          ASSERT_NEAR(inv[i].real(), inv_ref[i].real(), 1e-12) << n << "," << i;
          ASSERT_NEAR(inv[i].imag(), inv_ref[i].imag(), 1e-12) << n << "," << i;
        }
      }
    }
  }
}

TEST(SimdDispatch, Rfft1dMatchesScalarAcrossLevels) {
  SimdLevelGuard guard;
  for (const std::size_t n : {8u, 16u, 32u, 64u, 128u, 256u, 512u}) {
    Rng rng(211 + n);
    // Degenerate inputs matter as much as random ones: a delta or constant
    // row makes whole pack/unpack lanes exactly zero, which is where a
    // sign-of-zero slip in the vector kernels would hide from gaussians.
    std::vector<std::vector<double>> inputs(3, std::vector<double>(n, 0.0));
    rng.fill_gaussian(inputs[0]);
    inputs[1][0] = 1.0;                                    // delta
    for (std::size_t j = 0; j < n; ++j) inputs[2][j] = 0.25;  // constant
    for (const auto& x : inputs) {
      Rfft1D plan(n);
      std::vector<Cplx> spec_ref(plan.spec_size());
      std::vector<double> back_ref(n);
      ASSERT_TRUE(force_simd_level(SimdLevel::Scalar));
      plan.forward(x, spec_ref);
      plan.inverse(spec_ref, back_ref);
      double scale = 0.0;
      for (const auto& v : spec_ref) scale = std::max(scale, std::abs(v));

      for (const SimdLevel level : {SimdLevel::Avx2, SimdLevel::Avx2Fma}) {
        if (!simd_level_available(level)) continue;
        ASSERT_TRUE(force_simd_level(level));
        std::vector<Cplx> spec(plan.spec_size());
        std::vector<double> back(n);
        plan.forward(x, spec);
        plan.inverse(spec, back);
        if (level == SimdLevel::Avx2) {
          EXPECT_EQ(0, std::memcmp(spec.data(), spec_ref.data(), spec.size() * sizeof(Cplx)))
              << "n=" << n;
          EXPECT_EQ(0, std::memcmp(back.data(), back_ref.data(), n * sizeof(double)))
              << "n=" << n;
        } else {
          for (std::size_t i = 0; i < spec.size(); ++i) {
            ASSERT_NEAR(spec[i].real(), spec_ref[i].real(), 1e-12 * scale) << n << "," << i;
            ASSERT_NEAR(spec[i].imag(), spec_ref[i].imag(), 1e-12 * scale) << n << "," << i;
          }
          for (std::size_t i = 0; i < n; ++i) ASSERT_NEAR(back[i], back_ref[i], 1e-12) << n;
        }
      }
    }
  }
}

// --- column pass vs the transpose oracle ------------------------------------

// The 2-D transforms run their column FFTs as one in-place pass down the
// row-major scratch. Every Fft2D entry point must reproduce the transpose
// oracle (fft_oracle.hpp) bit for bit (memcmp, so a flipped sign of zero
// fails).

/// Gaussian, all-zero, delta and constant grids: the degenerate ones make
/// whole butterfly operands exactly zero, where a sign-of-zero slip shows.
std::vector<std::vector<double>> test_fields(std::size_t n0, std::size_t n1, std::uint64_t seed) {
  std::vector<std::vector<double>> f(4, std::vector<double>(n0 * n1, 0.0));
  Rng rng(seed);
  rng.fill_gaussian(f[0]);
  f[2][0] = 1.0;
  std::fill(f[3].begin(), f[3].end(), 0.25);
  return f;
}

template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST(Fft2dColumnPass, EveryEntryPointMatchesTransposeOracleBitwise) {
  for (const std::size_t n0 : {2u, 4u, 8u, 32u, 128u}) {
    for (const std::size_t n1 : {2u, 8u, 32u, 128u}) {
      const std::size_t n = std::max(n0, n1), nh = n1 / 2 + 1;
      const auto fields = test_fields(n0, n1, 7 * n0 + n1);
      const Fft2D plan(n0, n1);
      for (std::size_t f = 0; f < fields.size(); ++f) {
        const auto& g = fields[f];
        const std::string where =
            std::to_string(n0) + "x" + std::to_string(n1) + " field " + std::to_string(f);
        // Unpruned half spectrum and its inverse.
        const auto want_h = oracle::forward_half(g, n0, n1, n);
        std::vector<Cplx> h(plan.half_size());
        plan.forward_half(g, h);
        ASSERT_TRUE(same_bits(h, want_h)) << "forward_half " << where;
        std::vector<double> back(n0 * n1);
        plan.inverse_half(want_h, back);
        ASSERT_TRUE(same_bits(back, oracle::inverse_half(want_h, nh, n0, n1, n)))
            << "inverse_half " << where;

        // Pruned transforms.
        for (const std::size_t kcut : {std::size_t{4}, n / 3, n / 2, n}) {
          const auto want_p = oracle::forward_half(g, n0, n1, kcut);
          std::vector<Cplx> p(plan.half_size());
          plan.forward_half_pruned(g, p, kcut);
          ASSERT_TRUE(same_bits(p, want_p)) << "forward_half_pruned kcut " << kcut << " " << where;
          plan.inverse_half_pruned(want_p, back, kcut);
          ASSERT_TRUE(same_bits(back, oracle::inverse_half(want_p, nh, n0, n1, kcut)))
              << "inverse_half_pruned kcut " << kcut << " " << where;
        }
      }
    }
  }
}

TEST(Fft2dColumnPass, TransformColumnsMatchesPerColumnFft1d) {
  // The 1-D entry on its own, on a padded stride and a sub-range of columns:
  // columns outside [0, width) and the padding stay untouched.
  for (const std::size_t n : {2u, 4u, 8u, 16u, 64u}) {
    const std::size_t ld = 7, width = 4;
    Rng rng(503 + n);
    std::vector<Cplx> a(n * ld);
    for (auto& v : a) v = Cplx(rng.gaussian(), rng.gaussian());
    const Fft1D plan(n);
    for (const bool inverse : {false, true}) {
      auto want = a;
      oracle::columns(want, n, ld, width, inverse);
      // transform_columns expects the rows in bit-reversed order.
      std::vector<Cplx> got(n * ld);
      for (std::size_t i = 0; i < n; ++i)
        std::copy(a.begin() + static_cast<long>(plan.bitrev(i) * ld),
                  a.begin() + static_cast<long>((plan.bitrev(i) + 1) * ld),
                  got.begin() + static_cast<long>(i * ld));
      plan.transform_columns(got.data(), ld, width, inverse);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(0, std::memcmp(&got[i * ld], &want[i * ld], width * sizeof(Cplx)))
            << "n=" << n << " row " << i << (inverse ? " inverse" : " forward");
        EXPECT_EQ(0, std::memcmp(&got[i * ld + width], &a[plan.bitrev(i) * ld + width],
                                 (ld - width) * sizeof(Cplx)))
            << "n=" << n << " row " << i << ": columns past the width were touched";
      }
    }
  }
  EXPECT_THROW(Fft1D(8).transform_columns(nullptr, 4, 3, false), Error);  // odd width
  EXPECT_THROW(Fft1D(8).transform_columns(nullptr, 4, 6, false), Error);  // width > stride
}

// The column pass against the forced-scalar reference, through the 2-D
// entry points the SQG tendency runs (pruned pair at kcut = n/3) and the
// unpruned pair, on square and non-square grids with degenerate fields:
// Avx2 bitwise, Avx2Fma to 1e-12 of the spectrum scale.
TEST(SimdDispatch, Fft2dMatchesScalarAcrossLevels) {
  SimdLevelGuard guard;
  for (auto [n0, n1] : {std::pair<std::size_t, std::size_t>{8, 8}, {32, 8}, {8, 32}, {128, 128}}) {
    const std::size_t kcut = std::max(n0, n1) / 3;
    Fft2D plan(n0, n1);
    std::vector<std::vector<double>> fields(3, std::vector<double>(n0 * n1, 0.0));
    Rng rng(601 + n0 + n1);
    rng.fill_gaussian(fields[0]);
    fields[1][0] = 1.0;
    std::fill(fields[2].begin(), fields[2].end(), 0.25);
    for (const auto& g : fields) {
      ASSERT_TRUE(force_simd_level(SimdLevel::Scalar));
      std::vector<Cplx> h_ref(plan.half_size()), p_ref(plan.half_size());
      std::vector<double> back_ref(n0 * n1), pback_ref(n0 * n1);
      plan.forward_half(g, h_ref);
      plan.inverse_half(h_ref, back_ref);
      plan.forward_half_pruned(g, p_ref, kcut);
      plan.inverse_half_pruned(p_ref, pback_ref, kcut);
      double scale = 0.0;
      for (const auto& v : h_ref) scale = std::max(scale, std::abs(v));

      for (const SimdLevel level : {SimdLevel::Avx2, SimdLevel::Avx2Fma}) {
        if (!simd_level_available(level)) continue;
        ASSERT_TRUE(force_simd_level(level));
        std::vector<Cplx> h(plan.half_size()), p(plan.half_size());
        std::vector<double> back(n0 * n1), pback(n0 * n1);
        plan.forward_half(g, h);
        plan.inverse_half(h_ref, back);
        plan.forward_half_pruned(g, p, kcut);
        plan.inverse_half_pruned(p_ref, pback, kcut);
        const std::string where = std::to_string(n0) + "x" + std::to_string(n1) + " " +
                                  simd_level_name(level);
        if (level == SimdLevel::Avx2) {
          EXPECT_TRUE(same_bits(h, h_ref)) << where;
          EXPECT_TRUE(same_bits(back, back_ref)) << where;
          EXPECT_TRUE(same_bits(p, p_ref)) << where;
          EXPECT_TRUE(same_bits(pback, pback_ref)) << where;
        } else {
          for (std::size_t i = 0; i < h.size(); ++i) {
            ASSERT_NEAR(h[i].real(), h_ref[i].real(), 1e-12 * scale) << where << " bin " << i;
            ASSERT_NEAR(h[i].imag(), h_ref[i].imag(), 1e-12 * scale) << where << " bin " << i;
            ASSERT_NEAR(p[i].real(), p_ref[i].real(), 1e-12 * scale) << where << " bin " << i;
            ASSERT_NEAR(p[i].imag(), p_ref[i].imag(), 1e-12 * scale) << where << " bin " << i;
          }
          for (std::size_t i = 0; i < back.size(); ++i) {
            ASSERT_NEAR(back[i], back_ref[i], 1e-12) << where << " point " << i;
            ASSERT_NEAR(pback[i], pback_ref[i], 1e-12) << where << " point " << i;
          }
        }
      }
    }
  }
}

TEST(Fft2d, HalfApiRejectsUnsupportedShapes) {
  // n1 < 2 has no even row length for the r2c stage.
  EXPECT_THROW(Fft2D(8, 1), Error);
  EXPECT_THROW(Fft2D(8, 0), Error);
  // Odd / non-power-of-two extents are rejected at plan construction.
  EXPECT_THROW(Fft2D(8, 7), Error);
  EXPECT_THROW(Fft2D(6, 8), Error);
  // Wrong buffer sizes.
  Fft2D q(8, 8);
  std::vector<double> g2(64);
  std::vector<Cplx> bad(q.half_size() - 1);
  EXPECT_THROW(q.forward_half(g2, bad), Error);
  EXPECT_THROW(q.inverse_half(bad, g2), Error);
  EXPECT_THROW(q.forward_half_pruned(g2, bad, 2), Error);
  EXPECT_THROW(q.inverse_half_pruned(bad, g2, 2), Error);
}

}  // namespace
}  // namespace turbda::fft
