#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>

#include "common/math_utils.hpp"
#include "telemetry/trace.hpp"

namespace turbda::fft {

// ---------------------------------------------------------------------------
// Fft1D
// ---------------------------------------------------------------------------

Fft1D::Fft1D(std::size_t n) : n_(n) {
  TURBDA_REQUIRE(is_pow2(n), "FFT length must be a power of two, got " << n);
  log2n_ = ilog2(n);
  bitrev_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (int b = 0; b < log2n_; ++b) r |= ((i >> b) & 1u) << (log2n_ - 1 - b);
    bitrev_[i] = r;
  }
  stage_fwd_.resize(static_cast<std::size_t>(log2n_) + 1);
  stage_inv_.resize(static_cast<std::size_t>(log2n_) + 1);
  for (int s = 3; s <= log2n_; ++s) {
    const std::size_t len = std::size_t{1} << s;
    const std::size_t half = len / 2;
    auto& fwd = stage_fwd_[static_cast<std::size_t>(s)];
    auto& inv = stage_inv_[static_cast<std::size_t>(s)];
    fwd.resize(half);
    inv.resize(half);
    for (std::size_t k = 0; k < half; ++k) {
      const double ang = -kTwoPi * static_cast<double>(k) / static_cast<double>(len);
      fwd[k] = Cplx(std::cos(ang), std::sin(ang));
      inv[k] = std::conj(fwd[k]);
    }
  }
}

template <class Radix4, class Radix2>
void Fft1D::general_stages(bool inverse, Radix4&& radix4, Radix2&& radix2) const {
  const auto& stages = inverse ? stage_inv_ : stage_fwd_;
  const auto table = [&](int s) {
    return reinterpret_cast<const double*>(stages[static_cast<std::size_t>(s)].data());
  };
  int s = 3;
  // Fused radix-2^2 pairs: one pass performs stages s and s+1 back to back
  // on each 2^(s+1)-point block, with the exact same per-element arithmetic
  // (and thus bitwise results) as two separate passes.
  for (; s + 1 <= log2n_; s += 2) radix4(std::size_t{1} << (s - 1), table(s), table(s + 1));
  // Odd stage count: one remaining plain radix-2 pass.
  if (s <= log2n_) radix2(std::size_t{1} << (s - 1), table(s));
}

void Fft1D::transform(std::span<Cplx> x, bool inverse) const {
  TURBDA_REQUIRE(x.size() == n_, "FFT input length " << x.size() << " != plan length " << n_);
  if (n_ == 1) return;
  // The butterflies run on the raw (re, im) doubles — std::complex guarantees
  // array-compatible layout — through the runtime-dispatched SIMD kernels
  // (scalar / AVX2 / AVX2+FMA; see simd_kernels.hpp).
  double* d = reinterpret_cast<double*>(x.data());
  // Bit-reversal permutation.
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(x[i], x[j]);
  }
  const FftKernels& kr = active_kernels();
  // Stages len = 2 and 4 fused: twiddles are exactly 1 and -i (forward) /
  // +i (inverse), so the 4-point butterfly carries no multiplies at all.
  if (n_ == 2) {
    const double ur = d[0], ui = d[1], tr = d[2], ti = d[3];
    d[0] = ur + tr;
    d[1] = ui + ti;
    d[2] = ur - tr;
    d[3] = ui - ti;
  } else {
    kr.pass_first(d, 2 * n_, inverse ? 1.0 : -1.0);
  }
  general_stages(
      inverse,
      [&](std::size_t half, const double* tw, const double* tw1) {
        kr.pass_radix4(d, n_, half, tw, tw1);
      },
      [&](std::size_t half, const double* tw) { kr.pass_radix2(d, n_, half, tw); });
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n_);
    for (auto& v : x) v *= scale;
  }
}

void Fft1D::transform_columns(Cplx* rows, std::size_t ld, std::size_t width, bool inverse) const {
  TURBDA_REQUIRE(width % 2 == 0 && width <= ld,
                 "column transform width " << width << " must be even and <= stride " << ld);
  if (n_ == 1 || width == 0) return;
  double* d = reinterpret_cast<double*>(rows);
  const std::size_t ld2 = 2 * ld, w2 = 2 * width;
  const FftKernels& kr = active_kernels();
  kr.col_first(d, ld2, n_, w2, inverse ? 1.0 : -1.0);
  general_stages(
      inverse,
      [&](std::size_t half, const double* tw, const double* tw1) {
        kr.col_radix4(d, ld2, n_, w2, half, tw, tw1);
      },
      [&](std::size_t half, const double* tw) { kr.col_radix2(d, ld2, n_, w2, half, tw); });
  if (inverse) kr.col_scale(d, ld2, n_, w2, 1.0 / static_cast<double>(n_));
}

// ---------------------------------------------------------------------------
// Rfft1D — r2c/c2r via one half-length complex FFT plus Hermitian packing.
//
// Forward: pack z[j] = x[2j] + i x[2j+1], FFT to Z[k], then split Z into the
// transforms E, O of the even/odd samples (E[k] = (Z[k] + conj(Z[h-k]))/2,
// O[k] = -i (Z[k] - conj(Z[h-k]))/2) and combine X[k] = E[k] + w^k O[k],
// X[h-k] = conj(E[k] - w^k O[k]) with w = exp(-2πi/n). Inverse runs the same
// algebra backwards.
// ---------------------------------------------------------------------------

namespace {
/// Validates the real-transform length before the half plan is built, so a
/// bad size is reported as the length the caller passed (not n/2).
std::size_t rfft_half_length(std::size_t n) {
  TURBDA_REQUIRE(n >= 2 && is_pow2(n),
                 "real FFT length must be an even power of two (>= 2), got " << n);
  return n / 2;
}
}  // namespace

Rfft1D::Rfft1D(std::size_t n) : n_(n), h_(n / 2), half_(rfft_half_length(n)) {
  w_.resize(h_ / 2 + 1);
  for (std::size_t k = 0; k < w_.size(); ++k) {
    const double ang = -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
    w_[k] = Cplx(std::cos(ang), std::sin(ang));
  }
}

void Rfft1D::forward(std::span<const double> x, std::span<Cplx> spec) const {
  TURBDA_REQUIRE(x.size() == n_ && spec.size() >= spec_size(),
                 "rfft forward: bad buffer sizes (" << x.size() << ", " << spec.size() << ")");
  const std::size_t h = h_;
  for (std::size_t j = 0; j < h; ++j) spec[j] = Cplx(x[2 * j], x[2 * j + 1]);
  half_.forward(spec.first(h));
  const Cplx z0 = spec[0];
  spec[0] = Cplx(z0.real() + z0.imag(), 0.0);
  const Cplx dc_mirror(z0.real() - z0.imag(), 0.0);
  active_kernels().rfft_pack(reinterpret_cast<double*>(spec.data()),
                             reinterpret_cast<const double*>(w_.data()), h);
  if (h >= 2) spec[h / 2] = std::conj(spec[h / 2]);  // w^(h/2) = -i, exactly
  spec[h] = dc_mirror;
}

void Rfft1D::inverse_inplace(std::span<Cplx> spec, std::span<double> x) const {
  TURBDA_REQUIRE(x.size() == n_ && spec.size() >= spec_size(),
                 "rfft inverse: bad buffer sizes (" << x.size() << ", " << spec.size() << ")");
  const std::size_t h = h_;
  const double e0 = spec[0].real();
  const double eh = spec[h].real();
  spec[0] = Cplx(0.5 * (e0 + eh), 0.5 * (e0 - eh));
  active_kernels().rfft_unpack(reinterpret_cast<double*>(spec.data()),
                               reinterpret_cast<const double*>(w_.data()), h);
  if (h >= 2) spec[h / 2] = std::conj(spec[h / 2]);
  half_.inverse(spec.first(h));
  for (std::size_t j = 0; j < h; ++j) {
    x[2 * j] = spec[j].real();
    x[2 * j + 1] = spec[j].imag();
  }
}

void Rfft1D::inverse(std::span<const Cplx> spec, std::span<double> x) const {
  thread_local std::vector<Cplx> scratch;
  if (scratch.size() < spec_size()) scratch.resize(spec_size());
  std::copy(spec.begin(), spec.begin() + static_cast<long>(spec_size()), scratch.begin());
  inverse_inplace(std::span<Cplx>(scratch.data(), spec_size()), x);
}

// ---------------------------------------------------------------------------
// Fft2D — a row step and a column pass over one row-major scratch block. The
// row step places each row at its bit-reversed position (the forward r2c
// writes row i into scratch row bitrev(i); the inverse gathers source row
// bitrev(i) into scratch row i), so the column transforms' input permutation
// costs nothing, and the column pass then runs every stage down the columns
// in place — no transposes. Scratch is per-thread and grown on demand, so
// plans stay immutable and shareable across threads.
// ---------------------------------------------------------------------------

namespace {

/// Scratch row stride for `cols` columns: the column pass holds two columns
/// per vector, so odd widths get one padding column.
std::size_t scratch_ld(std::size_t cols) { return cols + (cols & 1); }

/// The per-thread scratch arena (one live block per 2-D transform).
Cplx* tls_scratch(std::size_t n) {
  thread_local std::vector<Cplx> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

/// Validates the row length before the r2c row plan is built.
std::size_t real_row_length(std::size_t n0, std::size_t n1) {
  TURBDA_REQUIRE(n1 >= 2, "Fft2D rows go through the r2c transform: need n1 >= 2, plan is "
                              << n0 << "x" << n1);
  return n1;
}

}  // namespace

Fft2D::Fft2D(std::size_t n0, std::size_t n1)
    : n0_(n0), n1_(n1), col_(n0), rrow_(real_row_length(n0, n1)) {}

const Cplx* Fft2D::real_forward_rows(std::span<const double> grid, std::size_t cols) const {
  const std::size_t nh = half_cols();
  const std::size_t ld = scratch_ld(nh);
  Cplx* s = tls_scratch(n0_ * ld);
  for (std::size_t i = 0; i < n0_; ++i) {
    Cplx* row = s + col_.bitrev(i) * ld;
    rrow_.forward(grid.subspan(i * n1_, n1_), std::span<Cplx>(row, nh));
    // The padding column rides through the column pass: keep it finite.
    std::fill(row + nh, row + ld, Cplx(0.0, 0.0));
  }
  col_.transform_columns(s, ld, scratch_ld(cols), /*inverse=*/false);
  return s;
}

void Fft2D::real_inverse_rows(const Cplx* hspec, std::size_t cols, std::span<double> grid) const {
  const std::size_t nh = half_cols();
  const std::size_t ld = scratch_ld(nh);
  const std::size_t width = scratch_ld(cols);
  Cplx* s = tls_scratch(n0_ * ld);
  for (std::size_t i = 0; i < n0_; ++i) {
    const Cplx* in = hspec + col_.bitrev(i) * nh;
    Cplx* row = s + i * ld;
    std::copy(in, in + cols, row);
    std::fill(row + cols, row + width, Cplx(0.0, 0.0));
  }
  col_.transform_columns(s, ld, width, /*inverse=*/true);
  for (std::size_t i = 0; i < n0_; ++i) {
    Cplx* row = s + i * ld;
    std::fill(row + cols, row + nh, Cplx(0.0, 0.0));  // truncated bins are exact zeros
    rrow_.inverse_inplace(std::span<Cplx>(row, nh), grid.subspan(i * n1_, n1_));
  }
}

// ---------------------------------------------------------------------------
// Packed half-spectrum transforms: the column pass runs over the first
// min(kcut, n1/2) + 1 columns only. The pruned forward masks |my| > kcut
// rows for free while writing the packed output; the pruned inverse feeds
// the truncated mx > kcut bins to the rows as exact zeros.
// ---------------------------------------------------------------------------

void Fft2D::half_forward_impl(std::span<const double> grid, std::span<Cplx> hspec,
                              std::size_t kcut) const {
  TURBDA_SPAN("fft.half_forward");
  TURBDA_REQUIRE(grid.size() == n0_ * n1_ && hspec.size() == half_size(),
                 "forward_half: wrong buffer sizes (" << grid.size() << ", " << hspec.size()
                                                      << ")");
  const std::size_t nh = half_cols();
  const std::size_t ld = scratch_ld(nh);
  const std::size_t cols = std::min(kcut, n1_ / 2) + 1;
  const long rowcut = static_cast<long>(std::min(kcut, n0_ / 2));
  const Cplx* h = real_forward_rows(grid, cols);
  for (std::size_t i = 0; i < n0_; ++i) {
    Cplx* out = hspec.data() + i * nh;
    const long my =
        (i <= n0_ / 2) ? static_cast<long>(i) : static_cast<long>(i) - static_cast<long>(n0_);
    if (std::labs(my) > rowcut) {
      std::fill(out, out + nh, Cplx(0.0, 0.0));
      continue;
    }
    const Cplx* src = h + i * ld;
    std::copy(src, src + cols, out);
    std::fill(out + cols, out + nh, Cplx(0.0, 0.0));
  }
}

void Fft2D::half_inverse_impl(std::span<const Cplx> hspec, std::span<double> grid,
                              std::size_t kcut) const {
  TURBDA_SPAN("fft.half_inverse");
  TURBDA_REQUIRE(grid.size() == n0_ * n1_ && hspec.size() == half_size(),
                 "inverse_half: wrong buffer sizes (" << grid.size() << ", " << hspec.size()
                                                      << ")");
  real_inverse_rows(hspec.data(), std::min(kcut, n1_ / 2) + 1, grid);
}

void Fft2D::forward_half(std::span<const double> grid, std::span<Cplx> hspec) const {
  half_forward_impl(grid, hspec, std::max(n0_, n1_));
}

void Fft2D::inverse_half(std::span<const Cplx> hspec, std::span<double> grid) const {
  half_inverse_impl(hspec, grid, std::max(n0_, n1_));
}

void Fft2D::forward_half_pruned(std::span<const double> grid, std::span<Cplx> hspec,
                                std::size_t kcut) const {
  half_forward_impl(grid, hspec, kcut);
}

void Fft2D::inverse_half_pruned(std::span<const Cplx> hspec, std::span<double> grid,
                                std::size_t kcut) const {
  half_inverse_impl(hspec, grid, kcut);
}

}  // namespace turbda::fft
