// Test-only 2-D FFT oracles. They spell the transforms out the direct way:
// rows through Rfft1D / Fft1D, then an explicit gather of each column, one
// Fft1D per column and a scatter back. Fft2D's column pass must reproduce
// them bit for bit; the full-layout and complex forms also serve as the
// Hermitian-redundant reference the SQG half-spectrum solver is checked
// against.
#pragma once

#include <algorithm>
#include <complex>
#include <cstdlib>
#include <span>
#include <vector>

#include "fft/fft.hpp"

namespace turbda::fft::oracle {

/// Transforms columns [0, cols) of the rows x ld array `a` in place, one
/// gathered column at a time.
inline void columns(std::vector<Cplx>& a, std::size_t rows, std::size_t ld, std::size_t cols,
                    bool inverse) {
  const Fft1D plan(rows);
  std::vector<Cplx> col(rows);
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t i = 0; i < rows; ++i) col[i] = a[i * ld + j];
    if (inverse) {
      plan.inverse(col);
    } else {
      plan.forward(col);
    }
    for (std::size_t i = 0; i < rows; ++i) a[i * ld + j] = col[i];
  }
}

inline long wavenumber(std::size_t i, std::size_t n) {
  return i <= n / 2 ? static_cast<long>(i) : static_cast<long>(i) - static_cast<long>(n);
}

/// forward_half_pruned: rows r2c, columns [0, min(kcut, n1/2)] transformed,
/// bins outside the |mx|, |my| <= kcut square written as +0.
inline std::vector<Cplx> forward_half(const std::vector<double>& g, std::size_t n0,
                                      std::size_t n1, std::size_t kcut) {
  const std::size_t nh = n1 / 2 + 1, cols = std::min(kcut, n1 / 2) + 1;
  const Rfft1D rrow(n1);
  std::vector<Cplx> h(n0 * nh);
  for (std::size_t i = 0; i < n0; ++i)
    rrow.forward(std::span<const double>(g).subspan(i * n1, n1),
                 std::span<Cplx>(h).subspan(i * nh, nh));
  columns(h, n0, nh, cols, /*inverse=*/false);
  const long rowcut = static_cast<long>(std::min(kcut, n0 / 2));
  for (std::size_t i = 0; i < n0; ++i)
    for (std::size_t j = 0; j < nh; ++j)
      if (j >= cols || std::labs(wavenumber(i, n0)) > rowcut) h[i * nh + j] = Cplx(0.0, 0.0);
  return h;
}

/// inverse_half_pruned: columns [0, cols) of `spec` (row stride ld)
/// inverse-transformed, the remaining half-spectrum bins +0, rows c2r. With
/// ld = n1 it reads the non-redundant half of a full-layout spectrum.
inline std::vector<double> inverse_half(const std::vector<Cplx>& spec, std::size_t ld,
                                        std::size_t n0, std::size_t n1, std::size_t kcut) {
  const std::size_t nh = n1 / 2 + 1, cols = std::min(kcut, n1 / 2) + 1;
  std::vector<Cplx> h(n0 * nh, Cplx(0.0, 0.0));
  for (std::size_t i = 0; i < n0; ++i)
    for (std::size_t j = 0; j < cols; ++j) h[i * nh + j] = spec[i * ld + j];
  columns(h, n0, nh, cols, /*inverse=*/true);
  const Rfft1D rrow(n1);
  std::vector<double> g(n0 * n1);
  for (std::size_t i = 0; i < n0; ++i)
    rrow.inverse_inplace(std::span<Cplx>(h).subspan(i * nh, nh),
                         std::span<double>(g).subspan(i * n1, n1));
  return g;
}

/// Real grid -> full Hermitian-redundant n0 x n1 spectrum: the unpruned half
/// spectrum expanded through X(-my, -mx) = conj(X(my, mx)).
inline std::vector<Cplx> forward_full(const std::vector<double>& g, std::size_t n0,
                                      std::size_t n1) {
  const std::size_t nh = n1 / 2 + 1;
  const auto h = forward_half(g, n0, n1, std::max(n0, n1));
  std::vector<Cplx> full(n0 * n1);
  for (std::size_t i = 0; i < n0; ++i)
    for (std::size_t j = 0; j < n1; ++j)
      full[i * n1 + j] = j < nh ? h[i * nh + j] : std::conj(h[((n0 - i) % n0) * nh + n1 - j]);
  return full;
}

/// Complex 2-D transform of an n0 x n1 array: one Fft1D per row, then per
/// column (the inverse carries the 1/(n0 n1) factor).
inline std::vector<Cplx> complex2d(std::vector<Cplx> x, std::size_t n0, std::size_t n1,
                                   bool inverse) {
  const Fft1D row(n1);
  for (std::size_t i = 0; i < n0; ++i) {
    const std::span<Cplx> r(x.data() + i * n1, n1);
    if (inverse) {
      row.inverse(r);
    } else {
      row.forward(r);
    }
  }
  columns(x, n0, n1, n1, inverse);
  return x;
}

}  // namespace turbda::fft::oracle
