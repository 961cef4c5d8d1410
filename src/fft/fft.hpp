// Fast Fourier transforms for the spectral SQG solver.
//
// Iterative radix-2 Cooley–Tukey with per-stage contiguous twiddle tables and
// specialized length-2/4 stages (power-of-two sizes; the paper's grids are
// 64, 128, 256). Real grids go through a half-spectrum real transform
// (Rfft1D): an n-point r2c/c2r costs one n/2-point complex FFT plus an O(n)
// Hermitian (un)packing pass — half the flops and memory traffic of the
// complex round trip. 2-D transforms never transpose: the row step writes
// (forward) or gathers (inverse) each row at its bit-reversed position in a
// row-major scratch block, and one column pass then runs every butterfly
// stage down the columns in place, two columns per SIMD vector with one
// broadcast twiddle per row pair. Each element sees exactly the arithmetic of
// the 1-D transform of its column, so the result is bitwise that of a
// transpose + per-column Fft1D. Every transform runs serially on the calling
// thread: the ensemble forecast parallelizes across members, which are
// independent, never inside one transform. Convention matches numpy: forward
// unnormalized, inverse carries the 1/N factor — so does the sqgturb
// reference implementation the paper follows.
#pragma once

#include <complex>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "fft/simd_kernels.hpp"

namespace turbda::fft {

using Cplx = std::complex<double>;

/// 1-D complex FFT plan of fixed power-of-two length.
class Fft1D {
 public:
  explicit Fft1D(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }

  /// In-place forward DFT: X[k] = sum_j x[j] exp(-2πi jk / n).
  void forward(std::span<Cplx> x) const { transform(x, /*inverse=*/false); }

  /// In-place inverse DFT with 1/n normalization.
  void inverse(std::span<Cplx> x) const { transform(x, /*inverse=*/true); }

  /// Bit-reversal permutation of this plan's length (an involution).
  [[nodiscard]] std::size_t bitrev(std::size_t i) const { return bitrev_[i]; }

  /// This plan's transform applied in place down `width` columns of a
  /// row-major block of size() rows with row stride `ld` (both in complex
  /// elements, width even, width <= ld). The rows must already be in
  /// bit-reversed order — row p holds input row bitrev(p) — and come out in
  /// natural order. Every element sees exactly the arithmetic of
  /// forward()/inverse() on its column, so results are bitwise those of the
  /// per-column 1-D transform at every SIMD level.
  void transform_columns(Cplx* rows, std::size_t ld, std::size_t width, bool inverse) const;

 private:
  void transform(std::span<Cplx> x, bool inverse) const;
  /// Walks the stages from 3 on: fused radix-2² pairs, then the odd
  /// remaining radix-2 stage — radix4(half, tw, tw1) / radix2(half, tw).
  template <class Radix4, class Radix2>
  void general_stages(bool inverse, Radix4&& radix4, Radix2&& radix2) const;

  std::size_t n_;
  int log2n_;
  std::vector<std::size_t> bitrev_;
  // Per-stage twiddles for stage lengths >= 8, contiguous per stage:
  // stage_fwd_[s][k] = exp(-2πi k / 2^s), k < 2^(s-1). Stages 1 and 2
  // (butterfly lengths 2 and 4) use exact ±1/±i factors and carry no tables.
  std::vector<std::vector<Cplx>> stage_fwd_, stage_inv_;
};

/// 1-D real-to-complex / complex-to-real FFT plan (half-spectrum, Hermitian
/// packing). Length must be an even power of two (>= 2); odd sizes are
/// rejected. The spectrum holds the n/2 + 1 non-redundant bins X[0..n/2];
/// the remaining bins of the full transform follow from X[n-k] = conj(X[k]).
class Rfft1D {
 public:
  explicit Rfft1D(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::size_t spec_size() const { return n_ / 2 + 1; }

  /// Forward r2c (unnormalized): x is n real samples, spec receives the
  /// n/2 + 1 half-spectrum bins.
  void forward(std::span<const double> x, std::span<Cplx> spec) const;

  /// Inverse c2r with the 1/n factor. `spec` must be the half spectrum of a
  /// real signal (imaginary parts of bins 0 and n/2 are ignored round-off).
  void inverse(std::span<const Cplx> spec, std::span<double> x) const;

  /// As inverse(), but reuses `spec` as scratch (contents are destroyed).
  void inverse_inplace(std::span<Cplx> spec, std::span<double> x) const;

 private:
  std::size_t n_, h_;  // h_ = n/2
  Fft1D half_;
  std::vector<Cplx> w_;  // exp(-2πi k / n), k <= n/4
};

/// 2-D real FFT plan over row-major (n0 x n1) grids (n1 >= 2: rows go
/// through the r2c transform). Spectra use the packed non-redundant half
/// layout: row-major n0 x (n1/2 + 1), where bin (i, j) holds wavenumber
/// (my, mx) with my = i for i <= n0/2 else i - n0, and mx = j >= 0. The
/// mirrored bins follow from X(-my, -mx) = conj(X(my, mx)). This is the
/// layout the SQG solver stores its state in.
///
/// The *_pruned variants additionally exploit a square spectral truncation
/// |mx| <= kcut, |my| <= kcut (the SQG 2/3 dealias rule): the column pass
/// runs over the kcut + 1 retained columns only (rounded up to an even
/// count), the forward writes exact zeros to the truncated bins (the
/// truncation comes for free), and the inverse treats the bins the caller
/// guarantees are zero as zeros. Both skip roughly a third of the column
/// butterfly work at kcut = n/3.
class Fft2D {
 public:
  Fft2D(std::size_t n0, std::size_t n1);

  [[nodiscard]] std::size_t rows() const { return n0_; }
  [[nodiscard]] std::size_t cols() const { return n1_; }

  /// Packed half-spectrum shape: n0 x (n1/2 + 1).
  [[nodiscard]] std::size_t half_cols() const { return n1_ / 2 + 1; }
  [[nodiscard]] std::size_t half_size() const { return n0_ * half_cols(); }

  /// Real grid -> packed half spectrum (n0 x (n1/2+1), layout above).
  void forward_half(std::span<const double> grid, std::span<Cplx> hspec) const;

  /// Packed half spectrum -> real grid. `hspec` must be the (possibly
  /// conjugate-symmetrically scaled) half spectrum of a real field; it is
  /// not modified.
  void inverse_half(std::span<const Cplx> hspec, std::span<double> grid) const;

  /// As forward_half, but computes only the bins with |mx| <= kcut and
  /// |my| <= kcut and writes exact zeros to the rest — the column pass
  /// skips the truncated mx > kcut columns entirely.
  void forward_half_pruned(std::span<const double> grid, std::span<Cplx> hspec,
                           std::size_t kcut) const;

  /// As inverse_half, but the column pass runs over the mx <= kcut columns
  /// only and the mx > kcut bins enter the row c2r as exact zeros. The
  /// caller must guarantee hspec is zero outside the |mx| <= kcut,
  /// |my| <= kcut square (e.g. a spectrum produced by forward_half_pruned,
  /// scaled pointwise); the |my| > kcut rows of the retained columns are
  /// transformed as they are.
  void inverse_half_pruned(std::span<const Cplx> hspec, std::span<double> grid,
                           std::size_t kcut) const;

 private:
  /// Rows r2c into the per-thread scratch (bit-reversed row order, row
  /// stride scratch_ld(half_cols())), then the forward column pass over the
  /// first `cols` columns. Returns the scratch, n0 x half_cols() in natural
  /// order; only the first `cols` columns are transformed.
  const Cplx* real_forward_rows(std::span<const double> grid, std::size_t cols) const;
  /// Gathers columns [0, cols) of the half spectrum into the scratch in
  /// bit-reversed row order, runs the inverse column pass, zeroes columns
  /// [cols, half_cols()) and runs the rows c2r into `grid`.
  void real_inverse_rows(const Cplx* hspec, std::size_t cols, std::span<double> grid) const;
  void half_forward_impl(std::span<const double> grid, std::span<Cplx> hspec,
                         std::size_t kcut) const;
  void half_inverse_impl(std::span<const Cplx> hspec, std::span<double> grid,
                         std::size_t kcut) const;

  std::size_t n0_, n1_;
  Fft1D col_;
  Rfft1D rrow_;
};

}  // namespace turbda::fft
