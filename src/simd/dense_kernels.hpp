// Runtime-dispatched small-dense kernels for the ensemble-space hot loops.
//
// The sequential Jacobi eigensolver and the EnSF/LETKF elementwise updates
// reduce to three primitive loops over contiguous rows: a Givens rotation of
// two rows and two scale/shift forms. Like the FFT tables, each primitive
// (and every lane-batched entry below) is written once against the portable
// simd::Vec API (dense_kernels_impl.hpp) and instantiated per backend
// behind a table of function pointers keyed by the process-global
// simd::SimdLevel.
//
// Determinism contract: every kernel vectorizes over independent output
// lanes and accumulates sequentially over the reduction index — no lane
// reduction trees — so the Scalar and Avx2 tables are bitwise identical,
// and results never depend on thread count. The Avx2Fma table contracts
// multiplies into FMAs (~1 ulp per accumulation step).
//
// The lane-batched b* entries carry every LETKF local solve (Gram builds,
// GEMVs and small GEMMs of the weight algebra, posterior combine, Jacobi
// sweeps). They flip the vectorization axis: instead of vectorizing one
// problem's output row, they advance kLaneBatch independent problems in
// lockstep, one problem per Vec lane, over lane-interleaved
// structure-of-arrays buffers (logical element e of problem l lives at
// ptr[e * kLaneBatch + l]). Per lane they perform the exact IEEE operation
// sequence of the one-problem loop at the same dispatch level — including
// the fused steps of the Avx2Fma table — so a lane's result never depends on
// what shares its batch, bjacobi_sweeps is bitwise identical to the
// sequential jacobi_eigh at EVERY level, and every Vec op is fully occupied
// regardless of the problem size.
#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/dispatch.hpp"

namespace turbda::simd {

/// Problems per lane-batched kernel call (== Vec::kWidth of both backends).
inline constexpr std::size_t kLaneBatch = 4;

struct DenseKernels {
  /// Givens rotation of two contiguous rows:
  /// (p[i], q[i]) <- (c*p[i] - s*q[i], s*p[i] + c*q[i]).
  void (*rot_rows)(double* p, double* q, std::size_t n, double c, double s);
  /// out[i] = alpha * in[i].
  void (*scale)(double* out, const double* in, std::size_t n, double alpha);
  /// out[i] = shift + alpha * in[i].
  void (*scale_shift)(double* out, const double* in, std::size_t n, double alpha, double shift);

  // ---- Lane-batched entries: kLaneBatch problems, lane-interleaved SoA ----

  /// Lane-batched rank-k row update, with ldx/ldy/k/m in logical elements
  /// (byte strides are kLaneBatch times larger): for each problem l,
  /// acc[j] += sum_i x[i*ldx]*y[i*ldy+j] for j in [0, m), sequential over i.
  /// One Vec op per logical element, fully occupied for any row length m.
  void (*baccum_rows)(double* acc, const double* x, std::size_t ldx, const double* y,
                      std::size_t ldy, std::size_t k, std::size_t m);
  /// Lane-batched scale with a per-lane factor: out[j] = alpha[lane]*in[j].
  void (*bscale)(double* out, const double* in, std::size_t n, const double* alpha);
  /// Lane-batched scale_shift with a shared factor and a per-lane shift:
  /// out[j] = shift[lane] + alpha*in[j].
  void (*bscale_shift)(double* out, const double* in, std::size_t n, double alpha,
                       const double* shift);
  /// Masked lane-batched cyclic-by-rows Jacobi sweep loop: kLaneBatch
  /// symmetric n x n problems (lane-interleaved in `m`, eigenvector rows
  /// accumulated into `vt`, pre-seeded to per-lane identity) advance through
  /// the data-independent rotation schedule in lockstep. Per-lane skip and
  /// convergence masks (thresholds tol_sq/skip_sq per lane) blend each
  /// lane's values bit-unchanged once it is done, so every lane reproduces
  /// the sequential jacobi_eigh arithmetic exactly. Outputs per lane: sweep
  /// count, final off-diagonal Frobenius norm squared, and a convergence
  /// flag (a lane that exhausts max_sweeps simply reports 0; policy is the
  /// caller's). Unused lanes: give them finite content (e.g. zeros) and an
  /// infinite tol_sq so they converge at entry and are never touched.
  void (*bjacobi_sweeps)(double* m, double* vt, std::size_t n, int max_sweeps,
                         const double* tol_sq, const double* skip_sq, int* sweeps,
                         double* off_sq, std::uint8_t* converged);

  // ---- Contiguous elementwise helpers (EnSF per-sample updates) ----

  /// out[i] += alpha * in[i].
  void (*axpy)(double* out, const double* in, std::size_t n, double alpha);
  /// out[i] += clamp(alpha * in[i], -lim, +lim), with vmaxpd/vminpd tie
  /// semantics in the clamp.
  void (*clamped_axpy)(double* out, const double* in, std::size_t n, double alpha, double lim);
};

/// Kernel table for the given level; level must be available.
[[nodiscard]] const DenseKernels& dense_kernels_for(SimdLevel level);

/// Table for the active level (detection + TURBDA_SIMD applied on first use).
[[nodiscard]] const DenseKernels& active_dense_kernels();

}  // namespace turbda::simd
