// Generic FFT micro-kernels over the portable simd::Vec API — one kernel
// text instantiated per backend (VecScalar in simd_kernels.cpp, VecAvx2 in
// simd_kernels_avx2.cpp) and per multiply-add mode (kFma).
//
// The lane choreography is identical for every instantiation: four doubles
// per vector, complex numbers as interleaved (re, im) pairs, two complex
// elements per vector. With kFma == false each lane operation is exactly one
// IEEE operation, so the VecScalar and VecAvx2 instantiations are bitwise
// identical; with kFma == true the complex multiplies fuse into
// fmaddsub/fmsubadd (~1 ulp per butterfly from the unfused reference).
//
// The Rfft1D pack/unpack scalar remainder loops repeat the pre-SIMD scalar
// arithmetic verbatim; every TU including this header is compiled with
// -ffp-contract=off and auto-vectorization off (see CMakeLists.txt) so the
// compiler cannot contract or re-vectorize them.
#pragma once

#include <cstddef>

#include "simd/vec.hpp"

namespace turbda::fft::detail {

using simd::cmul;
using simd::cmul_conj;

/// Stages of butterfly length 2 and 4 fused (exact ±1/±i twiddles). Per
/// 4-complex block: A = [z0+z1 | z0-z1], D = [z2+z3 | -+i (z2-z3)],
/// outputs A±D.
template <class V>
void pass_first_impl(double* d, std::size_t n2, double isign) {
  const V rot = V::lanes(1.0, 1.0, -isign, isign);
  for (std::size_t base = 0; base < n2; base += 8) {
    double* p = d + base;
    const V r0 = V::loadu(p);
    const V r1 = V::loadu(p + 4);
    const V sw0 = r0.swap_halves();
    const V sw1 = r1.swap_halves();
    const V s0 = r0 + sw0, d0 = r0 - sw0;
    const V s1 = r1 + sw1, d1 = r1 - sw1;
    const V a = V::concat_lo(s0, d0);                        // [a0 | a1]
    const V c = V::concat_lo(s1, d1);                        // [a2 | a3]
    const V cs = c.swap_pairs();                             // [a2 im/re | a3 im/re]
    const V dd = V::template blend<0b1100>(c, cs * rot);     // [a2 | b3]
    (a + dd).storeu(p);
    (a - dd).storeu(p + 4);
  }
}

/// Radix-2² butterfly (stages s and s+1) on one vector of each of the four
/// quarter blocks p0..p3: stage-s twiddle w, stage-(s+1) twiddles v0 (for
/// p0/p2) and v1 (for p1/p3). Shared by the 1-D and column passes.
template <class V, bool kFma>
inline void radix4_butterfly(double* p0, double* p1, double* p2, double* p3, V w, V v0, V v1) {
  const V a = V::loadu(p0);
  const V b = V::loadu(p1);
  const V c = V::loadu(p2);
  const V e = V::loadu(p3);
  const V tb = cmul<kFma>(w, b);
  const V td = cmul<kFma>(w, e);
  const V ua = a + tb, ub = a - tb;
  const V uc = c + td, ud = c - td;
  const V tc = cmul<kFma>(v0, uc);
  const V te = cmul<kFma>(v1, ud);
  (ua + tc).storeu(p0);
  (ua - tc).storeu(p2);
  (ub + te).storeu(p1);
  (ub - te).storeu(p3);
}

/// Radix-2 butterfly on one vector of the low and high halves.
template <class V, bool kFma>
inline void radix2_butterfly(double* lo, double* hi, V w) {
  const V h = V::loadu(hi);
  const V u = V::loadu(lo);
  const V t = cmul<kFma>(w, h);
  (u + t).storeu(lo);
  (u - t).storeu(hi);
}

/// Fused radix-2² pass (stages s and s+1); half >= 4 and even, so the
/// two-complex-per-iteration loop has no tail.
template <class V, bool kFma>
void pass_radix4_impl(double* d, std::size_t n, std::size_t half, const double* tw,
                      const double* tw1) {
  const std::size_t len4 = 4 * half;
  for (std::size_t base = 0; base < n; base += len4) {
    double* p0 = d + 2 * base;
    double* p1 = p0 + 2 * half;
    double* p2 = p1 + 2 * half;
    double* p3 = p2 + 2 * half;
    for (std::size_t k = 0; k < half; k += 2)
      radix4_butterfly<V, kFma>(p0 + 2 * k, p1 + 2 * k, p2 + 2 * k, p3 + 2 * k,
                                V::loadu(tw + 2 * k), V::loadu(tw1 + 2 * k),
                                V::loadu(tw1 + 2 * (k + half)));
  }
}

/// Single radix-2 pass (the odd remaining stage); half >= 4 and even.
template <class V, bool kFma>
void pass_radix2_impl(double* d, std::size_t n, std::size_t half, const double* tw) {
  for (std::size_t base = 0; base < n; base += 2 * half) {
    double* lo = d + 2 * base;
    double* hi = lo + 2 * half;
    for (std::size_t k = 0; k < half; k += 2)
      radix2_butterfly<V, kFma>(lo + 2 * k, hi + 2 * k, V::loadu(tw + 2 * k));
  }
}

// Column passes: the same stages run down the columns of a row-major block
// of `rows` rows (row stride ld doubles, rows already in bit-reversed
// order), over w2 doubles of each row — two complex columns per vector, w2 a
// multiple of 4. The row index plays the 1-D element index, so a vector
// holds one element of two adjacent column transforms, one broadcast
// twiddle serves a whole row pair, and every element sees exactly the
// arithmetic of the 1-D pass above.

/// Stages of butterfly length 2 and 4 fused over row quadruples (the 1-D
/// pass_first per element); rows == 2 runs the lone length-2 butterfly.
template <class V>
void col_first_impl(double* d, std::size_t ld, std::size_t rows, std::size_t w2, double isign) {
  if (rows == 2) {
    for (std::size_t c = 0; c < w2; c += 4) {
      const V u = V::loadu(d + c);
      const V t = V::loadu(d + ld + c);
      (u + t).storeu(d + c);
      (u - t).storeu(d + ld + c);
    }
    return;
  }
  const V rot = V::lanes(-isign, isign, -isign, isign);
  for (std::size_t q = 0; q < rows; q += 4) {
    double* p0 = d + q * ld;
    double* p1 = p0 + ld;
    double* p2 = p1 + ld;
    double* p3 = p2 + ld;
    for (std::size_t c = 0; c < w2; c += 4) {
      const V z0 = V::loadu(p0 + c);
      const V z1 = V::loadu(p1 + c);
      const V z2 = V::loadu(p2 + c);
      const V z3 = V::loadu(p3 + c);
      const V a0 = z0 + z1, a1 = z0 - z1;
      const V a2 = z2 + z3, a3 = z2 - z3;
      const V b3 = a3.swap_pairs() * rot;  // (-+i) * a3
      (a0 + a2).storeu(p0 + c);
      (a1 + b3).storeu(p1 + c);
      (a0 - a2).storeu(p2 + c);
      (a1 - b3).storeu(p3 + c);
    }
  }
}

/// Fused radix-2² pass (stages s and s+1) down the columns; any half >= 1.
template <class V, bool kFma>
void col_radix4_impl(double* d, std::size_t ld, std::size_t rows, std::size_t w2,
                     std::size_t half, const double* tw, const double* tw1) {
  for (std::size_t base = 0; base < rows; base += 4 * half) {
    for (std::size_t k = 0; k < half; ++k) {
      double* p0 = d + (base + k) * ld;
      double* p1 = p0 + half * ld;
      double* p2 = p1 + half * ld;
      double* p3 = p2 + half * ld;
      const V w = V::broadcast_pair(tw + 2 * k);
      const V v0 = V::broadcast_pair(tw1 + 2 * k);
      const V v1 = V::broadcast_pair(tw1 + 2 * (k + half));
      for (std::size_t c = 0; c < w2; c += 4)
        radix4_butterfly<V, kFma>(p0 + c, p1 + c, p2 + c, p3 + c, w, v0, v1);
    }
  }
}

/// Single radix-2 pass down the columns; any half >= 1.
template <class V, bool kFma>
void col_radix2_impl(double* d, std::size_t ld, std::size_t rows, std::size_t w2,
                     std::size_t half, const double* tw) {
  for (std::size_t base = 0; base < rows; base += 2 * half) {
    for (std::size_t k = 0; k < half; ++k) {
      double* lo = d + (base + k) * ld;
      double* hi = lo + half * ld;
      const V w = V::broadcast_pair(tw + 2 * k);
      for (std::size_t c = 0; c < w2; c += 4) radix2_butterfly<V, kFma>(lo + c, hi + c, w);
    }
  }
}

/// Inverse normalization: every element of the block times `scale` (the
/// component-wise product std::complex *= double performs).
template <class V>
void col_scale_impl(double* d, std::size_t ld, std::size_t rows, std::size_t w2, double scale) {
  const V s = V::broadcast(scale);
  for (std::size_t r = 0; r < rows; ++r) {
    double* p = d + r * ld;
    for (std::size_t c = 0; c < w2; c += 4) (V::loadu(p + c) * s).storeu(p + c);
  }
}

// Rfft1D Hermitian pack/unpack. Bins k and h-k are updated together; the
// vector loop walks two bins from each end per iteration (the mirrored pair
// is loaded/stored through one 128-bit-half swap), and hands the last one or
// two middle bins to a scalar remainder with the identical arithmetic.

/// Forward combine X[k] = E[k] + w^k O[k], X[h-k] = conj(E[k] - w^k O[k])
/// with E, O the even/odd-sample transforms recovered from the half-length
/// spectrum: E = (Z[k] + conj(Z[h-k]))/2, O = -i (Z[k] - conj(Z[h-k]))/2.
template <class V, bool kFma>
void rfft_pack_impl(double* s, const double* w, std::size_t h) {
  const V half_v = V::broadcast(0.5);
  std::size_t k = 1;
  for (; 2 * k + 2 < h; k += 2) {
    const std::size_t mbase = 2 * (h - k - 1);
    const V fwd = V::loadu(s + 2 * k);
    const V mir = V::loadu(s + mbase).swap_halves();  // [z(h-k) | z(h-k-1)]
    const V e = half_v * (fwd + mir.conj());
    const V fwds = fwd.swap_pairs();
    const V mirs = mir.swap_pairs();
    const V o = half_v * V::addsub(mirs, fwds.neg());
    const V t = cmul<kFma>(V::loadu(w + 2 * k), o);
    const V outk = e + t;
    // Mirror bin (er - tr, ti - ei): negating the (e - t) subtraction would
    // flip the sign of an exactly-zero imaginary lane (-(x - x) is -0.0,
    // ti - ei is +0.0), so build it as an addsub of negated operands — x +
    // (-y) is the same IEEE operation as x - y, keeping the unfused
    // reference bitwise.
    const V x = V::template blend<0b1010>(e, t);        // [er ti | ...]
    const V y = V::template blend<0b1010>(t, e.neg());  // [tr -ei | ...]
    const V outkc = V::addsub(x, y);
    outk.storeu(s + 2 * k);
    outkc.swap_halves().storeu(s + mbase);
  }
  for (; k < h - k; ++k) {  // scalar remainder, same arithmetic
    const std::size_t kc = h - k;
    const double zkr = s[2 * k], zki = s[2 * k + 1];
    const double zcr = s[2 * kc], zci = s[2 * kc + 1];
    const double er = 0.5 * (zkr + zcr), ei = 0.5 * (zki - zci);
    const double or_ = 0.5 * (zki + zci), oi = 0.5 * (zcr - zkr);
    const double wr = w[2 * k], wi = w[2 * k + 1];
    const double tr = wr * or_ - wi * oi, ti = wr * oi + wi * or_;
    s[2 * k] = er + tr;
    s[2 * k + 1] = ei + ti;
    s[2 * kc] = er - tr;
    s[2 * kc + 1] = ti - ei;
  }
}

/// Inverse of the combine: recover E and w^k O from X[k], X[h-k], undo the
/// twiddle with conj(w), and store Z[k] = E + iO, Z[h-k] = conj(E) + i conj(O).
template <class V, bool kFma>
void rfft_unpack_impl(double* s, const double* w, std::size_t h) {
  const V half_v = V::broadcast(0.5);
  std::size_t k = 1;
  for (; 2 * k + 2 < h; k += 2) {
    const std::size_t mbase = 2 * (h - k - 1);
    const V fwd = V::loadu(s + 2 * k);
    const V mir = V::loadu(s + mbase).swap_halves();
    const V e = half_v * V::addsub(fwd, mir.neg());
    const V ot = half_v * V::addsub(fwd, mir);
    const V o = cmul_conj<kFma>(V::loadu(w + 2 * k), ot);
    const V os = o.swap_pairs();  // [oi or_ | ...]
    const V outk = V::addsub(e, os);
    const V x = V::template blend<0b1010>(e, os);  // [er or_ | ...]
    const V y = V::template blend<0b1010>(os, e);  // [oi ei | ...]
    const V outkc = V::addsub(x, y.neg());
    outk.storeu(s + 2 * k);
    outkc.swap_halves().storeu(s + mbase);
  }
  for (; k < h - k; ++k) {  // scalar remainder, same arithmetic
    const std::size_t kc = h - k;
    const double ar = s[2 * k], ai = s[2 * k + 1];
    const double br = s[2 * kc], bi = s[2 * kc + 1];
    const double er = 0.5 * (ar + br), ei = 0.5 * (ai - bi);
    const double otr = 0.5 * (ar - br), oti = 0.5 * (ai + bi);
    const double wr = w[2 * k], wi = w[2 * k + 1];
    const double or_ = wr * otr + wi * oti, oi = wr * oti - wi * otr;
    s[2 * k] = er - oi;
    s[2 * k + 1] = ei + or_;
    s[2 * kc] = er + oi;
    s[2 * kc + 1] = or_ - ei;
  }
}

}  // namespace turbda::fft::detail
