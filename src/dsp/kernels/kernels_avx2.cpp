// AVX2 kernel table (4-wide double). Every loop reproduces the canonical
// scalar table's arithmetic bit-for-bit: the striped dot keeps residues
// 0..3 in one accumulator vector and 4..7 in a second, the one-pole
// block-scan maps each scalar lane expression onto one vector lane, the
// look-ahead biquad runs its four independent chains in the four lanes, and
// the FDTD stencils are straight per-lane transcriptions. Only separate
// _mm256_mul_pd/_mm256_add_pd are used — never an FMA intrinsic — and the
// TU is compiled with -ffp-contract=off, so the compiler cannot fuse one in
// behind our back.

#include <array>
#include <cmath>
#include <immintrin.h>

#include "dsp/kernels/kernels_detail.hpp"

namespace ecocap::dsp::kernels::detail::avx2 {

namespace {

/// Combine the two striped accumulators exactly as the scalar table does:
/// t[k] = s[k] + s[k+4], then (t0 + t1) + (t2 + t3).
inline Real stripe_combine(__m256d lo, __m256d hi) {
  const __m256d t = _mm256_add_pd(lo, hi);
  alignas(32) Real tmp[4];
  _mm256_store_pd(tmp, t);
  return (tmp[0] + tmp[1]) + (tmp[2] + tmp[3]);
}

}  // namespace

Real dot(const Real* a, const Real* b, std::size_t n) {
  __m256d lo = _mm256_setzero_pd();  // s0..s3
  __m256d hi = _mm256_setzero_pd();  // s4..s7
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    lo = _mm256_add_pd(
        lo, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
    hi = _mm256_add_pd(hi, _mm256_mul_pd(_mm256_loadu_pd(a + i + 4),
                                         _mm256_loadu_pd(b + i + 4)));
  }
  Real r = stripe_combine(lo, hi);
  for (; i < n; ++i) r += a[i] * b[i];
  return r;
}

void correlate_valid(const Real* x, std::size_t nx, const Real* h,
                     std::size_t nh, Real* out) {
  // Each lag is an independent striped dot, so out[k] matches the scalar
  // table exactly; the window data stays hot in L1/L2 across lags.
  const std::size_t out_len = nx - nh + 1;
  for (std::size_t k = 0; k < out_len; ++k) out[k] = dot(x + k, h, nh);
}

void biquad(const Real* x, Real* y, std::size_t n, const BiquadCoeffs& c,
            BiquadState& s) {
  // Lane l of step t computes output 4t + l. sK holds the inputs x[n-K] of
  // the four lanes: s0 is the fresh load, s4 and s8 the two before it, and
  // the odd and two-apart shifts are cut from neighbouring vectors, so no
  // slot is read back after the in-place store. s1..s4 of one step are
  // s5..s8 of the next; y4 and y8 are the last two output vectors.
  const std::size_t nv = n & ~std::size_t{3};
  if (nv > 0) {
    const auto k = [](Real v) { return _mm256_set1_pd(v); };
    const __m256d g0 = k(c.g[0]), g1 = k(c.g[1]), g2 = k(c.g[2]);
    const __m256d g3 = k(c.g[3]), g4 = k(c.g[4]), g5 = k(c.g[5]);
    const __m256d g6 = k(c.g[6]), g7 = k(c.g[7]), g8 = k(c.g[8]);
    const __m256d a4 = k(c.a4), a8 = k(c.a8);
    __m256d s8 = _mm256_loadu_pd(s.x);
    __m256d s4 = _mm256_loadu_pd(s.x + 4);
    __m256d s6 = _mm256_permute2f128_pd(s8, s4, 0x21);
    __m256d s5 = _mm256_shuffle_pd(s6, s4, 0x5);
    __m256d s7 = _mm256_shuffle_pd(s8, s6, 0x5);
    __m256d y8 = _mm256_loadu_pd(s.y);
    __m256d y4 = _mm256_loadu_pd(s.y + 4);
    for (std::size_t i = 0; i < nv; i += 4) {
      const __m256d s0 = _mm256_loadu_pd(x + i);
      const __m256d s2 = _mm256_permute2f128_pd(s4, s0, 0x21);
      const __m256d s1 = _mm256_shuffle_pd(s2, s0, 0x5);
      const __m256d s3 = _mm256_shuffle_pd(s4, s2, 0x5);
      const __m256d f = _mm256_add_pd(
          _mm256_add_pd(
              _mm256_add_pd(_mm256_mul_pd(g0, s0), _mm256_mul_pd(g1, s1)),
              _mm256_add_pd(_mm256_mul_pd(g2, s2), _mm256_mul_pd(g3, s3))),
          _mm256_add_pd(
              _mm256_add_pd(_mm256_mul_pd(g4, s4), _mm256_mul_pd(g5, s5)),
              _mm256_add_pd(_mm256_mul_pd(g6, s6), _mm256_mul_pd(g7, s7))));
      const __m256d yv = _mm256_sub_pd(
          _mm256_sub_pd(_mm256_add_pd(f, _mm256_mul_pd(g8, s8)),
                        _mm256_mul_pd(a8, y8)),
          _mm256_mul_pd(a4, y4));
      _mm256_storeu_pd(y + i, yv);
      s8 = s4;
      s7 = s3;
      s6 = s2;
      s5 = s1;
      s4 = s0;
      y8 = y4;
      y4 = yv;
    }
    _mm256_storeu_pd(s.x, s8);
    _mm256_storeu_pd(s.x + 4, s4);
    _mm256_storeu_pd(s.y, y8);
    _mm256_storeu_pd(s.y + 4, y4);
  }
  if (nv < n) scalar::biquad(x + nv, y + nv, n - nv, c, s);
}

namespace {

/// Vectorized block-scan core shared by onepole and envelope. One vector
/// lane computes one scalar lane expression of kernels_scalar.cpp:
///   c = (w0*u + w1*u<<1) + (w2*u<<2 + w3*u<<3),  y = c + [p,p2,p3,p4]*yp
/// where u<<k is u shifted toward higher lanes with zero fill, reproducing
/// the u_{<0} = 0 terms.
template <bool kRectify>
inline void onepole_scan_avx2(const Real* x, Real* y, std::size_t n,
                              Real alpha, Real* state) {
  const Real p = 1.0 - alpha;
  const Real p2 = p * p;
  const Real p3 = p2 * p;
  const Real p4 = p2 * p2;
  const Real w0 = alpha;
  const Real w1 = p * alpha;
  const Real w2 = p2 * alpha;
  const Real w3 = p3 * alpha;
  const __m256d pv = _mm256_setr_pd(p, p2, p3, p4);
  const __m256d w0v = _mm256_set1_pd(w0);
  const __m256d w1v = _mm256_set1_pd(w1);
  const __m256d w2v = _mm256_set1_pd(w2);
  const __m256d w3v = _mm256_set1_pd(w3);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffll));
  Real yp = *state;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d u = _mm256_loadu_pd(x + i);
    if (kRectify) u = _mm256_and_pd(u, abs_mask);
    // u shifted toward higher lanes: [0,u0,u1,u2], [0,0,u0,u1], [0,0,0,u0].
    const __m256d u1 = _mm256_blend_pd(
        _mm256_permute4x64_pd(u, _MM_SHUFFLE(2, 1, 0, 0)), zero, 0x1);
    const __m256d u2 = _mm256_blend_pd(
        _mm256_permute4x64_pd(u, _MM_SHUFFLE(1, 0, 0, 0)), zero, 0x3);
    const __m256d u3 = _mm256_blend_pd(
        _mm256_permute4x64_pd(u, _MM_SHUFFLE(0, 0, 0, 0)), zero, 0x7);
    const __m256d c =
        _mm256_add_pd(_mm256_add_pd(_mm256_mul_pd(w0v, u), _mm256_mul_pd(w1v, u1)),
                      _mm256_add_pd(_mm256_mul_pd(w2v, u2), _mm256_mul_pd(w3v, u3)));
    const __m256d yv =
        _mm256_add_pd(c, _mm256_mul_pd(pv, _mm256_set1_pd(yp)));
    _mm256_storeu_pd(y + i, yv);
    alignas(32) Real lanes[4];
    _mm256_store_pd(lanes, yv);
    yp = lanes[3];
  }
  for (; i < n; ++i) {
    const Real u = kRectify ? std::fabs(x[i]) : x[i];
    yp = (w0 * u) + (p * yp);
    y[i] = yp;
  }
  *state = yp;
}

}  // namespace

void onepole(const Real* x, Real* y, std::size_t n, Real alpha, Real* state) {
  onepole_scan_avx2<false>(x, y, n, alpha, state);
}

void envelope(const Real* x, Real* y, std::size_t n, Real alpha, Real* state) {
  onepole_scan_avx2<true>(x, y, n, alpha, state);
}

void fdtd_velocity_row(const FdtdVelocityRowArgs& a) {
  const __m256d inv_dx = _mm256_set1_pd(a.inv_dx);
  const __m256d dt = _mm256_set1_pd(a.dt);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = a.i0;
  for (; i + 4 <= a.i1; i += 4) {
    const __m256d sxx = _mm256_loadu_pd(a.sxx + i);
    const __m256d dsxx_dx = _mm256_mul_pd(
        _mm256_sub_pd(sxx, _mm256_loadu_pd(a.sxx + i - 1)), inv_dx);
    const __m256d sxy = _mm256_loadu_pd(a.sxy + i);
    const __m256d dsxy_dy = _mm256_mul_pd(
        _mm256_sub_pd(sxy, _mm256_loadu_pd(a.sxy_dn + i)), inv_dx);
    const __m256d dsxy_dx = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_loadu_pd(a.sxy + i + 1), sxy), inv_dx);
    const __m256d syy = _mm256_loadu_pd(a.syy + i);
    const __m256d dsyy_dy = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_loadu_pd(a.syy_up + i), syy), inv_dx);
    const __m256d inv_rho =
        _mm256_div_pd(one, _mm256_loadu_pd(a.rho + i));
    const __m256d scale = _mm256_mul_pd(dt, inv_rho);
    __m256d fx_sum = _mm256_add_pd(dsxx_dx, dsxy_dy);
    __m256d fy_sum = _mm256_add_pd(dsxy_dx, dsyy_dy);
    if (a.fx != nullptr) {
      fx_sum = _mm256_add_pd(fx_sum, _mm256_loadu_pd(a.fx + i));
      fy_sum = _mm256_add_pd(fy_sum, _mm256_loadu_pd(a.fy + i));
      _mm256_storeu_pd(a.fx + i, zero);
      _mm256_storeu_pd(a.fy + i, zero);
    }
    _mm256_storeu_pd(a.vx + i, _mm256_add_pd(_mm256_loadu_pd(a.vx + i),
                                             _mm256_mul_pd(scale, fx_sum)));
    _mm256_storeu_pd(a.vy + i, _mm256_add_pd(_mm256_loadu_pd(a.vy + i),
                                             _mm256_mul_pd(scale, fy_sum)));
  }
  if (i < a.i1) {
    FdtdVelocityRowArgs tail = a;
    tail.i0 = i;
    scalar::fdtd_velocity_row(tail);
  }
}

void fdtd_stress_row(const FdtdStressRowArgs& a) {
  const __m256d inv_dx = _mm256_set1_pd(a.inv_dx);
  const __m256d dt = _mm256_set1_pd(a.dt);
  const __m256d two = _mm256_set1_pd(2.0);
  std::size_t i = a.i0;
  for (; i + 4 <= a.i1; i += 4) {
    const __m256d vx = _mm256_loadu_pd(a.vx + i);
    const __m256d dvx_dx = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_loadu_pd(a.vx + i + 1), vx), inv_dx);
    const __m256d vy = _mm256_loadu_pd(a.vy + i);
    const __m256d dvy_dy = _mm256_mul_pd(
        _mm256_sub_pd(vy, _mm256_loadu_pd(a.vy_dn + i)), inv_dx);
    const __m256d l = _mm256_loadu_pd(a.lambda + i);
    const __m256d m = _mm256_loadu_pd(a.mu + i);
    const __m256d l2m = _mm256_add_pd(l, _mm256_mul_pd(two, m));
    _mm256_storeu_pd(
        a.sxx + i,
        _mm256_add_pd(_mm256_loadu_pd(a.sxx + i),
                      _mm256_mul_pd(dt, _mm256_add_pd(
                                            _mm256_mul_pd(l2m, dvx_dx),
                                            _mm256_mul_pd(l, dvy_dy)))));
    _mm256_storeu_pd(
        a.syy + i,
        _mm256_add_pd(_mm256_loadu_pd(a.syy + i),
                      _mm256_mul_pd(dt, _mm256_add_pd(
                                            _mm256_mul_pd(l, dvx_dx),
                                            _mm256_mul_pd(l2m, dvy_dy)))));
    const __m256d dvx_dy = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_loadu_pd(a.vx_up + i), vx), inv_dx);
    const __m256d dvy_dx = _mm256_mul_pd(
        _mm256_sub_pd(vy, _mm256_loadu_pd(a.vy + i - 1)), inv_dx);
    _mm256_storeu_pd(
        a.sxy + i,
        _mm256_add_pd(_mm256_loadu_pd(a.sxy + i),
                      _mm256_mul_pd(_mm256_mul_pd(dt, m),
                                    _mm256_add_pd(dvx_dy, dvy_dx))));
  }
  if (i < a.i1) {
    FdtdStressRowArgs tail = a;
    tail.i0 = i;
    scalar::fdtd_stress_row(tail);
  }
}

void sine(Real* x, std::size_t n, Real amplitude) {
  using namespace sine_coeffs;
  const auto k = [](Real c) { return _mm256_set1_pd(c); };
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i two = _mm256_set1_epi64x(2);
  const __m256d amp = k(amplitude);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    const __m256d t = _mm256_add_pd(_mm256_mul_pd(v, k(kInvPio2)),
                                    k(kRoundShift));
    const __m256d fn = _mm256_sub_pd(t, k(kRoundShift));
    const __m256d r =
        _mm256_sub_pd(_mm256_sub_pd(v, _mm256_mul_pd(fn, k(kPio2Hi))),
                      _mm256_mul_pd(fn, k(kPio2Lo)));
    const __m256d z = _mm256_mul_pd(r, r);
    // Horner steps a + z*b, spelled out in the scalar table's order.
    const auto horner = [&](Real a, __m256d b) {
      return _mm256_add_pd(k(a), _mm256_mul_pd(z, b));
    };
    const __m256d ps =
        horner(kS2, horner(kS3, horner(kS4, horner(kS5, k(kS6)))));
    const __m256d s = _mm256_add_pd(
        r, _mm256_mul_pd(_mm256_mul_pd(z, r), horner(kS1, ps)));
    const __m256d pc = _mm256_mul_pd(
        z, horner(kC1,
                  horner(kC2, horner(kC3, horner(kC4, horner(kC5, k(kC6)))))));
    const __m256d c = _mm256_sub_pd(
        k(1.0), _mm256_sub_pd(_mm256_mul_pd(k(0.5), z), _mm256_mul_pd(z, pc)));
    // Quadrant q = low bits of t: odd q takes the cosine, q & 2 the sign.
    const __m256i q = _mm256_castpd_si256(t);
    const __m256d odd = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_and_si256(q, one), one));
    const __m256d sign =
        _mm256_castsi256_pd(_mm256_slli_epi64(_mm256_and_si256(q, two), 62));
    const __m256d y = _mm256_xor_pd(_mm256_blendv_pd(s, c, odd), sign);
    _mm256_storeu_pd(x + i, _mm256_mul_pd(amp, y));
  }
  if (i < n) scalar::sine(x + i, n - i, amplitude);
}

void mt_twist(std::uint64_t* x) {
  using namespace mt_params;
  const __m256i upper = _mm256_set1_epi64x(static_cast<long long>(kUpper));
  const __m256i a = _mm256_set1_epi64x(static_cast<long long>(kA));
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i zero = _mm256_setzero_si256();
  // Four words per step of the scalar recurrence: x[k + 1..k + 4] and the
  // far words are still the values the sequential loop would read (the
  // far words of the second half were rewritten by the first).
  const auto mix4 = [&](std::size_t k, std::size_t far) {
    const __m256i hi = _mm256_loadu_si256(reinterpret_cast<__m256i*>(x + k));
    const __m256i lo =
        _mm256_loadu_si256(reinterpret_cast<__m256i*>(x + k + 1));
    const __m256i f =
        _mm256_loadu_si256(reinterpret_cast<__m256i*>(x + far));
    const __m256i y = _mm256_or_si256(_mm256_and_si256(hi, upper),
                                      _mm256_andnot_si256(upper, lo));
    const __m256i odd =
        _mm256_sub_epi64(zero, _mm256_and_si256(y, one));
    const __m256i out = _mm256_xor_si256(
        _mm256_xor_si256(f, _mm256_srli_epi64(y, 1)),
        _mm256_and_si256(odd, a));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x + k), out);
  };
  static_assert((kN - kM) % 4 == 0);
  std::size_t k = 0;
  for (; k < kN - kM; k += 4) mix4(k, k + kM);
  for (; k + 4 < kN; k += 4) mix4(k, k + kM - kN);
  for (; k < kN - 1; ++k) x[k] = mix(x[k], x[k + 1], x[k + kM - kN]);
  x[kN - 1] = mix(x[kN - 1], x[0], x[kM - 1]);
}

namespace {

/// 2u - 1 for the four words in `z`, u being Mt19937_64::canonical of
/// the tempered word: temper, then the two exact 32-bit halves placed in
/// double mantissas, one rounding, the clamp below 1 (min against
/// nextafter(1, 0) equals the scalar `r < 1 ? r : nextafter(1, 0)` on
/// [0, 1]).
inline __m256d polar_coordinate(__m256i z) {
  const auto c = [](std::uint64_t v) {
    return _mm256_set1_epi64x(static_cast<long long>(v));
  };
  z = _mm256_xor_si256(
      z, _mm256_and_si256(_mm256_srli_epi64(z, 29), c(0x5555555555555555ULL)));
  z = _mm256_xor_si256(
      z, _mm256_and_si256(_mm256_slli_epi64(z, 17), c(0x71d67fffeda60000ULL)));
  z = _mm256_xor_si256(
      z, _mm256_and_si256(_mm256_slli_epi64(z, 37), c(0xfff7eee000000000ULL)));
  z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 43));
  const __m256d hi = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(_mm256_srli_epi64(z, 32), c(0x4530000000000000ULL))),
      _mm256_set1_pd(0x1.00000001p84));
  // Low 32 bits of z under the high 32 bits of 2^52.
  const __m256d lo = _mm256_castsi256_pd(
      _mm256_blend_epi32(z, c(0x4330000000000000ULL), 0xaa));
  const __m256d u = _mm256_min_pd(
      _mm256_mul_pd(_mm256_add_pd(hi, lo), _mm256_set1_pd(0x1p-64)),
      _mm256_set1_pd(0x1.fffffffffffffp-1));
  return _mm256_sub_pd(_mm256_mul_pd(_mm256_set1_pd(2.0), u),
                       _mm256_set1_pd(1.0));
}

/// Lane order of the candidate vectors: unpacking [u0 v0 u1 v1] and
/// [u2 v2 u3 v3] leaves pairs 0 2 1 3 in lanes 0..3 (the order is its own
/// inverse, so it also gives the lane of each pair).
constexpr int kPairLane[4] = {0, 2, 1, 3};

/// For each 4-bit acceptance mask (bit l = lane l), the 32-bit-lane
/// permutation that moves the accepted lanes' doubles to the front in pair
/// order; the remaining slots are don't-cares.
constexpr auto kCompress = [] {
  std::array<std::array<int, 8>, 16> lut{};
  for (int mask = 0; mask < 16; ++mask) {
    int t = 0;
    for (const int lane : kPairLane) {
      if ((mask >> lane) & 1) {
        lut[mask][2 * t] = 2 * lane;
        lut[mask][2 * t + 1] = 2 * lane + 1;
        ++t;
      }
    }
  }
  return lut;
}();

}  // namespace

std::size_t polar_candidates(const std::uint64_t* w, std::size_t pairs,
                             Real* x, Real* y, Real* r2, std::uint64_t* pair) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256i four = _mm256_set1_epi64x(4);
  __m256i idx = _mm256_setr_epi64x(0, 2, 1, 3);  // pair j of each lane
  std::size_t j = 0;
  std::size_t k = 0;
  for (; j + 4 <= pairs; j += 4, idx = _mm256_add_epi64(idx, four)) {
    const __m256d a = polar_coordinate(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + 2 * j)));
    const __m256d b = polar_coordinate(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + 2 * j + 4)));
    const __m256d u = _mm256_unpacklo_pd(a, b);
    const __m256d v = _mm256_unpackhi_pd(a, b);
    const __m256d s =
        _mm256_add_pd(_mm256_mul_pd(u, u), _mm256_mul_pd(v, v));
    const int mask = _mm256_movemask_pd(
        _mm256_and_pd(_mm256_cmp_pd(s, one, _CMP_LE_OQ),
                      _mm256_cmp_pd(s, zero, _CMP_NEQ_OQ)));
    // Store every lane compacted at k; slots past the accepted count are
    // overwritten by the next step (k + 3 <= j + 3 < pairs).
    const __m256i perm = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kCompress[mask].data()));
    const auto compress = [&](__m256d lanes) {
      return _mm256_castps_pd(
          _mm256_permutevar8x32_ps(_mm256_castpd_ps(lanes), perm));
    };
    _mm256_storeu_pd(x + k, compress(u));
    _mm256_storeu_pd(y + k, compress(v));
    _mm256_storeu_pd(r2 + k, compress(s));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(pair + k),
                        _mm256_permutevar8x32_epi32(idx, perm));
    k += static_cast<std::size_t>(__builtin_popcount(mask));
  }
  if (j < pairs) {
    const std::size_t got = scalar::polar_candidates(
        w + 2 * j, pairs - j, x + k, y + k, r2 + k, pair + k);
    for (std::size_t t = k; t < k + got; ++t) pair[t] += j;
    k += got;
  }
  return k;
}

void polar_scale(Real* m, const Real* r2, std::size_t n) {
  using namespace log_coeffs;
  const auto k = [](Real c) { return _mm256_set1_pd(c); };
  const auto c = [](std::uint64_t v) {
    return _mm256_set1_epi64x(static_cast<long long>(v));
  };
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d r = _mm256_loadu_pd(r2 + i);
    const __m256i b = _mm256_castpd_si256(r);
    const __m256i hx = _mm256_and_si256(_mm256_srli_epi64(b, 32), c(0xfffff));
    const __m256i half =
        _mm256_and_si256(_mm256_add_epi64(hx, c(kHalfUp)), c(0x100000));
    const __m256d x = _mm256_castsi256_pd(_mm256_or_si256(
        _mm256_slli_epi64(
            _mm256_or_si256(hx, _mm256_xor_si256(half, c(0x3ff00000))), 32),
        _mm256_and_si256(b, c(0xffffffff))));
    // The biased exponent plus the halving, in [0, 2047], placed in the
    // mantissa of 2^52: subtracting 2^52 + 1023 gives k exactly.
    const __m256i e =
        _mm256_add_epi64(_mm256_srli_epi64(b, 52), _mm256_srli_epi64(half, 20));
    const __m256d kd = _mm256_sub_pd(
        _mm256_castsi256_pd(_mm256_or_si256(e, c(0x4330000000000000ULL))),
        k(0x1p52 + 1023.0));
    const __m256d f = _mm256_sub_pd(x, k(1.0));
    const __m256d s = _mm256_div_pd(f, _mm256_add_pd(k(2.0), f));
    const __m256d z = _mm256_mul_pd(s, s);
    const __m256d w = _mm256_mul_pd(z, z);
    // Horner steps a + w*b, spelled out in the scalar table's order.
    const auto horner = [&](Real a, __m256d b) {
      return _mm256_add_pd(k(a), _mm256_mul_pd(w, b));
    };
    const __m256d t1 = _mm256_mul_pd(w, horner(kLg2, horner(kLg4, k(kLg6))));
    const __m256d t2 = _mm256_mul_pd(
        z, horner(kLg1, horner(kLg3, horner(kLg5, k(kLg7)))));
    const __m256d rr = _mm256_add_pd(t2, t1);
    const __m256d hfsq = _mm256_mul_pd(_mm256_mul_pd(k(0.5), f), f);
    const __m256d inner = _mm256_sub_pd(
        hfsq, _mm256_add_pd(_mm256_mul_pd(s, _mm256_add_pd(hfsq, rr)),
                            _mm256_mul_pd(kd, k(kLn2Lo))));
    const __m256d l = _mm256_sub_pd(_mm256_mul_pd(kd, k(kLn2Hi)),
                                    _mm256_sub_pd(inner, f));
    const __m256d q = _mm256_div_pd(_mm256_mul_pd(k(-2.0), l), r);
    _mm256_storeu_pd(m + i, _mm256_sqrt_pd(q));
  }
  if (i < n) scalar::polar_scale(m + i, r2 + i, n - i);
}

}  // namespace ecocap::dsp::kernels::detail::avx2
