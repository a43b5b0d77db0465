// Canonical scalar kernel table. Every loop here *defines* the arithmetic
// the SIMD tables must reproduce bit-for-bit (see kernels.hpp): the striped
// reduction order, the block-scan one-pole lanes, and the stencil
// expression order are all written out explicitly rather than left to the
// vectorizer, so "what the scalar fallback computes" is a specification,
// not an accident of optimization flags. The TU is compiled with
// -ffp-contract=off; the loops are plain enough that the autovectorizer
// may still use SIMD *encodings*, which is fine — IEEE semantics per lane
// are unchanged, only fused multiply-adds could break identity.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "dsp/kernels/kernels_detail.hpp"
#include "dsp/rng.hpp"

namespace ecocap::dsp::kernels::detail::scalar {

Real dot(const Real* a, const Real* b, std::size_t n) {
  Real s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  Real s4 = 0.0, s5 = 0.0, s6 = 0.0, s7 = 0.0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    s0 += a[i + 0] * b[i + 0];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
    s4 += a[i + 4] * b[i + 4];
    s5 += a[i + 5] * b[i + 5];
    s6 += a[i + 6] * b[i + 6];
    s7 += a[i + 7] * b[i + 7];
  }
  const Real t0 = s0 + s4;
  const Real t1 = s1 + s5;
  const Real t2 = s2 + s6;
  const Real t3 = s3 + s7;
  Real r = (t0 + t1) + (t2 + t3);
  for (; i < n; ++i) r += a[i] * b[i];
  return r;
}

void correlate_valid(const Real* x, std::size_t nx, const Real* h,
                     std::size_t nh, Real* out) {
  const std::size_t out_len = nx - nh + 1;
  for (std::size_t k = 0; k < out_len; ++k) out[k] = dot(x + k, h, nh);
}

void biquad(const Real* x, Real* y, std::size_t n, const BiquadCoeffs& c,
            BiquadState& s) {
  // Chunks of input are copied behind the carried history before any output
  // of the chunk is stored, so `y` may alias `x`.
  constexpr std::size_t kHist = 8;
  constexpr std::size_t kChunk = 64;
  Real xh[kHist + kChunk] = {};
  Real yh[kHist + kChunk] = {};
  std::memcpy(xh, s.x, sizeof s.x);
  std::memcpy(yh, s.y, sizeof s.y);
  const Real* g = c.g;
  for (std::size_t i = 0; i < n;) {
    const std::size_t m = n - i < kChunk ? n - i : kChunk;
    std::memcpy(xh + kHist, x + i, m * sizeof(Real));
    for (std::size_t j = kHist; j < kHist + m; ++j) {
      const Real* xk = xh + j;
      const Real f = ((g[0] * xk[0] + g[1] * xk[-1]) +
                      (g[2] * xk[-2] + g[3] * xk[-3])) +
                     ((g[4] * xk[-4] + g[5] * xk[-5]) +
                      (g[6] * xk[-6] + g[7] * xk[-7]));
      yh[j] = ((f + g[8] * xk[-8]) - c.a8 * yh[j - 8]) - c.a4 * yh[j - 4];
    }
    std::memcpy(y + i, yh + kHist, m * sizeof(Real));
    std::memmove(xh, xh + m, sizeof s.x);
    std::memmove(yh, yh + m, sizeof s.y);
    i += m;
  }
  std::memcpy(s.x, xh, sizeof s.x);
  std::memcpy(s.y, yh, sizeof s.y);
}

namespace {

/// Shared block-scan core for the one-pole recurrence
/// y[i] = p*y[i-1] + alpha*u[i], p = 1 - alpha. Blocks of four samples are
/// expressed directly in terms of the block-entry state:
///   c_k = (w0*u_k + w1*u_{k-1}) + (w2*u_{k-2} + w3*u_{k-3}),  u_{<0} = 0
///   y_k = c_k + p^{k+1} * y_prev
/// with w_k = p^k * alpha. The lane expressions (and the power products
/// p2 = p*p, p3 = p2*p, p4 = p2*p2, w_k likewise) are what the SIMD tables
/// replicate verbatim. `Rect` maps each input sample (identity for the
/// low-pass, fabs for the envelope detector).
template <typename Rect>
inline void onepole_scan(const Real* x, Real* y, std::size_t n, Real alpha,
                         Real* state, Rect rect) {
  const Real p = 1.0 - alpha;
  const Real p2 = p * p;
  const Real p3 = p2 * p;
  const Real p4 = p2 * p2;
  const Real w0 = alpha;
  const Real w1 = p * alpha;
  const Real w2 = p2 * alpha;
  const Real w3 = p3 * alpha;
  Real yp = *state;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const Real u0 = rect(x[i + 0]);
    const Real u1 = rect(x[i + 1]);
    const Real u2 = rect(x[i + 2]);
    const Real u3 = rect(x[i + 3]);
    const Real c0 = (w0 * u0 + w1 * 0.0) + (w2 * 0.0 + w3 * 0.0);
    const Real c1 = (w0 * u1 + w1 * u0) + (w2 * 0.0 + w3 * 0.0);
    const Real c2 = (w0 * u2 + w1 * u1) + (w2 * u0 + w3 * 0.0);
    const Real c3 = (w0 * u3 + w1 * u2) + (w2 * u1 + w3 * u0);
    const Real y0 = c0 + p * yp;
    const Real y1 = c1 + p2 * yp;
    const Real y2 = c2 + p3 * yp;
    const Real y3 = c3 + p4 * yp;
    y[i + 0] = y0;
    y[i + 1] = y1;
    y[i + 2] = y2;
    y[i + 3] = y3;
    yp = y3;
  }
  for (; i < n; ++i) {
    yp = (w0 * rect(x[i])) + (p * yp);
    y[i] = yp;
  }
  *state = yp;
}

}  // namespace

void onepole(const Real* x, Real* y, std::size_t n, Real alpha, Real* state) {
  onepole_scan(x, y, n, alpha, state, [](Real v) { return v; });
}

void envelope(const Real* x, Real* y, std::size_t n, Real alpha, Real* state) {
  onepole_scan(x, y, n, alpha, state, [](Real v) { return std::fabs(v); });
}

void fdtd_velocity_row(const FdtdVelocityRowArgs& a) {
  // Expression order matches the seed ElasticFdtd::update_velocity_rows
  // exactly — the SIMD tables mirror it, so the fields are bit-identical
  // regardless of which table steps the grid.
  if (a.fx != nullptr) {
    for (std::size_t i = a.i0; i < a.i1; ++i) {
      const Real dsxx_dx = (a.sxx[i] - a.sxx[i - 1]) * a.inv_dx;
      const Real dsxy_dy = (a.sxy[i] - a.sxy_dn[i]) * a.inv_dx;
      const Real dsxy_dx = (a.sxy[i + 1] - a.sxy[i]) * a.inv_dx;
      const Real dsyy_dy = (a.syy_up[i] - a.syy[i]) * a.inv_dx;
      const Real inv_rho = 1.0 / a.rho[i];
      a.vx[i] += a.dt * inv_rho * (dsxx_dx + dsxy_dy + a.fx[i]);
      a.vy[i] += a.dt * inv_rho * (dsxy_dx + dsyy_dy + a.fy[i]);
      a.fx[i] = 0.0;
      a.fy[i] = 0.0;
    }
  } else {
    for (std::size_t i = a.i0; i < a.i1; ++i) {
      const Real dsxx_dx = (a.sxx[i] - a.sxx[i - 1]) * a.inv_dx;
      const Real dsxy_dy = (a.sxy[i] - a.sxy_dn[i]) * a.inv_dx;
      const Real dsxy_dx = (a.sxy[i + 1] - a.sxy[i]) * a.inv_dx;
      const Real dsyy_dy = (a.syy_up[i] - a.syy[i]) * a.inv_dx;
      const Real inv_rho = 1.0 / a.rho[i];
      a.vx[i] += a.dt * inv_rho * (dsxx_dx + dsxy_dy);
      a.vy[i] += a.dt * inv_rho * (dsxy_dx + dsyy_dy);
    }
  }
}

void fdtd_stress_row(const FdtdStressRowArgs& a) {
  for (std::size_t i = a.i0; i < a.i1; ++i) {
    const Real dvx_dx = (a.vx[i + 1] - a.vx[i]) * a.inv_dx;
    const Real dvy_dy = (a.vy[i] - a.vy_dn[i]) * a.inv_dx;
    const Real l = a.lambda[i];
    const Real m = a.mu[i];
    a.sxx[i] += a.dt * ((l + 2.0 * m) * dvx_dx + l * dvy_dy);
    a.syy[i] += a.dt * (l * dvx_dx + (l + 2.0 * m) * dvy_dy);
    const Real dvx_dy = (a.vx_up[i] - a.vx[i]) * a.inv_dx;
    const Real dvy_dx = (a.vy[i] - a.vy[i - 1]) * a.inv_dx;
    a.sxy[i] += a.dt * m * (dvx_dy + dvy_dx);
  }
}

void sine(Real* x, std::size_t n, Real amplitude) {
  using namespace sine_coeffs;
  for (std::size_t i = 0; i < n; ++i) {
    const Real v = x[i];
    const Real t = v * kInvPio2 + kRoundShift;
    const Real fn = t - kRoundShift;
    const Real r = (v - fn * kPio2Hi) - fn * kPio2Lo;
    const Real z = r * r;
    const Real ps = kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)));
    const Real s = r + (z * r) * (kS1 + z * ps);
    const Real pc =
        z * (kC1 + z * (kC2 + z * (kC3 + z * (kC4 + z * (kC5 + z * kC6)))));
    const Real c = 1.0 - (0.5 * z - z * pc);
    std::uint64_t q;
    std::memcpy(&q, &t, sizeof q);
    Real y = (q & 1) ? c : s;
    if (q & 2) y = -y;
    x[i] = amplitude * y;
  }
}

void mt_twist(std::uint64_t* x) {
  using namespace mt_params;
  std::size_t k = 0;
  for (; k < kN - kM; ++k) x[k] = mix(x[k], x[k + 1], x[k + kM]);
  for (; k < kN - 1; ++k) x[k] = mix(x[k], x[k + 1], x[k + kM - kN]);
  x[kN - 1] = mix(x[kN - 1], x[0], x[kM - 1]);
}

std::size_t polar_candidates(const std::uint64_t* w, std::size_t pairs,
                             Real* x, Real* y, Real* r2, std::uint64_t* pair) {
  std::size_t k = 0;
  for (std::size_t j = 0; j < pairs; ++j) {
    const Real u =
        2.0 * Mt19937_64::to_canonical(Mt19937_64::temper(w[2 * j])) - 1.0;
    const Real v =
        2.0 * Mt19937_64::to_canonical(Mt19937_64::temper(w[2 * j + 1])) -
        1.0;
    const Real s = u * u + v * v;
    // Compacted: a rejected pair's slot is overwritten by the next.
    x[k] = u;
    y[k] = v;
    r2[k] = s;
    pair[k] = j;
    k += (s <= 1.0 && s != 0.0) ? 1 : 0;
  }
  return k;
}

namespace {

// Internal linkage, so polar_scale's loop inlines it.
inline Real log_of(Real r2) {
  using namespace log_coeffs;
  const auto b = std::bit_cast<std::uint64_t>(r2);
  const std::uint64_t hx = (b >> 32) & 0xfffff;
  const std::uint64_t half = (hx + kHalfUp) & 0x100000;
  const Real x = std::bit_cast<Real>(((hx | (half ^ 0x3ff00000)) << 32) |
                                     (b & 0xffffffff));
  const Real k = static_cast<Real>(
      static_cast<std::int64_t>((b >> 52) + (half >> 20)) - 1023);
  const Real f = x - 1.0;
  const Real s = f / (2.0 + f);
  const Real z = s * s;
  const Real w = z * z;
  const Real t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const Real t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const Real r = t2 + t1;
  const Real hfsq = 0.5 * f * f;
  return k * kLn2Hi - ((hfsq - (s * (hfsq + r) + k * kLn2Lo)) - f);
}

}  // namespace

Real polar_log(Real r2) { return log_of(r2); }

void polar_scale(Real* m, const Real* r2, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    m[i] = std::sqrt(-2 * log_of(r2[i]) / r2[i]);
  }
}

}  // namespace ecocap::dsp::kernels::detail::scalar
