#include "dsp/decimate.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "dsp/fft.hpp"
#include "dsp/kernels/kernels.hpp"

namespace ecocap::dsp {

void mix_lowpass_decimate(std::span<const Real> x, Real fs, Real f0,
                          std::span<const Real> h, std::size_t factor,
                          ComplexSignal& out) {
  if (factor == 0) {
    throw std::invalid_argument("mix_lowpass_decimate: factor must be > 0");
  }
  if (h.size() % 2 == 0) {
    throw std::invalid_argument("mix_lowpass_decimate: taps must be odd");
  }
  const std::size_t n = x.size();
  const std::size_t taps = h.size();
  const std::size_t d = (taps - 1) / 2;
  out.assign((n + factor - 1) / factor, Complex(0.0, 0.0));
  if (n == 0) return;
  // The mixer's phase step, exactly as mix_down computes it.
  const Real step = kTwoPi * f0 / fs;
  // g over the window x[t - d + k], k < taps (u = k - d), split into rails.
  std::vector<Real> gr(taps), gi(taps);
  for (std::size_t k = 0; k < taps; ++k) {
    const Real ph = step * (static_cast<Real>(k) - static_cast<Real>(d));
    gr[k] = h[taps - 1 - k] * std::cos(ph);
    gi[k] = -h[taps - 1 - k] * std::sin(ph);
  }
  const kernels::KernelTable& kt = kernels::active();
  for (std::size_t j = 0; j < out.size(); ++j) {
    const std::size_t t = j * factor;
    Real re = 0.0, im = 0.0;
    if (t >= d && t + d < n) {
      // Two SIMD dot products over the window measured faster than
      // folding the symmetric/antisymmetric rails into half the taps.
      re = kt.dot(x.data() + (t - d), gr.data(), taps);
      im = kt.dot(x.data() + (t - d), gi.data(), taps);
    } else {
      // Near the edges the window runs into the zero padding.
      for (std::size_t k = 0; k < taps; ++k) {
        if (t + k < d || t + k - d >= n) continue;
        re += gr[k] * x[t + k - d];
        im += gi[k] * x[t + k - d];
      }
    }
    // The mixer phase of sample t, carrying the rounding residual of
    // step * t (exact by fma) to first order: at t ~ 1e5 that residual is
    // ~1e-11 rad, which the full-rate chain averages over the taps but a
    // single per-output rotation would not.
    const Real tr = static_cast<Real>(t);
    const Real ph = step * tr;
    const Real dph = std::fma(step, tr, -ph);
    const Real c = std::cos(ph), s = std::sin(ph);
    out[j] = Complex(re, im) * Complex(c - s * dph, -(s + c * dph));
  }
}

namespace {

/// Samples of the window prefix the coarse carrier estimate transforms.
constexpr std::size_t kCoarsePrefix = 16384;

/// Residual tone (Hz) of a complex baseband at rate fs: the least-squares
/// slope of the unwrapped phase of 8 segment means. A residual carrier
/// offset dominates the segment means; +-BLF data sidebands average out
/// over a segment.
Real residual_tone_hz(std::span<const Complex> z, Real fs) {
  constexpr std::size_t kSegments = 8;
  const std::size_t len = z.size() / kSegments;
  if (len == 0) return 0.0;
  Real t[kSegments], ph[kSegments];
  for (std::size_t s = 0; s < kSegments; ++s) {
    Complex sum(0.0, 0.0);
    for (std::size_t i = s * len; i < (s + 1) * len; ++i) sum += z[i];
    t[s] = (static_cast<Real>(s * len) + 0.5 * static_cast<Real>(len - 1)) /
           fs;
    ph[s] = std::arg(sum);
    if (s > 0) {  // unwrap against the previous segment
      ph[s] -= kTwoPi * std::round((ph[s] - ph[s - 1]) / kTwoPi);
    }
  }
  Real t_mean = 0.0, ph_mean = 0.0;
  for (std::size_t s = 0; s < kSegments; ++s) {
    t_mean += t[s] / kSegments;
    ph_mean += ph[s] / kSegments;
  }
  Real num = 0.0, den = 0.0;
  for (std::size_t s = 0; s < kSegments; ++s) {
    num += (t[s] - t_mean) * (ph[s] - ph_mean);
    den += (t[s] - t_mean) * (t[s] - t_mean);
  }
  return num / den / kTwoPi;
}

}  // namespace

Real decimated_baseband(std::span<const Real> x, Real fs, Real f_lo,
                        Real f_hi, std::span<const Real> h,
                        std::size_t factor, Workspace& ws,
                        ComplexSignal& out) {
  auto spectrum = ws.cplx(0);
  const Real coarse = estimate_tone_frequency(
      x.first(std::min(x.size(), kCoarsePrefix)), fs, f_lo, f_hi, *spectrum);
  spectrum.release();
  mix_lowpass_decimate(x, fs, coarse, h, factor, out);
  if (x.size() <= kCoarsePrefix) return coarse;
  const Real fine =
      coarse + residual_tone_hz(out, fs / static_cast<Real>(factor));
  const Real carrier = refine_tone_frequency(x, fs, f_lo, f_hi, fine);
  if (carrier != coarse) mix_lowpass_decimate(x, fs, carrier, h, factor, out);
  return carrier;
}

}  // namespace ecocap::dsp
