#include "shm/modal.hpp"

#include <algorithm>
#include <cmath>

#include "dsp/biquad.hpp"
#include "dsp/fft.hpp"
#include "dsp/rng.hpp"
#include "dsp/window.hpp"

namespace ecocap::shm {

std::vector<Real> welch_spectrum(std::span<const Real> x, Real fs,
                                 std::size_t segment) {
  (void)fs;
  segment = dsp::next_pow2(std::max<std::size_t>(segment, 64));
  const std::size_t hop = segment / 2;
  const dsp::Signal window = dsp::make_window(dsp::WindowKind::kHann, segment);
  std::vector<Real> acc(segment / 2 + 1, 0.0);
  int frames = 0;
  for (std::size_t start = 0; start + segment <= x.size(); start += hop) {
    dsp::Signal seg(x.begin() + static_cast<std::ptrdiff_t>(start),
                    x.begin() + static_cast<std::ptrdiff_t>(start + segment));
    // Remove the mean so the DC bin does not mask low modes.
    Real mean = 0.0;
    for (Real v : seg) mean += v;
    mean /= static_cast<Real>(segment);
    for (Real& v : seg) v -= mean;
    dsp::apply_window(seg, window);
    const dsp::Signal mag = dsp::magnitude_spectrum(seg, segment);
    for (std::size_t k = 0; k < acc.size() && k < mag.size(); ++k) {
      acc[k] += mag[k] * mag[k];
    }
    ++frames;
  }
  if (frames > 0) {
    for (Real& v : acc) v = std::sqrt(v / frames);
  }
  return acc;
}

std::optional<ModalEstimate> estimate_mode(std::span<const Real> x, Real fs,
                                           Real f_lo, Real f_hi,
                                           std::size_t segment) {
  segment = dsp::next_pow2(std::max<std::size_t>(segment, 64));
  if (x.size() < segment) return std::nullopt;
  const std::vector<Real> spec = welch_spectrum(x, fs, segment);
  const Real bin_hz = fs / static_cast<Real>(segment);

  std::size_t best = 0;
  Real best_mag = -1.0;
  for (std::size_t k = 1; k + 1 < spec.size(); ++k) {
    const Real f = bin_hz * static_cast<Real>(k);
    if (f < f_lo || f > f_hi) continue;
    if (spec[k] > best_mag) {
      best_mag = spec[k];
      best = k;
    }
  }
  if (best == 0 || best_mag <= 0.0) return std::nullopt;

  // Parabolic interpolation around the peak.
  const Real a = spec[best - 1];
  const Real b = spec[best];
  const Real c = spec[best + 1];
  Real delta = 0.0;
  const Real denom = a - 2.0 * b + c;
  if (std::abs(denom) > 1e-30) {
    delta = std::clamp<Real>(0.5 * (a - c) / denom, -0.5, 0.5);
  }

  ModalEstimate est;
  est.frequency_hz = bin_hz * (static_cast<Real>(best) + delta);
  est.amplitude = b;

  // Half-power bandwidth -> damping ratio zeta ~ bw / (2 f0).
  const Real half_power = b / std::sqrt(2.0);
  std::size_t lo = best, hi = best;
  while (lo > 1 && spec[lo] > half_power) --lo;
  while (hi + 1 < spec.size() && spec[hi] > half_power) ++hi;
  const Real bw = bin_hz * static_cast<Real>(hi - lo);
  est.damping_ratio = (est.frequency_hz > 0.0)
                          ? bw / (2.0 * est.frequency_hz)
                          : 0.0;
  return est;
}

DamageIndicator assess_damage(std::span<const Real> baseline,
                              std::span<const Real> current, Real fs,
                              Real f_lo, Real f_hi, Real alarm_shift) {
  DamageIndicator d;
  const auto b = estimate_mode(baseline, fs, f_lo, f_hi);
  const auto c = estimate_mode(current, fs, f_lo, f_hi);
  if (!b || !c || b->frequency_hz <= 0.0) return d;
  d.baseline_hz = b->frequency_hz;
  d.current_hz = c->frequency_hz;
  d.frequency_shift = (c->frequency_hz - b->frequency_hz) / b->frequency_hz;
  d.stiffness_change = 2.0 * d.frequency_shift;
  d.damaged = d.frequency_shift < alarm_shift;
  return d;
}

std::vector<Real> synthesize_vibration(Real modal_hz, Real damping_ratio,
                                       Real fs, Real seconds,
                                       std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(seconds * fs);
  dsp::Rng rng(seed);
  // White-noise excitation through the mode's resonance: Q = 1 / (2 zeta).
  const Real q = 1.0 / std::max<Real>(2.0 * damping_ratio, 1e-3);
  dsp::Biquad mode = dsp::Biquad::bandpass(fs, modal_hz, q);
  std::vector<Real> out(n, 0.0);
  rng.add_gaussian(out, 1.0);  // the draws of n gaussian() calls
  mode.process(std::span<const Real>(out), out);
  return out;
}

}  // namespace ecocap::shm
