#include "dsp/fir.hpp"

#include <cmath>
#include <stdexcept>

#include "dsp/window.hpp"

namespace ecocap::dsp {

namespace {

Real sinc(Real x) {
  if (std::abs(x) < 1e-12) return 1.0;
  return std::sin(kPi * x) / (kPi * x);
}

void normalize_dc(Signal& h) {
  Real sum = 0.0;
  for (Real v : h) sum += v;
  if (sum != 0.0) {
    for (Real& v : h) v /= sum;
  }
}

}  // namespace

Signal design_lowpass(Real fs, Real cutoff, std::size_t taps) {
  if (fs <= 0.0 || cutoff <= 0.0 || cutoff >= fs / 2.0) {
    throw std::invalid_argument("design_lowpass: cutoff out of range");
  }
  const std::size_t n = (taps % 2 == 0) ? taps + 1 : taps;
  const Real fc = cutoff / fs;  // normalized
  Signal h(n);
  const Signal w = make_window(WindowKind::kHamming, n);
  const Real m = static_cast<Real>(n - 1) / 2.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Real k = static_cast<Real>(i) - m;
    h[i] = 2.0 * fc * sinc(2.0 * fc * k) * w[i];
  }
  normalize_dc(h);
  return h;
}

}  // namespace ecocap::dsp
