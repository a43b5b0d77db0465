#include "dsp/correlate.hpp"

#include <cmath>

#include "dsp/fast_convolve.hpp"
#include "dsp/kernels/kernels.hpp"

namespace ecocap::dsp {

Signal correlate_valid(std::span<const Real> x, std::span<const Real> h) {
  if (h.empty() || x.size() < h.size()) return {};
  if (use_fft_convolution(x.size(), h.size())) {
    return correlate_valid_fft(x, h);
  }
  const std::size_t out_len = x.size() - h.size() + 1;
  Signal out(out_len, 0.0);
  kernels::active().correlate_valid(x.data(), x.size(), h.data(), h.size(),
                                    out.data());
  return out;
}

std::size_t best_alignment(std::span<const Real> x, std::span<const Real> h) {
  const Signal c = correlate_valid(x, h);
  std::size_t best = 0;
  Real best_v = -1e300;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c[i] > best_v) {
      best_v = c[i];
      best = i;
    }
  }
  return best;
}

Real correlation_coefficient(std::span<const Real> a,
                             std::span<const Real> b) {
  if (a.size() != b.size() || a.empty()) return 0.0;
  Real sa = 0.0, sb = 0.0, sab = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sa += a[i] * a[i];
    sb += b[i] * b[i];
    sab += a[i] * b[i];
  }
  if (sa <= 0.0 || sb <= 0.0) return 0.0;
  return sab / std::sqrt(sa * sb);
}

ComplexSignal mix_down(std::span<const Real> x, Real fs, Real f0) {
  ComplexSignal out(x.size());
  const Real step = kTwoPi * f0 / fs;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const Real ph = step * static_cast<Real>(i);
    out[i] = x[i] * Complex(std::cos(ph), -std::sin(ph));
  }
  return out;
}

}  // namespace ecocap::dsp
