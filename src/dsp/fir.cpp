#include "dsp/fir.hpp"

#include <cmath>
#include <stdexcept>

#include "dsp/fast_convolve.hpp"
#include "dsp/kernels/kernels.hpp"

namespace ecocap::dsp {

namespace {

Real sinc(Real x) {
  if (std::abs(x) < 1e-12) return 1.0;
  return std::sin(kPi * x) / (kPi * x);
}

std::size_t make_odd(std::size_t taps) { return (taps % 2 == 0) ? taps + 1 : taps; }

void normalize_dc(Signal& h) {
  Real sum = 0.0;
  for (Real v : h) sum += v;
  if (sum != 0.0) {
    for (Real& v : h) v /= sum;
  }
}

}  // namespace

Signal design_lowpass(Real fs, Real cutoff, std::size_t taps,
                      WindowKind window) {
  if (fs <= 0.0 || cutoff <= 0.0 || cutoff >= fs / 2.0) {
    throw std::invalid_argument("design_lowpass: cutoff out of range");
  }
  const std::size_t n = make_odd(taps);
  const Real fc = cutoff / fs;  // normalized
  Signal h(n);
  const Signal w = make_window(window, n);
  const Real m = static_cast<Real>(n - 1) / 2.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Real k = static_cast<Real>(i) - m;
    h[i] = 2.0 * fc * sinc(2.0 * fc * k) * w[i];
  }
  normalize_dc(h);
  return h;
}

Signal design_highpass(Real fs, Real cutoff, std::size_t taps,
                       WindowKind window) {
  Signal h = design_lowpass(fs, cutoff, taps, window);
  // Spectral inversion: delta at center minus the low-pass.
  for (Real& v : h) v = -v;
  h[(h.size() - 1) / 2] += 1.0;
  return h;
}

Signal design_bandpass(Real fs, Real f_lo, Real f_hi, std::size_t taps,
                       WindowKind window) {
  if (f_lo <= 0.0 || f_hi <= f_lo || f_hi >= fs / 2.0) {
    throw std::invalid_argument("design_bandpass: band out of range");
  }
  const std::size_t n = make_odd(taps);
  Signal lo = design_lowpass(fs, f_hi, n, window);
  Signal lo2 = design_lowpass(fs, f_lo, n, window);
  Signal h(n);
  for (std::size_t i = 0; i < n; ++i) h[i] = lo[i] - lo2[i];
  return h;
}

Signal design_bandstop(Real fs, Real f_lo, Real f_hi, std::size_t taps,
                       WindowKind window) {
  Signal h = design_bandpass(fs, f_lo, f_hi, taps, window);
  for (Real& v : h) v = -v;
  h[(h.size() - 1) / 2] += 1.0;
  return h;
}

FirFilter::FirFilter(Signal coefficients)
    : coeff_(std::move(coefficients)),
      coeff_rev_(coeff_.rbegin(), coeff_.rend()),
      delay_(coeff_.size(), 0.0) {
  if (coeff_.empty()) {
    throw std::invalid_argument("FirFilter: empty coefficients");
  }
}

Real FirFilter::process(Real x) {
  delay_[pos_] = x;
  Real acc = 0.0;
  std::size_t j = pos_;
  for (std::size_t i = 0; i < coeff_.size(); ++i) {
    acc += coeff_[i] * delay_[j];
    j = (j == 0) ? delay_.size() - 1 : j - 1;
  }
  pos_ = (pos_ + 1) % delay_.size();
  return acc;
}

Signal FirFilter::process(std::span<const Real> x) {
  if (x.empty()) return {};
  const std::size_t m = coeff_.size();
  // Either path pads the batch with the last m-1 streaming inputs (held in
  // the circular delay line, oldest first) so the batch result matches
  // feeding the samples one at a time.
  scratch_.resize(m - 1 + x.size());
  for (std::size_t k = 0; k < m - 1; ++k) {
    scratch_[k] = delay_[(pos_ + 1 + k) % m];
  }
  std::copy(x.begin(), x.end(),
            scratch_.begin() + static_cast<std::ptrdiff_t>(m - 1));
  Signal out;
  if (x.size() >= m &&
      use_fft_convolution(x.size(), m, DirectForm::kSimdKernel)) {
    const Signal full = convolve_full_fft(scratch_, coeff_);
    out.assign(full.begin() + static_cast<std::ptrdiff_t>(m - 1),
               full.begin() + static_cast<std::ptrdiff_t>(m - 1 + x.size()));
  } else {
    // Direct path: with the taps reversed, each output sample is a sliding
    // dot product — exactly valid-mode correlation, dispatched to the
    // active SIMD kernel table.
    out.resize(x.size());
    kernels::active().correlate_valid(scratch_.data(), scratch_.size(),
                                      coeff_rev_.data(), m, out.data());
  }
  // Rebuild the delay line: the last m inputs in chronological order, with
  // the next write slot at index 0 (so delay_[m-1] is the newest sample).
  for (std::size_t k = 0; k < m; ++k) {
    delay_[k] = scratch_[scratch_.size() - m + k];
  }
  pos_ = 0;
  return out;
}

void FirFilter::reset() {
  std::fill(delay_.begin(), delay_.end(), 0.0);
  pos_ = 0;
}

Signal filter_zero_phase(const Signal& coefficients, std::span<const Real> x) {
  if (coefficients.empty()) {
    throw std::invalid_argument("filter_zero_phase: empty coefficients");
  }
  if (x.empty()) return {};
  // The zero-phase output is the full linear convolution shifted by the
  // group delay — one convolution pass (direct or FFT per the dispatcher)
  // instead of streaming through a delay line plus a zero-fed tail drain.
  const std::size_t delay = (coefficients.size() - 1) / 2;
  const Signal full = convolve_full(x, coefficients);
  return Signal(full.begin() + static_cast<std::ptrdiff_t>(delay),
                full.begin() + static_cast<std::ptrdiff_t>(delay + x.size()));
}

}  // namespace ecocap::dsp
