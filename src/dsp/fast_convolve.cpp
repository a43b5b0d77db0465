#include "dsp/fast_convolve.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

#include "dsp/fft.hpp"

namespace ecocap::dsp {

namespace {

/// FFT length for overlap-save: big enough that the useful block
/// (L - M + 1) amortizes the transform, but no bigger than a single
/// transform covering the whole output.
std::size_t pick_fft_size(std::size_t m, std::size_t out_len) {
  const std::size_t single = next_pow2(std::max<std::size_t>(out_len, 2));
  std::size_t blocked = next_pow2(std::max<std::size_t>(8 * m, 256));
  return std::min(single, blocked);
}

/// Rough op-count of the overlap-save path: one complex FFT pair per two
/// real blocks plus the kernel transform and the spectral multiplies.
double fft_cost_estimate(std::size_t n, std::size_t m) {
  const std::size_t out_len = n + m - 1;
  const std::size_t fft_len = pick_fft_size(m, out_len);
  const std::size_t step = fft_len - m + 1;
  const double blocks =
      std::ceil(static_cast<double>(out_len) / static_cast<double>(step));
  const double lg = std::log2(static_cast<double>(fft_len));
  const double per_fft = 5.0 * static_cast<double>(fft_len) * lg;
  // (blocks/2) forward + (blocks/2) inverse + 1 kernel FFT, plus the
  // element-wise spectral products.
  return (blocks + 1.0) * per_fft + blocks * 4.0 * static_cast<double>(fft_len);
}

/// Spectrum of the kernel zero-padded to the overlap-save transform length.
ComplexSignal kernel_spectrum(std::span<const Real> h, std::size_t fft_len) {
  return fft_real(h, fft_len);
}

/// Outputs [lo, lo + out.size()) of the full convolution of complex x with
/// real h, direct form. The window must lie inside [0, n + m - 1).
void convolve_window_direct(std::span<const Complex> x, std::span<const Real> h,
                            std::size_t lo, std::span<Complex> out) {
  for (std::size_t t = 0; t < out.size(); ++t) {
    const std::size_t k = lo + t;
    const std::size_t j_lo = (k >= x.size() - 1) ? k - (x.size() - 1) : 0;
    const std::size_t j_hi = std::min(k, h.size() - 1);
    Real acc_re = 0.0, acc_im = 0.0;
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      acc_re += h[j] * x[k - j].real();
      acc_im += h[j] * x[k - j].imag();
    }
    out[t] = Complex(acc_re, acc_im);
  }
}

/// The same window by overlap-save. Blocks are laid out over the whole
/// full-convolution output exactly as for the full result, so every output
/// sample is bit-identical to it; blocks outside the window are skipped.
void convolve_window_fft(std::span<const Complex> x, std::span<const Real> h,
                         std::size_t lo, std::span<Complex> out) {
  const std::size_t n = x.size();
  const std::size_t m = h.size();
  const std::size_t out_len = n + m - 1;
  const std::size_t hi = lo + out.size();
  const std::size_t fft_len = pick_fft_size(m, out_len);
  const std::size_t step = fft_len - m + 1;
  const ComplexSignal spec_h = kernel_spectrum(h, fft_len);

  ComplexSignal buf(fft_len);
  for (std::size_t p = lo / step; p * step < hi; ++p) {
    const std::ptrdiff_t start = static_cast<std::ptrdiff_t>(p * step) -
                                 static_cast<std::ptrdiff_t>(m - 1);
    for (std::size_t i = 0; i < fft_len; ++i) {
      const std::ptrdiff_t k = start + static_cast<std::ptrdiff_t>(i);
      buf[i] = (k >= 0 && k < static_cast<std::ptrdiff_t>(n))
                   ? x[static_cast<std::size_t>(k)]
                   : Complex(0.0, 0.0);
    }
    fft_inplace(buf);
    for (std::size_t i = 0; i < fft_len; ++i) buf[i] *= spec_h[i];
    fft_inplace(buf, /*inverse=*/true);
    const std::size_t first = std::max(p * step, lo);
    const std::size_t last = std::min((p + 1) * step, hi);
    for (std::size_t k = first; k < last; ++k) {
      out[k - lo] = buf[m - 1 + (k - p * step)];
    }
  }
}

}  // namespace

long fft_conv_min_taps_override() {
  const char* env = std::getenv("ECOCAP_FFT_CONV_MIN_TAPS");
  if (!env || !*env) return -1;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end != env && *end == '\0' && v >= 0) return v;
  // Called per convolution: note each distinct bad value once.
  static std::mutex mutex;
  static std::string noted;
  const std::lock_guard<std::mutex> lock(mutex);
  if (noted != env) {
    noted = env;
    std::fprintf(stderr,
                 "ecocap: invalid ECOCAP_FFT_CONV_MIN_TAPS=\"%s\" (want a "
                 "non-negative integer); using the built-in cost model\n",
                 env);
  }
  return -1;
}

bool use_fft_convolution(std::size_t n, std::size_t m, DirectForm direct) {
  if (n == 0 || m == 0) return false;
  if (const long forced = fft_conv_min_taps_override(); forced >= 0) {
    return m >= static_cast<std::size_t>(forced);
  }
  // Tiny kernels never win: the transform bookkeeping dominates.
  if (m <= 16 || n < 64) return false;
  // Two ops per multiply-add for the scalar loops, which run at about the
  // FFT path's time per modelled op (~0.3 ns on AVX2 hosts). The SIMD
  // correlation kernel measured 4-8x less per op (bench_micro_dsp
  // correlate_frame_search_*: 0.08 vs 0.15 ms at the receiver's 1549 x 387
  // frame search); 5 puts every shape the decoder and tests run on the
  // faster side.
  constexpr double kSimdKernelSpeedup = 5.0;
  double direct_ops = 2.0 * static_cast<double>(n) * static_cast<double>(m);
  if (direct == DirectForm::kSimdKernel) direct_ops /= kSimdKernelSpeedup;
  return fft_cost_estimate(n, m) < direct_ops;
}

Signal convolve_full_direct(std::span<const Real> x, std::span<const Real> h) {
  if (x.empty() || h.empty()) return {};
  Signal out(x.size() + h.size() - 1, 0.0);
  for (std::size_t k = 0; k < out.size(); ++k) {
    const std::size_t j_lo = (k >= x.size() - 1) ? k - (x.size() - 1) : 0;
    const std::size_t j_hi = std::min(k, h.size() - 1);
    Real acc = 0.0;
    for (std::size_t j = j_lo; j <= j_hi; ++j) acc += h[j] * x[k - j];
    out[k] = acc;
  }
  return out;
}

Signal convolve_full_fft(std::span<const Real> x, std::span<const Real> h) {
  if (x.empty() || h.empty()) return {};
  const std::size_t n = x.size();
  const std::size_t m = h.size();
  const std::size_t out_len = n + m - 1;
  const std::size_t fft_len = pick_fft_size(m, out_len);
  const std::size_t step = fft_len - m + 1;
  const ComplexSignal spec_h = kernel_spectrum(h, fft_len);

  // xpad(k): x with M-1 leading (virtual) zeros and trailing zeros.
  const auto xpad = [&](std::ptrdiff_t k) -> Real {
    return (k >= 0 && k < static_cast<std::ptrdiff_t>(n)) ? x[static_cast<std::size_t>(k)]
                                                          : 0.0;
  };

  Signal out(out_len, 0.0);
  ComplexSignal buf(fft_len);
  const std::size_t blocks = (out_len + step - 1) / step;
  // Two real blocks per transform: block 2p in the real part, 2p+1 in the
  // imaginary part. conv(a + i·b, h) = conv(a, h) + i·conv(b, h) for real h,
  // so the inverse transform separates without any spectral unpacking.
  for (std::size_t p = 0; p < blocks; p += 2) {
    const std::ptrdiff_t start_a = static_cast<std::ptrdiff_t>(p * step) -
                                   static_cast<std::ptrdiff_t>(m - 1);
    const bool have_b = (p + 1) < blocks;
    const std::ptrdiff_t start_b = static_cast<std::ptrdiff_t>((p + 1) * step) -
                                   static_cast<std::ptrdiff_t>(m - 1);
    for (std::size_t i = 0; i < fft_len; ++i) {
      const Real a = xpad(start_a + static_cast<std::ptrdiff_t>(i));
      const Real b = have_b ? xpad(start_b + static_cast<std::ptrdiff_t>(i)) : 0.0;
      buf[i] = Complex(a, b);
    }
    fft_inplace(buf);
    for (std::size_t i = 0; i < fft_len; ++i) buf[i] *= spec_h[i];
    fft_inplace(buf, /*inverse=*/true);
    const std::size_t base_a = p * step;
    for (std::size_t t = 0; t < step && base_a + t < out_len; ++t) {
      out[base_a + t] = buf[m - 1 + t].real();
    }
    if (have_b) {
      const std::size_t base_b = (p + 1) * step;
      for (std::size_t t = 0; t < step && base_b + t < out_len; ++t) {
        out[base_b + t] = buf[m - 1 + t].imag();
      }
    }
  }
  return out;
}

Signal convolve_full(std::span<const Real> x, std::span<const Real> h) {
  if (x.empty() || h.empty()) return {};
  return use_fft_convolution(x.size(), h.size()) ? convolve_full_fft(x, h)
                                                 : convolve_full_direct(x, h);
}

ComplexSignal convolve_full_direct(std::span<const Complex> x,
                                   std::span<const Real> h) {
  if (x.empty() || h.empty()) return {};
  ComplexSignal out(x.size() + h.size() - 1);
  convolve_window_direct(x, h, 0, out);
  return out;
}

ComplexSignal convolve_full_fft(std::span<const Complex> x,
                                std::span<const Real> h) {
  if (x.empty() || h.empty()) return {};
  ComplexSignal out(x.size() + h.size() - 1);
  convolve_window_fft(x, h, 0, out);
  return out;
}

ComplexSignal convolve_full(std::span<const Complex> x,
                            std::span<const Real> h) {
  if (x.empty() || h.empty()) return {};
  return use_fft_convolution(x.size(), h.size()) ? convolve_full_fft(x, h)
                                                 : convolve_full_direct(x, h);
}

Signal correlate_valid_fft(std::span<const Real> x, std::span<const Real> h) {
  if (h.empty() || x.size() < h.size()) return {};
  Signal hr(h.rbegin(), h.rend());
  const Signal full = convolve_full_fft(x, hr);
  const std::size_t out_len = x.size() - h.size() + 1;
  return Signal(full.begin() + static_cast<std::ptrdiff_t>(h.size() - 1),
                full.begin() + static_cast<std::ptrdiff_t>(h.size() - 1 + out_len));
}

ComplexSignal filter_zero_phase(std::span<const Real> coefficients,
                                std::span<const Complex> x) {
  ComplexSignal out;
  filter_zero_phase(coefficients, x, out);
  return out;
}

void filter_zero_phase(std::span<const Real> coefficients,
                       std::span<const Complex> x, ComplexSignal& out) {
  if (coefficients.empty() || x.empty()) {
    out.assign(x.size(), Complex(0.0, 0.0));
    return;
  }
  // The delay-sliced window of the full convolution, written in place.
  const std::size_t delay = (coefficients.size() - 1) / 2;
  out.resize(x.size());
  if (use_fft_convolution(x.size(), coefficients.size())) {
    convolve_window_fft(x, coefficients, delay, out);
  } else {
    convolve_window_direct(x, coefficients, delay, out);
  }
}

}  // namespace ecocap::dsp
