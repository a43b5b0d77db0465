#include "dsp/fast_convolve.hpp"

#include <algorithm>
#include <cmath>

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

}  // namespace

bool use_fft_convolution(std::size_t n, std::size_t m) {
  if (n == 0 || m == 0) return false;
  // Tiny kernels never win: the transform bookkeeping dominates.
  if (m <= 16 || n < 64) return false;
  // Two ops per multiply-add, at a fifth of the FFT path's time per
  // modelled op (~0.3 ns on AVX2 hosts): the SIMD correlation kernel
  // measured 4-8x less per op than the scalar loops the model was first
  // calibrated on (bench_micro_dsp correlate_frame_search_*: 0.08 vs
  // 0.15 ms at the receiver's 1549 x 387 frame search), and 5 puts every
  // shape the decoder and tests run on the faster side.
  constexpr double kSimdKernelSpeedup = 5.0;
  const double direct_ops =
      2.0 * static_cast<double>(n) * static_cast<double>(m) /
      kSimdKernelSpeedup;
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
  const ComplexSignal spec_h = fft_real(h, fft_len);

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

Signal correlate_valid_fft(std::span<const Real> x, std::span<const Real> h) {
  if (h.empty() || x.size() < h.size()) return {};
  Signal hr(h.rbegin(), h.rend());
  const Signal full = convolve_full_fft(x, hr);
  const std::size_t out_len = x.size() - h.size() + 1;
  return Signal(full.begin() + static_cast<std::ptrdiff_t>(h.size() - 1),
                full.begin() + static_cast<std::ptrdiff_t>(h.size() - 1 + out_len));
}

}  // namespace ecocap::dsp
