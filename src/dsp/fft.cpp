#include "dsp/fft.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "dsp/goertzel.hpp"

namespace ecocap::dsp {

namespace {

/// Forward twiddles for every butterfly stage, cached per size and laid out
/// stage-contiguously as interleaved (cos, sin) pairs: the stage with
/// half-width H starts at offset 2*(H-1) and holds exp(-i pi k / H) for
/// k < H. The table kills the serial `w *= wlen` recurrence in the butterfly
/// (a complex multiply on the critical path of every butterfly, accumulating
/// rounding error to boot) while keeping the inner-loop reads sequential.
/// thread_local keeps parallel Monte-Carlo legs lock-free; the handful of
/// distinct sizes per run makes the memory cost trivial.
const Real* twiddle_table(std::size_t n) {
  thread_local std::unordered_map<std::size_t, Signal> tables;
  Signal& t = tables[n];
  if (t.empty()) {
    t.resize(2 * (n - 1));
    for (std::size_t half = 1; half < n; half <<= 1) {
      for (std::size_t k = 0; k < half; ++k) {
        const Real ang = -kPi * static_cast<Real>(k) / static_cast<Real>(half);
        t[2 * (half - 1 + k)] = std::cos(ang);
        t[2 * (half - 1 + k) + 1] = std::sin(ang);
      }
    }
  }
  return t.data();
}

}  // namespace

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft_inplace(ComplexSignal& x, bool inverse) {
  const std::size_t n = x.size();
  if (n == 0) return;
  if ((n & (n - 1)) != 0) {
    throw std::invalid_argument("fft_inplace: size must be a power of two");
  }
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  if (n == 1) return;
  const Real* tw = twiddle_table(n);
  // Butterflies on raw interleaved doubles: std::complex arithmetic drags
  // in the IEEE `__muldc3` NaN-fixup checks and (with GCC) a stack
  // round-trip per butterfly; spelled out as real ops the loop stays in
  // registers. std::complex<Real> is layout-guaranteed {re, im}.
  Real* d = reinterpret_cast<Real*>(x.data());
  const Real wi_sign = inverse ? -1.0 : 1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const Real* stage = tw + 2 * (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      Real* lo = d + 2 * i;
      Real* hi = lo + 2 * half;
      for (std::size_t k = 0; k < half; ++k) {
        const Real wr = stage[2 * k];
        const Real wi = wi_sign * stage[2 * k + 1];
        const Real xr = hi[2 * k], xi = hi[2 * k + 1];
        const Real vr = xr * wr - xi * wi;
        const Real vi = xr * wi + xi * wr;
        const Real ur = lo[2 * k], ui = lo[2 * k + 1];
        lo[2 * k] = ur + vr;
        lo[2 * k + 1] = ui + vi;
        hi[2 * k] = ur - vr;
        hi[2 * k + 1] = ui - vi;
      }
    }
  }
  if (inverse) {
    const Real s = 1.0 / static_cast<Real>(n);
    for (std::size_t i = 0; i < 2 * n; ++i) d[i] *= s;
  }
}

ComplexSignal fft_real(std::span<const Real> x, std::size_t min_size) {
  const std::size_t n = next_pow2(std::max(x.size(), std::max<std::size_t>(min_size, 1)));
  ComplexSignal buf(n, Complex(0.0, 0.0));
  for (std::size_t i = 0; i < x.size(); ++i) buf[i] = Complex(x[i], 0.0);
  fft_inplace(buf);
  return buf;
}

Signal magnitude_spectrum(std::span<const Real> x, std::size_t min_size) {
  const ComplexSignal spec = fft_real(x, min_size);
  const std::size_t half = spec.size() / 2 + 1;
  Signal mag(half);
  for (std::size_t i = 0; i < half; ++i) mag[i] = std::abs(spec[i]);
  return mag;
}

Real bin_frequency(std::size_t k, std::size_t fft_size, Real fs) {
  return fs * static_cast<Real>(k) / static_cast<Real>(fft_size);
}

std::size_t peak_bin_in_band(std::span<const Real> spectrum,
                             std::size_t fft_size, Real fs, Real f_lo,
                             Real f_hi) {
  std::size_t best = 0;
  Real best_mag = -1.0;
  for (std::size_t k = 0; k < spectrum.size(); ++k) {
    const Real f = bin_frequency(k, fft_size, fs);
    if (f < f_lo || f > f_hi) continue;
    if (spectrum[k] > best_mag) {
      best_mag = spectrum[k];
      best = k;
    }
  }
  return best;
}

namespace {

/// Parabolic interpolation of the peak bin k of an n-point transform from
/// the magnitudes of bins k-1, k, k+1.
Real parabolic_peak(std::size_t k, Real a, Real b, Real c, std::size_t n,
                    Real fs) {
  const Real denom = a - 2.0 * b + c;
  Real delta = 0.0;
  if (std::abs(denom) > 1e-30) delta = 0.5 * (a - c) / denom;
  if (delta > 0.5) delta = 0.5;
  if (delta < -0.5) delta = -0.5;
  return bin_frequency(k, n, fs) + delta * fs / static_cast<Real>(n);
}

/// |X[k]| of the n-point DFT of x (zero-padded, n >= x.size()) for the
/// bins k = k0 .. k0 + mags.size() - 1 (at most 3), in one Goertzel pass.
void bin_magnitudes(std::span<const Real> x, std::size_t n, std::size_t k0,
                    std::span<Real> mags) {
  Real omega[3];
  for (std::size_t j = 0; j < mags.size(); ++j) {
    omega[j] = kTwoPi * static_cast<Real>(k0 + j) / static_cast<Real>(n);
  }
  goertzel_powers(x, std::span<const Real>(omega, mags.size()), mags);
  for (Real& m : mags) m = std::sqrt(std::max(m, 0.0));
}

}  // namespace

Real estimate_tone_frequency(std::span<const Real> x, Real fs, Real f_lo,
                             Real f_hi) {
  ComplexSignal spectrum;
  return estimate_tone_frequency(x, fs, f_lo, f_hi, spectrum);
}

Real estimate_tone_frequency(std::span<const Real> x, Real fs, Real f_lo,
                             Real f_hi, ComplexSignal& spec) {
  if (x.empty()) return 0.0;
  const std::size_t n = next_pow2(std::max<std::size_t>(x.size(), 1024));
  spec.assign(n, Complex(0.0, 0.0));
  for (std::size_t i = 0; i < x.size(); ++i) spec[i] = Complex(x[i], 0.0);
  fft_inplace(spec);
  const std::size_t half = n / 2 + 1;
  // peak_bin_in_band over magnitude_spectrum, taking |X| only of in-band
  // bins: bin frequencies rise with k, so the scan stops past f_hi.
  std::size_t k = 0;
  Real best_mag = -1.0;
  for (std::size_t i = 0; i < half; ++i) {
    const Real f = bin_frequency(i, n, fs);
    if (f > f_hi) break;
    if (f < f_lo) continue;
    const Real m = std::abs(spec[i]);
    if (m > best_mag) {
      best_mag = m;
      k = i;
    }
  }
  if (k == 0 || k + 1 >= half) return bin_frequency(k, n, fs);
  return parabolic_peak(k, std::abs(spec[k - 1]), std::abs(spec[k]),
                        std::abs(spec[k + 1]), n, fs);
}

Real refine_tone_frequency(std::span<const Real> x, Real fs, Real f_lo,
                           Real f_hi, Real f_guess) {
  if (x.empty()) return 0.0;
  const std::size_t n = next_pow2(std::max<std::size_t>(x.size(), 1024));
  const std::size_t half = n / 2 + 1;
  // Bin index of a frequency, clamped to [0, half - 1].
  const auto bin_of = [&](Real f) {
    return std::clamp(f * static_cast<Real>(n) / fs, 0.0,
                      static_cast<Real>(half - 1));
  };
  // The in-band bins [k_lo, k_hi], compared exactly as the full scan does:
  // start a bin outside the band edge and step onto it.
  auto k_lo = static_cast<std::size_t>(std::max(bin_of(f_lo) - 1.0, 0.0));
  while (k_lo < half && bin_frequency(k_lo, n, fs) < f_lo) ++k_lo;
  auto k_hi = static_cast<std::size_t>(
      std::min(bin_of(f_hi) + 1.0, static_cast<Real>(half - 1)));
  while (k_hi > 0 && bin_frequency(k_hi, n, fs) > f_hi) --k_hi;
  // A band that is empty or touches DC or Nyquist has edge rules the walk
  // below does not reproduce; take the full scan.
  if (k_lo == 0 || k_lo > k_hi || k_hi + 1 >= half) {
    return estimate_tone_frequency(x, fs, f_lo, f_hi);
  }
  std::size_t k = static_cast<std::size_t>(
      std::clamp(std::round(bin_of(f_guess)), static_cast<Real>(k_lo),
                 static_cast<Real>(k_hi)));
  // mags = |X[k-1]|, |X[k]|, |X[k+1]|. Walk uphill inside the band,
  // stepping down on a tie as the full scan keeps the first maximum.
  Real mags[3];
  bin_magnitudes(x, n, k - 1, mags);
  while (true) {
    if (k > k_lo && mags[0] >= mags[1]) {
      --k;
      mags[2] = mags[1];
      mags[1] = mags[0];
      bin_magnitudes(x, n, k - 1, std::span<Real>(mags, 1));
    } else if (k < k_hi && mags[2] > mags[1]) {
      ++k;
      mags[0] = mags[1];
      mags[1] = mags[2];
      bin_magnitudes(x, n, k + 1, std::span<Real>(mags + 2, 1));
    } else {
      break;
    }
  }
  return parabolic_peak(k, mags[0], mags[1], mags[2], n, fs);
}

Real band_power(std::span<const Real> x, Real fs, Real f_lo, Real f_hi) {
  if (x.empty()) return 0.0;
  const std::size_t n = next_pow2(std::max<std::size_t>(x.size(), 1024));
  const ComplexSignal spec = fft_real(x, n);
  const std::size_t half = n / 2;
  Real sum = 0.0;
  for (std::size_t k = 0; k <= half; ++k) {
    const Real f = bin_frequency(k, n, fs);
    if (f < f_lo || f > f_hi) continue;
    const Real m2 = std::norm(spec[k]);
    // One-sided: double interior bins to account for negative frequencies.
    const bool interior = (k != 0 && k != half);
    sum += (interior ? 2.0 : 1.0) * m2;
  }
  // Parseval: total power = sum |X|^2 / N^2 when averaged per sample of the
  // padded frame; normalize by the original length so tone power is stable.
  return sum / (static_cast<Real>(n) * static_cast<Real>(x.size()));
}

}  // namespace ecocap::dsp
