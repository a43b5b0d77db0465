#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.hpp"

namespace ecocap::dsp {

/// Smallest power of two >= n.
std::size_t next_pow2(std::size_t n);

/// In-place iterative radix-2 FFT. Size must be a power of two.
void fft_inplace(ComplexSignal& x, bool inverse = false);

/// FFT of a real buffer, zero-padded to the next power of two
/// (or to `min_size` if larger).
ComplexSignal fft_real(std::span<const Real> x, std::size_t min_size = 0);

/// One-sided magnitude spectrum of a real signal: bins 0..N/2.
Signal magnitude_spectrum(std::span<const Real> x, std::size_t min_size = 0);

/// Frequency (Hz) of one-sided spectrum bin k for an N-point FFT at rate fs.
Real bin_frequency(std::size_t k, std::size_t fft_size, Real fs);

/// Index of the largest magnitude bin within [f_lo, f_hi] of a one-sided
/// spectrum computed with `fft_size` points at sample rate fs.
std::size_t peak_bin_in_band(std::span<const Real> spectrum,
                             std::size_t fft_size, Real fs, Real f_lo,
                             Real f_hi);

/// Estimate the dominant tone frequency of a real signal within [f_lo, f_hi]
/// using an FFT peak refined by parabolic interpolation. This is the reader's
/// carrier-frequency estimator.
Real estimate_tone_frequency(std::span<const Real> x, Real fs, Real f_lo,
                             Real f_hi);

/// The same estimate with the transform buffer supplied by the caller
/// (replaced by the spectrum), so a pooled decoder allocates nothing.
Real estimate_tone_frequency(std::span<const Real> x, Real fs, Real f_lo,
                             Real f_hi, ComplexSignal& spectrum);

/// The value estimate_tone_frequency(x, fs, f_lo, f_hi) returns, without
/// the whole-window FFT: |X[k]| of the same N-point bins is evaluated
/// (Goertzel, one pass) only at the bin nearest `f_guess` and its
/// neighbours, walking uphill to the local maximum inside the band, and
/// refined by the same parabolic formula. It equals the full estimator
/// whenever that local maximum is the in-band peak, i.e. when `f_guess`
/// lies on the peak's main lobe. A band touching DC or Nyquist falls back
/// to the full estimator.
Real refine_tone_frequency(std::span<const Real> x, Real fs, Real f_lo,
                           Real f_hi, Real f_guess);

/// Band power: sum of |X(f)|^2 over [f_lo, f_hi] divided by FFT length, for a
/// real input signal. Used for SNR-in-band measurements and the Fig. 24
/// spectrum analysis.
Real band_power(std::span<const Real> x, Real fs, Real f_lo, Real f_hi);

}  // namespace ecocap::dsp
