#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.hpp"

namespace ecocap::dsp {

/// Fast-convolution kernel layer. Every waveform-length hot path (FIR
/// filtering, zero-phase filtering, template correlation, the receiver's
/// complex-baseband low-pass) routes through these primitives, which pick
/// between the direct O(N·M) form and overlap-save FFT convolution from a
/// cost model over (signal length, tap count).
///
/// The FFT path packs two real overlap-save blocks into one complex FFT
/// (block A in the real part, block B in the imaginary part); because the
/// kernel is real, Y = H·X separates back into the two block outputs as the
/// real and imaginary parts of the inverse transform, so real signals cost
/// one forward + one inverse FFT per *two* blocks.

/// Tap-count threshold override from the ECOCAP_FFT_CONV_MIN_TAPS
/// environment variable: when set to a non-negative integer, the dispatcher
/// uses the FFT path iff the kernel has at least that many taps (0 forces
/// FFT always, a huge value forces direct always). Returns -1 when unset or
/// invalid, which selects the built-in cost model; an invalid value prints
/// a stderr note naming it (once per distinct value).
long fft_conv_min_taps_override();

/// The direct form a dispatch falls back to.
enum class DirectForm {
  /// The plain scalar loops (convolve_full_direct, the complex
  /// filter_zero_phase): about as fast per multiply-add as the FFT path is
  /// per modelled op.
  kLoop,
  /// The dispatched kernels::correlate_valid behind correlate_valid and
  /// FirFilter::process, ~5x faster per tap than the loops (AVX2).
  kSimdKernel,
};

/// Cost-model dispatch: true when the overlap-save FFT path is estimated
/// cheaper than the given direct form for an x-length-n signal and m-tap
/// kernel. The model depends only on the sizes, never on the host, so
/// every host takes the same path and produces the same bits.
bool use_fft_convolution(std::size_t n, std::size_t m,
                         DirectForm direct = DirectForm::kLoop);

/// Full linear convolution y[k] = sum_j h[j]·x[k-j], k in [0, n+m-1).
/// Empty x or h yields an empty result. Dispatches direct vs FFT.
Signal convolve_full(std::span<const Real> x, std::span<const Real> h);

/// Direct-form full convolution (reference path; always exact).
Signal convolve_full_direct(std::span<const Real> x, std::span<const Real> h);

/// Overlap-save FFT full convolution (packed real blocks).
Signal convolve_full_fft(std::span<const Real> x, std::span<const Real> h);

/// Full convolution of a complex signal with a real kernel — the receiver's
/// baseband low-pass filters both rails in one pass. Dispatches direct/FFT.
ComplexSignal convolve_full(std::span<const Complex> x,
                            std::span<const Real> h);
ComplexSignal convolve_full_direct(std::span<const Complex> x,
                                   std::span<const Real> h);
ComplexSignal convolve_full_fft(std::span<const Complex> x,
                                std::span<const Real> h);

/// Valid-mode correlation out[k] = sum_i x[k+i]·h[i] via the FFT path
/// (convolution with the reversed template). Same contract as
/// correlate_valid: empty result when h is empty or longer than x.
Signal correlate_valid_fft(std::span<const Real> x, std::span<const Real> h);

/// Zero-phase filter of a complex signal with a real (odd-length) FIR:
/// full convolution sliced by the group delay (taps-1)/2, so the output
/// aligns with the input in time. One pass over both rails.
ComplexSignal filter_zero_phase(std::span<const Real> coefficients,
                                std::span<const Complex> x);

/// Zero-phase filter into a caller-provided buffer (resized to x.size()).
/// `out` must not alias `x`.
void filter_zero_phase(std::span<const Real> coefficients,
                       std::span<const Complex> x, ComplexSignal& out);

}  // namespace ecocap::dsp
