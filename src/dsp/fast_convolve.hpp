#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.hpp"

namespace ecocap::dsp {

/// Fast-convolution kernel layer behind correlate_valid: the overlap-save
/// FFT route for long templates, the cost model that picks it over the
/// SIMD direct kernel, and the direct-form reference that tests check
/// against.
///
/// The FFT path packs two real overlap-save blocks into one complex FFT
/// (block A in the real part, block B in the imaginary part); because the
/// kernel is real, Y = H·X separates back into the two block outputs as the
/// real and imaginary parts of the inverse transform, so real signals cost
/// one forward + one inverse FFT per *two* blocks.

/// Cost-model dispatch: true when the overlap-save FFT path is estimated
/// cheaper than the SIMD correlation kernel for an x-length-n signal and
/// m-tap kernel. The model depends only on the sizes, never on the host, so
/// every host takes the same path and produces the same bits.
bool use_fft_convolution(std::size_t n, std::size_t m);

/// Direct-form full convolution y[k] = sum_j h[j]·x[k-j], k in
/// [0, n+m-1) (reference path; always exact). Empty x or h yields an empty
/// result.
Signal convolve_full_direct(std::span<const Real> x, std::span<const Real> h);

/// Overlap-save FFT full convolution (packed real blocks), same contract.
Signal convolve_full_fft(std::span<const Real> x, std::span<const Real> h);

/// Valid-mode correlation out[k] = sum_i x[k+i]·h[i] via the FFT path
/// (convolution with the reversed template). Same contract as
/// correlate_valid: empty result when h is empty or longer than x.
Signal correlate_valid_fft(std::span<const Real> x, std::span<const Real> h);

}  // namespace ecocap::dsp
