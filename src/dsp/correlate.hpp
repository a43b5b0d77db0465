#pragma once

#include <span>

#include "dsp/types.hpp"

namespace ecocap::dsp {

/// Full cross-correlation of x against template h:
/// out[k] = sum_i x[k+i] * h[i], k in [0, x.size()-h.size()].
/// (Valid-mode correlation; empty result if h is longer than x.)
Signal correlate_valid(std::span<const Real> x, std::span<const Real> h);

/// Index of the maximum of valid-mode correlation — used for preamble
/// alignment in the reader's FM0 decoder.
std::size_t best_alignment(std::span<const Real> x, std::span<const Real> h);

/// Normalized correlation coefficient between two equal-length buffers,
/// in [-1, 1]. Zero-energy inputs return 0.
Real correlation_coefficient(std::span<const Real> a, std::span<const Real> b);

/// Digital downconversion: multiply the real passband signal by a complex
/// exponential at -f0, without low-pass. mix_lowpass_decimate folds this
/// mixer into its filter; tests use it as the reference.
ComplexSignal mix_down(std::span<const Real> x, Real fs, Real f0);

}  // namespace ecocap::dsp
