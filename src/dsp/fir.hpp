#pragma once

#include <cstddef>

#include "dsp/types.hpp"

namespace ecocap::dsp {

/// Hamming-windowed-sinc low-pass FIR design, normalized to unit DC gain.
/// @param fs sample rate (Hz)
/// @param cutoff -6 dB cutoff (Hz)
/// @param taps number of coefficients (made odd internally for symmetry)
Signal design_lowpass(Real fs, Real cutoff, std::size_t taps);

}  // namespace ecocap::dsp
