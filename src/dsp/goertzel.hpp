#pragma once

#include <span>

#include "dsp/types.hpp"

namespace ecocap::dsp {

/// Goertzel DFT bins: cheap per-tone power measurement, what an MCU-class
/// receiver can afford. Squared magnitudes |sum_i x[i] e^{-i w_j i}|^2 at
/// several angular frequencies w_j (radians per sample) — out[j] for
/// omega[j] — with the recurrences run three abreast per pass over x, so a
/// few neighbouring bins cost about one. `out.size()` must equal
/// `omega.size()`.
void goertzel_powers(std::span<const Real> x, std::span<const Real> omega,
                     std::span<Real> out);

}  // namespace ecocap::dsp
