#include "dsp/goertzel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecocap::dsp {

void goertzel_powers(std::span<const Real> x, std::span<const Real> omega,
                     std::span<Real> out) {
  if (out.size() != omega.size()) {
    throw std::invalid_argument("goertzel_powers: size mismatch");
  }
  // Three independent recurrences per pass: each one is latency-bound, so
  // the extra two ride along almost free.
  constexpr std::size_t kLanes = 3;
  for (std::size_t j0 = 0; j0 < omega.size(); j0 += kLanes) {
    const std::size_t lanes = std::min(kLanes, omega.size() - j0);
    Real coeff[kLanes] = {0.0, 0.0, 0.0};
    Real s1[kLanes] = {0.0, 0.0, 0.0};
    Real s2[kLanes] = {0.0, 0.0, 0.0};
    for (std::size_t j = 0; j < lanes; ++j) {
      coeff[j] = 2.0 * std::cos(omega[j0 + j]);
    }
    for (const Real v : x) {
      for (std::size_t j = 0; j < kLanes; ++j) {
        const Real s0 = v + coeff[j] * s1[j] - s2[j];
        s2[j] = s1[j];
        s1[j] = s0;
      }
    }
    for (std::size_t j = 0; j < lanes; ++j) {
      out[j0 + j] = s1[j] * s1[j] + s2[j] * s2[j] - coeff[j] * s1[j] * s2[j];
    }
  }
}

}  // namespace ecocap::dsp
