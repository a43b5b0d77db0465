#include "dsp/goertzel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ecocap::dsp {

Real goertzel_power(std::span<const Real> x, Real fs, Real f) {
  if (x.empty()) return 0.0;
  const Real w = kTwoPi * f / fs;
  Real p = 0.0;
  goertzel_powers(x, std::span<const Real>(&w, 1), std::span<Real>(&p, 1));
  return p;
}

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

Goertzel::Goertzel(Real fs, Real f, std::size_t block_size)
    : coeff_(2.0 * std::cos(kTwoPi * f / fs)), block_size_(block_size) {
  if (block_size == 0) throw std::invalid_argument("Goertzel: empty block");
}

bool Goertzel::push(Real sample) {
  const Real s0 = sample + coeff_ * s1_ - s2_;
  s2_ = s1_;
  s1_ = s0;
  if (++count_ == block_size_) {
    power_ = s1_ * s1_ + s2_ * s2_ - coeff_ * s1_ * s2_;
    s1_ = s2_ = 0.0;
    count_ = 0;
    return true;
  }
  return false;
}

}  // namespace ecocap::dsp
