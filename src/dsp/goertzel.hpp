#pragma once

#include <span>

#include "dsp/types.hpp"

namespace ecocap::dsp {

/// Goertzel single-bin DFT: cheap per-tone power measurement. This mirrors
/// what an MCU-class receiver can afford, and is used by the node-side FSK
/// discrimination tests and by narrowband SNR probes.
///
/// Returns the squared magnitude of the DFT bin nearest `f` over the block.
Real goertzel_power(std::span<const Real> x, Real fs, Real f);

/// Squared magnitudes |sum_i x[i] e^{-i w_j i}|^2 at several angular
/// frequencies w_j (radians per sample) — out[j] for omega[j] — with the
/// recurrences run three abreast per pass over x, so a few neighbouring
/// bins cost about one. `out.size()` must equal `omega.size()`.
void goertzel_powers(std::span<const Real> x, std::span<const Real> omega,
                     std::span<Real> out);

/// Streaming Goertzel over fixed-length blocks.
class Goertzel {
 public:
  Goertzel(Real fs, Real f, std::size_t block_size);

  /// Push one sample; returns true when a block completed (power() is fresh).
  bool push(Real sample);

  /// Squared magnitude of the last completed block.
  Real power() const { return power_; }

  std::size_t block_size() const { return block_size_; }

 private:
  Real coeff_;
  std::size_t block_size_;
  std::size_t count_ = 0;
  Real s1_ = 0.0, s2_ = 0.0;
  Real power_ = 0.0;
};

}  // namespace ecocap::dsp
