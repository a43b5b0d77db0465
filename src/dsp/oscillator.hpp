#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.hpp"

namespace ecocap::dsp {

/// Phase-continuous sinusoidal oscillator. Used by the reader transmitter to
/// synthesize the continuous body wave (CBW) and to hop between the resonant
/// and off-resonant FSK frequencies without phase discontinuities (a phase
/// jump would itself excite the PZT ring).
///
/// The phase advances by one serial recurrence (add the step, wrap into
/// [0, 2*pi)); the sines of a block of phases are then taken in one call of
/// the `kernels::KernelTable::sine` map. Every entry point runs the same
/// recurrence and the same bit-identical kernel, so `next` x n, `generate`
/// and `accumulate` give the same bits at any block split, and `advance`
/// leaves the phase exactly where they would.
class Oscillator {
 public:
  /// @param fs sample rate in Hz
  /// @param frequency initial frequency in Hz
  Oscillator(Real fs, Real frequency);

  /// Change frequency; phase stays continuous.
  void set_frequency(Real frequency);

  Real frequency() const { return frequency_; }

  /// Produce the next sample of amplitude `amplitude`.
  Real next(Real amplitude = 1.0);

  /// Produce `n` samples into a new buffer.
  Signal generate(std::size_t n, Real amplitude = 1.0);

  /// Produce `n` samples into a caller-provided buffer (resized to n).
  void generate(std::size_t n, Real amplitude, Signal& out);

  /// Add the next `x.size()` samples onto `x` (x[i] += next(amplitude)).
  void accumulate(std::span<Real> x, Real amplitude);

  /// Write the next `out.size()` phases — the arguments `next` would take
  /// the sine of — and advance past them.
  void phases(std::span<Real> out);

  /// Advance past the next `n` samples without producing them: the same
  /// phase recurrence, no sines.
  void advance(std::size_t n);

  /// Current phase in radians, wrapped to [0, 2*pi).
  Real phase() const { return phase_; }

  void reset_phase(Real phase = 0.0) { phase_ = phase; }

 private:
  Real fs_;
  Real frequency_;
  Real phase_ = 0.0;
  Real step_;
};

/// Convenience: a single tone of `n` samples at frequency f (Hz), fs (Hz).
Signal tone(Real fs, Real f, std::size_t n, Real amplitude = 1.0,
            Real phase0 = 0.0);

/// Linear chirp from f0 to f1 across n samples, used by the frequency-sweep
/// characterization experiments (Fig. 5).
Signal chirp(Real fs, Real f0, Real f1, std::size_t n, Real amplitude = 1.0);

}  // namespace ecocap::dsp
