#pragma once

#include <span>

#include "dsp/kernels/kernels.hpp"
#include "dsp/types.hpp"

namespace ecocap::dsp::ser {
class Writer;
class Reader;
}  // namespace ecocap::dsp::ser

namespace ecocap::dsp {

/// Second-order IIR section, designed with the RBJ audio-EQ cookbook
/// formulas and run in the kernel table's M = 4 look-ahead form
/// (`kernels::BiquadCoeffs`). Biquads model the *analog* parts of the
/// system — the concrete and PZT mechanical resonances — where a long FIR
/// would be the wrong physical abstraction.
class Biquad {
 public:
  /// Raw coefficients (already normalized by a0).
  Biquad(Real b0, Real b1, Real b2, Real a1, Real a2);

  /// Resonant low-pass with quality factor q at frequency f0.
  static Biquad lowpass(Real fs, Real f0, Real q);

  /// Constant-peak band-pass centered on f0.
  static Biquad bandpass(Real fs, Real f0, Real q);

  /// Notch rejecting f0.
  static Biquad notch(Real fs, Real f0, Real q);

  Signal process(std::span<const Real> x);
  /// Filter into a caller-provided buffer (resized to match). `out` may be
  /// the buffer `x` views for an in-place pass — the kernel keeps its own
  /// copy of the input history. Any split of a stream into calls gives the
  /// same bytes as one call.
  void process(std::span<const Real> x, Signal& out);
  void reset() { state_ = {}; }

  /// Magnitude response at frequency f (Hz) for sample rate fs.
  Real magnitude_at(Real fs, Real f) const;

  /// Bit-exact filter-state round trip (coefficients are config, not state):
  /// the last eight inputs and outputs, `bq.x1`..`bq.x8` and
  /// `bq.y1`..`bq.y8` with x1 the newest.
  void save(ser::Writer& w) const;
  void load(ser::Reader& r);

 private:
  template <class Self, class Ar> static void io(Self& self, Ar& ar);
  Real b0_, b1_, b2_, a1_, a2_;
  kernels::BiquadCoeffs lookahead_;
  kernels::BiquadState state_;
};

/// Single-pole RC low-pass, the behavioural model of the envelope detector's
/// smoothing capacitor on the EcoCapsule motherboard.
class OnePoleLowpass {
 public:
  /// @param fs sample rate, @param cutoff -3 dB corner in Hz
  OnePoleLowpass(Real fs, Real cutoff);

  Real process(Real x);
  Signal process(std::span<const Real> x);
  /// Canonical batch form: filter into a caller-provided buffer (resized to
  /// match) with no per-call allocation once `out` has capacity. `out` may
  /// be the buffer `x` views for an in-place pass — the kernel reads each
  /// block before writing it. Runs the block-scan kernel, which differs in
  /// rounding from the per-sample recurrence within documented tolerance.
  void process(std::span<const Real> x, Signal& out);
  void reset() { state_ = 0.0; }

  Real alpha() const { return alpha_; }
  Real state() const { return state_; }
  void set_state(Real s) { state_ = s; }

 private:
  Real alpha_;
  Real state_ = 0.0;
};

}  // namespace ecocap::dsp
