#pragma once

#include <complex>
#include <span>

#include "dsp/types.hpp"

namespace ecocap::dsp::ser {
class Writer;
class Reader;
}  // namespace ecocap::dsp::ser

namespace ecocap::phy {

using dsp::Real;
using dsp::Signal;

/// Behavioural model of a PZT disc as a driven mechanical resonator
/// (paper §3.3 "Ring Effect", Fig. 7), with the drive-dependent damping
/// that makes the paper's FSK trick work:
///
///  * while the amplifier drives the disc (at ANY frequency), its low
///    source impedance electrically loads the piezo — the resonance is
///    heavily damped (loaded Q), so frequency hops cause only a short
///    transient;
///  * when the drive stops (an OOK low edge), the disc is left open and
///    its stored mechanical energy rings down at the high unloaded Q —
///    the ~0.3 ms tail of Fig. 7(a) that smears PIE symbols.
///
/// Implemented as a broadband direct path plus a complex one-pole resonant
/// storage branch whose pole radius switches between the loaded and
/// unloaded decay rates based on a drive-presence detector.
class RingingPzt {
 public:
  /// @param fs sample rate (Hz)
  /// @param resonance disc resonant frequency (Hz), 230 kHz in the paper
  /// @param q unloaded (free-ringing) quality factor; Q ~ 217 gives the
  ///        paper's ~0.3 ms decay tail at 230 kHz (tau = Q / (pi f0)).
  /// @param direct_mix fraction of the output taken from the storage
  ///        branch; the rest is broadband drive-through. 0.5 makes the
  ///        post-transition tail start at half the steady amplitude,
  ///        matching the Fig. 7(a) trace.
  /// @param loaded_q quality factor while the amplifier drives the disc
  ///        (electrical damping); transients at FSK hops die in ~tens of us.
  RingingPzt(Real fs, Real resonance = 230.0e3, Real q = 217.0,
             Real direct_mix = 0.5, Real loaded_q = 18.0);

  /// Drive with an electrical waveform; returns the acoustic output,
  /// normalized so that a steady resonant tone passes at unity gain.
  Signal drive(std::span<const Real> excitation);

  /// Drive a waveform through the disc in place (zero-copy stage form:
  /// the electrical buffer becomes the acoustic one).
  void drive_inplace(std::span<Real> excitation);

  void reset();

  Real resonance() const { return resonance_; }

  /// Free ring-down time constant tau = Q / (pi f0), seconds.
  Real ring_time_constant() const;

  /// Time for the free ring to decay below `fraction` of its initial
  /// amplitude.
  Real ring_decay_time(Real fraction = 0.05) const;

  /// The carried recurrence state: the resonator and both detector
  /// envelopes. Everything else is configuration.
  struct State {
    std::complex<Real> s;
    Real env = 0.0;
    Real peak = 0.0;
  };
  State state() const { return {s_, env_, peak_}; }
  void set_state(const State& state) {
    s_ = state.s;
    env_ = state.env;
    peak_ = state.peak;
  }

  /// Bit-exact resonator-state round trip (pole/gain terms are config).
  void save(dsp::ser::Writer& w) const;
  void load(dsp::ser::Reader& r);

 private:
  template <class Self, class Ar> static void io(Self& self, Ar& ar);
  Real fs_;
  Real resonance_;
  Real q_;
  Real loaded_q_;
  Real mix_;
  Real rho_free_;
  Real rho_loaded_;
  std::complex<Real> rot_;   // per-sample phase rotation e^{j w0 / fs}
  std::complex<Real> s_{0.0, 0.0};  // resonator state
  Real out_gain_;            // normalization at the loaded pole radius
  Real env_ = 0.0;           // fast drive-presence envelope
  Real peak_ = 0.0;          // slow amplitude reference
  Real env_decay_;
  Real peak_decay_;
};

/// Duration of visible tailing when an OOK transmitter stops driving:
/// amplitude fraction `threshold` is crossed after tau * ln(1/threshold).
Real ook_tail_duration(Real resonance, Real q, Real threshold = 0.1);

}  // namespace ecocap::phy
