#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "channel/link_budget.hpp"
#include "channel/scatterers.hpp"
#include "channel/structures.hpp"
#include "dsp/biquad.hpp"
#include "dsp/filter_cache.hpp"
#include "dsp/oscillator.hpp"
#include "dsp/rng.hpp"
#include "dsp/types.hpp"
#include "wave/prism.hpp"
#include "wave/ray_tracer.hpp"

namespace ecocap::channel {

using dsp::Real;
using dsp::Signal;

/// Configuration of a waveform-level acoustic link through a structure.
struct ChannelConfig {
  Real fs = 2.0e6;                 // simulation sample rate (Hz)
  Real distance = 1.0;             // reader -> node path length (m)
  Real prism_angle_deg = 60.0;     // injection angle (0 = no prism)
  Real concrete_resonance = 230.0e3;  // Hz, center of the carrier band
  Real concrete_q = 10.0;          // resonator Q of the concrete+PZT path
  /// Acoustic noise floor at the receiving PZT, as an absolute sample
  /// standard deviation relative to a unit-amplitude carrier at 1 m.
  Real noise_sigma = 3.0e-3;
  /// Self-interference power ratio: CBW leakage + surface waves are ~10x
  /// stronger in amplitude than the backscatter at the reader RX (§3.4).
  Real self_interference_gain = 10.0;
  /// When true, convolve with ray-traced boundary-reflection taps instead
  /// of only the direct mode arrivals.
  bool use_multipath = false;
  int multipath_rays = 48;
  /// When true, keep the absolute propagation delay in the output instead
  /// of normalizing to the first arrival — required for time-of-flight
  /// ranging of nodes at unknown positions (§3.2's discovery problem).
  bool preserve_absolute_delay = false;
  /// Foreign objects inside the concrete (§3.5): when non-empty, the link
  /// gain is additionally scaled by the scatterer field's
  /// frequency-selective path gain at `carrier_for_scatterers`.
  std::vector<Scatterer> scatterers;
  Real carrier_for_scatterers = 230.0e3;
};

/// End-to-end acoustic channel through a concrete structure. Downlink takes
/// the reader's transmitted acoustic waveform and produces the waveform at
/// the node's PZT; uplink takes the node's backscatter emission and produces
/// the waveform at the reader's receiving PZT, including the CBW
/// self-interference (paper §3.2-3.4).
class ConcreteChannel {
 public:
  /// Owning construction: copies the structure and config in.
  ConcreteChannel(Structure structure, ChannelConfig config);

  /// Shared immutable snapshot construction: Monte-Carlo harnesses build
  /// one SystemConfig snapshot and alias its structure/channel members into
  /// every per-trial channel, so heavyweight fields (the scatterer list in
  /// particular) are never copied per trial.
  ConcreteChannel(std::shared_ptr<const Structure> structure,
                  std::shared_ptr<const ChannelConfig> config);

  /// Propagate the reader's acoustic output to the node, into a
  /// caller-provided buffer (resized to the input length). Applies:
  ///  * prism mode split (an early P copy + the main S copy when the
  ///    incident angle is below the first critical angle),
  ///  * the concrete/PZT band resonance ("FSK in, OOK out" physics),
  ///  * distance attenuation per the structure's range law,
  ///  * additive Gaussian acoustic noise.
  /// `out` must not alias `tx_acoustic`.
  void downlink(std::span<const Real> tx_acoustic, dsp::Rng& rng,
                Signal& out) const;

  /// Propagate the node's backscatter emission to the reader RX into a
  /// caller-provided buffer, adding the CBW self-interference at an
  /// amplitude derived from the propagated backscatter RMS (§3.4's "10x
  /// stronger"). `out` must not alias `node_emission`.
  /// @param carrier_frequency frequency of the CBW for SI synthesis
  void uplink(std::span<const Real> node_emission, Real carrier_frequency,
              dsp::Rng& rng, Signal& out) const;

  /// Uplink with an explicitly chosen self-interference amplitude instead
  /// of the RMS-derived one. This is the form the streaming pipeline uses:
  /// a live reader knows its own CBW drive level up front, whereas the RMS
  /// derivation needs the whole emission in hand. Passing
  /// `self_interference_gain * rms(propagated emission) * sqrt(2)` (see
  /// `uplink_si_amplitude`) reproduces the RMS-derived overload exactly.
  void uplink(std::span<const Real> node_emission, Real carrier_frequency,
              Real si_amplitude, dsp::Rng& rng, Signal& out) const;

  /// The SI amplitude the RMS-derived uplink would use for an emission
  /// whose *propagated* (post path-gain, post resonance) waveform has the
  /// given RMS.
  Real uplink_si_amplitude(Real propagated_rms) const;

  /// Streaming downlink: the same tap convolution → resonator → AWGN chain
  /// as the batch `downlink`, restaged as a block processor with explicit
  /// carried state (tap delay line, biquad state, noise RNG). Feeding a
  /// waveform through `push_block` in pieces of any size produces exactly
  /// the bytes the batch call produces on the concatenation, because every
  /// element is a per-sample recurrence over carried state.
  class DownlinkStream {
   public:
    /// @param channel must outlive the stream
    /// @param noise_seed seed of the stream's private AWGN draw sequence;
    ///        matching a batch call requires seeding a fresh Rng equally
    DownlinkStream(const ConcreteChannel& channel, std::uint64_t noise_seed);

    /// Transform one block in place: x is the tx acoustic waveform on
    /// entry, the at-node waveform on exit.
    void push_block(Signal& x);

    /// Absolute sample index of the next sample to be pushed.
    std::uint64_t position() const { return pos_; }

    /// Bit-exact carried-state round trip (tap delay line, biquad state,
    /// noise RNG, position); the tap geometry is config, recomputed at
    /// construction.
    void save(dsp::ser::Writer& w) const;
    void load(dsp::ser::Reader& r);

   private:
    template <class Self, class Ar> static void io(Self& self, Ar& ar);
    const ConcreteChannel* channel_;
    std::vector<std::size_t> shifts_;  // per-tap delays, samples
    std::vector<Real> amps_;           // per-tap amplitudes (taps order)
    std::size_t max_shift_ = 0;
    Signal hist_;  // last max_shift_ raw inputs (the tap delay line)
    Signal ext_;   // scratch: hist_ ++ current block
    dsp::Biquad resonator_;
    Real resonance_scale_ = 1.0;
    bool has_resonance_scale_ = false;
    dsp::Rng rng_;
    std::uint64_t pos_ = 0;
  };

  /// Streaming uplink with an explicit SI amplitude (see the explicit-SI
  /// batch overload above for why streaming fixes the amplitude up front).
  /// Carried state: biquad, SI oscillator phase, noise RNG. Not available
  /// when `preserve_absolute_delay` is set (the shift-padding prepends
  /// silence, which a live stream models as scheduling, not padding) —
  /// the constructor throws.
  class UplinkStream {
   public:
    UplinkStream(const ConcreteChannel& channel, Real carrier_frequency,
                 Real si_amplitude, std::uint64_t noise_seed);

    /// Transform one block in place: x is the node emission on entry, the
    /// at-reader waveform on exit.
    void push_block(Signal& x);

    /// Bit-exact carried-state round trip (biquad, SI oscillator phase,
    /// noise RNG).
    void save(dsp::ser::Writer& w) const;
    void load(dsp::ser::Reader& r);

   private:
    template <class Self, class Ar> static void io(Self& self, Ar& ar);
    const ConcreteChannel* channel_;
    Real gain_;
    dsp::Biquad resonator_;
    Real resonance_scale_ = 1.0;
    bool has_resonance_scale_ = false;
    dsp::Oscillator si_;
    Real si_amplitude_;
    dsp::Rng rng_;
  };

  /// Amplitude scale of the direct path at the configured distance (the
  /// same quantity the link budget computes, normalized to TX amplitude 1),
  /// including any scatterer-field fading at the configured carrier.
  Real path_gain() const;

  /// Scatterer fading factor alone at frequency f (1.0 when no scatterers
  /// are configured). Exposed so a reader can implement the §3.5 carrier
  /// fine-tuning against the actual deployment.
  Real scatterer_gain(Real frequency) const;

  /// The mode tap set actually used (delay seconds, amplitude). Computed
  /// once at construction (the geometry is immutable) and shared by every
  /// downlink call, so ray tracing drops out of the per-trial loop.
  const std::vector<wave::Tap>& mode_taps() const { return mode_taps_; }

  const Structure& structure() const { return *structure_; }
  const ChannelConfig& config() const { return *config_; }

 private:
  void apply_taps(std::span<const Real> x, const std::vector<wave::Tap>& taps,
                  Signal& out) const;
  void apply_resonance_inplace(Signal& x) const;
  /// Shift/copy + path gain + resonance; the deterministic half of uplink.
  void propagate_uplink(std::span<const Real> node_emission,
                        Signal& out) const;
  /// The stochastic half: SI carrier at the given amplitude, then AWGN.
  void add_uplink_si_noise(Signal& out, Real carrier_frequency,
                           Real si_amplitude, dsp::Rng& rng) const;
  std::vector<wave::Tap> compute_mode_taps() const;

  std::shared_ptr<const Structure> structure_;
  std::shared_ptr<const ChannelConfig> config_;
  wave::WavePrism prism_;
  std::optional<ScattererField> scatterer_field_;
  /// Designed once via the process-wide FilterCache; apply_resonance copies
  /// the zero-state prototype per call instead of redesigning the biquad.
  std::shared_ptr<const dsp::FilterCache::ResonatorDesign> resonator_;
  std::vector<wave::Tap> mode_taps_;
};

}  // namespace ecocap::channel
