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
  /// A one-shot run of the DownlinkStream recurrence from zero state,
  /// drawing the noise from `rng`. `out` must not alias `tx_acoustic`.
  void downlink(std::span<const Real> tx_acoustic, dsp::Rng& rng,
                Signal& out) const;

  /// Propagate the node's backscatter emission to the reader RX into a
  /// caller-provided buffer, adding the CBW self-interference at an
  /// amplitude derived from the propagated backscatter RMS (§3.4's "10x
  /// stronger"). A one-shot run of the UplinkStream's two halves from zero
  /// state with `rng`: propagate, measure the RMS, then SI + noise. With
  /// `preserve_absolute_delay` the one-way travel time is prepended as
  /// silence. `out` must not alias `node_emission`.
  /// @param carrier_frequency frequency of the CBW for SI synthesis
  void uplink(std::span<const Real> node_emission, Real carrier_frequency,
              dsp::Rng& rng, Signal& out) const;

  /// The SI amplitude the uplink uses for an emission whose *propagated*
  /// (post path-gain, post resonance) waveform has the given RMS.
  Real uplink_si_amplitude(Real propagated_rms) const;

  /// Streaming downlink: the downlink leg as a block processor with
  /// explicit carried state (tap delay line, biquad state, noise RNG).
  /// Feeding a waveform through `push_block` in pieces of any size produces
  /// exactly the bytes one push of the whole waveform produces — and the
  /// batch `downlink` is that single push from zero state.
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
    /// noise RNG, position); the tap geometry is the channel's.
    void save(dsp::ser::Writer& w) const;
    void load(dsp::ser::Reader& r);

   private:
    template <class Self, class Ar> static void io(Self& self, Ar& ar);
    const ConcreteChannel* channel_;
    Signal hist_;  // last max-shift raw inputs (the tap delay line)
    Signal ext_;   // scratch: hist_ ++ current block
    dsp::Biquad resonator_;
    dsp::Rng rng_;
    std::uint64_t pos_ = 0;
  };

  /// Streaming uplink with an SI amplitude fixed up front: a live reader
  /// knows its own CBW drive level, whereas the batch RMS derivation needs
  /// the whole emission in hand. Carried state: biquad, SI oscillator
  /// phase, noise RNG. Not available when `preserve_absolute_delay` is set
  /// (the batch padding prepends silence, which a live stream models as
  /// scheduling, not padding) — the constructor throws.
  class UplinkStream {
   public:
    UplinkStream(const ConcreteChannel& channel, Real carrier_frequency,
                 Real si_amplitude, std::uint64_t noise_seed);

    /// Transform one block in place: x is the node emission on entry, the
    /// at-reader waveform on exit.
    void push_block(Signal& x);

    /// Leave the carried state exactly where push_block(x) would, without
    /// the at-reader waveform: the resonator still filters x, but the SI
    /// sines and the noise values are skipped (the oscillator and the RNG
    /// only advance). x is left holding unspecified samples.
    void advance_block(Signal& x);

    /// Bit-exact carried-state round trip (biquad, SI oscillator phase,
    /// noise RNG).
    void save(dsp::ser::Writer& w) const;
    void load(dsp::ser::Reader& r);

   private:
    template <class Self, class Ar> static void io(Self& self, Ar& ar);
    const ConcreteChannel* channel_;
    dsp::Biquad resonator_;
    dsp::Rng rng_;
    dsp::Oscillator si_;
    Real si_amplitude_;
  };

  /// Amplitude scale of the direct path at the configured distance (the
  /// same quantity the link budget computes, normalized to TX amplitude 1),
  /// including any scatterer-field fading at the configured carrier.
  Real path_gain() const { return path_gain_; }

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
  // The legs' one implementation. Each runs over explicit carried state —
  // a stream passes its own, the batch calls pass zero state and the
  // caller's Rng — and each is a per-sample recurrence, so block splits
  // are invisible.

  /// Downlink: tap sum -> band resonance -> AWGN into `out` (sized to the
  /// block). `src` is the input sample aligned with out[0], which sits at
  /// absolute stream index `pos`; the max_tap_shift_ samples before `src`
  /// must be readable whenever pos > 0.
  void run_downlink(std::uint64_t pos, const Real* src,
                    dsp::Biquad& resonator, dsp::Rng& rng, Signal& out) const;
  /// Uplink, first half: path gain -> band resonance, in place.
  void run_uplink_propagate(dsp::Biquad& resonator, Signal& x) const;
  /// Uplink, second half: the CBW self-interference, then AWGN, in place.
  void run_uplink_si_noise(dsp::Oscillator& si, Real si_amplitude,
                           dsp::Rng& rng, Signal& x) const;
  /// The SI carrier at a random starting phase (the uplink RNG's first
  /// draw), which decorrelates SI from the carrier snapshot the node
  /// reflected.
  dsp::Oscillator si_oscillator(Real carrier_frequency, dsp::Rng& rng) const;
  std::vector<wave::Tap> compute_mode_taps() const;

  std::shared_ptr<const Structure> structure_;
  std::shared_ptr<const ChannelConfig> config_;
  wave::WavePrism prism_;
  std::optional<ScattererField> scatterer_field_;
  /// Designed once via the process-wide FilterCache; streams and batch
  /// calls copy the zero-state prototype instead of redesigning the biquad.
  std::shared_ptr<const dsp::FilterCache::ResonatorDesign> resonator_;
  Real path_gain_ = 0.0;
  std::vector<wave::Tap> mode_taps_;
  /// mode_taps_ as per-tap sample shifts (from the first arrival unless
  /// preserve_absolute_delay) and amplitudes, in tap order.
  std::vector<std::size_t> tap_shifts_;
  std::vector<Real> tap_amps_;
  std::size_t max_tap_shift_ = 0;
};

}  // namespace ecocap::channel
