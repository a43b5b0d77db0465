#pragma once

#include <cstdint>
#include <span>

#include "dsp/oscillator.hpp"
#include "dsp/types.hpp"

namespace ecocap::phy {

using dsp::Real;
using dsp::Signal;

/// Downlink carrier modulation scheme (paper §3.3).
enum class DownlinkScheme {
  /// Traditional on/off keying: the PZT drive is gated by the baseband.
  /// Suffers the ring effect — the disc keeps radiating into low intervals.
  kOok,
  /// The paper's anti-ring trick: the PZT never stops; low intervals are
  /// transmitted at an off-resonant frequency that the concrete suppresses
  /// ("FSK in, OOK out").
  kFskOffResonance,
};

/// Parameters of the downlink carrier synthesis.
struct CarrierParams {
  Real fs = 2.0e6;            // sample rate
  Real f_resonant = 230.0e3;  // concrete/PZT resonant carrier (high edge)
  Real f_off = 180.0e3;       // off-resonant carrier (low edge, FSK only)
  Real amplitude = 1.0;       // drive amplitude (volts, arbitrary units)
};

/// Modulate a PIE baseband (levels 0/1) onto the carrier.
/// OOK: carrier * level. FSK: phase-continuous hop between f_resonant
/// (level 1) and f_off (level 0) at constant amplitude.
Signal modulate_downlink(std::span<const Real> baseband,
                         const CarrierParams& params, DownlinkScheme scheme);

/// Modulate into a caller-provided buffer (resized to match).
void modulate_downlink(std::span<const Real> baseband,
                       const CarrierParams& params, DownlinkScheme scheme,
                       Signal& out);

/// Uplink backscatter modulation at the node. The impedance switch changes
/// the PZT between absorptive and reflective states; the reflected wave is
/// the incident carrier scaled by the modulation state (paper §2, Fig. 2).
struct BackscatterParams {
  /// Reflection amplitude in the reflective state (switch open).
  Real reflective_gain = 1.0;
  /// Residual reflection in the absorptive state (structural scattering of
  /// the shell never reaches zero).
  Real absorptive_gain = 0.25;
  /// Square subcarrier (backscatter link frequency) in Hz; 0 disables the
  /// BLF shift. With a subcarrier the data sidebands move +-f_blf away from
  /// the carrier, opening the guard band of Fig. 24 / Appendix C. At most
  /// fs/2 (backscatter_modulate throws above it).
  Real f_blf = 0.0;
};

/// Apply the switching waveform to the incident carrier samples.
/// `switching` is the bipolar (+1/-1) line-coded waveform (e.g. FM0);
/// with a subcarrier the effective state is switching XOR square(f_blf).
Signal backscatter_modulate(std::span<const Real> incident_carrier,
                            std::span<const Real> switching, Real fs,
                            const BackscatterParams& params);

/// Modulate into a caller-provided buffer (resized to match); the BLF
/// subcarrier is synthesized inline, so no square-wave buffer is allocated.
/// `out` must not alias the inputs.
void backscatter_modulate(std::span<const Real> incident_carrier,
                          std::span<const Real> switching, Real fs,
                          const BackscatterParams& params, Signal& out);

/// Streaming form: modulate a block whose first sample sits
/// `switching_offset` samples after the switching waveform's origin, so a
/// frame can be reflected block by block with the BLF subcarrier phase
/// carried implicitly by the absolute index. Samples past the end of
/// `switching` rest in the absorptive state exactly as the batch form, so
/// an empty `switching` span models the idle (rest-state) reflection.
/// `out.size()` must equal `incident_carrier.size()`; `out` may alias
/// `incident_carrier` (the transform is elementwise).
void backscatter_modulate(std::span<const Real> incident_carrier,
                          std::span<const Real> switching,
                          std::uint64_t switching_offset, Real fs,
                          const BackscatterParams& params,
                          std::span<Real> out);

/// The bipolar square subcarrier itself (for receiver-side demodulation).
Signal blf_square(Real fs, Real f_blf, std::size_t n, std::size_t phase = 0);

/// Square subcarrier into a caller-provided buffer (resized to n).
void blf_square(Real fs, Real f_blf, std::size_t n, std::size_t phase,
                Signal& out);

}  // namespace ecocap::phy
