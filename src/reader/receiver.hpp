#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <span>

#include "dsp/types.hpp"
#include "dsp/workspace.hpp"
#include "phy/fm0.hpp"

namespace ecocap::reader {

using dsp::Real;
using dsp::Signal;

/// The reader's receive chain (paper §5.1): the bare receiving PZT samples
/// the wall (1 MS/s oscilloscope in the prototype; here `fs`), and the
/// decoder performs carrier estimation, digital downconversion,
/// self-interference rejection, optional BLF subcarrier demodulation, and
/// maximum-likelihood FM0 decoding — the MATLAB pipeline, in C++.
struct ReceiverConfig {
  Real fs = 2.0e6;
  Real carrier_search_lo = 150.0e3;  // Hz band for carrier estimation
  Real carrier_search_hi = 300.0e3;
  Real blf = 4000.0;      // expected backscatter link frequency (0 = none)
  phy::Fm0Params uplink;  // expected line coding
  Real min_preamble_corr = 0.45;
  std::size_t lowpass_taps = 129;
};

/// Decoded uplink frame plus quality metrics.
struct UplinkDecode {
  phy::Bits payload;
  bool valid = false;
  Real carrier_estimate = 0.0;   // Hz
  Real preamble_correlation = 0.0;
  /// Decision-domain SNR estimate; NaN until a frame is validly decoded
  /// and scored (a truncated frame is rejected, never scored as 0 dB).
  Real snr_db = std::numeric_limits<Real>::quiet_NaN();
  /// Arrival time of the frame preamble within the capture (seconds). With
  /// a delay-preserving channel this carries the round-trip time of flight
  /// used for node ranging.
  Real frame_start_s = 0.0;
};

class Receiver {
 public:
  explicit Receiver(ReceiverConfig config = {});

  /// Full pipeline on a captured waveform; decodes `payload_bits` data bits
  /// that follow the FM0 preamble.
  UplinkDecode decode(std::span<const Real> rx, std::size_t payload_bits) const;

  /// Workspace-backed decode: every intermediate stage buffer (prefix
  /// spectrum, decimated baseband, aligned real baseband, preamble
  /// template, subcarrier square, per-phase demod) is leased from `ws`
  /// instead of heap-allocated per call. Bit-identical to the plain
  /// overload.
  UplinkDecode decode(std::span<const Real> rx, std::size_t payload_bits,
                      dsp::Workspace& ws) const;

  /// The demodulated bipolar baseband before FM0 slicing (diagnostics,
  /// Fig. 22 reproduction): decode's front end (carrier search, mixer and
  /// low-pass, phase alignment) at decimation 1, without the DC block.
  Signal demodulated_baseband(std::span<const Real> rx) const;

  const ReceiverConfig& config() const { return config_; }
  void set_blf(Real blf) { config_.blf = blf; }
  void set_bitrate(Real bitrate) { config_.uplink.bitrate = bitrate; }

 private:
  /// The baseband low-pass design (cached process-wide).
  std::shared_ptr<const Signal> lowpass() const;
  /// Project the complex baseband onto its principal phase axis.
  void phase_align(const dsp::ComplexSignal& z, Signal& out) const;

  ReceiverConfig config_;
};

}  // namespace ecocap::reader
