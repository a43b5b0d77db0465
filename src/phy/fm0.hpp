#pragma once

#include <span>

#include "dsp/types.hpp"
#include "phy/bits.hpp"

namespace ecocap::phy {

using dsp::Real;
using dsp::Signal;

/// FM0 (bi-phase space) line code used for the uplink (paper §3.4, as in
/// EPC Gen2). The level inverts at every symbol boundary; a data-0 inverts
/// again at mid-symbol. Decoding therefore depends on the *presence of a
/// transition*, not the absolute duration — the robustness property the
/// paper cites for in-concrete channels.
struct Fm0Params {
  Real bitrate = 1000.0;     // b/s
  int preamble_pairs = 6;    // preamble = alternating 1-bits ("1010..")
};

/// The fixed preamble bit pattern prepended to every uplink frame; the
/// reader correlates against its waveform for alignment.
Bits fm0_preamble(const Fm0Params& params);

/// Air time of a frame carrying `payload_bits` at `bitrate`: preamble plus
/// payload plus a 4-bit tail. It sizes the carrier a reader keeps on for a
/// reply, and the capture window that decodes it.
Real fm0_frame_seconds(std::size_t payload_bits, const Fm0Params& params,
                       Real bitrate);

/// Encode bits into a bipolar (+1/-1) baseband at sample rate fs, starting
/// from level `start_level` (+1 or -1). The preamble is NOT added here.
Signal fm0_encode(std::span<const std::uint8_t> bits, Real fs, Real bitrate,
                  Real start_level = 1.0);

/// Encode into a caller-provided buffer (replaced, capacity reused).
void fm0_encode(std::span<const std::uint8_t> bits, Real fs, Real bitrate,
                Real start_level, Signal& out);

/// Encode preamble + payload into one frame waveform.
Signal fm0_encode_frame(const Bits& payload, const Fm0Params& params, Real fs);

/// Frame encode into a caller-provided buffer (replaced, capacity reused).
void fm0_encode_frame(const Bits& payload, const Fm0Params& params, Real fs,
                      Signal& out);

/// Maximum-likelihood FM0 decoder over soft bipolar samples. Implements a
/// 2-state Viterbi (state = level entering the symbol): for each symbol and
/// candidate (state, bit) the branch metric is the correlation of the
/// received window with the ideal half-level template. This is the decoder
/// the paper's MATLAB post-processing implements.
/// @param samples_per_bit fs / bitrate (need not be an integer multiple of 2
///        but at least 2 samples per half-bit are required)
Bits fm0_decode(std::span<const Real> x, Real samples_per_bit,
                std::size_t bit_count);

/// Locate the preamble waveform in `x` by matched-filter correlation and
/// decode `payload_bits` payload bits following it. Returns decoded bits
/// (empty when the preamble is not found with at least `min_corr`
/// normalized correlation).
struct Fm0FrameDecode {
  Bits payload;
  std::size_t frame_start = 0;  // sample index of the preamble start
  Real preamble_correlation = 0.0;
};
Fm0FrameDecode fm0_decode_frame(std::span<const Real> x,
                                const Fm0Params& params, Real fs,
                                std::size_t payload_bits,
                                Real min_corr = 0.5);

/// Frame decode against a caller-encoded preamble waveform
/// (fm0_encode(fm0_preamble(params), fs, params.bitrate)), so a caller that
/// searches several candidate basebands — the receiver's subcarrier phase
/// sweep — encodes it once.
Fm0FrameDecode fm0_decode_frame(std::span<const Real> x,
                                std::span<const Real> preamble_wave,
                                const Fm0Params& params, Real fs,
                                std::size_t payload_bits, Real min_corr);

}  // namespace ecocap::phy
