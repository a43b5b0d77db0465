#pragma once

#include <cstdint>

#include "core/thread_pool.hpp"
#include "dsp/rng.hpp"
#include "phy/fm0.hpp"

namespace ecocap::core {

using dsp::Real;

/// Uplink decoders compared in Fig. 15: the reader's coherent ML FM0
/// decoder vs the hard-decision (envelope-threshold) decoder PAB-class
/// systems use — worth a couple of dB at the same SNR.
enum class UplinkDecoder { kMlFm0, kHardDecision };

struct BerConfig {
  Real snr_db = 8.0;
  std::size_t total_bits = 20000;
  std::size_t frame_bits = 64;
  Real samples_per_bit = 32.0;
  UplinkDecoder decoder = UplinkDecoder::kMlFm0;
  std::uint64_t seed = 7;
};

struct BerResult {
  std::size_t bits = 0;
  std::size_t errors = 0;
  Real ber() const {
    return bits ? static_cast<Real>(errors) / static_cast<Real>(bits) : 0.0;
  }
};

/// Monte-Carlo BER of FM0 over an AWGN decision-domain channel (the
/// post-downconversion residual the reader actually slices). Frame sync is
/// assumed ideal — Fig. 15 measures coding/decoding efficiency, not sync.
///
/// Frames are independent trials sharded across `pool` with a
/// counter-derived RNG per frame, so the aggregate (bits, errors) is
/// bit-identical at any thread count and the sweep scales with cores.
BerResult fm0_ber_monte_carlo(const BerConfig& config, ThreadPool& pool);

/// Same, on the process-shared pool (honours ECOCAP_THREADS).
BerResult fm0_ber_monte_carlo(const BerConfig& config);

/// Hard-decision FM0 decode used by the PAB baseline model: sign-slice each
/// half-bit and read the mid-symbol transition.
phy::Bits fm0_hard_decode(std::span<const Real> x, Real samples_per_bit,
                          std::size_t bit_count);

}  // namespace ecocap::core
