#include "core/ber_harness.hpp"

#include <cmath>

#include "core/trial_runner.hpp"
#include "dsp/signal_ops.hpp"
#include "phy/bits.hpp"

namespace ecocap::core {

phy::Bits fm0_hard_decode(std::span<const Real> x, Real samples_per_bit,
                          std::size_t bit_count) {
  phy::Bits out;
  out.reserve(bit_count);
  for (std::size_t k = 0; k < bit_count; ++k) {
    const auto lo = static_cast<std::size_t>(
        std::llround(samples_per_bit * static_cast<Real>(k)));
    const auto mid = static_cast<std::size_t>(
        std::llround(samples_per_bit * (static_cast<Real>(k) + 0.5)));
    const auto hi = static_cast<std::size_t>(
        std::llround(samples_per_bit * static_cast<Real>(k + 1)));
    Real first = 0.0, second = 0.0;
    for (std::size_t i = lo; i < mid && i < x.size(); ++i) first += x[i];
    for (std::size_t i = mid; i < hi && i < x.size(); ++i) second += x[i];
    // Mid-symbol transition (halves with opposite sign) -> data-0.
    out.push_back((first > 0.0) == (second > 0.0) ? 1 : 0);
  }
  return out;
}

namespace {

/// Per-sample AWGN sigma for the configured decision-domain SNR.
/// config.snr_db is the *decision-domain* SNR (the Fig. 15 axis): an
/// antipodal per-bit SNR, so BER_ML ~ Q(sqrt(2 snr)). The per-bit decision
/// integrates samples_per_bit samples, so the per-sample noise variance is
/// sigma^2 = P * samples_per_bit / (2 * snr).
Real awgn_sigma(const BerConfig& config) {
  const Real snr_lin = dsp::from_db(config.snr_db);
  return std::sqrt(config.samples_per_bit / (2.0 * snr_lin));  // P = 1
}

/// One frame: encode random bits, add noise, decode, count errors.
void run_frame(const BerConfig& config, Real sigma, dsp::Rng& rng,
               BerResult& acc) {
  const Real fs = config.samples_per_bit;  // normalize bitrate to 1
  const phy::Bits tx = phy::random_bits(config.frame_bits, rng);
  dsp::Signal wave = phy::fm0_encode(tx, fs, 1.0);
  dsp::add_awgn(wave, sigma, rng);

  const phy::Bits rx =
      (config.decoder == UplinkDecoder::kMlFm0)
          ? phy::fm0_decode(wave, config.samples_per_bit, tx.size())
          : fm0_hard_decode(wave, config.samples_per_bit, tx.size());
  acc.errors += phy::hamming_distance(tx, rx);
  acc.bits += tx.size();
}

}  // namespace

BerResult fm0_ber_monte_carlo(const BerConfig& config, ThreadPool& pool) {
  const Real sigma = awgn_sigma(config);
  const std::size_t frame_bits = std::max<std::size_t>(config.frame_bits, 1);
  const std::size_t frames =
      (config.total_bits + frame_bits - 1) / frame_bits;
  const TrialRunner runner(pool);
  return runner.run<BerResult>(
      frames, config.seed,
      [&](std::size_t, dsp::Rng& rng, BerResult& acc) {
        run_frame(config, sigma, rng, acc);
      },
      [](BerResult& into, const BerResult& from) {
        into.bits += from.bits;
        into.errors += from.errors;
      });
}

BerResult fm0_ber_monte_carlo(const BerConfig& config) {
  return fm0_ber_monte_carlo(config, ThreadPool::shared());
}

}  // namespace ecocap::core
