#include "reader/receiver.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "dsp/biquad.hpp"
#include "dsp/decimate.hpp"
#include "dsp/filter_cache.hpp"
#include "dsp/signal_ops.hpp"
#include "phy/carrier.hpp"

namespace ecocap::reader {

Receiver::Receiver(ReceiverConfig config) : config_(config) {}

std::shared_ptr<const Signal> Receiver::lowpass() const {
  // Wide enough for the subcarrier + data sidebands. The design is cached
  // process-wide (every decode used to redesign the identical windowed
  // sinc).
  const Real cutoff =
      std::max(2.5 * config_.uplink.bitrate + config_.blf, 8.0e3);
  return dsp::FilterCache::shared().lowpass(config_.fs, cutoff,
                                            config_.lowpass_taps);
}

void Receiver::phase_align(const dsp::ComplexSignal& z, Signal& out) const {
  // The self-interference shows up as a (large) DC offset in the complex
  // baseband; remove the mean first, then project onto the principal phase
  // axis (0.5 * arg of the sum of squares).
  dsp::Complex mean(0.0, 0.0);
  for (const auto& v : z) mean += v;
  mean /= static_cast<Real>(std::max<std::size_t>(z.size(), 1));

  dsp::Complex sq(0.0, 0.0);
  for (const auto& v : z) {
    const dsp::Complex d = v - mean;
    sq += d * d;
  }
  const Real theta = 0.5 * std::arg(sq);
  const dsp::Complex rot = std::polar<Real>(1.0, -theta);
  out.resize(z.size());
  for (std::size_t i = 0; i < z.size(); ++i) {
    out[i] = ((z[i] - mean) * rot).real();
  }
}

namespace {

/// DC-block the complex baseband: the CBW self-interference lands within a
/// few Hz of the estimated carrier (never exactly at it), so after mixing it
/// is a slowly rotating, very large phasor. The BLF guard band (Appendix C)
/// exists precisely so this can be filtered: subtract a one-pole low-pass
/// track of each rail.
void dc_block(dsp::ComplexSignal& z, Real fs, Real cutoff,
              dsp::Workspace& ws) {
  dsp::OnePoleLowpass re_lp(fs, cutoff);
  dsp::OnePoleLowpass im_lp(fs, cutoff);
  // Prime the trackers with the initial mean so the transient is short.
  dsp::Complex mean(0.0, 0.0);
  const std::size_t warm = std::min<std::size_t>(z.size(), 256);
  for (std::size_t i = 0; i < warm; ++i) mean += z[i];
  if (warm > 0) mean /= static_cast<Real>(warm);
  // Settle the trackers for ~5 time constants of the one-pole (tau = fs /
  // (2 pi fc) samples) before the first real sample, whatever the cutoff; a
  // fixed count under-settles low cutoffs and leaves a DC residue on the
  // first symbols. Feeding a constant for `settle` steps from a zero state
  // has the closed form state = mean * (1 - (1-alpha)^settle), which
  // replaces the old up-to-65536-iteration warm-up loop.
  const Real tau_samples = fs / (dsp::kTwoPi * std::max(cutoff, 1e-6));
  const Real settle = std::min<Real>(5.0 * tau_samples + 1.0, 65536.0);
  const Real settled =
      1.0 - std::pow(1.0 - re_lp.alpha(), std::floor(settle));
  re_lp.set_state(mean.real() * settled);
  im_lp.set_state(mean.imag() * settled);
  // Deinterleave the rails into workspace buffers so the tracker runs as
  // two batch one-pole kernel passes instead of per-sample calls.
  auto re = ws.real(z.size());
  auto im = ws.real(z.size());
  for (std::size_t i = 0; i < z.size(); ++i) {
    (*re)[i] = z[i].real();
    (*im)[i] = z[i].imag();
  }
  re_lp.process(*re, *re);  // in-place: kernel reads each block first
  im_lp.process(*im, *im);
  for (std::size_t i = 0; i < z.size(); ++i) {
    z[i] = dsp::Complex(z[i].real() - (*re)[i], z[i].imag() - (*im)[i]);
  }
}

/// Decimation factor bringing the baseband down to a rate that still holds
/// >= 8 samples per subcarrier period and >= 16 per data bit.
std::size_t pick_decimation(Real fs, Real blf, Real bitrate) {
  Real fs2 = std::max({8.0 * blf, 16.0 * bitrate, 8.0e3});
  const auto m = static_cast<std::size_t>(std::max(1.0, std::floor(fs / fs2)));
  return m;
}

/// Decision-domain SNR of a decoded FM0 frame: integrate each half-bit of
/// the demodulated baseband, fit the bipolar amplitude, and compare the
/// residual scatter against it. Returns nullopt when the frame extends past
/// the demod buffer — a truncated frame has no meaningful SNR, and the old
/// 0.0 dB sentinel was indistinguishable from a genuine 0 dB measurement.
std::optional<Real> decision_snr_db(std::span<const Real> demod,
                                    std::size_t frame_start,
                                    const phy::Bits& all_bits, Real spb) {
  // Expected half-bit levels from the FM0 state machine.
  std::vector<Real> expected;
  Real level = 1.0;
  for (auto bit : all_bits) {
    level = -level;
    expected.push_back(level);
    if ((bit & 1u) == 0u) level = -level;
    expected.push_back(level);
  }
  std::vector<Real> sums;
  sums.reserve(expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    const auto lo = frame_start + static_cast<std::size_t>(
                                      std::llround(spb * 0.5 * static_cast<Real>(k)));
    const auto hi = frame_start + static_cast<std::size_t>(std::llround(
                                      spb * 0.5 * static_cast<Real>(k + 1)));
    if (hi > demod.size()) return std::nullopt;
    Real acc = 0.0;
    for (std::size_t i = lo; i < hi; ++i) acc += demod[i];
    sums.push_back(acc / std::max<Real>(static_cast<Real>(hi - lo), 1.0));
  }
  // Least-squares bipolar amplitude and residual variance.
  Real num = 0.0, den = 0.0;
  for (std::size_t k = 0; k < sums.size(); ++k) {
    num += sums[k] * expected[k];
    den += expected[k] * expected[k];
  }
  const Real a = (den > 0.0) ? num / den : 0.0;
  Real var = 0.0;
  for (std::size_t k = 0; k < sums.size(); ++k) {
    const Real r = sums[k] - a * expected[k];
    var += r * r;
  }
  var /= std::max<Real>(static_cast<Real>(sums.size()), 1.0);
  if (var <= 0.0) return 60.0;
  return dsp::to_db(a * a / var);
}

}  // namespace

Signal Receiver::demodulated_baseband(std::span<const Real> rx) const {
  // The decoder's front end with every sample kept: the same carrier
  // search, mixer and low-pass, then the same phase alignment.
  dsp::Workspace ws;
  dsp::ComplexSignal z;
  dsp::decimated_baseband(rx, config_.fs, config_.carrier_search_lo,
                          config_.carrier_search_hi, *lowpass(), 1, ws, z);
  Signal out;
  phase_align(z, out);
  return out;
}

UplinkDecode Receiver::decode(std::span<const Real> rx,
                              std::size_t payload_bits) const {
  dsp::Workspace ws;
  return decode(rx, payload_bits, ws);
}

UplinkDecode Receiver::decode(std::span<const Real> rx,
                              std::size_t payload_bits,
                              dsp::Workspace& ws) const {
  UplinkDecode best;
  if (rx.empty()) return best;

  const std::size_t m =
      pick_decimation(config_.fs, config_.blf, config_.uplink.bitrate);
  auto zd = ws.cplx(0);
  best.carrier_estimate = dsp::decimated_baseband(
      rx, config_.fs, config_.carrier_search_lo, config_.carrier_search_hi,
      *lowpass(), m, ws, *zd);
  const Real fs2 = config_.fs / static_cast<Real>(m);
  // Carve out the residual self-interference near DC; the data sits at
  // +-BLF (or, without a subcarrier, around the DC-free FM0 band).
  const Real dc_cutoff = (config_.blf > 0.0)
                             ? std::max(300.0, 0.1 * config_.blf)
                             : std::max(50.0, 0.05 * config_.uplink.bitrate);
  dc_block(*zd, fs2, dc_cutoff, ws);
  auto r = ws.real(0);
  phase_align(*zd, *r);
  zd.release();

  // With a BLF subcarrier the switching waveform is fm0 XOR square; search
  // the subcarrier phase at the decimated rate.
  std::size_t period2 = 1;
  int phase_steps = 1;
  if (config_.blf > 0.0) {
    period2 = static_cast<std::size_t>(std::max(2.0, fs2 / config_.blf));
    phase_steps = static_cast<int>(std::min<std::size_t>(period2, 16));
  }

  // Encoded once per decode; every subcarrier phase searches for it.
  auto preamble = ws.real(0);
  phy::fm0_encode(phy::fm0_preamble(config_.uplink), fs2,
                  config_.uplink.bitrate, 1.0, *preamble);
  // The subcarrier square, long enough for every phase offset (< period2)
  // to index into.
  auto square = ws.real(0);
  if (config_.blf > 0.0) {
    phy::blf_square(fs2, config_.blf, r->size() + period2, 0, *square);
  }
  auto demod_lease = ws.real(0);
  for (int p = 0; p < phase_steps; ++p) {
    // Without a subcarrier there is a single phase and the demodulated
    // baseband IS the aligned baseband; with one, the phase-shifted square
    // is multiplied into the reused demod buffer.
    std::span<const Real> demod(*r);
    if (config_.blf > 0.0) {
      const std::size_t offset = period2 * static_cast<std::size_t>(p) /
                                 static_cast<std::size_t>(phase_steps);
      const std::span<const Real> shifted(square->data() + offset, r->size());
      dsp::multiply(*r, shifted, *demod_lease);
      demod = std::span<const Real>(*demod_lease);
    }
    const phy::Fm0FrameDecode fd =
        phy::fm0_decode_frame(demod, *preamble, config_.uplink, fs2,
                              payload_bits, config_.min_preamble_corr);
    if (fd.preamble_correlation > best.preamble_correlation) {
      best.preamble_correlation = fd.preamble_correlation;
      if (!fd.payload.empty()) {
        phy::Bits all = phy::fm0_preamble(config_.uplink);
        all.insert(all.end(), fd.payload.begin(), fd.payload.end());
        const std::optional<Real> snr = decision_snr_db(
            demod, fd.frame_start, all, fs2 / config_.uplink.bitrate);
        // A frame that runs past the capture has no scoreable decision
        // statistics: reject it rather than reporting a fake 0 dB.
        if (snr) {
          best.payload = fd.payload;
          best.valid = true;
          best.frame_start_s = static_cast<Real>(fd.frame_start) / fs2;
          best.snr_db = *snr;
        }
      }
    }
  }
  return best;
}

}  // namespace ecocap::reader
