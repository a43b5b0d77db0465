// Fig. 24 (Appendix C) — uplink spectrum at the reader: the strong CBW
// self-interference peak at the carrier plus the two backscatter AM
// sidebands at +- BLF with a clean guard band.

#include <cstdio>

#include "dsp/fft.hpp"
#include "dsp/oscillator.hpp"
#include "dsp/rng.hpp"
#include "dsp/signal_ops.hpp"
#include "phy/bits.hpp"
#include "phy/carrier.hpp"
#include "phy/fm0.hpp"

using namespace ecocap;
using dsp::Real;
using dsp::Signal;

int main() {
  const Real fs = 2.0e6;
  const Real blf = 8000.0;
  dsp::Rng rng(5);

  // Node: FM0 frame at 1 kbps on a BLF subcarrier.
  phy::Fm0Params line;
  line.bitrate = 1000.0;
  const phy::Bits payload = phy::random_bits(48, rng);
  const Signal switching = phy::fm0_encode_frame(payload, line, fs);
  dsp::Oscillator carrier(fs, 230.0e3);
  const Signal incident = carrier.generate(switching.size());
  phy::BackscatterParams bp;
  bp.f_blf = blf;
  Signal rx = phy::backscatter_modulate(incident, switching, fs, bp);

  // Reader-side: add the 10x CBW leakage and noise.
  dsp::Oscillator cw(fs, 230.0e3);
  cw.reset_phase(0.7);
  const Real bs_rms = dsp::rms(rx);
  cw.accumulate(rx, 10.0 * bs_rms * 1.41421356);
  dsp::add_awgn(rx, 1e-3, rng);

  // Spectrum 200-260 kHz.
  const std::size_t n = dsp::next_pow2(rx.size());
  const Signal mag = dsp::magnitude_spectrum(rx, n);
  std::printf("# Fig. 24 — uplink spectrum (log power) around the carrier\n");
  std::printf("freq_khz,log10_power\n");
  for (Real f = 210.0e3; f <= 250.0e3; f += 500.0) {
    const Real p = dsp::band_power(rx, fs, f - 250.0, f + 250.0);
    std::printf("%.1f,%.2f\n", f / 1000.0, std::log10(p + 1e-20));
  }

  const Real p_cw = dsp::band_power(rx, fs, 229.6e3, 230.4e3);
  const Real p_lo = dsp::band_power(rx, fs, 230.0e3 - blf - 1500.0,
                                    230.0e3 - blf + 1500.0);
  const Real p_hi = dsp::band_power(rx, fs, 230.0e3 + blf - 1500.0,
                                    230.0e3 + blf + 1500.0);
  const Real p_guard = dsp::band_power(rx, fs, 233.0e3, 236.0e3);
  std::printf("# carrier peak power: %.3g\n", p_cw);
  std::printf("# lower/upper sidebands: %.3g / %.3g\n", p_lo, p_hi);
  std::printf("# guard band: %.3g (%.0f dB below sidebands)\n", p_guard,
              10.0 * std::log10((p_lo + p_hi) / 2.0 / (p_guard + 1e-30)));
  std::printf("# paper: three peaks (CBW + two sidebands), guard band\n");
  std::printf("#   separates the self-interference from the data\n");
  return 0;
}
