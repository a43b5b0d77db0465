#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <span>

#include "dsp/fft.hpp"
#include "dsp/oscillator.hpp"
#include "dsp/signal_ops.hpp"
#include "phy/carrier.hpp"
#include "phy/pie.hpp"
#include "phy/ring_effect.hpp"

namespace ecocap::phy {
namespace {

constexpr Real kFs = 2.0e6;

TEST(RingEffect, TimeConstantFormula) {
  RingingPzt pzt(kFs, 230.0e3, 217.0);
  // tau = Q / (pi f0) ~ 0.3 ms -> the paper's ~0.3 ms tail at 230 kHz.
  EXPECT_NEAR(pzt.ring_time_constant(), 217.0 / (3.14159265 * 230.0e3), 1e-9);
  EXPECT_NEAR(pzt.ring_time_constant(), 0.3e-3, 0.05e-3);
}

TEST(RingEffect, TailPersistsAfterDriveStops) {
  RingingPzt pzt(kFs, 230.0e3, 217.0);
  // Drive at resonance for 1 ms, then stop for 1 ms.
  const std::size_t on = 2000, off = 2000;
  dsp::Oscillator osc(kFs, 230.0e3);
  Signal drive(on + off, 0.0);
  for (std::size_t i = 0; i < on; ++i) drive[i] = osc.next();
  const Signal out = pzt.drive(drive);

  const Signal steady(out.begin() + 1200, out.begin() + 2000);
  const Signal just_after(out.begin() + 2000, out.begin() + 2200);  // 0.1 ms
  const Signal much_later(out.begin() + 3600, out.begin() + 3999);  // 0.9 ms
  const Real a0 = dsp::rms(steady);
  // The tail starts near a third of the steady amplitude (Fig. 7(a)) —
  // the storage branch holds half the output, less the brief loaded decay
  // before the drive-presence detector releases the resonator.
  EXPECT_GT(dsp::rms(just_after), 0.3 * a0);  // still ringing
  EXPECT_LT(dsp::rms(just_after), 0.8 * a0);
  EXPECT_LT(dsp::rms(much_later), 0.1 * a0);  // decayed
}

TEST(RingEffect, DecayTimeMatchesPrediction) {
  RingingPzt pzt(kFs, 230.0e3, 217.0);
  const Real t10 = pzt.ring_decay_time(0.1);
  EXPECT_NEAR(t10, pzt.ring_time_constant() * std::log(10.0), 1e-9);
  EXPECT_THROW((void)pzt.ring_decay_time(1.5), std::invalid_argument);
}

TEST(RingEffect, UnityGainAtResonance) {
  RingingPzt pzt(kFs, 230.0e3, 100.0);
  dsp::Oscillator osc(kFs, 230.0e3);
  const Signal out = pzt.drive(osc.generate(40000));
  const Signal tail(out.begin() + 30000, out.end());
  EXPECT_NEAR(dsp::rms(tail) * std::sqrt(2.0), 1.0, 0.05);
}

TEST(RingEffect, OokTailDurationHelper) {
  EXPECT_NEAR(ook_tail_duration(230.0e3, 217.0, 0.1),
              0.3003e-3 * std::log(10.0), 2e-5);
}

TEST(Carrier, FskKeepsConstantEnvelope) {
  // The FSK anti-ring trick never stops the PZT: envelope stays constant.
  Signal baseband(4000, 1.0);
  for (std::size_t i = 1000; i < 2000; ++i) baseband[i] = 0.0;
  CarrierParams cp;
  cp.fs = kFs;
  const Signal fsk =
      modulate_downlink(baseband, cp, DownlinkScheme::kFskOffResonance);
  const Signal low_edge(fsk.begin() + 1100, fsk.begin() + 1900);
  EXPECT_NEAR(dsp::rms(low_edge) * std::sqrt(2.0), 1.0, 0.05);

  const Signal ook = modulate_downlink(baseband, cp, DownlinkScheme::kOok);
  const Signal ook_low(ook.begin() + 1100, ook.begin() + 1900);
  EXPECT_EQ(dsp::rms(ook_low), 0.0);
}

TEST(Carrier, FskFrequenciesCorrectPerEdge) {
  Signal baseband(40000, 1.0);
  for (std::size_t i = 20000; i < 40000; ++i) baseband[i] = 0.0;
  CarrierParams cp;
  cp.fs = kFs;
  const Signal fsk =
      modulate_downlink(baseband, cp, DownlinkScheme::kFskOffResonance);
  const Signal high(fsk.begin(), fsk.begin() + 20000);
  const Signal low(fsk.begin() + 20000, fsk.end());
  EXPECT_NEAR(dsp::estimate_tone_frequency(high, kFs, 100e3, 300e3), 230.0e3,
              500.0);
  EXPECT_NEAR(dsp::estimate_tone_frequency(low, kFs, 100e3, 300e3), 180.0e3,
              500.0);
}

TEST(Backscatter, ReflectionStatesScaleCarrier) {
  dsp::Oscillator osc(kFs, 230.0e3);
  const Signal carrier = osc.generate(2000, 1.0);
  Signal switching(1000, 1.0);  // reflective first half (of data span)
  BackscatterParams bp;
  bp.reflective_gain = 1.0;
  bp.absorptive_gain = 0.25;
  const Signal out = backscatter_modulate(carrier, switching, kFs, bp);
  // Reflective span: full amplitude; beyond the data: absorptive.
  const Signal refl(out.begin() + 100, out.begin() + 900);
  const Signal abso(out.begin() + 1100, out.begin() + 1900);
  EXPECT_NEAR(dsp::rms(refl) * std::sqrt(2.0), 1.0, 0.03);
  EXPECT_NEAR(dsp::rms(abso) * std::sqrt(2.0), 0.25, 0.03);
}

TEST(Backscatter, SubcarrierCreatesSidebands) {
  // The BLF square subcarrier shifts the backscatter energy +-f_blf from
  // the carrier (Appendix C / Fig. 24).
  dsp::Oscillator osc(kFs, 230.0e3);
  const std::size_t n = 1 << 17;
  const Signal carrier = osc.generate(n, 1.0);
  const Signal switching(n, 1.0);  // constant reflective, subcarrier only
  BackscatterParams bp;
  bp.f_blf = 8000.0;
  bp.absorptive_gain = 0.0;
  const Signal out = backscatter_modulate(carrier, switching, kFs, bp);
  const Real lower = dsp::band_power(out, kFs, 230.0e3 - 9000.0, 230.0e3 - 7000.0);
  const Real upper = dsp::band_power(out, kFs, 230.0e3 + 7000.0, 230.0e3 + 9000.0);
  const Real at_carrier = dsp::band_power(out, kFs, 229.5e3, 230.5e3);
  const Real guard = dsp::band_power(out, kFs, 232.0e3, 236.0e3);
  // The OOK switching retains a carrier component (its DC term); the data
  // sidebands sit +-f_blf away with a clean guard band between (Fig. 24).
  EXPECT_GT(lower, 0.03);
  EXPECT_GT(upper, 0.03);
  EXPECT_GT(at_carrier, 0.0);
  EXPECT_LT(guard, 0.2 * std::min(lower, upper));
}

TEST(Backscatter, SwitchRestsAbsorptiveAfterData) {
  dsp::Oscillator osc(kFs, 230.0e3);
  const Signal carrier = osc.generate(1000, 1.0);
  const Signal switching;  // no data at all
  BackscatterParams bp;
  bp.absorptive_gain = 0.25;
  const Signal out = backscatter_modulate(carrier, switching, kFs, bp);
  EXPECT_NEAR(dsp::rms(out) * std::sqrt(2.0), 0.25, 0.03);
}

TEST(Backscatter, SwitchingLongerThanCarrierThrows) {
  const Signal carrier(100, 1.0);
  const Signal switching(200, 1.0);
  EXPECT_THROW(
      (void)backscatter_modulate(carrier, switching, kFs, BackscatterParams{}),
      std::invalid_argument);
}

/// The per-sample std::fmod form of the streaming backscatter modulator,
/// kept here as the reference its running BLF remainder must reproduce.
Signal fmod_backscatter_reference(std::span<const Real> carrier,
                                  std::span<const Real> switching,
                                  std::uint64_t offset, Real fs,
                                  const BackscatterParams& p) {
  const Real period = fs / p.f_blf;
  const Real mid = 0.5 * (p.reflective_gain + p.absorptive_gain);
  const Real half = 0.5 * (p.reflective_gain - p.absorptive_gain);
  Signal out(carrier.size());
  for (std::size_t i = 0; i < carrier.size(); ++i) {
    const std::uint64_t idx = offset + i;
    Real state = (idx < switching.size()) ? switching[idx] : -1.0;
    if (idx < switching.size()) {
      const Real t = std::fmod(static_cast<Real>(idx), period) / period;
      state *= (t < 0.5) ? 1.0 : -1.0;
    }
    out[i] = carrier[i] * (mid + half * state);
  }
  return out;
}

TEST(Backscatter, RunningBlfPhaseMatchesFmodAtAnySplit) {
  // A 2^21-sample frame (~1 s at 2 MHz) reflected in random blocks: near
  // its start, deep inside it, and across its end into the rest state.
  constexpr std::size_t kFrame = std::size_t{1} << 21;
  std::mt19937_64 rng(11);
  Signal switching(kFrame);
  for (Real& v : switching) v = (rng() & 1) ? 1.0 : -1.0;
  dsp::Oscillator osc(kFs, 230.0e3);
  const Signal carrier = osc.generate(40000, 0.9);
  const auto bits = [](Real v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  for (Real blf : {4000.0, 3000.0, 6400.0, 12345.678}) {
    BackscatterParams bp;
    bp.f_blf = blf;
    for (std::uint64_t start : {std::uint64_t{0}, std::uint64_t{1234567},
                                std::uint64_t{kFrame - 25000}}) {
      const Signal want =
          fmod_backscatter_reference(carrier, switching, start, kFs, bp);
      Signal got(carrier.size());
      for (std::size_t i = 0; i < carrier.size();) {
        const std::size_t n =
            std::min<std::size_t>(1 + rng() % 3000, carrier.size() - i);
        backscatter_modulate(
            std::span<const Real>(carrier.data() + i, n), switching,
            start + i, kFs, bp, std::span<Real>(got.data() + i, n));
        i += n;
      }
      for (std::size_t i = 0; i < carrier.size(); ++i) {
        ASSERT_EQ(bits(got[i]), bits(want[i]))
            << "blf=" << blf << " idx=" << start + i;
      }
    }
  }
}

TEST(Backscatter, RejectsBlfAboveNyquist) {
  const Signal carrier(100, 1.0);
  const Signal switching(100, 1.0);
  BackscatterParams bp;
  bp.f_blf = 0.5 * kFs;
  EXPECT_NO_THROW((void)backscatter_modulate(carrier, switching, kFs, bp));
  bp.f_blf = 0.5 * kFs + 1.0;
  EXPECT_THROW((void)backscatter_modulate(carrier, switching, kFs, bp),
               std::invalid_argument);
  Signal out(carrier.size());
  EXPECT_THROW(backscatter_modulate(carrier, switching, 0, kFs, bp,
                                    std::span<Real>(out)),
               std::invalid_argument);
}

TEST(BlfSquare, FiftyPercentDuty) {
  const Signal sq = blf_square(kFs, 4000.0, 100000);
  int high = 0;
  for (Real v : sq) {
    EXPECT_TRUE(v == 1.0 || v == -1.0);
    if (v > 0.0) ++high;
  }
  EXPECT_NEAR(static_cast<double>(high) / 100000.0, 0.5, 0.01);
}

TEST(BlfSquare, PhaseOffsetShifts) {
  const std::size_t period = static_cast<std::size_t>(kFs / 4000.0);
  const Signal a = blf_square(kFs, 4000.0, 1000, 0);
  const Signal b = blf_square(kFs, 4000.0, 1000, period / 2);
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(a[i], -b[i]);
  }
}

/// Property: FSK downlink with off-resonance suppression yields a cleaner
/// OOK envelope at the node than raw OOK, for several Q values (Fig. 7).
class RingQSweep : public ::testing::TestWithParam<double> {};

TEST_P(RingQSweep, TailScalesWithQ) {
  RingingPzt pzt(kFs, 230.0e3, GetParam());
  EXPECT_NEAR(pzt.ring_time_constant(),
              GetParam() / (3.14159265358979 * 230.0e3), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Qs, RingQSweep,
                         ::testing::Values(50.0, 100.0, 217.0, 400.0));

}  // namespace
}  // namespace ecocap::phy
