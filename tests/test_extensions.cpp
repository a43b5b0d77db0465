#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "channel/scatterers.hpp"
#include "core/ber_harness.hpp"
#include "dsp/rng.hpp"
#include "dsp/signal_ops.hpp"
#include "phy/miller.hpp"
#include "shm/modal.hpp"

namespace ecocap {
namespace {

using dsp::Real;

// ---------------------------------------------------------------- Miller

TEST(Miller, EncodeLengthMatchesBits) {
  phy::MillerParams p;
  p.bitrate = 1.0;
  const dsp::Signal x = phy::miller_encode(phy::Bits{1, 0, 1, 1}, p, 64.0);
  EXPECT_EQ(x.size(), 256u);
}

TEST(Miller, SubcarrierCyclesPerSymbol) {
  // With M = 4, each symbol must contain 4 subcarrier cycles: 8 sign runs.
  phy::MillerParams p;
  p.bitrate = 1.0;
  p.m = 4;
  const dsp::Signal x = phy::miller_encode(phy::Bits{1}, p, 64.0);
  int transitions = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if ((x[i] > 0) != (x[i - 1] > 0)) ++transitions;
  }
  // 4 cycles -> 7 interior half-cycle boundaries; the data-1 mid inversion
  // lands exactly on one of them and cancels it.
  EXPECT_GE(transitions, 6);
  EXPECT_LE(transitions, 9);
}

TEST(Miller, InvalidParamsThrow) {
  phy::MillerParams p;
  p.m = 3;
  EXPECT_THROW((void)phy::miller_encode(phy::Bits{1}, p, 64.0),
               std::invalid_argument);
  p.m = 4;
  p.bitrate = 10.0;
  EXPECT_THROW((void)phy::miller_encode(phy::Bits{1}, p, 64.0),
               std::invalid_argument);
}

TEST(Miller, CleanRoundTrip) {
  dsp::Rng rng(3);
  phy::MillerParams p;
  p.bitrate = 1.0;
  p.m = 4;
  const phy::Bits tx = phy::random_bits(96, rng);
  const dsp::Signal x = phy::miller_encode(tx, p, 64.0);
  EXPECT_EQ(phy::miller_decode(x, p, 64.0, tx.size()), tx);
}

TEST(Miller, InvertedCaptureRoundTrip) {
  dsp::Rng rng(4);
  phy::MillerParams p;
  p.bitrate = 1.0;
  const phy::Bits tx = phy::random_bits(48, rng);
  dsp::Signal x = phy::miller_encode(tx, p, 64.0);
  for (auto& v : x) v = -v;
  EXPECT_EQ(phy::miller_decode(x, p, 64.0, tx.size()), tx);
}

TEST(Miller, SurvivesNoiseBetterThanRawThreshold) {
  dsp::Rng rng(5);
  phy::MillerParams p;
  p.bitrate = 1.0;
  p.m = 4;
  const phy::Bits tx = phy::random_bits(200, rng);
  dsp::Signal x = phy::miller_encode(tx, p, 64.0);
  dsp::add_awgn(x, 1.2, rng);
  const phy::Bits rx = phy::miller_decode(x, p, 64.0, tx.size());
  // Subcarrier-correlated ML decoding: only a few errors at sigma 1.2.
  EXPECT_LT(phy::hamming_distance(tx, rx), 12u);
}

/// Property: round trip across M values and bitrates. The case has no
/// padding bytes: gtest names each case by dumping its bytes, so padding
/// would put stack garbage into the test names.
struct MillerCase {
  std::int64_t m;
  double spb;
};
static_assert(sizeof(MillerCase) == sizeof(std::int64_t) + sizeof(double));
class MillerSweep : public ::testing::TestWithParam<MillerCase> {};

TEST_P(MillerSweep, RoundTrips) {
  dsp::Rng rng(6);
  phy::MillerParams p;
  p.bitrate = 1.0;
  p.m = static_cast<int>(GetParam().m);
  const Real fs = GetParam().spb;
  const phy::Bits tx = phy::random_bits(64, rng);
  const dsp::Signal x = phy::miller_encode(tx, p, fs);
  EXPECT_EQ(phy::miller_decode(x, p, fs, tx.size()), tx);
}

INSTANTIATE_TEST_SUITE_P(Ms, MillerSweep,
                         ::testing::Values(MillerCase{2, 32.0},
                                           MillerCase{4, 64.0},
                                           MillerCase{8, 64.0},
                                           MillerCase{4, 128.0}));

// ------------------------------------------------------------ Scatterers

TEST(Scatterers, EmptyFieldIsTransparent) {
  const channel::ScattererField field({}, wave::materials::reference_concrete());
  EXPECT_DOUBLE_EQ(
      field.path_gain(wave::Point2{0.0, 0.0}, wave::Point2{1.0, 0.1}, 230e3),
      1.0);
}

TEST(Scatterers, BlockingScattererReducesGain) {
  channel::Scatterer s;
  s.position = wave::Point2{0.5, 0.05};
  s.radius = 0.02;
  s.blockage = 0.6;
  const channel::ScattererField field({s},
                                      wave::materials::reference_concrete());
  const Real blocked =
      field.path_gain(wave::Point2{0.0, 0.05}, wave::Point2{1.0, 0.05}, 230e3);
  const Real clear =
      field.path_gain(wave::Point2{0.0, 0.30}, wave::Point2{1.0, 0.30}, 230e3);
  EXPECT_LT(blocked, clear);
  EXPECT_NEAR(clear, 1.0, 1e-9);
}

TEST(Scatterers, GainIsFrequencySelective) {
  dsp::Rng rng(7);
  const auto field = channel::ScattererField::random_rebar(
      32, 2.0, 0.3, wave::materials::reference_concrete(), rng);
  Real lo = 2.0, hi = 0.0;
  for (int f = 200; f <= 260; f += 2) {
    const Real g = field.path_gain(wave::Point2{0.0, 0.15},
                                   wave::Point2{1.8, 0.13}, f * 1000.0);
    lo = std::min(lo, g);
    hi = std::max(hi, g);
  }
  EXPECT_GT(hi - lo, 0.03);  // fading ripple across the band
  EXPECT_LE(hi, 1.0);        // scatterers never amplify past the clear path
}

TEST(Scatterers, FineTuningRecoversChannel) {
  // §3.5: "fine-tuning the frequency can significantly improve the channel".
  dsp::Rng rng(8);
  const auto field = channel::ScattererField::random_rebar(
      16, 2.0, 0.3, wave::materials::reference_concrete(), rng);
  const wave::Point2 a{0.0, 0.15}, b{1.7, 0.12};
  const Real nominal = field.path_gain(a, b, 230.0e3);
  const auto tuned = field.best_frequency(a, b, 210.0e3, 250.0e3);
  EXPECT_GE(tuned.gain, nominal);
  EXPECT_GE(tuned.frequency, 210.0e3);
  EXPECT_LE(tuned.frequency, 250.0e3);
}

TEST(Scatterers, RandomRebarWithinBounds) {
  dsp::Rng rng(9);
  const auto field = channel::ScattererField::random_rebar(
      20, 1.5, 0.25, wave::materials::reference_concrete(), rng);
  EXPECT_EQ(field.count(), 20u);
  for (const auto& s : field.scatterers()) {
    EXPECT_GE(s.position.x, 0.0);
    EXPECT_LE(s.position.x, 1.5);
    EXPECT_GE(s.position.y, 0.0);
    EXPECT_LE(s.position.y, 0.25);
  }
}

// ----------------------------------------------------------------- Modal

TEST(Modal, EstimatesSynthesizedMode) {
  const auto x = shm::synthesize_vibration(2.1, 0.02, 100.0, 600.0, 1);
  const auto est = shm::estimate_mode(x, 100.0, 0.5, 10.0);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->frequency_hz, 2.1, 0.1);
  EXPECT_GT(est->damping_ratio, 0.0);
  EXPECT_LT(est->damping_ratio, 0.2);
}

TEST(Modal, TooShortRecordRejected) {
  const std::vector<Real> x(100, 0.0);
  EXPECT_FALSE(shm::estimate_mode(x, 100.0, 0.5, 10.0, 1024).has_value());
}

TEST(Modal, DetectsStiffnessLoss) {
  // 4% frequency drop ~ 8% stiffness loss: must trip the damage alarm.
  const auto healthy = shm::synthesize_vibration(2.10, 0.02, 100.0, 600.0, 2);
  const auto damaged = shm::synthesize_vibration(2.016, 0.02, 100.0, 600.0, 3);
  const auto d = shm::assess_damage(healthy, damaged, 100.0, 0.5, 10.0);
  EXPECT_TRUE(d.damaged);
  EXPECT_NEAR(d.frequency_shift, -0.04, 0.015);
  EXPECT_LT(d.stiffness_change, -0.05);
}

TEST(Modal, HealthyStructureNotFlagged) {
  const auto a = shm::synthesize_vibration(2.10, 0.02, 100.0, 600.0, 4);
  const auto b = shm::synthesize_vibration(2.10, 0.02, 100.0, 600.0, 5);
  const auto d = shm::assess_damage(a, b, 100.0, 0.5, 10.0);
  EXPECT_FALSE(d.damaged);
  EXPECT_NEAR(d.frequency_shift, 0.0, 0.01);
}

TEST(Modal, WelchSpectrumPeaksAtMode) {
  const auto x = shm::synthesize_vibration(5.0, 0.02, 100.0, 300.0, 6);
  const auto spec = shm::welch_spectrum(x, 100.0, 512);
  const Real bin_hz = 100.0 / 512.0;
  std::size_t best = 0;
  for (std::size_t k = 1; k < spec.size(); ++k) {
    if (spec[k] > spec[best]) best = k;
  }
  EXPECT_NEAR(bin_hz * static_cast<Real>(best), 5.0, 0.3);
}

}  // namespace
}  // namespace ecocap
