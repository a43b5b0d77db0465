#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "dsp/correlate.hpp"
#include "dsp/fft.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/oscillator.hpp"
#include "dsp/signal_ops.hpp"

namespace ecocap::dsp {
namespace {

constexpr Real kFs = 1.0e6;

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Fft, ForwardInverseRoundTrip) {
  ComplexSignal x(256);
  Rng rng(5);
  for (auto& v : x) v = Complex(rng.gaussian(), rng.gaussian());
  ComplexSignal y = x;
  fft_inplace(y, false);
  fft_inplace(y, true);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-9);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-9);
  }
}

TEST(Fft, NonPow2Throws) {
  ComplexSignal x(100);
  EXPECT_THROW(fft_inplace(x), std::invalid_argument);
}

TEST(Fft, SpectrumPeakAtToneFrequency) {
  const Signal x = tone(kFs, 230.0e3, 16384, 1.0);
  const Signal mag = magnitude_spectrum(x);
  const std::size_t n = next_pow2(x.size());
  const std::size_t k = peak_bin_in_band(mag, n, kFs, 1.0e3, 499.0e3);
  EXPECT_NEAR(bin_frequency(k, n, kFs), 230.0e3, kFs / n * 1.5);
}

TEST(Fft, ToneEstimatorSubBinAccuracy) {
  // A frequency that does NOT fall on a bin center.
  const Real f0 = 231.37e3;
  const Signal x = tone(kFs, f0, 50000, 1.0);
  const Real est = estimate_tone_frequency(x, kFs, 200.0e3, 260.0e3);
  EXPECT_NEAR(est, f0, 30.0);  // parabolic interpolation: tens of Hz
}

TEST(Fft, ToneEstimatorMatchesFullSpectrumSearch) {
  // The estimator takes |X| of in-band bins only; it must return exactly
  // what the peak search over the whole magnitude spectrum returns.
  const auto full_search = [](std::span<const Real> x, Real f_lo, Real f_hi) {
    const std::size_t n = next_pow2(std::max<std::size_t>(x.size(), 1024));
    const Signal mag = magnitude_spectrum(x, n);
    const std::size_t k = peak_bin_in_band(mag, n, kFs, f_lo, f_hi);
    if (k == 0 || k + 1 >= mag.size()) return bin_frequency(k, n, kFs);
    const Real a = mag[k - 1], b = mag[k], c = mag[k + 1];
    const Real denom = a - 2.0 * b + c;
    Real delta = 0.0;
    if (std::abs(denom) > 1e-30) delta = 0.5 * (a - c) / denom;
    delta = std::clamp(delta, -0.5, 0.5);
    return bin_frequency(k, n, kFs) + delta * kFs / static_cast<Real>(n);
  };
  Rng rng(17);
  for (const std::size_t len : {100UL, 3000UL, 52000UL}) {
    Signal x = tone(kFs, 231.37e3, len, 1.0);
    add_awgn(x, 0.3, rng);
    // In-band, band at DC, band reaching Nyquist, and an empty band.
    for (const auto& [lo, hi] : {std::pair{150.0e3, 300.0e3}, {0.0, 50.0e3},
                                {400.0e3, 500.0e3}, {300.0e3, 150.0e3}}) {
      EXPECT_EQ(estimate_tone_frequency(x, kFs, lo, hi), full_search(x, lo, hi))
          << len << " [" << lo << ", " << hi << "]";
    }
  }
}

TEST(Fft, RefineFromGuessMatchesWholeWindowEstimator) {
  // Goertzel bins around a guess on the peak's main lobe reproduce the
  // FFT estimator; bands at DC, reaching Nyquist or empty fall back to it.
  Rng rng(23);
  for (const std::size_t len : {100UL, 3000UL, 52000UL}) {
    Signal x = tone(kFs, 231.37e3, len, 1.0);
    add_awgn(x, 0.3, rng);
    const Real expected = estimate_tone_frequency(x, kFs, 150.0e3, 300.0e3);
    const Real bin =
        kFs / static_cast<Real>(next_pow2(std::max<std::size_t>(len, 1024)));
    for (const Real offset : {-1.4, -0.5, 0.0, 0.6, 1.3}) {
      EXPECT_NEAR(refine_tone_frequency(x, kFs, 150.0e3, 300.0e3,
                                        231.37e3 + offset * bin),
                  expected, 1e-6)
          << len << " offset " << offset;
    }
    for (const auto& [lo, hi] : {std::pair{0.0, 50.0e3}, {400.0e3, 500.0e3},
                                {300.0e3, 150.0e3}}) {
      EXPECT_EQ(refine_tone_frequency(x, kFs, lo, hi, 231.37e3),
                estimate_tone_frequency(x, kFs, lo, hi))
          << len << " [" << lo << ", " << hi << "]";
    }
  }
}

TEST(Fft, BandPowerCapturesTone) {
  Signal x = tone(kFs, 100.0e3, 32768, 2.0);  // power = 2.0
  const Real in_band = band_power(x, kFs, 90.0e3, 110.0e3);
  const Real out_band = band_power(x, kFs, 300.0e3, 400.0e3);
  EXPECT_NEAR(in_band, 2.0, 0.1);
  EXPECT_LT(out_band, 1e-3);
}

TEST(Goertzel, MatchesBandPowerForTone) {
  const Signal x = tone(kFs, 50.0e3, 10000, 1.0);
  const Real omega[2] = {kTwoPi * 50.0e3 / kFs, kTwoPi * 170.0e3 / kFs};
  Real p[2] = {};
  goertzel_powers(x, omega, p);
  EXPECT_GT(p[0], 100.0 * p[1]);
}

TEST(Correlate, FindsEmbeddedTemplate) {
  Rng rng(9);
  Signal x(5000);
  for (auto& v : x) v = rng.gaussian(0.1);
  const Signal h = tone(kFs, 25.0e3, 400, 1.0);
  const std::size_t true_pos = 3120;
  for (std::size_t i = 0; i < h.size(); ++i) x[true_pos + i] += h[i];
  EXPECT_EQ(best_alignment(x, h), true_pos);
}

TEST(Correlate, CoefficientBounds) {
  const Signal a = tone(kFs, 10.0e3, 1000, 1.0);
  Signal b = a;
  EXPECT_NEAR(correlation_coefficient(a, b), 1.0, 1e-12);
  for (auto& v : b) v = -v;
  EXPECT_NEAR(correlation_coefficient(a, b), -1.0, 1e-12);
  const Signal zeros(1000, 0.0);
  EXPECT_EQ(correlation_coefficient(a, zeros), 0.0);
}

TEST(Correlate, MixDownShiftsToneToDc) {
  const Signal x = tone(kFs, 230.0e3, 20000, 1.0);
  const ComplexSignal z = mix_down(x, kFs, 230.0e3);
  // Mean of the mixed signal should have magnitude ~0.5 (tone amplitude/2).
  Complex mean(0.0, 0.0);
  for (const auto& v : z) mean += v;
  mean /= static_cast<Real>(z.size());
  EXPECT_NEAR(std::abs(mean), 0.5, 0.01);
}

TEST(Oscillator, PhaseContinuousFrequencyHop) {
  Oscillator osc(kFs, 230.0e3);
  Signal x(2000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (i == 1000) osc.set_frequency(180.0e3);
    x[i] = osc.next();
  }
  // No sample-to-sample jump larger than the max slope of a sine.
  const Real max_step = kTwoPi * 230.0e3 / kFs * 1.05;
  for (std::size_t i = 1; i < x.size(); ++i) {
    EXPECT_LE(std::abs(x[i] - x[i - 1]), max_step);
  }
}

TEST(Oscillator, ChirpSweepsBand) {
  const Signal x = chirp(kFs, 50.0e3, 150.0e3, 65536, 1.0);
  // Most of the 0.5 total tone power lies inside the swept band.
  EXPECT_GT(band_power(x, kFs, 60.0e3, 140.0e3), 0.3);
  EXPECT_LT(band_power(x, kFs, 300.0e3, 450.0e3), 0.02);
}

/// Property sweep: the tone estimator is accurate across the carrier band.
class ToneEstimatorSweep : public ::testing::TestWithParam<double> {};

TEST_P(ToneEstimatorSweep, EstimatesWithinTensOfHz) {
  const Real f0 = GetParam();
  const Signal x = tone(kFs, f0, 65536, 1.0);
  EXPECT_NEAR(estimate_tone_frequency(x, kFs, 100.0e3, 400.0e3), f0, 40.0);
}

INSTANTIATE_TEST_SUITE_P(CarrierBand, ToneEstimatorSweep,
                         ::testing::Values(180.0e3, 210.123e3, 230.0e3,
                                           251.77e3, 299.9e3));

}  // namespace
}  // namespace ecocap::dsp
