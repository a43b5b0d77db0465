#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "dsp/biquad.hpp"
#include "dsp/correlate.hpp"
#include "dsp/decimate.hpp"
#include "dsp/envelope.hpp"
#include "dsp/fast_convolve.hpp"
#include "dsp/fir.hpp"
#include "dsp/oscillator.hpp"
#include "dsp/signal_ops.hpp"
#include "dsp/window.hpp"

namespace ecocap::dsp {
namespace {

constexpr Real kFs = 1.0e6;

/// x filtered by the odd-length FIR h with its group delay (taps - 1) / 2
/// removed: the direct full convolution, sliced.
Signal zero_phase(std::span<const Real> h, std::span<const Real> x) {
  const Signal full = convolve_full_direct(x, h);
  const auto delay = static_cast<std::ptrdiff_t>((h.size() - 1) / 2);
  return Signal(full.begin() + delay,
                full.begin() + delay + static_cast<std::ptrdiff_t>(x.size()));
}

Real tone_gain_through(const Signal& h, Real f) {
  const Signal x = tone(kFs, f, 20000, 1.0);
  const Signal y = zero_phase(h, x);
  // Compare RMS over the center to avoid edge transients.
  const std::size_t n = x.size();
  const Signal yc(y.begin() + static_cast<long>(n / 4),
                  y.begin() + static_cast<long>(3 * n / 4));
  const Signal xc(x.begin() + static_cast<long>(n / 4),
                  x.begin() + static_cast<long>(3 * n / 4));
  return rms(yc) / rms(xc);
}

TEST(Fir, LowpassPassesAndStops) {
  const Signal h = design_lowpass(kFs, 50.0e3, 101);
  EXPECT_NEAR(tone_gain_through(h, 10.0e3), 1.0, 0.02);
  EXPECT_LT(tone_gain_through(h, 200.0e3), 0.01);
}

TEST(Fir, DesignValidatesCutoff) {
  EXPECT_THROW((void)design_lowpass(kFs, 0.0, 31), std::invalid_argument);
  EXPECT_THROW((void)design_lowpass(kFs, 0.6e6, 31), std::invalid_argument);
}

TEST(Biquad, LowpassAttenuatesHighFrequencies) {
  Biquad lp = Biquad::lowpass(kFs, 50.0e3, 0.707);
  EXPECT_NEAR(lp.magnitude_at(kFs, 1.0e3), 1.0, 0.01);
  EXPECT_LT(lp.magnitude_at(kFs, 400.0e3), 0.05);
}

TEST(Biquad, BandpassPeaksAtCenter) {
  Biquad bp = Biquad::bandpass(kFs, 230.0e3, 10.0);
  const Real at_center = bp.magnitude_at(kFs, 230.0e3);
  EXPECT_GT(at_center, bp.magnitude_at(kFs, 180.0e3) * 3.0);
  EXPECT_GT(at_center, bp.magnitude_at(kFs, 280.0e3) * 3.0);
}

TEST(Biquad, NotchKillsCenter) {
  Biquad n = Biquad::notch(kFs, 230.0e3, 30.0);
  EXPECT_LT(n.magnitude_at(kFs, 230.0e3), 0.01);
  EXPECT_NEAR(n.magnitude_at(kFs, 100.0e3), 1.0, 0.05);
}

TEST(Biquad, InvalidDesignThrows) {
  EXPECT_THROW((void)Biquad::lowpass(kFs, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)Biquad::lowpass(kFs, 0.6e6, 1.0), std::invalid_argument);
  EXPECT_THROW((void)Biquad::lowpass(kFs, 1e3, 0.0), std::invalid_argument);
}

TEST(Biquad, ProcessMatchesMagnitudeResponse) {
  Biquad bp = Biquad::bandpass(kFs, 100.0e3, 5.0);
  const Signal x = tone(kFs, 100.0e3, 50000, 1.0);
  const Signal y = bp.process(x);
  const Signal tail(y.begin() + 10000, y.end());
  EXPECT_NEAR(rms(tail) * std::sqrt(2.0),
              bp.magnitude_at(kFs, 100.0e3), 0.02);
}

TEST(OnePole, StepResponseReachesTarget) {
  OnePoleLowpass lp(kFs, 1.0e3);
  Real y = 0.0;
  for (int i = 0; i < 100000; ++i) y = lp.process(1.0);
  EXPECT_NEAR(y, 1.0, 1e-6);
}

TEST(Window, HannEndsAtZero) {
  const Signal w = make_window(WindowKind::kHann, 64);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
  EXPECT_NEAR(w[31], 1.0, 0.01);
}

TEST(Window, ApplySizeChecked) {
  Signal x(10, 1.0);
  const Signal w = make_window(WindowKind::kHamming, 8);
  EXPECT_THROW(apply_window(x, w), std::invalid_argument);
}

TEST(Envelope, RecoversAmplitudeModulation) {
  // 230 kHz carrier, 1 kHz square AM.
  const std::size_t n = 200000;
  Signal x(n);
  Oscillator osc(kFs, 230.0e3);
  for (std::size_t i = 0; i < n; ++i) {
    const bool high = (i / 500) % 2 == 0;  // 1 kHz toggling at 1 MS/s
    x[i] = osc.next(high ? 1.0 : 0.2);
  }
  EnvelopeDetector det(kFs, 20.0e3);
  const Signal env = det.process(x);
  // In the middle of a high half-period the envelope should be near the
  // rectified mean of a unit sine (2/pi), and near 0.2*2/pi in low parts.
  EXPECT_NEAR(env[250], 2.0 / 3.14159, 0.1);
  EXPECT_NEAR(env[750], 0.2 * 2.0 / 3.14159, 0.06);
}

TEST(Slicer, BinarizesWithHysteresis) {
  HysteresisSlicer s(0.6, 0.4);
  std::vector<bool> out;
  // Ramp up then down; hysteresis should avoid chattering near threshold.
  for (int i = 0; i < 100; ++i) out.push_back(s.process(1.0));
  EXPECT_TRUE(out.back());
  for (int i = 0; i < 100; ++i) out.push_back(s.process(0.1));
  EXPECT_FALSE(out.back());
}

TEST(Decimate, ReducesLengthAndKeepsLowTone) {
  // mix_lowpass_decimate without mixing is an anti-aliased decimator.
  const Signal x = tone(kFs, 5.0e3, 40000, 1.0);
  const Signal h = design_lowpass(kFs, 40.0e3, 127);
  ComplexSignal z;
  mix_lowpass_decimate(x, kFs, 0.0, h, 10, z);
  EXPECT_EQ(z.size(), x.size() / 10);
  Signal y(z.size());
  for (std::size_t j = 0; j < z.size(); ++j) y[j] = z[j].real();
  EXPECT_NEAR(rms(y), rms(x), 0.03);
}

TEST(Decimate, FactorOneCopies) {
  // A unit single-tap filter at factor 1 and no mixing is the identity.
  const Signal x = tone(kFs, 5.0e3, 100, 1.0);
  ComplexSignal z;
  mix_lowpass_decimate(x, kFs, 0.0, Signal{1.0}, 1, z);
  ASSERT_EQ(z.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(z[i], Complex(x[i], 0.0)) << i;
  }
  EXPECT_THROW(mix_lowpass_decimate(x, kFs, 0.0, Signal{1.0}, 0, z),
               std::invalid_argument);
}

TEST(MixLowpassDecimate, MatchesReferenceChain) {
  // The fused front end against mix_down -> the zero-phase direct
  // convolution of each rail -> every m-th sample: a strong carrier line plus +-4 kHz sidebands and
  // noise, at the receiver's 2 MHz / 129-tap / m = 62 design point. Covers
  // a window shorter than the filter, lengths that are not a multiple of
  // m, and every kept output including the first and last (zero-padded
  // edges).
  const Real fs = 2.0e6, f0 = 230.0e3 + 3.7;
  const Signal h = design_lowpass(fs, 6.5e3, 129);
  constexpr std::size_t kM = 62;
  Rng rng(11);
  for (const std::size_t n : {1UL, 100UL, 129UL, 1000UL, 16385UL, 52001UL,
                              144000UL}) {
    Signal x(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Real t = static_cast<Real>(i) / fs;
      x[i] = 3.0 * std::cos(kTwoPi * 230.0e3 * t + 1.1) +
             0.2 * std::cos(kTwoPi * 234.0e3 * t) +
             0.2 * std::cos(kTwoPi * 226.0e3 * t + 0.4);
    }
    add_awgn(x, 0.05, rng);
    const ComplexSignal mixed = mix_down(x, fs, f0);
    Signal re(n), im(n);
    for (std::size_t i = 0; i < n; ++i) {
      re[i] = mixed[i].real();
      im[i] = mixed[i].imag();
    }
    const Signal ref_re = zero_phase(h, re), ref_im = zero_phase(h, im);
    ComplexSignal out;
    mix_lowpass_decimate(x, fs, f0, h, kM, out);
    ASSERT_EQ(out.size(), (n + kM - 1) / kM) << n;
    Real scale = 0.0, err = 0.0;
    for (std::size_t j = 0; j < out.size(); ++j) {
      const Complex ref(ref_re[j * kM], ref_im[j * kM]);
      scale = std::max(scale, std::abs(ref));
      err = std::max(err, std::abs(out[j] - ref));
    }
    EXPECT_LE(err, 1e-12 * scale) << n;
  }
}

TEST(MixLowpassDecimate, RejectsBadArguments) {
  const Signal x(100, 1.0);
  const Signal h = design_lowpass(kFs, 10.0e3, 15);
  ComplexSignal out;
  EXPECT_THROW(mix_lowpass_decimate(x, kFs, 1.0e3, h, 0, out),
               std::invalid_argument);
  EXPECT_THROW(mix_lowpass_decimate(x, kFs, 1.0e3, Signal(16, 0.1), 4, out),
               std::invalid_argument);
  mix_lowpass_decimate(Signal{}, kFs, 1.0e3, h, 4, out);
  EXPECT_TRUE(out.empty());
}

/// Property: designed FIR low-pass gain is monotone-ish: pass < knee < stop.
class FirCutoffSweep : public ::testing::TestWithParam<double> {};

TEST_P(FirCutoffSweep, PassbandUnityStopbandDead) {
  const Real fc = GetParam();
  const Signal h = design_lowpass(kFs, fc, 201);
  EXPECT_NEAR(tone_gain_through(h, fc * 0.3), 1.0, 0.03);
  EXPECT_LT(tone_gain_through(h, fc * 3.0), 0.05);
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, FirCutoffSweep,
                         ::testing::Values(10.0e3, 30.0e3, 60.0e3, 120.0e3));

}  // namespace
}  // namespace ecocap::dsp
