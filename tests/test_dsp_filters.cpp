#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <span>

#include "dsp/biquad.hpp"
#include "dsp/correlate.hpp"
#include "dsp/decimate.hpp"
#include "dsp/envelope.hpp"
#include "dsp/fast_convolve.hpp"
#include "dsp/fir.hpp"
#include "dsp/oscillator.hpp"
#include "dsp/rng.hpp"
#include "dsp/serialize.hpp"
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

/// RBJ constant-peak band-pass coefficients {b0, b1, b2, a1, a2}, written
/// out here so the direct-form-I reference below runs on exactly the
/// coefficients the Biquad under test was built from.
std::array<Real, 5> rbj_bandpass(Real fs, Real f0, Real q) {
  const Real w0 = kTwoPi * f0 / fs;
  const Real alpha = std::sin(w0) / (2.0 * q);
  const Real a0 = 1.0 + alpha;
  return {alpha / a0, 0.0, -alpha / a0, (-2.0 * std::cos(w0)) / a0,
          (1.0 - alpha) / a0};
}

Biquad make_biquad(const std::array<Real, 5>& c) {
  return Biquad(c[0], c[1], c[2], c[3], c[4]);
}

/// The direct-form-I recurrence the look-ahead form replaced, as the drift
/// reference.
struct Df1 {
  std::array<Real, 5> c;
  Real x1 = 0.0, x2 = 0.0, y1 = 0.0, y2 = 0.0;
  void process(std::span<Real> v) {
    for (Real& s : v) {
      const Real y = c[0] * s + c[1] * x1 + c[2] * x2 - c[3] * y1 - c[4] * y2;
      x2 = x1;
      x1 = s;
      y2 = y1;
      y1 = y;
      s = y;
    }
  }
};

/// Largest |look-ahead - DF1| over the largest |DF1| output, filtering
/// `seconds` of unit white noise at `fs` in blocks.
Real lookahead_drift(Real fs, Real f0, Real q, Real seconds) {
  const auto c = rbj_bandpass(fs, f0, q);
  Biquad lookahead = make_biquad(c);
  Df1 ref{c};
  Rng rng(7);
  const auto n = static_cast<std::size_t>(seconds * fs);
  Signal x(4096), y(4096);
  Real max_dev = 0.0, max_ref = 0.0;
  for (std::size_t done = 0; done < n;) {
    const std::size_t m = std::min(x.size(), n - done);
    std::fill_n(x.begin(), m, 0.0);
    rng.add_gaussian(std::span<Real>(x.data(), m), 1.0);
    std::copy_n(x.begin(), m, y.begin());
    lookahead.process(std::span<const Real>(x.data(), m), x);
    ref.process(std::span<Real>(y.data(), m));
    for (std::size_t i = 0; i < m; ++i) {
      max_dev = std::max(max_dev, std::abs(x[i] - y[i]));
      max_ref = std::max(max_ref, std::abs(y[i]));
    }
    x.resize(4096);
    done += m;
  }
  return max_dev / max_ref;
}

TEST(Biquad, LookaheadDriftBound) {
  // The look-ahead form is the same transfer function with a different
  // rounding: its outputs stay within 1e-12 of the direct form I, relative
  // to the signal, over a 10 s channel stream (20M samples at 2 MS/s) and
  // over 600 s of each modal design the SHM code synthesizes.
  EXPECT_LE(lookahead_drift(2.0e6, 230.0e3, 10.0, 10.0), 1e-12);
  const Real q = 1.0 / (2.0 * 0.02);
  EXPECT_LE(lookahead_drift(100.0, 2.1, q, 600.0), 1e-12);
  EXPECT_LE(lookahead_drift(100.0, 5.0, q, 600.0), 1e-12);
}

std::string biquad_state_text(const Biquad& bq) {
  ser::Writer w("biquad-state v1");
  bq.save(w);
  return w.payload();
}

TEST(Biquad, LookaheadSplitInvariant) {
  // Any split of a stream into calls, with the state saved and loaded into
  // a fresh filter at every split, gives the bytes of one call.
  const Biquad prototype = make_biquad(rbj_bandpass(2.0e6, 230.0e3, 10.0));
  Signal x(20000, 0.0);
  Rng noise(3);
  noise.add_gaussian(x, 1.0);
  Biquad whole = prototype;
  const Signal want = whole.process(x);

  const auto run = [&](const std::vector<std::size_t>& sizes) {
    Biquad bq = prototype;
    Signal out;
    Signal block;
    std::size_t pos = 0;
    for (std::size_t k = 0; pos < x.size(); ++k) {
      const std::size_t m = std::min(sizes[k % sizes.size()], x.size() - pos);
      block.assign(x.begin() + static_cast<std::ptrdiff_t>(pos),
                   x.begin() + static_cast<std::ptrdiff_t>(pos + m));
      bq.process(std::span<const Real>(block), block);  // in place
      out.insert(out.end(), block.begin(), block.end());
      pos += m;
      ser::Reader r(biquad_state_text(bq), "biquad-state v1");
      bq = prototype;
      bq.load(r);
      r.finish();
    }
    return out;
  };
  std::vector<std::vector<std::size_t>> splits = {{1},  {3},   {7},
                                                  {64}, {256}, {4096}};
  Rng pick(5);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<std::size_t> sizes;
    for (int k = 0; k < 64; ++k) sizes.push_back(1 + pick.index(700));
    splits.push_back(sizes);
  }
  for (const auto& sizes : splits) {
    const Signal got = run(sizes);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(Real)),
              0)
        << "first split " << sizes.front();
  }
  EXPECT_EQ(biquad_state_text(whole),
            biquad_state_text([&] {
              Biquad bq = prototype;
              (void)bq.process(x);
              return bq;
            }()));
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
