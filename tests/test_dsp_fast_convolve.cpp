#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "dsp/correlate.hpp"
#include "dsp/fast_convolve.hpp"
#include "dsp/filter_cache.hpp"
#include "dsp/fir.hpp"
#include "dsp/oscillator.hpp"
#include "dsp/rng.hpp"
#include "dsp/signal_ops.hpp"

namespace ecocap::dsp {
namespace {

constexpr Real kFs = 1.0e6;
// Acceptance bound: FFT-path outputs match the direct path within 1e-9 RMS.
constexpr Real kRmsTol = 1e-9;

Signal random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Signal x(n);
  for (Real& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

Real rms_error(std::span<const Real> a, std::span<const Real> b) {
  EXPECT_EQ(a.size(), b.size());
  if (a.empty()) return 0.0;
  Real acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Real d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<Real>(a.size()));
}

TEST(FastConvolve, EmptyInputsYieldEmpty) {
  const Signal x = random_signal(64, 1);
  EXPECT_TRUE(convolve_full(Signal{}, x).empty());
  EXPECT_TRUE(convolve_full(x, Signal{}).empty());
  EXPECT_TRUE(convolve_full_fft(Signal{}, x).empty());
  EXPECT_TRUE(convolve_full_direct(Signal{}, x).empty());
}

TEST(FastConvolve, ImpulseKernelReproducesSignal) {
  const Signal x = random_signal(1000, 2);
  const Signal h{1.0};
  const Signal y = convolve_full_fft(x, h);
  ASSERT_EQ(y.size(), x.size());
  EXPECT_LT(rms_error(y, x), kRmsTol);
}

TEST(FastConvolve, DelayedImpulseShifts) {
  const Signal x = random_signal(777, 3);
  Signal h(33, 0.0);
  h[10] = 1.0;
  const Signal y = convolve_full_fft(x, h);
  ASSERT_EQ(y.size(), x.size() + h.size() - 1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i + 10], x[i], 1e-9);
  }
}

struct ConvCase {
  std::size_t n;
  std::size_t m;
};

class ConvEquivalence : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvEquivalence, FftMatchesDirect) {
  const auto [n, m] = GetParam();
  const Signal x = random_signal(n, 17 * n + m);
  const Signal h = random_signal(m, 29 * m + n);
  const Signal direct = convolve_full_direct(x, h);
  const Signal fft = convolve_full_fft(x, h);
  ASSERT_EQ(direct.size(), fft.size());
  EXPECT_LT(rms_error(direct, fft), kRmsTol);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvEquivalence,
    ::testing::Values(ConvCase{1, 1}, ConvCase{5, 3}, ConvCase{64, 64},
                      ConvCase{1000, 31},     // odd tap count
                      ConvCase{1023, 129},    // odd signal length
                      ConvCase{4096, 513},
                      ConvCase{31, 257},      // h longer than x
                      ConvCase{2, 1024},      // h much longer than x
                      ConvCase{32768, 129})); // the bench design point

TEST(FastConvolve, StepAndToneInputs) {
  const Signal h = design_lowpass(kFs, 50.0e3, 129);
  Signal step(2000, 1.0);
  const Signal tone_x = tone(kFs, 30.0e3, 2000, 1.0);
  EXPECT_LT(rms_error(convolve_full_direct(step, h), convolve_full_fft(step, h)),
            kRmsTol);
  EXPECT_LT(
      rms_error(convolve_full_direct(tone_x, h), convolve_full_fft(tone_x, h)),
      kRmsTol);
}

TEST(FastConvolve, ComplexMatchesPerRail) {
  const Signal h = design_lowpass(kFs, 50.0e3, 101);
  const Signal re = random_signal(3000, 7);
  const Signal im = random_signal(3000, 8);
  ComplexSignal z(re.size());
  for (std::size_t i = 0; i < z.size(); ++i) z[i] = Complex(re[i], im[i]);

  const ComplexSignal zy = convolve_full_fft(std::span<const Complex>(z), h);
  const Signal ry = convolve_full_direct(re, h);
  const Signal iy = convolve_full_direct(im, h);
  ASSERT_EQ(zy.size(), ry.size());
  Real acc = 0.0;
  for (std::size_t i = 0; i < zy.size(); ++i) {
    acc += std::norm(zy[i] - Complex(ry[i], iy[i]));
  }
  EXPECT_LT(std::sqrt(acc / static_cast<Real>(zy.size())), kRmsTol);
}

TEST(FastConvolve, ZeroPhaseComplexAlignsWithReal) {
  const Signal h = design_lowpass(kFs, 50.0e3, 101);
  const Signal re = random_signal(5000, 11);
  const Signal im = random_signal(5000, 12);
  ComplexSignal z(re.size());
  for (std::size_t i = 0; i < z.size(); ++i) z[i] = Complex(re[i], im[i]);

  const ComplexSignal zy = filter_zero_phase(h, z);
  const Signal ry = filter_zero_phase(h, re);
  const Signal iy = filter_zero_phase(h, im);
  ASSERT_EQ(zy.size(), z.size());
  for (std::size_t i = 0; i < zy.size(); ++i) {
    EXPECT_NEAR(zy[i].real(), ry[i], 1e-9);
    EXPECT_NEAR(zy[i].imag(), iy[i], 1e-9);
  }
}

TEST(FastConvolve, ZeroPhaseComplexIsTheSlicedFullConvolution) {
  // filter_zero_phase writes the delay-sliced window straight into `out`;
  // every sample must equal the full convolution's, bit for bit, on both
  // the direct and the overlap-save path.
  for (const std::size_t taps : {15UL, 101UL, 513UL}) {
    const Signal h = design_lowpass(kFs, 50.0e3, taps);
    for (const std::size_t n : {40UL, 3000UL, 20000UL}) {
      const Signal re = random_signal(n, 31 + n);
      const Signal im = random_signal(n, 32 + n);
      ComplexSignal z(n);
      for (std::size_t i = 0; i < n; ++i) z[i] = Complex(re[i], im[i]);
      const ComplexSignal full = convolve_full(std::span<const Complex>(z), h);
      const ComplexSignal got = filter_zero_phase(h, z);
      ASSERT_EQ(got.size(), n);
      const std::size_t delay = (taps - 1) / 2;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(got[i], full[delay + i]) << taps << " taps, n=" << n;
      }
    }
  }
}

/// The seed's zero-phase implementation: stream through a FirFilter, feed
/// `delay` trailing zeros, and realign. The rewritten single-pass version
/// must reproduce it.
Signal zero_phase_reference(const Signal& coefficients,
                            std::span<const Real> x) {
  FirFilter f(coefficients);
  const std::size_t delay = (coefficients.size() - 1) / 2;
  Signal out(x.size(), 0.0);
  for (std::size_t i = 0; i < x.size() + delay; ++i) {
    const Real in = (i < x.size()) ? x[i] : 0.0;
    const Real y = f.process(in);
    if (i >= delay) out[i - delay] = y;
  }
  return out;
}

TEST(FastConvolve, ZeroPhaseMatchesSeedReference) {
  for (const std::size_t taps : {15UL, 101UL, 129UL}) {
    const Signal h = design_lowpass(kFs, 50.0e3, taps);
    const Signal x = random_signal(6000, taps);
    const Signal ref = zero_phase_reference(h, x);
    const Signal got = filter_zero_phase(h, x);
    ASSERT_EQ(ref.size(), got.size());
    EXPECT_LT(rms_error(ref, got), kRmsTol) << "taps=" << taps;
  }
}

TEST(FastConvolve, CorrelateFftMatchesDirect) {
  const Signal x = random_signal(10000, 21);
  const Signal h = random_signal(513, 22);
  // Direct sliding dot product (the seed path).
  const std::size_t out_len = x.size() - h.size() + 1;
  Signal direct(out_len, 0.0);
  for (std::size_t k = 0; k < out_len; ++k) {
    Real acc = 0.0;
    for (std::size_t i = 0; i < h.size(); ++i) acc += x[k + i] * h[i];
    direct[k] = acc;
  }
  const Signal fft = correlate_valid_fft(x, h);
  ASSERT_EQ(fft.size(), out_len);
  EXPECT_LT(rms_error(direct, fft), kRmsTol);
  // And the public entry point (whichever path it picks) agrees too.
  EXPECT_LT(rms_error(correlate_valid(x, h), direct), kRmsTol);
}

TEST(FastConvolve, CorrelateEdgeCases) {
  const Signal x = random_signal(100, 31);
  EXPECT_TRUE(correlate_valid_fft(x, Signal{}).empty());
  EXPECT_TRUE(correlate_valid_fft(Signal(10, 1.0), x).empty());  // h > x
  // h.size() == x.size(): a single lag.
  const Signal c = correlate_valid_fft(x, x);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_NEAR(c[0], energy(x), 1e-7);
}

TEST(FastConvolve, StreamingFirSplitAcrossCalls) {
  // A batch big enough to take the FFT path, chopped into uneven pieces
  // (forcing both the FFT and the direct fallback across call boundaries),
  // must match the pure scalar path sample for sample.
  const Signal h = design_lowpass(kFs, 50.0e3, 129);
  const Signal x = random_signal(8192, 41);

  FirFilter scalar_f(h);
  Signal scalar_out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) scalar_out[i] = scalar_f.process(x[i]);

  FirFilter split_f(h);
  Signal split_out;
  const std::size_t chunks[] = {1, 63, 4000, 129, 2500, 1499};
  std::size_t pos = 0;
  for (const std::size_t c : chunks) {
    const std::size_t take = std::min(c, x.size() - pos);
    const Signal piece = split_f.process(
        std::span<const Real>(x.data() + pos, take));
    split_out.insert(split_out.end(), piece.begin(), piece.end());
    pos += take;
  }
  ASSERT_EQ(pos, x.size());
  ASSERT_EQ(split_out.size(), scalar_out.size());
  EXPECT_LT(rms_error(scalar_out, split_out), kRmsTol);

  // Streaming must keep working scalar-wise after a batch call.
  const Real next_scalar = scalar_f.process(0.5);
  const Real next_split = split_f.process(0.5);
  EXPECT_NEAR(next_scalar, next_split, 1e-9);
}

TEST(FastConvolve, MinTapsEnvOverridesDispatch) {
  // The override forces the FFT path at/above the given tap count and the
  // direct path below it, regardless of the cost model.
  ASSERT_EQ(setenv("ECOCAP_FFT_CONV_MIN_TAPS", "64", 1), 0);
  EXPECT_FALSE(use_fft_convolution(1 << 15, 63));
  EXPECT_TRUE(use_fft_convolution(1 << 15, 64));
  EXPECT_TRUE(use_fft_convolution(8, 64));  // even when clearly slower
  ASSERT_EQ(setenv("ECOCAP_FFT_CONV_MIN_TAPS", "0", 1), 0);
  EXPECT_TRUE(use_fft_convolution(16, 1));
  ASSERT_EQ(unsetenv("ECOCAP_FFT_CONV_MIN_TAPS"), 0);
  EXPECT_EQ(fft_conv_min_taps_override(), -1);
  // Cost model: big jobs go FFT, tiny kernels stay direct.
  EXPECT_TRUE(use_fft_convolution(1 << 15, 129));
  EXPECT_FALSE(use_fft_convolution(1 << 15, 3));
  // The receiver's frame search (decimated 64k-144k windows against the
  // 387-sample preamble) runs faster on the SIMD kernel than on FFT; the
  // scalar loops and long templates still go FFT.
  for (const std::size_t n : {1033UL, 1549UL, 2323UL, 3226UL}) {
    EXPECT_FALSE(use_fft_convolution(n, 387, DirectForm::kSimdKernel)) << n;
    EXPECT_TRUE(use_fft_convolution(n, 387)) << n;
  }
  EXPECT_TRUE(use_fft_convolution(8000, 3000, DirectForm::kSimdKernel));
}

TEST(FastConvolve, InvalidMinTapsEnvIsNotedOnStderr) {
  for (const char* bad : {"abc", "-3", "12x"}) {
    ASSERT_EQ(setenv("ECOCAP_FFT_CONV_MIN_TAPS", bad, 1), 0);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(fft_conv_min_taps_override(), -1);
    EXPECT_FALSE(use_fft_convolution(1 << 15, 3));  // the cost model rules
    const std::string note = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(note.find("ECOCAP_FFT_CONV_MIN_TAPS=\"" + std::string(bad)),
              std::string::npos)
        << note;
    EXPECT_NE(note.find("cost model"), std::string::npos) << note;
    // One note per distinct value, not one per convolution.
    EXPECT_EQ(note.find("ECOCAP", note.find("ECOCAP") + 1), std::string::npos)
        << note;
  }
  ASSERT_EQ(setenv("ECOCAP_FFT_CONV_MIN_TAPS", "64", 1), 0);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(fft_conv_min_taps_override(), 64);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  ASSERT_EQ(unsetenv("ECOCAP_FFT_CONV_MIN_TAPS"), 0);
}

TEST(FilterCache, SameKeyReturnsSameEntry) {
  FilterCache cache;
  const auto a = cache.lowpass(kFs, 50.0e3, 129);
  const auto b = cache.lowpass(kFs, 50.0e3, 129);
  EXPECT_EQ(a.get(), b.get());
  const Signal direct = design_lowpass(kFs, 50.0e3, 129);
  ASSERT_EQ(a->size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) EXPECT_EQ((*a)[i], direct[i]);

  // Different parameters are different entries.
  EXPECT_NE(a.get(), cache.lowpass(kFs, 60.0e3, 129).get());
  EXPECT_NE(a.get(), cache.lowpass(kFs, 50.0e3, 131).get());
  EXPECT_NE(a.get(),
            cache.lowpass(kFs, 50.0e3, 129, WindowKind::kBlackman).get());
  EXPECT_EQ(cache.size(), 4u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(a->size(), direct.size());  // outstanding pointers stay valid
}

TEST(FilterCache, KindsAndResonatorAreDistinct) {
  FilterCache cache;
  const auto lo = cache.lowpass(kFs, 50.0e3, 101);
  const auto hi = cache.highpass(kFs, 50.0e3, 101);
  EXPECT_NE(lo.get(), hi.get());
  const auto bp = cache.bandpass(kFs, 40.0e3, 60.0e3, 101);
  const auto bs = cache.bandstop(kFs, 40.0e3, 60.0e3, 101);
  EXPECT_NE(bp.get(), bs.get());

  const auto res = cache.bandpass_resonator(2.0e6, 230.0e3, 10.0);
  EXPECT_EQ(res.get(), cache.bandpass_resonator(2.0e6, 230.0e3, 10.0).get());
  Biquad fresh = Biquad::bandpass(2.0e6, 230.0e3, 10.0);
  EXPECT_EQ(res->peak_gain, fresh.magnitude_at(2.0e6, 230.0e3));
}

TEST(FilterCache, EightThreadsHammeringOneKey) {
  FilterCache cache;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<const Signal*> first(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kIters; ++i) {
        const auto h = cache.lowpass(kFs, 50.0e3, 129);
        if (!first[t]) first[t] = h.get();
        // Every hit must be the one shared design.
        if (h.get() != first[t] || h->size() != 129) {
          first[t] = nullptr;  // poison: the expectation below fails
          return;
        }
      }
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go.store(true);
  for (auto& th : threads) th.join();
  ASSERT_NE(first[0], nullptr);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(first[t], first[0]);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace ecocap::dsp
