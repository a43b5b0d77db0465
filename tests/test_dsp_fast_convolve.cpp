#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "dsp/correlate.hpp"
#include "dsp/decimate.hpp"
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
  EXPECT_TRUE(convolve_full_fft(Signal{}, x).empty());
  EXPECT_TRUE(convolve_full_fft(x, Signal{}).empty());
  EXPECT_TRUE(convolve_full_direct(Signal{}, x).empty());
  EXPECT_TRUE(convolve_full_direct(x, Signal{}).empty());
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

/// The seed's zero-phase implementation: stream through a delay-line FIR,
/// feed `delay` trailing zeros, and realign.
Signal zero_phase_reference(const Signal& coefficients,
                            std::span<const Real> x) {
  const std::size_t delay = (coefficients.size() - 1) / 2;
  Signal line(coefficients.size(), 0.0);  // line[j] = input j samples ago
  Signal out(x.size(), 0.0);
  for (std::size_t i = 0; i < x.size() + delay; ++i) {
    std::copy_backward(line.begin(), line.end() - 1, line.end());
    line[0] = (i < x.size()) ? x[i] : 0.0;
    Real y = 0.0;
    for (std::size_t j = 0; j < line.size(); ++j) y += coefficients[j] * line[j];
    if (i >= delay) out[i - delay] = y;
  }
  return out;
}

TEST(FastConvolve, ZeroPhaseMatchesSeedReference) {
  // The receiver's low-pass is mix_lowpass_decimate; with no mixing and no
  // decimation it is the zero-phase filter and must reproduce the seed's.
  for (const std::size_t taps : {15UL, 101UL, 129UL}) {
    const Signal h = design_lowpass(kFs, 50.0e3, taps);
    const Signal x = random_signal(6000, taps);
    const Signal ref = zero_phase_reference(h, x);
    ComplexSignal z;
    mix_lowpass_decimate(x, kFs, 0.0, h, 1, z);
    ASSERT_EQ(z.size(), ref.size());
    Signal got(z.size());
    for (std::size_t i = 0; i < z.size(); ++i) {
      got[i] = z[i].real();
      ASSERT_EQ(z[i].imag(), 0.0) << i;
    }
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

TEST(FastConvolve, CostModelDispatch) {
  // Degenerate shapes and tiny kernels stay on the direct kernel.
  EXPECT_FALSE(use_fft_convolution(0, 129));
  EXPECT_FALSE(use_fft_convolution(1 << 15, 0));
  EXPECT_FALSE(use_fft_convolution(1 << 15, 3));
  EXPECT_FALSE(use_fft_convolution(63, 50));
  // The receiver's frame search (decimated 64k-200k windows against the
  // 387-sample preamble) runs faster on the SIMD kernel than on FFT.
  for (const std::size_t n : {1033UL, 1549UL, 2323UL, 3226UL}) {
    EXPECT_FALSE(use_fft_convolution(n, 387)) << n;
  }
  // Templates of 1500 samples and more (the preamble at the low Fig. 16
  // bitrates) go FFT.
  for (const std::size_t n : {1500UL, 3000UL, 8000UL, 1UL << 15}) {
    EXPECT_TRUE(use_fft_convolution(n, 1500)) << n;
    EXPECT_TRUE(use_fft_convolution(n + 1500, 3000)) << n;
  }
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
  EXPECT_NE(a.get(), cache.lowpass(2.0e6, 50.0e3, 129).get());
  EXPECT_EQ(cache.size(), 4u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(a->size(), direct.size());  // outstanding pointers stay valid
}

TEST(FilterCache, KindsAndResonatorAreDistinct) {
  FilterCache cache;
  (void)cache.lowpass(2.0e6, 230.0e3, 101);
  const auto res = cache.bandpass_resonator(2.0e6, 230.0e3, 10.0);
  EXPECT_EQ(res.get(), cache.bandpass_resonator(2.0e6, 230.0e3, 10.0).get());
  Biquad fresh = Biquad::bandpass(2.0e6, 230.0e3, 10.0);
  EXPECT_EQ(res->peak_gain, fresh.magnitude_at(2.0e6, 230.0e3));
  // A low-pass and a resonator with the same fs and frequency are two
  // entries.
  EXPECT_EQ(cache.size(), 2u);
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
