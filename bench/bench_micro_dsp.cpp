// Micro-benchmarks (google-benchmark) for the hot paths that the Monte
// Carlo experiment harnesses lean on: FFT, correlation (direct vs the
// overlap-save FFT path), FM0 Viterbi decode, the envelope detector, the
// waveform-level concrete channel, and threaded FDTD stepping.
//
// Besides the google-benchmark table, main() times the headline
// direct-vs-FFT and 1-vs-N-thread comparisons with a plain chrono loop and
// writes them to BENCH_micro_dsp.json (schema in docs/benchmarks.md), so
// the perf trajectory of this PR's kernels is machine-readable.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "channel/concrete_channel.hpp"
#include "channel/link_budget.hpp"
#include "core/ber_harness.hpp"
#include "core/link_simulator.hpp"
#include "core/thread_pool.hpp"
#include "core/workspace_pool.hpp"
#include "dsp/correlate.hpp"
#include "dsp/decimate.hpp"
#include "dsp/envelope.hpp"
#include "dsp/fast_convolve.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/oscillator.hpp"
#include "dsp/rng.hpp"
#include "dsp/signal_ops.hpp"
#include "wave/fdtd.hpp"
#include "phy/carrier.hpp"
#include "phy/fm0.hpp"
#include "phy/ring_effect.hpp"
#include "reader/receiver.hpp"
#include "reader/transmitter.hpp"

using namespace ecocap;

static void BM_Fft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const dsp::Signal x = dsp::tone(1.0e6, 230.0e3, n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::magnitude_spectrum(x));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Fft)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 17);

static void BM_CorrelateDirect(benchmark::State& state) {
  const dsp::Signal x = dsp::tone(1.0e6, 30.0e3, 1 << 15, 1.0);
  const dsp::Signal h = dsp::tone(1.0e6, 30.0e3, 512, 1.0);
  for (auto _ : state) {
    // Inline brute-force sliding dot product (the seed path).
    const std::size_t out_len = x.size() - h.size() + 1;
    dsp::Signal out(out_len, 0.0);
    for (std::size_t k = 0; k < out_len; ++k) {
      dsp::Real acc = 0.0;
      for (std::size_t i = 0; i < h.size(); ++i) acc += x[k + i] * h[i];
      out[k] = acc;
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_CorrelateDirect);

static void BM_CorrelateFft(benchmark::State& state) {
  const dsp::Signal x = dsp::tone(1.0e6, 30.0e3, 1 << 15, 1.0);
  const dsp::Signal h = dsp::tone(1.0e6, 30.0e3, 512, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::correlate_valid_fft(x, h));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_CorrelateFft);

static void BM_Fm0Decode(benchmark::State& state) {
  dsp::Rng rng(1);
  const phy::Bits bits = phy::random_bits(256, rng);
  const dsp::Signal x = phy::fm0_encode(bits, 32.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(phy::fm0_decode(x, 32.0, bits.size()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_Fm0Decode);

static void BM_Envelope(benchmark::State& state) {
  const dsp::Signal x = dsp::tone(2.0e6, 230.0e3, 1 << 16, 1.0);
  dsp::EnvelopeDetector det(2.0e6, 20.0e3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.process(x));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_Envelope);

static void BM_ConcreteChannelDownlink(benchmark::State& state) {
  channel::ChannelConfig cfg;
  cfg.distance = 0.5;
  const channel::ConcreteChannel ch(channel::structures::s3_common_wall(),
                                    cfg);
  const dsp::Signal x = dsp::tone(cfg.fs, 230.0e3, 1 << 16, 1.0);
  dsp::Rng rng(2);
  dsp::Signal y;
  for (auto _ : state) {
    ch.downlink(x, rng, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_ConcreteChannelDownlink);

static void BM_ConcreteChannelUplink(benchmark::State& state) {
  channel::ChannelConfig cfg;
  cfg.distance = 0.5;
  const channel::ConcreteChannel ch(channel::structures::s3_common_wall(),
                                    cfg);
  const dsp::Signal x = dsp::tone(cfg.fs, 230.0e3, 1 << 16, 0.01);
  dsp::Rng rng(3);
  dsp::Signal y;
  for (auto _ : state) {
    ch.uplink(x, 230.0e3, rng, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_ConcreteChannelUplink);

static void BM_FdtdStep(benchmark::State& state) {
  core::ThreadPool serial(1);
  wave::ElasticFdtd::Config cfg;
  cfg.nx = static_cast<std::size_t>(state.range(0));
  cfg.ny = cfg.nx;
  cfg.pool = &serial;
  wave::ElasticFdtd sim(wave::materials::reference_concrete(), cfg);
  sim.add_force(cfg.nx / 2, cfg.ny / 2, 1, 1.0);
  for (auto _ : state) {
    sim.step();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(cfg.nx * cfg.ny));
}
BENCHMARK(BM_FdtdStep)->Arg(128)->Arg(256);

static void BM_FdtdStepThreads(benchmark::State& state) {
  core::ThreadPool pool(static_cast<unsigned>(state.range(1)));
  wave::ElasticFdtd::Config cfg;
  cfg.nx = static_cast<std::size_t>(state.range(0));
  cfg.ny = cfg.nx;
  cfg.pool = &pool;
  wave::ElasticFdtd sim(wave::materials::reference_concrete(), cfg);
  sim.add_force(cfg.nx / 2, cfg.ny / 2, 1, 1.0);
  for (auto _ : state) {
    sim.step();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(cfg.nx * cfg.ny));
}
BENCHMARK(BM_FdtdStepThreads)->Args({256, 1})->Args({256, 2})->Args({256, 4});

static void BM_BerTrial(benchmark::State& state) {
  core::BerConfig cfg;
  cfg.snr_db = 8.0;
  cfg.total_bits = 4096;
  for (auto _ : state) {
    cfg.seed++;
    benchmark::DoNotOptimize(core::fm0_ber_monte_carlo(cfg));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_BerTrial);

namespace {

/// Nanoseconds per call, growing the iteration count until the measurement
/// window is long enough to trust.
template <typename F>
double time_ns(F&& f, double min_seconds = 0.05) {
  using clock = std::chrono::steady_clock;
  f();  // warm up caches and any lazy design
  std::size_t iters = 1;
  while (true) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < iters; ++i) f();
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    if (s >= min_seconds) return s * 1e9 / static_cast<double>(iters);
    const double grow = (s > 1e-9) ? min_seconds / s * 1.2 : 8.0;
    iters = std::max(iters + 1, static_cast<std::size_t>(
                                    static_cast<double>(iters) * grow));
  }
}

/// Per-kernel roofline block: for each primitive in the SIMD kernel layer,
/// the seed-style sequential loop vs the dispatched kernel table, in
/// ns/element, plus the analytic traffic (bytes/element) and arithmetic
/// (flops/element) so the ratio against machine peak is computable offline.
/// Schema in docs/benchmarks.md. `simd_isa` records which table `active()`
/// resolved to (0 scalar, 1 avx2, 2 neon) so CI can gate speedups only on
/// SIMD-capable hosts.
void record_roofline_metrics(ecocap::bench::BenchJson& json) {
  const dsp::kernels::KernelTable& kt = dsp::kernels::active();
  json.metric("simd_isa", static_cast<double>(kt.isa));
  json.metric("hw_threads",
              static_cast<double>(std::thread::hardware_concurrency()));

  const auto per_elem = [&](const char* name, double seed_ns, double simd_ns,
                            double elems, double bytes, double flops) {
    json.metric(std::string("kern_") + name + "_seed_ns_per_elem",
                seed_ns / elems);
    json.metric(std::string("kern_") + name + "_simd_ns_per_elem",
                simd_ns / elems);
    json.metric(std::string("kern_") + name + "_speedup", seed_ns / simd_ns);
    json.metric(std::string("kern_") + name + "_bytes_per_elem", bytes);
    json.metric(std::string("kern_") + name + "_flops_per_elem", flops);
  };

  // Dot product, 4096 points (L1-resident: measures the compute ceiling).
  {
    const dsp::Signal a = dsp::tone(1.0e6, 31.0e3, 4096, 1.0);
    const dsp::Signal b = dsp::tone(1.0e6, 47.0e3, 4096, 1.0);
    const double seed_ns = time_ns([&] {
      dsp::Real acc = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
      benchmark::DoNotOptimize(acc);
    });
    const double simd_ns = time_ns([&] {
      dsp::Real acc = kt.dot(a.data(), b.data(), a.size());
      benchmark::DoNotOptimize(acc);
    });
    per_elem("dot", seed_ns, simd_ns, 4096.0, 16.0, 2.0);
  }

  // FIR direct path: a 129-tap low-pass slid over 8k samples. One
  // "element" is one multiply-accumulate lane crossing, out_len * taps of
  // them.
  {
    const dsp::Signal x = dsp::tone(1.0e6, 30.0e3, 8192, 1.0);
    const dsp::Signal h = dsp::design_lowpass(1.0e6, 50.0e3, 129);
    const std::size_t out_len = x.size() - h.size() + 1;
    dsp::Signal out(out_len);
    const double seed_ns = time_ns([&] {
      for (std::size_t k = 0; k < out_len; ++k) {
        dsp::Real acc = 0.0;
        for (std::size_t i = 0; i < h.size(); ++i) acc += x[k + i] * h[i];
        out[k] = acc;
      }
      benchmark::DoNotOptimize(out);
    });
    const double simd_ns = time_ns([&] {
      kt.correlate_valid(x.data(), x.size(), h.data(), h.size(), out.data());
      benchmark::DoNotOptimize(out);
    });
    const double macs = static_cast<double>(out_len * h.size());
    per_elem("fir", seed_ns, simd_ns, macs, 16.0, 2.0);
  }

  // Correlation at the preamble-search shape (512-tap template, 32k
  // capture), same element definition.
  {
    const dsp::Signal x = dsp::tone(1.0e6, 30.0e3, 1 << 15, 1.0);
    const dsp::Signal h = dsp::tone(1.0e6, 30.0e3, 512, 1.0);
    const std::size_t out_len = x.size() - h.size() + 1;
    dsp::Signal out(out_len);
    const double seed_ns = time_ns([&] {
      for (std::size_t k = 0; k < out_len; ++k) {
        dsp::Real acc = 0.0;
        for (std::size_t i = 0; i < h.size(); ++i) acc += x[k + i] * h[i];
        out[k] = acc;
      }
      benchmark::DoNotOptimize(out);
    });
    const double simd_ns = time_ns([&] {
      kt.correlate_valid(x.data(), x.size(), h.data(), h.size(), out.data());
      benchmark::DoNotOptimize(out);
    });
    const double macs = static_cast<double>(out_len * h.size());
    per_elem("correlate", seed_ns, simd_ns, macs, 16.0, 2.0);
  }

  // Biquad over 64k samples on the channel resonator's design (2 MS/s,
  // 230 kHz, Q 10): the seed's direct-form-I loop, where every sample waits
  // on the one before it, vs the kernel's M = 4 look-ahead form, whose four
  // independent chains share one vector.
  {
    const dsp::Signal x = dsp::tone(1.0e6, 30.0e3, 1 << 16, 1.0);
    dsp::Signal y(x.size());
    const dsp::Real w0 = dsp::kTwoPi * 230.0e3 / 2.0e6;
    const dsp::Real alpha = std::sin(w0) / (2.0 * 10.0);
    const dsp::Real a0 = 1.0 + alpha;
    const dsp::Real b0 = alpha / a0, b1 = 0.0, b2 = -alpha / a0;
    const dsp::Real a1 = (-2.0 * std::cos(w0)) / a0, a2 = (1.0 - alpha) / a0;
    const dsp::kernels::BiquadCoeffs c =
        dsp::kernels::biquad_lookahead(b0, b1, b2, a1, a2);
    const double seed_ns = time_ns([&] {
      dsp::Real x1 = 0.0, x2 = 0.0, y1 = 0.0, y2 = 0.0;
      volatile dsp::Real* sink = y.data();  // forbid loop fusion with state
      for (std::size_t i = 0; i < x.size(); ++i) {
        const dsp::Real yi =
            b0 * x[i] + b1 * x1 + b2 * x2 - a1 * y1 - a2 * y2;
        x2 = x1;
        x1 = x[i];
        y2 = y1;
        y1 = yi;
        sink[i] = yi;
      }
      benchmark::DoNotOptimize(y);
    });
    const double simd_ns = time_ns([&] {
      dsp::kernels::BiquadState s;
      kt.biquad(x.data(), y.data(), x.size(), c, s);
      benchmark::DoNotOptimize(y);
    });
    per_elem("biquad", seed_ns, simd_ns, static_cast<double>(x.size()), 16.0,
             21.0);
  }

  // One-pole low-pass over 64k samples: seed per-sample RC recurrence vs
  // the block-scan kernel (4 lanes from the block-entry state).
  {
    const dsp::Signal x = dsp::tone(1.0e6, 30.0e3, 1 << 16, 1.0);
    dsp::Signal y(x.size());
    const dsp::Real alpha = 0.125;
    const double seed_ns = time_ns([&] {
      dsp::Real state = 0.0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        state += alpha * (x[i] - state);
        y[i] = state;
      }
      benchmark::DoNotOptimize(y);
    });
    const double simd_ns = time_ns([&] {
      dsp::Real state = 0.0;
      kt.onepole(x.data(), y.data(), x.size(), alpha, &state);
      benchmark::DoNotOptimize(y);
    });
    per_elem("onepole", seed_ns, simd_ns, static_cast<double>(x.size()), 16.0,
             9.0);
  }

  // Envelope (rectify + RC) over 64k samples.
  {
    const dsp::Signal x = dsp::tone(2.0e6, 230.0e3, 1 << 16, 1.0);
    dsp::Signal y(x.size());
    const dsp::Real alpha = 0.0609;
    const double seed_ns = time_ns([&] {
      dsp::Real state = 0.0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        state += alpha * (std::abs(x[i]) - state);
        y[i] = state;
      }
      benchmark::DoNotOptimize(y);
    });
    const double simd_ns = time_ns([&] {
      dsp::Real state = 0.0;
      kt.envelope(x.data(), y.data(), x.size(), alpha, &state);
      benchmark::DoNotOptimize(y);
    });
    per_elem("envelope", seed_ns, simd_ns, static_cast<double>(x.size()),
             16.0, 10.0);
  }

  // FDTD stencil rows, 1024 columns x 64 rows (the per-band working shape).
  // Seed-style indexed loops (the pre-kernel update_*_rows bodies) vs the
  // kernel row functions.
  {
    const std::size_t nx = 1024, rows = 64;
    const std::size_t n = nx * (rows + 2);
    std::vector<dsp::Real> vx(n, 0.01), vy(n, 0.02), sxx(n, 0.5), syy(n, 0.4),
        sxy(n, 0.3), rho(n, 2400.0), lambda(n, 1.1e10), mu(n, 9.0e9);
    const dsp::Real dt = 1e-7, inv_dx = 500.0;
    const double vel_seed_ns = time_ns([&] {
      for (std::size_t iy = 1; iy <= rows; ++iy) {
        for (std::size_t ix = 1; ix + 1 < nx; ++ix) {
          const std::size_t i = iy * nx + ix;
          const dsp::Real dsxx_dx = (sxx[i] - sxx[i - 1]) * inv_dx;
          const dsp::Real dsxy_dy = (sxy[i] - sxy[i - nx]) * inv_dx;
          const dsp::Real dsxy_dx = (sxy[i + 1] - sxy[i]) * inv_dx;
          const dsp::Real dsyy_dy = (syy[i + nx] - syy[i]) * inv_dx;
          const dsp::Real inv_rho = 1.0 / rho[i];
          vx[i] += dt * inv_rho * (dsxx_dx + dsxy_dy);
          vy[i] += dt * inv_rho * (dsxy_dx + dsyy_dy);
        }
      }
      benchmark::DoNotOptimize(vx);
    });
    const double vel_simd_ns = time_ns([&] {
      for (std::size_t iy = 1; iy <= rows; ++iy) {
        dsp::kernels::FdtdVelocityRowArgs a{};
        a.vx = vx.data() + iy * nx;
        a.vy = vy.data() + iy * nx;
        a.sxx = sxx.data() + iy * nx;
        a.sxy = sxy.data() + iy * nx;
        a.sxy_dn = sxy.data() + (iy - 1) * nx;
        a.syy = syy.data() + iy * nx;
        a.syy_up = syy.data() + (iy + 1) * nx;
        a.rho = rho.data() + iy * nx;
        a.i0 = 1;
        a.i1 = nx - 1;
        a.dt = dt;
        a.inv_dx = inv_dx;
        kt.fdtd_velocity_row(a);
      }
      benchmark::DoNotOptimize(vx);
    });
    const double cells = static_cast<double>(rows * (nx - 2));
    per_elem("fdtd_velocity", vel_seed_ns, vel_simd_ns, cells, 96.0, 17.0);

    const double str_seed_ns = time_ns([&] {
      for (std::size_t iy = 1; iy <= rows; ++iy) {
        for (std::size_t ix = 1; ix + 1 < nx; ++ix) {
          const std::size_t i = iy * nx + ix;
          const dsp::Real dvx_dx = (vx[i + 1] - vx[i]) * inv_dx;
          const dsp::Real dvy_dy = (vy[i] - vy[i - nx]) * inv_dx;
          const dsp::Real l = lambda[i];
          const dsp::Real m = mu[i];
          sxx[i] += dt * ((l + 2.0 * m) * dvx_dx + l * dvy_dy);
          syy[i] += dt * (l * dvx_dx + (l + 2.0 * m) * dvy_dy);
          const dsp::Real dvx_dy = (vx[i + nx] - vx[i]) * inv_dx;
          const dsp::Real dvy_dx = (vy[i] - vy[i - 1]) * inv_dx;
          sxy[i] += dt * m * (dvx_dy + dvy_dx);
        }
      }
      benchmark::DoNotOptimize(sxx);
    });
    const double str_simd_ns = time_ns([&] {
      for (std::size_t iy = 1; iy <= rows; ++iy) {
        dsp::kernels::FdtdStressRowArgs a{};
        a.sxx = sxx.data() + iy * nx;
        a.syy = syy.data() + iy * nx;
        a.sxy = sxy.data() + iy * nx;
        a.vx = vx.data() + iy * nx;
        a.vx_up = vx.data() + (iy + 1) * nx;
        a.vy = vy.data() + iy * nx;
        a.vy_dn = vy.data() + (iy - 1) * nx;
        a.lambda = lambda.data() + iy * nx;
        a.mu = mu.data() + iy * nx;
        a.i0 = 1;
        a.i1 = nx - 1;
        a.dt = dt;
        a.inv_dx = inv_dx;
        kt.fdtd_stress_row(a);
      }
      benchmark::DoNotOptimize(sxx);
    });
    per_elem("fdtd_stress", str_seed_ns, str_simd_ns, cells, 112.0, 20.0);
  }

  // Carrier sine over 4096 phases in [0, 2*pi) (L1-resident), in place as
  // Oscillator::generate runs it: the seed's per-sample std::sin vs the
  // kernel map. Flops count the canonical expression: 8 for the reduction
  // and r*r, 13 for the sine polynomial, 15 for the cosine, 1 for the
  // amplitude.
  {
    dsp::Signal phases(4096);
    for (std::size_t i = 0; i < phases.size(); ++i) {
      phases[i] = dsp::kTwoPi * static_cast<double>(i) / 4096.0;
    }
    dsp::Signal y(phases.size());
    const dsp::Real amplitude = 0.5;
    const double seed_ns = time_ns([&] {
      std::copy(phases.begin(), phases.end(), y.begin());
      for (dsp::Real& v : y) v = amplitude * std::sin(v);
      benchmark::DoNotOptimize(y.data());
    });
    const double simd_ns = time_ns([&] {
      std::copy(phases.begin(), phases.end(), y.begin());
      kt.sine(y.data(), y.size(), amplitude);
      benchmark::DoNotOptimize(y.data());
    });
    per_elem("sine", seed_ns, simd_ns, static_cast<double>(y.size()), 16.0,
             37.0);
  }

  // Polar maps over one state block (156 pairs, L1-resident): accepted
  // candidates from 312 words, then the scale of each accepted pair,
  // through the canonical scalar table vs the dispatched one. Per pair:
  // 16 B of words read, x, y, r2 and the pair index written, r2 re-read
  // with the log in place (72 B); flops count 6 per word (halves, sum,
  // scale, clamp, 2u - 1), 3 for r2, 2 for the acceptance test and 3 for
  // the scale (mul, div, sqrt).
  {
    constexpr std::size_t kPairs = dsp::kernels::kMtStateWords / 2;
    std::mt19937_64 words_rng(5);
    std::vector<std::uint64_t> words(2 * kPairs), pair(kPairs);
    for (auto& w : words) w = words_rng();
    std::vector<dsp::Real> x(kPairs), y(kPairs), r2(kPairs), m(kPairs);
    const auto polar = [&](const dsp::kernels::KernelTable& t) {
      return time_ns([&] {
        const std::size_t got =
            t.polar_candidates(words.data(), kPairs, x.data(), y.data(),
                               r2.data(), pair.data());
        // r2 stands in for its log: the map's cost does not depend on it.
        std::copy_n(r2.begin(), got, m.begin());
        t.polar_scale(m.data(), r2.data(), got);
        benchmark::DoNotOptimize(m.data());
      });
    };
    const double seed_ns = polar(dsp::kernels::scalar_table());
    const double simd_ns = polar(kt);
    per_elem("polar", seed_ns, simd_ns, static_cast<double>(kPairs), 72.0,
             20.0);
  }

  // Channel noise over 64k samples: the per-sample std::normal_distribution
  // loop over std::mt19937_64 vs dsp::add_awgn's block polar draws, which
  // reproduce that loop's values bit for bit. The block-256 row is the
  // stream's call size; the log row is the libm floor (one std::log per
  // accepted pair, i.e. per two samples). The first three rows alternate
  // over several rounds and each keeps its fastest, so host drift between
  // them does not read as a gap.
  {
    dsp::Signal y = dsp::tone(1.0e6, 30.0e3, 1 << 16, 1.0);
    const dsp::Real sigma = 0.01;
    std::mt19937_64 engine(11);
    std::normal_distribution<dsp::Real> normal(0.0, 1.0);
    dsp::Rng rng(11);
    double seed_ns = 1e300, block_ns = 1e300, block256_ns = 1e300;
    for (int round = 0; round < 5; ++round) {
      seed_ns = std::min(seed_ns, time_ns([&] {
        for (dsp::Real& v : y) v += sigma * normal(engine);
        benchmark::DoNotOptimize(y);
      }, 0.02));
      block_ns = std::min(block_ns, time_ns([&] {
        dsp::add_awgn(y, sigma, rng);
        benchmark::DoNotOptimize(y);
      }, 0.02));
      block256_ns = std::min(block256_ns, time_ns([&] {
        for (std::size_t i = 0; i < y.size(); i += 256) {
          rng.add_gaussian(std::span<dsp::Real>(y).subspan(i, 256), sigma);
        }
        benchmark::DoNotOptimize(y);
      }, 0.02));
    }
    dsp::Signal r2(4096);
    for (dsp::Real& v : r2) {
      const dsp::Real a = 2.0 * rng.uniform() - 1.0;
      const dsp::Real b = 2.0 * rng.uniform() - 1.0;
      v = std::max(a * a + b * b, 0x1p-60) / 2.0;  // spread over (0, 1]
    }
    dsp::Signal logs(r2.size());
    const double log_ns = time_ns([&] {
      for (std::size_t i = 0; i < r2.size(); ++i) logs[i] = std::log(r2[i]);
      benchmark::DoNotOptimize(logs.data());
    });
    const double n = static_cast<double>(y.size());
    json.metric("awgn_seed_ns_per_sample", seed_ns / n);
    json.metric("awgn_block_ns_per_sample", block_ns / n);
    json.metric("awgn_block256_ns_per_sample", block256_ns / n);
    json.metric("awgn_log_ns_per_call",
                log_ns / static_cast<double>(r2.size()));
    json.metric("kern_awgn_speedup", seed_ns / block_ns);
  }
}

/// Headline direct-vs-FFT and 1-vs-N-thread comparisons for the JSON
/// trajectory. These are the acceptance numbers: the google-benchmark table
/// above is for humans, this block is for machines.
void record_headline_metrics(ecocap::bench::BenchJson& json) {
  // Valid correlation of a 512-sample template against a 32k capture (the
  // FM0 preamble search shape).
  {
    const dsp::Signal x = dsp::tone(1.0e6, 30.0e3, 1 << 15, 1.0);
    const dsp::Signal h = dsp::tone(1.0e6, 30.0e3, 512, 1.0);
    const double direct_ns = time_ns([&] {
      const std::size_t out_len = x.size() - h.size() + 1;
      dsp::Signal out(out_len, 0.0);
      for (std::size_t k = 0; k < out_len; ++k) {
        dsp::Real acc = 0.0;
        for (std::size_t i = 0; i < h.size(); ++i) acc += x[k + i] * h[i];
        out[k] = acc;
      }
      benchmark::DoNotOptimize(out);
    });
    const double fft_ns = time_ns([&] {
      benchmark::DoNotOptimize(dsp::correlate_valid_fft(x, h));
    });
    json.metric("correlate_512tmpl_32k_direct_ns", direct_ns);
    json.metric("correlate_512tmpl_32k_fft_ns", fft_ns);
    json.metric("correlate_512tmpl_32k_speedup", direct_ns / fft_ns);
  }

  // The receiver's FM0 frame search: the decimated baseband of a 96k-sample
  // window (1549 samples) against the 387-sample preamble template, on the
  // SIMD direct kernel and on the overlap-save FFT path. correlate_valid's
  // cost model must pick the faster one (correlate_frame_search_uses_fft).
  {
    dsp::Rng rng(13);
    dsp::Signal x(1549), h(387);
    for (auto& v : x) v = rng.gaussian();
    for (auto& v : h) v = rng.gaussian();
    dsp::Signal out(x.size() - h.size() + 1);
    json.metric("correlate_frame_search_direct_ns", time_ns([&] {
      dsp::kernels::active().correlate_valid(x.data(), x.size(), h.data(),
                                             h.size(), out.data());
      benchmark::DoNotOptimize(out.data());
    }));
    json.metric("correlate_frame_search_fft_ns", time_ns([&] {
      benchmark::DoNotOptimize(dsp::correlate_valid_fft(x, h));
    }));
    json.metric("correlate_frame_search_uses_fft",
                dsp::use_fft_convolution(x.size(), h.size()) ? 1.0 : 0.0);
  }

  // Receiver::decode on a default-system uplink capture: a 32-bit FM0
  // frame at the default 1 kb/s and 4 kHz BLF, reflected by the node and
  // carried back by the default channel (~96k samples at 2 MHz). The front
  // end is then timed against the full-rate chain it replaced:
  // estimate_tone_frequency over the whole window, then the mixer and
  // low-pass at every sample (mix_lowpass_decimate at factor 1), every
  // m-th sample kept.
  {
    const core::SystemConfig cfg = core::default_system();
    const dsp::Real fs = cfg.channel.fs;
    const phy::Fm0Params line = cfg.capsule.firmware.uplink;
    dsp::Rng prng(9);
    const phy::Bits payload = phy::random_bits(32, prng);
    const channel::ConcreteChannel ch(cfg.structure, cfg.channel);
    reader::Transmitter transmitter(cfg.transmitter);
    dsp::Rng rng(7);
    dsp::Signal cw, at_node, emission, capture;
    transmitter.continuous_wave(
        phy::fm0_frame_seconds(payload.size(), line, line.bitrate), cw);
    ch.downlink(cw, rng, at_node);
    dsp::scale(at_node, channel::node_volts_scale(
                            cfg.structure, cfg.transmitter.tx_voltage));
    phy::BackscatterParams bp = cfg.capsule.backscatter;
    bp.f_blf = cfg.capsule.firmware.blf;
    phy::backscatter_modulate(at_node, phy::fm0_encode_frame(payload, line, fs),
                              fs, bp, emission);
    ch.uplink(emission, cfg.transmitter.carrier.f_resonant, rng, capture);

    reader::Receiver receiver(cfg.receiver);
    receiver.set_blf(bp.f_blf);
    receiver.set_bitrate(line.bitrate);
    dsp::Workspace ws;
    const reader::UplinkDecode dec = receiver.decode(capture, payload.size(), ws);
    json.metric("decode_window_samples", static_cast<double>(capture.size()));
    json.metric("decode_valid", dec.valid && dec.payload == payload ? 1.0 : 0.0);
    json.metric("decode_ms_per_window", 1e-6 * time_ns([&] {
      benchmark::DoNotOptimize(receiver.decode(capture, payload.size(), ws));
    }, 0.2));

    const reader::ReceiverConfig& rc = receiver.config();
    const dsp::Signal h = dsp::design_lowpass(
        fs, std::max(2.5 * line.bitrate + bp.f_blf, 8.0e3), rc.lowpass_taps);
    constexpr std::size_t kM = 62;  // the receiver's decimation at 1 kb/s
    const double reference_ns = time_ns([&] {
      const dsp::Real carrier = dsp::estimate_tone_frequency(
          capture, fs, rc.carrier_search_lo, rc.carrier_search_hi);
      dsp::ComplexSignal z;
      dsp::mix_lowpass_decimate(capture, fs, carrier, h, 1, z);
      dsp::ComplexSignal zd;
      for (std::size_t i = 0; i < z.size(); i += kM) zd.push_back(z[i]);
      benchmark::DoNotOptimize(zd.data());
    }, 0.2);
    dsp::ComplexSignal zd;
    const double fused_ns = time_ns([&] {
      benchmark::DoNotOptimize(dsp::decimated_baseband(
          capture, fs, rc.carrier_search_lo, rc.carrier_search_hi, h, kM, ws,
          zd));
    }, 0.2);
    json.metric("front_end_reference_ms", 1e-6 * reference_ns);
    json.metric("front_end_fused_ms", 1e-6 * fused_ns);
    json.metric("front_end_speedup", reference_ns / fused_ns);
  }

  // Waveform-level uplink through the cached-resonator channel.
  {
    channel::ChannelConfig cfg;
    cfg.distance = 0.5;
    const channel::ConcreteChannel ch(channel::structures::s3_common_wall(),
                                      cfg);
    const dsp::Signal x = dsp::tone(cfg.fs, 230.0e3, 1 << 16, 0.01);
    dsp::Rng rng(3);
    dsp::Signal y;
    json.metric("uplink_65536_ns", time_ns([&] {
                  ch.uplink(x, 230.0e3, rng, y);
                  benchmark::DoNotOptimize(y.data());
                }));

    // The streaming uplink at the stream's block size: the full push (the
    // at-reader waveform) vs the state-only advance the inline pipeline
    // takes for blocks no capture window reads.
    channel::ConcreteChannel::UplinkStream stream(ch, 230.0e3, 0.01, 3);
    dsp::Signal block(256);
    const auto per_block = [&](auto&& push) {
      return time_ns([&] {
               for (std::size_t i = 0; i < x.size(); i += block.size()) {
                 std::copy_n(x.begin() + static_cast<std::ptrdiff_t>(i),
                             block.size(), block.begin());
                 push(block);
               }
               benchmark::DoNotOptimize(block.data());
             }) /
             static_cast<double>(x.size());
    };
    json.metric("uplink_block256_ns_per_sample",
                per_block([&](dsp::Signal& b) { stream.push_block(b); }));
    json.metric("uplink_state_only256_ns_per_sample",
                per_block([&](dsp::Signal& b) { stream.advance_block(b); }));

    // The transmit PZT ring on a keyed OOK drive (1 ms on, 1 ms off) in
    // 256-sample blocks, as TxStage and the batch Transmitter run it.
    dsp::Signal drive = dsp::tone(cfg.fs, 230.0e3, x.size(), 1.0);
    for (std::size_t i = 0; i < drive.size(); ++i) {
      if ((i / 2000) % 2 == 1) drive[i] = 0.0;
    }
    phy::RingingPzt pzt(cfg.fs);
    json.metric("pzt_drive256_ns_per_sample", time_ns([&] {
                  for (std::size_t i = 0; i < drive.size(); i += 256) {
                    std::copy_n(drive.begin() +
                                    static_cast<std::ptrdiff_t>(i),
                                256, block.begin());
                    pzt.drive_inplace(block);
                  }
                  benchmark::DoNotOptimize(block.data());
                }) / static_cast<double>(drive.size()));
  }

  // End-to-end interrogation through the zero-copy stage pipeline: the
  // workspace stats hook counts heap allocations per uplink_once() trial
  // with pooling off (the allocate-per-checkout "before" behaviour) and on
  // (steady-state reuse), plus the interrogation rate in both modes.
  {
    core::SystemConfig cfg = core::default_system();
    cfg.channel.distance = 0.10;
    cfg.channel.noise_sigma = 1e-4;
    const core::SystemSnapshot snapshot =
        std::make_shared<const core::SystemConfig>(cfg);
    dsp::Rng prng(5);
    const phy::Bits payload = phy::random_bits(32, prng);
    core::WorkspacePool& pool = core::WorkspacePool::shared();

    std::uint64_t trial = 0;
    const auto one_trial = [&] {
      core::LinkSimulator sim(snapshot, dsp::trial_seed(cfg.seed, trial++));
      benchmark::DoNotOptimize(sim.uplink_once(payload));
    };
    const auto allocs_per_trial = [&] {
      // Average the stats over a few trials AFTER a warm-up trial has
      // populated the pool (steady state is what the harnesses run in).
      constexpr std::size_t kTrials = 5;
      one_trial();
      pool.reset_stats();
      for (std::size_t i = 0; i < kTrials; ++i) one_trial();
      const dsp::Workspace::Stats s = pool.total_stats();
      return static_cast<double>(s.heap_allocations) /
             static_cast<double>(kTrials);
    };

    pool.set_pooling(false);
    pool.clear();
    const double allocs_before = allocs_per_trial();
    const double before_ns = time_ns(one_trial, 0.2);

    pool.set_pooling(true);
    pool.clear();
    const double allocs_after = allocs_per_trial();
    const double after_ns = time_ns(one_trial, 0.2);

    json.metric("e2e_interrogate_allocs_per_trial_unpooled", allocs_before);
    json.metric("e2e_interrogate_allocs_per_trial_pooled", allocs_after);
    json.metric("e2e_interrogate_alloc_reduction",
                allocs_before / std::max(allocs_after, 1.0));
    json.metric("e2e_interrogate_unpooled_per_sec", 1e9 / before_ns);
    json.metric("e2e_interrogate_pooled_per_sec", 1e9 / after_ns);
    json.metric("e2e_interrogate_speedup", before_ns / after_ns);
  }

  // FDTD stepping, 256x256, serial vs a 4-worker pool: the wall time per
  // step, and the CPU time per step summed over the caller and the workers.
  // On a host that does not give the four workers their own cores the wall
  // speedup degrades toward 1x; the CPU time grows only if the row bands
  // contend (or the pool's wake-ups cost more than the work they split).
  {
    struct StepCost {
      double wall_ns, cpu_ns;
    };
    const auto fdtd_cost = [](unsigned workers) {
      core::ThreadPool pool(workers);
      wave::ElasticFdtd::Config cfg;
      cfg.nx = 256;
      cfg.ny = 256;
      cfg.pool = &pool;
      wave::ElasticFdtd sim(wave::materials::reference_concrete(), cfg);
      sim.add_force(128, 128, 1, 1.0);
      const double wall_ns = time_ns([&] { sim.step(); });
      constexpr int kSteps = 200;
      const double cpu0 = bench::job_cpu_seconds(pool);
      for (int i = 0; i < kSteps; ++i) sim.step();
      const double cpu_ns =
          (bench::job_cpu_seconds(pool) - cpu0) * 1e9 / kSteps;
      return StepCost{wall_ns, cpu_ns};
    };
    const StepCost c1 = fdtd_cost(1);
    const StepCost c4 = fdtd_cost(4);
    json.metric("fdtd_256_step_1t_ns", c1.wall_ns);
    json.metric("fdtd_256_step_4t_ns", c4.wall_ns);
    json.metric("fdtd_256_step_speedup_4t", c1.wall_ns / c4.wall_ns);
    json.metric("fdtd_256_step_cpu_ns_1t", c1.cpu_ns);
    json.metric("fdtd_256_step_cpu_ns_4t", c4.cpu_ns);
    json.metric("fdtd_256_step_cpu_growth_4t", c4.cpu_ns / c1.cpu_ns);
  }
}

}  // namespace

int main(int argc, char** argv) {
  ecocap::bench::BenchJson json("micro_dsp");
  record_roofline_metrics(json);
  record_headline_metrics(json);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  json.write();
  return 0;
}
