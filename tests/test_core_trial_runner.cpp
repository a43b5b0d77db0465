#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/ber_harness.hpp"
#include "core/link_simulator.hpp"
#include "core/thread_pool.hpp"
#include "core/trial_runner.hpp"
#include "dsp/rng.hpp"

namespace ecocap::core {
namespace {

TEST(TrialRng, SamePairSameStream) {
  dsp::Rng a = dsp::trial_rng(7, 123);
  dsp::Rng b = dsp::trial_rng(7, 123);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.engine()(), b.engine()());
  }
}

TEST(TrialRng, NearbyPairsGetDistantSeeds) {
  // Neither incrementing the trial index nor the base seed may collide; the
  // whole parallel-determinism story rests on stream independence.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 8; ++s) {
    for (std::uint64_t t = 0; t < 64; ++t) {
      seeds.insert(dsp::trial_seed(s, t));
    }
  }
  EXPECT_EQ(seeds.size(), 8u * 64u);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, InvalidThreadsEnvIsNotedOnStderr) {
  const char* prior = std::getenv("ECOCAP_THREADS");
  const std::string saved = prior != nullptr ? prior : "";
  ASSERT_EQ(unsetenv("ECOCAP_THREADS"), 0);
  const unsigned fallback = ThreadPool::default_worker_count();
  for (const char* bad : {"0", "-2", "abc", "4x"}) {
    ASSERT_EQ(setenv("ECOCAP_THREADS", bad, 1), 0);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(ThreadPool::default_worker_count(), fallback);
    const std::string note = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(note.find("ECOCAP_THREADS=\"" + std::string(bad) + "\""),
              std::string::npos)
        << note;
    EXPECT_NE(note.find(std::to_string(fallback) + " hardware threads"),
              std::string::npos)
        << note;
  }
  ASSERT_EQ(setenv("ECOCAP_THREADS", "3", 1), 0);
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(ThreadPool::default_worker_count(), 3u);
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
  if (prior != nullptr) {
    ASSERT_EQ(setenv("ECOCAP_THREADS", saved.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("ECOCAP_THREADS"), 0);
  }
}

TEST(ThreadPool, SingleWorkerRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(8);
  pool.parallel_for(ran.size(), [&](std::size_t i) {
    ran[i] = std::this_thread::get_id();
  });
  for (const auto& id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(16,
                        [&](std::size_t i) {
                          if (i == 7) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool must remain usable after a failed job.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, BackToBackSmallJobsNeverHang) {
  // Several 4-worker pools run tiny jobs back to back at once, so the
  // threads outnumber the cores and get preempted at arbitrary points of
  // the caller/worker hand-off. A lost completion wakeup hangs here —
  // caught by the ctest timeout — rather than intermittently downstream.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t callers = std::min<std::size_t>(hw, 8);
  constexpr std::size_t kJobs = 20000;
  std::vector<std::size_t> counts(callers, 0);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < callers; ++c) {
    threads.emplace_back([&counts, c] {
      ThreadPool pool(4);
      std::atomic<std::size_t> count{0};
      for (std::size_t j = 0; j < kJobs; ++j) {
        pool.parallel_for(pool.size(), [&](std::size_t) {
          // A few microseconds per index, so the woken workers claim
          // indices instead of finding the job already drained.
          volatile std::size_t spin = 0;
          for (std::size_t k = 0; k < 2000; ++k) spin = spin + k;
          count.fetch_add(1, std::memory_order_relaxed);
        });
      }
      counts[c] = count.load();
    });
  }
  for (auto& t : threads) t.join();
  for (const std::size_t n : counts) EXPECT_EQ(n, kJobs * 4);
}

/// Floating-point accumulation whose result depends on association order:
/// summing gaussians of wildly different magnitudes. Bit-identical results
/// across pool widths prove the block-merge order is thread-count-free.
struct FloatAcc {
  double sum = 0.0;
  double weighted = 0.0;
  std::uint64_t checksum = 0;  // order-sensitive via multiply-accumulate
};

FloatAcc run_float_trials(ThreadPool& pool, std::size_t block_size) {
  const TrialRunner runner(pool, block_size);
  return runner.run<FloatAcc>(
      1000, /*base_seed=*/99,
      [](std::size_t t, dsp::Rng& rng, FloatAcc& acc) {
        const double g = rng.gaussian();
        acc.sum += g * (1.0 + static_cast<double>(t % 13) * 1e6);
        acc.weighted += g / (1.0 + static_cast<double>(t));
        acc.checksum = acc.checksum * 0x9e3779b97f4a7c15ULL +
                       static_cast<std::uint64_t>(t + 1);
      },
      [](FloatAcc& into, const FloatAcc& from) {
        into.sum += from.sum;
        into.weighted += from.weighted;
        into.checksum = into.checksum * 31 + from.checksum;
      });
}

TEST(TrialRunner, BitIdenticalAcrossThreadCounts) {
  ThreadPool one(1), two(2), eight(8);
  const FloatAcc r1 = run_float_trials(one, 64);
  const FloatAcc r2 = run_float_trials(two, 64);
  const FloatAcc r8 = run_float_trials(eight, 64);
  // EXPECT_EQ on doubles is exact — that is the point.
  EXPECT_EQ(r1.sum, r2.sum);
  EXPECT_EQ(r1.sum, r8.sum);
  EXPECT_EQ(r1.weighted, r2.weighted);
  EXPECT_EQ(r1.weighted, r8.weighted);
  EXPECT_EQ(r1.checksum, r2.checksum);
  EXPECT_EQ(r1.checksum, r8.checksum);
}

TEST(TrialRunner, RepeatedRunsAreIdentical) {
  ThreadPool pool(8);
  const FloatAcc a = run_float_trials(pool, 64);
  const FloatAcc b = run_float_trials(pool, 64);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.weighted, b.weighted);
  EXPECT_EQ(a.checksum, b.checksum);
}

TEST(TrialRunner, ZeroTrialsYieldsIdentity) {
  ThreadPool pool(2);
  const TrialRunner runner(pool);
  const FloatAcc r = runner.run<FloatAcc>(
      0, 1, [](std::size_t, dsp::Rng&, FloatAcc&) { FAIL(); },
      [](FloatAcc&, const FloatAcc&) { FAIL(); });
  EXPECT_EQ(r.sum, 0.0);
  EXPECT_EQ(r.checksum, 0u);
}

TEST(BerHarness, AggregatesBitIdenticalAcrossThreadCounts) {
  BerConfig cfg;
  cfg.snr_db = 5.0;
  cfg.total_bits = 64000;
  cfg.seed = 2026;
  ThreadPool one(1), two(2), eight(8);
  const BerResult r1 = fm0_ber_monte_carlo(cfg, one);
  const BerResult r2 = fm0_ber_monte_carlo(cfg, two);
  const BerResult r8 = fm0_ber_monte_carlo(cfg, eight);
  EXPECT_EQ(r1.bits, r2.bits);
  EXPECT_EQ(r1.errors, r2.errors);
  EXPECT_EQ(r1.bits, r8.bits);
  EXPECT_EQ(r1.errors, r8.errors);
  // And the parallel engine must agree statistically with the deleted
  // single-stream sequential reference, whose result on this config was
  // pinned before its removal: 859 errors in 64000 bits.
  EXPECT_NEAR(r1.ber(), 859.0 / 64000.0, 0.01);
}

TEST(UplinkSweep, WaveformTrialsDecodeAndReproduce) {
  SystemConfig cfg = default_system();
  cfg.channel.distance = 0.15;
  cfg.channel.noise_sigma = 1e-4;
  cfg.seed = 31;
  dsp::Rng rng(17);
  const phy::Bits payload = phy::random_bits(24, rng);
  const UplinkSweepResult a = uplink_sweep(cfg, payload, 3);
  EXPECT_EQ(a.trials, 3u);
  EXPECT_EQ(a.powered, 3u);   // short range, quiet channel: always boots
  EXPECT_EQ(a.decoded, 3u);
  EXPECT_GT(a.mean_snr_db(), 5.0);
  // Rerun: per-trial counter-derived seeds make the sweep reproducible.
  const UplinkSweepResult b = uplink_sweep(cfg, payload, 3);
  EXPECT_EQ(a.decoded, b.decoded);
  EXPECT_EQ(a.snr_db_sum, b.snr_db_sum);
}

TEST(BerHarness, ParallelMatchesSequentialStatistics) {
  // Monotone-in-SNR sanity on the parallel path.
  BerConfig cfg;
  cfg.total_bits = 30000;
  double prev = 1.0;
  for (double snr : {0.0, 4.0, 8.0}) {
    cfg.snr_db = snr;
    const double ber = fm0_ber_monte_carlo(cfg).ber();
    EXPECT_LE(ber, prev + 0.01);
    prev = ber;
  }
}

}  // namespace
}  // namespace ecocap::core
