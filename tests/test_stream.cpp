// Streaming transceiver tests: the SPSC ring's concurrency contract, the
// stream clock, bit-identity of the streaming channel stages at arbitrary
// block splits against one whole-leg push (which is what the batch calls
// run), and the end-to-end daemon —
// including the headline claim that the decoded stream is bit-identical at
// any block size.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/link_simulator.hpp"
#include "core/spsc_ring.hpp"
#include "core/stream_clock.hpp"
#include "dsp/oscillator.hpp"
#include "dsp/rng.hpp"
#include "dsp/serialize.hpp"
#include "dsp/signal_ops.hpp"
#include "fault/fault.hpp"
#include "phy/bits.hpp"
#include "phy/carrier.hpp"
#include "phy/fm0.hpp"
#include "phy/ring_effect.hpp"
#include "reader/transmitter.hpp"
#include "stream/stream_pipeline.hpp"
#include "stream/stream_stages.hpp"
#include "stream/streaming_reader.hpp"

namespace {

using ecocap::dsp::Real;
using ecocap::dsp::Signal;

// ---------------------------------------------------------------------------
// core::SpscRing
// ---------------------------------------------------------------------------

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(ecocap::core::SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(ecocap::core::SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(ecocap::core::SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(ecocap::core::SpscRing<int>(4).capacity(), 4u);
  EXPECT_EQ(ecocap::core::SpscRing<int>(5).capacity(), 8u);
  EXPECT_THROW(ecocap::core::SpscRing<int>(0), std::invalid_argument);
}

TEST(SpscRing, FullAndEmptyBoundaries) {
  ecocap::core::SpscRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.full());

  int out = -1;
  EXPECT_FALSE(ring.try_pop(out));  // empty pop fails

  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(int(i)));
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_FALSE(ring.try_push(99));  // full push fails

  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);  // FIFO order
  }
  EXPECT_TRUE(ring.empty());
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRing, FailedPushLeavesValueUnmoved) {
  ecocap::core::SpscRing<std::vector<int>> ring(2);
  ASSERT_TRUE(ring.try_push(std::vector<int>{1}));
  ASSERT_TRUE(ring.try_push(std::vector<int>{2}));

  std::vector<int> v{3, 4, 5};
  EXPECT_FALSE(ring.try_push(std::move(v)));
  EXPECT_EQ(v.size(), 3u);  // a rejected push must not consume the value

  std::vector<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_TRUE(ring.try_push(std::move(v)));
  EXPECT_TRUE(v.empty());  // now it was moved
}

TEST(SpscRing, WrapAroundPreservesSequence) {
  // Free-running cursors: drive many times the capacity through a tiny ring
  // and check the FIFO sequence survives every wrap.
  ecocap::core::SpscRing<std::uint64_t> ring(4);
  std::uint64_t next_push = 0, next_pop = 0;
  while (next_pop < 10000) {
    while (ring.try_push(std::uint64_t(next_push))) ++next_push;
    std::uint64_t got = 0;
    while (ring.try_pop(got)) {
      ASSERT_EQ(got, next_pop);
      ++next_pop;
    }
  }
}

// The torn-read invariant: each element's payload is a pure function of its
// sequence number, so a consumer observing any mix of an old and a new
// element would fail the check. Run under TSan this is the data-race proof
// for the release/acquire cursor protocol.
TEST(SpscRing, ConcurrentStressValueIsFunctionOfIndex) {
  struct Item {
    std::uint64_t seq = 0;
    std::uint64_t payload = 0;
  };
  constexpr std::uint64_t kItems = 200000;
  const auto f = [](std::uint64_t seq) {
    return ecocap::dsp::splitmix64(seq ^ 0xabcdef12345ULL);
  };

  ecocap::core::SpscRing<Item> ring(8);
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems;) {
      if (ring.try_push(Item{i, f(i)})) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
  });

  std::uint64_t expected = 0;
  bool ordered = true, intact = true;
  while (expected < kItems) {
    Item item;
    if (!ring.try_pop(item)) {
      std::this_thread::yield();
      continue;
    }
    ordered = ordered && (item.seq == expected);
    intact = intact && (item.payload == f(item.seq));
    ++expected;
  }
  producer.join();
  EXPECT_TRUE(ordered) << "ring delivered elements out of order";
  EXPECT_TRUE(intact) << "ring delivered a torn element";
}

// ---------------------------------------------------------------------------
// core::StreamClock
// ---------------------------------------------------------------------------

TEST(StreamClock, AccountsSamplesAndBlocks) {
  ecocap::core::StreamClock clock(1000.0, 100);
  EXPECT_EQ(clock.samples(), 0u);
  clock.advance(100);
  clock.advance(60);  // short final block
  EXPECT_EQ(clock.samples(), 160u);
  EXPECT_EQ(clock.blocks(), 2u);
  EXPECT_DOUBLE_EQ(clock.sim_seconds(), 0.16);
  EXPECT_GE(clock.wall_seconds(), 0.0);

  clock.restart();
  EXPECT_EQ(clock.samples(), 0u);
  EXPECT_EQ(clock.blocks(), 0u);

  EXPECT_THROW(ecocap::core::StreamClock(0.0, 100), std::invalid_argument);
  EXPECT_THROW(ecocap::core::StreamClock(1000.0, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Streaming channel stages: block splits vs one whole-leg push
// ---------------------------------------------------------------------------

Signal test_waveform(std::size_t n, std::uint64_t seed) {
  ecocap::dsp::Rng rng(seed);
  Signal x(n);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

// Push `x` through a fresh stream in blocks of `block` and return the
// concatenated output.
template <typename MakeStream>
Signal stream_in_blocks(const Signal& x, std::size_t block, MakeStream make) {
  auto stream = make();
  Signal out;
  out.reserve(x.size());
  Signal chunk;
  for (std::size_t i = 0; i < x.size(); i += block) {
    const std::size_t n = std::min(block, x.size() - i);
    chunk.assign(x.begin() + static_cast<std::ptrdiff_t>(i),
                 x.begin() + static_cast<std::ptrdiff_t>(i + n));
    stream.push_block(chunk);
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

TEST(DownlinkStream, BitIdenticalToBatchAtAnyBlockSize) {
  // The default link has one tap; the multipath wall behind a 20 degree
  // prism has 89, with shifts both inside and beyond the first block.
  auto wall = ecocap::core::default_system();
  wall.structure = ecocap::channel::structures::s3_common_wall();
  wall.channel.distance = 0.5;
  wall.channel.prism_angle_deg = 20.0;
  wall.channel.use_multipath = true;
  for (const auto& system : {ecocap::core::default_system(), wall}) {
    ecocap::channel::ConcreteChannel channel(system.structure, system.channel);
    const Signal x = test_waveform(5000, 42);  // not a block-size multiple

    constexpr std::uint64_t kSeed = 777;
    ecocap::dsp::Rng batch_rng(kSeed);
    Signal ref;
    channel.downlink(x, batch_rng, ref);

    for (std::size_t block : {7u, 64u, 256u, 4096u, 5000u}) {
      const Signal got = stream_in_blocks(x, block, [&] {
        return ecocap::channel::ConcreteChannel::DownlinkStream(channel,
                                                                kSeed);
      });
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_EQ(got[i], ref[i]) << "sample " << i << " differs at block size "
                                  << block << " with "
                                  << channel.mode_taps().size() << " taps";
      }
    }
  }
}

TEST(UplinkStream, BitIdenticalToBatchAtAnyBlockSize) {
  // The batch uplink derives its SI amplitude from the propagated RMS, so
  // the fixed-SI stream's reference is its own whole-leg run: one push of
  // the entire waveform, against which every block split must agree.
  const auto system = ecocap::core::default_system();
  ecocap::channel::ConcreteChannel channel(system.structure, system.channel);
  const Signal x = test_waveform(5000, 43);
  const Real carrier = system.channel.concrete_resonance;
  const Real si = 0.05;

  constexpr std::uint64_t kSeed = 778;
  auto make = [&] {
    return ecocap::channel::ConcreteChannel::UplinkStream(channel, carrier, si,
                                                          kSeed);
  };
  const Signal ref = stream_in_blocks(x, x.size(), make);

  for (std::size_t block : {7u, 64u, 256u, 4096u}) {
    const Signal got = stream_in_blocks(x, block, make);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(got[i], ref[i])
          << "sample " << i << " differs at block size " << block;
    }
  }
}

std::string uplink_state(
    const ecocap::channel::ConcreteChannel::UplinkStream& stream) {
  ecocap::dsp::ser::Writer w("uplink-state");
  stream.save(w);
  return w.payload();
}

TEST(UplinkStream, AdvanceBlockLeavesPushBlockState) {
  // A stream that takes advance_block for every other block carries the
  // same biquad, SI phase and noise RNG as one that pushes every block, so
  // the next pushed block is byte-identical.
  const auto system = ecocap::core::default_system();
  ecocap::channel::ConcreteChannel channel(system.structure, system.channel);
  const Signal x = test_waveform(9000, 44);
  const Real carrier = system.channel.concrete_resonance;
  for (std::size_t block : {7u, 64u, 256u, 4096u}) {
    ecocap::channel::ConcreteChannel::UplinkStream pushed(channel, carrier,
                                                          0.05, 779);
    ecocap::channel::ConcreteChannel::UplinkStream skipped(channel, carrier,
                                                           0.05, 779);
    Signal a, b;
    for (std::size_t i = 0, k = 0; i < x.size(); i += block, ++k) {
      const std::size_t n = std::min(block, x.size() - i);
      a.assign(x.begin() + static_cast<std::ptrdiff_t>(i),
               x.begin() + static_cast<std::ptrdiff_t>(i + n));
      b = a;
      pushed.push_block(a);
      if (k % 2 == 0) {
        skipped.advance_block(b);
      } else {
        skipped.push_block(b);
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(a[j], b[j]) << "block size " << block << " sample "
                                << i + j;
        }
      }
      ASSERT_EQ(uplink_state(skipped), uplink_state(pushed))
          << "block size " << block << " after sample " << i + n;
    }
  }
}

TEST(UplinkStream, RejectsPreserveAbsoluteDelay) {
  auto system = ecocap::core::default_system();
  system.channel.preserve_absolute_delay = true;
  ecocap::channel::ConcreteChannel channel(system.structure, system.channel);
  EXPECT_THROW(ecocap::channel::ConcreteChannel::UplinkStream(channel, 230e3,
                                                              0.05, 1),
               std::invalid_argument);
}

TEST(UplinkStream, SiAmplitudeFormulaMatchesRmsDerivation) {
  const auto system = ecocap::core::default_system();
  ecocap::channel::ConcreteChannel channel(system.structure, system.channel);
  const Real rms = 0.123;
  EXPECT_DOUBLE_EQ(
      channel.uplink_si_amplitude(rms),
      system.channel.self_interference_gain * rms * std::sqrt(2.0));
}

TEST(BackscatterModulate, OffsetFormMatchesBatchAcrossSplits) {
  const Real fs = 2.0e6;
  ecocap::phy::BackscatterParams params;
  params.f_blf = 4000.0;
  const Signal incident = test_waveform(3000, 44);
  Signal switching = test_waveform(1800, 45);
  for (auto& v : switching) v = v >= 0.0 ? 1.0 : -1.0;

  Signal ref;
  ecocap::phy::backscatter_modulate(incident, switching, fs, params, ref);

  for (std::size_t block : {1u, 64u, 977u, 3000u}) {
    Signal got(incident.size(), 0.0);
    for (std::size_t i = 0; i < incident.size(); i += block) {
      const std::size_t n = std::min(block, incident.size() - i);
      ecocap::phy::backscatter_modulate(
          std::span<const Real>(incident).subspan(i, n), switching,
          std::uint64_t(i), fs, params,
          std::span<Real>(got).subspan(i, n));
    }
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(got[i], ref[i])
          << "sample " << i << " differs at block size " << block;
    }
  }
}

TEST(BackscatterModulate, EmptySwitchingIsRestState) {
  const Real fs = 2.0e6;
  ecocap::phy::BackscatterParams params;
  const Signal incident = test_waveform(64, 46);
  Signal got(incident.size(), 0.0);
  ecocap::phy::backscatter_modulate(incident, std::span<const Real>{}, 100,
                                    fs, params, got);
  const Real rest =
      0.5 * (params.reflective_gain + params.absorptive_gain) +
      0.5 * (params.reflective_gain - params.absorptive_gain) * -1.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], incident[i] * rest);
  }
}

// ---------------------------------------------------------------------------
// TxStage: the replayed carrier cycle against the plain recurrences
// ---------------------------------------------------------------------------

// The drive TxStage must reproduce: one oscillator and one PZT, run
// without any replay.
struct PlainTx {
  explicit PlainTx(const ecocap::reader::TransmitterConfig& c)
      : osc(c.carrier.fs, c.carrier.f_resonant),
        pzt(c.carrier.fs, c.pzt_resonance, c.pzt_q) {}
  Signal next(std::size_t n) {
    Signal x;
    osc.generate(n, 1.0, x);
    pzt.drive_inplace(x);
    return x;
  }
  std::string state() const {
    ecocap::dsp::ser::Writer w("tx-state");
    ecocap::dsp::Oscillator::io(osc, w, "tx.phase", "tx.phase_index");
    pzt.save(w);
    return w.payload();
  }
  ecocap::dsp::Oscillator osc;
  ecocap::phy::RingingPzt pzt;
};

std::string tx_state(const ecocap::stream::TxStage& tx) {
  ecocap::dsp::ser::Writer w("tx-state");
  tx.save(w);
  return w.payload();
}

// Fill `n` samples in blocks of `block`; `replay_start` (if given) gets the
// sample count at which the stage was first seen replaying.
Signal fill_in_blocks(ecocap::stream::TxStage& tx, std::size_t n,
                      std::size_t block, std::size_t* replay_start = nullptr) {
  Signal out, chunk;
  out.reserve(n);
  while (out.size() < n) {
    if (replay_start && tx.replaying() && *replay_start > out.size()) {
      *replay_start = out.size();
    }
    tx.fill_block(std::min(block, n - out.size()), chunk);
    out.insert(out.end(), chunk.begin(), chunk.end());
  }
  return out;
}

void expect_same_bits(const Signal& got, const Signal& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << ", sample " << i;
  }
}

constexpr std::size_t kCarrierPeriod = 200;  // 230 kHz at 2 MHz

TEST(TxStage, ReplayMatchesPlainDriveAtAnyBlockSize) {
  const ecocap::reader::TransmitterConfig config;
  constexpr std::size_t kTotal = 80 * kCarrierPeriod + 37;
  PlainTx plain(config);
  const Signal ref = plain.next(kTotal);
  for (std::size_t block : {1u, 7u, 199u, 200u, 256u, 4096u}) {
    ecocap::stream::TxStage tx(config);
    std::size_t replay_start = kTotal;
    const Signal got = fill_in_blocks(tx, kTotal, block, &replay_start);
    const std::string what = "block " + std::to_string(block);
    ASSERT_TRUE(tx.replaying()) << what;
    EXPECT_LE(replay_start, kTotal - 50 * kCarrierPeriod) << what;
    expect_same_bits(got, ref, what);
    EXPECT_EQ(tx_state(tx), plain.state()) << what;
  }
}

TEST(TxStage, CheckpointAtEveryCycleOffsetResumesByteIdentically) {
  // save() at each offset of a settled cycle must write the state the plain
  // recurrence holds there, and a stage loaded from it (which drops the
  // cycle and detects it again) must continue with the same bytes.
  const ecocap::reader::TransmitterConfig config;
  ecocap::stream::TxStage settled(config);
  PlainTx plain(config);
  Signal scratch;
  settled.fill_block(30 * kCarrierPeriod, scratch);
  plain.next(30 * kCarrierPeriod);
  ASSERT_TRUE(settled.replaying());
  for (std::size_t k = 0; k < kCarrierPeriod; ++k) {
    const std::string what = "offset " + std::to_string(k);
    ecocap::stream::TxStage run = settled;
    run.fill_block(k, scratch);
    PlainTx at_k = plain;
    at_k.next(k);
    const std::string ckpt = tx_state(run);
    ASSERT_EQ(ckpt, at_k.state()) << what;

    ecocap::stream::TxStage resumed(config);
    ecocap::dsp::ser::Reader r(ckpt, "tx-state");
    resumed.load(r);
    r.finish();
    ASSERT_FALSE(resumed.replaying()) << what;
    const Signal want = fill_in_blocks(run, 5 * kCarrierPeriod, 64);
    const Signal got = fill_in_blocks(resumed, 5 * kCarrierPeriod, 7);
    expect_same_bits(got, want, what);
    ASSERT_TRUE(resumed.replaying()) << what;
    ASSERT_EQ(tx_state(resumed), tx_state(run)) << what;
  }
}

TEST(TxStage, PeriodAboveTheCapNeverReplays) {
  ecocap::reader::TransmitterConfig config;
  config.carrier.f_resonant = 230001.0;  // period 2e6 samples
  ASSERT_GT(ecocap::dsp::Oscillator(config.carrier.fs,
                                    config.carrier.f_resonant)
                .period(),
            ecocap::dsp::Oscillator::kMaxTablePeriod);
  constexpr std::size_t kTotal = 100 * kCarrierPeriod + 37;
  PlainTx plain(config);
  const Signal ref = plain.next(kTotal);
  for (std::size_t block : {7u, 256u, 4096u}) {
    ecocap::stream::TxStage tx(config);
    const std::string what = "block " + std::to_string(block);
    expect_same_bits(fill_in_blocks(tx, kTotal, block), ref, what);
    EXPECT_FALSE(tx.replaying()) << what;
    EXPECT_EQ(tx_state(tx), plain.state()) << what;
  }
}

// ---------------------------------------------------------------------------
// RxStage
// ---------------------------------------------------------------------------

TEST(RxStage, RecyclesCaptureBuffersOnceWarm) {
  const auto receiver = ecocap::core::default_system().receiver;
  const Signal block = test_waveform(4096, 47);
  // Schedule and decode `count` windows of three lengths, one at a time.
  const auto run_windows = [&](ecocap::stream::RxStage& rx, int count) {
    for (int k = 0; k < count; ++k) {
      ecocap::stream::CaptureWindow w;
      w.start = rx.position() + 1000;
      w.end = w.start + 20000 + 3000 * static_cast<std::uint64_t>(k % 3);
      w.payload_bits = 16;
      rx.schedule(w);
      while (rx.position() < w.end) rx.push_block(block);
      ASSERT_EQ(rx.drain_decodes().size(), 1u);
    }
  };
  ecocap::stream::RxStage a(receiver);
  run_windows(a, 3);  // warm: the longest window's storage is kept
  const std::uint64_t warm = a.capture_allocations();
  run_windows(a, 6);
  EXPECT_EQ(a.capture_allocations(), warm)
      << "a warm stage reuses capture storage instead of allocating";
  // A second stage on the same thread (a reader fleet polled in turn)
  // draws on the same spares, so it needs no storage of its own.
  ecocap::stream::RxStage b(receiver);
  run_windows(b, 6);
  EXPECT_EQ(b.capture_allocations(), 0u);
  EXPECT_EQ(a.workspace_stats().returns, a.workspace_stats().checkouts);
}

// ---------------------------------------------------------------------------
// End-to-end: the streaming daemon
// ---------------------------------------------------------------------------

ecocap::reader::StreamingReaderConfig daemon_config(std::size_t block_size) {
  ecocap::reader::StreamingReaderConfig config;
  config.stream.system = ecocap::core::default_system();
  config.stream.block_size = block_size;
  config.poll_interval_s = 0.25;
  config.warmup_s = 0.5;
  return config;
}

struct DaemonRun {
  ecocap::reader::StreamingReaderStats stats;
  std::vector<float> readings;
  Signal rx_stream;  // every at-reader sample, in order
};

DaemonRun run_daemon(std::size_t block_size, Real sim_seconds) {
  ecocap::reader::StreamingReader daemon(daemon_config(block_size));
  DaemonRun run;
  daemon.pipeline().set_rx_tap(
      [&run](std::uint64_t, const Signal& block) {
        run.rx_stream.insert(run.rx_stream.end(), block.begin(), block.end());
      });
  run.stats = daemon.run(sim_seconds);
  std::vector<ecocap::fleet::TelemetryStore::Reading> raw;
  daemon.telemetry().range(0, ecocap::fleet::TelemetryStore::Tier::kRaw, 0,
                           std::numeric_limits<std::uint32_t>::max(), raw);
  for (const auto& r : raw) run.readings.push_back(r.value);
  return run;
}

// The decoded stream is bit-identical at block sizes {64, 256, 4096}. The
// rx tap proves the at-reader waveform itself is byte-identical, which
// subsumes decode equality; the telemetry values prove the full daemon
// (protocol, supervisor, store) saw the same world.
TEST(StreamingDaemon, DecodeBitIdenticalAcrossBlockSizes) {
  const DaemonRun ref = run_daemon(256, 1.0);
  ASSERT_GT(ref.stats.polls, 0u);
  ASSERT_GT(ref.stats.delivered, 0u)
      << "reference daemon never delivered a reading — scenario is broken";
  ASSERT_FALSE(ref.rx_stream.empty());

  for (const std::size_t block : {64u, 4096u}) {
    const DaemonRun got = run_daemon(block, 1.0);
    SCOPED_TRACE(::testing::Message() << "block=" << block);
    EXPECT_EQ(got.stats.delivered, ref.stats.delivered);
    EXPECT_EQ(got.stats.missed, ref.stats.missed);
    EXPECT_EQ(got.stats.frames_scheduled, ref.stats.frames_scheduled);
    ASSERT_EQ(got.readings.size(), ref.readings.size());
    for (std::size_t i = 0; i < ref.readings.size(); ++i) {
      EXPECT_EQ(got.readings[i], ref.readings[i]);
    }
    ASSERT_EQ(got.rx_stream.size(), ref.rx_stream.size());
    std::size_t mismatch = got.rx_stream.size();
    for (std::size_t i = 0; i < ref.rx_stream.size(); ++i) {
      if (got.rx_stream[i] != ref.rx_stream[i]) {
        mismatch = i;
        break;
      }
    }
    EXPECT_EQ(mismatch, got.rx_stream.size())
        << "rx stream first differs at sample " << mismatch;
  }
}

TEST(StreamingDaemon, RunsCarryStateAcrossCalls) {
  ecocap::reader::StreamingReader daemon(daemon_config(256));
  const auto first = daemon.run(0.5);
  const auto second = daemon.run(0.5);
  EXPECT_GT(first.polls, 0u);
  EXPECT_GT(second.polls, 0u);
  // Warmup happens once: both runs cover the same stream time, and the
  // pipeline position advances monotonically.
  EXPECT_GT(daemon.pipeline().position(),
            static_cast<std::uint64_t>(0.9 * daemon.pipeline().fs()));
  EXPECT_GT(second.real_time_factor, 0.0);
}

TEST(StreamingDaemon, MidRunFaultPlanPerturbsTheLiveStream) {
  auto config = daemon_config(256);
  config.supervisor.enabled = true;
  // Start the ladder at the scenario's known-good line rate so the clean
  // phase delivers; the fallback rung is what the fault should drive it to.
  config.supervisor.ladder = {ecocap::reader::LadderStep{1000.0, 4000.0, 0.0},
                              ecocap::reader::LadderStep{500.0, 4000.0, 3.01}};
  ecocap::reader::StreamFaultEvent event;
  event.at_s = 1.0;
  event.plan = ecocap::fault::FaultPlan::at_intensity(0.9);
  config.fault_events.push_back(event);

  ecocap::reader::StreamingReader daemon(config);
  std::uint64_t polls_seen = 0;
  daemon.set_poll_hook(
      [&polls_seen](std::uint64_t, bool) { ++polls_seen; });
  const auto stats = daemon.run(2.0);

  EXPECT_EQ(stats.fault_events_applied, 1u);
  EXPECT_EQ(polls_seen, stats.polls);
  EXPECT_GT(stats.delivered, 0u) << "clean phase should deliver";
  // A 0.9-intensity plan is hostile (bursts, dropouts, leaky cap, clipping):
  // the link must visibly degrade and the supervisor must react.
  EXPECT_GT(stats.missed + stats.skipped, 0u);
  const auto& injector = daemon.pipeline().node_injector();
  EXPECT_TRUE(injector.active());
  EXPECT_GT(stats.sim_seconds, 0.0);
  EXPECT_GT(stats.real_time_factor, 0.0);
}

// ---------------------------------------------------------------------------
// State-only uplink: blocks no capture window reads skip the waveform
// ---------------------------------------------------------------------------

// A tap reads every block, so a tapped pipeline takes the full uplink push
// everywhere; an untapped one advances the uplink's state only outside
// capture windows. Everything observable must agree.

bool same_decode(const ecocap::stream::DecodedUplink& a,
                 const ecocap::stream::DecodedUplink& b) {
  const auto same = [](Real x, Real y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  return a.node_id == b.node_id && a.window_start == b.window_start &&
         a.decode.payload == b.decode.payload &&
         a.decode.valid == b.decode.valid &&
         same(a.decode.carrier_estimate, b.decode.carrier_estimate) &&
         same(a.decode.preamble_correlation, b.decode.preamble_correlation) &&
         same(a.decode.snr_db, b.decode.snr_db) &&
         same(a.decode.frame_start_s, b.decode.frame_start_s);
}

struct PipelineRun {
  std::vector<ecocap::stream::DecodedUplink> decodes;
  std::vector<std::string> checkpoints;  // quiescent text after each frame
};

// Frames on the raw pipeline: capture windows open before and close after
// their emissions at offsets that fall mid-block at every block size, with
// idle stretches between them. With `faults`, the second frame runs under
// a live channel fault plan (the uplink injector is active) and the third
// after it is cleared again.
PipelineRun run_frames(std::size_t block_size, bool tapped, bool faults) {
  ecocap::stream::StreamConfig config;
  config.system = ecocap::core::default_system();
  config.block_size = block_size;
  ecocap::stream::StreamPipeline pipeline(config);
  if (tapped) pipeline.set_rx_tap([](std::uint64_t, const Signal&) {});
  const Real fs = pipeline.fs();
  const ecocap::phy::Fm0Params line =
      config.system.capsule.firmware.uplink;
  ecocap::dsp::Rng bits(91);
  PipelineRun run;
  pipeline.advance_to(static_cast<std::uint64_t>(0.5 * fs) + 129);  // charge
  for (int k = 0; k < 3; ++k) {
    if (faults && k == 1) {
      pipeline.set_fault_plan(ecocap::fault::FaultPlan::at_intensity(0.6));
    }
    if (faults && k == 2) pipeline.set_fault_plan(ecocap::fault::FaultPlan{});
    const ecocap::phy::Bits payload = ecocap::phy::random_bits(32, bits);
    ecocap::stream::ScheduledEmission e;
    e.start = pipeline.position() + 20011 + 977 * static_cast<unsigned>(k);
    ecocap::phy::fm0_encode_frame(payload, line, fs, e.switching);
    ecocap::stream::CaptureWindow w;
    w.start = e.start - 123;
    w.end = e.start + static_cast<std::uint64_t>(
                          ecocap::phy::fm0_frame_seconds(payload.size(), line,
                                                         line.bitrate) *
                          fs) +
            4567;
    w.payload_bits = payload.size();
    w.bitrate = line.bitrate;
    pipeline.schedule_emission(std::move(e));
    pipeline.schedule_capture(w);
    pipeline.advance_to(w.end + 30011, &run.decodes);
    pipeline.drain_node_events();
    ecocap::dsp::ser::Writer cp("pipeline");
    pipeline.save(cp);
    run.checkpoints.push_back(cp.payload());
  }
  return run;
}

TEST(StreamPipeline, UnreadUplinkBlocksAdvanceStateExactly) {
  for (const bool faults : {false, true}) {
    for (std::size_t block : {64u, 256u, 4096u}) {
      SCOPED_TRACE(::testing::Message()
                   << "block=" << block << " faults=" << faults);
      const PipelineRun full = run_frames(block, true, faults);
      const PipelineRun lean = run_frames(block, false, faults);
      ASSERT_EQ(full.decodes.size(), 3u);
      ASSERT_EQ(lean.decodes.size(), full.decodes.size());
      for (std::size_t i = 0; i < full.decodes.size(); ++i) {
        EXPECT_TRUE(same_decode(lean.decodes[i], full.decodes[i]))
            << "decode " << i;
      }
      if (!faults) {
        EXPECT_TRUE(full.decodes[0].decode.valid);
      }
      EXPECT_EQ(lean.checkpoints, full.checkpoints);
    }
  }
}

struct PolledRun {
  ecocap::reader::StreamingReaderStats stats;
  std::vector<std::string> checkpoints;  // after every poll
  std::string store;                     // flushed telemetry node bytes
};

PolledRun run_polled(std::size_t block_size, bool tapped, bool faults) {
  auto config = daemon_config(block_size);
  if (faults) {
    // Channel faults from 0.75 s (the uplink injector goes live), cleared
    // from 1.25 s: the run crosses both ways between the paths.
    ecocap::reader::StreamFaultEvent on;
    on.at_s = 0.75;
    on.plan = ecocap::fault::FaultPlan::at_intensity(0.6);
    ecocap::reader::StreamFaultEvent off;
    off.at_s = 1.25;
    config.fault_events = {on, off};
  }
  ecocap::reader::StreamingReader daemon(config);
  if (tapped) daemon.pipeline().set_rx_tap([](std::uint64_t, const Signal&) {});
  PolledRun run;
  for (int poll = 0; poll < 6; ++poll) {
    run.stats = daemon.run_polls(1);
    run.checkpoints.push_back(daemon.checkpoint());
  }
  daemon.flush_telemetry();
  ecocap::dsp::ser::Writer w("store");
  daemon.telemetry().save_node(daemon.store_node(), w);
  run.store = w.payload();
  return run;
}

TEST(StreamingDaemon, UntappedRunMatchesTappedRun) {
  for (const bool faults : {false, true}) {
    for (std::size_t block : {64u, 256u, 4096u}) {
      SCOPED_TRACE(::testing::Message()
                   << "block=" << block << " faults=" << faults);
      const PolledRun full = run_polled(block, true, faults);
      const PolledRun lean = run_polled(block, false, faults);
      EXPECT_GT(full.stats.delivered, 0u);
      EXPECT_EQ(lean.stats.delivered, full.stats.delivered);
      EXPECT_EQ(lean.stats.missed, full.stats.missed);
      EXPECT_EQ(lean.stats.frames_scheduled, full.stats.frames_scheduled);
      EXPECT_EQ(lean.stats.fault_events_applied,
                full.stats.fault_events_applied);
      EXPECT_EQ(lean.checkpoints, full.checkpoints);
      EXPECT_EQ(lean.store, full.store);
    }
  }
}

TEST(StreamPipeline, ValidatesConfigAndSchedule) {
  ecocap::stream::StreamConfig config;
  config.system = ecocap::core::default_system();
  config.block_size = 0;
  EXPECT_THROW(ecocap::stream::StreamPipeline{config}, std::invalid_argument);

  config.block_size = 256;
  ecocap::stream::StreamPipeline pipeline(config);
  pipeline.advance_to(1000);
  EXPECT_EQ(pipeline.position(), 1000u);
  ecocap::stream::ScheduledEmission past;
  past.start = 10;  // behind the stream head
  EXPECT_THROW(pipeline.schedule_emission(std::move(past)),
               std::invalid_argument);
}

// The pipeline has one, inline, execution path: a config asking for
// threaded mode fails loudly instead of silently running inline.
TEST(StreamPipeline, RejectsThreadedMode) {
  ecocap::stream::StreamConfig config;
  config.system = ecocap::core::default_system();
  config.threaded = true;
  try {
    ecocap::stream::StreamPipeline pipeline(config);
    FAIL() << "threaded = true must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("threaded"), std::string::npos)
        << e.what();
  }
}

}  // namespace
