// Self-healing fleet runtime tests: crash-safe checkpoint durability
// (atomic_write_file fsync path), SpscRing overflow policies and close()
// poisoning, bit-exact StreamingReader checkpoint/resume, and the
// DaemonSupervisor's chaos acceptance — scripted crashes, a stall, and a
// slow-consumer throttle, after which the recovered fleet's telemetry is
// byte-identical to a crash-free run. A soak of randomly drawn scripted
// chaos rides the `slow` label.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/spsc_ring.hpp"
#include "dsp/rng.hpp"
#include "dsp/serialize.hpp"
#include "fleet/telemetry_store.hpp"
#include "runtime/daemon_supervisor.hpp"
#include "stream/streaming_reader.hpp"

namespace {

using ecocap::core::Overflow;
using ecocap::core::SpscRing;

// ---------------------------------------------------------------------------
// dsp::ser::atomic_write_file — durability and failure paths
// ---------------------------------------------------------------------------

TEST(AtomicWriteFile, WritesDurablyAndCleansUpTemp) {
  const std::string path = ::testing::TempDir() + "ecocap_awf_ok.txt";
  ASSERT_TRUE(ecocap::dsp::ser::atomic_write_file(path, "first"));
  ASSERT_TRUE(ecocap::dsp::ser::atomic_write_file(path, "second"));
  const auto back = ecocap::dsp::ser::read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, "second");
  EXPECT_FALSE(ecocap::dsp::ser::read_file(path + ".tmp").has_value())
      << "temp file must not survive a successful replace";
  std::remove(path.c_str());
}

TEST(AtomicWriteFile, FailsCleanlyWhenParentIsMissing) {
  // The fopen of the temp file fails: the call must report failure instead
  // of pretending the checkpoint is durable.
  const std::string path =
      ::testing::TempDir() + "ecocap_no_such_dir/deeper/ckpt.txt";
  EXPECT_FALSE(ecocap::dsp::ser::atomic_write_file(path, "payload"));
}

TEST(AtomicWriteFile, FailsCleanlyWhenTargetIsADirectory) {
  // rename() over a non-empty directory fails after the temp file was
  // written and fsynced: the temp must be cleaned up and false returned.
  const std::string dir = ::testing::TempDir() + "ecocap_awf_dir";
  ASSERT_EQ(::system(("mkdir -p '" + dir + "/occupant'").c_str()), 0);
  EXPECT_FALSE(ecocap::dsp::ser::atomic_write_file(dir, "payload"));
  EXPECT_FALSE(ecocap::dsp::ser::read_file(dir + ".tmp").has_value())
      << "failed replace must not leak its temp file";
  ASSERT_EQ(::system(("rm -rf '" + dir + "'").c_str()), 0);
}

// ---------------------------------------------------------------------------
// core::SpscRing — overflow policies and close() poisoning
// ---------------------------------------------------------------------------

TEST(SpscRingOverflow, DropOldestEvictsAndAccountsExactly) {
  SpscRing<int> ring(4);
  std::size_t dropped = 0;
  for (int i = 0; i < 10; ++i) {
    dropped += ring.push(int(i), Overflow::kDropOldest);
  }
  EXPECT_EQ(dropped, 6u);  // capacity 4, 10 pushes
  EXPECT_EQ(ring.size(), 4u);
  // The survivors are the *newest* four, still in FIFO order.
  int out = -1;
  for (int expect = 6; expect < 10; ++expect) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, expect);
  }
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRingOverflow, DropNewestDiscardsThePushAndAccountsExactly) {
  SpscRing<int> ring(2);
  std::size_t dropped = 0;
  for (int i = 0; i < 5; ++i) {
    dropped += ring.push(int(i), Overflow::kDropNewest);
  }
  EXPECT_EQ(dropped, 3u);
  int out = -1;
  for (int expect = 0; expect < 2; ++expect) {  // the oldest two survive
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, expect);
  }
}

TEST(SpscRingOverflow, BlockPolicyNeverDrops) {
  SpscRing<int> ring(2);
  EXPECT_EQ(ring.push(1, Overflow::kBlock), 0u);
  EXPECT_EQ(ring.push(2, Overflow::kBlock), 0u);
  EXPECT_EQ(ring.push(3, Overflow::kBlock), 0u);  // full: refused, not lost
  EXPECT_EQ(ring.size(), 2u);
}

TEST(SpscRingClose, PoisonedRingRefusesPushesAndDrains) {
  SpscRing<int> ring(4);
  ASSERT_TRUE(ring.try_push(1));
  ASSERT_TRUE(ring.try_push(2));
  ring.close();
  EXPECT_TRUE(ring.closed());
  EXPECT_FALSE(ring.try_push(3));
  EXPECT_EQ(ring.push(4, Overflow::kDropOldest), 1u)
      << "a drop-policy push on a closed ring loses the element, accounted";
  int out = -1;
  EXPECT_TRUE(ring.try_pop(out));  // remaining elements drain
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRingClose, WakesABlockedProducer) {
  // The shutdown-deadlock contract: a producer spinning on a full ring must
  // exit once the consumer side closes it.
  SpscRing<int> ring(2);
  ASSERT_TRUE(ring.try_push(1));
  ASSERT_TRUE(ring.try_push(2));
  std::atomic<bool> exited{false};
  std::thread producer([&] {
    while (!ring.try_push(99)) {
      if (ring.closed()) break;
      std::this_thread::yield();
    }
    exited.store(true);
  });
  ring.close();
  producer.join();
  EXPECT_TRUE(exited.load());
}

// Concurrent drop-oldest stress: producer evicts while the consumer pops.
// The CAS-guarded head makes both sides agree on who consumed each element;
// under TSan this is the data-race proof for the eviction path.
TEST(SpscRingOverflow, ConcurrentDropOldestNeverTearsOrDoubleDelivers) {
  constexpr std::uint64_t kItems = 100000;
  SpscRing<std::uint64_t> ring(8);
  std::atomic<std::uint64_t> dropped{0};
  std::thread producer([&] {
    std::uint64_t local_dropped = 0;
    for (std::uint64_t i = 0; i < kItems; ++i) {
      local_dropped += ring.push(std::uint64_t(i), Overflow::kDropOldest);
    }
    dropped.store(local_dropped);
    ring.close();
  });
  std::uint64_t popped = 0, last = 0;
  bool first = true, ordered = true;
  std::uint64_t got = 0;
  for (;;) {
    if (ring.try_pop(got)) {
      ++popped;
      if (!first && got <= last) ordered = false;
      last = got;
      first = false;
    } else if (ring.closed() && ring.empty()) {
      break;
    }
  }
  producer.join();
  while (ring.try_pop(got)) {  // final drain after close
    ++popped;
    if (got <= last) ordered = false;
    last = got;
  }
  EXPECT_TRUE(ordered) << "popped values must stay strictly increasing";
  EXPECT_EQ(popped + dropped.load(), kItems)
      << "every element is either delivered or accounted as dropped";
}

// ---------------------------------------------------------------------------
// StreamingReader checkpoint/resume — bit-exact recovery
// ---------------------------------------------------------------------------

ecocap::reader::StreamingReaderConfig fast_daemon_config(
    std::size_t block_size = 256) {
  ecocap::reader::StreamingReaderConfig config;
  config.stream.system = ecocap::core::default_system();
  config.stream.block_size = block_size;
  config.poll_interval_s = 0.05;
  config.warmup_s = 0.5;
  return config;
}

std::string node_bytes(const ecocap::fleet::TelemetryStore& store,
                       std::size_t node) {
  ecocap::dsp::ser::Writer w("test-store-dump v1");
  store.save_node(node, w);
  return w.payload();
}

TEST(StreamingReaderCheckpoint, ResumeReplaysByteIdentically) {
  // The daemons' block size, and a block that straddles the poll and
  // capture boundaries differently.
  for (const std::size_t block : {256u, 1024u}) {
    SCOPED_TRACE(::testing::Message() << "block=" << block);
    const auto config = fast_daemon_config(block);

    ecocap::reader::StreamingReader uninterrupted(config);
    uninterrupted.run_polls(8);

    ecocap::reader::StreamingReader crashing(config);
    crashing.run_polls(4);
    const std::string ckpt = crashing.checkpoint();

    ecocap::reader::StreamingReader resumed(config);
    resumed.resume(ckpt);
    EXPECT_EQ(resumed.polls_done(), 4u);
    resumed.run_polls(4);

    // The strongest equality there is: the complete serialized daemon
    // state (pipeline carried state, RNG streams, firmware, supervisor,
    // cumulative stats, telemetry node) is byte-identical.
    EXPECT_EQ(uninterrupted.checkpoint(), resumed.checkpoint());
    EXPECT_EQ(node_bytes(uninterrupted.telemetry(), 0),
              node_bytes(resumed.telemetry(), 0));
    EXPECT_GT(uninterrupted.stats().delivered, 0u)
        << "scenario must actually deliver readings for the check to bite";

    // Quiescent decode workspace: every checkout was returned (no pooled
    // buffer leaked across the crash/resume boundary).
    const auto& ws = resumed.pipeline().rx_workspace_stats();
    EXPECT_EQ(ws.checkouts, ws.returns);
  }
}

TEST(StreamingReaderCheckpoint, ResumeCarriesPendingFaultEvents) {
  auto config = fast_daemon_config();
  ecocap::reader::StreamFaultEvent event;
  event.at_s = 0.65;  // fires after the checkpoint poll below
  event.plan = ecocap::fault::FaultPlan::at_intensity(0.5);
  config.fault_events.push_back(event);

  ecocap::reader::StreamingReader uninterrupted(config);
  uninterrupted.run_polls(8);
  ASSERT_EQ(uninterrupted.stats().fault_events_applied, 1u);

  ecocap::reader::StreamingReader crashing(config);
  crashing.run_polls(2);
  const std::string ckpt = crashing.checkpoint();

  ecocap::reader::StreamingReader resumed(config);
  resumed.resume(ckpt);
  resumed.run_polls(6);

  EXPECT_EQ(resumed.stats().fault_events_applied, 1u)
      << "the fault-plan cursor must survive the restart";
  EXPECT_EQ(uninterrupted.checkpoint(), resumed.checkpoint());
}

TEST(StreamingReaderCheckpoint, RejectsFingerprintMismatch) {
  const auto config = fast_daemon_config();
  ecocap::reader::StreamingReader a(config);
  a.run_polls(1);
  const std::string ckpt = a.checkpoint();

  auto other = config;
  other.stream.system.seed ^= 1;
  ecocap::reader::StreamingReader b(other);
  EXPECT_THROW(b.resume(ckpt), std::runtime_error);

  auto slower = config;
  slower.poll_interval_s *= 2.0;
  ecocap::reader::StreamingReader c(slower);
  EXPECT_THROW(c.resume(ckpt), std::runtime_error);

  ecocap::reader::StreamingReader d(config);
  EXPECT_THROW(d.resume("garbage"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// fleet::TelemetryStore — writer ownership + node round trip
// ---------------------------------------------------------------------------

TEST(TelemetryStoreOwnership, SingleWriterHandoff) {
  ecocap::fleet::TelemetryStore store({.nodes = 2});
  EXPECT_FALSE(store.writer_of(0).has_value());
  EXPECT_TRUE(store.claim_writer(0, 7));
  EXPECT_TRUE(store.claim_writer(0, 7)) << "re-claim by the owner succeeds";
  EXPECT_FALSE(store.claim_writer(0, 8)) << "second writer must be refused";
  EXPECT_EQ(store.writer_of(0).value_or(0), 7u);
  store.release_writer(0, 8);  // non-owner release is a no-op
  EXPECT_TRUE(store.writer_of(0).has_value());
  store.release_writer(0, 7);
  EXPECT_FALSE(store.writer_of(0).has_value());
  EXPECT_TRUE(store.claim_writer(0, 8));
}

TEST(TelemetryStoreOwnership, NodeRoundTripAndReset) {
  ecocap::fleet::TelemetryStore store({.nodes = 1, .raw_capacity = 8});
  for (std::uint32_t t = 0; t < 20; ++t) {
    store.append(0, t * 30, 1.5f + static_cast<float>(t));
  }
  const std::string before = node_bytes(store, 0);

  ecocap::dsp::ser::Writer w("roundtrip v1");
  store.save_node(0, w);
  ecocap::fleet::TelemetryStore other({.nodes = 1, .raw_capacity = 8});
  ecocap::dsp::ser::Reader r(w.payload(), "roundtrip v1");
  other.load_node(0, r);
  EXPECT_EQ(node_bytes(other, 0), before);
  EXPECT_EQ(other.total_appends(), 20u);

  other.reset_node(0);
  EXPECT_FALSE(other.latest(0).has_value());
  EXPECT_EQ(other.total_appends(), 0u);

  ecocap::fleet::TelemetryStore wrong({.nodes = 1, .raw_capacity = 32});
  ecocap::dsp::ser::Reader r2(w.payload(), "roundtrip v1");
  EXPECT_THROW(wrong.load_node(0, r2), std::runtime_error);
}

// ---------------------------------------------------------------------------
// DaemonSupervisor — chaos acceptance
// ---------------------------------------------------------------------------

ecocap::runtime::RuntimeConfig fleet_config(std::size_t daemons,
                                            std::uint64_t polls) {
  ecocap::runtime::RuntimeConfig config;
  for (std::size_t i = 0; i < daemons; ++i) {
    auto d = fast_daemon_config();
    // Distinct universes per daemon (seed + node id), like a real fleet.
    d.stream.system.seed += 1000 * (i + 1);
    d.stream.system.capsule.firmware.node_id =
        static_cast<std::uint16_t>(42 + i);
    config.daemons.push_back(std::move(d));
  }
  config.polls_per_daemon = polls;
  config.checkpoint_every_polls = 4;
  config.event_ring_capacity = 64;
  config.heartbeat_timeout_ms = 1500.0;
  config.watchdog_interval_ms = 5.0;
  return config;
}

// The ISSUE acceptance criterion: a scripted runtime fault plan with >= 3
// daemon crashes and >= 1 stage stall; the supervisor restarts every failed
// daemon and the final TelemetryStore contents are byte-identical to a run
// with no injected faults.
TEST(DaemonSupervisor, ChaosRecoveryIsByteIdenticalToCrashFreeRun) {
  constexpr std::uint64_t kPolls = 12;

  auto golden_config = fleet_config(2, kPolls);
  ecocap::runtime::DaemonSupervisor golden(golden_config);
  const auto golden_stats = golden.run();
  ASSERT_EQ(golden_stats.daemons.size(), 2u);
  for (const auto& d : golden_stats.daemons) {
    ASSERT_EQ(d.polls_done, kPolls);
    ASSERT_GT(d.reader.delivered, 0u);
    // No *crashes* in the golden run. Restarts are not asserted zero: on an
    // oversubscribed host (TSan, busy CI) the watchdog may false-kick a
    // slow-but-healthy daemon, which is safe by design — the byte-identity
    // checks below are what must hold either way.
    EXPECT_EQ(d.crashes, 0u);
  }

  auto chaos_config = fleet_config(2, kPolls);
  using Chaos = ecocap::runtime::ChaosEvent;
  chaos_config.script = {
      // Crash before the first checkpoint (restart-from-scratch path)...
      {0, 3, Chaos::Kind::kCrash, 1},
      // ...and after one (resume-from-checkpoint path).
      {0, 7, Chaos::Kind::kCrash, 1},
      {1, 5, Chaos::Kind::kCrash, 1},
      // A crash before the first poll: that restart recovers no new polls,
      // the watchdog's hung-detection backoff branch (a later scripted
      // event always fires past the poll the previous one stopped at).
      {1, 0, Chaos::Kind::kCrash, 1},
      // A hung pipeline the watchdog must reclaim.
      {1, 9, Chaos::Kind::kStall, 2},
      // A slow consumer stressing the event rings.
      {0, 2, Chaos::Kind::kThrottle, 100},
  };
  ecocap::runtime::DaemonSupervisor chaos(chaos_config);
  const auto chaos_stats = chaos.run();

  std::uint64_t crashes = 0, stalls = 0, kicks = 0, resumed = 0, scratch = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& d = chaos_stats.daemons[i];
    EXPECT_EQ(d.polls_done, kPolls) << "daemon " << i << " must finish";
    crashes += d.crashes;
    stalls += d.stalls;
    kicks += d.watchdog_kicks;
    resumed += d.resumed_from_checkpoint;
    scratch += d.restarted_from_scratch;
    EXPECT_EQ(d.restarts, d.resumed_from_checkpoint + d.restarted_from_scratch);
  }
  EXPECT_GE(crashes, 4u);
  EXPECT_GE(stalls, 1u);
  EXPECT_GE(kicks, 1u) << "the stalled daemon must be detected as hung";
  EXPECT_GE(resumed, 1u);
  EXPECT_GE(scratch, 2u);
  EXPECT_GE(chaos_stats.total_restarts(), 4u);
  EXPECT_GE(chaos_stats.throttles, 1u);

  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(node_bytes(chaos.telemetry(), i),
              node_bytes(golden.telemetry(), i))
        << "node " << i
        << ": recovered telemetry must be byte-identical to the crash-free "
           "run";
    // The sim-domain reader counters replayed identically too.
    const auto& g = golden_stats.daemons[i].reader;
    const auto& c = chaos_stats.daemons[i].reader;
    EXPECT_EQ(c.polls, g.polls);
    EXPECT_EQ(c.delivered, g.delivered);
    EXPECT_EQ(c.missed, g.missed);
    EXPECT_EQ(c.frames_scheduled, g.frames_scheduled);
    EXPECT_EQ(c.brownouts, g.brownouts);
  }
}

// Backpressure acceptance: a collector paused for the whole campaign at a
// tiny ring capacity. Memory stays bounded by construction (the ring never
// exceeds its capacity) and every pushed event is either collected or
// accounted as dropped — exactly.
TEST(DaemonSupervisor, DropOldestAccountsEveryLostEventExactly) {
  constexpr std::uint64_t kPolls = 10;
  auto config = fleet_config(1, kPolls);
  config.event_ring_capacity = 2;
  config.event_policy = Overflow::kDropOldest;
  config.script = {{0, 0, ecocap::runtime::ChaosEvent::Kind::kThrottle,
                    600000}};  // paused throughout; final drain still runs

  ecocap::runtime::DaemonSupervisor supervisor(config);
  const auto stats = supervisor.run();
  const auto& d = stats.daemons[0];
  EXPECT_EQ(d.polls_done, kPolls);
  // >= not ==: a benign watchdog false kick on a slow host replays polls
  // from the last checkpoint, and replayed polls re-push their events. The
  // accounting below must balance exactly regardless.
  EXPECT_GE(d.events_pushed, kPolls);
  EXPECT_GT(d.events_dropped, 0u);
  EXPECT_EQ(d.events_pushed, stats.events_collected + d.events_dropped)
      << "exact accounting: pushed == collected + dropped";
  EXPECT_LE(stats.events_collected, 2u)
      << "a paused collector can only receive what the tiny ring retained";
  EXPECT_EQ(d.reader.events_dropped, d.events_dropped)
      << "drops surface in the (checkpointed) reader stats";
}

// A restart rewinds the reader's checkpointed stats, drop count included,
// while the supervisor keeps counting. A scripted crash takes the same
// rewind path as a watchdog false kick, deterministically: with the
// collector paused and a two-slot ring, every poll after the second drops
// an event, so drops land between the poll-4 checkpoint and the crash at
// poll 6 and the rewind would lose them from the reader's copy.
TEST(DaemonSupervisor, RestartKeepsTheReaderDropCountOnTheSupervisors) {
  using Chaos = ecocap::runtime::ChaosEvent;
  auto config = fleet_config(1, 8);  // checkpoints after polls 4 and 8
  config.event_ring_capacity = 2;
  config.event_policy = Overflow::kDropOldest;
  config.script = {{0, 0, Chaos::Kind::kThrottle, 600000},
                   {0, 6, Chaos::Kind::kCrash, 1}};
  ecocap::runtime::DaemonSupervisor supervisor(config);
  const auto stats = supervisor.run();
  const auto& d = stats.daemons[0];
  EXPECT_EQ(d.polls_done, 8u);
  EXPECT_GE(d.crashes, 1u);
  EXPECT_GE(d.resumed_from_checkpoint, 1u);
  EXPECT_GT(d.events_dropped, 0u);
  EXPECT_EQ(d.events_pushed, stats.events_collected + d.events_dropped);
  EXPECT_EQ(d.reader.events_dropped, d.events_dropped)
      << "the rewind must not split the reader's copy from the count";
}

TEST(DaemonSupervisor, ValidatesConfig) {
  ecocap::runtime::RuntimeConfig config;
  EXPECT_THROW(ecocap::runtime::DaemonSupervisor{config},
               std::invalid_argument);
  config = fleet_config(1, 0);
  EXPECT_THROW(ecocap::runtime::DaemonSupervisor{config},
               std::invalid_argument);
  config = fleet_config(1, 1);
  config.event_ring_capacity = 0;
  EXPECT_THROW(ecocap::runtime::DaemonSupervisor{config},
               std::invalid_argument);
}

TEST(DaemonSupervisor, RejectsACheckpointDirThatIsNotADirectory) {
  auto config = fleet_config(1, 1);
  config.checkpoint_dir = ::testing::TempDir() + "ecocap_no_such_ckpt_dir";
  try {
    ecocap::runtime::DaemonSupervisor supervisor(config);
    FAIL() << "a missing checkpoint_dir must be rejected";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(config.checkpoint_dir),
              std::string::npos)
        << "the error must name the directory: " << e.what();
  }

  // A regular file is not a directory either.
  const std::string file = ::testing::TempDir() + "ecocap_ckpt_dir_file";
  ASSERT_TRUE(ecocap::dsp::ser::atomic_write_file(file, "not a directory"));
  config.checkpoint_dir = file;
  EXPECT_THROW(ecocap::runtime::DaemonSupervisor{config},
               std::invalid_argument);
  std::remove(file.c_str());
}

TEST(DaemonSupervisor, CountsFailedCheckpointWritesAndKeepsResuming) {
  // daemon_0.ckpt is a non-empty directory, so every mirror write's rename
  // fails after the directory itself passed the constructor's check.
  const std::string dir = ::testing::TempDir() + "ecocap_ckpt_blocked";
  ASSERT_EQ(::system(("mkdir -p '" + dir + "/daemon_0.ckpt/occupant'").c_str()),
            0);
  auto config = fleet_config(1, 8);  // checkpoints after polls 4 and 8
  config.checkpoint_dir = dir;
  using Chaos = ecocap::runtime::ChaosEvent;
  config.script = {{0, 6, Chaos::Kind::kCrash, 1}};
  ecocap::runtime::DaemonSupervisor supervisor(config);
  const auto stats = supervisor.run();
  ASSERT_EQ(::system(("rm -rf '" + dir + "'").c_str()), 0);

  const auto& d = stats.daemons[0];
  EXPECT_EQ(d.polls_done, 8u);
  EXPECT_GE(d.checkpoints, 2u);
  EXPECT_EQ(d.checkpoint_write_failures, d.checkpoints)
      << "every failed file write is counted";
  EXPECT_GE(d.crashes, 1u);
  EXPECT_GE(d.resumed_from_checkpoint, 1u)
      << "the in-memory checkpoint still serves the restart";
}

// ---------------------------------------------------------------------------
// Seeded random chaos soak (slow label)
// ---------------------------------------------------------------------------

// Random crashes/stalls/throttles while three daemons stream: the script is
// drawn up front from a seeded Rng, one draw per kind per (daemon, poll).
// Asserts the fleet survives (every daemon finishes), each drawn event
// fires exactly once, the store's torn-read invariants hold under
// concurrent query load, and drop accounting stays exact. That no decode
// workspace buffer leaks across a crash/resume is checked by
// StreamingReaderCheckpoint.ResumeReplaysByteIdentically.
TEST(DaemonSupervisorSoak, SurvivesSeededRandomChaos) {
  using Chaos = ecocap::runtime::ChaosEvent;
  constexpr std::uint64_t kPolls = 24;
  constexpr std::size_t kDaemons = 3;
  auto config = fleet_config(kDaemons, kPolls);
  config.checkpoint_dir = ::testing::TempDir();
  config.event_ring_capacity = 8;

  // Per-poll rates: crash 0.04, one-unit stall 0.02, and a throttle of one
  // heartbeat timeout at 0.05.
  ecocap::dsp::Rng rng(0xec0cafe);
  std::vector<std::uint64_t> crashes(kDaemons, 0), stalls(kDaemons, 0);
  std::uint64_t throttles = 0;
  for (std::size_t i = 0; i < kDaemons; ++i) {
    for (std::uint64_t poll = 0; poll < kPolls; ++poll) {
      if (rng.chance(0.04)) {
        config.script.push_back({i, poll, Chaos::Kind::kCrash, 1});
        ++crashes[i];
      }
      if (rng.chance(0.02)) {
        config.script.push_back({i, poll, Chaos::Kind::kStall, 1});
        ++stalls[i];
      }
      if (rng.chance(0.05)) {
        config.script.push_back(
            {i, poll, Chaos::Kind::kThrottle,
             static_cast<std::uint64_t>(config.heartbeat_timeout_ms)});
        ++throttles;
      }
    }
  }

  ecocap::runtime::DaemonSupervisor supervisor(config);

  // Concurrent query load racing the writers: every observed reading must
  // be whole (a sane t_sec and a finite value), never torn.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> observed{0};
  std::atomic<bool> torn{false};
  std::thread prober([&] {
    std::vector<ecocap::fleet::TelemetryStore::Reading> out;
    std::vector<float> scratch;
    while (!stop.load(std::memory_order_acquire)) {
      for (std::size_t node = 0; node < 3; ++node) {
        out.clear();
        supervisor.telemetry().range(
            node, ecocap::fleet::TelemetryStore::Tier::kRaw, 0,
            std::numeric_limits<std::uint32_t>::max(), out);
        for (const auto& r : out) {
          ++observed;
          if (!std::isfinite(r.value) || r.t_sec > 86400u) torn.store(true);
        }
      }
      (void)supervisor.telemetry().fleet_percentiles(scratch);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const auto stats = supervisor.run();
  stop.store(true, std::memory_order_release);
  prober.join();

  EXPECT_FALSE(torn.load()) << "torn or garbage reading observed";
  EXPECT_GT(observed.load(), 0u);
  std::uint64_t pushed = 0, dropped = 0;
  for (std::size_t i = 0; i < stats.daemons.size(); ++i) {
    const auto& d = stats.daemons[i];
    EXPECT_EQ(d.polls_done, kPolls) << "daemon " << i << " did not finish";
    EXPECT_GT(d.reader.delivered, 0u);
    EXPECT_EQ(d.crashes, crashes[i]) << "daemon " << i;
    EXPECT_EQ(d.stalls, stalls[i]) << "daemon " << i;
    pushed += d.events_pushed;
    dropped += d.events_dropped;
  }
  EXPECT_EQ(pushed, stats.events_collected + dropped);
  EXPECT_EQ(stats.throttles, throttles);
  // The rates are hot enough that *some* chaos fired across 3 x 24 polls
  // (3 draws/poll at p >= 0.02 each; the seed makes this deterministic).
  std::uint64_t chaos_seen = 0;
  for (const auto& d : stats.daemons) {
    chaos_seen += d.crashes + d.stalls;
  }
  EXPECT_GT(chaos_seen + stats.throttles, 0u);
}

}  // namespace
