// Crash-safe checkpointing: bit-exact real serialization, the strict
// sequential Writer/Reader, atomic file replacement, RNG stream capture,
// kill-at-midpoint campaign resume (must be bit-identical to an
// uninterrupted run), the long-campaign soak test under an active fault
// plan (quarantine entry/exit, staleness monotonicity, no workspace buffer
// leaks), and the golden checkpoint corpus: one small checkpoint per
// checkpoint-file owner, pinned byte for byte, resumed to completion, and
// swept with every truncation and a set of corruptions that must all be
// rejected with std::runtime_error.
//
// Regenerating the corpus after an intentional format change:
//   ./test_checkpoint --regen        # rewrites tests/golden/checkpoints/
// then commit the rewritten files with the change that caused them.

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "core/link_simulator.hpp"
#include "core/workspace_pool.hpp"
#include "dsp/serialize.hpp"
#include "dsp/workspace.hpp"
#include "fleet/fleet_engine.hpp"
#include "scenario/engine.hpp"
#include "scenario/script.hpp"
#include "shm/monitor.hpp"
#include "stream/streaming_reader.hpp"

#include "golden_util.hpp"

#ifndef ECOCAP_GOLDEN_DIR
#error "ECOCAP_GOLDEN_DIR must point at tests/golden"
#endif

namespace ecocap {
namespace {

TEST(Serialize, FormatRealIsBitExact) {
  const dsp::Real cases[] = {0.0,
                             -0.0,
                             1.0 / 3.0,
                             -12345.6789,
                             5e-324,  // smallest subnormal
                             std::numeric_limits<dsp::Real>::max(),
                             std::numeric_limits<dsp::Real>::infinity(),
                             -std::numeric_limits<dsp::Real>::infinity()};
  for (const dsp::Real v : cases) {
    const dsp::Real back = dsp::ser::parse_real(dsp::ser::format_real(v));
    EXPECT_EQ(std::memcmp(&v, &back, sizeof v), 0)
        << "round trip changed bits of " << v;
  }
  const dsp::Real nan_back = dsp::ser::parse_real(
      dsp::ser::format_real(std::numeric_limits<dsp::Real>::quiet_NaN()));
  EXPECT_TRUE(std::isnan(nan_back));
  EXPECT_THROW(dsp::ser::parse_real("not-a-real"),
               std::runtime_error);
}

TEST(Serialize, WriterReaderRoundTripAndStrictness) {
  dsp::ser::Writer w("ser-test v1");
  w.u64("count", 42);
  w.i64("delta", -7);
  w.real("x", 0.1);
  w.str("name", "mid-span sensor");
  w.real_vec("vec", {1.0, -2.5, 3e-9});

  dsp::ser::Reader r(w.payload(), "ser-test v1");
  EXPECT_EQ(r.u64("count"), 42u);
  EXPECT_EQ(r.i64("delta"), -7);
  EXPECT_EQ(r.real("x"), 0.1);
  EXPECT_EQ(r.str("name"), "mid-span sensor");
  const std::vector<dsp::Real> vec = r.real_vec("vec");
  ASSERT_EQ(vec.size(), 3u);
  EXPECT_EQ(vec[0], 1.0);
  EXPECT_EQ(vec[1], -2.5);
  EXPECT_EQ(vec[2], 3e-9);
  EXPECT_TRUE(r.exhausted());

  // Wrong header: rejected up front.
  EXPECT_THROW(dsp::ser::Reader(w.payload(), "ser-test v2"),
               std::runtime_error);
  // Key mismatch: records must be consumed in order.
  dsp::ser::Reader wrong(w.payload(), "ser-test v1");
  EXPECT_THROW(wrong.u64("delta"), std::runtime_error);
  // Truncation: a half-written record throws instead of misparsing.
  dsp::ser::Reader trunc(w.payload().substr(0, w.payload().size() / 2),
                         "ser-test v1");
  trunc.u64("count");
  EXPECT_THROW({
    trunc.i64("delta");
    trunc.real("x");
    trunc.str("name");
    trunc.real_vec("vec");
  }, std::runtime_error);
}

TEST(Serialize, AtomicWriteLeavesNoTempBehind) {
  const std::string path = "test_checkpoint_atomic.txt";
  ASSERT_TRUE(dsp::ser::atomic_write_file(path, "first\n"));
  auto content = dsp::ser::read_file(path);
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(*content, "first\n");
  EXPECT_FALSE(dsp::ser::read_file(path + ".tmp").has_value());

  // Replacing an existing file is atomic too (no partial state).
  ASSERT_TRUE(dsp::ser::atomic_write_file(path, "second\n"));
  content = dsp::ser::read_file(path);
  ASSERT_TRUE(content.has_value());
  EXPECT_EQ(*content, "second\n");
  EXPECT_FALSE(dsp::ser::read_file(path + ".tmp").has_value());
  std::remove(path.c_str());
}

TEST(Serialize, RngRoundTripPreservesCachedVariate) {
  dsp::Rng rng(1234);
  // An odd number of gaussians leaves the normal distribution's spare
  // variate cached — the state the stream operators must carry over.
  for (int i = 0; i < 7; ++i) rng.gaussian();

  dsp::ser::Writer w("rng-test v1");
  w.rng("rng", rng);
  dsp::Rng restored(1);  // wrong seed on purpose; load overwrites it
  dsp::ser::Reader r(w.payload(), "rng-test v1");
  r.rng("rng", restored);

  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(rng.gaussian(), restored.gaussian());
    EXPECT_EQ(rng.uniform(), restored.uniform());
  }
}

// --- campaign-level checks ------------------------------------------------

shm::MonitoringCampaign::Config small_campaign(const std::string& checkpoint) {
  shm::MonitoringCampaign::Config cfg;
  cfg.days = 2.0;
  cfg.step_minutes = 5.0;
  cfg.capsule_poll_hours = 3.0;
  cfg.seed = 4242;
  cfg.retry.enabled = true;
  cfg.fault = fault::FaultPlan::at_intensity(0.5);
  cfg.supervisor.enabled = true;
  cfg.checkpoint_path = checkpoint;
  cfg.checkpoint_hours = 6.0;
  return cfg;
}

void expect_series_eq(const shm::TimeSeries& a, const shm::TimeSeries& b) {
  const auto av = a.values();
  const auto bv = b.values();
  ASSERT_EQ(av.size(), bv.size());
  for (std::size_t i = 0; i < av.size(); ++i) {
    EXPECT_EQ(av[i], bv[i]) << "series diverges at sample " << i;
  }
}

void expect_results_identical(const shm::CampaignResult& a,
                              const shm::CampaignResult& b) {
  expect_series_eq(a.acceleration, b.acceleration);
  expect_series_eq(a.stress, b.stress);
  expect_series_eq(a.stress_side, b.stress_side);
  expect_series_eq(a.humidity, b.humidity);
  expect_series_eq(a.temperature, b.temperature);
  expect_series_eq(a.pressure, b.pressure);
  expect_series_eq(a.pao, b.pao);

  ASSERT_EQ(a.minute_reports.size(), b.minute_reports.size());
  for (std::size_t i = 0; i < a.minute_reports.size(); ++i) {
    for (std::size_t s = 0; s < a.minute_reports[i].size(); ++s) {
      EXPECT_EQ(a.minute_reports[i][s].section, b.minute_reports[i][s].section);
      EXPECT_EQ(a.minute_reports[i][s].pedestrians,
                b.minute_reports[i][s].pedestrians);
      EXPECT_EQ(a.minute_reports[i][s].health, b.minute_reports[i][s].health);
      EXPECT_EQ(a.minute_reports[i][s].walking_speed,
                b.minute_reports[i][s].walking_speed);
    }
  }
  EXPECT_EQ(a.health_histogram, b.health_histogram);

  ASSERT_EQ(a.anomalies.size(), b.anomalies.size());
  for (std::size_t i = 0; i < a.anomalies.size(); ++i) {
    EXPECT_EQ(a.anomalies[i].start_day, b.anomalies[i].start_day);
    EXPECT_EQ(a.anomalies[i].end_day, b.anomalies[i].end_day);
    EXPECT_EQ(a.anomalies[i].peak_zscore, b.anomalies[i].peak_zscore);
  }
  EXPECT_EQ(a.limit_violations, b.limit_violations);

  ASSERT_EQ(a.capsule_readings.size(), b.capsule_readings.size());
  for (std::size_t i = 0; i < a.capsule_readings.size(); ++i) {
    EXPECT_EQ(a.capsule_readings[i].node_id, b.capsule_readings[i].node_id);
    EXPECT_EQ(a.capsule_readings[i].sensor_id, b.capsule_readings[i].sensor_id);
    EXPECT_EQ(a.capsule_readings[i].value, b.capsule_readings[i].value);
  }
  ASSERT_EQ(a.capsule_log.size(), b.capsule_log.size());
  for (std::size_t i = 0; i < a.capsule_log.size(); ++i) {
    EXPECT_EQ(a.capsule_log[i].reading.node_id, b.capsule_log[i].reading.node_id);
    EXPECT_EQ(a.capsule_log[i].reading.value, b.capsule_log[i].reading.value);
    EXPECT_EQ(a.capsule_log[i].stale, b.capsule_log[i].stale);
    EXPECT_EQ(a.capsule_log[i].age_hours, b.capsule_log[i].age_hours);
  }
  EXPECT_EQ(a.max_staleness_hours, b.max_staleness_hours);

  EXPECT_EQ(a.inventory_totals.rounds, b.inventory_totals.rounds);
  EXPECT_EQ(a.inventory_totals.slots, b.inventory_totals.slots);
  EXPECT_EQ(a.inventory_totals.read_ok, b.inventory_totals.read_ok);
  EXPECT_EQ(a.inventory_totals.retries, b.inventory_totals.retries);
  EXPECT_EQ(a.inventory_totals.timeouts, b.inventory_totals.timeouts);
  EXPECT_EQ(a.inventory_totals.giveups, b.inventory_totals.giveups);
  EXPECT_EQ(a.inventory_totals.backoff_slots, b.inventory_totals.backoff_slots);
  EXPECT_EQ(a.inventory_totals.deadline_trips,
            b.inventory_totals.deadline_trips);

  EXPECT_EQ(a.supervisor_totals.fallbacks, b.supervisor_totals.fallbacks);
  EXPECT_EQ(a.supervisor_totals.probes, b.supervisor_totals.probes);
  EXPECT_EQ(a.supervisor_totals.quarantines, b.supervisor_totals.quarantines);
  EXPECT_EQ(a.supervisor_totals.reintegrations,
            b.supervisor_totals.reintegrations);
  EXPECT_EQ(a.supervisor_totals.skipped_polls,
            b.supervisor_totals.skipped_polls);
  ASSERT_EQ(a.link_states.size(), b.link_states.size());
  for (const auto& [node, sa] : a.link_states) {
    const auto it = b.link_states.find(node);
    ASSERT_NE(it, b.link_states.end());
    EXPECT_EQ(sa.ladder_index, it->second.ladder_index);
    EXPECT_EQ(sa.ewma_success, it->second.ewma_success);
    EXPECT_EQ(sa.quarantined, it->second.quarantined);
    EXPECT_EQ(sa.fallbacks, it->second.fallbacks);
    EXPECT_EQ(sa.quarantines, it->second.quarantines);
  }
}

TEST(CampaignCheckpoint, KillAtMidpointResumeIsBitIdentical) {
  const std::string cp = "test_checkpoint_campaign.txt";
  std::remove(cp.c_str());

  // Reference: the uninterrupted run (no checkpointing at all).
  shm::MonitoringCampaign::Config full_cfg = small_campaign("");
  const shm::CampaignResult full = shm::MonitoringCampaign(full_cfg).run();
  ASSERT_TRUE(full.completed);
  ASSERT_GT(full.capsule_readings.size(), 0u);

  // Crash at the midpoint: a final checkpoint is written, the result is
  // flagged partial.
  shm::MonitoringCampaign::Config crash_cfg = small_campaign(cp);
  crash_cfg.stop_after_steps = (2 * 24 * 60 / 5) / 2;  // half the steps
  const shm::CampaignResult partial =
      shm::MonitoringCampaign(crash_cfg).run();
  EXPECT_FALSE(partial.completed);
  ASSERT_TRUE(dsp::ser::read_file(cp).has_value());

  // Resume to completion and compare every field of the result.
  shm::MonitoringCampaign::Config resume_cfg = small_campaign(cp);
  const shm::CampaignResult resumed =
      shm::MonitoringCampaign(resume_cfg).resume();
  EXPECT_TRUE(resumed.completed);
  expect_results_identical(full, resumed);
  std::remove(cp.c_str());
}

TEST(CampaignCheckpoint, ResumeRejectsMissingOrMismatchedCheckpoint) {
  const std::string cp = "test_checkpoint_mismatch.txt";
  std::remove(cp.c_str());

  // Missing file.
  shm::MonitoringCampaign::Config cfg = small_campaign(cp);
  EXPECT_THROW(shm::MonitoringCampaign(cfg).resume(), std::runtime_error);

  // Write a checkpoint, then try to resume with a different fingerprint.
  shm::MonitoringCampaign::Config crash_cfg = small_campaign(cp);
  crash_cfg.stop_after_steps = 24;
  shm::MonitoringCampaign(crash_cfg).run();
  ASSERT_TRUE(dsp::ser::read_file(cp).has_value());
  shm::MonitoringCampaign::Config other = small_campaign(cp);
  other.seed = 999;  // different campaign: the checkpoint must be rejected
  EXPECT_THROW(shm::MonitoringCampaign(other).resume(), std::runtime_error);

  // Corrupt file: truncate it mid-record.
  const auto content = dsp::ser::read_file(cp);
  ASSERT_TRUE(content.has_value());
  ASSERT_TRUE(
      dsp::ser::atomic_write_file(cp, content->substr(0, content->size() / 3)));
  shm::MonitoringCampaign::Config again = small_campaign(cp);
  EXPECT_THROW(shm::MonitoringCampaign(again).resume(), std::runtime_error);
  std::remove(cp.c_str());
}

// The long-campaign soak test of the issue: several days of supervised,
// fault-injected polling against depth-starved capsules. Asserts the
// supervisor actually exercises quarantine entry AND reintegration probing,
// that held (stale) readings age monotonically until refreshed, and that
// the workspace buffer pool balances its checkouts (no leaked buffers).
TEST(CampaignSoak, QuarantineLifecycleStalenessAndNoBufferLeaks) {
  const dsp::Workspace::Stats before =
      core::WorkspacePool::shared().total_stats();

  shm::MonitoringCampaign::Config cfg;
  cfg.days = 4.0;
  cfg.step_minutes = 5.0;
  cfg.capsule_poll_hours = 2.0;
  cfg.seed = 31337;
  // Starve the deep capsules: at 10 dB contact SNR the default ladder's
  // +6 dB floor cannot rescue the farthest nodes, so they must end up
  // quarantined with periodic reintegration probes.
  cfg.capsule_snr_at_contact_db = 10.0;
  cfg.retry.enabled = true;
  cfg.fault = fault::FaultPlan::at_intensity(0.3);
  cfg.supervisor.enabled = true;

  const shm::CampaignResult res = shm::MonitoringCampaign(cfg).run();
  ASSERT_TRUE(res.completed);

  // Quarantine lifecycle was exercised.
  EXPECT_GE(res.supervisor_totals.quarantines, 1);
  EXPECT_GE(res.supervisor_totals.reintegration_probes, 1);
  EXPECT_GT(res.supervisor_totals.skipped_polls, 0);
  EXPECT_GT(res.supervisor_totals.fallbacks, 0);
  // ...and it actually cost polls: some nodes went stale for hours.
  EXPECT_FALSE(res.max_staleness_hours.empty());

  // While a reading is held, its age grows strictly; a fresh reading
  // resets it to zero.
  std::map<std::pair<std::uint16_t, std::uint8_t>, shm::Real> last_age;
  for (const auto& entry : res.capsule_log) {
    const auto key =
        std::make_pair(entry.reading.node_id, entry.reading.sensor_id);
    if (entry.stale) {
      const auto it = last_age.find(key);
      if (it != last_age.end() && it->second > 0.0) {
        EXPECT_GT(entry.age_hours, it->second)
            << "staleness must grow while a reading is held (node "
            << entry.reading.node_id << ")";
      }
      EXPECT_GT(entry.age_hours, 0.0);
    } else {
      EXPECT_EQ(entry.age_hours, 0.0);
    }
    last_age[key] = entry.stale ? entry.age_hours : 0.0;
  }

  // No leaked workspace buffers: every checkout this campaign made was
  // returned to the pool.
  const dsp::Workspace::Stats after =
      core::WorkspacePool::shared().total_stats();
  EXPECT_EQ(after.checkouts - before.checkouts,
            after.returns - before.returns);
}

// --- golden checkpoint corpus ---------------------------------------------
// One small checkpoint per owner that frames checkpoint files or payloads:
// a campaign, a fleet shard, a streaming daemon, a mobile route and a
// multi-reader run. Each entry crashes a tiny run mid-way, pins the
// checkpoint bytes against tests/golden/checkpoints/, and resumes the
// committed file to completion, which must equal an uninterrupted run.

std::string corpus_path(const std::string& file) {
  return std::string(ECOCAP_GOLDEN_DIR) + "/checkpoints/" + file;
}

/// A scratch directory unique to this process and call, removed on scope
/// exit (also when a resume throws): ctest runs the tests of this binary in
/// parallel processes, and the fleet engine fixes its shard file names.
class ScratchDir {
 public:
  ScratchDir()
      : path_(::testing::TempDir() + "ecocap_corpus_" +
              std::to_string(::getpid()) + "_" + std::to_string(next_++)) {
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  static inline int next_ = 0;
  std::string path_;
};

/// A checkpoint owner in the corpus. `make` runs a crashed run and returns
/// its checkpoint bytes; `resume` finishes a run from the given bytes and
/// returns a bit-exact digest of the outcome (throws when the bytes are
/// rejected); `full` is the digest of the uninterrupted run.
struct CorpusEntry {
  std::string file;
  std::function<std::string()> make;
  std::function<std::string(const std::string&)> resume;
  std::function<std::string()> full;
};

std::string write_file(const std::string& path, const std::string& bytes) {
  EXPECT_TRUE(dsp::ser::atomic_write_file(path, bytes));
  return path;
}

std::string read_back(const std::string& path) {
  const auto content = dsp::ser::read_file(path);
  EXPECT_TRUE(content.has_value()) << "no checkpoint at " << path;
  return content.value_or("");
}

// Campaign: supervised, fault-injected, two capsules, killed at the
// midpoint of six hours.
shm::MonitoringCampaign::Config corpus_campaign(const std::string& path) {
  shm::MonitoringCampaign::Config cfg;
  cfg.days = 0.25;
  cfg.step_minutes = 10.0;
  cfg.capsule_count = 2;
  cfg.capsule_poll_hours = 1.0;
  cfg.seed = 909;
  cfg.retry.enabled = true;
  cfg.fault = fault::FaultPlan::at_intensity(0.3);
  cfg.supervisor.enabled = true;
  cfg.checkpoint_path = path;
  cfg.checkpoint_hours = 2.0;
  return cfg;
}

std::string campaign_digest(const shm::CampaignResult& r) {
  dsp::ser::Writer w("corpus-campaign-digest v1");
  for (const shm::TimeSeries* ts :
       {&r.acceleration, &r.stress, &r.stress_side, &r.humidity,
        &r.temperature, &r.pressure, &r.pao}) {
    const auto v = ts->values();
    w.real_vec("series", std::vector<dsp::Real>(v.begin(), v.end()));
  }
  for (const auto& row : r.minute_reports) {
    for (const auto& sec : row) {
      w.i64("report", sec.pedestrians * 8 + static_cast<int>(sec.health));
      w.real("speed", sec.walking_speed);
    }
  }
  for (const auto& [sec, m] : r.health_histogram) {
    for (const auto& [letter, count] : m) {
      w.i64("hist", (sec * 256 + letter) * 100000 + count);
    }
  }
  w.i64("violations", r.limit_violations);
  for (const auto& c : r.capsule_log) {
    w.u64("log", c.reading.node_id * 256u + c.reading.sensor_id);
    w.real("value", c.reading.value);
    w.real("age", c.stale ? c.age_hours : -1.0);
  }
  for (const auto& [node, hours] : r.max_staleness_hours) {
    w.real("stale." + std::to_string(node), hours);
  }
  w.i64("read_ok", r.inventory_totals.read_ok);
  w.i64("retries", r.inventory_totals.retries);
  w.i64("quarantines", r.supervisor_totals.quarantines);
  w.i64("fallbacks", r.supervisor_totals.fallbacks);
  return w.payload();
}

constexpr const char* kCampaign = "campaign.ckpt";

CorpusEntry campaign_entry() {
  CorpusEntry e;
  e.file = kCampaign;
  e.make = [] {
    const ScratchDir dir;
    auto cfg = corpus_campaign(dir.file(kCampaign));
    cfg.stop_after_steps = 18;  // half of the 36 steps
    EXPECT_FALSE(shm::MonitoringCampaign(cfg).run().completed);
    return read_back(cfg.checkpoint_path);
  };
  e.resume = [](const std::string& bytes) {
    const ScratchDir dir;
    const auto cfg = corpus_campaign(write_file(dir.file(kCampaign), bytes));
    const shm::CampaignResult r = shm::MonitoringCampaign(cfg).resume();
    EXPECT_TRUE(r.completed);
    return campaign_digest(r);
  };
  e.full = [] {
    return campaign_digest(shm::MonitoringCampaign(corpus_campaign("")).run());
  };
  return e;
}

// Fleet: two structures in one shard, killed after the first.
fleet::FleetEngine::Config corpus_fleet(const std::string& dir) {
  fleet::FleetEngine::Config cfg;
  cfg.structures = 2;
  cfg.shards = 1;
  cfg.seed = 515;
  cfg.campaign.days = 0.25;
  cfg.campaign.step_minutes = 10.0;
  cfg.campaign.capsule_count = 2;
  cfg.campaign.capsule_poll_hours = 3.0;
  cfg.campaign.retry.enabled = true;
  cfg.checkpoint_dir = dir;
  return cfg;
}

CorpusEntry fleet_entry() {
  CorpusEntry e;
  e.file = "fleet_shard.ckpt";
  e.make = [] {
    const ScratchDir dir;
    core::ThreadPool pool(1);
    auto cfg = corpus_fleet(dir.path());
    cfg.stop_after_structures = 1;
    EXPECT_FALSE(fleet::FleetEngine(cfg, pool).run().completed);
    return read_back(dir.file("fleet_shard_0.ckpt"));
  };
  e.resume = [](const std::string& bytes) {
    const ScratchDir dir;
    core::ThreadPool pool(1);
    write_file(dir.file("fleet_shard_0.ckpt"), bytes);
    const fleet::FleetResult r =
        fleet::FleetEngine(corpus_fleet(dir.path()), pool).resume();
    EXPECT_EQ(r.structures_resumed, 1u);
    return r.fingerprint();
  };
  e.full = [] {
    core::ThreadPool pool(1);
    return fleet::FleetEngine(corpus_fleet(""), pool).run().fingerprint();
  };
  return e;
}

// Streaming daemon: a few polls in, with a fault event still pending.
reader::StreamingReaderConfig corpus_daemon() {
  reader::StreamingReaderConfig config;
  config.stream.system = core::default_system();
  config.stream.block_size = 256;
  config.poll_interval_s = 0.05;
  config.warmup_s = 0.5;
  config.telemetry.raw_capacity = 16;
  config.telemetry.minute_capacity = 8;
  config.telemetry.hour_capacity = 4;
  reader::StreamFaultEvent event;
  event.at_s = 0.65;  // after the checkpoint poll
  event.plan = fault::FaultPlan::at_intensity(0.5);
  config.fault_events.push_back(event);
  return config;
}

CorpusEntry daemon_entry() {
  CorpusEntry e;
  e.file = "streaming_reader.ckpt";
  e.make = [] {
    reader::StreamingReader crashing(corpus_daemon());
    crashing.run_polls(2);
    return crashing.checkpoint();
  };
  e.resume = [](const std::string& bytes) {
    reader::StreamingReader resumed(corpus_daemon());
    resumed.resume(bytes);
    resumed.run_polls(4);
    EXPECT_EQ(resumed.stats().fault_events_applied, 1u);
    return resumed.checkpoint();
  };
  e.full = [] {
    reader::StreamingReader uninterrupted(corpus_daemon());
    uninterrupted.run_polls(6);
    return uninterrupted.checkpoint();
  };
  return e;
}

// Scenario runners: a two-stop mobile route and a short dual-reader run.
const char* const kCorpusMobile =
    "scenario corpus-mobile\n"
    "mode mobile\n"
    "seed 4401\n"
    "retry true\n"
    "pass_seconds 2\n"
    "event stop structure=s3 nodes=2 spacing_m=0.5 first_m=0.4 "
    "dwell_minutes=1 tx_voltage=200 snr_at_contact_db=24\n"
    "event stop structure=s1 nodes=2 spacing_m=0.4 first_m=0.3 "
    "dwell_minutes=1 tx_voltage=120 snr_at_contact_db=22\n";

const char* const kCorpusMulti =
    "scenario corpus-multi\n"
    "mode multi_reader\n"
    "seed 4402\n"
    "readers 2\n"
    "passes 4\n"
    "capsules 2\n"
    "reader_separation_m 6\n"
    "carrier_offset_hz 2000\n"
    "snr_at_contact_db 24\n";

std::string outcome_digest(const scenario::ScenarioOutcome& o) {
  dsp::ser::Writer w("corpus-outcome-digest v1");
  w.str("name", o.name);
  w.u64("completed", o.completed ? 1 : 0);
  w.str("grade_path", o.grade_path);
  w.real_vec("trace", o.trace);
  for (const auto& [key, value] : o.scalars) w.real(key, value);
  return w.payload();
}

CorpusEntry scenario_entry(const std::string& file, const char* text,
                           std::size_t stop_after) {
  const auto script = scenario::ScenarioScript::parse(text);
  CorpusEntry e;
  e.file = file;
  e.make = [script, file, stop_after] {
    const ScratchDir dir;
    scenario::RunControl control;
    control.checkpoint_path = dir.file(file);
    control.stop_after_units = stop_after;
    EXPECT_FALSE(scenario::ScenarioEngine(script, control).run().completed);
    return read_back(control.checkpoint_path);
  };
  e.resume = [script, file](const std::string& bytes) {
    const ScratchDir dir;
    scenario::RunControl control;
    control.checkpoint_path = write_file(dir.file(file), bytes);
    return outcome_digest(scenario::ScenarioEngine(script, control).resume());
  };
  e.full = [script] {
    return outcome_digest(scenario::ScenarioEngine(script).run());
  };
  return e;
}

std::vector<CorpusEntry> corpus() {
  return {campaign_entry(), fleet_entry(), daemon_entry(),
          scenario_entry("mobile.ckpt", kCorpusMobile, 1),
          // passes 4: slot 6 lands mid-way through the second scheme, so
          // the victim reader's session state is in the file.
          scenario_entry("multi_reader.ckpt", kCorpusMulti, 6)};
}

const CorpusEntry& corpus_entry(const std::string& file) {
  static const std::vector<CorpusEntry> entries = corpus();
  for (const auto& e : entries) {
    if (e.file == file) return e;
  }
  throw std::logic_error("no corpus entry " + file);
}

/// The committed golden file (regenerated first under --regen).
std::string golden_bytes(const CorpusEntry& e) {
  if (golden::g_regen) {
    EXPECT_TRUE(dsp::ser::atomic_write_file(corpus_path(e.file), e.make()));
  }
  const auto bytes = dsp::ser::read_file(corpus_path(e.file));
  EXPECT_TRUE(bytes.has_value())
      << "missing " << corpus_path(e.file)
      << " - run test_checkpoint --regen and commit the result";
  return bytes.value_or("");
}

/// Replace the value of the first `key value...` record.
std::string with_value(std::string bytes, const std::string& key,
                       const std::string& value) {
  const std::size_t at = bytes.find("\n" + key + " ");
  EXPECT_NE(at, std::string::npos) << "no record " << key;
  if (at == std::string::npos) return bytes;
  const std::size_t begin = at + key.size() + 2;
  bytes.replace(begin, bytes.find('\n', begin) - begin, value);
  return bytes;
}

const char* const kCorpusFiles[] = {"campaign.ckpt", "fleet_shard.ckpt",
                                    "streaming_reader.ckpt", "mobile.ckpt",
                                    "multi_reader.ckpt"};

class GoldenCheckpoint : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenCheckpoint, RegeneratedBytesMatchCommittedFile) {
  const CorpusEntry& e = corpus_entry(GetParam());
  const std::string golden = golden_bytes(e);
  ASSERT_FALSE(golden.empty());
  // Each Rng record is a full MT19937-64 state (~6.5 KB); the campaign and
  // the daemon carry six of them, everything else stays small.
  EXPECT_LT(golden.size(), 48u * 1024u) << "keep corpus files small";
  EXPECT_TRUE(golden == e.make())
      << e.file << ": checkpoint bytes drifted from the committed corpus";
}

TEST_P(GoldenCheckpoint, ResumeFromCommittedFileMatchesUninterruptedRun) {
  const CorpusEntry& e = corpus_entry(GetParam());
  const std::string golden = golden_bytes(e);
  ASSERT_FALSE(golden.empty());
  EXPECT_TRUE(e.resume(golden) == e.full())
      << e.file << ": resumed run diverged from the uninterrupted run";
}

TEST_P(GoldenCheckpoint, TrailingRecordsAreRejected) {
  const CorpusEntry& e = corpus_entry(GetParam());
  const std::string golden = golden_bytes(e);
  ASSERT_FALSE(golden.empty());
  EXPECT_THROW(e.resume(golden + "extra.record 1\n"), std::runtime_error);
}

// Every truncation must end in a typed rejection: at each line boundary
// (a file cut between records) and half-way through each line (a torn
// record).
TEST_P(GoldenCheckpoint, EveryTruncationIsRejected) {
  const CorpusEntry& e = corpus_entry(GetParam());
  const std::string golden = golden_bytes(e);
  ASSERT_FALSE(golden.empty());
  std::size_t cuts = 0;
  for (std::size_t begin = 0; begin < golden.size();) {
    const std::size_t nl = golden.find('\n', begin);
    const std::size_t end = nl == std::string::npos ? golden.size() : nl + 1;
    for (const std::size_t cut : {begin, begin + (end - begin) / 2}) {
      EXPECT_THROW(e.resume(golden.substr(0, cut)), std::runtime_error)
          << e.file << " truncated to " << cut << " bytes was accepted";
      ++cuts;
    }
    begin = end;
  }
  EXPECT_GT(cuts, 20u);
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenCheckpoint,
                         ::testing::ValuesIn(kCorpusFiles),
                         [](const auto& info) {
                           std::string name = info.param;
                           return name.substr(0, name.find('.'));
                         });

// --- strict loads ------------------------------------------------------------

TEST(StrictLoad, UnsignedRecordsRejectNegativeValues) {
  dsp::ser::Writer w("strict v1");
  w.kv("n", "-1");
  w.kv("v", "2 3 -1");
  dsp::ser::Reader r(w.payload(), "strict v1");
  EXPECT_THROW(r.u64("n"), std::runtime_error);
  dsp::ser::Reader rv(w.payload(), "strict v1");
  rv.kv("n");
  EXPECT_THROW(rv.u64_vec("v"), std::runtime_error);
}

TEST(StrictLoad, OutOfRangeValuesAreRejectedNotNarrowed) {
  const std::string golden =
      golden_bytes(corpus_entry("streaming_reader.ckpt"));
  const auto& daemon = corpus_entry("streaming_reader.ckpt");
  // 4294967301 = 2^32 + 5 would narrow to 5 in an int counter.
  EXPECT_THROW(daemon.resume(with_value(golden, "inj.bursts", "4294967301")),
               std::runtime_error);
  EXPECT_THROW(daemon.resume(with_value(golden, "fw.rn16", "65536")),
               std::runtime_error);
  EXPECT_THROW(daemon.resume(with_value(golden, "fw.slot", "-4294967295")),
               std::runtime_error);
  // Flags are 0 or 1; enums stay inside their declared range.
  EXPECT_THROW(daemon.resume(with_value(golden, "hv.powered", "2")),
               std::runtime_error);
  EXPECT_THROW(daemon.resume(with_value(golden, "fw.state", "9")),
               std::runtime_error);
}

TEST(StrictLoad, OscillatorPhasesStayOnTheirGrid) {
  // The default 230 kHz carrier's grid has 200 points, and an offset is a
  // phase in [0, 2*pi]: anything else is rejected, not wrapped.
  const auto& daemon = corpus_entry("streaming_reader.ckpt");
  const std::string golden = golden_bytes(daemon);
  for (const char* key : {"tx.phase_index", "uls.si_index"}) {
    EXPECT_NO_THROW(daemon.resume(with_value(golden, key, "199"))) << key;
    EXPECT_THROW(daemon.resume(with_value(golden, key, "200")),
                 std::runtime_error)
        << key;
  }
  for (const char* key : {"tx.phase", "uls.si_phase"}) {
    EXPECT_THROW(daemon.resume(with_value(golden, key, "0x1.ap+2")),
                 std::runtime_error)
        << key;
    EXPECT_THROW(daemon.resume(with_value(golden, key, "-0x1p-10")),
                 std::runtime_error)
        << key;
  }
}

TEST(StrictLoad, CorruptCountsAreRejectedBeforeAllocating) {
  const std::string huge = "1000000000000";
  const auto& campaign = corpus_entry("campaign.ckpt");
  const std::string c = golden_bytes(campaign);
  EXPECT_THROW(campaign.resume(with_value(c, "result.minute_reports", huge)),
               std::runtime_error);
  EXPECT_THROW(
      campaign.resume(with_value(c, "series.stress", huge + " 0x1p+0")),
      std::runtime_error);
  const auto& mobile = corpus_entry("mobile.ckpt");
  const std::string m = golden_bytes(mobile);
  EXPECT_THROW(mobile.resume(with_value(m, "mobile.log", huge)),
               std::runtime_error);
}

}  // namespace
}  // namespace ecocap

int main(int argc, char** argv) {
  return ecocap::golden::golden_test_main(argc, argv);
}
