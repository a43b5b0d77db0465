#include "fleet/fleet_engine.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "dsp/rng.hpp"
#include "dsp/serialize.hpp"

namespace ecocap::fleet {

namespace {

constexpr const char* kCheckpointHeader = "ecocap-fleet-checkpoint v1";
constexpr const char* kAggregatesHeader = "ecocap-fleet-aggregates v1";

template <class Summary, class Ar>
void io_summary(Summary& s, Ar& ar) {
  ar.field("s.steps", s.steps);
  ar.field("s.readings", s.readings);
  ar.field("s.capsule_reads", s.capsule_reads);
  ar.field("s.limit_violations", s.limit_violations);
  ar.field("s.anomalies", s.anomalies);
  for (auto& c : s.health_counts) ar.field("s.health", c);
  ar.field("s.stress_sum", s.stress_sum);
  ar.field("s.peak_acceleration", s.peak_acceleration);
  ar.field("s.worst_pao", s.worst_pao);
}

/// Contiguous structure block [lo, hi) owned by `shard` of `shards`.
std::pair<std::size_t, std::size_t> shard_range(std::size_t structures,
                                                std::size_t shards,
                                                std::size_t shard) {
  const std::size_t base = structures / shards;
  const std::size_t rem = structures % shards;
  const std::size_t lo = shard * base + std::min(shard, rem);
  return {lo, lo + base + (shard < rem ? 1 : 0)};
}

}  // namespace

void StructureSummary::merge(const StructureSummary& other) {
  steps += other.steps;
  readings += other.readings;
  capsule_reads += other.capsule_reads;
  limit_violations += other.limit_violations;
  anomalies += other.anomalies;
  for (std::size_t i = 0; i < health_counts.size(); ++i) {
    health_counts[i] += other.health_counts[i];
  }
  stress_sum += other.stress_sum;
  peak_acceleration = std::max(peak_acceleration, other.peak_acceleration);
  worst_pao = std::min(worst_pao, other.worst_pao);
}

std::string FleetResult::fingerprint() const {
  dsp::ser::Writer w(kAggregatesHeader);
  w.u64("fleet.completed", completed ? 1 : 0);
  w.u64("fleet.structures", structures.size());
  io_summary(totals, w);
  for (const StructureSummary& s : structures) io_summary(s, w);
  return w.payload();
}

FleetEngine::FleetEngine(Config config, core::ThreadPool& pool)
    : config_(std::move(config)), pool_(&pool) {
  if (config_.structures == 0) {
    throw std::invalid_argument("FleetEngine: structures must be > 0");
  }
  if (config_.checkpoint_every == 0) {
    throw std::invalid_argument("FleetEngine: checkpoint_every must be > 0");
  }
  if (config_.telemetry != nullptr &&
      config_.telemetry->nodes() < config_.structures * kNodesPerStructure) {
    throw std::invalid_argument(
        "FleetEngine: telemetry store is smaller than the fleet");
  }
}

FleetEngine::FleetEngine(Config config)
    : FleetEngine(std::move(config), core::ThreadPool::shared()) {}

std::size_t FleetEngine::shard_count() const {
  if (config_.shards > 0) return std::min(config_.shards, config_.structures);
  return std::min<std::size_t>(config_.structures, 32);
}

std::string FleetEngine::shard_path(std::size_t shard) const {
  return config_.checkpoint_dir + "/fleet_shard_" + std::to_string(shard) +
         ".ckpt";
}

StructureSummary FleetEngine::run_structure(std::size_t s) const {
  shm::MonitoringCampaign::Config c = config_.campaign;
  c.seed = dsp::trial_seed(config_.seed, s);
  c.checkpoint_path.clear();  // fleet checkpoints at structure granularity
  c.stop_after_steps = 0;
  c.record_series = config_.record_series;

  StructureSummary sum;
  TelemetryStore* sink = config_.telemetry;
  const std::size_t node_base = s * kNodesPerStructure;
  const shm::MonitoringCampaign::StepHook user_hook = config_.campaign.on_step;
  c.on_step = [&sum, sink, node_base, &user_hook](
                  std::size_t step, Real t_days,
                  const shm::WeatherSample& weather,
                  const shm::BridgeState& state) {
    const auto t_sec = static_cast<std::uint32_t>(t_days * 86400.0 + 0.5);
    for (std::size_t i = 0; i < kNodesPerStructure; ++i) {
      const auto& sec = state.sections[i];
      if (sink != nullptr) {
        sink->append(node_base + i, t_sec,
                     static_cast<float>(sec.stress_mpa));
      }
      sum.worst_pao = std::min(sum.worst_pao, sec.pao);
    }
    sum.readings += kNodesPerStructure;
    sum.steps += 1;
    const auto& mid = state.sections[2];
    sum.stress_sum += mid.stress_mpa;
    sum.peak_acceleration =
        std::max(sum.peak_acceleration, std::abs(mid.vertical_acceleration));
    if (user_hook) user_hook(step, t_days, weather, state);
  };

  shm::MonitoringCampaign campaign(c);
  const shm::CampaignResult res = campaign.run();
  sum.limit_violations = res.limit_violations;
  sum.anomalies = static_cast<std::int64_t>(res.anomalies.size());
  sum.capsule_reads = static_cast<std::uint64_t>(
      std::max(res.inventory_totals.read_ok, 0));
  for (const auto& [section, by_letter] : res.health_histogram) {
    for (const auto& [letter, count] : by_letter) {
      const int idx = letter - 'A';
      if (idx >= 0 && idx < static_cast<int>(sum.health_counts.size())) {
        sum.health_counts[static_cast<std::size_t>(idx)] += count;
      }
    }
  }
  if (sink != nullptr) {
    for (std::size_t i = 0; i < kNodesPerStructure; ++i) {
      sink->flush(node_base + i);
    }
  }
  return sum;
}

FleetResult FleetEngine::run() { return run_impl(false); }

FleetResult FleetEngine::resume() {
  if (config_.checkpoint_dir.empty()) {
    throw std::runtime_error("fleet resume: Config::checkpoint_dir is empty");
  }
  return run_impl(true);
}

FleetResult FleetEngine::run_impl(bool from_checkpoint) {
  const std::size_t shards = shard_count();
  const bool checkpointing = !config_.checkpoint_dir.empty();

  FleetResult result;
  result.structures.resize(config_.structures);
  std::vector<std::uint8_t> structure_done(config_.structures, 0);
  std::vector<std::uint8_t> shard_stopped(shards, 0);
  std::vector<std::uint64_t> shard_resumed(shards, 0);

  pool_->parallel_for(shards, [&](std::size_t k) {
    const auto [lo, hi] = shard_range(config_.structures, shards, k);
    std::size_t done = 0;  // completed prefix length within this shard

    // A shard file only resumes the same shard of the same fleet config.
    // Hexfloat round trips are exact, so == is the right comparison.
    const auto fingerprint = [&](auto& ar) {
      ar.expect("fp.structures", config_.structures);
      ar.expect("fp.shards", shards);
      ar.expect("fp.seed", config_.seed);
      ar.expect("fp.days", config_.campaign.days);
      ar.expect("fp.step_minutes", config_.campaign.step_minutes);
      ar.expect("fp.capsule_count", config_.campaign.capsule_count);
      ar.expect("fp.poll_hours", config_.campaign.capsule_poll_hours);
      ar.expect("fp.supervised", config_.campaign.supervisor.enabled);
      ar.expect("fp.record_series", config_.record_series);
      ar.expect("shard.index", k);
    };
    const auto payload = [&](auto& ar) {
      ar.field("shard.completed", done, 0, hi - lo);
      for (std::size_t i = 0; i < done; ++i) {
        io_summary(result.structures[lo + i], ar);
      }
    };
    if (from_checkpoint && std::filesystem::exists(shard_path(k))) {
      dsp::ser::load_file(shard_path(k), kCheckpointHeader, fingerprint,
                          payload);
      std::fill_n(structure_done.begin() + lo, done, 1);
      shard_resumed[k] = done;
    }
    const auto write_checkpoint = [&] {
      dsp::ser::save_file(shard_path(k), kCheckpointHeader, fingerprint,
                          payload);
    };

    std::size_t completed_this_run = 0;
    for (std::size_t s = lo + done; s < hi; ++s) {
      if (config_.stop_after_structures > 0 &&
          completed_this_run >= config_.stop_after_structures) {
        // Simulated crash: leave a final checkpoint and stop this shard.
        shard_stopped[k] = 1;
        if (checkpointing) write_checkpoint();
        return;
      }
      result.structures[s] = run_structure(s);
      structure_done[s] = 1;
      ++done;
      ++completed_this_run;
      if (checkpointing && (done % config_.checkpoint_every == 0 || s + 1 == hi)) {
        write_checkpoint();
      }
    }
  });

  // Streaming merge in ascending structure order: the one fold order every
  // thread/shard count shares, so the Real sums associate identically.
  for (std::size_t s = 0; s < config_.structures; ++s) {
    if (structure_done[s] == 0) continue;
    result.totals.merge(result.structures[s]);
    ++result.structures_completed;
  }
  for (std::size_t k = 0; k < shards; ++k) {
    result.structures_resumed += shard_resumed[k];
    if (shard_stopped[k] != 0) result.completed = false;
  }
  return result;
}

}  // namespace ecocap::fleet
