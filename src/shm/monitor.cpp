#include "shm/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/workspace_pool.hpp"

namespace ecocap::shm {

namespace {

/// Checkpoint format tag; bump the version on any schema change so stale
/// files are rejected instead of misread (docs/benchmarks.md documents the
/// schema).
constexpr const char* kCheckpointHeader = "ecocap-campaign-checkpoint v1";

void accumulate(reader::InventoryStats& into,
                const reader::InventoryStats& s) {
  into.rounds += s.rounds;
  into.slots += s.slots;
  into.empty_slots += s.empty_slots;
  into.collisions += s.collisions;
  into.singleton_slots += s.singleton_slots;
  into.acked += s.acked;
  into.read_ok += s.read_ok;
  into.read_failed += s.read_failed;
  into.retries += s.retries;
  into.timeouts += s.timeouts;
  into.crc_fails += s.crc_fails;
  into.giveups += s.giveups;
  into.backoff_slots += s.backoff_slots;
  into.deadline_trips += s.deadline_trips;
}

/// (node, sensor) -> (last good value, the hour it was measured).
using HoldMap =
    std::map<std::pair<std::uint16_t, std::uint8_t>, std::pair<Real, Real>>;

template <class Stats, class Ar>
void io_stats(Stats& s, Ar& ar) {
  ar.field("stats.rounds", s.rounds);
  ar.field("stats.slots", s.slots);
  ar.field("stats.empty_slots", s.empty_slots);
  ar.field("stats.collisions", s.collisions);
  ar.field("stats.singleton_slots", s.singleton_slots);
  ar.field("stats.acked", s.acked);
  ar.field("stats.read_ok", s.read_ok);
  ar.field("stats.read_failed", s.read_failed);
  ar.field("stats.retries", s.retries);
  ar.field("stats.timeouts", s.timeouts);
  ar.field("stats.crc_fails", s.crc_fails);
  ar.field("stats.giveups", s.giveups);
  ar.field("stats.backoff_slots", s.backoff_slots);
  ar.field("stats.deadline_trips", s.deadline_trips);
}

template <class Reading, class Ar>
void io_reading(Reading& s, Ar& ar) {
  ar.field("reading.node", s.node_id);
  ar.field("reading.sensor", s.sensor_id);
  ar.field("reading.value", s.value);
}

/// The partial result a resumed campaign continues from. The health
/// histogram goes through a flattened (section, letter) -> count copy,
/// rebuilt afterwards (unchanged when saving).
template <class Ar>
void io_result(CampaignResult& res, Ar& ar) {
  const auto series = [&ar](std::string_view key, TimeSeries& ts) {
    const auto v = ts.values();
    ar.value(key, std::vector<Real>(v.begin(), v.end()),
             [&](auto values) { ts.set_values(std::move(values)); });
  };
  series("series.acceleration", res.acceleration);
  series("series.stress", res.stress);
  series("series.stress_side", res.stress_side);
  series("series.humidity", res.humidity);
  series("series.temperature", res.temperature);
  series("series.pressure", res.pressure);
  series("series.pao", res.pao);

  ar.seq("result.minute_reports", res.minute_reports, [&](auto& row) {
    for (auto& sec : row) {
      ar.field("report.section", sec.section);
      ar.field("report.pedestrians", sec.pedestrians);
      ar.field("report.health", sec.health, HealthLevel::kA, HealthLevel::kF);
      ar.field("report.speed", sec.walking_speed);
    }
  });

  std::map<std::pair<char, char>, int> hist;
  for (const auto& [sec, m] : res.health_histogram) {
    for (const auto& [letter, count] : m) hist[{sec, letter}] = count;
  }
  ar.seq("result.health_histogram", hist, [&](auto& entry) {
    ar.field("hist.section", entry.first.first);
    ar.field("hist.letter", entry.first.second);
    ar.field("hist.count", entry.second);
  });
  res.health_histogram.clear();
  for (const auto& [key, count] : hist) {
    res.health_histogram[key.first][key.second] = count;
  }

  ar.field("result.limit_violations", res.limit_violations);
  ar.seq("result.capsule_readings", res.capsule_readings,
         [&](auto& reading) { io_reading(reading, ar); });
  ar.seq("result.capsule_log", res.capsule_log, [&](auto& entry) {
    io_reading(entry.reading, ar);
    ar.field("log.stale", entry.stale);
    ar.field("log.age_hours", entry.age_hours);
  });
  ar.seq("result.max_staleness", res.max_staleness_hours, [&](auto& entry) {
    ar.field("staleness.node", entry.first);
    ar.field("staleness.hours", entry.second);
  });
  io_stats(res.inventory_totals, ar);
}

}  // namespace

MonitoringCampaign::MonitoringCampaign(Config config)
    : config_(std::move(config)) {}

CampaignResult MonitoringCampaign::run() { return run_impl(false); }

CampaignResult MonitoringCampaign::resume() {
  if (config_.checkpoint_path.empty()) {
    throw std::runtime_error("resume: Config::checkpoint_path is empty");
  }
  return run_impl(true);
}

CampaignResult MonitoringCampaign::run_impl(bool from_checkpoint) {
  CampaignResult result;
  const Real dt_s = config_.step_minutes * 60.0;
  result.acceleration = TimeSeries("midspan-acceleration", dt_s, "m/s^2");
  result.stress = TimeSeries("midspan-stress", dt_s, "MPa");
  result.stress_side = TimeSeries("sidespan-stress", dt_s, "MPa");
  result.humidity = TimeSeries("humidity", dt_s, "%RH");
  result.temperature = TimeSeries("air-temperature", dt_s, "degC");
  result.pressure = TimeSeries("barometric-pressure", dt_s, "kPa");
  result.pao = TimeSeries("worst-pao", dt_s, "m^2/ped");

  WeatherModel weather(config_.weather, config_.seed ^ 0x77);
  FootbridgeModel bridge(config_.bridge, config_.seed ^ 0xb1);

  // The EcoCapsule pilot deployment: capsules spread along the main span,
  // interrogated through the protocol stack every capsule_poll_hours.
  core::InventorySession::Config sess_cfg;
  sess_cfg.structure = channel::structures::s3_common_wall();
  sess_cfg.tx_voltage = 200.0;
  sess_cfg.snr_at_contact_db = config_.capsule_snr_at_contact_db;
  sess_cfg.inventory.q = 3;
  sess_cfg.inventory.retry = config_.retry;
  sess_cfg.fault = config_.fault;
  sess_cfg.supervisor = config_.supervisor;
  sess_cfg.seed = config_.seed ^ 0xcaf;
  core::InventorySession session(sess_cfg);
  for (int i = 0; i < config_.capsule_count; ++i) {
    core::DeployedNode n;
    n.node_id = static_cast<std::uint16_t>(0x100 + i);
    n.distance = 0.5 + 0.8 * static_cast<Real>(i);
    session.deploy(n);
  }

  // Per-channel hold state for the degradation path.
  HoldMap last_good;
  std::size_t start_step = 0;

  // Config fingerprint: a checkpoint only resumes the campaign that wrote
  // it. Hexfloat round trips are exact, so == is the right test.
  const auto fingerprint = [this](auto& ar) {
    ar.expect("config.days", config_.days);
    ar.expect("config.step_minutes", config_.step_minutes);
    ar.expect("config.capsule_count", config_.capsule_count);
    ar.expect("config.poll_hours", config_.capsule_poll_hours);
    ar.expect("config.seed", config_.seed);
    ar.expect("config.supervised", config_.supervisor.enabled);
  };
  // State after step k-1 with cursor k resumes at step k: everything the
  // loop body mutates is serialized, so the continuation replays the exact
  // draw sequence of an uninterrupted run.
  std::size_t resume_step = 0;
  const auto payload = [&](auto& ar) {
    ar.field("campaign.cursor", resume_step);
    io_result(result, ar);
    ar.seq("campaign.held", last_good, [&](auto& entry) {
      ar.field("reading.node", entry.first.first);
      ar.field("reading.sensor", entry.first.second);
      ar.field("reading.value", entry.second.first);
      ar.field("held.hours", entry.second.second);
    });
    ar.nested(weather);
    ar.nested(bridge);
    ar.nested(session);
  };
  if (from_checkpoint) {
    dsp::ser::load_file(config_.checkpoint_path, kCheckpointHeader,
                        fingerprint, payload);
    start_step = resume_step;
  }

  const auto steps = static_cast<std::size_t>(
      config_.days * 24.0 * 60.0 / config_.step_minutes);
  const auto poll_every = static_cast<std::size_t>(
      config_.capsule_poll_hours * 60.0 / config_.step_minutes);
  const std::size_t checkpoint_every =
      (config_.checkpoint_path.empty() || config_.checkpoint_hours <= 0.0)
          ? 0
          : static_cast<std::size_t>(config_.checkpoint_hours * 60.0 /
                                     config_.step_minutes);
  const std::array<char, 5> letters{'A', 'B', 'C', 'D', 'E'};

  if (config_.record_series) {
    // Size the sample logs once so the step loop never reallocates them
    // (the allocation-stability contract the fleet shards rely on).
    for (TimeSeries* ts :
         {&result.acceleration, &result.stress, &result.stress_side,
          &result.humidity, &result.temperature, &result.pressure,
          &result.pao}) {
      ts->reserve(steps);
    }
    result.minute_reports.reserve(steps / 60 + 1);
  }

  const auto write_checkpoint = [&](std::size_t next_step) {
    resume_step = next_step;
    dsp::ser::save_file(config_.checkpoint_path, kCheckpointHeader,
                        fingerprint, payload);
  };

  for (std::size_t k = start_step; k < steps; ++k) {
    const Real t_days = static_cast<Real>(k) * config_.step_minutes / (24.0 * 60.0);
    const WeatherSample w = weather.sample(t_days);
    // Scenario modulation: evaluated fresh from t_days each step (pure
    // function), so resumed runs reconstruct the same modifier sequence.
    StepModifiers mods;
    if (config_.modulate) mods = config_.modulate(t_days);
    const BridgeState state = bridge.step(t_days, w, mods.load);

    // The "conventional sensor" channels the paper plots.
    if (config_.record_series) {
      result.acceleration.push(state.sections[2].vertical_acceleration);
      result.stress.push(state.sections[2].stress_mpa);
      result.stress_side.push(state.sections[4].stress_mpa);
      result.humidity.push(w.humidity_pct);
      result.temperature.push(w.temperature_c);
      result.pressure.push(w.pressure_kpa);
    }

    Real worst_pao = std::numeric_limits<Real>::infinity();
    for (int s = 0; s < 5; ++s) {
      const auto& sec = state.sections[static_cast<std::size_t>(s)];
      worst_pao = std::min(worst_pao, sec.pao);
      result.health_histogram[letters[static_cast<std::size_t>(s)]]
                             [health_letter(sec.health)]++;
      const LimitCheck check = check_limits(
          sec.vertical_acceleration, sec.lateral_acceleration,
          sec.stress_mpa * 1.0e6, sec.deflection_m,
          std::isinf(sec.pao) ? 100.0 : sec.pao);
      if (!check.all_ok()) ++result.limit_violations;
    }
    if (config_.record_series) {
      result.pao.push(std::isinf(worst_pao) ? 1000.0 : worst_pao);
    }

    if (config_.on_step) config_.on_step(k, t_days, w, state);

    // Periodic minute report (sampled hourly to keep memory sane).
    if (config_.record_series && k % 60 == 0) {
      std::array<SectionReport, 5> row;
      for (int s = 0; s < 5; ++s) {
        const auto& sec = state.sections[static_cast<std::size_t>(s)];
        row[static_cast<std::size_t>(s)] =
            SectionReport{letters[static_cast<std::size_t>(s)],
                          sec.pedestrians, sec.health, sec.walking_speed};
      }
      result.minute_reports.push_back(row);
    }

    // EcoCapsule interrogation: update environments from the bridge state,
    // then run a protocol-level inventory pass.
    if (poll_every > 0 && k % poll_every == 0) {
      // Scenario fault windows: the override plan binds to this poll's
      // injector (pass index is serialized, the plan is re-derived from
      // t_days — both resume-safe).
      if (mods.override_poll_fault) session.set_fault_plan(mods.poll_fault);
      for (int i = 0; i < config_.capsule_count; ++i) {
        node::ConcreteEnvironment env;
        env.temperature_c = w.temperature_c + 2.0;  // concrete runs warm
        env.relative_humidity = std::min<Real>(w.humidity_pct + 8.0, 100.0);
        env.acceleration = state.sections[2].vertical_acceleration;
        env.stress_mpa = state.sections[2].stress_mpa;
        env.strain_x = state.sections[2].stress_mpa * 1.0e6 / 27.8e9;
        env.strain_y = 0.4 * env.strain_x;
        session.set_environment(static_cast<std::uint16_t>(0x100 + i), env);
      }
      const std::vector<std::uint8_t> sensor_ids{
          static_cast<std::uint8_t>(node::SensorId::kAcceleration),
          static_cast<std::uint8_t>(node::SensorId::kStress)};
      const auto readings = session.collect(sensor_ids);
      if (config_.record_series) {
        result.capsule_readings.insert(result.capsule_readings.end(),
                                       readings.readings.begin(),
                                       readings.readings.end());
      }
      accumulate(result.inventory_totals, readings.stats);

      // Graceful degradation: every (capsule, sensor) channel that has ever
      // reported gets a log entry each poll. Missing channels hold their
      // last good value and carry a staleness age for the dashboard.
      const Real now_hours = t_days * 24.0;
      for (const auto& r : readings.readings) {
        last_good[{r.node_id, r.sensor_id}] = {r.value, now_hours};
      }
      for (int i = 0; i < config_.capsule_count; ++i) {
        const auto node_id = static_cast<std::uint16_t>(0x100 + i);
        for (std::uint8_t sensor : sensor_ids) {
          const auto it = last_good.find({node_id, sensor});
          if (it == last_good.end()) continue;  // never reported: no value
          const Real age = now_hours - it->second.second;
          const bool stale = age > 0.0;
          if (config_.record_series) {
            result.capsule_log.push_back(CapsuleReading{
                {node_id, sensor, it->second.first}, stale, age});
          }
          if (stale) {
            Real& worst = result.max_staleness_hours[node_id];
            worst = std::max(worst, age);
          }
        }
      }
    }

    const std::size_t cursor = k + 1;
    if (config_.stop_after_steps > 0 && cursor >= config_.stop_after_steps &&
        cursor < steps) {
      // Simulated crash: leave a final checkpoint and stop mid-campaign.
      if (!config_.checkpoint_path.empty()) write_checkpoint(cursor);
      result.completed = false;
      break;
    }
    if (checkpoint_every > 0 && cursor % checkpoint_every == 0 &&
        cursor < steps) {
      write_checkpoint(cursor);
    }
  }

  if (const auto* sup = session.supervisor()) {
    result.link_states = sup->states();
    result.supervisor_totals = sup->totals();
  }
  if (!result.completed || !config_.record_series) return result;

  // Anomaly detection: rolling z-score of the acceleration envelope. The
  // rollup scratch comes from this thread's workspace arena, so a fleet
  // shard grinding through hundreds of structures reuses the same three
  // buffers instead of re-allocating them per campaign.
  auto& ws = core::WorkspacePool::shared().local();
  const std::size_t samples = result.acceleration.size();
  auto roll = ws.real(samples);
  result.acceleration.rolling_stddev(config_.baseline_window, *roll);
  // Baseline scale = median of the rolling stddev.
  auto sorted = ws.real(samples);
  std::copy(roll->begin(), roll->end(), sorted->begin());
  std::sort(sorted->begin(), sorted->end());
  const Real baseline = sorted->empty() ? 0.0 : (*sorted)[sorted->size() / 2];
  const Real short_window = 6.0 * 60.0 / config_.step_minutes;  // 6 h
  auto short_roll = ws.real(samples);
  result.acceleration.rolling_stddev(static_cast<std::size_t>(short_window),
                                     *short_roll);

  bool in_anomaly = false;
  AnomalyWindow current;
  for (std::size_t k = 0; k < short_roll->size(); ++k) {
    const Real z = (baseline > 0.0) ? (*short_roll)[k] / baseline : 0.0;
    const Real t_days = static_cast<Real>(k) * config_.step_minutes / (24.0 * 60.0);
    if (!in_anomaly && z > config_.zscore_threshold) {
      in_anomaly = true;
      current = AnomalyWindow{t_days, t_days, z};
    } else if (in_anomaly) {
      if (z > current.peak_zscore) current.peak_zscore = z;
      if (z < 0.7 * config_.zscore_threshold) {
        current.end_day = t_days;
        result.anomalies.push_back(current);
        in_anomaly = false;
      }
    }
  }
  if (in_anomaly) {
    current.end_day = config_.days;
    result.anomalies.push_back(current);
  }
  return result;
}

}  // namespace ecocap::shm
