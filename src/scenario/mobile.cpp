#include "scenario/mobile.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "channel/structures.hpp"
#include "core/inventory_session.hpp"
#include "dsp/serialize.hpp"

namespace ecocap::scenario {

namespace {

channel::Structure structure_by_name(const std::string& name) {
  if (name == "s1") return channel::structures::s1_slab();
  if (name == "s2") return channel::structures::s2_column();
  if (name == "s3") return channel::structures::s3_common_wall();
  if (name == "s4") return channel::structures::s4_protective_wall();
  throw std::runtime_error("mobile scenario: unknown structure " + name);
}

/// One delivered reading in the checkpoint replay log (rebuilds the
/// telemetry store on resume).
struct LoggedReading {
  std::uint64_t store_node = 0;
  std::uint32_t t_sec = 0;
  Real value = 0.0;
};

struct Progress {
  std::size_t next_stop = 0;
  std::uint32_t clock_sec = 0;  // route clock at the next stop's arrival
  // Accumulated route totals.
  std::int64_t delivered = 0;
  std::int64_t read_ok = 0;
  std::int64_t giveups = 0;
  std::int64_t reachable = 0;
  std::vector<Real> trace;  // per-stop [reachable, delivered, read_ok]
  std::vector<LoggedReading> log;
};

template <class Ar>
void io_progress(Progress& p, Ar& ar) {
  ar.field("mobile.next_stop", p.next_stop);
  ar.field("mobile.clock_sec", p.clock_sec);
  ar.field("mobile.delivered", p.delivered);
  ar.field("mobile.read_ok", p.read_ok);
  ar.field("mobile.giveups", p.giveups);
  ar.field("mobile.reachable", p.reachable);
  ar.field("mobile.trace", p.trace);
  ar.seq("mobile.log", p.log, [&ar](auto& lr) {
    ar.field("log.node", lr.store_node);
    ar.field("log.t_sec", lr.t_sec);
    ar.field("log.value", lr.value);
  });
}

constexpr Real kTravelSeconds = 60.0;  // between consecutive stops

}  // namespace

MobileRunner::MobileRunner(const ScenarioScript& script,
                           const RunControl& control)
    : script_(script), control_(control) {}

ScenarioOutcome MobileRunner::run(bool from_checkpoint) {
  Progress p;
  const auto fingerprint = [this](auto& ar) {
    ar.expect("scenario.name", script_.name);
    ar.expect("scenario.seed", script_.seed);
    ar.expect("scenario.mode", "mobile");
    ar.expect("scenario.stops", script_.route.size());
  };
  const auto payload = [&p](auto& ar) { io_progress(p, ar); };
  if (from_checkpoint) {
    dsp::ser::load_file(control_.checkpoint_path, kScenarioCheckpointHeader,
                        fingerprint, payload);
  }

  const auto write_checkpoint = [&]() {
    if (control_.checkpoint_path.empty()) return;
    dsp::ser::save_file(control_.checkpoint_path, kScenarioCheckpointHeader,
                        fingerprint, payload);
  };

  // Telemetry store sized for the whole route; resumed runs replay the
  // delivered-readings log so store-derived aggregates stay byte-identical.
  std::size_t total_nodes = 0;
  for (const auto& stop : script_.route) {
    total_nodes += static_cast<std::size_t>(std::max(stop.nodes, 0));
  }
  fleet::TelemetryStore::Config store_cfg;
  store_cfg.nodes = total_nodes;
  fleet::TelemetryStore store(store_cfg);
  for (const auto& lr : p.log) {
    store.append(static_cast<std::size_t>(lr.store_node), lr.t_sec,
                 static_cast<float>(lr.value));
  }

  ScenarioOutcome out;
  out.name = script_.name;
  out.mode = Mode::kMobile;

  const std::vector<std::uint8_t> sensor_ids{
      static_cast<std::uint8_t>(node::SensorId::kAcceleration),
      static_cast<std::uint8_t>(node::SensorId::kStress)};

  for (std::size_t i = p.next_stop; i < script_.route.size(); ++i) {
    const RouteStop& stop = script_.route[i];

    core::InventorySession::Config cfg;
    cfg.structure = structure_by_name(stop.structure);
    cfg.tx_voltage = stop.tx_voltage;
    cfg.snr_at_contact_db = stop.snr_at_contact_db;
    cfg.inventory.q = 3;
    cfg.inventory.retry.enabled = script_.retry;
    // Stop i is trial i of the route seed: independent of every other stop.
    cfg.seed = dsp::trial_seed(script_.seed, i);
    core::InventorySession session(cfg);

    std::size_t store_base = 0;
    for (std::size_t j = 0; j < i; ++j) {
      store_base += static_cast<std::size_t>(std::max(script_.route[j].nodes, 0));
    }
    int reachable = 0;
    for (int n = 0; n < stop.nodes; ++n) {
      core::DeployedNode dn;
      dn.node_id = static_cast<std::uint16_t>(0x200 + n);
      dn.distance = stop.first_m + stop.spacing_m * static_cast<Real>(n);
      session.deploy(dn);
      if (session.node_reachable(dn.distance)) ++reachable;
    }

    // Dwell-time scheduling: the van affords floor(dwell / pass time)
    // passes at this stop, at least one.
    const int passes = std::max(
        1, static_cast<int>(stop.dwell_minutes * 60.0 / script_.pass_seconds));

    std::int64_t stop_delivered = 0, stop_read_ok = 0;
    for (int pass = 0; pass < passes; ++pass) {
      const auto t_sec = static_cast<std::uint32_t>(
          p.clock_sec +
          static_cast<std::uint32_t>(static_cast<Real>(pass) *
                                     script_.pass_seconds));
      const reader::InventoryResult res = session.collect(sensor_ids);
      stop_read_ok += res.stats.read_ok;
      p.giveups += res.stats.giveups;
      stop_delivered += static_cast<std::int64_t>(res.inventoried_ids.size());
      for (const auto& reading : res.readings) {
        const auto node_index =
            static_cast<std::size_t>(reading.node_id - 0x200);
        if (node_index >= static_cast<std::size_t>(stop.nodes)) continue;
        LoggedReading lr;
        lr.store_node = store_base + node_index;
        lr.t_sec = t_sec;
        lr.value = reading.value;
        store.append(static_cast<std::size_t>(lr.store_node), lr.t_sec,
                     static_cast<float>(lr.value));
        p.log.push_back(lr);
      }
    }
    p.delivered += stop_delivered;
    p.read_ok += stop_read_ok;
    p.reachable += reachable;
    p.trace.push_back(static_cast<Real>(reachable));
    p.trace.push_back(static_cast<Real>(stop_delivered));
    p.trace.push_back(static_cast<Real>(stop_read_ok));

    p.clock_sec += static_cast<std::uint32_t>(
        stop.dwell_minutes * 60.0 + kTravelSeconds);
    p.next_stop = i + 1;
    write_checkpoint();

    if (control_.stop_after_units > 0 &&
        p.next_stop >= control_.stop_after_units &&
        p.next_stop < script_.route.size()) {
      out.completed = false;  // simulated crash mid-route
      return out;
    }
  }

  for (std::size_t n = 0; n < store.nodes(); ++n) store.flush(n);
  std::vector<float> scratch;
  const auto health = store.fleet_percentiles(scratch);

  out.trace = p.trace;
  out.scalars["stops"] = static_cast<Real>(script_.route.size());
  out.scalars["reachable_nodes"] = static_cast<Real>(p.reachable);
  out.scalars["delivered"] = static_cast<Real>(p.delivered);
  out.scalars["read_ok"] = static_cast<Real>(p.read_ok);
  out.scalars["giveups"] = static_cast<Real>(p.giveups);
  out.scalars["store_appends"] = static_cast<Real>(store.total_appends());
  out.scalars["store_nodes_reporting"] =
      static_cast<Real>(health.nodes_reporting);
  out.scalars["store_p50"] = static_cast<Real>(health.p50);
  out.scalars["store_p95"] = static_cast<Real>(health.p95);
  return out;
}

}  // namespace ecocap::scenario
