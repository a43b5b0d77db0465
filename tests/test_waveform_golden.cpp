// Waveform-level golden pins: the absolute output of complete
// tx -> channel -> node -> rx runs, not the agreement of two code paths.
// Each vector hashes (FNV-1a, tests/golden_util.hpp) the bit patterns of
// every double a run reports, so a refactor of the channel, harvester or
// receiver that moves a single output bit fails here. The outputs are
// split over two digests:
//   * decisions — powered/decoded flags, payload bits, sensor values,
//     ranging validity and distance, inventory counts, stored telemetry;
//   * floats — decision SNRs, carrier estimates, cap voltages.
// A change that should move only floats (a numerically different but
// equivalent receiver) regenerates the floats digests and must leave every
// decisions digest byte-identical.
//
// Pinned:
//   * LinkSimulator::interrogate / uplink_once / charge over three seeds on
//     the default system, a mid-intensity fault plan, and ray-traced
//     multipath;
//   * LinkSimulator::estimate_node_distance (the delay-preserving channel);
//   * MultiNodeLink::run_inventory (parallel per-node legs, collisions);
//   * one StreamingReader's telemetry node bytes and counters after a
//     mid-run StreamFaultEvent.
//
// Regenerating after an intentional change:
//   ./test_waveform_golden --regen     # rewrites tests/golden/waveform/
// then commit the updated files with the change that caused them.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/link_simulator.hpp"
#include "core/multinode_link.hpp"
#include "dsp/serialize.hpp"
#include "fault/fault.hpp"
#include "stream/streaming_reader.hpp"

#include "golden_util.hpp"

#ifndef ECOCAP_GOLDEN_DIR
#error "ECOCAP_GOLDEN_DIR must point at tests/golden/waveform"
#endif

namespace ecocap {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 3};

void check_golden(const std::string& name, const golden::Digests& digests,
                  const std::map<std::string, double>& scalars) {
  golden::check_golden(ECOCAP_GOLDEN_DIR, name, digests, scalars);
}

void push_result(golden::Digests& d, const core::InterrogationResult& r) {
  std::vector<double>& s = d["decisions"];
  s.push_back(r.node_powered);
  s.push_back(r.command_decoded);
  s.push_back(r.uplink_decoded);
  s.push_back(static_cast<double>(r.uplink_payload.size()));
  for (const auto b : r.uplink_payload) s.push_back(b);
  s.push_back(r.sensor_value.has_value());
  s.push_back(r.sensor_value.value_or(0.0));
  std::vector<double>& f = d["floats"];
  f.push_back(r.cap_voltage);
  f.push_back(r.uplink_snr_db);
  f.push_back(r.carrier_estimate);
}

/// interrogate, uplink_once and charge on fresh simulators per seed.
void check_link(const std::string& name, const core::SystemConfig& system) {
  const core::SystemSnapshot snapshot =
      std::make_shared<const core::SystemConfig>(system);
  dsp::Rng payload_rng(99);
  const phy::Bits payload = phy::random_bits(32, payload_rng);
  golden::Digests series;
  std::map<std::string, double> scalars;
  double delivered = 0.0, decoded = 0.0;
  for (const std::uint64_t seed : kSeeds) {
    core::LinkSimulator interrogator(snapshot, seed);
    const auto r = interrogator.interrogate(node::SensorId::kTemperature,
                                            node::ConcreteEnvironment{});
    push_result(series, r);
    if (r.sensor_value) ++delivered;

    core::LinkSimulator uplinker(snapshot, seed);
    const auto u = uplinker.uplink_once(payload);
    push_result(series, u);
    if (u.uplink_decoded) ++decoded;

    core::LinkSimulator charger(snapshot, seed);
    push_result(series, charger.charge(0.05));
  }
  scalars["interrogations_delivered"] = delivered;
  scalars["uplinks_decoded"] = decoded;
  check_golden(name, series, scalars);
}

TEST(WaveformGolden, LinkDefaultSystem) {
  check_link("link_default", core::default_system());
}

TEST(WaveformGolden, LinkUnderFaultPlan) {
  auto system = core::default_system();
  system.fault = fault::FaultPlan::at_intensity(0.5);
  check_link("link_fault_0p5", system);
}

TEST(WaveformGolden, LinkWithMultipath) {
  // The default 15 cm block traces no boundary reflections, so the
  // multipath pin runs in a common wall, with a 20 degree prism whose
  // early P copy adds a second direct tap: 89 taps spread over 0.1 s.
  auto system = core::default_system();
  system.structure = channel::structures::s3_common_wall();
  system.channel.distance = 0.5;
  system.channel.prism_angle_deg = 20.0;
  system.channel.use_multipath = true;
  system.transmitter.tx_voltage = 200.0;
  check_link("link_multipath", system);
}

TEST(WaveformGolden, NodeRanging) {
  std::vector<double> series;  // validity, distance, round trip: decisions
  std::map<std::string, double> scalars;
  for (const std::uint64_t seed : kSeeds) {
    auto system = core::default_system();
    system.seed = seed;
    core::LinkSimulator sim(system);
    const auto est = sim.estimate_node_distance();
    series.push_back(est.valid);
    series.push_back(est.distance);
    series.push_back(est.round_trip_s);
    scalars["distance_seed_" + std::to_string(seed)] = est.distance;
  }
  check_golden("ranging", {{"decisions", series}}, scalars);
}

core::MultiNodeLink::Config multinode_config(std::uint8_t q,
                                             std::uint64_t seed,
                                             double noise_sigma) {
  core::MultiNodeLink::Config cfg;
  cfg.structure = channel::structures::s3_common_wall();
  cfg.channel.fs = 2.0e6;
  cfg.channel.noise_sigma = noise_sigma;
  cfg.transmitter.carrier.fs = cfg.channel.fs;
  cfg.transmitter.tx_voltage = 200.0;
  cfg.receiver.fs = cfg.channel.fs;
  cfg.receiver.uplink.bitrate = 1000.0;
  cfg.capsule.firmware.uplink.bitrate = 1000.0;
  cfg.capsule.firmware.blf = 4000.0;
  cfg.q = q;
  cfg.seed = seed;
  return cfg;
}

TEST(WaveformGolden, MultiNodeInventory) {
  std::vector<double> series;
  std::map<std::string, double> scalars;
  int run = 0;
  for (const double sigma : {1e-4, 3e-3}) {
    auto cfg = multinode_config(1, 9, sigma);
    cfg.max_rounds = 3;
    core::MultiNodeLink link(cfg);
    for (int i = 0; i < 3; ++i) {
      core::MultiNodeLink::NodePlacement p;
      p.node_id = static_cast<std::uint16_t>(0x0600 + i);
      p.distance = 0.3 + 0.25 * i;
      link.deploy(p);
    }
    const auto r = link.run_inventory();
    series.push_back(r.slots);
    series.push_back(r.collisions);
    series.push_back(r.empty_slots);
    series.push_back(r.decode_failures);
    series.push_back(r.collision_false_decodes);
    series.push_back(static_cast<double>(r.inventoried_ids.size()));
    for (const auto id : r.inventoried_ids) series.push_back(id);
    scalars["identified_run_" + std::to_string(run++)] =
        static_cast<double>(r.inventoried_ids.size());
  }
  check_golden("multinode_inventory", {{"decisions", series}}, scalars);
}

TEST(WaveformGolden, StreamingReaderAfterMidRunFault) {
  reader::StreamingReaderConfig config;
  config.stream.system = core::default_system();
  config.stream.system.seed = 5;
  config.stream.block_size = 256;
  config.poll_interval_s = 0.25;
  config.warmup_s = 0.5;
  config.fault_events.push_back(
      reader::StreamFaultEvent{1.25, fault::FaultPlan::at_intensity(0.5)});
  reader::StreamingReader daemon(config);
  const auto stats = daemon.run(2.5);

  dsp::ser::Writer w("waveform-golden-store v1");
  daemon.telemetry().save_node(daemon.store_node(), w);
  const std::string bytes = w.payload();
  std::vector<double> series(bytes.begin(), bytes.end());
  for (const std::uint64_t v :
       {stats.polls, stats.delivered, stats.missed, stats.frames_scheduled,
        stats.frames_dropped_unpowered, stats.brownouts,
        stats.fault_events_applied}) {
    series.push_back(static_cast<double>(v));
  }
  check_golden("streaming_reader_fault", {{"decisions", series}},
               {{"delivered", static_cast<double>(stats.delivered)},
                {"polls", static_cast<double>(stats.polls)},
                {"fault_events_applied",
                 static_cast<double>(stats.fault_events_applied)}});
}

}  // namespace
}  // namespace ecocap

int main(int argc, char** argv) {
  return ecocap::golden::golden_test_main(argc, argv);
}
