#include "scenario/multi_reader.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "channel/structures.hpp"
#include "core/inventory_session.hpp"
#include "dsp/serialize.hpp"

namespace ecocap::scenario {

namespace {

constexpr int kSchemes = 3;  // 0 uncoordinated, 1 tdma, 2 lbt
constexpr int kContentionWindow = 8;
const std::array<const char*, kSchemes> kSchemeNames{"uncoordinated", "tdma",
                                                     "lbt"};

struct Progress {
  std::uint64_t slot = 0;  // global cursor in [0, kSchemes * passes]
  std::array<std::int64_t, kSchemes> delivered{};
  std::array<std::int64_t, kSchemes> read_ok{};
  std::array<std::int64_t, kSchemes> transmissions{};
  std::array<std::int64_t, kSchemes> collisions{};
};

template <class Ar>
void io_progress(Progress& p, Ar& ar) {
  ar.field("multi.slot", p.slot);
  for (std::size_t s = 0; s < kSchemes; ++s) {
    ar.field("multi.delivered", p.delivered[s]);
    ar.field("multi.read_ok", p.read_ok[s]);
    ar.field("multi.transmissions", p.transmissions[s]);
    ar.field("multi.collisions", p.collisions[s]);
  }
}

}  // namespace

MultiReaderRunner::MultiReaderRunner(const ScenarioScript& script,
                                     const RunControl& control)
    : script_(script), control_(control) {}

ScenarioOutcome MultiReaderRunner::run(bool from_checkpoint) {
  const auto passes = static_cast<std::uint64_t>(std::max(script_.passes, 1));
  const std::uint64_t total_slots = kSchemes * passes;

  // Builds the victim reader's session for one scheme: scheme k is trial k
  // of the script seed, so schemes are independent, order-insensitive
  // trials.
  const auto make_session = [&](int scheme) {
    core::InventorySession::Config cfg;
    cfg.structure = channel::structures::s3_common_wall();
    cfg.tx_voltage = 200.0;
    cfg.snr_at_contact_db = script_.snr_at_contact_db;
    cfg.inventory.q = 3;
    cfg.inventory.retry.enabled = script_.retry;
    cfg.seed = dsp::trial_seed(script_.seed, 0x900 + scheme);
    core::InventorySession session(cfg);
    for (int i = 0; i < script_.capsules; ++i) {
      core::DeployedNode n;
      n.node_id = static_cast<std::uint16_t>(0x300 + i);
      n.distance = 0.4 + 0.5 * static_cast<Real>(i);
      session.deploy(n);
    }
    return session;
  };

  Progress p;
  // The LBT coordinator: one shared backoff stream all readers draw from,
  // in reader order — a pure function of (seed, draw index), serialized in
  // the checkpoint so resumed slots continue the exact stream.
  dsp::Rng coordinator(dsp::trial_seed(script_.seed, 0xc0de));
  std::optional<core::InventorySession> session;

  const auto fingerprint = [&](auto& ar) {
    ar.expect("scenario.name", script_.name);
    ar.expect("scenario.seed", script_.seed);
    ar.expect("scenario.mode", "multi_reader");
    ar.expect("scenario.passes", passes);
  };
  const auto payload = [&](auto& ar) {
    io_progress(p, ar);
    ar.field("multi.coordinator", coordinator);
    // Mid-scheme kill: the scheme's session and its stream state. At a
    // scheme boundary there is no session record and the loop constructs a
    // fresh one, exactly as an unkilled run would.
    ar.optional("multi.has_session", session, [&] {
      return make_session(static_cast<int>(p.slot / passes));
    });
  };
  if (from_checkpoint) {
    dsp::ser::load_file(control_.checkpoint_path, kScenarioCheckpointHeader,
                        fingerprint, payload);
  }

  const auto write_checkpoint = [&]() {
    if (control_.checkpoint_path.empty()) return;
    dsp::ser::save_file(control_.checkpoint_path, kScenarioCheckpointHeader,
                        fingerprint, payload);
  };

  const std::vector<std::uint8_t> sensor_ids{
      static_cast<std::uint8_t>(node::SensorId::kAcceleration),
      static_cast<std::uint8_t>(node::SensorId::kStress)};
  const int readers = std::max(script_.readers, 2);

  ScenarioOutcome out;
  out.name = script_.name;
  out.mode = Mode::kMultiReader;

  while (p.slot < total_slots) {
    const auto scheme = static_cast<int>(p.slot / passes);
    const std::uint64_t slot = p.slot % passes;
    if (slot == 0 && !session) session.emplace(make_session(scheme));

    bool transmit = false;
    bool interfered = false;
    switch (scheme) {
      case 0:  // uncoordinated: everyone keys up every slot
        transmit = true;
        interfered = true;
        break;
      case 1:  // tdma: round-robin slot ownership, the victim owns slot 0
        transmit = (slot % static_cast<std::uint64_t>(readers) == 0);
        interfered = false;
        break;
      default: {  // lbt: shared backoff draws, strict minimum wins clean
        std::uint64_t mine = 0, best_other = kContentionWindow;
        for (int rd = 0; rd < readers; ++rd) {
          const std::uint64_t draw = coordinator.index(kContentionWindow);
          if (rd == 0) mine = draw;
          else best_other = std::min(best_other, draw);
        }
        transmit = mine <= best_other;
        interfered = (mine == best_other);  // tie: both key up, collide
        break;
      }
    }

    if (transmit) {
      core::InventorySession::InterferenceSpec spec;
      spec.active = interfered;
      spec.separation_m = script_.reader_separation_m;
      spec.carrier_offset_hz = script_.carrier_offset_hz;
      session->set_interference(spec);
      const reader::InventoryResult res = session->collect(sensor_ids);
      const auto s = static_cast<std::size_t>(scheme);
      p.transmissions[s]++;
      if (interfered) p.collisions[s]++;
      p.delivered[s] +=
          static_cast<std::int64_t>(res.inventoried_ids.size());
      p.read_ok[s] += res.stats.read_ok;
    }

    ++p.slot;
    if (p.slot % passes == 0) session.reset();  // scheme finished
    write_checkpoint();
    if (control_.stop_after_units > 0 && p.slot >= control_.stop_after_units &&
        p.slot < total_slots) {
      out.completed = false;  // simulated crash mid-campaign
      return out;
    }
  }

  const Real denom = static_cast<Real>(script_.capsules) *
                     static_cast<Real>(passes);
  for (int s = 0; s < kSchemes; ++s) {
    const auto i = static_cast<std::size_t>(s);
    const Real delivery =
        denom > 0.0 ? static_cast<Real>(p.delivered[i]) / denom : 0.0;
    out.trace.push_back(delivery);
    const std::string prefix = kSchemeNames[i];
    out.scalars["delivery_" + prefix] = delivery;
    out.scalars["read_ok_" + prefix] = static_cast<Real>(p.read_ok[i]);
    out.scalars["transmissions_" + prefix] =
        static_cast<Real>(p.transmissions[i]);
    out.scalars["collisions_" + prefix] = static_cast<Real>(p.collisions[i]);
  }
  out.scalars["readers"] = static_cast<Real>(readers);
  out.scalars["passes"] = static_cast<Real>(passes);
  return out;
}

}  // namespace ecocap::scenario
