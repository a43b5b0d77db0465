#include "core/inventory_session.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace ecocap::core {

InventorySession::InventorySession(Config config)
    : config_(std::move(config)),
      budget_(config_.structure),
      rng_(config_.seed) {
  config_.inventory.retry.validate();
  if (config_.supervisor.enabled) {
    supervisor_.emplace(config_.supervisor);  // ctor validates
  }
}

void InventorySession::deploy(const DeployedNode& node) {
  node::FirmwareConfig fc;
  fc.node_id = node.node_id;
  fc.uplink = config_.uplink;
  Slot slot;
  slot.info = node;
  slot.firmware =
      std::make_unique<node::Firmware>(fc, config_.seed ^ node.node_id);
  slot.firmware->power_on();  // session assumes the CBW is charging them
  nodes_.push_back(std::move(slot));
  if (supervisor_) supervisor_->track(node.node_id);
}

Real InventorySession::snr_for_distance(Real distance) const {
  // Round-trip amplitude ~ exp(-2 gamma d) -> power penalty 4 gamma d in
  // nepers = 8.686 * 4 * gamma * d dB... but the reader-node geometry only
  // doubles the one-way path; in dB: 2 * (20 log10 e) * gamma * d.
  const Real one_way_db =
      20.0 * std::log10(std::exp(1.0)) * config_.structure.effective_attenuation *
      distance;
  return config_.snr_at_contact_db - 2.0 * one_way_db;
}

bool InventorySession::node_reachable(Real distance) const {
  const auto range = budget_.max_powerup_range(config_.tx_voltage);
  return range.has_value() && *range >= distance;
}

reader::InventoryResult InventorySession::collect(
    const std::vector<std::uint8_t>& sensor_ids) {
  std::vector<reader::InventoriedNode> round;
  round.reserve(nodes_.size());
  // Ids the supervisor admitted this pass (in deployment order), so their
  // delivery outcomes can be fed back after the engine runs.
  std::vector<std::uint16_t> admitted;
  for (auto& s : nodes_) {
    if (!node_reachable(s.info.distance)) continue;  // unpowered: silent
    if (supervisor_ && !supervisor_->admit(s.info.node_id)) continue;
    reader::InventoriedNode n;
    n.firmware = s.firmware.get();
    n.snr_db = snr_for_distance(s.info.distance);
    if (supervisor_) {
      // The node's current fallback rung buys decision SNR back.
      n.snr_db += supervisor_->snr_delta_db(s.info.node_id);
      admitted.push_back(s.info.node_id);
    }
    if (interference_.active) {
      // The neighbour's carrier rides under every node's backscatter; the
      // decision statistic sees the combined noise + interference floor.
      const Real cir = interference_.model.cir_db(
          config_.structure, s.info.distance, interference_.separation_m,
          interference_.carrier_offset_hz);
      n.snr_db = channel::sinr_db(n.snr_db, cir);
    }
    n.environment = s.info.environment;
    round.push_back(n);
  }
  auto cfg = config_.inventory;
  cfg.sensors_to_read = sensor_ids;
  if (supervisor_) cfg.slot_budget = config_.supervisor.round_slot_budget;
  // The engine seed is drawn exactly once per pass, supervised or not, so
  // enabling supervision never shifts the session's draw sequence.
  reader::InventoryEngine engine(cfg, rng_.engine()());
  // Bind this pass's fault realizations to (seed, pass index). An empty
  // plan attaches nothing so the engine keeps its legacy fast path.
  fault::Injector injector(config_.fault, config_.seed, pass_++);
  if (injector.active()) engine.set_fault_injector(&injector);
  reader::InventoryResult result = engine.run(round);
  if (supervisor_) {
    for (std::size_t i = 0; i < admitted.size(); ++i) {
      const std::uint16_t id = admitted[i];
      const bool delivered =
          std::find(result.inventoried_ids.begin(),
                    result.inventoried_ids.end(),
                    id) != result.inventoried_ids.end();
      supervisor_->observe(id, delivered, round[i].snr_db);
    }
    supervisor_->observe_round(result.stats);
  }
  return result;
}

void InventorySession::set_environment(std::uint16_t node_id,
                                       const node::ConcreteEnvironment& env) {
  for (auto& s : nodes_) {
    if (s.info.node_id == node_id) s.info.environment = env;
  }
}

template <class Self, class Ar>
void InventorySession::io(Self& self, Ar& ar) {
  ar.field("session.rng", self.rng_);
  ar.field("session.pass", self.pass_);
  ar.expect("session.nodes", self.nodes_.size());
  for (auto& s : self.nodes_) ar.nested(*s.firmware);
  ar.expect("session.supervised", self.supervisor_.has_value());
  if (self.supervisor_) ar.nested(*self.supervisor_);
}

void InventorySession::save(dsp::ser::Writer& w) const { io(*this, w); }
void InventorySession::load(dsp::ser::Reader& r) { io(*this, r); }

}  // namespace ecocap::core
