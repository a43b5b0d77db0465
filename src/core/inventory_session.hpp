#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "channel/link_budget.hpp"
#include "channel/snr_models.hpp"
#include "reader/inventory.hpp"
#include "reader/link_supervisor.hpp"

namespace ecocap::core {

using dsp::Real;

/// A capsule deployed at a position inside a structure.
struct DeployedNode {
  std::uint16_t node_id = 0;
  Real distance = 0.5;  // m from the reader along the structure
  node::ConcreteEnvironment environment;
};

/// Protocol-level multi-node session over a structure: per-node SNR derives
/// from the structure's range law (the backscatter round-trip attenuates
/// twice), then the TDMA inventory engine collects readings. This is the
/// layer the SHM application drives on every monitoring pass.
///
/// With `Config::supervisor.enabled` the session runs each pass through a
/// reader::LinkSupervisor: quarantined nodes sit the pass out, the
/// remaining nodes' link SNR reflects their current fallback-ladder rung
/// (slower bitrate -> more decision SNR), the engine runs under the
/// supervisor's round slot budget, and each node's delivery outcome feeds
/// back into its link-quality estimate. Disabled (the default), the pass
/// is bit-identical to the pre-supervisor session.
class InventorySession {
 public:
  struct Config {
    channel::Structure structure;
    Real tx_voltage = 200.0;
    Real snr_at_contact_db = 24.0;  // uplink SNR with the node at the reader
    reader::InventoryEngine::Config inventory;
    phy::Fm0Params uplink;
    /// Fault plan applied per monitoring pass (protocol-level hooks). The
    /// empty default attaches no injector, preserving the legacy draw path.
    fault::FaultPlan fault;
    /// Adaptive link supervision (off by default). Validated at session
    /// construction when enabled.
    reader::SupervisorConfig supervisor;
    std::uint64_t seed = 1;
  };

  /// Validates the inventory retry policy and (when enabled) the
  /// supervisor config; throws std::invalid_argument on bad fields.
  explicit InventorySession(Config config);

  /// Add a node at a position; creates its firmware instance.
  void deploy(const DeployedNode& node);

  /// Uplink SNR for a node at `distance`: contact SNR minus the round-trip
  /// exponential attenuation of the structure. This is the rung-0 SNR; the
  /// supervisor's ladder delta is added on top per node.
  Real snr_for_distance(Real distance) const;

  /// True when a node at `distance` can be powered at the configured TX
  /// voltage (link-budget check).
  bool node_reachable(Real distance) const;

  /// Run one full inventory pass and collect the sensor readings.
  reader::InventoryResult collect(
      const std::vector<std::uint8_t>& sensor_ids);

  /// Replace the session's fault plan (scenario fault windows). Takes
  /// effect from the next pass; the pass counter keeps running, so the
  /// injector stream for pass k is the same whether the plan changed or
  /// not. Setting the same plan is a no-op.
  void set_fault_plan(const fault::FaultPlan& plan) { config_.fault = plan; }

  /// A co-located reader whose carrier leaks into this session's receive
  /// chain. Inactive (the default) leaves collect() bit-identical to the
  /// interference-free session; active, every node's decision SNR becomes
  /// the SINR against the neighbour's carrier. Not part of the checkpoint
  /// state — the scenario layer re-applies it deterministically per pass.
  struct InterferenceSpec {
    bool active = false;
    channel::ReaderInterference model;
    Real separation_m = 3.0;     // victim-to-interferer distance (m)
    Real carrier_offset_hz = 0.0;
  };
  void set_interference(const InterferenceSpec& spec) { interference_ = spec; }

  /// Update a node's local environment (the SHM layer calls this as the
  /// structure's state evolves).
  void set_environment(std::uint16_t node_id,
                       const node::ConcreteEnvironment& env);

  const Config& config() const { return config_; }

  /// The supervisor, when enabled (nullptr otherwise).
  const reader::LinkSupervisor* supervisor() const {
    return supervisor_ ? &*supervisor_ : nullptr;
  }

  /// Checkpoint the session's mutable state: engine-seed RNG, pass
  /// counter, every deployed node's firmware, and the supervisor. The
  /// loading session must have the same nodes deployed in the same order.
  void save(dsp::ser::Writer& w) const;
  void load(dsp::ser::Reader& r);

 private:
  template <class Self, class Ar> static void io(Self& self, Ar& ar);
  Config config_;
  /// Built once from the (immutable) structure; node_reachable used to
  /// construct a fresh LinkBudget per call inside the collect loop.
  channel::LinkBudget budget_;
  dsp::Rng rng_;
  struct Slot {
    DeployedNode info;
    std::unique_ptr<node::Firmware> firmware;
  };
  std::vector<Slot> nodes_;
  std::optional<reader::LinkSupervisor> supervisor_;
  InterferenceSpec interference_;
  /// Monotone pass counter: pass k binds its injector to trial k of the
  /// session seed, so each monitoring pass sees fresh fault realizations
  /// that are still fully reproducible.
  std::uint64_t pass_ = 0;
};

}  // namespace ecocap::core
