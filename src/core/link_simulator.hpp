#pragma once

#include <limits>
#include <memory>
#include <optional>

#include "channel/concrete_channel.hpp"
#include "fault/fault.hpp"
#include "node/capsule.hpp"
#include "reader/receiver.hpp"
#include "reader/transmitter.hpp"

namespace ecocap::core {

using dsp::Real;

/// Everything needed to stand up one reader <-> capsule link through a
/// structure. This is the library's primary entry point: configure it, call
/// interrogate(), get decoded sensor data plus the physical diagnostics.
struct SystemConfig {
  reader::TransmitterConfig transmitter;
  reader::ReceiverConfig receiver;
  node::CapsuleConfig capsule;
  channel::Structure structure;
  channel::ChannelConfig channel;
  /// Deterministic fault-injection plan; empty (the default) is perfectly
  /// inert — the pipeline stays bit-identical to a plan-free build.
  fault::FaultPlan fault;
  std::uint64_t seed = 1;
};

/// Sensible defaults matching the paper's prototype: 230 kHz carrier, 60
/// degree PLA prism, 1 kbps FM0 uplink at a 4 kHz BLF, a 15 cm NC block at
/// 20 cm distance.
SystemConfig default_system();

/// Immutable shared snapshot of a system configuration. Monte-Carlo sweeps
/// build one snapshot and hand it to every per-trial simulator, so the
/// heavyweight members (the channel scatterer list in particular) are shared
/// instead of copied per trial.
using SystemSnapshot = std::shared_ptr<const SystemConfig>;

/// Outcome of a full interrogation round-trip at the waveform level.
struct InterrogationResult {
  bool node_powered = false;
  bool command_decoded = false;   // node decoded at least one command
  bool uplink_decoded = false;    // reader recovered the node's frame
  double cap_voltage = 0.0;       // V on the node's storage cap at the end
  /// Decision-domain SNR of the decoded uplink frame; NaN until a frame is
  /// validly decoded (an undecoded round has no SNR measurement, and the
  /// old 0.0 sentinel was indistinguishable from a genuine 0 dB link).
  double uplink_snr_db = std::numeric_limits<double>::quiet_NaN();
  double carrier_estimate = 0.0;
  phy::Bits uplink_payload;       // raw decoded payload bits
  std::optional<double> sensor_value;  // when a Read round-trip succeeded
};

/// Waveform-level single-link simulator: reader TX -> concrete channel ->
/// capsule (harvest, demodulate, firmware) -> backscatter -> channel ->
/// reader RX. One instance per experiment; deterministic under its seed.
class LinkSimulator {
 public:
  /// Owning construction: wraps the config into a private snapshot.
  explicit LinkSimulator(SystemConfig config);

  /// Shared-snapshot construction; the trial seed is `snapshot->seed`.
  explicit LinkSimulator(SystemSnapshot snapshot);

  /// Shared-snapshot construction with an explicit seed override — the
  /// per-trial form: one snapshot, many simulators, distinct seeds.
  LinkSimulator(SystemSnapshot snapshot, std::uint64_t seed);

  /// Charge-only round: send CBW for `duration` and report the capsule's
  /// harvest state.
  InterrogationResult charge(Real duration);

  /// Full protocol round: Query (Q=0 so the node answers immediately),
  /// decode RN16, then Ack + Read of the given sensor, all at the waveform
  /// level with the configured channel impairments.
  InterrogationResult interrogate(node::SensorId sensor,
                                  const node::ConcreteEnvironment& env);

  /// Raw uplink experiment: the node backscatters `payload` once powered;
  /// returns the receiver's decode and SNR (Figs. 15-18 harness).
  InterrogationResult uplink_once(const phy::Bits& payload);

  /// Time-of-flight ranging: localize the node by the round-trip delay of
  /// its backscatter (the node starts switching when the CBW reaches it,
  /// so the preamble arrives 2 d / C_s after transmission). Addresses the
  /// §3.2 problem that capsule positions inside the wall are unknown.
  struct RangeEstimate {
    bool valid = false;
    Real distance = 0.0;        // m, estimated
    Real round_trip_s = 0.0;    // measured preamble arrival time
  };
  RangeEstimate estimate_node_distance();

  const SystemConfig& config() const { return *config_; }
  std::uint64_t seed() const { return seed_; }
  node::EcoCapsule& capsule() { return capsule_; }
  reader::Receiver& receiver() { return receiver_; }
  /// Per-trial fault source bound to this simulator's seed; inert when the
  /// config's plan is empty.
  fault::Injector& injector() { return injector_; }

 private:
  /// Ensure the node is powered by streaming CBW into it.
  bool power_up();

  /// Downlink leg: propagate, scale to node volts, then apply the
  /// channel-layer faults at the node. Uplink leg: propagate, apply the
  /// channel-layer faults plus ADC saturation at the reader.
  void faulted_downlink(const dsp::Signal& tx, dsp::Signal& at_node);
  void faulted_uplink(const dsp::Signal& emission, dsp::Signal& at_reader);

  SystemSnapshot config_;
  std::uint64_t seed_ = 0;
  dsp::Rng rng_;
  reader::Transmitter transmitter_;
  reader::Receiver receiver_;
  channel::ConcreteChannel channel_;
  node::EcoCapsule capsule_;
  fault::Injector injector_;
};

/// Aggregate of many independent waveform-level uplink rounds (the Monte
/// Carlo behind Figs. 15-18 style link sweeps).
struct UplinkSweepResult {
  std::size_t trials = 0;
  std::size_t powered = 0;
  std::size_t decoded = 0;
  Real snr_db_sum = 0.0;  // over decoded trials only

  Real mean_snr_db() const {
    return decoded ? snr_db_sum / static_cast<Real>(decoded) : 0.0;
  }
};

/// Run `trials` independent LinkSimulator::uplink_once rounds in parallel on
/// the process-shared pool. Trial t builds its own simulator seeded with
/// trial_seed(base.seed, t), so the aggregate is bit-identical regardless of
/// thread count.
UplinkSweepResult uplink_sweep(const SystemConfig& base,
                               const phy::Bits& payload, std::size_t trials);

}  // namespace ecocap::core
