#pragma once

#include <optional>
#include <vector>

#include "dsp/rng.hpp"
#include "dsp/serialize.hpp"
#include "node/sensors.hpp"
#include "phy/fm0.hpp"
#include "phy/pie.hpp"
#include "phy/protocol.hpp"

namespace ecocap::node {

/// MCU operating states (§4.2 / §5.2).
enum class McuState {
  kOff,       // below activation; harvesting only
  kStandby,   // powered, waiting for downlink (80.1 uW)
  kArbitrate, // inventory round running, slot counter > 0
  kReplied,   // sent RN16, waiting for ACK
  kAcked,     // acknowledged: serves Read/SetBlf
};

/// Static configuration of a node's firmware image.
struct FirmwareConfig {
  std::uint16_t node_id = 0;      // used to seed the RN16 generator
  phy::Fm0Params uplink;          // bitrate etc.
  double blf = 4000.0;            // backscatter link frequency (Hz)
  phy::PieParams downlink;        // expected downlink timing
};

/// One uplink transmission the firmware schedules in response to downlink
/// commands: payload bits plus how they must be line-coded.
struct UplinkFrame {
  phy::Bits payload;
  double bitrate = 1000.0;
  double blf = 4000.0;
};

/// The EcoCapsule firmware: a cycle-agnostic reimplementation of the
/// MSP430G2553 program. It consumes the binarized downlink baseband
/// (timer-capture edges), runs the Gen2-style slotted inventory state
/// machine, samples sensors over the modelled ADC/I2C, and emits FM0
/// frames for the backscatter switch.
class Firmware {
 public:
  Firmware(FirmwareConfig config, std::uint64_t seed);

  /// Feed a contiguous chunk of demodulated baseband; returns the frames
  /// the node backscatters in order. `fs` is the baseband sample rate.
  /// The environment is sampled at Read time.
  std::vector<UplinkFrame> process_downlink(const std::vector<bool>& levels,
                                            double fs,
                                            const ConcreteEnvironment& env);

  /// Handle one parsed command directly (the protocol-level entry point;
  /// process_downlink uses it after PIE decoding).
  std::optional<UplinkFrame> handle_command(const phy::Command& cmd,
                                            const ConcreteEnvironment& env);

  McuState state() const { return state_; }
  std::uint16_t current_rn16() const { return rn16_; }
  /// Whether this node participates in inventory rounds (Select flag).
  bool selected() const { return selected_; }
  const FirmwareConfig& config() const { return config_; }

  /// Power events from the harvester.
  void power_on();   // cold start finished -> standby
  void power_off();  // brown-out -> off, state lost

  /// Checkpoint the mutable MCU state: RNG stream, protocol state machine,
  /// RN16, slot counter, Select flag, and the SetBlf-adjusted link settings.
  /// Sensors are stateless models and are not serialized.
  void save(dsp::ser::Writer& w) const;
  void load(dsp::ser::Reader& r);

 private:
  template <class Self, class Ar> static void io(Self& self, Ar& ar);
  std::optional<UplinkFrame> on_select(const phy::SelectCommand& s);
  std::optional<UplinkFrame> on_query(const phy::QueryCommand& q);
  std::optional<UplinkFrame> on_query_rep();
  std::optional<UplinkFrame> on_ack(const phy::AckCommand& a);
  std::optional<UplinkFrame> on_read(const phy::ReadCommand& r,
                                     const ConcreteEnvironment& env);
  std::optional<UplinkFrame> on_set_blf(const phy::SetBlfCommand& s);
  UplinkFrame make_frame(const phy::Response& resp) const;
  std::uint16_t fresh_rn16();

  FirmwareConfig config_;
  dsp::Rng rng_;
  McuState state_ = McuState::kOff;
  std::uint16_t rn16_ = 0;
  int slot_ = 0;
  bool selected_ = true;  // Select with mask 0 (the default) matches all
  std::vector<std::unique_ptr<Sensor>> sensors_;
};

}  // namespace ecocap::node
