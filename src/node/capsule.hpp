#pragma once

#include <memory>

#include "dsp/workspace.hpp"
#include "node/firmware.hpp"
#include "node/frontend.hpp"
#include "node/harvester.hpp"
#include "node/power_model.hpp"
#include "node/shell.hpp"
#include "phy/carrier.hpp"
#include "wave/helmholtz.hpp"

namespace ecocap::node {

/// Full EcoCapsule assembly (paper §4, Fig. 8): the stressless shell, the
/// Helmholtz resonator array in front of the 10 mm PZT, the battery-free
/// motherboard (harvester + MCU + frontend) and the firmware image.
struct CapsuleConfig {
  FirmwareConfig firmware;
  HarvesterConfig harvester;
  ShellConfig shell;
  PowerModel power;
  phy::BackscatterParams backscatter;
  /// HRA receive gain at the carrier frequency (ablation knob).
  double hra_gain = 2.0;
  int hra_cells = 7;
};

/// Result of a full interrogation round at the waveform level.
struct CapsuleRxResult {
  bool powered = false;
  std::vector<UplinkFrame> frames;   // scheduled uplink transmissions
  double cap_voltage = 0.0;
};

class EcoCapsule {
 public:
  /// @param fs acoustic simulation sample rate
  EcoCapsule(CapsuleConfig config, double fs, std::uint64_t seed);

  /// Process an incoming acoustic waveform at the capsule's PZT: harvest
  /// (amplitude -> storage cap), demodulate, run the firmware, and return
  /// any scheduled uplink frames. The environment is the local concrete
  /// state for sensor reads.
  CapsuleRxResult receive(std::span<const dsp::Real> acoustic,
                          const ConcreteEnvironment& env);

  /// Produce the backscatter emission for an uplink frame given the
  /// incident carrier at the node (the switch modulates the reflection),
  /// into a caller-provided buffer; the FM0 switching waveform
  /// lives in a workspace lease instead of a fresh heap allocation.
  /// `out` must not alias `incident_carrier`.
  void backscatter(const UplinkFrame& frame,
                   std::span<const dsp::Real> incident_carrier,
                   dsp::Workspace& ws, dsp::Signal& out);

  /// Constant parasitic load (A) on the storage cap, on top of the MCU
  /// draw — the fault layer's aged/leaky-cap model. Drains even while the
  /// MCU is off (a leak does not wait for boot). Zero by default.
  void set_extra_load_amps(double amps) { harvest_.set_extra_load(amps); }

  /// Direct access for tests and experiments.
  Firmware& firmware() { return firmware_; }
  Harvester& harvester() { return harvest_.harvester(); }
  const Shell& shell() const { return shell_; }
  const wave::HelmholtzArray& hra() const { return hra_; }
  const CapsuleConfig& config() const { return config_; }
  double fs() const { return fs_; }

 private:
  CapsuleConfig config_;
  double fs_;
  Shell shell_;
  wave::HelmholtzArray hra_;
  HarvestGrid harvest_;
  AnalogFrontend frontend_;
  Firmware firmware_;
  /// Demodulated level buffer reused across receive() calls.
  std::vector<bool> levels_;
};

}  // namespace ecocap::node
