#pragma once

#include <cstddef>
#include <optional>
#include <span>

#include "dsp/types.hpp"
#include "node/power_model.hpp"

namespace ecocap::dsp::ser {
class Writer;
class Reader;
}  // namespace ecocap::dsp::ser

namespace ecocap::node {

using dsp::Real;

/// Behavioural model of the EcoCapsule energy harvester (paper §4.2): a
/// four-stage Dickson voltage multiplier rectifying the PZT's AC output into
/// a storage capacitor, followed by a 1.8 V LDO (LP5900SD-1.8). The cold
/// start (Fig. 14) is the RC charge of the storage capacitor up to the MCU
/// activation threshold.
struct HarvesterConfig {
  int stages = 4;              // multiplier stages
  Real diode_drop = 0.2;       // V per Schottky diode
  Real storage_cap = 47e-6;    // F
  Real source_resistance = 653.0;  // ohm, PZT + multiplier output impedance
  Real mcu_start_voltage = 2.0;    // V on the storage cap that boots the MCU
  Real ldo_output = 1.8;           // V regulated rail
  Real ldo_dropout = 0.1;          // V minimum headroom above the rail
};

class Harvester {
 public:
  explicit Harvester(HarvesterConfig config = {});

  /// Open-circuit DC voltage produced from a sinusoidal PZT amplitude
  /// `vin_peak`: 2 * stages * (vin - diode_drop), clamped at 0.
  Real open_circuit_voltage(Real vin_peak) const;

  /// Cold-start time (s) from an empty capacitor at constant input
  /// amplitude; nullopt when the input can never reach the MCU start
  /// threshold (the paper's 500 mV activation floor).
  std::optional<Real> cold_start_time(Real vin_peak) const;

  /// Minimum PZT amplitude that can ever boot the MCU.
  Real minimum_activation_voltage() const;

  /// --- streaming simulation (used by the end-to-end link) ---

  /// Advance the storage-cap state by dt seconds with the given input
  /// amplitude and load current draw (A). Returns the new cap voltage.
  Real step(Real dt, Real vin_peak, Real load_current = 0.0);

  /// Storage capacitor voltage.
  Real cap_voltage() const { return v_cap_; }

  /// True once the cap passed the MCU start threshold (sticky until the cap
  /// droops below the LDO dropout floor).
  bool mcu_powered() const { return powered_; }

  void reset();

  /// Bit-exact storage-cap state round trip.
  void save(dsp::ser::Writer& w) const;
  void load(dsp::ser::Reader& r);

  const HarvesterConfig& config() const { return config_; }

 private:
  template <class Self, class Ar> static void io(Self& self, Ar& ar);
  HarvesterConfig config_;
  Real v_cap_ = 0.0;
  bool powered_ = false;
};

/// The harvester driven by an incident waveform on a 1 ms grid: the one
/// harvest loop of the batch EcoCapsule and the streaming NodeStage. Each
/// full chunk steps the storage cap once, with the chunk's peak |x| times
/// the HRA gain as the rectifier input, and as the load the MCU standby
/// draw (while powered) plus any parasitic leak. A partial chunk carries
/// across `push` calls, so a waveform pushed in pieces of any size follows
/// one cap trajectory; `flush` steps the open partial chunk early, which is
/// where a batch leg ends its grid.
class HarvestGrid {
 public:
  /// @param fs incident sample rate; must give a >= 1 sample chunk
  /// @param hra_gain HRA receive gain at the carrier
  /// @param power the MCU standby draw comes from here, off the LDO rail
  HarvestGrid(const HarvesterConfig& config, Real fs, Real hra_gain,
              const PowerModel& power);

  void push(std::span<const Real> x);
  void flush();

  Harvester& harvester() { return harvester_; }
  const Harvester& harvester() const { return harvester_; }

  /// Constant parasitic load (A) on the storage cap, on top of the MCU
  /// draw — drains even while the MCU is off. Zero by default.
  void set_extra_load(Real amps) { extra_load_ = amps; }
  Real extra_load() const { return extra_load_; }

  /// Bit-exact round trip of the open chunk and the cap. The record names
  /// are the streaming node's checkpoint records.
  void save(dsp::ser::Writer& w) const;
  void load(dsp::ser::Reader& r);

 private:
  template <class Self, class Ar> static void io(Self& self, Ar& ar);
  void step();

  Harvester harvester_;
  Real fs_;
  Real hra_gain_;
  Real standby_load_;  // MCU standby draw / LDO rail, amps
  Real extra_load_ = 0.0;
  std::size_t chunk_;  // 1 ms of samples
  Real peak_ = 0.0;
  std::size_t fill_ = 0;
};

}  // namespace ecocap::node
