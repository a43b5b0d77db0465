#pragma once

#include <optional>

#include "channel/structures.hpp"

namespace ecocap::channel {

/// Node-PZT volts per unit of normalized reader amplitude at contact, for a
/// reader driving `tx_voltage` volts into `structure`: the range-law
/// calibration under which driving `coupling_voltage` delivers the 0.5 V
/// reference activation. The waveform downlinks scale the channel output by
/// it.
Real node_volts_scale(const Structure& structure, Real tx_voltage);

/// Wireless-charging link budget (paper §3.2, §5.2). The reader injects a
/// continuous body wave at `tx_voltage`; the acoustic amplitude reaching a
/// node at distance d follows the structure's exponential range law. The
/// node powers up when the amplitude at its PZT yields at least the
/// harvester's activation voltage.
class LinkBudget {
 public:
  /// @param structure the propagation structure (see channel::structures)
  /// @param activation_voltage minimum rectified voltage that can start the
  ///        cold-start charge (0.5 V per Fig. 14)
  /// @param hra_gain receive amplitude gain of the Helmholtz resonator
  ///        array at the carrier (ablation knob; 1.0 = no HRA)
  explicit LinkBudget(Structure structure, Real activation_voltage = 0.5,
                      Real hra_gain = 1.0);

  /// Rectified voltage available at a node `distance` meters from the
  /// reader when the reader drives `tx_voltage` volts.
  Real node_voltage(Real tx_voltage, Real distance) const;

  /// Maximum distance at which a node powers up, clamped to the structure's
  /// physical length; nullopt when the node cannot power up even at contact.
  std::optional<Real> max_powerup_range(Real tx_voltage) const;

  /// Minimum TX voltage required to power a node at `distance`.
  Real required_voltage(Real distance) const;

  const Structure& structure() const { return structure_; }

 private:
  Structure structure_;
  Real activation_voltage_;
  Real hra_gain_;
};

}  // namespace ecocap::channel
