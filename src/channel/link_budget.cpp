#include "channel/link_budget.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace ecocap::channel {

namespace {
/// The structure calibration (coupling_voltage) is anchored to the paper's
/// prototype, whose harvester activates at 0.5 V with the standard HRA.
constexpr Real kReferenceActivation = 0.5;  // V
}  // namespace

Real node_volts_scale(const Structure& structure, Real tx_voltage) {
  return tx_voltage / structure.coupling_voltage * kReferenceActivation;
}

LinkBudget::LinkBudget(Structure structure, Real activation_voltage,
                       Real hra_gain)
    : structure_(std::move(structure)),
      activation_voltage_(activation_voltage),
      hra_gain_(hra_gain) {
  if (activation_voltage <= 0.0 || hra_gain <= 0.0) {
    throw std::invalid_argument("LinkBudget: invalid thresholds");
  }
}

Real LinkBudget::node_voltage(Real tx_voltage, Real distance) const {
  if (tx_voltage < 0.0 || distance < 0.0) {
    throw std::invalid_argument("LinkBudget: negative inputs");
  }
  // At d = 0 a reader driving coupling_voltage volts delivers exactly the
  // reference activation voltage; everything scales linearly in V and
  // decays exponentially in distance.
  const Real v0 = node_volts_scale(structure_, tx_voltage);
  return hra_gain_ * v0 *
         std::exp(-structure_.effective_attenuation * distance);
}

std::optional<Real> LinkBudget::max_powerup_range(Real tx_voltage) const {
  const Real v_contact = node_voltage(tx_voltage, 0.0);
  if (v_contact < activation_voltage_) return std::nullopt;
  const Real d =
      std::log(v_contact / activation_voltage_) / structure_.effective_attenuation;
  return std::min(d, structure_.length);
}

Real LinkBudget::required_voltage(Real distance) const {
  // Invert node_voltage(V, d) = activation_voltage.
  return activation_voltage_ / hra_gain_ * structure_.coupling_voltage /
         kReferenceActivation *
         std::exp(structure_.effective_attenuation * distance);
}

}  // namespace ecocap::channel
