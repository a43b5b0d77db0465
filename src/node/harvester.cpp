#include "node/harvester.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/serialize.hpp"

namespace ecocap::node {

Harvester::Harvester(HarvesterConfig config) : config_(config) {
  if (config_.stages <= 0 || config_.storage_cap <= 0.0 ||
      config_.source_resistance <= 0.0) {
    throw std::invalid_argument("Harvester: invalid config");
  }
}

Real Harvester::open_circuit_voltage(Real vin_peak) const {
  const Real per_stage = std::max<Real>(vin_peak - config_.diode_drop, 0.0);
  return 2.0 * static_cast<Real>(config_.stages) * per_stage;
}

std::optional<Real> Harvester::cold_start_time(Real vin_peak) const {
  const Real voc = open_circuit_voltage(vin_peak);
  if (voc <= config_.mcu_start_voltage) return std::nullopt;
  // RC charge from 0 toward voc; threshold crossing of an exponential.
  const Real rc = config_.source_resistance * config_.storage_cap;
  return rc * std::log(voc / (voc - config_.mcu_start_voltage));
}

Real Harvester::minimum_activation_voltage() const {
  // Invert open_circuit_voltage(v) == mcu_start_voltage.
  return config_.mcu_start_voltage /
             (2.0 * static_cast<Real>(config_.stages)) +
         config_.diode_drop;
}

Real Harvester::step(Real dt, Real vin_peak, Real load_current) {
  if (dt <= 0.0) throw std::invalid_argument("Harvester::step: dt <= 0");
  const Real voc = open_circuit_voltage(vin_peak);
  const Real rc = config_.source_resistance * config_.storage_cap;
  // Exact RC relaxation toward voc, then the load discharge.
  v_cap_ = voc + (v_cap_ - voc) * std::exp(-dt / rc);
  v_cap_ -= load_current * dt / config_.storage_cap;
  v_cap_ = std::max<Real>(v_cap_, 0.0);

  if (!powered_ && v_cap_ >= config_.mcu_start_voltage) powered_ = true;
  if (powered_ && v_cap_ < config_.ldo_output + config_.ldo_dropout) {
    powered_ = false;  // brown-out
  }
  return v_cap_;
}

void Harvester::reset() {
  v_cap_ = 0.0;
  powered_ = false;
}

template <class Self, class Ar>
void Harvester::io(Self& self, Ar& ar) {
  ar.field("hv.v_cap", self.v_cap_);
  ar.field("hv.powered", self.powered_);
}

void Harvester::save(dsp::ser::Writer& w) const { io(*this, w); }
void Harvester::load(dsp::ser::Reader& r) { io(*this, r); }

}  // namespace ecocap::node
