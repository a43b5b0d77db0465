#include "node/harvester.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/serialize.hpp"
#include "dsp/signal_ops.hpp"

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

HarvestGrid::HarvestGrid(const HarvesterConfig& config, Real fs, Real hra_gain,
                         const PowerModel& power)
    : harvester_(config),
      fs_(fs),
      hra_gain_(hra_gain),
      standby_load_(power.standby().total() / config.ldo_output),
      chunk_(static_cast<std::size_t>(fs / 1000.0)) {
  if (fs <= 0.0 || chunk_ == 0) {
    throw std::invalid_argument(
        "HarvestGrid: fs must give a >= 1 sample chunk");
  }
}

void HarvestGrid::push(std::span<const Real> x) {
  while (!x.empty()) {
    const std::size_t n = std::min(chunk_ - fill_, x.size());
    peak_ = std::max(peak_, dsp::peak(x.first(n)));
    fill_ += n;
    x = x.subspan(n);
    if (fill_ == chunk_) step();
  }
}

void HarvestGrid::flush() {
  if (fill_ > 0) step();
}

void HarvestGrid::step() {
  const Real load =
      (harvester_.mcu_powered() ? standby_load_ : 0.0) + extra_load_;
  harvester_.step(static_cast<Real>(fill_) / fs_, peak_ * hra_gain_, load);
  peak_ = 0.0;
  fill_ = 0;
}

template <class Self, class Ar>
void HarvestGrid::io(Self& self, Ar& ar) {
  ar.field("ns.chunk_peak", self.peak_);
  ar.field("ns.chunk_fill", self.fill_);
  ar.nested(self.harvester_);
}

void HarvestGrid::save(dsp::ser::Writer& w) const { io(*this, w); }
void HarvestGrid::load(dsp::ser::Reader& r) { io(*this, r); }

}  // namespace ecocap::node
