#include "shm/bridge.hpp"

#include <algorithm>
#include <cmath>

namespace ecocap::shm {

FootbridgeModel::FootbridgeModel(Config config, std::uint64_t seed)
    : config_(std::move(config)),
      pedestrians_(config_.pedestrians, seed ^ 0xfeed),
      rng_(seed) {}

BridgeState FootbridgeModel::step(Real t_days, const WeatherSample& weather) {
  return step(t_days, weather, LoadModifiers{});
}

BridgeState FootbridgeModel::step(Real t_days, const WeatherSample& weather,
                                  const LoadModifiers& mods) {
  BridgeState state;
  state.t_days = t_days;
  state.weather = weather;

  const int total =
      pedestrians_.sample_count(t_days, weather, mods.occupancy_factor);
  state.total_pedestrians = total;

  // Distribute pedestrians over sections: the main span (sections B-D)
  // carries through-traffic; the approaches see slightly fewer.
  const std::array<Real, 5> weights{0.18, 0.22, 0.22, 0.22, 0.16};
  int assigned = 0;
  for (int s = 0; s < 5; ++s) {
    int n;
    if (s == 4) {
      n = total - assigned;
    } else {
      n = static_cast<int>(std::floor(weights[static_cast<std::size_t>(s)] *
                                      static_cast<Real>(total)));
      // Spread the rounding remainder pseudo-randomly.
      if (rng_.chance(weights[static_cast<std::size_t>(s)] * total -
                      std::floor(weights[static_cast<std::size_t>(s)] * total))) {
        ++n;
      }
    }
    n = std::max(n, 0);
    assigned += n;

    auto& sec = state.sections[static_cast<std::size_t>(s)];
    sec.pedestrians = n;
    sec.pao = pedestrian_area_occupancy(config_.geometry.section_area(), n);
    sec.walking_speed = (n > 0) ? pedestrians_.walking_speed(n, weather) : 0.0;
    sec.health = std::isinf(sec.pao)
                     ? HealthLevel::kA
                     : grade_pao(sec.pao, config_.region);

    // Structural response: footfall excitation ~ sqrt(N) (uncorrelated
    // walkers), wind buffeting ~ v^2, plus ambient noise. Mid-span sections
    // respond ~1.4x more than the approaches (mode shape).
    const Real mode_gain = (s >= 1 && s <= 3) ? 1.4 : 1.0;
    const Real wind2 = weather.wind_speed * weather.wind_speed;
    Real excitation =
        config_.footfall_accel * std::sqrt(static_cast<Real>(n)) +
        config_.wind_accel * wind2;
    // Scenario modulation, exact-identity gated: a softened structure
    // responds ~1/k harder to the same load; seismic shaking adds ground
    // motion on top. With identity modifiers neither branch executes.
    if (mods.stiffness_factor != 1.0) excitation /= mods.stiffness_factor;
    if (mods.ground_accel != 0.0) excitation += mods.ground_accel;
    sec.vertical_acceleration =
        mode_gain * (excitation + std::abs(rng_.gaussian(config_.accel_noise)));
    // Give it a random sign: the paper plots signed samples whose envelope
    // is what matters.
    if (rng_.chance(0.5)) sec.vertical_acceleration = -sec.vertical_acceleration;
    sec.lateral_acceleration = 0.18 * sec.vertical_acceleration;

    sec.stress_mpa = config_.dead_stress_mpa +
                     config_.ped_stress_mpa * static_cast<Real>(n) * mode_gain +
                     config_.wind_stress_mpa * wind2 +
                     rng_.gaussian(0.4);
    sec.deflection_m =
        config_.ped_deflection * static_cast<Real>(n) * mode_gain +
        2.0e-5 * wind2;
    if (mods.stiffness_factor != 1.0) {
      // Softening amplifies the live (load-borne) response; the dead-load
      // stress offset is a constant of the steelwork, not of its stiffness.
      const Real soften = 1.0 / mods.stiffness_factor;
      sec.stress_mpa = config_.dead_stress_mpa +
                       (sec.stress_mpa - config_.dead_stress_mpa) * soften;
      sec.deflection_m *= soften;
    }
  }
  return state;
}

template <class Self, class Ar>
void FootbridgeModel::io(Self& self, Ar& ar) {
  ar.field("bridge.rng", self.rng_);
  ar.nested(self.pedestrians_);
}

void FootbridgeModel::save(dsp::ser::Writer& w) const { io(*this, w); }
void FootbridgeModel::load(dsp::ser::Reader& r) { io(*this, r); }

}  // namespace ecocap::shm
