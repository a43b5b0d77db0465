#include "shm/pedestrian.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ecocap::shm {

namespace {
constexpr Real kPi = 3.14159265358979323846;

/// Double-peaked diurnal profile: morning/evening commutes plus lunch.
Real diurnal_profile(Real hour) {
  auto bump = [](Real h, Real center, Real width) {
    const Real d = (h - center) / width;
    return std::exp(-0.5 * d * d);
  };
  const Real profile = 1.0 * bump(hour, 8.5, 1.2) + 0.5 * bump(hour, 12.5, 1.0) +
                       0.9 * bump(hour, 18.0, 1.5) + 0.08;
  return profile / 1.1;  // normalize so the morning peak is ~0.95
}
}  // namespace

PedestrianModel::PedestrianModel(Config config, std::uint64_t seed)
    : config_(std::move(config)), rng_(seed) {}

Real PedestrianModel::rate_per_minute(Real t_days,
                                      const WeatherSample& weather) const {
  const Real hour = std::fmod(t_days, 1.0) * 24.0;
  // 2021-07-01 was a Thursday: day index 0 -> weekday 4 (Thu).
  const int weekday = (static_cast<int>(std::floor(t_days)) + 4) % 7;
  const bool weekend = (weekday == 6 || weekday == 0);  // Sat(6)? see below
  // weekday index: 0=Sun..6=Sat with the +4 offset: day0 -> 4 = Thursday.
  const bool is_weekend = (weekday == 0 || weekday == 6);
  (void)weekend;

  Real rate = config_.peak_rate * diurnal_profile(hour);
  if (is_weekend) rate *= config_.weekend_factor;
  rate *= config_.social_distancing;
  if (weather.storm) rate *= 0.15;             // people avoid the bridge
  if (weather.rain_mm_per_h > 2.0) rate *= 0.5;
  return rate;
}

int PedestrianModel::sample_count(Real t_days, const WeatherSample& weather,
                                  Real rate_factor) {
  const Real rate = rate_per_minute(t_days, weather);
  // Occupancy = arrival rate x crossing time (Little's law); the crossing
  // takes bridge_length / speed ~ 84 m / 1.3 m/s ~ 65 s ~ 1.08 min.
  const Real crossing_minutes = 84.24 / config_.mean_crossing_speed / 60.0;
  const Real mean_on_bridge = rate * crossing_minutes * rate_factor;
  return rng_.poisson(std::max<Real>(mean_on_bridge, 0.0));
}

Real PedestrianModel::walking_speed(int count,
                                    const WeatherSample& weather) const {
  Real speed = config_.mean_crossing_speed;
  // Crowding slows traffic (fundamental diagram, gently linearized).
  speed *= std::clamp<Real>(1.0 - 0.004 * static_cast<Real>(count), 0.3, 1.0);
  if (weather.storm) speed *= 0.8;
  return speed;
}

template <class Self, class Ar>
void PedestrianModel::io(Self& self, Ar& ar) {
  ar.field("pedestrians.rng", self.rng_);
}

void PedestrianModel::save(dsp::ser::Writer& w) const { io(*this, w); }
void PedestrianModel::load(dsp::ser::Reader& r) { io(*this, r); }

Real pedestrian_area_occupancy(Real section_area, int count) {
  if (count <= 0) return std::numeric_limits<Real>::infinity();
  return section_area / static_cast<Real>(count);
}

}  // namespace ecocap::shm
