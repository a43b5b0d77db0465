#include "shm/weather.hpp"

#include <algorithm>
#include <cmath>

namespace ecocap::shm {

namespace {
constexpr Real kPi = 3.14159265358979323846;

/// Smooth ramp in/out of a storm window (half-day shoulders).
Real storm_intensity(const StormEvent& storm, Real t_days) {
  if (t_days < storm.start_day - 0.5 || t_days > storm.end_day + 0.5) {
    return 0.0;
  }
  const Real rise =
      std::clamp<Real>((t_days - (storm.start_day - 0.5)) / 1.0, 0.0, 1.0);
  const Real fall =
      std::clamp<Real>(((storm.end_day + 0.5) - t_days) / 1.0, 0.0, 1.0);
  return std::min(rise, fall);
}
}  // namespace

WeatherModel::WeatherModel(Config config, std::uint64_t seed)
    : config_(std::move(config)), rng_(seed) {}

WeatherSample WeatherModel::sample(Real t_days) {
  WeatherSample w;
  const Real hour = std::fmod(t_days, 1.0) * 24.0;
  // Diurnal cycle peaking mid-afternoon.
  const Real diurnal = std::sin(2.0 * kPi * (hour - 9.0) / 24.0);

  Real storm = 0.0;
  for (const auto& s : config_.storms) {
    storm = std::max(storm, storm_intensity(s, t_days));
  }
  w.storm = storm > 0.3;

  w.temperature_c = config_.mean_temperature + config_.diurnal_swing * diurnal -
                    3.0 * storm + rng_.gaussian(0.3);
  w.humidity_pct = std::clamp<Real>(
      config_.mean_humidity - 6.0 * diurnal + 15.0 * storm + rng_.gaussian(1.5),
      30.0, 100.0);
  w.pressure_kpa =
      config_.mean_pressure - 1.2 * storm + 0.15 * diurnal + rng_.gaussian(0.05);

  Real peak_wind = 0.0;
  for (const auto& s : config_.storms) {
    peak_wind = std::max(peak_wind, s.peak_wind * storm_intensity(s, t_days));
  }
  w.wind_speed = std::max<Real>(
      config_.base_wind + peak_wind + rng_.gaussian(0.5 + 2.0 * storm), 0.0);
  w.rain_mm_per_h = std::max<Real>(storm * (8.0 + rng_.gaussian(3.0)), 0.0);
  return w;
}

template <class Self, class Ar>
void WeatherModel::io(Self& self, Ar& ar) {
  ar.field("weather.rng", self.rng_);
}

void WeatherModel::save(dsp::ser::Writer& w) const { io(*this, w); }
void WeatherModel::load(dsp::ser::Reader& r) { io(*this, r); }

}  // namespace ecocap::shm
