#pragma once

#include <vector>

#include "dsp/rng.hpp"
#include "dsp/serialize.hpp"
#include "dsp/types.hpp"

namespace ecocap::shm {

using dsp::Real;

/// Instantaneous ambient conditions at the bridge site.
struct WeatherSample {
  Real temperature_c = 28.0;
  Real humidity_pct = 75.0;
  Real pressure_kpa = 99.0;
  Real wind_speed = 3.0;    // m/s
  Real rain_mm_per_h = 0.0;
  bool storm = false;
};

/// A storm (tropical cyclone) window within the campaign.
struct StormEvent {
  Real start_day = 14.0;  // days since campaign start
  Real end_day = 22.0;
  Real peak_wind = 24.0;  // m/s sustained
};

/// Synthetic subtropical summer weather (the pilot's July-2021 campaign):
/// diurnal temperature/humidity cycles, slow pressure drift, and a
/// week-long tropical cyclone matching the paper's July 15-23 window during
/// which the acceleration/stress records show clear excursions (Fig. 21).
class WeatherModel {
 public:
  struct Config {
    Real mean_temperature = 29.0;  // degC
    Real diurnal_swing = 3.5;      // degC half-amplitude
    Real mean_humidity = 78.0;     // %
    Real mean_pressure = 99.2;     // kPa
    Real base_wind = 3.0;          // m/s
    std::vector<StormEvent> storms = {StormEvent{}};
  };

  WeatherModel(Config config, std::uint64_t seed);

  /// Sample conditions at `t_days` days since campaign start.
  WeatherSample sample(Real t_days);

  /// Checkpoint the model's mutable state (the RNG stream; the config is
  /// rebuilt from the campaign config on resume).
  void save(dsp::ser::Writer& w) const;
  void load(dsp::ser::Reader& r);

 private:
  template <class Self, class Ar> static void io(Self& self, Ar& ar);
  Config config_;
  dsp::Rng rng_;
};

}  // namespace ecocap::shm
