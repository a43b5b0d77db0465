#pragma once

#include <vector>

#include "dsp/rng.hpp"
#include "dsp/serialize.hpp"
#include "dsp/types.hpp"
#include "shm/weather.hpp"

namespace ecocap::shm {

/// Pedestrian traffic generator for the footbridge (§6 / Appendix D). The
/// bridge links two campuses, so the load has commute peaks, a lunch bump,
/// a weekday/weekend split, a social-distancing scale factor (the paper
/// attributes the consistently good health grades to COVID-19 policies),
/// and suppression during storms.
class PedestrianModel {
 public:
  struct Config {
    Real peak_rate = 40.0;      // pedestrians/minute at the worst commute peak
    Real weekend_factor = 0.35;
    Real social_distancing = 0.6;  // COVID-era scale on all traffic
    Real mean_crossing_speed = 1.3;  // m/s
  };

  PedestrianModel(Config config, std::uint64_t seed);

  /// Expected arrival rate (pedestrians/minute) at `t_days` since campaign
  /// start (day 0 is a Thursday, matching 2021-07-01).
  Real rate_per_minute(Real t_days, const WeatherSample& weather) const;

  /// Sample the number of pedestrians on the bridge in a one-minute window
  /// (arrivals x crossing time), Poisson distributed. `rate_factor` scales
  /// the arrival rate (scenario surges: concerts, evacuations); 1.0 leaves
  /// the Poisson mean — and therefore the draw sequence — bit-identical.
  int sample_count(Real t_days, const WeatherSample& weather,
                   Real rate_factor = 1.0);

  /// Mean walking speed right now (slower in crowds and storms).
  Real walking_speed(int count, const WeatherSample& weather) const;

  /// Checkpoint the model's mutable state (the RNG stream).
  void save(dsp::ser::Writer& w) const;
  void load(dsp::ser::Reader& r);

 private:
  template <class Self, class Ar> static void io(Self& self, Ar& ar);
  Config config_;
  mutable dsp::Rng rng_;
};

/// Walkable deck area of one bridge section (m^2) and the resulting
/// pedestrian area occupancy H = area / count (infinite when empty; the
/// paper grades empty sections A).
Real pedestrian_area_occupancy(Real section_area, int count);

}  // namespace ecocap::shm
