#pragma once

#include <array>
#include <string>
#include <vector>

#include "dsp/rng.hpp"
#include "dsp/serialize.hpp"
#include "shm/health.hpp"
#include "shm/pedestrian.hpp"
#include "shm/weather.hpp"

namespace ecocap::shm {

/// The pilot-study footbridge (paper §6, [59]): an 84.24 m butterfly-arch
/// bridge linking two campuses — a 64.26 m main span over a highway and a
/// 19.98 m side span — monitored in five sections A..E.
struct BridgeGeometry {
  Real total_length = 84.24;   // m
  Real main_span = 64.26;      // m
  Real side_span = 19.98;      // m
  Real deck_width = 4.0;       // m walkable width
  int sections = 5;

  /// Walkable area of one section (deck split evenly).
  Real section_area() const {
    return total_length * deck_width / static_cast<Real>(sections);
  }
};

/// Instantaneous structural response at one section.
struct SectionState {
  int pedestrians = 0;
  Real pao = 0.0;               // m^2 per pedestrian (inf when empty)
  Real walking_speed = 0.0;     // m/s
  Real vertical_acceleration = 0.0;  // m/s^2 (RMS-scale excursion)
  Real lateral_acceleration = 0.0;   // m/s^2
  Real stress_mpa = 0.0;        // signed, sensor-orientation dependent
  Real deflection_m = 0.0;      // midspan deflection
  HealthLevel health = HealthLevel::kA;
};

/// Whole-bridge snapshot at one monitoring tick.
struct BridgeState {
  Real t_days = 0.0;
  WeatherSample weather;
  std::array<SectionState, 5> sections;
  int total_pedestrians = 0;
};

/// Externally-scripted load/stiffness modulation for one monitoring tick
/// (the scenario layer's tap into the structural model). The identity
/// modifiers reproduce the unmodified step bit for bit: every application
/// site is gated on an exact != comparison, so the default path executes
/// the same instruction stream as before the scenario layer existed.
struct LoadModifiers {
  /// Pedestrian arrival-rate multiplier (concert/evacuation surges).
  Real occupancy_factor = 1.0;
  /// Remaining stiffness fraction k/k0 in (0, 1]; below 1 the structure has
  /// softened (cracking, seismic damage) — live-load stress, deflection and
  /// footfall response all amplify by ~1/k.
  Real stiffness_factor = 1.0;
  /// Additive ground-motion excitation (m/s^2) — seismic shaking raises the
  /// acceleration envelope on every section.
  Real ground_accel = 0.0;

  bool identity() const {
    return occupancy_factor == 1.0 && stiffness_factor == 1.0 &&
           ground_accel == 0.0;
  }
};

/// Quasi-static structural response model of the footbridge: pedestrian
/// load and wind buffeting excite the deck's fundamental modes; the
/// response scales with sqrt(N) for uncorrelated footfalls and with wind
/// speed squared for buffeting — enough to reproduce the Fig. 21 phenomena
/// (diurnal load cycles, the July 15-23 storm excursions, health >= B).
class FootbridgeModel {
 public:
  struct Config {
    BridgeGeometry geometry;
    PedestrianModel::Config pedestrians;
    Region region = Region::kHongKong;
    Real footfall_accel = 0.004;   // m/s^2 per sqrt(pedestrian)
    Real wind_accel = 7.0e-5;      // m/s^2 per (m/s)^2 of wind
    Real dead_stress_mpa = -55.0;  // steelwork dead-load stress (signed)
    Real ped_stress_mpa = 0.05;    // per pedestrian
    Real wind_stress_mpa = 0.02;   // per (m/s)^2
    Real ped_deflection = 1.2e-4;  // m per pedestrian
    Real accel_noise = 0.002;      // sensor-scale ambient vibration
  };

  FootbridgeModel(Config config, std::uint64_t seed);

  /// Advance to `t_days` and compute the full bridge state.
  BridgeState step(Real t_days, const WeatherSample& weather);

  /// Scenario-modulated step: `mods` scales the pedestrian arrival rate,
  /// softens the structural response, and injects ground motion. Identity
  /// modifiers are bit-identical to the two-argument overload.
  BridgeState step(Real t_days, const WeatherSample& weather,
                   const LoadModifiers& mods);

  /// Checkpoint the model's mutable state (own RNG + the pedestrian
  /// model's RNG).
  void save(dsp::ser::Writer& w) const;
  void load(dsp::ser::Reader& r);

  const Config& config() const { return config_; }

 private:
  template <class Self, class Ar> static void io(Self& self, Ar& ar);
  Config config_;
  PedestrianModel pedestrians_;
  dsp::Rng rng_;
};

}  // namespace ecocap::shm
