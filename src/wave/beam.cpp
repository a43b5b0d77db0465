#include "wave/beam.hpp"

#include <cmath>
#include <stdexcept>

namespace ecocap::wave {

namespace {
constexpr Real kPi = 3.14159265358979323846;
}

Real PistonBeam::half_beam_angle() const {
  if (diameter <= 0.0 || frequency <= 0.0 || velocity <= 0.0) {
    throw std::invalid_argument("PistonBeam: invalid parameters");
  }
  const Real s = 0.514 * velocity / (frequency * diameter);
  if (s >= 1.0) return 0.5 * kPi;  // beam fills the half-space
  return std::asin(s);
}

Real PistonBeam::coverage_cone_volume(Real depth) const {
  const Real r = footprint_radius(depth);
  return kPi * r * r * depth / 3.0;
}

Real PistonBeam::footprint_radius(Real depth) const {
  return depth * std::tan(half_beam_angle());
}

PistonBeam make_beam(Real diameter, Real frequency, const Material& medium,
                     WaveMode mode) {
  return PistonBeam{diameter, frequency, medium.velocity(mode)};
}

}  // namespace ecocap::wave
