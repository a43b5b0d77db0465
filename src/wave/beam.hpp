#pragma once

#include "wave/material.hpp"

namespace ecocap::wave {

/// Geometry of the acoustic beam of a circular piston PZT (paper §3.2).
/// A disc transducer vibrating in the push-pull pattern radiates a cone of
/// P-waves whose half-beam angle is alpha = arcsin(0.514 * c / (f * D)).
struct PistonBeam {
  Real diameter;   // m
  Real frequency;  // Hz
  Real velocity;   // m/s in the medium

  /// Half-beam angle in radians.
  Real half_beam_angle() const;

  /// Volume (m^3) of the coverage cone for a wall of thickness `depth` (m):
  /// a cone of apex at the PZT and base radius depth * tan(alpha). The paper
  /// quotes 132 cm^3 for D = 40 mm, f = 230 kHz, 15 cm concrete.
  Real coverage_cone_volume(Real depth) const;

  /// Radius of the insonified disc at the far side of a wall of thickness
  /// `depth`.
  Real footprint_radius(Real depth) const;
};

/// Convenience constructor from a medium.
PistonBeam make_beam(Real diameter, Real frequency, const Material& medium,
                     WaveMode mode = WaveMode::kPrimary);

}  // namespace ecocap::wave
