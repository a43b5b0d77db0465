#pragma once

#include "wave/material.hpp"

namespace ecocap::wave {

/// Amplitude reflection coefficient at normal incidence between two media
/// (paper Eq. 1): R = (Z1 - Z2) / (Z1 + Z2), where Z is acoustic impedance.
/// The sign convention follows the paper: reflection seen from inside
/// medium `from` against medium `into`.
Real reflection_coefficient(const Material& from, const Material& into,
                            WaveMode mode = WaveMode::kPrimary);

/// Fraction of incident *energy* reflected at normal incidence: R^2 expressed
/// via impedances — ((Z2-Z1)/(Z2+Z1))^2.
Real energy_reflectance(const Material& from, const Material& into,
                        WaveMode mode = WaveMode::kPrimary);

/// Fraction of incident energy transmitted: 1 - energy_reflectance.
Real energy_transmittance(const Material& from, const Material& into,
                          WaveMode mode = WaveMode::kPrimary);

}  // namespace ecocap::wave
