#include "wave/boundary.hpp"

namespace ecocap::wave {

Real reflection_coefficient(const Material& from, const Material& into,
                            WaveMode mode) {
  // A fluid cannot carry an S-wave: treat its impedance for that mode as 0,
  // which yields total reflection — physically, the S-wave cannot cross.
  const Real z1 = from.impedance(mode);
  const Real z2 = into.impedance(mode);
  if (z1 + z2 <= 0.0) return 1.0;
  return (z1 - z2) / (z1 + z2);
}

Real energy_reflectance(const Material& from, const Material& into,
                        WaveMode mode) {
  const Real r = reflection_coefficient(from, into, mode);
  return r * r;
}

Real energy_transmittance(const Material& from, const Material& into,
                          WaveMode mode) {
  return 1.0 - energy_reflectance(from, into, mode);
}

}  // namespace ecocap::wave
