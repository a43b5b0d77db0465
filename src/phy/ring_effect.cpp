#include "phy/ring_effect.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/serialize.hpp"

namespace ecocap::phy {

namespace {
constexpr Real kPi = 3.14159265358979323846;

Real pole_radius(Real fs, Real f0, Real q) {
  const Real tau = q / (kPi * f0);
  return std::exp(-1.0 / (tau * fs));
}
}  // namespace

RingingPzt::RingingPzt(Real fs, Real resonance, Real q, Real direct_mix,
                       Real loaded_q)
    : fs_(fs), resonance_(resonance), q_(q), loaded_q_(loaded_q),
      mix_(direct_mix) {
  if (q <= 0.0 || loaded_q <= 0.0) {
    throw std::invalid_argument("RingingPzt: Q must be > 0");
  }
  if (direct_mix < 0.0 || direct_mix > 1.0) {
    throw std::invalid_argument("RingingPzt: direct_mix out of [0, 1]");
  }
  if (resonance <= 0.0 || resonance >= fs / 2.0) {
    throw std::invalid_argument("RingingPzt: resonance out of range");
  }
  rho_free_ = pole_radius(fs, resonance, q);
  rho_loaded_ = pole_radius(fs, resonance, loaded_q);
  const Real w0 = 2.0 * kPi * resonance / fs;
  rot_ = std::polar<Real>(1.0, w0);
  // Steady state under drive (loaded pole): |s| ~ A / (2 (1 - rho_loaded));
  // normalize the storage contribution back to the drive amplitude.
  out_gain_ = 2.0 * (1.0 - rho_loaded_);
  // Drive-presence detector time constants: fast enough to see an OOK gap
  // within ~10 us, slow enough to ride over carrier zero crossings.
  env_decay_ = std::exp(-1.0 / (5.0e-6 * fs));
  peak_decay_ = std::exp(-1.0 / (5.0e-3 * fs));
}

Signal RingingPzt::drive(std::span<const Real> excitation) {
  Signal out(excitation.begin(), excitation.end());
  drive_inplace(out);
  return out;
}

void RingingPzt::drive_inplace(std::span<Real> excitation) {
  // The recurrence state lives in locals for the block, so a sample's store
  // cannot alias it back to memory on the serial chain.
  std::complex<Real> s = s_;
  Real env = env_, peak = peak_;
  for (Real& v : excitation) {
    const Real x = v;
    env = std::max(std::abs(x), env * env_decay_);
    peak = std::max(env, peak * peak_decay_);
    const bool driven = (peak > 1e-12) && (env > 0.25 * peak);
    const Real rho = driven ? rho_loaded_ : rho_free_;
    s = s * (rho * rot_) + std::complex<Real>(x, 0.0);
    const Real resonant = out_gain_ * s.real();
    v = (1.0 - mix_) * x + mix_ * resonant;
  }
  s_ = s;
  env_ = env;
  peak_ = peak;
}

void RingingPzt::reset() {
  s_ = {0.0, 0.0};
  env_ = 0.0;
  peak_ = 0.0;
}

Real RingingPzt::ring_time_constant() const { return q_ / (kPi * resonance_); }

Real RingingPzt::ring_decay_time(Real fraction) const {
  if (fraction <= 0.0 || fraction >= 1.0) {
    throw std::invalid_argument("ring_decay_time: fraction out of (0,1)");
  }
  return ring_time_constant() * std::log(1.0 / fraction);
}

Real ook_tail_duration(Real resonance, Real q, Real threshold) {
  const Real tau = q / (kPi * resonance);
  return tau * std::log(1.0 / threshold);
}

template <class Self, class Ar>
void RingingPzt::io(Self& self, Ar& ar) {
  ar.value("pzt.s_re", self.s_.real(), [&](auto v) { self.s_.real(v); });
  ar.value("pzt.s_im", self.s_.imag(), [&](auto v) { self.s_.imag(v); });
  ar.field("pzt.env", self.env_);
  ar.field("pzt.peak", self.peak_);
}

void RingingPzt::save(dsp::ser::Writer& w) const { io(*this, w); }
void RingingPzt::load(dsp::ser::Reader& r) { io(*this, r); }

}  // namespace ecocap::phy
