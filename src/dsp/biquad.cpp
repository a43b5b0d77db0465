#include "dsp/biquad.hpp"

#include <cmath>
#include <complex>
#include <stdexcept>

#include "dsp/kernels/kernels.hpp"
#include "dsp/serialize.hpp"

namespace ecocap::dsp {

Biquad::Biquad(Real b0, Real b1, Real b2, Real a1, Real a2)
    : b0_(b0),
      b1_(b1),
      b2_(b2),
      a1_(a1),
      a2_(a2),
      lookahead_(kernels::biquad_lookahead(b0, b1, b2, a1, a2)) {}

namespace {
struct RbjPrelude {
  Real w0, cw, sw, alpha;
};
RbjPrelude rbj(Real fs, Real f0, Real q) {
  if (fs <= 0.0 || f0 <= 0.0 || f0 >= fs / 2.0 || q <= 0.0) {
    throw std::invalid_argument("Biquad: invalid design parameters");
  }
  RbjPrelude p{};
  p.w0 = kTwoPi * f0 / fs;
  p.cw = std::cos(p.w0);
  p.sw = std::sin(p.w0);
  p.alpha = p.sw / (2.0 * q);
  return p;
}
}  // namespace

Biquad Biquad::lowpass(Real fs, Real f0, Real q) {
  const auto p = rbj(fs, f0, q);
  const Real a0 = 1.0 + p.alpha;
  return Biquad(((1.0 - p.cw) / 2.0) / a0, (1.0 - p.cw) / a0,
                ((1.0 - p.cw) / 2.0) / a0, (-2.0 * p.cw) / a0,
                (1.0 - p.alpha) / a0);
}

Biquad Biquad::bandpass(Real fs, Real f0, Real q) {
  const auto p = rbj(fs, f0, q);
  const Real a0 = 1.0 + p.alpha;
  return Biquad(p.alpha / a0, 0.0, -p.alpha / a0, (-2.0 * p.cw) / a0,
                (1.0 - p.alpha) / a0);
}

Biquad Biquad::notch(Real fs, Real f0, Real q) {
  const auto p = rbj(fs, f0, q);
  const Real a0 = 1.0 + p.alpha;
  return Biquad(1.0 / a0, (-2.0 * p.cw) / a0, 1.0 / a0, (-2.0 * p.cw) / a0,
                (1.0 - p.alpha) / a0);
}

Signal Biquad::process(std::span<const Real> x) {
  Signal out;
  process(x, out);
  return out;
}

void Biquad::process(std::span<const Real> x, Signal& out) {
  // In-place callers pass out.size() == x.size(), so the resize never
  // reallocates under the input span.
  out.resize(x.size());
  kernels::active().biquad(x.data(), out.data(), x.size(), lookahead_,
                           state_);
}

Real Biquad::magnitude_at(Real fs, Real f) const {
  const Real w = kTwoPi * f / fs;
  const std::complex<Real> z = std::polar<Real>(1.0, -w);
  const std::complex<Real> z2 = z * z;
  const std::complex<Real> num = b0_ + b1_ * z + b2_ * z2;
  const std::complex<Real> den =
      std::complex<Real>(1.0, 0.0) + a1_ * z + a2_ * z2;
  return std::abs(num / den);
}

OnePoleLowpass::OnePoleLowpass(Real fs, Real cutoff) {
  if (fs <= 0.0 || cutoff <= 0.0 || cutoff >= fs / 2.0) {
    throw std::invalid_argument("OnePoleLowpass: invalid cutoff");
  }
  // Exact impulse-invariant mapping of an RC pole.
  alpha_ = 1.0 - std::exp(-kTwoPi * cutoff / fs);
}

Real OnePoleLowpass::process(Real x) {
  state_ += alpha_ * (x - state_);
  return state_;
}

Signal OnePoleLowpass::process(std::span<const Real> x) {
  Signal out;
  process(x, out);
  return out;
}

void OnePoleLowpass::process(std::span<const Real> x, Signal& out) {
  out.resize(x.size());
  kernels::active().onepole(x.data(), out.data(), x.size(), alpha_, &state_);
}

template <class Self, class Ar>
void Biquad::io(Self& self, Ar& ar) {
  static constexpr const char* kX[8] = {"bq.x1", "bq.x2", "bq.x3", "bq.x4",
                                        "bq.x5", "bq.x6", "bq.x7", "bq.x8"};
  static constexpr const char* kY[8] = {"bq.y1", "bq.y2", "bq.y3", "bq.y4",
                                        "bq.y5", "bq.y6", "bq.y7", "bq.y8"};
  // The state arrays run oldest first; the records newest first.
  for (int k = 0; k < 8; ++k) ar.field(kX[k], self.state_.x[7 - k]);
  for (int k = 0; k < 8; ++k) ar.field(kY[k], self.state_.y[7 - k]);
}

void Biquad::save(ser::Writer& w) const { io(*this, w); }
void Biquad::load(ser::Reader& r) { io(*this, r); }

}  // namespace ecocap::dsp
