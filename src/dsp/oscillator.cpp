#include "dsp/oscillator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/kernels/kernels.hpp"

namespace ecocap::dsp {

Oscillator::Oscillator(Real fs, Real frequency)
    : fs_(fs), frequency_(frequency), step_(kTwoPi * frequency / fs) {
  if (fs <= 0.0) throw std::invalid_argument("Oscillator: fs must be > 0");
}

void Oscillator::set_frequency(Real frequency) {
  frequency_ = frequency;
  step_ = kTwoPi * frequency / fs_;
}

Real Oscillator::next(Real amplitude) {
  Real v;
  phases(std::span<Real>(&v, 1));
  kernels::scalar_table().sine(&v, 1, amplitude);
  return v;
}

void Oscillator::phases(std::span<Real> out) {
  Real phase = phase_;
  for (Real& p : out) {
    p = phase;
    phase += step_;
    if (phase >= kTwoPi) phase -= kTwoPi;
    if (phase < 0.0) phase += kTwoPi;
  }
  phase_ = phase;
}

namespace {
// Stack chunk for the block paths' phases, so they allocate nothing.
constexpr std::size_t kChunk = 256;
}  // namespace

void Oscillator::accumulate(std::span<Real> x, Real amplitude) {
  Real buf[kChunk];
  const kernels::KernelTable& k = kernels::active();
  for (std::size_t i = 0; i < x.size(); i += kChunk) {
    const std::size_t m = std::min(kChunk, x.size() - i);
    phases(std::span<Real>(buf, m));
    k.sine(buf, m, amplitude);
    for (std::size_t j = 0; j < m; ++j) x[i + j] += buf[j];
  }
}

void Oscillator::advance(std::size_t n) {
  Real buf[kChunk];
  for (std::size_t i = 0; i < n; i += kChunk) {
    phases(std::span<Real>(buf, std::min(kChunk, n - i)));
  }
}

Signal Oscillator::generate(std::size_t n, Real amplitude) {
  Signal out;
  generate(n, amplitude, out);
  return out;
}

void Oscillator::generate(std::size_t n, Real amplitude, Signal& out) {
  out.resize(n);
  phases(out);
  kernels::active().sine(out.data(), n, amplitude);
}

Signal tone(Real fs, Real f, std::size_t n, Real amplitude, Real phase0) {
  Signal out(n);
  const Real step = kTwoPi * f / fs;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = amplitude * std::sin(phase0 + step * static_cast<Real>(i));
  }
  return out;
}

Signal chirp(Real fs, Real f0, Real f1, std::size_t n, Real amplitude) {
  Signal out(n);
  if (n == 0) return out;
  const Real duration = static_cast<Real>(n) / fs;
  const Real k = (f1 - f0) / duration;  // Hz per second
  for (std::size_t i = 0; i < n; ++i) {
    const Real t = static_cast<Real>(i) / fs;
    const Real phase = kTwoPi * (f0 * t + 0.5 * k * t * t);
    out[i] = amplitude * std::sin(phase);
  }
  return out;
}

}  // namespace ecocap::dsp
