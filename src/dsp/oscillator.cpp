#include "dsp/oscillator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "dsp/kernels/kernels.hpp"

namespace ecocap::dsp {

namespace {

constexpr std::uint64_t kMaxGrid = std::uint64_t{1} << 53;

struct Grid {
  std::uint64_t step;
  std::uint64_t size;
};

/// |v| as m * 2^e with m odd (v finite and nonzero).
std::uint64_t odd_mantissa(Real v, int& e) {
  const auto m = static_cast<std::uint64_t>(
      std::ldexp(std::frexp(std::abs(v), &e), 53));
  const int zeros = std::countr_zero(m);
  e += zeros - 53;
  return m >> zeros;
}

/// f/fs as step/size: both doubles are odd integers times powers of two,
/// so dividing out the mantissas' gcd leaves the reduced fraction exactly.
/// A denominator above 2^53 falls back to the 2^53 grid, rounding the step.
Grid phase_grid(Real f, Real fs) {
  if (f == 0.0) return {0, 1};
  int ef = 0, es = 0;
  std::uint64_t num = odd_mantissa(f, ef);
  std::uint64_t den = odd_mantissa(fs, es);
  const std::uint64_t g = std::gcd(num, den);
  num /= g;
  den /= g;
  const int e = ef - es;  // |f| / fs = num / den * 2^e
  if (e >= 0 || (-e <= 53 && den <= (kMaxGrid >> -e))) {
    const std::uint64_t size = e >= 0 ? den : den << -e;
    std::uint64_t step = num % size;
    for (int i = 0; i < e; ++i) step = (step << 1) % size;
    if (f < 0.0) step = (size - step) % size;
    return {step, size};
  }
  Real r = f / fs;
  r -= std::floor(r);
  const auto step = static_cast<std::uint64_t>(std::llround(std::ldexp(r, 53)));
  return {step % kMaxGrid, kMaxGrid};
}

/// a^-1 mod m for gcd(a, m) = 1 and m <= kMaxTablePeriod (0 when m = 1).
std::uint64_t inverse_mod(std::uint64_t a, std::uint64_t m) {
  std::int64_t t = 0, next_t = 1;
  auto r = static_cast<std::int64_t>(m);
  auto next_r = static_cast<std::int64_t>(a % m);
  while (next_r != 0) {
    const std::int64_t q = r / next_r;
    t = std::exchange(next_t, t - q * next_t);
    r = std::exchange(next_r, r - q * next_r);
  }
  return static_cast<std::uint64_t>(t < 0 ? t + static_cast<std::int64_t>(m)
                                          : t);
}

}  // namespace

Oscillator::Oscillator(Real fs, Real frequency) : fs_(fs), frequency_(0.0) {
  if (!(fs > 0.0) || !std::isfinite(fs)) {
    throw std::invalid_argument("Oscillator: fs must be > 0");
  }
  set_frequency(frequency);
}

void Oscillator::set_frequency(Real frequency) {
  if (!std::isfinite(frequency)) {
    throw std::invalid_argument("Oscillator: frequency must be finite");
  }
  offset_ = phase();
  index_ = 0;
  table_.clear();
  frequency_ = frequency;
  const Grid g = phase_grid(frequency, fs_);
  step_ = g.step;
  grid_ = g.size;
  scale_ = kTwoPi / static_cast<Real>(grid_);
}

std::uint64_t Oscillator::period() const {
  return grid_ / std::gcd(step_, grid_);
}

Real Oscillator::next(Real amplitude) {
  Real v;
  phases(std::span<Real>(&v, 1));
  kernels::scalar_table().sine(&v, 1, amplitude);
  return v;
}

void Oscillator::phases(std::span<Real> out) {
  std::uint64_t index = index_;
  for (Real& p : out) {
    p = phase_at(index);
    index += step_;
    if (index >= grid_) index -= grid_;
  }
  index_ = index;
}

void Oscillator::advance(std::uint64_t n) {
  using u128 = unsigned __int128;
  index_ = static_cast<std::uint64_t>(
      (u128{index_} + u128{n} * step_) % grid_);
}

void Oscillator::restore(Real offset, std::uint64_t index) {
  if (std::bit_cast<std::uint64_t>(offset) !=
          std::bit_cast<std::uint64_t>(offset_) ||
      (!table_.empty() &&
       (index + grid_ - table_start_) % (grid_ / table_.size()) != 0)) {
    table_.clear();
  }
  offset_ = offset;
  index_ = index;
}

std::size_t Oscillator::table_position() {
  if (table_.empty()) {
    const std::uint64_t p = period();
    if (p > kMaxTablePeriod) return kNoTable;
    // A whole period of phases brings the index back to where it was.
    table_.resize(p);
    phases(table_);
    kernels::active().sine(table_.data(), table_.size(), 1.0);
    table_start_ = index_;
    table_inverse_ = inverse_mod(step_ / (grid_ / p), p);
    return 0;
  }
  // index = start + pos * step (mod grid), and every term is a multiple of
  // g = grid / period: pos = ((index - start) / g) * (step / g)^-1.
  const std::uint64_t p = table_.size();
  const std::uint64_t d = (index_ + grid_ - table_start_) % grid_;
  return static_cast<std::size_t>(d / (grid_ / p) * table_inverse_ % p);
}

bool Oscillator::replay(std::span<Real> x, Real amplitude, bool add) {
  std::size_t pos = table_position();
  if (pos == kNoTable) return false;
  for (std::size_t i = 0; i < x.size(); pos = 0) {
    const std::size_t m = std::min(x.size() - i, table_.size() - pos);
    const Real* t = table_.data() + pos;
    Real* o = x.data() + i;
    if (add) {
      for (std::size_t j = 0; j < m; ++j) o[j] += amplitude * t[j];
    } else {
      for (std::size_t j = 0; j < m; ++j) o[j] = amplitude * t[j];
    }
    i += m;
  }
  advance(x.size());
  return true;
}

namespace {
// Stack chunk for the block paths' phases, so they allocate nothing.
constexpr std::size_t kChunk = 256;
}  // namespace

void Oscillator::accumulate(std::span<Real> x, Real amplitude) {
  if (x.empty() || replay(x, amplitude, true)) return;
  Real buf[kChunk];
  const kernels::KernelTable& k = kernels::active();
  for (std::size_t i = 0; i < x.size(); i += kChunk) {
    const std::size_t m = std::min(kChunk, x.size() - i);
    phases(std::span<Real>(buf, m));
    k.sine(buf, m, amplitude);
    for (std::size_t j = 0; j < m; ++j) x[i + j] += buf[j];
  }
}

Signal Oscillator::generate(std::size_t n, Real amplitude) {
  Signal out;
  generate(n, amplitude, out);
  return out;
}

void Oscillator::generate(std::size_t n, Real amplitude, Signal& out) {
  out.resize(n);
  if (n == 0 || replay(out, amplitude, false)) return;
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
