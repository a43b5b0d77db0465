#include "dsp/rng.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dsp/kernels/kernels.hpp"

namespace ecocap::dsp {

Mt19937_64::Mt19937_64(result_type seed) {
  x_[0] = seed;
  for (std::size_t i = 1; i < kN; ++i) {
    x_[i] = 6364136223846793005ULL * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
  }
}

static_assert(Mt19937_64::kN == kernels::kMtStateWords);

void Mt19937_64::twist() {
  kernels::active().mt_twist(x_.data());
  p_ = 0;
}

std::size_t Mt19937_64::polar_block(Real* x, Real* y, Real* r2,
                                    std::size_t max) {
  if (max == 0) return 0;
  if (p_ >= kN) twist();
  if (p_ == kN - 1) {
    // The pair straddles a twist: draw it one word at a time.
    x[0] = 2.0 * canonical() - 1.0;
    y[0] = 2.0 * canonical() - 1.0;
    r2[0] = x[0] * x[0] + y[0] * y[0];
    return (r2[0] <= 1.0 && r2[0] != 0.0) ? 1 : 0;
  }
  // Convert a run of whole pairs from this state block with one kernel
  // call: about as many as `max` acceptances take at the pi/4 acceptance
  // rate, in whole steps of four pairs (the AVX2 width; one step serves a
  // single draw 99.8% of the time). An odd leftover word goes to the
  // straddling branch on a later call; converted words past the last
  // acceptance needed are dropped, not consumed.
  const std::size_t pairs =
      std::min((kN - p_) / 2, (max + max / 4 + 4) & ~std::size_t{3});
  std::uint64_t pair[kN / 2];
  const std::size_t got = kernels::active().polar_candidates(
      x_.data() + p_, pairs, x, y, r2, pair);
  if (got < max) {
    p_ += 2 * pairs;
    return got;
  }
  p_ += 2 * (pair[max - 1] + 1);
  return max;
}

void Mt19937_64::save(std::ostream& os) const {
  const auto flags = os.flags();
  os.flags(std::ios_base::dec | std::ios_base::left);
  for (const result_type w : x_) os << w << ' ';
  os << p_;
  os.flags(flags);
}

void Mt19937_64::load(std::istream& is) {
  const auto flags = is.flags();
  is.flags(std::ios_base::dec | std::ios_base::skipws);
  std::array<result_type, kN> x{};
  std::size_t p = 0;
  for (result_type& w : x) is >> w;
  is >> p;
  if (!is.fail() && p > kN) is.setstate(std::ios_base::failbit);
  if (!is.fail()) {
    x_ = x;
    p_ = p;
  }
  is.flags(flags);
}

void Rng::add_gaussian(std::span<Real> x, Real sigma) {
  draw_gaussian(x.data(), x.size(), sigma);
}

void Rng::skip_gaussian(std::size_t n) { draw_gaussian(nullptr, n, 0.0); }

void Rng::draw_gaussian(Real* out, std::size_t n, Real sigma) {
  std::size_t i = 0;
  // std::normal_distribution returns `g * stddev + mean`; with (0, 1) the
  // `+ 0.0` is what remains, and it turns a -0.0 into +0.0.
  if (n > 0 && spare_available_) {
    spare_available_ = false;
    if (out) out[0] += sigma * (spare_ + 0.0);
    ++i;
  }
  constexpr std::size_t kPairs = Mt19937_64::kN / 2;
  Real px[kPairs], py[kPairs], r2[kPairs], m[kPairs];
  while (i < n) {
    const std::size_t got = engine_.polar_block(px, py, r2, (n - i + 1) / 2);
    // libstdc++'s operation order, y first and x carried as the spare; only
    // the last pair can be half used.
    const std::size_t full = std::min(got, (n - i) / 2);
    // libstdc++'s mult = sqrt(-2 * log(r2) / r2): log is the one scalar
    // step, called once per pair whose values are kept — every pair when
    // writing, only a split last pair's spare when skipping.
    const std::size_t first = out ? 0 : full;
    for (std::size_t j = first; j < got; ++j) m[j] = std::log(r2[j]);
    kernels::active().polar_scale(m + first, r2 + first, got - first);
    if (out) {
      Real* o = out + i;
      for (std::size_t j = 0; j < full; ++j) {
        o[2 * j] += sigma * (py[j] * m[j] + 0.0);
        o[2 * j + 1] += sigma * (px[j] * m[j] + 0.0);
      }
    }
    i += 2 * full;
    if (full < got) {
      if (out) out[i] += sigma * (py[full] * m[full] + 0.0);
      ++i;
      spare_ = px[full] * m[full];
      spare_available_ = true;
    }
  }
}

void Rng::save(std::ostream& os) const {
  engine_.save(os);
  const auto flags = os.flags();
  const auto precision = os.precision();
  os.flags(std::ios_base::scientific | std::ios_base::left);
  os.precision(std::numeric_limits<Real>::max_digits10);
  // normal_distribution: mean, stddev, spare flag [, spare]; then the
  // uniform_real_distribution bounds.
  os << ' ' << 0.0 << ' ' << 1.0 << ' ' << spare_available_;
  if (spare_available_) os << ' ' << spare_;
  os << ' ' << 0.0 << ' ' << 1.0;
  os.flags(flags);
  os.precision(precision);
}

void Rng::load(std::istream& is) {
  Mt19937_64 engine = engine_;
  engine.load(is);
  const auto flags = is.flags();
  is.flags(std::ios_base::dec | std::ios_base::skipws);
  Real mean = 0.0, stddev = 0.0, lo = 0.0, hi = 0.0, spare = 0.0;
  bool spare_available = false;
  is >> mean >> stddev >> spare_available;
  if (spare_available) is >> spare;
  is >> lo >> hi;
  if (!is.fail() && (mean != 0.0 || stddev != 1.0 || lo != 0.0 || hi != 1.0)) {
    is.setstate(std::ios_base::failbit);
  }
  if (!is.fail()) {
    engine_ = engine;
    spare_ = spare;
    spare_available_ = spare_available;
  }
  is.flags(flags);
}

}  // namespace ecocap::dsp
