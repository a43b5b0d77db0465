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
  ++twists_;
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

void Rng::convert_candidates(std::size_t want) {
  constexpr std::size_t kN = Mt19937_64::kN;
  Candidates& c = cand_;
  // The pairs converted past the last consumed candidate were all
  // rejected: a sequential draw would consume them next.
  engine_.p_ = std::max<std::size_t>(engine_.p_, c.converted);
  c.head = 0;
  c.count = 0;
  if (engine_.p_ >= kN) engine_.twist();
  const std::size_t p = engine_.p_;
  if (p == kN - 1) {
    // The pair straddles a twist: draw it one word at a time.
    const Real u = 2.0 * engine_.canonical() - 1.0;
    const Real v = 2.0 * engine_.canonical() - 1.0;
    const Real s = u * u + v * v;
    c.converted = static_cast<std::uint16_t>(engine_.p_);
    if (s <= 1.0 && s != 0.0) {
      c.x[0] = u;
      c.y[0] = v;
      c.r2[0] = s;
      c.end[0] = c.converted;
      c.count = 1;
    }
    return;
  }
  // Convert a run of whole pairs from this state block with one kernel
  // call: about as many as `want` acceptances take at the pi/4 acceptance
  // rate, in whole steps of four pairs (the AVX2 width; one step serves a
  // single draw 99.8% of the time). An odd leftover word goes to the
  // straddling branch on a later call.
  const std::size_t pairs =
      std::min((kN - p) / 2, (want + want / 4 + 4) & ~std::size_t{3});
  std::uint64_t pair[kPairs];
  const std::size_t got = kernels::active().polar_candidates(
      engine_.x_.data() + p, pairs, c.x, c.y, c.r2, pair);
  for (std::size_t k = 0; k < got; ++k) {
    c.end[k] = static_cast<std::uint16_t>(p + 2 * pair[k] + 2);
  }
  c.count = static_cast<std::uint16_t>(got);
  c.converted = static_cast<std::uint16_t>(p + 2 * pairs);
}

void Rng::draw_gaussian(Real* out, std::size_t n, Real sigma) {
  std::size_t i = 0;
  // std::normal_distribution returns `g * stddev + mean`; with (0, 1) the
  // `+ 0.0` is what remains, and it turns a -0.0 into +0.0.
  if (n > 0 && spare_available_) {
    spare_available_ = false;
    if (out) out[0] += sigma * (spare_ + 0.0);
    ++i;
  }
  if (i == n) return;
  Candidates& c = cand_;
  // A cache still valid on entry means the calls run as a stream: convert
  // for the next call of this size too, since what this call leaves is
  // kept. Otherwise convert for this call only; an engine draw in between
  // would drop the rest.
  const bool stream = c.at == engine_.p_ && c.twists == engine_.twists_;
  if (!stream) {
    c.head = c.count = 0;
    c.converted = 0;
  }
  const std::size_t ahead = stream ? n / 2 : 0;
  Real m[kPairs];
  while (i < n) {
    if (c.head == c.count) convert_candidates((n - i + 1) / 2 + ahead);
    const std::size_t take =
        std::min<std::size_t>(c.count - c.head, (n - i + 1) / 2);
    if (take == 0) continue;  // every pair of the run was rejected
    const Real* px = c.x + c.head;
    const Real* py = c.y + c.head;
    const Real* r2 = c.r2 + c.head;
    // libstdc++'s operation order, y first and x carried as the spare; only
    // the last pair can be half used.
    const std::size_t full = std::min(take, (n - i) / 2);
    // mult = sqrt(-2 * log(r2) / r2), for each pair whose values are kept:
    // every pair when writing, only a split last pair's spare when skipping.
    const std::size_t first = out ? 0 : full;
    kernels::active().polar_scale(m + first, r2 + first, take - first);
    if (out) {
      Real* o = out + i;
      for (std::size_t j = 0; j < full; ++j) {
        o[2 * j] += sigma * (py[j] * m[j] + 0.0);
        o[2 * j + 1] += sigma * (px[j] * m[j] + 0.0);
      }
    }
    i += 2 * full;
    if (full < take) {
      if (out) out[i] += sigma * (py[full] * m[full] + 0.0);
      ++i;
      spare_ = px[full] * m[full];
      spare_available_ = true;
    }
    c.head = static_cast<std::uint16_t>(c.head + take);
    engine_.p_ = c.end[c.head - 1];
  }
  c.at = static_cast<std::uint16_t>(engine_.p_);
  c.twists = engine_.twists_;
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
  if (!is.fail() && (mean != 0.0 || stddev != 1.0 || lo != 0.0 || hi != 1.0 ||
                     !(std::abs(spare) <= kMaxSpare))) {
    is.setstate(std::ios_base::failbit);
  }
  if (!is.fail()) {
    engine_ = engine;
    spare_ = spare;
    spare_available_ = spare_available;
    cand_.at = kNoCandidates;
  }
  is.flags(flags);
}

}  // namespace ecocap::dsp
