#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <random>
#include <span>

#include "dsp/types.hpp"

namespace ecocap::dsp {

/// SplitMix64 finalizer: a bijective avalanche mix over 64-bit words. Used
/// to derive well-separated seeds from (base seed, counter) pairs without
/// any sequential state, so seed derivation itself is parallel-safe.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Counter-derived seed for trial `trial_index` of an experiment seeded with
/// `base_seed`. Two mixing rounds keep nearby (seed, index) pairs far apart
/// in seed space; the result depends only on the pair, never on execution
/// order, which is what makes sharded Monte-Carlo sweeps bit-identical
/// regardless of thread count.
constexpr std::uint64_t trial_seed(std::uint64_t base_seed,
                                   std::uint64_t trial_index) {
  return splitmix64(splitmix64(base_seed) ^
                    splitmix64(trial_index + 0x5851f42d4c957f2dULL));
}

/// MT19937-64 producing exactly std::mt19937_64's sequence from the same
/// seed, with the same 312-word state and index. It differs only in speed:
/// the twist runs through the kernel table (`kernels::KernelTable::mt_twist`,
/// the matrix term selected with a mask instead of a branch on a random
/// bit), and canonical() converts a draw to double through two exact
/// 32-bit halves (one rounding, so the bits equal the direct u64 → double
/// conversion) instead of the branchy unsigned conversion.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kN = 312;

  explicit Mt19937_64(result_type seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (p_ >= kN) twist();
    return temper(x_[p_++]);
  }

  /// Uniform in [0, 1): std::generate_canonical<double, 53> over one draw,
  /// including its `r < 1 ? r : nextafter(1, 0)` clamp.
  Real canonical() { return to_canonical((*this)()); }

  /// The canonical value of one engine output. Each 32-bit half is placed
  /// in a double's mantissa (hi as 2^84 + hi * 2^32, lo as 2^52 + lo), so
  /// both halves are exact and the sum rounds once, like the direct
  /// u64 → double conversion — but with integer ops the compiler can
  /// vectorize.
  static Real to_canonical(result_type z) {
    const Real hi = std::bit_cast<Real>(0x4530000000000000ULL | (z >> 32)) -
                    0x1.00000001p84;  // 2^84 + 2^52
    const Real lo =
        std::bit_cast<Real>(0x4330000000000000ULL | (z & 0xffffffffULL));
    const Real r = (hi + lo) * 0x1p-64;
    return r < 1.0 ? r : kBelowOne;
  }

  /// MT19937-64's output tempering of one state word.
  static result_type temper(result_type z) {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

  /// Stream text identical to libstdc++'s `os << std::mt19937_64`:
  /// the 312 state words then the index, space separated, in decimal.
  void save(std::ostream& os) const;
  /// Reads that text back; sets failbit (and leaves *this unchanged) on a
  /// short, malformed or out-of-range state.
  void load(std::istream& is);

 private:
  static constexpr Real kBelowOne = 0x1.fffffffffffffp-1;  // nextafter(1, 0)

  void twist();

  friend class Rng;

  std::array<result_type, kN> x_;
  std::size_t p_ = kN;
  /// Twists so far: with p_, it tells Rng whether a state block it
  /// converted is still the current one. Not part of the stream text.
  std::uint64_t twists_ = 0;
};

/// Deterministic random source for all stochastic models (noise, traffic,
/// slot selection). Every experiment seeds its own Rng so runs are exactly
/// reproducible; nothing in the library touches global random state.
///
/// The engine, uniform(), index() and poisson() reproduce std::mt19937_64
/// and libstdc++'s distributions exactly, and save/load write and read the
/// exact stream text of std::mt19937_64 with std::normal_distribution<Real>
/// and std::uniform_real_distribution<Real>, so a checkpoint loads in
/// either generator. Gaussian draws take libstdc++'s Marsaglia polar
/// method, candidate for candidate with a carried spare, but the
/// multiplier sqrt(-2 log(r2) / r2) comes from the kernel table's
/// polar_scale, whose log is a fixed polynomial rather than libm: the
/// draws are the same on every host and table, and within 3 ulps of
/// std::normal_distribution's (about 3% of them differ).
class Rng {
 public:
  /// Largest |gaussian()| the polar method can return: |x| * mult at the
  /// smallest accepted radius, r2 = 2^-106, is sqrt(212 ln 2) ~ 12.122.
  /// load() rejects a carried spare beyond it.
  static constexpr Real kMaxSpare = 0x1.83e8e2149f688p+3;

  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Standard-normal variate.
  Real gaussian() {
    Real g = 0.0;
    add_gaussian(std::span<Real>(&g, 1), 1.0);
    return g;
  }

  /// Normal variate with the given standard deviation.
  Real gaussian(Real sigma) { return sigma * gaussian(); }

  /// Adds sigma * gaussian() to every element of `x`, in order — the same
  /// values and end state as the per-element loop, drawn a block of polar
  /// pairs at a time through the kernel table: candidates, then one
  /// polar_scale call for the multipliers of the consumed pairs. Pairs
  /// converted but not yet consumed are kept for the next call, so a
  /// stream drawn in small calls converts each engine word once.
  void add_gaussian(std::span<Real> x, Real sigma);

  /// Advances exactly as `add_gaussian` over `n` samples would — the same
  /// polar walk, engine index and carried spare — without producing the
  /// values: only a pair split at the end takes its multiplier, because its
  /// x half becomes the spare.
  void skip_gaussian(std::size_t n);

  /// Uniform in [0, 1).
  Real uniform() { return engine_.canonical(); }

  /// Uniform in [lo, hi).
  Real uniform(Real lo, Real hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).
  std::uint64_t index(std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(engine_);
  }

  /// Bernoulli trial with success probability p.
  bool chance(Real p) { return uniform() < p; }

  /// Poisson variate with the given mean.
  int poisson(Real mean) {
    return std::poisson_distribution<int>(mean)(engine_);
  }

  /// Access to the underlying engine for standard distributions.
  Mt19937_64& engine() {
    cand_.at = kNoCandidates;
    return engine_;
  }

  /// Stream the full generator state (engine state vector plus the normal
  /// draw's cached spare variate) for checkpointing. A loaded Rng continues
  /// the exact draw sequence of the saved one. The text is libstdc++'s
  /// `engine << ' ' << normal << ' ' << uniform` for the standard pair.
  void save(std::ostream& os) const;
  /// Sets failbit (and leaves *this unchanged) on malformed text, on
  /// distribution parameters other than the standard (0, 1), or on a spare
  /// beyond kMaxSpare (non-finite included).
  void load(std::istream& is);

 private:
  static constexpr std::size_t kPairs = Mt19937_64::kN / 2;
  static constexpr std::uint16_t kNoCandidates = 0xffff;

  /// Marsaglia-polar candidates converted from the engine's current state
  /// block and not yet consumed, in draw order: each attempt takes two
  /// words (u then v) and is kept when 0 < r2 <= 1. Derived state, not
  /// part of the stream text: it holds while the engine is still at `at`
  /// in twist `twists`, so any other engine draw drops it, as do
  /// engine(), load() and a twist.
  struct Candidates {
    Real x[kPairs] = {}, y[kPairs] = {}, r2[kPairs] = {};
    std::uint16_t end[kPairs] = {};  // engine index just past each pair
    std::uint16_t head = 0;     // next unconsumed candidate
    std::uint16_t count = 0;
    std::uint16_t converted = 0;  // engine index the conversion reached
    std::uint16_t at = kNoCandidates;
    std::uint64_t twists = 0;
  };
  static_assert(sizeof(Candidates) <= 4096, "4 KB per Rng at most");

  /// The one draw loop behind add_gaussian (out non-null: adds
  /// sigma * gaussian() to out[0..n)) and skip_gaussian (out null).
  void draw_gaussian(Real* out, std::size_t n, Real sigma);
  /// Converts the next run of pairs after the consumed candidates, sized
  /// for about `want` acceptances. The engine index stays where the last
  /// consumed candidate left it, exactly where a sequential draw would be.
  void convert_candidates(std::size_t want);

  Mt19937_64 engine_;
  Real spare_ = 0.0;
  bool spare_available_ = false;
  Candidates cand_;
};

/// Fresh per-trial Rng for Monte-Carlo sweeps: trial `trial_index` of an
/// experiment seeded with `base_seed` always gets the same stream, so a
/// sweep can be sharded across any number of workers and still reproduce
/// the single-threaded run bit for bit.
inline Rng trial_rng(std::uint64_t base_seed, std::uint64_t trial_index) {
  return Rng(trial_seed(base_seed, trial_index));
}

}  // namespace ecocap::dsp
