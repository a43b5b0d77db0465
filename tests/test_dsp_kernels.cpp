// Scalar-vs-SIMD equivalence for the runtime-dispatched kernel layer.
//
// The contract (dsp/kernels/kernels.hpp): elementwise maps and the
// canonical striped/block-scan forms are *bit-identical* across every
// table, so these tests compare raw double bit patterns, not tolerances.
// Only the comparison against the old sequential reference (a different
// summation order) is toleranced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "dsp/biquad.hpp"
#include "dsp/envelope.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/kernels/kernels_detail.hpp"
#include "dsp/oscillator.hpp"
#include "dsp/rng.hpp"
#include "dsp/serialize.hpp"
#include "mt_words.hpp"

namespace ecocap::dsp::kernels {
namespace {

// Lengths chosen to exercise empty input, sub-block tails, exact block
// multiples, and long buffers; offsets shift the data off 32-byte
// alignment so unaligned SIMD loads are covered.
const std::size_t kLengths[] = {0, 1, 3, 7, 8, 9, 31, 64, 257, 1000, 1023};
const std::size_t kOffsets[] = {0, 1, 3};

Signal random_signal(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<Real> dist(-1.0, 1.0);
  Signal out(n);
  for (Real& v : out) v = dist(rng);
  return out;
}

bool bit_equal(Real a, Real b) {
  return std::memcmp(&a, &b, sizeof(Real)) == 0;
}

/// Distance in units in the last place between two finite doubles.
std::int64_t ulp_distance(Real a, Real b) {
  const auto ordered = [](Real v) {
    std::int64_t i;
    std::memcpy(&i, &v, sizeof v);
    return i < 0 ? INT64_MIN - i : i;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

/// Phases covering [0, 2*pi): a dense uniform grid, then the 64 doubles on
/// each side of every multiple of pi/4 (the reduction's quadrant edges and
/// the sine's zeros and peaks).
Signal sine_test_phases() {
  Signal x;
  constexpr std::size_t kGrid = 1 << 20;
  for (std::size_t i = 0; i < kGrid; ++i) {
    x.push_back(kTwoPi * static_cast<Real>(i) / static_cast<Real>(kGrid));
  }
  for (int k = 0; k <= 8; ++k) {
    Real lo = k * (kPi / 4.0), hi = lo;
    for (int step = 0; step < 64; ++step) {
      if (lo >= 0.0) x.push_back(lo);
      if (hi < kTwoPi) x.push_back(hi);
      lo = std::nextafter(lo, -1.0);
      hi = std::nextafter(hi, 10.0);
    }
  }
  return x;
}

/// Every non-scalar table that can run on this machine.
std::vector<const KernelTable*> simd_tables() {
  std::vector<const KernelTable*> out;
  for (Isa isa : {Isa::kAvx2}) {
    if (available(isa)) out.push_back(&table(isa));
  }
  return out;
}

TEST(KernelDispatch, IsaNamesParse) {
  Isa isa;
  ASSERT_TRUE(isa_from_name("scalar", isa));
  EXPECT_EQ(isa, Isa::kScalar);
  ASSERT_TRUE(isa_from_name("avx2", isa));
  EXPECT_EQ(isa, Isa::kAvx2);
  ASSERT_TRUE(isa_from_name("auto", isa));
  EXPECT_TRUE(available(isa));  // auto always names a runnable table
  EXPECT_FALSE(isa_from_name("neon", isa));  // no NEON table; scalar serves
  EXPECT_FALSE(isa_from_name("sse9", isa));
  EXPECT_FALSE(isa_from_name("", isa));
  EXPECT_FALSE(isa_from_name(nullptr, isa));
}

TEST(KernelDispatch, ScalarAlwaysAvailable) {
  EXPECT_TRUE(available(Isa::kScalar));
  EXPECT_EQ(scalar_table().isa, Isa::kScalar);
  EXPECT_TRUE(available(active_isa()));
}

TEST(KernelDispatch, UnavailableIsaFallsBackToScalar) {
  for (Isa isa : {Isa::kAvx2}) {
    if (!available(isa)) {
      EXPECT_EQ(table(isa).isa, Isa::kScalar);
    } else {
      EXPECT_EQ(table(isa).isa, isa);
    }
  }
}

TEST(KernelEquivalence, DotBitIdenticalAcrossTables) {
  const KernelTable& ref = scalar_table();
  for (const KernelTable* t : simd_tables()) {
    for (std::size_t n : kLengths) {
      for (std::size_t off : kOffsets) {
        const Signal a = random_signal(n + off, 17u + static_cast<std::uint32_t>(n));
        const Signal b = random_signal(n + off, 91u + static_cast<std::uint32_t>(n));
        const Real rs = ref.dot(a.data() + off, b.data() + off, n);
        const Real rv = t->dot(a.data() + off, b.data() + off, n);
        EXPECT_TRUE(bit_equal(rs, rv))
            << isa_name(t->isa) << " dot n=" << n << " off=" << off;
      }
    }
  }
}

TEST(KernelEquivalence, DotMatchesSequentialSumWithinTolerance) {
  // The striped order is a different (but fixed) summation order than the
  // naive sequential loop; agreement is to rounding, not bitwise. This is
  // the documented "tolerance mode" for reductions.
  const Signal a = random_signal(1023, 5);
  const Signal b = random_signal(1023, 6);
  Real seq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) seq += a[i] * b[i];
  const Real striped = scalar_table().dot(a.data(), b.data(), a.size());
  EXPECT_NEAR(striped, seq, 1e-12 * static_cast<Real>(a.size()));
}

TEST(KernelEquivalence, CorrelateValidBitIdenticalAcrossTables) {
  const KernelTable& ref = scalar_table();
  for (const KernelTable* t : simd_tables()) {
    for (std::size_t nh : {1u, 5u, 32u, 129u}) {
      const std::size_t nx = nh + 100;
      const Signal x = random_signal(nx, 23);
      const Signal h = random_signal(nh, 29);
      Signal out_s(nx - nh + 1), out_v(nx - nh + 1);
      ref.correlate_valid(x.data(), nx, h.data(), nh, out_s.data());
      t->correlate_valid(x.data(), nx, h.data(), nh, out_v.data());
      for (std::size_t k = 0; k < out_s.size(); ++k) {
        ASSERT_TRUE(bit_equal(out_s[k], out_v[k]))
            << isa_name(t->isa) << " nh=" << nh << " k=" << k;
      }
    }
  }
}

TEST(KernelEquivalence, OnepoleAndEnvelopeBitIdenticalAcrossTables) {
  const KernelTable& ref = scalar_table();
  const Real alpha = 0.125;
  for (const KernelTable* t : simd_tables()) {
    for (std::size_t n : kLengths) {
      for (std::size_t off : kOffsets) {
        const Signal x = random_signal(n + off, 7u + static_cast<std::uint32_t>(n));
        Signal ys(n), yv(n);
        Real ss = 0.25, sv = 0.25;
        ref.onepole(x.data() + off, ys.data(), n, alpha, &ss);
        t->onepole(x.data() + off, yv.data(), n, alpha, &sv);
        ASSERT_TRUE(bit_equal(ss, sv)) << isa_name(t->isa) << " n=" << n;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(bit_equal(ys[i], yv[i]))
              << isa_name(t->isa) << " onepole n=" << n << " i=" << i;
        }
        ss = sv = 0.5;
        ref.envelope(x.data() + off, ys.data(), n, alpha, &ss);
        t->envelope(x.data() + off, yv.data(), n, alpha, &sv);
        ASSERT_TRUE(bit_equal(ss, sv)) << isa_name(t->isa) << " n=" << n;
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(bit_equal(ys[i], yv[i]))
              << isa_name(t->isa) << " envelope n=" << n << " i=" << i;
        }
      }
    }
  }
}

/// Look-ahead form of an arbitrary stable biquad (poles at radius 0.5).
BiquadCoeffs test_biquad() { return biquad_lookahead(0.2, 0.3, 0.1, -0.5, 0.25); }

/// A non-zero carried state, as a filter mid-stream has.
BiquadState test_biquad_state() {
  const Signal v = random_signal(16, 23);
  BiquadState s;
  std::copy_n(v.begin(), 8, s.x);
  std::copy_n(v.begin() + 8, 8, s.y);
  return s;
}

bool state_bit_equal(const BiquadState& a, const BiquadState& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(KernelEquivalence, LookaheadBiquadBitIdenticalAcrossTables) {
  // Every output is one fixed expression of the last nine inputs and two
  // earlier outputs: the SIMD lanes and the scalar tail must evaluate it
  // exactly as the scalar table does, from any carried state.
  const BiquadCoeffs c = test_biquad();
  const KernelTable& ref = scalar_table();
  for (const KernelTable* t : simd_tables()) {
    for (std::size_t n : kLengths) {
      for (std::size_t off : kOffsets) {
        const Signal x =
            random_signal(n + off, 29u + static_cast<std::uint32_t>(n));
        Signal want(n + off), got(n + off);
        BiquadState sw = test_biquad_state(), sg = test_biquad_state();
        ref.biquad(x.data() + off, want.data() + off, n, c, sw);
        t->biquad(x.data() + off, got.data() + off, n, c, sg);
        for (std::size_t i = off; i < n + off; ++i) {
          ASSERT_TRUE(bit_equal(want[i], got[i]))
              << isa_name(t->isa) << " n=" << n << " i=" << i;
        }
        EXPECT_TRUE(state_bit_equal(sw, sg)) << isa_name(t->isa) << " n=" << n;
      }
    }
  }
}

TEST(KernelEquivalence, BiquadInPlaceMatchesOutOfPlace) {
  // The channel filters in place: the kernel must keep its own copy of the
  // input history rather than re-read slots it has overwritten.
  const BiquadCoeffs c = test_biquad();
  std::vector<const KernelTable*> tables = simd_tables();
  tables.push_back(&scalar_table());
  for (const KernelTable* t : tables) {
    for (std::size_t n : {std::size_t{7}, std::size_t{64}, std::size_t{333}}) {
      Signal x = random_signal(n, 13);
      Signal y(x.size());
      BiquadState s1 = test_biquad_state(), s2 = test_biquad_state();
      t->biquad(x.data(), y.data(), x.size(), c, s1);
      t->biquad(x.data(), x.data(), x.size(), c, s2);  // in place
      for (std::size_t i = 0; i < x.size(); ++i) {
        ASSERT_TRUE(bit_equal(x[i], y[i])) << isa_name(t->isa) << " " << i;
      }
      EXPECT_TRUE(state_bit_equal(s1, s2)) << isa_name(t->isa);
    }
  }
}

TEST(KernelEquivalence, FdtdRowsBitIdenticalAcrossTables) {
  const std::size_t nx = 67;  // odd width -> SIMD tail path exercised
  const KernelTable& ref = scalar_table();
  for (const KernelTable* t : simd_tables()) {
    for (bool with_forces : {false, true}) {
      // Three rows of every field; the kernels update the middle row.
      auto mk = [&](std::uint32_t seed) { return random_signal(3 * nx, seed); };
      Signal vx_s = mk(1), vy_s = mk(2), sxx = mk(3), syy = mk(4), sxy = mk(5);
      Signal rho = mk(6), lambda = mk(7), mu = mk(8);
      for (Real& v : rho) v = std::abs(v) + 0.5;
      Signal fx_s = mk(9), fy_s = mk(10);
      Signal vx_v = vx_s, vy_v = vy_s, fx_v = fx_s, fy_v = fy_s;

      auto velocity_args = [&](Signal& vx, Signal& vy, Signal& fx,
                               Signal& fy) {
        FdtdVelocityRowArgs a{};
        a.vx = vx.data() + nx;
        a.vy = vy.data() + nx;
        a.sxx = sxx.data() + nx;
        a.sxy = sxy.data() + nx;
        a.sxy_dn = sxy.data();
        a.syy = syy.data() + nx;
        a.syy_up = syy.data() + 2 * nx;
        a.rho = rho.data() + nx;
        a.fx = with_forces ? fx.data() + nx : nullptr;
        a.fy = with_forces ? fy.data() + nx : nullptr;
        a.i0 = 1;
        a.i1 = nx - 1;
        a.dt = 1e-7;
        a.inv_dx = 500.0;
        return a;
      };
      const auto as = velocity_args(vx_s, vy_s, fx_s, fy_s);
      ref.fdtd_velocity_row(as);
      const auto av = velocity_args(vx_v, vy_v, fx_v, fy_v);
      t->fdtd_velocity_row(av);
      for (std::size_t i = 0; i < 3 * nx; ++i) {
        ASSERT_TRUE(bit_equal(vx_s[i], vx_v[i]))
            << isa_name(t->isa) << " vx i=" << i << " forces=" << with_forces;
        ASSERT_TRUE(bit_equal(vy_s[i], vy_v[i]))
            << isa_name(t->isa) << " vy i=" << i << " forces=" << with_forces;
        ASSERT_TRUE(bit_equal(fx_s[i], fx_v[i]))
            << isa_name(t->isa) << " fx i=" << i << " forces=" << with_forces;
      }
      if (with_forces) {
        // Consumed entries must be zeroed by the pass itself.
        for (std::size_t i = 1; i + 1 < nx; ++i) {
          EXPECT_EQ(fx_v[nx + i], 0.0);
          EXPECT_EQ(fy_v[nx + i], 0.0);
        }
      }

      Signal sxx_s = mk(11), syy_s = mk(12), sxy_s = mk(13);
      Signal sxx_v = sxx_s, syy_v = syy_s, sxy_v = sxy_s;
      auto stress_args = [&](Signal& osxx, Signal& osyy, Signal& osxy) {
        FdtdStressRowArgs a{};
        a.sxx = osxx.data() + nx;
        a.syy = osyy.data() + nx;
        a.sxy = osxy.data() + nx;
        a.vx = vx_s.data() + nx;
        a.vx_up = vx_s.data() + 2 * nx;
        a.vy = vy_s.data() + nx;
        a.vy_dn = vy_s.data();
        a.lambda = lambda.data() + nx;
        a.mu = mu.data() + nx;
        a.i0 = 1;
        a.i1 = nx - 1;
        a.dt = 1e-7;
        a.inv_dx = 500.0;
        return a;
      };
      const auto ss = stress_args(sxx_s, syy_s, sxy_s);
      ref.fdtd_stress_row(ss);
      const auto sv = stress_args(sxx_v, syy_v, sxy_v);
      t->fdtd_stress_row(sv);
      for (std::size_t i = 0; i < 3 * nx; ++i) {
        ASSERT_TRUE(bit_equal(sxx_s[i], sxx_v[i]))
            << isa_name(t->isa) << " sxx i=" << i;
        ASSERT_TRUE(bit_equal(syy_s[i], syy_v[i]))
            << isa_name(t->isa) << " syy i=" << i;
        ASSERT_TRUE(bit_equal(sxy_s[i], sxy_v[i]))
            << isa_name(t->isa) << " sxy i=" << i;
      }
    }
  }
}

TEST(KernelEquivalence, SineBitIdenticalAcrossTables) {
  const Signal phases = sine_test_phases();
  for (const KernelTable* t : simd_tables()) {
    for (std::size_t n : kLengths) {
      for (std::size_t off : kOffsets) {
        for (Real amplitude : {1.0, 0.37}) {
          Signal a(phases.begin() + static_cast<std::ptrdiff_t>(off),
                   phases.begin() + static_cast<std::ptrdiff_t>(off + n));
          Signal b = a;
          scalar_table().sine(a.data(), n, amplitude);
          t->sine(b.data(), n, amplitude);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_TRUE(bit_equal(a[i], b[i]))
                << isa_name(t->isa) << " n=" << n << " i=" << i;
          }
        }
      }
    }
    Signal a = phases, b = phases;
    scalar_table().sine(a.data(), a.size(), 1.0);
    t->sine(b.data(), b.size(), 1.0);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_TRUE(bit_equal(a[i], b[i]))
          << isa_name(t->isa) << " x=" << phases[i];
    }
  }
}

TEST(KernelEquivalence, SineWithinOneUlpOfStdSin) {
  const Signal phases = sine_test_phases();
  Signal y = phases;
  active().sine(y.data(), y.size(), 1.0);
  std::int64_t worst = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    const std::int64_t d = ulp_distance(y[i], std::sin(phases[i]));
    ASSERT_LE(d, 1) << "x=" << phases[i];
    worst = std::max(worst, d);
  }
  EXPECT_EQ(worst, 1) << "a polynomial sine is not correctly rounded "
                         "everywhere; 0 means std::sin itself ran";
}

/// Untempered state words for the polar kernels: random words, then pairs
/// of crafted engine outputs — the clamp word ~0 (u = 1 - 2^-53), 2^63
/// (u == 0.5 exactly: x == 0, and r2 == 0 when both halves are 0.5, a
/// rejected pair), 0 (x == -1, so (0, 2^63) gives r2 == 1 exactly), tiny
/// radii, and r2 a few ulps on either side of 1: the clamp word with
/// v = 0.5 + d / 2^64 for d around 2^37.5, where y^2 ~ 2^-51 cancels the
/// clamp's 1 - x^2.
std::vector<std::uint64_t> polar_test_words() {
  constexpr std::uint64_t kClamp = ~0ULL;
  constexpr std::uint64_t kHalf = 0x8000000000000000ULL;
  std::vector<std::uint64_t> out = {
      kClamp, kHalf,  kHalf, kHalf,  kHalf,        kClamp,
      kClamp, kClamp, 0,     kHalf,  kHalf,        0,
      0,      0,      kHalf + 2048,  kHalf + 2048, kHalf - 2048,
      kHalf + 4096};
  for (std::uint64_t d = 150'000'000'000ULL; d < 260'000'000'000ULL;
       d += 500'000'000ULL) {
    out.push_back(kClamp);
    out.push_back(kHalf + d);
  }
  std::mt19937_64 g(17);
  for (int i = 0; i < 4000; ++i) out.push_back(g());
  for (std::uint64_t& w : out) w = untemper(w);
  return out;
}

TEST(KernelEquivalence, MtTwistBitIdenticalAcrossTables) {
  std::mt19937_64 g(23);
  std::vector<std::vector<std::uint64_t>> states = {
      std::vector<std::uint64_t>(kMtStateWords, 0),
      std::vector<std::uint64_t>(kMtStateWords, ~0ULL),
      std::vector<std::uint64_t>(kMtStateWords, 0x5555555555555555ULL)};
  for (int k = 0; k < 8; ++k) {
    states.emplace_back(kMtStateWords);
    for (std::uint64_t& w : states.back()) w = g();
  }
  for (const KernelTable* t : simd_tables()) {
    for (const auto& state : states) {
      std::vector<std::uint64_t> a = state, b = state;
      for (int round = 0; round < 3; ++round) {
        scalar_table().mt_twist(a.data());
        t->mt_twist(b.data());
        ASSERT_EQ(a, b) << isa_name(t->isa) << " round " << round;
      }
    }
  }
}

TEST(KernelEquivalence, ScalarMtTwistIsStdMt19937_64) {
  // Seeded state twisted by the kernel, tempered, equals the engine's
  // first two blocks of output.
  std::mt19937_64 ref(5489);
  std::stringstream ss;
  ss << ref;
  std::vector<std::uint64_t> state(kMtStateWords);
  for (std::uint64_t& w : state) ss >> w;
  for (int block = 0; block < 2; ++block) {
    scalar_table().mt_twist(state.data());
    for (const std::uint64_t w : state) {
      ASSERT_EQ(Mt19937_64::temper(w), ref()) << "block " << block;
    }
  }
}

/// What a table's polar_candidates writes, as plain vectors.
struct Accepted {
  std::vector<Real> x, y, r2;
  std::vector<std::uint64_t> pair;
};

Accepted accepted_candidates(const KernelTable& t, const std::uint64_t* w,
                             std::size_t pairs) {
  Accepted a{std::vector<Real>(pairs), std::vector<Real>(pairs),
             std::vector<Real>(pairs), std::vector<std::uint64_t>(pairs)};
  const std::size_t got = t.polar_candidates(
      w, pairs, a.x.data(), a.y.data(), a.r2.data(), a.pair.data());
  a.x.resize(got);
  a.y.resize(got);
  a.r2.resize(got);
  a.pair.resize(got);
  return a;
}

void expect_bit_equal(const Accepted& a, const Accepted& b,
                      const std::string& where) {
  ASSERT_EQ(a.pair, b.pair) << where;
  for (std::size_t k = 0; k < a.pair.size(); ++k) {
    ASSERT_TRUE(bit_equal(a.x[k], b.x[k]) && bit_equal(a.y[k], b.y[k]) &&
                bit_equal(a.r2[k], b.r2[k]))
        << where << " k=" << k;
  }
}

TEST(KernelEquivalence, PolarCandidatesMatchLibstdcxxArithmetic) {
  // Each pair through Mt19937_64's tempering and generate_canonical
  // mapping, then libstdc++'s 2u - 1 and r2; the scalar table keeps
  // exactly the pairs with 0 < r2 <= 1, in order.
  const std::vector<std::uint64_t> words = polar_test_words();
  const std::size_t all = words.size() / 2;
  Accepted want;
  std::vector<Real> radii;
  for (std::size_t j = 0; j < all; ++j) {
    const auto coord = [&](std::uint64_t w) {
      return 2.0 * Mt19937_64::to_canonical(Mt19937_64::temper(w)) - 1.0;
    };
    const Real x = coord(words[2 * j]);
    const Real y = coord(words[2 * j + 1]);
    const Real r2 = x * x + y * y;
    radii.push_back(r2);
    if (r2 <= 1.0 && r2 != 0.0) {
      want.x.push_back(x);
      want.y.push_back(y);
      want.r2.push_back(r2);
      want.pair.push_back(j);
    }
  }
  // The crafted words reach every edge the acceptance test has.
  const auto count = [&](auto pred) {
    return std::count_if(radii.begin(), radii.end(), pred);
  };
  EXPECT_GT(count([](Real r) { return r == 0.0; }), 0);
  EXPECT_GT(count([](Real r) { return r == 1.0; }), 0);
  EXPECT_GT(count([](Real r) { return r < 1.0 && r > 1.0 - 0x1p-50; }), 0);
  EXPECT_GT(count([](Real r) { return r > 1.0 && r < 1.0 + 0x1p-49; }), 0);
  EXPECT_EQ(want.x[0], 1.0 - 0x1p-52);  // the clamp word
  EXPECT_EQ(want.y[0], 0.0);            // u == 0.5 exactly
  expect_bit_equal(accepted_candidates(scalar_table(), words.data(), all),
                   want, "scalar");
}

TEST(KernelEquivalence, PolarCandidatesBitIdenticalAcrossTables) {
  const std::vector<std::uint64_t> words = polar_test_words();
  for (const KernelTable* t : simd_tables()) {
    for (const std::size_t pairs : {0, 1, 3, 4, 5, 8, 155, 156, 1000,
                                    static_cast<int>(words.size() / 2)}) {
      for (const std::size_t off : {0, 1, 3}) {
        if (2 * pairs + off > words.size()) continue;
        expect_bit_equal(
            accepted_candidates(scalar_table(), words.data() + off, pairs),
            accepted_candidates(*t, words.data() + off, pairs),
            std::string(isa_name(t->isa)) + " pairs=" +
                std::to_string(pairs) + " off=" + std::to_string(off));
      }
    }
  }
}

/// Radii for the polar scale: r2 = 1 (log 0, so the multiplier is
/// sqrt(-0.0) == -0.0), 1 - 2^-53, the smallest accepted radius 2^-106
/// (the largest multiplier), every power of two between with its
/// neighbours, the 64 doubles on each side of sqrt(2)/2 * 2^-k (where the
/// log's reduction switches between r2's mantissa and its half), and the
/// accepted radii of the crafted words.
std::vector<Real> polar_test_radii() {
  std::vector<Real> r2 = {1.0, 1.0 - 0x1p-53, 0x1p-106};
  for (int e = -106; e < 0; ++e) {
    const Real p = std::ldexp(1.0, e);
    r2.insert(r2.end(), {p, std::nextafter(p, 2.0)});
    if (e > -106) r2.push_back(std::nextafter(p, 0.0));
  }
  for (const int k : {0, 1, 7, 52, 105}) {
    Real lo = std::ldexp(std::sqrt(0.5), -k), hi = lo;
    for (int step = 0; step < 64; ++step) {
      r2.insert(r2.end(), {lo, hi});
      lo = std::nextafter(lo, 0.0);
      hi = std::nextafter(hi, 2.0);
    }
  }
  const std::vector<std::uint64_t> words = polar_test_words();
  const Accepted a =
      accepted_candidates(scalar_table(), words.data(), words.size() / 2);
  r2.insert(r2.end(), a.r2.begin(), a.r2.end());
  return r2;
}

TEST(KernelEquivalence, PolarScaleBitIdenticalAcrossTables) {
  const std::vector<Real> r2 = polar_test_radii();
  ASSERT_GT(r2.size(), 1000u);
  std::vector<Real> ref(r2.size());
  scalar_table().polar_scale(ref.data(), r2.data(), ref.size());
  for (std::size_t i = 0; i < r2.size(); ++i) {
    ASSERT_TRUE(bit_equal(
        ref[i], std::sqrt(-2 * detail::scalar::polar_log(r2[i]) / r2[i])))
        << i;
  }
  EXPECT_TRUE(bit_equal(ref[0], -0.0));
  for (const KernelTable* t : simd_tables()) {
    for (std::size_t n : kLengths) {
      for (std::size_t off : kOffsets) {
        std::vector<Real> m(n);
        t->polar_scale(m.data(), r2.data() + off, n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_TRUE(bit_equal(m[i], ref[off + i]))
              << isa_name(t->isa) << " n=" << n << " i=" << i;
        }
      }
    }
    std::vector<Real> m(r2.size());
    t->polar_scale(m.data(), r2.data(), m.size());
    for (std::size_t i = 0; i < r2.size(); ++i) {
      ASSERT_TRUE(bit_equal(m[i], ref[i]))
          << isa_name(t->isa) << " r2=" << r2[i];
    }
  }
}

TEST(KernelEquivalence, PolarLogWithinOneUlpOfStdLog) {
  // Over the edge radii and a million accepted radii of random pairs: the
  // kernel's log is within 1 ulp of std::log, so the multiplier is within
  // 2 ulps of sqrt(-2 * std::log(r2) / r2) (a log near the bottom of its
  // binade carries up to twice the relative error into the quotient).
  std::vector<Real> r2 = polar_test_radii();
  std::mt19937_64 g(29);
  std::uniform_real_distribution<Real> coord(-1.0, 1.0);
  while (r2.size() < 1'100'000) {
    const Real x = coord(g), y = coord(g);
    const Real s = x * x + y * y;
    if (s <= 1.0 && s != 0.0) r2.push_back(s);
  }
  std::vector<Real> m(r2.size());
  active().polar_scale(m.data(), r2.data(), m.size());
  std::int64_t worst_log = 0, worst_mult = 0;
  for (std::size_t i = 0; i < r2.size(); ++i) {
    const Real l = std::log(r2[i]);
    const std::int64_t dl = ulp_distance(detail::scalar::polar_log(r2[i]), l);
    const std::int64_t dm = ulp_distance(m[i], std::sqrt(-2 * l / r2[i]));
    ASSERT_LE(dl, 1) << "r2=" << r2[i];
    ASSERT_LE(dm, 2) << "r2=" << r2[i];
    worst_log = std::max(worst_log, dl);
    worst_mult = std::max(worst_mult, dm);
  }
  EXPECT_EQ(worst_log, 1) << "a polynomial log is not correctly rounded "
                             "everywhere; 0 means std::log itself ran";
  EXPECT_GE(worst_mult, 1);
}

// The exact grid of a frequency at 2 MHz: f/fs = step/grid in lowest
// terms, or rounded onto 2^53 points when the reduced grid is finer.
struct GridRef {
  std::uint64_t step;
  std::uint64_t grid;
};
GridRef grid_at_2mhz(Real f) {
  if (f == 230.0e3) return {23, 200};
  if (f == 180.0e3) return {9, 100};
  if (f == 232.0e3) return {29, 250};
  constexpr std::uint64_t k53 = std::uint64_t{1} << 53;
  return {static_cast<std::uint64_t>(std::llround(std::ldexp(f / 2.0e6, 53))),
          k53};
}

// phase = offset + (2*pi/grid) * index, wrapped once.
Real grid_phase(Real offset, std::uint64_t index, std::uint64_t grid) {
  const Real p = offset + kTwoPi / static_cast<Real>(grid) *
                              static_cast<Real>(index);
  return p >= kTwoPi ? p - kTwoPi : p;
}

/// Loads `offset` and `index` into `osc` through its checkpoint records.
void load_phase(Oscillator& osc, Real offset, std::uint64_t index) {
  ser::Writer w("osc");
  w.field("osc.phase", offset);
  w.field("osc.index", index);
  ser::Reader r(w.payload(), "osc");
  Oscillator::io(osc, r, "osc.phase", "osc.index");
}

TEST(KernelUsers, OscillatorEntryPointsAgreeAtAnySplit) {
  // next() x n, generate() over random block splits and accumulate() over
  // zeros must give the same bits, with the amplitude changing from call to
  // call, across FSK-style frequency hops and a reset_phase mid-hop, and
  // leave the phase on the grid formula a checkpoint stores. The block
  // calls replay a table of unit sines exactly when the period is within
  // kMaxTablePeriod (12345.678 Hz lies on the 2^53 grid, far above it),
  // and a hop or a reset drops the table.
  constexpr Real kFs = 2.0e6;
  const Real hops[] = {230.0e3, 180.0e3, 230.0e3, 12345.678, 230.0e3};
  constexpr std::size_t kPerHop = 3001;
  const Real amps[] = {0.8, 0.3, 1.0, -2.5};
  constexpr Real kReset = 0.7;
  std::mt19937 rng(7);
  Oscillator by_next(kFs, hops[0]), by_block(kFs, hops[0]),
      by_acc(kFs, hops[0]);
  by_next.reset_phase(1.0);
  by_block.reset_phase(1.0);
  by_acc.reset_phase(1.0);
  Real ref_offset = 1.0;
  std::uint64_t ref_index = 0;
  GridRef g = grid_at_2mhz(hops[0]);
  for (Real f : hops) {
    // A hop folds the current phase into the offset and restarts the grid.
    ref_offset = grid_phase(ref_offset, ref_index, g.grid);
    ref_index = 0;
    g = grid_at_2mhz(f);
    by_next.set_frequency(f);
    by_block.set_frequency(f);
    by_acc.set_frequency(f);
    ASSERT_EQ(by_next.grid(), g.grid) << f;
    ASSERT_EQ(by_next.step(), g.step) << f;
    ASSERT_FALSE(by_block.has_table()) << f;
    ASSERT_FALSE(by_acc.has_table()) << f;
    const bool tabled = by_next.period() <= Oscillator::kMaxTablePeriod;
    ASSERT_EQ(tabled, f != 12345.678);

    // One split and one amplitude per call, shared by the three paths; all
    // three restart their phase at kReset halfway through the hop.
    Signal want, got, acc(kPerHop, 0.0), amp_of;
    std::size_t reset_at = 0;
    for (std::size_t i = 0; i < kPerHop;) {
      if (reset_at == 0 && i >= kPerHop / 2) {
        reset_at = i;
        by_next.reset_phase(kReset);
        by_block.reset_phase(kReset);
        by_acc.reset_phase(kReset);
        ASSERT_FALSE(by_block.has_table()) << f;
        ASSERT_FALSE(by_acc.has_table()) << f;
      }
      const std::size_t n =
          std::min<std::size_t>(rng() % 700, kPerHop - i);
      const Real amp = amps[rng() % std::size(amps)];
      for (std::size_t k = 0; k < n; ++k) want.push_back(by_next.next(amp));
      Signal block;
      by_block.generate(n, amp, block);
      got.insert(got.end(), block.begin(), block.end());
      by_acc.accumulate(std::span<Real>(acc.data() + i, n), amp);
      amp_of.insert(amp_of.end(), n, amp);
      if (n > 0) {
        ASSERT_EQ(by_block.has_table(), tabled) << f;
        ASSERT_EQ(by_acc.has_table(), tabled) << f;
      }
      i += n;
    }

    for (std::size_t i = 0; i < kPerHop; ++i) {
      ASSERT_TRUE(bit_equal(want[i], got[i])) << "f=" << f << " i=" << i;
      ASSERT_TRUE(bit_equal(want[i], acc[i])) << "f=" << f << " i=" << i;
      if (i == reset_at) {
        ref_offset = kReset;
        ref_index = 0;
      }
      const Real ref_phase = grid_phase(ref_offset, ref_index, g.grid);
      ASSERT_LE(std::abs(want[i] - amp_of[i] * std::sin(ref_phase)),
                std::abs(amp_of[i]) * 2.9e-16);
      ref_index = (ref_index + g.step) % g.grid;
    }
    const Real ref_phase = grid_phase(ref_offset, ref_index, g.grid);
    ASSERT_TRUE(bit_equal(by_next.phase(), ref_phase)) << f;
    ASSERT_TRUE(bit_equal(by_block.phase(), ref_phase)) << f;
    ASSERT_TRUE(bit_equal(by_acc.phase(), ref_phase)) << f;
  }

  // A checkpoint load keeps the table only while it holds the sequence
  // through the loaded index. At fs = 2^21, f = 2^9 + 2^-39 Hz gives
  // f/fs = 2^-12 + 2^-60, which rounds onto the 2^53 grid with step 2^41:
  // gcd(step, grid) = 2^41 index residues, each a sequence of period 4096.
  constexpr Real kFs2 = 0x1p21;
  constexpr Real kF2 = 0x1p9 + 0x1p-39;
  constexpr std::uint64_t kStep2 = std::uint64_t{1} << 41;
  Oscillator tabled(kFs2, kF2);
  ASSERT_EQ(tabled.step(), kStep2);
  ASSERT_EQ(tabled.period(), 4096u);
  tabled.reset_phase(0.25);
  Signal x;
  tabled.generate(1000, 1.0, x);
  ASSERT_TRUE(tabled.has_table());
  struct Load {
    Real offset;
    std::uint64_t index;
    bool keeps;
  };
  for (const Load load : {Load{0.25, 77 * kStep2, true},
                          Load{0.25, 77 * kStep2 + 12345, false},
                          Load{0.5, 77 * kStep2, false}}) {
    Oscillator loaded = tabled;
    load_phase(loaded, load.offset, load.index);
    ASSERT_EQ(loaded.has_table(), load.keeps) << load.index;
    Oscillator plain(kFs2, kF2);
    load_phase(plain, load.offset, load.index);
    for (const Real amp : {0.8, -2.5}) {
      Signal block;
      loaded.generate(5000, amp, block);
      ASSERT_TRUE(loaded.has_table());
      for (std::size_t i = 0; i < block.size(); ++i) {
        ASSERT_TRUE(bit_equal(block[i], plain.next(amp)))
            << load.index << " i=" << i;
      }
    }
  }
}

TEST(KernelUsers, OscillatorPeriodIsExact) {
  // 230 kHz / 2 MHz = 23/200: the phase sequence repeats every 200 samples;
  // dual_reader's second reader 2 kHz up, at 29/250, every 250.
  constexpr Real kFs = 2.0e6;
  for (const auto& [f, period] : {std::pair{230.0e3, 200u},
                                  std::pair{232.0e3, 250u}}) {
    Oscillator osc(kFs, f);
    osc.reset_phase(0.3);
    ASSERT_EQ(osc.period(), period) << f;
    Signal first(period), again(period);
    osc.phases(first);
    osc.phases(again);
    for (std::size_t i = 0; i < period; ++i) {
      ASSERT_TRUE(bit_equal(first[i], again[i])) << f << " i=" << i;
    }
    ASSERT_TRUE(bit_equal(osc.phase(), 0.3)) << f;
  }
}

TEST(KernelUsers, OscillatorAdvanceIsIndexArithmetic) {
  // advance(n) = (index + n * step) mod grid, for n far beyond any stream,
  // on both an exact grid and the rounded 2^53 one.
  constexpr Real kFs = 2.0e6;
  using u128 = unsigned __int128;
  for (Real f : {230.0e3, 12345.678}) {
    Oscillator osc(kFs, f);
    osc.advance(77);
    for (std::uint64_t n : {std::uint64_t{0}, std::uint64_t{1},
                            std::uint64_t{199}, std::uint64_t{1} << 32,
                            (std::uint64_t{1} << 40) - 3,
                            std::uint64_t{1} << 40}) {
      const std::uint64_t before = osc.index();
      osc.advance(n);
      const auto want = static_cast<std::uint64_t>(
          (u128{before} + u128{n} * osc.step()) % osc.grid());
      ASSERT_EQ(osc.index(), want) << "f=" << f << " n=" << n;
    }
  }
}

TEST(KernelUsers, OscillatorOffGridHopStaysExact) {
  // 12345.678 Hz does not reduce onto 2^53 points, so its step is rounded
  // once; after that no rounding accumulates: a million samples later the
  // phase is still the grid formula's, bit for bit, and within 2^-53 cycle
  // per sample of the ideal tone.
  constexpr Real kFs = 2.0e6;
  constexpr Real kHop = 12345.678;
  Oscillator osc(kFs, 230.0e3);
  osc.advance(1234);
  const Real offset = osc.phase();
  osc.set_frequency(kHop);
  const GridRef g = grid_at_2mhz(kHop);
  ASSERT_EQ(osc.grid(), g.grid);
  ASSERT_EQ(osc.step(), g.step);
  ASSERT_TRUE(bit_equal(osc.offset(), offset));
  Signal ph(4096);
  std::uint64_t done = 0;
  for (int round = 0; round < 8; ++round) {
    osc.advance(123457);
    done += 123457;
    osc.phases(ph);
    for (std::size_t i = 0; i < ph.size(); ++i) {
      const std::uint64_t n = done + i;
      const auto index = static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(n) * g.step) % g.grid);
      ASSERT_TRUE(bit_equal(ph[i], grid_phase(offset, index, g.grid)))
          << "n=" << n;
    }
    done += ph.size();
  }
  const long double cycles = static_cast<long double>(kHop) / kFs * done;
  const long double ideal = offset + 2.0L * kPi * (cycles - std::floor(cycles));
  const long double drift = std::remainder(
      static_cast<long double>(osc.phase()) - ideal, 2.0L * kPi);
  EXPECT_LE(std::abs(static_cast<double>(drift)),
            kTwoPi * std::ldexp(static_cast<double>(done), -53) + 1e-14);
}

TEST(KernelUsers, OscillatorAdvanceMatchesPhasesAtAnySplit) {
  // advance(n) must leave the phase exactly where phases() over the same n
  // samples does, whatever the two sides' block splits (empty, below, at
  // and across the 256-sample stack chunk), across frequency hops.
  constexpr Real kFs = 2.0e6;
  const Real hops[] = {230.0e3, 180.0e3, 12345.678, 230.0e3};
  constexpr std::size_t kPerHop = 5003;
  std::mt19937 rng(11);
  Oscillator by_phases(kFs, hops[0]), by_advance(kFs, hops[0]);
  by_phases.reset_phase(2.5);
  by_advance.reset_phase(2.5);
  const auto split = [&](std::size_t left) {
    const std::size_t sizes[] = {0, 1, 255, 256, 257, 700, rng() % 1024};
    return std::min<std::size_t>(sizes[rng() % std::size(sizes)], left);
  };
  for (Real f : hops) {
    by_phases.set_frequency(f);
    by_advance.set_frequency(f);
    Signal ph;
    for (std::size_t done = 0; done < kPerHop;) {
      ph.resize(split(kPerHop - done));
      by_phases.phases(ph);
      done += ph.size();
    }
    for (std::size_t done = 0; done < kPerHop;) {
      const std::size_t n = split(kPerHop - done);
      by_advance.advance(n);
      done += n;
    }
    ASSERT_TRUE(bit_equal(by_advance.phase(), by_phases.phase())) << f;
    ASSERT_TRUE(bit_equal(by_advance.next(0.9), by_phases.next(0.9))) << f;
  }
}

TEST(KernelUsers, OnePoleOutParamDoesNotAllocateAtSteadyState) {
  OnePoleLowpass lp(1.0e6, 10.0e3);
  const Signal x = random_signal(4096, 31);
  Signal out;
  lp.process(x, out);  // first call sizes the buffer
  const Real* stable = out.data();
  for (int pass = 0; pass < 8; ++pass) {
    lp.process(x, out);
    EXPECT_EQ(out.data(), stable) << "buffer reallocated on pass " << pass;
  }
}

TEST(KernelUsers, EnvelopeDetectorBatchMatchesKernel) {
  EnvelopeDetector det(1.0e6, 20.0e3);
  const Signal x = random_signal(1000, 37);
  Signal batch;
  det.process(x, batch);
  det.reset();
  Signal direct(x.size());
  Real state = 0.0;
  active().envelope(x.data(), direct.data(), x.size(),
                    1.0 - std::exp(-kTwoPi * 20.0e3 / 1.0e6), &state);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_TRUE(bit_equal(batch[i], direct[i])) << i;
  }
}

}  // namespace
}  // namespace ecocap::dsp::kernels
