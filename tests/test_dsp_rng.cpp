// Equivalence of dsp::Rng with the standard-library generator it replaces:
// std::mt19937_64 feeding std::normal_distribution and
// std::uniform_real_distribution. The engine, the uniform, index and
// Poisson draws and the checkpoint text match libstdc++ exactly, so
// checkpoints made with either load under the other. The Gaussian draws
// take libstdc++'s polar method value for value except the multiplier
// sqrt(-2 log(r2) / r2), which comes from the kernel table's log instead
// of libm: the reference below writes the polar loop out with that
// multiplier, and DrawsStayWithinUlpsOfStdNormalDistribution bounds the
// distance to std::normal_distribution itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "dsp/kernels/kernels.hpp"
#include "dsp/rng.hpp"
#include "dsp/serialize.hpp"
#include "mt_words.hpp"

namespace ecocap::dsp {
namespace {

/// The generator dsp::Rng reproduces: libstdc++'s engine and uniform
/// distribution, and std::normal_distribution's polar loop as libstdc++
/// writes it (bits/random.tcc), with the multiplier from the scalar kernel
/// table. The text is libstdc++'s `engine << ' ' << normal << ' ' <<
/// uniform`, checked against libstdc++'s own reader and writer.
struct ReferenceRng {
  std::mt19937_64 engine;
  std::uniform_real_distribution<Real> uniform{0.0, 1.0};
  bool saved_available = false;
  Real saved = 0.0;

  explicit ReferenceRng(std::uint64_t seed) : engine(seed) {}

  Real normal() {
    Real ret = 0.0;
    if (saved_available) {
      saved_available = false;
      ret = saved;
    } else {
      const auto coord = [this] {
        return 2.0 * std::generate_canonical<
                         Real, std::numeric_limits<Real>::digits>(engine) -
               1.0;
      };
      Real x = 0.0, y = 0.0, r2 = 0.0;
      do {
        x = coord();
        y = coord();
        r2 = x * x + y * y;
      } while (r2 > 1.0 || r2 == 0.0);
      Real mult = 0.0;
      kernels::scalar_table().polar_scale(&mult, &r2, 1);
      saved = x * mult;
      saved_available = true;
      ret = y * mult;
    }
    return ret * 1.0 + 0.0;  // ret * stddev + mean
  }

  Real gaussian(Real sigma) { return sigma * normal(); }
  Real canonical() { return uniform(engine); }

  std::string text() const {
    std::ostringstream os;
    os << engine << ' ';
    os.flags(std::ios_base::scientific | std::ios_base::left);
    os.precision(std::numeric_limits<Real>::max_digits10);
    os << 0.0 << ' ' << 1.0 << ' ' << saved_available;
    if (saved_available) os << ' ' << saved;
    os << ' ' << uniform;
    const std::string s = os.str();
    // libstdc++ reads it and writes it back unchanged.
    std::istringstream is(s);
    std::mt19937_64 e;
    std::normal_distribution<Real> n;
    std::uniform_real_distribution<Real> u;
    is >> e >> n >> u;
    std::ostringstream back;
    back << e << ' ' << n << ' ' << u;
    EXPECT_FALSE(is.fail());
    EXPECT_EQ(back.str(), s);
    return s;
  }
  void load(const std::string& text) {
    std::istringstream is(text);
    Real mean = 0.0, stddev = 0.0;
    is >> engine >> mean >> stddev >> saved_available;
    if (saved_available) is >> saved;
    is >> uniform;
    ASSERT_FALSE(is.fail());
    ASSERT_EQ(mean, 0.0);
    ASSERT_EQ(stddev, 1.0);
  }
};

std::string text_of(const Rng& rng) {
  std::ostringstream os;
  rng.save(os);
  return os.str();
}

void load_text(Rng& rng, const std::string& text) {
  std::istringstream is(text);
  rng.load(is);
  ASSERT_FALSE(is.fail());
}

std::uint64_t bits(Real v) { return std::bit_cast<std::uint64_t>(v); }

/// Distance in units in the last place between two finite doubles.
std::int64_t ulp_distance(Real a, Real b) {
  const auto ordered = [](Real v) {
    const auto i = std::bit_cast<std::int64_t>(v);
    return i < 0 ? INT64_MIN - i : i;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

/// Loads `text` as one checkpoint record, through ser::Reader::rng.
void load_record(Rng& rng, const std::string& text) {
  ser::Reader r("rng-test\nrng " + text + "\n", "rng-test");
  r.rng("rng", rng);
}

/// Checkpoint text of a seeded reference generator with the state words
/// from `index` on replaced by raw words whose outputs are `outputs`.
std::string text_with_outputs(std::size_t index,
                              const std::vector<std::uint64_t>& outputs) {
  std::mt19937_64 eng(99);
  eng.discard(Mt19937_64::kN);  // state freshly twisted, index at kN
  std::stringstream ss;
  ss << eng;
  std::vector<std::uint64_t> words(Mt19937_64::kN);
  for (auto& w : words) ss >> w;
  for (std::size_t k = 0; k < outputs.size(); ++k) {
    words[index + k] = untemper(outputs[k]);
  }
  std::ostringstream os;
  for (const auto w : words) os << w << ' ';
  os << index << " 0.00000000000000000e+00 1.00000000000000000e+00 0"
     << " 0.00000000000000000e+00 1.00000000000000000e+00";
  return os.str();
}

/// A generator that always returns one fixed word.
struct FixedWord {
  using result_type = std::uint64_t;
  std::uint64_t z;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return z; }
};

TEST(RngEquivalence, EngineMatchesStdMt19937_64) {
  for (const std::uint64_t seed : {0ULL, 1ULL, 5489ULL, ~0ULL}) {
    Mt19937_64 ours(seed);
    std::mt19937_64 ref(seed);
    for (int i = 0; i < 2000; ++i) ASSERT_EQ(ours(), ref()) << "draw " << i;
  }
}

TEST(RngEquivalence, CanonicalMatchesGenerateCanonical) {
  std::mt19937_64 words(3);
  std::vector<std::uint64_t> zs = {0,
                                   1,
                                   0xffffffffULL,
                                   0x100000000ULL,
                                   0x8000000000000000ULL,
                                   0x8000000000000400ULL,  // ties to even
                                   0x8000000000000c00ULL,
                                   ~0ULL - 1024,  // rounds below 2^64
                                   ~0ULL - 1023,  // rounds to 2^64: clamped
                                   ~0ULL};
  for (int i = 0; i < 100000; ++i) zs.push_back(words());
  for (const std::uint64_t z : zs) {
    FixedWord g{z};
    const Real ref =
        std::generate_canonical<Real, std::numeric_limits<Real>::digits>(g);
    ASSERT_EQ(bits(Mt19937_64::to_canonical(z)), bits(ref)) << z;
  }
  EXPECT_EQ(Mt19937_64::to_canonical(~0ULL), std::nextafter(1.0, 0.0));
}

TEST(RngEquivalence, MixedCallsMatchStdDistributions) {
  // Operation script from an independent generator: block noise at sizes
  // 0, 1, odd, the stream's 256, longer than one 312-word state block and
  // random in [1, 700], interleaved with every scalar draw, so polar pairs
  // straddle twists and the carried spare crosses call boundaries in every
  // combination.
  const std::size_t sizes[] = {0,   1,   2,   3,    7,   155,
                               256, 311, 312, 313, 1001, 4099};
  for (const std::uint64_t seed : {std::uint64_t{7}, trial_seed(42, 3)}) {
    Rng ours(seed);
    ReferenceRng ref(seed);
    std::mt19937 script(static_cast<std::uint32_t>(seed));
    for (int op = 0; op < 3000; ++op) {
      switch (script() % 9) {
        case 0:
        case 1: {
          const std::size_t n = (script() % 2)
                                    ? sizes[script() % std::size(sizes)]
                                    : 1 + script() % 700;
          const Real sigma = 0.25 + 0.01 * static_cast<Real>(script() % 100);
          std::vector<Real> a(n), b(n);
          for (std::size_t i = 0; i < n; ++i) {
            a[i] = b[i] = (i % 3 == 0) ? -0.0 : 0.1 * static_cast<Real>(i);
          }
          ours.add_gaussian(a, sigma);
          for (Real& v : b) v += ref.gaussian(sigma);
          for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(bits(a[i]), bits(b[i])) << "op " << op << " i " << i;
          }
          break;
        }
        case 2:
          ASSERT_EQ(bits(ours.gaussian()), bits(ref.gaussian(1.0)));
          break;
        case 3:
          ASSERT_EQ(bits(ours.gaussian(0.3)), bits(ref.gaussian(0.3)));
          break;
        case 4:
          ASSERT_EQ(bits(ours.uniform()), bits(ref.canonical()));
          break;
        case 5: {
          const std::uint64_t n = 1 + script() % 1000;
          ASSERT_EQ(ours.index(n),
                    std::uniform_int_distribution<std::uint64_t>(0, n - 1)(
                        ref.engine));
          break;
        }
        case 6: {
          const Real mean = (script() % 2) ? 3.5 : 40.0;
          ASSERT_EQ(ours.poisson(mean),
                    std::poisson_distribution<int>(mean)(ref.engine));
          break;
        }
        case 7:
          ASSERT_EQ(ours.engine()(), ref.engine());
          break;
        case 8:
          ASSERT_EQ(text_of(ours), ref.text()) << "op " << op;
          break;
      }
    }
    EXPECT_EQ(text_of(ours), ref.text());
  }
}

TEST(RngEquivalence, BlockCallsAtEveryIndexAroundTheTwist) {
  // A call that starts at engine index 300..312, with and without a carried
  // spare: the kernel's last whole pairs, the pair that straddles the twist
  // (index 311) and a call that starts with the twist (index 312) land on
  // both output parities.
  const std::size_t sizes[] = {1, 2, 3, 4, 5, 9, 24, 256, 700};
  for (std::size_t index = 300; index <= Mt19937_64::kN; ++index) {
    for (const bool spare : {false, true}) {
      for (const std::size_t n : sizes) {
        ReferenceRng ref(31);
        ref.engine.discard(Mt19937_64::kN + index);
        std::ostringstream text;
        text << ref.engine << " 0.00000000000000000e+00"
             << " 1.00000000000000000e+00 " << (spare ? "1 -3.25e-01" : "0")
             << " 0.00000000000000000e+00 1.00000000000000000e+00";
        ref.load(text.str());
        Rng ours(1);
        load_text(ours, text.str());
        ASSERT_EQ(text_of(ours), ref.text());
        std::vector<Real> a(n, -0.0), b(n, -0.0);
        ours.add_gaussian(a, 0.7);
        for (Real& v : b) v += ref.gaussian(0.7);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(bits(a[i]), bits(b[i]))
              << "index " << index << " spare " << spare << " n " << n
              << " i " << i;
        }
        ASSERT_EQ(text_of(ours), ref.text())
            << "index " << index << " spare " << spare << " n " << n;
      }
    }
  }
}

TEST(RngEquivalence, SkipLeavesTheStateAddLeaves) {
  // skip_gaussian(n) must consume exactly the draws add_gaussian over n
  // samples does — the same engine index and the same carried spare, so
  // the checkpoint text and every later draw match — from each index
  // around the twist, with and without a spare, at sizes that end on
  // both parities and across state blocks.
  const std::size_t sizes[] = {0, 1, 2, 3, 255, 256, 257, 311, 312, 313, 700};
  for (std::size_t index = 300; index <= Mt19937_64::kN; ++index) {
    for (const bool spare : {false, true}) {
      std::mt19937_64 eng(57);
      eng.discard(Mt19937_64::kN + index);
      std::ostringstream text;
      text << eng << " 0.00000000000000000e+00 1.00000000000000000e+00 "
           << (spare ? "1 -3.25e-01" : "0")
           << " 0.00000000000000000e+00 1.00000000000000000e+00";
      for (const std::size_t n : sizes) {
        Rng added(1), skipped(1);
        load_text(added, text.str());
        load_text(skipped, text.str());
        std::vector<Real> x(n, 0.0);
        skipped.skip_gaussian(n);
        added.add_gaussian(x, 0.7);
        ASSERT_EQ(text_of(skipped), text_of(added))
            << "index " << index << " spare " << spare << " n " << n;
        std::vector<Real> a(9, 0.0), b(9, 0.0);
        added.add_gaussian(a, 1.0);
        skipped.add_gaussian(b, 1.0);
        for (std::size_t i = 0; i < a.size(); ++i) {
          ASSERT_EQ(bits(a[i]), bits(b[i]))
              << "index " << index << " spare " << spare << " n " << n;
        }
        ASSERT_EQ(bits(skipped.gaussian()), bits(added.gaussian()));
        ASSERT_EQ(bits(skipped.uniform()), bits(added.uniform()));
      }
    }
  }
}

TEST(RngEquivalence, CopiesAndReloadsContinueMidSequence) {
  // Leave the generator mid-block with a spare cached, then continue the
  // original, a copy and a save/load round trip: all three must follow the
  // reference bit for bit.
  Rng ours(2024);
  ReferenceRng ref(2024);
  std::vector<Real> block(257, 0.0);
  ours.add_gaussian(block, 1.0);
  for (int i = 0; i < 257; ++i) ref.gaussian(1.0);
  ASSERT_EQ(bits(ours.uniform()), bits(ref.canonical()));
  ASSERT_EQ(bits(ours.gaussian()), bits(ref.gaussian(1.0)));
  ASSERT_EQ(text_of(ours), ref.text());

  Rng copy = ours;
  Rng reloaded(1);
  load_text(reloaded, text_of(ours));
  const std::string saved = ref.text();
  for (Rng* rng : {&ours, &copy, &reloaded}) {
    ReferenceRng r(1);
    r.load(saved);
    for (const std::size_t n : {3u, 256u, 1u, 611u}) {
      std::vector<Real> a(n, 0.0);
      rng->add_gaussian(a, 0.5);
      for (const Real v : a) ASSERT_EQ(bits(v), bits(0.0 + r.gaussian(0.5)));
      ASSERT_EQ(bits(rng->uniform()), bits(r.canonical()));
    }
    EXPECT_EQ(text_of(*rng), r.text());
  }
}

TEST(RngEquivalence, CarriedCandidatesAtEveryCallSize) {
  // add_gaussian keeps the pairs it converted but did not consume for the
  // next call. At every call size, a stream of calls must give the bytes of
  // one long call, and the checkpoint text after each call must be the
  // reference's: the kept candidates are never part of the state. Engine
  // draws, copies and reloads in between must drop or carry them exactly.
  const std::size_t sizes[] = {1, 3, 128, 255, 256, 257, 700};
  constexpr std::size_t kTotal = 2000;
  for (const std::size_t n : sizes) {
    Rng whole(77);
    std::vector<Real> want(kTotal, 0.0);
    whole.add_gaussian(want, 1.0);

    Rng ours(77);
    ReferenceRng ref(77);
    std::vector<Real> got;
    while (got.size() < kTotal) {
      std::vector<Real> a(std::min(n, kTotal - got.size()), 0.0);
      ours.add_gaussian(a, 1.0);
      for (const Real v : a) {
        ASSERT_EQ(bits(v), bits(0.0 + ref.gaussian(1.0))) << "n " << n;
      }
      ASSERT_EQ(text_of(ours), ref.text()) << "n " << n << " at " << got.size();
      got.insert(got.end(), a.begin(), a.end());
    }
    for (std::size_t i = 0; i < kTotal; ++i) {
      ASSERT_EQ(bits(got[i]), bits(want[i])) << "n " << n << " i " << i;
    }
    EXPECT_EQ(text_of(ours), text_of(whole));
  }

  for (const std::size_t n : sizes) {
    Rng ours(n);
    ReferenceRng ref(n);
    std::mt19937 script(static_cast<std::uint32_t>(n));
    for (int op = 0; op < 400; ++op) {
      switch (script() % 7) {
        case 0:
        case 1:
        case 2: {
          std::vector<Real> a(n, 0.0);
          ours.add_gaussian(a, 0.5);
          for (const Real v : a) {
            ASSERT_EQ(bits(v), bits(0.0 + ref.gaussian(0.5)))
                << "n " << n << " op " << op;
          }
          break;
        }
        case 3:
          ours.skip_gaussian(n);
          for (std::size_t i = 0; i < n; ++i) ref.gaussian(1.0);
          break;
        case 4:
          if (script() % 2) {
            ASSERT_EQ(bits(ours.uniform()), bits(ref.canonical()));
          } else {
            ASSERT_EQ(ours.index(97),
                      std::uniform_int_distribution<std::uint64_t>(0, 96)(
                          ref.engine));
          }
          break;
        case 5: {
          const Rng copy = ours;
          ours = copy;
          break;
        }
        case 6: {
          Rng loaded(1);
          load_text(loaded, text_of(ours));
          ours = loaded;
          break;
        }
      }
      ASSERT_EQ(text_of(ours), ref.text()) << "n " << n << " op " << op;
    }
  }

  // Loading another generator's state at the same engine index must drop
  // the kept candidates: they belong to the old state block.
  for (const std::size_t n : sizes) {
    Rng ours(5), other(6);
    std::vector<Real> a(n, 0.0), b(n, 0.0);
    ours.add_gaussian(a, 1.0);
    other.add_gaussian(b, 1.0);
    load_text(ours, text_of(other));
    std::fill(a.begin(), a.end(), 0.0);
    std::fill(b.begin(), b.end(), 0.0);
    ours.add_gaussian(a, 1.0);
    other.add_gaussian(b, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(bits(a[i]), bits(b[i])) << "n " << n << " i " << i;
    }
  }
}

TEST(RngEquivalence, UnitRadiusPairsGivePositiveZeros) {
  // Outputs (0, 2^63) give the candidate (x, y) = (-1, 0) and (2^63, 0)
  // give (0, -1): r2 == 1 exactly is accepted, log(r2) == 0 and the
  // multiplier is sqrt(-0.0) == -0.0, so one variate of each pair is -0.0,
  // which only libstdc++'s `+ mean` turns into +0.0 — on the y path, the
  // carried spare and the in-buffer x path in turn.
  constexpr std::uint64_t kHalf = 0x8000000000000000ULL;
  const std::string text =
      text_with_outputs(10, {0, kHalf, kHalf, 0, kHalf, 0});
  Rng ours(1);
  ReferenceRng ref(1);
  load_text(ours, text);
  ref.load(text);
  for (int call = 0; call < 2; ++call) {
    std::vector<Real> a(3, -0.0);
    ours.add_gaussian(a, 1.0);
    for (const Real v : a) {
      EXPECT_EQ(bits(v), bits(-0.0 + ref.gaussian(1.0))) << "call " << call;
      EXPECT_EQ(bits(v), bits(0.0)) << "call " << call;
    }
  }
  EXPECT_EQ(text_of(ours), ref.text());
}

TEST(RngEquivalence, CheckpointTextIsByteEqualWithAndWithoutSpare) {
  Rng ours(1234);
  ReferenceRng ref(1234);
  EXPECT_EQ(text_of(ours), ref.text());  // index at kN before the first twist
  ours.gaussian();
  ref.gaussian(1.0);
  EXPECT_EQ(text_of(ours), ref.text());  // spare cached
  ours.gaussian();
  ref.gaussian(1.0);
  EXPECT_EQ(text_of(ours), ref.text());  // spare consumed
}

TEST(RngEquivalence, CheckpointsLoadAcrossFormatsBothWays) {
  for (const int draws : {0, 5, 6, 700}) {
    // Old text into the new generator.
    ReferenceRng ref(77);
    for (int i = 0; i < draws; ++i) ref.gaussian(1.0);
    Rng from_old(1);
    load_text(from_old, ref.text());
    EXPECT_EQ(text_of(from_old), ref.text());
    // New text into the old generator.
    Rng ours(77);
    for (int i = 0; i < draws; ++i) ours.gaussian();
    ReferenceRng from_new(1);
    from_new.load(text_of(ours));
    EXPECT_EQ(from_new.text(), text_of(ours));

    std::vector<Real> block(333, 0.0);
    from_old.add_gaussian(block, 1.0);
    for (const Real v : block) ASSERT_EQ(bits(v), bits(ref.gaussian(1.0)));
    block.assign(block.size(), 0.0);
    ours.add_gaussian(block, 1.0);
    for (const Real v : block) ASSERT_EQ(bits(v), bits(from_new.gaussian(1.0)));
  }
}

TEST(RngEquivalence, ClampedUniformMatchesReference) {
  // Engine outputs that round to 2^64 hit generate_canonical's clamp; the
  // pair (clamped, 0.5) is an accepted polar candidate with x = 1 - 2^-52.
  const std::string text = text_with_outputs(
      40, {~0ULL, 0x8000000000000000ULL, ~0ULL - 1023, ~0ULL - 1024});
  Rng ours(1);
  ReferenceRng ref(1);
  load_text(ours, text);
  ref.load(text);
  EXPECT_EQ(bits(ours.gaussian()), bits(ref.gaussian(1.0)));
  EXPECT_EQ(bits(ours.gaussian()), bits(ref.gaussian(1.0)));
  const Real u = ours.uniform();
  EXPECT_EQ(u, std::nextafter(1.0, 0.0));
  EXPECT_EQ(bits(u), bits(ref.canonical()));
  EXPECT_EQ(bits(ours.uniform()), bits(ref.canonical()));
  EXPECT_EQ(text_of(ours), ref.text());
}

TEST(RngEquivalence, DrawsStayWithinUlpsOfStdNormalDistribution) {
  // The same engine words feed the same polar walk, so draw i of Rng and
  // of std::normal_distribution differ only through the multiplier: the
  // kernel's log is within 1 ulp of libm's, which moves the multiplier by
  // at most 2 ulps (a log near the bottom of its binade carries twice the
  // relative error) and y * mult by at most 3.
  constexpr std::size_t kDraws = 1'000'000;
  for (const std::uint64_t seed : {std::uint64_t{3}, trial_seed(9, 1)}) {
    Rng ours(seed);
    std::mt19937_64 engine(seed);
    std::normal_distribution<Real> normal;
    std::vector<Real> a(kDraws, 0.0);
    ours.add_gaussian(a, 1.0);
    std::int64_t worst = 0;
    std::size_t differ = 0;
    for (const Real v : a) {
      const std::int64_t d = ulp_distance(v, normal(engine));
      worst = std::max(worst, d);
      differ += d != 0 ? 1 : 0;
    }
    std::printf("seed %llu: max %lld ulp, %.3f%% of %zu draws differ\n",
                static_cast<unsigned long long>(seed),
                static_cast<long long>(worst),
                100.0 * static_cast<double>(differ) / kDraws, kDraws);
    EXPECT_LE(worst, 3) << "seed " << seed;
    EXPECT_LT(differ, kDraws / 20) << "seed " << seed;
    EXPECT_GT(differ, 0u) << "seed " << seed << ": libm's log ran";
    // The walks consumed the same engine words.
    EXPECT_EQ(ours.engine()(), engine()) << "seed " << seed;
  }
}

TEST(RngEquivalence, FirstDrawsMatchAPinnedDigest) {
  // The Gaussian bytes depend on the engine and the kernel table's fixed
  // expressions only, not on libm, so this FNV-1a digest of the first 4096
  // draws of two seeds holds on every host and table (CI runs this suite
  // under ECOCAP_SIMD=scalar too). The draws come in mixed call sizes and
  // single draws, and run through several twists.
  const std::size_t sizes[] = {1, 3, 256, 2, 311, 7, 700, 1, 0, 129};
  constexpr std::size_t kDraws = 4096;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t seed : {std::uint64_t{1}, trial_seed(2024, 7)}) {
    Rng rng(seed);
    std::vector<Real> block;
    for (std::size_t done = 0, k = 0; done < kDraws; ++k) {
      const std::size_t n =
          std::min(sizes[k % std::size(sizes)], kDraws - done);
      block.assign(n, 0.0);
      if (n == 1 && k % 2 == 0) {
        block[0] = rng.gaussian();
      } else {
        rng.add_gaussian(block, 1.0);
      }
      for (const Real v : block) {
        for (int byte = 0; byte < 8; ++byte) {
          h = (h ^ ((bits(v) >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
        }
      }
      done += n;
    }
  }
  EXPECT_EQ(h, 0xd1d37275821394b8ULL);
}

TEST(RngEquivalence, LoadRejectsBadTextAndKeepsState) {
  const Rng fresh(5);
  const std::string good = text_of(fresh);
  // A state with a carried spare written as `spare`.
  const auto with_spare = [](const std::string& spare) {
    std::ostringstream os;
    os << std::mt19937_64(5) << " 0.00000000000000000e+00"
       << " 1.00000000000000000e+00 1 " << spare
       << " 0.00000000000000000e+00 1.00000000000000000e+00";
    return os.str();
  };
  const auto real_text = [](Real v) {
    std::ostringstream os;
    os.flags(std::ios_base::scientific);
    os.precision(std::numeric_limits<Real>::max_digits10);
    os << v;
    return os.str();
  };
  // The largest spare the polar method gives loads, on either sign.
  for (const Real spare : {Rng::kMaxSpare, -Rng::kMaxSpare}) {
    Rng rng(5);
    load_record(rng, with_spare(real_text(spare)));
    EXPECT_EQ(bits(rng.gaussian()), bits(spare));
  }
  struct Bad {
    std::string text;
    bool record_only;  // Rng::load reads a stream and stops at its end
  };
  const Bad bad[] = {
      {"", false},
      {good.substr(0, good.size() / 2), false},
      {text_with_outputs(Mt19937_64::kN + 1, {}), false},  // index past block
      // non-standard distribution parameters
      {good.substr(0, good.rfind(' ')) + " 2.00000000000000000e+00", false},
      // a spare no polar draw reaches: an exponent digit flipped from
      // -3.25e-01, one ulp past the bound, and non-finite text
      {with_spare("-3.25e+01"), false},
      {with_spare(real_text(std::nextafter(Rng::kMaxSpare, 20.0))), false},
      {with_spare("inf"), false},
      {with_spare("nan"), false},
      // trailing text after a valid state
      {good + " 0", true},
  };
  for (const Bad& b : bad) {
    if (!b.record_only) {
      Rng rng(5);
      std::istringstream is(b.text);
      rng.load(is);
      EXPECT_TRUE(is.fail()) << b.text.substr(b.text.size() / 2);
      EXPECT_EQ(text_of(rng), good);
    }
    Rng rng(5);
    EXPECT_THROW(load_record(rng, b.text), std::runtime_error)
        << b.text.substr(b.text.size() / 2);
    EXPECT_EQ(text_of(rng), good);
  }
}

}  // namespace
}  // namespace ecocap::dsp
