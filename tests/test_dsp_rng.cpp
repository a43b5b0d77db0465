// Equivalence of dsp::Rng with the standard-library generator it replaces:
// std::mt19937_64 feeding std::normal_distribution and
// std::uniform_real_distribution. Every draw must match bit for bit and the
// checkpoint text must match byte for byte, so checkpoints, golden vectors
// and telemetry stores made with either load and replay under the other.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "dsp/rng.hpp"
#include "mt_words.hpp"

namespace ecocap::dsp {
namespace {

/// The generator dsp::Rng used to be: libstdc++'s engine and distributions.
struct ReferenceRng {
  std::mt19937_64 engine;
  std::normal_distribution<Real> normal{0.0, 1.0};
  std::uniform_real_distribution<Real> uniform{0.0, 1.0};

  explicit ReferenceRng(std::uint64_t seed) : engine(seed) {}

  Real gaussian(Real sigma) { return sigma * normal(engine); }
  Real canonical() { return uniform(engine); }

  std::string text() const {
    std::ostringstream os;
    os << engine << ' ' << normal << ' ' << uniform;
    return os.str();
  }
  void load(const std::string& text) {
    std::istringstream is(text);
    is >> engine >> normal >> uniform;
    ASSERT_FALSE(is.fail());
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

TEST(RngEquivalence, LoadRejectsBadTextAndKeepsState) {
  const Rng fresh(5);
  const std::string good = text_of(fresh);
  const std::string bad[] = {
      "",
      good.substr(0, good.size() / 2),
      text_with_outputs(Mt19937_64::kN + 1, {}),  // index past the block
      // non-standard distribution parameters
      good.substr(0, good.rfind(' ')) + " 2.00000000000000000e+00",
  };
  for (const std::string& text : bad) {
    Rng rng(5);
    std::istringstream is(text);
    rng.load(is);
    EXPECT_TRUE(is.fail()) << text.substr(0, 40);
    EXPECT_EQ(text_of(rng), good);
  }
}

}  // namespace
}  // namespace ecocap::dsp
