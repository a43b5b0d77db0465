#include "phy/fm0.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "dsp/correlate.hpp"

namespace ecocap::phy {

Bits fm0_preamble(const Fm0Params& params) {
  Bits p;
  p.reserve(static_cast<std::size_t>(params.preamble_pairs) * 2);
  for (int i = 0; i < params.preamble_pairs; ++i) {
    p.push_back(1);
    p.push_back(0);
  }
  return p;
}

Real fm0_frame_seconds(std::size_t payload_bits, const Fm0Params& params,
                       Real bitrate) {
  const std::size_t preamble_bits =
      2 * static_cast<std::size_t>(std::max(params.preamble_pairs, 0));
  return (static_cast<Real>(payload_bits + preamble_bits) + 4.0) / bitrate;
}

Signal fm0_encode(std::span<const std::uint8_t> bits, Real fs, Real bitrate,
                  Real start_level) {
  Signal out;
  fm0_encode(bits, fs, bitrate, start_level, out);
  return out;
}

void fm0_encode(std::span<const std::uint8_t> bits, Real fs, Real bitrate,
                Real start_level, Signal& out) {
  if (fs <= 0.0 || bitrate <= 0.0 || fs < 4.0 * bitrate) {
    throw std::invalid_argument("fm0_encode: need fs >= 4 * bitrate");
  }
  const Real spb = fs / bitrate;
  out.clear();
  out.reserve(static_cast<std::size_t>(spb * static_cast<Real>(bits.size())) + 8);
  Real level = (start_level >= 0.0) ? 1.0 : -1.0;
  std::size_t produced = 0;
  for (std::size_t k = 0; k < bits.size(); ++k) {
    // Level inverts entering every symbol.
    level = -level;
    const auto sym_end = static_cast<std::size_t>(
        std::llround(spb * static_cast<Real>(k + 1)));
    const auto sym_mid = static_cast<std::size_t>(
        std::llround(spb * (static_cast<Real>(k) + 0.5)));
    for (; produced < sym_mid; ++produced) out.push_back(level);
    if ((bits[k] & 1u) == 0u) level = -level;  // data-0: mid transition
    for (; produced < sym_end; ++produced) out.push_back(level);
  }
}

Signal fm0_encode_frame(const Bits& payload, const Fm0Params& params,
                        Real fs) {
  Signal out;
  fm0_encode_frame(payload, params, fs, out);
  return out;
}

void fm0_encode_frame(const Bits& payload, const Fm0Params& params, Real fs,
                      Signal& out) {
  Bits all = fm0_preamble(params);
  all.insert(all.end(), payload.begin(), payload.end());
  fm0_encode(all, fs, params.bitrate, 1.0, out);
}

Bits fm0_decode(std::span<const Real> x, Real samples_per_bit,
                std::size_t bit_count) {
  if (samples_per_bit < 4.0) {
    throw std::invalid_argument("fm0_decode: need >= 4 samples per bit");
  }
  // Viterbi over 2 states: the level at the *end* of the previous symbol.
  // Branch (state s, bit b): first half level = -s; second half level is
  // -s for b=1 (no mid transition) and +s for b=0.
  struct PathState {
    Real metric;
    std::vector<std::uint8_t> bits;
  };
  std::array<PathState, 2> paths;  // index 0: level -1, index 1: level +1
  paths[0] = {0.0, {}};
  paths[1] = {0.0, {}};
  // The encoder starts from +1 (fm0_encode start_level default); we leave
  // both start states open and let the metrics decide.

  for (std::size_t k = 0; k < bit_count; ++k) {
    const auto lo = static_cast<std::size_t>(
        std::llround(samples_per_bit * static_cast<Real>(k)));
    const auto mid = static_cast<std::size_t>(
        std::llround(samples_per_bit * (static_cast<Real>(k) + 0.5)));
    const auto hi = static_cast<std::size_t>(
        std::llround(samples_per_bit * static_cast<Real>(k + 1)));
    Real first = 0.0, second = 0.0;
    for (std::size_t i = lo; i < mid && i < x.size(); ++i) first += x[i];
    for (std::size_t i = mid; i < hi && i < x.size(); ++i) second += x[i];

    std::array<PathState, 2> next;
    std::array<bool, 2> filled{false, false};
    for (int s_idx = 0; s_idx < 2; ++s_idx) {
      const Real s = (s_idx == 0) ? -1.0 : 1.0;
      for (int b = 0; b < 2; ++b) {
        const Real half1 = -s;
        const Real half2 = (b == 1) ? -s : s;
        const Real metric =
            paths[static_cast<std::size_t>(s_idx)].metric + half1 * first + half2 * second;
        const int end_idx = (half2 > 0.0) ? 1 : 0;
        if (!filled[static_cast<std::size_t>(end_idx)] ||
            metric > next[static_cast<std::size_t>(end_idx)].metric) {
          next[static_cast<std::size_t>(end_idx)].metric = metric;
          next[static_cast<std::size_t>(end_idx)].bits =
              paths[static_cast<std::size_t>(s_idx)].bits;
          next[static_cast<std::size_t>(end_idx)].bits.push_back(
              static_cast<std::uint8_t>(b));
          filled[static_cast<std::size_t>(end_idx)] = true;
        }
      }
    }
    paths = std::move(next);
  }
  return (paths[0].metric > paths[1].metric) ? paths[0].bits : paths[1].bits;
}

Fm0FrameDecode fm0_decode_frame(std::span<const Real> x,
                                std::span<const Real> tmpl,
                                const Fm0Params& params, Real fs,
                                std::size_t payload_bits, Real min_corr) {
  Fm0FrameDecode out;
  if (x.size() < tmpl.size()) return out;

  // FM0 information lives in the transitions, so an inverted waveform is an
  // equally valid frame: align on |correlation|.
  const Signal c = dsp::correlate_valid(x, tmpl);
  std::size_t start = 0;
  Real best_abs = -1.0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (std::abs(c[i]) > best_abs) {
      best_abs = std::abs(c[i]);
      start = i;
    }
  }
  // The aligned segment is scored in place as a view of x — no copy.
  const Real corr =
      dsp::correlation_coefficient(x.subspan(start, tmpl.size()), tmpl);
  out.frame_start = start;
  out.preamble_correlation = std::abs(corr);
  if (std::abs(corr) < min_corr) return out;

  const Real spb = fs / params.bitrate;
  const auto preamble_bits =
      static_cast<Real>(fm0_preamble(params).size());
  const std::size_t payload_start =
      start + static_cast<std::size_t>(std::llround(spb * preamble_bits));
  if (payload_start >= x.size()) return out;
  const std::span<const Real> rest = x.subspan(payload_start);
  out.payload = fm0_decode(rest, spb, payload_bits);
  return out;
}

Fm0FrameDecode fm0_decode_frame(std::span<const Real> x,
                                const Fm0Params& params, Real fs,
                                std::size_t payload_bits, Real min_corr) {
  const Signal tmpl = fm0_encode(fm0_preamble(params), fs, params.bitrate);
  return fm0_decode_frame(x, tmpl, params, fs, payload_bits, min_corr);
}

}  // namespace ecocap::phy
