#pragma once

// MT19937-64 test helper shared by the RNG and kernel suites.

#include <cstdint>

namespace ecocap::dsp {

/// Inverse of MT19937-64's output tempering: the raw state word whose
/// engine output is `z`.
inline std::uint64_t untemper(std::uint64_t z) {
  z ^= z >> 43;
  z ^= (z << 37) & 0xfff7eee000000000ULL;
  std::uint64_t x = z;
  for (int i = 0; i < 4; ++i) x = z ^ ((x << 17) & 0x71d67fffeda60000ULL);
  z = x;
  for (int i = 0; i < 3; ++i) x = z ^ ((x >> 29) & 0x5555555555555555ULL);
  return x;
}

}  // namespace ecocap::dsp
