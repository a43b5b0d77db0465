#include "dsp/filter_cache.hpp"

#include <bit>
#include <mutex>

namespace ecocap::dsp {

namespace {

std::uint64_t bits(Real v) { return std::bit_cast<std::uint64_t>(v); }

std::size_t mix(std::size_t seed, std::uint64_t v) {
  // splitmix64-style avalanche, folded into the running seed.
  v += 0x9e3779b97f4a7c15ull + seed;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ull;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebull;
  return static_cast<std::size_t>(v ^ (v >> 31));
}

}  // namespace

std::size_t FilterCache::FirKeyHash::operator()(const FirKey& k) const {
  std::size_t h = mix(0, k.fs_bits);
  h = mix(h, k.cutoff_bits);
  h = mix(h, k.taps);
  return h;
}

std::size_t FilterCache::BiquadKeyHash::operator()(const BiquadKey& k) const {
  std::size_t h = mix(1, k.fs_bits);
  h = mix(h, k.f0_bits);
  h = mix(h, k.q_bits);
  return h;
}

FilterCache& FilterCache::shared() {
  static FilterCache cache;
  return cache;
}

std::shared_ptr<const Signal> FilterCache::lowpass(Real fs, Real cutoff,
                                                   std::size_t taps) {
  const FirKey key{bits(fs), bits(cutoff), static_cast<std::uint64_t>(taps)};
  {
    std::shared_lock lock(mutex_);
    if (auto it = fir_.find(key); it != fir_.end()) return it->second;
  }
  std::unique_lock lock(mutex_);
  if (auto it = fir_.find(key); it != fir_.end()) return it->second;
  auto entry = std::make_shared<const Signal>(design_lowpass(fs, cutoff, taps));
  fir_.emplace(key, entry);
  return entry;
}

std::shared_ptr<const FilterCache::ResonatorDesign>
FilterCache::bandpass_resonator(Real fs, Real f0, Real q) {
  const BiquadKey key{bits(fs), bits(f0), bits(q)};
  {
    std::shared_lock lock(mutex_);
    if (auto it = biquads_.find(key); it != biquads_.end()) return it->second;
  }
  std::unique_lock lock(mutex_);
  if (auto it = biquads_.find(key); it != biquads_.end()) return it->second;
  Biquad bp = Biquad::bandpass(fs, f0, q);
  auto entry = std::make_shared<const ResonatorDesign>(
      ResonatorDesign{bp, bp.magnitude_at(fs, f0)});
  biquads_.emplace(key, entry);
  return entry;
}

std::size_t FilterCache::size() const {
  std::shared_lock lock(mutex_);
  return fir_.size() + biquads_.size();
}

void FilterCache::clear() {
  std::unique_lock lock(mutex_);
  fir_.clear();
  biquads_.clear();
}

}  // namespace ecocap::dsp
