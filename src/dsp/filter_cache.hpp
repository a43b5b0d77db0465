#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>

#include "dsp/biquad.hpp"
#include "dsp/fir.hpp"
#include "dsp/types.hpp"

namespace ecocap::dsp {

/// Process-wide cache of designed filters. Windowed-sinc FIR design costs
/// O(taps) transcendentals per call and the Monte-Carlo harnesses redesign
/// the *same* filter for every trial (the receiver's baseband low-pass, the
/// channel's resonance biquad); this cache makes the design a one-time cost
/// per unique parameter set. Reads take a shared lock, so `TrialRunner`
/// legs hammering the same key scale without serializing; the first miss
/// for a key designs under the exclusive lock.
///
/// Keys compare the design parameters bit-exactly (doubles via their bit
/// patterns) — two calls get the same entry iff they would have designed
/// the identical filter.
class FilterCache {
 public:
  /// A designed band-pass biquad plus its center-frequency magnitude (the
  /// normalization the ConcreteChannel resonance divides by). The stored
  /// prototype has zero state; copy it to filter.
  struct ResonatorDesign {
    Biquad prototype;
    Real peak_gain = 0.0;
  };

  /// The process-wide instance shared by the receiver and channel layers.
  static FilterCache& shared();

  /// Cached design_lowpass. The returned pointer stays valid for the life
  /// of the process (entries are never evicted).
  std::shared_ptr<const Signal> lowpass(Real fs, Real cutoff,
                                        std::size_t taps);

  /// Cached constant-peak band-pass biquad with its precomputed
  /// center-frequency gain.
  std::shared_ptr<const ResonatorDesign> bandpass_resonator(Real fs, Real f0,
                                                            Real q);

  /// Number of cached designs (FIR + biquad), for tests.
  std::size_t size() const;

  /// Drop every entry. Outstanding shared_ptrs stay valid.
  void clear();

 private:
  struct FirKey {
    std::uint64_t fs_bits;
    std::uint64_t cutoff_bits;
    std::uint64_t taps;
    bool operator==(const FirKey&) const = default;
  };
  struct BiquadKey {
    std::uint64_t fs_bits;
    std::uint64_t f0_bits;
    std::uint64_t q_bits;
    bool operator==(const BiquadKey&) const = default;
  };
  struct FirKeyHash {
    std::size_t operator()(const FirKey& k) const;
  };
  struct BiquadKeyHash {
    std::size_t operator()(const BiquadKey& k) const;
  };

  mutable std::shared_mutex mutex_;
  std::unordered_map<FirKey, std::shared_ptr<const Signal>, FirKeyHash> fir_;
  std::unordered_map<BiquadKey, std::shared_ptr<const ResonatorDesign>,
                     BiquadKeyHash>
      biquads_;
};

}  // namespace ecocap::dsp
