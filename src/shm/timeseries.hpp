#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dsp/types.hpp"

namespace ecocap::shm {

using dsp::Real;

/// A uniformly sampled measurement series (one sensor channel over the
/// monitoring campaign). Time is seconds since the campaign start.
class TimeSeries {
 public:
  TimeSeries() = default;
  TimeSeries(std::string name, Real dt, std::string unit = "");

  void push(Real value) { values_.push_back(value); }
  void reserve(std::size_t n) { values_.reserve(n); }
  /// Current heap capacity in samples — the allocation-stability tests
  /// assert it stays put across a reserved campaign's pushes.
  std::size_t capacity() const { return values_.capacity(); }
  /// Replace the sample buffer wholesale (checkpoint restore).
  void set_values(std::vector<Real> values) { values_ = std::move(values); }

  const std::string& name() const { return name_; }
  const std::string& unit() const { return unit_; }
  Real dt() const { return dt_; }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  Real at(std::size_t i) const { return values_[i]; }
  std::span<const Real> values() const { return values_; }

  /// Basic statistics over [first, last) indices (whole series by default).
  struct Stats {
    Real mean = 0.0;
    Real stddev = 0.0;
    Real min = 0.0;
    Real max = 0.0;
  };
  Stats stats(std::size_t first = 0,
              std::size_t last = static_cast<std::size_t>(-1)) const;

  /// Rolling standard deviation with the given window (same length as the
  /// series; warm-up uses the available prefix). The anomaly detector keys
  /// off this.
  std::vector<Real> rolling_stddev(std::size_t window) const;

  /// Allocation-free rollup: write the rolling stddev into `out`, which
  /// must be exactly `size()` long (lease it from a dsp::Workspace on hot
  /// paths). Throws std::invalid_argument on a length mismatch.
  void rolling_stddev(std::size_t window, std::span<Real> out) const;

  /// Down-sample by averaging blocks of `factor` samples (daily summaries).
  TimeSeries block_mean(std::size_t factor) const;

 private:
  std::string name_;
  std::string unit_;
  Real dt_ = 1.0;
  std::vector<Real> values_;
};

}  // namespace ecocap::shm
