#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "dsp/types.hpp"

namespace ecocap::core {

/// The streaming transceiver's driving clock (the `radioClock` role of the
/// obts-transceiver architecture): it owns the block cadence of the sample
/// stream and the simulated-time / wall-time bookkeeping behind the
/// real-time-factor headline metric.
///
/// The clock is purely accounting — stages advance it by the samples they
/// actually produced (`advance`), and it answers "how many simulated
/// seconds is that" and "how fast relative to the wall" at any point. It
/// never sleeps: a simulated reader is allowed to run faster than real
/// time, and `real_time_factor() >= 1` is exactly the claim that it could
/// keep up with a live ADC at `fs`.
class StreamClock {
 public:
  /// @param fs sample rate of the stream (Hz)
  /// @param block_size nominal samples per block (the cadence)
  StreamClock(dsp::Real fs, std::size_t block_size)
      : fs_(fs), block_size_(block_size), start_(Clock::now()) {
    if (fs <= 0.0 || block_size == 0) {
      throw std::invalid_argument("StreamClock: fs and block_size must be > 0");
    }
  }

  dsp::Real fs() const { return fs_; }
  std::size_t block_size() const { return block_size_; }

  /// Account `n` produced samples (one block; the final block of a segment
  /// may be short).
  void advance(std::size_t n) {
    samples_ += n;
    ++blocks_;
  }

  std::uint64_t blocks() const { return blocks_; }
  std::uint64_t samples() const { return samples_; }

  /// Simulated stream time covered so far, seconds.
  dsp::Real sim_seconds() const {
    return static_cast<dsp::Real>(samples_) / fs_;
  }

  /// Wall time since construction (or the last restart), seconds.
  dsp::Real wall_seconds() const {
    return std::chrono::duration<dsp::Real>(Clock::now() - start_).count();
  }

  /// Simulated seconds per wall second; the headline streaming metric.
  dsp::Real real_time_factor() const {
    const dsp::Real wall = wall_seconds();
    return wall > 0.0 ? sim_seconds() / wall : 0.0;
  }

  /// Zero the sample/block counters and restart the wall clock.
  void restart() {
    samples_ = 0;
    blocks_ = 0;
    start_ = Clock::now();
  }

  /// Restore the deterministic counters after a checkpoint resume and give
  /// the resumed run a fresh wall-clock epoch (wall time is not — and must
  /// not be — part of any checkpoint).
  void resume_at(std::uint64_t samples, std::uint64_t blocks) {
    samples_ = samples;
    blocks_ = blocks;
    start_ = Clock::now();
  }

 private:
  using Clock = std::chrono::steady_clock;
  dsp::Real fs_;
  std::size_t block_size_;
  std::uint64_t samples_ = 0;
  std::uint64_t blocks_ = 0;
  Clock::time_point start_;
};

}  // namespace ecocap::core
