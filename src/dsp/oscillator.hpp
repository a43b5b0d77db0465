#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>

#include "dsp/types.hpp"

namespace ecocap::dsp {

/// Phase-continuous sinusoidal oscillator. Used by the reader transmitter to
/// synthesize the continuous body wave (CBW) and to hop between the resonant
/// and off-resonant FSK frequencies without phase discontinuities (a phase
/// jump would itself excite the PZT ring).
///
/// The phase lives on an exact integer grid: f/fs reduces to step/grid
/// (grid <= 2^53; a finer ratio is rounded onto the 2^53 grid, a
/// resolution of fs * 2^-53 Hz), the oscillator carries an index in
/// [0, grid) that moves by `step` per sample, and the phase at index k is
/// offset + (2*pi/grid) * k, wrapped once. No rounding accumulates, so the
/// phase sequence repeats exactly every `period()` samples and `advance`
/// is O(1). The sines of a block of phases are taken in one call of the
/// `kernels::KernelTable::sine` map; `next` x n, `generate` and
/// `accumulate` give the same bits at any block split.
///
/// Because the sequence repeats, the block calls (`generate`, `accumulate`)
/// replay it: when `period() <= kMaxTablePeriod`, the first block call
/// stores the period's outputs of the `sine` kernel at amplitude 1.0, in
/// sample order, and every block call then reads that table and multiplies
/// by the amplitude — the kernel's own last step, so the bytes are the
/// kernel's. The table is derived state: it is never saved, and
/// `set_frequency`, `reset_phase` and a load (`io`) that changes the offset
/// or lands on another index residue mod gcd(step, grid) drop it.
class Oscillator {
 public:
  /// Longest period, in samples, the block calls replay from a table
  /// (8 bytes per sample); `stream::TxStage` replays its settled carrier
  /// cycle under the same cap.
  static constexpr std::uint64_t kMaxTablePeriod = 4096;

  /// @param fs sample rate in Hz
  /// @param frequency initial frequency in Hz
  Oscillator(Real fs, Real frequency);

  /// Change frequency; the current phase becomes the new offset, so the
  /// phase stays continuous.
  void set_frequency(Real frequency);

  Real frequency() const { return frequency_; }

  /// Produce the next sample of amplitude `amplitude`.
  Real next(Real amplitude = 1.0);

  /// Produce `n` samples into a new buffer.
  Signal generate(std::size_t n, Real amplitude = 1.0);

  /// Produce `n` samples into a caller-provided buffer (resized to n).
  void generate(std::size_t n, Real amplitude, Signal& out);

  /// Add the next `x.size()` samples onto `x` (x[i] += next(amplitude)).
  void accumulate(std::span<Real> x, Real amplitude);

  /// Write the next `out.size()` phases — the arguments `next` would take
  /// the sine of — and advance past them.
  void phases(std::span<Real> out);

  /// Advance past the next `n` samples without producing them:
  /// index = (index + n * step) mod grid.
  void advance(std::uint64_t n);

  /// Current phase in radians, in [0, 2*pi].
  Real phase() const { return phase_at(index_); }

  /// Restart the grid at `phase` (radians, in [0, 2*pi]).
  void reset_phase(Real phase = 0.0) {
    offset_ = phase;
    index_ = 0;
    table_.clear();
  }

  /// The exact phase grid: `grid()` points per cycle, `step()` of them per
  /// sample, the current `index()` and the phase `offset()` at index 0.
  std::uint64_t grid() const { return grid_; }
  std::uint64_t step() const { return step_; }
  std::uint64_t index() const { return index_; }
  Real offset() const { return offset_; }

  /// Samples after which the phase sequence repeats bit for bit:
  /// grid / gcd(step, grid).
  std::uint64_t period() const;

  /// Whether the block calls hold a table of the period's unit sines.
  bool has_table() const { return !table_.empty(); }

  /// Checkpoint records of the phase: the offset under `offset_key` and the
  /// grid index under `index_key`, bounded to [0, 2*pi] and [0, grid). The
  /// frequency is configuration and is not stored.
  template <class Self, class Ar>
  static void io(Self& self, Ar& ar, std::string_view offset_key,
                 std::string_view index_key) {
    Real offset = self.offset_;
    std::uint64_t index = self.index_;
    ar.field(offset_key, offset, 0.0, kTwoPi);
    ar.field(index_key, index, 0, self.grid_ - 1);
    if constexpr (!std::is_const_v<Self>) self.restore(offset, index);
  }

 private:
  static constexpr std::size_t kNoTable = ~std::size_t{0};

  /// Sets the loaded phase, dropping the table unless it still holds the
  /// sequence through `index` from this offset.
  void restore(Real offset, std::uint64_t index);
  /// Table position of the current index, building the table if there is
  /// none; kNoTable when the period is above kMaxTablePeriod.
  std::size_t table_position();
  /// Writes (add false) or adds (add true) the next `x.size()` samples from
  /// the table and advances past them; false, doing nothing, without one.
  bool replay(std::span<Real> x, Real amplitude, bool add);

  Real phase_at(std::uint64_t index) const {
    const Real p =
        offset_ + scale_ * static_cast<Real>(static_cast<std::int64_t>(index));
    return p >= kTwoPi ? p - kTwoPi : p;
  }

  Real fs_;
  Real frequency_;
  Real offset_ = 0.0;
  Real scale_ = 0.0;  // 2*pi / grid
  std::uint64_t grid_ = 1;
  std::uint64_t step_ = 0;
  std::uint64_t index_ = 0;
  Signal table_;  // unit sines of one period from index table_start_ on
  std::uint64_t table_start_ = 0;
  std::uint64_t table_inverse_ = 0;  // (step / gcd)^-1 mod period
};

/// Convenience: a single tone of `n` samples at frequency f (Hz), fs (Hz).
Signal tone(Real fs, Real f, std::size_t n, Real amplitude = 1.0,
            Real phase0 = 0.0);

/// Linear chirp from f0 to f1 across n samples, used by the frequency-sweep
/// characterization experiments (Fig. 5).
Signal chirp(Real fs, Real f0, Real f1, std::size_t n, Real amplitude = 1.0);

}  // namespace ecocap::dsp
