#pragma once

#include <span>

#include "dsp/types.hpp"
#include "dsp/workspace.hpp"

namespace ecocap::dsp {

/// Digital downconversion, zero-phase low-pass and decimation in one pass:
/// out[j] = y[j * factor] for j < ceil(x.size() / factor), where y is
/// mix_down(x, fs, f0) convolved with h and advanced by its group delay
/// (taps - 1) / 2 — the same sums to rounding, but only the kept outputs
/// are evaluated and nothing full-rate is built. The mixer folds into the
/// filter: with d = (taps - 1) / 2,
///   y[t] = e^{-i w t} * sum_u g[u] x[t + u],  g[u] = h[d - u] e^{-i w u},
/// g is computed once per call, and each kept output costs two real dot
/// products (the SIMD kernel) and one rotation. `h` must be odd-length;
/// `out` is replaced.
void mix_lowpass_decimate(std::span<const Real> x, Real fs, Real f0,
                          std::span<const Real> h, std::size_t factor,
                          ComplexSignal& out);

/// The receiver's decoding front end: estimate the carrier of `x` within
/// [f_lo, f_hi] and write the baseband mixed at it, low-passed by `h` and
/// decimated by `factor` into `out` (as mix_lowpass_decimate). Returns the
/// carrier, which is estimate_tone_frequency(x, fs, f_lo, f_hi) — found
/// without the whole-window FFT:
///  * coarse: that estimator over the first 16384 samples (for a window no
///    longer than that, this is the whole-window estimate and the rest is
///    skipped);
///  * fine: the residual tone of the coarse baseband, the least-squares
///    phase slope of 8 segment means;
///  * exact: refine_tone_frequency around the fine value, after which the
///    baseband is recomputed at the exact carrier.
/// The prefix spectrum is leased from `ws`.
Real decimated_baseband(std::span<const Real> x, Real fs, Real f_lo,
                        Real f_hi, std::span<const Real> h,
                        std::size_t factor, Workspace& ws,
                        ComplexSignal& out);

}  // namespace ecocap::dsp
