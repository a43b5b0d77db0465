#include "phy/carrier.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/kernels/kernels.hpp"

namespace ecocap::phy {

Signal modulate_downlink(std::span<const Real> baseband,
                         const CarrierParams& params, DownlinkScheme scheme) {
  Signal out;
  modulate_downlink(baseband, params, scheme, out);
  return out;
}

void modulate_downlink(std::span<const Real> baseband,
                       const CarrierParams& params, DownlinkScheme scheme,
                       Signal& out) {
  if (params.fs <= 0.0) {
    throw std::invalid_argument("modulate_downlink: bad sample rate");
  }
  dsp::Oscillator osc(params.fs, params.f_resonant);
  const std::size_t n = baseband.size();
  out.resize(n);
  // The phases come first, then one sine-kernel call over the whole buffer.
  switch (scheme) {
    case DownlinkScheme::kOok:
      // The oscillator keeps running through the gated intervals, so the
      // phase stays continuous across gaps (as a gated signal generator's).
      osc.phases(out);
      break;
    case DownlinkScheme::kFskOffResonance:
      // One phase run per PIE level; each hop keeps the phase continuous.
      for (std::size_t i = 0; i < n;) {
        const bool high = baseband[i] > 0.5;
        std::size_t j = i + 1;
        while (j < n && (baseband[j] > 0.5) == high) ++j;
        const Real f = high ? params.f_resonant : params.f_off;
        if (f != osc.frequency()) osc.set_frequency(f);
        osc.phases(std::span<Real>(out.data() + i, j - i));
        i = j;
      }
      break;
  }
  dsp::kernels::active().sine(out.data(), n, params.amplitude);
  if (scheme == DownlinkScheme::kOok) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!(baseband[i] > 0.5)) out[i] = 0.0;
    }
  }
}

Signal backscatter_modulate(std::span<const Real> incident_carrier,
                            std::span<const Real> switching, Real fs,
                            const BackscatterParams& params) {
  Signal out;
  backscatter_modulate(incident_carrier, switching, fs, params, out);
  return out;
}

void backscatter_modulate(std::span<const Real> incident_carrier,
                          std::span<const Real> switching, Real fs,
                          const BackscatterParams& params, Signal& out) {
  if (switching.size() > incident_carrier.size()) {
    throw std::invalid_argument("backscatter_modulate: switching too long");
  }
  out.resize(incident_carrier.size());
  backscatter_modulate(incident_carrier, switching, 0, fs, params,
                       std::span<Real>(out));
}

void backscatter_modulate(std::span<const Real> incident_carrier,
                          std::span<const Real> switching,
                          std::uint64_t switching_offset, Real fs,
                          const BackscatterParams& params,
                          std::span<Real> out) {
  if (out.size() != incident_carrier.size()) {
    throw std::invalid_argument("backscatter_modulate: out size mismatch");
  }
  const bool use_blf = params.f_blf > 0.0;
  if (use_blf && fs <= 0.0) {
    throw std::invalid_argument("backscatter_modulate: fs must be > 0");
  }
  if (use_blf && params.f_blf > 0.5 * fs) {
    throw std::invalid_argument("backscatter_modulate: f_blf must be <= fs/2");
  }
  const Real mid = 0.5 * (params.reflective_gain + params.absorptive_gain);
  const Real half = 0.5 * (params.reflective_gain - params.absorptive_gain);
  const std::size_t n = incident_carrier.size();
  // Samples [0, active) fall inside the switching waveform; before/after
  // the data burst the switch rests in the absorptive state (harvest as
  // much as possible, paper §2).
  const std::size_t active =
      switching_offset < switching.size()
          ? static_cast<std::size_t>(std::min<std::uint64_t>(
                switching.size() - switching_offset, n))
          : 0;
  const Real* sw = switching.data() + (active > 0 ? switching_offset : 0);
  if (use_blf) {
    // The subcarrier is computed inline (blf_square's arithmetic at phase
    // 0) with its phase r = fmod(idx, period) carried as a running
    // remainder. With period >= 2 (f_blf <= fs/2), r + 1 is exact when it
    // stays below the period and (r - period) + 1 is exact otherwise
    // (Sterbenz), so r equals std::fmod(idx, period) bit for bit for every
    // idx < 2^53 — one fmod per call instead of one per sample.
    const Real period = fs / params.f_blf;
    Real r = std::fmod(static_cast<Real>(switching_offset), period);
    for (std::size_t i = 0; i < active; ++i) {
      const Real state = sw[i] * ((r / period < 0.5) ? 1.0 : -1.0);
      out[i] = incident_carrier[i] * (mid + half * state);
      const Real r1 = r + 1.0;
      r = (r1 >= period) ? (r - period) + 1.0 : r1;
    }
  } else {
    for (std::size_t i = 0; i < active; ++i) {
      out[i] = incident_carrier[i] * (mid + half * sw[i]);
    }
  }
  const Real rest = mid + half * -1.0;
  for (std::size_t i = active; i < n; ++i) {
    out[i] = incident_carrier[i] * rest;
  }
}

Signal blf_square(Real fs, Real f_blf, std::size_t n, std::size_t phase) {
  Signal out;
  blf_square(fs, f_blf, n, phase, out);
  return out;
}

void blf_square(Real fs, Real f_blf, std::size_t n, std::size_t phase,
                Signal& out) {
  if (f_blf <= 0.0 || fs <= 0.0) {
    throw std::invalid_argument("blf_square: frequencies must be > 0");
  }
  out.resize(n);
  const Real period = fs / f_blf;
  for (std::size_t i = 0; i < n; ++i) {
    const Real t = std::fmod(static_cast<Real>(i + phase), period) / period;
    out[i] = (t < 0.5) ? 1.0 : -1.0;
  }
}

}  // namespace ecocap::phy
