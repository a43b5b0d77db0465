#include "channel/concrete_channel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "dsp/oscillator.hpp"
#include "dsp/serialize.hpp"
#include "dsp/signal_ops.hpp"
#include "wave/attenuation.hpp"
#include "wave/snell.hpp"

namespace ecocap::channel {

namespace {
// Null-checks that must fire before the member-init list dereferences the
// snapshots (prism_ is built from structure_->material).
const Structure& require(const std::shared_ptr<const Structure>& s) {
  if (!s) throw std::invalid_argument("ConcreteChannel: null structure");
  return *s;
}
const ChannelConfig& require(const std::shared_ptr<const ChannelConfig>& c) {
  if (!c) throw std::invalid_argument("ConcreteChannel: null config");
  return *c;
}
}  // namespace

ConcreteChannel::ConcreteChannel(Structure structure, ChannelConfig config)
    : ConcreteChannel(
          std::make_shared<const Structure>(std::move(structure)),
          std::make_shared<const ChannelConfig>(std::move(config))) {}

ConcreteChannel::ConcreteChannel(std::shared_ptr<const Structure> structure,
                                 std::shared_ptr<const ChannelConfig> config)
    : structure_(std::move(structure)),
      config_(std::move(config)),
      prism_(wave::materials::pla(), require(structure_).material,
             wave::deg_to_rad(require(config_).prism_angle_deg)) {
  if (config_->fs <= 0.0 || config_->distance < 0.0) {
    throw std::invalid_argument("ConcreteChannel: invalid config");
  }
  if (!config_->scatterers.empty()) {
    scatterer_field_.emplace(config_->scatterers, structure_->material);
  }
  resonator_ = dsp::FilterCache::shared().bandpass_resonator(
      config_->fs, config_->concrete_resonance, config_->concrete_q);
  mode_taps_ = compute_mode_taps();
}

Real ConcreteChannel::scatterer_gain(Real frequency) const {
  if (!scatterer_field_) return 1.0;
  // The reader sits at x = 0 mid-thickness; the node at the configured
  // distance along the structure.
  const wave::Point2 reader{0.0, structure_->thickness / 2.0};
  const wave::Point2 node{config_->distance, structure_->thickness / 2.0};
  return scatterer_field_->path_gain(reader, node, frequency);
}

Real ConcreteChannel::path_gain() const {
  return std::exp(-structure_->effective_attenuation * config_->distance) *
         scatterer_gain(config_->carrier_for_scatterers);
}

std::vector<wave::Tap> ConcreteChannel::compute_mode_taps() const {
  std::vector<wave::Tap> taps;
  const Real gain = path_gain();
  const Real cs = structure_->material.cs > 0.0 ? structure_->material.cs
                                                : structure_->material.cp;
  const Real cp = structure_->material.cp;

  if (config_->prism_angle_deg <= 1e-9 || structure_->material.is_fluid()) {
    // Direct contact (or a fluid): a single P arrival.
    taps.push_back(wave::Tap{config_->distance / cp, gain, 0});
    return taps;
  }

  const wave::ModeAmplitudes amps = prism_.conducted_amplitudes();
  // The S copy is the intended carrier; the P copy (when the incident angle
  // is below the first critical angle) arrives earlier and carries the same
  // data — the intra-symbol interference the prism design eliminates.
  if (amps.s > 1e-6) {
    taps.push_back(wave::Tap{config_->distance / cs, amps.s * gain, 0});
  }
  if (amps.p > 1e-6) {
    taps.push_back(wave::Tap{config_->distance / cp, amps.p * gain, 0});
  }

  if (config_->use_multipath && !structure_->material.is_fluid()) {
    wave::RayTracer::Config rc;
    rc.length = structure_->length;
    rc.thickness = structure_->thickness;
    rc.frequency = config_->concrete_resonance;
    rc.rays = config_->multipath_rays;
    const wave::RayTracer tracer(structure_->material, rc);
    const Real launch = prism_.refraction().theta_s.value_or(
        wave::deg_to_rad(45.0));
    const auto ray_taps = tracer.trace(
        0.0, launch,
        wave::Point2{config_->distance, structure_->thickness / 2.0});
    // The direct mode taps above carry the calibrated total gain; the ray
    // taps add the reverberant tail, scaled to sit below the direct path.
    Real direct_amp = 0.0;
    for (const auto& t : ray_taps) direct_amp = std::max(direct_amp, std::abs(t.amplitude));
    if (direct_amp > 0.0) {
      for (const auto& t : ray_taps) {
        if (t.bounces == 0) continue;  // direct path already modeled
        taps.push_back(wave::Tap{t.delay, 0.4 * gain * t.amplitude / direct_amp,
                                 t.bounces});
      }
    }
  }

  std::sort(taps.begin(), taps.end(),
            [](const wave::Tap& a, const wave::Tap& b) {
              return a.delay < b.delay;
            });
  return taps;
}

void ConcreteChannel::apply_taps(std::span<const Real> x,
                                 const std::vector<wave::Tap>& taps,
                                 Signal& out) const {
  out.assign(x.size(), 0.0);
  if (taps.empty()) return;
  const Real base_delay =
      config_->preserve_absolute_delay ? 0.0 : taps.front().delay;
  for (const auto& t : taps) {
    const auto shift = static_cast<std::size_t>(
        std::llround((t.delay - base_delay) * config_->fs));
    for (std::size_t i = shift; i < out.size(); ++i) {
      out[i] += t.amplitude * x[i - shift];
    }
  }
}

void ConcreteChannel::apply_resonance_inplace(Signal& x) const {
  dsp::Biquad bp = resonator_->prototype;  // zero-state copy
  const Real g0 = resonator_->peak_gain;
  // Direct-form-I reads the input sample before writing the output slot, so
  // filtering in place is sample-for-sample identical to a fresh buffer.
  bp.process(std::span<const Real>(x), x);
  if (g0 > 0.0) dsp::scale(x, 1.0 / g0);
}

void ConcreteChannel::downlink(std::span<const Real> tx_acoustic,
                               dsp::Rng& rng, Signal& out) const {
  apply_taps(tx_acoustic, mode_taps(), out);
  apply_resonance_inplace(out);
  dsp::add_awgn(out, config_->noise_sigma, rng);
}

void ConcreteChannel::propagate_uplink(std::span<const Real> node_emission,
                                       Signal& out) const {
  // The uplink path carries only the S-reflections back (the node radiates
  // from inside the bulk; the prism mode split does not apply).
  const Real gain = path_gain();
  if (config_->preserve_absolute_delay) {
    const Real cs = structure_->material.cs > 0.0 ? structure_->material.cs
                                                  : structure_->material.cp;
    const auto shift = static_cast<std::size_t>(
        std::llround(config_->distance / cs * config_->fs));
    out.assign(node_emission.size() + shift, 0.0);
    for (std::size_t i = 0; i < node_emission.size(); ++i) {
      out[i + shift] = node_emission[i];
    }
  } else {
    out.assign(node_emission.begin(), node_emission.end());
  }
  dsp::scale(out, gain);
  apply_resonance_inplace(out);
}

void ConcreteChannel::add_uplink_si_noise(Signal& out, Real carrier_frequency,
                                          Real si_amplitude,
                                          dsp::Rng& rng) const {
  dsp::Oscillator cw(config_->fs, carrier_frequency);
  // A random starting phase decorrelates SI from the carrier snapshot the
  // node reflected.
  cw.reset_phase(rng.uniform(0.0, 2.0 * dsp::kPi));
  for (Real& v : out) {
    v += cw.next(si_amplitude);
  }
  dsp::add_awgn(out, config_->noise_sigma, rng);
}

Real ConcreteChannel::uplink_si_amplitude(Real propagated_rms) const {
  return config_->self_interference_gain * propagated_rms * std::sqrt(2.0);
}

void ConcreteChannel::uplink(std::span<const Real> node_emission,
                             Real carrier_frequency, dsp::Rng& rng,
                             Signal& out) const {
  propagate_uplink(node_emission, out);
  // Self-interference: the CBW leaks into the receiving PZT at an amplitude
  // config_->self_interference_gain times the *backscatter* amplitude (§3.4:
  // "10x stronger than the backscattered signals").
  add_uplink_si_noise(out, carrier_frequency, uplink_si_amplitude(dsp::rms(out)),
                      rng);
}

void ConcreteChannel::uplink(std::span<const Real> node_emission,
                             Real carrier_frequency, Real si_amplitude,
                             dsp::Rng& rng, Signal& out) const {
  propagate_uplink(node_emission, out);
  add_uplink_si_noise(out, carrier_frequency, si_amplitude, rng);
}

ConcreteChannel::DownlinkStream::DownlinkStream(const ConcreteChannel& channel,
                                                std::uint64_t noise_seed)
    : channel_(&channel),
      resonator_(channel.resonator_->prototype),  // zero-state copy
      rng_(noise_seed) {
  const Real base_delay = channel.config().preserve_absolute_delay
                              ? 0.0
                              : channel.mode_taps().empty()
                                    ? 0.0
                                    : channel.mode_taps().front().delay;
  for (const auto& t : channel.mode_taps()) {
    const auto shift = static_cast<std::size_t>(
        std::llround((t.delay - base_delay) * channel.config().fs));
    shifts_.push_back(shift);
    amps_.push_back(t.amplitude);
    max_shift_ = std::max(max_shift_, shift);
  }
  hist_.assign(max_shift_, 0.0);
  const Real g0 = channel.resonator_->peak_gain;
  if (g0 > 0.0) {
    resonance_scale_ = 1.0 / g0;
    has_resonance_scale_ = true;
  }
}

void ConcreteChannel::DownlinkStream::push_block(Signal& x) {
  const std::size_t n = x.size();
  if (n == 0) return;
  // Tap convolution over the carried delay line. Per output index the adds
  // happen in tap order onto a zero accumulator — the exact addition
  // sequence apply_taps performs tap-outer, so the result is bit-identical
  // at any block split.
  ext_.resize(max_shift_ + n);
  std::copy(hist_.begin(), hist_.end(), ext_.begin());
  std::copy(x.begin(), x.end(), ext_.begin() + static_cast<std::ptrdiff_t>(max_shift_));
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t abs_i = pos_ + i;
    Real acc = 0.0;
    for (std::size_t k = 0; k < shifts_.size(); ++k) {
      if (shifts_[k] > abs_i) continue;  // batch starts tap k at i == shift
      acc += amps_[k] * ext_[max_shift_ + i - shifts_[k]];
    }
    x[i] = acc;
  }
  if (max_shift_ > 0) {
    std::copy(ext_.end() - static_cast<std::ptrdiff_t>(max_shift_), ext_.end(),
              hist_.begin());
  }
  pos_ += n;
  // Resonance: the same kernel invocation apply_resonance_inplace makes,
  // but on the carried biquad — direct form I state load/store makes block
  // splits invisible.
  resonator_.process(std::span<const Real>(x), x);
  if (has_resonance_scale_) dsp::scale(x, resonance_scale_);
  dsp::add_awgn(x, channel_->config().noise_sigma, rng_);
}

ConcreteChannel::UplinkStream::UplinkStream(const ConcreteChannel& channel,
                                            Real carrier_frequency,
                                            Real si_amplitude,
                                            std::uint64_t noise_seed)
    : channel_(&channel),
      gain_(channel.path_gain()),
      resonator_(channel.resonator_->prototype),  // zero-state copy
      si_(channel.config().fs, carrier_frequency),
      si_amplitude_(si_amplitude),
      rng_(noise_seed) {
  if (channel.config().preserve_absolute_delay) {
    throw std::invalid_argument(
        "UplinkStream: preserve_absolute_delay is a batch-only feature — a "
        "live stream schedules the emission later instead of padding it");
  }
  const Real g0 = channel.resonator_->peak_gain;
  if (g0 > 0.0) {
    resonance_scale_ = 1.0 / g0;
    has_resonance_scale_ = true;
  }
  // Matches the batch draw order: the SI phase is the first draw from the
  // uplink's RNG, before any noise gaussians.
  si_.reset_phase(rng_.uniform(0.0, 2.0 * dsp::kPi));
}

void ConcreteChannel::UplinkStream::push_block(Signal& x) {
  if (x.empty()) return;
  dsp::scale(x, gain_);
  resonator_.process(std::span<const Real>(x), x);
  if (has_resonance_scale_) dsp::scale(x, resonance_scale_);
  for (Real& v : x) v += si_.next(si_amplitude_);
  dsp::add_awgn(x, channel_->config().noise_sigma, rng_);
}

template <class Self, class Ar>
void ConcreteChannel::DownlinkStream::io(Self& self, Ar& ar) {
  ar.field("dls.pos", self.pos_);
  ar.field("dls.hist", self.hist_);
  ar.nested(self.resonator_);
  ar.field("dls.rng", self.rng_);
}

void ConcreteChannel::DownlinkStream::save(dsp::ser::Writer& w) const {
  io(*this, w);
}

void ConcreteChannel::DownlinkStream::load(dsp::ser::Reader& r) {
  io(*this, r);
  if (hist_.size() != max_shift_) {
    throw std::runtime_error(
        "checkpoint: downlink tap delay line length mismatch");
  }
}

template <class Self, class Ar>
void ConcreteChannel::UplinkStream::io(Self& self, Ar& ar) {
  ar.nested(self.resonator_);
  ar.value("uls.si_phase", self.si_.phase(),
           [&](auto phase) { self.si_.reset_phase(phase); });
  ar.field("uls.rng", self.rng_);
}

void ConcreteChannel::UplinkStream::save(dsp::ser::Writer& w) const {
  io(*this, w);
}

void ConcreteChannel::UplinkStream::load(dsp::ser::Reader& r) { io(*this, r); }

}  // namespace ecocap::channel
