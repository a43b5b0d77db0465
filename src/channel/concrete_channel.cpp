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
  path_gain_ =
      std::exp(-structure_->effective_attenuation * config_->distance) *
      scatterer_gain(config_->carrier_for_scatterers);
  mode_taps_ = compute_mode_taps();
  const Real base_delay =
      config_->preserve_absolute_delay || mode_taps_.empty()
          ? 0.0
          : mode_taps_.front().delay;
  for (const auto& t : mode_taps_) {
    const auto shift = static_cast<std::size_t>(
        std::llround((t.delay - base_delay) * config_->fs));
    tap_shifts_.push_back(shift);
    tap_amps_.push_back(t.amplitude);
    max_tap_shift_ = std::max(max_tap_shift_, shift);
  }
}

Real ConcreteChannel::scatterer_gain(Real frequency) const {
  if (!scatterer_field_) return 1.0;
  // The reader sits at x = 0 mid-thickness; the node at the configured
  // distance along the structure.
  const wave::Point2 reader{0.0, structure_->thickness / 2.0};
  const wave::Point2 node{config_->distance, structure_->thickness / 2.0};
  return scatterer_field_->path_gain(reader, node, frequency);
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

void ConcreteChannel::run_downlink(std::uint64_t pos, const Real* src,
                                   dsp::Biquad& resonator, dsp::Rng& rng,
                                   Signal& out) const {
  // Tap sum: out[i] = sum over taps k, in tap order, of amp_k *
  // src[i - shift_k]. Tap k starts at absolute index shift_k: samples from
  // before the stream began are skipped, not added as zeros, which keeps
  // the sign of zero. Tap-outer order makes, per output index, the same
  // additions in the same order as a per-sample loop.
  const std::size_t n = out.size();
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t k = 0; k < tap_shifts_.size(); ++k) {
    const std::size_t shift = tap_shifts_[k];
    const auto first = static_cast<std::size_t>(
        std::min<std::uint64_t>(shift > pos ? shift - pos : 0, n));
    for (std::size_t i = first; i < n; ++i) {
      out[i] += tap_amps_[k] * src[static_cast<std::ptrdiff_t>(i - shift)];
    }
  }
  // Resonance: the biquad kernel keeps its own copy of the input history,
  // so filtering in place on the carried biquad is exact.
  resonator.process(std::span<const Real>(out), out);
  if (resonator_->peak_gain > 0.0) {
    dsp::scale(out, 1.0 / resonator_->peak_gain);
  }
  dsp::add_awgn(out, config_->noise_sigma, rng);
}

void ConcreteChannel::run_uplink_propagate(dsp::Biquad& resonator,
                                           Signal& x) const {
  // The uplink path carries only the S-reflections back (the node radiates
  // from inside the bulk; the prism mode split does not apply).
  dsp::scale(x, path_gain_);
  resonator.process(std::span<const Real>(x), x);
  if (resonator_->peak_gain > 0.0) dsp::scale(x, 1.0 / resonator_->peak_gain);
}

void ConcreteChannel::run_uplink_si_noise(dsp::Oscillator& si,
                                          Real si_amplitude, dsp::Rng& rng,
                                          Signal& x) const {
  si.accumulate(x, si_amplitude);
  dsp::add_awgn(x, config_->noise_sigma, rng);
}

dsp::Oscillator ConcreteChannel::si_oscillator(Real carrier_frequency,
                                               dsp::Rng& rng) const {
  dsp::Oscillator si(config_->fs, carrier_frequency);
  si.reset_phase(rng.uniform(0.0, 2.0 * dsp::kPi));
  return si;
}

void ConcreteChannel::downlink(std::span<const Real> tx_acoustic,
                               dsp::Rng& rng, Signal& out) const {
  out.resize(tx_acoustic.size());
  dsp::Biquad resonator = resonator_->prototype;  // zero state
  run_downlink(0, tx_acoustic.data(), resonator, rng, out);
}

Real ConcreteChannel::uplink_si_amplitude(Real propagated_rms) const {
  return config_->self_interference_gain * propagated_rms * std::sqrt(2.0);
}

void ConcreteChannel::uplink(std::span<const Real> node_emission,
                             Real carrier_frequency, dsp::Rng& rng,
                             Signal& out) const {
  std::size_t delay = 0;
  if (config_->preserve_absolute_delay) {
    const Real cs = structure_->material.cs > 0.0 ? structure_->material.cs
                                                  : structure_->material.cp;
    delay = static_cast<std::size_t>(
        std::llround(config_->distance / cs * config_->fs));
  }
  out.resize(delay + node_emission.size());
  std::fill_n(out.begin(), delay, 0.0);
  std::copy(node_emission.begin(), node_emission.end(),
            out.begin() + static_cast<std::ptrdiff_t>(delay));
  dsp::Biquad resonator = resonator_->prototype;  // zero state
  run_uplink_propagate(resonator, out);
  // Self-interference: the CBW leaks into the receiving PZT at an amplitude
  // config_->self_interference_gain times the *backscatter* amplitude (§3.4:
  // "10x stronger than the backscattered signals").
  dsp::Oscillator si = si_oscillator(carrier_frequency, rng);
  run_uplink_si_noise(si, uplink_si_amplitude(dsp::rms(out)), rng, out);
}

ConcreteChannel::DownlinkStream::DownlinkStream(const ConcreteChannel& channel,
                                                std::uint64_t noise_seed)
    : channel_(&channel),
      hist_(channel.max_tap_shift_, 0.0),
      resonator_(channel.resonator_->prototype),  // zero-state copy
      rng_(noise_seed) {}

void ConcreteChannel::DownlinkStream::push_block(Signal& x) {
  const std::size_t n = x.size();
  if (n == 0) return;
  // The tap delay line runs over hist_ ++ x, so the kernel reads inputs
  // from before this block exactly as a single push would have.
  const auto h = static_cast<std::ptrdiff_t>(hist_.size());
  ext_.resize(hist_.size() + n);
  std::copy(hist_.begin(), hist_.end(), ext_.begin());
  std::copy(x.begin(), x.end(), ext_.begin() + h);
  channel_->run_downlink(pos_, ext_.data() + h, resonator_, rng_, x);
  std::copy(ext_.end() - h, ext_.end(), hist_.begin());
  pos_ += n;
}

ConcreteChannel::UplinkStream::UplinkStream(const ConcreteChannel& channel,
                                            Real carrier_frequency,
                                            Real si_amplitude,
                                            std::uint64_t noise_seed)
    : channel_(&channel),
      resonator_(channel.resonator_->prototype),  // zero-state copy
      rng_(noise_seed),
      si_(channel.si_oscillator(carrier_frequency, rng_)),
      si_amplitude_(si_amplitude) {
  if (channel.config().preserve_absolute_delay) {
    throw std::invalid_argument(
        "UplinkStream: preserve_absolute_delay is a batch-only feature — a "
        "live stream schedules the emission later instead of padding it");
  }
}

void ConcreteChannel::UplinkStream::push_block(Signal& x) {
  if (x.empty()) return;
  channel_->run_uplink_propagate(resonator_, x);
  channel_->run_uplink_si_noise(si_, si_amplitude_, rng_, x);
}

void ConcreteChannel::UplinkStream::advance_block(Signal& x) {
  if (x.empty()) return;
  // The resonator's state depends on its input, so it runs as in
  // push_block; the SI phase and the noise draws depend only on the count.
  channel_->run_uplink_propagate(resonator_, x);
  si_.advance(x.size());
  rng_.skip_gaussian(x.size());
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
  if (hist_.size() != channel_->max_tap_shift_) {
    throw std::runtime_error(
        "checkpoint: downlink tap delay line length mismatch");
  }
}

template <class Self, class Ar>
void ConcreteChannel::UplinkStream::io(Self& self, Ar& ar) {
  ar.nested(self.resonator_);
  dsp::Oscillator::io(self.si_, ar, "uls.si_phase", "uls.si_index");
  ar.field("uls.rng", self.rng_);
}

void ConcreteChannel::UplinkStream::save(dsp::ser::Writer& w) const {
  io(*this, w);
}

void ConcreteChannel::UplinkStream::load(dsp::ser::Reader& r) { io(*this, r); }

}  // namespace ecocap::channel
