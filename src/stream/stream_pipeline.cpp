#include "stream/stream_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "dsp/rng.hpp"
#include "dsp/serialize.hpp"

namespace ecocap::stream {

namespace {

// Seed salts for the per-stage draw streams, derived from the system seed
// with the same splitmix64 mix the trial engine uses. The fault injectors
// additionally fold in a per-swap epoch so a new plan starts a fresh stream.
constexpr std::uint64_t kDownlinkNoise = 0x7a11;
constexpr std::uint64_t kUplinkNoise = 0x7a12;
constexpr std::uint64_t kInjectorBase = 0x7a20;

/// Stream position, clock counters and the live plan: load() rebuilds the
/// injectors and the clock from these before the stages load into them.
template <class Ar>
void io_cursor(Ar& ar, auto&& pos, auto&& epoch, auto&& clock_samples,
               auto&& clock_blocks, auto& plan) {
  ar.field("sp.pos", pos);
  ar.field("sp.fault_epoch", epoch);
  ar.field("sp.clock_samples", clock_samples);
  ar.field("sp.clock_blocks", clock_blocks);
  ar.nested(plan);
}

NodeStage::Config node_config(const core::SystemConfig& system) {
  NodeStage::Config c;
  c.harvester = system.capsule.harvester;
  c.power = system.capsule.power;
  c.backscatter = system.capsule.backscatter;
  c.hra_gain = system.capsule.hra_gain;
  c.fs = system.channel.fs;
  return c;
}

}  // namespace

Real StreamPipeline::derive_si_amplitude(
    const channel::ConcreteChannel& channel, const core::SystemConfig& system,
    Real volts_scale) {
  // Engineering estimate of the propagated backscatter RMS during a frame:
  // a unit carrier (RMS 1/sqrt(2)) calibrated to node volts, reflected at
  // the mid backscatter gain, attenuated once more on the way back. The
  // batch path measures this RMS from the finished emission; a live reader
  // fixes it up front from its known drive level.
  const auto& bp = system.capsule.backscatter;
  const Real mid = 0.5 * (bp.reflective_gain + bp.absorptive_gain);
  const Real rms = volts_scale * channel.path_gain() * mid *
                   channel.path_gain() / std::sqrt(2.0);
  return channel.uplink_si_amplitude(rms);
}

StreamPipeline::StreamPipeline(StreamConfig config)
    : config_(std::move(config)),
      snapshot_(std::make_shared<const core::SystemConfig>(config_.system)),
      channel_(std::shared_ptr<const channel::Structure>(
                   snapshot_, &snapshot_->structure),
               std::shared_ptr<const channel::ChannelConfig>(
                   snapshot_, &snapshot_->channel)),
      volts_scale_(channel::node_volts_scale(
          snapshot_->structure, snapshot_->transmitter.tx_voltage)),
      si_amplitude_(derive_si_amplitude(channel_, *snapshot_, volts_scale_)),
      clock_(snapshot_->channel.fs, config_.block_size),
      tx_(snapshot_->transmitter),
      dl_(channel_, volts_scale_,
          dsp::trial_seed(snapshot_->seed, kDownlinkNoise)),
      node_(node_config(*snapshot_)),
      ul_(channel_, snapshot_->transmitter.carrier.f_resonant, si_amplitude_,
          dsp::trial_seed(snapshot_->seed, kUplinkNoise)),
      rx_(snapshot_->receiver) {
  if (config_.block_size == 0) {
    throw std::invalid_argument("StreamPipeline: block_size must be > 0");
  }
  if (config_.threaded) {
    throw std::invalid_argument(
        "StreamPipeline: StreamConfig::threaded is not supported; the "
        "pipeline runs inline only");
  }
  set_fault_plan(snapshot_->fault);
}

void StreamPipeline::set_fault_plan(const fault::FaultPlan& plan) {
  const std::uint64_t seed = snapshot_->seed;
  const std::uint64_t epoch = fault_epoch_++;
  dl_.set_injector(
      fault::Injector(plan, seed, kInjectorBase + 4 * epoch + 0));
  node_.set_injector(
      fault::Injector(plan, seed, kInjectorBase + 4 * epoch + 1));
  ul_.set_injector(
      fault::Injector(plan, seed, kInjectorBase + 4 * epoch + 2));
  node_.set_extra_load_amps(node_.injector().cap_leak_amps());
  active_plan_ = plan;
}

template <class Self, class Ar>
void StreamPipeline::io_stages(Self& self, Ar& ar) {
  ar.nested(self.tx_);
  ar.nested(self.dl_);
  ar.nested(self.node_);
  ar.nested(self.ul_);
  ar.nested(self.rx_);
}

void StreamPipeline::save(dsp::ser::Writer& w) const {
  io_cursor(w, pos_, fault_epoch_, clock_.samples(), clock_.blocks(),
            active_plan_);
  io_stages(*this, w);
}

void StreamPipeline::load(dsp::ser::Reader& r) {
  std::uint64_t pos = 0, epoch = 0, clock_samples = 0, clock_blocks = 0;
  fault::FaultPlan plan;
  io_cursor(r, pos, epoch, clock_samples, clock_blocks, plan);
  // Rebuild the injectors against the checkpointed plan (their seeding is
  // irrelevant — the stage loads below restore the exact RNG stream
  // positions), then restore the epoch counter so the next mid-run swap
  // derives the same fresh streams an uninterrupted run would.
  set_fault_plan(plan);
  pos_ = pos;
  fault_epoch_ = epoch;
  clock_.resume_at(clock_samples, clock_blocks);
  io_stages(*this, r);
}

void StreamPipeline::schedule_emission(ScheduledEmission e) {
  node_.schedule(std::move(e));
}

void StreamPipeline::schedule_capture(CaptureWindow w) { rx_.schedule(w); }

void StreamPipeline::advance_to(std::uint64_t until,
                                std::vector<DecodedUplink>* decodes) {
  while (pos_ < until) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(config_.block_size, until - pos_));
    tx_.fill_block(n, block_);
    dl_.push_block(block_);
    node_.push_block(block_);
    // Outside capture windows the receiver never looks at the at-reader
    // samples, so the uplink only carries its state forward.
    if (rx_.reads(pos_, pos_ + n)) {
      ul_.push_block(block_);
    } else {
      ul_.advance_block(block_);
    }
    rx_.push_block(block_);
    pos_ += n;
    clock_.advance(n);
  }
  if (decodes) {
    auto drained = rx_.drain_decodes();
    decodes->insert(decodes->end(), std::make_move_iterator(drained.begin()),
                    std::make_move_iterator(drained.end()));
  }
}

}  // namespace ecocap::stream
