#include "core/link_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/trial_runner.hpp"
#include "core/workspace_pool.hpp"
#include "dsp/signal_ops.hpp"

namespace ecocap::core {

namespace {
// Null-check that must fire before the member-init list dereferences the
// snapshot (transmitter_ is built from config_->transmitter).
const SystemConfig& require(const SystemSnapshot& s) {
  if (!s) throw std::invalid_argument("LinkSimulator: null snapshot");
  return *s;
}
}  // namespace

SystemConfig default_system() {
  SystemConfig c;
  c.structure = channel::structures::test_block(
      wave::materials::normal_concrete());
  c.channel.distance = 0.20;
  c.channel.fs = 2.0e6;
  c.channel.prism_angle_deg = 60.0;
  c.transmitter.carrier.fs = c.channel.fs;
  c.transmitter.tx_voltage = 100.0;
  c.receiver.fs = c.channel.fs;
  c.receiver.blf = 4000.0;
  c.receiver.uplink.bitrate = 1000.0;
  c.capsule.firmware.node_id = 0x0001;
  c.capsule.firmware.uplink.bitrate = 1000.0;
  c.capsule.firmware.blf = 4000.0;
  return c;
}

LinkSimulator::LinkSimulator(SystemConfig config)
    : LinkSimulator(std::make_shared<const SystemConfig>(std::move(config))) {}

LinkSimulator::LinkSimulator(SystemSnapshot snapshot)
    : LinkSimulator(snapshot, require(snapshot).seed) {}

LinkSimulator::LinkSimulator(SystemSnapshot snapshot, std::uint64_t seed)
    : config_(std::move(snapshot)),
      seed_(seed),
      rng_(seed),
      transmitter_(require(config_).transmitter),
      receiver_(config_->receiver),
      // Aliasing shared_ptrs: the channel shares the snapshot's structure
      // and channel config instead of copying them (the scatterer list is
      // the heavyweight member this avoids duplicating per trial).
      channel_(std::shared_ptr<const channel::Structure>(config_,
                                                         &config_->structure),
               std::shared_ptr<const channel::ChannelConfig>(
                   config_, &config_->channel)),
      capsule_(config_->capsule, config_->channel.fs, seed ^ 0x9e3779b9),
      injector_(config_->fault, seed) {
  // Node-layer static faults that live outside the exchange flow.
  capsule_.set_extra_load_amps(injector_.cap_leak_amps());
}

void LinkSimulator::faulted_downlink(const dsp::Signal& tx,
                                     dsp::Signal& at_node) {
  channel_.downlink(tx, rng_, at_node);
  dsp::scale(at_node, channel::node_volts_scale(
                          config_->structure, config_->transmitter.tx_voltage));
  injector_.corrupt_waveform(at_node, config_->channel.fs);
}

void LinkSimulator::faulted_uplink(const dsp::Signal& emission,
                                   dsp::Signal& at_reader) {
  channel_.uplink(emission, config_->transmitter.carrier.f_resonant, rng_,
                  at_reader);
  injector_.corrupt_waveform(at_reader, config_->channel.fs);
  injector_.clip_adc(at_reader);
}

bool LinkSimulator::power_up() {
  // Stream CBW in 20 ms blocks until the MCU boots or 500 ms elapse.
  const node::ConcreteEnvironment env;
  dsp::Workspace& ws = WorkspacePool::shared().local();
  auto cw = ws.real(0);
  auto at_node = ws.real(0);
  for (int i = 0; i < 25; ++i) {
    transmitter_.continuous_wave(0.020, *cw);
    // Scaled by the reader drive voltage: the transmitter emits normalized
    // amplitude; the channel calibration maps volts to node voltage.
    faulted_downlink(*cw, *at_node);
    const auto r = capsule_.receive(*at_node, env);
    if (r.powered) return true;
  }
  return false;
}

InterrogationResult LinkSimulator::charge(Real duration) {
  InterrogationResult result;
  const node::ConcreteEnvironment env;
  dsp::Workspace& ws = WorkspacePool::shared().local();
  auto cw = ws.real(0);
  auto at_node = ws.real(0);
  transmitter_.continuous_wave(duration, *cw);
  faulted_downlink(*cw, *at_node);
  const auto r = capsule_.receive(*at_node, env);
  result.node_powered = r.powered;
  result.cap_voltage = r.cap_voltage;
  return result;
}

InterrogationResult LinkSimulator::interrogate(
    node::SensorId sensor, const node::ConcreteEnvironment& env) {
  InterrogationResult result;
  if (!power_up()) return result;
  result.node_powered = true;
  result.cap_voltage = capsule_.harvester().cap_voltage();

  dsp::Workspace& ws = WorkspacePool::shared().local();

  // Stage buffers shared by every exchange of the protocol round.
  auto tx = ws.real(0);
  auto at_node = ws.real(0);
  auto emission = ws.real(0);
  auto at_reader = ws.real(0);

  auto exchange = [&](const phy::Command& cmd,
                      std::size_t reply_bits) -> std::optional<phy::Bits> {
    // 1. Downlink the command.
    transmitter_.transmit_command(cmd, ws, *tx);
    faulted_downlink(*tx, *at_node);
    const auto rx = capsule_.receive(*at_node, env);
    if (!rx.powered) return std::nullopt;
    if (!rx.frames.empty()) result.command_decoded = true;
    if (rx.frames.empty()) return phy::Bits{};  // command ok, no reply due

    // 2. The node backscatters its frame off a fresh CBW. Node-layer
    // faults perturb only the emission: flipped bits in node memory, a
    // drifted RC timebase. The reader still locks to the nominal line
    // parameters it negotiated, so drift degrades the decode.
    const node::UplinkFrame& nominal = rx.frames.front();
    node::UplinkFrame perturbed;
    const node::UplinkFrame* frame = &nominal;
    if (injector_.active()) {
      perturbed = nominal;
      injector_.corrupt_frame_bits(perturbed.payload);
      const Real drift = injector_.clock_drift_factor();
      perturbed.bitrate *= drift;
      perturbed.blf *= drift;
      frame = &perturbed;
    }
    const Real frame_time = phy::fm0_frame_seconds(
        frame->payload.size(), config_->capsule.firmware.uplink,
        frame->bitrate);
    transmitter_.continuous_wave(frame_time, *tx);
    faulted_downlink(*tx, *at_node);
    capsule_.backscatter(*frame, *at_node, ws, *emission);
    if (injector_.brownout_aborts_frame()) {
      // Mid-frame brownout: the emission truncates and the MCU loses its
      // protocol state (it reboots into standby on the next downlink).
      emission->resize(static_cast<std::size_t>(
          injector_.brownout_cut() * static_cast<Real>(emission->size())));
      capsule_.firmware().power_off();
    }
    faulted_uplink(*emission, *at_reader);

    // 3. Decode against the nominal line parameters.
    receiver_.set_blf(nominal.blf);
    receiver_.set_bitrate(nominal.bitrate);
    const reader::UplinkDecode dec =
        receiver_.decode(*at_reader, reply_bits, ws);
    result.carrier_estimate = dec.carrier_estimate;
    if (!dec.valid) return std::nullopt;
    result.uplink_snr_db = dec.snr_db;  // only valid decodes carry an SNR
    return dec.payload;
  };

  // Query with Q=0: the node replies in the immediate slot.
  const auto rn16_bits = exchange(phy::Command{phy::QueryCommand{0}},
                                  phy::rn16_response_bits());
  if (!rn16_bits || rn16_bits->size() != phy::rn16_response_bits()) {
    return result;
  }
  const auto rn16 = phy::parse_rn16_response(*rn16_bits);
  if (!rn16) return result;
  result.uplink_decoded = true;
  result.uplink_payload = *rn16_bits;

  // Ack -> Id response.
  const auto id_bits = exchange(phy::Command{phy::AckCommand{rn16->rn16}},
                                phy::id_response_bits());
  if (!id_bits || !phy::parse_id_response(*id_bits)) return result;

  // Read the sensor.
  const auto data_bits = exchange(
      phy::Command{phy::ReadCommand{rn16->rn16,
                                    static_cast<std::uint8_t>(sensor)}},
      phy::data_response_bits());
  if (!data_bits) return result;
  if (const auto data = phy::parse_data_response(*data_bits)) {
    result.sensor_value = phy::from_milli(data->milli_value);
  }
  return result;
}

InterrogationResult LinkSimulator::uplink_once(const phy::Bits& payload) {
  InterrogationResult result;
  if (!power_up()) return result;
  result.node_powered = true;

  dsp::Workspace& ws = WorkspacePool::shared().local();
  node::UplinkFrame frame;
  frame.payload = payload;
  frame.bitrate = config_->capsule.firmware.uplink.bitrate;
  frame.blf = config_->capsule.firmware.blf;
  const Real nominal_blf = frame.blf;
  const Real nominal_bitrate = frame.bitrate;
  if (injector_.active()) {
    injector_.corrupt_frame_bits(frame.payload);
    const Real drift = injector_.clock_drift_factor();
    frame.bitrate *= drift;
    frame.blf *= drift;
  }

  const Real frame_time = phy::fm0_frame_seconds(
      payload.size(), config_->capsule.firmware.uplink, frame.bitrate);
  auto cw = ws.real(0);
  auto carrier_at_node = ws.real(0);
  auto emission = ws.real(0);
  auto at_reader = ws.real(0);
  transmitter_.continuous_wave(frame_time, *cw);
  faulted_downlink(*cw, *carrier_at_node);
  capsule_.backscatter(frame, *carrier_at_node, ws, *emission);
  if (injector_.brownout_aborts_frame()) {
    emission->resize(static_cast<std::size_t>(
        injector_.brownout_cut() * static_cast<Real>(emission->size())));
  }
  faulted_uplink(*emission, *at_reader);

  receiver_.set_blf(nominal_blf);
  receiver_.set_bitrate(nominal_bitrate);
  const reader::UplinkDecode dec =
      receiver_.decode(*at_reader, payload.size(), ws);
  result.carrier_estimate = dec.carrier_estimate;
  result.uplink_decoded = dec.valid;
  if (dec.valid) {
    result.uplink_snr_db = dec.snr_db;  // NaN otherwise: no measurement
    result.uplink_payload = dec.payload;
  }
  return result;
}

UplinkSweepResult uplink_sweep(const SystemConfig& base,
                               const phy::Bits& payload, std::size_t trials) {
  // Waveform-level trials are heavy (each builds a full channel + capsule),
  // so shard them one per block: dynamic claiming then load-balances even
  // when decode cost varies with the noise draw. One shared snapshot feeds
  // every trial; only the seed differs.
  const SystemSnapshot snapshot = std::make_shared<const SystemConfig>(base);
  const TrialRunner runner(ThreadPool::shared(), /*block_size=*/1);
  return runner.run<UplinkSweepResult>(
      trials, base.seed,
      [&](std::size_t t, dsp::Rng&, UplinkSweepResult& acc) {
        LinkSimulator sim(snapshot, dsp::trial_seed(base.seed, t));
        const InterrogationResult r = sim.uplink_once(payload);
        ++acc.trials;
        if (r.node_powered) ++acc.powered;
        if (r.uplink_decoded) {
          ++acc.decoded;
          acc.snr_db_sum += r.uplink_snr_db;
        }
      },
      [](UplinkSweepResult& into, const UplinkSweepResult& from) {
        into.trials += from.trials;
        into.powered += from.powered;
        into.decoded += from.decoded;
        into.snr_db_sum += from.snr_db_sum;
      });
}

LinkSimulator::RangeEstimate LinkSimulator::estimate_node_distance() {
  RangeEstimate est;
  if (!power_up()) return est;

  // Delay-preserving copy of the channel config for the ranging exchange;
  // the structure itself is shared from the snapshot.
  auto abs_cfg = std::make_shared<channel::ChannelConfig>(config_->channel);
  abs_cfg->preserve_absolute_delay = true;
  const channel::ConcreteChannel abs_channel(
      std::shared_ptr<const channel::Structure>(config_, &config_->structure),
      std::move(abs_cfg));

  dsp::Workspace& ws = WorkspacePool::shared().local();
  const Real fs = config_->channel.fs;
  const Real volts_scale = channel::node_volts_scale(
      config_->structure, config_->transmitter.tx_voltage);
  phy::Fm0Params line = config_->capsule.firmware.uplink;
  dsp::Rng payload_rng(seed_ ^ 0x5157);
  const phy::Bits payload = phy::random_bits(16, payload_rng);

  const Real frame_time =
      phy::fm0_frame_seconds(payload.size(), line, line.bitrate);
  // Extra room for the round trip.
  const Real margin = 2.0 * config_->structure.length /
                      std::max(config_->structure.material.cs, 500.0);
  auto cw = ws.real(0);
  auto at_node = ws.real(0);
  transmitter_.continuous_wave(frame_time + margin, *cw);
  abs_channel.downlink(*cw, rng_, *at_node);
  dsp::scale(*at_node, volts_scale);

  // The node triggers its switching when the CBW actually reaches it.
  const Real pk = dsp::peak(*at_node);
  std::size_t arrival = 0;
  while (arrival < at_node->size() &&
         std::abs((*at_node)[arrival]) < 0.25 * pk) {
    ++arrival;
  }
  auto switching = ws.real(arrival);
  std::fill(switching->begin(), switching->end(), -1.0);  // absorptive
  auto frame_wave = ws.real(0);
  phy::fm0_encode_frame(payload, line, fs, *frame_wave);
  switching->insert(switching->end(), frame_wave->begin(), frame_wave->end());
  if (switching->size() > at_node->size()) {
    switching->resize(at_node->size());
  }

  phy::BackscatterParams bp = config_->capsule.backscatter;
  bp.f_blf = config_->capsule.firmware.blf;
  auto emission = ws.real(0);
  phy::backscatter_modulate(*at_node, *switching, fs, bp, *emission);
  auto at_reader = ws.real(0);
  abs_channel.uplink(*emission, config_->transmitter.carrier.f_resonant, rng_,
                     *at_reader);

  receiver_.set_blf(bp.f_blf);
  receiver_.set_bitrate(line.bitrate);
  const reader::UplinkDecode dec =
      receiver_.decode(*at_reader, payload.size(), ws);
  if (!dec.valid) return est;
  est.valid = true;
  est.round_trip_s = dec.frame_start_s;
  const Real cs = config_->structure.material.cs > 0.0
                      ? config_->structure.material.cs
                      : config_->structure.material.cp;
  est.distance = 0.5 * dec.frame_start_s * cs;
  return est;
}

}  // namespace ecocap::core
