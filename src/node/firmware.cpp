#include "node/firmware.hpp"

#include <utility>

namespace ecocap::node {

Firmware::Firmware(FirmwareConfig config, std::uint64_t seed)
    : config_(config),
      rng_(seed ^ (static_cast<std::uint64_t>(config.node_id) << 32)) {
  sensors_ = default_sensor_suite();
}

void Firmware::power_on() {
  if (state_ == McuState::kOff) state_ = McuState::kStandby;
}

void Firmware::power_off() {
  state_ = McuState::kOff;
  slot_ = 0;
  rn16_ = 0;
}

std::uint16_t Firmware::fresh_rn16() {
  return static_cast<std::uint16_t>(rng_.index(0x10000));
}

std::vector<UplinkFrame> Firmware::process_downlink(
    const std::vector<bool>& levels, double fs,
    const ConcreteEnvironment& env) {
  std::vector<UplinkFrame> out;
  if (state_ == McuState::kOff) return out;
  std::size_t cursor = 0;
  while (cursor + 1 < levels.size()) {
    const auto frame =
        phy::pie_decode_stream(levels, fs, config_.downlink, cursor);
    if (!frame) break;
    cursor = frame->end_index;
    const auto cmd = phy::parse_command(frame->payload);
    if (!cmd) continue;  // CRC failure: Gen2 nodes stay silent
    if (auto reply = handle_command(*cmd, env)) {
      out.push_back(std::move(*reply));
    }
  }
  return out;
}

std::optional<UplinkFrame> Firmware::handle_command(
    const phy::Command& cmd, const ConcreteEnvironment& env) {
  if (state_ == McuState::kOff) return std::nullopt;
  if (const auto* sel = std::get_if<phy::SelectCommand>(&cmd)) {
    return on_select(*sel);
  }
  if (const auto* q = std::get_if<phy::QueryCommand>(&cmd)) {
    return on_query(*q);
  }
  if (std::get_if<phy::QueryRepCommand>(&cmd)) {
    return on_query_rep();
  }
  if (const auto* a = std::get_if<phy::AckCommand>(&cmd)) {
    return on_ack(*a);
  }
  if (const auto* r = std::get_if<phy::ReadCommand>(&cmd)) {
    return on_read(*r, env);
  }
  if (const auto* s = std::get_if<phy::SetBlfCommand>(&cmd)) {
    return on_set_blf(*s);
  }
  return std::nullopt;
}

std::optional<UplinkFrame> Firmware::on_select(const phy::SelectCommand& s) {
  // Gen2-style Select: match the node id against pattern on the masked
  // bits; mask 0 re-selects every node. Select never elicits a reply.
  selected_ = (config_.node_id & s.mask) == (s.pattern & s.mask);
  state_ = McuState::kStandby;  // aborts any round in progress
  return std::nullopt;
}

std::optional<UplinkFrame> Firmware::on_query(const phy::QueryCommand& q) {
  // De-selected nodes sit the round out entirely.
  if (!selected_) {
    state_ = McuState::kStandby;
    return std::nullopt;
  }
  // New inventory round: draw a random slot in [0, 2^q).
  const int slots = 1 << q.q;
  slot_ = static_cast<int>(rng_.index(static_cast<std::uint64_t>(slots)));
  if (slot_ == 0) {
    rn16_ = fresh_rn16();
    state_ = McuState::kReplied;
    return make_frame(phy::Rn16Response{rn16_});
  }
  state_ = McuState::kArbitrate;
  return std::nullopt;
}

std::optional<UplinkFrame> Firmware::on_query_rep() {
  if (state_ != McuState::kArbitrate) return std::nullopt;
  if (--slot_ <= 0) {
    rn16_ = fresh_rn16();
    state_ = McuState::kReplied;
    return make_frame(phy::Rn16Response{rn16_});
  }
  return std::nullopt;
}

std::optional<UplinkFrame> Firmware::on_ack(const phy::AckCommand& a) {
  // kAcked also answers: a reader that lost the id reply re-Acks the same
  // RN16 (the retry path), and the node must not fall silent.
  if ((state_ != McuState::kReplied && state_ != McuState::kAcked) ||
      a.rn16 != rn16_) {
    return std::nullopt;
  }
  state_ = McuState::kAcked;
  // Reply with the capsule id (the Gen2 EPC analog).
  return make_frame(phy::Response{phy::IdResponse{config_.node_id}});
}

std::optional<UplinkFrame> Firmware::on_read(const phy::ReadCommand& r,
                                             const ConcreteEnvironment& env) {
  if (state_ != McuState::kAcked || r.rn16 != rn16_) return std::nullopt;
  for (const auto& s : sensors_) {
    if (static_cast<std::uint8_t>(s->id()) == r.sensor_id) {
      const double v = s->sample(env, rng_);
      phy::DataResponse d;
      d.sensor_id = r.sensor_id;
      d.milli_value = phy::to_milli(v);
      return make_frame(phy::Response{d});
    }
  }
  return std::nullopt;  // unknown sensor: stay silent
}

std::optional<UplinkFrame> Firmware::on_set_blf(const phy::SetBlfCommand& s) {
  if (state_ != McuState::kAcked || s.rn16 != rn16_) return std::nullopt;
  config_.blf = static_cast<double>(s.blf_centihz) * 100.0;
  return std::nullopt;
}

UplinkFrame Firmware::make_frame(const phy::Response& resp) const {
  UplinkFrame f;
  f.payload = phy::encode_response(resp);
  f.bitrate = config_.uplink.bitrate;
  f.blf = config_.blf;
  return f;
}

template <class Self, class Ar>
void Firmware::io(Self& self, Ar& ar) {
  ar.expect("fw.node_id", self.config_.node_id);
  ar.field("fw.rng", self.rng_);
  ar.field("fw.state", self.state_, McuState::kOff, McuState::kAcked);
  ar.field("fw.rn16", self.rn16_);
  ar.field("fw.slot", self.slot_);
  ar.field("fw.selected", self.selected_);
  ar.field("fw.blf", self.config_.blf);
  ar.field("fw.bitrate", self.config_.uplink.bitrate);
}

void Firmware::save(dsp::ser::Writer& w) const { io(*this, w); }
void Firmware::load(dsp::ser::Reader& r) { io(*this, r); }

}  // namespace ecocap::node
