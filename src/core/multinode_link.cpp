#include "core/multinode_link.hpp"

#include <algorithm>
#include <utility>

#include "core/workspace_pool.hpp"
#include "dsp/signal_ops.hpp"

namespace ecocap::core {

MultiNodeLink::MultiNodeLink(Config config)
    : config_(std::move(config)),
      structure_(std::make_shared<const channel::Structure>(config_.structure)),
      transmitter_(config_.transmitter),
      receiver_(config_.receiver) {}

void MultiNodeLink::deploy(const NodePlacement& placement) {
  Deployed d;
  d.placement = placement;
  node::CapsuleConfig cc = config_.capsule;
  cc.firmware.node_id = placement.node_id;
  d.capsule = std::make_unique<node::EcoCapsule>(
      cc, config_.channel.fs, config_.seed ^ placement.node_id);
  auto ch = std::make_shared<channel::ChannelConfig>(config_.channel);
  ch->distance = placement.distance;
  d.channel =
      std::make_unique<channel::ConcreteChannel>(structure_, std::move(ch));
  d.noise_rng = std::make_unique<dsp::Rng>(
      dsp::trial_seed(config_.seed, nodes_.size()));
  nodes_.push_back(std::move(d));
}

std::vector<std::pair<MultiNodeLink::Deployed*, node::UplinkFrame>>
MultiNodeLink::broadcast(const phy::Command& cmd) {
  // The command waveform is one broadcast: generate it once, then run each
  // node's downlink + capsule leg on the pool. Per-node state (channel,
  // capsule, noise stream) is private to its slot, so the fan-out is
  // lock-free and bit-identical at any thread count; responders are
  // assembled in deployment order afterwards.
  dsp::Workspace& ws = WorkspacePool::shared().local();
  auto tx = ws.real(0);
  transmitter_.transmit_command(cmd, ws, *tx);
  const Real volts_scale = channel::node_volts_scale(
      config_.structure, config_.transmitter.tx_voltage);
  std::vector<std::vector<node::UplinkFrame>> frames(nodes_.size());
  ThreadPool::shared().parallel_for(nodes_.size(), [&](std::size_t i) {
    Deployed& n = nodes_[i];
    // Each worker leases from its own thread-local workspace; the broadcast
    // waveform lease above stays valid (and read-only) for the fan-out.
    dsp::Workspace& wws = WorkspacePool::shared().local();
    auto at_node = wws.real(0);
    n.channel->downlink(*tx, *n.noise_rng, *at_node);
    dsp::scale(*at_node, volts_scale);
    const auto rx = n.capsule->receive(*at_node, n.placement.environment);
    if (rx.powered) frames[i] = rx.frames;
  });

  std::vector<std::pair<Deployed*, node::UplinkFrame>> responders;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (const auto& frame : frames[i]) {
      responders.emplace_back(&nodes_[i], frame);
    }
  }
  return responders;
}

reader::UplinkDecode MultiNodeLink::receive_slot(
    const std::vector<std::pair<Deployed*, node::UplinkFrame>>& responders,
    std::size_t reply_bits) {
  reader::UplinkDecode none;
  if (responders.empty()) return none;

  const Real volts_scale = channel::node_volts_scale(
      config_.structure, config_.transmitter.tx_voltage);
  // The slot's CBW must cover the longest frame.
  Real frame_time = 0.0;
  for (const auto& [n, frame] : responders) {
    frame_time = std::max(
        frame_time,
        phy::fm0_frame_seconds(frame.payload.size(),
                               config_.capsule.firmware.uplink, frame.bitrate));
  }
  dsp::Workspace& ws = WorkspacePool::shared().local();
  auto cw = ws.real(0);
  transmitter_.continuous_wave(frame_time, *cw);

  // Each responder's backscatter leg is independent; compute the per-node
  // contributions in parallel, then superpose them in responder order so
  // the floating-point sum is reproducible. The contributions cross thread
  // boundaries, so they stay plain Signals rather than workspace leases.
  std::vector<dsp::Signal> contributions(responders.size());
  ThreadPool::shared().parallel_for(responders.size(), [&](std::size_t i) {
    Deployed* n = responders[i].first;
    const node::UplinkFrame& frame = responders[i].second;
    dsp::Workspace& wws = WorkspacePool::shared().local();
    auto carrier_at_node = wws.real(0);
    auto emission = wws.real(0);
    n->channel->downlink(*cw, *n->noise_rng, *carrier_at_node);
    dsp::scale(*carrier_at_node, volts_scale);
    n->capsule->backscatter(frame, *carrier_at_node, wws, *emission);
    n->channel->uplink(*emission, config_.transmitter.carrier.f_resonant,
                       *n->noise_rng, contributions[i]);
  });

  // Superpose over the longest contribution. Truncating to the first
  // frame's length (the old behavior) silently dropped the tail of any
  // longer colliding frame, which left the shorter frame nearly clean —
  // the reader would then "decode" a collided slot as a success.
  std::size_t longest = 0;
  for (const dsp::Signal& c : contributions) {
    longest = std::max(longest, c.size());
  }
  dsp::Signal at_reader(longest, 0.0);
  Real blf = config_.capsule.firmware.blf;
  Real bitrate = config_.capsule.firmware.uplink.bitrate;
  for (std::size_t i = 0; i < responders.size(); ++i) {
    const dsp::Signal& contribution = contributions[i];
    for (std::size_t j = 0; j < contribution.size(); ++j) {
      at_reader[j] += contribution[j];
    }
    blf = responders[i].second.blf;
    bitrate = responders[i].second.bitrate;
  }
  receiver_.set_blf(blf);
  receiver_.set_bitrate(bitrate);
  return receiver_.decode(at_reader, reply_bits, ws);
}

MultiNodeLink::Result MultiNodeLink::run_inventory() {
  Result result;

  // 1. Charge everyone with CBW until powered (or clearly unreachable).
  // The charge blocks are one broadcast stream (generated once, stateful
  // PZT and all); each node consumes them independently on the pool.
  const Real volts_scale = channel::node_volts_scale(
      config_.structure, config_.transmitter.tx_voltage);
  std::vector<dsp::Signal> charge_blocks;
  charge_blocks.reserve(25);
  for (int i = 0; i < 25; ++i) {
    dsp::Signal cw;
    transmitter_.continuous_wave(0.020, cw);
    charge_blocks.push_back(std::move(cw));
  }
  ThreadPool::shared().parallel_for(nodes_.size(), [&](std::size_t idx) {
    Deployed& n = nodes_[idx];
    dsp::Workspace& wws = WorkspacePool::shared().local();
    auto at_node = wws.real(0);
    for (const dsp::Signal& cw : charge_blocks) {
      if (n.capsule->harvester().mcu_powered()) break;
      n.channel->downlink(cw, *n.noise_rng, *at_node);
      dsp::scale(*at_node, volts_scale);
      n.capsule->receive(*at_node, n.placement.environment);
    }
  });

  // 2. Inventory rounds at the waveform level.
  for (int round = 0; round < config_.max_rounds; ++round) {
    const bool all_done = std::all_of(
        nodes_.begin(), nodes_.end(),
        [](const Deployed& n) { return n.identified; });
    if (all_done) break;

    auto slot_replies =
        broadcast(phy::Command{phy::QueryCommand{config_.q}});
    const int slots = 1 << config_.q;
    for (int slot = 0; slot < slots; ++slot) {
      if (slot > 0) {
        slot_replies = broadcast(phy::Command{phy::QueryRepCommand{}});
      }
      // Already-identified nodes still answer the air protocol; drop their
      // frames (the Gen2 analog is the inventoried-flag session state).
      std::erase_if(slot_replies,
                    [](const auto& p) { return p.first->identified; });
      ++result.slots;
      if (slot_replies.empty()) {
        ++result.empty_slots;
        continue;
      }
      if (slot_replies.size() > 1) {
        // A real reader cannot know a priori that the slot collided: it
        // runs its decoder on the superposition anyway. A bare RN16 carries
        // no CRC, so a garbled superposition can still produce a "valid"
        // decode — that must be scored as a collision loss, never as a
        // singleton success (the frame it resembles was not cleanly
        // received, and acking it would desync the arbitration).
        ++result.collisions;
        const auto dec = receive_slot(slot_replies, phy::rn16_response_bits());
        if (dec.valid) ++result.collision_false_decodes;
        continue;
      }

      // Singleton: decode the RN16 off the summed (single) waveform.
      const auto dec =
          receive_slot(slot_replies, phy::rn16_response_bits());
      if (!dec.valid) {
        ++result.decode_failures;
        continue;
      }
      const auto rn16 = phy::parse_rn16_response(dec.payload);
      if (!rn16) {
        ++result.decode_failures;
        continue;
      }

      // Ack -> Id, still at the waveform level.
      Deployed* node = slot_replies.front().first;
      auto ack_replies =
          broadcast(phy::Command{phy::AckCommand{rn16->rn16}});
      std::erase_if(ack_replies,
                    [](const auto& p) { return p.first->identified; });
      if (ack_replies.size() != 1) continue;  // wrong node matched
      const auto id_dec = receive_slot(ack_replies, phy::id_response_bits());
      if (!id_dec.valid) {
        ++result.decode_failures;
        continue;
      }
      const auto id = phy::parse_id_response(id_dec.payload);
      if (!id) {
        ++result.decode_failures;
        continue;
      }
      node->identified = true;
      result.inventoried_ids.push_back(id->node_id);
    }
  }
  return result;
}

}  // namespace ecocap::core
