#pragma once

#include <memory>
#include <vector>

#include "core/link_simulator.hpp"
#include "core/thread_pool.hpp"

namespace ecocap::core {

/// Waveform-level multi-node interrogation: several capsules share one
/// structure; every downlink is a broadcast, and every slot's backscatter
/// is the *sum* of the responding nodes' emissions at the reader — so
/// collisions, capture effects and per-node path loss all happen in the
/// signal domain rather than by protocol-level fiat. This is the
/// full-stack version of §3.4's TDMA argument.
class MultiNodeLink {
 public:
  struct NodePlacement {
    std::uint16_t node_id = 0;
    Real distance = 0.5;  // m from the reader
    node::ConcreteEnvironment environment;
  };

  struct Config {
    reader::TransmitterConfig transmitter;
    reader::ReceiverConfig receiver;
    node::CapsuleConfig capsule;   // template; node_id overridden per node
    channel::Structure structure;
    channel::ChannelConfig channel;  // distance overridden per node
    std::uint8_t q = 1;              // slots per Query round
    int max_rounds = 6;
    std::uint64_t seed = 1;
  };

  explicit MultiNodeLink(Config config);

  /// Cast a capsule into the structure.
  void deploy(const NodePlacement& placement);

  /// Result of a full waveform-level inventory.
  struct Result {
    std::vector<std::uint16_t> inventoried_ids;
    int slots = 0;
    int collisions = 0;   // slots where >1 node answered
    int empty_slots = 0;
    int decode_failures = 0;  // singleton slots the receiver still lost
    /// Collided slots whose superposed waveform still produced a "valid"
    /// RN16 decode at the receiver. These are classified as collision
    /// losses (the arbitration retries), not successes.
    int collision_false_decodes = 0;
  };

  /// Charge every node, then run Query/QueryRep/Ack rounds entirely at the
  /// waveform level until every powered node is identified (or rounds run
  /// out).
  Result run_inventory();

 private:
  struct Deployed {
    NodePlacement placement;
    std::unique_ptr<node::EcoCapsule> capsule;
    std::unique_ptr<channel::ConcreteChannel> channel;
    /// Per-node channel-noise stream, counter-derived from the session seed
    /// and the deployment index so the per-node legs of a TDMA round can run
    /// on any worker and still reproduce bit-identically.
    std::unique_ptr<dsp::Rng> noise_rng;
    bool identified = false;
  };

  /// Broadcast a command; collect each node's scheduled reply frame.
  std::vector<std::pair<Deployed*, node::UplinkFrame>> broadcast(
      const phy::Command& cmd);

  /// Sum the responders' backscatter at the reader and try to decode
  /// `reply_bits`.
  reader::UplinkDecode receive_slot(
      const std::vector<std::pair<Deployed*, node::UplinkFrame>>& responders,
      std::size_t reply_bits);

  Config config_;
  /// Immutable snapshot of the structure shared by every deployed node's
  /// channel (instead of one copy per node).
  std::shared_ptr<const channel::Structure> structure_;
  reader::Transmitter transmitter_;
  reader::Receiver receiver_;
  std::vector<Deployed> nodes_;
};

}  // namespace ecocap::core
