#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "channel/snr_models.hpp"
#include "dsp/serialize.hpp"
#include "dsp/types.hpp"

namespace ecocap::reader {

using dsp::Real;

class Receiver;
struct InventoryStats;

/// One rung of the bitrate/BLF fallback ladder, ordered fastest first.
///
/// `snr_delta_db` is the decision-domain SNR gain of running this rung
/// instead of rung 0: slowing the bitrate buys energy per bit
/// (10 log10(b0/b) — the ML decoder integrates longer per symbol) plus
/// whatever fraction of the backscatter spectrum moves back inside the
/// mechanical channel's passband (the Fig. 16 knee). Rung 0 always has
/// delta 0 by construction.
struct LadderStep {
  Real bitrate = 4000.0;   // b/s
  Real blf = 4000.0;       // backscatter link frequency, Hz
  Real snr_delta_db = 0.0; // gain over rung 0 at the decoder's decision point
};

/// Aggregate supervisor activity over a campaign (sum over nodes).
struct SupervisorTotals {
  int fallbacks = 0;            // ladder steps down
  int probes = 0;               // ladder steps up attempted
  int failed_probes = 0;        // probes immediately revoked by a miss
  int quarantines = 0;          // quarantine entries
  int reintegrations = 0;       // quarantine exits (successful probe)
  int reintegration_probes = 0; // quarantine probes attempted
  int skipped_polls = 0;        // node-polls suppressed while quarantined
};

/// Per-node adaptive link state (public so campaigns can snapshot it).
struct NodeLinkState {
  int ladder_index = 0;        // current rung (0 = fastest)
  Real ewma_success = 1.0;     // EWMA of per-poll delivery
  Real ewma_snr_db = 0.0;      // EWMA of decode SNR (valid once has_snr)
  bool has_snr = false;
  int consecutive_ok = 0;      // delivery streak (drives upward probes)
  int consecutive_miss = 0;    // miss streak at the ladder floor
  bool probing = false;        // last action was an upward probe
  int probe_streak_needed = 0; // successes required before the next probe
  bool quarantined = false;
  int quarantine_wait = 0;     // polls to sit out before the next probe
  int reintegration_backoff = 0;  // current probe interval (polls)
  // Lifetime counters (mirrors SupervisorTotals, per node).
  int fallbacks = 0;
  int probes = 0;
  int failed_probes = 0;
  int quarantines = 0;
  int reintegrations = 0;
  int reintegration_probes = 0;
  int skipped_polls = 0;
};

/// Configuration of the adaptive link supervisor. Disabled by default so
/// every existing harness keeps its exact draw sequence; `validate()` is
/// called by LinkSupervisor's constructor and rejects degenerate settings
/// (empty ladder, non-monotonic bitrates, zero/negative timing) with
/// std::invalid_argument naming the field.
struct SupervisorConfig {
  bool enabled = false;

  /// Fallback ladder, fastest rung first, bitrates strictly decreasing.
  std::vector<LadderStep> ladder = default_ladder();

  /// EWMA weight of the newest per-poll outcome (0 < alpha <= 1).
  Real ewma_alpha = 0.5;
  /// Step one rung down when the delivery EWMA falls below this...
  Real degrade_below = 0.5;
  /// ...and only probe back up while it sits above this.
  Real recover_above = 0.9;
  /// Decode-SNR floor: a delivered-but-marginal link (EWMA of decode SNR
  /// below this) also steps down, before losses even start.
  Real degrade_snr_db = 3.0;

  /// Delivery streak required before probing one rung up. Each failed
  /// probe doubles the requirement for that node (capped) so a node near
  /// its rate ceiling stops oscillating.
  int probe_after = 8;
  int probe_after_max = 64;

  /// Consecutive missed polls at the ladder floor before quarantine.
  int quarantine_after = 3;
  /// Reintegration probe cadence while quarantined: first probe after
  /// `reintegration_base_polls` skipped polls, doubling per failed probe up
  /// to `reintegration_max_polls`.
  int reintegration_base_polls = 2;
  int reintegration_max_polls = 32;

  /// Per-polling-round watchdog: total slot budget (arbitration + backoff
  /// idle slots) the inventory engine may spend in one round before the
  /// round is cut short (0 = unlimited). Keeps one dead node from stalling
  /// a whole round's deadline.
  int round_slot_budget = 96;

  /// Throws std::invalid_argument on the first bad field.
  void validate() const;

  /// Three-rung ladder below the Fig. 16 knee: 4 -> 2 -> 1 kb/s at the
  /// default 4 kHz BLF, deltas from the energy-per-bit term alone.
  static std::vector<LadderStep> default_ladder();

  /// Build a ladder from explicit bitrates (fastest first) with
  /// `snr_delta_db` derived from `model` (paper Fig. 16): in-band capture
  /// difference plus the 10 log10(b0/b) energy-per-bit gain.
  static std::vector<LadderStep> fig16_ladder(
      const channel::UplinkSnrModel& model, const std::vector<Real>& bitrates,
      Real blf = 4000.0);
};

/// Adaptive link supervision above the inventory engine (paper §3.4 pilot:
/// months on a real footbridge, where link quality drifts with weather,
/// loading, and concrete aging). Maintains a per-node link-quality estimate
/// (EWMA of delivery and decode SNR), walks the bitrate/BLF fallback ladder
/// down under degradation and probes back up after sustained success, and
/// quarantines persistently failing nodes with exponentially backed-off
/// reintegration probes so they stop burning the round's slot budget.
///
/// Fully deterministic: transitions depend only on the observation sequence
/// (no RNG), so supervised campaigns stay bit-identical across thread
/// counts, and `save`/`load` round-trips the whole state for crash-safe
/// campaign checkpoints.
class LinkSupervisor {
 public:
  /// Validates `config` (throws std::invalid_argument).
  explicit LinkSupervisor(SupervisorConfig config);

  const SupervisorConfig& config() const { return config_; }

  /// Register a node (idempotent); new nodes start on rung 0, healthy.
  void track(std::uint16_t node_id);

  /// Gate a node's participation in the coming poll. Healthy nodes are
  /// always admitted. Quarantined nodes sit out `quarantine_wait` polls
  /// (counted as skipped) and are then admitted once as a reintegration
  /// probe. Call exactly once per node per poll.
  bool admit(std::uint16_t node_id);

  /// Current rung for a node.
  const LadderStep& step_for(std::uint16_t node_id) const;

  /// Decision-SNR adjustment of the node's current rung over rung 0 (dB);
  /// what a protocol-level engine adds to its modelled link SNR.
  Real snr_delta_db(std::uint16_t node_id) const;

  /// Retune a waveform-level receiver to the node's current rung.
  void apply(Receiver& rx, std::uint16_t node_id) const;

  /// Report one poll's outcome for an admitted node: whether its readings
  /// were delivered and (when delivered) the decode SNR observed.
  void observe(std::uint16_t node_id, bool delivered, Real snr_db);

  /// Fold a round's InventoryStats into the session-level exchange-success
  /// EWMA (timeouts + CRC fails vs completed exchanges).
  void observe_round(const InventoryStats& stats);

  /// Session-level exchange success EWMA in [0, 1] (1 until observed).
  Real round_quality() const { return round_quality_; }

  const NodeLinkState& state(std::uint16_t node_id) const;
  const std::map<std::uint16_t, NodeLinkState>& states() const {
    return states_;
  }
  SupervisorTotals totals() const;

  /// Checkpoint the full supervisor state (every tracked node).
  void save(dsp::ser::Writer& w) const;
  /// Restore; the tracked-node set is rebuilt from the checkpoint.
  void load(dsp::ser::Reader& r);

 private:
  template <class Self, class Ar> static void io(Self& self, Ar& ar);
  NodeLinkState& mutable_state(std::uint16_t node_id);

  SupervisorConfig config_;
  std::map<std::uint16_t, NodeLinkState> states_;
  Real round_quality_ = 1.0;
};

}  // namespace ecocap::reader
