#include "reader/link_supervisor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "reader/inventory.hpp"
#include "reader/receiver.hpp"

namespace ecocap::reader {

namespace {

[[noreturn]] void bad_field(const std::string& what) {
  throw std::invalid_argument("SupervisorConfig: " + what);
}

}  // namespace

void SupervisorConfig::validate() const {
  if (ladder.empty()) bad_field("ladder must not be empty");
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    if (ladder[i].bitrate <= 0.0) bad_field("ladder bitrate must be > 0");
    if (ladder[i].blf <= 0.0) bad_field("ladder blf must be > 0");
    if (i > 0 && ladder[i].bitrate >= ladder[i - 1].bitrate) {
      bad_field("ladder bitrates must be strictly decreasing");
    }
  }
  if (ladder.front().snr_delta_db != 0.0) {
    bad_field("ladder rung 0 must have snr_delta_db == 0");
  }
  if (!(ewma_alpha > 0.0) || ewma_alpha > 1.0) {
    bad_field("ewma_alpha must be in (0, 1]");
  }
  if (degrade_below < 0.0 || degrade_below >= 1.0) {
    bad_field("degrade_below must be in [0, 1)");
  }
  if (recover_above <= 0.0 || recover_above > 1.0) {
    bad_field("recover_above must be in (0, 1]");
  }
  if (degrade_below >= recover_above) {
    bad_field("degrade_below must be < recover_above");
  }
  if (probe_after < 1) bad_field("probe_after must be >= 1");
  if (probe_after_max < probe_after) {
    bad_field("probe_after_max must be >= probe_after");
  }
  if (quarantine_after < 1) bad_field("quarantine_after must be >= 1");
  if (reintegration_base_polls < 1) {
    bad_field("reintegration_base_polls must be >= 1");
  }
  if (reintegration_max_polls < reintegration_base_polls) {
    bad_field("reintegration_max_polls must be >= reintegration_base_polls");
  }
  if (round_slot_budget < 0) bad_field("round_slot_budget must be >= 0");
}

std::vector<LadderStep> SupervisorConfig::default_ladder() {
  // Below the Fig. 16 knee the passband capture is flat, so the gain per
  // halving is the pure 3 dB energy-per-bit term.
  return {LadderStep{4000.0, 4000.0, 0.0}, LadderStep{2000.0, 4000.0, 3.01},
          LadderStep{1000.0, 4000.0, 6.02}};
}

std::vector<LadderStep> SupervisorConfig::fig16_ladder(
    const channel::UplinkSnrModel& model, const std::vector<Real>& bitrates,
    Real blf) {
  if (bitrates.empty()) bad_field("fig16_ladder needs at least one bitrate");
  std::vector<LadderStep> ladder;
  ladder.reserve(bitrates.size());
  const Real b0 = bitrates.front();
  const Real band0 = model.snr_db(b0);
  for (Real b : bitrates) {
    LadderStep step;
    step.bitrate = b;
    step.blf = blf;
    step.snr_delta_db =
        b == b0 ? 0.0
                : 10.0 * std::log10(b0 / b) + (model.snr_db(b) - band0);
    ladder.push_back(step);
  }
  return ladder;
}

LinkSupervisor::LinkSupervisor(SupervisorConfig config)
    : config_(std::move(config)) {
  config_.validate();
}

void LinkSupervisor::track(std::uint16_t node_id) {
  auto [it, inserted] = states_.try_emplace(node_id);
  if (inserted) {
    it->second.probe_streak_needed = config_.probe_after;
  }
}

NodeLinkState& LinkSupervisor::mutable_state(std::uint16_t node_id) {
  track(node_id);
  return states_.find(node_id)->second;
}

const NodeLinkState& LinkSupervisor::state(std::uint16_t node_id) const {
  const auto it = states_.find(node_id);
  if (it == states_.end()) {
    throw std::out_of_range("LinkSupervisor: unknown node");
  }
  return it->second;
}

bool LinkSupervisor::admit(std::uint16_t node_id) {
  NodeLinkState& s = mutable_state(node_id);
  if (!s.quarantined) return true;
  if (s.quarantine_wait > 0) {
    --s.quarantine_wait;
    ++s.skipped_polls;
    return false;
  }
  ++s.reintegration_probes;
  return true;  // one probe poll; observe() decides what happens next
}

const LadderStep& LinkSupervisor::step_for(std::uint16_t node_id) const {
  const NodeLinkState& s = state(node_id);
  return config_.ladder[static_cast<std::size_t>(s.ladder_index)];
}

Real LinkSupervisor::snr_delta_db(std::uint16_t node_id) const {
  return step_for(node_id).snr_delta_db;
}

void LinkSupervisor::apply(Receiver& rx, std::uint16_t node_id) const {
  const LadderStep& step = step_for(node_id);
  rx.set_bitrate(step.bitrate);
  rx.set_blf(step.blf);
}

void LinkSupervisor::observe(std::uint16_t node_id, bool delivered,
                             Real snr_db) {
  NodeLinkState& s = mutable_state(node_id);
  const int floor = static_cast<int>(config_.ladder.size()) - 1;

  if (s.quarantined) {
    // This observation resolves a reintegration probe.
    if (delivered) {
      s.quarantined = false;
      s.reintegration_backoff = 0;
      s.quarantine_wait = 0;
      s.consecutive_ok = 1;
      s.consecutive_miss = 0;
      s.ewma_success = 1.0;  // fresh start: one success, judged from here
      ++s.reintegrations;
    } else {
      s.reintegration_backoff = std::min(s.reintegration_backoff * 2,
                                         config_.reintegration_max_polls);
      s.quarantine_wait = s.reintegration_backoff;
    }
    return;
  }

  s.ewma_success = (1.0 - config_.ewma_alpha) * s.ewma_success +
                   config_.ewma_alpha * (delivered ? 1.0 : 0.0);
  if (delivered && std::isfinite(snr_db)) {
    s.ewma_snr_db = s.has_snr ? (1.0 - config_.ewma_alpha) * s.ewma_snr_db +
                                    config_.ewma_alpha * snr_db
                              : snr_db;
    s.has_snr = true;
  }

  if (delivered) {
    ++s.consecutive_ok;
    s.consecutive_miss = 0;
    s.probing = false;  // probe confirmed: the faster rung holds

    // A delivered-but-marginal link degrades preemptively.
    if (s.has_snr && s.ewma_snr_db < config_.degrade_snr_db &&
        s.ladder_index < floor) {
      ++s.ladder_index;
      ++s.fallbacks;
      s.consecutive_ok = 0;
      s.has_snr = false;  // SNR statistics restart at the new rung
      return;
    }

    // Sustained success on a healthy link: probe one rung up.
    if (s.ladder_index > 0 && s.ewma_success >= config_.recover_above &&
        s.consecutive_ok >= s.probe_streak_needed) {
      --s.ladder_index;
      ++s.probes;
      s.probing = true;
      s.consecutive_ok = 0;
      s.has_snr = false;
    }
    return;
  }

  // Missed poll.
  ++s.consecutive_miss;
  s.consecutive_ok = 0;
  if (s.probing) {
    // The upward probe failed: revoke it immediately and back the probe
    // cadence off so the node stops oscillating at its rate ceiling.
    s.probing = false;
    ++s.ladder_index;
    ++s.failed_probes;
    s.probe_streak_needed =
        std::min(s.probe_streak_needed * 2, config_.probe_after_max);
    return;
  }
  if (s.ewma_success < config_.degrade_below && s.ladder_index < floor) {
    ++s.ladder_index;
    ++s.fallbacks;
    s.has_snr = false;
    return;
  }
  if (s.ladder_index >= floor &&
      s.consecutive_miss >= config_.quarantine_after) {
    s.quarantined = true;
    s.reintegration_backoff = config_.reintegration_base_polls;
    s.quarantine_wait = s.reintegration_backoff;
    s.consecutive_miss = 0;
    ++s.quarantines;
  }
}

void LinkSupervisor::observe_round(const InventoryStats& stats) {
  const int fails = stats.timeouts + stats.crc_fails;
  const int oks = stats.acked * 2 + stats.read_ok;
  const int total = fails + oks;
  if (total <= 0) return;
  const Real success = static_cast<Real>(oks) / static_cast<Real>(total);
  round_quality_ = (1.0 - config_.ewma_alpha) * round_quality_ +
                   config_.ewma_alpha * success;
}

SupervisorTotals LinkSupervisor::totals() const {
  SupervisorTotals t;
  for (const auto& [id, s] : states_) {
    (void)id;
    t.fallbacks += s.fallbacks;
    t.probes += s.probes;
    t.failed_probes += s.failed_probes;
    t.quarantines += s.quarantines;
    t.reintegrations += s.reintegrations;
    t.reintegration_probes += s.reintegration_probes;
    t.skipped_polls += s.skipped_polls;
  }
  return t;
}

template <class Self, class Ar>
void LinkSupervisor::io(Self& self, Ar& ar) {
  const int top_rung = static_cast<int>(self.config_.ladder.size()) - 1;
  ar.field("sup.round_quality", self.round_quality_);
  ar.seq("sup.nodes", self.states_, [&](auto& entry) {
    auto& s = entry.second;
    ar.field("sup.node", entry.first);
    ar.field("sup.ladder_index", s.ladder_index, 0, top_rung);
    ar.field("sup.ewma_success", s.ewma_success);
    ar.field("sup.ewma_snr_db", s.ewma_snr_db);
    ar.field("sup.has_snr", s.has_snr);
    ar.field("sup.consecutive_ok", s.consecutive_ok);
    ar.field("sup.consecutive_miss", s.consecutive_miss);
    ar.field("sup.probing", s.probing);
    ar.field("sup.probe_streak_needed", s.probe_streak_needed);
    ar.field("sup.quarantined", s.quarantined);
    ar.field("sup.quarantine_wait", s.quarantine_wait);
    ar.field("sup.reintegration_backoff", s.reintegration_backoff);
    ar.field("sup.fallbacks", s.fallbacks);
    ar.field("sup.probes", s.probes);
    ar.field("sup.failed_probes", s.failed_probes);
    ar.field("sup.quarantines", s.quarantines);
    ar.field("sup.reintegrations", s.reintegrations);
    ar.field("sup.reintegration_probes", s.reintegration_probes);
    ar.field("sup.skipped_polls", s.skipped_polls);
  });
}

void LinkSupervisor::save(dsp::ser::Writer& w) const { io(*this, w); }
void LinkSupervisor::load(dsp::ser::Reader& r) { io(*this, r); }

}  // namespace ecocap::reader
