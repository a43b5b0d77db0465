#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fleet/telemetry_store.hpp"
#include "node/firmware.hpp"
#include "node/sensors.hpp"
#include "reader/link_supervisor.hpp"
#include "stream/stream_pipeline.hpp"

namespace ecocap::reader {

/// A fault plan that goes live at a simulated instant — the "pour water on
/// the wall mid-run" knob of the streaming daemon.
struct StreamFaultEvent {
  dsp::Real at_s = 0.0;
  fault::FaultPlan plan;
};

struct StreamingReaderConfig {
  stream::StreamConfig stream;
  /// Polling cadence of the interrogation loop, seconds of stream time.
  dsp::Real poll_interval_s = 0.25;
  /// Charge-only lead-in before the first poll (the node cold-starts from
  /// the CBW). Excluded from the real-time-factor measurement.
  dsp::Real warmup_s = 0.5;
  node::SensorId sensor = node::SensorId::kTemperature;
  SupervisorConfig supervisor;
  fleet::TelemetryStore::Config telemetry;
  /// Applied in order at the first poll boundary at or after `at_s`.
  std::vector<StreamFaultEvent> fault_events;
  /// When set, readings go to `shared_store` node `store_node` instead of
  /// the reader's own store — the fleet-runtime mode, where one
  /// `TelemetryStore` serves N daemons (one node each, single writer per
  /// node). The store must outlive the reader.
  fleet::TelemetryStore* shared_store = nullptr;
  std::size_t store_node = 0;
};

/// Aggregate outcome of a daemon run. Counters are *cumulative* across run
/// calls (and across checkpoint/resume — they are part of the checkpoint),
/// so a supervisor restarting a daemon mid-campaign reads totals identical
/// to an uninterrupted run. The wall-clock fields (wall_seconds,
/// real_time_factor) restart with the process.
struct StreamingReaderStats {
  std::uint64_t polls = 0;
  std::uint64_t delivered = 0;  // full Query -> Ack -> Read rounds ingested
  std::uint64_t missed = 0;
  std::uint64_t skipped = 0;    // polls the supervisor suppressed
  std::uint64_t frames_scheduled = 0;
  std::uint64_t frames_dropped_unpowered = 0;
  std::uint64_t brownouts = 0;
  std::uint64_t fault_events_applied = 0;
  /// Telemetry events lost to ring overflow under the drop-oldest /
  /// drop-newest backpressure policies — one count per evicted or
  /// discarded event, mirrored here from the runtime supervisor, which
  /// owns the count (see set_events_dropped).
  std::uint64_t events_dropped = 0;
  SupervisorTotals supervisor;
  dsp::Real sim_seconds = 0.0;
  dsp::Real wall_seconds = 0.0;
  /// Simulated seconds per wall second over the measured (post-warmup)
  /// run — the streaming headline metric; >= 1 means the daemon keeps up
  /// with a live ADC at fs.
  dsp::Real real_time_factor = 0.0;
};

/// Long-running streaming interrogation daemon: drives the StreamPipeline
/// continuously, runs the Gen2-style Query -> Ack -> Read exchange against
/// the node firmware every poll, reassembles and decodes the uplink frames
/// from the live at-reader stream, feeds delivered readings into a
/// `fleet::TelemetryStore`, and lets the `LinkSupervisor` react online
/// while `fault::Injector` plans perturb the stream mid-run.
///
/// Scope note: the data plane — carrier, backscatter reflection, channel,
/// capture, decode — is fully waveform-streaming; the command downlinks
/// ride the protocol-level `Firmware::handle_command` path (the same one
/// the SNR-model inventory engine uses). Each uplink leg is decoded from
/// the reassembled stream exactly as the batch LinkSimulator decodes its
/// captured buffer.
class StreamingReader {
 public:
  explicit StreamingReader(StreamingReaderConfig config);

  /// Run `sim_seconds` of stream time past the warmup and return the
  /// (cumulative) stats. Callable repeatedly; state (node charge,
  /// supervisor, telemetry) carries across calls and the warmup only runs
  /// once. Flushes the open telemetry buckets at the end — the standalone
  /// campaign-style entry point.
  StreamingReaderStats run(dsp::Real sim_seconds);

  /// Run exactly `polls` interrogation polls (the supervisor's quantum:
  /// heartbeats and checkpoints land on poll boundaries). Does NOT flush
  /// telemetry buckets — bucket closure must not depend on where restarts
  /// chop the run, or recovery would not be byte-identical. Call
  /// `flush_telemetry()` once at campaign end instead.
  StreamingReaderStats run_polls(std::uint64_t polls);

  /// Close the open minute/hour buckets of this reader's telemetry node.
  void flush_telemetry();

  /// Serialize the daemon's complete resumable state at a poll boundary:
  /// pipeline carried state (stages, injectors, live plan, position),
  /// firmware, link supervisor, cumulative stats, fault-event cursor, and
  /// the telemetry node's full contents. Bit-exact: a reader resumed from
  /// this payload replays the remaining polls byte-identically to one that
  /// never stopped.
  std::string checkpoint() const;

  /// Restore from a `checkpoint()` payload. The reader must be freshly
  /// constructed with the *same* config (seed, node id, rates are
  /// fingerprint-checked; throws std::runtime_error on mismatch or a
  /// corrupt payload).
  void resume(const std::string& payload);

  /// Called after every poll with the poll index and whether the reading
  /// was delivered (example/demo hook).
  using PollHook = std::function<void(std::uint64_t poll, bool delivered)>;
  void set_poll_hook(PollHook hook) { hook_ = std::move(hook); }

  /// Cumulative stats so far (same snapshot run/run_polls return).
  StreamingReaderStats stats() const;

  /// Mirror the supervisor's telemetry-ring drop count into the cumulative
  /// (checkpointed) stats. The supervisor owns the count: it sets it after
  /// every drop and after every restart, so a checkpoint rewind cannot
  /// split the two.
  void set_events_dropped(std::uint64_t n) { stats_.events_dropped = n; }

  /// The store readings land in: the shared fleet store when configured,
  /// otherwise the reader's own.
  fleet::TelemetryStore& telemetry() {
    return config_.shared_store ? *config_.shared_store : telemetry_;
  }
  /// The node index this reader writes within `telemetry()`.
  std::size_t store_node() const {
    return config_.shared_store ? config_.store_node : 0;
  }
  std::uint64_t polls_done() const { return poll_index_; }
  LinkSupervisor& supervisor() { return supervisor_; }
  stream::StreamPipeline& pipeline() { return pipeline_; }
  const StreamingReaderConfig& config() const { return config_; }

 private:
  /// One command -> uplink-frame exchange: schedule the emission and its
  /// capture window, advance the stream past the window, decode. Returns
  /// the decoded payload bits when valid.
  std::optional<phy::Bits> exchange(const phy::Command& cmd,
                                    dsp::Real* snr_db);
  void apply_due_faults();
  void absorb_node_events();
  /// Warmup + supervisor tracking, once per process lifetime.
  void ensure_started();
  /// One interrogation poll ending at absolute sample `poll_end`.
  void poll_once(std::uint64_t poll_end);
  template <class Self, class Ar> static void io(Self& self, Ar& ar);

  StreamingReaderConfig config_;
  stream::StreamPipeline pipeline_;
  node::Firmware firmware_;
  LinkSupervisor supervisor_;
  fleet::TelemetryStore telemetry_;
  node::ConcreteEnvironment environment_;
  PollHook hook_;
  StreamingReaderStats stats_;
  std::size_t next_fault_ = 0;
  std::uint64_t poll_index_ = 0;
  bool warmed_up_ = false;
};

}  // namespace ecocap::reader
