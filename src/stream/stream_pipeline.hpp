#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/link_simulator.hpp"
#include "core/spsc_ring.hpp"
#include "core/stream_clock.hpp"
#include "stream/stream_stages.hpp"

namespace ecocap::stream {

/// Configuration of a streaming transceiver over one reader <-> node link.
/// Reuses the batch `core::SystemConfig` vocabulary so a scenario runs in
/// either mode from the same description.
struct StreamConfig {
  core::SystemConfig system;
  /// Nominal samples per block — the latency/throughput knob. Any value
  /// yields bit-identical decodes (every stage is a carried-state
  /// per-sample recurrence); smaller blocks bound latency, larger ones
  /// amortize per-block overhead.
  std::size_t block_size = 256;
  /// When true, each advance segment runs the five stages on five threads
  /// (tx on the caller) coupled by SPSC rings; decodes are bit-identical
  /// to the inline mode because the rings preserve block order and each
  /// stage's state is private to its thread.
  bool threaded = false;
  /// Reader-side self-interference amplitude. Negative (the default)
  /// derives an estimate from the link budget: the propagated RMS of a
  /// steady CW reflection at the mid backscatter gain.
  Real si_amplitude = -1.0;
};

/// The clocked tx -> channel -> node -> rx sample-streaming pipeline.
/// Owns the five stages, their carried state, and the stream clock; the
/// control plane (a daemon, a test) schedules emissions and capture
/// windows on the absolute sample timeline and then advances the stream.
///
/// Concurrency contract: `advance_to` runs the data plane (possibly on
/// worker threads); every other method is control plane and must only be
/// called while no advance is in flight.
class StreamPipeline {
 public:
  explicit StreamPipeline(StreamConfig config);

  /// Schedule a node emission and/or a reader capture window. Both must
  /// lie at or after the current position.
  void schedule_emission(ScheduledEmission e);
  void schedule_capture(CaptureWindow w);

  /// Swap the live fault plan: rebuilds the per-stage injectors (fresh
  /// draw streams salted by an epoch counter) and the node's parasitic
  /// leak load. Takes effect from the next advanced sample.
  void set_fault_plan(const fault::FaultPlan& plan);

  /// Advance the stream to the absolute sample `until`. Decodes completed
  /// during the segment are appended to `*decodes` when given, otherwise
  /// they stay queued for `take_decodes`.
  void advance_to(std::uint64_t until,
                  std::vector<DecodedUplink>* decodes = nullptr);

  std::vector<DecodedUplink> take_decodes() { return rx_.drain_decodes(); }
  std::vector<NodeFrameEvent> drain_node_events() {
    return node_.drain_events();
  }

  std::uint64_t position() const { return pos_; }
  Real fs() const { return config_.system.channel.fs; }
  Real sim_seconds() const { return clock_.sim_seconds(); }
  const core::StreamClock& clock() const { return clock_; }
  /// Re-zero the clock (e.g. when a daemon finishes warming up and starts
  /// the measured run).
  void restart_clock() { clock_.restart(); }

  bool node_powered() const { return node_.powered(); }
  Real node_cap_voltage() const { return node_.cap_voltage(); }
  /// The node-side injector: the daemon perturbs frames (bit flips, clock
  /// drift) with the same draws the batch path uses.
  fault::Injector& node_injector() { return node_.injector(); }

  Real si_amplitude() const { return si_amplitude_; }
  Real volts_scale() const { return volts_scale_; }
  const core::SystemConfig& system() const { return config_.system; }
  const StreamConfig& config() const { return config_; }

  /// Observer of the at-reader stream (see RxStage::set_tap).
  void set_rx_tap(RxStage::Tap tap) { rx_.set_tap(std::move(tap)); }

  /// Decode-workspace checkout/return balance (leak detection).
  const dsp::Workspace::Stats& rx_workspace_stats() const {
    return rx_.workspace_stats();
  }

  /// Bit-exact carried-state round trip at a quiescent point: no advance
  /// in flight, no scheduled emission/capture pending, decodes and node
  /// events drained (stage save throws otherwise). Covers every stage's
  /// carried state, the live fault plan + injector streams, the stream
  /// position, and the deterministic clock counters — everything a
  /// restarted daemon needs to continue bit-identically. Wall-clock
  /// telemetry is deliberately excluded.
  void save(dsp::ser::Writer& w) const;
  void load(dsp::ser::Reader& r);

 private:
  template <class Self, class Ar>
  static void io_stages(Self& self, Ar& ar);
  void run_inline(std::uint64_t until);
  void run_threaded(std::uint64_t until);
  static Real derive_si_amplitude(const channel::ConcreteChannel& channel,
                                  const core::SystemConfig& system,
                                  Real volts_scale);

  StreamConfig config_;
  std::shared_ptr<const core::SystemConfig> snapshot_;
  channel::ConcreteChannel channel_;
  Real volts_scale_;
  Real si_amplitude_;
  core::StreamClock clock_;
  TxStage tx_;
  DownlinkStage dl_;
  NodeStage node_;
  UplinkStage ul_;
  RxStage rx_;
  Signal block_;  // inline-mode working buffer
  std::uint64_t pos_ = 0;
  std::uint64_t fault_epoch_ = 0;
  fault::FaultPlan active_plan_;  // the plan the current injectors realize
};

}  // namespace ecocap::stream
