#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "channel/concrete_channel.hpp"
#include "dsp/types.hpp"
#include "dsp/workspace.hpp"
#include "fault/fault.hpp"
#include "node/harvester.hpp"
#include "node/power_model.hpp"
#include "phy/carrier.hpp"
#include "phy/ring_effect.hpp"
#include "reader/receiver.hpp"
#include "reader/transmitter.hpp"

namespace ecocap::stream {

using dsp::Real;
using dsp::Signal;

/// An uplink emission scheduled on the node's absolute sample timeline:
/// from sample `start` the backscatter switch follows `switching` (a
/// bipolar FM0 waveform, XORed with the BLF subcarrier); before, between
/// and after emissions the switch rests in the absorptive state.
struct ScheduledEmission {
  std::uint16_t node_id = 0;
  std::uint64_t start = 0;
  Signal switching;
  Real blf = 4000.0;
};

/// A capture the rx stage reassembles from the live stream and decodes once
/// the final sample has arrived. [start, end) in absolute samples.
struct CaptureWindow {
  std::uint16_t node_id = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::size_t payload_bits = 0;
  Real bitrate = 1000.0;
  Real blf = 4000.0;
};

/// A completed capture's decode, tagged with its origin.
struct DecodedUplink {
  std::uint16_t node_id = 0;
  std::uint64_t window_start = 0;
  reader::UplinkDecode decode;
};

/// What happened when a scheduled emission's start sample arrived at the
/// node: was the MCU powered, did the frame brown out mid-emission, and
/// the storage-cap voltage at that instant.
struct NodeFrameEvent {
  std::uint16_t node_id = 0;
  std::uint64_t start = 0;
  bool emitted = false;
  bool browned_out = false;
  Real cap_voltage = 0.0;
};

/// Continuous-wave transmit stage: the batch Transmitter's oscillator +
/// ringing PZT, with phase and ring state carried across blocks — the
/// carrier is genuinely continuous instead of restarting at phase 0 every
/// `continuous_wave` call.
class TxStage {
 public:
  explicit TxStage(const reader::TransmitterConfig& config);

  /// Produce the next `n` samples of carrier into `out` (resized).
  void fill_block(std::size_t n, Signal& out);

  /// Bit-exact carried-state round trip (oscillator phase + PZT ring tail).
  void save(dsp::ser::Writer& w) const;
  void load(dsp::ser::Reader& r);

 private:
  template <class Self, class Ar> static void io(Self& self, Ar& ar);
  dsp::Oscillator osc_;
  phy::RingingPzt pzt_;
};

/// Downlink stage: the channel's streaming downlink, the volts calibration
/// the batch `LinkSimulator::faulted_downlink` applies, and the channel-layer
/// fault injector. Faults are drawn per block on the live stream (a burst
/// lands where the stream is *now*), unlike the batch path's per-leg draws.
class DownlinkStage {
 public:
  DownlinkStage(const channel::ConcreteChannel& channel, Real volts_scale,
                std::uint64_t noise_seed);

  void push_block(Signal& x);
  void set_injector(fault::Injector injector);
  fault::Injector& injector() { return injector_; }

  /// Carried channel-stream state + injector state. The injector must be
  /// rebuilt with the live plan (set_injector) before load.
  void save(dsp::ser::Writer& w) const;
  void load(dsp::ser::Reader& r);

 private:
  template <class Self, class Ar> static void io(Self& self, Ar& ar);
  channel::ConcreteChannel::DownlinkStream stream_;
  Real volts_scale_;
  Real fs_;
  fault::Injector injector_;
};

/// Node stage: harvests the incident stream on the batch capsule's 1 ms
/// `node::HarvestGrid`, anchored to the absolute sample index (partial
/// chunks carry across blocks, so power gating is block-size invariant),
/// and replaces each block in place with the node's backscatter
/// reflection — scheduled emissions where active, the absorptive rest
/// state everywhere else. Power is evaluated exactly at an
/// emission's start sample; an unpowered node drops the frame, and the
/// node-layer injector may brown a frame out (the switching truncates and
/// the reflection falls back to rest — the stream keeps flowing, unlike the
/// batch path which shortens the buffer).
class NodeStage {
 public:
  struct Config {
    node::HarvesterConfig harvester;
    node::PowerModel power;
    phy::BackscatterParams backscatter;  // f_blf comes per emission
    Real hra_gain = 2.0;
    Real fs = 2.0e6;
  };

  explicit NodeStage(const Config& config);

  /// Emissions must be scheduled in ascending, non-overlapping order, at
  /// or after the current position.
  void schedule(ScheduledEmission e);

  void push_block(Signal& x);

  bool powered() const { return harvest_.harvester().mcu_powered(); }
  Real cap_voltage() const { return harvest_.harvester().cap_voltage(); }
  std::uint64_t position() const { return pos_; }

  void set_injector(fault::Injector injector);
  fault::Injector& injector() { return injector_; }
  /// Parasitic cap load (A) on top of the MCU draw (the cap-leak fault).
  void set_extra_load_amps(Real amps) { harvest_.set_extra_load(amps); }

  /// Take the frame events recorded since the last drain. Only call while
  /// the pipeline is idle (between advances).
  std::vector<NodeFrameEvent> drain_events();

  /// Carried-state round trip at a quiescent point: the emission queue must
  /// be empty and the events drained (throws otherwise); a stale
  /// already-finished active emission is equivalent to none and is not
  /// serialized.
  void save(dsp::ser::Writer& w) const;
  void load(dsp::ser::Reader& r);

 private:
  template <class Self, class Ar> static void io(Self& self, Ar& ar);
  void begin_emission(std::uint64_t abs);

  Config config_;
  node::HarvestGrid harvest_;
  std::deque<ScheduledEmission> queue_;
  struct ActiveEmission {
    ScheduledEmission e;
    std::uint64_t switch_len = 0;  // may be brownout-truncated
  };
  std::optional<ActiveEmission> active_;
  fault::Injector injector_;
  std::vector<NodeFrameEvent> events_;
  std::uint64_t pos_ = 0;
};

/// Uplink stage: the channel's streaming uplink (fixed SI amplitude — a
/// live reader knows its own CBW drive level) plus the channel-layer
/// injector and the reader ADC clipper. A block nothing reads (see
/// RxStage::reads) may go through `advance_block` instead, which leaves
/// the same carried state without building the at-reader waveform.
class UplinkStage {
 public:
  UplinkStage(const channel::ConcreteChannel& channel, Real carrier_frequency,
              Real si_amplitude, std::uint64_t noise_seed);

  void push_block(Signal& x);
  /// State-only push: exactly the carried state push_block(x) leaves, with
  /// x left holding unspecified samples. While the injector is active this
  /// is push_block, because its burst draws and clip counter depend on the
  /// waveform.
  void advance_block(Signal& x);
  void set_injector(fault::Injector injector);
  fault::Injector& injector() { return injector_; }

  /// Carried channel-stream state + injector state (see DownlinkStage).
  void save(dsp::ser::Writer& w) const;
  void load(dsp::ser::Reader& r);

 private:
  template <class Self, class Ar> static void io(Self& self, Ar& ar);
  channel::ConcreteChannel::UplinkStream stream_;
  Real fs_;
  fault::Injector injector_;
};

/// Receive stage: a streaming frame detector. Capture windows scheduled on
/// the absolute timeline are reassembled block by block (partial frames
/// carry across blocks); when a window's last sample arrives it is decoded
/// with the full batch Receiver against the window's negotiated line
/// parameters, and the result queues for the next drain. A decoded
/// window's buffer is kept as the spare of every RxStage on the calling
/// thread, so a warm thread allocates no capture storage per window, and
/// readers polled in turn on one thread keep one window's storage between
/// them rather than one per stage. The pipeline also asks `reads` which
/// blocks need the uplink waveform at all.
class RxStage {
 public:
  explicit RxStage(const reader::ReceiverConfig& config);

  /// Windows must be scheduled before their first sample arrives.
  void schedule(CaptureWindow w);

  void push_block(const Signal& x);

  /// Whether a push of the samples [lo, hi) reads their values: a tap is
  /// set or a pending window overlaps them. When false, push_block only
  /// advances the position, whatever the samples hold.
  bool reads(std::uint64_t lo, std::uint64_t hi) const;

  /// Take the decodes completed since the last drain. Only call while the
  /// pipeline is idle (between segments).
  std::vector<DecodedUplink> drain_decodes();

  /// Observer of the raw at-reader stream (tests tap it to prove the
  /// stream is identical across block sizes). Called
  /// once per block with the absolute position of its first sample.
  using Tap = std::function<void(std::uint64_t pos, const Signal& block)>;
  void set_tap(Tap tap) { tap_ = std::move(tap); }

  std::uint64_t position() const { return pos_; }

  /// Decode-workspace accounting: when the stage is quiescent,
  /// `returns == checkouts` proves no decode leaked a pooled buffer (the
  /// chaos soak's leak check).
  const dsp::Workspace::Stats& workspace_stats() const { return ws_.stats(); }

  /// Windows whose capture buffer had to come from the heap because the
  /// scheduling thread's spare was missing or too small.
  std::uint64_t capture_allocations() const { return capture_allocations_; }

  /// Round trip at a quiescent point: every scheduled window must have
  /// decoded and every decode drained (throws otherwise), so only the
  /// stream position is state.
  void save(dsp::ser::Writer& w) const;
  void load(dsp::ser::Reader& r);

 private:
  template <class Self, class Ar> static void io(Self& self, Ar& ar);
  reader::Receiver receiver_;
  dsp::Workspace ws_;
  struct Pending {
    CaptureWindow w;
    Signal buf;
  };
  std::vector<Pending> pending_;
  std::vector<DecodedUplink> decodes_;
  Tap tap_;
  std::uint64_t pos_ = 0;
  std::uint64_t capture_allocations_ = 0;
};

}  // namespace ecocap::stream
