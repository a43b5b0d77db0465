#include "stream/stream_stages.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>
#include <utility>

#include "dsp/kernels/kernels.hpp"
#include "dsp/serialize.hpp"
#include "dsp/signal_ops.hpp"

namespace ecocap::stream {

// ---------------------------------------------------------------- TxStage

namespace {

/// Bitwise state equality: -0.0 and +0.0 differ, as they may downstream.
bool same_bits(const phy::RingingPzt::State& a,
               const phy::RingingPzt::State& b) {
  const auto bits = [](Real v) { return std::bit_cast<std::uint64_t>(v); };
  return bits(a.s.real()) == bits(b.s.real()) &&
         bits(a.s.imag()) == bits(b.s.imag()) &&
         bits(a.env) == bits(b.env) && bits(a.peak) == bits(b.peak);
}

}  // namespace

TxStage::TxStage(const reader::TransmitterConfig& config)
    : osc_(config.carrier.fs, config.carrier.f_resonant),
      pzt_(config.carrier.fs, config.pzt_resonance, config.pzt_q),
      period_(osc_.period() <= dsp::Oscillator::kMaxTablePeriod
                  ? osc_.period()
                  : 0),
      boundary_(pzt_.state()) {}

void TxStage::fill_block(std::size_t n, Signal& out) {
  out.resize(n);
  if (replaying()) {
    replay(out);
  } else {
    compute(out);
  }
}

void TxStage::compute(std::span<Real> out) {
  // The batch Transmitter::continuous_wave's two recurrences, on carried
  // state, cut at the period boundaries.
  for (std::size_t i = 0; i < out.size();) {
    std::size_t m = out.size() - i;
    if (period_ != 0) {
      m = std::min<std::uint64_t>(m, period_ - since_boundary_);
    }
    const std::span<Real> seg = out.subspan(i, m);
    osc_.phases(seg);
    dsp::kernels::active().sine(seg.data(), m, 1.0);
    pzt_.drive_inplace(seg);
    i += m;
    if (period_ == 0 || (since_boundary_ += m) < period_) continue;
    since_boundary_ = 0;
    const phy::RingingPzt::State now = pzt_.state();
    if (!same_bits(boundary_, now)) {
      boundary_ = now;
      continue;
    }
    // Settled: the next period is this one again. Record it from the
    // current state on copies, then copy for the rest of the block.
    dsp::Oscillator osc = osc_;
    osc.generate(period_, 1.0, cycle_);
    cycle_state_.resize(period_);
    phy::RingingPzt pzt = pzt_;
    for (std::size_t j = 0; j < cycle_.size(); ++j) {
      cycle_state_[j] = pzt.state();
      pzt.drive_inplace(std::span<Real>(&cycle_[j], 1));
    }
    cycle_pos_ = 0;
    replay(out.subspan(i));
    return;
  }
}

void TxStage::replay(std::span<Real> out) {
  for (std::size_t i = 0; i < out.size();) {
    const std::size_t m = std::min(out.size() - i, cycle_.size() - cycle_pos_);
    std::copy_n(cycle_.begin() + static_cast<std::ptrdiff_t>(cycle_pos_), m,
                out.begin() + static_cast<std::ptrdiff_t>(i));
    i += m;
    cycle_pos_ += m;
    if (cycle_pos_ == cycle_.size()) cycle_pos_ = 0;
  }
  osc_.advance(out.size());
  pzt_.set_state(cycle_state_[cycle_pos_]);
}

template <class Self, class Ar>
void TxStage::io(Self& self, Ar& ar) {
  dsp::Oscillator::io(self.osc_, ar, "tx.phase", "tx.phase_index");
  ar.nested(self.pzt_);
}

void TxStage::save(dsp::ser::Writer& w) const { io(*this, w); }

void TxStage::load(dsp::ser::Reader& r) {
  io(*this, r);
  since_boundary_ = 0;
  boundary_ = pzt_.state();
  cycle_.clear();
  cycle_state_.clear();
}

// ----------------------------------------------------------- DownlinkStage

DownlinkStage::DownlinkStage(const channel::ConcreteChannel& channel,
                             Real volts_scale, std::uint64_t noise_seed)
    : stream_(channel, noise_seed),
      volts_scale_(volts_scale),
      fs_(channel.config().fs) {}

void DownlinkStage::push_block(Signal& x) {
  stream_.push_block(x);
  dsp::scale(x, volts_scale_);
  injector_.corrupt_waveform(x, fs_);
}

void DownlinkStage::set_injector(fault::Injector injector) {
  injector_ = std::move(injector);
}

template <class Self, class Ar>
void DownlinkStage::io(Self& self, Ar& ar) {
  ar.nested(self.stream_);
  ar.nested(self.injector_);
}

void DownlinkStage::save(dsp::ser::Writer& w) const { io(*this, w); }
void DownlinkStage::load(dsp::ser::Reader& r) { io(*this, r); }

// --------------------------------------------------------------- NodeStage

NodeStage::NodeStage(const Config& config)
    : config_(config),
      harvest_(config.harvester, config.fs, config.hra_gain, config.power) {}

void NodeStage::schedule(ScheduledEmission e) {
  if (e.start < pos_) {
    throw std::invalid_argument("NodeStage: emission scheduled in the past");
  }
  if (!queue_.empty() && e.start < queue_.back().start) {
    throw std::invalid_argument("NodeStage: emissions must be ascending");
  }
  queue_.push_back(std::move(e));
}

void NodeStage::set_injector(fault::Injector injector) {
  injector_ = std::move(injector);
}

std::vector<NodeFrameEvent> NodeStage::drain_events() {
  std::vector<NodeFrameEvent> out;
  out.swap(events_);
  return out;
}

template <class Self, class Ar>
void NodeStage::io(Self& self, Ar& ar) {
  ar.field("ns.pos", self.pos_);
  ar.nested(self.harvest_);
  ar.nested(self.injector_);
}

void NodeStage::save(dsp::ser::Writer& w) const {
  if (!queue_.empty() || !events_.empty()) {
    throw std::runtime_error(
        "checkpoint: NodeStage not quiescent (pending emissions or events)");
  }
  if (active_ && pos_ < active_->e.start + active_->switch_len) {
    throw std::runtime_error("checkpoint: NodeStage mid-emission");
  }
  // A stale active_ (its switching already fully consumed) would be reset
  // without any RNG draw at the next push_block, so "no active emission"
  // serializes the equivalent state.
  io(*this, w);
}

void NodeStage::load(dsp::ser::Reader& r) {
  io(*this, r);
  queue_.clear();
  active_.reset();
  events_.clear();
}

void NodeStage::begin_emission(std::uint64_t abs) {
  ScheduledEmission e = std::move(queue_.front());
  queue_.pop_front();
  NodeFrameEvent ev;
  ev.node_id = e.node_id;
  ev.start = abs;
  ev.cap_voltage = cap_voltage();
  if (powered()) {
    ev.emitted = true;
    std::uint64_t len = e.switching.size();
    if (injector_.brownout_aborts_frame()) {
      // Mid-frame brownout: the switch stops partway and the reflection
      // falls back to the rest state for the remainder — on a live stream
      // the waveform keeps flowing, it does not shorten as in batch mode.
      ev.browned_out = true;
      len = static_cast<std::uint64_t>(
          injector_.brownout_cut() * static_cast<Real>(e.switching.size()));
    }
    active_ = ActiveEmission{std::move(e), len};
  }
  events_.push_back(ev);
}

void NodeStage::push_block(Signal& x) {
  const std::size_t n = x.size();
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t abs = pos_ + i;
    if (active_ && abs >= active_->e.start + active_->switch_len) {
      active_.reset();
    }
    if (!active_ && !queue_.empty() && queue_.front().start <= abs) {
      begin_emission(abs);
    }
    // Segment until the next state change: the block end, the end of the
    // active emission's switching, or the start of the next scheduled one.
    std::uint64_t seg_end = pos_ + n;
    if (active_) {
      seg_end = std::min(seg_end, active_->e.start + active_->switch_len);
    } else if (!queue_.empty()) {
      seg_end = std::min(seg_end, queue_.front().start);
    }
    const auto len = static_cast<std::size_t>(seg_end - abs);
    // Harvest reads the raw incident samples, then the reflection replaces
    // them in place. The chunk grid is anchored to the absolute sample
    // index (partial chunks carry across blocks), and power decisions happen
    // in absolute order because the segment walk never crosses an emission
    // start — so any block split sees the same cap trajectory.
    harvest_.push(std::span<const Real>(x.data() + i, len));
    phy::BackscatterParams bp = config_.backscatter;
    std::span<const Real> switching;
    std::uint64_t offset = 0;
    if (active_) {
      bp.f_blf = active_->e.blf;
      switching = std::span<const Real>(active_->e.switching.data(),
                                        active_->switch_len);
      offset = abs - active_->e.start;
    }
    const std::span<Real> seg(x.data() + i, len);
    phy::backscatter_modulate(seg, switching, offset, config_.fs, bp, seg);
    i += len;
  }
  pos_ += n;
}

// ------------------------------------------------------------- UplinkStage

UplinkStage::UplinkStage(const channel::ConcreteChannel& channel,
                         Real carrier_frequency, Real si_amplitude,
                         std::uint64_t noise_seed)
    : stream_(channel, carrier_frequency, si_amplitude, noise_seed),
      fs_(channel.config().fs) {}

void UplinkStage::push_block(Signal& x) {
  stream_.push_block(x);
  injector_.corrupt_waveform(x, fs_);
  injector_.clip_adc(x);
}

void UplinkStage::advance_block(Signal& x) {
  if (injector_.active()) {
    push_block(x);
  } else {
    stream_.advance_block(x);
  }
}

void UplinkStage::set_injector(fault::Injector injector) {
  injector_ = std::move(injector);
}

template <class Self, class Ar>
void UplinkStage::io(Self& self, Ar& ar) {
  ar.nested(self.stream_);
  ar.nested(self.injector_);
}

void UplinkStage::save(dsp::ser::Writer& w) const { io(*this, w); }
void UplinkStage::load(dsp::ser::Reader& r) { io(*this, r); }

// ----------------------------------------------------------------- RxStage

namespace {

/// The calling thread's spare capture buffer (see RxStage). Keeping the
/// larger buffer means a warm thread stops growing it; being thread-local,
/// it needs no lock.
thread_local Signal t_spare_capture;

}  // namespace

RxStage::RxStage(const reader::ReceiverConfig& config) : receiver_(config) {}

void RxStage::schedule(CaptureWindow w) {
  if (w.start < pos_ || w.end <= w.start) {
    throw std::invalid_argument("RxStage: invalid capture window");
  }
  const auto n = static_cast<std::size_t>(w.end - w.start);
  Signal buf = std::exchange(t_spare_capture, Signal());
  if (buf.capacity() < n) ++capture_allocations_;
  buf.assign(n, 0.0);
  pending_.push_back(Pending{w, std::move(buf)});
}

void RxStage::push_block(const Signal& x) {
  if (tap_) tap_(pos_, x);
  const std::uint64_t lo = pos_;
  const std::uint64_t hi = pos_ + x.size();
  for (auto it = pending_.begin(); it != pending_.end();) {
    Pending& p = *it;
    const std::uint64_t a = std::max(lo, p.w.start);
    const std::uint64_t b = std::min(hi, p.w.end);
    if (a < b) {
      std::copy(x.begin() + static_cast<std::ptrdiff_t>(a - lo),
                x.begin() + static_cast<std::ptrdiff_t>(b - lo),
                p.buf.begin() + static_cast<std::ptrdiff_t>(a - p.w.start));
    }
    if (hi >= p.w.end) {
      // Final sample arrived: decode against the window's negotiated line
      // parameters — the same retune + batch decode the LinkSimulator runs.
      receiver_.set_blf(p.w.blf);
      receiver_.set_bitrate(p.w.bitrate);
      DecodedUplink d;
      d.node_id = p.w.node_id;
      d.window_start = p.w.start;
      d.decode = receiver_.decode(p.buf, p.w.payload_bits, ws_);
      decodes_.push_back(std::move(d));
      if (p.buf.capacity() > t_spare_capture.capacity()) {
        t_spare_capture = std::move(p.buf);
      }
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  pos_ = hi;
}

bool RxStage::reads(std::uint64_t lo, std::uint64_t hi) const {
  if (tap_) return true;
  return std::any_of(pending_.begin(), pending_.end(), [&](const Pending& p) {
    return p.w.start < hi && p.w.end > lo;
  });
}

std::vector<DecodedUplink> RxStage::drain_decodes() {
  std::vector<DecodedUplink> out;
  out.swap(decodes_);
  return out;
}

template <class Self, class Ar>
void RxStage::io(Self& self, Ar& ar) {
  ar.field("rx.pos", self.pos_);
}

void RxStage::save(dsp::ser::Writer& w) const {
  if (!pending_.empty() || !decodes_.empty()) {
    throw std::runtime_error(
        "checkpoint: RxStage not quiescent (open capture or undrained "
        "decodes)");
  }
  io(*this, w);
}

void RxStage::load(dsp::ser::Reader& r) {
  io(*this, r);
  pending_.clear();
  decodes_.clear();
}

}  // namespace ecocap::stream
