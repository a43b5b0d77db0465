#include "runtime/daemon_supervisor.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "dsp/serialize.hpp"

namespace ecocap::runtime {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

fleet::TelemetryStore::Config store_config(const RuntimeConfig& config) {
  auto c = config.telemetry;
  c.nodes = std::max(c.nodes, config.daemons.size());
  return c;
}

/// Writer id of daemon i (0 is a valid id; i+1 just reads better in logs).
std::uint32_t writer_id(std::size_t i) {
  return static_cast<std::uint32_t>(i + 1);
}

}  // namespace

DaemonSupervisor::DaemonSupervisor(RuntimeConfig config)
    : config_(std::move(config)), store_(store_config(config_)) {
  if (config_.daemons.empty()) {
    throw std::invalid_argument("DaemonSupervisor: no daemons configured");
  }
  if (config_.polls_per_daemon == 0) {
    throw std::invalid_argument(
        "DaemonSupervisor: polls_per_daemon must be > 0");
  }
  if (config_.event_ring_capacity == 0) {
    throw std::invalid_argument(
        "DaemonSupervisor: event_ring_capacity must be > 0");
  }
  std::error_code ec;
  if (!config_.checkpoint_dir.empty() &&
      !std::filesystem::is_directory(config_.checkpoint_dir, ec)) {
    throw std::invalid_argument(
        "DaemonSupervisor: checkpoint_dir is not an existing directory: " +
        config_.checkpoint_dir);
  }
  daemons_.reserve(config_.daemons.size());
  for (std::size_t i = 0; i < config_.daemons.size(); ++i) {
    auto d = std::make_unique<Daemon>(config_.event_ring_capacity);
    d->config = config_.daemons[i];
    d->config.shared_store = &store_;
    d->config.store_node = i;
    for (const auto& ev : config_.script) {
      if (ev.daemon == i) d->script.push_back(ev);
    }
    std::stable_sort(d->script.begin(), d->script.end(),
                     [](const ChaosEvent& a, const ChaosEvent& b) {
                       return a.at_poll < b.at_poll;
                     });
    daemons_.push_back(std::move(d));
  }
}

DaemonSupervisor::~DaemonSupervisor() {
  shutdown_.store(true, std::memory_order_release);
  for (auto& d : daemons_) {
    d->abort.store(true, std::memory_order_release);
    d->events.close();
  }
  for (auto& d : daemons_) {
    if (d->thread.joinable()) d->thread.join();
  }
  if (watchdog_.joinable()) watchdog_.join();
  if (collector_.joinable()) collector_.join();
}

void DaemonSupervisor::inject_crash(std::size_t daemon) {
  daemons_.at(daemon)->crash_request.store(true, std::memory_order_release);
}

void DaemonSupervisor::inject_stall(std::size_t daemon, std::uint64_t units) {
  daemons_.at(daemon)->stall_request.store(units, std::memory_order_release);
}

void DaemonSupervisor::build_reader(Daemon& d, std::size_t i) {
  if (!store_.claim_writer(i, writer_id(i))) {
    throw std::runtime_error(
        "DaemonSupervisor: telemetry node already claimed by another writer");
  }
  d.reader = std::make_unique<reader::StreamingReader>(d.config);
  d.reader->set_poll_hook([&d](std::uint64_t, bool delivered) {
    d.last_delivered = delivered;
  });
}

void DaemonSupervisor::launch(Daemon& d, std::size_t i) {
  d.heartbeat_ns.store(now_ns(), std::memory_order_release);
  d.state.store(State::kRunning, std::memory_order_release);
  d.thread = std::thread([this, i] { daemon_main(i); });
}

void DaemonSupervisor::daemon_main(std::size_t i) {
  Daemon& d = *daemons_[i];
  try {
    while (!shutdown_.load(std::memory_order_acquire) &&
           !d.abort.load(std::memory_order_acquire)) {
      if (d.reader->polls_done() >= config_.polls_per_daemon) break;
      poll_step(d, i);
    }
  } catch (...) {
    // Exception isolation: a crashed daemon never takes the process down;
    // it flags itself and the watchdog recovers it.
    ++d.stats.crashes;
    d.state.store(State::kCrashed, std::memory_order_release);
    return;
  }
  const bool done = d.reader->polls_done() >= config_.polls_per_daemon;
  d.state.store(done ? State::kDone : State::kCrashed,
                std::memory_order_release);
}

void DaemonSupervisor::apply_chaos(Daemon& d, std::size_t i) {
  const std::uint64_t poll = d.reader->polls_done();  // poll about to run
  bool crash = d.crash_request.exchange(false, std::memory_order_acq_rel);
  std::uint64_t stall_units =
      d.stall_request.exchange(0, std::memory_order_acq_rel);
  double throttle_ms = 0.0;

  // Scripted events fire exactly once: the cursor survives restarts (it
  // lives in the Daemon record, not the reader), so a replayed poll does
  // not re-fire the crash that killed it.
  while (d.next_script < d.script.size() &&
         d.script[d.next_script].at_poll <= poll) {
    const ChaosEvent& ev = d.script[d.next_script++];
    switch (ev.kind) {
      case ChaosEvent::Kind::kCrash:
        crash = true;
        break;
      case ChaosEvent::Kind::kStall:
        stall_units += ev.arg;
        break;
      case ChaosEvent::Kind::kThrottle:
        throttle_ms += static_cast<double>(ev.arg);
        break;
    }
  }

  if (throttle_ms > 0.0) {
    const std::int64_t until =
        now_ns() + static_cast<std::int64_t>(throttle_ms * 1e6);
    std::int64_t cur = throttle_until_ns_.load(std::memory_order_relaxed);
    while (cur < until && !throttle_until_ns_.compare_exchange_weak(
                              cur, until, std::memory_order_acq_rel)) {
    }
    throttles_.fetch_add(1, std::memory_order_relaxed);
  }

  if (stall_units > 0) {
    // Simulated hung pipeline: the thread naps without heartbeating for
    // `units` x 2 heartbeat timeouts — long enough that the watchdog is
    // guaranteed to notice — but stays abort-checkable so the watchdog can
    // reclaim it instead of leaking a stuck thread.
    ++d.stats.stalls;
    const double total_ms = static_cast<double>(stall_units) * 2.0 *
                            config_.heartbeat_timeout_ms;
    const auto deadline =
        Clock::now() + std::chrono::duration<double, std::milli>(total_ms);
    while (Clock::now() < deadline &&
           !d.abort.load(std::memory_order_acquire) &&
           !shutdown_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  if (crash) {
    throw std::runtime_error("chaos: injected crash of daemon " +
                             std::to_string(i));
  }
}

void DaemonSupervisor::maybe_checkpoint(Daemon& d, std::size_t i) {
  const std::uint64_t every = config_.checkpoint_every_polls;
  if (every == 0 || d.reader->polls_done() % every != 0) return;
  std::string payload = d.reader->checkpoint();
  if (!config_.checkpoint_dir.empty() &&
      !dsp::ser::atomic_write_file(
          config_.checkpoint_dir + "/daemon_" + std::to_string(i) + ".ckpt",
          payload)) {
    // The file is a mirror for out-of-process recovery; the in-memory
    // checkpoint below still serves restarts, so a failed write is counted,
    // not fatal.
    ++d.stats.checkpoint_write_failures;
  }
  {
    const std::lock_guard<std::mutex> lock(d.checkpoint_mu);
    d.checkpoint = std::move(payload);
  }
  ++d.stats.checkpoints;
}

void DaemonSupervisor::poll_step(Daemon& d, std::size_t i) {
  apply_chaos(d, i);  // throws on injected crash
  if (d.abort.load(std::memory_order_acquire) ||
      shutdown_.load(std::memory_order_acquire)) {
    return;  // reclaimed mid-stall; the main loop decides crashed/done
  }

  d.reader->run_polls(1);
  const std::uint64_t done = d.reader->polls_done();
  d.stats.polls_done = done;
  d.heartbeat_ns.store(now_ns(), std::memory_order_release);

  PollEvent ev;
  ev.daemon = static_cast<std::uint32_t>(i);
  ev.poll = done - 1;
  ev.delivered = d.last_delivered;
  if (const auto latest = store_.latest(i)) {
    ev.t_sec = latest->t_sec;
    ev.value = latest->value;
  }
  ++d.stats.events_pushed;
  std::size_t dropped = 0;
  if (config_.event_policy == core::Overflow::kBlock) {
    while (!d.events.try_push(ev)) {
      if (d.events.closed() || d.abort.load(std::memory_order_acquire) ||
          shutdown_.load(std::memory_order_acquire)) {
        dropped = 1;  // shutdown teardown: the event is lost, account it
        break;
      }
      std::this_thread::yield();
    }
  } else {
    dropped = d.events.push(std::move(ev), config_.event_policy);
  }
  if (dropped > 0) {
    d.stats.events_dropped += dropped;
    d.reader->set_events_dropped(d.stats.events_dropped);
  }

  maybe_checkpoint(d, i);
}

void DaemonSupervisor::restart(Daemon& d, std::size_t i) {
  const auto t0 = Clock::now();
  if (d.thread.joinable()) d.thread.join();

  // Hung-detection backoff (see the Daemon field comment): the dead
  // incarnation's poll counter is safely readable after the join. No new
  // polls since the last restart means the timeout was too tight for this
  // host's current load — give the next incarnation twice the allowance.
  const std::uint64_t progressed = d.reader->polls_done();
  if (progressed > d.last_restart_polls) {
    d.kick_backoff = std::max(0, d.kick_backoff - 1);
  } else if (d.kick_backoff < 6) {
    ++d.kick_backoff;
  }
  d.last_restart_polls = progressed;

  d.abort.store(false, std::memory_order_release);
  d.crash_request.store(false, std::memory_order_release);
  d.stall_request.store(0, std::memory_order_release);

  std::string ckpt;
  {
    const std::lock_guard<std::mutex> lock(d.checkpoint_mu);
    ckpt = d.checkpoint;
  }
  // The crashed incarnation held the writer claim with this daemon's id;
  // re-claiming with the same id is the supervised restart handoff.
  build_reader(d, i);
  if (!ckpt.empty()) {
    // Rewind: the reader resumes its carried state AND its store node's
    // contents from the checkpoint, then replays the lost polls
    // bit-identically.
    d.reader->resume(ckpt);
    ++d.stats.resumed_from_checkpoint;
  } else {
    // No checkpoint yet: start the campaign over from a wiped node — the
    // replayed prefix is bit-identical too, it is just longer.
    store_.reset_node(i);
    ++d.stats.restarted_from_scratch;
  }
  // The rewind restored the reader's drop count to the checkpoint's (or
  // zero); the supervisor's count, which never rewinds, is the truth.
  d.reader->set_events_dropped(d.stats.events_dropped);
  d.stats.polls_done = d.reader->polls_done();
  launch(d, i);
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  d.stats.recovery_latency_ms_total += ms;
  d.stats.recovery_latency_ms_max =
      std::max(d.stats.recovery_latency_ms_max, ms);
  ++d.stats.restarts;
}

void DaemonSupervisor::watchdog_main() {
  for (;;) {
    if (shutdown_.load(std::memory_order_acquire)) return;
    bool all_done = true;
    for (std::size_t i = 0; i < daemons_.size(); ++i) {
      Daemon& d = *daemons_[i];
      const State state = d.state.load(std::memory_order_acquire);
      if (state == State::kDone) continue;
      all_done = false;
      if (state == State::kCrashed) {
        restart(d, i);
        continue;
      }
      if (state == State::kRunning &&
          !d.abort.load(std::memory_order_acquire)) {
        const double age_ms =
            static_cast<double>(now_ns() -
                                d.heartbeat_ns.load(
                                    std::memory_order_acquire)) /
            1e6;
        const double allowed_ms =
            config_.heartbeat_timeout_ms *
            static_cast<double>(std::uint64_t{1} << d.kick_backoff);
        if (age_ms > allowed_ms) {
          // Hung (stalled pipeline / stuck poll): reclaim and restart.
          ++d.stats.watchdog_kicks;
          d.abort.store(true, std::memory_order_release);
        }
      }
    }
    if (all_done) return;
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        config_.watchdog_interval_ms));
  }
}

void DaemonSupervisor::collector_main() {
  for (;;) {
    const bool stopping = shutdown_.load(std::memory_order_acquire);
    if (!stopping &&
        now_ns() < throttle_until_ns_.load(std::memory_order_acquire)) {
      // Throttled slow consumer: stop draining; the daemon-side rings fill
      // and exercise the overflow policy.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    std::size_t drained = 0;
    for (auto& dp : daemons_) {
      PollEvent ev;
      while (dp->events.try_pop(ev)) {
        ++drained;
        events_collected_.fetch_add(1, std::memory_order_relaxed);
        if (config_.on_event) config_.on_event(ev);
      }
    }
    if (stopping && drained == 0) return;  // final sweep found nothing
    if (drained == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

RuntimeStats DaemonSupervisor::run() {
  if (ran_) {
    throw std::logic_error("DaemonSupervisor::run is single-shot");
  }
  ran_ = true;
  const auto t0 = Clock::now();

  for (std::size_t i = 0; i < daemons_.size(); ++i) {
    build_reader(*daemons_[i], i);
    launch(*daemons_[i], i);
  }
  collector_ = std::thread([this] { collector_main(); });
  watchdog_ = std::thread([this] { watchdog_main(); });

  watchdog_.join();  // returns once every daemon reached kDone
  for (auto& d : daemons_) {
    if (d->thread.joinable()) d->thread.join();
  }
  shutdown_.store(true, std::memory_order_release);
  collector_.join();

  RuntimeStats stats;
  stats.daemons.reserve(daemons_.size());
  for (std::size_t i = 0; i < daemons_.size(); ++i) {
    Daemon& d = *daemons_[i];
    // Campaign end: close the open telemetry buckets exactly once per
    // node — the same single flush an uninterrupted run performs, so
    // recovery stays byte-identical.
    d.reader->flush_telemetry();
    store_.release_writer(i, writer_id(i));
    d.stats.reader = d.reader->stats();
    d.stats.polls_done = d.reader->polls_done();
    stats.daemons.push_back(d.stats);
  }
  stats.events_collected = events_collected_.load(std::memory_order_relaxed);
  stats.throttles = throttles_.load(std::memory_order_relaxed);
  stats.wall_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return stats;
}

}  // namespace ecocap::runtime
