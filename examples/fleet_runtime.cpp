// Self-healing fleet runtime demo: a DaemonSupervisor keeps three streaming
// reader daemons (one embedded capsule each) alive while an "operator"
// thread kills one mid-run and stalls another. The supervisor's watchdog
// detects the hang via missed heartbeats, the crashed daemon restarts from
// its last checkpoint, and the campaign still finishes with every poll
// delivered into the shared TelemetryStore — the console trace shows the
// kill, the detection, and the recovery as they happen.
//
//   ./fleet_runtime [polls_per_daemon]

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/link_simulator.hpp"
#include "runtime/daemon_supervisor.hpp"
#include "stream/streaming_reader.hpp"

using namespace ecocap;

int main(int argc, char** argv) {
  const auto polls =
      static_cast<std::uint64_t>(argc > 1 ? std::atoll(argv[1]) : 10);
  constexpr std::size_t kDaemons = 3;

  runtime::RuntimeConfig config;
  for (std::size_t i = 0; i < kDaemons; ++i) {
    reader::StreamingReaderConfig d;
    d.stream.system = core::default_system();
    d.stream.system.seed += 1000 * (i + 1);
    d.stream.system.capsule.firmware.node_id =
        static_cast<std::uint16_t>(42 + i);
    d.stream.block_size = 256;
    d.poll_interval_s = 0.05;
    d.warmup_s = 0.5;
    config.daemons.push_back(std::move(d));
  }
  config.polls_per_daemon = polls;
  config.checkpoint_every_polls = 4;
  config.event_ring_capacity = 64;
  config.heartbeat_timeout_ms = 1500.0;
  config.watchdog_interval_ms = 5.0;
  std::atomic<std::size_t> events_seen{0};
  config.on_event = [&events_seen](const runtime::PollEvent& ev) {
    std::printf("  [daemon %u] poll %2llu  %-9s value=%.2f t=%u s\n",
                ev.daemon, static_cast<unsigned long long>(ev.poll),
                ev.delivered ? "delivered" : "missed",
                static_cast<double>(ev.value), ev.t_sec);
    events_seen.fetch_add(1, std::memory_order_relaxed);
  };

  runtime::DaemonSupervisor supervisor(config);

  // The operator: waits for the fleet to get going (one reported poll per
  // daemon), then kills daemon 0 outright and wedges daemon 1's pipeline.
  // Waiting on progress rather than wall time keeps both injections
  // mid-campaign however fast the host polls. Both ride the same
  // runtime-fault machinery a chaos plan uses.
  std::atomic<bool> finished{false};
  std::thread operator_thread([&] {
    while (events_seen.load(std::memory_order_relaxed) < kDaemons &&
           !finished.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::printf("-- operator: killing daemon 0\n");
    supervisor.inject_crash(0);
    std::printf("-- operator: stalling daemon 1 (watchdog must notice)\n");
    supervisor.inject_stall(1, 2);
  });

  std::printf("fleet runtime: %zu daemons x %llu polls\n", kDaemons,
              static_cast<unsigned long long>(polls));
  const auto stats = supervisor.run();
  finished.store(true, std::memory_order_relaxed);
  operator_thread.join();

  std::printf("\n%-8s %6s %8s %8s %8s %6s %12s\n", "daemon", "polls",
              "restarts", "crashes", "kicks", "drops", "recovery-ms");
  for (std::size_t i = 0; i < stats.daemons.size(); ++i) {
    const auto& d = stats.daemons[i];
    std::printf("%-8zu %6llu %8llu %8llu %8llu %6llu %12.2f\n", i,
                static_cast<unsigned long long>(d.polls_done),
                static_cast<unsigned long long>(d.restarts),
                static_cast<unsigned long long>(d.crashes),
                static_cast<unsigned long long>(d.watchdog_kicks),
                static_cast<unsigned long long>(d.events_dropped),
                d.recovery_latency_ms_max);
  }
  std::printf("events collected %llu  total restarts %llu  wall %.2f s\n",
              static_cast<unsigned long long>(stats.events_collected),
              static_cast<unsigned long long>(stats.total_restarts()),
              stats.wall_seconds);

  // The self-healing claim: despite the kill and the stall, every daemon
  // finished its full campaign.
  bool healed = stats.total_restarts() >= 1;
  for (const auto& d : stats.daemons) healed = healed && d.polls_done == polls;
  std::printf(healed ? "fleet healed: all campaigns completed\n"
                     : "fleet did NOT heal\n");
  return healed ? 0 : 1;
}
