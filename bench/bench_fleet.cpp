// City-scale fleet bench — the headline throughput numbers for the sharded
// fleet engine and its concurrent telemetry serving layer:
//
//   * node-reads/sec ingested: N structures' campaigns run across the
//     ThreadPool shards, every step appending one reading per section into
//     the fleet::TelemetryStore, at 1 worker and at hw-threads workers
//     (ingest_scaling is their wall ratio), plus the CPU time per read
//     at 1 and 4 workers (ingest_cpu_growth_4t: the shards' contention,
//     which unlike the wall ratio does not depend on the host granting
//     the workers their own cores);
//   * queries/sec served: dashboard-style query threads (latest-health
//     polls, minute-tier range scans, fleet-wide percentile rollups)
//     hammer the store concurrently *while* the hw-thread ingest runs.
//
// The 1-thread and hw-thread fleets must produce byte-identical aggregate
// fingerprints (aggregates_match metric) — the determinism contract the
// test suite enforces at 1/2/8 workers. Emits BENCH_fleet.json, gated in
// CI by tools/perf_gate.py.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/thread_pool.hpp"
#include "fleet/fleet_engine.hpp"
#include "fleet/telemetry_store.hpp"

using namespace ecocap;

namespace {

constexpr std::uint64_t kSeed = 0xf1ee7;

std::size_t env_or(const char* name, std::size_t fallback) {
  if (const char* v = std::getenv(name)) {
    const long parsed = std::atol(v);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

fleet::FleetEngine::Config fleet_config(std::size_t structures,
                                        fleet::TelemetryStore* store) {
  fleet::FleetEngine::Config cfg;
  cfg.structures = structures;
  cfg.seed = kSeed;
  cfg.telemetry = store;
  // One simulated day at 5-minute cadence per structure, with two
  // protocol-stack capsule polls (2 capsules each) riding along so the
  // ingest numbers carry real per-structure PHY work, not just the bridge
  // model.
  cfg.campaign.days = 1.0;
  cfg.campaign.step_minutes = 5.0;
  cfg.campaign.capsule_count = 2;
  cfg.campaign.capsule_poll_hours = 12.0;
  cfg.campaign.retry.enabled = true;
  return cfg;
}

fleet::TelemetryStore::Config store_config(std::size_t structures) {
  fleet::TelemetryStore::Config cfg;
  cfg.nodes = structures * fleet::FleetEngine::kNodesPerStructure;
  cfg.raw_capacity = 512;
  cfg.minute_capacity = 512;
  cfg.hour_capacity = 64;
  return cfg;
}

struct IngestRun {
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;  // caller plus workers, see job_cpu_seconds
  std::uint64_t readings = 0;
  std::string fingerprint;
  double reads_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(readings) / wall_seconds
               : 0.0;
  }
  double cpu_ns_per_read() const {
    return readings > 0 ? cpu_seconds * 1e9 / static_cast<double>(readings)
                        : 0.0;
  }
};

IngestRun run_fleet(std::size_t structures, unsigned workers,
                    fleet::TelemetryStore* store) {
  core::ThreadPool pool(workers);
  fleet::FleetEngine engine(fleet_config(structures, store), pool);
  const double cpu0 = bench::job_cpu_seconds(pool);
  const auto t0 = std::chrono::steady_clock::now();
  const fleet::FleetResult result = engine.run();
  IngestRun run;
  run.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  run.cpu_seconds = bench::job_cpu_seconds(pool) - cpu0;
  run.readings = result.totals.readings;
  run.fingerprint = result.fingerprint();
  return run;
}

/// Dashboard-style query mix: mostly latest-health polls, a slice of
/// minute-tier range scans, an occasional fleet-wide percentile rollup.
void query_worker(const fleet::TelemetryStore& store,
                  const std::atomic<bool>& stop, std::uint64_t seed,
                  std::atomic<std::uint64_t>& served) {
  dsp::Rng rng(seed);
  std::vector<fleet::TelemetryStore::Reading> window;
  window.reserve(1024);
  std::vector<float> scratch;
  scratch.reserve(store.nodes());
  std::uint64_t local = 0;
  while (!stop.load(std::memory_order_acquire)) {
    for (int i = 0; i < 16; ++i) {
      (void)store.latest(rng.index(store.nodes()));
      ++local;
    }
    window.clear();
    store.range(rng.index(store.nodes()),
                fleet::TelemetryStore::Tier::kMinute, 0, 0xfffffffeu, window);
    ++local;
    store.fleet_percentiles(scratch);
    ++local;
    // Publish in chunks so the counter costs nothing on the hot loop.
    if (local >= 1024) {
      served.fetch_add(local, std::memory_order_relaxed);
      local = 0;
    }
  }
  served.fetch_add(local, std::memory_order_relaxed);
}

}  // namespace

int main() {
  bench::BenchJson out("fleet");
  const std::size_t structures = env_or("ECOCAP_FLEET_STRUCTURES", 512);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned query_threads = std::min(4u, std::max(1u, hw / 2));
  const std::size_t nodes =
      structures * fleet::FleetEngine::kNodesPerStructure;

  std::printf("# Fleet bench — %zu structures, %zu telemetry nodes, "
              "%u hw threads\n",
              structures, nodes, hw);
  std::printf("phase,workers,wall_s,node_reads,reads_per_sec\n");

  // Phase 1: ingest at 1 worker (the scaling baseline).
  auto store1 = std::make_unique<fleet::TelemetryStore>(
      store_config(structures));
  const IngestRun one = run_fleet(structures, 1, store1.get());
  std::printf("ingest,1,%.3f,%llu,%.0f\n", one.wall_seconds,
              static_cast<unsigned long long>(one.readings),
              one.reads_per_sec());

  // Phase 2: ingest at hw threads.
  auto store_n = std::make_unique<fleet::TelemetryStore>(
      store_config(structures));
  const IngestRun many = run_fleet(structures, hw, store_n.get());
  std::printf("ingest,%u,%.3f,%llu,%.0f\n", hw, many.wall_seconds,
              static_cast<unsigned long long>(many.readings),
              many.reads_per_sec());

  // Contention: CPU time per read at 4 workers against 1 (phase 2 when
  // the host has 4 hardware threads, else its own run).
  IngestRun four = many;
  if (hw != 4) {
    auto store4 =
        std::make_unique<fleet::TelemetryStore>(store_config(structures));
    four = run_fleet(structures, 4, store4.get());
    std::printf("ingest,4,%.3f,%llu,%.0f\n", four.wall_seconds,
                static_cast<unsigned long long>(four.readings),
                four.reads_per_sec());
  }

  const bool match = one.fingerprint == many.fingerprint &&
                     one.fingerprint == four.fingerprint &&
                     store1->total_appends() == one.readings &&
                     store_n->total_appends() == many.readings;
  if (!match) {
    std::fprintf(stderr,
                 "# FLEET DETERMINISM VIOLATION: 1-thread and %u-thread "
                 "aggregates differ\n",
                 hw);
  }

  // Phase 3: hw-thread ingest with concurrent dashboard queries against
  // the store the previous phase already warmed (so latest/range hits are
  // realistic from the first poll).
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0};
  std::vector<std::thread> queriers;
  for (unsigned q = 0; q < query_threads; ++q) {
    queriers.emplace_back(query_worker, std::cref(*store_n), std::cref(stop),
                          kSeed ^ (0x9e37 + q), std::ref(served));
  }
  const IngestRun under_load = run_fleet(structures, hw, store_n.get());
  stop.store(true, std::memory_order_release);
  for (auto& t : queriers) t.join();
  const double queries_per_sec =
      under_load.wall_seconds > 0.0
          ? static_cast<double>(served.load()) / under_load.wall_seconds
          : 0.0;
  std::printf("ingest+query,%u,%.3f,%llu,%.0f\n", hw,
              under_load.wall_seconds,
              static_cast<unsigned long long>(under_load.readings),
              under_load.reads_per_sec());
  std::printf("# %llu queries served by %u threads during ingest "
              "(%.0f queries/sec)\n",
              static_cast<unsigned long long>(served.load()), query_threads,
              queries_per_sec);

  const double scaling =
      one.reads_per_sec() > 0.0 ? many.reads_per_sec() / one.reads_per_sec()
                                : 0.0;
  out.set_trials(structures * 2 + structures);
  out.metric("fleet_structures", static_cast<double>(structures));
  out.metric("fleet_nodes", static_cast<double>(nodes));
  out.metric("hw_threads", static_cast<double>(hw));
  out.metric("query_threads", static_cast<double>(query_threads));
  out.metric("ingest_reads_per_sec_1t", one.reads_per_sec());
  out.metric("ingest_reads_per_sec_mt", many.reads_per_sec());
  out.metric("ingest_scaling", scaling);
  out.metric("ingest_cpu_ns_per_read_1t", one.cpu_ns_per_read());
  out.metric("ingest_cpu_ns_per_read_4t", four.cpu_ns_per_read());
  out.metric("ingest_cpu_growth_4t",
             one.cpu_ns_per_read() > 0.0
                 ? four.cpu_ns_per_read() / one.cpu_ns_per_read()
                 : 0.0);
  out.metric("ingest_reads_per_sec_under_query", under_load.reads_per_sec());
  out.metric("queries_per_sec_concurrent", queries_per_sec);
  out.metric("aggregates_match", match ? 1.0 : 0.0);
  out.series("workers", {1.0, static_cast<double>(hw)});
  out.series("reads_per_sec", {one.reads_per_sec(), many.reads_per_sec()});
  out.write();
  return match ? 0 : 1;
}
