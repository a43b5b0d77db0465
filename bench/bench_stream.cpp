// Streaming transceiver bench — the real-time headline for the clocked
// stream pipeline: a StreamingReader daemon interrogates continuously
// and the real-time factor (simulated seconds per wall second, measured
// after warmup) says whether the full tx -> channel -> node -> rx -> decode
// chain keeps up with a live ADC at fs. RTF >= 1 is the "could run against
// real concrete" claim, gated in CI on the block-256 headline run.
//
// Also sweeps the block size (the latency/throughput knob) and re-checks
// the determinism contract the test suite enforces: every block size
// delivers byte-identical telemetry. Emits
// BENCH_stream.json, gated by tools/perf_gate.py.

#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "core/link_simulator.hpp"
#include "fleet/telemetry_store.hpp"
#include "stream/streaming_reader.hpp"

using namespace ecocap;

namespace {

double env_or(const char* name, double fallback) {
  if (const char* v = std::getenv(name)) {
    const double parsed = std::atof(v);
    if (parsed > 0.0) return parsed;
  }
  return fallback;
}

struct DaemonRun {
  reader::StreamingReaderStats stats;
  std::vector<float> readings;
};

DaemonRun run_daemon(std::size_t block_size, double sim_seconds) {
  reader::StreamingReaderConfig config;
  config.stream.system = core::default_system();
  config.stream.block_size = block_size;
  config.poll_interval_s = 0.25;
  config.warmup_s = 0.5;

  reader::StreamingReader daemon(config);
  DaemonRun run;
  run.stats = daemon.run(sim_seconds);
  std::vector<fleet::TelemetryStore::Reading> raw;
  daemon.telemetry().range(0, fleet::TelemetryStore::Tier::kRaw, 0,
                           0xffffffffu, raw);
  for (const auto& r : raw) run.readings.push_back(r.value);
  return run;
}

bool same_world(const DaemonRun& a, const DaemonRun& b) {
  return a.stats.delivered == b.stats.delivered &&
         a.stats.missed == b.stats.missed &&
         a.stats.frames_scheduled == b.stats.frames_scheduled &&
         a.readings == b.readings;
}

}  // namespace

int main() {
  const unsigned hw = std::thread::hardware_concurrency();
  // Sweep duration per block size; the headline run is longer so the RTF
  // estimate amortizes the startup charge.
  const double sweep_s = env_or("ECOCAP_BENCH_STREAM_SWEEP_SECONDS", 1.0);
  const double headline_s = env_or("ECOCAP_BENCH_STREAM_SECONDS", 4.0);

  std::printf("# streaming transceiver: real-time factor vs block size\n");
  std::printf("# block_size rtf delivered missed\n");

  bench::BenchJson out("stream");

  const std::size_t blocks[] = {64, 256, 1024, 4096};
  std::vector<double> block_axis, rtf_series;
  std::vector<DaemonRun> runs;
  for (const std::size_t b : blocks) {
    runs.push_back(run_daemon(b, sweep_s));
    const auto& r = runs.back();
    block_axis.push_back(static_cast<double>(b));
    rtf_series.push_back(r.stats.real_time_factor);
    std::printf("%zu %.3f %llu %llu\n", b, r.stats.real_time_factor,
                static_cast<unsigned long long>(r.stats.delivered),
                static_cast<unsigned long long>(r.stats.missed));
  }

  // Determinism contract: every block size must have delivered the
  // identical telemetry stream.
  bool deterministic = true;
  for (const auto& r : runs) deterministic = deterministic && same_world(runs[0], r);

  // Headline: the configuration the daemons run, block 256.
  const DaemonRun headline = run_daemon(256, headline_s);
  std::printf("# headline: %.3f sim-sec/wall-sec (block 256)\n",
              headline.stats.real_time_factor);
  if (!deterministic) {
    std::printf("# WARNING: telemetry differed across block sizes\n");
  }

  out.set_trials(static_cast<std::size_t>(headline.stats.polls));
  out.metric("hw_threads", static_cast<double>(hw));
  out.metric("real_time_factor", headline.stats.real_time_factor);
  out.metric("rtf_inline_256", runs[1].stats.real_time_factor);
  out.metric("stream_deterministic", deterministic ? 1.0 : 0.0);
  out.metric("sim_seconds", headline.stats.sim_seconds);
  out.metric("polls", static_cast<double>(headline.stats.polls));
  out.metric("delivered", static_cast<double>(headline.stats.delivered));
  out.metric("missed", static_cast<double>(headline.stats.missed));
  out.metric("skipped", static_cast<double>(headline.stats.skipped));
  out.series("block_size", block_axis);
  out.series("rtf", rtf_series);
  out.write();
  return deterministic ? 0 : 1;
}
