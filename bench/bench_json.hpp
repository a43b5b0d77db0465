#pragma once

// Shared BENCH_<name>.json emitter for the bench_* binaries: every figure
// reproduction records its wall time, trial throughput, and the figure's
// summary statistics in a machine-readable file next to the CSV stdout, so
// the repo accumulates a perf trajectory across PRs. Schema documented in
// docs/benchmarks.md; no third-party JSON dependency, just careful quoting.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <time.h>

#include "core/thread_pool.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/serialize.hpp"

namespace ecocap::bench {

/// CPU seconds used so far by the calling thread plus `pool`'s spawned
/// workers (CLOCK_THREAD_CPUTIME_ID of each). Across a job the change is
/// its CPU cost: flat in the worker count unless the workers contend, and
/// unlike a wall-time speedup it does not depend on the host granting the
/// threads their own cores.
inline double job_cpu_seconds(core::ThreadPool& pool) {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec) + pool.worker_cpu_seconds();
}

class BenchJson {
 public:
  /// Starts the wall-time clock. `name` becomes BENCH_<name>.json.
  explicit BenchJson(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

  /// Record a scalar summary statistic (BER at a given SNR, throughput...).
  void metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  /// Record a named series (one figure axis or curve).
  void series(const std::string& key, const std::vector<double>& values) {
    series_.emplace_back(key, values);
  }

  /// Total Monte-Carlo trials behind the figure; drives trials_per_sec.
  void set_trials(std::size_t trials) { trials_ = trials; }

  /// Stop the clock and write BENCH_<name>.json into the working directory.
  /// Crash-safe: the document is rendered in memory and lands via
  /// write-temp-then-atomic-rename, so a bench killed mid-write leaves the
  /// previous BENCH file intact instead of a truncated JSON. Returns false
  /// (and prints a warning) when the file cannot be written; benches still
  /// succeed so CI logs keep the CSV output.
  bool write() {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    const std::string path = "BENCH_" + name_ + ".json";
    std::string out;
    out += "{\n";
    out += "  \"name\": \"" + escaped(name_) + "\",\n";
    out += "  \"schema_version\": 2,\n";
    out += "  \"threads\": " +
           std::to_string(core::ThreadPool::default_worker_count()) + ",\n";
    // Provenance: everything needed to compare perf trajectories across
    // runs — the effective worker count, which SIMD table dispatched, and
    // whether the binary was an optimized build.
    out += "  \"provenance\": {\n";
    out += "    \"ecocap_threads\": " +
           std::to_string(core::ThreadPool::default_worker_count()) + ",\n";
    out += "    \"hw_threads\": " +
           std::to_string(std::thread::hardware_concurrency()) + ",\n";
    out += std::string("    \"simd_isa\": \"") +
           dsp::kernels::isa_name(dsp::kernels::active_isa()) + "\",\n";
#ifdef NDEBUG
    out += "    \"build_type\": \"release\"\n";
#else
    out += "    \"build_type\": \"debug\"\n";
#endif
    out += "  },\n";
    out += "  \"wall_seconds\": " + formatted("%.6f", wall) + ",\n";
    out += "  \"trials\": " + std::to_string(trials_) + ",\n";
    out += "  \"trials_per_sec\": " +
           formatted("%.3f",
                     wall > 0.0 ? static_cast<double>(trials_) / wall : 0.0) +
           ",\n";
    out += "  \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      out += (i ? "," : "");
      out += "\n    \"" + escaped(metrics_[i].first) + "\": ";
      out += number(metrics_[i].second);
    }
    out += metrics_.empty() ? "},\n" : "\n  },\n";
    out += "  \"series\": {";
    for (std::size_t i = 0; i < series_.size(); ++i) {
      out += (i ? "," : "");
      out += "\n    \"" + escaped(series_[i].first) + "\": [";
      const auto& v = series_[i].second;
      for (std::size_t j = 0; j < v.size(); ++j) {
        if (j) out += ", ";
        out += number(v[j]);
      }
      out += "]";
    }
    out += series_.empty() ? "}\n" : "\n  }\n";
    out += "}\n";
    if (!dsp::ser::atomic_write_file(path, out)) {
      std::fprintf(stderr, "# bench_json: cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("# wrote %s (%.2fs, %zu trials)\n", path.c_str(), wall,
                trials_);
    return true;
  }

 private:
  /// NaN/inf are not JSON; emit null so downstream parsers stay happy.
  static std::string number(double v) {
    return std::isfinite(v) ? formatted("%.12g", v) : "null";
  }

  static std::string formatted(const char* fmt, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return buf;
  }

  static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::size_t trials_ = 0;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::vector<double>>> series_;
};

}  // namespace ecocap::bench
