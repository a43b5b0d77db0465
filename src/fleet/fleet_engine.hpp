#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/thread_pool.hpp"
#include "fleet/telemetry_store.hpp"
#include "shm/monitor.hpp"

namespace ecocap::fleet {

using dsp::Real;

/// Summary aggregate of one structure's monitoring campaign — everything
/// the fleet rollup keeps per structure, sized in bytes rather than in
/// series samples. Also the fleet-total accumulator (sums add, peaks max,
/// worst-case mins).
struct StructureSummary {
  std::uint64_t steps = 0;
  /// Sensor readings produced by the campaign steps (sections x steps) —
  /// the telemetry ingest count when a store is attached.
  std::uint64_t readings = 0;
  /// EcoCapsule protocol reads that decoded successfully.
  std::uint64_t capsule_reads = 0;
  std::int64_t limit_violations = 0;
  std::int64_t anomalies = 0;
  /// Section-steps graded at each health letter A..F.
  std::array<std::int64_t, 6> health_counts{};
  Real stress_sum = 0.0;  // midspan stress summed over steps (fleet mean)
  Real peak_acceleration = 0.0;
  Real worst_pao = std::numeric_limits<Real>::infinity();

  /// Fold `other` into this accumulator. Associative only in the fixed
  /// structure order the engine uses — the Real sums are floating point.
  void merge(const StructureSummary& other);
};

/// Result of a fleet run: per-structure summaries (index == structure id)
/// plus the streaming merge of them in ascending structure order, which is
/// what makes `totals` bit-identical at any thread or shard count.
struct FleetResult {
  std::vector<StructureSummary> structures;
  StructureSummary totals;
  bool completed = true;
  std::uint64_t structures_completed = 0;
  /// Structures restored from per-shard checkpoints instead of re-run.
  std::uint64_t structures_resumed = 0;

  /// Bit-exact (hexfloat) dump of totals + every per-structure summary;
  /// two runs are equivalent iff their fingerprints are byte-identical.
  std::string fingerprint() const;
};

/// City-scale sharded fleet engine: N structures x their readers/capsules,
/// each structure simulated by its own shm::MonitoringCampaign, sharded
/// across a core::ThreadPool.
///
/// ## Determinism
///
/// Structure `s` is seeded with dsp::trial_seed(Config::seed, s) and its
/// campaign touches no shared mutable state (per-thread Workspace arenas,
/// thread-safe FilterCache), so its summary depends only on `s` — never on
/// which worker or shard ran it. Summaries land in a pre-sized vector slot
/// and are merged in ascending structure order after the parallel region,
/// so `FleetResult::totals` is bit-identical at any ECOCAP_THREADS *and*
/// any shard count.
///
/// ## Sharding and checkpoints
///
/// Structures are partitioned into `Config::shards` contiguous blocks —
/// a fixed decomposition like TrialRunner's trial blocks, deliberately
/// independent of the worker count so the per-shard checkpoint files keep
/// their meaning when ECOCAP_THREADS changes between a crash and a resume.
/// Workers claim shards from the pool; each shard runs its structures
/// sequentially, reusing its worker's dsp::Workspace arena (constant
/// memory per shard: one campaign's transient state at a time, summaries
/// elsewhere), and checkpoints `<dir>/fleet_shard_<k>.ckpt` via the
/// bit-exact serializer + atomic_write_file after every
/// `checkpoint_every` completed structures. Checkpoint granularity is a
/// whole structure: resume() skips the completed prefix of each shard and
/// re-runs the rest from their campaign start, which reproduces the
/// uninterrupted fingerprint exactly because structures are independently
/// seeded.
///
/// ## Telemetry
///
/// With Config::telemetry attached, every campaign step appends one
/// reading per section to the store (global node id =
/// structure * kNodesPerStructure + section) while query threads read
/// concurrently; resumed structures are not re-ingested (their summaries
/// come from the checkpoint).
class FleetEngine {
 public:
  static constexpr std::size_t kNodesPerStructure = 5;  // sections A..E

  struct Config {
    std::size_t structures = 100;
    /// Fixed shard partition; 0 picks min(structures, 32). More shards =
    /// finer checkpoints and better load balance, more checkpoint files.
    std::size_t shards = 0;
    /// Per-structure campaign template. seed / checkpoint_path /
    /// stop_after_steps / record_series are overridden per structure;
    /// an on_step hook set here is chained after the engine's own tap.
    shm::MonitoringCampaign::Config campaign;
    std::uint64_t seed = 2026;
    /// Optional concurrent ingest sink; must have at least
    /// structures * kNodesPerStructure nodes.
    TelemetryStore* telemetry = nullptr;
    /// Per-shard crash-safe checkpoint directory; empty disables.
    std::string checkpoint_dir;
    /// Completed structures between checkpoint writes within a shard.
    std::size_t checkpoint_every = 1;
    /// Testing hook simulating a crash: each shard stops (with a final
    /// checkpoint) after completing this many structures in this run.
    /// 0 = run to completion.
    std::size_t stop_after_structures = 0;
    /// Retain per-campaign sample logs (series, anomaly detection). Off by
    /// default: fleets keep summaries + telemetry, not 1000 x 7 series.
    bool record_series = false;
  };

  FleetEngine(Config config, core::ThreadPool& pool);
  /// Uses the process-shared pool.
  explicit FleetEngine(Config config);

  /// Run the whole fleet from scratch (existing checkpoint files are
  /// overwritten as shards progress).
  FleetResult run();

  /// Restore every shard's checkpoint (shards without one start fresh) and
  /// complete the remaining structures. Throws std::runtime_error when a
  /// checkpoint was written by a different fleet configuration.
  FleetResult resume();

  /// Number of shards the current config partitions into.
  std::size_t shard_count() const;

 private:
  FleetResult run_impl(bool from_checkpoint);
  StructureSummary run_structure(std::size_t s) const;
  std::string shard_path(std::size_t shard) const;

  Config config_;
  core::ThreadPool* pool_;
};

}  // namespace ecocap::fleet
