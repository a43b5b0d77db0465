#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace ecocap::dsp::ser {
class Writer;
class Reader;
}  // namespace ecocap::dsp::ser

namespace ecocap::fleet {

/// In-memory telemetry store for city-scale fleet serving: one ring-buffered
/// health series per node, ingested by the fleet shards while any number of
/// query threads poll building health concurrently.
///
/// ## Concurrency model (single writer per node, lock-free readers)
///
/// A node belongs to exactly one structure, and a structure's campaign runs
/// on exactly one shard at a time, so every node has at most one writer.
/// Readers never block writers and writers never block readers:
///
///  * every stored reading is one `std::atomic<std::uint64_t>` word packing
///    (t_sec : u32, value-bits : f32) — a reader either sees a whole reading
///    or a different whole reading, never a torn one;
///  * each ring publishes with a release store of its append cursor after
///    the slot store, so a reader that acquires the cursor sees every slot
///    the cursor covers;
///  * a slot being *overwritten* during a range scan yields the newer
///    reading (still whole); the embedded timestamp lets the reader filter,
///    so the worst case is a reading newer than the requested window being
///    dropped, never a corrupt value. Range results are therefore
///    individually-consistent but not guaranteed time-sorted while the
///    writer laps the reader.
///
/// There are no mutexes anywhere on the ingest or query path. The per-node
/// downsampling accumulators (`minute_sum` etc.) are writer-private plain
/// fields: cross-fleet-run handoff between threads is ordered by the
/// ThreadPool job barrier.
///
/// ## Tiers
///
/// `append` feeds three rings per node: raw (every reading), minute
/// (mean per simulated minute), hour (mean per simulated hour). Downsampled
/// entries are stamped with their bucket start time and published when the
/// bucket closes; `flush()` force-closes the open buckets at campaign end.
class TelemetryStore {
 public:
  struct Config {
    std::size_t nodes = 0;
    /// Ring capacities are rounded up to powers of two. Raw keeps the most
    /// recent window (dashboards), the downsampled tiers keep history.
    std::size_t raw_capacity = 256;
    std::size_t minute_capacity = 256;
    std::size_t hour_capacity = 64;
  };

  enum class Tier { kRaw = 0, kMinute = 1, kHour = 2 };

  /// One health reading: campaign time (seconds since campaign start) and
  /// the sensed value.
  struct Reading {
    std::uint32_t t_sec = 0;
    float value = 0.0f;
  };

  /// Fleet-wide latest-health rollup.
  struct FleetHealth {
    float p50 = 0.0f;
    float p95 = 0.0f;
    float max = 0.0f;
    std::size_t nodes_reporting = 0;
  };

  explicit TelemetryStore(const Config& config);

  std::size_t nodes() const { return nodes_.size(); }

  // -- writer API (one writer per node at a time) ---------------------------

  /// Ingest one reading for `node` at campaign time `t_sec`.
  void append(std::size_t node, std::uint32_t t_sec, float value);

  /// Close the open minute/hour buckets of `node` (campaign end).
  void flush(std::size_t node);

  // -- writer ownership (the runtime's single-writer-per-node contract) -----

  /// Claim `node` for writer `writer_id` (any caller-chosen non-~0 id, e.g.
  /// a daemon index). Returns false when another writer holds the claim —
  /// the supervisor uses this to guarantee a crashed daemon's replacement
  /// is the node's *only* writer before it resumes appending. Reclaiming
  /// with the already-owning id succeeds (a restart is a handoff to self).
  bool claim_writer(std::size_t node, std::uint32_t writer_id);

  /// Release `node`'s claim if `writer_id` holds it.
  void release_writer(std::size_t node, std::uint32_t writer_id);

  /// Current owner of `node`, or nullopt when unclaimed.
  std::optional<std::uint32_t> writer_of(std::size_t node) const;

  // -- checkpoint round trip (writer-quiescent, per node) -------------------

  /// Serialize `node`'s complete series state: every ring slot + cursor,
  /// the open downsampling buckets, the latest-reading word, and the append
  /// counter. Bit-exact, so a daemon restarted from this record re-appends
  /// into a store byte-identical to one that never crashed. The node's
  /// writer must be quiescent; concurrent *readers* are fine.
  void save_node(std::size_t node, dsp::ser::Writer& w) const;

  /// Restore `node` from a save_node record (writer-quiescent).
  void load_node(std::size_t node, dsp::ser::Reader& r);

  /// Wipe `node` back to the never-reported state (writer-quiescent) — the
  /// restart-from-scratch path when no checkpoint exists.
  void reset_node(std::size_t node);

  // -- query API (any number of threads, concurrent with ingest) ------------

  /// Most recent reading of `node`; nullopt before its first append.
  std::optional<Reading> latest(std::size_t node) const;

  /// Append every retained `tier` reading of `node` with
  /// t_sec in [t0_sec, t1_sec) to `out` (not cleared); returns the count.
  std::size_t range(std::size_t node, Tier tier, std::uint32_t t0_sec,
                    std::uint32_t t1_sec, std::vector<Reading>& out) const;

  /// Percentiles over the latest reading of every reporting node. `scratch`
  /// is caller-owned so a polling loop allocates only on its first call.
  FleetHealth fleet_percentiles(std::vector<float>& scratch) const;

  /// Total readings ingested across all nodes. Exact when writers are
  /// quiescent; a live snapshot otherwise.
  std::uint64_t total_appends() const;

 private:
  /// Single-writer multi-reader ring of packed readings.
  struct Ring {
    explicit Ring(std::size_t capacity);
    void push(std::uint64_t packed);

    std::vector<std::atomic<std::uint64_t>> slots;
    std::size_t mask = 0;
    std::atomic<std::uint64_t> cursor{0};  // total pushes, published last
  };

  /// Writer-private mean accumulator for one downsampled tier.
  struct Bucket {
    std::uint32_t start_sec = kNoBucket;
    double sum = 0.0;
    std::uint32_t count = 0;
  };

  struct NodeSeries {
    NodeSeries(std::size_t raw_cap, std::size_t min_cap, std::size_t hr_cap)
        : raw(raw_cap), minute(min_cap), hour(hr_cap) {}
    Ring raw;
    Ring minute;
    Ring hour;
    Bucket minute_bucket;
    Bucket hour_bucket;
    std::atomic<std::uint64_t> last{kEmpty};
    std::atomic<std::uint64_t> appends{0};
    std::atomic<std::uint32_t> owner{kNoOwner};
  };

  /// The one field list of save_node/load_node.
  template <class Ar>
  static void io(NodeSeries& n, Ar& ar);

  static constexpr std::uint32_t kNoBucket = 0xffffffffu;
  static constexpr std::uint32_t kNoOwner = 0xffffffffu;
  /// Impossible packed value: t_sec of kNoBucket marks "never reported".
  static constexpr std::uint64_t kEmpty = ~0ull;

  static std::uint64_t pack(std::uint32_t t_sec, float value);
  static Reading unpack(std::uint64_t packed);

  void roll(Bucket& bucket, Ring& ring, std::uint32_t bucket_sec,
            float value);
  const Ring& ring_of(const NodeSeries& n, Tier tier) const;

  std::vector<std::unique_ptr<NodeSeries>> nodes_;
};

}  // namespace ecocap::fleet
