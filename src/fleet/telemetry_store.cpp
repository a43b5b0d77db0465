#include "fleet/telemetry_store.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "dsp/serialize.hpp"

namespace ecocap::fleet {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t cap = 1;
  while (cap < n) cap <<= 1;
  return cap;
}

}  // namespace

TelemetryStore::Ring::Ring(std::size_t capacity)
    : slots(round_up_pow2(std::max<std::size_t>(capacity, 1))),
      mask(slots.size() - 1) {}

void TelemetryStore::Ring::push(std::uint64_t packed) {
  const std::uint64_t c = cursor.load(std::memory_order_relaxed);
  slots[c & mask].store(packed, std::memory_order_relaxed);
  // Publish: readers that acquire the new cursor see the slot store.
  cursor.store(c + 1, std::memory_order_release);
}

TelemetryStore::TelemetryStore(const Config& config) {
  if (config.nodes == 0) {
    throw std::invalid_argument("TelemetryStore: nodes must be > 0");
  }
  nodes_.reserve(config.nodes);
  for (std::size_t i = 0; i < config.nodes; ++i) {
    nodes_.push_back(std::make_unique<NodeSeries>(
        config.raw_capacity, config.minute_capacity, config.hour_capacity));
  }
}

std::uint64_t TelemetryStore::pack(std::uint32_t t_sec, float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return (static_cast<std::uint64_t>(t_sec) << 32) | bits;
}

TelemetryStore::Reading TelemetryStore::unpack(std::uint64_t packed) {
  Reading r;
  r.t_sec = static_cast<std::uint32_t>(packed >> 32);
  const auto bits = static_cast<std::uint32_t>(packed & 0xffffffffu);
  std::memcpy(&r.value, &bits, sizeof(r.value));
  return r;
}

void TelemetryStore::roll(Bucket& bucket, Ring& ring, std::uint32_t bucket_sec,
                          float value) {
  if (bucket.start_sec != bucket_sec) {
    if (bucket.start_sec != kNoBucket && bucket.count > 0) {
      const auto mean = static_cast<float>(
          bucket.sum / static_cast<double>(bucket.count));
      ring.push(pack(bucket.start_sec, mean));
    }
    bucket.start_sec = bucket_sec;
    bucket.sum = 0.0;
    bucket.count = 0;
  }
  bucket.sum += static_cast<double>(value);
  ++bucket.count;
}

void TelemetryStore::append(std::size_t node, std::uint32_t t_sec,
                            float value) {
  NodeSeries& n = *nodes_[node];
  n.raw.push(pack(t_sec, value));
  n.last.store(pack(t_sec, value), std::memory_order_release);
  roll(n.minute_bucket, n.minute, t_sec - t_sec % 60, value);
  roll(n.hour_bucket, n.hour, t_sec - t_sec % 3600, value);
  n.appends.fetch_add(1, std::memory_order_relaxed);
}

void TelemetryStore::flush(std::size_t node) {
  NodeSeries& n = *nodes_[node];
  const auto close = [](Bucket& bucket, Ring& ring) {
    if (bucket.start_sec != kNoBucket && bucket.count > 0) {
      const auto mean = static_cast<float>(
          bucket.sum / static_cast<double>(bucket.count));
      ring.push(pack(bucket.start_sec, mean));
    }
    bucket = Bucket{};
  };
  close(n.minute_bucket, n.minute);
  close(n.hour_bucket, n.hour);
}

std::optional<TelemetryStore::Reading> TelemetryStore::latest(
    std::size_t node) const {
  const std::uint64_t packed =
      nodes_[node]->last.load(std::memory_order_acquire);
  if (packed == kEmpty) return std::nullopt;
  return unpack(packed);
}

const TelemetryStore::Ring& TelemetryStore::ring_of(const NodeSeries& n,
                                                    Tier tier) const {
  switch (tier) {
    case Tier::kMinute:
      return n.minute;
    case Tier::kHour:
      return n.hour;
    case Tier::kRaw:
    default:
      return n.raw;
  }
}

std::size_t TelemetryStore::range(std::size_t node, Tier tier,
                                  std::uint32_t t0_sec, std::uint32_t t1_sec,
                                  std::vector<Reading>& out) const {
  const Ring& ring = ring_of(*nodes_[node], tier);
  const std::uint64_t c = ring.cursor.load(std::memory_order_acquire);
  const std::uint64_t cap = ring.slots.size();
  const std::uint64_t n = std::min(c, cap);
  std::size_t matched = 0;
  for (std::uint64_t i = c - n; i < c; ++i) {
    const Reading r =
        unpack(ring.slots[i & ring.mask].load(std::memory_order_relaxed));
    if (r.t_sec >= t0_sec && r.t_sec < t1_sec) {
      out.push_back(r);
      ++matched;
    }
  }
  return matched;
}

TelemetryStore::FleetHealth TelemetryStore::fleet_percentiles(
    std::vector<float>& scratch) const {
  scratch.clear();
  for (const auto& n : nodes_) {
    const std::uint64_t packed = n->last.load(std::memory_order_acquire);
    if (packed != kEmpty) scratch.push_back(unpack(packed).value);
  }
  FleetHealth h;
  h.nodes_reporting = scratch.size();
  if (scratch.empty()) return h;
  const auto nth = [&](double q) {
    const auto k = static_cast<std::size_t>(
        q * static_cast<double>(scratch.size() - 1) + 0.5);
    std::nth_element(scratch.begin(),
                     scratch.begin() + static_cast<std::ptrdiff_t>(k),
                     scratch.end());
    return scratch[k];
  };
  h.p50 = nth(0.5);
  h.p95 = nth(0.95);
  h.max = *std::max_element(scratch.begin(), scratch.end());
  return h;
}

std::uint64_t TelemetryStore::total_appends() const {
  std::uint64_t total = 0;
  for (const auto& n : nodes_) {
    total += n->appends.load(std::memory_order_relaxed);
  }
  return total;
}

bool TelemetryStore::claim_writer(std::size_t node, std::uint32_t writer_id) {
  if (writer_id == kNoOwner) {
    throw std::invalid_argument("TelemetryStore: reserved writer id");
  }
  std::uint32_t expected = kNoOwner;
  std::atomic<std::uint32_t>& owner = nodes_[node]->owner;
  return owner.compare_exchange_strong(expected, writer_id,
                                       std::memory_order_acq_rel) ||
         expected == writer_id;
}

void TelemetryStore::release_writer(std::size_t node, std::uint32_t writer_id) {
  std::uint32_t expected = writer_id;
  nodes_[node]->owner.compare_exchange_strong(expected, kNoOwner,
                                              std::memory_order_acq_rel);
}

std::optional<std::uint32_t> TelemetryStore::writer_of(std::size_t node) const {
  const std::uint32_t o = nodes_[node]->owner.load(std::memory_order_acquire);
  if (o == kNoOwner) return std::nullopt;
  return o;
}

template <class Ar>
void TelemetryStore::io(NodeSeries& n, Ar& ar) {
  const auto ring = [&ar](const std::string& key, Ring& r) {
    std::uint64_t cursor = r.cursor.load(std::memory_order_acquire);
    ar.field(key + ".cursor", cursor);
    std::vector<std::uint64_t> slots;
    slots.reserve(r.slots.size());
    for (const auto& s : r.slots) {
      slots.push_back(s.load(std::memory_order_relaxed));
    }
    // Loaded slots land before the cursor that publishes them.
    ar.value(key + ".slots", slots, [&](const auto& loaded) {
      if (loaded.size() != r.slots.size()) {
        throw std::runtime_error(
            "checkpoint: telemetry ring capacity mismatch");
      }
      for (std::size_t i = 0; i < loaded.size(); ++i) {
        r.slots[i].store(loaded[i], std::memory_order_relaxed);
      }
      r.cursor.store(cursor, std::memory_order_release);
    });
  };
  ring("ts.raw", n.raw);
  ring("ts.minute", n.minute);
  ring("ts.hour", n.hour);
  const auto bucket = [&ar](const std::string& key, Bucket& b) {
    ar.field(key + ".start", b.start_sec);
    ar.field(key + ".sum", b.sum);
    ar.field(key + ".count", b.count);
  };
  bucket("ts.mb", n.minute_bucket);
  bucket("ts.hb", n.hour_bucket);
  ar.value("ts.last", n.last.load(std::memory_order_acquire),
           [&](auto v) { n.last.store(v, std::memory_order_release); });
  ar.value("ts.appends", n.appends.load(std::memory_order_relaxed),
           [&](auto v) { n.appends.store(v, std::memory_order_relaxed); });
}

void TelemetryStore::save_node(std::size_t node, dsp::ser::Writer& w) const {
  io(*nodes_[node], w);
}

void TelemetryStore::load_node(std::size_t node, dsp::ser::Reader& r) {
  io(*nodes_[node], r);
}

void TelemetryStore::reset_node(std::size_t node) {
  NodeSeries& n = *nodes_[node];
  const auto wipe = [](Ring& ring) {
    for (auto& s : ring.slots) s.store(0, std::memory_order_relaxed);
    ring.cursor.store(0, std::memory_order_release);
  };
  wipe(n.raw);
  wipe(n.minute);
  wipe(n.hour);
  n.minute_bucket = Bucket{};
  n.hour_bucket = Bucket{};
  n.last.store(kEmpty, std::memory_order_release);
  n.appends.store(0, std::memory_order_relaxed);
}

}  // namespace ecocap::fleet
