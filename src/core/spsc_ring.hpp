#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ecocap::core {

/// What a bounded ring does when a push meets a full buffer. The policy is
/// the caller's (per push), not the ring's: one ring can serve a blocking
/// data plane and a lossy telemetry plane at once.
enum class Overflow {
  /// Refuse the push (the caller spins/yields until there is room, for
  /// streams where losing an element is not acceptable).
  kBlock,
  /// Evict the oldest unconsumed element to make room; the push always
  /// succeeds. Keeps the *newest* data under overload (telemetry,
  /// heartbeats) at bounded memory.
  kDropOldest,
  /// Discard the pushed element; the ring keeps the oldest data.
  kDropNewest,
};

/// Lock-free single-producer/single-consumer ring buffer — the runtime
/// layer's daemon -> supervisor telemetry queues (runtime::DaemonSupervisor's
/// per-daemon event rings).
///
/// Concurrency contract:
///  * exactly one thread calls push-side methods (the producer) and exactly
///    one thread calls try_pop (the consumer); the two may run concurrently;
///  * every slot carries its own publication sequence (Vyukov bounded-queue
///    protocol): the producer writes the element and release-stores the
///    slot's sequence; a consumer that acquires the sequence sees the whole
///    element — a popped element is never torn;
///  * the head cursor is CAS-advanced, which is what makes the kDropOldest
///    policy safe: when the ring is full the *producer* may claim the
///    oldest slot exactly as a consumer would, racing the real consumer on
///    the CAS; whichever side wins consumes the element, the other retries.
///    With only kBlock/kDropNewest pushes the CAS is uncontended and the
///    ring behaves like the classic two-cursor SPSC queue;
///  * `close()` poisons the ring: subsequent pushes fail, pops drain the
///    remaining elements and then keep failing. Spin loops must check
///    `closed()` so a thread blocked on a full (or empty) ring exits when
///    its peer dies instead of spinning forever — the shutdown contract
///    the supervisor's kBlock event pushes rely on at teardown.
///
/// The cursors live on their own cache lines (`alignas(64)`) so the
/// producer's tail stores and the consumer's head stores do not false-share.
/// Capacity is rounded up to a power of two; cursors are free-running
/// 64-bit counters masked into the slot array (no wrap-around ambiguity,
/// full and empty are distinguishable without a sacrificial slot).
template <typename T>
class SpscRing {
 public:
  /// @param min_capacity elements the ring must hold; rounded up to a
  ///        power of two (>= 2). Throws std::invalid_argument on 0.
  explicit SpscRing(std::size_t min_capacity) {
    if (min_capacity == 0) {
      throw std::invalid_argument("SpscRing: capacity must be > 0");
    }
    std::size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    slots_ = std::vector<Slot>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < cap; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return mask_ + 1; }

  /// Producer side: move `v` into the ring. Returns false (and leaves `v`
  /// unmoved) when the ring is full or closed.
  bool try_push(T&& v) {
    if (closed_.load(std::memory_order_acquire)) return false;
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    Slot& slot = slots_[t & mask_];
    if (slot.seq.load(std::memory_order_acquire) != t) return false;  // full
    slot.value = std::move(v);
    slot.seq.store(t + 1, std::memory_order_release);
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }

  bool try_push(const T& v) {
    T copy = v;
    return try_push(std::move(copy));
  }

  /// Producer side, policy form. Returns the number of elements *lost* by
  /// this call (0 or 1) so the caller's drop accounting stays exact:
  ///  * kBlock — behaves like try_push; a full ring loses nothing but the
  ///    push may not have happened (check with the return of pushed());
  ///    prefer try_push + an explicit spin for that case;
  ///  * kDropOldest — evicts the oldest unconsumed element when full, then
  ///    pushes; returns 1 when an eviction happened;
  ///  * kDropNewest — discards `v` when full and returns 1.
  /// A push on a closed ring discards `v` and returns 1 under either drop
  /// policy (the element is lost either way; the producer should stop).
  std::size_t push(T&& v, Overflow policy) {
    std::size_t dropped = 0;
    for (;;) {
      if (try_push(std::move(v))) return dropped;
      if (closed_.load(std::memory_order_acquire) ||
          policy == Overflow::kDropNewest) {
        return dropped + 1;
      }
      if (policy == Overflow::kBlock) return dropped;  // caller spins
      T evicted;
      if (try_pop(evicted)) ++dropped;  // lost race with the consumer: fine
    }
  }

  /// Consumer side: move the oldest element into `out`. Returns false when
  /// the ring is empty (drained, if closed).
  bool try_pop(T& out) {
    std::uint64_t h = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[h & mask_];
      const std::uint64_t s = slot.seq.load(std::memory_order_acquire);
      const auto dif =
          static_cast<std::int64_t>(s) - static_cast<std::int64_t>(h + 1);
      if (dif == 0) {
        // Claim the slot; an eviction-mode producer may race us here.
        if (head_.compare_exchange_weak(h, h + 1,
                                        std::memory_order_relaxed)) {
          out = std::move(slot.value);
          slot.seq.store(h + capacity(), std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // empty
      } else {
        h = head_.load(std::memory_order_relaxed);  // lost a race; reread
      }
    }
  }

  /// Poison the ring: wake both sides out of their spin loops. Idempotent;
  /// either side (or a supervisor) may call it.
  void close() { closed_.store(true, std::memory_order_release); }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Approximate occupancy; exact when producer and consumer are quiescent.
  std::size_t size() const {
    const std::uint64_t t = tail_.load(std::memory_order_acquire);
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    return t > h ? static_cast<std::size_t>(t - h) : 0;
  }

  bool empty() const { return size() == 0; }
  bool full() const { return size() >= capacity(); }

 private:
  /// One element plus its publication sequence (Vyukov protocol):
  ///   seq == index                 -> slot free, producer may write
  ///   seq == index + 1             -> slot published, consumer may read
  ///   seq == index + capacity      -> slot consumed, free for the next lap
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  /// Producer cache line: the tail cursor it publishes.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  /// Consumer cache line (shared with eviction-mode producers via CAS).
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<bool> closed_{false};
};

}  // namespace ecocap::core
