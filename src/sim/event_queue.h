// Discrete-event core: a time-ordered queue with a deterministic FIFO
// tie-break so identical seeds replay identical packet traces.
//
// The structure is a two-level bucketed near-future wheel in front of an
// implicit 4-ary min-heap (calendar/ladder-queue style). Level 1 is a ring
// of 64 buckets of 2^12 ps (~4 ns) each; level 2 is a ring of 64 buckets of
// 2^18 ps (~262 ns, exactly one full L1 span) each; events beyond the
// ~16.8 us L2 horizon overflow into the heap, whose shallow tree and
// hole-based sifts (one Event moved per level) keep the rare far-future
// pushes cheap. Pops consume a sorted "active bucket"; pushes are O(1) ring
// appends except for the rare push earlier than the L1 window (into the
// active bucket's span or before it), which goes to a small "early" heap
// that pop() merges with the active bucket, O(log n) per push. Run start
// takes that path: each node's first kGenerate lands at a random time, and
// every one before the first push's bucket is an early push. Nearly every
// event a saturated simulation schedules (serialization ends, head
// eligibility, credit returns) lands within a few L1 buckets of `now`, so
// steady-state cost is a ring append plus an amortized small sort instead
// of an O(log n) sift.
// Measured setup-inclusive at SF q=7 and q=13, the wheel beat a heap-only
// queue in every pair (docs/perf.md).
//
// pop() always returns the minimum pending event in (time, okey, seq)
// order — exactly what a reference priority queue would return, which
// tests/test_sweep_runner.cpp checks on random streams. The okey (ordering
// key) ranks same-time events by a content-derived identity instead of raw
// insertion order, which makes the realized order independent of *where*
// an event was pushed from — the property sharded execution needs so that
// cross-shard arrivals delivered at a window barrier sort exactly where the
// serial engine would have placed them (see docs/sharded_sim.md). Two
// distinct pending events never tie on (time, okey) in-bounds (the key
// packs the event's full identity), so seq only orders byte-identical
// duplicates, whose relative order cannot matter.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/units.h"

namespace d2net {

enum class EventType : std::uint8_t {
  kGenerate,        ///< a = node: open-loop packet generation tick
  kNicFree,         ///< a = node: injection link finished serializing
  kArriveRouter,    ///< a = packet, b = router, c = in_port, d = vc
  kHeadEligible,    ///< a = router, b = in_port, c = vc
  kChannelFree,     ///< a = router, b = out_port
  kCreditToRouter,  ///< a = router, b = out_port, c = vc, d = bytes
  kCreditToNic,     ///< a = node, c = vc, d = bytes
  kArriveNode,      ///< a = packet, b = node
  /// Read-only buffer-occupancy sampling tick (metrics enabled only).
  /// Mutates nothing but the metric sinks and is excluded from
  /// events_processed, so enabling metrics cannot perturb a run.
  kMetricsSample,
  /// a = index into the sorted fault schedule (faults enabled only).
  kFault,
  /// a = packet: source re-injection attempt after a fault drop.
  kRetryInject,
  /// No-progress check tick. Like kMetricsSample it reads counters only,
  /// never touches the RNG and is excluded from events_processed, so the
  /// always-on watchdog cannot perturb a healthy run.
  kWatchdog,
  /// a = router, d = fault-schedule index (fault.propagation only): the
  /// router's missed-credit timeout fires and it learns about an attached
  /// fault, then originates a link-state flood. Control-plane event: runs
  /// in serialized steps when sharded, exactly like kFault.
  kFaultDetect,
  /// a = router, d = fault-schedule index (fault.propagation only): a
  /// flooded link-state update reaches the router. Operands b and c are
  /// deliberately zero — duplicate deliveries of the same update at the
  /// same time fold identically into the digest regardless of arrival
  /// (seq) order, whatever neighbor sent them.
  kFloodArrive,
};

struct Event {
  TimePs time = 0;
  /// Content-derived ordering key: primary tie-break at equal times (see
  /// pack_event_okey / the file comment). High byte is the EventType.
  std::uint64_t okey = 0;
  std::uint64_t seq = 0;  ///< insertion order; final FIFO tie-break
  EventType type{};
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;
  std::int32_t d = 0;
};

/// Ordering key for events whose operands are stable entity identities
/// (everything except the packet-carrying kinds, whose `a` is a pool slot):
/// type:8 | a:22 | b:12 | c:4 | d:18. NetworkSim enforces these widths when
/// sharding; a serial run with out-of-range operands merely aliases keys and
/// falls back to the (still deterministic) seq tie-break.
inline std::uint64_t pack_event_okey(EventType type, std::int32_t a, std::int32_t b,
                                     std::int32_t c, std::int32_t d) {
  return (static_cast<std::uint64_t>(type) << 56) |
         ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) & 0x3FFFFFu) << 34) |
         ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(b)) & 0xFFFu) << 22) |
         ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(c)) & 0xFu) << 18) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(d)) & 0x3FFFFu);
}

/// Ordering key for packet-carrying events (kArriveRouter, kArriveNode,
/// kRetryInject): the packet's pool-independent uid replaces the operand
/// pack, so the key survives migration between per-shard pools.
inline std::uint64_t pack_packet_okey(EventType type, std::uint64_t uid) {
  return (static_cast<std::uint64_t>(type) << 56) | (uid & 0x00FFFFFFFFFFFFFFull);
}

class EventQueue {
 public:
  /// Convenience push for identity-operand events (computes the okey).
  void push(TimePs time, EventType type, std::int32_t a = 0, std::int32_t b = 0,
            std::int32_t c = 0, std::int32_t d = 0) {
    push_keyed(time, pack_event_okey(type, a, b, c, d), type, a, b, c, d);
  }

  void push_keyed(TimePs time, std::uint64_t okey, EventType type, std::int32_t a = 0,
                  std::int32_t b = 0, std::int32_t c = 0, std::int32_t d = 0) {
    const Event e{time, okey, next_seq_++, type, a, b, c, d};
    ++size_;
    if (size_ == 1) reanchor(time);
    if (time < l1_start_) {
      // Lands in (or before) the active bucket: the early heap, which pop()
      // merges with the unconsumed tail. An event that would sort before
      // already-consumed entries (a same-time push with a smaller okey than
      // the event being dispatched) is popped next — exactly where a
      // priority queue would surface it, since every already-consumed entry
      // was the minimum of the pending set when it was popped.
      push_heap(early_, e);
    } else if (time < l1_limit_) {
      const std::size_t b1 = l1_bucket(time);
      l1_[b1].push_back(e);
      l1_mask_ |= std::uint64_t{1} << b1;
    } else if (time < l2_start_ + kL2Span) {
      const std::size_t b2 = l2_bucket(time);
      l2_[b2].push_back(e);
      l2_mask_ |= std::uint64_t{1} << b2;
    } else {
      push_heap(heap_, e);
    }
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  Event pop() {
    D2NET_HOT_ASSERT(size_ > 0, "pop() on empty EventQueue");
    --size_;
    if (head_is_early()) return pop_heap(early_);
    return cur_[cur_pos_++];
  }

  /// Earliest pending event time. Non-const because the wheel may need to
  /// surface the next bucket first (pure scheduling work, no observable
  /// state change).
  TimePs next_time() {
    D2NET_HOT_ASSERT(size_ > 0, "next_time() on empty EventQueue");
    return head_is_early() ? early_.front().time : cur_[cur_pos_].time;
  }

  /// The event pop() would return next, without removing it (the sharded
  /// coordinator's serialized-timestamp step interleaves several queues by
  /// comparing heads). Same const caveat as next_time().
  const Event& peek() {
    D2NET_HOT_ASSERT(size_ > 0, "peek() on empty EventQueue");
    return head_is_early() ? early_.front() : cur_[cur_pos_];
  }

  /// Pre-sizes the backing stores (one sim reuses the queue across runs).
  void reserve(std::size_t n) {
    heap_.reserve(n);
    // At saturation one L1 bucket holds a small slice of the pending set;
    // reserve a fraction so early runs do not grow buckets one push at a
    // time.
    const std::size_t per_bucket = std::max<std::size_t>(n / (kL1Buckets * 4), 8);
    cur_.reserve(per_bucket * 2);
    for (auto& b : l1_) b.reserve(per_bucket);
  }

  /// Event slots the overflow heap holds before reallocating (what
  /// reserve() sized). Exposed through EngineCapacities.
  std::size_t reserved() const { return heap_.capacity(); }

  /// Drops all pending events but keeps the allocated capacity and the
  /// monotone sequence counter (seq only ever breaks same-time ties, so
  /// continuing it across runs cannot change any ordering).
  void clear() {
    heap_.clear();
    early_.clear();
    cur_.clear();
    cur_pos_ = 0;
    if (l1_mask_ != 0) {
      for (auto& b : l1_) b.clear();
      l1_mask_ = 0;
    }
    if (l2_mask_ != 0) {
      for (auto& b : l2_) b.clear();
      l2_mask_ = 0;
    }
    l1_start_ = l1_limit_ = l2_start_ = 0;
    size_ = 0;
  }

 private:
  static constexpr std::size_t kArity = 4;

  // Wheel geometry: W2 == kL1Buckets * W1 so expanding one L2 bucket fills
  // exactly one full L1 ring span.
  static constexpr int kL1Shift = 12;  ///< W1 = 2^12 ps ~ 4 ns
  static constexpr int kL2Shift = 18;  ///< W2 = 2^18 ps ~ 262 ns
  static constexpr std::size_t kL1Buckets = 64;
  static constexpr std::size_t kL2Buckets = 64;
  static constexpr TimePs kW1 = TimePs{1} << kL1Shift;
  static constexpr TimePs kW2 = TimePs{1} << kL2Shift;
  static constexpr TimePs kL2Span = kW2 * static_cast<TimePs>(kL2Buckets);
  static_assert(kW2 == kW1 * static_cast<TimePs>(kL1Buckets));

  static bool before(const Event& x, const Event& y) {
    if (x.time != y.time) return x.time < y.time;
    if (x.okey != y.okey) return x.okey < y.okey;
    return x.seq < y.seq;
  }

  static std::size_t l1_bucket(TimePs t) {
    return static_cast<std::size_t>(t >> kL1Shift) & (kL1Buckets - 1);
  }
  static std::size_t l2_bucket(TimePs t) {
    return static_cast<std::size_t>(t >> kL2Shift) & (kL2Buckets - 1);
  }

  /// First set ring position at or after `from` (ring order), or npos.
  static std::size_t next_set_bit(std::uint64_t mask, std::size_t from) {
    const std::uint64_t rotated = std::rotr(mask, static_cast<int>(from));
    if (rotated == 0) return static_cast<std::size_t>(-1);
    return (from + static_cast<std::size_t>(std::countr_zero(rotated))) % 64;
  }

  // --- heap primitives for the overflow and early heaps (hole-based
  // sifts: one Event moved per level) ---

  static void push_heap(std::vector<Event>& heap, const Event& e) {
    heap.push_back(e);
    std::size_t i = heap.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!before(e, heap[parent])) break;
      heap[i] = heap[parent];
      i = parent;
    }
    heap[i] = e;
  }

  static Event pop_heap(std::vector<Event>& heap) {
    const Event top = heap.front();
    const Event last = heap.back();
    heap.pop_back();
    const std::size_t n = heap.size();
    if (n > 0) {
      std::size_t i = 0;
      for (;;) {
        const std::size_t first = kArity * i + 1;
        if (first >= n) break;
        const std::size_t end = std::min(first + kArity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < end; ++c) {
          if (before(heap[c], heap[best])) best = c;
        }
        if (!before(heap[best], last)) break;
        heap[i] = heap[best];
        i = best;
      }
      heap[i] = last;
    }
    return top;
  }

  // --- wheel machinery ---

  /// Surfaces the earliest pending event: true when it is early_.front(),
  /// false when it is cur_[cur_pos_]. Early events precede everything in
  /// the rings and the overflow heap (they were pushed below a window start
  /// that only moves forward), so the wheel advances only when early_ is
  /// empty.
  bool head_is_early() {
    if (!early_.empty() && (cur_pos_ >= cur_.size() || before(early_.front(), cur_[cur_pos_]))) {
      return true;
    }
    if (cur_pos_ >= cur_.size()) advance();
    return false;
  }

  /// Re-anchors the (empty) wheel windows around the first pending time.
  void reanchor(TimePs t) {
    cur_.clear();
    cur_pos_ = 0;
    l1_start_ = (t >> kL1Shift) << kL1Shift;
    l1_limit_ = ((t >> kL2Shift) + 1) << kL2Shift;
    l2_start_ = l1_limit_;
  }

  /// Makes cur_[cur_pos_] the globally earliest pending event. Called only
  /// with size_ accounting for at least one pending event.
  void advance() {
    for (;;) {
      if (l1_mask_ != 0) {
        const std::size_t b = next_set_bit(l1_mask_, l1_bucket(l1_start_));
        D2NET_HOT_ASSERT(b != static_cast<std::size_t>(-1), "l1 mask empty");
        cur_.clear();
        cur_.swap(l1_[b]);
        cur_pos_ = 0;
        l1_mask_ &= ~(std::uint64_t{1} << b);
        // The consumed bucket's absolute start: ring position b at or after
        // l1_start_ within the (≤ one span) L1 window.
        const std::size_t from = l1_bucket(l1_start_);
        const std::size_t steps = (b + kL1Buckets - from) % kL1Buckets;
        l1_start_ += static_cast<TimePs>(steps + 1) * kW1;
        std::sort(cur_.begin(), cur_.end(), before);
        return;
      }
      l1_start_ = l1_limit_;  // L1 empty: its window closes at the L2 boundary
      if (l2_mask_ != 0) {
        const std::size_t b = next_set_bit(l2_mask_, l2_bucket(l2_start_));
        D2NET_HOT_ASSERT(b != static_cast<std::size_t>(-1), "l2 mask empty");
        std::vector<Event>& bucket = l2_[b];
        l2_mask_ &= ~(std::uint64_t{1} << b);
        const std::size_t from = l2_bucket(l2_start_);
        const std::size_t steps = (b + kL2Buckets - from) % kL2Buckets;
        const TimePs bucket_start = l2_start_ + static_cast<TimePs>(steps) * kW2;
        // Expand this W2 region across the L1 ring, then slide the L2
        // window past it and pull any heap events the wider window now
        // covers.
        l1_start_ = bucket_start;
        l1_limit_ = bucket_start + kW2;
        for (const Event& e : bucket) {
          const std::size_t b1 = l1_bucket(e.time);
          l1_[b1].push_back(e);
          l1_mask_ |= std::uint64_t{1} << b1;
        }
        bucket.clear();
        l2_start_ = l1_limit_;
        drain_heap_into_l2();
        continue;
      }
      // Both rings empty: re-anchor at the heap's earliest event.
      D2NET_HOT_ASSERT(!heap_.empty(), "advance() with no pending events");
      reanchor(heap_.front().time);
      drain_heap_into_l2_and_l1();
    }
  }

  void drain_heap_into_l2() {
    const TimePs limit = l2_start_ + kL2Span;
    while (!heap_.empty() && heap_.front().time < limit) {
      const Event e = pop_heap(heap_);
      const std::size_t b2 = l2_bucket(e.time);
      l2_[b2].push_back(e);
      l2_mask_ |= std::uint64_t{1} << b2;
    }
  }

  void drain_heap_into_l2_and_l1() {
    while (!heap_.empty() && heap_.front().time < l1_limit_) {
      const Event e = pop_heap(heap_);
      const std::size_t b1 = l1_bucket(e.time);
      l1_[b1].push_back(e);
      l1_mask_ |= std::uint64_t{1} << b1;
    }
    drain_heap_into_l2();
  }

  std::size_t size_ = 0;
  std::vector<Event> heap_;
  std::vector<Event> early_;  ///< min-heap of pushes below l1_start_
  std::uint64_t next_seq_ = 0;

  // Wheel state. cur_ is the sorted active bucket with consume index
  // cur_pos_; the L1 ring covers [l1_start_, l1_limit_), the L2 ring
  // [l2_start_, l2_start_ + kL2Span), the heap everything beyond.
  std::vector<Event> cur_;
  std::size_t cur_pos_ = 0;
  std::array<std::vector<Event>, kL1Buckets> l1_{};
  std::array<std::vector<Event>, kL2Buckets> l2_{};
  std::uint64_t l1_mask_ = 0;
  std::uint64_t l2_mask_ = 0;
  TimePs l1_start_ = 0;
  TimePs l1_limit_ = 0;
  TimePs l2_start_ = 0;
};

}  // namespace d2net
