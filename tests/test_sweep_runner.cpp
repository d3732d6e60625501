// Parallel sweep infrastructure tests: the thread pool, the event queue
// (wheel plus overflow heap), per-point seed derivation, and — the core guarantee — that a
// serial (jobs=1) and a parallel (jobs=4) sweep over the small paper
// configurations produce identical results.
#include <gtest/gtest.h>

#include <atomic>
#include <queue>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "sim/event_queue.h"
#include "sim/sweep_runner.h"
#include "sim/traffic.h"
#include "topology/mlfm.h"
#include "topology/oft.h"
#include "topology/slim_fly.h"

namespace d2net {
namespace {

// ------------------------------------------------------------ thread pool

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversEachIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int ran = 0;
  pool.parallel_for(0, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran, 0);
  std::atomic<int> one{0};
  pool.parallel_for(1, [&](std::size_t) { one.fetch_add(1); });
  EXPECT_EQ(one.load(), 1);
}

TEST(ThreadPool, HardwareConcurrencyAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_concurrency(), 1);
}

TEST(ThreadPool, TaskExceptionSurfacesOnWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([] { throw std::runtime_error("task 7 exploded"); });
  // Later tasks still run: one bad task must not tear down its worker.
  for (int i = 0; i < 20; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_THROW(
      {
        try {
          pool.wait_idle();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "task 7 exploded");
          throw;
        }
      },
      std::runtime_error);
  EXPECT_EQ(ran.load(), 20);
  // The error is cleared on rethrow; the pool remains usable.
  pool.submit([&ran] { ran.fetch_add(1); });
  EXPECT_NO_THROW(pool.wait_idle());
  EXPECT_EQ(ran.load(), 21);
}

TEST(ThreadPool, OnlyFirstOfManyExceptionsIsKept) {
  ThreadPool pool(1);  // single worker => deterministic task order
  pool.submit([] { throw std::runtime_error("first"); });
  pool.submit([] { throw std::runtime_error("second"); });
  try {
    pool.wait_idle();
    FAIL() << "wait_idle must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ThreadPool, ParallelForPropagatesBodyException) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      if (i == 13) throw std::runtime_error("body 13 failed");
      ran.fetch_add(1);
    });
    FAIL() << "parallel_for must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "body 13 failed");
  }
  // All other indices still executed despite the failure.
  EXPECT_EQ(ran.load(), 63);
}

// ----------------------------------------- event queue (wheel + overflow heap)

struct RefEvent {
  TimePs time;
  std::uint64_t okey;
  std::uint64_t seq;
  bool operator>(const RefEvent& o) const {
    if (time != o.time) return time > o.time;
    if (okey != o.okey) return okey > o.okey;
    return seq > o.seq;
  }
};

/// Drives an EventQueue and a std::priority_queue in lock step; every pop
/// must agree with the reference on the full (time, okey, seq) order.
class QueueChecker {
 public:
  void push(TimePs time, std::uint64_t okey) {
    q_.push_keyed(time, okey, EventType::kNicFree);
    ref_.push({time, okey, seq_++});
  }
  RefEvent pop() {
    const RefEvent want = ref_.top();
    ref_.pop();
    EXPECT_EQ(q_.next_time(), want.time);
    EXPECT_EQ(q_.peek().seq, want.seq);
    const Event got = q_.pop();
    EXPECT_EQ(got.time, want.time);
    EXPECT_EQ(got.okey, want.okey);
    EXPECT_EQ(got.seq, want.seq);
    return want;
  }
  void drain() {
    while (!ref_.empty() && !::testing::Test::HasFailure()) pop();
    EXPECT_TRUE(q_.empty());
  }
  /// clear() keeps the sequence counter running, so the mirror does too.
  void clear() {
    q_.clear();
    ref_ = {};
    EXPECT_TRUE(q_.empty());
  }
  bool empty() const { return ref_.empty(); }
  std::size_t size() const { return ref_.size(); }

 private:
  EventQueue q_;
  std::priority_queue<RefEvent, std::vector<RefEvent>, std::greater<>> ref_;
  std::uint64_t seq_ = 0;
};

// Wheel geometry (sim/event_queue.h): L1 buckets of 2^12 ps spanning 2^18
// ps, L2 buckets of 2^18 ps spanning the 2^24 ps (~16.8 us) horizon; later
// events overflow into the heap.
constexpr TimePs kL1Span = TimePs{1} << 18;
constexpr TimePs kHorizon = TimePs{1} << 24;

TEST(EventQueue, MatchesReferenceOnRandomStress) {
  // Arbitrary interleaving with times that also land before already
  // popped ones: the queue is a priority queue, not only a monotone one.
  QueueChecker q;
  Rng rng(99);
  for (int round = 0; round < 2000 && !HasFailure(); ++round) {
    const int pushes = 1 + static_cast<int>(rng.next_below(8));
    for (int i = 0; i < pushes; ++i) {
      q.push(static_cast<TimePs>(rng.next_below(1 << 16)), rng.next_below(4));
    }
    const int pops = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(pushes) + 1));
    for (int i = 0; i < pops && !q.empty(); ++i) q.pop();
  }
  q.drain();
}

TEST(EventQueue, MatchesReferenceOnSimulatorShapedStream) {
  // Time advances with the pops, as in the engine. Pushes land in the L1
  // ring, the L2 ring, beyond the horizon (heap overflow), or at exactly
  // the current time with a smaller okey than the event just popped (the
  // early heap, popped before the rest of the draining bucket). Periodic full
  // drains followed by sparse far pushes make the wheel re-anchor from the
  // overflow heap.
  QueueChecker q;
  Rng rng(7);
  for (int i = 0; i < 64; ++i) q.push(static_cast<TimePs>(rng.next_below(kL1Span)), 100);
  for (int round = 0; round < 20000 && !HasFailure(); ++round) {
    if (q.empty()) q.push(static_cast<TimePs>(rng.next_below(kHorizon)), 100);
    const RefEvent cur = q.pop();
    const int pushes = static_cast<int>(rng.next_below(3));
    for (int i = 0; i < pushes; ++i) {
      const std::uint64_t pick = rng.next_below(20);
      if (pick == 0 && cur.okey > 0) {
        q.push(cur.time, rng.next_below(cur.okey));
        continue;
      }
      TimePs dt = 0;
      if (pick < 12) {
        dt = static_cast<TimePs>(rng.next_below(kL1Span));
      } else if (pick < 17) {
        dt = static_cast<TimePs>(rng.next_below(kHorizon));
      } else {
        dt = kHorizon + static_cast<TimePs>(rng.next_below(4 * kHorizon));
      }
      q.push(cur.time + dt, 1 + rng.next_below(200));
    }
    if (round % 2500 == 2499) {
      // Drain, then leave only events more than one horizon apart: each
      // pop empties both rings and the wheel re-anchors at the heap front.
      q.drain();
      for (int k = 1; k <= 20; ++k) {
        q.push(cur.time + 2 * k * kHorizon + static_cast<TimePs>(rng.next_below(kL1Span)),
               100);
      }
    }
  }
  q.drain();
}

TEST(EventQueue, DescendingBurstMatchesReference) {
  // Run-start shape: once the wheel is anchored, a burst of pushes lands
  // earlier and earlier, below the L1 window (the early heap). Popping one
  // event of a dense bucket first makes that bucket active, so the burst
  // lands both inside its span (interleaving with its unconsumed tail) and
  // before it. Repeated times exercise the okey and seq tie-breaks.
  QueueChecker q;
  Rng rng(5);
  const TimePs base = TimePs{1} << 20;
  for (int i = 0; i < 64; ++i) {
    q.push(base + static_cast<TimePs>(rng.next_below(4096)), rng.next_below(4));
  }
  q.pop();
  for (int i = 0; i <= 4096; ++i) {
    const TimePs t = base + 4095 - static_cast<TimePs>(i) * 97;
    q.push(t, static_cast<std::uint64_t>(i % 3));
    if (i % 512 == 0) q.push(t, 1);
  }
  for (int round = 0; round < 3000 && !HasFailure(); ++round) {
    const RefEvent cur = q.pop();
    if (round % 3 == 0) {
      q.push(cur.time + static_cast<TimePs>(rng.next_below(kL1Span)), rng.next_below(4));
    }
    if (round % 7 == 0) q.push(cur.time, 0);
  }
  q.drain();
}

TEST(EventQueue, ClearWithWheelHalfFull) {
  // clear() with events in the active bucket, both rings and the heap must
  // leave a queue that orders fresh pushes correctly, including ones far
  // earlier than the cleared contents.
  QueueChecker q;
  Rng rng(3);
  const TimePs base = 5 * kHorizon;
  for (int i = 0; i < 400; ++i) {
    q.push(base + static_cast<TimePs>(rng.next_below(3 * kHorizon)), rng.next_below(8));
  }
  for (int i = 0; i < 150; ++i) q.pop();
  ASSERT_FALSE(q.empty());
  q.clear();
  for (int i = 0; i < 300; ++i) {
    q.push(static_cast<TimePs>(rng.next_below(2 * kHorizon)), rng.next_below(8));
  }
  for (int i = 0; i < 100; ++i) q.pop();
  for (int i = 0; i < 100; ++i) {
    q.push(base + static_cast<TimePs>(rng.next_below(kHorizon)), rng.next_below(8));
  }
  q.drain();
}

TEST(EventQueue, NextTimeAndPopThrowOnEmpty) {
  // Empty-queue misuse is guarded by D2NET_HOT_ASSERT: fatal only in
  // Debug/sanitizer builds (undefined in Release, where the engine's
  // queue_.empty() checks make the calls unreachable).
#if defined(D2NET_DEBUG_ASSERTS) || !defined(NDEBUG)
  EventQueue q;
  EXPECT_THROW(q.next_time(), InternalError);
  EXPECT_THROW(q.pop(), InternalError);
  q.push(5, EventType::kNicFree, 0);
  EXPECT_EQ(q.next_time(), 5);
#else
  EventQueue q;
  q.push(5, EventType::kNicFree, 0);
  EXPECT_EQ(q.next_time(), 5);
#endif
}

TEST(EventQueue, ClearKeepsFifoTieBreakMonotone) {
  EventQueue q;
  q.push(10, EventType::kNicFree, 1);
  q.clear();
  EXPECT_TRUE(q.empty());
  // seq continues across clear(): ties still pop in insertion order.
  q.push(7, EventType::kNicFree, 2);
  q.push(7, EventType::kNicFree, 3);
  EXPECT_EQ(q.pop().a, 2);
  EXPECT_EQ(q.pop().a, 3);
}

// -------------------------------------------------------- seed derivation

TEST(SeedDerivation, DeterministicAndDecorrelated) {
  // Stable across calls.
  EXPECT_EQ(derive_point_seed(1, 0), derive_point_seed(1, 0));
  // Distinct per point and per base seed.
  EXPECT_NE(derive_point_seed(1, 0), derive_point_seed(1, 1));
  EXPECT_NE(derive_point_seed(1, 0), derive_point_seed(2, 0));
  // Adjacent base seeds do not collide across nearby indices (the classic
  // base+index trap where (seed 1, point 2) == (seed 2, point 1)).
  for (std::uint64_t a = 0; a < 8; ++a) {
    for (std::uint64_t b = 0; b < 8; ++b) {
      if (a == b) continue;
      for (std::uint64_t i = 0; i < 8; ++i) {
        for (std::uint64_t j = 0; j < 8; ++j) {
          EXPECT_NE(derive_point_seed(a, i), derive_point_seed(b, j));
        }
      }
    }
  }
}

// ----------------------------------------------- serial/parallel identity

void expect_identical(const OpenLoopResult& a, const OpenLoopResult& b) {
  EXPECT_EQ(a.accepted_throughput, b.accepted_throughput);
  EXPECT_EQ(a.avg_latency_ns, b.avg_latency_ns);
  EXPECT_EQ(a.p50_latency_ns, b.p50_latency_ns);
  EXPECT_EQ(a.p99_latency_ns, b.p99_latency_ns);
  EXPECT_EQ(a.packets_measured, b.packets_measured);
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.avg_hops, b.avg_hops);
  EXPECT_EQ(a.fraction_minimal, b.fraction_minimal);
  EXPECT_EQ(a.jain_fairness, b.jain_fairness);
}

TEST(SweepRunner, ParallelMatchesSerialAcrossSystems) {
  // Small SF / MLFM / OFT instances, mixed routing, short runs: enough
  // points to exercise real interleaving under jobs=4.
  const Topology sf = build_slim_fly(5);
  const Topology mlfm = build_mlfm(3);
  const Topology oft = build_oft(4);
  const UniformTraffic uni_sf(sf.num_nodes());
  const UniformTraffic uni_mlfm(mlfm.num_nodes());
  const UniformTraffic uni_oft(oft.num_nodes());
  const std::vector<double> loads{0.2, 0.5, 0.9};

  std::vector<SweepSeriesSpec> specs;
  auto add = [&](const Topology& topo, const TrafficPattern& pat, RoutingStrategy s,
                 const char* label) {
    SweepSeriesSpec spec;
    spec.label = label;
    spec.topo = &topo;
    spec.strategy = s;
    spec.pattern = &pat;
    spec.loads = loads;
    specs.push_back(std::move(spec));
  };
  add(sf, uni_sf, RoutingStrategy::kMinimal, "SF MIN");
  add(sf, uni_sf, RoutingStrategy::kUgal, "SF UGAL");
  add(mlfm, uni_mlfm, RoutingStrategy::kMinimal, "MLFM MIN");
  add(mlfm, uni_mlfm, RoutingStrategy::kValiant, "MLFM INR");
  add(oft, uni_oft, RoutingStrategy::kMinimal, "OFT MIN");
  add(oft, uni_oft, RoutingStrategy::kUgal, "OFT UGAL");

  SweepRunOptions opts;
  opts.duration = us(4);
  opts.warmup = us(1);
  opts.config.seed = 42;

  opts.jobs = 1;
  SweepRunner serial(opts);
  const auto a = serial.run(specs);
  EXPECT_EQ(serial.stats().points, static_cast<std::int64_t>(specs.size() * loads.size()));
  EXPECT_GT(serial.stats().events, 0);

  opts.jobs = 4;
  SweepRunner parallel(opts);
  const auto b = parallel.run(specs);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].size(), b[s].size());
    for (std::size_t l = 0; l < a[s].size(); ++l) {
      EXPECT_EQ(a[s][l].offered, b[s][l].offered);
      expect_identical(a[s][l].result, b[s][l].result);
    }
  }
  // The two runs dispatched the same events, so the aggregate matches too.
  EXPECT_EQ(serial.stats().events, parallel.stats().events);
}

TEST(SweepRunner, RerunIsIdenticalAndSeedSensitive) {
  const Topology oft = build_oft(4);
  const UniformTraffic uni(oft.num_nodes());
  SweepSeriesSpec spec;
  spec.label = "OFT MIN";
  spec.topo = &oft;
  spec.strategy = RoutingStrategy::kMinimal;
  spec.pattern = &uni;
  spec.loads = {0.5};

  SweepRunOptions opts;
  opts.duration = us(4);
  opts.warmup = us(1);
  opts.config.seed = 7;
  opts.jobs = 2;
  const auto a = run_load_sweep_parallel(spec, opts);
  const auto b = run_load_sweep_parallel(spec, opts);
  expect_identical(a[0].result, b[0].result);

  opts.config.seed = 8;
  const auto c = run_load_sweep_parallel(spec, opts);
  EXPECT_NE(a[0].result.packets_injected, c[0].result.packets_injected);
}

TEST(SweepRunner, SharedTableMatchesPerStackTable) {
  const Topology sf = build_slim_fly(5);
  const auto table = std::make_shared<const MinimalTable>(sf);
  SimConfig cfg;
  cfg.seed = 11;
  const UniformTraffic uni(sf.num_nodes());

  SimStack own(sf, RoutingStrategy::kMinimal, cfg);
  SimStack shared(sf, table, RoutingStrategy::kMinimal, cfg);
  const auto a = own.run_open_loop(uni, 0.5, us(4), us(1));
  const auto b = shared.run_open_loop(uni, 0.5, us(4), us(1));
  expect_identical(a, b);
}

TEST(SweepRunner, RejectsMismatchedTable) {
  const Topology sf = build_slim_fly(5);
  const Topology oft = build_oft(4);
  const auto wrong = std::make_shared<const MinimalTable>(oft);
  SimConfig cfg;
  EXPECT_THROW(SimStack(sf, wrong, RoutingStrategy::kMinimal, cfg), ArgumentError);
  EXPECT_THROW(SimStack(sf, nullptr, RoutingStrategy::kMinimal, cfg), ArgumentError);
}

}  // namespace
}  // namespace d2net
