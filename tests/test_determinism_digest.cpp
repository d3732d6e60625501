// Golden event-digest determinism: fixed configurations must dispatch the
// exact event streams pinned below, sweep parallelism must not perturb any
// point's stream, and a sharded run (SimConfig::shards > 1, conservative
// time windows) must reproduce the serial run's stream bit for bit.
//
// The golden values were captured from the engine that still had a
// heap-only scheduler and a separate serial dispatch loop, on which the
// heap and the wheel produced identical digests. They pin the one remaining
// scheduler and the one window driver (serial = one lane) to that stream.
//
// The digest (OpenLoopResult::event_digest, FNV-1a over every dispatched
// event's time, ordering key, and non-pool-slot operands, collected when
// SimConfig::collect_event_digest is set) is order-sensitive: a single
// swapped tie, dropped event, or field change flips it. Equal digests
// therefore certify bit-identical simulations, not merely equal summary
// statistics.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/exchange.h"
#include "sim/experiment.h"
#include "sim/fault.h"
#include "sim/sweep_runner.h"
#include "sim/traffic.h"
#include "topology/mlfm.h"
#include "topology/slim_fly.h"

namespace d2net {
namespace {

SimConfig digest_config(std::uint64_t seed) {
  SimConfig cfg;
  cfg.seed = seed;
  cfg.collect_event_digest = true;
  return cfg;
}

OpenLoopResult run_open(const Topology& topo, RoutingStrategy strategy, double load) {
  SimStack stack(topo, strategy, digest_config(7));
  UniformTraffic uni(topo.num_nodes());
  return stack.run_open_loop(uni, load, us(6), us(1));
}

void expect_identical(const OpenLoopResult& a, const OpenLoopResult& b) {
  ASSERT_GT(a.events_processed, 0);
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.event_digest, b.event_digest);
  EXPECT_EQ(a.packets_injected, b.packets_injected);
  EXPECT_EQ(a.packets_measured, b.packets_measured);
  EXPECT_EQ(a.accepted_throughput, b.accepted_throughput);
  EXPECT_EQ(a.avg_latency_ns, b.avg_latency_ns);
}

void expect_golden(const OpenLoopResult& r, std::int64_t events, std::uint64_t digest) {
  EXPECT_EQ(r.events_processed, events);
  EXPECT_EQ(r.event_digest, digest);
}

TEST(DeterminismDigest, SlimFlyGoldenDigests) {
  const Topology topo = build_slim_fly(5);
  expect_golden(run_open(topo, RoutingStrategy::kMinimal, 0.6), 360423,
                0xac0425e31ab4d70eULL);
  expect_golden(run_open(topo, RoutingStrategy::kUgal, 0.6), 415095,
                0xf9aebac90798b0f1ULL);
}

TEST(DeterminismDigest, MlfmValiantGoldenDigest) {
  const Topology topo = build_mlfm(4);
  expect_golden(run_open(topo, RoutingStrategy::kValiant, 0.5), 229184,
                0x53d943ce52b0a1eaULL);
}

TEST(DeterminismDigest, FaultScheduleGoldenDigest) {
  // Fault application drains VOQs wholesale and reroutes salvaged packets —
  // the busiest burst of same-timestamp events the engine produces.
  const Topology topo = build_slim_fly(5);
  UniformTraffic uni(topo.num_nodes());
  SimConfig cfg = digest_config(11);
  cfg.fault.reroute = true;
  cfg.fault.recovery = FaultRecovery::kSalvage;
  cfg.fault.schedule.push_back(
      {us(2), FaultKind::kLinkDown, topo.links()[0].r1, topo.links()[0].r2});
  cfg.fault.schedule.push_back(
      {us(4), FaultKind::kLinkUp, topo.links()[0].r1, topo.links()[0].r2});
  SimStack stack(topo, RoutingStrategy::kUgal, cfg);
  const OpenLoopResult r = stack.run_open_loop(uni, 0.5, us(6), us(1));
  expect_golden(r, 348404, 0xa739c9adf246aaf7ULL);
  EXPECT_EQ(r.faults.faults_applied, 2);
  EXPECT_EQ(r.faults.packets_dropped, 3);
  EXPECT_EQ(r.faults.reroutes, 22);
}

TEST(DeterminismDigest, ExchangeGoldenDigests) {
  // Exchange runs stop at their last delivery or at the time limit; both
  // stops are pinned, with metrics sampling ticks interleaved as control
  // events.
  const Topology topo = build_slim_fly(5);
  const ExchangePlan plan =
      make_all_to_all_plan(topo.num_nodes(), 512, A2aOrder::kShuffled, 3);
  SimConfig cfg = digest_config(7);
  cfg.metrics.enabled = true;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);

  const ExchangeResult done = stack.run_exchange(plan, us(500));
  EXPECT_TRUE(done.completed);
  EXPECT_DOUBLE_EQ(done.completion_us, 7.03976);
  EXPECT_EQ(done.delivered_bytes, 11443200);
  EXPECT_EQ(stack.sim().events_processed(), 595950);
  EXPECT_EQ(done.event_digest, 0xb57af36cb6fa6826ULL);
  ASSERT_NE(done.metrics, nullptr);
  EXPECT_EQ(done.metrics->occupancy.size(), 7u);

  const ExchangeResult cut = stack.run_exchange(plan, us(1));
  EXPECT_FALSE(cut.completed);
  EXPECT_EQ(cut.delivered_bytes, 699648);
  EXPECT_EQ(stack.sim().events_processed(), 63692);
  EXPECT_EQ(cut.event_digest, 0xaf0bec7bdaa1f537ULL);
  ASSERT_NE(cut.metrics, nullptr);
  EXPECT_EQ(cut.metrics->occupancy.size(), 1u);
}

TEST(DeterminismDigest, DigestOffByDefaultAndSeedSensitive) {
  const Topology topo = build_slim_fly(5);
  UniformTraffic uni(topo.num_nodes());
  SimConfig plain;
  plain.seed = 7;
  SimStack stack(topo, RoutingStrategy::kMinimal, plain);
  EXPECT_EQ(stack.run_open_loop(uni, 0.4, us(4), us(1)).event_digest, 0u);

  const OpenLoopResult a = run_open(topo, RoutingStrategy::kMinimal, 0.6);
  SimStack other(topo, RoutingStrategy::kMinimal, digest_config(8));
  const OpenLoopResult b = other.run_open_loop(uni, 0.6, us(6), us(1));
  EXPECT_NE(a.event_digest, 0u);
  EXPECT_NE(a.event_digest, b.event_digest);
}

OpenLoopResult run_open_sharded(const Topology& topo, RoutingStrategy strategy,
                                double load, int shards) {
  SimConfig cfg = digest_config(7);
  cfg.shards = shards;
  SimStack stack(topo, strategy, cfg);
  UniformTraffic uni(topo.num_nodes());
  return stack.run_open_loop(uni, load, us(6), us(1));
}

TEST(DeterminismDigest, ShardedMatchesSerialAcrossShardCounts) {
  // The core sharding contract: partitioned execution under conservative
  // time windows realizes the exact serial event stream, for any shard
  // count.
  const Topology topo = build_slim_fly(5);
  const OpenLoopResult serial = run_open_sharded(topo, RoutingStrategy::kUgal, 0.6, 1);
  for (const int shards : {2, 4, 7}) {
    const OpenLoopResult sharded =
        run_open_sharded(topo, RoutingStrategy::kUgal, 0.6, shards);
    expect_identical(serial, sharded);
    EXPECT_EQ(serial.avg_hops, sharded.avg_hops);
    EXPECT_EQ(serial.jain_fairness, sharded.jain_fairness);
  }
}

TEST(DeterminismDigest, ShardedFaultScheduleMatchesSerial) {
  // Faults execute on the coordinator between windows: wholesale VOQ
  // drains, credit resyncs and retry backoffs must land exactly where the
  // serial engine puts them.
  const Topology topo = build_slim_fly(5);
  UniformTraffic uni(topo.num_nodes());
  auto run_with_shards = [&](int shards) {
    SimConfig cfg = digest_config(11);
    cfg.shards = shards;
    cfg.fault.reroute = true;
    cfg.fault.recovery = FaultRecovery::kSalvage;
    cfg.fault.schedule.push_back(
        {us(2), FaultKind::kLinkDown, topo.links()[0].r1, topo.links()[0].r2});
    cfg.fault.schedule.push_back(
        {us(3), FaultKind::kLinkDown, topo.links()[7].r1, topo.links()[7].r2});
    cfg.fault.schedule.push_back(
        {us(4), FaultKind::kLinkUp, topo.links()[0].r1, topo.links()[0].r2});
    SimStack stack(topo, RoutingStrategy::kUgal, cfg);
    return stack.run_open_loop(uni, 0.5, us(6), us(1));
  };
  const OpenLoopResult serial = run_with_shards(1);
  const OpenLoopResult sharded = run_with_shards(4);
  expect_identical(serial, sharded);
  EXPECT_GT(serial.faults.faults_applied, 0);
  EXPECT_EQ(serial.faults.packets_dropped, sharded.faults.packets_dropped);
  EXPECT_EQ(serial.faults.packets_retried, sharded.faults.packets_retried);
  EXPECT_EQ(serial.faults.packets_lost, sharded.faults.packets_lost);
  EXPECT_EQ(serial.faults.reroutes, sharded.faults.reroutes);
}

TEST(DeterminismDigest, PropagationBurstGoldenAcrossShards) {
  // The modeled control plane under a fault burst: detection timeouts and
  // hop-by-hop floods are control events carrying (time, okey) order across
  // lanes, so {serial, 2, 4 shards} must realize the pinned event stream
  // bit for bit while routing tables are transiently inconsistent.
  const Topology topo = build_slim_fly(5);
  UniformTraffic uni(topo.num_nodes());
  auto run_with = [&](int shards) {
    SimConfig cfg = digest_config(11);
    cfg.shards = shards;
    cfg.fault.schedule = make_link_burst(topo, us(2), 4, 42, us(2));
    cfg.fault.propagation = true;
    cfg.fault.detection_delay = ns(600);
    cfg.fault.recovery = FaultRecovery::kRetry;
    SimStack stack(topo, RoutingStrategy::kUgal, cfg);
    return stack.run_open_loop(uni, 0.5, us(7), us(1));
  };
  const OpenLoopResult serial = run_with(1);
  expect_golden(serial, 416432, 0x2d8d4d62539ab7f8ULL);
  EXPECT_EQ(serial.faults.convergence.updates, 8);
  EXPECT_EQ(serial.faults.convergence.detections, 16);
  EXPECT_EQ(serial.faults.convergence.flood_messages, 2768);
  for (const int shards : {2, 4}) {
    const OpenLoopResult sharded = run_with(shards);
    expect_identical(serial, sharded);
    const ConvergenceStats& a = serial.faults.convergence;
    const ConvergenceStats& b = sharded.faults.convergence;
    EXPECT_EQ(a.updates, b.updates);
    EXPECT_EQ(a.detections, b.detections);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.flood_messages, b.flood_messages);
    EXPECT_EQ(a.routers_reached, b.routers_reached);
    EXPECT_EQ(a.misroutes, b.misroutes);
    EXPECT_EQ(a.budget_drops, b.budget_drops);
    EXPECT_EQ(a.consistency_time_max, b.consistency_time_max);
    EXPECT_EQ(a.epoch_lag_max, b.epoch_lag_max);
  }
}

TEST(DeterminismDigest, PropagationOffIsDigestIdenticalToOracleFaults) {
  // The inertness contract for this whole subsystem: with propagation off,
  // a faulted run must fold the exact event stream it folded before the
  // control plane existed — same digest, same counts — for serial and
  // sharded execution. The propagation-only config knobs may not leak into
  // the oracle path.
  const Topology topo = build_slim_fly(5);
  UniformTraffic uni(topo.num_nodes());
  auto run_with = [&](int shards, bool touch_knobs) {
    SimConfig cfg = digest_config(11);
    cfg.shards = shards;
    cfg.fault.schedule = make_link_burst(topo, us(2), 3, 9, us(2));
    cfg.fault.propagation = false;
    if (touch_knobs) {
      // Dormant knobs must be dead weight while propagation is off.
      cfg.fault.detection_delay = us(2);
      cfg.fault.flood_process = us(1);
      cfg.fault.misroute_limit = 1;
    }
    SimStack stack(topo, RoutingStrategy::kUgal, cfg);
    return stack.run_open_loop(uni, 0.5, us(7), us(1));
  };
  const OpenLoopResult base = run_with(1, false);
  EXPECT_GT(base.faults.faults_applied, 0);
  EXPECT_EQ(base.faults.convergence.updates, 0);
  expect_identical(base, run_with(1, true));
  expect_identical(base, run_with(4, false));
  expect_identical(base, run_with(4, true));
}

TEST(DeterminismDigest, ShardedArmedUnhitDeadlineMatchesSerial) {
  // An armed wall-clock deadline that never fires must leave the event
  // sequence untouched for one lane and for several (each lane checks the
  // clock once per event stride).
  const Topology topo = build_slim_fly(5);
  UniformTraffic uni(topo.num_nodes());
  auto run_with = [&](int shards) {
    SimConfig cfg = digest_config(7);
    cfg.shards = shards;
    cfg.wall_limit_seconds = 3600.0;  // armed, never hit
    SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
    return stack.run_open_loop(uni, 0.6, us(6), us(1));
  };
  const OpenLoopResult serial = run_with(1);
  const OpenLoopResult sharded = run_with(4);
  EXPECT_FALSE(serial.timed_out);
  EXPECT_FALSE(sharded.timed_out);
  expect_identical(serial, sharded);
}

TEST(DeterminismDigest, SweepDigestsStableAcrossJobs) {
  // Per-point digests are a pure function of (base seed, point index); the
  // thread count and scheduling interleave must not reach any event stream.
  const Topology sf = build_slim_fly(5);
  const Topology ml = build_mlfm(4);
  UniformTraffic uni_sf(sf.num_nodes());
  UniformTraffic uni_ml(ml.num_nodes());

  SweepSeriesSpec a;
  a.label = "sf-min";
  a.topo = &sf;
  a.strategy = RoutingStrategy::kMinimal;
  a.pattern = &uni_sf;
  a.loads = {0.3, 0.6};
  SweepSeriesSpec b;
  b.label = "ml-ugal";
  b.topo = &ml;
  b.strategy = RoutingStrategy::kUgal;
  b.pattern = &uni_ml;
  b.loads = {0.5};

  auto digests_with_jobs = [&](int jobs) {
    SweepRunOptions opts;
    opts.jobs = jobs;
    opts.config = digest_config(21);
    opts.duration = us(5);
    opts.warmup = us(1);
    SweepRunner runner(opts);
    const auto out = runner.run({a, b});
    std::vector<std::uint64_t> digests;
    for (const auto& series : out) {
      for (const SweepPoint& pt : series) {
        EXPECT_NE(pt.result.event_digest, 0u);
        digests.push_back(pt.result.event_digest);
      }
    }
    return digests;
  };

  EXPECT_EQ(digests_with_jobs(1), digests_with_jobs(3));
}

}  // namespace
}  // namespace d2net
