// Flow-level engine (src/flowsim/): water-filling unit behavior, engine
// sanity on tiny topologies, batched-vs-exact recompute agreement,
// flow-vs-packet cross-validation (saturation knee within one load step,
// exchange completion-time ordering), determinism across --jobs, journal
// resume byte-identity, and strict rejection of packet-only
// configuration. See docs/flow_engine.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/error.h"
#include "common/journal.h"
#include "flowsim/flow_sim.h"
#include "flowsim/waterfill.h"
#include "sim/campaign.h"
#include "sim/exchange.h"
#include "sim/experiment.h"
#include "sim/sweep_runner.h"
#include "sim/traffic.h"
#include "topology/mlfm.h"
#include "topology/oft.h"
#include "topology/slim_fly.h"

namespace d2net {
namespace {

namespace fs = std::filesystem;

using flowsim::FlowSim;
using flowsim::FlowTable;
using flowsim::RateChangeSink;
using flowsim::WaterfillScratch;

// Records on_rate_change callbacks into the table like FlowSim does.
struct ApplySink final : RateChangeSink {
  FlowTable* table;
  explicit ApplySink(FlowTable* t) : table(t) {}
  void on_rate_change(int flow, double new_rate) override {
    table->rate[static_cast<std::size_t>(flow)] = new_rate;
  }
};

TEST(Waterfill, LoneFlowRunsAtLineRate) {
  FlowTable t;
  t.reset(4);
  const std::int32_t links[] = {0, 1, 3};
  const int f = t.create(links, 3, 1000.0);
  WaterfillScratch ws;
  ApplySink sink(&t);
  flowsim::waterfill_all(t, ws, sink);
  EXPECT_DOUBLE_EQ(t.rate[static_cast<std::size_t>(f)], 1.0);
}

TEST(Waterfill, TwoFlowsShareABottleneckEvenly) {
  FlowTable t;
  t.reset(5);
  const std::int32_t a[] = {0, 2};
  const std::int32_t b[] = {1, 2};
  const int fa = t.create(a, 2, 1000.0);
  const int fb = t.create(b, 2, 1000.0);
  WaterfillScratch ws;
  ApplySink sink(&t);
  flowsim::waterfill_all(t, ws, sink);
  EXPECT_DOUBLE_EQ(t.rate[static_cast<std::size_t>(fa)], 0.5);
  EXPECT_DOUBLE_EQ(t.rate[static_cast<std::size_t>(fb)], 0.5);
}

TEST(Waterfill, MaxMinUnfreezesSpareCapacity) {
  // Chain f0 -[l0]- f1 -[l1]- f2: link 0 freezes f0 and f1 at 0.5; link 1
  // then has 0.5 left for f2 alone.
  FlowTable t;
  t.reset(2);
  const std::int32_t l0[] = {0};
  const std::int32_t l01[] = {0, 1};
  const std::int32_t l1[] = {1};
  const int f0 = t.create(l0, 1, 1.0);
  const int f1 = t.create(l01, 2, 1.0);
  const int f2 = t.create(l1, 1, 1.0);
  WaterfillScratch ws;
  ApplySink sink(&t);
  flowsim::waterfill_all(t, ws, sink);
  EXPECT_DOUBLE_EQ(t.rate[static_cast<std::size_t>(f0)], 0.5);
  EXPECT_DOUBLE_EQ(t.rate[static_cast<std::size_t>(f1)], 0.5);
  EXPECT_DOUBLE_EQ(t.rate[static_cast<std::size_t>(f2)], 0.5);
}

TEST(Waterfill, AsymmetricChainIsMaxMinNotEqual) {
  // f0..f2 share link 0 (fair 1/3); f3 shares link 1 with f2 only. After
  // link 0 freezes f2 at 1/3, f3 takes the remaining 2/3 — max-min is not
  // global equality.
  FlowTable t;
  t.reset(2);
  const std::int32_t l0[] = {0};
  const std::int32_t l01[] = {0, 1};
  const std::int32_t l1[] = {1};
  const int f0 = t.create(l0, 1, 1.0);
  const int f1 = t.create(l0, 1, 1.0);
  const int f2 = t.create(l01, 2, 1.0);
  const int f3 = t.create(l1, 1, 1.0);
  WaterfillScratch ws;
  ApplySink sink(&t);
  flowsim::waterfill_all(t, ws, sink);
  EXPECT_NEAR(t.rate[static_cast<std::size_t>(f0)], 1.0 / 3, 1e-12);
  EXPECT_NEAR(t.rate[static_cast<std::size_t>(f1)], 1.0 / 3, 1e-12);
  EXPECT_NEAR(t.rate[static_cast<std::size_t>(f2)], 1.0 / 3, 1e-12);
  EXPECT_NEAR(t.rate[static_cast<std::size_t>(f3)], 2.0 / 3, 1e-12);
}

// Two routers, one node each, one link: a lone flow must complete in
// bytes x ps_per_byte (rate 1.0), so flow latency is the serialization
// time and accepted throughput tracks offered load closely.
Topology tiny_pair() {
  Topology t("pair", TopologyKind::kCustom);
  t.add_router({}, 1);
  t.add_router({}, 1);
  t.add_link(0, 1);
  t.finalize();
  return t;
}

TEST(FlowSim, LoneFlowLatencyIsSerializationTime) {
  const Topology topo = tiny_pair();
  SimConfig cfg;
  cfg.engine = SimEngine::kFlow;
  cfg.flow.flow_bytes = 4096;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  const auto shift = make_node_shift(topo.num_nodes(), 1);
  // Low load: flows essentially never overlap, every flow runs alone at
  // rate 1.0 end to end.
  const OpenLoopResult res = stack.run_open_loop(*shift, 0.05, us(200), us(20));
  ASSERT_GT(res.packets_measured, 0);
  const double ser_ns = 4096 * 80 / 1000.0;  // 327.68 ns at 100 Gb/s
  EXPECT_NEAR(res.avg_latency_ns, ser_ns, ser_ns * 0.25);
  EXPECT_NEAR(res.accepted_throughput, 0.05, 0.015);
}

TEST(FlowSim, SaturatedPairDeliversLineRate) {
  const Topology topo = tiny_pair();
  SimConfig cfg;
  cfg.engine = SimEngine::kFlow;
  cfg.flow.flow_bytes = 4096;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  const auto shift = make_node_shift(topo.num_nodes(), 1);
  // Disjoint node pairs at full offered load: the engine must sustain
  // ~line rate (back-to-back flows, no sharing).
  const OpenLoopResult res = stack.run_open_loop(*shift, 1.0, us(200), us(20));
  EXPECT_GT(res.accepted_throughput, 0.9);
}

OpenLoopResult run_point(const Topology& topo, SimEngine eng, double load,
                         TimePs rate_interval = 0) {
  SimConfig cfg;
  cfg.engine = eng;
  cfg.flow.rate_interval = rate_interval;
  SimStack stack(topo, RoutingStrategy::kMinimal, cfg);
  UniformTraffic uni(topo.num_nodes());
  return stack.run_open_loop(uni, load, us(8), us(2));
}

TEST(FlowSim, BatchedRecomputeMatchesExactThroughput) {
  // The batched tick path assigns optimistic estimates and corrects them
  // at tick/pop time; bytes accrue at the actually-assigned rates, so
  // accepted throughput must land on the exact-recompute value (small
  // slack: estimates shift individual completion times across the window
  // edge).
  const Topology topo = build_slim_fly(5);
  for (const double load : {0.3, 0.6}) {
    const OpenLoopResult exact = run_point(topo, SimEngine::kFlow, load, 0);
    const OpenLoopResult batched = run_point(topo, SimEngine::kFlow, load, ns(200));
    EXPECT_NEAR(batched.accepted_throughput, exact.accepted_throughput, 0.03)
        << "load " << load;
  }
}

// Index of the saturation knee on `loads`: the first offered load whose
// accepted throughput falls more than 15% short, or loads.size() if the
// system tracks offered load everywhere. The 15% band absorbs the flow
// model's conservative saturation (max-min rates under the flow-count
// cap deliver a few percent less than packet multiplexing past the knee;
// see docs/flow_engine.md) without masking a shifted knee.
template <typename RunPoint>
std::size_t knee_index(const std::vector<double>& loads, RunPoint&& run) {
  for (std::size_t i = 0; i < loads.size(); ++i) {
    if (run(loads[i]) < 0.85 * loads[i]) return i;
  }
  return loads.size();
}

TEST(FlowVsPacket, SaturationKneeWithinOneLoadStep) {
  // The acceptance cross-validation: on small instances of all three
  // paper families, both engines must place the uniform-traffic MIN
  // saturation knee within one step of each other on a coarse load grid.
  const std::vector<double> loads{0.25, 0.5, 0.75, 1.0};
  const Topology sf = build_slim_fly(5);
  const Topology mlfm = build_mlfm(3);
  const Topology oft = build_oft(4);
  for (const Topology* topo : {&sf, &mlfm, &oft}) {
    const std::size_t kf = knee_index(loads, [&](double l) {
      return run_point(*topo, SimEngine::kFlow, l, ns(200)).accepted_throughput;
    });
    const std::size_t kp = knee_index(loads, [&](double l) {
      return run_point(*topo, SimEngine::kPacket, l).accepted_throughput;
    });
    const std::size_t lo = std::min(kf, kp);
    const std::size_t hi = std::max(kf, kp);
    EXPECT_LE(hi - lo, 1u) << topo->name() << ": flow knee at index " << kf
                           << ", packet knee at index " << kp;
  }
}

TEST(FlowVsPacket, ExchangeCompletionOrderingAgrees) {
  // All-to-all completion times on small SF/MLFM/OFT: the flow engine
  // must rank the three systems the same way the packet engine does
  // (absolute times differ by model — see docs/flow_engine.md).
  const Topology sf = build_slim_fly(5);
  const Topology mlfm = build_mlfm(3);
  const Topology oft = build_oft(4);
  const std::vector<const Topology*> topos{&sf, &mlfm, &oft};
  std::vector<double> flow_us;
  std::vector<double> pkt_us;
  for (const Topology* topo : topos) {
    const ExchangePlan plan = make_all_to_all_plan(topo->num_nodes(), 1024);
    for (const SimEngine eng : {SimEngine::kFlow, SimEngine::kPacket}) {
      SimConfig cfg;
      cfg.engine = eng;
      // Batched ticks: the round-robin plan keeps every message open at
      // once, so exact per-completion recompute would walk the full
      // network-spanning component tens of thousands of times.
      if (eng == SimEngine::kFlow) cfg.flow.rate_interval = ns(200);
      SimStack stack(*topo, RoutingStrategy::kMinimal, cfg);
      const ExchangeResult res = stack.run_exchange(plan, us(40'000));
      ASSERT_TRUE(res.completed) << topo->name();
      (eng == SimEngine::kFlow ? flow_us : pkt_us).push_back(res.completion_us);
    }
  }
  const auto order = [&](const std::vector<double>& v) {
    std::vector<std::size_t> idx{0, 1, 2};
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return v[a] < v[b];
    });
    return idx;
  };
  EXPECT_EQ(order(flow_us), order(pkt_us))
      << "flow: sf=" << flow_us[0] << " mlfm=" << flow_us[1] << " oft=" << flow_us[2]
      << "  pkt: sf=" << pkt_us[0] << " mlfm=" << pkt_us[1] << " oft=" << pkt_us[2];
}

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
  EXPECT_EQ(a.event_digest, b.event_digest);
}

std::vector<SweepSeriesSpec> flow_specs(const Topology& sf, const Topology& oft,
                                        const TrafficPattern& uni_sf,
                                        const TrafficPattern& uni_oft) {
  std::vector<SweepSeriesSpec> specs(3);
  specs[0].label = "SF MIN";
  specs[0].topo = &sf;
  specs[0].strategy = RoutingStrategy::kMinimal;
  specs[0].pattern = &uni_sf;
  specs[0].loads = {0.2, 0.5, 0.9};
  specs[1].label = "SF UGAL";
  specs[1].topo = &sf;
  specs[1].strategy = RoutingStrategy::kUgal;
  specs[1].pattern = &uni_sf;
  specs[1].loads = {0.2, 0.5, 0.9};
  specs[2].label = "OFT INR";
  specs[2].topo = &oft;
  specs[2].strategy = RoutingStrategy::kValiant;
  specs[2].pattern = &uni_oft;
  specs[2].loads = {0.2, 0.5, 0.9};
  return specs;
}

SweepRunOptions flow_opts(std::uint64_t seed) {
  SweepRunOptions opts;
  opts.duration = us(8);
  opts.warmup = us(2);
  opts.config.seed = seed;
  opts.config.engine = SimEngine::kFlow;
  // Batched rate recompute: the 0.9 points sit past the knee, where exact
  // per-event recompute touches a network-spanning bottleneck component.
  opts.config.flow.rate_interval = ns(200);
  opts.config.collect_event_digest = true;
  return opts;
}

TEST(FlowSweep, ParallelJobsMatchSerial) {
  // Flow-engine sweeps under --jobs: every point is an independent
  // simulation, so jobs=4 must reproduce jobs=1 bit-for-bit, event
  // digests included (MIN, UGAL and Valiant cover all route_into paths).
  const Topology sf = build_slim_fly(5);
  const Topology oft = build_oft(4);
  const UniformTraffic uni_sf(sf.num_nodes());
  const UniformTraffic uni_oft(oft.num_nodes());
  const auto specs = flow_specs(sf, oft, uni_sf, uni_oft);

  SweepRunOptions opts = flow_opts(7);
  opts.jobs = 1;
  SweepRunner serial(opts);
  const auto a = serial.run(specs);
  opts.jobs = 4;
  SweepRunner parallel(opts);
  const auto b = parallel.run(specs);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].size(), b[s].size());
    for (std::size_t l = 0; l < a[s].size(); ++l) {
      EXPECT_EQ(a[s][l].offered, b[s][l].offered);
      expect_identical(a[s][l].result, b[s][l].result);
      EXPECT_NE(a[s][l].result.event_digest, 0u);
    }
  }
}

TEST(FlowSweep, KillMidSweepThenResumeIsByteIdentical) {
  // The durability guarantee under --engine flow: a journaled sweep cut
  // off mid-file (torn final line, what SIGKILL leaves) resumes to
  // byte-identical render_point_json output.
  const Topology sf = build_slim_fly(5);
  const Topology oft = build_oft(4);
  const UniformTraffic uni_sf(sf.num_nodes());
  const UniformTraffic uni_oft(oft.num_nodes());
  const auto specs = flow_specs(sf, oft, uni_sf, uni_oft);
  const std::string manifest = "bench=test_flow\nengine=flow\nseed=9\n";

  const auto journal_opts = [&](SweepJournal* journal) {
    SweepRunOptions opts = flow_opts(9);
    opts.jobs = 2;
    opts.journal = journal;
    opts.scope = "sweep";
    opts.serialize = [](std::size_t, const SweepPoint& pt) { return bench::render_point_json(pt); };
    return opts;
  };
  const auto temp_dir = [](const std::string& name) {
    const fs::path dir = fs::path(::testing::TempDir()) / ("d2net_" + name);
    fs::remove_all(dir);
    return dir.string();
  };

  const std::string dir_a = temp_dir("flow_resume_a");
  SweepJournal ja(dir_a, manifest, false);
  SweepRunner full(journal_opts(&ja));
  const auto ref = full.run(specs);

  const std::string dir_b = temp_dir("flow_resume_b");
  {
    SweepJournal jb(dir_b, manifest, false);
    SweepRunner first(journal_opts(&jb));
    first.run(specs);
  }
  const fs::path jpath = fs::path(dir_b) / "journal.jsonl";
  std::vector<std::string> lines;
  {
    std::ifstream in(jpath);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 9u);
  {
    std::ofstream out(jpath, std::ios::trunc);
    out << lines[0] << "\n" << lines[1] << "\n" << lines[2] << "\n";
    out << "{\"key\": \"sweep#3\", \"lab";  // torn final line, no newline
  }

  SweepJournal jb(dir_b, manifest, true);
  EXPECT_EQ(jb.loaded_points(), 3u);
  SweepRunner resumed(journal_opts(&jb));
  const auto res = resumed.run(specs);
  EXPECT_EQ(resumed.stats().restored_points, 3);

  ASSERT_EQ(res.size(), ref.size());
  for (std::size_t s = 0; s < ref.size(); ++s) {
    ASSERT_EQ(res[s].size(), ref[s].size());
    for (std::size_t l = 0; l < ref[s].size(); ++l) {
      EXPECT_EQ(bench::render_point_json(res[s][l]),
                bench::render_point_json(ref[s][l]))
          << "series " << s << " point " << l;
    }
  }
}

TEST(FlowValidation, RejectsPacketOnlyFeaturesUpFront) {
  const Topology topo = build_slim_fly(5);

  SimConfig fault_cfg;
  fault_cfg.engine = SimEngine::kFlow;
  fault_cfg.fault.schedule.push_back(FaultEvent{us(1), FaultKind::kLinkDown, 0, 1});
  EXPECT_THROW(SimStack(topo, RoutingStrategy::kMinimal, fault_cfg), ArgumentError);

  SimConfig metrics_cfg;
  metrics_cfg.engine = SimEngine::kFlow;
  metrics_cfg.metrics.enabled = true;
  EXPECT_THROW(SimStack(topo, RoutingStrategy::kMinimal, metrics_cfg), ArgumentError);

  SimConfig shards_cfg;
  shards_cfg.engine = SimEngine::kFlow;
  shards_cfg.shards = 2;
  EXPECT_THROW(SimStack(topo, RoutingStrategy::kMinimal, shards_cfg), ArgumentError);

  SimConfig bad_knobs;
  bad_knobs.engine = SimEngine::kFlow;
  bad_knobs.flow.flow_bytes = 0;
  EXPECT_THROW(SimStack(topo, RoutingStrategy::kMinimal, bad_knobs), ArgumentError);
}

std::string parse_error(const std::string& text) {
  try {
    parse_campaign_spec(text, "spec");
  } catch (const ArgumentError& e) {
    return e.what();
  }
  return {};
}

TEST(FlowValidation, CampaignEngineKeyIsStrict) {
  // Unknown engine tokens are located, and engine=flow refuses fault
  // schedules with the offending spec path.
  EXPECT_NE(parse_error(R"({"name": "t", "engine": "quantum",
      "systems": [{"label": "S", "topology": "sf:q=5"}],
      "sweeps": [{"title": "u", "loads": [0.5],
                  "series": [{"routing": "min"}]}]})")
                .find("$.engine"),
            std::string::npos);
  const std::string err = parse_error(R"({"name": "t", "engine": "flow",
      "systems": [{"label": "S", "topology": "sf:q=5"}],
      "sweeps": [{"title": "u", "loads": [0.5],
                  "fault": {"frac": 0.1},
                  "series": [{"routing": "min"}]}]})");
  EXPECT_NE(err.find("$.sweeps[0].fault"), std::string::npos) << err;
  EXPECT_NE(err.find("flow engine"), std::string::npos) << err;

  // The same spec without the fault block parses and carries the engine.
  const CampaignSpec ok = parse_campaign_spec(R"({"name": "t", "engine": "flow",
      "systems": [{"label": "S", "topology": "sf:q=5"}],
      "sweeps": [{"title": "u", "loads": [0.5],
                  "series": [{"routing": "min"}]}]})");
  ASSERT_TRUE(ok.engine.has_value());
  EXPECT_EQ(*ok.engine, SimEngine::kFlow);
}

}  // namespace
}  // namespace d2net
