// Tests for minimal tables, Valiant, UGAL and the deadlock-freedom (CDG)
// obligations of Section 3 of the paper.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <queue>
#include <vector>

#include "common/rng.h"
#include "routing/cdg.h"
#include "routing/factory.h"
#include "routing/minimal_routing.h"
#include "routing/minimal_table.h"
#include "routing/ugal_routing.h"
#include "routing/valiant_routing.h"
#include "topology/dragonfly.h"
#include "topology/fat_tree.h"
#include "topology/hyperx.h"
#include "topology/mlfm.h"
#include "topology/oft.h"
#include "topology/slim_fly.h"
#include "topology/topology.h"

namespace d2net {
namespace {

/// Checks that `route` is a contiguous walk on the topology.
void expect_valid_walk(const Topology& topo, const Route& r) {
  ASSERT_GE(r.routers.size(), 2u);
  ASSERT_EQ(r.vcs.size(), r.routers.size() - 1);
  for (std::size_t i = 0; i + 1 < r.routers.size(); ++i) {
    EXPECT_TRUE(topo.connected(r.routers[i], r.routers[i + 1]))
        << r.routers[i] << "->" << r.routers[i + 1];
  }
}

// ----------------------------------------------------------- MinimalTable

TEST(MinimalTable, DistancesMatchDiameterTwo) {
  const Topology topo = build_slim_fly(5);
  const MinimalTable table(topo);
  EXPECT_EQ(table.diameter(), 2);
  for (int a = 0; a < topo.num_routers(); ++a) {
    EXPECT_EQ(table.distance(a, a), 0);
    for (int b : topo.neighbors(a)) EXPECT_EQ(table.distance(a, b), 1);
  }
}

TEST(MinimalTable, SampledPathsAreMinimalWalks) {
  const Topology topo = build_oft(4);
  const MinimalTable table(topo);
  Rng rng(1);
  for (int trial = 0; trial < 500; ++trial) {
    const int a = static_cast<int>(rng.next_below(topo.num_routers()));
    const int b = static_cast<int>(rng.next_below(topo.num_routers()));
    if (a == b) continue;
    const auto path = table.sample_path(a, b, rng);
    EXPECT_EQ(static_cast<int>(path.size()) - 1, table.distance(a, b));
    EXPECT_EQ(path.front(), a);
    EXPECT_EQ(path.back(), b);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      EXPECT_TRUE(topo.connected(path[i], path[i + 1]));
    }
  }
}

TEST(MinimalTable, EnumerationMatchesPathCounts) {
  const int h = 3;
  const Topology topo = build_mlfm(h);
  const MinimalTable table(topo);
  std::vector<std::vector<int>> paths;
  // Same-column LR pair: h paths.
  table.enumerate_paths(mlfm_lr_id(h, 0, 1), mlfm_lr_id(h, 1, 1), paths);
  EXPECT_EQ(static_cast<int>(paths.size()), h);
  paths.clear();
  // Cross-column LR pair: exactly 1 path.
  table.enumerate_paths(mlfm_lr_id(h, 0, 1), mlfm_lr_id(h, 1, 2), paths);
  EXPECT_EQ(paths.size(), 1u);
}

// ------------------------------------------- MinimalTable vs BFS oracle

/// The straightforward construction the bitset build replaced, kept as the
/// reference: one queue BFS per source over the admitted directed links,
/// then next hops gathered per pair as the admitted neighbors v of a (in
/// neighbors() order, parallel links repeated) with dist(v, b) ==
/// dist(a, b) - 1.
struct ReferenceTable {
  int n = 0;
  std::vector<int> dist;
  std::vector<std::vector<int>> next_hops;

  ReferenceTable(const Topology& topo, const LinkFilter& alive) : n(topo.num_routers()) {
    const auto admits = [&](int a, int b) { return alive == nullptr || alive(a, b); };
    const auto at = [this](int a, int b) {
      return static_cast<std::size_t>(a) * static_cast<std::size_t>(n) +
             static_cast<std::size_t>(b);
    };
    dist.assign(at(n, 0), -1);
    for (int s = 0; s < n; ++s) {
      std::queue<int> q;
      dist[at(s, s)] = 0;
      q.push(s);
      while (!q.empty()) {
        const int u = q.front();
        q.pop();
        for (int v : topo.neighbors(u)) {
          if (dist[at(s, v)] < 0 && admits(u, v)) {
            dist[at(s, v)] = dist[at(s, u)] + 1;
            q.push(v);
          }
        }
      }
    }
    next_hops.resize(at(n, 0));
    for (int a = 0; a < n; ++a) {
      for (int b = 0; b < n; ++b) {
        const int d = dist[at(a, b)];
        if (d <= 0) continue;
        for (int v : topo.neighbors(a)) {
          if (admits(a, v) && dist[at(v, b)] == d - 1) next_hops[at(a, b)].push_back(v);
        }
      }
    }
  }
};

/// Asserts the table equals the reference over all ordered pairs:
/// distance, diameter, unreachable pairs and ordered next-hop sequences.
void expect_matches_reference(const Topology& topo, const LinkFilter& alive,
                              const MinimalTable& table) {
  const ReferenceTable ref(topo, alive);
  const int n = ref.n;
  ASSERT_EQ(table.num_routers(), n);
  int diameter = 0;
  std::int64_t unreachable = 0;
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      const std::size_t i = static_cast<std::size_t>(a) * static_cast<std::size_t>(n) +
                            static_cast<std::size_t>(b);
      ASSERT_EQ(table.distance(a, b), ref.dist[i])
          << topo.name() << ": distance at (" << a << ", " << b << ")";
      const auto got = table.next_hops(a, b);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), ref.next_hops[i].begin(),
                             ref.next_hops[i].end()))
          << topo.name() << ": next hops at (" << a << ", " << b << ")";
      diameter = std::max(diameter, ref.dist[i]);
      unreachable += ref.dist[i] < 0 ? 1 : 0;
    }
  }
  EXPECT_EQ(table.diameter(), diameter) << topo.name();
  EXPECT_EQ(table.unreachable_pairs(), unreachable) << topo.name();
}

/// 70 routers (two bitset words per row) on a ring with a chord every
/// tenth router and a parallel 0-1 link: diameter well above two, and a
/// pair whose next-hop sequence repeats a neighbor.
Topology ring_with_chords() {
  Topology t("ring70", TopologyKind::kCustom);
  const int n = 70;
  for (int r = 0; r < n; ++r) t.add_router({}, 1);
  for (int r = 0; r < n; ++r) t.add_link(r, (r + 1) % n);
  for (int r = 0; r < n; r += 10) t.add_link(r, (r + 35) % n);
  t.add_link(0, 1);
  t.finalize();
  return t;
}

TEST(MinimalTableOracle, HealthyTablesMatchBfsOnEveryFamily) {
  const std::vector<Topology> topologies = [] {
    std::vector<Topology> v;
    v.push_back(build_slim_fly(5));
    v.push_back(build_slim_fly(7));
    v.push_back(build_slim_fly(13));
    v.push_back(build_mlfm(3));
    v.push_back(build_mlfm(4));
    v.push_back(build_oft(4));
    v.push_back(build_oft(5));
    v.push_back(build_hyperx2d_balanced(12));
    v.push_back(build_dragonfly_balanced(7));
    v.push_back(build_fat_tree2(8));
    v.push_back(build_fat_tree3(4));
    v.push_back(ring_with_chords());
    return v;
  }();
  for (const Topology& topo : topologies) {
    SCOPED_TRACE(topo.name());
    expect_matches_reference(topo, nullptr, MinimalTable(topo));
  }
}

TEST(MinimalTableOracle, ParallelLinkRepeatsTheNextHop) {
  const Topology topo = ring_with_chords();
  const MinimalTable table(topo);
  const auto nh = table.next_hops(0, 1);
  ASSERT_EQ(nh.size(), 2u);
  EXPECT_EQ(nh[0], 1);
  EXPECT_EQ(nh[1], 1);
}

TEST(MinimalTableOracle, FilteredRebuildsMatchBfs) {
  const Topology sf = build_slim_fly(7);
  const int u = sf.links()[5].r1;
  const int v = sf.links()[5].r2;
  const int dead = 11;
  const Topology ring = ring_with_chords();

  struct Case {
    const char* name;
    const Topology* topo;
    LinkFilter alive;
  };
  const std::vector<Case> cases = {
      {"single cut", &sf,
       [=](int a, int b) { return !((a == u && b == v) || (a == v && b == u)); }},
      {"dead router", &sf, [=](int a, int b) { return a != dead && b != dead; }},
      {"asymmetric cut", &sf, [=](int a, int b) { return !(a == u && b == v); }},
      // No chord touches routers 1..4, so cutting 0-1 (both parallel
      // copies) and 4-5 separates them from the rest.
      {"disconnecting cut", &ring,
       [](int a, int b) {
         const auto is = [&](int x, int y) { return (a == x && b == y) || (a == y && b == x); };
         return !(is(0, 1) || is(4, 5));
       }},
      {"parallel link, one direction", &ring, [](int a, int b) { return !(a == 1 && b == 0); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    MinimalTable table(*c.topo);
    table.rebuild(*c.topo, c.alive);
    expect_matches_reference(*c.topo, c.alive, table);
  }
  MinimalTable split(ring);
  split.rebuild(ring, cases[3].alive);
  EXPECT_LT(split.distance(0, 2), 0);
  EXPECT_TRUE(split.next_hops(0, 2).empty());
  EXPECT_EQ(split.unreachable_pairs(), 2 * 4 * 66);
}

TEST(MinimalTableOracle, OffsetOverflowFailsWithRoutersAndCount) {
  EXPECT_EQ(checked_next_hop_entries(UINT32_MAX, 9), UINT32_MAX);
  try {
    checked_next_hop_entries(std::uint64_t{UINT32_MAX} + 1, 4321);
    FAIL() << "expected ArgumentError";
  } catch (const ArgumentError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("minimal_table.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("R = 4321"), std::string::npos) << what;
    EXPECT_NE(what.find("4294967296"), std::string::npos) << what;
  }
}

// --------------------------------------------------------------- Minimal

class RoutingOnTopologies : public ::testing::TestWithParam<int> {
 protected:
  Topology make_topo() const {
    switch (GetParam()) {
      case 0: return build_slim_fly(5);
      case 1: return build_mlfm(4);
      default: return build_oft(4);
    }
  }
};

TEST_P(RoutingOnTopologies, MinimalRoutesAreShortest) {
  const Topology topo = make_topo();
  const MinimalTable table(topo);
  MinimalRouting algo(table, vc_policy_for(topo.kind()));
  Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    const int a = static_cast<int>(rng.next_below(topo.num_routers()));
    const int b = static_cast<int>(rng.next_below(topo.num_routers()));
    if (a == b) continue;
    const Route r = algo.route(a, b, rng);
    expect_valid_walk(topo, r);
    EXPECT_EQ(r.hops(), table.distance(a, b));
    EXPECT_TRUE(r.minimal());
  }
}

TEST_P(RoutingOnTopologies, ValiantRoutesAreTwoMinimalSegments) {
  const Topology topo = make_topo();
  const MinimalTable table(topo);
  ValiantRouting algo(table, vc_policy_for(topo.kind()), valiant_intermediates(topo));
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    const int a = static_cast<int>(rng.next_below(topo.num_routers()));
    const int b = static_cast<int>(rng.next_below(topo.num_routers()));
    if (a == b) continue;
    const Route r = algo.route(a, b, rng);
    expect_valid_walk(topo, r);
    ASSERT_GE(r.intermediate_pos, 1);
    ASSERT_LT(r.intermediate_pos, static_cast<int>(r.routers.size()));
    const int via = r.routers[r.intermediate_pos];
    EXPECT_NE(via, a);
    EXPECT_NE(via, b);
    EXPECT_EQ(r.intermediate_pos, table.distance(a, via));
    EXPECT_EQ(r.hops() - r.intermediate_pos, table.distance(via, b));
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, RoutingOnTopologies, ::testing::Values(0, 1, 2));

TEST(Valiant, IndirectTopologiesUseOnlyEdgeIntermediates) {
  const Topology topo = build_oft(4);
  const MinimalTable table(topo);
  ValiantRouting algo(table, VcPolicy::kPhase, valiant_intermediates(topo));
  Rng rng(3);
  for (int trial = 0; trial < 500; ++trial) {
    const Route r = algo.route(0, 5, rng);
    const int via = r.routers[r.intermediate_pos];
    EXPECT_GT(topo.endpoints_of(via), 0) << "intermediate must host endpoints";
    // Section 3.2: indirect MLFM/OFT routes have exactly 4 hops.
    EXPECT_EQ(r.hops(), 4);
  }
}

TEST(Valiant, SlimFlyIndirectLengths2To4) {
  const Topology topo = build_slim_fly(5);
  const MinimalTable table(topo);
  ValiantRouting algo(table, VcPolicy::kHopIndex, valiant_intermediates(topo));
  Rng rng(5);
  for (int trial = 0; trial < 500; ++trial) {
    const Route r = algo.route(1, 40, rng);
    EXPECT_GE(r.hops(), 2);
    EXPECT_LE(r.hops(), 4);
  }
}

// -------------------------------------------------------------------- VCs

TEST(VcPolicy, HopIndexAssignsIncreasingVcs) {
  Route r;
  r.routers = {1, 2, 3, 4, 5};
  r.intermediate_pos = 2;
  assign_vcs(r, VcPolicy::kHopIndex);
  EXPECT_EQ(std::vector<std::uint8_t>(r.vcs.begin(), r.vcs.end()),
            (std::vector<std::uint8_t>{0, 1, 2, 3}));
}

TEST(VcPolicy, PhasePolicySplitsAtIntermediate) {
  Route r;
  r.routers = {1, 2, 3, 4, 5};
  r.intermediate_pos = 2;
  assign_vcs(r, VcPolicy::kPhase);
  EXPECT_EQ(std::vector<std::uint8_t>(r.vcs.begin(), r.vcs.end()),
            (std::vector<std::uint8_t>{0, 0, 1, 1}));
  Route m;
  m.routers = {1, 2, 3};
  m.intermediate_pos = -1;
  assign_vcs(m, VcPolicy::kPhase);
  EXPECT_EQ(std::vector<std::uint8_t>(m.vcs.begin(), m.vcs.end()),
            (std::vector<std::uint8_t>{0, 0}));
}

// ------------------------------------------------------------------- UGAL

/// Load provider scripted per (router, next hop).
class ScriptedLoads final : public PortLoadProvider {
 public:
  std::int64_t output_queue_bytes(int router, int next) const override {
    auto it = loads_.find({router, next});
    return it == loads_.end() ? 0 : it->second;
  }
  std::int64_t output_queue_capacity() const override { return 1000; }
  void set(int router, int next, std::int64_t bytes) { loads_[{router, next}] = bytes; }

 private:
  std::map<std::pair<int, int>, std::int64_t> loads_;
};

TEST(Ugal, PrefersMinimalOnEmptyNetwork) {
  const Topology topo = build_mlfm(4);
  const MinimalTable table(topo);
  ZeroLoadProvider loads;
  UgalParams params = default_ugal_params(topo.kind(), false);
  UgalRouting algo(table, VcPolicy::kPhase, valiant_intermediates(topo), params, loads, "t");
  Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    const Route r = algo.route(0, 7, rng);
    EXPECT_TRUE(r.minimal());
    EXPECT_EQ(r.hops(), table.distance(0, 7));
  }
}

TEST(Ugal, DivertsWhenMinimalPathCongested) {
  const Topology topo = build_mlfm(4);
  const MinimalTable table(topo);
  ScriptedLoads loads;
  // Congest every minimal first hop from router 0 toward router 7 (their
  // single common GR) far beyond any alternative.
  const int src = 0;
  const int dst = 7;  // different column -> unique minimal path
  for (int nh : table.next_hops(src, dst)) loads.set(src, nh, 900);
  UgalParams params;
  params.num_indirect = 8;
  params.c = 1.0;
  UgalRouting algo(table, VcPolicy::kPhase, valiant_intermediates(topo), params, loads, "t");
  Rng rng(17);
  int indirect = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const Route r = algo.route(src, dst, rng);
    indirect += r.minimal() ? 0 : 1;
  }
  EXPECT_GT(indirect, 90);
}

TEST(Ugal, ThresholdForcesMinimalUnderLightLoad) {
  const Topology topo = build_mlfm(4);
  const MinimalTable table(topo);
  ScriptedLoads loads;
  const int src = 0;
  const int dst = 7;
  // Mild congestion: 5% of capacity, below the 10% threshold.
  for (int nh : table.next_hops(src, dst)) loads.set(src, nh, 50);
  UgalParams params;
  params.num_indirect = 8;
  params.c = 0.1;  // would otherwise strongly favor indirect
  params.threshold = 0.10;
  UgalRouting algo(table, VcPolicy::kPhase, valiant_intermediates(topo), params, loads, "t");
  Rng rng(19);
  for (int trial = 0; trial < 100; ++trial) {
    EXPECT_TRUE(algo.route(src, dst, rng).minimal());
  }
}

TEST(Ugal, CostComparisonUsesPenalty) {
  const Topology topo = build_mlfm(4);
  const MinimalTable table(topo);
  ScriptedLoads loads;
  const int src = 0;
  const int dst = 7;
  for (int nh : table.next_hops(src, dst)) loads.set(src, nh, 100);
  // All other ports are empty, so indirect candidates cost 0 * c = 0 < 100:
  // generic UGAL diverts (this is exactly the paper's "drawback" behavior).
  UgalParams params;
  params.num_indirect = 4;
  params.c = 1000.0;  // penalty does not matter against empty queues
  UgalRouting algo(table, VcPolicy::kPhase, valiant_intermediates(topo), params, loads, "t");
  Rng rng(23);
  int indirect = 0;
  for (int trial = 0; trial < 100; ++trial) {
    indirect += algo.route(src, dst, rng).minimal() ? 0 : 1;
  }
  EXPECT_GT(indirect, 50);
}

TEST(Ugal, LengthScaledCostFormulaIsExact) {
  // Quantitative check of the SF-A cost (Section 3.3): c_eff = cSF * L_I /
  // L_M. On the MLFM every indirect candidate is 4 hops against a 2-hop
  // minimal route, so c_eff = 2 * cSF deterministically. With the minimal
  // first hop at occupancy 100 and every alternative at 60:
  //   cSF = 1.0 -> indirect cost 2 * 60 = 120 > 100 -> never divert;
  //   cSF = 0.5 -> indirect cost 1 * 60 =  60 < 100 -> divert whenever the
  //   candidate's first hop is not the congested port itself.
  const Topology topo = build_mlfm(4);
  const MinimalTable table(topo);
  const int src = 0;
  const int dst = 7;  // different column: unique minimal path
  ScriptedLoads loads;
  for (int nb : topo.neighbors(src)) loads.set(src, nb, 60);
  for (int nh : table.next_hops(src, dst)) loads.set(src, nh, 100);

  auto diverted_fraction = [&](double c_sf) {
    UgalParams params;
    params.num_indirect = 1;
    params.c = c_sf;
    params.sf_length_scaling = true;
    UgalRouting algo(table, VcPolicy::kPhase, valiant_intermediates(topo), params, loads, "t");
    Rng rng(41);
    int diverted = 0;
    for (int trial = 0; trial < 300; ++trial) {
      diverted += algo.route(src, dst, rng).minimal() ? 0 : 1;
    }
    return diverted / 300.0;
  };

  EXPECT_DOUBLE_EQ(diverted_fraction(1.0), 0.0);
  EXPECT_GT(diverted_fraction(0.5), 0.7);
}

TEST(Ugal, SlimFlyLengthScaling) {
  const Topology topo = build_slim_fly(5);
  const MinimalTable table(topo);
  ScriptedLoads loads;
  ZeroLoadProvider zero;
  (void)zero;
  UgalParams params = default_ugal_params(topo.kind(), false);
  EXPECT_TRUE(params.sf_length_scaling);
  UgalRouting algo(table, VcPolicy::kHopIndex, valiant_intermediates(topo), params, loads,
                   "SF-A");
  Rng rng(29);
  const Route r = algo.route(0, 30, rng);
  expect_valid_walk(topo, r);
}

// --------------------------------------------------------------- Factory

TEST(Factory, VcPoliciesPerTopology) {
  EXPECT_EQ(vc_policy_for(TopologyKind::kSlimFly), VcPolicy::kHopIndex);
  EXPECT_EQ(vc_policy_for(TopologyKind::kMlfm), VcPolicy::kPhase);
  EXPECT_EQ(vc_policy_for(TopologyKind::kOft), VcPolicy::kPhase);
}

TEST(Factory, BuildsAllStrategies) {
  const Topology topo = build_oft(4);
  const MinimalTable table(topo);
  ZeroLoadProvider loads;
  for (RoutingStrategy s : {RoutingStrategy::kMinimal, RoutingStrategy::kValiant,
                            RoutingStrategy::kUgal, RoutingStrategy::kUgalThreshold}) {
    const auto algo = make_routing(topo, table, s, loads);
    ASSERT_NE(algo, nullptr);
    Rng rng(31);
    expect_valid_walk(topo, algo->route(0, 9, rng));
  }
}

TEST(Factory, PaperDefaultParams) {
  const UgalParams sf = default_ugal_params(TopologyKind::kSlimFly, false);
  EXPECT_EQ(sf.num_indirect, 4);
  EXPECT_TRUE(sf.sf_length_scaling);
  const UgalParams mlfm = default_ugal_params(TopologyKind::kMlfm, false);
  EXPECT_EQ(mlfm.num_indirect, 5);
  EXPECT_DOUBLE_EQ(mlfm.c, 2.0);
  const UgalParams oft = default_ugal_params(TopologyKind::kOft, true);
  EXPECT_EQ(oft.num_indirect, 1);
  EXPECT_DOUBLE_EQ(oft.threshold, 0.10);
}

// ------------------------------------------------- Deadlock freedom (CDG)

class DeadlockFreedom : public ::testing::TestWithParam<int> {
 protected:
  Topology make_topo() const {
    switch (GetParam()) {
      case 0: return build_slim_fly(5);
      case 1: return build_mlfm(4);
      default: return build_oft(4);
    }
  }
};

TEST_P(DeadlockFreedom, MinimalRoutingIsDeadlockFree) {
  const Topology topo = make_topo();
  const MinimalTable table(topo);
  const CdgReport report =
      check_minimal_deadlock_freedom(topo, table, vc_policy_for(topo.kind()));
  EXPECT_TRUE(report.acyclic);
  EXPECT_GT(report.edges, 0);
}

TEST_P(DeadlockFreedom, IndirectRoutingIsDeadlockFreeWithVcs) {
  const Topology topo = make_topo();
  const MinimalTable table(topo);
  const CdgReport report = check_indirect_deadlock_freedom(
      topo, table, vc_policy_for(topo.kind()), valiant_intermediates(topo));
  EXPECT_TRUE(report.acyclic);
}

INSTANTIATE_TEST_SUITE_P(Topologies, DeadlockFreedom, ::testing::Values(0, 1, 2));

TEST(DeadlockFreedomNegative, SlimFlySingleVcMinimalHasCycles) {
  // Without hop-indexed VCs, SF minimal routing's CDG contains cycles:
  // this is why Besta & Hoefler use 2 VCs.
  const Topology topo = build_slim_fly(5);
  const MinimalTable table(topo);
  const CdgReport report = check_minimal_deadlock_freedom(topo, table, VcPolicy::kPhase);
  EXPECT_FALSE(report.acyclic);
}

TEST(DeadlockFreedomNegative, IndirectOnSingleVcHasCycles) {
  // Indirect routes are towards/away/towards/away (Section 3.4): on a
  // single VC the CDG contains cycles for all three topologies — the
  // negative control justifying the 2-VC (MLFM/OFT) and 4-VC (SF) schemes.
  for (int which = 0; which < 3; ++which) {
    const Topology topo = which == 0   ? build_slim_fly(5)
                          : which == 1 ? build_mlfm(4)
                                       : build_oft(4);
    const MinimalTable table(topo);
    const CdgReport bad =
        check_indirect_single_vc(topo, table, valiant_intermediates(topo));
    EXPECT_FALSE(bad.acyclic) << topo.name();
  }
}

}  // namespace
}  // namespace d2net
