// Tests for the topology generators against the closed-form counts, costs
// and structural properties stated in Section 2 of the paper, including the
// exact Table 2 (4-ML3B) and the Fig. 3 cost examples.
#include <gtest/gtest.h>

#include <sstream>

#include "common/error.h"
#include "topology/io.h"
#include "gf/galois_field.h"
#include "topology/cost_model.h"
#include "topology/fat_tree.h"
#include "topology/hyperx.h"
#include "topology/mlfm.h"
#include "topology/oft.h"
#include "topology/properties.h"
#include "topology/slim_fly.h"
#include "topology/topology.h"

namespace d2net {
namespace {

// ---------------------------------------------------------------- Topology

TEST(Topology, NodeNumberingIsContiguousPerRouter) {
  Topology t("t", TopologyKind::kCustom);
  t.add_router({}, 2);
  t.add_router({}, 0);
  t.add_router({}, 3);
  t.add_link(0, 1);
  t.add_link(1, 2);
  t.finalize();
  EXPECT_EQ(t.num_nodes(), 5);
  EXPECT_EQ(t.node_base(0), 0);
  EXPECT_EQ(t.node_base(2), 2);
  EXPECT_EQ(t.router_of_node(0), 0);
  EXPECT_EQ(t.router_of_node(1), 0);
  EXPECT_EQ(t.router_of_node(4), 2);
  EXPECT_EQ(t.edge_routers(), (std::vector<int>{0, 2}));
}

TEST(Topology, RejectsSelfLoopsAndBadIds) {
  Topology t("t", TopologyKind::kCustom);
  t.add_router({}, 1);
  EXPECT_THROW(t.add_link(0, 0), ArgumentError);
  EXPECT_THROW(t.add_link(0, 5), ArgumentError);
}

TEST(Topology, ConnectedLookup) {
  Topology t("t", TopologyKind::kCustom);
  for (int i = 0; i < 4; ++i) t.add_router({}, 1);
  t.add_link(0, 1);
  t.add_link(2, 3);
  t.finalize();
  EXPECT_TRUE(t.connected(0, 1));
  EXPECT_TRUE(t.connected(1, 0));
  EXPECT_FALSE(t.connected(0, 2));
}

TEST(Topology, FinalizeTwiceThrows) {
  Topology t("t", TopologyKind::kCustom);
  t.add_router({}, 1);
  t.add_router({}, 1);
  t.add_link(0, 1);
  t.finalize();
  EXPECT_THROW(t.finalize(), ArgumentError);
  EXPECT_THROW(t.add_link(0, 1), ArgumentError);
}

TEST(TopologyFingerprint, SeparatesWiringsWithEqualCounts) {
  // Two 4-router, 4-link graphs with one endpoint per router: a ring and a
  // triangle with a pendant. Counts agree; the wiring hash must not.
  auto build = [](std::initializer_list<std::pair<int, int>> links) {
    Topology t("t", TopologyKind::kCustom);
    for (int i = 0; i < 4; ++i) t.add_router({}, 1);
    for (const auto& [a, b] : links) t.add_link(a, b);
    t.finalize();
    return t;
  };
  const Topology ring = build({{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const Topology pendant = build({{0, 1}, {1, 2}, {2, 0}, {2, 3}});
  EXPECT_EQ(ring.num_links(), pendant.num_links());
  EXPECT_NE(topology_fingerprint(ring), topology_fingerprint(pendant));
  // Same wiring, same hash; endpoint placement is part of the identity.
  EXPECT_EQ(topology_fingerprint(ring), topology_fingerprint(build({{0, 1}, {1, 2}, {2, 3},
                                                                   {3, 0}})));
  Topology moved("t", TopologyKind::kCustom);
  for (int i = 0; i < 4; ++i) moved.add_router({}, i == 0 ? 2 : i == 1 ? 0 : 1);
  for (const auto& [a, b] : {std::pair{0, 1}, {1, 2}, {2, 3}, {3, 0}}) moved.add_link(a, b);
  moved.finalize();
  EXPECT_NE(topology_fingerprint(ring), topology_fingerprint(moved));
  EXPECT_THROW(topology_fingerprint(Topology("open", TopologyKind::kCustom)), ArgumentError);
}

// ---------------------------------------------------------------- Slim Fly

struct SfCase {
  int q;
  int delta;
  int radix;  // network radix r'
};

class SlimFlyShapes : public ::testing::TestWithParam<SfCase> {};

TEST_P(SlimFlyShapes, ShapeMatchesFormulae) {
  const SfCase c = GetParam();
  const SlimFlyShape s = slim_fly_shape(c.q);
  EXPECT_EQ(s.delta, c.delta);
  EXPECT_EQ(s.network_radix, c.radix);
  EXPECT_EQ(s.num_routers, 2 * c.q * c.q);
  EXPECT_EQ(4 * s.w + s.delta, c.q);
}

INSTANTIATE_TEST_SUITE_P(Cases, SlimFlyShapes,
                         ::testing::Values(SfCase{5, 1, 7}, SfCase{7, -1, 11}, SfCase{8, 0, 12},
                                           SfCase{9, 1, 13}, SfCase{11, -1, 17},
                                           SfCase{13, 1, 19}, SfCase{25, 1, 37}));

TEST(SlimFly, RejectsInfeasibleQ) {
  EXPECT_THROW(slim_fly_shape(6), ArgumentError);   // not a prime power
  EXPECT_THROW(slim_fly_shape(2), ArgumentError);   // q % 4 == 2
  EXPECT_THROW(slim_fly_shape(10), ArgumentError);  // not a prime power
}

class SlimFlyBuild : public ::testing::TestWithParam<int> {};

TEST_P(SlimFlyBuild, UniformDegreeAndDiameterTwo) {
  const int q = GetParam();
  const Topology topo = build_slim_fly(q);
  const SlimFlyShape s = slim_fly_shape(q);
  EXPECT_EQ(topo.num_routers(), 2 * q * q);
  for (int r = 0; r < topo.num_routers(); ++r) {
    EXPECT_EQ(topo.network_degree(r), s.network_radix);
  }
  const DistanceMatrix dist = all_pairs_distances(topo);
  EXPECT_EQ(diameter(dist), 2);
}

INSTANTIATE_TEST_SUITE_P(Qs, SlimFlyBuild, ::testing::Values(5, 7, 8, 9, 11, 13));

TEST(SlimFly, GeneratorSetsAreSymmetricAndDisjointFromZero) {
  for (int q : {5, 7, 8, 9, 11, 13}) {
    GaloisField gf(q);
    const SlimFlyShape s = slim_fly_shape(q);
    const MmsGeneratorSets g = mms_generator_sets(gf, s.delta, s.w);
    for (const auto& set : {g.x, g.x_prime}) {
      for (int e : set) EXPECT_NE(e, 0) << "q=" << q;
    }
  }
}

TEST(SlimFly, PaperCostExampleQ13) {
  // Section 2.1.2: q = 13, p = 10 -> 2.9 ports and 1.95 links per endpoint;
  // p = 9 -> 3.11 ports and 2.05 links.
  const Topology ceil = build_slim_fly(13, SlimFlyP::kCeil);
  EXPECT_EQ(ceil.num_nodes(), 3380);
  EXPECT_EQ(ceil.num_routers(), 338);
  EXPECT_NEAR(ceil.ports_per_node(), 2.9, 0.005);
  EXPECT_NEAR(ceil.links_per_node(), 1.95, 0.005);

  const Topology floor = build_slim_fly(13, SlimFlyP::kFloor);
  EXPECT_EQ(floor.num_nodes(), 3042);
  EXPECT_NEAR(floor.ports_per_node(), 3.11, 0.01);
  EXPECT_NEAR(floor.links_per_node(), 2.05, 0.01);
}

TEST(SlimFly, ExplicitPOverride) {
  const Topology topo = build_slim_fly(5, SlimFlyP::kFloor, 2);
  EXPECT_EQ(topo.num_nodes(), 2 * 50);
}

TEST(SlimFly, ApproachesMooreBound) {
  // The SF reaches ~88% of the Moore bound for diameter-2 graphs.
  const SlimFlyShape s = slim_fly_shape(13);
  const double ratio =
      static_cast<double>(s.num_routers) / static_cast<double>(moore_bound_d2(s.network_radix));
  EXPECT_GT(ratio, 0.85);
  EXPECT_LT(ratio, 1.0);
}

TEST(SlimFly, DistanceOnePairsHaveNoDiversity) {
  const Topology topo = build_slim_fly(5);
  const PathDiversityStats d1 = path_diversity_at_distance(topo, 1);
  EXPECT_DOUBLE_EQ(d1.mean, 1.0);
  EXPECT_EQ(d1.max, 1);
}

TEST(SlimFly, DistanceTwoDiversityIsLow) {
  // Section 2.3.3: system-wide minimal path diversity is low (q = 23 gives
  // mean ~1.1); verify the same character at q = 11.
  const Topology topo = build_slim_fly(11);
  const PathDiversityStats d2 = path_diversity_at_distance(topo, 2);
  EXPECT_GE(d2.mean, 1.0);
  EXPECT_LT(d2.mean, 1.5);
  EXPECT_GE(d2.max, 2);
}

// -------------------------------------------------------------------- MLFM

TEST(Mlfm, CountsMatchFormulae) {
  for (int h : {3, 5, 7, 15}) {
    const Topology topo = build_mlfm(h);
    EXPECT_EQ(topo.num_nodes(), h * h * h + h * h) << h;
    EXPECT_EQ(topo.num_routers(), 3 * h * (h + 1) / 2) << h;
    // LR radix h+p = 2h, GR radix 2l = 2h.
    for (int r = 0; r < topo.num_routers(); ++r) {
      EXPECT_EQ(topo.network_degree(r) + topo.endpoints_of(r), 2 * h);
    }
  }
}

TEST(Mlfm, PaperConfigurationH15) {
  const Topology topo = build_mlfm(15);
  EXPECT_EQ(topo.num_nodes(), 3600);
  EXPECT_EQ(topo.num_routers(), 360);
  EXPECT_NEAR(topo.ports_per_node(), 3.0, 0.001);
  EXPECT_NEAR(topo.links_per_node(), 2.0, 0.001);
}

TEST(Mlfm, DiameterTwoBetweenLocalRouters) {
  const Topology topo = build_mlfm(4);
  const DistanceMatrix dist = all_pairs_distances(topo);
  EXPECT_EQ(node_diameter(topo, dist), 2);
}

TEST(Mlfm, SameColumnPairsHaveHPaths) {
  const int h = 4;
  const Topology topo = build_mlfm(h);
  const auto counts = shortest_path_counts(topo);
  const int n = topo.num_routers();
  auto paths = [&](int a, int b) { return counts[static_cast<std::size_t>(a) * n + b]; };
  // Same index, different layer: h minimal paths (Section 2.3.3).
  EXPECT_EQ(paths(mlfm_lr_id(h, 0, 2), mlfm_lr_id(h, 1, 2)), h);
  // Different index: exactly one minimal path.
  EXPECT_EQ(paths(mlfm_lr_id(h, 0, 2), mlfm_lr_id(h, 1, 3)), 1);
  EXPECT_EQ(paths(mlfm_lr_id(h, 0, 0), mlfm_lr_id(h, 0, 1)), 1);
}

TEST(Mlfm, GeneralShape) {
  const Topology topo = build_mlfm(4, 2, 3);
  EXPECT_EQ(topo.num_nodes(), 2 * 5 * 3);
  EXPECT_EQ(topo.num_routers(), 2 * 5 + 10);
}

// --------------------------------------------------------------------- OFT

TEST(Ml3b, MatchesPaperTable2) {
  // Table 2 of the paper: the 4-ML3B.
  const Ml3bTable expected{
      {9, 10, 11, 12}, {9, 0, 1, 2},  {9, 3, 4, 5},  {9, 6, 7, 8},
      {10, 0, 3, 6},   {10, 1, 4, 7}, {10, 2, 5, 8}, {11, 0, 4, 8},
      {11, 1, 5, 6},   {11, 2, 3, 7}, {12, 0, 5, 7}, {12, 1, 3, 8},
      {12, 2, 4, 6}};
  EXPECT_EQ(build_ml3b(4), expected);
}

class Ml3bValidity : public ::testing::TestWithParam<int> {};

TEST_P(Ml3bValidity, ProjectivePlaneIncidence) {
  const int k = GetParam();
  const Ml3bTable table = build_ml3b(k);
  EXPECT_TRUE(ml3b_is_valid(table, k));
  EXPECT_EQ(static_cast<int>(table.size()), oft_routers_per_level(k));
}

// k - 1 must be a prime power; k = 5 exercises the true prime-power case
// (GF(4)), unavailable to the modular-arithmetic construction.
INSTANTIATE_TEST_SUITE_P(Degrees, Ml3bValidity, ::testing::Values(2, 3, 4, 5, 6, 8, 12, 14));

TEST(Ml3b, RejectsInfeasibleDegrees) {
  EXPECT_THROW(build_ml3b(7), ArgumentError);   // k-1 = 6 not a prime power
  EXPECT_THROW(build_ml3b(11), ArgumentError);  // k-1 = 10
}

TEST(Oft, CountsMatchFormulae) {
  for (int k : {3, 4, 6, 12}) {
    const Topology topo = build_oft(k);
    const int rl = k * k - k + 1;
    EXPECT_EQ(topo.num_routers(), 3 * rl);
    EXPECT_EQ(topo.num_nodes(), 2 * k * rl);
    EXPECT_NEAR(topo.ports_per_node(), 3.0, 0.001);
    EXPECT_NEAR(topo.links_per_node(), 2.0, 0.001);
  }
}

TEST(Oft, PaperConfigurationK12) {
  const Topology topo = build_oft(12);
  EXPECT_EQ(topo.num_nodes(), 3192);
  EXPECT_EQ(topo.num_routers(), 399);
  for (int r = 0; r < topo.num_routers(); ++r) {
    EXPECT_EQ(topo.network_degree(r) + topo.endpoints_of(r), 24);
  }
}

TEST(Oft, NodeDiameterTwo) {
  const Topology topo = build_oft(4);
  const DistanceMatrix dist = all_pairs_distances(topo);
  EXPECT_EQ(node_diameter(topo, dist), 2);
}

TEST(Oft, SymmetricPairsHaveKPathsOthersOne) {
  const int k = 4;
  const Topology topo = build_oft(k);
  const int rl = oft_routers_per_level(k);
  const auto counts = shortest_path_counts(topo);
  const int n = topo.num_routers();
  auto paths = [&](int a, int b) { return counts[static_cast<std::size_t>(a) * n + b]; };
  // L0 router i and its L2 counterpart share all k L1 neighbors.
  EXPECT_EQ(paths(0, rl + 0), k);
  EXPECT_EQ(paths(3, rl + 3), k);
  // Any other endpoint-router pair: exactly one minimal path.
  EXPECT_EQ(paths(0, rl + 1), 1);
  EXPECT_EQ(paths(0, 1), 1);
  EXPECT_EQ(paths(rl + 2, rl + 5), 1);
}

TEST(Oft, L1RoutersCarryNoEndpoints) {
  const Topology topo = build_oft(4);
  const int rl = oft_routers_per_level(4);
  for (int j = 0; j < rl; ++j) EXPECT_EQ(topo.endpoints_of(2 * rl + j), 0);
  EXPECT_EQ(static_cast<int>(topo.edge_routers().size()), 2 * rl);
}

// ------------------------------------------------------------ HyperX / FT

TEST(HyperX, BalancedShapeAndDiameter) {
  const Topology topo = build_hyperx2d_balanced(12);
  EXPECT_EQ(topo.num_routers(), 25);
  EXPECT_EQ(topo.num_nodes(), 4 * 25);
  const DistanceMatrix dist = all_pairs_distances(topo);
  EXPECT_EQ(diameter(dist), 2);
}

TEST(HyperX, RejectsBadRadix) {
  EXPECT_THROW(build_hyperx2d_balanced(10), ArgumentError);
}

TEST(FatTree2, ShapeAndDiameter) {
  const Topology topo = build_fat_tree2(8);
  EXPECT_EQ(topo.num_nodes(), 32);
  EXPECT_EQ(topo.num_routers(), 12);
  const DistanceMatrix dist = all_pairs_distances(topo);
  EXPECT_EQ(node_diameter(topo, dist), 2);
  EXPECT_NEAR(topo.ports_per_node(), 3.0, 0.001);
  EXPECT_NEAR(topo.links_per_node(), 2.0, 0.001);
}

TEST(FatTree3, ShapeAndDiameter) {
  const Topology topo = build_fat_tree3(8);
  EXPECT_EQ(topo.num_nodes(), 8 * 8 * 8 / 4);
  const DistanceMatrix dist = all_pairs_distances(topo);
  EXPECT_EQ(node_diameter(topo, dist), 4);
}

// --------------------------------------------------------------------- IO

TEST(TopologyIo, DotContainsAllRoutersAndLinks) {
  const Topology topo = build_mlfm(3);
  std::ostringstream os;
  write_dot(topo, os);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("graph \"MLFM"), std::string::npos);
  EXPECT_NE(dot.find("r0 "), std::string::npos);
  // Count edges: every link appears once as " -- ".
  std::size_t edges = 0;
  for (std::size_t pos = dot.find(" -- "); pos != std::string::npos;
       pos = dot.find(" -- ", pos + 1)) {
    ++edges;
  }
  EXPECT_EQ(edges, static_cast<std::size_t>(topo.num_links()));
}

TEST(TopologyIo, EdgeListRoundTripCounts) {
  const Topology topo = build_oft(4);
  std::ostringstream os;
  write_edge_list(topo, os);
  std::istringstream is(os.str());
  std::string line;
  int v_lines = 0;
  int e_lines = 0;
  while (std::getline(is, line)) {
    if (line.rfind("v ", 0) == 0) ++v_lines;
    if (line.rfind("e ", 0) == 0) ++e_lines;
  }
  EXPECT_EQ(v_lines, topo.num_routers());
  EXPECT_EQ(e_lines, topo.num_links());
}

// -------------------------------------------------------------- Cost model

TEST(CostModel, Radix64HeadlineNumbers) {
  // Section 2.3.1: with radix-64 routers the OFT supports ~63.5K nodes, the
  // MLFM and SF around 36K and 33.7K.
  const auto oft = best_oft(64);
  ASSERT_TRUE(oft.has_value());
  EXPECT_EQ(oft->num_nodes, 63552);

  const auto mlfm = best_mlfm(64);
  ASSERT_TRUE(mlfm.has_value());
  EXPECT_EQ(mlfm->num_nodes, 33792);

  const auto sf = best_slim_fly(64, false);
  ASSERT_TRUE(sf.has_value());
  EXPECT_GT(sf->num_nodes, 30000);
  EXPECT_LT(sf->num_nodes, 40000);
}

TEST(CostModel, OftScalesToTwiceMlfm) {
  // Radii where k - 1 = r/2 - 1 is prime, so the OFT family is feasible at
  // its full size (at e.g. r = 32, k = 16 is infeasible and the OFT falls
  // back to k = 14).
  for (int r : {24, 48, 64}) {
    const auto oft = best_oft(r);
    const auto mlfm = best_mlfm(r);
    ASSERT_TRUE(oft && mlfm);
    const double ratio = static_cast<double>(oft->num_nodes) / mlfm->num_nodes;
    EXPECT_GT(ratio, 1.6) << r;
    EXPECT_LT(ratio, 2.2) << r;
  }
}

TEST(CostModel, AllDiameterTwoFamiliesCostTwoLinksThreePorts) {
  for (const auto& pt : max_scale_at_radix(48)) {
    if (pt.family == "FT3") {
      EXPECT_GT(pt.links_per_node, 2.5);
      EXPECT_GT(pt.ports_per_node, 4.5);
      continue;
    }
    if (pt.family == "Dragonfly") {
      // The diameter-3 baseline: ~2.5 links and ~3.75 ports per endpoint.
      EXPECT_GT(pt.links_per_node, 2.2);
      EXPECT_GT(pt.ports_per_node, 3.4);
      continue;
    }
    EXPECT_NEAR(pt.links_per_node, 2.0, 0.15) << pt.family;
    EXPECT_NEAR(pt.ports_per_node, 3.0, 0.25) << pt.family;
  }
}

TEST(CostModel, AnalyticMatchesBuiltTopologies) {
  // Cross-check the closed forms against actually constructed graphs.
  const auto mlfm = best_mlfm(14);
  ASSERT_TRUE(mlfm.has_value());
  const Topology t = build_mlfm(7);
  EXPECT_EQ(mlfm->num_nodes, t.num_nodes());
  EXPECT_EQ(mlfm->num_routers, t.num_routers());
  EXPECT_NEAR(mlfm->links_per_node, t.links_per_node(), 1e-9);
  EXPECT_NEAR(mlfm->ports_per_node, t.ports_per_node(), 1e-9);

  const auto oft = best_oft(12);
  ASSERT_TRUE(oft.has_value());
  const Topology t2 = build_oft(6);
  EXPECT_EQ(oft->num_nodes, t2.num_nodes());
  EXPECT_NEAR(oft->ports_per_node, t2.ports_per_node(), 1e-9);

  const auto sf = best_slim_fly(28, false);
  ASSERT_TRUE(sf.has_value());
  const Topology t3 = build_slim_fly(13, SlimFlyP::kFloor);
  EXPECT_EQ(sf->num_nodes, t3.num_nodes());
  EXPECT_NEAR(sf->links_per_node, t3.links_per_node(), 1e-9);
}

TEST(CostModel, MooreBound) {
  EXPECT_EQ(moore_bound_d2(7), 50);
  EXPECT_EQ(moore_bound_d2(57), 3250);
}

}  // namespace
}  // namespace d2net
