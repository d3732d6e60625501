// Core graph model shared by all topology generators, the routing layer and
// the simulator.
//
// A Topology is a set of routers connected by full-duplex links, each router
// optionally hosting a number of endpoints (compute nodes). Endpoints are
// numbered contiguously per router in router-id order, which implements the
// paper's contiguous rank mapping (Section 4.4): generators order routers so
// that node ids run "first intra-router, then intra-column/intra-layer, then
// across subgraphs/levels".
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace d2net {

/// Which generator produced the topology; used by routing policies that need
/// topology-specific knowledge (eligible Valiant intermediates, VC policy).
enum class TopologyKind {
  kSlimFly,
  kMlfm,
  kOft,
  kHyperX2D,
  kFatTree2,
  kFatTree3,
  kDragonfly,
  kCustom,
};

const char* to_string(TopologyKind kind);

/// Per-router structural metadata filled in by the generators.
///
/// Interpretation by kind:
///   SlimFly:  level = subgraph (0/1), a = column (x or m), b = row (y or c)
///   MLFM:     level = 0 for local routers (a = layer, b = index) and
///             1 for global routers (a, b = the pair of LR indices served)
///   OFT:      level = 0/1/2, a = index within level
///   HyperX2D: a, b = coordinates
///   FatTree:  level = tree level (0 = leaves), a = index within level
struct RouterInfo {
  int level = 0;
  int a = 0;
  int b = 0;
};

/// An undirected router-to-router link (r1 < r2 after finalize()).
struct Link {
  int r1 = 0;
  int r2 = 0;
};

/// Immutable-after-finalize network graph.
class Topology {
 public:
  Topology(std::string name, TopologyKind kind) : name_(std::move(name)), kind_(kind) {}

  // ---- construction (generators only) ----

  /// Adds a router and returns its id.
  int add_router(const RouterInfo& info, int num_endpoints);

  /// Adds an undirected router-to-router link.
  void add_link(int r1, int r2);

  /// Validates the graph and builds the derived indices. Must be called
  /// exactly once, after which the topology is immutable.
  void finalize();

  // ---- read access ----

  const std::string& name() const { return name_; }
  TopologyKind kind() const { return kind_; }
  bool finalized() const { return finalized_; }

  int num_routers() const { return static_cast<int>(adj_.size()); }
  int num_nodes() const { return total_nodes_; }
  int num_links() const { return static_cast<int>(links_.size()); }  ///< router-router only

  /// Total router ports in use: network ports + endpoint ports.
  int num_ports() const;

  /// Neighbor routers of r, in port order. A neighbor may appear more than
  /// once if parallel links exist.
  const std::vector<int>& neighbors(int r) const { return adj_[r]; }
  int network_degree(int r) const { return static_cast<int>(adj_[r].size()); }
  int router_radix(int r) const { return network_degree(r) + endpoints_of(r); }

  int endpoints_of(int r) const { return nodes_per_router_[r]; }
  const RouterInfo& info(int r) const { return info_[r]; }

  /// First node id attached to router r (nodes are contiguous per router).
  int node_base(int r) const { return node_base_[r]; }
  int router_of_node(int node) const { return router_of_node_[node]; }

  /// Routers that host at least one endpoint, in id order.
  const std::vector<int>& edge_routers() const { return edge_routers_; }

  /// All undirected links with r1 < r2.
  const std::vector<Link>& links() const { return links_; }

  /// True if a and b are joined by at least one link.
  bool connected(int a, int b) const;

  /// Cost metrics from the paper's Fig. 3: links / ports per endpoint.
  /// Link count includes the node-to-router links (one per endpoint).
  double links_per_node() const;
  double ports_per_node() const;

 private:
  std::string name_;
  TopologyKind kind_;
  bool finalized_ = false;

  std::vector<std::vector<int>> adj_;
  std::vector<int> nodes_per_router_;
  std::vector<RouterInfo> info_;
  std::vector<Link> links_;

  // Derived by finalize():
  int total_nodes_ = 0;
  std::vector<int> node_base_;
  std::vector<int> router_of_node_;
  std::vector<int> edge_routers_;
  std::vector<std::vector<int>> sorted_adj_;  ///< For connected() lookups.
};

/// Wiring identity of a finalized topology: FNV-1a (common/hash.h) over
/// num_routers() and, per router, endpoints_of(r) and its neighbors(r) list
/// in port order (length first). Two wirings with the same router, node
/// and link counts hash apart; sweep journals validate restored points
/// against it.
std::uint64_t topology_fingerprint(const Topology& topo);

}  // namespace d2net
