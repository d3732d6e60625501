#include "topology/topology.h"

#include <algorithm>

#include "common/error.h"
#include "common/hash.h"

namespace d2net {

const char* to_string(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kSlimFly: return "SlimFly";
    case TopologyKind::kMlfm: return "MLFM";
    case TopologyKind::kOft: return "OFT";
    case TopologyKind::kHyperX2D: return "HyperX2D";
    case TopologyKind::kFatTree2: return "FatTree2";
    case TopologyKind::kFatTree3: return "FatTree3";
    case TopologyKind::kDragonfly: return "Dragonfly";
    case TopologyKind::kCustom: return "Custom";
  }
  return "?";
}

int Topology::add_router(const RouterInfo& info, int num_endpoints) {
  D2NET_REQUIRE(!finalized_, "topology already finalized");
  D2NET_REQUIRE(num_endpoints >= 0, "negative endpoint count");
  adj_.emplace_back();
  nodes_per_router_.push_back(num_endpoints);
  info_.push_back(info);
  return num_routers() - 1;
}

void Topology::add_link(int r1, int r2) {
  D2NET_REQUIRE(!finalized_, "topology already finalized");
  D2NET_REQUIRE(r1 >= 0 && r1 < num_routers() && r2 >= 0 && r2 < num_routers(),
                "link endpoint out of range");
  D2NET_REQUIRE(r1 != r2, "self-loop links are not allowed");
  adj_[r1].push_back(r2);
  adj_[r2].push_back(r1);
  links_.push_back({std::min(r1, r2), std::max(r1, r2)});
}

void Topology::finalize() {
  D2NET_REQUIRE(!finalized_, "finalize() called twice");
  D2NET_REQUIRE(num_routers() > 0, "topology has no routers");
  node_base_.resize(num_routers() + 1);
  int next = 0;
  for (int r = 0; r < num_routers(); ++r) {
    node_base_[r] = next;
    next += nodes_per_router_[r];
    if (nodes_per_router_[r] > 0) edge_routers_.push_back(r);
  }
  node_base_[num_routers()] = next;
  total_nodes_ = next;
  D2NET_REQUIRE(total_nodes_ > 0, "topology has no endpoints");

  router_of_node_.resize(total_nodes_);
  for (int r = 0; r < num_routers(); ++r) {
    for (int n = node_base_[r]; n < node_base_[r + 1]; ++n) router_of_node_[n] = r;
  }

  sorted_adj_ = adj_;
  for (auto& v : sorted_adj_) std::sort(v.begin(), v.end());

  // Sanity: adjacency symmetry follows from add_link(); verify degree match
  // against link list as a defensive invariant.
  std::size_t degree_sum = 0;
  for (const auto& v : adj_) degree_sum += v.size();
  D2NET_ASSERT(degree_sum == 2 * links_.size(), "adjacency/link mismatch");

  finalized_ = true;
}

int Topology::num_ports() const {
  std::size_t ports = 0;
  for (int r = 0; r < num_routers(); ++r) {
    ports += adj_[r].size() + static_cast<std::size_t>(nodes_per_router_[r]);
  }
  return static_cast<int>(ports);
}

bool Topology::connected(int a, int b) const {
  D2NET_ASSERT(finalized_, "connected() before finalize()");
  const auto& v = sorted_adj_[a];
  return std::binary_search(v.begin(), v.end(), b);
}

double Topology::links_per_node() const {
  // Node-to-router links count once each; router-to-router links once each.
  return static_cast<double>(num_links() + num_nodes()) / num_nodes();
}

double Topology::ports_per_node() const {
  return static_cast<double>(num_ports()) / num_nodes();
}

std::uint64_t topology_fingerprint(const Topology& topo) {
  D2NET_REQUIRE(topo.finalized(), "topology_fingerprint needs a finalized topology");
  std::uint64_t h = fnv1a64_word(0xcbf29ce484222325ULL, topo.num_routers());
  for (int r = 0; r < topo.num_routers(); ++r) {
    h = fnv1a64_word(h, topo.endpoints_of(r));
    h = fnv1a64_word(h, topo.neighbors(r).size());
    for (int v : topo.neighbors(r)) h = fnv1a64_word(h, v);
  }
  return h;
}

}  // namespace d2net
