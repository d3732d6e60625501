// Precomputed minimal (shortest-path) routing structure: for every ordered
// router pair, the distance and the set of next-hop neighbors that lie on a
// shortest path. Stored flat for cache friendliness at R^2 scale.
//
// The build is level-synchronous over per-router bitsets of distance layers
// (docs/perf.md, "Routing table build"), cheap enough that dynamic fault
// injection simply calls rebuild() against a link-aliveness filter after
// every change; a rebuild tolerates a disconnected graph (distance() < 0,
// empty next_hops()).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace d2net {

class Topology;

/// Returns true when the directed adjacency a -> b is currently usable.
using LinkFilter = std::function<bool(int, int)>;

/// Returns `entries` as a CSR offset; throws ArgumentError naming the router
/// count and the entry count when it does not fit the table's 32-bit
/// next-hop offsets.
std::uint32_t checked_next_hop_entries(std::uint64_t entries, int routers);

class MinimalTable {
 public:
  /// Builds the table for the healthy topology; throws if disconnected.
  explicit MinimalTable(const Topology& topo);

  int num_routers() const { return n_; }
  /// Hops from a to b; negative when b is unreachable from a (only possible
  /// after a rebuild against a disconnecting link filter).
  int distance(int a, int b) const { return dist_[idx(a, b)]; }
  /// Longest finite shortest path (unreachable pairs excluded).
  int diameter() const { return diameter_; }

  /// Recomputes the whole table over the directed links `alive` admits
  /// (nullptr = all). Unlike the constructor this tolerates disconnection.
  void rebuild(const Topology& topo, const LinkFilter& alive);

  /// Ordered router pairs (a != b) with no surviving path.
  std::int64_t unreachable_pairs() const { return unreachable_; }

  /// Neighbors of `a` that start a shortest path toward `b`; empty iff
  /// a == b.
  std::span<const int> next_hops(int a, int b) const {
    const std::size_t i = idx(a, b);
    return {nh_data_.data() + nh_off_[i], nh_data_.data() + nh_off_[i + 1]};
  }

  /// Samples one minimal path a -> b, choosing uniformly among next hops at
  /// every step. Returns {a} when a == b.
  std::vector<int> sample_path(int a, int b, Rng& rng) const;

  /// Allocation-free variant: writes the sampled path into `out` (cleared
  /// first, capacity reused) for the simulator's per-packet hot path.
  /// `Path` is any push_back/clear container (std::vector, the Route's
  /// InlineVec); the RNG draw sequence is identical for all of them.
  template <typename Path>
  void sample_path_into(int a, int b, Rng& rng, Path& out) const {
    out.clear();
    out.push_back(a);
    sample_path_append(a, b, rng, out);
  }

  /// Appends the remaining hops of one sampled minimal path cur -> b
  /// (excluding `cur`, which the caller already recorded). Same RNG draws
  /// as sample_path_into from `cur` — the routing algorithms splice route
  /// segments with this without changing any random stream.
  template <typename Path>
  void sample_path_append(int cur, int b, Rng& rng, Path& out) const {
    while (cur != b) {
      const auto nh = next_hops(cur, b);
      D2NET_ASSERT(!nh.empty(), "no next hop on minimal path");
      cur = nh[rng.next_below(nh.size())];
      out.push_back(cur);
    }
  }

  /// Appends all minimal paths a -> b to `out` (each path includes both
  /// endpoints). Exponential in principle but bounded by the tiny path
  /// diversity of the studied networks; used by the deadlock checker.
  void enumerate_paths(int a, int b, std::vector<std::vector<int>>& out) const;

 private:
  std::size_t idx(int a, int b) const {
    return static_cast<std::size_t>(a) * static_cast<std::size_t>(n_) + b;
  }

  int n_ = 0;
  int diameter_ = 0;
  std::int64_t unreachable_ = 0;
  std::vector<std::int16_t> dist_;
  std::vector<std::uint32_t> nh_off_;  ///< size n^2 + 1
  std::vector<int> nh_data_;
};

}  // namespace d2net
