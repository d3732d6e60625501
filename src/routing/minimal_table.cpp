#include "routing/minimal_table.h"

#include <algorithm>
#include <bit>
#include <string>

#include "common/error.h"
#include "topology/topology.h"

namespace d2net {

std::uint32_t checked_next_hop_entries(std::uint64_t entries, int routers) {
  D2NET_REQUIRE(entries <= UINT32_MAX,
                "MinimalTable for R = " + std::to_string(routers) + " routers needs " +
                    std::to_string(entries) +
                    " next-hop entries, more than its 32-bit CSR offsets can index");
  return static_cast<std::uint32_t>(entries);
}

MinimalTable::MinimalTable(const Topology& topo) : n_(topo.num_routers()) {
  rebuild(topo, nullptr);
  // The healthy-topology constructor keeps the historical strictness; the
  // fault layer goes through rebuild(), which tolerates disconnection.
  D2NET_REQUIRE(unreachable_pairs() == 0, "topology is disconnected");
}

void MinimalTable::rebuild(const Topology& topo, const LinkFilter& alive) {
  D2NET_REQUIRE(topo.num_routers() == n_ || dist_.empty(),
                "rebuild against a different-sized topology");
  n_ = topo.num_routers();
  const std::size_t n = static_cast<std::size_t>(n_);
  const std::size_t words = (n + 63) / 64;

  // Admitted directed adjacency in neighbors() order, parallel links kept:
  // the filter is consulted once per directed link.
  std::vector<std::size_t> adj_off(n + 1, 0);
  std::vector<int> adj;
  for (int a = 0; a < n_; ++a) {
    for (int v : topo.neighbors(a)) {
      if (alive == nullptr || alive(a, v)) adj.push_back(v);
    }
    adj_off[static_cast<std::size_t>(a) + 1] = adj.size();
  }

  // Distance layers as R x R bit matrices, row a of levels[d] holding
  // L_a(d), the routers exactly d admitted hops from a:
  //   L_a(0) = {a},
  //   L_a(d) = (union of L_v(d-1) over admitted a->v) minus L_a(0..d-1),
  // stopping at the first level that is empty for every router.
  std::vector<std::vector<std::uint64_t>> levels(1, std::vector<std::uint64_t>(n * words, 0));
  for (std::size_t a = 0; a < n; ++a) levels[0][a * words + a / 64] |= std::uint64_t{1} << (a % 64);
  std::vector<std::uint64_t> seen = levels[0];
  for (;;) {
    const std::vector<std::uint64_t>& prev = levels.back();
    std::vector<std::uint64_t> next(n * words, 0);
    std::uint64_t any = 0;
    for (std::size_t a = 0; a < n; ++a) {
      std::uint64_t* row = &next[a * words];
      for (std::size_t k = adj_off[a]; k < adj_off[a + 1]; ++k) {
        const std::uint64_t* src = &prev[static_cast<std::size_t>(adj[k]) * words];
        for (std::size_t w = 0; w < words; ++w) row[w] |= src[w];
      }
      std::uint64_t* mask = &seen[a * words];
      for (std::size_t w = 0; w < words; ++w) {
        row[w] &= ~mask[w];
        mask[w] |= row[w];
        any |= row[w];
      }
    }
    if (any == 0) break;
    levels.push_back(std::move(next));
  }
  const int depth = static_cast<int>(levels.size()) - 1;
  diameter_ = depth;

  // Calls emit(word * 64 + bit) for every set bit of x & y over one row.
  const auto for_each_common = [words](const std::uint64_t* x, const std::uint64_t* y,
                                       auto&& emit) {
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = x[w] & y[w]; bits != 0; bits &= bits - 1) {
        emit(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  };

  dist_.assign(n * n, -1);
  std::int64_t reached = 0;
  for (int d = 0; d <= depth; ++d) {
    for (std::size_t a = 0; a < n; ++a) {
      const std::uint64_t* row = &levels[static_cast<std::size_t>(d)][a * words];
      // row & row: every router in L_a(d).
      for_each_common(row, row, [&](std::size_t b) {
        dist_[a * n + b] = static_cast<std::int16_t>(d);
        ++reached;
      });
    }
  }
  unreachable_ = static_cast<std::int64_t>(n * n) - reached;

  // Next hops of (a, b) at distance d: admitted neighbors v of a with
  // b in L_v(d-1), visited in neighbors() order so every pair's sequence is
  // ordered like its adjacency row.
  const auto for_each_next_hop = [&](std::size_t a, auto&& emit) {
    for (std::size_t k = adj_off[a]; k < adj_off[a + 1]; ++k) {
      const int v = adj[k];
      for (int d = 1; d <= depth; ++d) {
        for_each_common(&levels[static_cast<std::size_t>(d) - 1][static_cast<std::size_t>(v) * words],
                        &levels[static_cast<std::size_t>(d)][a * words],
                        [&](std::size_t b) { emit(b, v); });
      }
    }
  };

  // CSR: count per pair, prefix-sum into offsets, then fill through a
  // per-row cursor.
  nh_off_.assign(n * n + 1, 0);
  std::uint64_t entries = 0;
  for (std::size_t a = 0; a < n; ++a) {
    for_each_next_hop(a, [&](std::size_t b, int) {
      ++nh_off_[a * n + b + 1];
      ++entries;
    });
  }
  const std::uint32_t total = checked_next_hop_entries(entries, n_);
  for (std::size_t i = 1; i <= n * n; ++i) nh_off_[i] += nh_off_[i - 1];
  nh_data_.resize(total);
  std::vector<std::uint32_t> cursor(n);
  for (std::size_t a = 0; a < n; ++a) {
    std::copy_n(nh_off_.begin() + static_cast<std::ptrdiff_t>(a * n), n, cursor.begin());
    for_each_next_hop(a, [&](std::size_t b, int v) { nh_data_[cursor[b]++] = v; });
  }
  D2NET_ASSERT(n == 0 || cursor[n - 1] == total, "next-hop fill mismatch");
}

std::vector<int> MinimalTable::sample_path(int a, int b, Rng& rng) const {
  std::vector<int> path;
  sample_path_into(a, b, rng, path);
  return path;
}

void MinimalTable::enumerate_paths(int a, int b, std::vector<std::vector<int>>& out) const {
  std::vector<int> stack{a};
  // Iterative DFS over the shortest-path DAG.
  struct Frame {
    int router;
    std::size_t next_index;
  };
  std::vector<Frame> frames{{a, 0}};
  while (!frames.empty()) {
    Frame& f = frames.back();
    if (f.router == b) {
      out.push_back(stack);
      frames.pop_back();
      stack.pop_back();
      continue;
    }
    const auto nh = next_hops(f.router, b);
    if (f.next_index >= nh.size()) {
      frames.pop_back();
      stack.pop_back();
      continue;
    }
    const int v = nh[f.next_index++];
    frames.push_back({v, 0});
    stack.push_back(v);
  }
}

}  // namespace d2net
