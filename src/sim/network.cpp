#include "sim/network.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

#include "common/error.h"
#include "common/thread_pool.h"
#include "partition/partitioner.h"
#include "routing/minimal_table.h"
#include "sim/traffic.h"
#include "topology/topology.h"

namespace d2net {

std::int64_t ExchangePlan::total_bytes() const {
  std::int64_t total = 0;
  for (const auto& msgs : per_node) {
    for (const auto& m : msgs) total += m.bytes;
  }
  return total;
}

int ExchangePlan::active_nodes() const {
  int n = 0;
  for (const auto& msgs : per_node) n += msgs.empty() ? 0 : 1;
  return n;
}

namespace {
// D2NET_PARANOID: any non-empty value other than "0" enables the self-audit
// without touching configs — handy for soaking an entire bench suite.
bool paranoid_env() {
  static const bool on = [] {
    const char* v = std::getenv("D2NET_PARANOID");
    return v != nullptr && *v != '\0' && std::string(v) != "0";
  }();
  return on;
}

// FNV-1a over the dispatched-event stream; the offset doubles as the
// empty-stream digest so "no events" still hashes to a fixed value.
constexpr std::uint64_t kDigestOffset = 1469598103934665603ULL;
constexpr std::uint64_t kDigestPrime = 1099511628211ULL;

inline std::uint64_t fnv1a_step(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xFFu)) * kDigestPrime;
  }
  return h;
}

// The digest words fold an event's full identity without its pool slot:
// `a` is a per-lane pool index for the packet-carrying kinds (and is
// embedded in the okey for every other kind), so hashing it would make the
// digest depend on allocator state instead of simulation content.
inline std::uint64_t digest_w1(const Event& e) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.b)) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.c)) << 32);
}

inline std::uint64_t digest_w2(const Event& e) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.d)) |
         (static_cast<std::uint64_t>(e.type) << 32);
}

inline std::uint64_t fold_digest(std::uint64_t h, TimePs time, std::uint64_t okey,
                                 std::uint64_t w1, std::uint64_t w2) {
  h = fnv1a_step(h, static_cast<std::uint64_t>(time));
  h = fnv1a_step(h, okey);
  h = fnv1a_step(h, w1);
  h = fnv1a_step(h, w2);
  return h;
}

// SplitMix64 finalizer: decorrelated per-entity seed streams from one run
// seed. Entity-local streams are what keep random draws identical between
// serial and sharded execution (the draw order within one entity is fixed
// by the realized event order, which sharding reproduces exactly).
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr TimePs kNoEvent = std::numeric_limits<TimePs>::max();

// Bounded shared-table resamples against the local fault view before a
// salvage escalates to a local-greedy detour (propagation runs only). The
// count is fixed so the router-local RNG draw sequence stays deterministic.
constexpr int kSalvageSamples = 4;
}  // namespace

NetworkSim::NetworkSim(const Topology& topo, const SimConfig& cfg, int num_vcs)
    : topo_(topo), cfg_(cfg), num_vcs_(num_vcs) {
  D2NET_REQUIRE(topo.finalized(), "topology must be finalized");
  D2NET_REQUIRE(num_vcs >= 1 && num_vcs <= 8, "unreasonable VC count");
  D2NET_REQUIRE(cfg_.shards >= 1, "shard count must be >= 1");
  vc_buffer_bytes_ = cfg_.buffer_bytes_per_port / num_vcs_;
  D2NET_REQUIRE(vc_buffer_bytes_ >= cfg_.packet_bytes,
                "per-VC buffer smaller than one packet");
  // The VCT fast path assumes the whole packet is buffered by the time the
  // router may forward it (eligibility = head + router latency).
  D2NET_REQUIRE(!cfg_.cut_through || cfg_.router_latency >= cfg_.packet_serialization(),
                "cut-through mode requires router latency >= packet serialization");

  routers_.resize(topo.num_routers());
  nics_.resize(topo.num_nodes());
  for (int r = 0; r < topo.num_routers(); ++r) {
    RouterState& rs = routers_[r];
    const auto& nbrs = topo.neighbors(r);
    const int deg = static_cast<int>(nbrs.size());
    const int p = topo.endpoints_of(r);
    rs.in_ports.resize(deg + p);
    rs.out_ports.resize(deg + p);
    for (int i = 0; i < deg; ++i) {
      rs.port_of_neighbor.emplace_back(nbrs[i], i);
    }
    std::sort(rs.port_of_neighbor.begin(), rs.port_of_neighbor.end());
    for (std::size_t i = 1; i < rs.port_of_neighbor.size(); ++i) {
      D2NET_REQUIRE(rs.port_of_neighbor[i].first != rs.port_of_neighbor[i - 1].first,
                    "parallel links are not supported by the simulator");
    }
    for (int j = 0; j < p; ++j) {
      const int node = topo.node_base(r) + j;
      nics_[node].router = r;
      nics_[node].in_port = deg + j;
    }
  }
  // Wire peer indices: out port i of router r toward neighbor n lands in
  // n's in port that faces r.
  for (int r = 0; r < topo.num_routers(); ++r) {
    const auto& nbrs = topo.neighbors(r);
    for (int i = 0; i < static_cast<int>(nbrs.size()); ++i) {
      const int n = nbrs[i];
      OutPort& op = routers_[r].out_ports[i];
      op.to_node = false;
      op.peer_router = n;
      op.peer_in_port = out_port_toward(n, r);  // symmetric port numbering
      InPort& ip = routers_[r].in_ports[i];
      ip.from_node = false;
      ip.peer_router = n;
      ip.peer_out_port = out_port_toward(n, r);
    }
    const int deg = static_cast<int>(nbrs.size());
    for (int j = 0; j < topo.endpoints_of(r); ++j) {
      OutPort& op = routers_[r].out_ports[deg + j];
      op.to_node = true;
      op.peer_node = topo.node_base(r) + j;
      InPort& ip = routers_[r].in_ports[deg + j];
      ip.from_node = true;
      ip.peer_node = topo.node_base(r) + j;
    }
  }
  // Allocate the VC/VOQ structure once; reset() only clears it in place, so
  // back-to-back runs on one instance do no structural allocation. Every
  // (in_port, vc, out_port) FIFO is one 16-byte cell in the flat voq_
  // array; each cell records its (in_port, vc) identity so a ready-list
  // entry alone locates the credit-return path.
  std::size_t total_cells = 0;
  std::size_t total_ports = 0;
  for (RouterState& rs : routers_) {
    rs.num_out = static_cast<std::int32_t>(rs.out_ports.size());
    rs.voq_base = static_cast<std::int32_t>(total_cells);
    total_cells += rs.in_ports.size() * static_cast<std::size_t>(num_vcs_) *
                   static_cast<std::size_t>(rs.num_out);
    total_ports += rs.out_ports.size();
    D2NET_REQUIRE(total_cells <= static_cast<std::size_t>(INT32_MAX),
                  "VOQ cell count overflows 32-bit indexing");
    for (OutPort& op : rs.out_ports) {
      op.credits.resize(op.to_node ? 0 : num_vcs_);
      op.credits_pending.resize(op.to_node ? 0 : num_vcs_);
    }
  }
  voq_.resize(total_cells);
  for (const RouterState& rs : routers_) {
    for (int ipx = 0; ipx < static_cast<int>(rs.in_ports.size()); ++ipx) {
      for (int vc = 0; vc < num_vcs_; ++vc) {
        for (int o = 0; o < rs.num_out; ++o) {
          VoqCell& cell = voq_[voq_index(rs, ipx, vc, o)];
          cell.in_port = static_cast<std::int16_t>(ipx);
          cell.vc = static_cast<std::uint8_t>(vc);
        }
      }
    }
  }
  for (NicState& nic : nics_) {
    nic.credits.resize(num_vcs_);
    nic.credits_pending.resize(num_vcs_);
  }
  router_dead_.assign(routers_.size(), 0);
  table_router_dead_.assign(routers_.size(), 0);

  // --- shard assignment (fixed for the life of the instance) ---
  // The okey packing (event_queue.h) gives same-time events a total order
  // independent of which lane pushed them — but only when every operand
  // fits its field. Serial runs degrade gracefully to the seq tie-break;
  // sharded runs must not, so the widths become hard requirements here.
  num_lanes_ = std::clamp(cfg_.shards, 1, topo.num_routers());
  lane_of_router_.assign(routers_.size(), 0);
  lane_of_node_.assign(nics_.size(), 0);
  if (num_lanes_ > 1) {
    D2NET_REQUIRE(cfg_.link_latency > 0,
                  "sharded execution needs link_latency > 0 (conservative lookahead)");
    D2NET_REQUIRE(topo.num_routers() < (1 << 22) && topo.num_nodes() < (1 << 22),
                  "sharded okey packing requires router/node ids < 2^22");
    D2NET_REQUIRE(cfg_.packet_bytes < (1 << 18),
                  "sharded okey packing requires packet_bytes < 2^18");
    for (const RouterState& rs : routers_) {
      D2NET_REQUIRE(rs.in_ports.size() < 4096,
                    "sharded okey packing requires port indices < 2^12");
    }
    D2NET_REQUIRE(cfg_.fault.schedule.size() < (1u << 22),
                  "sharded okey packing requires fault schedule indices < 2^22");
    if (cfg_.fault.propagation_enabled()) {
      // kFaultDetect/kFloodArrive carry the schedule index in the 18-bit
      // d-field (the a-field holds the learning router).
      D2NET_REQUIRE(cfg_.fault.schedule.size() < (1u << 18),
                    "fault propagation okey packing requires schedule indices < 2^18");
    }
    // Balanced low-cut shard assignment from the multilevel partitioner.
    // Vertex weight approximates per-router event work: endpoint ports run
    // generation + injection + ejection on top of forwarding.
    std::vector<std::array<int, 3>> edges;
    std::vector<int> vwgt(routers_.size());
    for (int r = 0; r < topo.num_routers(); ++r) {
      vwgt[r] = 2 * topo.endpoints_of(r) + topo.network_degree(r);
      for (int n : topo.neighbors(r)) {
        if (n > r) edges.push_back({r, n, 1});
      }
    }
    const KwayResult kp =
        partition_kway(make_csr(topo.num_routers(), edges, std::move(vwgt)), num_lanes_, {});
    lane_of_router_ = kp.part;
    for (int n = 0; n < topo.num_nodes(); ++n) {
      lane_of_node_[n] = lane_of_router_[topo.router_of_node(n)];
    }
  }

  // Pre-size the engine stores from the topology shape so a run's ramp-up
  // does not grow them one element at a time: at saturation every node has
  // a handful of generator/NIC events in flight and every network port a
  // few pending channel/credit events; packets in flight scale with ports
  // times a small per-VC queue depth. Reported via EngineCapacities. Lane 0
  // keeps the full-topology reserve (serial and demoted runs execute
  // every packet event there); the other lanes get a 2x proportional share
  // so imbalance does not force early regrowth.
  const std::size_t q_reserve = static_cast<std::size_t>(topo.num_nodes()) * 8 +
                                total_ports * static_cast<std::size_t>(num_vcs_) * 2;
  const std::size_t p_reserve = static_cast<std::size_t>(topo.num_nodes()) * 4 +
                                total_ports * static_cast<std::size_t>(num_vcs_) * 4;
  lanes_.resize(static_cast<std::size_t>(num_lanes_));
  for (int l = 0; l < num_lanes_; ++l) {
    Lane& ln = lanes_[static_cast<std::size_t>(l)];
    ln.id = l;
    ln.queue.reserve(l == 0 ? q_reserve
                            : q_reserve * 2 / static_cast<std::size_t>(num_lanes_));
    ln.pool.reserve(l == 0 ? p_reserve
                           : p_reserve * 2 / static_cast<std::size_t>(num_lanes_));
    ln.outbox.resize(static_cast<std::size_t>(num_lanes_));
  }
  node_rng_.resize(nics_.size());
  router_rng_.resize(routers_.size());
  node_uid_ctr_.assign(nics_.size(), 0);

  paranoid_ = cfg_.paranoid || paranoid_env();
  digest_enabled_ = cfg_.collect_event_digest;

  metrics_enabled_ = cfg_.metrics.enabled;
  if (metrics_enabled_) {
    D2NET_REQUIRE(cfg_.metrics.sample_period > 0,
                  "metrics sample period must be positive");
    port_instr_.resize(routers_.size());
    for (std::size_t r = 0; r < routers_.size(); ++r) {
      port_instr_[r].resize(routers_[r].out_ports.size());
    }
  }
  reset();
}

void NetworkSim::reset() {
  for (VoqCell& cell : voq_) {
    cell.head = cell.tail = cell.next_ready = -1;
    cell.in_ready = 0;
  }
  for (RouterState& rs : routers_) {
    for (OutPort& op : rs.out_ports) {
      op.free_at = 0;
      op.queued_bytes = 0;
      op.bytes_sent_window = 0;
      op.ready.clear();
      std::fill(op.credits.begin(), op.credits.end(), vc_buffer_bytes_);
      op.up = true;
      op.phys_up = true;
      op.table_up = true;
      op.epoch = 0;
      std::fill(op.credits_pending.begin(), op.credits_pending.end(), std::int64_t{0});
    }
  }
  for (NicState& nic : nics_) {
    nic.free_at = 0;
    std::fill(nic.credits.begin(), nic.credits.end(), vc_buffer_bytes_);
    nic.pending.clear();
    nic.messages.clear();
    nic.cursor = 0;
    std::fill(nic.credits_pending.begin(), nic.credits_pending.end(), std::int64_t{0});
  }
  std::fill(router_dead_.begin(), router_dead_.end(), std::uint8_t{0});
  std::fill(table_router_dead_.begin(), table_router_dead_.end(), std::uint8_t{0});
  fstats_ = FaultStats{};
  wedged_ = false;
  timed_out_ = false;
  progress_ = 0;
  watch_last_ = 0;
  for (Lane& ln : lanes_) {
    ln.queue.clear();
    ln.pool.recycle_all();
    ln.events_processed = 0;
    ln.progress = 0;
    ln.now = 0;
    ln.timed_out = false;
    ln.ejected_bytes_window = 0;
    ln.packets_injected = 0;
    ln.packets_minimal = 0;
    ln.hop_sum = 0;
    ln.hop_count = 0;
    ln.latency_ns = LogHistogram{};
    ln.phases = RunPhaseBreakdown{};
    ln.dropped = 0;
    ln.retried = 0;
    ln.lost = 0;
    ln.reroutes = 0;
    ln.misroutes = 0;
    ln.budget_drops = 0;
    ln.delivered_buckets.clear();
    ln.m_grants = 0;
    ln.m_credit_skips = 0;
    ln.m_injection_stalls = 0;
    ln.carryover_ns = LogHistogram{};
    ln.messages_sent = 0;
    for (auto& box : ln.outbox) box.clear();
    ln.ledger.clear();
    ln.dlog.clear();
  }
  control_.clear();
  // Per-entity RNG streams: every run replays the same per-node/per-router
  // draw sequences regardless of shard count (see the header comment).
  for (std::size_t n = 0; n < node_rng_.size(); ++n) {
    node_rng_[n].reseed(mix_seed(cfg_.seed, static_cast<std::uint64_t>(n)));
  }
  for (std::size_t r = 0; r < router_rng_.size(); ++r) {
    router_rng_[r].reseed(mix_seed(cfg_.seed, node_rng_.size() + static_cast<std::uint64_t>(r)));
  }
  std::fill(node_uid_ctr_.begin(), node_uid_ctr_.end(), std::uint64_t{0});
  active_lanes_ = 1;
  barrier_phase_ = false;
  windows_ = 0;
  window_width_ps_ = 0;
  coord_events_ = 0;
  now_ = 0;
  events_processed_ = 0;
  event_digest_ = kDigestOffset;
  ejected_bytes_window_ = 0;
  ejected_per_node_.assign(topo_.num_nodes(), 0);
  packets_injected_ = 0;
  packets_minimal_ = 0;
  hop_sum_ = 0;
  hop_count_ = 0;
  latency_ns_ = LogHistogram{};
  phases_ = RunPhaseBreakdown{};
  exchange_mode_ = false;
  exchange_remaining_ = 0;
  exchange_completion_ = -1;

  if (metrics_enabled_) {
    for (int r = 0; r < topo_.num_routers(); ++r) {
      const RouterState& rs = routers_[r];
      for (std::size_t o = 0; o < rs.out_ports.size(); ++o) {
        PortInstr& pi = port_instr_[r][o];
        pi.stall_since = -1;
        pi.m = PortMetrics{};
        pi.m.router = r;
        pi.m.port = static_cast<int>(o);
        pi.m.peer_router = rs.out_ports[o].to_node ? -1 : rs.out_ports[o].peer_router;
        pi.m.peer_node = rs.out_ports[o].to_node ? rs.out_ports[o].peer_node : -1;
        pi.m.vcs.resize(num_vcs_);
      }
    }
    occupancy_series_.clear();
    registry_ = std::make_unique<MetricsRegistry>();
    ctr_grants_ = &registry_->counter("grants");
    ctr_credit_skips_ = &registry_->counter("credit_blocked_skips");
    ctr_injection_stalls_ = &registry_->counter("injection_credit_stalls");
    ctr_samples_ = &registry_->counter("occupancy_samples");
    hist_carryover_ns_ = &registry_->histogram("carryover_latency_ns");
  }
}

int NetworkSim::out_port_toward(int router, int neighbor) const {
  const auto& map = routers_[router].port_of_neighbor;
  auto it = std::lower_bound(map.begin(), map.end(), std::make_pair(neighbor, -1));
  D2NET_ASSERT(it != map.end() && it->first == neighbor, "no port toward neighbor");
  return it->second;
}

int NetworkSim::out_port_for_packet(int router, const Packet& pkt) const {
  if (pkt.at_destination_router()) {
    const int deg = topo_.network_degree(router);
    const int j = pkt.dst_node - topo_.node_base(router);
    D2NET_ASSERT(j >= 0 && j < topo_.endpoints_of(router), "destination not on this router");
    return deg + j;
  }
  return out_port_toward(router, pkt.route.routers[pkt.hop + 1]);
}

std::int64_t NetworkSim::output_queue_bytes(int router, int next_hop) const {
  return routers_[router].out_ports[out_port_toward(router, next_hop)].queued_bytes;
}

std::int64_t NetworkSim::output_queue_capacity() const { return cfg_.buffer_bytes_per_port; }

std::vector<NetworkSim::ChannelStats> NetworkSim::channel_stats() const {
  std::vector<ChannelStats> out;
  const double window_bytes =
      static_cast<double>(window_end_ - window_start_) / static_cast<double>(cfg_.ps_per_byte);
  for (int r = 0; r < topo_.num_routers(); ++r) {
    const auto& nbrs = topo_.neighbors(r);
    for (int i = 0; i < static_cast<int>(nbrs.size()); ++i) {
      const OutPort& op = routers_[r].out_ports[i];
      ChannelStats cs;
      cs.router = r;
      cs.neighbor = nbrs[i];
      cs.bytes = op.bytes_sent_window;
      cs.utilization =
          window_bytes > 0 ? static_cast<double>(op.bytes_sent_window) / window_bytes : 0.0;
      out.push_back(cs);
    }
  }
  return out;
}

bool NetworkSim::start_injection(Lane& ln, int node, int dst, int size, TimePs gen_time,
                                 std::int64_t msg_id, TimePs now) {
  NicState& nic = nics_[node];
  const int src_router = nic.router;
  const int dst_router = topo_.router_of_node(dst);

  // Route directly into the pooled packet's Route so its inline storage is
  // reused across packets (no per-packet allocation in steady state).
  const int pkt_id = ln.pool.alloc();
  Packet& pkt = ln.pool[pkt_id];
  Route& route = pkt.route;
  if (dst_router == src_router) {
    route.routers.assign(1, src_router);
    route.vcs.clear();
    route.intermediate_pos = -1;
  } else {
    routing_->route_into(src_router, dst_router, node_rng_[node], route);
    if (faults_enabled_ && route.routers.empty()) {
      // Destination currently unreachable: the NIC head-of-line blocks and
      // keeps retrying (next tick / credit return) until the network heals
      // or the watchdog declares the run wedged.
      ln.pool.release(pkt_id);
      return false;
    }
  }
  int vc0 = route.vcs.empty() ? 0 : route.vcs.front();
  // Fault-degraded paths can be longer than the healthy provisioning
  // assumed; collapse overflow onto the top VC (watchdog guards the
  // resulting deadlock risk).
  if (faults_enabled_ && vc0 >= num_vcs_) vc0 = num_vcs_ - 1;
  if (nic.credits[vc0] < size) {
    ln.pool.release(pkt_id);
    if (metrics_enabled_) ++ln.m_injection_stalls;
    return false;  // stall; retried on credit return
  }

  pkt.src_node = node;
  pkt.dst_node = dst;
  pkt.size = size;
  pkt.gen_time = gen_time;
  pkt.inject_time = now;
  pkt.hop = 0;
  pkt.msg_id = msg_id;
  pkt.retries = 0;
  pkt.misroutes = 0;
  pkt.link_epoch = 0;
  // Pool-independent identity, assigned once per successful injection:
  // ordering keys and the digest use it instead of the pool slot.
  pkt.uid = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 34) |
            node_uid_ctr_[node]++;

  nic.credits[vc0] -= size;
  const TimePs ser = static_cast<TimePs>(size) * cfg_.ps_per_byte;
  nic.free_at = now + ser;
  ln.queue.push(nic.free_at, EventType::kNicFree, node);
  // Cut-through: the router sees the packet when its head lands; the
  // eligibility delay (router latency > serialization at these parameters)
  // guarantees the tail is in the buffer before any forwarding decision.
  const TimePs arrival_ser = cfg_.cut_through ? 0 : ser;
  ln.queue.push_keyed(now + arrival_ser + cfg_.link_latency,
                      pack_packet_okey(EventType::kArriveRouter, pkt.uid),
                      EventType::kArriveRouter, pkt_id, src_router, nic.in_port, vc0);
  ++ln.progress;
  ++ln.packets_injected;
  if (pkt.route.minimal()) ++ln.packets_minimal;
  ++(gen_time < window_start_ ? ln.phases.injected_warmup : ln.phases.injected_measured);
  return true;
}

void NetworkSim::try_inject(Lane& ln, int node, TimePs now) {
  NicState& nic = nics_[node];
  if (nic.free_at > now) return;  // kNicFree will retry

  if (!nic.pending.empty()) {
    // Open loop: destination drawn per packet at injection time.
    const TimePs gen_time = nic.pending.front();
    const int dst = pattern_->dest(node, node_rng_[node]);
    if (start_injection(ln, node, dst, cfg_.packet_bytes, gen_time, -1, now)) {
      nic.pending.pop_front();
    }
    return;
  }

  if (exchange_mode_ && !nic.messages.empty()) {
    if (nic.cursor >= nic.messages.size()) nic.cursor = 0;
    ExchangeMessage& m = nic.messages[nic.cursor];
    const int chunk =
        static_cast<int>(std::min<std::int64_t>(m.bytes, cfg_.packet_bytes));
    if (!start_injection(ln, node, m.dst_node, chunk, now,
                         static_cast<std::int64_t>(nic.cursor), now)) {
      return;
    }
    m.bytes -= chunk;
    if (m.bytes == 0) {
      nic.messages.erase(nic.messages.begin() + static_cast<std::ptrdiff_t>(nic.cursor));
      if (nic.cursor >= nic.messages.size()) nic.cursor = 0;
    } else if (plan_order_ == MessageOrder::kRoundRobin) {
      // Round-robin interleaves open messages; sequential drains in order.
      nic.cursor = (nic.cursor + 1) % nic.messages.size();
    }
  }
}

void NetworkSim::handle_arrive_router(Lane& ln, int pkt_id, int router, int in_port,
                                      int vc, TimePs now) {
  RouterState& rs = routers_[router];
  if (faults_enabled_) {
    const InPort& ipc = rs.in_ports[in_port];
    bool destroyed = router_dead_[router] != 0;
    if (!destroyed && !ipc.from_node) {
      // Destruction is *physical*: with propagation a router may grant onto
      // a wire it still believes up — the packet dies here, at arrival,
      // where the cut (phys_up / epoch) is authoritative.
      const OutPort& sender = routers_[ipc.peer_router].out_ports[ipc.peer_out_port];
      destroyed = !sender.phys_up || router_dead_[ipc.peer_router] != 0 ||
                  ln.pool[pkt_id].link_epoch != sender.epoch;
    }
    if (destroyed) {
      // The wire was cut (or a router died) while the packet was in
      // flight: it never lands in the input buffer and no credit moves;
      // the sender's lost credits are recreated by the link-up resync.
      drop_packet(ln, pkt_id, now);
      return;
    }
  }
  int out_idx = out_port_for_packet(router, ln.pool[pkt_id]);
  if (faults_enabled_ && out_port_dead(router, out_idx)) {
    // Arrived intact but the planned next link is gone: salvage onto the
    // rebuilt table, or free the buffer (credit upstream) and drop/retry.
    Packet& pkt = ln.pool[pkt_id];
    if (salvage_route(ln, pkt, router)) {
      ++ln.reroutes;
      out_idx = out_port_for_packet(router, pkt);
    } else {
      return_input_credit(ln, router, in_port, vc, pkt.size, now);
      drop_packet(ln, pkt_id, now);
      return;
    }
  }
  const int size = ln.pool[pkt_id].size;
  rs.out_ports[out_idx].queued_bytes += size;
  VoqCell& cell = voq_[voq_index(rs, in_port, vc, out_idx)];
  if (voq_push(ln.pool, cell, pkt_id, now + cfg_.router_latency)) {
    ln.queue.push(now + cfg_.router_latency, EventType::kHeadEligible, router, in_port, vc,
                  out_idx);
  }
}

void NetworkSim::handle_head_eligible(Lane& ln, int router, int in_port, int vc,
                                      int out_idx, TimePs now) {
  RouterState& rs = routers_[router];
  const std::int32_t ci = voq_index(rs, in_port, vc, out_idx);
  VoqCell& cell = voq_[ci];
  if (cell.head < 0 || cell.in_ready) {
    return;  // stale event (head already granted and successor rescheduled)
  }
  const TimePs eligible_at = ln.pool[cell.head].eligible_at;
  if (eligible_at > now) {
    // Defensive: never strand a head — re-arm at its eligibility time.
    ln.queue.push(eligible_at, EventType::kHeadEligible, router, in_port, vc, out_idx);
    return;
  }
  cell.in_ready = 1;
  ready_append(rs.out_ports[out_idx].ready, voq_, ci);
  try_grant(ln, router, out_idx, now);
}

void NetworkSim::try_grant(Lane& ln, int router, int out_idx, TimePs now) {
  RouterState& rs = routers_[router];
  OutPort& out = rs.out_ports[out_idx];
  if (out.free_at > now) return;  // kChannelFree retries
  if (faults_enabled_ && out_port_dead(router, out_idx)) return;  // link-up kicks again

  // Round-robin over the ready list: pop each candidate off the head; a
  // skipped (credit-blocked) entry re-appends at the tail, which is exactly
  // the erase-then-rotate order of the old vector arbitration. The budget
  // bounds the scan to one pass over the entries present on entry.
  bool credit_blocked = false;
  int budget = out.ready.count;
  while (budget-- > 0) {
    const std::int32_t ci = ready_pop(out.ready, voq_);
    VoqCell& cell = voq_[ci];
    D2NET_HOT_ASSERT(cell.head >= 0 && cell.in_ready, "ready list out of sync");
    const int pkt_id = cell.head;
    Packet& pkt = ln.pool[pkt_id];
    int vc_next = 0;
    if (!out.to_node) {
      vc_next = pkt.vc_at_hop();
      if (faults_enabled_ && vc_next >= num_vcs_) vc_next = num_vcs_ - 1;
      if (out.credits[vc_next] < pkt.size) {  // blocked on credit
        credit_blocked = true;
        if (metrics_enabled_) ++ln.m_credit_skips;
        ready_append(out.ready, voq_, ci);
        continue;
      }
    }

    // Grant: the cell leaves the ready list (already popped) and the packet
    // leaves its FIFO.
    const int in_port = cell.in_port;
    const int in_vc = cell.vc;
    cell.in_ready = 0;
    voq_pop(ln.pool, cell);
    out.queued_bytes -= pkt.size;

    const TimePs ser = static_cast<TimePs>(pkt.size) * cfg_.ps_per_byte;
    out.free_at = now + ser;
    if (now >= window_start_ && now <= window_end_) out.bytes_sent_window += pkt.size;
    ln.queue.push(out.free_at, EventType::kChannelFree, router, out_idx);

    if (metrics_enabled_) {
      PortInstr& pi = port_instr_[router][out_idx];
      if (pi.stall_since >= 0) {
        pi.m.credit_stall_ps += now - pi.stall_since;
        pi.stall_since = -1;
      }
      ++ln.m_grants;
      if (now >= window_start_ && now <= window_end_) {
        ++pi.m.packets_forwarded;
        pi.m.bytes_forwarded += pkt.size;
        VcMetrics& vm = pi.m.vcs[in_vc];
        ++vm.packets;
        vm.bytes += pkt.size;
        ++(pkt.route.minimal() ? vm.minimal_packets : vm.indirect_packets);
      }
    }

    // Return the freed input-buffer credit upstream.
    return_input_credit(ln, router, in_port, in_vc, pkt.size, now);

    if (out.to_node) {
      // Delivery completes when the tail reaches the NIC, regardless of
      // forwarding mode. The ejected-to node hangs off this router, so the
      // event is always lane-local.
      ln.queue.push_keyed(now + ser + cfg_.link_latency,
                          pack_packet_okey(EventType::kArriveNode, pkt.uid),
                          EventType::kArriveNode, pkt_id, out.peer_node);
    } else {
      out.credits[vc_next] -= pkt.size;
      if (faults_enabled_) pkt.link_epoch = out.epoch;
      pkt.hop += 1;
      const TimePs arrival_ser = cfg_.cut_through ? 0 : ser;
      // May cross a shard boundary; pkt must not be touched afterwards (a
      // cross-lane send migrates it out of this lane's pool).
      send_arrive_router(ln, now + arrival_ser + cfg_.link_latency, pkt_id,
                         out.peer_router, out.peer_in_port, vc_next);
    }
    ++ln.progress;

    // Wake the new head of the drained FIFO, if any.
    if (cell.head >= 0) {
      ln.queue.push(std::max(now, ln.pool[cell.head].eligible_at),
                    EventType::kHeadEligible, router, in_port, in_vc, out_idx);
    }
    return;
  }
  // Nothing granted: if the idle channel has eligible heads blocked purely
  // on downstream credit, open (or keep open) this port's stall interval.
  if (metrics_enabled_ && credit_blocked) {
    PortInstr& pi = port_instr_[router][out_idx];
    if (pi.stall_since < 0) pi.stall_since = now;
  }
}

void NetworkSim::handle_arrive_node(Lane& ln, int pkt_id, TimePs now) {
  const Packet& pkt = ln.pool[pkt_id];
  if (now < window_start_) {
    ++ln.phases.delivered_warmup;
  } else if (now <= window_end_) {
    // Throughput counts every in-window ejection (steady-state byte flow);
    // the latency/hop distributions count only packets *generated* inside
    // the window — a packet born during warmup carries exactly the
    // queueing transient the warmup exists to discard.
    ln.ejected_bytes_window += pkt.size;
    ejected_per_node_[pkt.dst_node] += pkt.size;  // dst node lives on this lane
    if (pkt.gen_time >= window_start_) {
      ++ln.phases.delivered_measured;
      ln.latency_ns.add(static_cast<std::int64_t>(to_ns(now - pkt.gen_time)));
      ln.hop_sum += pkt.route.hops();
      ++ln.hop_count;
    } else {
      ++ln.phases.delivered_carryover;
      if (metrics_enabled_) {
        ln.carryover_ns.add(static_cast<std::int64_t>(to_ns(now - pkt.gen_time)));
      }
    }
    if (trace_ != nullptr) {  // tracing demotes to serial; always lane 0
      trace_->record({pkt.src_node, pkt.dst_node, pkt.size, pkt.gen_time, pkt.inject_time,
                      now, pkt.route.hops(), pkt.route.minimal()});
    }
  }
  if (exchange_mode_) {  // exchange runs are always serial
    exchange_remaining_ -= pkt.size;
    if (exchange_remaining_ == 0) exchange_completion_ = now;
  }
  if (cfg_.fault.recovery_sample > 0) {
    const auto bucket = static_cast<std::size_t>(now / cfg_.fault.recovery_sample);
    if (bucket >= ln.delivered_buckets.size()) {
      ln.delivered_buckets.resize(bucket + 1, 0);
    }
    ln.delivered_buckets[bucket] += pkt.size;
  }
  ++ln.progress;
  ln.pool.release(pkt_id);
}

void NetworkSim::dispatch(Lane& ln, const Event& e) {
  switch (e.type) {
    case EventType::kGenerate: {
      if (e.time >= gen_end_) break;
      nics_[e.a].pending.push_back(e.time);
      try_inject(ln, e.a, e.time);
      // Poisson arrivals: exponential inter-arrival with mean pkt_time/load.
      const double mean =
          static_cast<double>(cfg_.packet_serialization()) / std::max(load_, 1e-9);
      const double u = 1.0 - node_rng_[e.a].uniform();  // (0, 1]
      const auto dt = static_cast<TimePs>(-std::log(u) * mean) + 1;
      ln.queue.push(e.time + dt, EventType::kGenerate, e.a);
      break;
    }
    case EventType::kNicFree:
      try_inject(ln, e.a, e.time);
      break;
    case EventType::kArriveRouter:
      handle_arrive_router(ln, e.a, e.b, e.c, e.d, e.time);
      break;
    case EventType::kHeadEligible:
      handle_head_eligible(ln, e.a, e.b, e.c, e.d, e.time);
      break;
    case EventType::kChannelFree:
      try_grant(ln, e.a, e.b, e.time);
      break;
    case EventType::kCreditToRouter:
      routers_[e.a].out_ports[e.b].credits[e.c] += e.d;
      if (faults_enabled_) {
        routers_[e.a].out_ports[e.b].credits_pending[e.c] -= e.d;
        ++ln.progress;
      }
      try_grant(ln, e.a, e.b, e.time);
      break;
    case EventType::kCreditToNic:
      nics_[e.a].credits[e.c] += e.d;
      if (faults_enabled_) {
        nics_[e.a].credits_pending[e.c] -= e.d;
        ++ln.progress;
      }
      try_inject(ln, e.a, e.time);
      break;
    case EventType::kArriveNode:
      handle_arrive_node(ln, e.a, e.time);
      break;
    case EventType::kRetryInject:
      handle_retry(ln, e.a, e.time);
      break;
    case EventType::kFault:
    case EventType::kFaultDetect:
    case EventType::kFloodArrive:
    case EventType::kMetricsSample:
    case EventType::kWatchdog:
      // Control events live on the control queue and run in
      // serialized_step, never through a lane dispatch.
      break;
  }
}

void NetworkSim::handle_metrics_sample(TimePs now) {
  // Read-only over simulation state: records queue depths and schedules
  // the next tick. Must not touch the RNG or any router/NIC state. It runs
  // on the coordinator at a window barrier, where every lane has retired
  // all events before `now`.
  std::int64_t total = 0;
  for (int r = 0; r < topo_.num_routers(); ++r) {
    const RouterState& rs = routers_[r];
    for (std::size_t o = 0; o < rs.out_ports.size(); ++o) {
      const std::int64_t q = rs.out_ports[o].queued_bytes;
      port_instr_[r][o].m.occupancy_bytes.add(static_cast<double>(q));
      total += q;
    }
  }
  occupancy_series_.push_back({now, total});
  ctr_samples_->add();
  const TimePs next = now + cfg_.metrics.sample_period;
  if (next <= window_end_) control_.push(next, EventType::kMetricsSample);
}

// --- cross-shard-capable push helpers ---

void NetworkSim::send_arrive_router(Lane& ln, TimePs t, int pkt_id, int router,
                                    int in_port, int vc) {
  const std::uint64_t okey =
      pack_packet_okey(EventType::kArriveRouter, ln.pool[pkt_id].uid);
  const int target = lane_index_of_router(router);
  if (active_lanes_ == 1 || target == ln.id) {
    ln.queue.push_keyed(t, okey, EventType::kArriveRouter, pkt_id, router, in_port, vc);
    return;
  }
  ++ln.messages_sent;
  Lane& dst = lanes_[static_cast<std::size_t>(target)];
  if (barrier_phase_) {
    // Serialized phase: single-threaded, so migrate and push directly.
    const int id = dst.pool.alloc();
    dst.pool[id] = ln.pool[pkt_id];
    ln.pool.release(pkt_id);
    dst.queue.push_keyed(t, okey, EventType::kArriveRouter, id, router, in_port, vc);
    return;
  }
  CrossMsg m;
  m.time = t;
  m.okey = okey;
  m.b = router;
  m.c = in_port;
  m.d = vc;
  m.type = EventType::kArriveRouter;
  m.has_pkt = true;
  m.pkt = ln.pool[pkt_id];
  ln.outbox[static_cast<std::size_t>(target)].push_back(m);
  ln.pool.release(pkt_id);
}

void NetworkSim::send_retry(Lane& ln, TimePs t, int pkt_id) {
  const Packet& pkt = ln.pool[pkt_id];
  const std::uint64_t okey = pack_packet_okey(EventType::kRetryInject, pkt.uid);
  // Retries re-inject at the source NIC, which may live on another shard
  // than the router that dropped the packet. The backoff is >= one link
  // latency (enforced by setup_run), so the lookahead bound holds.
  const int target = lane_index_of_node(pkt.src_node);
  if (active_lanes_ == 1 || target == ln.id) {
    ln.queue.push_keyed(t, okey, EventType::kRetryInject, pkt_id);
    return;
  }
  ++ln.messages_sent;
  Lane& dst = lanes_[static_cast<std::size_t>(target)];
  if (barrier_phase_) {
    const int id = dst.pool.alloc();
    dst.pool[id] = ln.pool[pkt_id];
    ln.pool.release(pkt_id);
    dst.queue.push_keyed(t, okey, EventType::kRetryInject, id);
    return;
  }
  CrossMsg m;
  m.time = t;
  m.okey = okey;
  m.type = EventType::kRetryInject;
  m.has_pkt = true;
  m.pkt = ln.pool[pkt_id];
  ln.outbox[static_cast<std::size_t>(target)].push_back(m);
  ln.pool.release(pkt_id);
}

void NetworkSim::send_credit_to_router(Lane& ln, TimePs t, int router, int out_port,
                                       int vc, int bytes) {
  const int target = lane_index_of_router(router);
  if (active_lanes_ == 1 || target == ln.id) {
    if (faults_enabled_) {
      routers_[router].out_ports[out_port].credits_pending[vc] += bytes;
    }
    ln.queue.push(t, EventType::kCreditToRouter, router, out_port, vc, bytes);
    return;
  }
  ++ln.messages_sent;
  if (barrier_phase_) {
    if (faults_enabled_) {
      routers_[router].out_ports[out_port].credits_pending[vc] += bytes;
    }
    lanes_[static_cast<std::size_t>(target)].queue.push(t, EventType::kCreditToRouter,
                                                        router, out_port, vc, bytes);
    return;
  }
  // Parallel round: the credits_pending += targets another lane's port, so
  // defer it to the barrier (ledger); the event itself rides the mailbox.
  if (faults_enabled_) {
    ln.ledger.push_back({router, out_port, vc, bytes});
  }
  CrossMsg m;
  m.time = t;
  m.okey = pack_event_okey(EventType::kCreditToRouter, router, out_port, vc, bytes);
  m.a = router;
  m.b = out_port;
  m.c = vc;
  m.d = bytes;
  m.type = EventType::kCreditToRouter;
  ln.outbox[static_cast<std::size_t>(target)].push_back(m);
}

// --- fault machinery (inert with an empty schedule) ---

bool NetworkSim::out_port_dead(int router, int out_idx) const {
  if (router_dead_[router]) return true;
  const OutPort& op = routers_[router].out_ports[out_idx];
  if (op.to_node) return false;
  if (!op.up) return true;
  // Oracle mode may consult the peer's physical state directly; with
  // propagation the owning router acts only on its *believed* view — a
  // neighbor's death is unknown here until detected or flooded, and packets
  // granted toward it meanwhile die physically on arrival.
  return !prop_enabled_ && router_dead_[op.peer_router] != 0;
}

bool NetworkSim::link_admitted(int a, int b) const {
  // Oracle mode refreshes inside apply_fault, so the physical state is the
  // table's filter. Propagation refreshes at each update's *convergence*,
  // so the filter must be the converged state (table_up /
  // table_router_dead_), not the believed `up` flags, which run ahead of
  // it.
  if (prop_enabled_) {
    if (table_router_dead_[a] || table_router_dead_[b]) return false;
    return routers_[a].out_ports[out_port_toward(a, b)].table_up;
  }
  if (router_dead_[a] || router_dead_[b]) return false;
  return routers_[a].out_ports[out_port_toward(a, b)].up;
}

void NetworkSim::refresh_fault_table() {
  if (!cfg_.fault.reroute || fault_table_ == nullptr) return;
  fault_table_->rebuild(topo_, [this](int a, int b) { return link_admitted(a, b); });
  fstats_.unreachable_pairs =
      std::max(fstats_.unreachable_pairs, fault_table_->unreachable_pairs());
}

bool NetworkSim::salvage_route(Lane& ln, Packet& pkt, int router) {
  if (cfg_.fault.recovery != FaultRecovery::kSalvage || fault_table_ == nullptr) {
    return false;
  }
  const int dst_router = topo_.router_of_node(pkt.dst_node);
  D2NET_ASSERT(router != dst_router, "salvage at the destination router");
  const int dist = fault_table_->distance(router, dst_router);
  if (dist < 0) return false;                            // disconnected
  if (pkt.hop + dist > hop_limit_) return false;         // livelock guard
  // Keep the traversed prefix, replace the tail with a fresh shortest path
  // over the surviving links. VCs continue hop-indexed, collapsed onto the
  // top VC once the stretched path exceeds the healthy provisioning.
  Route& route = pkt.route;
  D2NET_ASSERT(route.routers[static_cast<std::size_t>(pkt.hop)] == router,
               "salvage at a router the packet does not occupy");
  const auto finish_tail = [&] {
    if (route.intermediate_pos > pkt.hop) route.intermediate_pos = pkt.hop;
    const int hops = route.hops();
    route.vcs.resize(static_cast<std::size_t>(hops));
    for (int i = pkt.hop; i < hops; ++i) {
      route.vcs[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(std::min(i, num_vcs_ - 1));
    }
  };
  if (!prop_enabled_) {
    route.routers.resize(static_cast<std::size_t>(pkt.hop) + 1);
    fault_table_->sample_path_append(router, dst_router, router_rng_[router],
                                     route.routers);
    finish_tail();
    return true;
  }
  // Propagation: the shared table only reflects *converged* updates, so a
  // sampled path may cross links this router already believes dead.
  // Escalate — resample a bounded number of times against the local view,
  // then fall back to a local-greedy detour on the misroute budget.
  for (int attempt = 0; attempt < kSalvageSamples; ++attempt) {
    route.routers.resize(static_cast<std::size_t>(pkt.hop) + 1);
    fault_table_->sample_path_append(router, dst_router, router_rng_[router],
                                     route.routers);
    if (route_believed_alive(pkt, router, pkt.hop)) {
      finish_tail();
      return true;
    }
  }
  if (misroute_detour(pkt, router)) {
    finish_tail();
    ++ln.misroutes;
    return true;
  }
  if (pkt.misroutes >= cfg_.fault.misroute_limit) ++ln.budget_drops;
  return false;
}

bool NetworkSim::route_believed_alive(const Packet& pkt, int router, int from_hop) const {
  const auto& hops = pkt.route.routers;
  for (std::size_t i = static_cast<std::size_t>(from_hop); i + 1 < hops.size(); ++i) {
    if (!view_.believes_link_alive(router, hops[i], hops[i + 1])) return false;
  }
  return true;
}

bool NetworkSim::misroute_detour(Packet& pkt, int router) {
  if (pkt.misroutes >= cfg_.fault.misroute_limit) return false;
  const auto& nbrs = topo_.neighbors(router);
  const int deg = static_cast<int>(nbrs.size());
  if (deg == 0) return false;
  const int dst_router = topo_.router_of_node(pkt.dst_node);
  // Round-robin from a random offset over believed-live neighbors; the RNG
  // stream is router-local, so shard count cannot shift the pick.
  const int start = std::min(
      deg - 1, static_cast<int>(router_rng_[router].uniform() * static_cast<double>(deg)));
  for (int k = 0; k < deg; ++k) {
    const int i = (start + k) % deg;
    const int m = nbrs[static_cast<std::size_t>(i)];
    const OutPort& op = routers_[router].out_ports[static_cast<std::size_t>(i)];
    if (!op.up) continue;  // believed dead locally
    if (!view_.believes_router_alive(router, m)) continue;
    const int dist = m == dst_router ? 0 : fault_table_->distance(m, dst_router);
    if (dist < 0) continue;
    if (pkt.hop + 1 + dist > hop_limit_) continue;  // TTL-style loop guard
    Route& route = pkt.route;
    route.routers.resize(static_cast<std::size_t>(pkt.hop) + 1);
    route.routers.push_back(m);
    if (m != dst_router) {
      fault_table_->sample_path_append(m, dst_router, router_rng_[router], route.routers);
    }
    ++pkt.misroutes;
    return true;
  }
  return false;
}

void NetworkSim::return_input_credit(Lane& ln, int router, int in_port, int vc, int bytes,
                                     TimePs now) {
  const InPort& ip = routers_[router].in_ports[in_port];
  if (ip.from_node) {
    // The NIC is colocated with its router's shard, so this never crosses.
    if (faults_enabled_) {
      if (router_dead_[router]) return;  // the injection wire died with the router
      nics_[ip.peer_node].credits_pending[vc] += bytes;
    }
    ln.queue.push(now + cfg_.link_latency, EventType::kCreditToNic, ip.peer_node, 0, vc,
                  bytes);
  } else {
    if (faults_enabled_) {
      const OutPort& peer = routers_[ip.peer_router].out_ports[ip.peer_out_port];
      // A *physically* cut reverse wire carries no credit (whatever anyone
      // believes); the link-up resync recreates it.
      if (!peer.phys_up || router_dead_[ip.peer_router] || router_dead_[router]) return;
    }
    // The pending += bookkeeping lives inside the helper (it must be
    // deferred when the peer port belongs to another lane).
    send_credit_to_router(ln, now + cfg_.link_latency, ip.peer_router, ip.peer_out_port,
                          vc, bytes);
  }
}

void NetworkSim::drop_packet(Lane& ln, int pkt_id, TimePs now) {
  ++ln.dropped;
  Packet& pkt = ln.pool[pkt_id];
  if (cfg_.fault.recovery != FaultRecovery::kNone && pkt.retries < cfg_.fault.max_retries) {
    const TimePs backoff = cfg_.fault.retry_backoff * (TimePs{1} << pkt.retries);
    ++pkt.retries;
    send_retry(ln, now + backoff, pkt_id);  // pkt may migrate; no access after
  } else {
    ++ln.lost;
    ln.pool.release(pkt_id);
  }
}

void NetworkSim::handle_retry(Lane& ln, int pkt_id, TimePs now) {
  ++ln.progress;
  Packet& pkt = ln.pool[pkt_id];
  NicState& nic = nics_[pkt.src_node];
  const int src_router = nic.router;
  const int dst_router = topo_.router_of_node(pkt.dst_node);
  bool ok = nic.free_at <= now && !router_dead_[src_router];
  int vc0 = 0;
  if (ok) {
    if (dst_router == src_router) {
      pkt.route.routers.assign(1, src_router);
      pkt.route.vcs.clear();
      pkt.route.intermediate_pos = -1;
    } else {
      routing_->route_into(src_router, dst_router, node_rng_[pkt.src_node], pkt.route);
      ok = !pkt.route.routers.empty();
    }
    if (ok) {
      vc0 = pkt.route.vcs.empty() ? 0 : pkt.route.vcs.front();
      if (vc0 >= num_vcs_) vc0 = num_vcs_ - 1;
      ok = nic.credits[vc0] >= pkt.size;
    }
  }
  if (!ok) {
    // NIC busy, destination unreachable, or no credit: burn one attempt and
    // back off again, or give the packet up for good. The packet already
    // sits on its source node's lane, so the re-push is lane-local.
    if (pkt.retries < cfg_.fault.max_retries) {
      const TimePs backoff = cfg_.fault.retry_backoff * (TimePs{1} << pkt.retries);
      ++pkt.retries;
      ln.queue.push_keyed(now + backoff, pack_packet_okey(EventType::kRetryInject, pkt.uid),
                          EventType::kRetryInject, pkt_id);
    } else {
      ++ln.lost;
      ln.pool.release(pkt_id);
    }
    return;
  }
  pkt.hop = 0;
  pkt.inject_time = now;
  pkt.link_epoch = 0;
  pkt.misroutes = 0;  // the detour budget is per delivery attempt
  nic.credits[vc0] -= pkt.size;
  const TimePs ser = static_cast<TimePs>(pkt.size) * cfg_.ps_per_byte;
  nic.free_at = now + ser;
  ln.queue.push(nic.free_at, EventType::kNicFree, pkt.src_node);
  const TimePs arrival_ser = cfg_.cut_through ? 0 : ser;
  ln.queue.push_keyed(now + arrival_ser + cfg_.link_latency,
                      pack_packet_okey(EventType::kArriveRouter, pkt.uid),
                      EventType::kArriveRouter, pkt_id, src_router, nic.in_port, vc0);
  ++ln.retried;
}

void NetworkSim::drain_out_port(int router, int out_idx, TimePs now, bool credit_returns,
                                bool allow_salvage) {
  Lane& ln = lane_of_router(router);  // faults execute at barriers: safe anywhere
  RouterState& rs = routers_[router];
  OutPort& op = rs.out_ports[out_idx];
  for (std::size_t ipx = 0; ipx < rs.in_ports.size(); ++ipx) {
    for (int vc = 0; vc < num_vcs_; ++vc) {
      VoqCell& cell = voq_[voq_index(rs, static_cast<int>(ipx), vc, out_idx)];
      while (cell.head >= 0) {
        const int pkt_id = voq_pop(ln.pool, cell);
        Packet& pkt = ln.pool[pkt_id];
        if (allow_salvage && salvage_route(ln, pkt, router)) {
          // The packet stays in its input buffer, re-queued for the out
          // port of its fresh route after a re-decision latency.
          const int new_out = out_port_for_packet(router, pkt);
          D2NET_ASSERT(new_out != out_idx, "salvage re-chose the dead port");
          ++ln.reroutes;
          VoqCell& fresh = voq_[voq_index(rs, static_cast<int>(ipx), vc, new_out)];
          rs.out_ports[new_out].queued_bytes += pkt.size;
          if (voq_push(ln.pool, fresh, pkt_id, now + cfg_.router_latency)) {
            ln.queue.push(now + cfg_.router_latency, EventType::kHeadEligible, router,
                          static_cast<int>(ipx), vc, new_out);
          }
        } else {
          if (credit_returns) {
            return_input_credit(ln, router, static_cast<int>(ipx), vc, pkt.size, now);
          }
          drop_packet(ln, pkt_id, now);
        }
      }
      cell.in_ready = 0;
    }
  }
  op.ready.clear();
  op.queued_bytes = 0;
}

std::int64_t NetworkSim::input_vc_bytes(const PacketPool& pool, const RouterState& rs,
                                        int in_port, int vc) const {
  std::int64_t occupied = 0;
  for (int o = 0; o < rs.num_out; ++o) {
    const VoqCell& cell = voq_[voq_index(rs, in_port, vc, o)];
    for (int id = cell.head; id >= 0; id = pool[id].vnext) occupied += pool[id].size;
  }
  return occupied;
}

void NetworkSim::resync_link_credits(int u, int v) {
  OutPort& op = routers_[u].out_ports[out_port_toward(u, v)];
  const RouterState& peer = routers_[v];
  const PacketPool& pool = lanes_[static_cast<std::size_t>(lane_index_of_router(v))].pool;
  for (int vc = 0; vc < num_vcs_; ++vc) {
    op.credits[vc] = vc_buffer_bytes_ - input_vc_bytes(pool, peer, op.peer_in_port, vc) -
                     op.credits_pending[vc];
  }
}

void NetworkSim::resync_nic_credits(int node) {
  NicState& nic = nics_[node];
  const RouterState& rs = routers_[nic.router];
  const PacketPool& pool =
      lanes_[static_cast<std::size_t>(lane_index_of_router(nic.router))].pool;
  for (int vc = 0; vc < num_vcs_; ++vc) {
    nic.credits[vc] =
        vc_buffer_bytes_ - input_vc_bytes(pool, rs, nic.in_port, vc) - nic.credits_pending[vc];
  }
}

void NetworkSim::schedule_detections(int idx, TimePs now) {
  // Each physically-attached live router arms a missed-credit timeout: it
  // notices the change `detection_delay` after the wire actually flips.
  // Control-plane events ride the serialized queue, so there is no lookahead
  // constraint on the delay.
  const FaultEvent& f = cfg_.fault.schedule[static_cast<std::size_t>(idx)];
  const TimePs t = now + cfg_.fault.detection_delay;
  auto detect = [&](int r) {
    if (router_dead_[r]) return;
    control_.push(t, EventType::kFaultDetect, r, 0, 0, idx);
  };
  switch (f.kind) {
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp:
      detect(f.a);
      detect(f.b);
      break;
    case FaultKind::kRouterDown:
      for (int n : topo_.neighbors(f.a)) detect(n);
      break;
    case FaultKind::kRouterUp:
      // The revived router knows about itself; neighbors see credits resume.
      detect(f.a);
      for (int n : topo_.neighbors(f.a)) detect(n);
      break;
  }
}

void NetworkSim::handle_fault_detect(int router, int idx, TimePs now) {
  if (router_dead_[router]) return;  // died between the fault and the timeout
  learn_update(router, idx, /*detection=*/true, now);
}

void NetworkSim::handle_flood_arrive(int router, int idx, TimePs now) {
  if (router_dead_[router]) return;
  learn_update(router, idx, /*detection=*/false, now);
}

void NetworkSim::learn_update(int router, int idx, bool detection, TimePs now) {
  if (!view_.learn(router, idx)) return;  // duplicate flood / already detected
  ++progress_;  // the control plane moving counts as forward progress
  ConvergenceStats& cv = fstats_.convergence;
  const LinkStateUpdate& u = view_.update(idx);
  const TimePs lag = now - u.phys_time;
  ++cv.routers_reached;
  cv.epoch_lag_sum += lag;
  cv.epoch_lag_max = std::max(cv.epoch_lag_max, lag);
  if (detection) {
    ++cv.detections;
    cv.detection_latency_sum += lag;
    cv.detection_latency_max = std::max(cv.detection_latency_max, lag);
  }
  apply_believed_ports(router, now);
  if (u.v < 0 && u.alive && u.u == router) {
    // A revived router learning its own up-update brings its endpoints back
    // online (the oracle path does this inside apply_fault).
    for (int j = 0; j < topo_.endpoints_of(router); ++j) {
      const int node = topo_.node_base(router) + j;
      resync_nic_credits(node);
      try_inject(lane_of_node(node), node, now);
    }
  }
  // Standard link-state flooding: only the first learning re-floods, so each
  // update crosses every live wire at most twice.
  const RouterState& rs = routers_[router];
  for (int i = 0; i < static_cast<int>(topo_.neighbors(router).size()); ++i) {
    const OutPort& op = rs.out_ports[i];
    if (!op.phys_up || router_dead_[op.peer_router]) continue;
    ++cv.flood_messages;
    control_.push(now + cfg_.link_latency + cfg_.fault.flood_process,
                  EventType::kFloodArrive, op.peer_router, 0, 0, idx);
  }
  if (view_.converged(idx)) {
    ++cv.converged;
    cv.consistency_time_sum += lag;
    cv.consistency_time_max = std::max(cv.consistency_time_max, lag);
    // Every live router now agrees with the physical truth about this
    // update, so the shared routing table may fold it in: salvage sampling
    // stops proposing the dead element without consulting local views. The
    // converged-state flags are the table's filter (see link_admitted).
    if (u.v < 0) {
      table_router_dead_[u.u] = u.alive ? 0 : 1;
    } else {
      routers_[u.u].out_ports[out_port_toward(u.u, u.v)].table_up = u.alive;
      routers_[u.v].out_ports[out_port_toward(u.v, u.u)].table_up = u.alive;
    }
    refresh_fault_table();
  }
}

void NetworkSim::apply_believed_ports(int router, TimePs now) {
  // Reconciles the router's granting state (`up`) with what it now
  // believes, mirroring the oracle apply_fault transitions one router at a
  // time: newly-believed-dead ports drain (salvage with the *local* view),
  // newly-believed-alive ports resync credits and resume granting.
  RouterState& rs = routers_[router];
  const auto& nbrs = topo_.neighbors(router);
  for (int i = 0; i < static_cast<int>(nbrs.size()); ++i) {
    const int peer = nbrs[i];
    OutPort& op = rs.out_ports[i];
    const bool want =
        view_.believes_link_alive(router, router, peer) && view_.believes_router_alive(router, peer);
    if (op.up == want) continue;
    op.up = want;
    if (!want) {
      drain_out_port(router, i, now, /*credit_returns=*/true, /*allow_salvage=*/true);
    } else if (op.phys_up && !router_dead_[router] && !router_dead_[peer]) {
      resync_link_credits(router, peer);
      try_grant(lane_of_router(router), router, i, now);
    }
  }
}

void NetworkSim::apply_fault(int idx, TimePs now) {
  const FaultEvent& f = cfg_.fault.schedule[static_cast<std::size_t>(idx)];
  // Live routers at the instant the fault physically applies; an update is
  // converged once they all learned it (dead routers can't participate).
  auto live_routers = [&]() {
    int live = 0;
    for (int r = 0; r < topo_.num_routers(); ++r) {
      if (!router_dead_[r]) ++live;
    }
    return live;
  };
  switch (f.kind) {
    case FaultKind::kLinkDown: {
      D2NET_REQUIRE(f.a >= 0 && f.a < topo_.num_routers() && f.b >= 0 &&
                        f.b < topo_.num_routers(),
                    "link fault endpoint out of range");
      const int pu = out_port_toward(f.a, f.b);  // asserts adjacency
      const int pv = out_port_toward(f.b, f.a);
      OutPort& uv = routers_[f.a].out_ports[pu];
      OutPort& vu = routers_[f.b].out_ports[pv];
      if (!uv.phys_up) return;  // idempotent
      ++fstats_.faults_applied;
      ++progress_;
      uv.phys_up = vu.phys_up = false;
      ++uv.epoch;  // destroys both directions' in-flight traffic
      ++vu.epoch;
      if (prop_enabled_) {
        // Routing state is untouched here: the endpoints keep granting onto
        // the dead wire (grants die at arrival via the epoch/phys check)
        // until their detection timeouts fire.
        view_.register_update(idx, f.a, f.b, /*alive=*/false, now, live_routers());
        ++fstats_.convergence.updates;
        schedule_detections(idx, now);
      } else {
        uv.up = vu.up = false;
        refresh_fault_table();  // before draining, so salvage avoids the cut
        drain_out_port(f.a, pu, now, /*credit_returns=*/true, /*allow_salvage=*/true);
        drain_out_port(f.b, pv, now, /*credit_returns=*/true, /*allow_salvage=*/true);
      }
      break;
    }
    case FaultKind::kLinkUp: {
      D2NET_REQUIRE(f.a >= 0 && f.a < topo_.num_routers() && f.b >= 0 &&
                        f.b < topo_.num_routers(),
                    "link fault endpoint out of range");
      const int pu = out_port_toward(f.a, f.b);
      const int pv = out_port_toward(f.b, f.a);
      OutPort& uv = routers_[f.a].out_ports[pu];
      OutPort& vu = routers_[f.b].out_ports[pv];
      if (uv.phys_up) return;
      ++fstats_.faults_applied;
      ++progress_;
      uv.phys_up = vu.phys_up = true;
      if (prop_enabled_) {
        // A grant launched during the dead window must not survive into the
        // restored wire; the epoch bump kills it at arrival. Safe because
        // the epoch is not a digest operand and the oracle path never runs
        // this branch.
        ++uv.epoch;
        ++vu.epoch;
        view_.register_update(idx, f.a, f.b, /*alive=*/true, now, live_routers());
        ++fstats_.convergence.updates;
        schedule_detections(idx, now);
      } else {
        uv.up = vu.up = true;
        if (!router_dead_[f.a] && !router_dead_[f.b]) {
          resync_link_credits(f.a, f.b);
          resync_link_credits(f.b, f.a);
        }
        refresh_fault_table();
        try_grant(lane_of_router(f.a), f.a, pu, now);
        try_grant(lane_of_router(f.b), f.b, pv, now);
      }
      break;
    }
    case FaultKind::kRouterDown: {
      const int r = f.a;
      D2NET_REQUIRE(r >= 0 && r < topo_.num_routers(), "router fault out of range");
      if (router_dead_[r]) return;
      ++fstats_.faults_applied;
      ++progress_;
      router_dead_[r] = 1;
      RouterState& rs = routers_[r];
      const auto& nbrs = topo_.neighbors(r);
      for (int i = 0; i < static_cast<int>(nbrs.size()); ++i) {
        ++rs.out_ports[i].epoch;  // wires die in both directions
        ++routers_[nbrs[i]].out_ports[out_port_toward(nbrs[i], r)].epoch;
      }
      if (!prop_enabled_) refresh_fault_table();
      // Everything queued inside the dead router dies with it; no credits
      // move (the upstream side resyncs when the router comes back).
      for (int o = 0; o < static_cast<int>(rs.out_ports.size()); ++o) {
        drain_out_port(r, o, now, /*credit_returns=*/false, /*allow_salvage=*/false);
      }
      if (prop_enabled_) {
        // Neighbors keep feeding the silent router until their detection
        // timeouts fire; those packets die at arrival like any other
        // physically-destroyed traffic.
        view_.register_update(idx, r, -1, /*alive=*/false, now, live_routers());
        ++fstats_.convergence.updates;
        schedule_detections(idx, now);
      } else {
        // Neighbors salvage or drop what they had queued toward r.
        for (int n : nbrs) {
          drain_out_port(n, out_port_toward(n, r), now, /*credit_returns=*/true,
                         /*allow_salvage=*/true);
        }
      }
      break;
    }
    case FaultKind::kRouterUp: {
      const int r = f.a;
      D2NET_REQUIRE(r >= 0 && r < topo_.num_routers(), "router fault out of range");
      if (!router_dead_[r]) return;
      ++fstats_.faults_applied;
      ++progress_;
      router_dead_[r] = 0;
      const auto& nbrs = topo_.neighbors(r);
      if (prop_enabled_) {
        // Traffic launched toward the dead router during its outage must not
        // arrive after revival; bump the incident epochs in both directions.
        RouterState& rs = routers_[r];
        for (int i = 0; i < static_cast<int>(nbrs.size()); ++i) {
          ++rs.out_ports[i].epoch;
          ++routers_[nbrs[i]].out_ports[out_port_toward(nbrs[i], r)].epoch;
        }
        view_.register_update(idx, r, -1, /*alive=*/true, now, live_routers());
        ++fstats_.convergence.updates;
        schedule_detections(idx, now);
      } else {
        refresh_fault_table();
        for (int i = 0; i < static_cast<int>(nbrs.size()); ++i) {
          const int n = nbrs[i];
          if (!routers_[r].out_ports[i].up || router_dead_[n]) continue;
          resync_link_credits(r, n);
          resync_link_credits(n, r);
          try_grant(lane_of_router(r), r, i, now);
          try_grant(lane_of_router(n), n, out_port_toward(n, r), now);
        }
        for (int j = 0; j < topo_.endpoints_of(r); ++j) {
          const int node = topo_.node_base(r) + j;
          resync_nic_credits(node);
          try_inject(lane_of_node(node), node, now);
        }
      }
      break;
    }
  }
}

bool NetworkSim::outstanding_work() const {
  if (exchange_mode_) return exchange_remaining_ > 0;
  for (int l = 0; l < active_lanes_; ++l) {
    if (lanes_[static_cast<std::size_t>(l)].pool.in_use() > 0) return true;
  }
  for (const NicState& nic : nics_) {
    if (!nic.pending.empty()) return true;
  }
  return false;
}

std::uint64_t NetworkSim::total_progress() const {
  std::uint64_t total = progress_;
  for (int l = 0; l < active_lanes_; ++l) {
    total += lanes_[static_cast<std::size_t>(l)].progress;
  }
  return total;
}

void NetworkSim::handle_watchdog(TimePs now) {
  const std::uint64_t progress = total_progress();
  if (progress == watch_last_ && outstanding_work()) {
    // Nothing moved for a whole interval with work outstanding: declare the
    // run wedged, snapshot the stuck state and let the driver exit.
    wedged_ = true;
    fstats_.wedged = true;
    WatchdogSnapshot& s = fstats_.watchdog;
    s.time = now;
    s.in_flight = 0;
    for (int l = 0; l < active_lanes_; ++l) {
      s.in_flight += static_cast<std::int64_t>(lanes_[static_cast<std::size_t>(l)].pool.in_use());
    }
    s.nic_backlog = 0;
    for (const NicState& nic : nics_) {
      s.nic_backlog += static_cast<std::int64_t>(nic.pending.size() + nic.messages.size());
    }
    s.stalled_heads = 0;
    s.zero_credit_vcs = 0;
    for (const RouterState& rs : routers_) {
      for (const OutPort& op : rs.out_ports) {
        s.stalled_heads += op.ready.count;
        for (std::int64_t c : op.credits) {
          if (c < cfg_.packet_bytes) ++s.zero_credit_vcs;
        }
      }
    }
    return;
  }
  watch_last_ = progress;
  control_.push(now + cfg_.fault.watchdog_interval, EventType::kWatchdog);
}

void NetworkSim::setup_faults() {
  faults_enabled_ = cfg_.fault.enabled();
  prop_enabled_ = cfg_.fault.propagation_enabled();
  fstats_.enabled = faults_enabled_;
  fstats_.bucket_width = cfg_.fault.recovery_sample;
  hop_limit_ = cfg_.fault.hop_limit;
  if (hop_limit_ <= 0 && fault_table_ != nullptr) {
    hop_limit_ = 4 * fault_table_->diameter() + 4;
  }
  // Salvaged routes live in the inline Route storage; a longer limit could
  // never be exercised without overflowing it.
  hop_limit_ = std::min(hop_limit_, Route::kMaxHops);
  if (faults_enabled_ && fault_table_ != nullptr && cfg_.fault.reroute) {
    // Start from the healthy table regardless of what a previous faulted
    // run on this instance left behind.
    fault_table_->rebuild(topo_, nullptr);
  }
  if (faults_enabled_) {
    // Entries that can never apply (after run end, unknown ids, non-adjacent
    // links) used to vanish silently; reject them up front with a located
    // error instead.
    validate_fault_schedule(topo_, cfg_.fault.schedule, window_end_, window_start_);
    for (std::size_t i = 0; i < cfg_.fault.schedule.size(); ++i) {
      control_.push(cfg_.fault.schedule[i].time, EventType::kFault,
                    static_cast<std::int32_t>(i));
    }
  }
  if (prop_enabled_) {
    D2NET_REQUIRE(cfg_.fault.detection_delay >= 0,
                  "fault.detection_delay must be non-negative");
    D2NET_REQUIRE(cfg_.fault.flood_process >= 0,
                  "fault.flood_process must be non-negative");
    D2NET_REQUIRE(cfg_.fault.misroute_limit >= 0,
                  "fault.misroute_limit must be non-negative");
    view_.reset(topo_.num_routers(), static_cast<int>(cfg_.fault.schedule.size()));
  } else {
    view_.clear();
  }
  if (cfg_.fault.watchdog_interval > 0) {
    control_.push(cfg_.fault.watchdog_interval, EventType::kWatchdog);
  }
}

void NetworkSim::arm_deadline() {
  deadline_enabled_ = cfg_.wall_limit_seconds > 0.0;
  if (!deadline_enabled_) return;
  for (Lane& ln : lanes_) ln.deadline_countdown = kDeadlineStride;
  deadline_ = std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(cfg_.wall_limit_seconds));
}

// --- window driver (see docs/sharded_sim.md) ---

void NetworkSim::setup_run(bool exchange) {
  // The warn-once latches are std::atomic: setup_run executes on sweep
  // worker threads (one per in-flight point under --jobs), so a plain
  // static bool would be a write-write data race. exchange() makes the
  // note print at most once process-wide while every racing thread still
  // demotes its own run.
  active_lanes_ = num_lanes_;
  if (active_lanes_ > 1 && exchange) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "d2net: note: exchange workloads run serially "
                   "(completion detection needs a global event view); shards=%d ignored\n",
                   num_lanes_);
    }
    active_lanes_ = 1;
  }
  if (active_lanes_ > 1 && !routing_->shard_safe()) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "d2net: note: routing '%s' reads remote router state; "
                   "demoting shards=%d to serial execution\n",
                   routing_->name().c_str(), num_lanes_);
    }
    active_lanes_ = 1;
  }
  if (active_lanes_ > 1 && trace_ != nullptr) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      std::fprintf(stderr,
                   "d2net: note: packet tracing needs one globally ordered "
                   "stream; demoting shards=%d to serial execution\n",
                   num_lanes_);
    }
    active_lanes_ = 1;
  }
  if (active_lanes_ > 1 && cfg_.fault.enabled() &&
      cfg_.fault.recovery != FaultRecovery::kNone) {
    // send_retry targets the source node's lane with delay >= the backoff;
    // the conservative window is only safe if that delay covers the
    // lookahead.
    if (cfg_.fault.retry_backoff < cfg_.link_latency) {
      char msg[512];
      std::snprintf(msg, sizeof(msg),
                    "fault.retry_backoff=%.3fus is below link_latency=%.3fus: sharded "
                    "runs re-inject retries across shard boundaries, and the "
                    "conservative time window is only safe when that delay covers one "
                    "link latency of lookahead. Raise fault.retry_backoff to at least "
                    "the link latency, or run with --shards=1.",
                    to_us(cfg_.fault.retry_backoff), to_us(cfg_.link_latency));
      throw ArgumentError(msg);
    }
  }
}

void NetworkSim::run_lane_window(Lane& ln, TimePs limit) {
  // One window on one thread: every event strictly before `limit` is safe
  // to execute — with several lanes any cross-shard consequence lands at
  // least one link latency past the window floor, i.e. at or after
  // `limit`. Touches only lane-owned state (never now_); cross-lane effects
  // queue in the outbox/ledger for the barrier.
  EventQueue& q = ln.queue;
  const bool serial = active_lanes_ == 1;
  while (!q.empty() && q.next_time() < limit) {
    const Event e = q.pop();
    ln.now = e.time;
    if (digest_enabled_) {
      // Order-sensitive digest of exactly the dispatched stream (the same
      // events events_processed counts). The fold hashes (time, okey,
      // operands-sans-pool-slot), so the barrier's merge of per-lane logs
      // reproduces the serial value. A serial run folds in place.
      if (serial) {
        event_digest_ =
            fold_digest(event_digest_, e.time, e.okey, digest_w1(e), digest_w2(e));
      } else {
        ln.dlog.push_back({e.time, e.okey, digest_w1(e), digest_w2(e)});
      }
    }
    dispatch(ln, e);
    ++ln.events_processed;
    // An exchange stops at its last delivery (exchange runs have one lane).
    if (exchange_mode_ && exchange_remaining_ == 0) break;
    // Cooperative wall-clock deadline: one countdown decrement per event,
    // one steady_clock read per stride, per lane. The event sequence is
    // untouched, so a run that finishes under budget is bit-identical to
    // one with no budget at all; an over-budget lane stops within a stride
    // and the barrier ends the run with partial statistics.
    if (deadline_enabled_ && --ln.deadline_countdown <= 0) {
      ln.deadline_countdown = kDeadlineStride;
      if (std::chrono::steady_clock::now() >= deadline_) {
        ln.timed_out = true;
        break;
      }
    }
  }
}

void NetworkSim::serialized_step(TimePs tc) {
  // Single-threaded execution of one control timestamp. Control events
  // (kFault / kFaultDetect / kFloodArrive / kWatchdog / kMetricsSample)
  // interleave with any lane events at exactly tc in (time, okey) order —
  // a rescan per event, because fault application can spawn further
  // same-time events. Cross-lane sends made here push directly
  // (barrier_phase_), keeping pending-credit state in step for
  // same-timestamp resyncs.
  barrier_phase_ = true;
  for (;;) {
    if (stopped()) break;
    int src = -2;  // -2 = none, -1 = control queue, >= 0 = lane index
    TimePs bt = 0;
    std::uint64_t bk = 0;
    if (!control_.empty()) {
      const Event& e = control_.peek();
      src = -1;
      bt = e.time;
      bk = e.okey;
    }
    for (int l = 0; l < active_lanes_; ++l) {
      EventQueue& q = lanes_[static_cast<std::size_t>(l)].queue;
      if (q.empty()) continue;
      const Event& e = q.peek();
      // Strict comparison is exact: okeys never tie across distinct event
      // types (the high byte is the type), so control vs lane order at one
      // timestamp is fully determined.
      if (src == -2 || e.time < bt || (e.time == bt && e.okey < bk)) {
        src = l;
        bt = e.time;
        bk = e.okey;
      }
    }
    if (src == -2 || bt != tc) break;
    if (src == -1) {
      const Event e = control_.pop();
      now_ = e.time;
      // Sampling and watchdog ticks observe without perturbing: they skip
      // the digest and the events_processed count, so enabled and disabled
      // runs report identical engine statistics.
      if (e.type == EventType::kMetricsSample) {
        handle_metrics_sample(e.time);
        continue;
      }
      if (e.type == EventType::kWatchdog) {
        handle_watchdog(e.time);
        continue;
      }
      // Fault and control-plane events: digest-visible and counted, like
      // lane events.
      if (digest_enabled_) {
        event_digest_ =
            fold_digest(event_digest_, e.time, e.okey, digest_w1(e), digest_w2(e));
      }
      switch (e.type) {
        case EventType::kFault:
          apply_fault(e.a, e.time);
          // Fault application rewires credits and drains VOQs wholesale —
          // the exact transitions the paranoid audit exists to police.
          if (paranoid_) self_audit("apply_fault");
          break;
        case EventType::kFaultDetect:
          // The router's missed-credit timeout (control plane).
          handle_fault_detect(e.a, e.d, e.time);
          if (paranoid_) self_audit("fault_detect");
          break;
        case EventType::kFloodArrive:
          handle_flood_arrive(e.a, e.d, e.time);
          if (paranoid_) self_audit("flood_arrive");
          break;
        default:
          D2NET_ASSERT(false, "unexpected control event type");
      }
      ++coord_events_;
    } else {
      Lane& ln = lanes_[static_cast<std::size_t>(src)];
      const Event e = ln.queue.pop();
      now_ = e.time;
      if (digest_enabled_) {
        event_digest_ =
            fold_digest(event_digest_, e.time, e.okey, digest_w1(e), digest_w2(e));
      }
      dispatch(ln, e);
      ++ln.events_processed;
    }
  }
  barrier_phase_ = false;
}

void NetworkSim::deliver_cross() {
  // Fixed (target, source) drain order: deterministic seq assignment. seq
  // only breaks byte-identical ties, so any fixed order realizes the same
  // event stream; determinism makes that checkable.
  for (int t = 0; t < active_lanes_; ++t) {
    Lane& dst = lanes_[static_cast<std::size_t>(t)];
    for (int s = 0; s < active_lanes_; ++s) {
      auto& box = lanes_[static_cast<std::size_t>(s)].outbox[static_cast<std::size_t>(t)];
      for (const CrossMsg& m : box) {
        if (m.has_pkt) {
          const int id = dst.pool.alloc();
          dst.pool[id] = m.pkt;
          dst.queue.push_keyed(m.time, m.okey, m.type, id, m.b, m.c, m.d);
        } else {
          dst.queue.push_keyed(m.time, m.okey, m.type, m.a, m.b, m.c, m.d);
        }
      }
      box.clear();
    }
  }
  for (int l = 0; l < active_lanes_; ++l) {
    Lane& ln = lanes_[static_cast<std::size_t>(l)];
    for (const PendingCredit& pc : ln.ledger) {
      routers_[pc.router].out_ports[pc.port].credits_pending[pc.vc] += pc.bytes;
    }
    ln.ledger.clear();
  }
}

void NetworkSim::merge_digest_logs() {
  if (!digest_enabled_ || active_lanes_ == 1) return;
  // K-way merge over the per-lane window logs, comparing current heads by
  // (time, okey). Each lane's log is its realized dispatch order; the
  // global serial order interleaves the lanes head-by-head because at every
  // step the serial engine pops the minimum of the pending set, which is
  // the minimum over the per-lane stream heads.
  std::vector<std::size_t> idx(static_cast<std::size_t>(active_lanes_), 0);
  for (;;) {
    int best = -1;
    for (int l = 0; l < active_lanes_; ++l) {
      const auto& dl = lanes_[static_cast<std::size_t>(l)].dlog;
      if (idx[static_cast<std::size_t>(l)] >= dl.size()) continue;
      if (best < 0) {
        best = l;
        continue;
      }
      const DigestRec& r = dl[idx[static_cast<std::size_t>(l)]];
      const DigestRec& rb = lanes_[static_cast<std::size_t>(best)]
                                .dlog[idx[static_cast<std::size_t>(best)]];
      if (r.time < rb.time || (r.time == rb.time && r.okey < rb.okey)) best = l;
    }
    if (best < 0) break;
    const DigestRec& r =
        lanes_[static_cast<std::size_t>(best)].dlog[idx[static_cast<std::size_t>(best)]++];
    event_digest_ = fold_digest(event_digest_, r.time, r.okey, r.w1, r.w2);
  }
  for (int l = 0; l < active_lanes_; ++l) lanes_[static_cast<std::size_t>(l)].dlog.clear();
}

void NetworkSim::run_windows(TimePs end) {
  // A serial run is the one-lane case: nothing crosses lanes, so there is
  // no lookahead bound and a window runs to the next control event or the
  // end; no worker thread is started.
  std::optional<ThreadPool> pool;
  if (active_lanes_ > 1) pool.emplace(active_lanes_ - 1);
  for (;;) {
    // Barrier: exchange cross-shard arrivals, then fold the window's digest
    // logs. Every exit path passes through here, so trailing logs always
    // merge before the run finishes.
    deliver_cross();
    merge_digest_logs();
    for (int l = 0; l < active_lanes_; ++l) {
      if (lanes_[static_cast<std::size_t>(l)].timed_out) timed_out_ = true;
    }
    if (stopped()) break;
    TimePs tq = kNoEvent;
    for (int l = 0; l < active_lanes_; ++l) {
      EventQueue& q = lanes_[static_cast<std::size_t>(l)].queue;
      if (!q.empty()) tq = std::min(tq, q.next_time());
    }
    const TimePs tc = control_.empty() ? kNoEvent : control_.next_time();
    const TimePs tmin = std::min(tq, tc);
    if (tmin == kNoEvent || tmin > end) break;
    now_ = tmin;
    if (tc <= tq) {
      // A control event is (joint-)earliest: run its whole timestamp
      // single-threaded, then barrier again.
      serialized_step(tc);
      continue;
    }
    TimePs limit = std::min(tc, end + 1);
    if (!pool) {
      run_lane_window(lanes_[0], limit);
      continue;
    }
    // Conservative window [tq, limit): every cross-shard consequence of an
    // event at t < limit arrives at t + lookahead >= tq + lookahead >=
    // limit, so the lanes are independent within the window.
    limit = std::min(limit, tq + cfg_.link_latency);
    ++windows_;
    window_width_ps_ += limit - tq;
    pool->parallel_for(static_cast<std::size_t>(active_lanes_), [&](std::size_t l) {
      run_lane_window(lanes_[l], limit);
    });
  }
  // now_ ends at the last dispatched event (the credit-stall fold in
  // build_metrics closes open intervals there).
  for (int l = 0; l < active_lanes_; ++l) {
    now_ = std::max(now_, lanes_[static_cast<std::size_t>(l)].now);
  }
}

void NetworkSim::simulate(TimePs end, const char* where) {
  if (metrics_enabled_) {
    control_.push(cfg_.metrics.sample_period, EventType::kMetricsSample);
  }
  setup_faults();
  arm_deadline();
  run_windows(end);
  collect_lanes();
  for (int l = 0; l < active_lanes_; ++l) {
    phases_.in_flight_at_end +=
        static_cast<std::int64_t>(lanes_[static_cast<std::size_t>(l)].pool.in_use());
  }
  if (paranoid_) self_audit(where);
}

void NetworkSim::collect_lanes() {
  for (int l = 0; l < active_lanes_; ++l) {
    const Lane& ln = lanes_[static_cast<std::size_t>(l)];
    events_processed_ += ln.events_processed;
    ejected_bytes_window_ += ln.ejected_bytes_window;
    packets_injected_ += ln.packets_injected;
    packets_minimal_ += ln.packets_minimal;
    hop_sum_ += ln.hop_sum;
    hop_count_ += ln.hop_count;
    latency_ns_.merge(ln.latency_ns);
    phases_.injected_warmup += ln.phases.injected_warmup;
    phases_.injected_measured += ln.phases.injected_measured;
    phases_.delivered_warmup += ln.phases.delivered_warmup;
    phases_.delivered_measured += ln.phases.delivered_measured;
    phases_.delivered_carryover += ln.phases.delivered_carryover;
    fstats_.packets_dropped += ln.dropped;
    fstats_.packets_retried += ln.retried;
    fstats_.packets_lost += ln.lost;
    fstats_.reroutes += ln.reroutes;
    fstats_.convergence.misroutes += ln.misroutes;
    fstats_.convergence.budget_drops += ln.budget_drops;
    if (!ln.delivered_buckets.empty()) {
      if (fstats_.delivered_bytes_buckets.size() < ln.delivered_buckets.size()) {
        fstats_.delivered_bytes_buckets.resize(ln.delivered_buckets.size(), 0);
      }
      for (std::size_t i = 0; i < ln.delivered_buckets.size(); ++i) {
        fstats_.delivered_bytes_buckets[i] += ln.delivered_buckets[i];
      }
    }
  }
  events_processed_ += coord_events_;
}

void NetworkSim::self_audit(const char* where) const {
  if (!paranoid_) return;
  auto fail = [&](const std::string& msg) {
    throw InternalError(std::string("paranoid self-audit failed at ") + where + ": " + msg);
  };
  auto id = [](int router, std::size_t port) {
    return "router " + std::to_string(router) + " port " + std::to_string(port);
  };
  // Per-VC bytes sitting in the input buffer feeding each in port, and the
  // recomputed per-out-port VOQ totals. Packets live in the pool of the
  // lane owning their router.
  std::vector<std::int64_t> voq_bytes;
  for (int r = 0; r < topo_.num_routers(); ++r) {
    const RouterState& rs = routers_[r];
    const PacketPool& pool = lanes_[static_cast<std::size_t>(lane_index_of_router(r))].pool;
    voq_bytes.assign(rs.out_ports.size(), 0);
    for (int ipx = 0; ipx < static_cast<int>(rs.in_ports.size()); ++ipx) {
      for (int vc = 0; vc < num_vcs_; ++vc) {
        std::int64_t occupied = 0;
        for (int o = 0; o < rs.num_out; ++o) {
          const VoqCell& cell = voq_[voq_index(rs, ipx, vc, o)];
          for (int id = cell.head; id >= 0; id = pool[id].vnext) {
            occupied += pool[id].size;
            voq_bytes[static_cast<std::size_t>(o)] += pool[id].size;
          }
        }
        if (occupied > vc_buffer_bytes_) {
          fail("input VC holds " + std::to_string(occupied) + " bytes, buffer is " +
               std::to_string(vc_buffer_bytes_));
        }
      }
    }
    for (std::size_t o = 0; o < rs.out_ports.size(); ++o) {
      const OutPort& op = rs.out_ports[o];
      if (op.queued_bytes != voq_bytes[o]) {
        fail(id(r, o) + " queued_bytes " + std::to_string(op.queued_bytes) +
             " != VOQ contents " + std::to_string(voq_bytes[o]));
      }
      if (op.to_node) continue;
      // Credit conservation on the wire r -> peer: every byte of the
      // receiving VC buffer is either available as sender credit, in
      // flight as a pending credit return, or occupied by a buffered
      // packet. In-flight packets hold the balance, so the sum never
      // exceeds the buffer and each term stays non-negative.
      const RouterState& peer = routers_[op.peer_router];
      const PacketPool& peer_pool =
          lanes_[static_cast<std::size_t>(lane_index_of_router(op.peer_router))].pool;
      for (int v = 0; v < num_vcs_; ++v) {
        const std::int64_t occupied = input_vc_bytes(peer_pool, peer, op.peer_in_port, v);
        const std::int64_t credits = op.credits[v];
        const std::int64_t pending = op.credits_pending[v];
        if (credits < 0) fail(id(r, o) + " vc " + std::to_string(v) + " negative credits");
        if (pending < 0) {
          fail(id(r, o) + " vc " + std::to_string(v) + " negative pending credits");
        }
        if (credits + pending + occupied > vc_buffer_bytes_) {
          fail(id(r, o) + " vc " + std::to_string(v) + " over-credited: credits " +
               std::to_string(credits) + " + pending " + std::to_string(pending) +
               " + occupied " + std::to_string(occupied) + " > buffer " +
               std::to_string(vc_buffer_bytes_));
        }
      }
    }
  }
  // Same conservation law on every injection wire (NIC -> router).
  for (std::size_t n = 0; n < nics_.size(); ++n) {
    const NicState& nic = nics_[n];
    const PacketPool& pool =
        lanes_[static_cast<std::size_t>(lane_index_of_router(nic.router))].pool;
    for (int v = 0; v < num_vcs_; ++v) {
      const std::int64_t occupied = input_vc_bytes(pool, routers_[nic.router], nic.in_port, v);
      const std::int64_t credits = nic.credits[v];
      const std::int64_t pending = nic.credits_pending[v];
      if (credits < 0) fail("nic " + std::to_string(n) + " negative credits");
      if (pending < 0) fail("nic " + std::to_string(n) + " negative pending credits");
      if (credits + pending + occupied > vc_buffer_bytes_) {
        fail("nic " + std::to_string(n) + " vc " + std::to_string(v) +
             " over-credited: credits " + std::to_string(credits) + " + pending " +
             std::to_string(pending) + " + occupied " + std::to_string(occupied) +
             " > buffer " + std::to_string(vc_buffer_bytes_));
      }
    }
  }
}

std::shared_ptr<const SimMetrics> NetworkSim::build_metrics() {
  if (!metrics_enabled_) return nullptr;
  auto out = std::make_shared<SimMetrics>();
  out->sample_period = cfg_.metrics.sample_period;
  out->capacities.voq_cells = voq_.size();
  out->sharding.shards = active_lanes_;
  out->sharding.windows = windows_;
  out->sharding.mean_window_width_ns =
      windows_ > 0 ? to_ns(window_width_ps_) / static_cast<double>(windows_) : 0.0;
  // Serial runs get an empty per-shard vector: there was no partition to
  // describe, and consumers key the whole block on shards > 1.
  if (active_lanes_ > 1) {
    out->sharding.shard.resize(static_cast<std::size_t>(active_lanes_));
  }
  for (int l = 0; l < active_lanes_; ++l) {
    const Lane& ln = lanes_[static_cast<std::size_t>(l)];
    if (active_lanes_ > 1) {
      ShardMetrics& sm = out->sharding.shard[static_cast<std::size_t>(l)];
      std::size_t cells = 0;
      for (int r = 0; r < topo_.num_routers(); ++r) {
        if (lane_of_router_[r] != l) continue;
        ++sm.routers;
        const RouterState& rs = routers_[r];
        cells += rs.in_ports.size() * static_cast<std::size_t>(num_vcs_) *
                 static_cast<std::size_t>(rs.num_out);
      }
      for (int n = 0; n < topo_.num_nodes(); ++n) sm.nodes += lane_of_node_[n] == l ? 1 : 0;
      sm.capacities.voq_cells = cells;
      sm.events = ln.events_processed;
      sm.messages_sent = ln.messages_sent;
      sm.capacities.event_queue_reserved = ln.queue.reserved();
      sm.capacities.packet_pool_reserved = ln.pool.reserved();
      sm.capacities.packet_pool_slots = ln.pool.capacity();
    }
    out->sharding.cross_shard_messages += ln.messages_sent;
    // Run-level capacities: summed across the lanes the run actually used.
    out->capacities.event_queue_reserved += ln.queue.reserved();
    out->capacities.packet_pool_reserved += ln.pool.reserved();
    out->capacities.packet_pool_slots += ln.pool.capacity();
    // Scalar sinks collected lock-free per lane, merged here.
    ctr_grants_->add(ln.m_grants);
    ctr_credit_skips_->add(ln.m_credit_skips);
    ctr_injection_stalls_->add(ln.m_injection_stalls);
    hist_carryover_ns_->merge(ln.carryover_ns);
  }
  out->phases = phases_;
  out->occupancy = std::move(occupancy_series_);
  occupancy_series_.clear();
  std::size_t num_ports = 0;
  for (const auto& per_router : port_instr_) num_ports += per_router.size();
  out->ports.reserve(num_ports);
  for (auto& per_router : port_instr_) {
    for (PortInstr& pi : per_router) {
      if (pi.stall_since >= 0) {  // close stall intervals open at run end
        pi.m.credit_stall_ps += now_ - pi.stall_since;
        pi.stall_since = -1;
      }
      out->ports.push_back(pi.m);
    }
  }
  if (prop_enabled_) {
    // Control-plane convergence as first-class registry counters; written
    // only at export so the metrics path cannot perturb the run. Guarded on
    // propagation so disabled runs export the same registry as before.
    const ConvergenceStats& cv = fstats_.convergence;
    registry_->counter("fault_updates").add(cv.updates);
    registry_->counter("fault_updates_converged").add(cv.converged);
    registry_->counter("fault_detections").add(cv.detections);
    registry_->counter("fault_flood_messages").add(cv.flood_messages);
    registry_->counter("fault_routers_reached").add(cv.routers_reached);
    registry_->counter("fault_misroutes").add(cv.misroutes);
    registry_->counter("fault_misroute_budget_drops").add(cv.budget_drops);
  }
  out->registry = std::move(*registry_);
  // The cached handles point into the moved-from registry; reset()
  // recreates both before the next run.
  registry_.reset();
  ctr_grants_ = ctr_credit_skips_ = ctr_injection_stalls_ = ctr_samples_ = nullptr;
  hist_carryover_ns_ = nullptr;
  return out;
}

OpenLoopResult NetworkSim::run_open_loop(const TrafficPattern& pattern, double load,
                                         TimePs duration, TimePs warmup) {
  D2NET_REQUIRE(routing_ != nullptr, "set_routing() before running");
  D2NET_REQUIRE(load > 0.0 && load <= 1.001, "load must be in (0, 1]");
  D2NET_REQUIRE(warmup < duration, "warmup must precede the end of the run");
  reset();
  pattern_ = &pattern;
  load_ = load;
  gen_end_ = duration;
  window_start_ = warmup;
  window_end_ = duration;
  setup_run(/*exchange=*/false);

  // Stagger first generations uniformly over one mean inter-arrival. The
  // stagger is the first draw of each node's private stream, so shard count
  // cannot shift it.
  const double mean = static_cast<double>(cfg_.packet_serialization()) / load;
  for (int node = 0; node < topo_.num_nodes(); ++node) {
    lane_of_node(node).queue.push(static_cast<TimePs>(node_rng_[node].uniform() * mean),
                                  EventType::kGenerate, node);
  }
  simulate(duration, "run_open_loop end");

  OpenLoopResult res;
  res.offered_load = load;
  res.timed_out = timed_out_;
  const double window_ps = static_cast<double>(window_end_ - window_start_);
  const double capacity_bytes =
      window_ps / static_cast<double>(cfg_.ps_per_byte) * topo_.num_nodes();
  res.accepted_throughput = static_cast<double>(ejected_bytes_window_) / capacity_bytes;
  res.avg_latency_ns = latency_ns_.mean();
  res.p50_latency_ns = latency_ns_.percentile(50);
  res.p99_latency_ns = latency_ns_.percentile(99);
  res.packets_measured = latency_ns_.count();
  res.packets_injected = packets_injected_;
  res.events_processed = events_processed_;
  res.event_digest = digest_enabled_ ? event_digest_ : 0;
  res.avg_hops =
      hop_count_ > 0 ? static_cast<double>(hop_sum_) / static_cast<double>(hop_count_) : 0.0;
  res.fraction_minimal =
      packets_injected_ > 0
          ? static_cast<double>(packets_minimal_) / static_cast<double>(packets_injected_)
          : 0.0;
  // Jain index over per-node ejected bytes: (sum x)^2 / (n * sum x^2).
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::int64_t x : ejected_per_node_) {
    sum += static_cast<double>(x);
    sum_sq += static_cast<double>(x) * static_cast<double>(x);
  }
  res.jain_fairness =
      sum_sq > 0.0 ? sum * sum / (static_cast<double>(ejected_per_node_.size()) * sum_sq)
                   : 0.0;
  res.phases = phases_;
  res.faults = fstats_;
  res.metrics = build_metrics();
  return res;
}

ExchangeResult NetworkSim::run_exchange(const ExchangePlan& plan, TimePs time_limit) {
  D2NET_REQUIRE(routing_ != nullptr, "set_routing() before running");
  D2NET_REQUIRE(static_cast<int>(plan.per_node.size()) == topo_.num_nodes(),
                "plan arity must match node count");
  reset();
  exchange_mode_ = true;
  plan_order_ = plan.order;
  window_start_ = 0;
  window_end_ = time_limit;
  gen_end_ = 0;
  setup_run(/*exchange=*/true);  // always one lane

  exchange_remaining_ = plan.total_bytes();
  D2NET_REQUIRE(exchange_remaining_ > 0, "empty exchange plan");
  for (int node = 0; node < topo_.num_nodes(); ++node) {
    nics_[node].messages = plan.per_node[node];
    lane_of_node(node).queue.push(0, EventType::kNicFree, node);
  }
  simulate(time_limit, "run_exchange end");

  ExchangeResult res;
  res.total_bytes = plan.total_bytes();
  res.timed_out = timed_out_;
  res.delivered_bytes = res.total_bytes - exchange_remaining_;
  res.completed = exchange_completion_ >= 0;
  if (res.completed) {
    res.completion_us = to_us(exchange_completion_);
    const double per_node_bytes =
        static_cast<double>(res.total_bytes) / std::max(1, plan.active_nodes());
    const double line_bytes =
        static_cast<double>(exchange_completion_) / static_cast<double>(cfg_.ps_per_byte);
    res.effective_throughput = per_node_bytes / line_bytes;
  }
  res.avg_latency_ns = latency_ns_.mean();
  res.event_digest = digest_enabled_ ? event_digest_ : 0;
  res.faults = fstats_;
  res.metrics = build_metrics();
  return res;
}

}  // namespace d2net
