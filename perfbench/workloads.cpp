#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "analysis/link_load.h"
#include "common/journal.h"
#include "common/rng.h"
#include "common/units.h"
#include "routing/minimal_table.h"
#include "routing/valiant_routing.h"
#include "sim/campaign.h"
#include "sim/experiment.h"
#include "sim/sweep_runner.h"
#include "sim/traffic.h"
#include "topology/spec.h"

namespace perfbench {
namespace {

using namespace d2net;
using Span = Tracer::Span;

/// Wall-clock budget of one simulation point; a point that runs past it
/// ends timed_out and counts as failed.
constexpr double kPointTimeoutSeconds = 120.0;

// ------------------------------------------------------------ physics gates

/// Largest accepted/offered excess a point may show from sampling noise
/// over a short measurement window (an open-loop source cannot deliver
/// more than it injects, up to the warmup carryover the window excludes).
constexpr double kOverAcceptSlack = 0.05;
/// Below the knee a point must accept at least this share of what its
/// window can show: accepted throughput counts packets (flows) generated
/// and delivered inside the window, so one mean latency at its end is
/// always missing.
constexpr double kBelowKneeShare = 0.9;
/// Tolerance on the Section 4.2 cap: the cap is a steady-state bound on
/// the bottleneck channel; a short window also drains what buffers held
/// when it opened.
constexpr double kCapSlack = 0.25;

void fail(RepResult& r, const std::string& what) {
  ++r.failed;
  r.failures.push_back(what);
}

/// Gates every open-loop point: no timeout, events dispatched, accepted
/// throughput finite and not above the offer; `knee` > 0 additionally
/// demands near-full acceptance at or below that load.
bool check_open_loop(RepResult& r, const std::string& what, const OpenLoopResult& res,
                     double offered, double knee, TimePs window) {
  const double visible =
      std::max(0.0, 1.0 - res.avg_latency_ns / to_ns(window));  // share of the window
  std::ostringstream why;
  if (res.timed_out) why << "timed out";
  else if (res.events_processed <= 0) why << "dispatched no events";
  else if (!std::isfinite(res.accepted_throughput)) why << "non-finite throughput";
  else if (res.accepted_throughput > offered * (1.0 + kOverAcceptSlack) + 0.01)
    why << "accepted " << res.accepted_throughput << " above offered " << offered;
  else if (knee > 0.0 && offered <= knee &&
           res.accepted_throughput < kBelowKneeShare * offered * visible)
    why << "accepted " << res.accepted_throughput << " far below offered " << offered
        << " under the knee (" << knee << "; mean latency " << res.avg_latency_ns
        << " ns of a " << to_ns(window) << " ns window)";
  if (why.str().empty()) return true;
  fail(r, what + ": " + why.str());
  return false;
}

std::int64_t delivered_of(const OpenLoopResult& res) {
  return res.phases.delivered_warmup + res.phases.delivered_measured +
         res.phases.delivered_carryover;
}

/// Credit-stall time summed over every port; 0 unless metrics were on.
double credit_stall_ps(const OpenLoopResult& res) {
  double stall = 0.0;
  if (res.metrics)
    for (const PortMetrics& p : res.metrics->ports) stall += static_cast<double>(p.credit_stall_ps);
  return stall;
}

// ------------------------------------------------------------ setup layers

/// Runs `f` inside a span called `name` and records its host seconds as
/// the layer metric "<name>_s".
template <class F>
void timed(Tracer& tr, RepResult& r, const char* name, F&& f) {
  const double t = wall_now();
  {
    Span s(tr, name);
    f();
  }
  r.layer[std::string(name) + "_s"] = wall_now() - t;
}

/// The routing inputs of one point. Filled in place: stacks keep
/// references into it.
struct Network {
  std::optional<Topology> topo;
  std::shared_ptr<const MinimalTable> table;
  SharedIntermediates vias;  ///< only for non-minimal strategies
};

void build_network(const char* spec, bool with_vias, Tracer& tr, RepResult& r, Network& n) {
  timed(tr, r, "topology.build", [&] { n.topo.emplace(build_topology_from_spec(spec)); });
  const double rss0 = rss_mb();
  timed(tr, r, "routing.table", [&] { n.table = std::make_shared<const MinimalTable>(*n.topo); });
  r.layer["routing.table_mb"] = rss_mb() - rss0;
  if (with_vias) {
    timed(tr, r, "routing.intermediates", [&] {
      n.vias = std::make_shared<const std::vector<int>>(valiant_intermediates(*n.topo));
    });
  }
}

/// A single-point rep's setup: network, uniform traffic and stack.
struct PointSetup {
  Network net;
  std::optional<UniformTraffic> uniform;
  std::optional<SimStack> stack;
};

// ------------------------------------------------------------ layer probes

/// Mean host nanoseconds per route_into call over `calls` (src, dst)
/// router pairs drawn from `pattern`; pairs are drawn before timing.
double probe_route_ns(const Topology& topo, const RoutingAlgorithm& algo,
                      const TrafficPattern& pattern, std::uint64_t seed, int calls) {
  Rng rng(seed ^ 0x5EEDF00DULL);
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(static_cast<std::size_t>(calls));
  while (static_cast<int>(pairs.size()) < calls) {
    const int src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(topo.num_nodes())));
    const int dst = pattern.dest(src, rng);
    const int a = topo.router_of_node(src), b = topo.router_of_node(dst);
    if (a != b) pairs.emplace_back(a, b);
  }
  Route route;
  const double t0 = wall_now();
  for (const auto& [a, b] : pairs) algo.route_into(a, b, rng, route);
  return 1e9 * (wall_now() - t0) / static_cast<double>(calls);
}

int route_probe_calls(const Context& ctx) { return ctx.smoke ? 20'000 : 200'000; }

// ------------------------------------------------------ packet_paper_ugal

struct PacketPoint {
  const char* topology;
  double duration_us;
  double warmup_us;
};

PacketPoint paper_point(const Context& ctx) {
  return ctx.smoke ? PacketPoint{"sf:q=5", 1.0, 0.25} : PacketPoint{"sf:q=13", 4.0, 1.0};
}
constexpr double kPaperLoad = 0.8;
/// Uniform traffic under UGAL-L on the SF saturates at 0.95-1.0 of
/// injection (EXPERIMENTS.md), so 0.8 sits below the knee.
constexpr double kPaperKnee = 0.8;

SimConfig packet_config(std::uint64_t seed, bool traced) {
  SimConfig cfg;
  cfg.seed = seed;
  cfg.wall_limit_seconds = kPointTimeoutSeconds;
  cfg.metrics.enabled = traced;
  cfg.collect_event_digest = traced;
  return cfg;
}

void paper_setup(const Context& ctx, Tracer& tr, RepResult& r, PointSetup& s) {
  build_network(paper_point(ctx).topology, /*with_vias=*/true, tr, r, s.net);
  s.uniform.emplace(s.net.topo->num_nodes());
  timed(tr, r, "sim.stack", [&] {
    s.stack.emplace(*s.net.topo, s.net.table, RoutingStrategy::kUgal,
                    packet_config(ctx.seed, tr.enabled()), std::nullopt, s.net.vias);
  });
}

RepResult paper_rep(const Context& ctx, Tracer& tr, bool setup_only) {
  const PacketPoint pp = paper_point(ctx);
  RepResult r;
  const double w0 = wall_now(), c0 = thread_cpu_now();
  std::optional<Span> root(std::in_place, tr, "workload");
  PointSetup s;
  paper_setup(ctx, tr, r, s);
  r.setup_cpu_s = thread_cpu_now() - c0;
  if (setup_only) return r;

  OpenLoopResult res;
  ++r.attempted;
  try {
    timed(tr, r, "sim.run", [&] {
      res = s.stack->run_open_loop(*s.uniform, kPaperLoad, us(pp.duration_us),
                                   us(pp.warmup_us));
    });
  } catch (const std::exception& e) {
    fail(r, std::string("UGAL point threw: ") + e.what());
  }
  r.engine_s = r.layer["sim.run_s"];
  root.reset();
  r.wall_s = wall_now() - w0;
  if (r.failed == 0) check_open_loop(r, "UGAL uniform point", res, kPaperLoad, kPaperKnee,
                                    us(pp.duration_us - pp.warmup_us));

  r.delivered = static_cast<double>(delivered_of(res));
  tr.count("sim.events", static_cast<double>(res.events_processed));
  tr.count("sim.delivered", r.delivered);
  r.layer["sim.events"] = static_cast<double>(res.events_processed);
  r.sim["sim.accepted"] = res.accepted_throughput;
  r.sim["sim.avg_hops"] = res.avg_hops;
  r.sim["sim.fraction_minimal"] = res.fraction_minimal;
  r.sim["sim.events"] = static_cast<double>(res.events_processed);
  r.sim["sim.delivered"] = r.delivered;
  if (tr.enabled()) {
    r.sim["sim.credit_stall_ps"] = credit_stall_ps(res);
    r.event_digest = res.event_digest;
    r.layer["routing.route_ns"] = probe_route_ns(*s.net.topo, s.stack->routing(), *s.uniform,
                                                 ctx.seed, route_probe_calls(ctx));
  }
  return r;
}

// ------------------------------------------------------ packet_fig6_sweep

struct SweepScale {
  double duration_us;
  double warmup_us;
};

SweepScale sweep_scale(const Context& ctx) {
  return ctx.smoke ? SweepScale{1.5, 0.3} : SweepScale{2.0, 0.5};
}

/// Offered load at or below which uniform traffic must be accepted nearly
/// in full (Fig. 6a): MIN saturates near 0.8-0.95, Valiant at about half.
double uniform_knee(RoutingStrategy s) {
  return s == RoutingStrategy::kMinimal ? 0.7 : 0.3;
}

CampaignParams sweep_params(const Context& ctx) {
  const SweepScale sc = sweep_scale(ctx);
  CampaignParams p;
  p.seed = ctx.seed;
  p.duration = us(sc.duration_us);
  p.warmup = us(sc.warmup_us);
  return p;
}

/// fig6.json as parsed; the smoke size keeps only its first system.
CampaignSpec parse_fig6(const Context& ctx) {
  CampaignSpec spec = parse_campaign_spec(ctx.fig6_spec, "fig6.json");
  if (ctx.smoke) spec.systems.resize(1);
  return spec;
}

struct SweepSetup {
  std::optional<ExpandedCampaign> ex;
  std::optional<SweepJournal> journal;
};

std::string journal_dir(const Context& ctx) { return ctx.scratch_dir + "/journal"; }

void sweep_setup(const Context& ctx, Tracer& tr, RepResult& r, SweepSetup& s) {
  timed(tr, r, "sim.campaign.expand",
        [&] { s.ex.emplace(expand_campaign(parse_fig6(ctx), sweep_params(ctx))); });
  Span span(tr, "common.journal.open");
  std::filesystem::remove_all(journal_dir(ctx));
  std::ostringstream manifest;
  manifest << "perfbench packet_fig6_sweep seed=" << ctx.seed << "\n";
  s.journal.emplace(journal_dir(ctx), manifest.str(), /*resume=*/false);
}

RepResult sweep_rep(const Context& ctx, Tracer& tr, bool setup_only) {
  const CampaignParams params = sweep_params(ctx);
  RepResult r;
  const double w0 = wall_now(), c0 = thread_cpu_now();
  std::optional<Span> root(std::in_place, tr, "workload");
  SweepSetup setup;
  sweep_setup(ctx, tr, r, setup);
  const ExpandedCampaign& ex = *setup.ex;
  r.setup_cpu_s = thread_cpu_now() - c0;
  if (setup_only) return r;

  SweepRunOptions base;
  base.jobs = 1;
  base.config.seed = ctx.seed;
  base.config.metrics.enabled = tr.enabled();
  base.config.collect_event_digest = tr.enabled();
  base.duration = params.duration;
  base.warmup = params.warmup;
  base.journal = &*setup.journal;
  base.point_timeout_seconds = kPointTimeoutSeconds;
  base.tolerate_failures = true;

  std::vector<std::vector<std::vector<SweepPoint>>> results;
  double runner_s = 0.0;
  std::int64_t events = 0, points = 0;
  for (const CampaignStep& step : ex.steps) {
    if (!step.load) continue;
    SweepRunOptions opts = base;
    opts.scope = step.load->title;
    SweepRunner runner(opts);
    Span s(tr, "sim.sweep.run");
    results.push_back(runner.run(step.load->series));
    runner_s += runner.stats().wall_seconds;
    events += runner.stats().events;
    points += runner.stats().points;
    tr.count("sim.events", static_cast<double>(runner.stats().events));
    tr.count("sim.sweep.points", static_cast<double>(runner.stats().points));
  }
  root.reset();
  r.wall_s = wall_now() - w0;
  r.engine_s = runner_s;

  // Gates, in the runner's point order.
  double accepted_sum = 0.0, hops_sum = 0.0, minimal_sum = 0.0, credit_stall = 0.0;
  std::size_t step_i = 0;
  for (const CampaignStep& step : ex.steps) {
    if (!step.load) continue;
    const auto& series_results = results[step_i++];
    for (std::size_t s = 0; s < step.load->series.size(); ++s) {
      const SweepSeriesSpec& spec_s = step.load->series[s];
      const auto* perm = dynamic_cast<const PermutationTraffic*>(spec_s.pattern);
      double cap = 1.0;
      if (perm != nullptr && spec_s.strategy == RoutingStrategy::kMinimal) {
        cap = minimal_link_loads(*spec_s.topo, *spec_s.table, perm->permutation())
                  .throughput_bound;
      }
      for (const SweepPoint& pt : series_results[s]) {
        ++r.attempted;
        std::ostringstream what;
        what << step.load->title << " / " << spec_s.label << " @ " << pt.offered;
        if (pt.failed) {
          fail(r, what.str() + ": threw: " + pt.error);
          continue;
        }
        const double knee = perm == nullptr ? uniform_knee(spec_s.strategy) : 0.0;
        if (!check_open_loop(r, what.str(), pt.result, pt.offered, knee,
                             params.duration - params.warmup))
          continue;
        if (pt.result.accepted_throughput > cap * (1.0 + kCapSlack)) {
          std::ostringstream why;
          why << ": MIN worst-case accepted " << pt.result.accepted_throughput
              << " above the Section 4.2 cap " << cap;
          fail(r, what.str() + why.str());
          continue;
        }
        r.delivered += static_cast<double>(delivered_of(pt.result));
        credit_stall += credit_stall_ps(pt.result);
        r.event_digest = (r.event_digest ^ pt.result.event_digest) * 0x100000001B3ULL;
        accepted_sum += pt.result.accepted_throughput;
        hops_sum += pt.result.avg_hops;
        minimal_sum += pt.result.fraction_minimal;
      }
    }
  }

  // Per-point wall time, as the runner journaled it.
  double point_s_sum = 0.0;
  const std::filesystem::path journal_file =
      std::filesystem::path(journal_dir(ctx)) / "journal.jsonl";
  {
    std::ifstream in(journal_file);
    std::string line;
    JournalEntry e;
    while (std::getline(in, line)) {
      if (SweepJournal::parse_line(line, e)) point_s_sum += e.wall_seconds;
    }
  }
  r.layer["common.journal.bytes"] = static_cast<double>(std::filesystem::file_size(journal_file));
  tr.count("common.journal.bytes", r.layer["common.journal.bytes"]);
  r.layer["sim.sweep.points"] = static_cast<double>(points);
  r.layer["sim.sweep.point_s_sum"] = point_s_sum;
  r.layer["sim.sweep.overhead_s"] = runner_s - point_s_sum;
  r.layer["sim.events"] = static_cast<double>(events);

  const double n = static_cast<double>(points);
  r.sim["sim.accepted"] = accepted_sum / n;  // mean over points
  r.sim["sim.avg_hops"] = hops_sum / n;
  r.sim["sim.fraction_minimal"] = minimal_sum / n;
  r.sim["sim.events"] = static_cast<double>(events);
  r.sim["sim.delivered"] = r.delivered;

  if (tr.enabled()) {
    r.sim["sim.credit_stall_ps"] = credit_stall;
    // Probes outside the timed section: per series, one SimStack built as
    // the runner builds it (summed over the series' points) and a
    // route_into probe on its strategy and pattern.
    std::map<const Topology*, SharedIntermediates> vias;
    double vias_s = 0.0, stack_s = 0.0, route_ns = 0.0;
    int series_n = 0;
    const int calls = route_probe_calls(ctx) / 10;
    SimConfig untraced = base.config;  // as the untraced runner builds its stacks
    untraced.metrics.enabled = false;
    untraced.collect_event_digest = false;
    for (const CampaignStep& step : ex.steps) {
      if (!step.load) continue;
      for (const SweepSeriesSpec& spec_s : step.load->series) {
        SharedIntermediates v;
        if (spec_s.strategy != RoutingStrategy::kMinimal) {
          auto it = vias.find(spec_s.topo);
          if (it == vias.end()) {
            const double tv = wall_now();
            it = vias.emplace(spec_s.topo, std::make_shared<const std::vector<int>>(
                                               valiant_intermediates(*spec_s.topo)))
                     .first;
            vias_s += wall_now() - tv;
          }
          v = it->second;
        }
        const double ts = wall_now();
        SimStack stack(*spec_s.topo, spec_s.table, spec_s.strategy, untraced, spec_s.params, v);
        stack_s += (wall_now() - ts) * static_cast<double>(spec_s.loads.size());
        route_ns += probe_route_ns(*spec_s.topo, stack.routing(), *spec_s.pattern, ctx.seed, calls);
        ++series_n;
      }
    }
    r.layer["routing.intermediates_s"] = vias_s;
    r.layer["sim.stack_s"] = stack_s;
    r.layer["routing.route_ns"] = route_ns / series_n;
  }
  setup.journal.reset();
  std::filesystem::remove_all(journal_dir(ctx));
  return r;
}

// ------------------------------------------------------------ flow engine

struct FlowPoint {
  const char* topology;
  double load;
  double duration_us;
  double warmup_us;
  double rate_interval_us;  ///< 0 = exact recompute
  bool fluid_a2a;           ///< also run the closed-form fluid all-to-all
};

FlowPoint large_point(const Context& ctx) {
  return ctx.smoke ? FlowPoint{"sf:q=13", 0.7, 2.0, 0.5, 0.5, true}
                   : FlowPoint{"sf:q=31", 0.7, 2.0, 0.5, 0.5, true};
}
FlowPoint small_point(const Context& ctx) {
  return ctx.smoke ? FlowPoint{"sf:q=5", 0.5, 2.0, 0.5, 0.0, false}
                   : FlowPoint{"sf:q=7", 0.5, 4.0, 1.0, 0.0, false};
}
/// Both flow points sit below the SF's MIN uniform knee (~0.8-0.9).
constexpr double kFlowKnee = 0.7;
constexpr std::int64_t kA2aBytesPerPair = 4096;

SimConfig flow_config(const FlowPoint& fp, std::uint64_t seed, bool traced) {
  SimConfig cfg;
  cfg.engine = SimEngine::kFlow;
  cfg.seed = seed;
  cfg.collect_event_digest = traced;
  cfg.wall_limit_seconds = kPointTimeoutSeconds;
  cfg.flow.rate_interval = us(fp.rate_interval_us);
  return cfg;
}

void flow_setup(const FlowPoint& fp, const Context& ctx, Tracer& tr, RepResult& r,
                PointSetup& s) {
  build_network(fp.topology, /*with_vias=*/false, tr, r, s.net);
  s.uniform.emplace(s.net.topo->num_nodes());
  timed(tr, r, "flowsim.stack", [&] {
    s.stack.emplace(*s.net.topo, s.net.table, RoutingStrategy::kMinimal,
                    flow_config(fp, ctx.seed, tr.enabled()));
  });
}

RepResult flow_rep(const FlowPoint& fp, const Context& ctx, Tracer& tr, bool setup_only) {
  RepResult r;
  const double w0 = wall_now(), c0 = thread_cpu_now();
  std::optional<Span> root(std::in_place, tr, "workload");
  PointSetup s;
  flow_setup(fp, ctx, tr, r, s);
  r.setup_cpu_s = thread_cpu_now() - c0;
  if (setup_only) return r;

  OpenLoopResult res;
  ++r.attempted;
  try {
    timed(tr, r, "flowsim.run", [&] {
      res = s.stack->run_open_loop(*s.uniform, fp.load, us(fp.duration_us), us(fp.warmup_us));
    });
  } catch (const std::exception& e) {
    fail(r, std::string("flow point threw: ") + e.what());
  }
  r.engine_s = r.layer["flowsim.run_s"];
  const bool point_ok = r.failed == 0;

  ExchangeResult a2a;
  if (fp.fluid_a2a) {
    ++r.attempted;
    try {
      timed(tr, r, "flowsim.fluid_a2a",
            [&] { a2a = s.stack->run_fluid_all_to_all(kA2aBytesPerPair); });
      if (!a2a.completed || !std::isfinite(a2a.completion_us) || a2a.completion_us <= 0.0)
        fail(r, "fluid all-to-all finished with no finite completion");
    } catch (const std::exception& e) {
      fail(r, std::string("fluid all-to-all threw: ") + e.what());
    }
  }
  root.reset();
  r.wall_s = wall_now() - w0;
  if (point_ok)
    check_open_loop(r, "flow uniform point", res, fp.load, kFlowKnee,
                    us(fp.duration_us - fp.warmup_us));

  r.delivered = static_cast<double>(delivered_of(res));
  const double events = static_cast<double>(res.events_processed);
  tr.count("flowsim.events", events);
  tr.count("flowsim.flows_completed", r.delivered);
  r.layer["flowsim.events"] = events;
  r.layer["flowsim.flows_completed"] = r.delivered;
  r.sim["flowsim.accepted"] = res.accepted_throughput;
  r.sim["flowsim.events"] = events;
  r.sim["flowsim.flows_completed"] = r.delivered;
  if (fp.fluid_a2a) r.sim["flowsim.a2a_completion_us"] = a2a.completion_us;
  if (tr.enabled()) {
    r.event_digest = res.event_digest;
    r.digest_key = "flowsim.event_digest";
    r.layer["routing.route_ns"] = probe_route_ns(*s.net.topo, s.stack->routing(), *s.uniform,
                                                 ctx.seed, route_probe_calls(ctx));
  }
  return r;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"packet_paper_ugal", paper_rep},
      {"packet_fig6_sweep", sweep_rep},
      {"flow_large_batched",
       [](const Context& c, Tracer& t, bool s) { return flow_rep(large_point(c), c, t, s); }},
      {"flow_small_exact",
       [](const Context& c, Tracer& t, bool s) { return flow_rep(small_point(c), c, t, s); }},
  };
  return all;
}

}  // namespace perfbench
