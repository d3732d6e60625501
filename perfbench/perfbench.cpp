// perfbench: the repository's end-to-end and per-layer benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--size full|smoke] [--commit ID] [--scratch DIR] [--fig6 PATH]
//
// Repeats reps of the workload (see workloads.h) until S seconds have
// passed (at least one), checks every simulated point, and prints one JSON
// object as its last stdout line: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics (medians over
// reps); --trace 1 alternates untraced and traced reps and reports the
// per-layer metrics, each layer's self time, and the tracing overhead
// (traced minus untraced wall_s). The span trace is written to
// <scratch>/trace-<workload>-seed<N>.json. run.py builds and runs this
// binary; see README.md.
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <sstream>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Upper bound on reps per run, whatever the time budget.
constexpr int kMaxReps = 64;
/// setup_s is the median over the reps' own setups plus up to
/// kMaxSetupOnly setup-only samples. They are paced over the run (after
/// each rep, as many as the elapsed share of the budget allows, the rest
/// at the end) and taken only while they fit in kSetupShare of the elapsed
/// time: a setup of a few milliseconds is never judged on one sample or
/// on one moment of the host.
constexpr int kMaxSetupOnly = 40;
constexpr double kSetupShare = 0.3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string commit = "unknown";
  std::string scratch = ".bench_build/perfbench-scratch";
  std::string fig6 = "perfbench/fig6.json";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--size full|smoke] [--commit ID] [--scratch DIR] [--fig6 PATH]\n",
               why.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0' || val.empty()) usage("bad --seed " + val);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) usage("bad --seconds " + val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("bad --trace " + val);
      o.trace = val == "1";
    } else if (key == "--size") {
      if (val != "full" && val != "smoke") usage("bad --size " + val);
      o.smoke = val == "smoke";
    } else if (key == "--commit") {
      o.commit = val;
    } else if (key == "--scratch") {
      o.scratch = val;
    } else if (key == "--fig6") {
      o.fig6 = val;
    } else {
      usage("unknown flag " + key);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

/// Host fingerprint: results from different hosts or builds must never be
/// compared silently.
std::string host_json(const Options& o) {
  std::ostringstream os;
  os << "{\"cpu\": \"" << json_escape(cpu_model()) << "\", \"nproc\": "
     << sysconf(_SC_NPROCESSORS_ONLN) << ", \"compiler\": \"" << PERFBENCH_COMPILER
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"commit\": \""
     << json_escape(o.commit) << "\", \"seed\": " << o.seed << ", \"workload\": \""
     << json_escape(o.workload) << "\", \"size\": \"" << (o.smoke ? "smoke" : "full")
     << "\", \"trace\": " << (o.trace ? 1 : 0) << "}";
  return os.str();
}

/// Metric name -> unit, in BENCHMARK.json order.
const std::vector<std::pair<const char*, const char*>>& per_layer_units() {
  static const std::vector<std::pair<const char*, const char*>> all = {
      {"topology.build_s", "s"},
      {"routing.table_s", "s"},
      {"routing.table_mb", "MB"},
      {"routing.intermediates_s", "s"},
      {"routing.route_ns", "ns"},
      {"sim.stack_s", "s"},
      {"sim.run_s", "s"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.events_per_delivered", "ratio"},
      {"sim.campaign.expand_s", "s"},
      {"sim.sweep.points", "count"},
      {"sim.sweep.point_s_sum", "s"},
      {"sim.sweep.overhead_s", "s"},
      {"common.journal.bytes", "B"},
      {"flowsim.stack_s", "s"},
      {"flowsim.run_s", "s"},
      {"flowsim.events", "count"},
      {"flowsim.flows_completed", "count"},
      {"flowsim.ns_per_event", "ns"},
      {"flowsim.events_per_flow", "ratio"},
      {"flowsim.fluid_a2a_s", "s"},
      {"self.topology_s", "s"},
      {"self.routing_s", "s"},
      {"self.sim_s", "s"},
      {"self.flowsim_s", "s"},
      {"self.common_journal_s", "s"},
      {"self.bench_s", "s"},
      {"trace.overhead_s", "s"},
      {"sim.accepted", "fraction"},
      {"sim.avg_hops", "hops"},
      {"sim.fraction_minimal", "fraction"},
      {"sim.credit_stall_ps", "ps"},
      {"flowsim.accepted", "fraction"},
      {"flowsim.a2a_completion_us", "us"},
  };
  return all;
}

/// True when every simulated statistic of `a` appears in `b` with the
/// same bits.
bool covers(const RepResult& a, const RepResult& b) {
  for (const auto& [k, v] : a.sim) {
    auto it = b.sim.find(k);
    if (it == b.sim.end() ||
        std::bit_cast<std::uint64_t>(it->second) != std::bit_cast<std::uint64_t>(v))
      return false;
  }
  return true;
}

/// Two reps of the same kind (both traced or both untraced) reproduced
/// each other: the same statistics, bit for bit, and the same digest.
bool same_sim(const RepResult& a, const RepResult& b) {
  return a.sim.size() == b.sim.size() && covers(a, b) && a.event_digest == b.event_digest;
}

void print_sim(const char* tag, const RepResult& r) {
  std::printf("perfbench sim (%s):", tag);
  for (const auto& [k, v] : r.sim) std::printf(" %s=%.17g", k.c_str(), v);
  if (r.event_digest != 0) std::printf(" %s=%016" PRIx64, r.digest_key, r.event_digest);
  std::printf("\n");
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

int run(const Options& o) {
  const Workload* w = nullptr;
  for (const Workload& cand : workloads())
    if (o.workload == cand.name) w = &cand;
  if (w == nullptr) usage("unknown workload " + o.workload);

  Context ctx;
  ctx.seed = o.seed;
  ctx.smoke = o.smoke;
  ctx.fig6_spec = read_file(o.fig6);
  ctx.scratch_dir = o.scratch + "/run-" + std::to_string(getpid());
  std::filesystem::create_directories(ctx.scratch_dir);

  const std::string host = host_json(o);
  std::printf("perfbench host: %s\n", host.c_str());
  std::fflush(stdout);

  const double t_start = wall_now();
  auto elapsed = [&] { return wall_now() - t_start; };

  // The first rep runs alone in the fresh process: peak_rss_mb is the
  // high-water mark it leaves (later reps only add heap fragmentation).
  // Setup-only samples are then interleaved with the remaining reps, so
  // that they spread over the whole run.
  Tracer off(false), on(true);
  std::vector<RepResult> plain, traced;
  plain.push_back(w->rep(ctx, off, false));
  const double peak_rss = peak_rss_mb();
  if (o.trace) traced.push_back(w->rep(ctx, on, false));
  std::vector<double> setup_samples;
  double setup_only_s = 0.0;  // wall seconds spent in setup-only samples
  auto sample_setups = [&](int upto) {
    while (!o.trace && static_cast<int>(setup_samples.size()) < std::min(upto, kMaxSetupOnly) &&
           setup_only_s < kSetupShare * elapsed()) {
      const double t0 = wall_now();
      setup_samples.push_back(w->rep(ctx, off, true).setup_cpu_s);
      setup_only_s += wall_now() - t0;
    }
  };
  while (elapsed() < o.seconds && static_cast<int>(plain.size()) < kMaxReps) {
    sample_setups(static_cast<int>(kMaxSetupOnly * elapsed() / o.seconds));
    if (elapsed() >= o.seconds) break;
    plain.push_back(w->rep(ctx, off, false));
    if (o.trace) traced.push_back(w->rep(ctx, on, false));
  }
  sample_setups(kMaxSetupOnly);

  // Correctness: every point passed its gates; every rep reproduced the
  // first rep of its kind bit for bit, digest included; and the traced
  // reps reproduced every statistic of the untraced ones.
  int attempted = 0, failed = 0;
  bool identical = traced.empty() || covers(plain.front(), traced.front());
  auto gather = [&](const std::vector<RepResult>& reps) {
    for (const RepResult& r : reps) {
      attempted += r.attempted;
      failed += r.failed;
      for (const std::string& f : r.failures) std::printf("perfbench FAILED: %s\n", f.c_str());
      if (!same_sim(reps.front(), r)) identical = false;
    }
  };
  gather(plain);
  gather(traced);
  if (!identical) std::printf("perfbench FAILED: simulated statistics differ between reps\n");
  print_sim("untraced", plain.front());
  if (!traced.empty()) print_sim("traced", traced.front());

  std::vector<double> wall, per_s;
  for (const RepResult& r : plain) {
    wall.push_back(r.wall_s);
    per_s.push_back(r.engine_s > 0.0 ? r.delivered / r.engine_s : 0.0);
    setup_samples.push_back(r.setup_cpu_s);
    std::printf("perfbench rep: wall_s=%.4f setup_cpu_s=%.4f engine_s=%.4f delivered=%.0f\n",
                r.wall_s, r.setup_cpu_s, r.engine_s, r.delivered);
  }
  std::printf("perfbench setup-only samples (thread CPU s):");
  for (std::size_t i = 0; i < setup_samples.size() - plain.size(); ++i)
    std::printf(" %.4f", setup_samples[i]);
  std::printf("\n");
  std::printf("perfbench points: attempted=%d failed=%d reps=%zu traced_reps=%zu\n", attempted,
              failed, plain.size(), traced.size());

  std::map<std::string, std::pair<double, const char*>> metrics;
  if (!o.trace) {
    metrics["wall_s"] = {median(wall), "s"};
    metrics["setup_s"] = {median(setup_samples), "s"};
    metrics["delivered_per_s"] = {median(per_s), "1/s"};
    metrics["peak_rss_mb"] = {peak_rss, "MB"};
  } else {
    // Layer timings come from the untraced reps (timed from outside, with
    // no engine metrics or digest slowing them); the probes run only in
    // traced reps. routing.table_mb is the RSS growth of the first table
    // build in the process (later builds reuse freed pages).
    std::map<std::string, std::vector<double>> layer;
    for (const RepResult& r : plain)
      for (const auto& [k, v] : r.layer) layer[k].push_back(v);
    for (const RepResult& r : traced)
      for (const auto& [k, v] : r.layer)
        if (!plain.front().layer.count(k)) layer[k].push_back(v);
    std::map<std::string, double> m;
    for (const auto& [k, v] : layer) m[k] = median(v);
    if (plain.front().layer.count("routing.table_mb"))
      m["routing.table_mb"] = plain.front().layer.at("routing.table_mb");
    // On the sweep the runner builds each point's stack internally:
    // engine time is the journaled point time minus the stack probe.
    if (m.count("sim.sweep.point_s_sum"))
      m["sim.run_s"] = m["sim.sweep.point_s_sum"] - m["sim.stack_s"];
    for (const auto& [k, v] : traced.front().sim) m[k] = v;
    auto ratio = [&](const char* num, const char* den, double scale) {
      return m[den] > 0.0 ? scale * m[num] / m[den] : 0.0;
    };
    m["sim.ns_per_event"] = ratio("sim.run_s", "sim.events", 1e9);
    m["sim.events_per_delivered"] = ratio("sim.events", "sim.delivered", 1.0);
    m["flowsim.ns_per_event"] = ratio("flowsim.run_s", "flowsim.events", 1e9);
    m["flowsim.events_per_flow"] = ratio("flowsim.events", "flowsim.flows_completed", 1.0);
    std::vector<double> traced_wall;
    for (const RepResult& r : traced) traced_wall.push_back(r.wall_s);
    m["trace.overhead_s"] = median(traced_wall) - median(wall);
    const double n = static_cast<double>(traced.size());
    std::printf("perfbench self time per rep (traced, %zu reps):\n", traced.size());
    for (const auto& [layer_name, secs] : on.self_seconds()) {
      std::string key = "self." + layer_name + "_s";
      std::replace(key.begin(), key.end(), '/', '_');
      m[key] = secs / n;
      std::printf("  %-16s %10.4f s\n", layer_name.c_str(), secs / n);
    }
    std::printf("perfbench tracing overhead: %.4f s (traced %.4f s - untraced %.4f s wall_s)\n",
                m["trace.overhead_s"], median(traced_wall), median(wall));
    for (const auto& [name, unit] : per_layer_units()) metrics[name] = {m[name], unit};
    const std::string trace_path =
        o.scratch + "/trace-" + o.workload + "-seed" + std::to_string(o.seed) + ".json";
    on.write_json(trace_path, host);
    std::printf("perfbench trace: %s\n", trace_path.c_str());
  }
  for (const auto& [name, vu] : metrics)
    std::printf("perfbench metric: %s = %.6g %s\n", name.c_str(), vu.first, vu.second);

  std::filesystem::remove_all(ctx.scratch_dir);
  const bool correct = failed == 0 && identical;
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), vu.first, vu.second);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options o = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
