// The four perfbench workloads. Each one runs as repetitions ("reps") of
// one unit of work, built from scratch every time: setup (topology,
// MinimalTable, intermediate sets, campaign expansion, engine
// construction) followed by the simulation itself. The binary
// (perfbench.cpp) repeats reps until its time budget is spent and reports
// medians.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Context {
  std::uint64_t seed = 1;
  bool smoke = false;        ///< tiny sizes for the benchmark's own tests
  std::string fig6_spec;     ///< text of fig6.json (packet_fig6_sweep)
  std::string scratch_dir;   ///< per-run directory for the sweep journal
};

/// Outcome of one rep.
struct RepResult {
  double wall_s = 0.0;       ///< host wall clock, first setup call -> final result
  double setup_cpu_s = 0.0;  ///< thread CPU, first setup call -> first simulated event
  double engine_s = 0.0;     ///< host wall clock inside the engine loop(s)
  double delivered = 0.0;    ///< packets delivered / flows completed in the engine loop(s)
  int attempted = 0;         ///< simulation points (operations) run
  int failed = 0;            ///< points that threw, timed out or broke a physics check
  std::vector<std::string> failures;
  /// Per-layer timings and counts (names as in BENCHMARK.json per_layer).
  std::map<std::string, double> layer;
  /// Simulated statistics: identical for every rep of one seed, traced or
  /// not. Compared bit for bit.
  std::map<std::string, double> sim;
  std::uint64_t event_digest = 0;  ///< traced reps only
  const char* digest_key = "sim.event_digest";
};

struct Workload {
  const char* name;  ///< as in BENCHMARK.json, which also says why it was chosen
  /// One rep. With a traced rep, the tracer records spans around each
  /// library call, packet engines run with metrics and the event digest,
  /// and the layer probes (route_into, per-series stack construction) run
  /// after the timed section. With `setup_only` the rep returns right
  /// after setup: nothing is simulated and only setup_cpu_s is filled in
  /// (extra samples for the setup_s median).
  RepResult (*rep)(const Context&, Tracer&, bool setup_only);
};

const std::vector<Workload>& workloads();

}  // namespace perfbench
