// Clocks, memory probes and the span recorder of the perfbench binary.
//
// Spans are recorded from the benchmark's own code, around each public
// library call it makes (topology build, MinimalTable, SimStack, engine
// runs, campaign expansion, the sweep runner, the journal). A disabled
// Tracer records nothing, so untraced runs pay one branch per call.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Host wall-clock seconds (steady_clock).
double wall_now();
/// CPU seconds (user + sys) consumed by the calling thread.
double thread_cpu_now();
/// Current resident set size of the process, MB.
double rss_mb();
/// Peak resident set size of the process so far, MB.
double peak_rss_mb();

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span as the child of the innermost open one; closes on scope
  /// exit. Spans must close in LIFO order (they are scoped objects).
  class Span {
   public:
    Span(Tracer& t, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& t_;
    int index_ = -1;
  };

  /// Adds `value` to the named counter (recorded only when enabled).
  void count(const std::string& name, double value);

  /// Self time per layer, seconds: each span's duration minus the part its
  /// child spans cover, summed by layer. A span's layer is the first
  /// dot-separated component of its name ("routing.table" -> "routing"),
  /// except "common.journal.*" -> "common/journal"; names without a dot
  /// belong to the benchmark itself ("bench").
  std::map<std::string, double> self_seconds() const;

  /// Writes every span (name, start, end, parent, relative to the first
  /// span) and counter as one JSON document.
  void write_json(const std::string& path, const std::string& header_json) const;

 private:
  struct Record {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };
  bool enabled_;
  std::vector<Record> spans_;
  std::vector<int> open_;
  std::map<std::string, double> counters_;
};

}  // namespace perfbench
