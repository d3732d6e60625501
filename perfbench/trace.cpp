#include "trace.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>

namespace perfbench {
namespace {

std::string layer_of(const std::string& span_name) {
  if (span_name.rfind("common.journal", 0) == 0) return "common/journal";
  const std::size_t dot = span_name.find('.');
  return dot == std::string::npos ? "bench" : span_name.substr(0, dot);
}

}  // namespace

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double rss_mb() {
  long pages_total = 0, pages_resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  const int got = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(pages_resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

Tracer::Span::Span(Tracer& t, const char* name) : t_(t) {
  if (!t_.enabled_) return;
  index_ = static_cast<int>(t_.spans_.size());
  const int parent = t_.open_.empty() ? -1 : t_.open_.back();
  t_.spans_.push_back(Record{name, wall_now(), 0.0, parent});
  t_.open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  t_.spans_[static_cast<std::size_t>(index_)].end = wall_now();
  t_.open_.pop_back();
}

void Tracer::count(const std::string& name, double value) {
  if (enabled_) counters_[name] += value;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> child_cover(spans_.size(), 0.0);
  for (const Record& r : spans_) {
    if (r.parent >= 0) child_cover[static_cast<std::size_t>(r.parent)] += r.end - r.start;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[layer_of(spans_[i].name)] += (spans_[i].end - spans_[i].start) - child_cover[i];
  }
  return out;
}

void Tracer::write_json(const std::string& path, const std::string& header_json) const {
  std::ofstream os(path);
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  char buf[64];
  os << "{\"header\": " << header_json << ",\n\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    std::snprintf(buf, sizeof buf, "%.9f, \"end\": %.9f", r.start - t0, r.end - t0);
    os << (i ? ",\n" : "\n") << "  {\"id\": " << i << ", \"name\": \"" << r.name
       << "\", \"parent\": " << r.parent << ", \"start\": " << buf << "}";
  }
  os << "\n],\n\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    std::snprintf(buf, sizeof buf, "%.17g", value);
    os << (first ? "\n" : ",\n") << "  \"" << name << "\": " << buf;
    first = false;
  }
  os << "\n}}\n";
}

}  // namespace perfbench
