#include "common/cli.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.h"

namespace d2net {
namespace {

/// Splits "--name=value" / "--name" into (name, value, has_value).
struct ParsedArg {
  std::string name;
  std::string value;
  bool has_value = false;
};

ParsedArg split_arg(const std::string& arg) {
  D2NET_REQUIRE(arg.size() > 2 && arg[0] == '-' && arg[1] == '-',
                "arguments must look like --name[=value]: " + arg);
  ParsedArg out;
  const auto eq = arg.find('=');
  if (eq == std::string::npos) {
    out.name = arg.substr(2);
  } else {
    out.name = arg.substr(2, eq - 2);
    out.value = arg.substr(eq + 1);
    out.has_value = true;
  }
  return out;
}

// Strict numeric parsing: the *entire* token must parse, so "--load=0.9o"
// or "--duration=10us" fail loudly instead of silently truncating (or, for
// strtod with a bad prefix, silently becoming 0). strtod also accepts
// "nan"/"inf"; no flag gives them a meaning, so they are rejected too.

std::int64_t parse_int_value(const std::string& name, const std::string& s) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  D2NET_REQUIRE(!s.empty() && end == s.c_str() + s.size() && errno != ERANGE,
                "flag --" + name + " expects an integer, got '" + s + "'");
  return static_cast<std::int64_t>(v);
}

double parse_double_value(const std::string& name, const std::string& s) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  D2NET_REQUIRE(!s.empty() && end == s.c_str() + s.size() && errno != ERANGE &&
                    std::isfinite(v),
                "flag --" + name + " expects a finite number, got '" + s + "'");
  return v;
}

bool parse_bool_value(const std::string& name, const std::string& s) {
  if (s == "true" || s == "1") return true;
  if (s == "false" || s == "0") return false;
  D2NET_REQUIRE(false, "flag --" + name + " expects true/false/1/0, got '" + s + "'");
  return false;  // unreachable
}

}  // namespace

Cli::Cli(std::string program_description) : description_(std::move(program_description)) {}

Cli& Cli::flag(const std::string& name, std::int64_t v, const std::string& help) {
  D2NET_REQUIRE(entries_.emplace(name, Entry{v, help}).second, "duplicate flag " + name);
  order_.push_back(name);
  return *this;
}
Cli& Cli::flag(const std::string& name, double v, const std::string& help) {
  D2NET_REQUIRE(entries_.emplace(name, Entry{v, help}).second, "duplicate flag " + name);
  order_.push_back(name);
  return *this;
}
Cli& Cli::flag(const std::string& name, bool v, const std::string& help) {
  D2NET_REQUIRE(entries_.emplace(name, Entry{v, help}).second, "duplicate flag " + name);
  order_.push_back(name);
  return *this;
}
Cli& Cli::flag(const std::string& name, const std::string& v, const std::string& help) {
  D2NET_REQUIRE(entries_.emplace(name, Entry{v, help}).second, "duplicate flag " + name);
  order_.push_back(name);
  return *this;
}

bool Cli::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help();
      return false;
    }
    ParsedArg pa = split_arg(arg);
    auto it = entries_.find(pa.name);
    D2NET_REQUIRE(it != entries_.end(), "unknown flag --" + pa.name);
    Entry& entry = it->second;
    // Bool flags may omit the value ("--full" means true).
    if (!pa.has_value && !std::holds_alternative<bool>(entry.value)) {
      D2NET_REQUIRE(i + 1 < argc, "flag --" + pa.name + " expects a value");
      pa.value = argv[++i];
      pa.has_value = true;
    }
    if (std::holds_alternative<std::int64_t>(entry.value)) {
      entry.value = parse_int_value(pa.name, pa.value);
    } else if (std::holds_alternative<double>(entry.value)) {
      entry.value = parse_double_value(pa.name, pa.value);
    } else if (std::holds_alternative<bool>(entry.value)) {
      entry.value = !pa.has_value || parse_bool_value(pa.name, pa.value);
    } else {
      entry.value = pa.value;
    }
  }
  return true;
}

const Cli::Entry& Cli::lookup(const std::string& name) const {
  auto it = entries_.find(name);
  D2NET_REQUIRE(it != entries_.end(), "flag not declared: " + name);
  return it->second;
}

std::int64_t Cli::get_int(const std::string& name) const {
  return std::get<std::int64_t>(lookup(name).value);
}
double Cli::get_double(const std::string& name) const {
  return std::get<double>(lookup(name).value);
}
bool Cli::get_bool(const std::string& name) const {
  return std::get<bool>(lookup(name).value);
}
const std::string& Cli::get_string(const std::string& name) const {
  return std::get<std::string>(lookup(name).value);
}

void Cli::print_help() const {
  std::printf("%s\n\nFlags:\n", description_.c_str());
  for (const auto& name : order_) {
    const Entry& e = entries_.at(name);
    std::string def;
    if (std::holds_alternative<std::int64_t>(e.value)) {
      def = std::to_string(std::get<std::int64_t>(e.value));
    } else if (std::holds_alternative<double>(e.value)) {
      def = std::to_string(std::get<double>(e.value));
    } else if (std::holds_alternative<bool>(e.value)) {
      def = std::get<bool>(e.value) ? "true" : "false";
    } else {
      def = std::get<std::string>(e.value);
    }
    std::printf("  --%-24s %s (default: %s)\n", name.c_str(), e.help.c_str(), def.c_str());
  }
}

}  // namespace d2net
