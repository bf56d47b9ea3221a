// Small shared helpers of the benchmark driver: flags, clocks, percentiles,
// and a flat JSON object writer for the result lines perfbench/run.py reads.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank percentile (q in (0, 1]) of `values`; 0 when empty.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// "--key value" flags after the subcommand.
class Flags {
 public:
  Flags(int argc, char** argv, int start) {
    for (int a = start; a < argc; ++a) {
      const std::string key = argv[a];
      if (key.rfind("--", 0) != 0 || a + 1 >= argc)
        throw std::runtime_error("bad flag '" + key + "'");
      values_[key.substr(2)] = argv[++a];
    }
  }

  std::string str(const std::string& key, const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  std::string required(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  }

  double num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

/// One flat JSON object, keys in insertion order.
class JsonLine {
 public:
  JsonLine& add(const std::string& key, double value) {
    std::ostringstream v;
    if (std::isfinite(value))
      v << specmatch::serve::format_double(value);
    else
      v << "null";
    return raw(key, v.str());
  }
  JsonLine& add(const std::string& key, std::int64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonLine& add(const std::string& key, int value) {
    return add(key, static_cast<std::int64_t>(value));
  }
  JsonLine& add(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonLine& add(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (const char c : value) {
      if (c == '"' || c == '\\') quoted.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) quoted.push_back(c);
    }
    return raw(key, quoted + "\"");
  }
  JsonLine& add(const std::string& key, const char* value) {
    return add(key, std::string(value));
  }
  /// Inserts an already-encoded JSON value.
  JsonLine& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// True when a response line reports success.
inline bool is_ok(const std::string& line) { return line.rfind("ok", 0) == 0; }

}  // namespace perfbench
