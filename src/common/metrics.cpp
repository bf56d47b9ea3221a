#include "common/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <ostream>

#include "common/config.hpp"

namespace specmatch::metrics {

namespace {

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env_flag("SPECMATCH_METRICS")};
  return flag;
}

/// Spinlock guard for the histogram's tiny critical section (a handful of
/// scalar updates — shorter than a mutex park/unpark would be).
class FlagLock {
 public:
  explicit FlagLock(std::atomic_flag& flag) : flag_(flag) {
    while (flag_.test_and_set(std::memory_order_acquire)) {
    }
  }
  ~FlagLock() { flag_.clear(std::memory_order_release); }

 private:
  std::atomic_flag& flag_;
};

std::size_t bucket_of(double value) {
  if (!(value >= 1.0)) return 0;  // also routes NaN to bucket 0
  const int exp = std::ilogb(value) + 1;
  return std::min<std::size_t>(static_cast<std::size_t>(exp),
                               Histogram::kNumBuckets - 1);
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

void Histogram::record(double value) {
  FlagLock lock(lock_);
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  ++buckets_[bucket_of(value)];
}

Histogram::Summary Histogram::summary() const {
  FlagLock lock(lock_);
  Summary s;
  s.count = count_;
  s.sum = sum_;
  s.min = min_;
  s.max = max_;
  s.buckets.assign(buckets_, buckets_ + kNumBuckets);
  return s;
}

void Histogram::reset() {
  FlagLock lock(lock_);
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
  for (std::uint64_t& b : buckets_) b = 0;
}

double Histogram::Summary::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Cumulative mass the quantile must cover, in (0, count].
  const double target =
      std::max(q * static_cast<double>(count), std::nextafter(0.0, 1.0));
  double cum = 0.0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const double in_bucket = static_cast<double>(buckets[b]);
    if (in_bucket == 0.0 || cum + in_bucket < target) {
      cum += in_bucket;
      continue;
    }
    // Bucket b spans [2^(b-1), 2^b), with bucket 0 pooling values < 1.
    const double lo = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
    const double hi = std::ldexp(1.0, static_cast<int>(b));
    const double frac = (target - cum) / in_bucket;
    return std::clamp(lo + frac * (hi - lo), min, max);
  }
  return max;  // unreachable unless buckets disagree with count
}

std::int64_t Snapshot::counter(std::string_view name) const {
  for (const auto& [n, v] : counters)
    if (n == name) return v;
  return 0;
}

// std::map is node-based, so instrument addresses survive later insertions —
// that is what makes the returned references stable for the process.
struct Registry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, Counter, std::less<>> counters;
  std::map<std::string, Gauge, std::less<>> gauges;
  std::map<std::string, Histogram, std::less<>> histograms;
};

Registry::Registry() : impl_(new Impl) {}

Registry& Registry::global() {
  // Leaked intentionally: instruments may be touched from worker threads
  // during static destruction otherwise.
  static Registry* registry = new Registry();
  return *registry;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->counters.find(name);
  if (it != impl_->counters.end()) return it->second;
  return impl_->counters[std::string(name)];
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->gauges.find(name);
  if (it != impl_->gauges.end()) return it->second;
  return impl_->gauges[std::string(name)];
}

Histogram& Registry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->histograms.find(name);
  if (it != impl_->histograms.end()) return it->second;
  return impl_->histograms[std::string(name)];
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  Snapshot s;
  s.counters.reserve(impl_->counters.size());
  for (const auto& [name, counter] : impl_->counters)
    s.counters.emplace_back(name, counter.value());
  s.gauges.reserve(impl_->gauges.size());
  for (const auto& [name, gauge] : impl_->gauges)
    s.gauges.emplace_back(name, gauge.value());
  s.histograms.reserve(impl_->histograms.size());
  for (const auto& [name, histogram] : impl_->histograms)
    s.histograms.emplace_back(name, histogram.summary());
  return s;
}

void Registry::reset_all() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (auto& [name, counter] : impl_->counters) counter.reset();
  for (auto& [name, gauge] : impl_->gauges) gauge.reset();
  for (auto& [name, histogram] : impl_->histograms) histogram.reset();
}

void write_json(std::ostream& out, const Snapshot& snapshot) {
  out << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i)
    out << (i ? ", " : "") << "\"" << snapshot.counters[i].first
        << "\": " << snapshot.counters[i].second;
  out << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i)
    out << (i ? ", " : "") << "\"" << snapshot.gauges[i].first
        << "\": " << snapshot.gauges[i].second;
  out << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& [name, s] = snapshot.histograms[i];
    out << (i ? ",\n    " : "\n    ") << "\"" << name << "\": {\"count\": "
        << s.count << ", \"sum\": " << s.sum << ", \"min\": " << s.min
        << ", \"max\": " << s.max << ", \"mean\": " << s.mean()
        << ", \"p50\": " << s.p50() << ", \"p90\": " << s.p90()
        << ", \"p99\": " << s.p99() << ", \"buckets\": [";
    for (std::size_t b = 0; b < s.buckets.size(); ++b)
      out << (b ? "," : "") << s.buckets[b];
    out << "]}";
  }
  out << (snapshot.histograms.empty() ? "" : "\n  ") << "}\n}\n";
}

void write_csv(std::ostream& out, const Snapshot& snapshot) {
  out << "kind,name,count,sum,min,max,p50,p90,p99\n";
  for (const auto& [name, value] : snapshot.counters)
    out << "counter," << name << "," << value << ",,,,,,\n";
  for (const auto& [name, value] : snapshot.gauges)
    out << "gauge," << name << "," << value << ",,,,,,\n";
  for (const auto& [name, s] : snapshot.histograms)
    out << "histogram," << name << "," << s.count << "," << s.sum << ","
        << s.min << "," << s.max << "," << s.p50() << "," << s.p90() << ","
        << s.p99() << "\n";
}

}  // namespace specmatch::metrics
