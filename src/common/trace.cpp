#include "common/trace.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <ostream>

#include "common/config.hpp"

namespace specmatch::trace {

namespace {

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env_flag("SPECMATCH_TRACE")};
  return flag;
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int this_lane() {
  static std::atomic<int> next_lane{0};
  thread_local int lane = next_lane.fetch_add(1, std::memory_order_relaxed);
  return lane;
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

struct Tracer::Impl {
  mutable std::mutex mutex;
  std::vector<Span> spans;
  std::size_t dropped = 0;
  std::int64_t epoch_ns = -1;  ///< set by the first recorded span
};

Tracer::Tracer() : impl_(new Impl) {}

Tracer& Tracer::global() {
  static Tracer* tracer = new Tracer();  // leaked; see Registry::global()
  return *tracer;
}

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (impl_->epoch_ns < 0) impl_->epoch_ns = span.start_ns;
  if (impl_->spans.size() >= kMaxSpans) {
    ++impl_->dropped;
    return;
  }
  span.start_ns -= impl_->epoch_ns;
  impl_->spans.push_back(std::move(span));
}

std::vector<Span> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->spans;
}

std::size_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->dropped;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->spans.clear();
  impl_->dropped = 0;
  impl_->epoch_ns = -1;
}

void Tracer::write_chrome_json(std::ostream& out) const {
  const std::vector<Span> spans = snapshot();
  out << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n " : "\n ") << "{\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 0, \"tid\": " << s.lane
        << ", \"ts\": " << static_cast<double>(s.start_ns) / 1000.0
        << ", \"dur\": " << static_cast<double>(s.duration_ns) / 1000.0
        << ", \"args\": {\"arg\": " << s.arg << "}}";
  }
  out << "\n]\n";
}

ScopedSpan::ScopedSpan(std::string_view name, std::int64_t arg)
    : name_(name), arg_(arg) {
  if (enabled()) start_ns_ = steady_now_ns();
}

ScopedSpan::~ScopedSpan() { end(); }

void ScopedSpan::end() {
  if (start_ns_ < 0) return;
  // A span started before tracing was switched off mid-scope still records;
  // that beats losing the enclosing phase timing.
  const std::int64_t end_ns = steady_now_ns();
  Tracer::global().record(
      Span{std::string(name_), start_ns_, end_ns - start_ns_, this_lane(),
           arg_});
  start_ns_ = -1;
}

}  // namespace specmatch::trace
