// `perfbench_driver trace` and `lanes`: the per-layer half of the benchmark.
//
// The traced run feeds one request sequence (setup, then the workload's
// connection streams interleaved) to four executors, batch by batch:
//
//   * the live server over one TCP connection (send-to-response time),
//   * an in-process MatchServer (MatchServer::handle time),
//   * the twin: the same request carried out by calling each layer's public
//     functions directly — RequestReader::next, MarketEntry::apply_*,
//     MarketStore::load/write, build_snapshot_image, MatchWorkspace::prepare,
//     the two stage cores — with a span around every call,
//   * a second twin with spans off (the tracing overhead).
//
// All spans of a request share its id; MWIS calls inside the stages are
// timed by a link-time wrapper (see CMakeLists.txt). Spans stay in memory
// and are written to <work>/spans.jsonl when the run ends. The twin renders
// its own solve lines, which must equal the server's byte for byte.
#include <atomic>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include "common.hpp"
#include "common/config.hpp"
#include "common/thread_pool.hpp"
#include "graph/components.hpp"
#include "commands.hpp"
#include "market/market.hpp"
#include "matching/two_stage.hpp"
#include "matching/workspace.hpp"
#include "serve/net_client.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "store/market_store.hpp"
#include "workload.hpp"

namespace sm = specmatch;

// ---------------------------------------------------------------------------
// Span log and the MWIS interposer.

namespace perfbench {
namespace {

struct SpanRec {
  std::uint64_t req = 0;
  const char* name = "";
  const char* parent = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  void set_enabled(bool on) { on_.store(on); }
  bool enabled() const { return on_.load(std::memory_order_relaxed); }
  void set_request(std::uint64_t req) { req_ = req; }

  void add(const char* name, const char* parent, Clock::time_point a,
           Clock::time_point b) {
    const SpanRec rec{req_, name, parent, ns(a), ns(b)};
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(rec);
  }

  const std::vector<SpanRec>& spans() const { return spans_; }

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }

  std::atomic<bool> on_{false};
  std::uint64_t req_ = 0;
  Clock::time_point epoch_ = Clock::now();
  std::mutex mutex_;  // MWIS spans arrive from every engine lane
  std::vector<SpanRec> spans_;
};

SpanLog g_spans;
/// The stage span MWIS calls nest under; null outside twin stage calls, so
/// the in-process MatchServer's solves are never attributed to the twin.
std::atomic<const char*> g_mwis_parent{nullptr};
std::atomic<std::int64_t> g_mwis_calls{0};
std::atomic<std::int64_t> g_mwis_ns{0};

/// Records [start, end of scope) under `parent`; reads no clock while
/// spans are disabled, so the untraced twin pays nothing for it.
class Span {
 public:
  Span(const char* name, const char* parent) : name_(name), parent_(parent) {
    if (g_spans.enabled()) start_ = Clock::now();
  }
  ~Span() {
    if (g_spans.enabled()) g_spans.add(name_, parent_, start_, Clock::now());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* parent_;
  Clock::time_point start_{};
};

/// Routes the engine's MWIS calls to the wrapper's parent for one scope.
class MwisScope {
 public:
  explicit MwisScope(const char* parent) { g_mwis_parent.store(parent); }
  ~MwisScope() { g_mwis_parent.store(nullptr); }
  MwisScope(const MwisScope&) = delete;
  MwisScope& operator=(const MwisScope&) = delete;
};

}  // namespace
}  // namespace perfbench

const sm::DynamicBitset& perfbench_real_solve_mwis(
    const sm::graph::InterferenceGraph& graph, std::span<const double> weights,
    const sm::DynamicBitset& candidates, sm::graph::MwisAlgorithm algorithm,
    sm::graph::MwisScratch& scratch, sm::graph::MwisStats* stats)
    __asm__("__real_" PERFBENCH_MWIS_SYMBOL);

const sm::DynamicBitset& perfbench_wrap_solve_mwis(
    const sm::graph::InterferenceGraph& graph, std::span<const double> weights,
    const sm::DynamicBitset& candidates, sm::graph::MwisAlgorithm algorithm,
    sm::graph::MwisScratch& scratch, sm::graph::MwisStats* stats)
    __asm__("__wrap_" PERFBENCH_MWIS_SYMBOL);

const sm::DynamicBitset& perfbench_wrap_solve_mwis(
    const sm::graph::InterferenceGraph& graph, std::span<const double> weights,
    const sm::DynamicBitset& candidates, sm::graph::MwisAlgorithm algorithm,
    sm::graph::MwisScratch& scratch, sm::graph::MwisStats* stats) {
  using namespace perfbench;
  const char* parent = g_mwis_parent.load(std::memory_order_relaxed);
  if (parent == nullptr || !g_spans.enabled())
    return perfbench_real_solve_mwis(graph, weights, candidates, algorithm,
                                     scratch, stats);
  const Clock::time_point a = Clock::now();
  const sm::DynamicBitset& chosen = perfbench_real_solve_mwis(
      graph, weights, candidates, algorithm, scratch, stats);
  const Clock::time_point b = Clock::now();
  g_mwis_calls.fetch_add(1, std::memory_order_relaxed);
  g_mwis_ns.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count(),
                      std::memory_order_relaxed);
  g_spans.add("mwis", parent, a, b);
  return chosen;
}

namespace perfbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// What the twin measured that is not a span duration.
struct TwinCounts {
  std::vector<double> stage1_rounds;
  std::vector<double> stage1_proposals;
  std::vector<double> stage2_rounds;
  std::int64_t applications = 0;
  std::int64_t accepted = 0;
  std::int64_t solves = 0;
  std::vector<double> dirty_share;
  std::vector<double> snapshot_mb;
  double resident_mb = 0.0;
};

/// The twin: carries out each request through the layers' public calls.
class Twin {
 public:
  Twin(const WorkloadSpec& spec, const std::string& store_dir)
      : spec_(spec),
        store_(sm::store::StoreConfig{spec.store ? store_dir : std::string(),
                                      true, false}) {}

  /// A parsed request whose market is resident.
  struct Admitted {
    sm::serve::Request request;
    sm::serve::MarketEntry* entry = nullptr;  ///< null for create
  };

  /// The server's admission work, run on the submitting thread like
  /// MatchServer::submit: parse, then create or fault in the market.
  Admitted admit(const WireRequest& wire) {
    Admitted out;
    {
      Span span(wire.cls == ReqClass::kCreate ? "protocol.create_parse"
                                              : "protocol.parse",
                "request");
      std::istringstream in(wire.bytes);
      sm::serve::RequestReader reader(in);
      if (!reader.next(out.request)) throw std::runtime_error("empty frame");
    }
    const std::string& id = out.request.market_id;
    if (out.request.type == sm::serve::RequestType::kCreate) {
      {
        Span span("registry.create", "request");
        resident_[id] = std::make_unique<sm::serve::MarketEntry>(out.request.scenario);
      }
      admitted(id);
      return out;
    }
    auto it = resident_.find(id);
    if (it == resident_.end()) {
      sm::store::LoadedMarket loaded;
      {
        Span span("store.load", "request");
        loaded = store_.load(id);
      }
      {
        Span span("registry.adopt", "request");
        it = resident_.emplace(id, std::make_unique<sm::serve::MarketEntry>(
                                       std::move(loaded)))
                 .first;
      }
      admitted(id);
    }
    out.entry = it->second.get();
    return out;
  }

  /// The drain-lane work of one admitted request; returns the rendered
  /// response line for solves (empty for every other verb).
  std::string execute(const Admitted& admitted) {
    const sm::serve::Request& request = admitted.request;
    switch (request.type) {
      case sm::serve::RequestType::kUpdatePrice:
      case sm::serve::RequestType::kJoin:
      case sm::serve::RequestType::kLeave: {
        Span span("registry.apply", "request");
        apply(*admitted.entry, request);
        return "";
      }
      case sm::serve::RequestType::kSolve:
        return solve(*admitted.entry, request);
      default:
        return "";
    }
  }

  /// Off-request probes of the layers a request stream does not reach on
  /// every workload: market and component-index builds, and one snapshot
  /// round trip per market through a scratch store.
  void probe(const std::vector<GeneratedMarket>& markets,
             const std::string& probe_dir, double* largest_share) {
    sm::store::MarketStore probe_store(sm::store::StoreConfig{probe_dir, true, false});
    for (const GeneratedMarket& market : markets) {
      std::unique_ptr<sm::market::SpectrumMarket> built;
      {
        Span span("market.build", "request");
        built = std::make_unique<sm::market::SpectrumMarket>(
            sm::market::build_market(*market.scenario));
      }
      {
        Span span("components.build", "request");
        for (sm::ChannelId i = 0; i < built->num_channels(); ++i) {
          const sm::graph::ComponentIndex index(built->graph(i));
          *largest_share =
              std::max(*largest_share,
                       static_cast<double>(index.largest_component()) /
                           static_cast<double>(built->num_buyers()));
        }
      }
      if (spec_.store) continue;  // the stream itself spills and faults
      const auto it = resident_.find(market.id);
      if (it == resident_.end()) continue;
      spill(market.id, *it->second, probe_store);
      Span span("store.load", "request");
      (void)probe_store.load(market.id);
    }
  }

  TwinCounts counts;

 private:
  /// Called after a market became resident (create or fault-in).
  void admitted(const std::string& id) {
    double bytes = 0.0;
    for (const auto& [rid, entry] : resident_) bytes += static_cast<double>(entry->bytes);
    counts.resident_mb = std::max(counts.resident_mb, bytes / kMiB);
    if (!spec_.store) return;
    // The capped registry keeps one market resident: everything else spills.
    std::vector<std::string> victims;
    for (const auto& [rid, entry] : resident_)
      if (rid != id) victims.push_back(rid);
    for (const std::string& victim : victims) {
      spill(victim, *resident_[victim], store_);
      resident_.erase(victim);
    }
  }

  void spill(const std::string& id, const sm::serve::MarketEntry& entry,
             sm::store::MarketStore& store) {
    Span span("registry.spill", "request");
    const auto n = static_cast<std::size_t>(entry.market.num_buyers());
    std::vector<std::uint8_t> active(n);
    std::vector<std::uint8_t> dirty(n);
    std::vector<std::int32_t> matching(n);
    for (std::size_t j = 0; j < n; ++j) {
      active[j] = entry.active[j] ? 1 : 0;
      dirty[j] = entry.dirty.test(j) ? 1 : 0;
      matching[j] = static_cast<std::int32_t>(
          entry.last.seller_of(static_cast<sm::BuyerId>(j)));
    }
    sm::store::MarketStateView view;
    view.market = &entry.market;
    view.scenario = entry.scenario.get();
    view.base_prices = entry.base_prices;
    view.active = active;
    view.dirty = dirty;
    view.matching = matching;
    view.has_matching = entry.has_matching;
    view.dirty_valid = entry.dirty_valid;
    view.counters = {entry.solves_cold, entry.solves_warm, entry.warm_fallbacks,
                     entry.warm_fallbacks_cold_start,
                     entry.warm_fallbacks_invariant, entry.mutations};
    {
      Span image_span("store.image", "registry.spill");
      counts.snapshot_mb.push_back(
          static_cast<double>(sm::store::build_snapshot_image(view).size()) / kMiB);
    }
    Span write_span("store.write", "registry.spill");
    store.write(id, view);
  }

  static void apply(sm::serve::MarketEntry& entry,
                    const sm::serve::Request& request) {
    const int n = entry.market.num_buyers();
    if (request.buyer < 0 || request.buyer >= n)
      throw std::runtime_error("buyer out of range");
    if (request.type == sm::serve::RequestType::kJoin) {
      entry.apply_join(request.buyer);
    } else if (request.type == sm::serve::RequestType::kLeave) {
      entry.apply_leave(request.buyer);
    } else {
      if (request.channel < 0 || request.channel >= entry.market.num_channels())
        throw std::runtime_error("channel out of range");
      entry.apply_price(request.buyer, request.channel, request.value);
    }
  }

  /// MatchServer::solve_response, one public call per span.
  std::string solve(sm::serve::MarketEntry& entry,
                    const sm::serve::Request& request) {
    ++counts.solves;
    counts.dirty_share.push_back(static_cast<double>(entry.dirty.count()) /
                                 static_cast<double>(entry.market.num_buyers()));
    std::ostringstream out;
    out << "ok solve " << request.market_id << (request.warm ? " warm" : " cold");
    const char* fallback_tag = nullptr;
    if (request.warm && entry.has_matching) {
      const double carried = entry.last.social_welfare(entry.market);
      sm::matching::StageIIConfig config;
      if (entry.dirty_valid) config.participants = &entry.dirty;
      {
        Span span("workspace.prepare", "request");
        workspace_.prepare(entry.market, config.component_min);
      }
      sm::matching::StageIIResult result;
      {
        Span span("stage2.warm", "request");
        MwisScope mwis("stage2.warm");
        result = sm::matching::detail::run_transfer_invitation_prepared(
            entry.market, entry.last, config, workspace_);
      }
      counts.applications += result.transfer_applications;
      counts.accepted += result.transfers_accepted;
      const double welfare = result.matching.social_welfare(entry.market);
      if (welfare >= carried - 1e-9) {
        entry.last = std::move(result.matching);
        ++entry.solves_warm;
        entry.dirty.clear();
        entry.dirty_valid = true;
        out << " welfare=" << sm::serve::format_double(welfare)
            << " matched=" << entry.last.num_matched()
            << " rounds=" << (result.phase1_rounds + result.phase2_rounds);
        return out.str();
      }
      fallback_tag = "cold_invariant";
      ++entry.warm_fallbacks_invariant;
    } else if (request.warm) {
      fallback_tag = "cold_start";
      ++entry.warm_fallbacks_cold_start;
    }

    // matching::run_two_stage, split at its public seams.
    sm::matching::TwoStageConfig config;
    {
      Span span("workspace.prepare", "request");
      workspace_.prepare(entry.market, config.component_min);
    }
    sm::matching::StageIConfig stage1_config;
    sm::matching::StageIResult stage1;
    {
      Span span("stage1", "request");
      MwisScope mwis("stage1");
      stage1 = sm::matching::detail::run_deferred_acceptance_prepared(
          entry.market, stage1_config, workspace_);
    }
    sm::matching::StageIIConfig stage2_config;
    sm::matching::StageIIResult stage2;
    {
      Span span("stage2", "request");
      MwisScope mwis("stage2");
      stage2 = sm::matching::detail::run_transfer_invitation_prepared(
          entry.market, stage1.matching, stage2_config, workspace_);
    }
    counts.stage1_rounds.push_back(stage1.rounds);
    counts.stage1_proposals.push_back(static_cast<double>(stage1.total_proposals));
    counts.stage2_rounds.push_back(stage2.phase1_rounds + stage2.phase2_rounds);
    counts.applications += stage2.transfer_applications;
    counts.accepted += stage2.transfers_accepted;
    const double welfare = stage2.matching.social_welfare(entry.market);
    entry.last = stage2.matching;
    entry.has_matching = true;
    entry.dirty.clear();
    entry.dirty_valid = true;
    if (request.warm) {
      ++entry.solves_warm;
      ++entry.warm_fallbacks;
    } else {
      ++entry.solves_cold;
    }
    out << " welfare=" << sm::serve::format_double(welfare)
        << " matched=" << entry.last.num_matched()
        << " rounds=" << (stage1.rounds + stage2.phase1_rounds + stage2.phase2_rounds);
    if (fallback_tag != nullptr) out << " fallback=" << fallback_tag;
    return out.str();
  }

  const WorkloadSpec& spec_;
  sm::store::MarketStore store_;
  sm::matching::MatchWorkspace workspace_;
  std::map<std::string, std::unique_ptr<sm::serve::MarketEntry>> resident_;
};

// ---------------------------------------------------------------------------
// Self time: a span's duration minus the union of its children's intervals.

struct Interval {
  std::int64_t a, b;
};

std::int64_t covered(std::vector<Interval> parts, std::int64_t lo, std::int64_t hi) {
  std::sort(parts.begin(), parts.end(),
            [](const Interval& x, const Interval& y) { return x.a < y.a; });
  std::int64_t total = 0;
  std::int64_t cur_a = 0;
  std::int64_t cur_b = -1;
  for (const Interval& part : parts) {
    const std::int64_t a = std::max(part.a, lo);
    const std::int64_t b = std::min(part.b, hi);
    if (b <= a) continue;
    if (a > cur_b) {
      if (cur_b > cur_a) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) total += cur_b - cur_a;
  return total;
}

struct RequestInfo {
  ReqClass cls = ReqClass::kStats;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per (class, span name): one self-time sum per request and a span count.
struct SelfTimes {
  std::map<std::string, std::map<std::string, std::vector<double>>> per_class;
  std::map<std::string, std::map<std::string, std::int64_t>> counts;
  std::map<std::string, double> request_ms;  ///< total twin time per class
  /// Per solve request id: matching + graph span time (solve coverage).
  std::map<std::uint64_t, double> solve_engine_ms;
};

SelfTimes self_times(const std::vector<SpanRec>& spans,
                     const std::map<std::uint64_t, RequestInfo>& requests) {
  std::map<std::uint64_t, std::vector<const SpanRec*>> by_req;
  for (const SpanRec& span : spans) by_req[span.req].push_back(&span);
  SelfTimes out;
  for (const auto& [req, list] : by_req) {
    const auto info = requests.find(req);
    if (info == requests.end()) continue;
    const std::string cls = class_name(info->second.cls);
    out.request_ms[cls] +=
        static_cast<double>(info->second.end_ns - info->second.start_ns) / 1e6;
    std::map<std::string, double> self_ms;
    double engine_ms = 0.0;
    for (const SpanRec* span : list) {
      std::vector<Interval> children;
      for (const SpanRec* other : list)
        if (std::string(other->parent) == span->name)
          children.push_back({other->start_ns, other->end_ns});
      const std::int64_t self =
          (span->end_ns - span->start_ns) -
          covered(std::move(children), span->start_ns, span->end_ns);
      self_ms[span->name] += static_cast<double>(self) / 1e6;
      ++out.counts[cls][span->name];
      const std::string name = span->name;
      if (std::string(span->parent) == "request" &&
          (name == "workspace.prepare" || name == "stage1" || name == "stage2" ||
           name == "stage2.warm"))
        engine_ms += static_cast<double>(span->end_ns - span->start_ns) / 1e6;
    }
    // The request's own residue: time inside the twin's request that no
    // layer span covers.
    std::vector<Interval> top;
    for (const SpanRec* span : list)
      if (std::string(span->parent) == "request")
        top.push_back({span->start_ns, span->end_ns});
    self_ms["twin"] += static_cast<double>(
                           (info->second.end_ns - info->second.start_ns) -
                           covered(std::move(top), info->second.start_ns,
                                   info->second.end_ns)) /
                       1e6;
    ++out.counts[cls]["twin"];
    for (const auto& [name, ms] : self_ms) out.per_class[cls][name].push_back(ms);
    if (info->second.cls == ReqClass::kSolveCold ||
        info->second.cls == ReqClass::kSolveWarm)
      out.solve_engine_ms[req] = engine_ms;
  }
  return out;
}

const char* layer_of(const std::string& span) {
  if (span.rfind("protocol.", 0) == 0) return "protocol";
  if (span.rfind("registry.", 0) == 0) return "registry";
  if (span.rfind("store.", 0) == 0) return "store";
  if (span == "mwis" || span.rfind("components.", 0) == 0 ||
      span.rfind("market.", 0) == 0)
    return "graph";
  if (span == "twin") return "twin";
  return "matching";
}

double p50_of(const std::map<std::string, std::vector<double>>& table,
              const std::string& key) {
  const auto it = table.find(key);
  return it == table.end() ? 0.0 : percentile(it->second, 0.5);
}

double sum_of(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

}  // namespace

int run_trace(const Flags& flags) {
  const WorkloadSpec* spec = find_workload(flags.required("workload"));
  if (spec == nullptr) throw std::runtime_error("unknown workload");
  const auto seed = static_cast<std::uint64_t>(flags.num("seed", 1));
  const double seconds = flags.num("seconds", 10);
  const int port = static_cast<int>(flags.num("port", 0));
  const std::string work = flags.required("work");

  const std::vector<GeneratedMarket> markets = generate_markets(*spec, seed);
  std::vector<WireRequest> sequence = setup_requests(markets);
  const std::size_t setup_count = sequence.size();

  sm::serve::ClientConnection conn = sm::serve::ClientConnection::connect_loopback(port);
  sm::serve::ServeConfig config = sm::serve::ServeConfig::from_env();
  config.overflow = sm::serve::ServeConfig::Overflow::kBlock;
  if (spec->store) config.store.dir = work + "/inproc_store";
  if (spec->mem_mb > 0) config.mem_budget_mb = static_cast<std::size_t>(spec->mem_mb);
  sm::serve::MatchServer server(config);
  Twin twin(*spec, work + "/twin_store");
  // Like the server, the twin admits on the submitting thread (creates and
  // fault-ins run there, with the engine pool available) and executes on a
  // drain lane, a pool worker, where the engine's nested parallel_for runs
  // inline. Both therefore run every layer in the same threading context.
  sm::ThreadPool twin_lane(2);
  const auto run_twin = [&twin_lane](Twin& target, const WireRequest& wire,
                                     std::uint64_t id, double* ms) {
    g_spans.set_request(id);
    const Clock::time_point a = Clock::now();
    const Twin::Admitted admitted = target.admit(wire);
    std::string rendered;
    twin_lane.submit([&] { rendered = target.execute(admitted); });
    twin_lane.wait_idle();
    const Clock::time_point b = Clock::now();
    *ms += ms_between(a, b);
    if (g_spans.enabled()) g_spans.add("request", "", a, b);
    return rendered;
  };

  std::map<std::string, std::vector<double>> tcp_us;     // per class
  std::vector<double> tcp_us_by_id;
  std::vector<double> handle_us_by_id;
  std::map<std::string, std::vector<double>> handle_us;  // per class
  std::map<std::uint64_t, RequestInfo> requests;
  std::int64_t failed = 0;
  std::int64_t server_mismatches = 0;
  std::int64_t twin_mismatches = 0;
  std::int64_t twin_solves = 0;
  std::int64_t visits = 0;
  std::int64_t setup_faults = 0;
  std::int64_t setup_spills = 0;
  double traced_twin_ms = 0.0;

  g_spans.set_enabled(true);
  // Batches keep each executor hot: the TCP leg runs a batch back to back
  // (as a closed-loop client would), then the in-process server, the traced
  // twin and an untraced twin. Every executor sees the identical request
  // order. The first batch is exactly the setup traffic; later ones end
  // after 64 requests or half a second of TCP time, so the legs that are
  // compared with each other run close together in time.
  constexpr std::size_t kBatch = 64;
  const auto kBatchTime = std::chrono::milliseconds(500);
  Twin plain(*spec, work + "/plain_store");
  double untraced_twin_ms = 0.0;
  InterleavedStream stream(*spec, markets, seed);
  Clock::time_point deadline;  // `seconds` of stream after the setup batch
  std::vector<std::string> live(std::max(kBatch, setup_count));
  for (std::size_t first = 0, size = setup_count;
       first == 0 || Clock::now() < deadline; first += size, size = kBatch) {
    while (sequence.size() < first + size) sequence.push_back(stream.next());
    const Clock::time_point batch_start = Clock::now();
    for (std::size_t k = 0; k < size; ++k) {
      if (first > 0 && k > 0 &&
          (Clock::now() >= deadline || Clock::now() - batch_start >= kBatchTime)) {
        size = k;  // the other legs stop at the same request
        break;
      }
      const WireRequest& wire = sequence[first + k];
      const Clock::time_point t0 = Clock::now();
      conn.send_all(wire.bytes);
      if (!conn.read_line(live[k])) throw std::runtime_error("server closed the connection");
      tcp_us_by_id.push_back(us_between(t0, Clock::now()));
      tcp_us[class_name(wire.cls)].push_back(tcp_us_by_id.back());
      if (!is_ok(live[k])) ++failed;
      if (first + k >= setup_count && wire.cls == ReqClass::kMutation) ++visits;
    }
    for (std::size_t k = 0; k < size; ++k) {
      const WireRequest& wire = sequence[first + k];
      std::istringstream in(wire.bytes);
      sm::serve::RequestReader reader(in);
      sm::serve::Request request;
      reader.next(request);
      const Clock::time_point t0 = Clock::now();
      const std::string inproc = server.handle(std::move(request)).text;
      handle_us_by_id.push_back(us_between(t0, Clock::now()));
      handle_us[class_name(wire.cls)].push_back(handle_us_by_id.back());
      if (live[k] != inproc && server_mismatches++ == 0)
        std::cerr << "perfbench: in-process server differs\n  server: " << live[k]
                  << "\n  inproc: " << inproc << "\n";
    }
    for (std::size_t k = 0; k < size; ++k) {
      const std::uint64_t id = first + k;
      const WireRequest& wire = sequence[id];
      const std::string rendered = run_twin(twin, wire, id, &traced_twin_ms);
      requests[id] = {wire.cls, 0, 0};
      if (rendered.empty()) continue;
      ++twin_solves;
      if (rendered != live[k] && twin_mismatches++ == 0)
        std::cerr << "perfbench: twin solve line differs\n  server: " << live[k]
                  << "\n  twin:   " << rendered << "\n";
    }
    g_spans.set_enabled(false);
    for (std::size_t k = 0; k < size; ++k)
      (void)run_twin(plain, sequence[first + k], first + k, &untraced_twin_ms);
    g_spans.set_enabled(true);
    if (first == 0) {
      deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
      setup_faults = server.faults();
      setup_spills = server.spills();
    }
  }
  sequence.resize(requests.size());
  const std::uint64_t stream_requests = sequence.size();
  conn.close();

  // Off-request probes, under their own request id.
  double largest_share = 0.0;
  g_spans.set_request(stream_requests);
  twin.probe(markets, work + "/probe_store", &largest_share);
  g_spans.set_enabled(false);

  // Per-request bounds from the root spans.
  for (const SpanRec& span : g_spans.spans()) {
    if (std::string(span.name) != "request") continue;
    RequestInfo& info = requests[span.req];
    info.start_ns = span.start_ns;
    info.end_ns = span.end_ns;
  }
  std::vector<SpanRec> spans;
  for (const SpanRec& span : g_spans.spans())
    if (std::string(span.name) != "request") spans.push_back(span);
  const SelfTimes self = self_times(spans, requests);
  // Layer metrics are p50s of span durations, the probes' spans included.
  std::map<std::string, std::vector<double>> span_ms;
  for (const SpanRec& span : spans)
    span_ms[span.name].push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);

  const auto calls = static_cast<double>(g_mwis_calls.load());
  const auto mwis_ns = static_cast<double>(g_mwis_ns.load());

  // Pool dispatch: one empty parallel_for_lanes across every engine lane.
  std::vector<double> dispatch_us;
  {
    sm::ThreadPool& pool = sm::ThreadPool::global();
    const std::size_t lanes = pool.num_threads();
    for (int k = 0; k < 2000; ++k) {
      const Clock::time_point a = Clock::now();
      pool.parallel_for_lanes(0, lanes, [](std::size_t, std::size_t) {});
      dispatch_us.push_back(us_between(a, Clock::now()));
    }
  }

  // Spans go to disk only now, after every timed leg.
  {
    std::ofstream out(work + "/spans.jsonl");
    for (const SpanRec& span : g_spans.spans()) {
      const auto info = requests.find(span.req);
      JsonLine line;
      line.add("req", static_cast<std::int64_t>(span.req))
          .add("class", info == requests.end() ? "probe" : class_name(info->second.cls))
          .add("name", span.name)
          .add("parent", span.parent)
          .add("start_us", static_cast<double>(span.start_ns) / 1e3)
          .add("dur_us", static_cast<double>(span.end_ns - span.start_ns) / 1e3);
      // The root span also carries the request's two server-side timings.
      if (std::string(span.name) == "request")
        line.add("tcp_us", tcp_us_by_id[span.req])
            .add("handle_us", handle_us_by_id[span.req]);
      out << line.str() << "\n";
    }
  }

  // Self-time table per request class.
  for (const auto& [cls, names] : self.per_class) {
    const double total = self.request_ms.at(cls);
    for (const auto& [name, values] : names) {
      std::cout << "self " << cls << " " << layer_of(name) << " " << name
                << " count=" << self.counts.at(cls).at(name)
                << " p50_ms=" << percentile(values, 0.5)
                << " share=" << (total > 0 ? sum_of(values) / total : 0.0) << "\n";
    }
  }

  std::vector<double> mutation_tcp = tcp_us["mutation"];
  std::vector<double> mutation_handle = handle_us["mutation"];
  // Share of each solve's send-to-response time spent in matching + graph
  // spans of the same request.
  std::vector<double> solve_coverage;
  for (const auto& [id, engine_ms] : self.solve_engine_ms)
    solve_coverage.push_back(engine_ms / (tcp_us_by_id[id] / 1e3));
  std::vector<double> solve_handle = handle_us["solve_cold"];
  solve_handle.insert(solve_handle.end(), handle_us["solve_warm"].begin(),
                      handle_us["solve_warm"].end());
  const double apply_us = p50_of(span_ms, "registry.apply") * 1e3;
  const TwinCounts& c = twin.counts;

  JsonLine out;
  out.add("attempted", static_cast<std::int64_t>(stream_requests))
      .add("failed", failed)
      .add("server_mismatches", server_mismatches)
      .add("twin_mismatches", twin_mismatches)
      .add("twin_solves", twin_solves)
      .add("net.overhead_us", percentile(mutation_tcp, 0.5) - percentile(mutation_handle, 0.5))
      .add("protocol.parse_us", p50_of(span_ms, "protocol.parse") * 1e3)
      .add("protocol.create_parse_ms", p50_of(span_ms, "protocol.create_parse"))
      .add("server.handle_mutation_us", percentile(mutation_handle, 0.5))
      .add("server.dispatch_us", percentile(mutation_handle, 0.5) - apply_us)
      .add("server.handle_solve_ms", percentile(solve_handle, 0.5) / 1e3)
      .add("registry.apply_us", apply_us)
      .add("registry.dirty_share", percentile(c.dirty_share, 0.5))
      .add("registry.create_ms", p50_of(span_ms, "registry.create"))
      .add("registry.resident_mb", c.resident_mb)
      .add("store.image_ms", p50_of(span_ms, "store.image"))
      .add("store.write_ms", p50_of(span_ms, "store.write"))
      .add("store.load_ms", p50_of(span_ms, "store.load"))
      .add("store.snapshot_mb", percentile(c.snapshot_mb, 0.5))
      .add("store.faults_per_visit",
           visits > 0 ? static_cast<double>(server.faults() - setup_faults) /
                             static_cast<double>(visits) : 0.0)
      .add("store.spills_per_visit",
           visits > 0 ? static_cast<double>(server.spills() - setup_spills) /
                             static_cast<double>(visits) : 0.0)
      .add("workspace.prepare_ms", p50_of(span_ms, "workspace.prepare"))
      .add("stage1.ms", p50_of(span_ms, "stage1"))
      .add("stage1.rounds", percentile(c.stage1_rounds, 0.5))
      .add("stage1.proposals", percentile(c.stage1_proposals, 0.5))
      .add("stage2.ms", p50_of(span_ms, "stage2"))
      .add("stage2.rounds", percentile(c.stage2_rounds, 0.5))
      .add("stage2.accept_ratio",
           c.applications > 0 ? static_cast<double>(c.accepted) /
                                    static_cast<double>(c.applications)
                              : 0.0)
      .add("stage2.warm_ms", p50_of(span_ms, "stage2.warm"))
      .add("mwis.us_per_call", calls > 0 ? mwis_ns / calls / 1e3 : 0.0)
      .add("mwis.calls_per_solve",
           c.solves > 0 ? calls / static_cast<double>(c.solves) : 0.0)
      .add("components.build_ms", p50_of(span_ms, "components.build"))
      .add("market.build_ms", p50_of(span_ms, "market.build"))
      .add("components.largest_share", largest_share)
      .add("pool.dispatch_us", percentile(dispatch_us, 0.5))
      .add("trace.overhead_share",
           untraced_twin_ms > 0 ? traced_twin_ms / untraced_twin_ms - 1.0 : 0.0)
      .add("solve.layer_share", percentile(solve_coverage, 0.5));
  std::cout << out.str() << std::endl;
  return 0;
}

int run_lanes(const Flags& flags) {
  const auto seed = static_cast<std::uint64_t>(flags.num("seed", 1));
  const WorkloadSpec* spec = find_workload("cold_solve");
  const std::vector<GeneratedMarket> markets = generate_markets(*spec, seed);
  const sm::market::SpectrumMarket market =
      sm::market::build_market(*markets.front().scenario);
  sm::matching::MatchWorkspace workspace;
  sm::matching::TwoStageConfig config;
  (void)sm::matching::run_two_stage(market, config, workspace);  // warm-up
  std::vector<double> ms;
  for (int k = 0; k < 5; ++k) {
    const Clock::time_point a = Clock::now();
    (void)sm::matching::run_two_stage(market, config, workspace);
    ms.push_back(ms_between(a, Clock::now()));
  }
  std::cout << JsonLine()
                   .add("lanes", sm::SpecmatchConfig::global().num_threads)
                   .add("two_stage_ms", percentile(ms, 0.5))
                   .str()
            << std::endl;
  return 0;
}

}  // namespace perfbench
