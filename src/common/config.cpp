#include "common/config.hpp"

#include <cstdlib>
#include <limits>
#include <thread>

namespace specmatch {

namespace {

int initial_num_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return env_count("SPECMATCH_THREADS", 1, hw == 0 ? 1 : static_cast<int>(hw));
}

/// The knob registry backing known_env_knobs(). Keep one entry per
/// SPECMATCH_* variable the codebase or build reads; docs_check fails when a
/// documented knob is missing from this file, and when an entry here is
/// read nowhere.
constexpr EnvKnob kKnownEnvKnobs[] = {
    {"SPECMATCH_THREADS",
     "engine thread-pool lanes; 1 = exact serial path (common/config.cpp)"},
    {"SPECMATCH_METRICS",
     "enable the metrics registry; counters/gauges/histograms record and the "
     "benches export them (common/metrics.cpp)"},
    {"SPECMATCH_METRICS_OUT",
     "path for the per-trial metrics JSONL dump written by exp::run_trials "
     "when metrics are enabled (exp/experiment.cpp)"},
    {"SPECMATCH_TRACE",
     "enable the scoped-span tracer (common/trace.cpp)"},
    {"SPECMATCH_TRACE_OUT",
     "path for the chrome-trace JSON dumped by micro_core when tracing is "
     "enabled (bench/micro_core.cpp)"},
    {"SPECMATCH_TRIALS",
     "override every bench harness's trials-per-point (bench/bench_util.hpp)"},
    {"SPECMATCH_CSV",
     "benches additionally print machine-readable CSV panels "
     "(bench/bench_util.hpp)"},
    {"SPECMATCH_BENCH_JSON",
     "output path of the bench perf JSON, default BENCH_core.json for "
     "micro_core and BENCH_scale.json for large_market (bench/)"},
    {"SPECMATCH_BENCH_SMOKE",
     "shrink the micro_core trajectory and the large_market sweep to smoke "
     "size (bench/)"},
    {"SPECMATCH_COUNT_ALLOCS",
     "count every heap allocation via the replaced global operator new; the "
     "engine reports steady-round allocation counts "
     "(common/alloc_count.cpp)"},
    {"SPECMATCH_SCALE_MAX_N",
     "cap the N sweep of the large_market scale bench "
     "(bench/large_market.cpp)"},
    {"SPECMATCH_GRAPH_DENSE_MAX",
     "largest vertex count stored as dense bitset adjacency; bigger graphs "
     "use the CSR representation, default 2048 "
     "(graph/interference_graph.cpp)"},
    {"SPECMATCH_SIMD",
     "kernel dispatch tier: auto|avx2|sse2|scalar, default auto (highest "
     "tier the CPU supports); results are bit-identical at every setting "
     "(common/simd.cpp)"},
    {"SPECMATCH_BENCH_THREADS",
     "parallel lane count of the micro_core trajectory, default 4 "
     "(bench/micro_core.cpp)"},
    {"SPECMATCH_SERVE_THREADS",
     "MatchServer drain lanes (resident workspaces), default "
     "SPECMATCH_THREADS; responses are identical at any setting "
     "(serve/server.cpp)"},
    {"SPECMATCH_SERVE_QUEUE",
     "MatchServer admission queue capacity in requests, default 1024; "
     "overflow blocks or sheds per the configured policy (serve/server.cpp)"},
    {"SPECMATCH_SERVE_MEM_MB",
     "resident-market byte budget for the serving LRU registry, default "
     "4096 MB (serve/server.cpp)"},
    {"SPECMATCH_SERVE_CHECK_WARM",
     "CHECK after every warm solve that the result is interference-free and "
     "individually rational; welfare regressions always fall back to a cold "
     "re-solve (serve/server.cpp)"},
    {"SPECMATCH_SERVE_LISTEN_BACKLOG",
     "listen(2) backlog of the TCP front-end, default 128 "
     "(serve/net_server.cpp)"},
    {"SPECMATCH_SERVE_MAX_CONNS",
     "concurrent-connection cap of the TCP front-end, default 1024; accepts "
     "beyond it are refused with one err! line (serve/net_server.cpp)"},
    {"SPECMATCH_SERVE_CONN_WINDOW",
     "per-connection in-flight request window, default 64; the event loop "
     "stops reading a connection at the limit so backpressure propagates as "
     "TCP flow control (serve/net_server.cpp)"},
    {"SPECMATCH_SERVE_DRAIN_MS",
     "graceful-drain budget of the TCP front-end in milliseconds, default "
     "5000; past it, remaining connections are force-closed "
     "(serve/net_server.cpp)"},
    {"SPECMATCH_SERVE_MAX_LINE",
     "longest tolerated wire-protocol line in bytes, default 1048576; a "
     "frame with no newline beyond it is a protocol error "
     "(serve/net_server.cpp)"},
    {"SPECMATCH_STORE_DIR",
     "snapshot directory of the persistent market store; empty (the "
     "default) disables the store — no spill tier, no cold boot, snapshot/"
     "restore verbs answer err (store/market_store.cpp)"},
    {"SPECMATCH_STORE_FSYNC",
     "fsync every snapshot file before its rename-commit, default off; "
     "turn on when snapshots must survive power loss "
     "(store/market_store.cpp)"},
    {"SPECMATCH_SANITIZE",
     "CMake option (not an env var): build with address/undefined/thread "
     "sanitizer (CMakeLists.txt)"},
};

}  // namespace

std::span<const EnvKnob> known_env_knobs() { return kKnownEnvKnobs; }

bool env_flag(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

int env_count(const char* name, int min, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  long long parsed = 0;
  for (const char* c = value; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') return fallback;
    parsed = parsed * 10 + (*c - '0');
    if (parsed > std::numeric_limits<int>::max()) return fallback;
  }
  return parsed < min ? fallback : static_cast<int>(parsed);
}

SpecmatchConfig& SpecmatchConfig::global() {
  static SpecmatchConfig config{initial_num_threads()};
  return config;
}

}  // namespace specmatch
