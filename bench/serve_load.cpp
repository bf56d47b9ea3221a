// Serving legs that perfbench/ does not answer: BENCH_serve.json.
//
// The serving throughput and latency of record come from perfbench/
// (cold_solve, spill_churn; `tools/run_bench.sh --perfbench` commits their
// medians to BENCH_perfbench.json). This harness keeps the two questions
// those workloads cannot ask:
//
//  * serve_shed — a deterministic burst overflows a tiny kReject admission
//    queue, so the shed path runs and its counters are recorded;
//  * store_cold_start — cold start both ways (src/store/,
//    docs/PERSISTENCE.md): rebuild (create + cold solve from the scenario)
//    vs cold boot (one fault-in from an mmap snapshot that already carries
//    the matching). The faulted market must answer `query` byte-identically.
//
// The cold-start leg is timed, so run it with metrics off. Knobs:
// SPECMATCH_BENCH_SMOKE shrinks the sizes, SPECMATCH_TRIALS the cold-start
// repetitions, SPECMATCH_BENCH_JSON the output path.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "market/scenario.hpp"
#include "serve/server.hpp"
#include "workload/generator.hpp"

namespace specmatch {
namespace {

std::shared_ptr<const market::Scenario> make_scenario(int M, int N) {
  workload::WorkloadParams params;
  params.num_sellers = M;
  params.num_buyers = N;
  // Grow the deployment area with N (the large_market scaling discipline):
  // constant buyer density keeps per-channel interference graphs sparse
  // instead of collapsing the market into one clique.
  params.area_size = 10.0 * std::sqrt(std::max(N, 500) / 500.0);
  Rng rng(1000003ull * static_cast<std::uint64_t>(M) +
          static_cast<std::uint64_t>(N));
  return std::make_shared<const market::Scenario>(
      workload::generate_scenario(params, rng));
}

serve::Request make_request(serve::RequestType type, const std::string& id) {
  serve::Request request;
  request.type = type;
  request.market_id = id;
  return request;
}

/// Deterministic shed exercise: a manual-drain server with a tiny kReject
/// queue is offered 3x its capacity; the overflow must be shed, the rest
/// answered after the drain.
void run_shed_burst(std::vector<bench::BenchRecord>& records) {
  serve::ServeConfig config = serve::ServeConfig::from_env();
  config.queue_capacity = 8;
  config.overflow = serve::ServeConfig::Overflow::kReject;
  config.manual_drain = true;
  serve::MatchServer server(config);

  serve::Request create = make_request(serve::RequestType::kCreate, "burst");
  create.scenario = make_scenario(4, 32);
  server.submit(std::move(create), nullptr);

  const int offered = 3 * config.queue_capacity;
  int admitted = 0;
  for (int r = 0; r < offered; ++r) {
    serve::Request request =
        make_request(serve::RequestType::kUpdatePrice, "burst");
    request.buyer = static_cast<BuyerId>(r % 32);
    request.channel = static_cast<ChannelId>(r % 4);
    request.value = 0.5;
    if (server.submit(std::move(request), nullptr)) ++admitted;
  }
  server.drain();
  SPECMATCH_CHECK_MSG(server.shed() == offered - admitted,
                      "shed accounting mismatch");

  bench::BenchRecord record("serve_shed", 4, 32, "reject", 1, 0.0, 0);
  std::ostringstream note;
  note << "offered=" << offered << " admitted=" << admitted
       << " shed=" << server.shed() << " coalesced=" << server.coalesced();
  record.note = note.str();
  records.push_back(record);
  std::cout << "shed burst: " << note.str() << "\n";
}

/// Scratch snapshot directory under the system temp dir, wiped on entry so
/// reruns start clean.
std::filesystem::path store_scratch(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("specmatch_bench_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Cold start, both ways, at one market size. "Rebuild" is the no-store
/// baseline: create from the scenario (graph construction + component
/// indices) plus the cold solve a fresh replica needs before it can serve
/// warm. "Snapshot load" is one fault-in from the mmap snapshot, which
/// already carries the matching — the first touch of a cold-booted server.
/// The faulted market must answer `query` byte-identically to the builder.
void run_cold_start(int M, int N, int reps,
                    std::vector<bench::BenchRecord>& records) {
  const std::filesystem::path dir =
      store_scratch("store_n" + std::to_string(N));
  serve::ServeConfig config = serve::ServeConfig::from_env();
  config.store.dir = dir.string();
  const int threads = config.drain_lanes;
  const std::string id = "cold" + std::to_string(N);
  const auto scenario = make_scenario(M, N);

  // Populate the snapshot (and record the reference query answer) once.
  std::string reference_query;
  {
    serve::MatchServer server(config);
    serve::Request create = make_request(serve::RequestType::kCreate, id);
    create.scenario = scenario;
    SPECMATCH_CHECK_MSG(server.handle(std::move(create)).ok, "create failed");
    serve::Request solve = make_request(serve::RequestType::kSolve, id);
    solve.warm = false;
    SPECMATCH_CHECK_MSG(server.handle(std::move(solve)).ok, "solve failed");
    reference_query =
        server.handle(make_request(serve::RequestType::kQuery, id)).text;
    const serve::Response snap =
        server.handle(make_request(serve::RequestType::kSnapshot, id));
    SPECMATCH_CHECK_MSG(snap.ok, snap.text);
  }

  double rebuild_ms = 0.0;
  double load_ms = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    // Rebuild path: a fresh store-less server brought to serving-ready.
    {
      serve::MatchServer server(serve::ServeConfig::from_env());
      bench::WallTimer timer;
      serve::Request create = make_request(serve::RequestType::kCreate, id);
      create.scenario = scenario;
      SPECMATCH_CHECK_MSG(server.handle(std::move(create)).ok, "create failed");
      serve::Request solve = make_request(serve::RequestType::kSolve, id);
      solve.warm = false;
      SPECMATCH_CHECK_MSG(server.handle(std::move(solve)).ok, "solve failed");
      const double ms = timer.elapsed_ms();
      rebuild_ms = rep == 0 ? ms : std::min(rebuild_ms, ms);
    }
    // Snapshot path: a cold boot whose first touch faults the market in.
    {
      serve::MatchServer server(config);
      bench::WallTimer timer;
      const serve::Response query =
          server.handle(make_request(serve::RequestType::kQuery, id));
      const double ms = timer.elapsed_ms();
      load_ms = rep == 0 ? ms : std::min(load_ms, ms);
      SPECMATCH_CHECK_MSG(query.ok, query.text);
      SPECMATCH_CHECK_MSG(query.text == reference_query,
                          "cold boot query diverged from builder:\n  built:  "
                              << reference_query << "\n  mapped: "
                              << query.text);
      SPECMATCH_CHECK_MSG(server.faults() == 1, "expected exactly one fault");
    }
  }

  const double speedup = load_ms > 0.0 ? rebuild_ms / load_ms : 0.0;
  bench::BenchRecord rebuild("store_cold_start", M, N, "rebuild", threads,
                             rebuild_ms, reps);
  records.push_back(rebuild);
  bench::BenchRecord mapped("store_cold_start", M, N, "snapshot_load", threads,
                            load_ms, reps);
  std::ostringstream note;
  const auto state_bytes = std::filesystem::file_size(dir / (id + ".spms"));
  note << "speedup_vs_rebuild=" << speedup << " snapshot_bytes="
       << state_bytes + std::filesystem::file_size(dir / (id + ".spmg"))
       << " state_bytes=" << state_bytes;
  mapped.note = note.str();
  records.push_back(mapped);
  std::cout << "N=" << N << " cold start: rebuild_ms=" << rebuild_ms
            << " snapshot_load_ms=" << load_ms << " " << note.str() << "\n";
  if (speedup < 1.0) {
    std::cerr << "WARNING: snapshot load did not beat rebuild at N=" << N
              << " (speedup=" << speedup << ")\n";
  }
  std::filesystem::remove_all(dir);
}

int run() {
  const bool smoke = bench::env_int("SPECMATCH_BENCH_SMOKE", 0) != 0;
  const char* json_env = std::getenv("SPECMATCH_BENCH_JSON");
  const std::string json_path =
      (json_env != nullptr && json_env[0] != '\0') ? json_env
                                                   : "BENCH_serve.json";
  const int M = smoke ? 4 : 16;
  const std::vector<int> n_grid =
      smoke ? std::vector<int>{200} : std::vector<int>{2000, 20000};

  std::vector<bench::BenchRecord> records;
  run_shed_burst(records);
  for (const int N : n_grid) {
    const int reps = bench::env_trials(N >= 8000 ? 1 : 3);
    run_cold_start(M, N, reps, records);
  }
  bench::write_bench_json(json_path, records);
  std::cout << "wrote " << json_path << "\n";
  return 0;
}

}  // namespace
}  // namespace specmatch

int main() { return specmatch::run(); }
