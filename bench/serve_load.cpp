// Closed-loop load generator for the serving subsystem: BENCH_serve.json.
//
// For each market size N (M = 16 channels), identically seeded mutation
// streams (4 mutations : 1 solve) are driven through a resident MatchServer
// by closed-loop client threads, once with cold solves (full two-stage rerun
// per solve) and once warm (Stage II on the surviving assignment). Client-
// side latencies give exact p50/p99 per leg; the throughput ratio at the
// largest N is the PR's headline number (warm serving must clear 2x cold).
// A final deterministic burst phase overflows a tiny kReject admission queue
// to exercise the shed path and record its counters.
//
// With --net, the same load is driven through the TCP front-end instead
// (serve/net_server.hpp): an in-process NetServer on an ephemeral loopback
// port, one client thread per connection, closed-loop (1 request in flight
// per connection) and open-loop (a pipeline window of 8) legs across a
// connection-count grid — rows land in the same BENCH_serve.json under
// bench "serve_net" with the connection count encoded in the algorithm
// ("closed_c64", "open_c512"), so bench_compare keys them apart.
//
// With --store, the persistence tier is measured instead (src/store/,
// docs/PERSISTENCE.md): BENCH_store.json. Leg one times cold start both
// ways — rebuild (create + cold solve from the scenario) vs cold boot (one
// fault-in from an mmap snapshot that already carries the matching) — and
// checks the faulted market answers `query` byte-identically. Leg two runs
// a memory-capped multi-market stream that spills and faults back on every
// market switch and must finish with zero discarded markets.
//
// Knobs: SPECMATCH_BENCH_SMOKE shrinks the sweep, SPECMATCH_TRIALS the ops
// per client, SPECMATCH_BENCH_JSON the output path, SPECMATCH_NET_CONNS the
// --net connection grid (comma-separated), SPECMATCH_METRICS adds the
// serve.* / net.* instrument snapshot (latency histograms with p50/p90/p99)
// to the JSON.
#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "market/scenario.hpp"
#include "serve/net_client.hpp"
#include "serve/net_server.hpp"
#include "serve/server.hpp"
#include "workload/generator.hpp"

namespace specmatch {
namespace {

struct LegResult {
  double wall_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double requests_per_sec = 0.0;
  std::int64_t requests = 0;
  std::int64_t solves = 0;
};

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

/// One closed-loop leg: `clients` threads each drive `ops_per_client`
/// requests through `server` against market `id`, drawing the identical
/// mutation stream from fork(client) of `seed` — only the solve mode
/// differs between the cold and warm legs.
LegResult run_leg(serve::MatchServer& server, const std::string& id, int M,
                  int N, bool warm, int clients, int ops_per_client,
                  std::uint64_t seed) {
  // Prime the carried matching so the warm leg starts warm.
  serve::Request prime = make_request(serve::RequestType::kSolve, id);
  prime.warm = false;
  server.handle(prime);

  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  std::vector<std::int64_t> solve_counts(static_cast<std::size_t>(clients), 0);
  Rng root(seed);

  bench::WallTimer timer;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    Rng rng = root.fork(static_cast<std::uint64_t>(c) + 1);
    threads.emplace_back([&server, &latencies, &solve_counts, rng, c, id, M,
                          N, warm, ops_per_client]() mutable {
      auto& mine = latencies[static_cast<std::size_t>(c)];
      mine.reserve(static_cast<std::size_t>(ops_per_client));
      for (int op = 0; op < ops_per_client; ++op) {
        serve::Request request;
        if (op % 5 == 4) {
          request = make_request(serve::RequestType::kSolve, id);
          request.warm = warm;
          ++solve_counts[static_cast<std::size_t>(c)];
        } else {
          const double kind = rng.uniform();
          const auto buyer =
              static_cast<BuyerId>(rng.uniform_int(0, N - 1));
          if (kind < 0.7) {
            request = make_request(serve::RequestType::kUpdatePrice, id);
            request.buyer = buyer;
            request.channel =
                static_cast<ChannelId>(rng.uniform_int(0, M - 1));
            request.value = rng.uniform(0.0, 1.0);
          } else if (kind < 0.85) {
            request = make_request(serve::RequestType::kLeave, id);
            request.buyer = buyer;
          } else {
            request = make_request(serve::RequestType::kJoin, id);
            request.buyer = buyer;
          }
        }
        bench::WallTimer op_timer;
        const serve::Response response = server.handle(std::move(request));
        mine.push_back(op_timer.elapsed_ms());
        SPECMATCH_CHECK_MSG(response.ok, "serve_load request failed: "
                                             << response.text);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  server.drain();

  LegResult result;
  result.wall_ms = timer.elapsed_ms();
  std::vector<double> all;
  for (const auto& mine : latencies) all.insert(all.end(), mine.begin(),
                                                mine.end());
  std::sort(all.begin(), all.end());
  const auto quantile = [&all](double q) {
    if (all.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(all.size() - 1));
    return all[idx];
  };
  result.p50_ms = quantile(0.50);
  result.p99_ms = quantile(0.99);
  result.requests = static_cast<std::int64_t>(all.size());
  for (const std::int64_t s : solve_counts) result.solves += s;
  result.requests_per_sec =
      result.wall_ms > 0.0
          ? 1000.0 * static_cast<double>(result.requests) / result.wall_ms
          : 0.0;
  return result;
}

std::string leg_note(const LegResult& leg) {
  std::ostringstream note;
  note << "p50_ms=" << leg.p50_ms << " p99_ms=" << leg.p99_ms
       << " rps=" << leg.requests_per_sec << " solves=" << leg.solves;
  return note.str();
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

// --- the networked tier (--net) --------------------------------------------

/// One request of the 4:1 mutation:solve mix, rendered to wire format.
/// Solves are 80% warm / 20% cold — the serving mix the PR 5 bench showed
/// clears the 2x warm-throughput target.
std::string wire_op(Rng& rng, const std::string& id, int M, int N, int op) {
  serve::Request request;
  if (op % 5 == 4) {
    request = make_request(serve::RequestType::kSolve, id);
    request.warm = (op % 25) != 24;
  } else {
    const double kind = rng.uniform();
    const auto buyer = static_cast<BuyerId>(rng.uniform_int(0, N - 1));
    if (kind < 0.7) {
      request = make_request(serve::RequestType::kUpdatePrice, id);
      request.buyer = buyer;
      request.channel = static_cast<ChannelId>(rng.uniform_int(0, M - 1));
      request.value = rng.uniform(0.0, 1.0);
    } else if (kind < 0.85) {
      request = make_request(serve::RequestType::kLeave, id);
      request.buyer = buyer;
    } else {
      request = make_request(serve::RequestType::kJoin, id);
      request.buyer = buyer;
    }
  }
  return serve::format_request(request);
}

struct NetLegResult {
  LegResult leg;
  std::int64_t bytes_sent = 0;
};

/// One networked leg: `conns` connections, each its own thread, each
/// keeping up to `window` requests in flight (1 = closed loop). Latency is
/// send-to-response per request, measured client-side.
NetLegResult run_net_leg(int port, int conns, int window, int ops_per_conn,
                         int M, int N, int markets, std::uint64_t seed) {
  std::vector<std::vector<double>> latencies(static_cast<std::size_t>(conns));
  std::vector<std::int64_t> bytes(static_cast<std::size_t>(conns), 0);
  Rng root(seed);

  bench::WallTimer timer;
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    Rng rng = root.fork(static_cast<std::uint64_t>(c) + 1);
    threads.emplace_back([&latencies, &bytes, &timer, rng, c, port, window,
                          ops_per_conn, M, N, markets]() mutable {
      auto conn = serve::ClientConnection::connect_loopback(port);
      const std::string id =
          "net" + std::to_string(c % markets);  // market shared across conns
      auto& mine = latencies[static_cast<std::size_t>(c)];
      mine.reserve(static_cast<std::size_t>(ops_per_conn));
      std::deque<double> sent_at;
      std::string line;
      const auto read_one = [&]() {
        SPECMATCH_CHECK_MSG(conn.read_line(line), "server closed early");
        SPECMATCH_CHECK_MSG(line.rfind("err", 0) != 0,
                            "net leg request failed: " << line);
        mine.push_back(timer.elapsed_ms() - sent_at.front());
        sent_at.pop_front();
      };
      for (int op = 0; op < ops_per_conn; ++op) {
        if (static_cast<int>(sent_at.size()) >= window) read_one();
        const std::string wire = wire_op(rng, id, M, N, op);
        sent_at.push_back(timer.elapsed_ms());
        conn.send_all(wire);
        bytes[static_cast<std::size_t>(c)] +=
            static_cast<std::int64_t>(wire.size());
      }
      while (!sent_at.empty()) read_one();
      conn.half_close();
      SPECMATCH_CHECK_MSG(!conn.read_line(line),
                          "unexpected trailing response: " << line);
    });
  }
  for (auto& thread : threads) thread.join();

  NetLegResult net;
  net.leg.wall_ms = timer.elapsed_ms();
  std::vector<double> all;
  for (const auto& mine : latencies) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  std::sort(all.begin(), all.end());
  const auto quantile = [&all](double q) {
    if (all.empty()) return 0.0;
    const auto idx =
        static_cast<std::size_t>(q * static_cast<double>(all.size() - 1));
    return all[idx];
  };
  net.leg.p50_ms = quantile(0.50);
  net.leg.p99_ms = quantile(0.99);
  net.leg.requests = static_cast<std::int64_t>(all.size());
  // Every 5th op of each connection's stream is a solve (wire_op).
  net.leg.solves = static_cast<std::int64_t>(conns) * (ops_per_conn / 5);
  net.leg.requests_per_sec =
      net.leg.wall_ms > 0.0
          ? 1000.0 * static_cast<double>(net.leg.requests) / net.leg.wall_ms
          : 0.0;
  for (const std::int64_t b : bytes) net.bytes_sent += b;
  return net;
}

std::vector<int> conn_grid(bool smoke) {
  const char* env = std::getenv("SPECMATCH_NET_CONNS");
  std::vector<int> grid;
  if (env != nullptr && env[0] != '\0') {
    std::stringstream stream(env);
    std::string token;
    while (std::getline(stream, token, ',')) {
      const int conns = std::stoi(token);
      SPECMATCH_CHECK_MSG(conns >= 1, "bad SPECMATCH_NET_CONNS entry");
      grid.push_back(conns);
    }
  }
  if (grid.empty()) {
    grid = smoke ? std::vector<int>{1, 8} : std::vector<int>{1, 64, 512};
  }
  return grid;
}

int run_net() {
  const bool smoke = bench::env_int("SPECMATCH_BENCH_SMOKE", 0) != 0;
  const char* json_env = std::getenv("SPECMATCH_BENCH_JSON");
  const std::string json_path =
      (json_env != nullptr && json_env[0] != '\0') ? json_env
                                                   : "BENCH_serve.json";
  const int M = smoke ? 4 : 16;
  const int N = smoke ? 60 : 2000;
  const int markets = smoke ? 2 : 8;
  // A fixed total op budget split across connections keeps the sweep's wall
  // clock flat as the grid widens.
  const int total_ops = bench::env_trials(0) > 0
                            ? bench::env_trials(0) * 100
                            : (smoke ? 160 : 4000);
  const std::vector<int> grid = conn_grid(smoke);

  serve::ServeConfig config = serve::ServeConfig::from_env();
  const int threads = config.drain_lanes;
  serve::MatchServer server(config);
  serve::NetConfig net_config = serve::NetConfig::from_env();
  const int peak_conns = *std::max_element(grid.begin(), grid.end());
  net_config.max_conns = std::max(net_config.max_conns, 2 * peak_conns);
  // Every leg opens its whole connection grid at once. A backlog smaller
  // than that loses the race between the clients' simultaneous connects and
  // the (busy) event loop's accept sweep: the kernel drops overflow at
  // final-ACK time, the client sits in ESTABLISHED, and its first send is
  // answered with RST.
  net_config.backlog = std::max(net_config.backlog, peak_conns);
  serve::NetServer net(server, net_config);
  const int port = net.listen_on_loopback();
  std::thread loop([&net] { net.run(); });

  // Markets created and primed once, over the wire, before any timed leg.
  {
    auto setup = serve::ClientConnection::connect_loopback(port);
    for (int k = 0; k < markets; ++k) {
      serve::Request create =
          make_request(serve::RequestType::kCreate, "net" + std::to_string(k));
      create.scenario = make_scenario(M, N);
      setup.send_all(serve::format_request(create));
      serve::Request prime =
          make_request(serve::RequestType::kSolve, "net" + std::to_string(k));
      setup.send_all(serve::format_request(prime));
    }
    std::string line;
    for (int k = 0; k < 2 * markets; ++k) {
      SPECMATCH_CHECK_MSG(setup.read_line(line) && line.rfind("ok ", 0) == 0,
                          "net bench setup failed: " << line);
    }
    setup.half_close();
  }

  std::vector<bench::BenchRecord> records;
  for (const int conns : grid) {
    const int ops_per_conn = std::max(1, total_ops / conns);
    for (const int window : {1, 8}) {
      const char* mode = window == 1 ? "closed" : "open";
      const NetLegResult net_leg =
          run_net_leg(port, conns, window, ops_per_conn, M, N, markets,
                      99991ull + static_cast<std::uint64_t>(conns));
      bench::BenchRecord record(
          "serve_net", M, N, std::string(mode) + "_c" + std::to_string(conns),
          threads, net_leg.leg.wall_ms, 0);
      std::ostringstream note;
      note << leg_note(net_leg.leg) << " conns=" << conns
           << " window=" << window << " bytes_sent=" << net_leg.bytes_sent;
      record.note = note.str();
      records.push_back(record);
      std::cout << "conns=" << conns << " " << mode << ": " << record.note
                << " wall_ms=" << net_leg.leg.wall_ms << "\n";
    }
  }

  net.request_shutdown();
  loop.join();
  const serve::NetStats stats = net.stats();
  SPECMATCH_CHECK_MSG(stats.requests == stats.responses,
                      "net bench lost responses");
  SPECMATCH_CHECK_MSG(stats.protocol_errors == 0,
                      "net bench hit protocol errors");
  bench::BenchRecord totals("serve_net", M, N, "totals", threads, 0.0, 0);
  std::ostringstream note;
  note << "accepted=" << stats.accepted << " requests=" << stats.requests
       << " bytes_in=" << stats.bytes_in << " bytes_out=" << stats.bytes_out
       << " shed_inline=" << stats.shed_inline;
  totals.note = note.str();
  records.push_back(totals);
  std::cout << "net totals: " << note.str() << "\n";

  if (metrics::enabled()) {
    const metrics::Snapshot snapshot = metrics::Registry::global().snapshot();
    bench::write_bench_json(json_path, records, &snapshot);
  } else {
    bench::write_bench_json(json_path, records);
  }
  std::cout << "wrote " << json_path << "\n";
  return 0;
}

// --- the persistence tier (--store) ----------------------------------------

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
  note << "speedup_vs_rebuild=" << speedup << " snapshot_bytes="
       << std::filesystem::file_size(dir / (id + ".spms"));
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

/// Memory-capped spill / fault-back stream: `markets` markets under a budget
/// that holds only one or two resident, driven round-robin so nearly every
/// touch faults a spilled market back in. The store contract: the run ends
/// with zero discarded markets and every request answered.
void run_capped_stream(int M, int N, int markets, int ops,
                       std::size_t budget_mb,
                       std::vector<bench::BenchRecord>& records) {
  const std::filesystem::path dir = store_scratch("store_capped");
  serve::ServeConfig config = serve::ServeConfig::from_env();
  config.store.dir = dir.string();
  config.mem_budget_mb = budget_mb;
  const int threads = config.drain_lanes;
  serve::MatchServer server(config);

  for (int k = 0; k < markets; ++k) {
    const std::string id = "cap" + std::to_string(k);
    serve::Request create = make_request(serve::RequestType::kCreate, id);
    create.scenario = make_scenario(M, N);
    SPECMATCH_CHECK_MSG(server.handle(std::move(create)).ok, "create failed");
    serve::Request solve = make_request(serve::RequestType::kSolve, id);
    solve.warm = false;
    SPECMATCH_CHECK_MSG(server.handle(std::move(solve)).ok, "solve failed");
  }

  Rng rng(4242ull + static_cast<std::uint64_t>(N));
  bench::WallTimer timer;
  for (int op = 0; op < ops; ++op) {
    const std::string id = "cap" + std::to_string(op % markets);
    serve::Request request;
    if (op % 2 == 0) {
      request = make_request(serve::RequestType::kUpdatePrice, id);
      request.buyer = static_cast<BuyerId>(rng.uniform_int(0, N - 1));
      request.channel = static_cast<ChannelId>(rng.uniform_int(0, M - 1));
      request.value = rng.uniform(0.0, 1.0);
    } else {
      request = make_request(serve::RequestType::kSolve, id);
      request.warm = true;
    }
    const serve::Response response = server.handle(std::move(request));
    SPECMATCH_CHECK_MSG(response.ok, "capped stream request failed: "
                                         << response.text);
  }
  const double wall_ms = timer.elapsed_ms();

  SPECMATCH_CHECK_MSG(server.discarded() == 0,
                      "memory-capped run discarded markets");
  SPECMATCH_CHECK_MSG(server.spills() > 0, "capped run never spilled");
  SPECMATCH_CHECK_MSG(server.faults() > 0, "capped run never faulted");

  bench::BenchRecord record("store_spill_stream", M, N, "capped", threads,
                            wall_ms, 0);
  std::ostringstream note;
  note << "markets=" << markets << " budget_mb=" << budget_mb
       << " ops=" << ops << " rps="
       << (wall_ms > 0.0 ? 1000.0 * ops / wall_ms : 0.0)
       << " spills=" << server.spills() << " faults=" << server.faults()
       << " discarded=" << server.discarded()
       << " disk_bytes=" << server.store_disk_bytes()
       << " spilled=" << server.spilled_markets();
  record.note = note.str();
  records.push_back(record);
  std::cout << "capped stream: " << note.str() << " wall_ms=" << wall_ms
            << "\n";
  std::filesystem::remove_all(dir);
}

int run_store() {
  const bool smoke = bench::env_int("SPECMATCH_BENCH_SMOKE", 0) != 0;
  const char* json_env = std::getenv("SPECMATCH_BENCH_JSON");
  const std::string json_path =
      (json_env != nullptr && json_env[0] != '\0') ? json_env
                                                   : "BENCH_store.json";
  const int M = smoke ? 4 : 16;
  const std::vector<int> n_grid =
      smoke ? std::vector<int>{200} : std::vector<int>{2000, 20000};

  std::vector<bench::BenchRecord> records;
  for (const int N : n_grid) {
    const int reps = bench::env_trials(N >= 8000 ? 1 : 3);
    run_cold_start(M, N, reps, records);
  }
  if (smoke) {
    run_capped_stream(M, 200, 4, 24, 0, records);
  } else {
    run_capped_stream(M, 2000, 8, 80, 2, records);
  }

  if (metrics::enabled()) {
    const metrics::Snapshot snapshot = metrics::Registry::global().snapshot();
    bench::write_bench_json(json_path, records, &snapshot);
  } else {
    bench::write_bench_json(json_path, records);
  }
  std::cout << "wrote " << json_path << "\n";
  return 0;
}

int run() {
  const bool smoke = bench::env_int("SPECMATCH_BENCH_SMOKE", 0) != 0;
  const char* json_env = std::getenv("SPECMATCH_BENCH_JSON");
  const std::string json_path =
      (json_env != nullptr && json_env[0] != '\0') ? json_env
                                                   : "BENCH_serve.json";
  const int M = smoke ? 4 : 16;
  const std::vector<int> n_grid =
      smoke ? std::vector<int>{60, 200} : std::vector<int>{500, 2000, 8000};
  const int clients = smoke ? 2 : 4;
  const int ops_per_client =
      bench::env_trials(0) > 0 ? bench::env_trials(0) * 10 : (smoke ? 20 : 60);

  serve::ServeConfig config = serve::ServeConfig::from_env();
  const int threads = config.drain_lanes;
  std::vector<bench::BenchRecord> records;
  double ratio_at_max_n = 0.0;

  for (const int N : n_grid) {
    serve::MatchServer server(config);
    const std::string id = "m" + std::to_string(N);
    serve::Request create = make_request(serve::RequestType::kCreate, id);
    create.scenario = make_scenario(M, N);
    const serve::Response created = server.handle(std::move(create));
    SPECMATCH_CHECK_MSG(created.ok, created.text);

    const std::uint64_t seed = 77777ull + static_cast<std::uint64_t>(N);
    LegResult cold;
    LegResult warmed;
    for (const bool warm : {false, true}) {
      LegResult leg =
          run_leg(server, id, M, N, warm, clients, ops_per_client, seed);
      bench::BenchRecord record("serve_load", M, N, warm ? "warm" : "cold",
                                threads, leg.wall_ms, 0);
      record.note = leg_note(leg);
      records.push_back(record);
      std::cout << "N=" << N << " " << (warm ? "warm" : "cold") << ": "
                << record.note << " wall_ms=" << leg.wall_ms << "\n";
      (warm ? warmed : cold) = leg;
    }

    const double ratio = cold.requests_per_sec > 0.0
                             ? warmed.requests_per_sec / cold.requests_per_sec
                             : 0.0;
    if (N == n_grid.back()) ratio_at_max_n = ratio;
    bench::BenchRecord summary("serve_load", M, N, "warm_vs_cold", threads,
                               0.0, 0);
    std::ostringstream note;
    note << "throughput_ratio=" << ratio << " cold_p99_ms=" << cold.p99_ms
         << " warm_p99_ms=" << warmed.p99_ms;
    summary.note = note.str();
    records.push_back(summary);
    std::cout << "N=" << N << " warm_vs_cold " << note.str() << "\n";
  }

  run_shed_burst(records);

  if (metrics::enabled()) {
    const metrics::Snapshot snapshot = metrics::Registry::global().snapshot();
    bench::write_bench_json(json_path, records, &snapshot);
  } else {
    bench::write_bench_json(json_path, records);
  }
  std::cout << "wrote " << json_path << "\n";

  if (!smoke && ratio_at_max_n < 2.0) {
    std::cerr << "WARNING: warm/cold throughput ratio at N="
              << n_grid.back() << " is " << ratio_at_max_n
              << " (< 2.0 target)\n";
  }
  return 0;
}

}  // namespace
}  // namespace specmatch

int main(int argc, char** argv) {
  for (int a = 1; a < argc; ++a) {
    if (std::string(argv[a]) == "--net") return specmatch::run_net();
    if (std::string(argv[a]) == "--store") return specmatch::run_store();
  }
  return specmatch::run();
}
