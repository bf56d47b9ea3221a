// `perfbench_driver load`: the timed closed-loop run against a live server,
// followed (outside the timed window) by the output check — an in-process
// MatchServer replay of the exact request prefix every connection sent.
#include "commands.hpp"

#include <unistd.h>

#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "serve/net_client.hpp"
#include "serve/server.hpp"
#include "workload.hpp"

namespace perfbench {

namespace sm = specmatch;

namespace {

/// utime + stime of process `pid`, in milliseconds (-1 when unreadable).
double process_cpu_ms(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0.0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int f = 3; f <= 15 && fields >> field; ++f)
    if (f >= 14) ticks += std::stod(field);
  return 1000.0 * ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

struct Sample {
  ReqClass cls;
  double ms;  ///< send-to-response time
};

struct ConnResult {
  std::vector<Sample> samples;
  std::vector<std::string> lines;  ///< window responses, in send order
  Clock::time_point end;
  std::exception_ptr error;  ///< a dead connection, rethrown after the join
};

std::string round_trip(sm::serve::ClientConnection& conn, const std::string& bytes) {
  conn.send_all(bytes);
  std::string line;
  if (!conn.read_line(line)) throw std::runtime_error("server closed the connection");
  return line;
}

sm::serve::Request parse_one(const std::string& bytes) {
  std::istringstream in(bytes);
  sm::serve::RequestReader reader(in);
  sm::serve::Request request;
  if (!reader.next(request)) throw std::runtime_error("empty request frame");
  return request;
}

/// Value of ` key=` in a stats tail, or -1 when absent.
long long tail_value(const std::string& line, const std::string& key) {
  const auto pos = line.find(" " + key + "=");
  if (pos == std::string::npos) return -1;
  return std::stoll(line.substr(pos + key.size() + 2));
}

/// Replays setup, each connection's window prefix and the stats tail
/// through an in-process MatchServer; returns the number of response lines
/// that differ from what the live server answered.
std::int64_t replay_mismatches(const WorkloadSpec& spec,
                               const std::vector<GeneratedMarket>& markets,
                               std::uint64_t seed, const std::string& store_dir,
                               const std::vector<std::string>& setup_lines,
                               const std::vector<ConnResult>& window,
                               const std::vector<std::string>& tail_lines,
                               const std::string& plant) {
  sm::serve::ServeConfig config = sm::serve::ServeConfig::from_env();
  config.overflow = sm::serve::ServeConfig::Overflow::kBlock;
  if (spec.store) config.store.dir = store_dir;
  if (spec.mem_mb > 0) config.mem_budget_mb = static_cast<std::size_t>(spec.mem_mb);
  sm::serve::MatchServer server(config);

  std::int64_t mismatches = 0;
  const auto compare = [&mismatches](const std::string& live,
                                     const std::string& replayed) {
    if (live == replayed) return;
    if (mismatches == 0)
      std::cerr << "perfbench: transcript mismatch\n  server: " << live
                << "\n  replay: " << replayed << "\n";
    ++mismatches;
  };

  const std::vector<WireRequest> setup = setup_requests(markets);
  for (std::size_t k = 0; k < setup.size(); ++k)
    compare(setup_lines[k], server.handle(parse_one(setup[k].bytes)).text);

  // Window prefixes, interleaved across connections and submitted without
  // waiting so markets replay concurrently on the drain lanes; per-market
  // order (the only order responses depend on) is each connection's order.
  std::vector<std::vector<std::string>> replayed(window.size());
  std::vector<ConnectionStream> streams;
  for (std::size_t c = 0; c < window.size(); ++c) {
    replayed[c].resize(window[c].lines.size());
    streams.emplace_back(spec, markets, seed, static_cast<int>(c));
  }
  bool more = true;
  for (std::size_t k = 0; more; ++k) {
    more = false;
    for (std::size_t c = 0; c < window.size(); ++c) {
      if (k >= replayed[c].size()) continue;
      more = true;
      std::string* slot = &replayed[c][k];
      server.submit(parse_one(streams[c].next().bytes),
                    [slot](const sm::serve::Response& response) {
                      *slot = response.text;
                    });
    }
  }
  server.drain();
  if (plant == "transcript" && !replayed.empty() && !replayed[0].empty())
    replayed[0][0] += " planted";
  for (std::size_t c = 0; c < window.size(); ++c)
    for (std::size_t k = 0; k < replayed[c].size(); ++k)
      compare(window[c].lines[k], replayed[c][k]);

  for (int m = 0; m < spec.markets; ++m)
    compare(tail_lines[static_cast<std::size_t>(m)],
            server.handle(parse_one(stats_request(markets, m).bytes)).text);
  return mismatches;
}

}  // namespace

int run_load(const Flags& flags) {
  const WorkloadSpec* spec = find_workload(flags.required("workload"));
  if (spec == nullptr) throw std::runtime_error("unknown workload");
  const auto seed = static_cast<std::uint64_t>(flags.num("seed", 1));
  const double seconds = flags.num("seconds", 10);
  const int port = static_cast<int>(flags.num("port", 0));
  const long server_pid = static_cast<long>(flags.num("server-pid", 0));
  const bool setup_only = flags.str("setup-only") == "1";
  const std::string plant = flags.str("plant");

  const std::vector<GeneratedMarket> markets = generate_markets(*spec, seed);
  const std::vector<WireRequest> setup = setup_requests(markets);

  std::vector<sm::serve::ClientConnection> conns;
  for (int c = 0; c < spec->conns; ++c)
    conns.push_back(sm::serve::ClientConnection::connect_loopback(port));

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  const auto tally = [&attempted, &failed](const std::string& line) {
    ++attempted;
    if (!is_ok(line)) {
      if (failed == 0) std::cerr << "perfbench: failed response: " << line << "\n";
      ++failed;
    }
  };

  // Setup: every market is created and primed with one cold solve, before
  // the clock of the timed window starts.
  const Clock::time_point setup_start = Clock::now();
  std::vector<std::string> setup_lines;
  for (const WireRequest& request : setup) {
    setup_lines.push_back(round_trip(conns[0], request.bytes));
    tally(setup_lines.back());
  }
  const double setup_s = seconds_between(setup_start, Clock::now());
  if (setup_only) {
    std::cout << JsonLine().add("setup_s", setup_s).add("failed", failed).str()
              << std::endl;
    return failed == 0 ? 0 : 1;
  }

  // Timed window: one closed-loop thread per connection, one request in
  // flight each, no think time. The next request is generated before its
  // clock starts; none is sent once the window has closed.
  std::vector<ConnResult> window(static_cast<std::size_t>(spec->conns));
  const Clock::time_point start = Clock::now();
  const double cpu_before = process_cpu_ms(server_pid);
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < spec->conns; ++c) {
      threads.emplace_back([&, c] {
        ConnResult& mine = window[static_cast<std::size_t>(c)];
        try {
          ConnectionStream stream(*spec, markets, seed, c);
          while (true) {
            const WireRequest request = stream.next();
            const Clock::time_point sent = Clock::now();
            if (sent >= deadline) break;
            mine.lines.push_back(
                round_trip(conns[static_cast<std::size_t>(c)], request.bytes));
            mine.end = Clock::now();
            mine.samples.push_back({request.cls, us_between(sent, mine.end) / 1e3});
          }
        } catch (...) {
          mine.error = std::current_exception();
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (const ConnResult& conn : window)
    if (conn.error) std::rethrow_exception(conn.error);
  Clock::time_point end = start;
  for (const ConnResult& conn : window) end = std::max(end, conn.end);
  const double cpu_after = process_cpu_ms(server_pid);

  std::vector<double> mutation_ms;
  std::vector<double> solve_ms;
  for (const ConnResult& conn : window) {
    for (const std::string& line : conn.lines) tally(line);
    for (const Sample& sample : conn.samples)
      (sample.cls == ReqClass::kMutation ? mutation_ms : solve_ms).push_back(sample.ms);
  }
  const auto answered = static_cast<std::int64_t>(mutation_ms.size() + solve_ms.size());

  // Tail: each market's stats line on its owning connection.
  std::vector<std::string> tail_lines;
  for (int m = 0; m < spec->markets; ++m) {
    tail_lines.push_back(round_trip(conns[static_cast<std::size_t>(m % spec->conns)],
                                  stats_request(markets, m).bytes));
    tally(tail_lines.back());
  }
  for (sm::serve::ClientConnection& conn : conns) conn.close();

  bool stats_ok = true;
  if (spec->store) {
    // The planted failure pretends the spill tier lost a market.
    const std::string& last = tail_lines.back();
    const long long discarded =
        plant == "stats" ? 1 : tail_value(last, "discarded");
    stats_ok = discarded == 0 && tail_value(last, "faults") > 0;
    if (!stats_ok)
      std::cerr << "perfbench: stats tail check failed (need discarded=0, "
                   "faults>0): "
                << last << "\n";
  }

  const std::int64_t mismatches =
      replay_mismatches(*spec, markets, seed, flags.str("replay-store"),
                        setup_lines, window, tail_lines, plant);

  const double window_s = seconds_between(start, end);
  JsonLine out;
  out.add("setup_s", setup_s)
      .add("window_s", window_s)
      .add("answered", answered)
      .add("attempted", attempted)
      .add("failed", failed)
      .add("mismatches", mismatches)
      .add("stats_ok", stats_ok)
      .add("throughput_rps", static_cast<double>(answered) / window_s)
      .add("mutation_p50_ms", percentile(mutation_ms, 0.50))
      .add("mutation_p90_ms", percentile(mutation_ms, 0.90))
      .add("mutation_p99_ms", percentile(mutation_ms, 0.99))
      .add("mutation_samples", static_cast<std::int64_t>(mutation_ms.size()))
      .add("solve_p50_ms", percentile(solve_ms, 0.50))
      .add("solve_p75_ms", percentile(solve_ms, 0.75))
      .add("solve_p90_ms", percentile(solve_ms, 0.90))
      .add("solve_p99_ms", percentile(solve_ms, 0.99))
      .add("solve_samples", static_cast<std::int64_t>(solve_ms.size()))
      .add("server_cpu_ms_per_req",
           (cpu_after - cpu_before) / static_cast<double>(std::max<std::int64_t>(answered, 1)));
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace perfbench
