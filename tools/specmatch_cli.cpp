// specmatch command-line driver.
//
//   specmatch_cli generate --sellers 5 --buyers 12 [--seed 1]
//                          [--similarity m] [--max-range 5.0]
//                          [--supply-max 1] [--demand-max 1] --out FILE
//   specmatch_cli info FILE
//   specmatch_cli run FILE [--mechanism two-stage|swaps|auction|optimal|
//                           greedy|random] [--seed 1]
//   specmatch_cli dist FILE [--rule default|adaptive|quiescence]
//                           [--delay D] [--window W]
//
// Scenarios use the text format of workload/io.hpp, so generated markets can
// be archived and replayed bit-for-bit.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "auction/group_auction.hpp"
#include "dist/runtime.hpp"
#include "serve/net_client.hpp"
#include "serve/net_server.hpp"
#include "serve/server.hpp"
#include "matching/export_dot.hpp"
#include "matching/paper_examples.hpp"
#include "matching/stability.hpp"
#include "matching/swap_resolution.hpp"
#include "matching/two_stage.hpp"
#include "optimal/exact.hpp"
#include "optimal/greedy.hpp"
#include "optimal/random_matcher.hpp"
#include "workload/generator.hpp"
#include "workload/io.hpp"
#include "workload/similarity.hpp"

namespace {

using namespace specmatch;

[[noreturn]] void usage(const std::string& message = "") {
  if (!message.empty()) std::cerr << "error: " << message << "\n\n";
  std::cerr <<
      "usage:\n"
      "  specmatch_cli generate --sellers I --buyers J [--seed S]\n"
      "                [--similarity m] [--max-range R] [--min-range R]\n"
      "                [--supply-max K] [--demand-max K] --out FILE\n"
      "  specmatch_cli info FILE\n"
      "  specmatch_cli run FILE [--mechanism two-stage|swaps|auction|\n"
      "                optimal|greedy|random] [--seed S]\n"
      "  specmatch_cli dist FILE [--rule default|adaptive|quiescence]\n"
      "                [--delay D] [--window W]\n"
      "  specmatch_cli dot FILE [--out FILE.dot]   (matching as graphviz)\n"
      "  specmatch_cli paper toy|counter           (run the paper's fixtures)\n"
      "  specmatch_cli serve [FILE] [--out FILE] [--store DIR]\n"
      "                (request file or stdin; --store enables the snapshot\n"
      "                store: spill-on-evict, snapshot/restore verbs, cold\n"
      "                boot from DIR. docs/SERVING.md, docs/PERSISTENCE.md)\n"
      "  specmatch_cli serve --listen PORT [--port-file F] [--store DIR]\n"
      "                [--overflow block|reject]   (TCP front-end on\n"
      "                127.0.0.1; port 0 = ephemeral, choice written to\n"
      "                --port-file; SIGTERM drains. docs/PROTOCOL.md)\n"
      "  specmatch_cli serve FILE --connect PORT [--conns N] [--out FILE]\n"
      "                (replay FILE over N connections; transcript in\n"
      "                request order)\n";
  std::exit(2);
}

/// Parses "--key value" pairs after the positional arguments.
std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int start) {
  std::map<std::string, std::string> flags;
  for (int a = start; a < argc; ++a) {
    std::string key = argv[a];
    if (key.rfind("--", 0) != 0) usage("unexpected argument '" + key + "'");
    if (a + 1 >= argc) usage("flag " + key + " needs a value");
    flags[key.substr(2)] = argv[++a];
  }
  return flags;
}

/// Value of numeric flag --key, or `fallback` when absent. The whole token
/// must parse (workload::parse_token): "5x" or "abc" fails through usage().
template <typename T>
T flag_number(const std::map<std::string, std::string>& flags,
              const std::string& key, T fallback) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  T value{};
  if (!workload::parse_token(it->second, value))
    usage("flag --" + key + " needs a number, got '" + it->second + "'");
  return value;
}

std::string flag_string(const std::map<std::string, std::string>& flags,
                        const std::string& key, const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

int cmd_generate(const std::map<std::string, std::string>& flags) {
  workload::WorkloadParams params;
  params.num_sellers = flag_number(flags, "sellers", 5);
  params.num_buyers = flag_number(flags, "buyers", 8);
  params.max_channels_per_seller = flag_number(flags, "supply-max", 1);
  params.max_demand_per_buyer = flag_number(flags, "demand-max", 1);
  params.max_range = flag_number(flags, "max-range", 5.0);
  params.min_range = flag_number(flags, "min-range", 0.0);
  params.max_reserve = flag_number(flags, "max-reserve", 0.0);
  params.similarity_permutation =
      flag_number(flags, "similarity", workload::WorkloadParams::kIidUtilities);
  const auto out = flags.find("out");
  if (out == flags.end()) usage("generate requires --out FILE");

  Rng rng(static_cast<std::uint64_t>(flag_number(flags, "seed", 1)));
  const auto scenario = workload::generate_scenario(params, rng);
  workload::save_scenario_file(out->second, scenario);
  std::cout << "wrote " << out->second << " (M = " << scenario.num_channels()
            << ", N = " << scenario.num_virtual_buyers() << ")\n";
  return 0;
}

int cmd_info(const std::string& path) {
  const auto scenario = workload::load_scenario_file(path);
  const auto market = market::build_market(scenario);
  std::cout << "scenario " << path << "\n";
  std::cout << "  parent sellers: " << scenario.seller_channel_counts.size()
            << ", parent buyers: " << scenario.buyer_demands.size() << "\n";
  std::cout << "  virtual: M = " << market.num_channels()
            << " channels, N = " << market.num_buyers() << " buyers\n";
  std::cout << "  price similarity (mean SRCC): "
            << workload::mean_similarity(scenario.utilities,
                                         market.num_channels(),
                                         market.num_buyers())
            << "\n";
  for (ChannelId i = 0; i < market.num_channels(); ++i)
    std::cout << "  channel " << i << ": range "
              << scenario.channel_ranges[static_cast<std::size_t>(i)]
              << ", interference edges " << market.graph(i).num_edges()
              << "\n";
  return 0;
}

void report(const market::SpectrumMarket& market,
            const matching::Matching& matching, const std::string& name) {
  std::cout << name << ":\n";
  std::cout << "  welfare: " << matching.social_welfare(market) << "\n";
  std::cout << "  matched buyers: " << matching.num_matched() << " / "
            << market.num_buyers() << "\n";
  std::cout << "  individually rational: "
            << matching::is_individual_rational(market, matching)
            << ", Nash-stable: " << matching::is_nash_stable(market, matching)
            << ", pairwise-stable: "
            << matching::is_pairwise_stable(market, matching) << "\n";
  for (ChannelId i = 0; i < market.num_channels(); ++i) {
    std::cout << "  seller " << i << " <- {";
    bool first = true;
    matching.members_of(i).for_each_set([&](std::size_t j) {
      std::cout << (first ? "" : ", ") << j;
      first = false;
    });
    std::cout << "}\n";
  }
}

int cmd_run(const std::string& path,
            const std::map<std::string, std::string>& flags) {
  const auto market =
      market::build_market(workload::load_scenario_file(path));
  const std::string mechanism = flag_string(flags, "mechanism", "two-stage");
  if (mechanism == "two-stage") {
    const auto result = matching::run_two_stage(market);
    report(market, result.final_matching(), "two-stage matching");
    std::cout << "  welfare per phase: " << result.welfare_stage1 << " -> "
              << result.welfare_phase1 << " -> " << result.welfare_final
              << "\n";
  } else if (mechanism == "swaps") {
    const auto result = matching::run_two_stage_with_swaps(market);
    report(market, result.matching, "two-stage + stage-III swaps");
    std::cout << "  swaps applied: " << result.swaps_applied << " (welfare "
              << result.welfare_before << " -> " << result.welfare_after
              << ")\n";
  } else if (mechanism == "auction") {
    const auto result = auction::run_group_double_auction(market);
    report(market, result.matching, "group double auction");
    std::cout << "  revenue: " << result.seller_revenue
              << ", clearing price: " << result.clearing_price << "\n";
  } else if (mechanism == "optimal") {
    const auto result = optimal::solve_optimal(market);
    report(market, result.matching, "optimal (branch & bound)");
    std::cout << "  nodes explored: " << result.nodes_explored << "\n";
  } else if (mechanism == "greedy") {
    report(market, optimal::solve_greedy(market), "centralised greedy");
  } else if (mechanism == "random") {
    Rng rng(static_cast<std::uint64_t>(flag_number(flags, "seed", 1)));
    report(market, optimal::solve_random_serial(market, rng),
           "random serial dictatorship");
  } else {
    usage("unknown mechanism '" + mechanism + "'");
  }
  return 0;
}

int cmd_dist(const std::string& path,
             const std::map<std::string, std::string>& flags) {
  const auto market =
      market::build_market(workload::load_scenario_file(path));
  dist::DistConfig config;
  const std::string rule = flag_string(flags, "rule", "default");
  if (rule == "adaptive")
    config = dist::DistConfig::adaptive();
  else if (rule == "quiescence")
    config = dist::DistConfig::quiescence(flag_number(flags, "window", 3));
  else if (rule != "default")
    usage("unknown rule '" + rule + "'");
  config.max_message_delay = flag_number(flags, "delay", 0);

  const auto result = dist::run_distributed(market, config);
  report(market, result.matching, "distributed run (" + rule + ")");
  std::cout << "  slots: " << result.slots << " (stage I spanned "
            << result.last_stage1_slot + 1 << "), messages: "
            << result.messages << "\n";
  return 0;
}

/// Re-sequences responses into admission order: callbacks may fire from any
/// drain lane, but the transcript a replay produces must not depend on lane
/// scheduling. Responses are buffered until every earlier seq has been
/// emitted.
class TranscriptWriter {
 public:
  explicit TranscriptWriter(std::ostream& out) : out_(out) {}

  void write(const serve::Response& response) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffered_.emplace(response.seq, response.text);
    while (!buffered_.empty() && buffered_.begin()->first == next_) {
      out_ << buffered_.begin()->second << "\n";
      buffered_.erase(buffered_.begin());
      ++next_;
    }
  }

  bool fully_flushed() const { return buffered_.empty(); }

 private:
  std::ostream& out_;
  std::mutex mutex_;
  std::map<std::uint64_t, std::string> buffered_;
  std::uint64_t next_ = 0;
};

/// The shared --listen scaffolding: bind, publish the port via --port-file,
/// serve until SIGTERM, report the transport counters.
void run_listener(serve::MatchServer& server,
                  const std::map<std::string, std::string>& flags) {
  serve::NetConfig net = serve::NetConfig::from_env();
  net.port = flag_number(flags, "listen", 0);
  serve::NetServer listener(server, net);
  const int port = listener.listen_on_loopback();
  const std::string port_file = flag_string(flags, "port-file", "");
  if (!port_file.empty()) {
    // Written to a temp name and renamed so a poller never reads a
    // partially written port number.
    const std::string tmp = port_file + ".tmp";
    std::ofstream pf(tmp);
    if (!pf.good()) usage("cannot open " + tmp);
    pf << port << "\n";
    pf.close();
    if (std::rename(tmp.c_str(), port_file.c_str()) != 0) {
      usage("cannot rename " + tmp + " to " + port_file);
    }
  }
  listener.install_signal_handlers();
  std::cerr << "serve: listening on 127.0.0.1:" << port << "\n";
  listener.run();
  const serve::NetStats net_stats = listener.stats();
  std::cerr << "serve: net accepted=" << net_stats.accepted
            << " rejected=" << net_stats.rejected
            << " closed=" << net_stats.closed
            << " requests=" << net_stats.requests
            << " responses=" << net_stats.responses
            << " shed_inline=" << net_stats.shed_inline
            << " protocol_errors=" << net_stats.protocol_errors
            << " bytes_in=" << net_stats.bytes_in
            << " bytes_out=" << net_stats.bytes_out << "\n";
}

int cmd_serve(int argc, char** argv) {
  std::string input_path;
  int flag_start = 2;
  if (argc > 2 && std::string(argv[2]).rfind("--", 0) != 0) {
    input_path = argv[2];
    flag_start = 3;
  }
  const auto flags = parse_flags(argc, argv, flag_start);
  const std::string out_path = flag_string(flags, "out", "");
  // --store DIR overrides SPECMATCH_STORE_DIR: snapshots land in (and cold
  // boots fault from) DIR.
  const std::string store_dir = flag_string(flags, "store", "");

  if (flags.count("listen") != 0) {
    if (!input_path.empty()) usage("--listen takes no request file");
    serve::ServeConfig config = serve::ServeConfig::from_env();
    if (!store_dir.empty()) config.store.dir = store_dir;
    const std::string overflow = flag_string(flags, "overflow", "block");
    if (overflow == "block") {
      config.overflow = serve::ServeConfig::Overflow::kBlock;
    } else if (overflow == "reject") {
      config.overflow = serve::ServeConfig::Overflow::kReject;
    } else {
      usage("unknown --overflow '" + overflow + "' (block|reject)");
    }
    serve::MatchServer server(config);
    run_listener(server, flags);
    std::cerr << "serve: markets=" << server.resident_markets()
              << " bytes=" << server.resident_bytes()
              << " evictions=" << server.evictions()
              << " coalesced=" << server.coalesced()
              << " deduped=" << server.solves_deduped()
              << " shed=" << server.shed()
              << " steady_allocs=" << server.steady_allocs() << "\n";
    if (server.store_enabled())
      std::cerr << "serve: store spilled=" << server.spilled_markets()
                << " spills=" << server.spills()
                << " faults=" << server.faults()
                << " discarded=" << server.discarded()
                << " disk_bytes=" << server.store_disk_bytes() << "\n";
    return 0;
  }

  std::ifstream file_in;
  if (!input_path.empty() && input_path != "-") {
    file_in.open(input_path);
    if (!file_in.good()) usage("cannot open " + input_path);
  }
  std::istream& in = file_in.is_open() ? file_in : std::cin;

  std::ofstream file_out;
  if (!out_path.empty()) {
    file_out.open(out_path);
    if (!file_out.good()) usage("cannot open " + out_path);
  }
  std::ostream& out = file_out.is_open() ? file_out : std::cout;

  if (flags.count("connect") != 0) {
    const int port = flag_number(flags, "connect", 0);
    if (port <= 0) usage("--connect needs a port");
    const int conns = flag_number(flags, "conns", 1);
    if (conns < 1) usage("--conns must be >= 1");
    std::vector<serve::Request> requests;
    serve::RequestReader reader(in);
    serve::Request request;
    while (reader.next(request)) requests.push_back(std::move(request));
    const serve::ReplayResult result =
        serve::replay_over_network(port, requests, conns);
    for (const std::string& line : result.transcript) out << line;
    out.flush();
    std::cerr << "serve: replayed requests=" << requests.size()
              << " conns=" << conns << " bytes_sent=" << result.bytes_sent
              << "\n";
    return 0;
  }

  // Replay mode is lossless: a full queue blocks admission instead of
  // shedding, so a transcript always answers every request.
  serve::ServeConfig config = serve::ServeConfig::from_env();
  config.overflow = serve::ServeConfig::Overflow::kBlock;
  if (!store_dir.empty()) config.store.dir = store_dir;
  serve::MatchServer server(config);
  TranscriptWriter transcript(out);

  serve::RequestReader reader(in);
  serve::Request request;
  std::int64_t requests = 0;
  while (reader.next(request)) {
    ++requests;
    server.submit(std::move(request),
                  [&transcript](const serve::Response& response) {
                    transcript.write(response);
                  });
  }
  server.drain();
  out.flush();
  if (!transcript.fully_flushed()) {
    std::cerr << "error: transcript has gaps after drain\n";
    return 1;
  }
  std::cerr << "serve: requests=" << requests
            << " markets=" << server.resident_markets()
            << " bytes=" << server.resident_bytes()
            << " evictions=" << server.evictions()
            << " coalesced=" << server.coalesced()
            << " deduped=" << server.solves_deduped()
            << " shed=" << server.shed()
            << " steady_allocs=" << server.steady_allocs() << "\n";
  if (server.store_enabled())
    std::cerr << "serve: store spilled=" << server.spilled_markets()
              << " spills=" << server.spills()
              << " faults=" << server.faults()
              << " discarded=" << server.discarded()
              << " disk_bytes=" << server.store_disk_bytes() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string command = argv[1];
  try {
    if (command == "generate") return cmd_generate(parse_flags(argc, argv, 2));
    if (command == "info") {
      if (argc < 3) usage("info requires a scenario file");
      return cmd_info(argv[2]);
    }
    if (command == "run") {
      if (argc < 3) usage("run requires a scenario file");
      return cmd_run(argv[2], parse_flags(argc, argv, 3));
    }
    if (command == "dist") {
      if (argc < 3) usage("dist requires a scenario file");
      return cmd_dist(argv[2], parse_flags(argc, argv, 3));
    }
    if (command == "paper") {
      if (argc < 3) usage("paper requires 'toy' or 'counter'");
      const std::string which = argv[2];
      const auto market = which == "toy"       ? matching::toy_example()
                          : which == "counter" ? matching::counter_example()
                                               : (usage("unknown fixture '" +
                                                        which + "'"),
                                                  matching::toy_example());
      const auto result = matching::run_two_stage(market);
      report(market, result.final_matching(),
             "paper " + which + " example, two-stage matching");
      std::cout << "  welfare per phase: " << result.welfare_stage1 << " -> "
                << result.welfare_phase1 << " -> " << result.welfare_final
                << "\n";
      const auto swaps = matching::run_two_stage_with_swaps(market);
      std::cout << "  with stage-III swaps: " << swaps.welfare_after << " ("
                << swaps.swaps_applied << " swap(s))\n";
      return 0;
    }
    if (command == "serve") return cmd_serve(argc, argv);
    if (command == "dot") {
      if (argc < 3) usage("dot requires a scenario file");
      const auto flags = parse_flags(argc, argv, 3);
      const auto market =
          market::build_market(workload::load_scenario_file(argv[2]));
      const auto result = matching::run_two_stage(market);
      const std::string out = flag_string(flags, "out", "");
      if (out.empty()) {
        matching::write_matching_dot(std::cout, market,
                                     result.final_matching());
      } else {
        std::ofstream os(out);
        if (!os.good()) usage("cannot open " + out);
        matching::write_matching_dot(os, market, result.final_matching());
        std::cout << "wrote " << out << "\n";
      }
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  usage("unknown command '" + command + "'");
}
