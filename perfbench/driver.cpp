// perfbench_driver: the compiled half of the repository benchmark.
//
//   perfbench_driver fingerprint --workload W
//   perfbench_driver gen   --workload W --seed S [--requests K] [--components 1]
//   perfbench_driver load  ...   (see commands.hpp)
//   perfbench_driver trace ...
//   perfbench_driver lanes ...
//
// perfbench/run.py builds this binary and specmatch_cli, starts the server
// and calls these subcommands; every subcommand prints one JSON line.
#include <sched.h>

#include <iostream>
#include <thread>

#include "common.hpp"
#include "common/config.hpp"
#include "common/simd.hpp"
#include "graph/components.hpp"
#include "commands.hpp"
#include "market/market.hpp"
#include "serve/server.hpp"
#include "store/snapshot.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
namespace sm = specmatch;

/// What a result must carry to be comparable with another: the host's
/// cores, the kernel tier, the lane counts and the build — plus the server
/// settings the workload needs.
int run_fingerprint(const Flags& flags) {
  const WorkloadSpec* spec = find_workload(flags.required("workload"));
  if (spec == nullptr) throw std::runtime_error("unknown workload");
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  JsonLine out;
  out.add("nproc", affinity)
      .add("hardware_concurrency",
           static_cast<int>(std::thread::hardware_concurrency()))
      .add("simd_tier", sm::simd::to_string(sm::simd::active_tier()))
      .add("engine_lanes", sm::SpecmatchConfig::global().num_threads)
      .add("drain_lanes", sm::serve::ServeConfig::from_env().drain_lanes)
      .add("build_type", PERFBENCH_BUILD_TYPE)
      .add("compiler", PERFBENCH_COMPILER)
      .add("store", spec->store)
      .add("mem_mb", spec->mem_mb)
      .add("conns", spec->conns);
  std::cout << out.str() << std::endl;
  return 0;
}

/// Generator self-description for the benchmark's own tests: a digest of
/// the wire bytes, the request mix, and the component property.
int run_gen(const Flags& flags) {
  const WorkloadSpec* spec = find_workload(flags.required("workload"));
  if (spec == nullptr) throw std::runtime_error("unknown workload");
  const auto seed = static_cast<std::uint64_t>(flags.num("seed", 1));
  const auto requests = static_cast<std::int64_t>(flags.num("requests", 1000));
  const std::vector<GeneratedMarket> markets = generate_markets(*spec, seed);

  std::string bytes;
  for (const WireRequest& request : setup_requests(markets)) bytes += request.bytes;
  std::map<std::string, std::int64_t> verbs;
  std::int64_t solves = 0;
  for (int c = 0; c < spec->conns; ++c) {
    ConnectionStream stream(*spec, markets, seed, c);
    for (std::int64_t k = 0; k < requests; ++k) {
      const WireRequest request = stream.next();
      bytes += request.bytes;
      ++verbs[request.bytes.substr(0, request.bytes.find(' '))];
      if (request.cls == ReqClass::kSolveCold || request.cls == ReqClass::kSolveWarm)
        ++solves;
    }
  }
  JsonLine out;
  out.add("digest", std::to_string(sm::store::fnv1a64(bytes.data(), bytes.size())))
      .add("bytes", static_cast<std::int64_t>(bytes.size()))
      .add("requests", requests * spec->conns)
      .add("solves", solves)
      .add("price", verbs["price"])
      .add("leave", verbs["leave"])
      .add("join", verbs["join"]);
  if (flags.str("components") == "1") {
    double largest = 0.0;
    double smallest = 1.0;
    for (const GeneratedMarket& market : markets) {
      const sm::market::SpectrumMarket built =
          sm::market::build_market(*market.scenario);
      for (sm::ChannelId i = 0; i < built.num_channels(); ++i) {
        const double share =
            static_cast<double>(built.graph(i).components().largest_component()) /
            static_cast<double>(built.num_buyers());
        largest = std::max(largest, share);
        smallest = std::min(smallest, share);
      }
    }
    out.add("largest_share_max", largest).add("largest_share_min", smallest);
  }
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_driver fingerprint|gen|load|trace|lanes "
                 "[--flag value ...]\n";
    return 2;
  }
  const std::string command = argv[1];
  try {
    const Flags flags(argc, argv, 2);
    if (command == "fingerprint") return run_fingerprint(flags);
    if (command == "gen") return run_gen(flags);
    if (command == "load") return run_load(flags);
    if (command == "trace") return run_trace(flags);
    if (command == "lanes") return run_lanes(flags);
    std::cerr << "perfbench_driver: unknown command '" << command << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver " << command << ": " << e.what() << "\n";
    return 1;
  }
}
