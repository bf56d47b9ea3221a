// MatchServer and its protocol: parsing, request semantics, warm re-solve,
// coalescing/dedup/backpressure (made deterministic via manual drain), LRU
// eviction, thread-count transcript invariance, and the zero-steady-alloc
// guarantee of resident-workspace serving.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/alloc_count.hpp"
#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "matching/stability.hpp"
#include "matching/two_stage.hpp"
#include "serve/net_client.hpp"
#include "serve/net_server.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "workload/generator.hpp"
#include "workload/io.hpp"
#include "test_util.hpp"

namespace specmatch::serve {
namespace {

std::shared_ptr<const market::Scenario> random_scenario(std::uint64_t seed,
                                                        int sellers,
                                                        int buyers) {
  Rng rng(seed);
  workload::WorkloadParams params;
  params.num_sellers = sellers;
  params.num_buyers = buyers;
  return std::make_shared<const market::Scenario>(
      workload::generate_scenario(params, rng));
}

/// A quiet 1-lane server config with no environment influence.
ServeConfig test_config() {
  ServeConfig config;
  config.drain_lanes = 1;
  config.queue_capacity = 1024;
  config.mem_budget_mb = 4096;
  config.check_warm = true;
  return config;
}

Request make_request(RequestType type, const std::string& id) {
  Request request;
  request.type = type;
  request.market_id = id;
  return request;
}

Request create_request(const std::string& id,
                       std::shared_ptr<const market::Scenario> scenario) {
  Request request = make_request(RequestType::kCreate, id);
  request.scenario = std::move(scenario);
  return request;
}

Request solve_request(const std::string& id, bool warm) {
  Request request = make_request(RequestType::kSolve, id);
  request.warm = warm;
  return request;
}

Request price_request(const std::string& id, BuyerId j, ChannelId i,
                      double value) {
  Request request = make_request(RequestType::kUpdatePrice, id);
  request.buyer = j;
  request.channel = i;
  request.value = value;
  return request;
}

// --- protocol --------------------------------------------------------------

TEST(ServeProtocolTest, ParsesEveryRequestKind) {
  const auto scenario = random_scenario(3, 2, 4);
  std::stringstream input;
  input << "# comment, then a blank line\n\n";
  input << "create m1\n";
  workload::save_scenario(input, *scenario);
  input << "join m1 2\n"
        << "leave m1 0\n"
        << "price m1 1 0 0.75\n"
        << "solve m1 cold\n"
        << "solve m1 warm\n"
        << "query m1\n"
        << "stats m1\n";

  RequestReader reader(input);
  Request request;
  ASSERT_TRUE(reader.next(request));
  EXPECT_EQ(request.type, RequestType::kCreate);
  EXPECT_EQ(request.market_id, "m1");
  ASSERT_NE(request.scenario, nullptr);
  EXPECT_EQ(request.scenario->utilities, scenario->utilities);

  ASSERT_TRUE(reader.next(request));
  EXPECT_EQ(request.type, RequestType::kJoin);
  EXPECT_EQ(request.buyer, 2);
  ASSERT_TRUE(reader.next(request));
  EXPECT_EQ(request.type, RequestType::kLeave);
  EXPECT_EQ(request.buyer, 0);
  ASSERT_TRUE(reader.next(request));
  EXPECT_EQ(request.type, RequestType::kUpdatePrice);
  EXPECT_EQ(request.buyer, 1);
  EXPECT_EQ(request.channel, 0);
  EXPECT_DOUBLE_EQ(request.value, 0.75);
  ASSERT_TRUE(reader.next(request));
  EXPECT_EQ(request.type, RequestType::kSolve);
  EXPECT_FALSE(request.warm);
  ASSERT_TRUE(reader.next(request));
  EXPECT_EQ(request.type, RequestType::kSolve);
  EXPECT_TRUE(request.warm);
  ASSERT_TRUE(reader.next(request));
  EXPECT_EQ(request.type, RequestType::kQuery);
  ASSERT_TRUE(reader.next(request));
  EXPECT_EQ(request.type, RequestType::kStats);
  EXPECT_FALSE(reader.next(request));
}

TEST(ServeProtocolTest, ErrorsAreFatalAndCarryLineNumbers) {
  // Besides a made-up verb, the verbs of the removed coordinator/worker
  // tier must no longer parse.
  for (const char* line : {"frobnicate m1\n", "xsolve m1 cold\n",
                           "xset m1 0 1.0\n", "ximport m1 00\n",
                           "xdrop m1\n"}) {
    SCOPED_TRACE(line);
    std::stringstream input(line);
    RequestReader reader(input);
    Request request;
    try {
      reader.next(request);
      FAIL() << "unknown verb parsed";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.line(), 1);
      EXPECT_NE(std::string(e.what()).find("unknown request"),
                std::string::npos);
    }
  }
  {
    std::stringstream input("query m1\nsolve m1 lukewarm\n");
    RequestReader reader(input);
    Request request;
    ASSERT_TRUE(reader.next(request));
    try {
      reader.next(request);
      FAIL() << "bad solve mode parsed";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.line(), 2);
    }
  }
  {
    // An embedded scenario that cuts off mid-matrix: the error is reported
    // in request-file coordinates (past the create line).
    std::stringstream input(
        "create m1\n"
        "specmatch-scenario v1\n"
        "sellers 1\n1\n"
        "buyers 1\n1\n"
        "locations\n0 0\n"
        "ranges 1\n2\n"
        "utilities 1 1\n");
    RequestReader reader(input);
    Request request;
    try {
      reader.next(request);
      FAIL() << "truncated embedded scenario parsed";
    } catch (const ProtocolError& e) {
      EXPECT_GT(e.line(), 1);
    }
  }
}

// --- request semantics -----------------------------------------------------

TEST(MatchServerTest, ColdSolveMatchesDirectEngineRun) {
  const auto scenario = random_scenario(11, 4, 10);
  MatchServer server(test_config());
  const Response created = server.handle(create_request("m", scenario));
  ASSERT_TRUE(created.ok) << created.text;
  EXPECT_NE(created.text.find("ok create m"), std::string::npos);

  const Response solved = server.handle(solve_request("m", false));
  ASSERT_TRUE(solved.ok) << solved.text;

  const auto market = market::build_market(*scenario);
  const auto direct = matching::run_two_stage(market);
  std::ostringstream expected;
  expected << "welfare=" << format_double(direct.welfare_final);
  EXPECT_NE(solved.text.find(expected.str()), std::string::npos)
      << solved.text;
  ASSERT_NE(server.last_matching("m"), nullptr);
  EXPECT_EQ(*server.last_matching("m"), direct.final_matching());
}

TEST(MatchServerTest, SemanticErrorsAnswerWithoutKillingTheServer) {
  const auto scenario = random_scenario(5, 2, 4);
  MatchServer server(test_config());
  EXPECT_FALSE(server.handle(solve_request("ghost", false)).ok);
  ASSERT_TRUE(server.handle(create_request("m", scenario)).ok);

  const Response duplicate = server.handle(create_request("m", scenario));
  EXPECT_FALSE(duplicate.ok);
  EXPECT_NE(duplicate.text.find("already exists"), std::string::npos);

  Request bad_buyer = make_request(RequestType::kJoin, "m");
  bad_buyer.buyer = 99;
  EXPECT_FALSE(server.handle(bad_buyer).ok);

  EXPECT_FALSE(server.handle(price_request("m", 0, 99, 1.0)).ok);

  // The server still works after every error.
  EXPECT_TRUE(server.handle(solve_request("m", false)).ok);
}

/// One seller of two channels of range `range` and one buyer per location,
/// the first demanding two channels.
std::shared_ptr<const market::Scenario> geometry_scenario(
    const std::vector<graph::Point>& locations, double range) {
  market::Scenario scenario;
  scenario.seller_channel_counts = {2};
  scenario.buyer_demands.assign(locations.size(), 1);
  scenario.buyer_demands[0] = 2;
  scenario.buyer_locations = locations;
  scenario.channel_ranges = {range, range};
  scenario.utilities.assign(2 * (locations.size() + 1), 0.5);
  return std::make_shared<const market::Scenario>(std::move(scenario));
}

TEST(MatchServerTest, HostileGeometryFailsLoudlyOrBuildsTheAllPairsGraph) {
  // Finite coordinates whose span overflows a double have no finite cell
  // grid. In process, the create answers an error...
  MatchServer server(test_config());
  const Response wide = server.handle(create_request(
      "wide", geometry_scenario({{-1e308, 0.0}, {1e308, 5.0}, {0.0, 0.0}},
                                1.0)));
  EXPECT_FALSE(wide.ok);
  EXPECT_NE(wide.text.find("invalid scenario"), std::string::npos)
      << wide.text;
  // ...and on the wire the embedded scenario is a protocol error.
  std::istringstream wire(
      "create wide\n"
      "specmatch-scenario v1\n"
      "sellers 1\n2\n"
      "buyers 2\n1 1\n"
      "locations\n-1e308 0\n1e308 5\n"
      "ranges 2\n1 1\n"
      "utilities 2 2\n0.5 0.5\n0.5 0.5\n");
  RequestReader reader(wire);
  Request request;
  try {
    (void)reader.next(request);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("span"), std::string::npos)
        << e.what();
  }

  // A range of 1e-300 over a 10 x 10 area, sent through the wire format:
  // only coincident buyers (and the first buyer's two dummies) interfere,
  // exactly as the all-pairs test decides, and the grid stays O(N) cells.
  Rng rng(1300);
  std::vector<graph::Point> locations;
  for (int v = 0; v < 40; ++v)
    locations.push_back({rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)});
  locations[7] = locations[3];
  std::istringstream tiny_wire(format_request(
      create_request("tiny", geometry_scenario(locations, 1e-300))));
  RequestReader tiny_reader(tiny_wire);
  Request tiny;
  ASSERT_TRUE(tiny_reader.next(tiny));
  const Response created = server.handle(tiny);
  ASSERT_TRUE(created.ok) << created.text;
  const market::SpectrumMarket market = market::build_market(*tiny.scenario);
  for (ChannelId i = 0; i < market.num_channels(); ++i) {
    std::vector<std::pair<BuyerId, BuyerId>> all_pairs;
    for (BuyerId a = 0; a < market.num_buyers(); ++a)
      for (BuyerId b = a + 1; b < market.num_buyers(); ++b)
        if (graph::distance(
                locations[static_cast<std::size_t>(market.buyer_parent(a))],
                locations[static_cast<std::size_t>(market.buyer_parent(b))]) <=
            1e-300)
          all_pairs.emplace_back(a, b);
    EXPECT_EQ(market.graph(i).edges(), all_pairs) << "channel " << i;
    EXPECT_EQ(all_pairs.size(), 2u);  // the dummies, and buyers 3 and 7
  }
  const Response solved = server.handle(solve_request("tiny", false));
  ASSERT_TRUE(solved.ok) << solved.text;
  EXPECT_EQ(*server.last_matching("tiny"),
            matching::run_two_stage(market).final_matching());
}

TEST(MatchServerTest, WarmBeforeAnySolveFallsBackToCold) {
  const auto scenario = random_scenario(7, 3, 8);
  MatchServer server(test_config());
  ASSERT_TRUE(server.handle(create_request("m", scenario)).ok);
  const Response warm = server.handle(solve_request("m", true));
  ASSERT_TRUE(warm.ok);
  EXPECT_NE(warm.text.find("fallback=cold"), std::string::npos);
  // With a carried matching resident, the next warm solve is genuine.
  const Response warm2 = server.handle(solve_request("m", true));
  ASSERT_TRUE(warm2.ok);
  EXPECT_EQ(warm2.text.find("fallback=cold"), std::string::npos);
}

TEST(MatchServerTest, MutationStreamServedWarmKeepsInvariants) {
  // check_warm is on in test_config(): every warm solve CHECKs
  // interference-freedom, individual rationality, and welfare >= carried
  // internally, so this stream passing IS the warm-legality property.
  const auto scenario = random_scenario(13, 5, 16);
  MatchServer server(test_config());
  ASSERT_TRUE(server.handle(create_request("m", scenario)).ok);
  ASSERT_TRUE(server.handle(solve_request("m", false)).ok);

  Rng rng(99);
  const int M = 5;
  const int N = 16;
  for (int step = 0; step < 60; ++step) {
    const double kind = rng.uniform();
    const auto buyer = static_cast<BuyerId>(rng.uniform_int(0, N - 1));
    Response response;
    if (kind < 0.5) {
      response = server.handle(price_request(
          "m", buyer, static_cast<ChannelId>(rng.uniform_int(0, M - 1)),
          rng.uniform(0.0, 1.0)));
    } else if (kind < 0.7) {
      Request request = make_request(RequestType::kLeave, "m");
      request.buyer = buyer;
      response = server.handle(request);
    } else if (kind < 0.9) {
      Request request = make_request(RequestType::kJoin, "m");
      request.buyer = buyer;
      response = server.handle(request);
    } else {
      response = server.handle(solve_request("m", true));
    }
    ASSERT_TRUE(response.ok) << response.text;
  }
  ASSERT_TRUE(server.handle(solve_request("m", true)).ok);
}

// --- batching, dedup, backpressure ----------------------------------------

TEST(MatchServerTest, ManualDrainCoalescesAndDedupsColdSolves) {
  const auto scenario = random_scenario(17, 3, 8);
  ServeConfig config = test_config();
  config.manual_drain = true;
  MatchServer server(config);

  std::vector<Response> responses;
  const auto collect = [&responses](const Response& response) {
    responses.push_back(response);
  };
  // create is a barrier and answers inline even under manual drain.
  ASSERT_TRUE(server.submit(create_request("m", scenario), collect));
  ASSERT_EQ(responses.size(), 1u);

  ASSERT_TRUE(server.submit(price_request("m", 0, 0, 0.9), collect));
  ASSERT_TRUE(server.submit(solve_request("m", false), collect));
  ASSERT_TRUE(server.submit(solve_request("m", false), collect));
  ASSERT_TRUE(server.submit(solve_request("m", false), collect));
  EXPECT_EQ(responses.size(), 1u);  // nothing drained yet

  server.drain_pending_for_tests();
  ASSERT_EQ(responses.size(), 5u);
  // The three cold solves ran the engine once; all three lines identical.
  EXPECT_EQ(responses[2].text, responses[3].text);
  EXPECT_EQ(responses[2].text, responses[4].text);
  EXPECT_EQ(server.solves_deduped(), 2);
  EXPECT_GE(server.coalesced(), 3);
  // Responses are tagged with admission seqs in order.
  for (std::size_t r = 1; r < responses.size(); ++r)
    EXPECT_GT(responses[r].seq, responses[r - 1].seq);
}

TEST(MatchServerTest, RejectOverflowShedsBeyondCapacity) {
  const auto scenario = random_scenario(19, 2, 6);
  ServeConfig config = test_config();
  config.manual_drain = true;
  config.queue_capacity = 4;
  config.overflow = ServeConfig::Overflow::kReject;
  MatchServer server(config);
  ASSERT_TRUE(server.submit(create_request("m", scenario), nullptr));

  int admitted = 0;
  for (int r = 0; r < 10; ++r)
    if (server.submit(price_request("m", 0, 0, 0.5), nullptr)) ++admitted;
  EXPECT_EQ(admitted, 4);
  EXPECT_EQ(server.shed(), 6);
  server.drain_pending_for_tests();
  // Shed requests never reached the market's mutation counter.
  const Response stats = server.handle(make_request(RequestType::kStats, "m"));
  EXPECT_NE(stats.text.find("mutations=4"), std::string::npos) << stats.text;
}

// --- registry / LRU --------------------------------------------------------

TEST(MarketRegistryTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  // One scenario registered under three ids so every entry has the identical
  // byte footprint and the budget arithmetic is exact.
  const auto a = random_scenario(31, 2, 6);

  MarketRegistry probe(std::size_t{1} << 30);
  const std::size_t one = probe.create("a", a, 0, nullptr).bytes;

  // Room for two resident markets, not three.
  MarketRegistry registry(2 * one + one / 2);
  registry.create("a", a, 1, nullptr);
  registry.create("b", a, 2, nullptr);
  EXPECT_EQ(registry.size(), 2u);

  // Touch "a" so "b" is the LRU victim.
  ASSERT_NE(registry.find("a", 3), nullptr);
  std::vector<std::string> evicted;
  registry.create("c", a, 4, &evicted);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "b");
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.evictions(), 1);
  EXPECT_NE(registry.peek("a"), nullptr);
  EXPECT_EQ(registry.peek("b"), nullptr);
  EXPECT_NE(registry.peek("c"), nullptr);
}

TEST(MarketRegistryTest, OversizedMarketIsAdmittedAlone) {
  const auto a = random_scenario(41, 2, 6);
  const auto b = random_scenario(42, 3, 12);
  MarketRegistry registry(1);  // budget smaller than any market
  registry.create("a", a, 0, nullptr);
  EXPECT_EQ(registry.size(), 1u);
  std::vector<std::string> evicted;
  registry.create("b", b, 1, &evicted);
  // The newcomer is never evicted; the old entry goes.
  EXPECT_EQ(registry.size(), 1u);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], "a");
  EXPECT_NE(registry.peek("b"), nullptr);
}

TEST(MatchServerTest, ResidentAccountingTracksCreates) {
  const auto scenario = random_scenario(43, 3, 9);
  MatchServer server(test_config());
  EXPECT_EQ(server.resident_markets(), 0u);
  ASSERT_TRUE(server.handle(create_request("m", scenario)).ok);
  EXPECT_EQ(server.resident_markets(), 1u);
  EXPECT_GT(server.resident_bytes(), 0u);
  EXPECT_EQ(server.evictions(), 0);
}

// --- determinism across lanes ---------------------------------------------

std::vector<std::string> run_canned_stream(int lanes) {
  ServeConfig config = test_config();
  config.drain_lanes = lanes;
  MatchServer server(config);
  std::vector<std::string> transcript;

  const auto run = [&server, &transcript](Request request) {
    const Response response = server.handle(std::move(request));
    transcript.push_back(response.text);
  };
  run(create_request("x", random_scenario(51, 3, 10)));
  run(create_request("y", random_scenario(52, 4, 12)));
  run(solve_request("x", false));
  run(solve_request("y", false));
  Rng rng(500);
  for (int step = 0; step < 40; ++step) {
    const std::string id = rng.bernoulli(0.5) ? "x" : "y";
    const int n = id == "x" ? 10 : 12;
    const int m = id == "x" ? 3 : 4;
    if (rng.bernoulli(0.3)) {
      run(solve_request(id, rng.bernoulli(0.7)));
    } else {
      run(price_request(id,
                        static_cast<BuyerId>(rng.uniform_int(0, n - 1)),
                        static_cast<ChannelId>(rng.uniform_int(0, m - 1)),
                        rng.uniform(0.0, 1.0)));
    }
  }
  run(make_request(RequestType::kQuery, "x"));
  run(make_request(RequestType::kStats, "y"));
  server.drain();
  return transcript;
}

TEST(MatchServerTest, TranscriptsIdenticalAcrossDrainLanes) {
  const auto serial = run_canned_stream(1);
  const auto parallel = run_canned_stream(4);
  EXPECT_EQ(serial, parallel);
}

/// Two markets solved cold over and over, every request in flight at once,
/// so drain lanes solve both markets concurrently and each fans its engine
/// rounds out over the shared engine pool. Responses land in per-request
/// slots, so the transcript is in submission order whatever the timing.
std::vector<std::string> run_concurrent_cold_stream(int drain_lanes,
                                                    int engine_lanes) {
  const testutil::ScopedThreads engine(engine_lanes);
  ServeConfig config = test_config();
  config.drain_lanes = drain_lanes;
  MatchServer server(config);
  std::vector<std::string> transcript;
  transcript.push_back(
      server.handle(create_request("a", random_scenario(71, 6, 240))).text);
  transcript.push_back(
      server.handle(create_request("b", random_scenario(72, 5, 200))).text);
  std::vector<Request> requests;
  Rng rng(700);
  for (int step = 0; step < 12; ++step) {
    for (const auto& [id, m, n] :
         {std::tuple{"a", 6, 240}, std::tuple{"b", 5, 200}}) {
      requests.push_back(price_request(
          id, static_cast<BuyerId>(rng.uniform_int(0, n - 1)),
          static_cast<ChannelId>(rng.uniform_int(0, m - 1)),
          rng.uniform(0.0, 1.0)));
      requests.push_back(solve_request(id, false));
    }
  }
  std::vector<std::string> responses(requests.size());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    EXPECT_TRUE(server.submit(std::move(requests[r]),
                              [&responses, r](const Response& response) {
                                responses[r] = response.text;
                              }));
  }
  server.drain();
  transcript.insert(transcript.end(), responses.begin(), responses.end());
  return transcript;
}

TEST(MatchServerTest, ConcurrentColdSolvesIdenticalAcrossEngineLanes) {
  const auto reference = run_concurrent_cold_stream(1, 1);
  EXPECT_EQ(run_concurrent_cold_stream(4, 1), reference);
  EXPECT_EQ(run_concurrent_cold_stream(4, 4), reference);
}

TEST(MatchServerTest, EveryDrainLaneDrainsConcurrently) {
  // k drain lanes must drain k markets at once. Each market gets one stats
  // request, answered from inside its drain, and every callback waits at a
  // rendezvous until all k have arrived. A server that drains fewer than k
  // markets at a time misses it: the wait times out and `met` stays short.
  for (int lanes : {1, 2, 3}) {
    SCOPED_TRACE(testing::Message() << "drain lanes " << lanes);
    ServeConfig config = test_config();
    config.drain_lanes = lanes;
    MatchServer server(config);
    for (int m = 0; m < lanes; ++m)
      ASSERT_TRUE(server
                      .handle(create_request(
                          std::string("m").append(std::to_string(m)),
                          random_scenario(90 + static_cast<std::uint64_t>(m),
                                          2, 6)))
                      .ok);
    std::mutex mutex;
    std::condition_variable arrivals;
    int arrived = 0;
    int met = 0;
    for (int m = 0; m < lanes; ++m) {
      ASSERT_TRUE(server.submit(
          make_request(RequestType::kStats,
                       std::string("m").append(std::to_string(m))),
          [&](const Response&) {
            std::unique_lock<std::mutex> lock(mutex);
            ++arrived;
            arrivals.notify_all();
            if (arrivals.wait_for(lock, std::chrono::seconds(10),
                                  [&] { return arrived == lanes; }))
              ++met;
          }));
    }
    server.drain();
    EXPECT_EQ(met, lanes);
  }
}

// --- zero-allocation steady state -----------------------------------------

/// (drain lanes, engine lanes): the contract must hold at any lane count, so
/// the second value is forced to at least 2 lanes even on a 1-core host.
class SteadyStateAllocTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SteadyStateAllocTest, SteadyStateServingIsAllocationFree) {
  const auto [drain_lanes, engine_lanes] = GetParam();
  const testutil::ScopedThreads engine(engine_lanes);
  alloc_count::set_counting(true);
  {
    const auto scenario = random_scenario(61, 4, 24);
    ServeConfig config = test_config();
    config.drain_lanes = drain_lanes;
    config.check_warm = false;  // stability analysers are not alloc-free
    MatchServer server(config);
    ASSERT_TRUE(server.handle(create_request("m", scenario)).ok);
    ASSERT_TRUE(server.handle(solve_request("m", false)).ok);
    Rng rng(88);
    for (int step = 0; step < 20; ++step) {
      ASSERT_TRUE(
          server
              .handle(price_request(
                  "m", static_cast<BuyerId>(rng.uniform_int(0, 23)),
                  static_cast<ChannelId>(rng.uniform_int(0, 3)),
                  rng.uniform(0.0, 1.0)))
              .ok);
      ASSERT_TRUE(server.handle(solve_request("m", step % 2 == 0)).ok);
    }
    EXPECT_EQ(server.steady_allocs(), 0)
        << "resident-workspace serving allocated in steady-state rounds";
  }
  alloc_count::set_counting(false);
}

INSTANTIATE_TEST_SUITE_P(
    LaneGrid, SteadyStateAllocTest,
    ::testing::Combine(::testing::Values(1, testutil::contract_lanes()),
                       ::testing::Values(1, testutil::contract_lanes())),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "drain" + std::to_string(std::get<0>(info.param)) + "_engine" +
             std::to_string(std::get<1>(info.param));
    });

// --- the wire: format_request / RequestReader line offsets ------------------

TEST(ServeProtocolTest, FormatRequestRoundTripsEveryKind) {
  const auto scenario = random_scenario(7, 2, 5);
  std::vector<Request> originals;
  originals.push_back(create_request("m", scenario));
  Request join = make_request(RequestType::kJoin, "m");
  join.buyer = 3;
  originals.push_back(join);
  Request leave = make_request(RequestType::kLeave, "m");
  leave.buyer = 1;
  originals.push_back(leave);
  originals.push_back(price_request("m", 2, 1, 0.125));
  originals.push_back(solve_request("m", false));
  originals.push_back(solve_request("m", true));
  originals.push_back(make_request(RequestType::kQuery, "m"));
  originals.push_back(make_request(RequestType::kStats, "m"));

  std::string wire;
  for (const Request& request : originals) wire += format_request(request);

  std::istringstream in(wire);
  RequestReader reader(in);
  Request parsed;
  for (const Request& original : originals) {
    ASSERT_TRUE(reader.next(parsed));
    EXPECT_EQ(parsed.type, original.type);
    EXPECT_EQ(parsed.market_id, original.market_id);
    EXPECT_EQ(parsed.buyer, original.buyer);
    EXPECT_EQ(parsed.channel, original.channel);
    EXPECT_EQ(parsed.value, original.value);
    EXPECT_EQ(parsed.warm, original.warm);
    if (original.scenario != nullptr) {
      ASSERT_NE(parsed.scenario, nullptr);
      EXPECT_EQ(parsed.scenario->utilities, original.scenario->utilities);
    }
  }
  EXPECT_FALSE(reader.next(parsed));
}

TEST(ServeProtocolTest, ReaderLineOffsetKeepsAbsoluteLineNumbers) {
  // A socket session parses each frame from a fresh stream; the offset keeps
  // ProtocolError line numbers absolute within the connection.
  std::istringstream in("join m 1\nfrobnicate m\n");
  RequestReader reader(in, 10);  // 10 lines already consumed
  Request request;
  ASSERT_TRUE(reader.next(request));
  EXPECT_EQ(reader.line(), 11);
  try {
    reader.next(request);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.line(), 12);
    EXPECT_NE(std::string(e.what()).find("line 12"), std::string::npos);
  }
}

TEST(ServeProtocolTest, TruncatedEmbeddedCreateThrowsAtEof) {
  // The net server's framing heuristic relies on this: a create whose
  // embedded scenario is cut off at the end of the available bytes throws
  // with the stream at EOF (more bytes might complete it), while junk in
  // the middle of complete lines throws without EOF.
  std::string wire = format_request(create_request("m", random_scenario(8, 2, 4)));
  wire.resize(wire.size() - 20);
  std::istringstream in(wire);
  RequestReader reader(in);
  Request request;
  EXPECT_THROW((void)reader.next(request), ProtocolError);
  EXPECT_TRUE(in.eof());
}

/// A create frame whose scenario claims 10^18 reserve prices but carries
/// two: the claimed count must never size an allocation.
const char* const kInflatedCreate =
    "create big\n"
    "specmatch-scenario v1\n"
    "sellers 2\n1 1\n"
    "buyers 3\n1 1 1\n"
    "locations\n0 0\n1 0\n5 0\n"
    "ranges 2\n2 2\n"
    "reserves 1000000000000000000\n0.1 0.1\n"
    "utilities 2 3\n0.9 0.4 0.7\n0.3 0.8 0.6\n";

TEST(ServeProtocolTest, InflatedScenarioCountIsAProtocolError) {
  std::istringstream in(kInflatedCreate);
  RequestReader reader(in);
  Request request;
  try {
    (void)reader.next(request);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("channel reserves"),
              std::string::npos)
        << e.what();
  }
}

// --- the TCP front-end ------------------------------------------------------

/// A NetServer over a 1-lane MatchServer, event loop on its own thread,
/// shut down (gracefully) on destruction.
struct NetHarness {
  explicit NetHarness(ServeConfig serve_config = test_config(),
                      NetConfig net_config = NetConfig{})
      : server(serve_config), net(server, net_config) {
    port = net.listen_on_loopback();
    loop = std::thread([this] { net.run(); });
  }
  ~NetHarness() { shutdown(); }

  /// Graceful drain + join. NetStats reads are only race-free after this
  /// (the event loop owns stats_ while it runs).
  void shutdown() {
    if (loop.joinable()) {
      net.request_shutdown();
      loop.join();
    }
  }

  MatchServer server;
  NetServer net;
  std::thread loop;
  int port = 0;
};

std::string scenario_wire(const std::string& id, std::uint64_t seed) {
  return format_request(create_request(id, random_scenario(seed, 2, 4)));
}

TEST(NetServerTest, RoundTripOverSocket) {
  NetHarness harness;
  auto conn = ClientConnection::connect_loopback(harness.port);
  conn.send_all(scenario_wire("m", 11));
  conn.send_all("solve m cold\nquery m\n");
  conn.half_close();

  std::string line;
  ASSERT_TRUE(conn.read_line(line));
  EXPECT_EQ(line.rfind("ok create m ", 0), 0u) << line;
  ASSERT_TRUE(conn.read_line(line));
  EXPECT_EQ(line.rfind("ok solve m cold ", 0), 0u) << line;
  ASSERT_TRUE(conn.read_line(line));
  EXPECT_EQ(line.rfind("ok query m ", 0), 0u) << line;
  EXPECT_FALSE(conn.read_line(line)) << "expected clean EOF, got: " << line;

  harness.shutdown();
  const NetStats stats = harness.net.stats();
  EXPECT_EQ(stats.requests, 3);
  EXPECT_EQ(stats.responses, 3);
  EXPECT_EQ(stats.accepted, 1);
}

TEST(NetServerTest, PipelinedResponsesArriveInSeqOrder) {
  ServeConfig config = test_config();
  config.drain_lanes = 4;  // out-of-order completions exercise the reorder
  NetHarness harness(config);
  auto conn = ClientConnection::connect_loopback(harness.port);

  std::string burst = scenario_wire("m", 12);
  constexpr int kRounds = 20;
  for (int i = 0; i < kRounds; ++i) {
    burst += "price m 1 0 0." + std::to_string(10 + i) + "\n";
    burst += "solve m warm\n";
  }
  conn.send_all(burst);
  conn.half_close();

  std::string line;
  ASSERT_TRUE(conn.read_line(line));
  EXPECT_EQ(line.rfind("ok create m ", 0), 0u) << line;
  for (int i = 0; i < kRounds; ++i) {
    ASSERT_TRUE(conn.read_line(line));
    EXPECT_EQ(line.rfind("ok price m 1 0 ", 0), 0u) << "round " << i << ": "
                                                    << line;
    ASSERT_TRUE(conn.read_line(line));
    EXPECT_EQ(line.rfind("ok solve m warm ", 0), 0u) << "round " << i << ": "
                                                     << line;
  }
  EXPECT_FALSE(conn.read_line(line)) << "expected clean EOF, got: " << line;
}

TEST(NetServerTest, TruncatedCreateAtEofReportsConnAndSeq) {
  NetHarness harness;
  auto conn = ClientConnection::connect_loopback(harness.port);
  // A create whose embedded scenario is cut off mid-block, then EOF.
  conn.send_all("create m\nspecmatch-scenario v1\nsellers 2\n");
  conn.half_close();

  std::string line;
  ASSERT_TRUE(conn.read_line(line));
  EXPECT_EQ(line.rfind("err! protocol conn=", 0), 0u) << line;
  EXPECT_NE(line.find(" seq=0:"), std::string::npos) << line;
  EXPECT_FALSE(conn.read_line(line)) << "expected EOF after fatal: " << line;
  harness.shutdown();
  EXPECT_EQ(harness.net.stats().protocol_errors, 1);
}

TEST(NetServerTest, OversizedLineIsAProtocolError) {
  NetConfig net_config;
  net_config.max_line_bytes = 128;
  NetHarness harness(test_config(), net_config);
  auto conn = ClientConnection::connect_loopback(harness.port);
  conn.send_all(std::string(300, 'x'));  // no newline, past the limit

  std::string line;
  ASSERT_TRUE(conn.read_line(line));
  EXPECT_EQ(line.rfind("err! protocol conn=", 0), 0u) << line;
  EXPECT_NE(line.find("oversized line"), std::string::npos) << line;
  EXPECT_FALSE(conn.read_line(line)) << "expected EOF after fatal: " << line;
}

TEST(NetServerTest, JunkMidSessionStillAnswersEarlierRequests) {
  NetHarness harness;
  auto conn = ClientConnection::connect_loopback(harness.port);
  conn.send_all(scenario_wire("m", 13));
  conn.send_all("solve m cold\nfrobnicate m\nquery m\n");
  conn.half_close();

  // Everything admitted before the junk frame is answered, in order, then
  // the fatal line names the poisoned slot; the trailing query is never
  // answered.
  std::string line;
  ASSERT_TRUE(conn.read_line(line));
  EXPECT_EQ(line.rfind("ok create m ", 0), 0u) << line;
  ASSERT_TRUE(conn.read_line(line));
  EXPECT_EQ(line.rfind("ok solve m cold ", 0), 0u) << line;
  ASSERT_TRUE(conn.read_line(line));
  EXPECT_EQ(line.rfind("err! protocol conn=", 0), 0u) << line;
  EXPECT_NE(line.find(" seq=2:"), std::string::npos) << line;
  EXPECT_NE(line.find("frobnicate"), std::string::npos) << line;
  EXPECT_FALSE(conn.read_line(line)) << "expected EOF after fatal: " << line;
}

TEST(NetServerTest, InflatedScenarioCountAnswersErrAndKeepsServing) {
  NetHarness harness;
  std::string line;
  {
    auto conn = ClientConnection::connect_loopback(harness.port);
    conn.send_all(kInflatedCreate);
    conn.half_close();
    ASSERT_TRUE(conn.read_line(line));
    EXPECT_EQ(line.rfind("err! protocol conn=", 0), 0u) << line;
    EXPECT_NE(line.find("channel reserves"), std::string::npos) << line;
    EXPECT_FALSE(conn.read_line(line)) << "expected EOF after fatal: " << line;
  }
  // The server survived: a fresh connection is served normally.
  auto conn = ClientConnection::connect_loopback(harness.port);
  conn.send_all(scenario_wire("m", 14));
  conn.send_all("solve m cold\n");
  conn.half_close();
  ASSERT_TRUE(conn.read_line(line));
  EXPECT_EQ(line.rfind("ok create m ", 0), 0u) << line;
  ASSERT_TRUE(conn.read_line(line));
  EXPECT_EQ(line.rfind("ok solve m cold ", 0), 0u) << line;
  harness.shutdown();
  EXPECT_EQ(harness.net.stats().protocol_errors, 1);
}

TEST(NetServerTest, RejectOverflowShedsInline) {
  ServeConfig config = test_config();
  config.manual_drain = true;  // nothing drains: the queue fills immediately
  config.queue_capacity = 1;
  config.overflow = ServeConfig::Overflow::kReject;
  NetHarness harness(config);
  auto conn = ClientConnection::connect_loopback(harness.port);
  conn.send_all("query m\nquery m\nquery m\n");
  conn.half_close();

  // With capacity 1 and no draining, requests past the first are shed the
  // moment they parse. Their inline answers still respect seq order, so
  // nothing reaches the wire until the parked first request is released.
  while (harness.server.shed() < 2) {
    std::this_thread::yield();
  }
  harness.server.drain_pending_for_tests();

  std::string line;
  ASSERT_TRUE(conn.read_line(line));
  EXPECT_EQ(line, "err query m: unknown market") << line;
  ASSERT_TRUE(conn.read_line(line));
  EXPECT_EQ(line, "err query m: shed (admission queue full)") << line;
  ASSERT_TRUE(conn.read_line(line));
  EXPECT_EQ(line, "err query m: shed (admission queue full)") << line;
  EXPECT_FALSE(conn.read_line(line));
  harness.shutdown();
  EXPECT_EQ(harness.net.stats().shed_inline, 2);
}

TEST(NetServerTest, ReplayClientReturnsTranscriptInRequestOrder) {
  NetHarness harness;
  std::vector<Request> requests;
  requests.push_back(create_request("a", random_scenario(21, 2, 4)));
  requests.push_back(create_request("b", random_scenario(22, 2, 4)));
  requests.push_back(solve_request("a", false));
  requests.push_back(solve_request("b", false));
  requests.push_back(make_request(RequestType::kQuery, "a"));
  requests.push_back(make_request(RequestType::kStats, "b"));

  const ReplayResult result =
      replay_over_network(harness.port, requests, /*conns=*/3);
  ASSERT_EQ(result.transcript.size(), requests.size());
  EXPECT_EQ(result.transcript[0].rfind("ok create a ", 0), 0u);
  EXPECT_EQ(result.transcript[1].rfind("ok create b ", 0), 0u);
  EXPECT_EQ(result.transcript[2].rfind("ok solve a cold ", 0), 0u);
  EXPECT_EQ(result.transcript[3].rfind("ok solve b cold ", 0), 0u);
  EXPECT_EQ(result.transcript[4].rfind("ok query a ", 0), 0u);
  EXPECT_EQ(result.transcript[5].rfind("ok stats b ", 0), 0u);
  EXPECT_GT(result.bytes_sent, 0);
}

}  // namespace
}  // namespace specmatch::serve
