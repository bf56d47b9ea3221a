#include "workload/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "matching/two_stage.hpp"
#include "workload/generator.hpp"

namespace specmatch::workload {
namespace {

market::Scenario sample_scenario(std::uint64_t seed = 3) {
  Rng rng(seed);
  WorkloadParams params;
  params.num_sellers = 3;
  params.num_buyers = 6;
  params.min_channels_per_seller = 1;
  params.max_channels_per_seller = 2;
  params.min_demand_per_buyer = 1;
  params.max_demand_per_buyer = 2;
  return generate_scenario(params, rng);
}

TEST(ScenarioIoTest, RoundTripsExactly) {
  const auto original = sample_scenario();
  std::stringstream buffer;
  save_scenario(buffer, original);
  const auto loaded = load_scenario(buffer);
  EXPECT_EQ(loaded.seller_channel_counts, original.seller_channel_counts);
  EXPECT_EQ(loaded.buyer_demands, original.buyer_demands);
  ASSERT_EQ(loaded.buyer_locations.size(), original.buyer_locations.size());
  for (std::size_t i = 0; i < loaded.buyer_locations.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.buyer_locations[i].x,
                     original.buyer_locations[i].x);
    EXPECT_DOUBLE_EQ(loaded.buyer_locations[i].y,
                     original.buyer_locations[i].y);
  }
  EXPECT_EQ(loaded.channel_ranges, original.channel_ranges);
  EXPECT_EQ(loaded.utilities, original.utilities);
}

TEST(ScenarioIoTest, RoundTripPreservesMatchingOutcome) {
  const auto original = sample_scenario(11);
  std::stringstream buffer;
  save_scenario(buffer, original);
  const auto loaded = load_scenario(buffer);
  const auto a = matching::run_two_stage(market::build_market(original));
  const auto b = matching::run_two_stage(market::build_market(loaded));
  EXPECT_EQ(a.final_matching(), b.final_matching());
  EXPECT_DOUBLE_EQ(a.welfare_final, b.welfare_final);
}

TEST(ScenarioIoTest, FileRoundTrip) {
  const auto original = sample_scenario(17);
  const std::string path = "/tmp/specmatch_io_test.scenario";
  save_scenario_file(path, original);
  const auto loaded = load_scenario_file(path);
  EXPECT_EQ(loaded.utilities, original.utilities);
  std::remove(path.c_str());
}

TEST(ScenarioIoTest, MissingHeaderIsRejected) {
  std::stringstream buffer("not-a-scenario\n");
  EXPECT_THROW((void)load_scenario(buffer), ScenarioParseError);
}

TEST(ScenarioIoTest, TruncatedSectionsAreRejected) {
  const auto original = sample_scenario();
  std::stringstream buffer;
  save_scenario(buffer, original);
  const std::string full = buffer.str();
  // Progressively truncate through every section boundary.
  // (drop at least one whole serialised double at the tail: doubles are
  // printed with max_digits10, so 40 bytes always spans one)
  for (std::size_t keep :
       {full.size() / 8, full.size() / 4, full.size() / 2,
        full.size() - 40}) {
    std::stringstream cut(full.substr(0, keep));
    EXPECT_THROW((void)load_scenario(cut), ScenarioParseError)
        << "kept " << keep << " bytes";
  }
}

TEST(ScenarioIoTest, CorruptCountsAreRejected) {
  std::stringstream buffer;
  buffer << "specmatch-scenario v1\n"
         << "sellers 0\n";
  EXPECT_THROW((void)load_scenario(buffer), ScenarioParseError);

  std::stringstream buffer2;
  buffer2 << "specmatch-scenario v1\n"
          << "buyers 2\n";  // wrong keyword order
  EXPECT_THROW((void)load_scenario(buffer2), ScenarioParseError);
}

TEST(ScenarioIoTest, SemanticallyInvalidScenarioIsRejected) {
  // Structure parses but ranges are non-positive -> validate() must veto.
  std::stringstream buffer;
  buffer << "specmatch-scenario v1\n"
         << "sellers 1\n1\n"
         << "buyers 1\n1\n"
         << "locations\n0 0\n"
         << "ranges 1\n0\n"
         << "utilities 1 1\n0.5\n";
  EXPECT_THROW((void)load_scenario(buffer), ScenarioParseError);
}

/// Parses `input`, expecting a ScenarioParseError; returns the error.
ScenarioParseError expect_parse_error(const std::string& input) {
  std::stringstream buffer(input);
  try {
    (void)load_scenario(buffer);
  } catch (const ScenarioParseError& e) {
    return e;
  }
  ADD_FAILURE() << "input parsed without error:\n" << input;
  return ScenarioParseError("unreached");
}

TEST(ScenarioIoTest, ErrorsCarryTheOffendingLineNumber) {
  // Bad magic: attributed to line 1.
  EXPECT_EQ(expect_parse_error("not-a-scenario\n").line(), 1);

  // Wrong keyword where 'buyers' belongs: line 4 (counts span line 3).
  const auto wrong_keyword = expect_parse_error(
      "specmatch-scenario v1\n"
      "sellers 2\n"
      "1 1\n"
      "ranges 2\n");
  EXPECT_EQ(wrong_keyword.line(), 4);
  EXPECT_NE(std::string(wrong_keyword.what()).find("(line 4)"),
            std::string::npos);

  // Truncated utilities: the error points at the last line seen.
  const auto truncated = expect_parse_error(
      "specmatch-scenario v1\n"
      "sellers 1\n1\n"
      "buyers 1\n1\n"
      "locations\n0 0\n"
      "ranges 1\n2\n"
      "utilities 1 1\n");
  EXPECT_EQ(truncated.line(), 10);
}

TEST(ScenarioIoTest, DuplicatedReservesSectionIsRejected) {
  const auto error = expect_parse_error(
      "specmatch-scenario v1\n"
      "sellers 1\n1\n"
      "buyers 1\n1\n"
      "locations\n0 0\n"
      "ranges 1\n2\n"
      "reserves 1\n0.1\n"
      "reserves 1\n0.2\n"
      "utilities 1 1\n0.5\n");
  EXPECT_NE(std::string(error.what()).find("duplicate 'reserves'"),
            std::string::npos);
  EXPECT_EQ(error.line(), 12);
}

TEST(ScenarioIoTest, TrailingValuesInASectionAreRejected) {
  // One value too many in the seller counts: caught when the next section
  // header is expected, attributed to the line holding the extra token.
  const auto extra = expect_parse_error(
      "specmatch-scenario v1\n"
      "sellers 1\n"
      "1 7\n"
      "buyers 1\n1\n"
      "locations\n0 0\n"
      "ranges 1\n2\n"
      "utilities 1 1\n0.5\n");
  EXPECT_NE(std::string(extra.what()).find("trailing values"),
            std::string::npos);
  EXPECT_EQ(extra.line(), 3);

  // Extra token after the last utility value.
  const auto tail = expect_parse_error(
      "specmatch-scenario v1\n"
      "sellers 1\n1\n"
      "buyers 1\n1\n"
      "locations\n0 0\n"
      "ranges 1\n2\n"
      "utilities 1 1\n0.5 0.9\n");
  EXPECT_NE(std::string(tail.what()).find("after the utility matrix"),
            std::string::npos);
}

TEST(ScenarioIoTest, MalformedValuesNameTheSectionAndLine) {
  const auto error = expect_parse_error(
      "specmatch-scenario v1\n"
      "sellers 1\n1\n"
      "buyers 1\n1\n"
      "locations\nx y\n"
      "ranges 1\n2\n"
      "utilities 1 1\n0.5\n");
  EXPECT_NE(std::string(error.what()).find("buyer locations"),
            std::string::npos);
  EXPECT_EQ(error.line(), 7);
}

TEST(ScenarioIoTest, MidStreamLoadReportsOffsetLinesAndConsumption) {
  const auto original = sample_scenario(23);
  std::stringstream buffer;
  buffer << "request preamble line\n";
  save_scenario(buffer, original);
  std::string discard;
  std::getline(buffer, discard);  // consume the preamble, scenario follows
  int consumed = 0;
  const auto loaded = load_scenario(buffer, 1, &consumed);
  EXPECT_EQ(loaded.utilities, original.utilities);
  EXPECT_GT(consumed, 0);

  // Same embedding, truncated: the reported line is in outer coordinates.
  std::stringstream full;
  save_scenario(full, original);
  const std::string text = full.str();
  std::stringstream cut(text.substr(0, text.size() - 40));
  try {
    (void)load_scenario(cut, 10, nullptr);
    ADD_FAILURE() << "truncated scenario parsed";
  } catch (const ScenarioParseError& e) {
    EXPECT_GT(e.line(), 10);
  }
}

TEST(ScenarioIoTest, MidStreamJunkBytesKeepOffsetCoordinates) {
  // Junk (not truncation) inside an embedded scenario: the error must still
  // come back in outer-stream line coordinates, since that is what a
  // networked session reports to the peer (serve/net_server.cpp hands its
  // per-connection line offset down through RequestReader).
  workload::WorkloadParams params;
  params.num_sellers = 2;
  params.num_buyers = 4;
  Rng rng(9);
  const auto original = generate_scenario(params, rng);
  std::stringstream full;
  save_scenario(full, original);
  std::string text = full.str();
  const std::size_t pos = text.find("utilities");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 9, "garbage!!");
  std::stringstream corrupt(text);
  try {
    (void)load_scenario(corrupt, 100, nullptr);
    ADD_FAILURE() << "corrupt scenario parsed";
  } catch (const ScenarioParseError& e) {
    EXPECT_GT(e.line(), 100) << e.what();
  }
}

TEST(ScenarioIoTest, InflatedCountsFailWithoutAllocatingThem) {
  // Every count below claims far more values than the input holds (or a
  // matrix larger than the address space); each must fail as a parse error,
  // with memory bounded by the values actually present.
  const std::string head =
      "specmatch-scenario v1\n"
      "sellers 1\n1\n"
      "buyers 2\n1 1\n"
      "locations\n0 0\n1 0\n"
      "ranges 1\n2\n";
  const std::string matrix = "utilities 1 2\n0.5 0.6\n";
  for (const std::string& input : std::vector<std::string>{
           head + "reserves 1000000000000000000\n0.1\n" + matrix,
           head + "reserves 9223372036854775808\n0.1\n" + matrix,
           "specmatch-scenario v1\nsellers 2147483647\n1\n",
           "specmatch-scenario v1\nsellers 1\n1\nbuyers 2147483647\n1\n",
           head.substr(0, head.find("ranges")) + "ranges 2147483647\n2\n" +
               matrix,
           head + "utilities 1000000000000000000 1000000000000000000\n0.5\n",
           head + "utilities 18446744073709551615 2\n0.5\n",
           head + "utilities 4294967296 4294967296\n0.5\n",
           head + "utilities 1 3000000000\n0.5\n",
       }) {
    const ScenarioParseError error = expect_parse_error(input);
    EXPECT_GT(error.line(), 0) << input;
  }
}

TEST(ScenarioIoTest, NegativeHeaderCountsNameTheirHeader) {
  // A '-' count fails as negative, naming its header, instead of wrapping
  // to 2^64 - 1 and failing with another section's message.
  const std::string head =
      "specmatch-scenario v1\n"
      "sellers 1\n1\n"
      "buyers 1\n1\n"
      "locations\n0 0\n"
      "ranges 1\n2\n";
  const struct {
    std::string header;
    std::string named;
  } cases[] = {
      {"reserves -1\n0.1\nutilities 1 1\n0.5\n", "'reserves <count>'"},
      {"utilities -1 1\n0.5\n", "'utilities <M> <N>'"},
      {"utilities 1 -1\n0.5\n", "'utilities <M> <N>'"},
  };
  for (const auto& c : cases) {
    const ScenarioParseError error = expect_parse_error(head + c.header);
    const std::string what = error.what();
    EXPECT_NE(what.find("negative count '-1'"), std::string::npos) << what;
    EXPECT_NE(what.find(c.named), std::string::npos) << what;
    EXPECT_EQ(error.line(), 10) << what;
  }
}

/// The token parser against `std::istringstream >>`, the reader it
/// replaced: the same accept/reject verdict and, on accept, the same bits.
template <typename T>
void expect_parses_like_a_stream(const std::string& token) {
  T streamed{};
  std::istringstream ss(token);
  ss >> streamed;
  const bool stream_accepts = !ss.fail() && ss.eof();
  T parsed{};
  const bool accepts = parse_token(token, parsed);
  EXPECT_EQ(accepts, stream_accepts) << "token '" << token << "'";
  if (accepts && stream_accepts) {
    EXPECT_EQ(std::memcmp(&parsed, &streamed, sizeof(T)), 0)
        << "token '" << token << "': " << parsed << " vs " << streamed;
  }
}

TEST(ScenarioIoTest, TokenParserMatchesTheStreamReader) {
  const std::vector<std::string> tokens = {
      // Signs, zeros and plain values.
      "5", "+5", "-5", "-0", "+0", "0", "007", "+-5", "-+5", "++5", "--5",
      "+", "-", "",
      // Fractions and exponents; an int stops at the '.' or 'e'.
      "5.0", "5.", ".5", "-.5", "+.5", ".", "1e5", "1E5", "1e+5", "1e-5",
      "1e", "1e+", "2.5e3", "0.1", "0.30000000000000004",
      "0.12345678901234567890123456789",
      // Spellings the stream never reads.
      "inf", "-inf", "+inf", "infinity", "nan", "-nan", "nan(1)", "0x1p3",
      "0x10", "1,5", "1_000", "1.5x", "x1.5", "5 ",
      // Range edges: int overflow, double overflow, underflow, denormals.
      "2147483647", "2147483648", "-2147483648", "-2147483649",
      "99999999999999999999", "1e308", "1.7976931348623157e308", "1e309",
      "1e400", "-1e400", "2.2250738585072014e-308", "4.9406564584124654e-324",
      "5e-324", "3e-324", "2e-324", "1e-320", "1e-400", "-1e-400"};
  for (const std::string& token : tokens) {
    expect_parses_like_a_stream<int>(token);
    expect_parses_like_a_stream<double>(token);
  }
  // Every double the writer emits reads back bit for bit.
  for (const double value : {0.1, 1.0 / 3.0, 4.25, 1e-310,
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::denorm_min()}) {
    std::ostringstream out;
    out << std::setprecision(std::numeric_limits<double>::max_digits10)
        << value;
    expect_parses_like_a_stream<double>(out.str());
    double parsed = 0.0;
    ASSERT_TRUE(parse_token(out.str(), parsed)) << out.str();
    EXPECT_EQ(parsed, value);
  }
}

TEST(ScenarioIoTest, MissingFileIsRejected) {
  EXPECT_THROW((void)load_scenario_file("/nonexistent/path.scenario"),
               ScenarioParseError);
}

}  // namespace
}  // namespace specmatch::workload
