#include "matching/export_dot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "common/check.hpp"
#include "matching/paper_examples.hpp"
#include "matching/two_stage.hpp"

namespace specmatch::matching {
namespace {

TEST(ExportDotTest, ChannelGraphContainsAllVerticesAndEdges) {
  const auto market = toy_example();
  std::ostringstream os;
  write_channel_dot(os, market, 1);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("graph channel_1"), std::string::npos);
  for (BuyerId j = 0; j < market.num_buyers(); ++j)
    EXPECT_NE(dot.find(std::string("b").append(std::to_string(j)).append(" [")),
              std::string::npos);
  // Channel b's edges in the toy example: 1-3, 2-3, 3-4 (paper numbering),
  // 0-based 0-2, 1-2, 2-3.
  EXPECT_NE(dot.find("b0 -- b2"), std::string::npos);
  EXPECT_NE(dot.find("b1 -- b2"), std::string::npos);
  EXPECT_NE(dot.find("b2 -- b3"), std::string::npos);
  // Balanced braces -> at least syntactically plausible DOT.
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

TEST(ExportDotTest, ChannelOutOfRangeThrows) {
  const auto market = toy_example();
  std::ostringstream os;
  EXPECT_THROW(write_channel_dot(os, market, 3), CheckError);
  EXPECT_THROW(write_channel_dot(os, market, -1), CheckError);
}

TEST(ExportDotTest, MatchingExportClustersSellersAndMarksUnmatched) {
  const auto market = toy_example();
  auto matching = Matching(3, 5);
  matching.match(0, 2);
  matching.match(3, 0);
  std::ostringstream os;
  write_matching_dot(os, market, matching);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("cluster_seller_0"), std::string::npos);
  EXPECT_NE(dot.find("cluster_seller_2"), std::string::npos);
  EXPECT_NE(dot.find("unmatched"), std::string::npos);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
}

TEST(ExportDotTest, FullPipelineOutputIsNonTrivial) {
  const auto market = counter_example();
  const auto result = run_two_stage(market);
  std::ostringstream os;
  write_matching_dot(os, market, result.final_matching());
  EXPECT_GT(os.str().size(), 500u);
  // Every matched buyer appears inside some cluster.
  for (BuyerId j = 0; j < market.num_buyers(); ++j)
    EXPECT_NE(os.str().find(std::string("b").append(std::to_string(j))),
              std::string::npos);
}

}  // namespace
}  // namespace specmatch::matching
