// Parent-level market description and its dummy virtualisation (§II-A).
//
// Seller i owning m_i channels becomes m_i virtual sellers (one channel
// each); buyer j demanding n_j channels becomes n_j virtual buyers. Dummies
// of the same parent buyer interfere on *every* channel so they can never be
// matched to the same one.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/generators.hpp"
#include "market/market.hpp"

namespace specmatch::market {

struct Scenario {
  /// m_i: number of channels each parent seller offers (all >= 1).
  std::vector<int> seller_channel_counts;
  /// n_j: number of channels each parent buyer demands (all >= 1).
  std::vector<int> buyer_demands;
  /// Location of each parent buyer in the deployment area; all dummies of a
  /// parent share its location.
  std::vector<graph::Point> buyer_locations;
  /// Transmission range of each *virtual* channel, size M = sum m_i.
  std::vector<double> channel_ranges;
  /// b_{i,j} for every virtual channel i and virtual buyer j, channel-major:
  /// utilities[i * N + j], size M * N with N = sum n_j.
  std::vector<double> utilities;
  /// Optional per-channel seller reserve prices (extension): a buyer can
  /// only trade on channel i if b_{i,j} > reserve. Empty = all zero.
  std::vector<double> channel_reserves;

  int num_channels() const;        ///< M = sum m_i
  int num_virtual_buyers() const;  ///< N = sum n_j

  /// Parent index of each virtual buyer, size N.
  std::vector<int> virtual_buyer_parents() const;
  /// Parent index of each virtual seller/channel, size M.
  std::vector<int> virtual_seller_parents() const;

  /// Throws CheckError if sizes are inconsistent, or a location or range is
  /// not finite, or the locations span more than a double holds.
  void validate() const;
};

/// Expands the scenario into a SpectrumMarket: builds one geometric
/// interference graph per channel, from buyer
/// locations and the channel's transmission range. Same-parent dummies share
/// a location, so every channel links them; that is checked, not added.
SpectrumMarket build_market(const Scenario& scenario);

}  // namespace specmatch::market
