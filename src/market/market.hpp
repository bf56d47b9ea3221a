// SpectrumMarket: the virtualised market the algorithms operate on.
//
// M virtual sellers (one channel each), N virtual buyers, the price matrix
// b_{i,j} (a buyer's utility for a channel doubles as her offered price,
// §II-A), and one interference graph per channel. Immutable once built.
#pragma once

#include <span>
#include <vector>

#include "common/ids.hpp"
#include "graph/interference_graph.hpp"

namespace specmatch::market {

class SpectrumMarket {
 public:
  /// `prices` is channel-major: prices[i * N + j] = b_{i,j}. `graphs` holds
  /// one interference graph per channel, each over N vertices. Parent maps
  /// default to the identity (every virtual participant is its own parent).
  /// `reserves` (one per channel; empty = all zero) are seller reserve
  /// prices: a buyer participates on channel i only if b_{i,j} > reserve_i.
  SpectrumMarket(int num_channels, int num_buyers, std::vector<double> prices,
                 std::vector<graph::InterferenceGraph> graphs,
                 std::vector<int> buyer_parents = {},
                 std::vector<int> seller_parents = {},
                 std::vector<double> reserves = {});

  int num_channels() const { return num_channels_; }  ///< M
  int num_buyers() const { return num_buyers_; }      ///< N

  /// b_{i,j}: buyer j's utility for (= price offered on) channel i.
  double utility(ChannelId i, BuyerId j) const {
    return prices_[index(i, j)];
  }

  /// Overwrites b_{i,j} in place. The one sanctioned mutation of a built
  /// market: the serving layer keeps markets resident and applies
  /// price-update / join / leave batches by rewriting price cells (join and
  /// leave mask a buyer by zeroing her column, the dynamics/epochs trick)
  /// instead of rebuilding M graphs per request. Topology stays immutable.
  /// Not thread-safe against concurrent solves on the same market; the
  /// server serialises per-market batches.
  void set_utility(ChannelId i, BuyerId j, double value) {
    prices_[index(i, j)] = value;
  }

  /// All buyers' prices on channel i — the MWIS weight vector of seller i.
  std::span<const double> channel_prices(ChannelId i) const;

  /// The whole price matrix, channel-major: prices()[i * N + j] = b_{i,j}.
  std::span<const double> prices() const { return prices_; }

  /// Buyer j's utility vector B_j = (b_{1,j}, ..., b_{M,j}) (materialised).
  std::vector<double> buyer_utilities(BuyerId j) const;

  const graph::InterferenceGraph& graph(ChannelId i) const;

  /// e^i_{j,j'}: do buyers j and j' interfere on channel i?
  bool interferes(ChannelId i, BuyerId j, BuyerId k) const;

  /// Seller i's reserve price (0 unless configured).
  double reserve(ChannelId i) const;

  /// Participation constraint: may buyer j trade on channel i at all?
  /// True iff her price strictly exceeds the channel's reserve (and is
  /// positive). Every algorithm and stability analyser routes through this.
  bool admissible(ChannelId i, BuyerId j) const {
    const double b = utility(i, j);
    return b > 0.0 && b > reserves_[static_cast<std::size_t>(i)];
  }

  /// Channels sorted by buyer j's utility, descending (index-ascending on
  /// ties), keeping only admissible channels (positive utility above the
  /// channel's reserve). This is the buyer's proposal order in Stage I.
  std::vector<ChannelId> buyer_preference_order(BuyerId j) const;

  /// Appends buyer j's preference order (same order as above) to `out`
  /// without allocating beyond `out`'s own growth — the engine's workspace
  /// builds its flattened CSR preference table through this.
  void append_buyer_preference_order(BuyerId j,
                                     std::vector<ChannelId>& out) const;

  int buyer_parent(BuyerId j) const;
  int seller_parent(SellerId i) const;

 private:
  std::size_t index(ChannelId i, BuyerId j) const;

  int num_channels_;
  int num_buyers_;
  std::vector<double> prices_;  // channel-major, M * N
  std::vector<graph::InterferenceGraph> graphs_;
  std::vector<int> buyer_parents_;
  std::vector<int> seller_parents_;
  std::vector<double> reserves_;  // per channel, defaults to zeros
};

/// The same market with every interference graph rebuilt under `rep`
/// (identical vertices, edges, prices, parents, reserves). Used by the
/// dense-vs-CSR property tests and the bench representation-comparison leg.
SpectrumMarket with_graph_representation(const SpectrumMarket& market,
                                         graph::GraphRep rep);

}  // namespace specmatch::market
