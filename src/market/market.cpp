#include "market/market.hpp"

#include <algorithm>
#include <cstddef>
#include <numeric>

#include "common/check.hpp"

namespace specmatch::market {

SpectrumMarket::SpectrumMarket(int num_channels, int num_buyers,
                               std::vector<double> prices,
                               std::vector<graph::InterferenceGraph> graphs,
                               std::vector<int> buyer_parents,
                               std::vector<int> seller_parents,
                               std::vector<double> reserves)
    : num_channels_(num_channels),
      num_buyers_(num_buyers),
      prices_(std::move(prices)),
      graphs_(std::move(graphs)),
      buyer_parents_(std::move(buyer_parents)),
      seller_parents_(std::move(seller_parents)),
      reserves_(std::move(reserves)) {
  SPECMATCH_CHECK_MSG(num_channels_ > 0, "market needs at least one channel");
  SPECMATCH_CHECK_MSG(num_buyers_ > 0, "market needs at least one buyer");
  SPECMATCH_CHECK_MSG(
      prices_.size() == static_cast<std::size_t>(num_channels_) *
                            static_cast<std::size_t>(num_buyers_),
      "price matrix has " << prices_.size() << " entries, expected "
                          << num_channels_ * num_buyers_);
  SPECMATCH_CHECK_MSG(graphs_.size() == static_cast<std::size_t>(num_channels_),
                      "need one interference graph per channel");
  for (const auto& g : graphs_)
    SPECMATCH_CHECK_MSG(
        g.num_vertices() == static_cast<std::size_t>(num_buyers_),
        "graph over " << g.num_vertices() << " vertices, expected "
                      << num_buyers_);
  if (buyer_parents_.empty()) {
    buyer_parents_.resize(static_cast<std::size_t>(num_buyers_));
    std::iota(buyer_parents_.begin(), buyer_parents_.end(), 0);
  }
  if (seller_parents_.empty()) {
    seller_parents_.resize(static_cast<std::size_t>(num_channels_));
    std::iota(seller_parents_.begin(), seller_parents_.end(), 0);
  }
  SPECMATCH_CHECK(buyer_parents_.size() ==
                  static_cast<std::size_t>(num_buyers_));
  SPECMATCH_CHECK(seller_parents_.size() ==
                  static_cast<std::size_t>(num_channels_));
  if (reserves_.empty())
    reserves_.assign(static_cast<std::size_t>(num_channels_), 0.0);
  SPECMATCH_CHECK_MSG(reserves_.size() ==
                          static_cast<std::size_t>(num_channels_),
                      "one reserve price per channel");
  for (double r : reserves_)
    SPECMATCH_CHECK_MSG(r >= 0.0, "negative reserve price " << r);
}

double SpectrumMarket::reserve(ChannelId i) const {
  SPECMATCH_CHECK(i >= 0 && i < num_channels_);
  return reserves_[static_cast<std::size_t>(i)];
}

std::size_t SpectrumMarket::index(ChannelId i, BuyerId j) const {
  SPECMATCH_DCHECK(i >= 0 && i < num_channels_);
  SPECMATCH_DCHECK(j >= 0 && j < num_buyers_);
  return static_cast<std::size_t>(i) * static_cast<std::size_t>(num_buyers_) +
         static_cast<std::size_t>(j);
}

std::span<const double> SpectrumMarket::channel_prices(ChannelId i) const {
  SPECMATCH_CHECK(i >= 0 && i < num_channels_);
  return std::span<const double>(prices_)
      .subspan(static_cast<std::size_t>(i) *
                   static_cast<std::size_t>(num_buyers_),
               static_cast<std::size_t>(num_buyers_));
}

std::vector<double> SpectrumMarket::buyer_utilities(BuyerId j) const {
  SPECMATCH_CHECK(j >= 0 && j < num_buyers_);
  std::vector<double> out(static_cast<std::size_t>(num_channels_));
  for (ChannelId i = 0; i < num_channels_; ++i) out[static_cast<std::size_t>(i)] = utility(i, j);
  return out;
}

const graph::InterferenceGraph& SpectrumMarket::graph(ChannelId i) const {
  SPECMATCH_CHECK(i >= 0 && i < num_channels_);
  return graphs_[static_cast<std::size_t>(i)];
}

bool SpectrumMarket::interferes(ChannelId i, BuyerId j, BuyerId k) const {
  return graph(i).has_edge(j, k);
}

std::vector<ChannelId> SpectrumMarket::buyer_preference_order(
    BuyerId j) const {
  std::vector<ChannelId> order;
  order.reserve(static_cast<std::size_t>(num_channels_));
  append_buyer_preference_order(j, order);
  return order;
}

void SpectrumMarket::append_buyer_preference_order(
    BuyerId j, std::vector<ChannelId>& out) const {
  const std::size_t begin = out.size();
  for (ChannelId i = 0; i < num_channels_; ++i)
    if (admissible(i, j)) out.push_back(i);
  // Plain sort with the index tie-break: channels enter index-ascending, so
  // this yields exactly the stable_sort-by-utility order the engine has
  // always used, without stable_sort's temporary buffer.
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(begin), out.end(),
            [&](ChannelId a, ChannelId b) {
              const double ua = utility(a, j);
              const double ub = utility(b, j);
              if (ua != ub) return ua > ub;
              return a < b;
            });
}

int SpectrumMarket::buyer_parent(BuyerId j) const {
  SPECMATCH_CHECK(j >= 0 && j < num_buyers_);
  return buyer_parents_[static_cast<std::size_t>(j)];
}

int SpectrumMarket::seller_parent(SellerId i) const {
  SPECMATCH_CHECK(i >= 0 && i < num_channels_);
  return seller_parents_[static_cast<std::size_t>(i)];
}

SpectrumMarket with_graph_representation(const SpectrumMarket& market,
                                         graph::GraphRep rep) {
  const int M = market.num_channels();
  const int N = market.num_buyers();
  std::vector<double> prices;
  prices.reserve(static_cast<std::size_t>(M) * static_cast<std::size_t>(N));
  std::vector<graph::InterferenceGraph> graphs;
  graphs.reserve(static_cast<std::size_t>(M));
  std::vector<int> seller_parents;
  seller_parents.reserve(static_cast<std::size_t>(M));
  std::vector<double> reserves;
  reserves.reserve(static_cast<std::size_t>(M));
  for (ChannelId i = 0; i < M; ++i) {
    const auto row = market.channel_prices(i);
    prices.insert(prices.end(), row.begin(), row.end());
    graphs.push_back(graph::with_representation(market.graph(i), rep));
    seller_parents.push_back(market.seller_parent(i));
    reserves.push_back(market.reserve(i));
  }
  std::vector<int> buyer_parents;
  buyer_parents.reserve(static_cast<std::size_t>(N));
  for (BuyerId j = 0; j < N; ++j)
    buyer_parents.push_back(market.buyer_parent(j));
  return SpectrumMarket(M, N, std::move(prices), std::move(graphs),
                        std::move(buyer_parents), std::move(seller_parents),
                        std::move(reserves));
}

}  // namespace specmatch::market
