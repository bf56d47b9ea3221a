#include "market/preferences.hpp"

#include "market/coalition.hpp"

namespace specmatch::market {

double buyer_utility_in(const SpectrumMarket& market, BuyerId j,
                        ChannelId channel, const DynamicBitset& members) {
  if (channel == kUnmatched) return 0.0;
  // Interference graphs have no self-loops (from_edges rejects them, and
  // neighbour enumerations skip the vertex itself), so N(j) can never
  // contain j and testing against `members` directly is already j-exclusive
  // — no copy-and-mask-out-j temporary. This predicate is the
  // innermost call of Stage II screening and every stability check, so it
  // must stay allocation-free: is_compatible is one word-parallel intersects
  // on dense graphs and an early-exit O(deg) row walk on CSR.
  if (!market.graph(channel).is_compatible(j, members)) return 0.0;
  return market.utility(channel, j);
}

bool buyer_prefers(const SpectrumMarket& market, BuyerId j, ChannelId channel1,
                   const DynamicBitset& members1, ChannelId channel2,
                   const DynamicBitset& members2) {
  const double u1 = buyer_utility_in(market, j, channel1, members1);
  const double u2 = buyer_utility_in(market, j, channel2, members2);
  return u1 > u2;
}

bool seller_prefers(const SpectrumMarket& market, ChannelId channel,
                    const DynamicBitset& members_a,
                    const DynamicBitset& members_b) {
  // Eq. (6) with the paper's indifference assumptions collapses to comparing
  // "effective values": an interference-free coalition is worth its total
  // offered price, an interfering one ties with being unmatched (worth 0,
  // since prices are non-negative).
  const auto effective = [&](const DynamicBitset& members) {
    return coalition_value(market, channel, members).value_or(0.0);
  };
  return effective(members_a) > effective(members_b);
}

}  // namespace specmatch::market
