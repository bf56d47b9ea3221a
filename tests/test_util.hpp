// Shared helpers for the specmatch test suites.
#pragma once

#include <initializer_list>
#include <vector>

#include "common/bitset.hpp"
#include "common/config.hpp"
#include "common/ids.hpp"
#include "common/thread_pool.hpp"
#include "matching/matching.hpp"

namespace specmatch::testutil {

/// Bitset of `size` bits with the given indices set.
inline DynamicBitset bits(std::size_t size,
                          std::initializer_list<std::size_t> indices) {
  DynamicBitset b(size);
  for (std::size_t i : indices) b.set(i);
  return b;
}

/// Builds a Matching from per-seller member lists (one list per channel).
inline matching::Matching make_matching(
    int num_channels, int num_buyers,
    const std::vector<std::vector<BuyerId>>& members_per_seller) {
  matching::Matching m(num_channels, num_buyers);
  for (std::size_t i = 0; i < members_per_seller.size(); ++i)
    for (BuyerId j : members_per_seller[i])
      m.match(j, static_cast<SellerId>(i));
  return m;
}

/// Sets the engine thread count for the duration of a scope and restores
/// the previous value (and pool) on exit.
class ScopedThreads {
 public:
  explicit ScopedThreads(int num_threads)
      : saved_(SpecmatchConfig::global().num_threads) {
    SpecmatchConfig::global().num_threads = num_threads;
    (void)ThreadPool::global();
  }
  ~ScopedThreads() {
    SpecmatchConfig::global().num_threads = saved_;
    (void)ThreadPool::global();
  }

 private:
  int saved_;
};

/// Members of seller i as a sorted vector (bitsets print poorly in gtest).
inline std::vector<BuyerId> members(const matching::Matching& m, SellerId i) {
  std::vector<BuyerId> out;
  m.members_of(i).for_each_set(
      [&](std::size_t j) { out.push_back(static_cast<BuyerId>(j)); });
  return out;
}

}  // namespace specmatch::testutil
