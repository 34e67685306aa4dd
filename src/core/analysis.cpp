// Communication profiles are filled from the shared consumer walk
// (core/consumers.hpp), the same one behind exact_*_volume and the dist
// multicast groups, so their totals equal the exact counters by
// construction; tile-load statistics count owners directly.
#include "core/analysis.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/consumers.hpp"

namespace anyblock::core {

std::int64_t CommProfile::total() const {
  std::int64_t sum = 0;
  for (const auto v : per_iteration) sum += v;
  return sum;
}

double CommProfile::sender_imbalance() const {
  if (per_node_sent.empty()) return 0.0;
  std::int64_t max = 0;
  std::int64_t sum = 0;
  for (const auto v : per_node_sent) {
    max = std::max(max, v);
    sum += v;
  }
  if (sum == 0) return 0.0;
  const double mean =
      static_cast<double>(sum) / static_cast<double>(per_node_sent.size());
  return static_cast<double>(max) / mean;
}

namespace {

CommProfile comm_profile(const Distribution& distribution, std::int64_t t,
                         bool symmetric) {
  CommProfile profile;
  profile.per_iteration.assign(static_cast<std::size_t>(t), 0);
  profile.per_node_sent.assign(
      static_cast<std::size_t>(distribution.num_nodes()), 0);
  for_each_fanout(distribution, t, symmetric,
                  [&](std::int64_t l, NodeId producer, std::int64_t receivers) {
                    profile.per_iteration[static_cast<std::size_t>(l)] +=
                        receivers;
                    profile.per_node_sent[static_cast<std::size_t>(producer)] +=
                        receivers;
                  });
  return profile;
}

}  // namespace

CommProfile lu_comm_profile(const Pattern& pattern, std::int64_t t) {
  if (!pattern.is_complete())
    throw std::invalid_argument("lu_comm_profile requires a complete pattern");
  return comm_profile(PatternDistribution(pattern, t, /*symmetric=*/false), t,
                      /*symmetric=*/false);
}

CommProfile cholesky_comm_profile(const Pattern& pattern, std::int64_t t) {
  if (!pattern.is_square())
    throw std::invalid_argument(
        "cholesky_comm_profile requires a square pattern");
  return comm_profile(PatternDistribution(pattern, t, /*symmetric=*/true), t,
                      /*symmetric=*/true);
}

LoadStats tile_load_stats(const Distribution& distribution, std::int64_t t,
                          bool symmetric) {
  std::vector<std::int64_t> loads(
      static_cast<std::size_t>(distribution.num_nodes()), 0);
  std::int64_t tiles = 0;
  for (std::int64_t i = 0; i < t; ++i) {
    const std::int64_t j_end = symmetric ? i + 1 : t;
    for (std::int64_t j = 0; j < j_end; ++j) {
      ++loads[static_cast<std::size_t>(distribution.owner(i, j))];
      ++tiles;
    }
  }
  LoadStats stats;
  const auto [lo, hi] = std::minmax_element(loads.begin(), loads.end());
  stats.min_tiles = *lo;
  stats.max_tiles = *hi;
  stats.mean_tiles =
      static_cast<double>(tiles) / static_cast<double>(loads.size());
  stats.imbalance =
      stats.mean_tiles > 0 ? static_cast<double>(*hi) / stats.mean_tiles : 0.0;
  return stats;
}

}  // namespace anyblock::core
