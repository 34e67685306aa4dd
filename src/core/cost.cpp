#include "core/cost.hpp"

#include <stdexcept>
#include <vector>

#include "core/consumers.hpp"
#include "core/distribution.hpp"

namespace anyblock::core {

double lu_cost(const Pattern& pattern) {
  return pattern.mean_row_distinct() + pattern.mean_col_distinct();
}

double cholesky_cost(const Pattern& pattern) {
  return pattern.mean_colrow_distinct();
}

double symmetric_cost(const Pattern& pattern) {
  if (pattern.is_square()) return cholesky_cost(pattern);
  return lu_cost(pattern) - 1.0;
}

double predicted_lu_volume(const Pattern& pattern, std::int64_t t) {
  const double sum = static_cast<double>(t) * static_cast<double>(t + 1) / 2.0;
  return sum * (lu_cost(pattern) - 2.0);
}

double predicted_cholesky_volume(const Pattern& pattern, std::int64_t t) {
  const double sum = static_cast<double>(t) * static_cast<double>(t + 1) / 2.0;
  return sum * (cholesky_cost(pattern) - 1.0);
}

std::int64_t exact_lu_volume(const Pattern& pattern, std::int64_t t) {
  if (!pattern.is_complete())
    throw std::invalid_argument("exact_lu_volume requires a complete pattern");
  const std::int64_t r = pattern.rows();
  const std::int64_t c = pattern.cols();
  DistinctCounter distinct(pattern.num_nodes());
  std::int64_t volume = 0;

  auto owner = [&](std::int64_t i, std::int64_t j) {
    return pattern.at(i % r, j % c);
  };

  for (std::int64_t l = 0; l + 1 < t; ++l) {
    // Diagonal tile (l, l): needed by the TRSM owners on row l (right of l)
    // and on column l (below l).
    distinct.begin(owner(l, l));
    for (std::int64_t j = l + 1; j < t && j <= l + c; ++j)
      distinct.add(owner(l, j));
    for (std::int64_t i = l + 1; i < t && i <= l + r; ++i)
      distinct.add(owner(i, l));
    volume += distinct.count();

    // Panel tile (i, l): needed by GEMM owners on row i, columns > l.  Under
    // cyclic replication the trailing row repeats with period c, so scanning
    // min(t-1-l, c) columns covers every distinct owner.
    for (std::int64_t i = l + 1; i < t; ++i) {
      distinct.begin(owner(i, l));
      for (std::int64_t j = l + 1; j < t && j <= l + c; ++j)
        distinct.add(owner(i, j));
      volume += distinct.count();
    }

    // Panel tile (l, j): needed by GEMM owners on column j, rows > l.
    for (std::int64_t j = l + 1; j < t; ++j) {
      distinct.begin(owner(l, j));
      for (std::int64_t i = l + 1; i < t && i <= l + r; ++i)
        distinct.add(owner(i, j));
      volume += distinct.count();
    }
  }
  return volume;
}

std::int64_t exact_cholesky_volume(const Pattern& pattern, std::int64_t t) {
  if (!pattern.is_square())
    throw std::invalid_argument(
        "exact_cholesky_volume requires a square pattern");
  return exact_cholesky_volume(
      PatternDistribution(pattern, t, /*symmetric=*/true), t);
}

std::int64_t exact_lu_volume(const Distribution& distribution,
                             std::int64_t t) {
  return exact_lu_messages(distribution, t, comm::CollectiveConfig{});
}

std::int64_t exact_cholesky_volume(const Distribution& distribution,
                                   std::int64_t t) {
  return exact_cholesky_messages(distribution, t, comm::CollectiveConfig{});
}

namespace {

std::vector<std::int64_t> message_profile(const Distribution& distribution,
                                          std::int64_t t, bool symmetric,
                                          const comm::CollectiveConfig& config) {
  std::vector<std::int64_t> profile(static_cast<std::size_t>(t), 0);
  for_each_fanout(distribution, t, symmetric,
                  [&](std::int64_t l, NodeId, std::int64_t receivers) {
                    profile[static_cast<std::size_t>(l)] +=
                        comm::multicast_messages(receivers, config);
                  });
  return profile;
}

std::int64_t sum_of(const std::vector<std::int64_t>& values) {
  std::int64_t total = 0;
  for (const auto v : values) total += v;
  return total;
}

}  // namespace

std::vector<std::int64_t> lu_message_profile(
    const Distribution& distribution, std::int64_t t,
    const comm::CollectiveConfig& config) {
  return message_profile(distribution, t, /*symmetric=*/false, config);
}

std::vector<std::int64_t> cholesky_message_profile(
    const Distribution& distribution, std::int64_t t,
    const comm::CollectiveConfig& config) {
  return message_profile(distribution, t, /*symmetric=*/true, config);
}

std::int64_t exact_lu_messages(const Distribution& distribution,
                               std::int64_t t,
                               const comm::CollectiveConfig& config) {
  return sum_of(lu_message_profile(distribution, t, config));
}

std::int64_t exact_cholesky_messages(const Distribution& distribution,
                                     std::int64_t t,
                                     const comm::CollectiveConfig& config) {
  return sum_of(cholesky_message_profile(distribution, t, config));
}

std::int64_t reduce_count_lu(std::int64_t t, std::int64_t layers) {
  std::int64_t total = 0;
  for (std::int64_t l = 0; l < t; ++l) {
    const std::int64_t rq = l < layers - 1 ? l : layers - 1;
    total += (2 * (t - 1 - l) + 1) * rq;
  }
  return total;
}

std::int64_t reduce_count_cholesky(std::int64_t t, std::int64_t layers) {
  std::int64_t total = 0;
  for (std::int64_t l = 0; l < t; ++l) {
    const std::int64_t rq = l < layers - 1 ? l : layers - 1;
    total += (t - l) * rq;
  }
  return total;
}

std::int64_t exact_lu_volume_25d(const ReplicatedDistribution& distribution,
                                 std::int64_t t) {
  return exact_lu_volume(distribution.base(), t) +
         reduce_count_lu(t, distribution.layers());
}

std::int64_t exact_cholesky_volume_25d(
    const ReplicatedDistribution& distribution, std::int64_t t) {
  return exact_cholesky_volume(distribution.base(), t) +
         reduce_count_cholesky(t, distribution.layers());
}

std::int64_t exact_lu_messages_25d(const ReplicatedDistribution& distribution,
                                   std::int64_t t,
                                   const comm::CollectiveConfig& config) {
  return exact_lu_messages(distribution.base(), t, config) +
         reduce_count_lu(t, distribution.layers()) *
             comm::multicast_messages(1, config);
}

std::int64_t exact_cholesky_messages_25d(
    const ReplicatedDistribution& distribution, std::int64_t t,
    const comm::CollectiveConfig& config) {
  return exact_cholesky_messages(distribution.base(), t, config) +
         reduce_count_cholesky(t, distribution.layers()) *
             comm::multicast_messages(1, config);
}

namespace {

std::vector<std::int64_t> send_profile_25d(
    const ReplicatedDistribution& distribution, std::int64_t t,
    bool symmetric) {
  const Distribution& base = distribution.base();
  std::vector<std::int64_t> profile(
      static_cast<std::size_t>(distribution.num_nodes()), 0);
  // Panel broadcasts of iteration l, all inside compute layer l mod c.
  for_each_fanout(base, t, symmetric,
                  [&](std::int64_t l, NodeId producer, std::int64_t receivers) {
                    profile[static_cast<std::size_t>(distribution.replica(
                        producer, distribution.home_layer(l)))] += receivers;
                  });
  // Inter-layer reduction: every tile finalized at iteration m is flushed by
  // each remote layer that accumulated a partial sum for it (one tile each).
  for (std::int64_t m = 0; m < t; ++m) {
    const std::int64_t rq = distribution.remote_layer_count(m);
    for_each_publication(t, symmetric, m, [&](std::int64_t i, std::int64_t j) {
      for (std::int64_t s = 0; s < rq; ++s)
        profile[static_cast<std::size_t>(distribution.replica(
            base.owner(i, j), distribution.remote_layer(m, s)))] += 1;
    });
  }
  return profile;
}

}  // namespace

std::vector<std::int64_t> lu_send_profile_25d(
    const ReplicatedDistribution& distribution, std::int64_t t) {
  return send_profile_25d(distribution, t, /*symmetric=*/false);
}

std::vector<std::int64_t> cholesky_send_profile_25d(
    const ReplicatedDistribution& distribution, std::int64_t t) {
  return send_profile_25d(distribution, t, /*symmetric=*/true);
}

}  // namespace anyblock::core
