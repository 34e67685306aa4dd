// The owner-computes consumer rule of the right-looking tile LU and lower
// Cholesky factorizations (paper, Section II-C): at iteration l every
// published tile travels to the owners of the tasks that read it.
//
// This is the one definition core's exact counters (core/cost.cpp,
// core/analysis.cpp) and dist's multicast groups (dist/rank_helpers.hpp)
// share.  The simulator's generators, the materialized builders of
// tests/sim/oracle/ and the periodicity shortcut exact_lu_volume(Pattern)
// keep their own copies on purpose, as independent checks of this one.
//
// Visitors are template callables; the walk allocates nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/distribution.hpp"

namespace anyblock::core {

/// Calls f(i, j) for each tile published at iteration l, in publication
/// order: the diagonal (l, l), then the column panel (i, l) by ascending
/// i, then (LU only, `symmetric` false) the row panel (l, j) by ascending
/// j.  These are also the tiles iteration l finalizes.
template <class F>
void for_each_publication(std::int64_t t, bool symmetric, std::int64_t l,
                          F&& f) {
  f(l, l);
  for (std::int64_t i = l + 1; i < t; ++i) f(i, l);
  if (symmetric) return;
  for (std::int64_t j = l + 1; j < t; ++j) f(l, j);
}

/// Calls f(owner) for the owner of each task that reads tile (i, j),
/// published at iteration l, in this order:
///   LU diagonal       TRSM owners on column l, then on row l;
///   LU (i, l)         GEMM owners on row i;
///   LU (l, j)         GEMM owners on column j;
///   Cholesky diagonal TRSM owners on column l;
///   Cholesky (i, l)   update owners on colrow i (Fig. 2, right): row
///                     segment (i, j) for l < j <= i, then column segment
///                     (k, i) for i <= k < t.
/// Owners repeat, the producer included; the order is the one every rank
/// rebuilds a multicast group in, so it must not change.
template <class F>
void for_each_consumer_owner(const Distribution& dist, std::int64_t t,
                             bool symmetric, std::int64_t l, std::int64_t i,
                             std::int64_t j, F&& f) {
  if (i == l && j == l) {
    for (std::int64_t k = l + 1; k < t; ++k) f(dist.owner(k, l));
    if (symmetric) return;
    for (std::int64_t k = l + 1; k < t; ++k) f(dist.owner(l, k));
  } else if (j == l && symmetric) {
    for (std::int64_t k = l + 1; k <= i; ++k) f(dist.owner(i, k));
    for (std::int64_t k = i; k < t; ++k) f(dist.owner(k, i));
  } else if (j == l) {
    for (std::int64_t k = l + 1; k < t; ++k) f(dist.owner(i, k));
  } else {
    for (std::int64_t k = l + 1; k < t; ++k) f(dist.owner(k, j));
  }
}

/// Distinct-node accumulator with epoch marking: clears in O(1) between
/// queries, so counting loops stay linear in cells visited.
class DistinctCounter {
 public:
  explicit DistinctCounter(std::int64_t num_nodes)
      : mark_(static_cast<std::size_t>(num_nodes), 0) {}

  /// Starts a new set that never counts `excluded` (the producer).
  void begin(NodeId excluded) {
    ++epoch_;
    excluded_ = excluded;
    count_ = 0;
  }

  void add(NodeId n) {
    if (n == excluded_) return;
    auto& m = mark_[static_cast<std::size_t>(n)];
    if (m != epoch_) {
      m = epoch_;
      ++count_;
    }
  }

  [[nodiscard]] std::int64_t count() const { return count_; }

 private:
  std::vector<std::uint64_t> mark_;
  std::uint64_t epoch_ = 0;
  NodeId excluded_ = Pattern::kFree;
  std::int64_t count_ = 0;
};

/// Calls f(l, producer, receivers) for every tile published over the whole
/// factorization of a t x t tile grid, iteration by iteration in
/// publication order, where `receivers` is the number of distinct consumer
/// nodes other than the producer: the size of the tile's multicast group.
template <class F>
void for_each_fanout(const Distribution& dist, std::int64_t t, bool symmetric,
                     F&& f) {
  DistinctCounter distinct(dist.num_nodes());
  for (std::int64_t l = 0; l < t; ++l) {
    for_each_publication(t, symmetric, l, [&](std::int64_t i, std::int64_t j) {
      const NodeId producer = dist.owner(i, j);
      distinct.begin(producer);
      for_each_consumer_owner(dist, t, symmetric, l, i, j,
                              [&](NodeId n) { distinct.add(n); });
      f(l, producer, distinct.count());
    });
  }
}

}  // namespace anyblock::core
