// Internal per-rank building blocks shared by the distributed
// factorizations (dist_factorization*.cpp) and solves (dist_solve.cpp).
// Not part of the public API.
//
// GroupBuilder turns an ordered consumer list into a multicast group.  The
// LU and Cholesky factorizations feed it the consumer rule of
// core/consumers.hpp, the walk core's exact message counts sum over; the
// solve groups list their consumers locally.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "comm/multicast.hpp"
#include "core/distribution.hpp"
#include "core/replicated.hpp"
#include "linalg/kernels.hpp"
#include "linalg/tiled_matrix.hpp"
#include "vmpi/vmpi.hpp"

namespace anyblock::dist::detail {

using core::NodeId;
using linalg::TiledMatrix;
using vmpi::Payload;
using vmpi::RankContext;

/// Per-rank working state: owned tiles plus a cache of received tiles.
class TileStore {
 public:
  TileStore(const TiledMatrix& input, const core::Distribution& distribution,
            int rank, bool lower_only)
      : t_(input.tiles()), nb_(input.tile_size()) {
    for (std::int64_t i = 0; i < t_; ++i) {
      const std::int64_t j_end = lower_only ? i + 1 : t_;
      for (std::int64_t j = 0; j < j_end; ++j) {
        if (distribution.owner(i, j) != rank) continue;
        const auto tile = input.tile(i, j);
        tiles_.emplace(key(i, j), Payload(tile.begin(), tile.end()));
      }
    }
  }

  [[nodiscard]] std::int64_t key(std::int64_t i, std::int64_t j) const {
    return i * t_ + j;
  }
  [[nodiscard]] bool has(std::int64_t i, std::int64_t j) const {
    return tiles_.contains(key(i, j));
  }
  Payload& get(std::int64_t i, std::int64_t j) { return tiles_.at(key(i, j)); }
  void put(std::int64_t i, std::int64_t j, Payload data) {
    tiles_.emplace(key(i, j), std::move(data));
  }
  [[nodiscard]] const std::unordered_map<std::int64_t, Payload>& all() const {
    return tiles_;
  }
  [[nodiscard]] std::int64_t nb() const { return nb_; }

 private:
  std::int64_t t_;
  std::int64_t nb_;
  std::unordered_map<std::int64_t, Payload> tiles_;
};

/// Collects the ordered distinct destination ranks of one tile multicast,
/// excluding the producing (root) rank.  The insertion order is fixed by
/// the caller's loop structure, so every rank that rebuilds the same group
/// obtains the identical list — the property comm::multicast_recv relies
/// on to derive forwarding roles without control messages.
class GroupBuilder {
 public:
  explicit GroupBuilder(NodeId root) : root_(static_cast<int>(root)) {}
  void add(NodeId node) {
    const int rank = static_cast<int>(node);
    if (rank == root_) return;
    if (std::find(dests_.begin(), dests_.end(), rank) == dests_.end())
      dests_.push_back(rank);
  }
  [[nodiscard]] std::vector<int> take() && { return std::move(dests_); }

 private:
  int root_;
  std::vector<int> dests_;
};

/// True when `rank` belongs to the multicast destination list.
inline bool in_group(int rank, const std::vector<int>& dests) {
  return std::find(dests.begin(), dests.end(), rank) != dests.end();
}

/// Receiver half of a tile multicast: when this rank consumes the tile
/// (appears in `dests`), blocks until it arrives — forwarding onward as the
/// collective algorithm requires — and stores it.  No-op otherwise.
inline void receive_published(TileStore& store, RankContext& ctx,
                              const comm::CollectiveConfig& config,
                              std::int64_t i, std::int64_t j, NodeId root,
                              const std::vector<int>& dests) {
  if (!in_group(ctx.rank(), dests)) return;
  store.put(i, j, comm::multicast_recv(ctx, config, store.key(i, j),
                                       static_cast<int>(root), dests));
}

/// Gathers all owned tiles to rank 0 and assembles the result matrix.
/// Gather tags sit at [gather_base, gather_base + t*t), above the caller's
/// own tag bands.
void gather_to_root(TileStore& store, RankContext& ctx, std::int64_t t,
                    const core::Distribution& distribution, bool lower_only,
                    TiledMatrix& out, std::mutex& out_mutex,
                    std::int64_t gather_base);

/// This rank's tile store under `dist`: one buffer per tile of its base
/// rank, holding the input values on the tile's home layer and a zero
/// accumulator on every other layer (remote layers only ever contribute
/// updates).  At one layer it is the rank's input tiles.
TileStore make_rank_store(const TiledMatrix& input,
                          const core::ReplicatedDistribution& dist, int rank,
                          bool lower_only);

/// One rank's share of the right-looking LU (or, when `symmetric`, lower
/// Cholesky) factorization under `dist`, reduce phases included; c = 1 is
/// the plain 2D schedule.  Panel tags sit in [0, t*t), reduce tags from
/// layer q in [t*t*(2+q), t*t*(3+q)).  On return the rank's home-layer
/// tiles hold their final values.
void factorize_rank(RankContext& ctx, TileStore& store,
                    const core::ReplicatedDistribution& dist, std::int64_t t,
                    std::int64_t nb, bool symmetric, std::atomic<bool>& ok,
                    const comm::CollectiveConfig& config);

}  // namespace anyblock::dist::detail
