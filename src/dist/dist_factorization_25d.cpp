// The distributed LU and lower Cholesky factorizations: one rank driver
// for every memory factor c (core/replicated.hpp).
//
// Rank q * P_b + b is base rank b's replica on layer q.  Every iteration l
// runs node-for-node like the right-looking 2D rank body on layer l mod c
// — panel multicasts never leave the layer — and trailing updates
// accumulate into layer-local partial sums.  The only inter-layer traffic
// is the reduce phase at the head of each iteration: each remote layer
// flushes its partial of every tile the iteration is about to finalize to
// the home replica (a single-destination multicast, so message counts stay
// comparable across collectives), and the home replica adds them in
// ascending layer order — the deterministic summation order the run-twice
// tests rely on.
//
// With c = 1 the reduce phases are empty and layer 0's view is the base
// distribution: that is the plain 2D factorization, which
// distributed_lu/distributed_cholesky run through here.  With c > 1 the
// result is deterministic but sums updates in a different order than the
// 2D schedule.
//
// Tag bands: [0, t^2) panel tiles (disjoint rank sets per layer), the
// gather at [t^2, 2 t^2), and [t^2 * (2 + q), t^2 * (3 + q)) for reduces
// flushed from layer q.  The one-layer run never uses a reduce band.
#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "comm/multicast.hpp"
#include "core/consumers.hpp"
#include "dist/dist_factorization.hpp"
#include "dist/rank_helpers.hpp"
#include "linalg/kernels.hpp"

namespace anyblock::dist {
namespace {

using core::NodeId;
using detail::TileStore;
using detail::receive_published;
using linalg::TiledMatrix;
using vmpi::Payload;
using vmpi::RankContext;

/// The base distribution as seen from one layer: every tile is owned by its
/// base owner's replica on that layer.  Passing the view of layer l mod c
/// into an iteration body reproduces the base schedule inside the layer,
/// self-skips included; ranks of every other layer own nothing under the
/// view and fall straight through.
class LayerView final : public core::Distribution {
 public:
  LayerView(const core::ReplicatedDistribution& dist, std::int64_t layer)
      : dist_(dist), layer_(layer) {}
  [[nodiscard]] NodeId owner(std::int64_t i, std::int64_t j) const override {
    return dist_.replica(dist_.base().owner(i, j), layer_);
  }
  [[nodiscard]] std::int64_t num_nodes() const override {
    return dist_.num_nodes();
  }
  [[nodiscard]] std::string name() const override { return dist_.name(); }

 private:
  const core::ReplicatedDistribution& dist_;
  std::int64_t layer_;
};

/// One elimination iteration of the LU (or, when `symmetric`, lower
/// Cholesky) rank body under `distribution` (the compute layer's view).
/// Every published tile travels through comm::Multicast under `config` to
/// the owners of its consumers (core/consumers.hpp), a list every rank
/// rebuilds identically, so forwarding collectives can derive their role
/// from the list alone.
void iteration_rank(RankContext& ctx, TileStore& store,
                    const core::Distribution& distribution, std::int64_t t,
                    std::int64_t l, std::int64_t nb, bool symmetric,
                    std::atomic<bool>& ok,
                    const comm::CollectiveConfig& config) {
  const int self = ctx.rank();
  const auto owner = [&](std::int64_t i, std::int64_t j) {
    return distribution.owner(i, j);
  };
  const auto group = [&](std::int64_t i, std::int64_t j) {
    detail::GroupBuilder builder(owner(i, j));
    core::for_each_consumer_owner(distribution, t, symmetric, l, i, j,
                                  [&](NodeId node) { builder.add(node); });
    return std::move(builder).take();
  };

  // --- Produce in publication order: GETRF/POTRF(l, l), then the TRSMs
  // on owned panel tiles (Cholesky: colrow i of the trailing matrix,
  // Fig. 2, right), each multicast as soon as it exists.  Panel owners
  // are always diagonal-group members, so a rank that does not own the
  // diagonal receives it before its first TRSM.
  core::for_each_publication(t, symmetric, l, [&](std::int64_t i,
                                                  std::int64_t j) {
    const bool diagonal = i == l && j == l;
    if (owner(i, j) != self) {
      if (diagonal)
        receive_published(store, ctx, config, l, l, owner(l, l), group(l, l));
      return;
    }
    Payload& tile = store.get(i, j);
    if (diagonal) {
      if (!(symmetric ? linalg::potrf_lower(tile, nb)
                      : linalg::getrf_nopiv(tile, nb)))
        ok.store(false);
    } else if (symmetric) {
      linalg::trsm_right_lower_trans(store.get(l, l), tile, nb);
    } else if (j == l) {
      linalg::trsm_right_upper(store.get(l, l), tile, nb);
    } else {
      linalg::trsm_left_lower_unit(store.get(l, l), tile, nb);
    }
    comm::multicast_send(ctx, config, store.key(i, j), tile, group(i, j));
  });

  // --- Receive the other panels in publication order.  The order is
  // identical on every rank, so relay obligations of the tree and chain
  // algorithms can never form a cycle; afterwards all update inputs are
  // local (a Cholesky update tile (i, j) sits on colrow j via cell (i, j)
  // with i >= j, so its owner is in both panel groups).
  core::for_each_publication(t, symmetric, l, [&](std::int64_t i,
                                                  std::int64_t j) {
    if ((i == l && j == l) || owner(i, j) == self) return;
    receive_published(store, ctx, config, i, j, owner(i, j), group(i, j));
  });

  // --- Updates on owned trailing tiles: GEMM over the square for LU,
  // SYRK/GEMM over the lower triangle for Cholesky.
  for (std::int64_t i = l + 1; i < t; ++i) {
    const std::int64_t j_end = symmetric ? i + 1 : t;
    for (std::int64_t j = l + 1; j < j_end; ++j) {
      if (owner(i, j) != self) continue;
      if (!symmetric) {
        linalg::gemm_update(store.get(i, l), store.get(l, j),
                            store.get(i, j), nb);
      } else if (i == j) {
        linalg::syrk_update_lower(store.get(i, l), store.get(i, i), nb);
      } else {
        linalg::gemm_update_trans_b(store.get(i, l), store.get(j, l),
                                    store.get(i, j), nb);
      }
    }
  }
}

/// Flush/receive the remote-layer partial sums of one tile iteration l is
/// about to finalize.  Remote layers send; the home replica accumulates in
/// ascending source-layer order.
void reduce_tile(RankContext& ctx, TileStore& store,
                 const core::ReplicatedDistribution& dist, std::int64_t t,
                 std::int64_t l, std::int64_t i, std::int64_t j,
                 const comm::CollectiveConfig& config) {
  const int self = ctx.rank();
  const NodeId base_owner = dist.base().owner(i, j);
  const int home =
      static_cast<int>(dist.replica(base_owner, dist.home_layer(l)));
  for (std::int64_t s = 0; s < dist.remote_layer_count(l); ++s) {
    const std::int64_t source_layer = dist.remote_layer(l, s);
    const int source = static_cast<int>(dist.replica(base_owner, source_layer));
    const std::int64_t tag = t * t * (2 + source_layer) + store.key(i, j);
    const std::vector<int> dests{home};
    if (self == source) {
      comm::multicast_send(ctx, config, tag, store.get(i, j), dests);
    } else if (self == home) {
      const Payload partial =
          comm::multicast_recv(ctx, config, tag, source, dests);
      Payload& accumulator = store.get(i, j);
      for (std::size_t e = 0; e < accumulator.size(); ++e)
        accumulator[e] += partial[e];
    }
  }
}

DistRunResult run_factorization(const TiledMatrix& input,
                                const core::ReplicatedDistribution& distribution,
                                const comm::CollectiveConfig& config,
                                obs::Recorder* recorder,
                                fault::FaultInjector* injector,
                                bool symmetric) {
  const std::int64_t t = input.tiles();
  const std::int64_t nb = input.tile_size();
  const int ranks = static_cast<int>(distribution.num_nodes());

  DistRunResult result;
  result.factored = TiledMatrix(t, nb);
  std::mutex out_mutex;
  std::atomic<bool> ok{true};
  std::vector<std::int64_t> factor_messages(static_cast<std::size_t>(ranks));
  std::vector<std::int64_t> factor_received(static_cast<std::size_t>(ranks));

  result.report = vmpi::run_ranks(ranks, [&](RankContext& ctx) {
    const int self = ctx.rank();
    TileStore store = detail::make_rank_store(input, distribution, self,
                                              /*lower_only=*/symmetric);
    detail::factorize_rank(ctx, store, distribution, t, nb, symmetric, ok,
                           config);
    const auto traffic = ctx.traffic();
    factor_messages[static_cast<std::size_t>(self)] = traffic.messages_sent;
    factor_received[static_cast<std::size_t>(self)] =
        traffic.messages_received;
    detail::gather_to_root(store, ctx, t, distribution,
                           /*lower_only=*/symmetric, result.factored,
                           out_mutex, t * t);
  }, {recorder, injector});

  result.ok = ok.load();
  for (const auto count : factor_messages) result.tile_messages += count;
  for (const auto count : factor_received)
    result.tile_messages_received += count;
  return result;
}

}  // namespace

namespace detail {

TileStore make_rank_store(const TiledMatrix& input,
                          const core::ReplicatedDistribution& dist, int rank,
                          bool lower_only) {
  const std::int64_t t = input.tiles();
  const std::int64_t my_layer = rank / dist.base_nodes();
  const LayerView view(dist, my_layer);
  TileStore store(input, view, rank, lower_only);
  for (std::int64_t i = 0; i < t; ++i) {
    const std::int64_t j_end = lower_only ? i + 1 : t;
    for (std::int64_t j = 0; j < j_end; ++j) {
      if (view.owner(i, j) != rank) continue;
      const std::int64_t m = i < j ? i : j;
      if (dist.home_layer(m) == my_layer) continue;
      Payload& tile = store.get(i, j);
      std::fill(tile.begin(), tile.end(), 0.0);
    }
  }
  return store;
}

void factorize_rank(RankContext& ctx, TileStore& store,
                    const core::ReplicatedDistribution& dist, std::int64_t t,
                    std::int64_t nb, bool symmetric, std::atomic<bool>& ok,
                    const comm::CollectiveConfig& config) {
  for (std::int64_t l = 0; l < t; ++l) {
    // Reduce phase: the tiles iteration l finalizes, in publication order.
    core::for_each_publication(
        t, symmetric, l, [&](std::int64_t i, std::int64_t j) {
          reduce_tile(ctx, store, dist, t, l, i, j, config);
        });
    iteration_rank(ctx, store, LayerView(dist, dist.home_layer(l)), t, l, nb,
                   symmetric, ok, config);
  }
}

}  // namespace detail

DistRunResult distributed_lu(const TiledMatrix& input,
                             const core::Distribution& distribution,
                             const comm::CollectiveConfig& config,
                             obs::Recorder* recorder,
                             fault::FaultInjector* injector) {
  return distributed_lu_25d(input, core::one_layer(distribution), config,
                            recorder, injector);
}

DistRunResult distributed_cholesky(const TiledMatrix& input,
                                   const core::Distribution& distribution,
                                   const comm::CollectiveConfig& config,
                                   obs::Recorder* recorder,
                                   fault::FaultInjector* injector) {
  return distributed_cholesky_25d(input, core::one_layer(distribution),
                                  config, recorder, injector);
}

DistRunResult distributed_lu_25d(const TiledMatrix& input,
                                 const core::ReplicatedDistribution& dist,
                                 const comm::CollectiveConfig& config,
                                 obs::Recorder* recorder,
                                 fault::FaultInjector* injector) {
  return run_factorization(input, dist, config, recorder, injector,
                           /*symmetric=*/false);
}

DistRunResult distributed_cholesky_25d(
    const TiledMatrix& input, const core::ReplicatedDistribution& dist,
    const comm::CollectiveConfig& config, obs::Recorder* recorder,
    fault::FaultInjector* injector) {
  return run_factorization(input, dist, config, recorder, injector,
                           /*symmetric=*/true);
}

}  // namespace anyblock::dist
